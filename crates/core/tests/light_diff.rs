//! Differential suite for the light aligner: every field of
//! [`LightAlignment`] (score, CIGAR, shift, mismatches, both run lengths)
//! and `None`-ness against the eager, mask-storing aligner it replaced
//! (`light_oracle`), over seeded random and adversarial inputs.
//!
//! The lazy aligner skips whatever cannot change the eager result, so the
//! inputs lean on the places where "cannot" is closest to wrong: tandem
//! repeats, where an earlier shift ties shift 0 and the enumeration order
//! decides; scorings under which an indel outscores a mismatch; limits of 0;
//! reads shorter than a word or a run; and windows cut off at either end,
//! where the lanes with no window base under them must count as mismatches.
//! One [`LightScratch`] is reused across every case, so a suffix memo
//! leaking from one call into the next shows up as a difference too.
//!
//! Debug builds run a reduced case count; CI runs this crate's tests in
//! release mode at the full count.

mod light_oracle;

use gx_align::Scoring;
use gx_core::light::{light_align_with, LightAlignment, LightConfig, LightScratch};
use gx_genome::{Cigar, DnaSeq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inputs generated at the full count; each is aligned under every
/// config × scoring pair (12 cases an input).
const INPUTS: usize = 17_000;

const READ_LENS: [usize; 11] = [1, 7, 31, 32, 33, 64, 65, 100, 128, 150, 151];

/// The deepest shift the default config explores, plus one: reads are
/// planted up to one base out of reach.
const MAX_SHIFT: i64 = 6;

fn configs() -> [LightConfig; 4] {
    let cfg = |max_indel_run, max_mismatches| LightConfig {
        max_indel_run,
        max_mismatches,
    };
    [LightConfig::default(), cfg(3, 2), cfg(0, 8), cfg(5, 0)]
}

/// Short-read preset, long-read preset (a one-base deletion, −6, outscores
/// one mismatch, −7) and a `gap_open = 0` scheme (two one-base indels cost
/// what one two-base run does).
fn scorings() -> [Scoring; 3] {
    let free_open = Scoring {
        match_score: 2,
        mismatch: 4,
        gap_open: 0,
        gap_ext: 2,
    };
    [Scoring::short_read(), Scoring::long_read(), free_open]
}

fn inputs() -> usize {
    if cfg!(debug_assertions) {
        INPUTS / 20
    } else {
        INPUTS
    }
}

type Fields = Option<(i32, Cigar, i32, u32, u32, u32)>;

fn fields(a: Option<LightAlignment>) -> Fields {
    a.map(|a| {
        (
            a.score,
            a.cigar,
            a.shift,
            a.mismatches,
            a.ins_run,
            a.del_run,
        )
    })
}

/// Where the reference bases of an input come from.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Source {
    Random,
    /// Tandem repeat of a 1–7 base unit with up to three substituted bases.
    Tandem,
    TwoLetter,
    OneLetter,
}

/// How the read differs from the reference bases it was copied from.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Edit {
    Mismatches,
    Deletion,
    Insertion,
    IndelAndMismatches,
    /// Not a copy at all.
    Unrelated,
}

struct Input {
    read: Vec<u8>,
    window: Vec<u8>,
    anchor: usize,
    source: Source,
}

fn reference(rng: &mut StdRng, len: usize, source: Source) -> Vec<u8> {
    match source {
        Source::Random => (0..len).map(|_| rng.random_range(0..4)).collect(),
        Source::TwoLetter => (0..len).map(|_| rng.random_range(0..2)).collect(),
        Source::OneLetter => vec![rng.random_range(0..4); len],
        Source::Tandem => {
            let unit_len = rng.random_range(1..=7);
            let unit: Vec<u8> = (0..unit_len).map(|_| rng.random_range(0..4)).collect();
            let mut g: Vec<u8> = (0..len).map(|i| unit[i % unit_len]).collect();
            for _ in 0..rng.random_range(0..=3) {
                let at = rng.random_range(0..len);
                g[at] = rng.random_range(0..4);
            }
            g
        }
    }
}

/// Substitutes `n` bases of `read` (positions may repeat; a substituted base
/// always differs from the one it replaces).
fn substitute(rng: &mut StdRng, read: &mut [u8], n: usize) {
    for _ in 0..n {
        let at = rng.random_range(0..read.len());
        read[at] = (read[at] + rng.random_range(1..4u8)) % 4;
    }
}

fn input(rng: &mut StdRng) -> Input {
    let len = READ_LENS[rng.random_range(0..READ_LENS.len())];
    let source = match rng.random_range(0..10) {
        0..=3 => Source::Random,
        4..=7 => Source::Tandem,
        8 => Source::TwoLetter,
        _ => Source::OneLetter,
    };
    let edit = match rng.random_range(0..10) {
        0..=2 => Edit::Mismatches,
        3..=4 => Edit::Deletion,
        5..=6 => Edit::Insertion,
        7..=8 => Edit::IndelAndMismatches,
        _ => Edit::Unrelated,
    };
    // The window is `g[lead..end]`; the candidate puts read base 0 on
    // `g[lead + anchor]` and the read was copied from `shift` bases further.
    let lead = 2 * MAX_SHIFT as usize;
    let anchor = rng.random_range(0..=11usize);
    let shift = rng.random_range(-MAX_SHIFT..=MAX_SHIFT);
    let g = reference(rng, lead + anchor + len + 4 * MAX_SHIFT as usize, source);
    let from = (lead as i64 + anchor as i64 + shift) as usize;
    let run = rng.random_range(1..=MAX_SHIFT as usize);
    let at = rng.random_range(0..=len);
    let mut read: Vec<u8> = match edit {
        Edit::Unrelated => (0..len).map(|_| rng.random_range(0..4)).collect(),
        Edit::Mismatches => g[from..from + len].to_vec(),
        Edit::Deletion => [&g[from..from + at], &g[from + at + run..from + run + len]].concat(),
        Edit::Insertion | Edit::IndelAndMismatches if run <= len => {
            let at = at.min(len - run);
            let inserted: Vec<u8> = (0..run).map(|_| rng.random_range(0..4)).collect();
            [
                &g[from..from + at],
                &inserted,
                &g[from + at..from + len - run],
            ]
            .concat()
        }
        Edit::Insertion | Edit::IndelAndMismatches => g[from..from + len].to_vec(),
    };
    match edit {
        Edit::Mismatches => {
            let n = rng.random_range(0..=11);
            substitute(rng, &mut read, n)
        }
        Edit::IndelAndMismatches => {
            let n = rng.random_range(1..=3);
            substitute(rng, &mut read, n)
        }
        _ => {}
    }
    assert_eq!(read.len(), len);
    // One window in four is cut short of the read's end; a small anchor
    // with a negative shift cuts the front the same way.
    let end = lead + anchor + len;
    let end = if rng.random_bool(0.25) {
        end - rng.random_range(0..=8).min(len - 1)
    } else {
        end + rng.random_range(0..=11)
    };
    Input {
        read,
        window: g[lead..end].to_vec(),
        anchor,
        source,
    }
}

/// Per-base Hamming distance of one shifted comparison; a read base with no
/// window base under it is a mismatch.
fn hamming(read: &[u8], window: &[u8], start: i64) -> u32 {
    let under = |i: usize| usize::try_from(start + i as i64).ok();
    (0..read.len())
        .filter(|&i| under(i).and_then(|w| window.get(w)) != Some(&read[i]))
        .count() as u32
}

#[derive(Default, Debug)]
struct Mix {
    ungapped: usize,
    del: usize,
    ins: usize,
    none: usize,
    /// Ungapped winners that at least one other shift ties on mismatches.
    ties: usize,
    /// … of which the winner is an earlier shift than 0.
    early_ties: usize,
    /// Ungapped winners with read bases hanging off the window.
    overhang: usize,
}

/// Aligns one case with both aligners and holds the library to the oracle.
fn aligned(
    (read, window, anchor): (&DnaSeq, &DnaSeq, usize),
    (config, scoring): (&LightConfig, &Scoring),
    scratch: &mut LightScratch,
    eager: &mut light_oracle::LightScratch,
) -> Fields {
    let want = fields(light_oracle::light_align_with(
        read, window, anchor, config, scoring, eager,
    ));
    let got = fields(light_align_with(
        read, window, anchor, config, scoring, scratch,
    ));
    assert_eq!(
        got, want,
        "read={read:?} window={window:?} anchor={anchor} {config:?} {scoring:?}"
    );
    got
}

#[test]
fn lazy_aligner_equals_the_eager_one() {
    let mut rng = StdRng::seed_from_u64(0x11_6874);
    let mut scratch = LightScratch::new();
    let mut eager = light_oracle::LightScratch::new();
    let mut mix = Mix::default();
    let mut cases = 0usize;
    for _ in 0..inputs() {
        let inp = input(&mut rng);
        let (read, window) = (
            DnaSeq::from_codes(&inp.read),
            DnaSeq::from_codes(&inp.window),
        );
        for config in configs() {
            for scoring in scorings() {
                let case = (&read, &window, inp.anchor);
                let got = aligned(case, (&config, &scoring), &mut scratch, &mut eager);
                cases += 1;
                match got {
                    None => mix.none += 1,
                    Some((_, _, shift, mismatches, 0, 0)) => {
                        mix.ungapped += 1;
                        // Independent of the oracle: the winner's count is
                        // the per-base one, overhanging bases included.
                        let at = |s: i64| hamming(&inp.read, &inp.window, inp.anchor as i64 + s);
                        let (shift, e) = (shift as i64, config.max_indel_run as i64);
                        assert_eq!(mismatches, at(shift));
                        let start = inp.anchor as i64 + shift;
                        if start < 0 || start + inp.read.len() as i64 > inp.window.len() as i64 {
                            mix.overhang += 1;
                        }
                        if inp.source == Source::Tandem
                            && (-e..=e).any(|s| s != shift && at(s) == mismatches)
                        {
                            mix.ties += 1;
                            mix.early_ties += usize::from(shift < 0);
                        }
                    }
                    Some((.., 0, _)) => mix.del += 1,
                    Some(_) => mix.ins += 1,
                }
            }
        }
    }
    // The suite is only as good as its mix: every kind of winner, refusals,
    // ties an earlier shift wins, and truncated windows, in the thousands at
    // the full count.
    let floor = cases / 200;
    assert!(cfg!(debug_assertions) || cases >= 200_000, "{cases} cases");
    for (kind, n) in [
        ("ungapped", mix.ungapped),
        ("deletion", mix.del),
        ("insertion", mix.ins),
        ("none", mix.none),
        ("ties", mix.ties),
        ("early ties", mix.early_ties),
        ("overhang", mix.overhang),
    ] {
        assert!(n >= floor, "{kind}: {n} of {cases} cases ({mix:?})");
    }
}

/// Empty inputs are refused; an anchor far past a short window leaves every
/// lane hanging off it (four mismatches, still inside the default limit).
#[test]
fn empty_inputs_and_a_runaway_anchor() {
    let (empty, some) = (DnaSeq::new(), DnaSeq::from_codes(&[0, 1, 2, 3]));
    let (config, scoring) = (LightConfig::default(), Scoring::short_read());
    let (mut scratch, mut eager) = (LightScratch::new(), light_oracle::LightScratch::new());
    for (read, window) in [
        (&empty, &some),
        (&some, &empty),
        (&empty, &empty),
        (&some, &some),
    ] {
        for anchor in [0, 3, 40] {
            let case = (read, window, anchor);
            let got = aligned(case, (&config, &scoring), &mut scratch, &mut eager);
            assert_eq!(got.is_none(), read.is_empty() || window.is_empty());
        }
    }
}
