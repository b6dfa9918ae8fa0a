//! Ablation: filter quality.
//!
//! (a) Paired-adjacency vs FastHASH-style single-end adjacency: how many
//!     candidate locations survive each filter on the same reads (the
//!     paper's motivation: single-end filters are weak on paired data).
//! (b) SneakySnake-style pre-filter vs Light Alignment at candidate sites:
//!     acceptance rates and agreement with DP ground truth (the paper's §8
//!     future-work combination).

use gx_align::{align, AlignMode, Scoring};
use gx_bench::{bench_genome, bench_pairs, render_table};
use gx_core::light::{light_align, LightConfig};
use gx_core::pafilter::{paired_adjacency_filter_ranked_into, PaFilterResult};
use gx_core::prefilter::{single_end_adjacency, sneaky_snake_filter};
use gx_core::seeding::query_read;
use gx_core::{GenPairConfig, GenPairMapper};
use gx_readsim::dataset::{simulate_variant_dataset, DATASETS};

fn main() {
    let genome = bench_genome();
    let n = bench_pairs().min(1_000);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let ds = simulate_variant_dataset(&genome, &DATASETS[0], n);
    let scoring = Scoring::short_read();
    let light_cfg = LightConfig::default();

    // ----- (a) adjacency filter comparison ------------------------------
    let mut cand_raw = 0u64;
    let mut cand_single = 0u64;
    let mut cand_paired = 0u64;

    // ----- (b) pre-filter quality ----------------------------------------
    let mut sites = 0u64;
    let mut snake_accept = 0u64;
    let mut light_accept = 0u64;
    let mut dp_good = 0u64;
    // DP-good but snake-rejected: only alignments whose gap runs exceed the
    // edit budget e (score-based ground truth admits gaps up to ~19 bases).
    let mut snake_missed_good = 0u64;
    let mut snake_only = 0u64; // snake accepts, DP bad (filter false positives)

    let mut pa = PaFilterResult::default();
    for p in &ds.pairs {
        let (r1o, r2o) = if p.truth.r1_forward {
            (p.r1.seq.clone(), p.r2.seq.revcomp())
        } else {
            (p.r1.seq.revcomp(), p.r2.seq.clone())
        };
        let c1 = query_read(&r1o, mapper.seedmap());
        let c2 = query_read(&r2o, mapper.seedmap());
        cand_raw += (c1.starts.len() + c2.starts.len()) as u64;

        // Single-end adjacency per read: seeds must agree within the read.
        let per_seed: Vec<Vec<u32>> = gx_core::seeding::partitioned_seeds(&r1o, mapper.seedmap())
            .iter()
            .map(|s| {
                mapper
                    .seedmap()
                    .locations_for_hash(s.hash)
                    .iter()
                    .filter(|&&l| l >= s.offset)
                    .map(|&l| l - s.offset)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u32]> = per_seed.iter().map(|v| v.as_slice()).collect();
        cand_single += single_end_adjacency(&refs, 10, 2).len() as u64;

        paired_adjacency_filter_ranked_into(&c1, &c2, 600, usize::MAX, &mut pa);
        cand_paired += pa.candidates.len() as u64;

        // Pre-filter quality at the paired candidates (read 1 side).
        for cand in pa.candidates.iter().take(8) {
            let locus = genome.locate(cand.start1);
            let (ws, window) = genome.clamped_window(locus.chrom, locus.pos as i64 - 5, 160);
            if window.len() < 150 {
                continue;
            }
            let anchor = (locus.pos - ws) as usize;
            sites += 1;
            let snake = sneaky_snake_filter(&r1o, &window, anchor, 5);
            let light = light_align(&r1o, &window, anchor, &light_cfg, &scoring).is_some();
            let dp = align(&r1o, &window, &scoring, AlignMode::Fit);
            let good = dp.score >= 250; // within a handful of edits
            snake_accept += snake as u64;
            light_accept += light as u64;
            dp_good += good as u64;
            snake_missed_good += (good && !snake) as u64;
            snake_only += (snake && !good) as u64;
        }
    }

    println!("=== Ablation: adjacency filters ({} pairs) ===\n", n);
    let rows = vec![
        vec![
            "raw candidates/read".to_string(),
            format!("{:.1}", cand_raw as f64 / (2 * n) as f64),
        ],
        vec![
            "single-end adjacency (FastHASH-style)".to_string(),
            format!("{:.1}", cand_single as f64 / n as f64),
        ],
        vec![
            "paired-adjacency (GenPair)".to_string(),
            format!("{:.1}", cand_paired as f64 / n as f64),
        ],
    ];
    println!(
        "{}",
        render_table(&["Filter", "Surviving candidates"], &rows)
    );
    println!("the paired filter must prune harder than intra-read adjacency.\n");

    println!(
        "=== Ablation: pre-alignment filter quality ({} candidate sites) ===\n",
        sites
    );
    let pct = |x: u64| 100.0 * x as f64 / sites.max(1) as f64;
    let rows = vec![
        vec![
            "SneakySnake-style accept".to_string(),
            format!("{:.1}%", pct(snake_accept)),
        ],
        vec![
            "Light Alignment accept".to_string(),
            format!("{:.1}%", pct(light_accept)),
        ],
        vec![
            "DP score >= 250 (ground truth)".to_string(),
            format!("{:.1}%", pct(dp_good)),
        ],
        vec![
            "snake rejects among DP-good (gap runs > e)".to_string(),
            format!("{:.2}%", pct(snake_missed_good)),
        ],
        vec![
            "snake false accepts".to_string(),
            format!("{:.1}%", pct(snake_only)),
        ],
    ];
    println!("{}", render_table(&["Metric", "Rate"], &rows));
    println!("SneakySnake filters (one-sided error, no alignment output); Light Alignment");
    println!("additionally produces score+CIGAR for the single-edit-type class (paper §8).");
}
