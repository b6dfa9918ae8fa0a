//! Differential suite for the location merge: `merge_sorted_with_offsets_into`
//! against the k-way min-scan it replaced (`merge_oracle`), through one
//! output vector that every case leaves dirty for the next.
//!
//! The branch-free merge advances every list whose head equals the minimum
//! and keeps a step's output only if it differs from the last one, with an
//! exhausted list's head a sentinel above every `u32`. So the inputs lean on
//! where those rules could be wrong: lists that tie location for location
//! after their offsets are subtracted (the shape of a read's three seeds in a
//! repeat), identical lists, suffixes, repeats inside one list, offsets equal
//! to a location or above every one, and values at both ends of `u32` — a
//! location of `u32::MAX` is one below the sentinel, `0` is what an offset
//! equal to a location leaves.
//!
//! Beside each start the merge writes its seed support, held here to a
//! brute-force count of the lists holding a `v` with `v - off == start`
//! (the oracle predates support and merges starts only).
//!
//! Debug builds run a reduced case count; CI runs this crate's tests in
//! release mode at the full count.

mod merge_oracle;

use gx_seedmap::{merge_sorted_with_offsets_into, MAX_MERGE_LISTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const CASES: usize = 40_000;

/// List lengths drawn half the time; the other half is uniform in `0..=600`.
/// 500 is the index's default filtering threshold, the longest bucket a
/// query can meet.
const LENS: [usize; 13] = [0, 1, 2, 3, 7, 16, 31, 64, 100, 499, 500, 501, 600];

fn cases() -> usize {
    if cfg!(debug_assertions) {
        CASES / 20
    } else {
        CASES
    }
}

/// Where a case's locations sit in `u32`.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Region {
    /// From 0 up, gaps of at most 8: offsets 50 and 100 cut into the lists.
    Low,
    /// [`Region::Low`] mirrored to end at or just below `u32::MAX`.
    High,
    /// Spread over all of `u32`.
    Spread,
}

/// How list `i > 0` of a case relates to list 0.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Relation {
    Independent,
    Identical,
    /// List 0 moved by the two offsets' difference: after subtraction the
    /// two lists tie location for location.
    Aligned,
    /// Drawn like list 0, with list 0's values removed.
    Disjoint,
    Suffix,
}

/// A sorted list of `len` values; strictly increasing unless `repeats`.
fn list(rng: &mut StdRng, len: usize, repeats: bool, region: Region) -> Vec<u32> {
    let max_gap = match region {
        Region::Spread => u32::MAX / (len as u32 + 1),
        Region::Low | Region::High => 8,
    };
    // At most `len + 1` steps of at most `max_gap`: no overflow.
    let mut x = rng.random_range(0..=max_gap.min(3));
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        v.push(x);
        x += if repeats && rng.random_bool(0.3) {
            0
        } else {
            rng.random_range(1..=max_gap)
        };
    }
    if region == Region::High {
        v.iter_mut().for_each(|x| *x = u32::MAX - *x);
        v.reverse();
    }
    v
}

/// An offset for `list`: a seed offset in a 150-base read, one of the
/// list's own values, or one above all of them (as far as `u32` goes).
fn offset(rng: &mut StdRng, list: &[u32]) -> u32 {
    match rng.random_range(0..5) {
        0 => 0,
        1 => 50,
        2 => 100,
        3 if !list.is_empty() => list[rng.random_range(0..list.len())],
        _ => list.last().map_or(1, |&m| m.saturating_add(1)),
    }
}

#[derive(Default, Debug)]
struct Mix {
    lists: [usize; MAX_MERGE_LISTS + 1],
    /// Cases where some location is below its offset.
    filtered: usize,
    /// Cases where lists share a read start after subtraction.
    cross_ties: usize,
    /// Cases with a repeat inside one list.
    repeats: usize,
    /// Cases with more than 500 locations in all.
    long: usize,
    /// Outputs holding `0`, and holding `u32::MAX`.
    zero: usize,
    top: usize,
    empty: usize,
}

/// How many of `lists` place a read at each start, by counting.
fn brute_force_support(lists: &[(&[u32], u32)]) -> Vec<u8> {
    let mut count = BTreeMap::<u32, u8>::new();
    for &(list, off) in lists {
        let starts: BTreeSet<u32> = list
            .iter()
            .filter(|&&v| v >= off)
            .map(|&v| v - off)
            .collect();
        for start in starts {
            *count.entry(start).or_default() += 1;
        }
    }
    count.into_values().collect()
}

/// Merges `lists` with both merges, holds the library's starts to the
/// oracle and its support to a count, and checks that merging again into
/// the grown `got` and `support` does not reallocate.
fn merged(lists: &[(&[u32], u32)], got: &mut Vec<u32>, support: &mut Vec<u8>, want: &mut Vec<u32>) {
    merge_oracle::merge_sorted_with_offsets_into(lists, want);
    merge_sorted_with_offsets_into(lists, got, support);
    assert_eq!(got, want, "lists {lists:?}");
    assert_eq!(*support, brute_force_support(lists), "lists {lists:?}");
    let grown = |v: &Vec<u32>, s: &Vec<u8>| (v.as_ptr(), v.capacity(), s.as_ptr(), s.capacity());
    let before = grown(got, support);
    merge_sorted_with_offsets_into(lists, got, support);
    assert_eq!(grown(got, support), before, "reallocated");
    assert_eq!(got, want);
}

#[test]
fn branch_free_merge_equals_the_k_way_scan() {
    let mut rng = StdRng::seed_from_u64(0x05ee_d0a9);
    let (mut got, mut support, mut want) = (vec![7u32; 3], vec![9u8; 2], Vec::new());
    let mut mix = Mix::default();
    for _ in 0..cases() {
        let k = rng.random_range(0..=MAX_MERGE_LISTS);
        let region = match rng.random_range(0..4) {
            0 | 1 => Region::Low,
            2 => Region::High,
            _ => Region::Spread,
        };
        let repeats = rng.random_bool(0.25);
        let mut len = || {
            if rng.random_bool(0.5) {
                LENS[rng.random_range(0..LENS.len())]
            } else {
                rng.random_range(0..=600)
            }
        };
        let lens: Vec<usize> = (0..k).map(|_| len()).collect();
        let mut owned: Vec<(Vec<u32>, u32)> = Vec::with_capacity(k);
        for &len in &lens {
            let fresh = list(&mut rng, len, repeats, region);
            let Some((first, off0)) = owned.first() else {
                let off = offset(&mut rng, &fresh);
                owned.push((fresh, off));
                continue;
            };
            let relation = match rng.random_range(0..6) {
                0 | 1 => Relation::Independent,
                2 => Relation::Identical,
                3 => Relation::Aligned,
                4 => Relation::Disjoint,
                _ => Relation::Suffix,
            };
            let (l, off) = match relation {
                Relation::Independent => {
                    let off = offset(&mut rng, &fresh);
                    (fresh, off)
                }
                Relation::Identical => (first.clone(), offset(&mut rng, first)),
                Relation::Aligned => {
                    let off = [0, 50, 100][rng.random_range(0..3)];
                    let shift = i64::from(off) - i64::from(*off0);
                    let moved = first
                        .iter()
                        .filter_map(|&v| u32::try_from(i64::from(v) + shift).ok())
                        .collect();
                    (moved, off)
                }
                Relation::Disjoint => {
                    let mut l = fresh;
                    l.retain(|v| first.binary_search(v).is_err());
                    let off = offset(&mut rng, &l);
                    (l, off)
                }
                Relation::Suffix => {
                    let l = first[rng.random_range(0..=first.len())..].to_vec();
                    let off = offset(&mut rng, &l);
                    (l, off)
                }
            };
            owned.push((l, off));
        }
        let lists: Vec<(&[u32], u32)> = owned.iter().map(|(l, off)| (&l[..], *off)).collect();
        merged(&lists, &mut got, &mut support, &mut want);

        mix.lists[k] += 1;
        let kept: Vec<Vec<u32>> = lists
            .iter()
            .map(|&(l, off)| l.iter().filter(|&&v| v >= off).map(|&v| v - off).collect())
            .collect();
        let distinct_in_each: usize = kept
            .iter()
            .map(|l| l.len() - l.windows(2).filter(|w| w[0] == w[1]).count())
            .sum();
        mix.filtered += usize::from(kept.iter().zip(&lists).any(|(k, l)| k.len() < l.0.len()));
        mix.cross_ties += usize::from(distinct_in_each > got.len());
        mix.repeats += usize::from(lists.iter().any(|l| l.0.windows(2).any(|w| w[0] == w[1])));
        mix.long += usize::from(lists.iter().map(|l| l.0.len()).sum::<usize>() > 500);
        mix.zero += usize::from(got.first() == Some(&0));
        mix.top += usize::from(got.last() == Some(&u32::MAX));
        mix.empty += usize::from(got.is_empty());
    }
    // The suite is only as good as its mix: every list count and every
    // shape above, in the hundreds at the full count.
    let floor = cases() / 100;
    for (kind, n) in [
        ("no list", mix.lists[0]),
        ("one list", mix.lists[1]),
        ("two lists", mix.lists[2]),
        ("three lists", mix.lists[3]),
        ("filtered", mix.filtered),
        ("cross-list ties", mix.cross_ties),
        ("repeats", mix.repeats),
        ("long", mix.long),
        ("zero", mix.zero),
        ("u32::MAX", mix.top),
        ("empty", mix.empty),
    ] {
        assert!(n >= floor, "{kind}: {n} of {} cases ({mix:?})", cases());
    }
}

/// Every non-decreasing list of up to three values from `0..4`, under
/// offsets 0 and 2, in every combination of up to three lists.
#[test]
fn every_small_case_equals_the_k_way_scan() {
    let mut small: Vec<Vec<u32>> = vec![vec![]];
    for _ in 0..3 {
        let longer: Vec<Vec<u32>> = small
            .iter()
            .filter(|l| l.len() == small.last().map_or(0, Vec::len))
            .flat_map(|l| (l.last().copied().unwrap_or(0)..4).map(move |v| [&l[..], &[v]].concat()))
            .collect();
        small.extend(longer);
    }
    assert_eq!(small.len(), 35);
    let with_offsets: Vec<(&[u32], u32)> = small
        .iter()
        .flat_map(|l| [(&l[..], 0), (&l[..], 2)])
        .collect();
    let (mut got, mut support, mut want) = (Vec::new(), Vec::new(), Vec::new());
    let mut cases = 0usize;
    let mut lists = Vec::with_capacity(MAX_MERGE_LISTS);
    let mut visit = |lists: &[(&[u32], u32)]| {
        merged(lists, &mut got, &mut support, &mut want);
        cases += 1;
    };
    visit(&lists);
    for &a in &with_offsets {
        lists.push(a);
        visit(&lists);
        for &b in &with_offsets {
            lists.push(b);
            visit(&lists);
            for &c in &with_offsets {
                lists.push(c);
                visit(&lists);
                lists.pop();
            }
            lists.pop();
        }
        lists.pop();
    }
    assert_eq!(cases, 1 + 70 + 70 * 70 + 70 * 70 * 70);
}

#[test]
#[should_panic(expected = "at most 3 lists")]
fn more_lists_than_seeds_are_refused() {
    let l: &[u32] = &[1, 2, 3];
    merge_sorted_with_offsets_into(
        &[(l, 0); MAX_MERGE_LISTS + 1],
        &mut Vec::new(),
        &mut Vec::new(),
    );
}
