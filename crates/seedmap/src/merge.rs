//! Sorted-list merging for SeedMap query results.
//!
//! Querying the three seeds of a read returns three location slices that are
//! already sorted (the Location Table stores each bucket's positions in
//! genome order, §4.4). Turning them into candidate *read start* positions
//! requires subtracting each seed's offset within the read and merging — a
//! three-way sorted merge, which is exactly what the paper's design exploits
//! to keep the query stage sequential and burst-friendly.
//!
//! The merge is the one part of a query whose cost grows with bucket
//! occupancy (~9.5 locations a seed on GRCh38, the paper's Observation 2),
//! so its per-location step carries no branch the data decides: each step
//! takes the minimum of the three list heads (an exhausted list's head is a
//! sentinel above every location) and advances *every* list whose head
//! equals it, by adding the comparison's 0 or 1 to its index. Which list
//! wins, and whether lists tie, is arithmetic, not a jump to predict. That
//! matters most on a repeat: the three seeds hit the same copies, so after
//! the offsets are subtracted their lists tie or interleave location by
//! location, and a branch on which head is smallest would be a coin flip.
//!
//! The same comparisons count each start's *seed support*: how many list
//! heads equal it, i.e. how many of the read's seeds place the read there.
//! The paired-adjacency filter ranks its candidates by that count.

use gx_genome::GlobalPos;

/// Merges already-sorted slices into one sorted, deduplicated vector.
pub fn merge_sorted(lists: &[&[GlobalPos]]) -> Vec<GlobalPos> {
    merge_sorted_with_offsets(lists.iter().map(|l| (*l, 0u32)))
}

/// Merges sorted location slices after subtracting a per-list offset
/// (the seed's offset within the read), producing sorted, deduplicated
/// candidate read-start positions. Locations smaller than their offset
/// (a seed hit too close to the start of the genome to fit the whole read)
/// are discarded.
pub fn merge_sorted_with_offsets<'a, I>(lists: I) -> Vec<GlobalPos>
where
    I: IntoIterator<Item = (&'a [GlobalPos], u32)>,
{
    let lists: Vec<(&[GlobalPos], u32)> = lists.into_iter().collect();
    let mut out = Vec::new();
    merge_sorted_with_offsets_into(&lists, &mut out, &mut Vec::new());
    out
}

/// How many input lists [`merge_sorted_with_offsets_into`] accepts: one a
/// partitioned seed of a read. The merge keeps one head a list and pads
/// fewer lists with empty ones, so every list count runs the same loop.
pub const MAX_MERGE_LISTS: usize = 3;

/// [`merge_sorted_with_offsets`] writing into caller-owned vectors
/// (overwritten): the allocation-free variant the mapper's scratch arena
/// uses per read. Each output step is the minimum of the list heads, and
/// every list holding it advances, so no branch depends on the locations.
/// `support[i]` is how many of the lists place a read at `out[i]`: the
/// lists whose heads equal it at the step that first outputs it.
///
/// # Panics
///
/// Panics if `lists.len() > MAX_MERGE_LISTS`.
pub fn merge_sorted_with_offsets_into(
    lists: &[(&[GlobalPos], u32)],
    out: &mut Vec<GlobalPos>,
    support: &mut Vec<u8>,
) {
    assert!(
        lists.len() <= MAX_MERGE_LISTS,
        "merge supports at most {MAX_MERGE_LISTS} lists"
    );
    // Each list without the locations that would place the read before
    // position 0.
    let mut trimmed = [(&[][..], 0); MAX_MERGE_LISTS];
    for (t, &(list, off)) in trimmed.iter_mut().zip(lists) {
        *t = (&list[list.partition_point(|&v| v < off)..], off);
    }
    // Every step writes one slot and keeps it only if it is new, so the
    // output never holds more than the steps taken, one a location at most.
    let steps = trimmed.iter().map(|(l, _)| l.len()).sum();
    out.clear();
    out.resize(steps, 0);
    support.clear();
    support.resize(steps, 0);
    let (slots, counts) = (out.as_mut_slice(), support.as_mut_slice());
    let mut at = [0usize; MAX_MERGE_LISTS];
    let (mut kept, mut last) = (0, u64::MAX);
    loop {
        let head: [u64; MAX_MERGE_LISTS] = std::array::from_fn(|i| {
            let (list, off) = trimmed[i];
            list.get(at[i]).map_or(u64::MAX, |&v| u64::from(v - off))
        });
        let min = head.into_iter().fold(u64::MAX, u64::min);
        if min == u64::MAX {
            break;
        }
        let mut hits = 0u8;
        for (at, head) in at.iter_mut().zip(head) {
            let hit = head == min;
            *at += usize::from(hit);
            hits += u8::from(hit);
        }
        slots[kept] = min as GlobalPos;
        counts[kept] = hits;
        kept += usize::from(min != last);
        last = min;
    }
    out.truncate(kept);
    support.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_and_dedups() {
        let a = [1u32, 5, 9];
        let b = [2u32, 5, 10];
        let c = [5u32];
        let m = merge_sorted(&[&a, &b, &c]);
        assert_eq!(m, vec![1, 2, 5, 9, 10]);
    }

    #[test]
    fn offsets_are_subtracted() {
        // Seed at read offset 50 hitting ref 150 implies read start 100.
        let s0 = [100u32];
        let s1 = [150u32];
        let s2 = [200u32];
        let m = merge_sorted_with_offsets([(&s0[..], 0u32), (&s1[..], 50), (&s2[..], 100)]);
        assert_eq!(m, vec![100]);
    }

    #[test]
    fn underflow_is_discarded() {
        let s = [10u32, 80];
        let m = merge_sorted_with_offsets([(&s[..], 50u32)]);
        assert_eq!(m, vec![30]);
    }

    #[test]
    fn empty_lists() {
        assert!(merge_sorted(&[]).is_empty());
        assert!(merge_sorted(&[&[][..], &[][..]]).is_empty());
    }

    #[test]
    fn support_counts_the_lists_hitting_each_start() {
        let (a, b, c) = ([100u32, 300], [150u32, 250], [200u32]);
        let (mut out, mut support) = (Vec::new(), Vec::new());
        merge_sorted_with_offsets_into(
            &[(&a[..], 0), (&b[..], 50), (&c[..], 100)],
            &mut out,
            &mut support,
        );
        assert_eq!(out, vec![100, 200, 300]);
        assert_eq!(support, vec![3, 1, 1]);
    }

    #[test]
    fn matches_naive_sort() {
        let a: Vec<u32> = (0..50).map(|i| i * 3).collect();
        let b: Vec<u32> = (0..50).map(|i| i * 5 + 1).collect();
        let merged = merge_sorted(&[&a, &b]);
        let mut naive: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        naive.sort_unstable();
        naive.dedup();
        assert_eq!(merged, naive);
    }
}
