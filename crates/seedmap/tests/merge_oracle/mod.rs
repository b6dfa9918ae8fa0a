//! Test-only oracle: the k-way merge `gx-seedmap` shipped before the
//! branch-free rewrite, moved here verbatim — a cursor per list on the
//! stack, each output location chosen by an `Option` compare over every
//! list's head. `tests/merge_diff.rs` holds the library merge to it.

use gx_genome::GlobalPos;

/// How many input lists [`merge_sorted_with_offsets_into`] accepts — the
/// cursor array lives on the stack so the merge itself never allocates.
/// Partitioned seeding produces at most 3 lists per read.
pub const MAX_MERGE_LISTS: usize = 8;

/// Merges sorted location slices after subtracting a per-list offset into
/// a caller-owned vector (cleared first): the allocation-free variant the
/// mapper's scratch arena uses per read.
///
/// # Panics
///
/// Panics if `lists.len() > MAX_MERGE_LISTS`.
pub fn merge_sorted_with_offsets_into(lists: &[(&[GlobalPos], u32)], out: &mut Vec<GlobalPos>) {
    assert!(
        lists.len() <= MAX_MERGE_LISTS,
        "merge supports at most {MAX_MERGE_LISTS} lists"
    );
    let total: usize = lists.iter().map(|(l, _)| l.len()).sum();
    out.clear();
    out.reserve(total);
    let mut cursors = [0usize; MAX_MERGE_LISTS];
    // Skip leading locations that would place the read before position 0.
    for (i, (list, off)) in lists.iter().enumerate() {
        while cursors[i] < list.len() && list[cursors[i]] < *off {
            cursors[i] += 1;
        }
    }
    loop {
        let mut best: Option<(GlobalPos, usize)> = None;
        for (i, (list, off)) in lists.iter().enumerate() {
            if cursors[i] < list.len() {
                let v = list[cursors[i]] - *off;
                if best.is_none_or(|(bv, _)| v < bv) {
                    best = Some((v, i));
                }
            }
        }
        match best {
            Some((v, i)) => {
                cursors[i] += 1;
                if out.last() != Some(&v) {
                    out.push(v);
                }
            }
            None => break,
        }
    }
}
