//! Enumeration of edit variations and their alignment scores (paper Table 1).
//!
//! The paper enumerates every combination of edits a 150 bp read can carry
//! while still scoring at least 276 under the short-read scheme, and observes
//! that all combinations *strictly above* 276 consist of a single edit type.
//! That observation motivates the light alignment algorithm.

use crate::Scoring;

/// One edit combination: `mismatches` substitutions plus a single run of
/// `insertions` and a single run of `deletions`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EditCase {
    /// Number of mismatching bases (not necessarily consecutive).
    pub mismatches: u32,
    /// Length of one consecutive insertion run.
    pub insertions: u32,
    /// Length of one consecutive deletion run.
    pub deletions: u32,
}

impl EditCase {
    /// The perfect, edit-free case.
    pub fn none() -> EditCase {
        EditCase {
            mismatches: 0,
            insertions: 0,
            deletions: 0,
        }
    }

    /// Number of distinct edit *types* present.
    pub fn edit_types(&self) -> u32 {
        (self.mismatches > 0) as u32 + (self.insertions > 0) as u32 + (self.deletions > 0) as u32
    }

    /// Analytic alignment score of a read of `read_len` bases carrying this
    /// edit combination.
    pub fn score(&self, read_len: usize, scoring: &Scoring) -> i32 {
        let matched = read_len as u32 - self.mismatches - self.insertions;
        scoring.match_score * matched as i32
            - scoring.mismatch * self.mismatches as i32
            - scoring.gap_cost(self.insertions)
            - scoring.gap_cost(self.deletions)
    }

    /// Human-readable description matching the paper's Table 1 wording.
    pub fn describe(&self) -> String {
        if self.edit_types() == 0 {
            return "None".to_string();
        }
        let mut parts = Vec::new();
        if self.mismatches > 0 {
            parts.push(plural(self.mismatches, "Mismatch", "Mismatches"));
        }
        if self.insertions > 0 {
            parts.push(run(self.insertions, "Insertion", "Insertions"));
        }
        if self.deletions > 0 {
            parts.push(run(self.deletions, "Deletion", "Deletions"));
        }
        parts.join(" & ")
    }
}

fn plural(n: u32, one: &str, many: &str) -> String {
    if n == 1 {
        format!("{n} {one}")
    } else {
        format!("{n} {many}")
    }
}

fn run(n: u32, one: &str, many: &str) -> String {
    if n == 1 {
        format!("{n} {one}")
    } else {
        format!("{n} Consecutive {many}")
    }
}

/// Enumerates every edit case of a `read_len` read scoring at least
/// `min_score`, sorted by descending score (ties: fewer edit types first,
/// then fewer total edited bases).
pub fn enumerate_cases(read_len: usize, scoring: &Scoring, min_score: i32) -> Vec<(EditCase, i32)> {
    let mut out = Vec::new();
    // Bound the search: an edit of any kind costs at least min(mismatch_loss,
    // gap_ext) per base, so cap counts generously.
    let cap = 64u32.min(read_len as u32 / 2);
    for mm in 0..=cap {
        for ins in 0..=cap {
            for del in 0..=cap {
                let case = EditCase {
                    mismatches: mm,
                    insertions: ins,
                    deletions: del,
                };
                let score = case.score(read_len, scoring);
                if score >= min_score {
                    out.push((case, score));
                }
            }
        }
    }
    out.sort_by_key(|(c, s)| {
        (
            std::cmp::Reverse(*s),
            c.edit_types(),
            c.mismatches + c.insertions + c.deletions,
        )
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduces the paper's Table 1 (150 bp, threshold 276). The paper
    /// lists 11 rows; the same enumeration also admits "3 Consecutive
    /// Insertions" (2·147 − 12 − 2·3 = 276) and "6 Consecutive Deletions"
    /// (300 − 12 − 2·6 = 276) at exactly the threshold, which the paper's
    /// table omits — see EXPERIMENTS.md.
    #[test]
    fn table1_contents() {
        let cases = enumerate_cases(150, &Scoring::short_read(), 276);
        let rendered: Vec<(String, i32)> = cases.iter().map(|(c, s)| (c.describe(), *s)).collect();
        let expect = [
            ("None", 300),
            ("1 Mismatch", 290),
            ("1 Deletion", 286),
            ("1 Insertion", 284),
            ("2 Consecutive Deletions", 284),
            ("3 Consecutive Deletions", 282),
            ("2 Mismatches", 280),
            ("2 Consecutive Insertions", 280),
            ("4 Consecutive Deletions", 280),
            ("5 Consecutive Deletions", 278),
            ("1 Mismatch & 1 Deletion", 276),
            ("3 Consecutive Insertions", 276),
            ("6 Consecutive Deletions", 276),
        ];
        for (desc, score) in expect {
            assert!(
                rendered.contains(&(desc.to_string(), score)),
                "missing {desc} @ {score}; got {rendered:?}"
            );
        }
        assert_eq!(rendered.len(), expect.len(), "extra rows: {rendered:?}");
    }

    /// The paper's Observation: everything strictly above the threshold is a
    /// single edit type.
    #[test]
    fn single_type_above_threshold() {
        for (case, score) in enumerate_cases(150, &Scoring::short_read(), 276) {
            if score > 276 {
                assert!(case.edit_types() <= 1, "{case:?} scores {score}");
            }
        }
    }

    #[test]
    fn describe_wording() {
        assert_eq!(EditCase::none().describe(), "None");
        assert_eq!(
            EditCase {
                mismatches: 0,
                insertions: 0,
                deletions: 2
            }
            .describe(),
            "2 Consecutive Deletions"
        );
        assert_eq!(
            EditCase {
                mismatches: 1,
                insertions: 0,
                deletions: 1
            }
            .describe(),
            "1 Mismatch & 1 Deletion"
        );
    }

    /// Cross-check the analytic scores against the DP aligner on concrete
    /// sequences embodying each case.
    #[test]
    fn analytic_scores_match_dp() {
        use crate::align;
        use gx_genome::{Base, DnaSeq};
        let scoring = Scoring::short_read();
        let reference: DnaSeq = (0..200)
            .map(|i| Base::from_code(((i * 7 + i / 3) % 4) as u8))
            .collect();
        let window = reference.subseq(0..180);
        for (case, score) in enumerate_cases(150, &scoring, 276) {
            if case.mismatches > 0 && (case.insertions > 0 || case.deletions > 0) {
                continue; // mixed cases positioned adjacently can be rescored
                          // by DP differently; single-type is what matters
            }
            // Build a read with the given edit at position 60.
            let mut read = DnaSeq::new();
            let p = 60usize;
            let del = case.deletions as usize;
            for i in 0..p {
                read.push(window.get(i));
            }
            for _ in 0..case.insertions {
                // Insert a base differing from the next reference base so DP
                // cannot absorb it as a match.
                read.push(window.get(p).complement());
            }
            let mut i = p + del;
            while read.len() < 150 {
                read.push(window.get(i));
                i += 1;
            }
            for k in 0..case.mismatches as usize {
                let pos = 20 + k * 37; // spread mismatches out
                read.set(pos, read.get(pos).complement());
            }
            let a = align(&read, &window, &scoring);
            assert!(
                a.score >= score,
                "case {case:?}: DP {} < analytic {score}",
                a.score
            );
        }
    }
}
