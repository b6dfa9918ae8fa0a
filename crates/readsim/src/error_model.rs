use gx_genome::{Base, DnaSeq};
use rand::rngs::StdRng;
use rand::Rng;

/// Per-base sequencing error model.
///
/// Mason's default profile distributes a total error rate uniformly across
/// substitutions, insertions and deletions (paper §7.7), which
/// [`ErrorModel::mason_default`] reproduces.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorModel {
    /// Probability of a substitution at each emitted base.
    pub sub_rate: f64,
    /// Probability of inserting a random base before each emitted base.
    pub ins_rate: f64,
    /// Probability of deleting a template base.
    pub del_rate: f64,
}

impl ErrorModel {
    /// An error-free model.
    pub fn perfect() -> ErrorModel {
        ErrorModel {
            sub_rate: 0.0,
            ins_rate: 0.0,
            del_rate: 0.0,
        }
    }

    /// Mason's default: `total` split evenly across the three error kinds.
    pub fn mason_default(total: f64) -> ErrorModel {
        ErrorModel {
            sub_rate: total / 3.0,
            ins_rate: total / 3.0,
            del_rate: total / 3.0,
        }
    }

    /// Total per-base error rate.
    pub fn total(&self) -> f64 {
        self.sub_rate + self.ins_rate + self.del_rate
    }

    /// Emits `read_len` bases by walking `template` from `start`, injecting
    /// errors. Returns the read and the number of template bases consumed
    /// (which differs from `read_len` when indel errors occur). Returns
    /// `None` if the template is exhausted before `read_len` bases are
    /// emitted.
    pub fn generate_read(
        &self,
        template: &DnaSeq,
        start: usize,
        read_len: usize,
        rng: &mut StdRng,
    ) -> Option<(DnaSeq, usize)> {
        let mut read = DnaSeq::with_capacity(read_len);
        let mut t = start;
        while read.len() < read_len {
            if self.ins_rate > 0.0 && rng.random_bool(self.ins_rate) {
                read.push(Base::from_code(rng.random_range(0..4)));
                continue;
            }
            if t >= template.len() {
                return None;
            }
            if self.del_rate > 0.0 && rng.random_bool(self.del_rate) {
                t += 1;
                continue;
            }
            let b = template.get(t);
            t += 1;
            if self.sub_rate > 0.0 && rng.random_bool(self.sub_rate) {
                read.push(b.substitutions()[rng.random_range(0..3)]);
            } else {
                read.push(b);
            }
        }
        Some((read, t - start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn template() -> DnaSeq {
        let mut s = DnaSeq::new();
        for i in 0..10_000 {
            s.push(Base::from_code(((i * 5 + 1) % 4) as u8));
        }
        s
    }

    #[test]
    fn perfect_copies_template() {
        let t = template();
        let mut rng = StdRng::seed_from_u64(1);
        let (read, consumed) = ErrorModel::perfect()
            .generate_read(&t, 40, 150, &mut rng)
            .unwrap();
        assert_eq!(consumed, 150);
        assert_eq!(read, t.subseq(40..190));
    }

    #[test]
    fn error_rate_is_roughly_respected() {
        let t = template();
        let mut rng = StdRng::seed_from_u64(2);
        let model = ErrorModel::mason_default(0.03);
        let mut mismatches = 0usize;
        let mut bases = 0usize;
        for i in 0..200 {
            let (read, _) = model.generate_read(&t, i * 40, 150, &mut rng).unwrap();
            // Count positions differing from a perfect copy; indels shift
            // things so this over-counts, but magnitude should be right.
            for p in 0..150 {
                bases += 1;
                if read.get(p) != t.get(i * 40 + p) {
                    mismatches += 1;
                }
            }
        }
        let observed = mismatches as f64 / bases as f64;
        assert!(observed > 0.005, "too few errors: {observed}");
    }

    #[test]
    fn exhausted_template_returns_none() {
        let t = template();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(ErrorModel::perfect()
            .generate_read(&t, 9_950, 150, &mut rng)
            .is_none());
    }

    #[test]
    fn total_sums_components() {
        let m = ErrorModel::mason_default(0.03);
        assert!((m.total() - 0.03).abs() < 1e-12);
    }
}
