use crate::GenomeError;

/// A single DNA nucleotide, stored as a 2-bit code (A=0, C=1, G=2, T=3).
///
/// The code ordering matches the usual 2-bit packing used by read mappers so
/// that `code ^ 3` is the complement.
///
/// ```
/// use gx_genome::Base;
/// assert_eq!(Base::A.complement(), Base::T);
/// assert_eq!(Base::from_ascii(b'g'), Some(Base::G));
/// assert_eq!(Base::from_ascii(b'N'), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Base(u8);

impl Base {
    /// Adenine, code 0.
    pub const A: Base = Base(0);
    /// Cytosine, code 1.
    pub const C: Base = Base(1);
    /// Guanine, code 2.
    pub const G: Base = Base(2);
    /// Thymine, code 3.
    pub const T: Base = Base(3);

    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Builds a base from its 2-bit code.
    ///
    /// # Panics
    ///
    /// Panics if `code > 3`.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        assert!(code < 4, "base code out of range: {code}");
        Base(code)
    }

    /// Builds a base from its 2-bit code without the range check.
    ///
    /// Only the two low bits are kept, so any input is safe; the name follows
    /// the `_unchecked` convention to signal that validation is skipped.
    #[inline]
    pub fn from_code_unchecked(code: u8) -> Base {
        Base(code & 3)
    }

    /// The 2-bit code of this base.
    #[inline]
    pub fn code(self) -> u8 {
        self.0
    }

    /// Parses an ASCII nucleotide (case-insensitive). Ambiguity codes such as
    /// `N` yield `None`.
    #[inline]
    pub fn from_ascii(ch: u8) -> Option<Base> {
        match ch {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    /// Upper-case ASCII representation.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        b"ACGT"[self.0 as usize]
    }

    /// Watson–Crick complement.
    #[inline]
    pub fn complement(self) -> Base {
        Base(self.0 ^ 3)
    }

    /// The three bases different from `self`, in code order. Used by error
    /// and variant simulators to draw substitutions.
    pub fn substitutions(self) -> [Base; 3] {
        let mut out = [Base::A; 3];
        let mut i = 0;
        for b in Base::ALL {
            if b != self {
                out[i] = b;
                i += 1;
            }
        }
        out
    }
}

impl std::fmt::Display for Base {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_ascii() as char)
    }
}

impl TryFrom<u8> for Base {
    type Error = GenomeError;

    /// Converts an ASCII character into a base.
    fn try_from(ch: u8) -> Result<Base, GenomeError> {
        Base::from_ascii(ch).ok_or(GenomeError::InvalidBase(ch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_roundtrip() {
        for b in Base::ALL {
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
            assert_eq!(Base::from_ascii(b.to_ascii().to_ascii_lowercase()), Some(b));
        }
    }

    #[test]
    fn complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
            assert_ne!(b.complement(), b);
        }
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn ambiguity_rejected() {
        assert_eq!(Base::from_ascii(b'N'), None);
        assert_eq!(Base::from_ascii(b'-'), None);
        assert!(Base::try_from(b'N').is_err());
    }

    #[test]
    fn substitutions_exclude_self() {
        for b in Base::ALL {
            let subs = b.substitutions();
            assert_eq!(subs.len(), 3);
            assert!(!subs.contains(&b));
        }
    }

    #[test]
    #[should_panic(expected = "base code out of range")]
    fn from_code_rejects_large() {
        let _ = Base::from_code(4);
    }
}
