/// Errors produced by the genome substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GenomeError {
    /// An ASCII byte that is not one of `ACGTacgt`.
    InvalidBase(u8),
    /// A malformed CIGAR string.
    InvalidCigar(String),
    /// A malformed FASTA/FASTQ stream.
    ParseFormat(String),
    /// A coordinate outside of the sequence/genome it refers to.
    OutOfBounds {
        /// The offending coordinate (for a window, its exclusive end).
        pos: u64,
        /// The length of the sequence or genome it falls outside.
        len: u64,
    },
    /// Variants that cannot be applied (overlapping or out of range).
    InvalidVariant(String),
}

impl std::fmt::Display for GenomeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenomeError::InvalidBase(b) => {
                write!(f, "invalid nucleotide byte 0x{b:02x} ({:?})", *b as char)
            }
            GenomeError::InvalidCigar(s) => write!(f, "invalid CIGAR string: {s}"),
            GenomeError::ParseFormat(s) => write!(f, "parse error: {s}"),
            GenomeError::OutOfBounds { pos, len } => {
                write!(f, "position {pos} out of bounds for length {len}")
            }
            GenomeError::InvalidVariant(s) => write!(f, "invalid variant: {s}"),
        }
    }
}

impl std::error::Error for GenomeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let e = GenomeError::InvalidBase(b'N');
        let msg = e.to_string();
        assert!(!msg.is_empty());
        assert!(msg.starts_with("invalid"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GenomeError>();
    }
}
