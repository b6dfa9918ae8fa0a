//! Read-pair ingestion and the batch, the unit of work the dispatch queue
//! carries.

use gx_core::ReadPair;
use gx_genome::fastq::FastqReader;
use gx_genome::{GenomeError, ReadRecord};
use std::io::BufRead;

/// A fixed-size unit of work flowing through the engine (the last batch of
/// a stream may be smaller). `index` is the batch's position in the input
/// stream; the front end's reorder buffer uses it to reassemble output in
/// input order.
#[derive(Clone, Debug)]
pub(crate) struct Batch {
    pub index: u64,
    pub pairs: Vec<ReadPair>,
}

/// Strips a trailing `/1` or `/2` mate suffix from a FASTQ read id.
fn base_id(id: &str) -> &str {
    id.strip_suffix("/1")
        .or_else(|| id.strip_suffix("/2"))
        .unwrap_or(id)
}

/// Streams mate-paired FASTQ (R1/R2 files) as an iterator of [`ReadPair`]s,
/// one pair at a time — the whole dataset never has to fit in memory, so
/// the pipeline's bounded queues provide backpressure all the way down to
/// the file reads.
///
/// Records are paired positionally; ids (after stripping `/1`/`/2`) must
/// agree, and both streams must hold the same number of records. Errors are
/// yielded in-stream ([`GenomeError::ParseFormat`] on malformed FASTQ,
/// mismatched record counts or disagreeing ids); after the first error the
/// iterator fuses. [`read_pairs_from_fastq`] is the collect-everything
/// wrapper.
///
/// Feeding the engine without materializing:
///
/// ```no_run
/// use std::fs::File;
/// use std::io::BufReader;
/// use gx_pipeline::ReadPairStream;
///
/// let r1 = BufReader::new(File::open("sample_R1.fastq")?);
/// let r2 = BufReader::new(File::open("sample_R2.fastq")?);
/// let stream = ReadPairStream::new(r1, r2).map(|p| p.expect("malformed FASTQ"));
/// // engine.run(stream, &mut sink)?  — batches are mapped while the files
/// // are still being read.
/// # let _ = stream.count();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct ReadPairStream<R1: BufRead, R2: BufRead> {
    r1: FastqReader<R1>,
    r2: FastqReader<R2>,
    /// The mates' parse buffers, reused across pairs: qualities and ids are
    /// only checked, never handed on, so they never cost an allocation; a
    /// pair costs exactly its three owned parts (`id`, `r1`, `r2`).
    mate1: ReadRecord,
    mate2: ReadRecord,
    pairs_yielded: u64,
    failed: bool,
}

impl<R1: BufRead, R2: BufRead> ReadPairStream<R1, R2> {
    /// A stream pairing `r1` and `r2` positionally.
    pub fn new(r1: R1, r2: R2) -> ReadPairStream<R1, R2> {
        ReadPairStream {
            r1: FastqReader::new(r1),
            r2: FastqReader::new(r2),
            mate1: ReadRecord::default(),
            mate2: ReadRecord::default(),
            pairs_yielded: 0,
            failed: false,
        }
    }

    fn pair_next(&mut self) -> Option<Result<ReadPair, GenomeError>> {
        let (a, b) = (&mut self.mate1, &mut self.mate2);
        match (self.r1.read_into(a), self.r2.read_into(b)) {
            (Ok(false), Ok(false)) => return None,
            (Err(e), _) | (_, Err(e)) => return Some(Err(e)),
            (Ok(false), Ok(true)) | (Ok(true), Ok(false)) => {
                return Some(Err(GenomeError::ParseFormat(format!(
                    "mate files differ in length: one stream ended after {} pairs",
                    self.pairs_yielded
                ))))
            }
            (Ok(true), Ok(true)) => {}
        }
        let id = base_id(&a.id);
        if id != base_id(&b.id) {
            return Some(Err(GenomeError::ParseFormat(format!(
                "mate id mismatch: {} vs {}",
                a.id, b.id
            ))));
        }
        self.pairs_yielded += 1;
        Some(Ok(ReadPair {
            id: id.to_string(),
            r1: std::mem::take(&mut a.seq),
            r2: std::mem::take(&mut b.seq),
        }))
    }
}

impl<R1: BufRead, R2: BufRead> Iterator for ReadPairStream<R1, R2> {
    type Item = Result<ReadPair, GenomeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = self.pair_next();
        if matches!(item, Some(Err(_))) {
            self.failed = true;
        }
        item
    }
}

/// Reads mate-paired FASTQ streams (R1/R2 files) into a `Vec` of
/// [`ReadPair`]s — a thin collect wrapper over [`ReadPairStream`] for
/// workloads that fit in memory.
///
/// # Errors
///
/// Returns [`GenomeError::ParseFormat`] on malformed FASTQ, mismatched
/// record counts or disagreeing read ids.
pub fn read_pairs_from_fastq<R1: BufRead, R2: BufRead>(
    r1: R1,
    r2: R2,
) -> Result<Vec<ReadPair>, GenomeError> {
    ReadPairStream::new(r1, r2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastq_pairing_strips_mate_suffix() {
        let r1 = b"@p0/1\nACGT\n+\nIIII\n@p1/1\nGGGG\n+\nIIII\n";
        let r2 = b"@p0/2\nTTTT\n+\nIIII\n@p1/2\nCCCC\n+\nIIII\n";
        let pairs = read_pairs_from_fastq(&r1[..], &r2[..]).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].id, "p0");
        assert_eq!(pairs[1].r2.to_string(), "CCCC");
    }

    #[test]
    fn fastq_pairing_rejects_mismatches() {
        let r1 = b"@a/1\nACGT\n+\nIIII\n";
        let r2 = b"@b/2\nTTTT\n+\nIIII\n";
        assert!(read_pairs_from_fastq(&r1[..], &r2[..]).is_err());
        let r2_short: &[u8] = b"";
        assert!(read_pairs_from_fastq(&r1[..], r2_short).is_err());
    }

    #[test]
    fn stream_yields_pairs_incrementally_and_matches_collect() {
        let r1 = b"@p0/1\nACGT\n+\nIIII\n@p1/1\nGGGG\n+\nIIII\n@p2/1\nAAAA\n+\nIIII\n";
        let r2 = b"@p0/2\nTTTT\n+\nIIII\n@p1/2\nCCCC\n+\nIIII\n@p2/2\nGGGG\n+\nIIII\n";
        let mut stream = ReadPairStream::new(&r1[..], &r2[..]);
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.id, "p0");
        let rest: Vec<ReadPair> = stream.map(|p| p.unwrap()).collect();
        assert_eq!(rest.len(), 2);

        let collected = read_pairs_from_fastq(&r1[..], &r2[..]).unwrap();
        let mut streamed = vec![first];
        streamed.extend(rest);
        assert_eq!(streamed, collected);
    }

    #[test]
    fn stream_fuses_after_length_mismatch() {
        let r1 = b"@a/1\nACGT\n+\nIIII\n@b/1\nGGGG\n+\nIIII\n";
        let r2 = b"@a/2\nTTTT\n+\nIIII\n";
        let mut stream = ReadPairStream::new(&r1[..], &r2[..]);
        assert!(stream.next().unwrap().is_ok());
        let err = stream.next().unwrap().unwrap_err();
        assert!(
            err.to_string().contains("differ in length"),
            "unexpected error: {err}"
        );
        assert!(stream.next().is_none(), "stream must fuse after an error");
    }

    #[test]
    fn stream_reports_r2_longer_than_r1() {
        // The opposite direction from `stream_fuses_after_length_mismatch`:
        // R2 has the surplus record. The error text carries the pair count
        // so a failed job's abort reason pinpoints where the streams
        // diverged.
        let r1 = b"@a/1\nACGT\n+\nIIII\n";
        let r2 = b"@a/2\nTTTT\n+\nIIII\n@b/2\nGGGG\n+\nIIII\n";
        let mut stream = ReadPairStream::new(&r1[..], &r2[..]);
        assert!(stream.next().unwrap().is_ok());
        let err = stream.next().unwrap().unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("differ in length"),
            "unexpected error: {text}"
        );
        assert!(
            text.contains("after 1 pairs"),
            "error should say how many pairs paired cleanly: {text}"
        );
        assert!(stream.next().is_none(), "stream must fuse after an error");
    }

    #[test]
    fn reused_mate_buffers_never_leak_into_the_next_pair() {
        // Lengths shrink and then grow, and the ids change length too: a
        // stale tail in a reused parse buffer would show up here.
        let lens = [150usize, 33, 0, 64, 200];
        let mate = |suffix: &str, flip: bool| {
            let mut text = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                let seq: Vec<u8> = (0..len)
                    .map(|j| b"ACGT"[(i + j * (1 + flip as usize)) % 4])
                    .collect();
                text.extend_from_slice(format!("@{}{i}/{suffix}\n", "p".repeat(6 - i)).as_bytes());
                text.extend_from_slice(&seq);
                text.extend_from_slice(b"\n+\n");
                text.extend(std::iter::repeat_n(b'I', len));
                text.push(b'\n');
            }
            text
        };
        let (r1, r2) = (mate("1", false), mate("2", true));
        let pairs = read_pairs_from_fastq(&r1[..], &r2[..]).unwrap();
        let fresh1 = gx_genome::fastq::read_fastq(&r1[..]).unwrap();
        let fresh2 = gx_genome::fastq::read_fastq(&r2[..]).unwrap();
        assert_eq!(pairs.len(), lens.len());
        for (i, pair) in pairs.iter().enumerate() {
            assert_eq!(format!("{}/1", pair.id), fresh1[i].id);
            assert_eq!(pair.r1, fresh1[i].seq);
            assert_eq!(pair.r2, fresh2[i].seq);
            assert_eq!(pair.r1.words().len(), lens[i].div_ceil(32));
        }
    }

    #[test]
    fn stream_fuses_after_a_malformed_record() {
        let r1 = b"@a/1\nACGT\n+\nIIII\n@b/1\nGGGG\n+\nII\n@c/1\nAC\n+\nII\n";
        let r2 = b"@a/2\nTTTT\n+\nIIII\n@b/2\nCCCC\n+\nIIII\n@c/2\nAC\n+\nII\n";
        let mut stream = ReadPairStream::new(&r1[..], &r2[..]);
        assert!(stream.next().unwrap().is_ok());
        let err = stream.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("quality length"), "{err}");
        assert!(stream.next().is_none(), "stream must fuse after an error");
    }

    #[test]
    fn stream_reports_id_mismatch_and_fuses() {
        let r1 = b"@a/1\nACGT\n+\nIIII\n@x/1\nGGGG\n+\nIIII\n";
        let r2 = b"@a/2\nTTTT\n+\nIIII\n@y/2\nCCCC\n+\nIIII\n";
        let mut stream = ReadPairStream::new(&r1[..], &r2[..]);
        assert!(stream.next().unwrap().is_ok());
        let err = stream.next().unwrap().unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("mate id mismatch") && text.contains("x/1") && text.contains("y/2"),
            "error should name both offending ids: {text}"
        );
        assert!(stream.next().is_none(), "stream must fuse after an error");
    }
}
