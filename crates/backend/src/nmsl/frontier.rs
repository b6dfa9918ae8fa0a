use gx_accel::{FallbackCells, PairWorkload};
use gx_telemetry::Recorder;
use std::collections::BTreeMap;

/// One pair's admission record: everything the shared device needs to
/// price and stream it, all computed from the pair and what its mapping
/// looked up (deterministic).
pub(super) struct AdmittedPair {
    pub(super) workload: PairWorkload,
    pub(super) input_bytes: u64,
    pub(super) output_bytes: u64,
    pub(super) cells: FallbackCells,
}

/// Per-job sequencing state inside the [`Frontier`].
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct JobSeq {
    /// Next batch index of this job the canonical order will release.
    pub(super) next_batch: u64,
    /// Total batch count, once the job is sealed
    /// ([`MapBackend::seal_job`]): the canonical order advances past the
    /// job when `next_batch` reaches this.
    pub(super) sealed_at: Option<u64>,
    /// Discarded ([`MapBackend::discard_job`]): buffered admissions are
    /// dropped and stragglers admitted under this id are ignored.
    pub(super) discarded: bool,
    /// Pairs of this job released so far — frozen at discard, so
    /// [`MapBackend::discard_job`] can report exactly the
    /// already-dispatched remainder that stays in device totals.
    pub(super) released_pairs: u64,
}

/// The sequencing front half of the shared device, guarded by one lock.
///
/// Admissions arrive as engine batches in arbitrary order (concurrent workers,
/// and — since the service front-end — arbitrarily interleaved *jobs*); the
/// frontier releases them to the run's device thread strictly in
/// **canonical order**: jobs in ascending id order, contiguous from 0 (see
/// [`BatchTag`]), and batch index order within each job. The thread prices
/// and streams pairs in the order they were released — so every float it
/// accumulates is summed in canonical order regardless of scheduling,
/// which is what makes warm totals for completed jobs bit-identical to
/// mapping the jobs' streams back to back.
pub(super) struct Frontier {
    /// Id of the job currently at the release head; every lower id is
    /// fully released (or discarded).
    pub(super) head: u64,
    /// Per-job sequencing state, created at the job's first admission,
    /// seal or discard.
    pub(super) seqs: BTreeMap<u64, JobSeq>,
    /// Batches admitted ahead of the canonical order, keyed `(job, batch)`.
    pub(super) pending: BTreeMap<(u64, u64), Vec<AdmittedPair>>,
    /// Pairs released in canonical order and not yet taken by the run's
    /// thread, which swaps this for its own emptied `Vec`.
    pub(super) released: Vec<AdmittedPair>,
    /// The run is closing ([`MapBackend::flush`] or the backend's drop):
    /// once `released` is empty, the thread finishes the run and returns.
    pub(super) closed: bool,
    /// Most batches ever buffered ahead of the frontier (schedule-domain:
    /// reported in [`DeviceCounters`], excluded from the invariance
    /// fingerprint).
    pub(super) peak_depth: u64,
    /// Span ring for the trace's `frontier_depth` counter track (no-op when
    /// telemetry is disabled; observational only, never read back into
    /// accounting).
    pub(super) rec: Recorder,
}

impl Frontier {
    pub(super) fn new(rec: Recorder) -> Frontier {
        Frontier {
            head: 0,
            seqs: BTreeMap::new(),
            pending: BTreeMap::new(),
            released: Vec::new(),
            closed: false,
            peak_depth: 0,
            rec,
        }
    }

    /// Releases everything the canonical order now covers: batches of the
    /// head job in index order, advancing the head past jobs that are
    /// sealed-and-done or discarded.
    pub(super) fn drain_ready(&mut self) {
        // A head job nothing has mentioned yet has nothing to release.
        while let Some(&seq) = self.seqs.get(&self.head) {
            let job = self.head;
            if seq.discarded {
                self.drop_pending(job);
                self.head += 1;
                continue;
            }
            if let Some(mut batch) = self.pending.remove(&(job, seq.next_batch)) {
                let released = batch.len() as u64;
                self.released.append(&mut batch);
                let seq = self.seqs.get_mut(&job).expect("registered job");
                seq.next_batch += 1;
                seq.released_pairs += released;
                continue;
            }
            if seq.sealed_at == Some(seq.next_batch) {
                self.head += 1;
                continue;
            }
            break;
        }
    }

    /// Drops every still-buffered admission of `job`.
    pub(super) fn drop_pending(&mut self, job: u64) {
        self.pending.retain(|&(j, _), _| j != job);
    }
}
