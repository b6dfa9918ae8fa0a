use gx_accel::{FallbackCells, PairWorkload};
use gx_telemetry::Recorder;
use std::collections::{BTreeMap, VecDeque};

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
    /// Pairs of this job released to lanes so far — frozen at discard, so
    /// [`MapBackend::discard_job`] can report exactly the
    /// already-dispatched remainder that stays in device totals.
    pub(super) released_pairs: u64,
}

/// The sequencing front half of the shared device, guarded by one lock.
///
/// Admissions arrive as engine batches in arbitrary order (concurrent workers,
/// and — since the service front-end — arbitrarily interleaved *jobs*); the
/// frontier releases them to the lanes strictly in **canonical order**: jobs
/// in ascending id order, contiguous from 0 (see [`BatchTag`]), and batch
/// index order within each job. GenDP fallback work is priced per
/// pair along the way — so every float it accumulates is summed in
/// canonical order regardless of scheduling, which is what makes warm
/// totals for completed jobs bit-identical to mapping the jobs' streams
/// back to back.
pub(super) struct Frontier {
    /// Id of the job currently at the release head; every lower id is
    /// fully released (or discarded).
    pub(super) head: u64,
    /// Per-job sequencing state, created at the job's first admission,
    /// seal or discard.
    pub(super) seqs: BTreeMap<u64, JobSeq>,
    /// Batches admitted ahead of the canonical order, keyed `(job, batch)`.
    pub(super) pending: BTreeMap<(u64, u64), Vec<AdmittedPair>>,
    /// Pairs released to lanes so far (the seedless-pair routing key).
    pub(super) pairs_released: u64,
    /// Most batches ever buffered ahead of the frontier (schedule-domain:
    /// reported in [`DeviceCounters`], excluded from the invariance
    /// fingerprint).
    pub(super) peak_depth: u64,
    /// Per-lane staging queues in release order; swapped out under the
    /// lane lock (see the locking note on [`SharedNmslDevice`]).
    pub(super) staged: Vec<VecDeque<AdmittedPair>>,
    /// Cumulative GenDP seconds in release order.
    pub(super) fallback_seconds_total: f64,
    /// Cumulative GenDP energy in release order.
    pub(super) fallback_energy_pj: f64,
    /// Host-link bytes of every released pair, in and out.
    pub(super) input_bytes: u64,
    pub(super) output_bytes: u64,
    /// Span ring for the trace's `frontier_depth` counter track (no-op when
    /// telemetry is disabled; observational only, never read back into
    /// accounting).
    pub(super) rec: Recorder,
}

impl Frontier {
    pub(super) fn new(lanes: usize, rec: Recorder) -> Frontier {
        Frontier {
            head: 0,
            seqs: BTreeMap::new(),
            pending: BTreeMap::new(),
            pairs_released: 0,
            peak_depth: 0,
            staged: (0..lanes).map(|_| VecDeque::new()).collect(),
            fallback_seconds_total: 0.0,
            fallback_energy_pj: 0.0,
            input_bytes: 0,
            output_bytes: 0,
            rec,
        }
    }

    /// Drops every still-buffered admission of `job`.
    pub(super) fn drop_pending(&mut self, job: u64) {
        self.pending.retain(|&(j, _), _| j != job);
    }
}
