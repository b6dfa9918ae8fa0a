//! Engine configuration: the [`PipelineBuilder`] surface.

use crate::MappingEngine;
use gx_backend::{MapBackend, SoftwareBackend};
use gx_core::GenPairMapper;
use gx_telemetry::Telemetry;

/// What the engine does with pairs GenPair could not map (full-pipeline
/// fallbacks destined for a traditional mapper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Emit a pair of unmapped SAM records so downstream consumers see every
    /// input read exactly once (samtools-style accounting).
    #[default]
    EmitUnmapped,
    /// Drop unmapped pairs from the output stream.
    Drop,
}

/// Engine configuration (constructed by [`PipelineBuilder`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Worker threads mapping batches.
    pub threads: usize,
    /// Read pairs per batch.
    pub batch_size: usize,
    /// Maximum batches buffered between the front-end and the workers
    /// (bounds memory and applies backpressure to the reader).
    pub queue_depth: usize,
    /// Unmapped-pair handling.
    pub fallback: FallbackPolicy,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        PipelineConfig {
            threads,
            batch_size: 256,
            queue_depth: 2 * threads.max(1),
            fallback: FallbackPolicy::default(),
        }
    }
}

impl PipelineConfig {
    /// Every count clamped to at least 1: the one normalisation both
    /// [`PipelineBuilder::build`] and [`MappingEngine::new`] apply.
    pub(crate) fn clamped(mut self) -> PipelineConfig {
        self.threads = self.threads.max(1);
        self.batch_size = self.batch_size.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self
    }
}

/// Fluent configuration of a [`MappingEngine`].
///
/// ```
/// use gx_pipeline::PipelineBuilder;
///
/// let cfg = PipelineBuilder::new()
///     .threads(4)
///     .batch_size(128)
///     .queue_depth(8)
///     .build();
/// assert_eq!(cfg.threads, 4);
/// assert_eq!(cfg.batch_size, 128);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PipelineBuilder {
    cfg: PipelineConfig,
    telemetry: Telemetry,
}

impl PipelineBuilder {
    /// Starts from the defaults: one worker per available core, 256-pair
    /// batches, 2×threads queue depth, unmapped pairs emitted.
    pub fn new() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Sets the worker thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> PipelineBuilder {
        self.cfg.threads = threads;
        self
    }

    /// Sets the batch size in read pairs (clamped to at least 1).
    pub fn batch_size(mut self, batch_size: usize) -> PipelineBuilder {
        self.cfg.batch_size = batch_size;
        self
    }

    /// Sets the bounded work-queue depth in batches (clamped to at least 1).
    pub fn queue_depth(mut self, queue_depth: usize) -> PipelineBuilder {
        self.cfg.queue_depth = queue_depth;
        self
    }

    /// Sets the unmapped-pair policy.
    pub fn fallback_policy(mut self, fallback: FallbackPolicy) -> PipelineBuilder {
        self.cfg.fallback = fallback;
        self
    }

    /// Attaches a telemetry handle: the engine then records queue-wait,
    /// map-latency, emit-wait, ingest and reorder-depth histograms and
    /// batch-lifecycle spans into it (counts are
    /// [`PipelineReport`](crate::PipelineReport) fields). The default is
    /// [`Telemetry::disabled`] — a no-op handle that costs the hot path a
    /// predicted branch. Telemetry is observational only: it never feeds
    /// back into modeled stats or changes the emitted SAM bytes.
    pub fn telemetry(mut self, telemetry: Telemetry) -> PipelineBuilder {
        self.telemetry = telemetry;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> PipelineConfig {
        self.cfg.clamped()
    }

    /// Finalizes and attaches the configuration to a mapping backend (the
    /// software reference, the NMSL accelerator system model, or any custom
    /// [`MapBackend`]). The engine opens one stateful session per worker
    /// thread from this backend (`backend.session()`), so a
    /// stateful backend — e.g. the NMSL model's shared warm device —
    /// carries simulator state across every batch of the run.
    ///
    /// ```
    /// use gx_genome::random::RandomGenomeBuilder;
    /// use gx_core::{GenPairConfig, GenPairMapper};
    /// use gx_pipeline::{NmslBackend, PipelineBuilder};
    ///
    /// let genome = RandomGenomeBuilder::new(30_000).seed(1).build();
    /// let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    /// let engine = PipelineBuilder::new()
    ///     .threads(2)
    ///     .backend(NmslBackend::new(&mapper));
    /// assert_eq!(engine.backend().mapper().genome().total_len(), 30_000);
    /// ```
    pub fn backend<B: MapBackend>(self, backend: B) -> MappingEngine<B> {
        MappingEngine::new(backend, self.cfg).with_telemetry(self.telemetry)
    }

    /// Finalizes and attaches the configuration to a mapper through the
    /// software backend (the CPU reference path).
    pub fn engine<'m, 'g>(
        self,
        mapper: &'m GenPairMapper<'g>,
    ) -> MappingEngine<SoftwareBackend<'m, 'g>> {
        self.backend(SoftwareBackend::new(mapper))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = PipelineBuilder::new().build();
        assert!(cfg.threads >= 1);
        assert!(cfg.batch_size >= 1);
        assert!(cfg.queue_depth >= 1);
        assert_eq!(cfg.fallback, FallbackPolicy::EmitUnmapped);
    }

    #[test]
    fn zero_inputs_clamped() {
        let cfg = PipelineBuilder::new()
            .threads(0)
            .batch_size(0)
            .queue_depth(0)
            .build();
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.batch_size, 1);
        assert_eq!(cfg.queue_depth, 1);
    }
}
