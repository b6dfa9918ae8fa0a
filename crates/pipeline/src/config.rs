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

/// Read pairs per batch when neither the builder nor a job's spec sets one.
pub(crate) const DEFAULT_BATCH_SIZE: usize = 256;

/// Cores this process may run on (1 when unknown): the default worker count.
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Batches the engine's and the service's dispatch queue holds before its
/// feeder blocks: two per available core, whatever the worker count.
pub(crate) fn queue_depth() -> usize {
    2 * available_cores()
}

/// Engine configuration, set through [`PipelineBuilder`]'s setters; every
/// count is at least 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PipelineConfig {
    /// Worker threads mapping batches.
    pub(crate) threads: usize,
    /// Read pairs per batch.
    pub(crate) batch_size: usize,
    /// Unmapped-pair handling.
    pub(crate) fallback: FallbackPolicy,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            threads: available_cores(),
            batch_size: DEFAULT_BATCH_SIZE,
            fallback: FallbackPolicy::default(),
        }
    }
}

/// Fluent configuration of a [`MappingEngine`], and the one way to make
/// one: [`engine`](PipelineBuilder::engine) or
/// [`backend`](PipelineBuilder::backend) finishes the builder.
///
/// ```
/// use gx_genome::random::RandomGenomeBuilder;
/// use gx_core::{GenPairConfig, GenPairMapper};
/// use gx_pipeline::PipelineBuilder;
///
/// let genome = RandomGenomeBuilder::new(30_000).seed(1).build();
/// let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
/// let engine = PipelineBuilder::new()
///     .threads(4)
///     .batch_size(128)
///     .engine(&mapper);
/// let (_, report) = engine.run_collect(Vec::new());
/// assert_eq!(report.threads, 4);
/// assert_eq!(report.batch_size, 128);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PipelineBuilder {
    cfg: PipelineConfig,
    telemetry: Telemetry,
}

impl PipelineBuilder {
    /// Starts from the defaults: one worker per available core, 256-pair
    /// batches, unmapped pairs emitted.
    pub fn new() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Sets the worker thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> PipelineBuilder {
        self.cfg.threads = threads.max(1);
        self
    }

    /// Sets the batch size in read pairs (clamped to at least 1).
    pub fn batch_size(mut self, batch_size: usize) -> PipelineBuilder {
        self.cfg.batch_size = batch_size.max(1);
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

    /// Finalizes and attaches the configuration to a mapping backend (the
    /// software reference, the NMSL accelerator system model, or any custom
    /// [`MapBackend`]). Every worker maps through this one backend with
    /// its own scratch, so a stateful backend — e.g. the NMSL model's
    /// shared warm device — carries simulator state across every batch of
    /// the run.
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
        MappingEngine {
            backend,
            cfg: self.cfg,
            telemetry: self.telemetry,
        }
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
        let cfg = PipelineBuilder::new().cfg;
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.batch_size, DEFAULT_BATCH_SIZE);
        assert!(queue_depth() >= 2);
        assert_eq!(cfg.fallback, FallbackPolicy::EmitUnmapped);
        // The service takes the engine's defaults for the fields both share.
        let (engine, service) = (PipelineConfig::default(), crate::ServiceBuilder::new().cfg);
        assert_eq!(service.threads, engine.threads);
        assert_eq!(service.fallback, engine.fallback);
    }

    #[test]
    fn zero_inputs_clamped() {
        let cfg = PipelineBuilder::new().threads(0).batch_size(0).cfg;
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.batch_size, 1);
    }
}
