//! Multithreaded CPU SeedMap-query measurement (Fig. 9's CPU bar).
//!
//! The paper's CPU baseline for the SeedMap Query stage is "a multi-threaded
//! implementation, with each thread repeatedly executing the SeedMap lookup
//! logic". This module measures exactly that on the host machine.

use crate::workload::PairWorkload;
use gx_seedmap::SeedMap;
use std::time::Instant;

/// Result of a CPU query-rate measurement.
#[derive(Clone, Copy, Debug)]
pub struct CpuQueryResult {
    /// Pairs looked up per second, in millions.
    pub mpairs_per_s: f64,
    /// Effective table bandwidth in GB/s (8 B per seed lookup + 4 B per
    /// location).
    pub gbs: f64,
    /// Threads used.
    pub threads: usize,
}

/// Measures the sustained multithreaded SeedMap lookup rate over
/// `workloads`, repeated `repeats` times per thread.
///
/// # Panics
///
/// Panics if `threads` or `repeats` is zero or `workloads` is empty.
pub fn measure_cpu_query(
    seedmap: &SeedMap,
    workloads: &[PairWorkload],
    threads: usize,
    repeats: usize,
) -> CpuQueryResult {
    assert!(threads > 0 && repeats > 0 && !workloads.is_empty());
    let start = Instant::now();
    let total_checksum: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let shard: Vec<&PairWorkload> = workloads.iter().skip(t).step_by(threads).collect();
            handles.push(scope.spawn(move || {
                let mut checksum = 0u64;
                for _ in 0..repeats {
                    for w in &shard {
                        for s in w.seeds() {
                            // The real lookup: Seed Table indexing plus a
                            // walk over the Location Table slice.
                            let locs = seedmap.locations_for_hash(s.hash);
                            for &l in locs {
                                checksum = checksum.wrapping_add(l as u64);
                            }
                        }
                    }
                }
                checksum
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .sum()
    });
    std::hint::black_box(total_checksum);

    let elapsed = start.elapsed().as_secs_f64();
    let pairs = (workloads.len() * repeats) as f64;
    let bytes: u64 = workloads.iter().map(|w| w.total_bytes()).sum::<u64>() * repeats as u64;
    CpuQueryResult {
        mpairs_per_s: pairs / elapsed / 1e6,
        gbs: bytes as f64 / elapsed / 1e9,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synthetic_workloads;
    use gx_genome::random::RandomGenomeBuilder;
    use gx_seedmap::SeedMapConfig;

    #[test]
    fn measures_positive_rate() {
        let genome = RandomGenomeBuilder::new(50_000).seed(6).build();
        let map = SeedMap::build(&genome, &SeedMapConfig::default());
        let ws = synthetic_workloads(&map, &genome, 200, 7);
        let res = measure_cpu_query(&map, &ws, 2, 3);
        assert!(res.mpairs_per_s > 0.0);
        assert!(res.gbs > 0.0);
        assert_eq!(res.threads, 2);
    }
}
