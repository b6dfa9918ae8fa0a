//! Hardware module models (paper §5.1, §5.3, §5.4 and Tables 3/4).
//!
//! Each GenPairX compute module is characterized by its cycle cost, pipeline
//! latency, and per-instance area/power. The area/power constants are the
//! paper's Table 4 figures at 7 nm (the paper scaled its 28 nm
//! place-and-route results; nothing here scales again), divided by the
//! instance counts of Table 3.

/// GenPairX compute clock in GHz (paper §6: all components at 2.0 GHz).
pub const ACCEL_CLOCK_GHZ: f64 = 2.0;

/// A hardware module's per-instance characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModuleSpec {
    /// Module name as in Table 3/4.
    pub name: &'static str,
    /// Cycles to process one unit of work (a pair for seeding/filtering,
    /// one alignment for light alignment).
    pub cycles_per_op: f64,
    /// Pipeline latency in cycles (Table 3).
    pub latency_cycles: f64,
    /// Area per instance in mm² (7 nm).
    pub area_mm2: f64,
    /// Power per instance in mW (7 nm).
    pub power_mw: f64,
}

impl ModuleSpec {
    /// The Partitioned Seeding module: six pipelined xxHash units; one
    /// instance processes 333 MPair/s at 2 GHz (6 cycles/pair), 10-cycle
    /// latency. Table 4: 0.016 mm², 82.4 mW for the single instance.
    pub fn partitioned_seeding() -> ModuleSpec {
        ModuleSpec {
            name: "Partitioned Seeding",
            cycles_per_op: 6.0,
            latency_cycles: 10.0,
            area_mm2: 0.016,
            power_mw: 82.4,
        }
    }

    /// The Paired-Adjacency Filtering module: one comparator iteration per
    /// cycle. `cycles_per_pair` comes from workload profiling (paper: 24.1
    /// cycles/pair average). Table 4: 0.027 mm² / 15.6 mW across 3
    /// instances.
    pub fn pa_filter(cycles_per_pair: f64) -> ModuleSpec {
        ModuleSpec {
            name: "Paired-Adjacency Filtering",
            cycles_per_op: cycles_per_pair,
            latency_cycles: cycles_per_pair,
            area_mm2: 0.027 / 3.0,
            power_mw: 15.6 / 3.0,
        }
    }

    /// The Light Alignment module: masks in one cycle, mask traversal over
    /// the read length, small epilogue — 156 cycles for 150 bp (paper §5.4).
    /// Table 4: 0.53 mm² / 453.6 mW across 174 instances.
    pub fn light_align(read_len: usize) -> ModuleSpec {
        ModuleSpec {
            name: "Light Alignment",
            cycles_per_op: gx_core::light_align_cycles(read_len) as f64,
            latency_cycles: gx_core::light_align_cycles(read_len) as f64,
            area_mm2: 0.53 / 174.0,
            power_mw: 453.6 / 174.0,
        }
    }

    /// Throughput of one instance in million operations per second at
    /// `clock_ghz`.
    pub fn mops_per_instance(&self, clock_ghz: f64) -> f64 {
        clock_ghz * 1e3 / self.cycles_per_op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_matches_table3() {
        let m = ModuleSpec::partitioned_seeding();
        let thr = m.mops_per_instance(ACCEL_CLOCK_GHZ);
        assert!((thr - 333.3).abs() < 1.0, "throughput {thr}");
    }

    #[test]
    fn pa_filter_matches_table3() {
        let m = ModuleSpec::pa_filter(24.1);
        let thr = m.mops_per_instance(ACCEL_CLOCK_GHZ);
        assert!((thr - 83.0).abs() < 1.0, "throughput {thr}");
    }

    #[test]
    fn light_align_matches_table3() {
        let m = ModuleSpec::light_align(150);
        // 156 cycles per alignment; 11.6 alignments per pair -> 1.1 MPair/s
        // per instance, 174 instances for 192.7 MPair/s.
        let per_pair_cycles = m.cycles_per_op * 11.6;
        let mpairs = ACCEL_CLOCK_GHZ * 1e3 / per_pair_cycles;
        assert!((mpairs - 1.105).abs() < 0.01, "{mpairs}");
        let instances = (192.7 / mpairs).ceil() as u32;
        assert_eq!(instances, 175); // paper rounds to 174
    }
}
