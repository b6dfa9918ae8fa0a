//! Area/power roll-up (paper §7.3, Table 4).
//!
//! Module costs are the paper's Table 4 figures, which the paper already
//! scaled from 28 nm synthesis to 7 nm (Stiller factors, Table 4 footnote);
//! this code applies no technology scaling of its own. SRAM costs come from
//! the CACTI-calibrated [`gx_memsim::SramModel`]; the HBM PHY is a fixed
//! block from published chip measurements (60 mm², 320 mW).

use crate::nmsl::NmslResult;
use crate::sizing::PipelineSizing;
use gx_memsim::SramModel;

/// One row of the cost table.
#[derive(Clone, Debug, PartialEq)]
pub struct CostItem {
    /// Component name.
    pub name: String,
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

/// An accumulating cost breakdown (Table 4).
#[derive(Clone, Debug, Default)]
pub struct DesignCost {
    items: Vec<CostItem>,
}

impl DesignCost {
    /// Creates an empty breakdown.
    pub fn new() -> DesignCost {
        DesignCost::default()
    }

    /// Adds a component.
    pub fn add(&mut self, name: impl Into<String>, area_mm2: f64, power_mw: f64) {
        self.items.push(CostItem {
            name: name.into(),
            area_mm2,
            power_mw,
        });
    }

    /// The rows.
    pub fn items(&self) -> &[CostItem] {
        &self.items
    }

    /// Total area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.items.iter().map(|i| i.area_mm2).sum()
    }

    /// Total power in mW.
    pub fn total_power_mw(&self) -> f64 {
        self.items.iter().map(|i| i.power_mw).sum()
    }

    /// Renders an aligned text table.
    pub fn render(&self, title: &str) -> String {
        let mut s = format!(
            "{title}\n{:<34} {:>12} {:>12}\n",
            "Component", "Area [mm2]", "Power [mW]"
        );
        for i in &self.items {
            s += &format!("{:<34} {:>12.3} {:>12.2}\n", i.name, i.area_mm2, i.power_mw);
        }
        s += &format!(
            "{:<34} {:>12.3} {:>12.2}\n",
            "Total",
            self.total_area_mm2(),
            self.total_power_mw()
        );
        s
    }
}

/// HBM PHY block (paper Table 4, from published chip measurements).
pub const HBM_PHY_AREA_MM2: f64 = 60.0;
/// HBM PHY power in mW.
pub const HBM_PHY_POWER_MW: f64 = 320.0;

/// Assembles the GenPairX side of Table 4 from a sized pipeline and an NMSL
/// simulation result.
pub fn genpairx_cost(sizing: &PipelineSizing, nmsl: &NmslResult) -> DesignCost {
    let mut cost = DesignCost::new();
    for m in &sizing.modules {
        cost.add(
            format!("{} (x{})", m.spec.name, m.instances),
            m.total_area_mm2,
            m.total_power_mw,
        );
    }
    cost.add("HBM PHY", HBM_PHY_AREA_MM2, HBM_PHY_POWER_MW);
    let buffer = SramModel::buffer_7nm();
    let fifo = SramModel::fifo_7nm();
    cost.add(
        format!(
            "Centralized Buffer ({:.2} MB)",
            nmsl.buffer_bytes as f64 / (1024.0 * 1024.0)
        ),
        buffer.area_mm2(nmsl.buffer_bytes),
        buffer.power_mw(nmsl.buffer_bytes),
    );
    cost.add(
        format!("FIFOs ({} KB)", nmsl.fifo_bytes / 1024),
        fifo.area_mm2(nmsl.fifo_bytes),
        fifo.power_mw(nmsl.fifo_bytes),
    );
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::WorkloadProfile;

    #[test]
    fn totals_accumulate() {
        let mut c = DesignCost::new();
        c.add("a", 1.0, 10.0);
        c.add("b", 2.0, 20.0);
        assert!((c.total_area_mm2() - 3.0).abs() < 1e-12);
        assert!((c.total_power_mw() - 30.0).abs() < 1e-12);
        assert!(c.render("T").contains("Total"));
    }

    #[test]
    fn paper_sizing_cost_close_to_table4() {
        // With the paper's profile and buffer/FIFO sizes, GenPairX totals
        // should land near Table 4's 66.8 mm² / 881 mW.
        let sizing = PipelineSizing::balance(192.7, &WorkloadProfile::paper());
        let nmsl = NmslResult {
            pairs: 0,
            cycles: 0,
            elapsed_s: 0.0,
            mpairs_per_s: 192.7,
            gbs: 0.0,
            max_channel_fifo: 760,
            max_inflight_pairs: 1024,
            fifo_bytes: 190 * 1024,
            buffer_bytes: (11.74 * 1024.0 * 1024.0) as u64,
            sram_bytes: 0,
            row_hit_rate: 0.0,
            dram: Default::default(),
            dram_power_mw: 0.0,
        };
        let cost = genpairx_cost(&sizing, &nmsl);
        let area = cost.total_area_mm2();
        let power = cost.total_power_mw();
        assert!((area - 66.8).abs() < 1.0, "area {area}");
        assert!((power - 881.0).abs() < 20.0, "power {power}");
    }
}
