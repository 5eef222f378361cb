//! First-order analytic CPU performance model (paper §VIII future work:
//! *"using Grover, we want to model the performance benefits/losses due to
//! local memory usage on CPUs"*).
//!
//! The model predicts a kernel's CPU time from *operation counts alone* —
//! no cache simulation — so it can be evaluated against the trace-driven
//! simulator. It deliberately captures only the effects one can know
//! without an address trace:
//!
//! * instruction work (`cpi`),
//! * memory operations at an assumed average latency,
//! * barrier work-item switching.
//!
//! What it *cannot* see is data layout: cache-line utilisation, set
//! conflicts, strided-column thrash. Comparing its predictions against the
//! simulator (`model_check` binary) reproduces the paper's own conclusion:
//! counts predict the staging-overhead cases (NVD-MT, PAB-ST) but miss the
//! layout cases (AMD-MM), which is precisely why empirical auto-tuning
//! beats modelling (§VI-C).

use crate::profiles::CpuProfile;

/// Trace-free operation counts for one kernel launch (obtainable from
/// [`grover_runtime::CountingSink`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    /// IR instructions executed.
    pub instructions: u64,
    /// `__global` loads.
    pub global_loads: u64,
    /// `__global` stores.
    pub global_stores: u64,
    /// `__local` loads.
    pub local_loads: u64,
    /// `__local` stores.
    pub local_stores: u64,
    /// Number of barrier rendezvous × work-items per group.
    pub barrier_item_crossings: u64,
}

impl OpCounts {
    /// Build from a counting sink and the launch's items-per-group.
    pub fn from_counts(c: &grover_runtime::CountingSink, items_per_group: u64) -> OpCounts {
        OpCounts {
            instructions: c.instructions,
            global_loads: c.global_loads,
            global_stores: c.global_stores,
            local_loads: c.local_loads,
            local_stores: c.local_stores,
            barrier_item_crossings: c.barriers * items_per_group,
        }
    }
}

/// Model parameters derived from a device profile.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticCpuModel {
    /// Cycles per instruction.
    pub cpi: f64,
    /// Assumed average latency of a global access (cycles). Global data is
    /// streamed once in these kernels, so the average sits between L1 and
    /// L2 depending on line utilisation — the model uses a fixed blend.
    pub global_latency: f64,
    /// Assumed latency of a local access (always cache-hot on CPUs).
    pub local_latency: f64,
    /// Cycles per work-item barrier crossing.
    pub barrier_switch: f64,
}

impl AnalyticCpuModel {
    /// Derive model parameters from a simulated profile.
    pub fn from_profile(p: &CpuProfile) -> AnalyticCpuModel {
        AnalyticCpuModel {
            cpi: p.cpi,
            // Sequential streams hit L1 ~3/4 of the time (16 floats per
            // 64 B line, one miss per line served by L2-or-beyond).
            global_latency: 0.75 * p.l1.latency as f64 + 0.25 * p.l2.latency as f64,
            local_latency: p.l1.latency as f64,
            barrier_switch: p.barrier_switch_cycles as f64,
        }
    }

    /// Predicted cycles (up to the parallel-core divisor, which cancels in
    /// np ratios).
    pub fn predict_cycles(&self, c: &OpCounts) -> f64 {
        c.instructions as f64 * self.cpi
            + (c.global_loads + c.global_stores) as f64 * self.global_latency
            + (c.local_loads + c.local_stores) as f64 * self.local_latency
            + c.barrier_item_crossings as f64 * self.barrier_switch
    }

    /// Predicted normalized performance `np = t_with / t_without`.
    pub fn predict_np(&self, with_lm: &OpCounts, without_lm: &OpCounts) -> f64 {
        self.predict_cycles(with_lm) / self.predict_cycles(without_lm).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::snb;

    fn counts(insts: u64, gl: u64, ll: u64, ls: u64, barrier: u64) -> OpCounts {
        OpCounts {
            instructions: insts,
            global_loads: gl,
            global_stores: gl / 2,
            local_loads: ll,
            local_stores: ls,
            barrier_item_crossings: barrier,
        }
    }

    #[test]
    fn removing_staging_predicts_gain() {
        let m = AnalyticCpuModel::from_profile(&snb());
        // with: staging adds local traffic + barrier crossings + insts
        let with_lm = counts(1000, 100, 100, 100, 256);
        let without = counts(800, 100, 0, 0, 0);
        let np = m.predict_np(&with_lm, &without);
        assert!(np > 1.0, "np = {np}");
    }

    #[test]
    fn identical_counts_predict_similar() {
        let m = AnalyticCpuModel::from_profile(&snb());
        let c = counts(1000, 100, 0, 0, 0);
        let np = m.predict_np(&c, &c);
        assert!((np - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_global_traffic_predicts_loss() {
        let m = AnalyticCpuModel::from_profile(&snb());
        let with_lm = counts(1000, 100, 50, 50, 0);
        let without = counts(1000, 400, 0, 0, 0); // staging removal tripled gl
        let np = m.predict_np(&with_lm, &without);
        assert!(np < 1.0, "np = {np}");
    }

    #[test]
    fn from_counts_helper() {
        let c = grover_runtime::CountingSink {
            instructions: 10,
            global_loads: 3,
            barriers: 2,
            ..Default::default()
        };
        let o = OpCounts::from_counts(&c, 64);
        assert_eq!(o.instructions, 10);
        assert_eq!(o.global_loads, 3);
        assert_eq!(o.barrier_item_crossings, 128);
    }
}
