#![warn(missing_docs)]
//! # grover-devsim
//!
//! Trace-driven device performance models standing in for the paper's real
//! hardware (SNB, Nehalem, MIC, Fermi, Kepler, Tahiti — paper Table II and
//! Fig. 2). The [`grover_runtime`] interpreter streams every memory access
//! into a model implementing [`grover_runtime::TraceSink`]; the model
//! replays it through set-associative caches (CPU) or a coalescer + SPM +
//! shared L2 (GPU) and reports estimated cycles.
//!
//! The models capture the first-order effects the paper attributes its
//! results to:
//!
//! * CPUs map `__local` onto ordinary cached memory, so staging data
//!   through it costs real loads/stores plus per-barrier work-item
//!   switching (§VI-C's 1.67× NVD-MT win comes from removing exactly this).
//! * Column-major global access patterns thrash CPU caches unless the
//!   kernel stages/transposes tiles through local memory first (the AMD-MM
//!   44 % loss when Grover removes it).
//! * MIC's distributed last-level cache flattens the difference between
//!   versions (§VI-C).
//! * GPUs coalesce per-warp accesses into transactions; local memory is an
//!   on-chip scratch-pad, so de-staging uncoalesced patterns is ruinous
//!   there (Fig. 2's MT losses on Fermi/Kepler/Tahiti).

pub mod cache;
pub mod cpu;
pub mod cpu_simd;
pub mod gpu;
pub mod hierarchy;
pub mod model;
pub mod profiles;

pub use cache::{Cache, CacheConfig, CacheStats, Probe};
pub use cpu::CpuModel;
pub use cpu_simd::SimdCpuModel;
pub use gpu::GpuModel;
pub use model::{AnalyticCpuModel, OpCounts};
pub use profiles::{
    candidate_sequences, is_device, CpuProfile, GpuProfile, ALL_DEVICES, CPU_DEVICES,
};

use std::sync::atomic::{AtomicU64, Ordering};

use grover_runtime::{AccessEvent, TraceSink};

/// Estimated performance of one kernel launch on one device.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfReport {
    /// Device name the report describes.
    pub device: String,
    /// Estimated wall cycles: the maximum over cores/SMs.
    pub cycles: u64,
    /// Per-core (CPU) or per-SM (GPU) cycle totals.
    pub core_cycles: Vec<u64>,
    /// Cycles attributed to instruction execution.
    pub compute_cycles: u64,
    /// Cycles attributed to memory accesses.
    pub mem_cycles: u64,
    /// Cycles attributed to barrier handling.
    pub barrier_cycles: u64,
    /// Aggregated cache statistics (CPU: across private caches; GPU: `l2`).
    pub l1: CacheStats,
    /// Second-level / GPU-shared-L2 statistics.
    pub l2: CacheStats,
    /// Last-level statistics (CPU only).
    pub llc: CacheStats,
    /// Accesses served by DRAM.
    pub dram_accesses: u64,
    /// Global memory transactions after coalescing (GPU only).
    pub transactions: u64,
}

/// Any simulated device.
pub enum Device {
    /// A cache-only processor (scalar runtime model).
    Cpu(CpuModel),
    /// A GPU.
    Gpu(GpuModel),
}

/// Device models built by [`Device::by_name`] in this process.
static BUILT: AtomicU64 = AtomicU64::new(0);

impl Device {
    /// Instantiate a device by its paper name
    /// (`SNB`, `Nehalem`, `MIC`, `Fermi`, `Kepler`, `Tahiti`). To check a
    /// name without building a model, use [`is_device`].
    pub fn by_name(name: &str) -> Option<Device> {
        let dev = match profiles::cpu_by_name(name) {
            Some(p) => Device::Cpu(CpuModel::new(p)),
            None => Device::Gpu(GpuModel::new(profiles::gpu_by_name(name)?)),
        };
        BUILT.fetch_add(1, Ordering::Relaxed);
        Some(dev)
    }

    /// How many device models [`Device::by_name`] has built in this
    /// process so far.
    pub fn built() -> u64 {
        BUILT.load(Ordering::Relaxed)
    }

    /// Whether this is a cache-only (CPU-class) device.
    pub fn is_cpu(&self) -> bool {
        matches!(self, Device::Cpu(_))
    }

    /// Finish simulation and report.
    pub fn finish(&mut self) -> PerfReport {
        match self {
            Device::Cpu(m) => m.finish(),
            Device::Gpu(m) => m.finish(),
        }
    }
}

impl TraceSink for Device {
    fn access(&mut self, ev: &AccessEvent) {
        match self {
            Device::Cpu(m) => m.access(ev),
            Device::Gpu(m) => m.access(ev),
        }
    }

    fn barrier(&mut self, group: u32, items: u32) {
        match self {
            Device::Cpu(m) => m.barrier(group, items),
            Device::Gpu(m) => m.barrier(group, items),
        }
    }

    fn workitem_done(&mut self, group: u32, local: u32, instructions: u64) {
        match self {
            Device::Cpu(m) => m.workitem_done(group, local, instructions),
            Device::Gpu(m) => m.workitem_done(group, local, instructions),
        }
    }

    fn workgroup_done(&mut self, group: u32) {
        match self {
            Device::Cpu(m) => m.workgroup_done(group),
            Device::Gpu(m) => m.workgroup_done(group),
        }
    }
}

/// Forwards every trace callback to each of a set of sinks, usually
/// device models, so one kernel execution drives them all. A launch's
/// access stream does not depend on the device, so each model ends in the
/// state an execution of its own would have left it in. Sinks of
/// different types go in as `[&mut dyn TraceSink]`.
pub struct Tee<'a, S>(pub &'a mut [S]);

impl<S: TraceSink> TraceSink for Tee<'_, S> {
    fn access(&mut self, ev: &AccessEvent) {
        for m in self.0.iter_mut() {
            m.access(ev);
        }
    }

    fn barrier(&mut self, group: u32, items: u32) {
        for m in self.0.iter_mut() {
            m.barrier(group, items);
        }
    }

    fn workitem_done(&mut self, group: u32, local: u32, instructions: u64) {
        for m in self.0.iter_mut() {
            m.workitem_done(group, local, instructions);
        }
    }

    fn workgroup_done(&mut self, group: u32) {
        for m in self.0.iter_mut() {
            m.workgroup_done(group);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_lookup() {
        for n in ALL_DEVICES {
            assert!(Device::by_name(n).is_some(), "{n}");
        }
        assert!(Device::by_name("TPU").is_none());
        assert!(Device::by_name("SNB").unwrap().is_cpu());
        assert!(!Device::by_name("Fermi").unwrap().is_cpu());
    }

    /// A synthetic launch: 64 groups of 256 work-items, each issuing 8
    /// scattered global loads over 8 MiB — far more than the Fermi L2
    /// (768 KiB) holds, so the probe order decides which lines survive.
    fn scattered_launch(sink: &mut dyn TraceSink) {
        use grover_ir::AddressSpace;
        use grover_runtime::TraceOp;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for group in 0..64 {
            for local in 0..256 {
                for pc in 0..8 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    sink.access(&AccessEvent {
                        op: TraceOp::Load,
                        space: AddressSpace::Global,
                        addr: (x % (8 << 20)) & !3,
                        bytes: 4,
                        group,
                        local,
                        pc,
                    });
                }
                sink.workitem_done(group, local, 40);
            }
            sink.workgroup_done(group);
        }
    }

    #[test]
    fn same_launch_simulates_identically_twice() {
        let run = |device: &str| {
            let mut d = Device::by_name(device).unwrap();
            scattered_launch(&mut d);
            d.finish()
        };
        let first = run("Fermi");
        assert!(first.l2.evictions > 0 && first.l2.hits > 0, "{first:?}");
        assert_eq!(first, run("Fermi"));
        let simd = || {
            let mut m = SimdCpuModel::new(profiles::snb());
            scattered_launch(&mut m);
            m.finish()
        };
        assert_eq!(simd(), simd());
    }

    #[test]
    fn tee_reports_what_separate_launches_report() {
        let alone = |device: &str| {
            let mut d = Device::by_name(device).unwrap();
            scattered_launch(&mut d);
            d.finish()
        };
        let mut models: Vec<Device> = ALL_DEVICES
            .iter()
            .map(|n| Device::by_name(n).unwrap())
            .collect();
        scattered_launch(&mut Tee(&mut models));
        for (name, m) in ALL_DEVICES.iter().zip(&mut models) {
            assert_eq!(m.finish(), alone(name), "{name}");
        }
    }

    #[test]
    fn finish_produces_named_report() {
        let mut d = Device::by_name("Nehalem").unwrap();
        d.workitem_done(0, 0, 10);
        let r = d.finish();
        assert_eq!(r.device, "Nehalem");
        assert!(r.cycles > 0);
    }
}
