//! Device profiles for the six platforms of the paper's evaluation
//! (Table II: SNB, Nehalem, MIC — Fig. 2 additionally: Fermi, Kepler,
//! Tahiti).
//!
//! Parameters are first-order approximations of the published
//! microarchitectures. Absolute cycle counts are not meant to match real
//! silicon; what matters for the reproduction is the *relative* cost
//! structure: cache geometry, DRAM distance, work-item switch cost on CPUs,
//! SPM vs coalesced/uncoalesced global access on GPUs, and MIC's
//! distributed last-level cache.

use crate::cache::CacheConfig;

/// A cache-only CPU (or MIC) device description.
#[derive(Clone, Debug)]
pub struct CpuProfile {
    /// Device name (paper spelling).
    pub name: &'static str,
    /// Hardware cores the runtime spreads work-groups over.
    pub cores: usize,
    /// Average cycles per (scalar IR) instruction.
    pub cpi: f64,
    /// Private first-level cache.
    pub l1: CacheConfig,
    /// Private second-level cache.
    pub l2: CacheConfig,
    /// Last-level cache (or the ring of remote L2s on MIC).
    pub llc: CacheConfig,
    /// `true` = one LLC slice per core, address-interleaved, with a remote
    /// penalty (MIC's ring of L2s); `false` = one unified LLC (SNB/Nehalem).
    pub llc_distributed: bool,
    /// Extra cycles to reach a remote LLC slice.
    pub remote_llc_penalty: u64,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// Cost of switching between work-item fibers at a barrier, per
    /// work-item (CPU OpenCL runtimes serialise the group; each barrier
    /// forces a context save/restore per item).
    pub barrier_switch_cycles: u64,
    /// Stride-prefetcher stream table size (0 disables prefetching).
    pub prefetch_streams: usize,
    /// Lines prefetched ahead once a stream locks.
    pub prefetch_degree: u64,
    /// Work-items fused per vector instruction by the implicit-SIMD
    /// runtime model ([`crate::cpu_simd::SimdCpuModel`]); the scalar model
    /// ignores this.
    pub simd_width: u32,
}

/// A GPU device description.
#[derive(Clone, Debug)]
pub struct GpuProfile {
    /// Device name (paper spelling).
    pub name: &'static str,
    /// Compute units (SMs / CUs).
    pub sms: usize,
    /// Warp / wavefront width: accesses from this many consecutive
    /// work-items coalesce into transactions.
    pub warp_width: u32,
    /// Bytes per memory transaction (coalescing segment size).
    pub transaction_bytes: u64,
    /// Cycles per scratch-pad (local memory) access per warp.
    pub spm_latency: u64,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// L2-hit transaction latency.
    pub l2_latency: u64,
    /// DRAM transaction latency.
    pub dram_latency: u64,
    /// Effective cycles per instruction per warp (throughput-normalised).
    pub cpi_warp: f64,
    /// Cycles lost at each barrier per warp.
    pub barrier_cycles: u64,
    /// Memory-level parallelism: how many outstanding transactions the SM
    /// overlaps (divides memory stall time).
    pub mlp: f64,
}

/// Sandy Bridge-class Xeon (paper's SNB: dual E5-2620, 2.0 GHz).
pub fn snb() -> CpuProfile {
    CpuProfile {
        name: "SNB",
        cores: 12,
        cpi: 0.7,
        l1: CacheConfig::new(32 * 1024, 64, 8, 4),
        l2: CacheConfig::new(256 * 1024, 64, 8, 12),
        llc: CacheConfig::new(15 * 1024 * 1024, 64, 20, 35),
        llc_distributed: false,
        remote_llc_penalty: 0,
        dram_latency: 200,
        barrier_switch_cycles: 30,
        prefetch_streams: 4,
        prefetch_degree: 1,
        simd_width: 8, // AVX: 8 f32 lanes
    }
}

/// Nehalem-class Xeon (paper's Nehalem: dual E5620, 2.4 GHz).
pub fn nehalem() -> CpuProfile {
    CpuProfile {
        name: "Nehalem",
        cores: 8,
        cpi: 0.9,
        l1: CacheConfig::new(32 * 1024, 64, 8, 4),
        l2: CacheConfig::new(256 * 1024, 64, 8, 11),
        llc: CacheConfig::new(12 * 1024 * 1024, 64, 16, 40),
        llc_distributed: false,
        remote_llc_penalty: 0,
        dram_latency: 240,
        barrier_switch_cycles: 45,
        prefetch_streams: 4,
        prefetch_degree: 1,
        simd_width: 4, // SSE: 4 f32 lanes
    }
}

/// Xeon Phi / Knights Corner (paper's MIC: 5110P, 60 cores).
///
/// KNC has no shared LLC; the per-core 512 KiB L2s form a coherent ring, so
/// a miss in the local L2 may be served by a *remote* L2 slice at a latency
/// comparable to memory. The in-order cores give a much higher base CPI.
pub fn mic() -> CpuProfile {
    CpuProfile {
        name: "MIC",
        cores: 60,
        cpi: 3.2,
        l1: CacheConfig::new(32 * 1024, 64, 8, 3),
        l2: CacheConfig::new(512 * 1024, 64, 8, 23),
        llc: CacheConfig::new(30 * 1024 * 1024, 64, 8, 120),
        llc_distributed: true,
        remote_llc_penalty: 130,
        dram_latency: 300,
        barrier_switch_cycles: 20,
        // KNC's aggressive L2 streamer: 16 streams, deep prefetch — the
        // feature that flattens MIC's with/without-LM gap (paper §VI-C).
        prefetch_streams: 16,
        prefetch_degree: 4,
        simd_width: 16, // 512-bit vectors
    }
}

/// NVIDIA Fermi-class (GTX 580 era).
pub fn fermi() -> GpuProfile {
    GpuProfile {
        name: "Fermi",
        sms: 16,
        warp_width: 32,
        transaction_bytes: 128,
        spm_latency: 2,
        l2: CacheConfig::new(768 * 1024, 128, 16, 1),
        l2_latency: 60,
        dram_latency: 400,
        cpi_warp: 1.2,
        barrier_cycles: 30,
        mlp: 8.0,
    }
}

/// NVIDIA Kepler-class (K20).
pub fn kepler() -> GpuProfile {
    GpuProfile {
        name: "Kepler",
        sms: 13,
        warp_width: 32,
        transaction_bytes: 128,
        spm_latency: 2,
        l2: CacheConfig::new(1536 * 1024, 128, 16, 1),
        l2_latency: 65,
        dram_latency: 380,
        cpi_warp: 0.9,
        barrier_cycles: 25,
        mlp: 10.0,
    }
}

/// AMD Tahiti-class (HD 7970). Wavefront of 64; GCN's vector caches make
/// strided access less catastrophic than on Fermi, and its larger register
/// file yields more memory-level parallelism.
pub fn tahiti() -> GpuProfile {
    GpuProfile {
        name: "Tahiti",
        sms: 32,
        warp_width: 64,
        transaction_bytes: 64,
        spm_latency: 2,
        l2: CacheConfig::new(768 * 1024, 64, 16, 1),
        l2_latency: 70,
        dram_latency: 350,
        cpi_warp: 1.0,
        barrier_cycles: 25,
        mlp: 12.0,
    }
}

/// Look up any of the six devices by paper name.
pub fn cpu_by_name(name: &str) -> Option<CpuProfile> {
    match name {
        "SNB" => Some(snb()),
        "Nehalem" => Some(nehalem()),
        "MIC" => Some(mic()),
        _ => None,
    }
}

/// Look up a GPU profile by paper name.
pub fn gpu_by_name(name: &str) -> Option<GpuProfile> {
    match name {
        "Fermi" => Some(fermi()),
        "Kepler" => Some(kepler()),
        "Tahiti" => Some(tahiti()),
        _ => None,
    }
}

/// All CPU device names of Fig. 10.
pub const CPU_DEVICES: [&str; 3] = ["SNB", "Nehalem", "MIC"];
/// All six devices of Fig. 2.
pub const ALL_DEVICES: [&str; 6] = ["Fermi", "Kepler", "Tahiti", "SNB", "Nehalem", "MIC"];

/// Whether `name` is one of the six device profiles. A table lookup: it
/// builds no model.
pub fn is_device(name: &str) -> bool {
    ALL_DEVICES.contains(&name)
}

/// Candidate pass sequences raced by the tuner on CPU devices.
///
/// CPUs pay a heavy per-work-item fiber switch at every barrier
/// (`barrier_switch_cycles`), so all three candidates eliminate barriers;
/// they differ in how much post-removal rewriting they do. The third skips
/// the standalone cleanup fixpoint and goes straight to the remapping
/// fixpoint (which subsumes cleanup plus GVN/LICM) — on in-order cores
/// like MIC, hoisting the nGL address arithmetic out of loops is the lever
/// that matters.
const CPU_SEQUENCES: [&str; 3] = [
    "local-removal,barrier-elim,index-simplify",
    "local-removal,barrier-elim,index-simplify,remap",
    "local-removal,barrier-elim,remap",
];

/// Candidate pass sequences raced by the tuner on GPU devices.
///
/// GPU barriers are cheap (`barrier_cycles` per warp, hidden by the warp
/// scheduler), so the search also explores *keeping* them: the third
/// candidate leaves barriers in place and spends the budget on the
/// coalescing-friendly remap instead — testing whether barrier removal
/// matters at all once local traffic is gone.
const GPU_SEQUENCES: [&str; 3] = [
    "local-removal,barrier-elim,index-simplify",
    "local-removal,barrier-elim,index-simplify,remap",
    "local-removal,index-simplify,remap",
];

/// The candidate pass-sequence set seeded for a device profile.
///
/// Returned as spec strings (the `--passes` vocabulary) so `devsim` stays
/// dependency-free; `grover-core` parses and validates them. Unknown
/// devices get an empty set — the tuner rejects them before sequence
/// selection anyway.
pub fn candidate_sequences(device: &str) -> &'static [&'static str] {
    if cpu_by_name(device).is_some() {
        &CPU_SEQUENCES
    } else if gpu_by_name(device).is_some() {
        &GPU_SEQUENCES
    } else {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups() {
        assert_eq!(cpu_by_name("SNB").unwrap().name, "SNB");
        assert_eq!(cpu_by_name("MIC").unwrap().cores, 60);
        assert!(cpu_by_name("Fermi").is_none());
        assert_eq!(gpu_by_name("Tahiti").unwrap().warp_width, 64);
        assert!(gpu_by_name("SNB").is_none());
    }

    #[test]
    fn name_check_matches_profile_table() {
        for d in ALL_DEVICES {
            assert!(is_device(d), "{d}");
            assert!(cpu_by_name(d).is_some() != gpu_by_name(d).is_some(), "{d}");
            assert_eq!(CPU_DEVICES.contains(&d), cpu_by_name(d).is_some(), "{d}");
        }
        for d in ["TPU", "snb", "", "SNB "] {
            assert!(!is_device(d), "{d:?}");
        }
    }

    #[test]
    fn mic_is_distributed() {
        assert!(mic().llc_distributed);
        assert!(!snb().llc_distributed);
        assert!(!nehalem().llc_distributed);
    }

    #[test]
    fn every_device_has_candidate_sequences() {
        for d in ALL_DEVICES {
            let seqs = candidate_sequences(d);
            assert!(!seqs.is_empty(), "{d} has no candidate sequences");
            // The default pipeline is always candidate 0, so the search can
            // only improve on the fixed transform.
            assert_eq!(seqs[0], "local-removal,barrier-elim,index-simplify");
            // Every candidate starts with local-removal (the legality root).
            for s in seqs {
                assert!(s.starts_with("local-removal"), "{d}: {s}");
            }
        }
        assert!(candidate_sequences("GTX9000").is_empty());
    }

    #[test]
    fn cache_geometry_sane() {
        for p in [snb(), nehalem(), mic()] {
            assert!(p.l1.size_bytes < p.l2.size_bytes);
            assert!(p.l2.size_bytes < p.llc.size_bytes);
            assert!(p.l1.latency < p.l2.latency);
            assert!(p.l2.latency < p.llc.latency);
            assert!(p.llc.latency < p.dram_latency);
        }
    }
}
