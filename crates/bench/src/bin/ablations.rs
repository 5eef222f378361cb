//! Ablation studies beyond the paper (DESIGN.md §8):
//!
//! 1. **Barrier elision** — rerun NVD-MT with local memory removed but the
//!    barrier kept, separating the locality win from the work-item-switch
//!    win on CPUs.
//! 2. **Cache-size sweep** — shrink/grow the SNB LLC to find where staging
//!    through local memory starts/stops paying for AMD-MM.
//! 3. **Work-group-size sweep** — the paper holds WG size fixed (§V-B,
//!    citing reference \[18\] that it matters); we sweep it for NVD-MT on SNB.
//!
//! Wherever a study compares several models on one kernel, the kernel
//! executes once into all of them (a [`Tee`]).

use grover_bench::scale_from_env;
use grover_core::{Grover, GroverOptions};
use grover_devsim::profiles::snb;
use grover_devsim::{CpuModel, Device, SimdCpuModel, Tee};
use grover_frontend::compile;
use grover_kernels::{app_by_id, prepare_pair, run_prepared, Scale};
use grover_runtime::{NdRange, TraceSink};

fn main() {
    let scale = scale_from_env();
    barrier_elision(scale);
    cache_sweep(scale);
    wg_sweep(scale);
    runtime_model(scale);
}

/// Ablation 4: how much does the CPU runtime's execution style (scalar
/// work-item loop vs implicit SIMD vectorisation) change the verdicts?
fn runtime_model(scale: Scale) {
    println!("=== Ablation 4: scalar vs implicit-SIMD runtime model (SNB) ===");
    println!("{:<11} {:>12} {:>10}", "app", "np(scalar)", "np(simd)");
    for id in ["NVD-MT", "AMD-MM", "NVD-MM-A", "PAB-ST", "ROD-SC"] {
        let app = app_by_id(id).unwrap();
        let pair = match prepare_pair(&app, scale) {
            Ok(p) => p,
            Err(e) => {
                println!("{id:<11} error: {e}");
                continue;
            }
        };
        let run = |k| {
            let mut scalar = CpuModel::new(snb());
            let mut simd = SimdCpuModel::new(snb());
            let sinks: &mut [&mut dyn TraceSink] = &mut [&mut scalar, &mut simd];
            run_prepared(k, (app.prepare)(scale), &mut Tee(sinks)).unwrap();
            (scalar.finish().cycles, simd.finish().cycles)
        };
        let (scalar_with, simd_with) = run(&pair.original);
        let (scalar_without, simd_without) = run(&pair.transformed);
        let np_scalar = scalar_with as f64 / scalar_without as f64;
        let np_simd = simd_with as f64 / simd_without as f64;
        println!("{id:<11} {np_scalar:>12.3} {np_simd:>10.3}");
    }
    println!("The default harness uses the scalar model; the SIMD model shifts");
    println!("magnitudes (vectorised compute dilutes staging overhead) but the");
    println!("gain/loss directions that drive Table IV are stable.\n");
}

/// Cycles of one execution of `kernel` on each of `devices`.
fn sim_cycles(
    kernel: &grover_ir::Function,
    app: &grover_kernels::App,
    scale: Scale,
    devices: &[&str],
) -> Vec<u64> {
    let mut models: Vec<Device> = devices
        .iter()
        .map(|d| Device::by_name(d).expect("device"))
        .collect();
    run_prepared(kernel, (app.prepare)(scale), &mut Tee(&mut models)).expect("run");
    models.iter_mut().map(|m| m.finish().cycles).collect()
}

fn barrier_elision(scale: Scale) {
    println!("=== Ablation 1: barrier elision (NVD-MT) ===");
    let app = app_by_id("NVD-MT").unwrap();
    let opts = (app.options)(scale);
    let module = compile(app.source, &opts).unwrap();
    let original = module.kernel(app.kernel).unwrap().clone();

    let mut no_lm = original.clone();
    Grover::new().run_on(&mut no_lm);

    let mut no_lm_keep_barrier = original.clone();
    Grover::with_options(GroverOptions {
        buffers: None,
        keep_barriers: true,
    })
    .run_on(&mut no_lm_keep_barrier);

    let devices = ["SNB", "Nehalem", "MIC"];
    let with_lm = sim_cycles(&original, &app, scale, &devices);
    let without = sim_cycles(&no_lm, &app, scale, &devices);
    let without_kb = sim_cycles(&no_lm_keep_barrier, &app, scale, &devices);
    for (i, dev) in devices.iter().enumerate() {
        let np_full = with_lm[i] as f64 / without[i] as f64;
        let np_kb = with_lm[i] as f64 / without_kb[i] as f64;
        println!(
            "{dev:<9} np(full removal) = {np_full:.3}   np(keep barrier) = {np_kb:.3}   \
             barrier share of the win: {:.0}%",
            100.0 * (np_full - np_kb).max(0.0) / (np_full - 1.0).max(1e-9)
        );
    }
    println!();
}

fn cache_sweep(scale: Scale) {
    println!("=== Ablation 2: SNB LLC size sweep (AMD-MM) ===");
    let app = app_by_id("AMD-MM").unwrap();
    let pair = prepare_pair(&app, scale).unwrap();
    println!("{:<10} {:>8}", "LLC", "np");
    let sizes = [1u64, 2, 4, 8, 15, 30];
    let cycles = |k| {
        let mut models: Vec<CpuModel> = sizes
            .iter()
            .map(|mb| {
                let mut prof = snb();
                prof.llc.size_bytes = mb * 1024 * 1024;
                CpuModel::new(prof)
            })
            .collect();
        run_prepared(k, (app.prepare)(scale), &mut Tee(&mut models)).unwrap();
        models
            .iter_mut()
            .map(|m| m.finish().cycles)
            .collect::<Vec<_>>()
    };
    let with_lm = cycles(&pair.original);
    let without = cycles(&pair.transformed);
    for (i, mb) in sizes.iter().enumerate() {
        println!(
            "{:>6} MiB {:>8.3}",
            mb,
            with_lm[i] as f64 / without[i] as f64
        );
    }
    println!();
}

fn wg_sweep(scale: Scale) {
    println!("=== Ablation 3: work-group size sweep (NVD-MT on SNB) ===");
    let app = app_by_id("NVD-MT").unwrap();
    println!("{:<8} {:>8}", "tile", "np");
    for tile in [4u64, 8, 16, 32] {
        let opts = grover_frontend::BuildOptions::new().define("S", tile);
        let module = match compile(app.source, &opts) {
            Ok(m) => m,
            Err(e) => {
                println!("{tile:<8} compile error: {e}");
                continue;
            }
        };
        let original = module.kernel(app.kernel).unwrap().clone();
        let mut transformed = original.clone();
        Grover::new().run_on(&mut transformed);
        // Re-prepare with a matching NDRange.
        let mut p = (app.prepare)(scale);
        let n = p.nd.global[0];
        if !n.is_multiple_of(tile) {
            println!("{tile:<8} skipped (does not divide {n})");
            continue;
        }
        p.nd = NdRange::d2(n, n, tile, tile);
        let mut p2 = (app.prepare)(scale);
        p2.nd = p.nd;

        let mut d = Device::by_name("SNB").unwrap();
        run_prepared(&original, p, &mut d).unwrap();
        let with_lm = d.finish().cycles;
        let mut d = Device::by_name("SNB").unwrap();
        run_prepared(&transformed, p2, &mut d).unwrap();
        let without = d.finish().cycles;
        println!("{tile:<8} {:>8.3}", with_lm as f64 / without as f64);
    }
}
