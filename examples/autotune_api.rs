//! The auto-tuning framework (`grover-tuner`) in action — the paper's
//! §VIII future-work item: per-platform kernel specialisation with cached
//! decisions.
//!
//! ```sh
//! cargo run --release --example autotune_api
//! ```

use grover::frontend::{compile, BuildOptions};
use grover::predict::Verdict;
use grover::runtime::{ArgValue, Context, NdRange};
use grover::tuner::{Tuner, Workload};

const KERNEL: &str = r#"
__kernel void mt(__global float* in, __global float* out, int w) {
    __local float lm[16][16];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    lm[ly][lx] = in[(wy * 16 + ly) * w + (wx * 16 + lx)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[(wx * 16 + ly) * w + (wy * 16 + lx)] = lm[lx][ly];
}
"#;

fn main() {
    let module = compile(KERNEL, &BuildOptions::new()).expect("compile");
    let kernel = module.kernel("mt").expect("kernel");

    let n = 128usize;
    let workload = Workload::new(move || {
        let mut ctx = Context::new();
        let input: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
        let a = ctx.buffer_f32(&input);
        let b = ctx.zeros_f32(n * n);
        (
            ctx,
            vec![
                ArgValue::Buffer(a),
                ArgValue::Buffer(b),
                ArgValue::I32(n as i32),
            ],
            NdRange::d2(n as u64, n as u64, 16, 16),
        )
    });

    let mut tuner = Tuner::new();
    println!("tuning `mt` across platforms:\n");
    for (device, result) in tuner.tune_all(
        kernel,
        &["Fermi", "Kepler", "Tahiti", "SNB", "Nehalem", "MIC"],
        &workload,
    ) {
        match result {
            Ok(d) => {
                let verdict = match d.choice {
                    Verdict::WithLocalMemory => "keep local memory",
                    Verdict::WithoutLocalMemory => "disable local memory",
                    Verdict::Similar => "either (within 5%)",
                };
                println!("  {device:<9} np = {:>6.3}  →  {verdict}", d.np);
            }
            Err(e) => println!("  {device:<9} failed: {e}"),
        }
    }
    println!("\ncached decisions: {}", tuner.cached_decisions());

    // Retrieve the recommended kernel for one platform.
    let best = tuner.best_kernel(kernel, "SNB", &workload).expect("tuned");
    println!(
        "SNB recommendation uses {} bytes of local memory",
        best.local_mem_bytes()
    );
}
