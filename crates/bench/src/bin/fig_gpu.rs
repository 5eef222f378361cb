//! EXTENSION (paper §VIII future work): "In the near future, we will
//! further investigate Grover's impact on other types of devices (e.g.,
//! GPUs)." — the full 11-application matrix on the three GPU models,
//! complementing Fig. 10's CPU-only evaluation.

use grover_bench::{np_bar, run_cases, scale_from_env};
use grover_kernels::all_apps;
use grover_predict::{Verdict, SIMILARITY_THRESHOLD};

fn main() {
    let scale = scale_from_env();
    println!(
        "EXTENSION: normalized performance of all 11 apps on the GPU models (scale: {scale:?})"
    );
    println!("np > 1: disabling local memory improved performance\n");
    let mut cases = Vec::new();
    for dev in ["Fermi", "Kepler", "Tahiti"] {
        for app in all_apps() {
            cases.push((app.id.to_string(), dev.to_string()));
        }
    }
    let results = run_cases(&cases, scale);
    let mut cur_dev = String::new();
    let mut tallies = [0usize; 3]; // gain/loss/similar
    for r in &results {
        match r {
            Ok(r) => {
                if r.device != cur_dev {
                    cur_dev = r.device.clone();
                    println!("--- {} ---", r.device);
                    println!("{:<11} {:>8}  0        1.0        2.0", "app", "np");
                }
                match Verdict::from_np(r.np, SIMILARITY_THRESHOLD) {
                    Verdict::WithoutLocalMemory => tallies[0] += 1,
                    Verdict::WithLocalMemory => tallies[1] += 1,
                    Verdict::Similar => tallies[2] += 1,
                }
                println!("{:<11} {:>8.3}  {}", r.app, r.np, np_bar(r.np));
            }
            Err(e) => println!("ERROR: {e}"),
        }
    }
    println!(
        "\nGPU totals: {} gains / {} losses / {} similar of {} cases",
        tallies[0],
        tallies[1],
        tallies[2],
        tallies.iter().sum::<usize>()
    );
    println!("Expected shape: losses dominate — staging exists to serve GPUs, so");
    println!("reversing it mostly hurts there; the exceptions are kernels whose");
    println!("global access stays coalesced without the tile.");
}
