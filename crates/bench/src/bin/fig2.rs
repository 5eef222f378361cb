//! Regenerate Fig. 2: the performance impact of removing local memory on
//! Matrix Transpose (MT) and Matrix Multiplication (MM) across all six
//! devices (Fermi, Kepler, Tahiti, SNB, Nehalem, MIC).
//!
//! The paper's MM experiment removes the local tile of matrix A while
//! keeping matrix B's — our NVD-MM-A variant.

use grover_bench::{fig2_cases, np_bar, paper_direction, run_cases, scale_from_env};
use grover_predict::{Verdict, SIMILARITY_THRESHOLD};

fn main() {
    let scale = scale_from_env();
    println!("FIG. 2: normalized performance np = t_with_lm / t_without_lm (scale: {scale:?})");
    println!("np > 1: disabling local memory improved performance\n");
    let cases = fig2_cases();
    let results = run_cases(&cases, scale);
    let mut matched = 0;
    let mut claimed = 0;
    let mut cur_app = String::new();
    for r in results {
        match r {
            Ok(r) => {
                if r.app != cur_app {
                    cur_app = r.app.clone();
                    let label = if r.app == "NVD-MT" {
                        "MT"
                    } else {
                        "MM (A de-localised)"
                    };
                    println!("--- {label} ---");
                    println!(
                        "{:<9} {:>10} {:>14} {:>14}  0        1.0        2.0",
                        "device", "np", "cyc(with)", "cyc(without)"
                    );
                }
                let dir = paper_direction(&r.app, &r.device);
                let verdict = Verdict::from_np(r.np, SIMILARITY_THRESHOLD);
                let mark = match dir {
                    Some(true) => {
                        claimed += 1;
                        if verdict == Verdict::WithoutLocalMemory {
                            matched += 1;
                            " (paper: gain ✓)"
                        } else {
                            " (paper: gain ✗)"
                        }
                    }
                    Some(false) => {
                        claimed += 1;
                        if verdict == Verdict::WithLocalMemory {
                            matched += 1;
                            " (paper: loss ✓)"
                        } else {
                            " (paper: loss ✗)"
                        }
                    }
                    None => "",
                };
                println!(
                    "{:<9} {:>10.3} {:>14} {:>14}  {}{}",
                    r.device,
                    r.np,
                    r.cycles_with,
                    r.cycles_without,
                    np_bar(r.np),
                    mark
                );
            }
            Err(e) => println!("ERROR: {e}"),
        }
    }
    println!("\npaper-direction agreement: {matched}/{claimed} cases with explicit claims");
}
