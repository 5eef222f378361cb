//! Regenerate Table IV: gain/loss/similar distribution of the 33 test
//! cases at the 5 % similarity threshold.

use std::collections::BTreeMap;

use grover_bench::{fig10_cases, run_cases, scale_from_env};
use grover_devsim::CPU_DEVICES;
use grover_predict::{Verdict, SIMILARITY_THRESHOLD};

fn main() {
    let scale = scale_from_env();
    println!("TABLE IV: performance gain/loss distribution (5% threshold, scale: {scale:?})\n");
    let cases = fig10_cases();
    let results = run_cases(&cases, scale);

    // Per device: [gain, loss, similar].
    let mut counts: BTreeMap<&str, [usize; 3]> = BTreeMap::new();
    let mut total = 0;
    for r in results.iter().flatten() {
        let column = match Verdict::from_np(r.np, SIMILARITY_THRESHOLD) {
            Verdict::WithoutLocalMemory => 0,
            Verdict::WithLocalMemory => 1,
            Verdict::Similar => 2,
        };
        let dev: &str = CPU_DEVICES
            .iter()
            .find(|d| **d == r.device)
            .copied()
            .unwrap_or("other");
        counts.entry(dev).or_default()[column] += 1;
        total += 1;
    }

    println!("{:<9} {:>6} {:>6} {:>8}", "", "Gain", "Loss", "Similar");
    let mut sums = [0usize; 3];
    for dev in CPU_DEVICES {
        let [g, l, s] = counts.get(dev).copied().unwrap_or_default();
        sums[0] += g;
        sums[1] += l;
        sums[2] += s;
        println!("{dev:<9} {g:>6} {l:>6} {s:>8}");
    }
    let pct = |n: usize| format!("{n} ({:.0}%)", 100.0 * n as f64 / total.max(1) as f64);
    println!(
        "{:<9} {:>6} {:>6} {:>8}   measured: {} / {} / {}",
        "Total",
        sums[0],
        sums[1],
        sums[2],
        pct(sums[0]),
        pct(sums[1]),
        pct(sums[2]),
    );
    println!("\npaper Table IV: Gain 12 (36%) — Loss 9 (27%) — Similar 12 (36%)");
    println!("paper conclusion: more than a third of the 33 cases improve when");
    println!("local memory is disabled; the distribution is device-dependent.");
}
