//! # grover-bench
//!
//! Shared machinery for regenerating every table and figure of the Grover
//! paper's evaluation:
//!
//! * `cargo run -p grover-bench --release --bin table1` — Table I (apps & datasets)
//! * `cargo run -p grover-bench --release --bin table3` — Table III (symbolic nGL indices)
//! * `cargo run -p grover-bench --release --bin fig2`   — Fig. 2 (MT/MM on 6 devices)
//! * `cargo run -p grover-bench --release --bin fig10`  — Fig. 10 (11 apps on SNB/Nehalem/MIC)
//! * `cargo run -p grover-bench --release --bin table4` — Table IV (gain/loss distribution)
//! * `cargo run -p grover-bench --release --bin ablations` — extra studies (DESIGN.md §8)
//!
//! The scale is taken from `GROVER_SCALE` (`test` | `small` | `paper`,
//! default `small`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use grover_devsim::Device;
use grover_kernels::{all_apps, app_by_id, prepare_pair, run_prepared, App, Scale};

/// The normalized performance of one test case (paper §VI-B):
/// `np = t_with_lm / t_without_lm` — above 1 means disabling local memory
/// *improved* performance.
#[derive(Clone, Debug)]
pub struct NpResult {
    pub app: String,
    pub device: String,
    pub cycles_with: u64,
    pub cycles_without: u64,
    pub np: f64,
}

/// Scale from `GROVER_SCALE` (default Small).
pub fn scale_from_env() -> Scale {
    match std::env::var("GROVER_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        Ok("paper") => Scale::Paper,
        _ => Scale::Small,
    }
}

/// Simulate one app on one device, both kernel versions, and compute np.
pub fn normalized_performance(app: &App, device: &str, scale: Scale) -> Result<NpResult, String> {
    let pair = prepare_pair(app, scale)?;

    let mut dev = Device::by_name(device).ok_or_else(|| format!("unknown device {device}"))?;
    run_prepared(&pair.original, (app.prepare)(scale), &mut dev)
        .map_err(|e| format!("{} original on {device}: {e}", app.id))?;
    let with_lm = dev.finish();

    let mut dev = Device::by_name(device).expect("checked");
    run_prepared(&pair.transformed, (app.prepare)(scale), &mut dev)
        .map_err(|e| format!("{} transformed on {device}: {e}", app.id))?;
    let without_lm = dev.finish();

    let np = with_lm.cycles as f64 / without_lm.cycles.max(1) as f64;
    Ok(NpResult {
        app: app.id.to_string(),
        device: device.to_string(),
        cycles_with: with_lm.cycles,
        cycles_without: without_lm.cycles,
        np,
    })
}

/// Run a set of `(app id, device)` cases in parallel with a scoped
/// `std::thread` worker pool (each case owns its context and device model,
/// so they are fully independent).
pub fn run_cases(cases: &[(String, String)], scale: Scale) -> Vec<Result<NpResult, String>> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Result<NpResult, String>)>> =
        Mutex::new(Vec::with_capacity(cases.len()));
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cases.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cases.len() {
                    break;
                }
                let (app_id, device) = &cases[i];
                let r = match app_by_id(app_id) {
                    Some(app) => normalized_performance(&app, device, scale),
                    None => Err(format!("unknown app {app_id}")),
                };
                results.lock().expect("poisoned").push((i, r));
            });
        }
    });
    let mut v = results.into_inner().expect("poisoned");
    v.sort_by_key(|(i, _)| *i);
    v.into_iter().map(|(_, r)| r).collect()
}

/// The Fig. 10 case matrix: all 11 apps × the 3 cache-only devices.
pub fn fig10_cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    for dev in grover_devsim::CPU_DEVICES {
        for app in all_apps() {
            cases.push((app.id.to_string(), dev.to_string()));
        }
    }
    cases
}

/// The Fig. 2 case matrix: NVD-MT and NVD-MM-A (the paper's manual MM
/// experiment removes matrix A's tile and keeps B's) on all 6 devices.
pub fn fig2_cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    for app in ["NVD-MT", "NVD-MM-A"] {
        for dev in grover_devsim::ALL_DEVICES {
            cases.push((app.to_string(), dev.to_string()));
        }
    }
    cases
}

/// A simple ASCII bar for np values (matches the figures' visual reading).
pub fn np_bar(np: f64) -> String {
    let width = (np * 20.0).round().clamp(0.0, 60.0) as usize;
    let mut s = String::with_capacity(width + 1);
    for i in 0..width {
        // mark the np = 1.0 reference line
        s.push(if i == 19 { '|' } else { '#' });
    }
    if width <= 19 {
        for _ in width..20 {
            s.push(' ');
        }
        s.push('|');
    }
    s
}

/// Paper-reported np values where the text/figures state them, used by the
/// regeneration binaries to print paper-vs-measured side by side.
/// (Figure 10 is a bar chart; only values called out in §VI-C are exact.)
pub fn paper_np(app: &str, device: &str) -> Option<f64> {
    match (app, device) {
        // §II-C / Fig. 2
        ("NVD-MT", "SNB") => Some(1.3),
        ("NVD-MT", "Nehalem") => Some(1.6),
        // §VI-C explicit numbers on SNB
        ("AMD-RG", "SNB") => Some(1.12),
        ("NVD-MM-A", "SNB") => Some(1.18),
        ("NVD-MM-AB", "SNB") => Some(1.07),
        ("PAB-ST", "SNB") => Some(1.16),
        ("AMD-MM", "SNB") => Some(0.56),
        ("NVD-MM-B", "SNB") => Some(0.81),
        ("NVD-NBody", "SNB") => Some(0.95),
        _ => None,
    }
}

/// Paper-direction expectations (win/lose/flat) for the qualitative check:
/// `Some(true)` = paper reports a gain, `Some(false)` = loss, `None` = no
/// clear claim / similar.
pub fn paper_direction(app: &str, device: &str) -> Option<bool> {
    match (app, device) {
        ("NVD-MT", "SNB" | "Nehalem") => Some(true),
        ("NVD-MT", "Fermi" | "Kepler" | "Tahiti") => Some(false),
        ("AMD-MM", "SNB" | "Nehalem") => Some(false),
        ("NVD-MM-B", "SNB") => Some(false),
        ("NVD-MM-A", "SNB") => Some(true),
        ("PAB-ST", "SNB") => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_matrices() {
        assert_eq!(fig10_cases().len(), 33);
        assert_eq!(fig2_cases().len(), 12);
    }

    #[test]
    fn np_single_case_runs() {
        let app = app_by_id("NVD-MT").unwrap();
        let r = normalized_performance(&app, "SNB", Scale::Test).unwrap();
        assert!(r.cycles_with > 0);
        assert!(r.cycles_without > 0);
        assert!(r.np > 0.0);
    }

    #[test]
    fn parallel_runner_preserves_order() {
        let cases = vec![
            ("NVD-MT".to_string(), "SNB".to_string()),
            ("ROD-SC".to_string(), "Nehalem".to_string()),
            ("AMD-SS".to_string(), "MIC".to_string()),
        ];
        let rs = run_cases(&cases, Scale::Test);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].as_ref().unwrap().app, "NVD-MT");
        assert_eq!(rs[1].as_ref().unwrap().app, "ROD-SC");
        assert_eq!(rs[2].as_ref().unwrap().app, "AMD-SS");
    }

    #[test]
    fn bar_renders() {
        assert!(np_bar(1.0).contains('|'));
        assert!(np_bar(2.0).len() >= 40);
    }
}
