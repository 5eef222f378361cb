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
use std::sync::OnceLock;

use grover_devsim::{Device, Tee};
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

/// Simulate one app's two kernel versions on each of `devices` and
/// compute np per device. Each version executes once, into a model of
/// every device at the same time.
pub fn normalized_performance(
    app: &App,
    devices: &[&str],
    scale: Scale,
) -> Result<Vec<NpResult>, String> {
    let pair = prepare_pair(app, scale)?;
    let cycles = |kernel, version: &str| -> Result<Vec<u64>, String> {
        let mut models = devices
            .iter()
            .map(|d| Device::by_name(d).ok_or_else(|| format!("unknown device {d}")))
            .collect::<Result<Vec<_>, _>>()?;
        run_prepared(kernel, (app.prepare)(scale), &mut Tee(&mut models))
            .map_err(|e| format!("{} {version} on {}: {e}", app.id, devices.join(",")))?;
        Ok(models.iter_mut().map(|m| m.finish().cycles).collect())
    };
    let with_lm = cycles(&pair.original, "original")?;
    let without_lm = cycles(&pair.transformed, "transformed")?;
    Ok(devices
        .iter()
        .zip(with_lm.into_iter().zip(without_lm))
        .map(|(device, (cycles_with, cycles_without))| NpResult {
            app: app.id.to_string(),
            device: device.to_string(),
            cycles_with,
            cycles_without,
            np: cycles_with as f64 / cycles_without.max(1) as f64,
        })
        .collect())
}

/// Run a set of `(app id, device)` cases and return their results in case
/// order. Each distinct app runs once ([`normalized_performance`] over
/// every device its cases name), on a scoped `std::thread` worker pool.
pub fn run_cases(cases: &[(String, String)], scale: Scale) -> Vec<Result<NpResult, String>> {
    // Distinct apps in first-appearance order, each with its devices.
    let mut apps: Vec<(&str, Vec<&str>)> = Vec::new();
    for (app, device) in cases {
        match apps.iter_mut().find(|(a, _)| a == app) {
            Some((_, devices)) => devices.push(device),
            None => apps.push((app, vec![device])),
        }
    }
    let next = AtomicUsize::new(0);
    let per_app: Vec<OnceLock<Result<Vec<NpResult>, String>>> =
        apps.iter().map(|_| OnceLock::new()).collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(apps.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((app_id, devices)) = apps.get(i) else {
                    break;
                };
                let r = match app_by_id(app_id) {
                    Some(app) => normalized_performance(&app, devices, scale),
                    None => Err(format!("unknown app {app_id}")),
                };
                per_app[i].set(r).expect("each app runs once");
            });
        }
    });
    cases
        .iter()
        .map(|(app, device)| {
            let i = apps.iter().position(|(a, _)| a == app).expect("grouped");
            match per_app[i].get().expect("every app ran") {
                Ok(rs) => Ok(rs
                    .iter()
                    .find(|r| r.device == *device)
                    .expect("one result per device")
                    .clone()),
                Err(e) => Err(e.clone()),
            }
        })
        .collect()
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
        let rs = normalized_performance(&app, &["SNB"], Scale::Test).unwrap();
        let r = &rs[0];
        assert!(r.cycles_with > 0);
        assert!(r.cycles_without > 0);
        assert!(r.np > 0.0);
    }

    /// Results come back in case order, and a case whose app shares its
    /// executions with other devices reads what a run of its own reads.
    #[test]
    fn parallel_runner_preserves_order() {
        let cases = vec![
            ("NVD-MT".to_string(), "SNB".to_string()),
            ("ROD-SC".to_string(), "Nehalem".to_string()),
            ("NVD-MT".to_string(), "Fermi".to_string()),
            ("AMD-SS".to_string(), "MIC".to_string()),
        ];
        let rs = run_cases(&cases, Scale::Test);
        assert_eq!(rs.len(), cases.len());
        for ((app, device), r) in cases.iter().zip(rs) {
            let r = r.unwrap();
            let alone =
                normalized_performance(&app_by_id(app).unwrap(), &[device], Scale::Test).unwrap();
            assert_eq!(
                (&r.app, &r.device, r.cycles_with, r.cycles_without),
                (app, device, alone[0].cycles_with, alone[0].cycles_without)
            );
        }
    }

    #[test]
    fn bar_renders() {
        assert!(np_bar(1.0).contains('|'));
        assert!(np_bar(2.0).len() >= 40);
    }
}
