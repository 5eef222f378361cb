//! Launch-telemetry acceptance tests: every bundled app, in both kernel
//! versions, records one `launch` span whose metrics reconcile with the
//! launch's own statistics, and the span carries no work-group schedule
//! attributes.

use grover_kernels::{all_apps, prepare_pair, run_prepared_observed, AppRun, Scale};
use grover_obs::{MemoryRecorder, Snapshot};
use grover_runtime::{Backend, NullSink};

/// The deterministic launch-span metrics (everything except wall time).
const METRIC_KEYS: &[&str] = &[
    "instructions",
    "barriers",
    "global_loads",
    "global_stores",
    "local_loads",
    "local_stores",
    "constant_loads",
    "private_loads",
    "private_stores",
    "bytes_loaded",
    "bytes_stored",
    "global_bytes_loaded",
    "global_bytes_stored",
    "local_bytes_loaded",
    "local_bytes_stored",
    "constant_bytes_loaded",
    "work_items",
    "work_groups",
];

fn observed_snapshot(
    kernel: &grover_ir::Function,
    prepared: grover_kernels::Prepared,
) -> (Snapshot, AppRun) {
    let rec = MemoryRecorder::new();
    let run = run_prepared_observed(
        kernel,
        prepared,
        &mut NullSink,
        Backend::default(),
        &rec,
        None,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    (rec.snapshot(), run)
}

#[test]
fn launch_metrics_reconcile_with_launch_stats() {
    for app in all_apps() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        for (version, kernel) in [
            ("original", &pair.original),
            ("transformed", &pair.transformed),
        ] {
            let (snap, run) = observed_snapshot(kernel, (app.prepare)(Scale::Test));
            let span = snap.span("launch").expect("launch span recorded");
            let metric = |k: &str| {
                span.attr_u64(k)
                    .unwrap_or_else(|| panic!("{} {version}: metric `{k}` missing", app.id))
            };
            for k in METRIC_KEYS {
                metric(k);
            }
            let s = run.stats;
            assert_eq!(
                [
                    metric("instructions"),
                    metric("barriers"),
                    metric("work_items"),
                    metric("work_groups"),
                ],
                [s.instructions, s.barriers, s.work_items, s.work_groups],
                "{} {version}: launch span disagrees with LaunchStats",
                app.id
            );
        }
    }
}

#[test]
fn launch_span_has_no_schedule_attributes() {
    let app = grover_kernels::app_by_id("NVD-MT").unwrap();
    let pair = prepare_pair(&app, Scale::Test).unwrap();
    let (snap, _) = observed_snapshot(&pair.original, (app.prepare)(Scale::Test));
    let span = snap.span("launch").unwrap();
    assert_eq!(span.attr_str("backend"), Some("bytecode"));
    assert!(span.attr("policy").is_none(), "{:?}", span.attr("policy"));
    assert!(span.attr("workers").is_none(), "{:?}", span.attr("workers"));
    assert!(snap.events_named("worker").is_empty());
}

#[test]
fn launch_span_reconciles_per_space_totals() {
    let app = grover_kernels::app_by_id("AMD-MM").unwrap();
    let pair = prepare_pair(&app, Scale::Test).unwrap();
    let (snap, _) = observed_snapshot(&pair.original, (app.prepare)(Scale::Test));
    let span = snap.span("launch").unwrap();
    let per_space_bytes_loaded = span.attr_u64("global_bytes_loaded").unwrap()
        + span.attr_u64("local_bytes_loaded").unwrap()
        + span.attr_u64("constant_bytes_loaded").unwrap();
    assert_eq!(
        per_space_bytes_loaded,
        span.attr_u64("bytes_loaded").unwrap()
    );
    assert!(span.attr_u64("local_loads").unwrap() > 0);
}
