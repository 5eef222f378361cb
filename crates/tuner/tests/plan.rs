//! `Tuner::tune_all` races every device in one measurement plan: each
//! distinct kernel executes once and feeds a model of every device that
//! races it. These tests pin that the shared executions decide exactly
//! what one `Tuner::tune` per device decides, at the documented launch
//! counts, and that the trace names the devices each launch fed.

use std::sync::Arc;

use grover_devsim::ALL_DEVICES;
use grover_kernels::{all_apps, prepare_pair, App, Scale};
use grover_obs::MemoryRecorder;
use grover_tuner::{Decision, Tuner, Workload};

fn workload(app: &App) -> Workload {
    let prepare = app.prepare;
    Workload::new(move || {
        let p = prepare(Scale::Test);
        (p.ctx, p.args, p.nd)
    })
}

/// A default tuner restricted to the app's disable set, as the sweeps
/// and the corpus export configure it.
fn tuner(app: &App) -> Tuner {
    let mut t = Tuner::new();
    t.buffers = app
        .disable
        .map(|names| names.iter().map(|s| s.to_string()).collect());
    t
}

fn assert_same(app: &App, shared: &Decision, alone: &Decision) {
    let fields = |d: &Decision| {
        (
            d.choice,
            d.sequence.clone(),
            d.np,
            d.cycles_with,
            d.cycles_without,
            d.fallback.clone(),
        )
    };
    assert_eq!(
        fields(shared),
        fields(alone),
        "{} on {}: tune_all differs from a lone tune",
        app.id,
        alone.device
    );
}

#[test]
fn tune_all_decides_what_a_tune_per_device_decides() {
    for app in all_apps() {
        let pair = prepare_pair(&app, Scale::Test).unwrap();
        let w = workload(&app);
        let mut all = tuner(&app);
        let shared = all.tune_all(&pair.original, &ALL_DEVICES, &w);
        // The original and the 2 shared sequences for all six devices,
        // one class-specific sequence each for the CPUs and the GPUs.
        assert_eq!(all.launches_run(), 5, "{}", app.id);
        assert_eq!(all.races_run(), ALL_DEVICES.len() as u64, "{}", app.id);
        for (device, result) in &shared {
            let mut lone = tuner(&app);
            let alone = lone.tune(&pair.original, device, &w).unwrap();
            // The original and three candidates; the guard reuses them.
            assert_eq!(lone.launches_run(), 4, "{} on {device}", app.id);
            assert_same(&app, result.as_ref().unwrap(), &alone);
        }
    }
}

#[test]
fn a_cached_device_drops_out_of_the_plan() {
    let app = &all_apps()[0];
    let pair = prepare_pair(app, Scale::Test).unwrap();
    let w = workload(app);
    let mut t = tuner(app);
    let snb = t.tune(&pair.original, "SNB", &w).unwrap();
    assert_eq!(t.launches_run(), 4);
    let shared = t.tune_all(&pair.original, &ALL_DEVICES, &w);
    // The other two CPUs still race the CPU-only sequence: 5 more.
    assert_eq!(t.launches_run(), 4 + 5);
    assert_eq!(t.races_run(), ALL_DEVICES.len() as u64);
    let (_, cached) = shared.iter().find(|(d, _)| d == "SNB").unwrap();
    assert_same(app, cached.as_ref().unwrap(), &snb);
    // A repeated device is answered from the cache, not raced twice.
    let again = t.tune_all(&pair.original, &["Fermi", "Fermi"], &w);
    assert_eq!(t.launches_run(), 9);
    assert_same(
        app,
        again[1].1.as_ref().unwrap(),
        again[0].1.as_ref().unwrap(),
    );
}

#[test]
fn a_shared_launch_nests_under_the_tune_span_and_names_its_devices() {
    let app = &all_apps()[0];
    let pair = prepare_pair(app, Scale::Test).unwrap();
    let rec = Arc::new(MemoryRecorder::new());
    let mut t = tuner(app);
    t.recorder = rec.clone();
    t.tune_all(&pair.original, &ALL_DEVICES, &workload(app));

    let snap = rec.snapshot();
    let tunes = snap.spans_named("tune");
    assert_eq!(tunes.len(), 1, "one plan, one tune span");
    let tune = tunes[0];
    assert_eq!(
        tune.attr_str("devices"),
        Some(ALL_DEVICES.join(";").as_str())
    );
    assert_eq!(tune.attr_str("device"), None, "several devices raced");
    let launches = snap.spans_named("launch");
    assert_eq!(launches.len(), 5);
    let mut fed = 0;
    for l in &launches {
        assert_eq!(l.parent, Some(tune.id));
        fed += l.attr_str("devices").unwrap().split(';').count();
    }
    // 6 devices × (the original + 3 candidates each).
    assert_eq!(fed, 24);
    assert_eq!(snap.events_named("measure").len(), 24);
    assert_eq!(snap.events_named("decision").len(), ALL_DEVICES.len());
}
