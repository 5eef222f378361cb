//! The layer probe of the traced run: times single calls into each
//! crate's public functions from the benchmark's own code, over the
//! workload's apps and devices. Every call is one span named after the
//! per-layer metric it feeds, under one root span per app.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use grover_core::{
    apply_sequence, pass_fingerprint, tune_key_with_sequences, GroverOptions, Sequence,
};
use grover_devsim::{candidate_sequences, Device};
use grover_frontend::compile;
use grover_ir::passes::PassManager;
use grover_kernels::{prepare_pair, App};
use grover_obs::json;
use grover_predict::{schema_hash, FeatureVector};
use grover_runtime::{enqueue_with_backend, Backend, ExecPolicy, Limits, NullSink, TraceSink};
use grover_serve::{DecisionCache, DecisionRecord, DecisionStore, ServeConfig};
use grover_tuner::Tuner;

use crate::cases::{tune_body, SCALE, SWEEP_DEVICES};
use crate::spans::Spans;

/// Times the probe builds each device model, per device.
const BUILDS: usize = 5;

/// The sequence-set identity the server keys a default-search tune by.
fn sequences_id(device: &str) -> String {
    let tokens: Vec<String> = candidate_sequences(device)
        .iter()
        .map(|s| Sequence::parse(s).expect("seeded sequences parse").token())
        .collect();
    format!("auto:{}", tokens.join(";"))
}

/// One launch of `kernel` on `app`'s dataset into `sink`, on the default
/// engine.
fn launch(
    app: &App,
    kernel: &grover_ir::Function,
    sink: &mut dyn TraceSink,
    backend: Backend,
) -> Result<(), String> {
    let mut p = (app.prepare)(SCALE);
    enqueue_with_backend(
        &mut p.ctx,
        kernel,
        &p.args,
        &p.nd,
        sink,
        &Limits::default(),
        ExecPolicy::Serial,
        backend,
    )
    .map(|_| ())
    .map_err(|e| format!("{}: launch: {e}", app.id))
}

/// Samples that are not plain span durations, by metric name.
pub type Derived = BTreeMap<String, Vec<f64>>;

/// Probe `apps` × `devices`. Returns `devsim.simulate_ms` samples: each
/// launch into a device model minus the null-sink launch of the same
/// kernel version.
pub fn probe(
    apps: &[App],
    devices: &[&str],
    spans: &Spans,
    scratch: &Path,
) -> Result<Derived, String> {
    let mut derived = Derived::new();
    let backend = Tuner::new().backend;
    for d in SWEEP_DEVICES {
        for _ in 0..BUILDS {
            spans.time(&format!("devsim.build_ms.{d}"), None, || Device::by_name(d));
        }
    }
    let epoch = pass_fingerprint();
    let journal_dir = scratch.join("probe-journal");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let (mut store, _) = DecisionStore::open(
        &journal_dir,
        &epoch,
        ServeConfig::default().compact_threshold,
    )
    .map_err(|e| format!("journal open: {e}"))?;
    let mut cache = DecisionCache::new(ServeConfig::default().cache_capacity);
    let mut records = Vec::new();

    for app in apps {
        let root = spans.open("probe.app", None);
        let opts = (app.options)(SCALE);
        let module = spans
            .time("frontend.compile_ms", Some(root), || {
                compile(app.source, &opts)
            })
            .map_err(|e| format!("{}: compile: {e}", app.id))?;
        let kernel = module
            .kernel(app.kernel)
            .ok_or_else(|| format!("{}: kernel missing", app.id))?
            .clone();
        let mut optimised = kernel.clone();
        spans.time("ir.optimize_ms", Some(root), || {
            PassManager::optimize_pipeline().run_to_fixpoint(&mut optimised, 8)
        });

        let options = GroverOptions {
            buffers: app
                .disable
                .map(|b| b.iter().map(|s| s.to_string()).collect()),
            keep_barriers: false,
        };
        let specs: BTreeSet<&str> = devices
            .iter()
            .flat_map(|d| candidate_sequences(d).iter().copied())
            .collect();
        for spec in specs {
            let seq = Sequence::parse(spec).map_err(|e| format!("`{spec}`: {e}"))?;
            let mut k = optimised.clone();
            spans.time("core.sequence_ms", Some(root), || {
                apply_sequence(&mut k, &seq, &options)
            });
        }

        let pair = prepare_pair(app, SCALE)?;
        for version in [&pair.original, &pair.transformed] {
            let t = Instant::now();
            launch(app, version, &mut NullSink, backend)?;
            let null_ms = (t.elapsed().as_secs_f64()) * 1e3;
            spans.record("runtime.launch_ms", Some(root), t, Instant::now());
            for d in devices {
                let mut dev = Device::by_name(d).ok_or_else(|| format!("unknown device {d}"))?;
                let t = Instant::now();
                launch(app, version, &mut dev, backend)?;
                std::hint::black_box(dev.finish());
                let dev_ms = t.elapsed().as_secs_f64() * 1e3;
                spans.record("devsim.launch_ms", Some(root), t, Instant::now());
                derived
                    .entry("devsim.simulate_ms".to_string())
                    .or_default()
                    .push(dev_ms - null_ms);
            }
        }

        let probe_nd = (app.prepare)(SCALE).nd;
        let (g, l) = (probe_nd.global, probe_nd.local);
        for d in devices {
            let body = tune_body(app, d);
            spans
                .time("serve.parse_ms", Some(root), || json::parse(&body))
                .map_err(|e| format!("body: {e}"))?;
            let fingerprint = spans.time("serve.key_ms", Some(root), || {
                tune_key_with_sequences(app.source, app.kernel, d, &g, &l, &sequences_id(d))
                    .to_hex()
            });
            let features = spans.time("predict.extract_ms", Some(root), || {
                FeatureVector::extract(&kernel, g, l)
            });
            let record = DecisionRecord {
                fingerprint,
                epoch: epoch.clone(),
                device: d.to_string(),
                kernel: app.kernel.to_string(),
                choice: "similar".to_string(),
                sequence: candidate_sequences(d)[0].to_string(),
                np: 1.0,
                cycles_with: 1,
                cycles_without: 1,
                fallback_kind: None,
                fallback_detail: None,
                feature_schema_hash: None,
                features: None,
            }
            .with_features(&schema_hash(), features.values());
            spans
                .time("serve.journal_append_ms", Some(root), || {
                    store.append(&record)
                })
                .map_err(|e| format!("journal append: {e}"))?;
            cache.insert(record.clone());
            records.push(record);
        }
        spans.close(root);
    }
    for r in &records {
        let hit = spans.time("serve.cache_get_ms", None, || cache.get(&r.fingerprint));
        if hit.is_none() {
            return Err(format!("cache lost {}", r.fingerprint));
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&journal_dir);
    Ok(derived)
}
