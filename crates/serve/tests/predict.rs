//! End-to-end tests of `POST /v1/predict`: a confident model answer is
//! served with provably zero launches (the `grover_serve_launches_total`
//! and `tune_races` counters stay flat), a below-threshold answer falls
//! back to the measured race, and the fallback's journal row carries the
//! feature vector — the closed training loop.

use std::path::PathBuf;
use std::sync::Arc;

use grover_frontend::{compile, BuildOptions};
use grover_ir::Function;
use grover_obs::json::{self, Json};
use grover_obs::{MemoryRecorder, NoopRecorder, Value};
use grover_predict::{schema_hash, FeatureVector, Model, TrainConfig, TrainRow, Verdict};
use grover_serve::{http_request, DecisionStore, ServeConfig, Server};
use grover_tuner::{Tuner, Workload};

/// The staging kernel every serve test tunes.
const STAGE: &str = "__kernel void stage(__global float* in, __global float* out) {
    __local float lm[64];
    int lx = get_local_id(0);
    int gx = get_global_id(0);
    lm[lx] = in[gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gx] = lm[63 - lx];
}";

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("grover-serve-predict-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn post(server: &Server, path: &str, body: &str) -> (u16, Json) {
    let (status, text) =
        http_request(server.addr(), "POST", path, Some(body)).expect("request succeeds");
    (status, json::parse(&text).unwrap_or(Json::Null))
}

fn stage_kernel() -> Function {
    let module = compile(STAGE, &BuildOptions::new()).expect("compiles");
    module.kernel("stage").expect("kernel present").clone()
}

/// STAGE over the geometry `body` requests: 256 items in groups of 64.
fn stage_workload() -> Workload {
    Workload::new(|| {
        use grover_runtime::{ArgValue, Context, NdRange};
        let mut ctx = Context::new();
        let input: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let a = ctx.buffer_f32(&input);
        let b = ctx.zeros_f32(256);
        (
            ctx,
            vec![ArgValue::Buffer(a), ArgValue::Buffer(b)],
            NdRange::d3([256, 1, 1], [64, 1, 1]),
        )
    })
}

/// Race STAGE once in-process and train a model on the outcome, exactly
/// as `grover corpus export` + `grover train` would.
fn train_model() -> Model {
    let kernel = stage_kernel();
    let workload = stage_workload();
    let mut tuner = Tuner::new();
    let d = tuner
        .tune(&kernel, "SNB", &workload)
        .expect("measured tune");
    let rows = [TrainRow {
        device: "SNB".to_string(),
        kernel: kernel.name.clone(),
        features: FeatureVector::extract(&kernel, [256, 1, 1], [64, 1, 1]),
        choice: d.choice,
        np: d.np,
    }];
    Model::train(
        &rows,
        &grover_core::pass_fingerprint(),
        &TrainConfig::default(),
    )
}

fn body(extra: &str) -> String {
    format!(
        "{{\"source\": {}, \"device\": \"SNB\", \"global\": [256], \"local\": [64]{extra}}}",
        json::escape(STAGE)
    )
}

#[test]
fn predict_hits_serve_zero_launches_and_abstains_close_the_loop() {
    let dir = temp_dir("e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, train_model().to_json()).unwrap();

    let server = Server::start(
        ServeConfig {
            cache_dir: dir.clone(),
            model_path: Some(model_path),
            predict_threshold: 0.9,
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .expect("server starts");
    let m = server.metrics();

    // --- Hit: the exact training row, confidence clears 0.9. ---
    let (status, hit) = post(&server, "/v1/predict", &body(""));
    assert_eq!(status, 200, "{hit:?}");
    assert_eq!(hit.bool_of("predicted"), Some(true));
    assert!(hit.f64_of("confidence").expect("confidence recorded") >= 0.9);
    assert!(hit.str_of("choice").is_some());
    assert_eq!(hit.u64_of("launches"), Some(0));
    assert_eq!(
        hit.str_of("pass_fingerprint"),
        Some(grover_core::pass_fingerprint().as_str())
    );
    // Zero launches is proven by the counters, not claimed by the body.
    assert_eq!(m.launches.get(), 0, "a predict hit must not launch");
    assert_eq!(m.tune_races.get(), 0, "a predict hit must not race");
    assert_eq!(m.predict_hits.get(), 1);
    assert_eq!(m.predict_abstains.get(), 0);

    // --- Abstain: a per-request threshold above the exact-match
    // confidence forces the measured fallback. ---
    let (status, fb) = post(&server, "/v1/predict", &body(", \"threshold\": 0.999"));
    assert_eq!(status, 200, "{fb:?}");
    assert_eq!(fb.bool_of("predicted"), Some(false));
    assert!(
        fb.f64_of("confidence").is_some(),
        "the abstained confidence is still recorded: {fb:?}"
    );
    let measured_choice = fb.str_of("choice").expect("measured decision").to_string();
    assert_eq!(fb.bool_of("cached"), Some(false));
    assert_eq!(m.predict_abstains.get(), 1);
    assert!(m.launches.get() > 0, "the fallback race launches");
    assert_eq!(m.tune_races.get(), 1);
    // The model was trained on this very measurement, so the graded
    // abstain agrees and the error counter stays flat.
    assert_eq!(m.predict_wrong.get(), 0);

    // The hit's verdict matches what the race measures.
    assert_eq!(hit.str_of("choice"), Some(measured_choice.as_str()));

    // A subsequent /v1/tune of the same key is served from the cache the
    // fallback populated.
    let (status, tuned) = post(&server, "/v1/tune", &body(""));
    assert_eq!(status, 200);
    assert_eq!(tuned.bool_of("cached"), Some(true));
    assert_eq!(m.tune_races.get(), 1, "no second race");

    server.shutdown();

    // --- Closed loop: the fallback's journal row carries the feature
    // vector under the current schema hash, ready for `corpus export`. ---
    let (store, _) = DecisionStore::open(&dir, &grover_core::pass_fingerprint(), usize::MAX)
        .expect("journal reopens");
    let with_features: Vec<_> = store
        .live_records()
        .filter(|r| r.feature_schema_hash.as_deref() == Some(schema_hash().as_str()))
        .collect();
    assert_eq!(with_features.len(), 1, "fallback decision journaled");
    let rec = with_features[0];
    assert_eq!(rec.choice, measured_choice);
    let features = rec.features.as_ref().expect("features stored");
    assert_eq!(features.len(), grover_predict::FEATURE_NAMES.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_model_degrades_to_measured_serving() {
    let dir = temp_dir("stale");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    // A model from another pass epoch: observably rejected at startup,
    // the server still comes up and /v1/predict abstains into the race.
    let stale = Model::train(
        &[TrainRow {
            device: "SNB".to_string(),
            kernel: "stage".to_string(),
            features: FeatureVector::from_values(vec![0.0; 14]).unwrap(),
            choice: Verdict::Similar,
            np: 1.0,
        }],
        "some-ancient-epoch",
        &TrainConfig::default(),
    );
    std::fs::write(&model_path, stale.to_json()).unwrap();

    let server = Server::start(
        ServeConfig {
            cache_dir: dir.clone(),
            model_path: Some(model_path),
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .expect("server starts despite the stale model");
    let m = server.metrics();

    let (status, resp) = post(&server, "/v1/predict", &body(""));
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(resp.bool_of("predicted"), Some(false));
    assert!(
        resp.str_of("choice").is_some(),
        "measured fallback: {resp:?}"
    );
    assert_eq!(m.predict_abstains.get(), 1);
    assert!(m.launches.get() > 0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The attributes of the one `predict` span `rec` saw, and of the one
/// `outcome` event inside it.
type Attrs = Vec<(String, Value)>;

fn predict_trace(rec: &MemoryRecorder) -> (Attrs, Attrs) {
    let snap = rec.snapshot();
    let spans = snap.spans_named("predict");
    assert_eq!(spans.len(), 1, "{snap:?}");
    let outcomes: Vec<_> = snap
        .events_named("outcome")
        .into_iter()
        .filter(|e| e.span == Some(spans[0].id))
        .collect();
    assert_eq!(outcomes.len(), 1, "{snap:?}");
    (spans[0].attrs.clone(), outcomes[0].attrs.clone())
}

fn keys(attrs: &Attrs) -> Vec<&str> {
    attrs.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn serve_predict_records_the_tuner_predictor_trace() {
    let model = train_model();
    let dir = temp_dir("trace");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, model.to_json()).unwrap();

    let hit_keys = vec![
        "outcome",
        "verdict",
        "confidence",
        "np_est",
        "exact_match",
        "neighbor",
    ];
    let abstain_keys = vec!["outcome", "verdict", "confidence"];
    for (threshold, outcome, outcome_keys) in
        [(0.9, "hit", hit_keys), (0.999, "abstain", abstain_keys)]
    {
        // The tuner's predictor on STAGE at this threshold...
        let tuner_rec = Arc::new(MemoryRecorder::new());
        let mut tuner = Tuner::new();
        tuner.recorder = tuner_rec.clone();
        tuner.predictor = Some(Arc::new(model.clone()));
        tuner.predict_threshold = threshold;
        tuner
            .tune(&stage_kernel(), "SNB", &stage_workload())
            .expect("tunes");
        let (tuner_span, tuner_outcome) = predict_trace(&tuner_rec);

        // ...and `POST /v1/predict` on the same kernel and geometry.
        let serve_rec = Arc::new(MemoryRecorder::new());
        let server = Server::start(
            ServeConfig {
                cache_dir: dir.join(outcome),
                model_path: Some(model_path.clone()),
                predict_threshold: threshold,
                ..ServeConfig::default()
            },
            serve_rec.clone(),
        )
        .expect("server starts");
        let (status, resp) = post(&server, "/v1/predict", &body(""));
        assert_eq!(status, 200, "{resp:?}");
        server.shutdown();
        let (serve_span, serve_outcome) = predict_trace(&serve_rec);

        assert_eq!(
            keys(&serve_span),
            ["kernel", "device", "threshold", "features"]
        );
        assert_eq!(keys(&serve_outcome), outcome_keys, "{outcome}");
        assert_eq!(
            serve_outcome[0],
            ("outcome".to_string(), Value::from(outcome))
        );
        assert_eq!(serve_span, tuner_span, "{outcome}: predict span");
        assert_eq!(serve_outcome, tuner_outcome, "{outcome}: outcome event");
    }
    std::fs::remove_dir_all(&dir).ok();
}
