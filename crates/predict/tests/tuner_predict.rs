//! Tuner ↔ model integration: a tuner with a `predictor` serves confident answers
//! with provably zero launches, abstains below the threshold into the
//! measured race, and grades abstained guesses against the measurement.

use std::sync::Arc;

use grover_kernels::{app_by_id, prepare_pair, Scale};
use grover_obs::MemoryRecorder;
use grover_predict::{FeatureVector, Model, TrainConfig, TrainRow};
use grover_tuner::{Tuner, Workload};

/// Measure AMD-MM once and train a single-row model from the decision.
fn trained_on_measurement() -> (grover_ir::Function, Workload, Model, String) {
    let app = app_by_id("AMD-MM").expect("suite app");
    let pair = prepare_pair(&app, Scale::Test).expect("prepares");
    let nd = (app.prepare)(Scale::Test).nd;
    let prepare = app.prepare;
    let workload = Workload::new(move || {
        let p = prepare(Scale::Test);
        (p.ctx, p.args, p.nd)
    });

    let mut tuner = Tuner::new();
    let d = tuner
        .tune(&pair.original, "SNB", &workload)
        .expect("measured tune");
    assert!(d.np > 0.0, "the measured race must produce a ratio");

    let rows = [TrainRow {
        device: "SNB".to_string(),
        kernel: pair.original.name.clone(),
        features: FeatureVector::extract(&pair.original, nd.global, nd.local),
        choice: d.choice,
        np: d.np,
    }];
    let model = Model::train(&rows, "epoch-x", &TrainConfig::default());
    (pair.original, workload, model, d.choice.kind().to_string())
}

#[test]
fn predict_first_serves_hits_with_zero_launches() {
    let (kernel, workload, model, measured_choice) = trained_on_measurement();

    let mut tuner = Tuner::new();
    tuner.predictor = Some(Arc::new(model));
    // The default threshold 0.7 is below the exact-match confidence.
    let d = tuner
        .tune(&kernel, "SNB", &workload)
        .expect("predicted tune");

    let conf = d.predicted.expect("served by the model");
    assert!(conf >= tuner.predict_threshold);
    assert_eq!(d.choice.kind(), measured_choice);
    // Zero launches is a counted fact, not an assumption: no race, no
    // verification run, no cycles measured.
    assert_eq!(tuner.launches_run(), 0);
    assert_eq!(tuner.races_run(), 0);
    assert_eq!((d.cycles_with, d.cycles_without), (0, 0));
    assert_eq!(tuner.predict_hits(), 1);
    assert_eq!(tuner.predict_abstains(), 0);
    assert_eq!(tuner.predict_wrong(), 0);
}

#[test]
fn below_threshold_abstains_into_the_measured_race() {
    let (kernel, workload, model, measured_choice) = trained_on_measurement();

    let mut tuner = Tuner::new();
    tuner.predictor = Some(Arc::new(model));
    // Above even the exact-match confidence: the model must abstain and
    // the measured race must run.
    tuner.predict_threshold = 0.995;
    let d = tuner
        .tune(&kernel, "SNB", &workload)
        .expect("measured tune");

    assert!(d.predicted.is_none(), "abstained decisions are measured");
    assert_eq!(d.choice.kind(), measured_choice);
    assert!(d.cycles_with > 0 && d.cycles_without > 0);
    assert!(tuner.launches_run() > 0);
    assert_eq!(tuner.races_run(), 1);
    assert_eq!(tuner.predict_hits(), 0);
    assert_eq!(tuner.predict_abstains(), 1);
    // The abstained guess agreed with the measurement (it was trained on
    // exactly this row), so the error counter stays flat.
    assert_eq!(tuner.predict_wrong(), 0);
}

#[test]
fn unknown_device_abstains_even_with_a_model() {
    let (kernel, workload, model, _) = trained_on_measurement();

    let mut tuner = Tuner::new();
    tuner.predictor = Some(Arc::new(model)); // trained for SNB only
    let d = tuner
        .tune(&kernel, "Fermi", &workload)
        .expect("measured tune");

    assert!(d.predicted.is_none());
    assert_eq!(tuner.predict_abstains(), 1);
    assert!(tuner.launches_run() > 0, "fell back to the measured race");
}

#[test]
fn predict_span_and_outcome_carry_the_shared_attribute_set() {
    // `POST /v1/predict` records the same attribute set through the same
    // gate (checked against this tuner trace in grover-serve's tests).
    let (kernel, workload, model, _) = trained_on_measurement();
    let model = Arc::new(model);
    for (threshold, outcome_keys) in [
        (
            0.7,
            vec![
                "outcome",
                "verdict",
                "confidence",
                "np_est",
                "exact_match",
                "neighbor",
            ],
        ),
        (0.995, vec!["outcome", "verdict", "confidence"]),
    ] {
        let rec = Arc::new(MemoryRecorder::new());
        let mut tuner = Tuner::new();
        tuner.recorder = rec.clone();
        tuner.predictor = Some(model.clone());
        tuner.predict_threshold = threshold;
        tuner.tune(&kernel, "SNB", &workload).expect("tunes");

        let snap = rec.snapshot();
        let spans = snap.spans_named("predict");
        assert_eq!(spans.len(), 1);
        let span_keys: Vec<&str> = spans[0].attrs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(span_keys, ["kernel", "device", "threshold", "features"]);
        assert_eq!(spans[0].attr_str("kernel"), Some(kernel.name.as_str()));
        assert_eq!(spans[0].attr_str("device"), Some("SNB"));
        let outcomes = snap.events_named("outcome");
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].span, Some(spans[0].id));
        let keys: Vec<&str> = outcomes[0].attrs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, outcome_keys, "threshold {threshold}");
    }
}
