//! Model persistence contracts: train → save → load reproduces scores
//! bit-for-bit, and every flavour of staleness (schema drift, pass-epoch
//! drift, corruption) is rejected observably instead of mis-scoring —
//! plus the one np rule every verdict is classified by.

use grover_predict::{
    schema_hash, FeatureVector, Model, ModelError, TrainConfig, TrainRow, Verdict, FEATURE_NAMES,
    SIMILARITY_THRESHOLD,
};

/// A deterministic synthetic feature vector parameterised by `bias`.
fn fv(bias: f64) -> FeatureVector {
    let values: Vec<f64> = (0..FEATURE_NAMES.len())
        .map(|i| ((i as f64) * 0.37 + bias).sin().abs())
        .collect();
    FeatureVector::from_values(values).expect("schema-length vector")
}

fn row(device: &str, kernel: &str, np: f64, bias: f64) -> TrainRow {
    TrainRow {
        device: device.to_string(),
        kernel: kernel.to_string(),
        features: fv(bias),
        choice: Verdict::from_np(np, 0.05),
        np,
    }
}

fn corpus() -> Vec<TrainRow> {
    vec![
        row("SNB", "k0", 1.40, 0.1),
        row("SNB", "k1", 1.22, 0.7),
        row("SNB", "k2", 0.81, 1.9),
        row("SNB", "k3", 0.74, 2.6),
        row("SNB", "k4", 1.01, 3.3),
        row("Fermi", "k0", 0.62, 0.1),
        row("Fermi", "k1", 0.88, 0.7),
        row("Fermi", "k2", 1.31, 1.9),
        row("Fermi", "k3", 0.99, 2.6),
    ]
}

const EPOCH: &str = "test-epoch-1";

#[test]
fn train_save_load_round_trips_bitwise() {
    let model = Model::train(&corpus(), EPOCH, &TrainConfig::default());
    let text = model.to_json();
    let loaded = Model::load(&text, EPOCH).expect("fresh model loads");

    // Serialisation is a fixed point: saving the loaded model reproduces
    // the original document byte for byte.
    assert_eq!(loaded.to_json(), text);

    // Scores are reproduced exactly — same verdict, bit-identical
    // numerics — for seen and unseen queries alike.
    for device in ["SNB", "Fermi"] {
        for bias in [0.1, 0.7, 1.9, 2.6, 0.42, 5.0] {
            let q = fv(bias);
            let a = model.predict(device, &q).expect("device model exists");
            let b = loaded.predict(device, &q).expect("device model exists");
            assert_eq!(a.verdict, b.verdict, "{device}/{bias}");
            assert_eq!(a.np_est.to_bits(), b.np_est.to_bits(), "{device}/{bias}");
            assert_eq!(
                a.confidence.to_bits(),
                b.confidence.to_bits(),
                "{device}/{bias}"
            );
            assert_eq!(a.margin.to_bits(), b.margin.to_bits(), "{device}/{bias}");
            assert_eq!(a.neighbor_kernel, b.neighbor_kernel, "{device}/{bias}");
            assert_eq!(
                a.neighbor_distance.to_bits(),
                b.neighbor_distance.to_bits(),
                "{device}/{bias}"
            );
            assert_eq!(a.exact_match, b.exact_match, "{device}/{bias}");
        }
    }

    // Unknown device: abstains (None), never guesses cross-device.
    assert!(model.predict("Tahiti", &fv(0.1)).is_none());
}

#[test]
fn exact_training_match_is_high_confidence() {
    let model = Model::train(&corpus(), EPOCH, &TrainConfig::default());
    let p = model.predict("SNB", &fv(0.1)).expect("device model exists");
    assert!(p.exact_match);
    assert_eq!(p.neighbor_kernel, "k0");
    assert_eq!(p.verdict, Verdict::from_np(1.40, 0.05));
    assert!(
        p.confidence > 0.9,
        "exact match confidence {}",
        p.confidence
    );
}

#[test]
fn stale_models_are_rejected_not_served() {
    let model = Model::train(&corpus(), EPOCH, &TrainConfig::default());
    let text = model.to_json();

    // Pass-fingerprint epoch drift: decisions from another transform
    // revision must not be served.
    match Model::load(&text, "other-epoch") {
        Err(ModelError::EpochMismatch { model, ours }) => {
            assert_eq!(model, EPOCH);
            assert_eq!(ours, "other-epoch");
        }
        other => panic!("expected EpochMismatch, got {other:?}"),
    }

    // Feature-schema drift: a model trained under another feature list.
    let tampered = text.replace(&schema_hash(), &"0".repeat(32));
    match Model::load(&tampered, EPOCH) {
        Err(ModelError::SchemaMismatch { ours, .. }) => assert_eq!(ours, schema_hash()),
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }

    // Corruption: not a model document at all.
    assert!(matches!(
        Model::load("not a model", EPOCH),
        Err(ModelError::Parse(_))
    ));
    assert!(matches!(
        Model::load("{}", EPOCH),
        Err(ModelError::Parse(_))
    ));
}

#[test]
fn rows_without_ratio_information_are_skipped() {
    // np == 0 marks a decision whose transformed kernel never completed —
    // it carries a choice but no ratio, so training must not ingest it.
    let mut rows = corpus();
    rows.push(row("MIC", "broken", 0.0, 4.0));
    let model = Model::train(&rows, EPOCH, &TrainConfig::default());
    assert!(
        !model.devices.contains_key("MIC"),
        "a zero-np row must not create a device model"
    );
}

#[test]
fn verdict_from_np_band_edges() {
    let t = SIMILARITY_THRESHOLD;
    assert_eq!(t, 0.05, "the paper's Table IV threshold");
    assert_eq!(Verdict::from_np(1.10, t), Verdict::WithoutLocalMemory);
    assert_eq!(Verdict::from_np(0.90, t), Verdict::WithLocalMemory);
    assert_eq!(Verdict::from_np(1.03, t), Verdict::Similar);
    assert_eq!(Verdict::from_np(0.96, t), Verdict::Similar);
    assert_eq!(Verdict::from_np(1.0, t), Verdict::Similar);
    assert_eq!(Verdict::from_np(1.02, t), Verdict::Similar);
    assert_eq!(Verdict::from_np(1.2, t), Verdict::WithoutLocalMemory);
    assert_eq!(Verdict::from_np(1.3, t), Verdict::WithoutLocalMemory);
    assert_eq!(Verdict::from_np(0.8, t), Verdict::WithLocalMemory);
    // The band edges themselves are similar: the rule is strict.
    assert_eq!(Verdict::from_np(1.05, t), Verdict::Similar);
    assert_eq!(Verdict::from_np(0.95, t), Verdict::Similar);
}
