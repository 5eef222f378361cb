//! The predict gate: the one place that decides whether a model answer is
//! served (a zero-launch hit) or the caller falls back to a measured race
//! (an abstain), and the one place that grades an answer against a
//! measurement. The tuner's `predictor` and `grover-serve`'s
//! `POST /v1/predict` both go through it, so their traces agree.

use grover_obs::{Recorder, SpanGuard, SpanId, Value};

use crate::features::FeatureVector;
use crate::model::{Model, Prediction, Verdict};

/// What the gate decided.
#[derive(Clone, Debug)]
pub enum Gate {
    /// The model's confidence cleared the threshold: serve this answer
    /// with zero launches.
    Hit(Prediction),
    /// Below the threshold (`Some`, kept for grading against the measured
    /// race) or no model for the device (`None`): measure instead.
    Abstain(Option<Prediction>),
}

/// Score `features` of `kernel` for `device` and gate on `threshold`.
///
/// Records one `predict` span under `parent` with `kernel`, `device`,
/// `threshold` and `features` attributes, and one `outcome` event in it:
/// `outcome: hit` with `verdict`, `confidence`, `np_est`, `exact_match`
/// and `neighbor`, or `outcome: abstain` with `verdict` and `confidence`
/// (or `reason` when `model` is `None` or has no rows for `device`).
pub fn predict_gate(
    model: Option<&Model>,
    kernel: &str,
    device: &str,
    features: &FeatureVector,
    threshold: f64,
    rec: &dyn Recorder,
    parent: Option<SpanId>,
) -> Gate {
    let span = rec
        .enabled()
        .then(|| SpanGuard::open(rec, "predict", parent));
    if let Some(span) = &span {
        span.attr("kernel", kernel);
        span.attr("device", device);
        span.attr("threshold", threshold);
        span.attr("features", features.values_json());
    }
    match model.and_then(|m| m.predict(device, features)) {
        Some(p) if p.confidence >= threshold => {
            if let Some(span) = &span {
                span.event(
                    "outcome",
                    &[
                        ("outcome", Value::from("hit")),
                        ("verdict", Value::from(p.verdict.kind())),
                        ("confidence", Value::from(p.confidence)),
                        ("np_est", Value::from(p.np_est)),
                        ("exact_match", Value::from(p.exact_match)),
                        ("neighbor", Value::from(p.neighbor_kernel.as_str())),
                    ],
                );
            }
            Gate::Hit(p)
        }
        p => {
            if let Some(span) = &span {
                let attrs = match &p {
                    Some(p) => vec![
                        ("outcome", Value::from("abstain")),
                        ("verdict", Value::from(p.verdict.kind())),
                        ("confidence", Value::from(p.confidence)),
                    ],
                    None => vec![
                        ("outcome", Value::from("abstain")),
                        ("reason", Value::from("no model for device")),
                    ],
                };
                span.event("outcome", &attrs);
            }
            Gate::Abstain(p)
        }
    }
}

/// Grade a prediction against the `measured` verdict. A disagreement is
/// recorded as a `predict.wrong` event under `parent` (with `kernel`,
/// `device`, `predicted`, `measured` and `confidence`) and returns `true`
/// so the caller can count it.
pub fn grade_prediction(
    p: &Prediction,
    measured: Verdict,
    kernel: &str,
    device: &str,
    rec: &dyn Recorder,
    parent: Option<SpanId>,
) -> bool {
    let wrong = p.verdict != measured;
    if wrong && rec.enabled() {
        rec.event(
            "predict.wrong",
            parent,
            &[
                ("kernel", Value::from(kernel)),
                ("device", Value::from(device)),
                ("predicted", Value::from(p.verdict.kind())),
                ("measured", Value::from(measured.kind())),
                ("confidence", Value::from(p.confidence)),
            ],
        );
    }
    wrong
}
