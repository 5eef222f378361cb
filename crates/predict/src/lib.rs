#![warn(missing_docs)]
//! # grover-predict
//!
//! Architecture-independent kernel features and zero-launch predictive
//! tuning. The paper answers "when does disabling local memory win?" by
//! racing candidate kernels — at serving scale most tunes must instead
//! cost *zero launches*. Following the AIWC school (Chilukuri et al.,
//! PAPERS.md), this crate scores the decision from program structure
//! alone:
//!
//! * [`features`] — a static analyzer over `grover-ir` producing a
//!   stable, versioned [`FeatureVector`]: barrier density, per-space
//!   load/store mix, estimated reuse distance, coalescing ratio of
//!   global-load index maps, local-buffer footprint vs geometry, loop
//!   trip-count class. No launch, no device model; deterministic to the
//!   byte.
//! * [`model`] — an interpretable per-device scorer: ridge-regularised
//!   linear regression over `ln(np)` plus a nearest-neighbour fallback
//!   keyed by feature distance, trained from the decision journal.
//!   `model.json` bakes in the feature schema hash and the
//!   pass-fingerprint epoch so stale models are observably rejected.
//! * [`corpus`] — the JSONL training table joining measured decisions
//!   with their feature vectors (written by `grover corpus export`,
//!   read by `grover train`).
//!
//! The tuner's `predictor` and `grover-serve`'s
//! `POST /v1/predict` sit on top: answer from the model when confidence
//! clears `--predict-threshold`, fall back to the measured race when it
//! abstains, and append every fallback's measured outcome back to the
//! corpus — a closed loop.

pub mod corpus;
pub mod features;
pub mod model;

pub use corpus::{parse_corpus, train_rows, CorpusRow};
pub use features::{schema_hash, FeatureVector, FEATURES_VERSION, FEATURE_NAMES};
pub use model::{
    evaluate_loo, DeviceModel, LooCase, LooReport, Model, ModelError, Prediction, TrainConfig,
    TrainRow, Verdict,
};

/// Device profiles the per-device models are keyed by — the simulator's
/// six paper devices.
pub fn known_devices() -> &'static [&'static str] {
    &grover_devsim::ALL_DEVICES
}
