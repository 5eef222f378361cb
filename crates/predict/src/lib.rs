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
//! * [`gate`] — the predict gate the tuner's `predictor` and
//!   `grover-serve`'s `POST /v1/predict` share: answer from the model when
//!   confidence clears `--predict-threshold`, abstain into the measured
//!   race otherwise, and grade the answer against the measurement. Every
//!   fallback's measured outcome goes back into the corpus — a closed
//!   loop.
//!
//! [`Verdict`] is the workspace's one three-way outcome (paper §VI-B:
//! gain, loss or similar at [`SIMILARITY_THRESHOLD`]), and
//! [`Verdict::from_np`] its one np rule.

pub mod corpus;
pub mod features;
pub mod gate;
pub mod model;

pub use corpus::{parse_corpus, train_rows, CorpusRow};
pub use features::{schema_hash, FeatureVector, FEATURES_VERSION, FEATURE_NAMES};
pub use gate::{grade_prediction, predict_gate, Gate};
pub use model::{
    evaluate_loo, DeviceModel, LooCase, LooReport, Model, ModelError, Prediction, TrainConfig,
    TrainRow, Verdict, SIMILARITY_THRESHOLD,
};
