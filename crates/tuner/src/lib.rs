#![warn(missing_docs)]
//! # grover-tuner
//!
//! The auto-tuning framework the paper sketches as future work (§VIII):
//! *"Ultimately, we aim to incorporate Grover into a high-level auto-tuning
//! framework for OpenCL kernels, where code specialization is automated for
//! different classes of platforms."*
//!
//! Given a kernel and a representative workload, the [`Tuner`]:
//!
//! 1. runs the Grover pass to obtain the local-memory-free version,
//! 2. races both versions on the target device model,
//! 3. returns the winning kernel — and caches the decision per
//!    `(kernel, device)` so later launches pay nothing.
//!
//! ```
//! use grover_frontend::{compile, BuildOptions};
//! use grover_runtime::{ArgValue, Context, NdRange};
//! use grover_tuner::{Tuner, Workload};
//!
//! let module = compile(
//!     "__kernel void rev(__global float* in, __global float* out) {
//!          __local float lm[16];
//!          int lx = get_local_id(0);
//!          int wx = get_group_id(0);
//!          lm[lx] = in[wx * 16 + lx];
//!          barrier(CLK_LOCAL_MEM_FENCE);
//!          out[wx * 16 + lx] = lm[15 - lx];
//!      }",
//!     &BuildOptions::new(),
//! ).unwrap();
//! let kernel = module.kernel("rev").unwrap();
//!
//! let mut tuner = Tuner::new();
//! let workload = Workload::new(|| {
//!     let mut ctx = Context::new();
//!     let a = ctx.buffer_f32(&[0.0; 64]);
//!     let b = ctx.zeros_f32(64);
//!     (ctx, vec![ArgValue::Buffer(a), ArgValue::Buffer(b)], NdRange::d1(64, 16))
//! });
//! let decision = tuner.tune(kernel, "SNB", &workload).unwrap();
//! assert!(decision.np > 0.0);
//! let _best = tuner.best_kernel(kernel, "SNB", &workload).unwrap();
//! ```

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use grover_core::{apply_sequence, GroverOptions, GroverReport, Sequence};
use grover_devsim::{is_device, Device, Tee};
use grover_ir::Function;
use grover_obs::json::{Json, Obj};
use grover_obs::{NoopRecorder, Recorder, SpanId, Value};
use grover_predict::{
    grade_prediction, predict_gate, FeatureVector, Gate, Model as PredictModel, Prediction,
    Verdict, SIMILARITY_THRESHOLD,
};
use grover_runtime::{
    enqueue_observed, ArgValue, Backend, BufferData, Context, ExecError, Limits, NdRange,
};

/// Why a tuning run was demoted to the original kernel regardless of the
/// measured cycle counts. The tuner never recommends a transformed kernel
/// that failed to run, panicked, timed out, or produced different output
/// bits — [`Tuner::best_kernel`] falls back to the original instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The transformed kernel's output buffers differ bit-for-bit from the
    /// original's on the representative workload.
    OutputMismatch {
        /// Index of the first differing buffer (creation order).
        buffer: u32,
        /// First differing element inside that buffer.
        index: usize,
    },
    /// The transformed kernel failed with an execution error.
    ExecFailed(String),
    /// A measurement of the transformed kernel panicked; the panic was
    /// isolated to its job and converted.
    Panicked(String),
    /// The transformed measurement exceeded the wall-clock deadline.
    DeadlineExceeded,
    /// No measurement was attempted at all: a serving layer's circuit
    /// breaker was open (the tuner had been failing repeatedly) and the
    /// conservative original-kernel decision was served instead. Decisions
    /// carrying this reason are degraded placeholders — they must never be
    /// cached or persisted.
    CircuitOpen(String),
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::OutputMismatch { buffer, index } => write!(
                f,
                "transformed kernel output differs (buffer {buffer}, element {index})"
            ),
            FallbackReason::ExecFailed(e) => write!(f, "transformed kernel failed: {e}"),
            FallbackReason::Panicked(m) => write!(f, "transformed measurement panicked: {m}"),
            FallbackReason::DeadlineExceeded => {
                f.write_str("transformed measurement exceeded the deadline")
            }
            FallbackReason::CircuitOpen(detail) => {
                write!(f, "tuner circuit breaker open: {detail}")
            }
        }
    }
}

/// Stable machine-readable tag for a [`FallbackReason`] (CLI `--json`).
impl FallbackReason {
    /// One of `output_mismatch`, `exec_error`, `panic`, `deadline`,
    /// `circuit_open`.
    pub fn kind(&self) -> &'static str {
        match self {
            FallbackReason::OutputMismatch { .. } => "output_mismatch",
            FallbackReason::ExecFailed(_) => "exec_error",
            FallbackReason::Panicked(_) => "panic",
            FallbackReason::DeadlineExceeded => "deadline",
            FallbackReason::CircuitOpen(_) => "circuit_open",
        }
    }
}

/// Retry policy for transient measurement failures (panics and deadline
/// overruns; deterministic [`ExecError`]s are never retried).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per measurement, including the first (min 1).
    pub max_attempts: u32,
    /// Sleep between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        }
    }
}

/// Outcome of one tuning run.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Device the decision applies to.
    pub device: String,
    /// The winning version. [`Verdict::Similar`] means either works;
    /// [`Tuner::best_kernel`] then returns the original for stability.
    pub choice: Verdict,
    /// The pass sequence (spec form, e.g.
    /// `local-removal,barrier-elim,index-simplify`) that produced the
    /// winning transformed candidate. Recorded even when `choice` keeps
    /// the original: it names the best candidate the race found.
    pub sequence: String,
    /// `np = t_with / t_without` (paper §VI-B). `0.0` when the transformed
    /// version never completed a measurement (see `fallback`).
    pub np: f64,
    /// Simulated cycles with local memory.
    pub cycles_with: u64,
    /// Simulated cycles without local memory (`0` when the transformed
    /// version never completed a measurement).
    pub cycles_without: u64,
    /// What Grover did to the kernel.
    pub report: GroverReport,
    /// `Some` when the decision was demoted to [`Verdict::WithLocalMemory`]
    /// by the hardening pipeline rather than by the cycle race.
    pub fallback: Option<FallbackReason>,
    /// `Some(confidence)` when the decision came from the predictive model
    /// with **zero launches** (`cycles_with`/`cycles_without` are then `0`
    /// and `np` is the model's estimate); `None` when it was measured.
    pub predicted: Option<f64>,
}

impl Decision {
    /// [`write_decision_fields`] for this decision.
    pub fn write_fields(&self, obj: Obj) -> Obj {
        let fallback = self.fallback.as_ref().map(|f| (f.kind(), f.to_string()));
        write_decision_fields(
            obj,
            self.choice.kind(),
            Some((
                &self.sequence,
                self.np,
                self.cycles_with,
                self.cycles_without,
            )),
            fallback.as_ref().map(|(k, d)| (*k, d.as_str())),
        )
    }
}

/// Write a decision's outcome onto `obj`: `choice`, `sequence`, `np`,
/// `cycles_with`, `cycles_without`, then `fallback` as `{kind, detail}` or
/// `null`. The one writer of these wire fields — the CLI's `--json`
/// output, the serve responses and the serve journal all go through it.
/// `measured` is `(sequence, np, cycles_with, cycles_without)`; `None`
/// marks a decision that was never measured (a degraded answer) and
/// writes those four fields as `null`.
pub fn write_decision_fields(
    obj: Obj,
    choice: &str,
    measured: Option<(&str, f64, u64, u64)>,
    fallback: Option<(&str, &str)>,
) -> Obj {
    let obj = obj.str("choice", choice);
    let obj = match measured {
        Some((sequence, np, with, without)) => obj
            .str("sequence", sequence)
            .f64("np", np)
            .u64("cycles_with", with)
            .u64("cycles_without", without),
        None => obj
            .null("sequence")
            .null("np")
            .null("cycles_with")
            .null("cycles_without"),
    };
    match fallback {
        Some((kind, detail)) => obj.raw(
            "fallback",
            &Obj::new().str("kind", kind).str("detail", detail).finish(),
        ),
        None => obj.null("fallback"),
    }
}

/// The decision wire fields, as [`read_decision_fields`] reads them back.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionFields {
    /// The [`Verdict::kind`] tag.
    pub choice: String,
    /// The winning sequence spec; empty when the field is absent (records
    /// written before sequence search existed).
    pub sequence: String,
    /// Normalised performance `t_with / t_without`.
    pub np: f64,
    /// Simulated cycles with local memory.
    pub cycles_with: u64,
    /// Simulated cycles without local memory.
    pub cycles_without: u64,
    /// `fallback.kind`, when the fallback is an object.
    pub fallback_kind: Option<String>,
    /// `fallback.detail`, when the fallback is an object.
    pub fallback_detail: Option<String>,
}

/// Read back the fields [`write_decision_fields`] wrote for a measured
/// decision: `choice`, `np`, `cycles_with` and `cycles_without` are
/// required; `sequence` and `fallback` are tolerant of absence.
pub fn read_decision_fields(v: &Json) -> Result<DecisionFields, String> {
    let fallback = v.get("fallback").filter(|f| matches!(f, Json::Obj(_)));
    let text = |f: &Json, k: &str| f.str_of(k).map(str::to_string);
    Ok(DecisionFields {
        choice: text(v, "choice").ok_or("missing field `choice`")?,
        sequence: text(v, "sequence").unwrap_or_default(),
        np: v.f64_of("np").ok_or("missing field `np`")?,
        cycles_with: v
            .u64_of("cycles_with")
            .ok_or("missing field `cycles_with`")?,
        cycles_without: v
            .u64_of("cycles_without")
            .ok_or("missing field `cycles_without`")?,
        fallback_kind: fallback.and_then(|f| text(f, "kind")),
        fallback_detail: fallback.and_then(|f| text(f, "detail")),
    })
}

/// A representative workload: a factory producing a fresh context,
/// argument list and launch geometry for each measurement run.
pub struct Workload {
    make: Box<dyn Fn() -> (Context, Vec<ArgValue>, NdRange)>,
}

impl Workload {
    /// Wrap a workload factory.
    pub fn new(make: impl Fn() -> (Context, Vec<ArgValue>, NdRange) + 'static) -> Workload {
        Workload {
            make: Box::new(make),
        }
    }

    fn instantiate(&self) -> (Context, Vec<ArgValue>, NdRange) {
        (self.make)()
    }
}

/// Tuning failures.
///
/// These report failures of the *original* kernel or of the tuner itself —
/// there is no correct version left to fall back to. Failures of the
/// *transformed* kernel never surface here; they demote the [`Decision`]
/// to the original kernel with a recorded [`FallbackReason`] instead.
#[derive(Clone, Debug)]
pub enum TuneError {
    /// Grover could not remove any local memory — there is nothing to tune.
    /// Carries the pass report that says why, per buffer.
    NothingToDisable(GroverReport),
    /// A requested pass sequence failed to parse or validate
    /// ([`grover_core::SequenceError`], rendered).
    InvalidSequence(String),
    /// No device model of that name exists.
    UnknownDevice(String),
    /// The interpreter failed while measuring.
    Execution(String),
    /// A measurement of the original kernel panicked (isolated from the
    /// process and converted).
    Panicked(String),
    /// A measurement of the original kernel exceeded the wall-clock
    /// deadline even after retries.
    Deadline,
    /// Tuner invariant violation (a bug).
    Internal(String),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NothingToDisable(r) => {
                write!(f, "kernel has no removable local memory:\n{}", r.to_text())
            }
            TuneError::InvalidSequence(e) => write!(f, "invalid pass sequence: {e}"),
            TuneError::UnknownDevice(d) => write!(f, "unknown device `{d}`"),
            TuneError::Execution(e) => write!(f, "execution failed: {e}"),
            TuneError::Panicked(m) => write!(f, "measurement panicked: {m}"),
            TuneError::Deadline => f.write_str("measurement exceeded the wall-clock deadline"),
            TuneError::Internal(m) => write!(f, "internal tuner error: {m}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// The auto-tuner. Decisions are cached per `(kernel name, device)`.
///
/// A tuning run is an *N-way sequence race*: the original kernel against
/// one transformed candidate per pass sequence (seeded per device profile
/// from `grover_devsim::candidate_sequences`, or overridden via
/// [`Tuner::sequences`]). Every race runs as one *measurement plan*: a
/// list of jobs, each executing one kernel once and feeding its event
/// stream to a fresh model of every device that races it. A kernel's
/// outputs and access stream do not depend on the device, so
/// [`Tuner::tune_all`] executes each distinct kernel once for all its
/// devices, and every model sees exactly the events it would see alone.
/// The fastest candidate on a device becomes the transformed side of that
/// device's decision, and its sequence is recorded in
/// [`Decision::sequence`].
///
/// # Hardening
///
/// The tune/launch path degrades gracefully: a panic in any job is caught
/// ([`TuneError::Panicked`] / [`FallbackReason::Panicked`]), each
/// execution runs under `limits` (instruction budget + optional wall-clock
/// deadline), transient failures are retried per `retry`, and — with
/// `verify_outputs` on — the output buffers of the original's and the
/// winner's race executions are bit-compared. A failed job fails every
/// device it feeds, exactly as one failure per device would. Any failure
/// or mismatch of the *transformed* kernel demotes the decision to the
/// original with a [`FallbackReason`], so [`Tuner::best_kernel`] can never
/// return a broken kernel; only a failure of the *original* kernel is a
/// [`TuneError`].
pub struct Tuner {
    /// Execution backend for every launch this tuner performs. Defaults
    /// to the production engine ([`Backend::default`]); differential
    /// tests set [`Backend::Interp`] to get the reference decision.
    pub backend: Backend,
    /// Per-execution limits (instruction budget and optional wall-clock
    /// deadline, enforced by the runtime watchdog). A shared execution in
    /// [`Tuner::tune_all`] simulates every device model it feeds within
    /// one deadline.
    pub limits: Limits,
    /// Retry policy for transient measurement failures.
    pub retry: RetryPolicy,
    /// Run the differential-output guard (default on): bit-compare every
    /// output buffer of the original's race execution against the
    /// winning candidate's. The guard reuses the race's own final
    /// contexts, so it costs no launch.
    pub verify_outputs: bool,
    /// Restrict the Grover transform to these `__local` buffers
    /// (`None` = remove all).
    pub buffers: Option<Vec<String>>,
    /// Candidate pass sequences (spec strings) to race. `None` seeds the
    /// bounded per-device set from
    /// `grover_devsim::candidate_sequences`; an explicit list (e.g. the
    /// CLI's `--passes`) restricts the race to exactly those sequences.
    pub sequences: Option<Vec<String>>,
    /// Telemetry sink. Each measurement plan records one `tune` span:
    /// every execution appears as a nested `launch` span naming the
    /// `devices` it fed, plus `retry` events, one `measure`, `verify` and
    /// `decision` event per device, and the span's `devices` attribute
    /// lists every device raced. Cache hits record a `decision` event
    /// with `cached: true`. Defaults to the no-op recorder: nothing is
    /// constructed or stored.
    pub recorder: Arc<dyn Recorder>,
    /// Parent span for the `tune` spans this tuner records. A serving
    /// layer that traces requests sets this to the request's span so the
    /// whole tune — race launches included — nests under it and inherits
    /// its trace id; standalone callers leave it `None` (root spans).
    pub parent: Option<SpanId>,
    /// Attach a per-opcode execution profile to race measurements: each
    /// nested `launch` span gains a `profile` event with per-opcode-kind
    /// count/charge attributes. The interpreter reference
    /// ([`Backend::Interp`]) cannot profile. Default off.
    pub profile_ops: bool,
    /// Predictive model consulted before measuring. When the model's
    /// confidence clears [`Tuner::predict_threshold`] the decision is
    /// served with zero launches; otherwise the model abstains and the
    /// measured race runs as usual (and a disagreeing measured outcome
    /// increments [`Tuner::predict_wrong`]). `None` (the default) means
    /// every tune is measured.
    pub predictor: Option<Arc<PredictModel>>,
    /// Minimum model confidence for a zero-launch predicted decision.
    pub predict_threshold: f64,
    cache: HashMap<(String, String), Decision>,
    transformed: HashMap<(String, String), Function>,
    races: u64,
    launches: u64,
    predict_hits: u64,
    predict_abstains: u64,
    predict_wrong: u64,
}

/// One transformed contender in a sequence race.
struct Candidate {
    /// The sequence spec that produced it.
    sequence: String,
    /// The transformed kernel.
    kernel: Function,
    /// What the pipeline did.
    report: GroverReport,
}

/// A device whose decision needs a measured race.
struct Racer<'d> {
    /// Position of the device in the caller's list.
    slot: usize,
    device: &'d str,
    /// The device's candidates, as indices into the shared candidate
    /// list, in its seeded order.
    candidates: Vec<usize>,
    /// The model's verdict when it abstained, graded against the race.
    abstained: Option<Prediction>,
}

/// How a device's tune resolves before any measurement.
enum Prep {
    /// Answered without a race: a cached or predicted decision.
    Done(Decision),
    /// Needs a race over these candidates (indices into the shared
    /// candidate list); carries the abstained prediction, if any.
    Race(Vec<usize>, Option<Prediction>),
}

impl Default for Tuner {
    fn default() -> Tuner {
        Tuner::new()
    }
}

impl Tuner {
    /// A tuner with the default policy: the production engine, output
    /// verification on, the device-seeded candidate race, no predictor.
    pub fn new() -> Tuner {
        Tuner {
            backend: Backend::default(),
            limits: Limits::default(),
            retry: RetryPolicy::default(),
            verify_outputs: true,
            buffers: None,
            sequences: None,
            recorder: Arc::new(NoopRecorder),
            parent: None,
            profile_ops: false,
            predictor: None,
            predict_threshold: 0.7,
            cache: HashMap::new(),
            transformed: HashMap::new(),
            races: 0,
            launches: 0,
            predict_hits: 0,
            predict_abstains: 0,
            predict_wrong: 0,
        }
    }

    /// Number of cached decisions.
    pub fn cached_decisions(&self) -> usize {
        self.cache.len()
    }

    /// Number of measured decisions this tuner has raced, one per device.
    /// A cache hit serves the stored [`Decision`] without racing, so this
    /// counter is how callers (tests, the `grover-serve` metrics) prove
    /// that repeated tunes do not re-measure.
    pub fn races_run(&self) -> u64 {
        self.races
    }

    /// Number of kernel executions this tuner has performed: one per
    /// measurement-plan job, plus one per retry. A shared execution counts
    /// once however many device models it feeds, and the
    /// differential-output guard adds none (it compares the race's own
    /// outputs). With the seeded sets a [`Tuner::tune`] costs 4 and a
    /// [`Tuner::tune_all`] over the six paper devices 5. A predicted
    /// decision performs none; the `grover-serve`
    /// `grover_serve_launches_total` metric accumulates this, and the serve
    /// test `load::concurrent_predicts_all_hit_with_flat_launch_counters`
    /// uses it to *prove* the zero-launch property rather than assert it.
    pub fn launches_run(&self) -> u64 {
        self.launches
    }

    /// Decisions served from the model with zero launches.
    pub fn predict_hits(&self) -> u64 {
        self.predict_hits
    }

    /// Tunes where the model abstained (no model for the device, or
    /// confidence below [`Tuner::predict_threshold`]) and the measured race
    /// ran instead.
    pub fn predict_abstains(&self) -> u64 {
        self.predict_abstains
    }

    /// Abstained predictions whose verdict disagreed with the measured
    /// race that followed — the model's observable error counter.
    pub fn predict_wrong(&self) -> u64 {
        self.predict_wrong
    }

    /// Tune `kernel` for `device` using `workload`; cached after the first
    /// call. Runs the sequence race: one transformed candidate per spec in
    /// [`Tuner::sequences`] (or the device-seeded default set) against the
    /// original kernel.
    pub fn tune(
        &mut self,
        kernel: &Function,
        device: &str,
        workload: &Workload,
    ) -> Result<Decision, TuneError> {
        match self.tune_all(kernel, &[device], workload).pop() {
            Some((_, result)) => result,
            None => Err(TuneError::Internal("tune_all answered no device".into())),
        }
    }

    /// Tune across several devices at once (the per-platform specialisation
    /// table the paper's future work describes). Results come back in
    /// `devices` order, each what a fresh [`Tuner::tune`] on that device
    /// would return.
    ///
    /// Every device that needs a measurement (neither cached nor
    /// predicted) races in one plan: the original and each distinct
    /// candidate sequence execute once, feeding a model of every device
    /// that races them. With the seeded sets, the six paper devices cost 5
    /// executions: the original and the 2 sequences CPUs and GPUs share
    /// for all six, and one class-specific sequence per class.
    pub fn tune_all(
        &mut self,
        kernel: &Function,
        devices: &[&str],
        workload: &Workload,
    ) -> Vec<(String, Result<Decision, TuneError>)> {
        let mut built: Vec<Candidate> = Vec::new();
        let mut results: Vec<Option<Result<Decision, TuneError>>> = vec![None; devices.len()];
        let mut racers: Vec<Racer> = Vec::new();
        for (slot, &device) in devices.iter().enumerate() {
            // A repeated device is answered from the cache after the race.
            if racers.iter().any(|r| r.device == device) {
                continue;
            }
            match self.prepare(kernel, device, workload, &mut built) {
                Ok(Prep::Done(d)) => results[slot] = Some(Ok(d)),
                Ok(Prep::Race(candidates, abstained)) => racers.push(Racer {
                    slot,
                    device,
                    candidates,
                    abstained,
                }),
                Err(e) => results[slot] = Some(Err(e)),
            }
        }
        if !racers.is_empty() {
            let decided = self.race(kernel, &built, &racers, workload);
            for (r, d) in racers.iter().zip(decided) {
                if let (Some(p), Ok(d)) = (&r.abstained, &d) {
                    let rec = &*self.recorder;
                    if grade_prediction(p, d.choice, &kernel.name, r.device, rec, self.parent) {
                        self.predict_wrong += 1;
                    }
                }
                results[r.slot] = Some(d);
            }
        }
        devices
            .iter()
            .zip(results)
            .map(|(&device, r)| {
                let r = r.unwrap_or_else(|| self.tune(kernel, device, workload));
                (device.to_string(), r)
            })
            .collect()
    }

    /// The kernel version the tuner recommends for `device`.
    ///
    /// Guaranteed to be runnable: any failure or output divergence of the
    /// transformed version during [`Tuner::tune`] demotes the decision, so
    /// this returns the original kernel in every fallback case.
    pub fn best_kernel(
        &mut self,
        kernel: &Function,
        device: &str,
        workload: &Workload,
    ) -> Result<Function, TuneError> {
        let d = self.tune(kernel, device, workload)?;
        Ok(match d.choice {
            Verdict::WithoutLocalMemory => self
                .transformed
                .get(&(kernel.name.clone(), device.to_string()))
                .cloned()
                .ok_or_else(|| {
                    TuneError::Internal("transformed kernel not cached by tune()".into())
                })?,
            _ => kernel.clone(),
        })
    }

    /// Everything a tune does before measuring: the cache, the device
    /// name, the candidate set and — with a model — the predict gate.
    /// Candidates are built into `built`, shared across devices.
    fn prepare(
        &mut self,
        kernel: &Function,
        device: &str,
        workload: &Workload,
        built: &mut Vec<Candidate>,
    ) -> Result<Prep, TuneError> {
        let key = (kernel.name.clone(), device.to_string());
        if let Some(d) = self.cache.get(&key) {
            if self.recorder.enabled() {
                self.recorder
                    .event("decision", self.parent, &decision_attrs(&key.0, d, true));
            }
            return Ok(Prep::Done(d.clone()));
        }
        // Fail fast on a bad device name before any transform work.
        if !is_device(device) {
            return Err(TuneError::UnknownDevice(device.to_string()));
        }
        let candidates = self.build_candidates(kernel, device, built)?;

        // With a model, consult it before spending any launch. A
        // confident answer is served directly (zero launches); an
        // abstention falls through to the measured race, whose outcome is
        // then compared against the abstained verdict.
        let mut abstained: Option<Prediction> = None;
        if let Some(model) = self.predictor.clone() {
            let default = &built[candidates[0]];
            match self.predict_decision(&model, kernel, device, default, workload) {
                (Some(d), _) => return Ok(Prep::Done(d)),
                (None, p) => abstained = p,
            }
        }
        Ok(Prep::Race(candidates, abstained))
    }

    /// The model half of a tune: extract features (static, no launch),
    /// run the predict gate, and either build a zero-launch [`Decision`]
    /// or abstain. Returns `(hit decision, prediction)` — the prediction
    /// is returned even on abstain so the caller can grade it against the
    /// measured race.
    fn predict_decision(
        &mut self,
        model: &PredictModel,
        kernel: &Function,
        device: &str,
        default: &Candidate,
        workload: &Workload,
    ) -> (Option<Decision>, Option<Prediction>) {
        // Geometry comes from one workload instantiation; building a
        // context is pure host work, not a launch.
        let (_ctx, _args, nd) = workload.instantiate();
        let fv = FeatureVector::extract(kernel, nd.global, nd.local);
        let gate = predict_gate(
            Some(model),
            &kernel.name,
            device,
            &fv,
            self.predict_threshold,
            &*self.recorder,
            self.parent,
        );
        match gate {
            Gate::Hit(p) => {
                self.predict_hits += 1;
                // The default-sequence candidate stands in as the
                // transformed side; a predicted decision names it so
                // `best_kernel` resolves without a race.
                self.transformed
                    .entry((kernel.name.clone(), device.to_string()))
                    .or_insert_with(|| default.kernel.clone());
                let d = Decision {
                    device: device.to_string(),
                    choice: p.verdict,
                    sequence: default.sequence.clone(),
                    np: p.np_est,
                    cycles_with: 0,
                    cycles_without: 0,
                    report: default.report.clone(),
                    fallback: None,
                    predicted: Some(p.confidence),
                };
                self.cache
                    .insert((kernel.name.clone(), device.to_string()), d.clone());
                (Some(d), Some(p))
            }
            Gate::Abstain(p) => {
                self.predict_abstains += 1;
                (None, p)
            }
        }
    }

    /// The candidates `device` races, as indices into `built`: parse +
    /// validate each sequence, and apply it to a fresh clone unless an
    /// earlier device already built that spec. Refuses kernels with
    /// nothing to disable. Every candidate starts from the same pristine
    /// kernel, so all candidates report the same removals and differ only
    /// in cleanup.
    fn build_candidates(
        &self,
        kernel: &Function,
        device: &str,
        built: &mut Vec<Candidate>,
    ) -> Result<Vec<usize>, TuneError> {
        let specs: Vec<String> = match &self.sequences {
            Some(s) => s.clone(),
            None => grover_devsim::candidate_sequences(device)
                .iter()
                .map(|s| s.to_string())
                .collect(),
        };
        if specs.is_empty() {
            return Err(TuneError::InvalidSequence(
                "empty candidate sequence set".into(),
            ));
        }
        let options = self.grover_options();
        specs
            .iter()
            .map(|spec| {
                let seq = Sequence::parse(spec)
                    .map_err(|e| TuneError::InvalidSequence(format!("`{spec}`: {e}")))?;
                let sequence = seq.spec();
                if let Some(i) = built.iter().position(|c| c.sequence == sequence) {
                    return Ok(i);
                }
                let mut k = kernel.clone();
                let pr = apply_sequence(&mut k, &seq, &options);
                if pr.report.removed_count() == 0 {
                    return Err(TuneError::NothingToDisable(pr.report));
                }
                built.push(Candidate {
                    sequence,
                    kernel: k,
                    report: pr.report,
                });
                Ok(built.len() - 1)
            })
            .collect()
    }

    /// Race every device of `racers` in one measurement plan — the
    /// original on every device, each distinct candidate of `built` on
    /// every device that races it — inside one `tune` span, then decide
    /// each device. Results come back in `racers` order.
    fn race(
        &mut self,
        kernel: &Function,
        built: &[Candidate],
        racers: &[Racer],
        workload: &Workload,
    ) -> Vec<Result<Decision, TuneError>> {
        // Job 0 is the original on every device; each candidate becomes
        // one job on the devices that race it. `seats[r]` is where racer
        // `r` reads each of its candidates: (job, position in the job's
        // device list).
        let mut jobs = vec![Job {
            kernel,
            sequence: None,
            devices: racers.iter().map(|r| r.device).collect(),
        }];
        let mut job_of: Vec<Option<usize>> = vec![None; built.len()];
        let mut seats: Vec<Vec<(usize, usize)>> = Vec::with_capacity(racers.len());
        for r in racers {
            let mut seat = Vec::with_capacity(r.candidates.len());
            for &c in &r.candidates {
                let j = *job_of[c].get_or_insert_with(|| {
                    jobs.push(Job {
                        kernel: &built[c].kernel,
                        sequence: Some(&built[c].sequence),
                        devices: Vec::new(),
                    });
                    jobs.len() - 1
                });
                let devices = &mut jobs[j].devices;
                let pos = match devices.iter().position(|d| *d == r.device) {
                    Some(p) => p,
                    None => {
                        devices.push(r.device);
                        devices.len() - 1
                    }
                };
                seat.push((j, pos));
            }
            seats.push(seat);
        }

        let recorder = self.recorder.clone();
        let rec: &dyn Recorder = &*recorder;
        let span = rec.enabled().then(|| rec.span_start("tune", self.parent));
        if let Some(span) = span {
            rec.span_attr(span, "kernel", Value::from(kernel.name.as_str()));
            if let [only] = racers {
                rec.span_attr(span, "device", Value::from(only.device));
            }
            rec.span_attr(span, "devices", Value::from(jobs[0].devices.join(";")));
            rec.span_attr(span, "backend", Value::from(self.backend.name()));
            rec.span_attr(span, "threshold", Value::from(SIMILARITY_THRESHOLD));
            rec.span_attr(span, "verify_outputs", Value::from(self.verify_outputs));
            rec.span_attr(span, "candidates", Value::from(jobs.len() - 1));
            let seqs: Vec<&str> = jobs[1..].iter().filter_map(|j| j.sequence).collect();
            rec.span_attr(span, "sequences", Value::from(seqs.join(";")));
        }
        self.races += racers.len() as u64;
        let outcomes = self.run_plan(&jobs, workload, span);

        let mut decided = Vec::with_capacity(racers.len());
        for (i, (r, seat)) in racers.iter().zip(&seats).enumerate() {
            let with = original_on(&outcomes[0], i);
            let cands = r
                .candidates
                .iter()
                .zip(seat)
                .map(|(&c, &(j, pos))| (&built[c], candidate_on(&outcomes[j], pos)))
                .collect();
            let d = self.decide(kernel, r.device, with, cands, span);
            if let Some(span) = span {
                match &d {
                    Ok(d) => rec.event(
                        "decision",
                        Some(span),
                        &decision_attrs(&kernel.name, d, false),
                    ),
                    Err(e) => rec.span_attr(span, "error", Value::from(e.to_string())),
                }
            }
            decided.push(d);
        }
        if let Some(span) = span {
            rec.span_end(span);
        }
        decided
    }

    /// One device's decision from its race: the original's cycles and
    /// outputs, and each candidate's. The fastest candidate that measured
    /// wins (earliest on ties, so the default sequence — candidate 0 of
    /// the seeded sets — is preferred); the differential-output guard then
    /// bit-compares its outputs with the original's.
    fn decide(
        &mut self,
        kernel: &Function,
        device: &str,
        with: Result<Reading<'_>, TuneError>,
        cands: Vec<(&Candidate, Result<Reading<'_>, FallbackReason>)>,
        span: Option<SpanId>,
    ) -> Result<Decision, TuneError> {
        // The original kernel must measure: without a working baseline
        // there is nothing to fall back to.
        let (cycles_with, reference) = with?;

        let mut best: Option<(usize, u64)> = None;
        for (i, (_, r)) in cands.iter().enumerate() {
            if let Ok((c, _)) = r {
                if best.is_none_or(|(_, bc)| *c < bc) {
                    best = Some((i, *c));
                }
            }
        }
        let (winner_idx, cycles_without, mut fallback) = match best {
            Some((i, c)) => (i, c, None),
            // Every candidate failed: demote, reporting the first failure
            // (candidate 0 is the default sequence).
            None => (0, 0, cands[0].1.as_ref().err().cloned()),
        };
        let (winner, winner_run) = &cands[winner_idx];

        // Differential-output guard: any differing bit between the
        // original's and the winner's race outputs demotes the whole
        // decision to the original — conservative by design: a search
        // that produced even one wrong-output candidate is not trusted for
        // this kernel.
        if let (None, true, Ok((_, outputs))) = (&fallback, self.verify_outputs, winner_run) {
            if let Some((buffer, index)) = first_bit_mismatch(reference, outputs) {
                fallback = Some(FallbackReason::OutputMismatch { buffer, index });
            }
            let rec = &*self.recorder;
            if rec.enabled() {
                let mut attrs = vec![
                    ("ok", Value::from(fallback.is_none())),
                    ("device", Value::from(device)),
                    ("sequence", Value::from(winner.sequence.as_str())),
                ];
                if let Some(reason) = &fallback {
                    attrs.push(("reason", Value::from(reason.to_string())));
                }
                rec.event("verify", span, &attrs);
            }
        }

        let np = if cycles_without == 0 {
            0.0
        } else {
            cycles_with as f64 / cycles_without as f64
        };
        let choice = if fallback.is_some() {
            Verdict::WithLocalMemory
        } else {
            Verdict::from_np(np, SIMILARITY_THRESHOLD)
        };
        self.transformed
            .entry((kernel.name.clone(), device.to_string()))
            .or_insert_with(|| winner.kernel.clone());
        let d = Decision {
            device: device.to_string(),
            choice,
            sequence: winner.sequence.clone(),
            np,
            cycles_with,
            cycles_without,
            report: winner.report.clone(),
            fallback,
            predicted: None,
        };
        self.cache
            .insert((kernel.name.clone(), device.to_string()), d.clone());
        Ok(d)
    }

    /// The plan runner: execute every job and return each job's outcome
    /// after retries, in `jobs` order.
    ///
    /// Workloads are instantiated up front on this thread (the factory
    /// need not be `Sync`). Jobs then run on at most
    /// `available_parallelism()` scoped workers that pull from a shared
    /// index — this thread is one of them. Each execution is
    /// panic-isolated, so a panicking job fails alone. Transient failures
    /// are retried serially on fresh instantiations per [`Tuner::retry`];
    /// a retried job re-runs for every device it feeds. Records one
    /// `retry` event per retry and one `measure` event per (job, device).
    fn run_plan(
        &mut self,
        jobs: &[Job],
        workload: &Workload,
        span: Option<SpanId>,
    ) -> Vec<Result<Measured, MeasureFailure>> {
        let recorder = self.recorder.clone();
        let rec: &dyn Recorder = &*recorder;
        let exec = Exec {
            backend: self.backend,
            limits: self.limits,
            rec,
            parent: span,
            profile_ops: self.profile_ops,
        };
        let inputs: Vec<Mutex<Option<Instance>>> = jobs
            .iter()
            .map(|_| Mutex::new(Some(workload.instantiate())))
            .collect();
        let firsts: Vec<Mutex<Option<Result<Measured, MeasureFailure>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // A poisoned slot still holds valid data: each update is one
        // `take` or one store, so the guards are recovered, not unwrapped.
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else { break };
            let input = inputs[i].lock().unwrap_or_else(|e| e.into_inner()).take();
            let result = match input {
                Some(input) => exec.run(job, input),
                None => Err(MeasureFailure::Panicked("job input taken twice".into())),
            };
            *firsts[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
        };
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(jobs.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            work();
            // `exec.run` already catches panics; a worker dies only if one
            // escapes the isolation (a bug). Its unfinished job reads as
            // a panic below — converted, never propagated.
            for h in handles {
                let _ = h.join();
            }
        });
        self.launches += jobs.len() as u64;

        let mut outcomes = Vec::with_capacity(jobs.len());
        for (job, first) in jobs.iter().zip(firsts) {
            let first = first
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| Err(MeasureFailure::Panicked("measurement worker died".into())));
            let mut attempts = 1u32;
            let result = retry_measure(first, self.retry, || {
                attempts += 1;
                if rec.enabled() {
                    rec.event(
                        "retry",
                        span,
                        &job.attrs(vec![("attempt", Value::from(attempts))]),
                    );
                }
                exec.run(job, workload.instantiate())
            });
            self.launches += u64::from(attempts - 1);
            if rec.enabled() {
                for (pos, device) in job.devices.iter().enumerate() {
                    rec.event(
                        "measure",
                        span,
                        &measure_attrs(job, device, pos, &result, attempts),
                    );
                }
            }
            outcomes.push(result);
        }
        outcomes
    }

    fn grover_options(&self) -> GroverOptions {
        GroverOptions {
            buffers: self.buffers.clone(),
            keep_barriers: false,
        }
    }
}

/// One execution of a measurement plan: `kernel` runs once and its event
/// stream feeds a fresh model of every device in `devices`.
struct Job<'a> {
    kernel: &'a Function,
    /// The candidate's sequence spec; `None` for the original kernel.
    sequence: Option<&'a str>,
    devices: Vec<&'a str>,
}

impl Job<'_> {
    /// `extra` plus the attributes naming this job: `version`, the
    /// `sequence` of a candidate, and the `devices` it feeds.
    fn attrs(&self, mut extra: Vec<(&'static str, Value)>) -> Vec<(&'static str, Value)> {
        let version = if self.sequence.is_some() {
            "transformed"
        } else {
            "original"
        };
        extra.push(("version", Value::from(version)));
        if let Some(seq) = self.sequence {
            extra.push(("sequence", Value::from(seq)));
        }
        extra.push(("devices", Value::from(self.devices.join(";"))));
        extra
    }
}

/// What a device reads off one job: its model's cycles and the job's
/// final context.
type Reading<'c> = (u64, &'c Context);

/// A workload instantiation: context, arguments and geometry.
type Instance = (Context, Vec<ArgValue>, NdRange);

/// What one successful execution produced.
struct Measured {
    /// Simulated cycles of each device model, in [`Job::devices`] order.
    cycles: Vec<u64>,
    /// The final context: the execution's output buffers.
    ctx: Context,
}

/// The launch settings every execution of a plan shares.
struct Exec<'a> {
    backend: Backend,
    limits: Limits,
    rec: &'a dyn Recorder,
    parent: Option<SpanId>,
    profile_ops: bool,
}

impl Exec<'_> {
    /// Execute `job` once on `input`, with panic isolation: a panic
    /// anywhere (engine, device model, injected fault) becomes a
    /// [`MeasureFailure::Panicked`] instead of unwinding into the plan.
    fn run(&self, job: &Job, input: Instance) -> Result<Measured, MeasureFailure> {
        catch_unwind(AssertUnwindSafe(|| self.execute(job, input)))
            .unwrap_or_else(|p| Err(MeasureFailure::Panicked(panic_message(p.as_ref()))))
    }

    fn execute(&self, job: &Job, input: Instance) -> Result<Measured, MeasureFailure> {
        // Device names are validated before any measurement; a lookup
        // failure here means the registry changed under us.
        let mut models = job
            .devices
            .iter()
            .map(|d| {
                Device::by_name(d).ok_or_else(|| {
                    MeasureFailure::Exec(ExecError::Internal(format!(
                        "device `{d}` disappeared mid-tune"
                    )))
                })
            })
            .collect::<Result<Vec<Device>, _>>()?;
        let (mut ctx, args, nd) = input;
        let tags = if self.rec.enabled() {
            vec![("devices", Value::from(job.devices.join(";")))]
        } else {
            Vec::new()
        };
        // With profiling on, the launch span gains a `profile` event; the
        // aggregate itself is not needed here, the recorder carries it.
        let mut profile = None;
        enqueue_observed(
            &mut ctx,
            job.kernel,
            &args,
            &nd,
            &mut Tee(&mut models),
            &self.limits,
            self.backend,
            self.rec,
            self.parent,
            &tags,
            self.profile_ops.then_some(&mut profile),
        )
        .map_err(MeasureFailure::Exec)?;
        Ok(Measured {
            cycles: models.iter_mut().map(|m| m.finish().cycles).collect(),
            ctx,
        })
    }
}

/// The original's job as the device at `pos` reads it: cycles and
/// outputs, or — with no working baseline — a fatal [`TuneError`].
fn original_on(
    outcome: &Result<Measured, MeasureFailure>,
    pos: usize,
) -> Result<Reading<'_>, TuneError> {
    match outcome {
        Ok(m) => Ok((m.cycles[pos], &m.ctx)),
        Err(f) => Err(match f {
            MeasureFailure::Panicked(m) => TuneError::Panicked(m.clone()),
            MeasureFailure::Exec(ExecError::WorkerPanic { message, .. }) => {
                TuneError::Panicked(message.clone())
            }
            MeasureFailure::Exec(ExecError::DeadlineExceeded) => TuneError::Deadline,
            MeasureFailure::Exec(e) => TuneError::Execution(e.to_string()),
        }),
    }
}

/// A candidate's job as the device at `pos` reads it: cycles and outputs,
/// or the [`FallbackReason`] that demotes the device.
fn candidate_on(
    outcome: &Result<Measured, MeasureFailure>,
    pos: usize,
) -> Result<Reading<'_>, FallbackReason> {
    match outcome {
        Ok(m) => Ok((m.cycles[pos], &m.ctx)),
        Err(f) => Err(match f {
            MeasureFailure::Panicked(m) => FallbackReason::Panicked(m.clone()),
            MeasureFailure::Exec(ExecError::WorkerPanic { message, .. }) => {
                FallbackReason::Panicked(message.clone())
            }
            MeasureFailure::Exec(ExecError::DeadlineExceeded) => FallbackReason::DeadlineExceeded,
            MeasureFailure::Exec(e) => FallbackReason::ExecFailed(e.to_string()),
        }),
    }
}

/// A single execution failure, before a device reads it as fatal
/// ([`original_on`]) or demoting ([`candidate_on`]).
enum MeasureFailure {
    Exec(ExecError),
    Panicked(String),
}

impl MeasureFailure {
    /// Worth retrying? Panics and deadline overruns may be environmental
    /// (scheduling jitter, injected faults with limited fires);
    /// deterministic interpreter errors are not.
    fn transient(&self) -> bool {
        matches!(
            self,
            MeasureFailure::Panicked(_)
                | MeasureFailure::Exec(ExecError::DeadlineExceeded)
                | MeasureFailure::Exec(ExecError::WorkerPanic { .. })
        )
    }
}

/// `(kind, detail)` tags of a measurement failure, matching the
/// [`FallbackReason::kind`] vocabulary.
fn failure_tag(f: &MeasureFailure) -> (&'static str, String) {
    match f {
        MeasureFailure::Panicked(m) => ("panic", m.clone()),
        MeasureFailure::Exec(ExecError::WorkerPanic { message, .. }) => ("panic", message.clone()),
        MeasureFailure::Exec(ExecError::DeadlineExceeded) => {
            ("deadline", "wall-clock deadline exceeded".to_string())
        }
        MeasureFailure::Exec(e) => ("exec_error", e.to_string()),
    }
}

/// The `measure` event of the device at `pos` of `job`.
fn measure_attrs(
    job: &Job,
    device: &str,
    pos: usize,
    result: &Result<Measured, MeasureFailure>,
    attempts: u32,
) -> Vec<(&'static str, Value)> {
    let mut attrs = job.attrs(vec![
        ("device", Value::from(device)),
        ("attempts", Value::from(attempts)),
    ]);
    match result {
        Ok(m) => {
            attrs.push(("ok", Value::from(true)));
            attrs.push(("cycles", Value::from(m.cycles[pos])));
        }
        Err(f) => {
            let (kind, detail) = failure_tag(f);
            attrs.push(("ok", Value::from(false)));
            attrs.push(("failure", Value::from(kind)));
            attrs.push(("detail", Value::from(detail)));
        }
    }
    attrs
}

/// The one-record summary of a tuning outcome: the race measurements, the
/// normalised performance, the verdict and — when demoted — the structured
/// fallback reason.
fn decision_attrs(kernel: &str, d: &Decision, cached: bool) -> Vec<(&'static str, Value)> {
    let mut attrs = vec![
        ("kernel", Value::from(kernel.to_string())),
        ("device", Value::from(d.device.as_str())),
        ("choice", Value::from(d.choice.kind())),
        ("sequence", Value::from(d.sequence.as_str())),
        ("np", Value::from(d.np)),
        ("cycles_with", Value::from(d.cycles_with)),
        ("cycles_without", Value::from(d.cycles_without)),
        ("cached", Value::from(cached)),
    ];
    if let Some(reason) = &d.fallback {
        attrs.push(("fallback_kind", Value::from(reason.kind())));
        attrs.push(("fallback_detail", Value::from(reason.to_string())));
    }
    attrs
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Retry `first` via `again` while the failure is transient, up to
/// `retry.max_attempts` total attempts with `retry.backoff` between them.
fn retry_measure<T>(
    first: Result<T, MeasureFailure>,
    retry: RetryPolicy,
    mut again: impl FnMut() -> Result<T, MeasureFailure>,
) -> Result<T, MeasureFailure> {
    let mut result = first;
    let mut attempts = 1u32;
    while attempts < retry.max_attempts.max(1) {
        match &result {
            Err(f) if f.transient() => {
                if !retry.backoff.is_zero() {
                    std::thread::sleep(retry.backoff);
                }
                attempts += 1;
                result = again();
            }
            _ => break,
        }
    }
    result
}

/// First bit-level difference between two contexts' buffers, as
/// `(buffer, element)` — `None` when identical. Floats compare by bit
/// pattern, so NaNs compare equal to themselves and `-0.0 != 0.0`.
fn first_bit_mismatch(a: &Context, b: &Context) -> Option<(u32, usize)> {
    let (ab, bb) = (a.buffers(), b.buffers());
    if ab.len() != bb.len() {
        return Some((ab.len().min(bb.len()) as u32, 0));
    }
    for (i, (x, y)) in ab.iter().zip(bb).enumerate() {
        let diff = match (x, y) {
            (BufferData::F32(x), BufferData::F32(y)) => mismatch_at(x, y, |v| v.to_bits() as u64),
            (BufferData::I32(x), BufferData::I32(y)) => mismatch_at(x, y, |v| *v as u32 as u64),
            (BufferData::I64(x), BufferData::I64(y)) => mismatch_at(x, y, |v| *v as u64),
            // Differing element types at the same slot: flag element 0.
            _ => Some(0),
        };
        if let Some(j) = diff {
            return Some((i as u32, j));
        }
    }
    None
}

fn mismatch_at<T>(a: &[T], b: &[T], key: impl Fn(&T) -> u64) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| key(x) != key(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grover_frontend::{compile, BuildOptions};

    fn staged_kernel() -> Function {
        compile(
            "__kernel void rev(__global float* in, __global float* out) {
                 __local float lm[16];
                 int lx = get_local_id(0);
                 int wx = get_group_id(0);
                 lm[lx] = in[wx * 16 + lx];
                 barrier(CLK_LOCAL_MEM_FENCE);
                 out[wx * 16 + lx] = lm[15 - lx];
             }",
            &BuildOptions::new(),
        )
        .unwrap()
        .kernels
        .remove(0)
    }

    fn workload() -> Workload {
        Workload::new(|| {
            let mut ctx = Context::new();
            let a = ctx.buffer_f32(&vec![1.0; 256]);
            let b = ctx.zeros_f32(256);
            (
                ctx,
                vec![ArgValue::Buffer(a), ArgValue::Buffer(b)],
                NdRange::d1(256, 16),
            )
        })
    }

    #[test]
    fn tunes_and_caches() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        let d1 = t.tune(&k, "SNB", &w).unwrap();
        assert_eq!(t.cached_decisions(), 1);
        let d2 = t.tune(&k, "SNB", &w).unwrap();
        assert_eq!(d1.np, d2.np);
        assert!(d1.cycles_with > 0 && d1.cycles_without > 0);
    }

    #[test]
    fn cache_hits_do_not_race() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        assert_eq!(t.races_run(), 0);
        t.tune(&k, "SNB", &w).unwrap();
        assert_eq!(t.races_run(), 1);
        t.tune(&k, "SNB", &w).unwrap();
        assert_eq!(t.races_run(), 1, "cached decision must not re-measure");
    }

    #[test]
    fn tuner_runs_the_bytecode_engine_by_default() {
        assert_eq!(Backend::default(), Backend::Bytecode);
        assert_eq!(Tuner::new().backend, Backend::Bytecode);
    }

    #[test]
    fn interpreter_reference_tunes_to_the_same_decision() {
        // The device model consumes the same access trace either way, so
        // cycle counts — and therefore the decision — must be identical,
        // and races_run() accounting must be engine-agnostic.
        let k = staged_kernel();
        let mut tb = Tuner::new();
        let db = tb.tune(&k, "SNB", &workload()).unwrap();
        let mut ti = Tuner::new();
        ti.backend = Backend::Interp;
        let di = ti.tune(&k, "SNB", &workload()).unwrap();
        assert_eq!(ti.races_run(), 1);
        assert_eq!(di.choice, db.choice);
        assert_eq!(di.np, db.np);
        assert_eq!(
            (di.cycles_with, di.cycles_without),
            (db.cycles_with, db.cycles_without)
        );
        assert!(db.fallback.is_none(), "{:?}", db.fallback);
    }

    #[test]
    fn decisions_differ_across_devices() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        let all = t.tune_all(&k, &["SNB", "Fermi"], &w);
        assert_eq!(all.len(), 2);
        assert_eq!(t.cached_decisions(), 2);
        for (_, d) in &all {
            assert!(d.is_ok());
        }
    }

    #[test]
    fn best_kernel_has_no_local_memory_when_transformed_wins() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        let d = t.tune(&k, "SNB", &w).unwrap();
        let best = t.best_kernel(&k, "SNB", &w).unwrap();
        match d.choice {
            Verdict::WithoutLocalMemory => assert_eq!(best.local_mem_bytes(), 0),
            _ => assert_eq!(best.local_mem_bytes(), k.local_mem_bytes()),
        }
    }

    #[test]
    fn untunable_kernel_reports_cleanly() {
        let k = compile(
            "__kernel void plain(__global float* a) { a[0] = 1.0f; }",
            &BuildOptions::new(),
        )
        .unwrap()
        .kernels
        .remove(0);
        let w = Workload::new(|| {
            let mut ctx = Context::new();
            let a = ctx.zeros_f32(4);
            (ctx, vec![ArgValue::Buffer(a)], NdRange::d1(1, 1))
        });
        let mut t = Tuner::new();
        assert!(matches!(
            t.tune(&k, "SNB", &w),
            Err(TuneError::NothingToDisable(_))
        ));
    }

    #[test]
    fn unknown_device_rejected() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        assert!(matches!(
            t.tune(&k, "TPU", &w),
            Err(TuneError::UnknownDevice(_))
        ));
    }

    #[test]
    fn tuning_records_decision_telemetry() {
        let k = staged_kernel();
        let w = workload();
        let rec = Arc::new(grover_obs::MemoryRecorder::new());
        let mut t = Tuner::new();
        t.recorder = rec.clone();
        let d = t.tune(&k, "SNB", &w).unwrap();

        let snap = rec.snapshot();
        let tune = snap.span("tune").expect("tune span recorded");
        assert_eq!(tune.attr_str("kernel"), Some("rev"));
        assert_eq!(tune.attr_str("device"), Some("SNB"));
        // The original plus every seeded candidate appear as launch spans
        // nested in the tune span.
        let n_cands = grover_devsim::candidate_sequences("SNB").len();
        assert!(n_cands >= 2, "seeded set should be a real search space");
        let launches = snap.spans_named("launch");
        assert_eq!(launches.len(), 1 + n_cands);
        for l in &launches {
            assert_eq!(l.parent, Some(tune.id));
            assert!(l.attr_u64("instructions").unwrap() > 0);
        }
        let measures = snap.events_named("measure");
        assert_eq!(measures.len(), 1 + n_cands);
        let decisions = snap.events_named("decision");
        assert_eq!(decisions.len(), 1);
        assert_eq!(
            decisions[0].attr("choice").and_then(Value::as_str),
            Some(d.choice.kind())
        );
        assert_eq!(
            decisions[0].attr("sequence").and_then(Value::as_str),
            Some(d.sequence.as_str())
        );
        assert_eq!(
            decisions[0].attr("cached").and_then(|v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(false)
        );

        // A cache hit records a decision event tagged cached.
        t.tune(&k, "SNB", &w).unwrap();
        let snap = rec.snapshot();
        let decisions = snap.events_named("decision");
        assert_eq!(decisions.len(), 2);
        assert!(matches!(
            decisions[1].attr("cached"),
            Some(Value::Bool(true))
        ));
        // No second tune span was opened.
        assert_eq!(snap.spans_named("tune").len(), 1);
    }

    #[test]
    fn decision_records_winning_sequence_from_seeded_set() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        let d = t.tune(&k, "SNB", &w).unwrap();
        let specs = grover_devsim::candidate_sequences("SNB");
        assert!(
            specs.contains(&d.sequence.as_str()),
            "winning sequence `{}` not in the seeded set",
            d.sequence
        );
        assert_eq!(t.races_run(), 1, "one race covers the whole candidate set");
    }

    #[test]
    fn explicit_sequences_restrict_the_race() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        t.sequences = Some(vec!["local-removal".into()]);
        let d = t.tune(&k, "SNB", &w).unwrap();
        assert_eq!(d.sequence, "local-removal");
        assert!(d.fallback.is_none(), "{:?}", d.fallback);
        // An illegal explicit sequence is rejected before any measurement.
        let mut t2 = Tuner::new();
        t2.sequences = Some(vec!["barrier-elim".into()]);
        assert!(matches!(
            t2.tune(&k, "SNB", &w),
            Err(TuneError::InvalidSequence(_))
        ));
        assert_eq!(t2.races_run(), 0);
    }

    #[test]
    fn gpu_prefers_local_memory_for_uncoalesced_reads() {
        // The reversal makes the transformed version read backwards within
        // each warp-chunk; the GPU should tend to keep local memory or be
        // similar, while SNB drops it. At minimum the decisions must be
        // internally consistent with np.
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        for dev in ["SNB", "Fermi"] {
            let d = t.tune(&k, dev, &w).unwrap();
            match d.choice {
                Verdict::WithoutLocalMemory => assert!(d.np > 1.05),
                Verdict::WithLocalMemory => assert!(d.np < 0.95),
                Verdict::Similar => assert!(d.np >= 0.95 && d.np <= 1.05),
            }
        }
    }
}
