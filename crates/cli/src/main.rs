//! `grover` — command-line driver for the local-memory-removal toolchain.
//!
//! ```text
//! grover transform <kernel.cl> [-D NAME=VAL ...] [--kernel NAME] [--keep-barriers] [--passes SEQ]
//!     Compile, run the Grover pass, print the report and the before/after
//!     IR. `--passes` names an explicit comma-separated pass sequence
//!     (e.g. `local-removal,barrier-elim,remap`) run through the
//!     composable pipeline, with a per-pass report.
//!
//! grover autotune <app-id> [--device SNB|Nehalem|MIC|Fermi|Kepler|Tahiti] [--scale test|small|paper]
//!                 [--strict] [--json] [--no-verify] [--deadline-ms N] [--retries N] [--backoff-ms N]
//!                 [--passes SEQ[;SEQ...]] [--predict model.json] [--predict-threshold X]
//!     Tune a bundled benchmark on a device via the hardened pipeline: the
//!     original kernel races a device-seeded set of candidate pass
//!     sequences (or the `--passes` override, `;`-separated) under the
//!     measurement watchdog; transient failures are retried, and the
//!     winner's output buffers are bit-compared against the original. The
//!     decision records the winning sequence. A failing or divergent
//!     winner gracefully falls back to the original (exit 0) unless
//!     `--strict` is given (exit 8).
//!
//! grover profile <app-id> [--scale test|small|paper] [--json] [--ops]
//!     Run both kernel versions of a bundled benchmark and print a
//!     side-by-side memory-traffic report (per-address-space load/store
//!     counts, bytes moved, barriers, instructions) with deltas — the
//!     paper's §VI-C reasons analysis — plus the per-buffer pass outcomes
//!     with structured reasons. With `--ops` the report is instead the
//!     per-opcode execution profile of the compiled bytecode: executed-op
//!     counts and charged budget units per opcode kind and per basic
//!     block, reconciled exactly against the launch's instruction tally.
//!
//! grover fuzz [--seed N] [--cases N] [--json] [--out-dir DIR]
//!     Run a differential fuzzing campaign: generate randomized
//!     software-cache kernels (plus deliberate must-reject variants), run
//!     each through frontend → Grover pass → interpreter, and bit-compare
//!     original vs transformed outputs, then both against the bytecode
//!     engine. Failures are
//!     shrunk to standalone reproducers under `--out-dir` (default
//!     `fuzz-regressions/`). Exit 9 if any case fails. A campaign is a
//!     pure function of `(seed, cases)`.
//!
//! grover serve [--addr HOST:PORT] [--cache-dir DIR] [--threads N] [--queue-depth N]
//!              [--breaker-threshold N] [--breaker-cooldown-ms MS]
//!              [--io-timeout-ms MS] [--compact-threshold N]
//!              [--cache-capacity N] [--max-deadline-ms N]
//!              [--flight-capacity N] [--profile-ops]
//!     Run the persistent tuning-cache service: an HTTP compile/tune API
//!     over the pipeline with a content-addressed decision cache that
//!     warm-starts from `--cache-dir` on boot. Every request is traced
//!     end to end (`x-grover-trace-id` honoured and echoed) and the last
//!     `--flight-capacity` spans/events are kept in an in-memory flight
//!     ring (`GET /debug/flight`), dumped to `flight-<ts>.jsonl` in the
//!     cache dir on panic or shutdown. `--profile-ops` attaches the
//!     per-opcode bytecode profile to tune spans. Runs until
//!     `POST /admin/shutdown`; shutdown flushes the cache and the trace
//!     recorder.
//!
//! grover predict <app-id> --model model.json [--device NAME] [--scale test|small|paper]
//!                [--predict-threshold X] [--json]
//!     Answer the tuning question for a bundled benchmark from a trained
//!     model using only static kernel features — zero launches on a
//!     confident prediction. Below the confidence threshold the tuner
//!     falls back to the measured race and reports whether the model's
//!     abstained guess agreed with the measurement.
//!
//! grover train --corpus FILE --out model.json [--iters N] [--l2 X] [--learning-rate X]
//!              [--threshold X] [--eval]
//!     Fit the interpretable per-device scorer (ridge regression on
//!     ln(np) + nearest-neighbour fallback) from a JSONL corpus produced
//!     by `grover corpus export`. The emitted model bakes in the feature
//!     schema hash and the pass-fingerprint epoch, so a stale model is
//!     observably rejected at load. `--eval` additionally runs a
//!     leave-one-kernel-out evaluation and prints the accuracy table.
//!
//! grover corpus export [--out FILE] [--cache-dir DIR] [--scale test|small|paper]
//!                      [--devices A,B,...] [--apps A,B,...] [--no-verify]
//!     Dump a JSONL training table of measured decisions joined with
//!     feature vectors. With `--cache-dir` the rows come from a serve
//!     journal (decisions persisted with their features); otherwise the
//!     bundled suite is raced on the spot — the fixture generator for
//!     the predict tests. Every row carries the schema hash + epoch.
//!
//! grover list
//!     List the bundled benchmark applications.
//! ```
//!
//! ## Global flags
//!
//! `--trace-out <file.jsonl>` (any position): stream telemetry — spans and
//! events from the pass, the runtime launch engine and the tuner — to the
//! given file, one JSON object per line. Without the flag the no-op
//! recorder is used and nothing is collected.
//!
//! Every kernel launch a command performs runs on the compiled
//! register-bytecode engine; `--json` output and telemetry spans record it
//! as `"backend": "bytecode"`. The tree-walking interpreter is kept only
//! as the differential reference (the `fuzz` oracle and the differential
//! tests), so no flag selects an engine.
//!
//! ## Exit codes
//!
//! | code | meaning                                               |
//! |------|-------------------------------------------------------|
//! | 0    | success (including a graceful autotune fallback)      |
//! | 1    | internal error                                        |
//! | 2    | usage error                                           |
//! | 3    | compile / workload-preparation failure                |
//! | 4    | unknown application or device                         |
//! | 5    | execution error while measuring the original kernel   |
//! | 6    | isolated panic while measuring the original kernel    |
//! | 7    | wall-clock deadline exceeded on the original kernel   |
//! | 8    | `--strict` and the tuner fell back to the original    |
//! | 9    | fuzzing campaign found failures                       |

use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use grover_core::Grover;
use grover_frontend::{compile, BuildOptions};
use grover_ir::printer::function_to_string;
use grover_kernels::{
    all_apps, app_by_id, extension_apps, prepare_pair, run_prepared_observed, App, KernelPair,
    Scale,
};
use grover_obs::json::{array, Obj};
use grover_obs::{JsonlRecorder, NoopRecorder, Recorder, Value};
use grover_predict::{
    evaluate_loo, parse_corpus, schema_hash, train_rows, CorpusRow, FeatureVector,
    Model as PredictModel, TrainConfig, Verdict,
};
use grover_runtime::{Backend, CountingSink, Limits};
use grover_tuner::{Choice, Decision, RetryPolicy, TuneError, Tuner, Workload};

const EXIT_USAGE: u8 = 2;
const EXIT_COMPILE: u8 = 3;
const EXIT_UNKNOWN_TARGET: u8 = 4;
const EXIT_EXEC: u8 = 5;
const EXIT_PANIC: u8 = 6;
const EXIT_DEADLINE: u8 = 7;
const EXIT_STRICT_FALLBACK: u8 = 8;
const EXIT_FUZZ: u8 = 9;

/// A command failure carrying its stable exit code (see module docs).
struct Failure {
    code: u8,
    message: String,
}

impl Failure {
    fn new(code: u8, message: impl Into<String>) -> Failure {
        Failure {
            code,
            message: message.into(),
        }
    }

    fn usage(message: impl Into<String>) -> Failure {
        Failure::new(EXIT_USAGE, message)
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let recorder = match extract_trace_out(&mut args) {
        Ok(None) => Arc::new(NoopRecorder) as Arc<dyn Recorder>,
        Ok(Some(path)) => match std::fs::File::create(&path) {
            Ok(f) => Arc::new(JsonlRecorder::new(BufWriter::new(f))) as Arc<dyn Recorder>,
            Err(e) => {
                eprintln!("error: cannot create trace file {path}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        },
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("transform") => cmd_transform(&args[1..], &recorder),
        Some("autotune") => cmd_autotune(&args[1..], &recorder),
        Some("profile") => cmd_profile(&args[1..], &recorder),
        Some("classify") => cmd_classify(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..], &recorder),
        Some("serve") => cmd_serve(&args[1..], &recorder),
        Some("predict") => cmd_predict(&args[1..], &recorder),
        Some("train") => cmd_train(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..], &recorder),
        Some("list") => cmd_list(),
        _ => {
            eprintln!(
                "usage: grover <transform|autotune|profile|classify|fuzz|serve|predict|train|corpus|list> [--trace-out FILE] ..."
            );
            eprintln!("  grover transform <kernel.cl> [-D NAME=VAL ...] [--kernel NAME] [--keep-barriers] [--passes SEQ]");
            eprintln!("  grover autotune <app-id> [--device NAME] [--scale test|small|paper]");
            eprintln!("                  [--strict] [--json] [--no-verify] [--deadline-ms N] [--retries N] [--backoff-ms N] [--passes SEQ[;SEQ...]]");
            eprintln!("  grover profile <app-id> [--scale test|small|paper] [--json] [--ops]");
            eprintln!("  grover classify <kernel.cl> [-D NAME=VAL ...]");
            eprintln!("  grover fuzz [--seed N] [--cases N] [--json] [--out-dir DIR]");
            eprintln!("  grover serve [--addr HOST:PORT] [--cache-dir DIR] [--threads N] [--queue-depth N]");
            eprintln!("               [--breaker-threshold N] [--breaker-cooldown-ms MS] [--io-timeout-ms MS] [--compact-threshold N]");
            eprintln!("               [--cache-capacity N] [--max-deadline-ms N] [--flight-capacity N] [--profile-ops]");
            eprintln!("               [--model model.json] [--predict-threshold X]");
            eprintln!("  grover predict <app-id> --model model.json [--device NAME] [--scale test|small|paper] [--predict-threshold X] [--json]");
            eprintln!("  grover train --corpus FILE --out model.json [--iters N] [--l2 X] [--learning-rate X] [--threshold X] [--eval]");
            eprintln!("  grover corpus export [--out FILE] [--cache-dir DIR] [--scale test|small|paper] [--devices A,B] [--apps A,B] [--no-verify]");
            eprintln!("  grover list");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("error: {}", f.message);
            ExitCode::from(f.code)
        }
    }
}

/// Strip the global `--trace-out <path>` flag (any position) from `args`.
fn extract_trace_out(args: &mut Vec<String>) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        if i + 1 >= args.len() {
            return Err("--trace-out needs a file path".into());
        }
        let path = args.remove(i + 1);
        args.remove(i);
        return Ok(Some(path));
    }
    Ok(None)
}

fn cmd_transform(args: &[String], recorder: &Arc<dyn Recorder>) -> Result<(), Failure> {
    let mut path = None;
    let mut opts = BuildOptions::new();
    let mut kernel_name: Option<String> = None;
    let mut keep_barriers = false;
    let mut passes: Option<grover_core::Sequence> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-D" => {
                let d = it
                    .next()
                    .ok_or_else(|| Failure::usage("-D needs an argument"))?;
                let (n, v) = d.split_once('=').unwrap_or((d.as_str(), "1"));
                opts = opts.define(n, v);
            }
            "--kernel" => {
                kernel_name = Some(
                    it.next()
                        .ok_or_else(|| Failure::usage("--kernel needs a name"))?
                        .clone(),
                )
            }
            "--keep-barriers" => keep_barriers = true,
            "--passes" => {
                let spec = it
                    .next()
                    .ok_or_else(|| Failure::usage("--passes needs a comma-separated sequence"))?;
                passes = Some(
                    grover_core::Sequence::parse(spec)
                        .map_err(|e| Failure::usage(format!("--passes: {e}")))?,
                );
            }
            other if other.starts_with("-D") => {
                let d = &other[2..];
                let (n, v) = d.split_once('=').unwrap_or((d, "1"));
                opts = opts.define(n, v);
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| Failure::usage("no input file"))?;
    let source = std::fs::read_to_string(&path)
        .map_err(|e| Failure::new(EXIT_COMPILE, format!("cannot read {path}: {e}")))?;
    let module =
        compile(&source, &opts).map_err(|e| Failure::new(EXIT_COMPILE, format!("{path}: {e}")))?;

    for kernel in &module.kernels {
        if let Some(only) = &kernel_name {
            if &kernel.name != only {
                continue;
            }
        }
        println!("==== original: {} ====", kernel.name);
        println!("{}", function_to_string(kernel));
        let mut transformed = kernel.clone();
        let options = grover_core::GroverOptions {
            buffers: None,
            keep_barriers,
        };
        let report = match &passes {
            // An explicit sequence runs the composable pipeline directly
            // and reports per pass.
            Some(seq) => {
                let pr = grover_core::PassManager::new(seq.clone(), options).run(&mut transformed);
                println!("==== pipeline: {} ====", pr.sequence);
                for p in &pr.passes {
                    println!("  {:<16} {}", p.pass.name(), p.detail);
                }
                pr.report
            }
            None => {
                let grover = Grover::with_options(options);
                grover.run_on_observed(&mut transformed, &**recorder, None)
            }
        };
        println!("==== grover report ====");
        print!("{}", report.to_text());
        println!("==== transformed: {} ====", transformed.name);
        println!("{}", function_to_string(&transformed));
    }
    Ok(())
}

fn parse_u64(it: &mut std::slice::Iter<String>, flag: &str) -> Result<u64, Failure> {
    it.next()
        .ok_or_else(|| Failure::usage(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| Failure::usage(format!("{flag} needs an integer")))
}

fn parse_f64(it: &mut std::slice::Iter<String>, flag: &str) -> Result<f64, Failure> {
    it.next()
        .ok_or_else(|| Failure::usage(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| Failure::usage(format!("{flag} needs a number")))
}

/// Load and validate a trained predict model against this binary's
/// feature schema and pass-fingerprint epoch. A stale model is a hard
/// error here — the CLI asked for it explicitly (the server, by
/// contrast, degrades to always-abstain).
fn load_model(path: &str) -> Result<PredictModel, Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Failure::new(EXIT_COMPILE, format!("cannot read model {path}: {e}")))?;
    PredictModel::load(&text, &grover_core::pass_fingerprint())
        .map_err(|e| Failure::new(EXIT_COMPILE, format!("model {path} rejected: {e}")))
}

/// Look up an app across the full 12-app suite (the 11 paper apps plus
/// the extension apps).
fn suite_app_by_id(id: &str) -> Option<App> {
    app_by_id(id).or_else(|| extension_apps().into_iter().find(|a| a.id == id))
}

/// The full 12-app suite in deterministic order.
fn suite_apps() -> Vec<App> {
    let mut apps = all_apps();
    apps.extend(extension_apps());
    apps
}

fn cmd_autotune(args: &[String], recorder: &Arc<dyn Recorder>) -> Result<(), Failure> {
    let mut app_id = None;
    let mut device = "SNB".to_string();
    let mut scale = Scale::Small;
    let mut strict = false;
    let mut json = false;
    let mut verify = true;
    let mut deadline: Option<Duration> = None;
    let mut retries: Option<u32> = None;
    let mut backoff = Duration::ZERO;
    let mut sequences: Option<Vec<String>> = None;
    let mut model_path: Option<String> = None;
    let mut predict_threshold: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--predict" => {
                model_path = Some(
                    it.next()
                        .ok_or_else(|| Failure::usage("--predict needs a model.json path"))?
                        .clone(),
                )
            }
            "--predict-threshold" => {
                predict_threshold = Some(parse_f64(&mut it, "--predict-threshold")?)
            }
            "--passes" => {
                // `;`-separated list of candidate sequence specs; each spec
                // is validated up front so a typo is a usage error, not a
                // mid-race failure.
                let raw = it
                    .next()
                    .ok_or_else(|| Failure::usage("--passes needs sequence spec(s)"))?;
                let mut specs = Vec::new();
                for part in raw.split(';').filter(|s| !s.trim().is_empty()) {
                    let seq = grover_core::Sequence::parse(part)
                        .map_err(|e| Failure::usage(format!("--passes: {e}")))?;
                    specs.push(seq.spec());
                }
                if specs.is_empty() {
                    return Err(Failure::usage("--passes needs at least one sequence"));
                }
                sequences = Some(specs);
            }
            "--device" => {
                device = it
                    .next()
                    .ok_or_else(|| Failure::usage("--device needs a name"))?
                    .clone()
            }
            "--scale" => {
                scale = match it
                    .next()
                    .ok_or_else(|| Failure::usage("--scale needs a value"))?
                    .as_str()
                {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => return Err(Failure::usage(format!("unknown scale `{other}`"))),
                }
            }
            "--strict" => strict = true,
            "--json" => json = true,
            "--no-verify" => verify = false,
            "--deadline-ms" => {
                deadline = Some(Duration::from_millis(parse_u64(&mut it, "--deadline-ms")?))
            }
            "--retries" => retries = Some(parse_u64(&mut it, "--retries")? as u32),
            "--backoff-ms" => backoff = Duration::from_millis(parse_u64(&mut it, "--backoff-ms")?),
            other if app_id.is_none() => app_id = Some(other.to_string()),
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let app_id = app_id.ok_or_else(|| Failure::usage("no application id (try `grover list`)"))?;
    let app = app_by_id(&app_id).ok_or_else(|| {
        Failure::new(
            EXIT_UNKNOWN_TARGET,
            format!("unknown app `{app_id}` (try `grover list`)"),
        )
    })?;

    if !json {
        println!("auto-tuning {} on {device} (scale {scale:?})", app.id);
    }
    let pair = prepare_pair(&app, scale).map_err(|e| Failure::new(EXIT_COMPILE, e))?;
    let prepare = app.prepare;
    let workload = Workload::new(move || {
        let p = prepare(scale);
        (p.ctx, p.args, p.nd)
    });

    let mut tuner = Tuner::new();
    tuner.recorder = recorder.clone();
    tuner.limits = Limits {
        deadline,
        ..Limits::default()
    };
    tuner.retry = RetryPolicy {
        // `--retries N` = N retries after the first attempt.
        max_attempts: retries.map_or(RetryPolicy::default().max_attempts, |r| r + 1),
        backoff,
    };
    tuner.verify_outputs = verify;
    tuner.sequences = sequences;
    // `--predict`: consult the trained model first and race only when it
    // abstains below the confidence threshold.
    if let Some(path) = &model_path {
        tuner.predictor = Some(Arc::new(load_model(path)?));
        if let Some(t) = predict_threshold {
            tuner.predict_threshold = t;
        }
    }

    // `tune` races the original against every candidate sequence — the
    // device-seeded set, or the `--passes` override.
    let d = tuner
        .tune(&pair.original, &device, &workload)
        .map_err(tune_failure)?;

    if json {
        println!("{}", decision_json(&app_id, scale, &d));
    } else {
        print_decision(&d);
    }
    if strict {
        if let Some(reason) = &d.fallback {
            return Err(Failure::new(
                EXIT_STRICT_FALLBACK,
                format!("tuning fell back to the original kernel: {reason}"),
            ));
        }
    }
    Ok(())
}

/// Map a tuner error (a failure of the *original* kernel or the tuner
/// itself — transformed-kernel failures are graceful fallbacks, not errors)
/// to its stable exit code.
fn tune_failure(e: TuneError) -> Failure {
    let code = match &e {
        TuneError::UnknownDevice(_) => EXIT_UNKNOWN_TARGET,
        TuneError::InvalidSequence(_) => EXIT_USAGE,
        TuneError::NothingToDisable(_) => EXIT_COMPILE,
        TuneError::Execution(_) => EXIT_EXEC,
        TuneError::Panicked(_) => EXIT_PANIC,
        TuneError::Deadline => EXIT_DEADLINE,
        TuneError::Internal(_) => 1,
    };
    Failure::new(code, e.to_string())
}

fn print_decision(d: &Decision) {
    if let Some(conf) = d.predicted {
        println!("  predicted by model (confidence {conf:.3}); np is the model's estimate — zero launches");
    }
    println!("  with local memory   : {:>12} cycles", d.cycles_with);
    if d.cycles_without > 0 {
        println!("  without local memory: {:>12} cycles", d.cycles_without);
    } else {
        println!("  without local memory:   (no completed measurement)");
    }
    println!("  normalized performance np = {:.3}", d.np);
    println!("  winning sequence: {}", d.sequence);
    if let Some(reason) = &d.fallback {
        println!("  fallback: {reason}");
        println!("  verdict: keep the ORIGINAL kernel (graceful fallback)");
        return;
    }
    match d.choice {
        Choice::WithoutLocalMemory => {
            println!("  verdict: use the GROVER-TRANSFORMED kernel (local memory disabled)")
        }
        Choice::WithLocalMemory => {
            println!("  verdict: keep the ORIGINAL kernel (local memory enabled)")
        }
        Choice::Similar => println!("  verdict: both versions perform similarly (within 5%)"),
    }
}

/// `grover profile <app-id>`: run both kernel versions on the same
/// workload, tally per-address-space traffic with a [`CountingSink`], and
/// report the side-by-side deltas — what the transform eliminated (local
/// traffic, barriers) and what it added (direct global loads), the
/// paper's §VI-C reasons analysis — plus the pass's per-buffer outcomes.
fn cmd_profile(args: &[String], recorder: &Arc<dyn Recorder>) -> Result<(), Failure> {
    let mut app_id = None;
    let mut scale = Scale::Small;
    let mut json = false;
    let mut ops = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = match it
                    .next()
                    .ok_or_else(|| Failure::usage("--scale needs a value"))?
                    .as_str()
                {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => return Err(Failure::usage(format!("unknown scale `{other}`"))),
                }
            }
            "--json" => json = true,
            "--ops" => ops = true,
            other if app_id.is_none() => app_id = Some(other.to_string()),
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let app_id = app_id.ok_or_else(|| Failure::usage("no application id (try `grover list`)"))?;
    let app = app_by_id(&app_id).ok_or_else(|| {
        Failure::new(
            EXIT_UNKNOWN_TARGET,
            format!("unknown app `{app_id}` (try `grover list`)"),
        )
    })?;
    let pair = prepare_pair(&app, scale).map_err(|e| Failure::new(EXIT_COMPILE, e))?;
    if ops {
        return cmd_profile_ops(&app_id, &app, scale, json, &pair);
    }

    let rec = &**recorder;
    let span = rec.enabled().then(|| rec.span_start("profile", None));
    if let Some(span) = span {
        rec.span_attr(span, "app", Value::from(app_id.as_str()));
        rec.span_attr(span, "scale", Value::from(scale_name(scale)));
    }
    let run = |kernel, version: &str| -> Result<CountingSink, Failure> {
        let mut sink = CountingSink::default();
        run_prepared_observed(
            kernel,
            (app.prepare)(scale),
            &mut sink,
            Backend::default(),
            rec,
            span,
        )
        .map_err(|e| Failure::new(EXIT_EXEC, format!("{version} kernel: {e}")))?;
        Ok(sink)
    };
    let original = run(&pair.original, "original");
    let transformed = original
        .as_ref()
        .ok()
        .map(|_| run(&pair.transformed, "transformed"));
    if let Some(span) = span {
        rec.span_end(span);
    }
    let original = original?;
    let transformed = transformed.expect("transformed runs when the original succeeded")?;

    if json {
        println!(
            "{}",
            profile_json(&app_id, scale, &pair, &original, &transformed)
        );
    } else {
        print_profile(&app_id, scale, &pair, &original, &transformed);
    }
    Ok(())
}

/// The `--ops` arm of `grover profile`: run both kernel versions on the
/// bytecode backend with the per-opcode profiler enabled and print the
/// executed-op counts and charge units per opcode kind and per basic
/// block. Each version's `total_charged` is checked against the launch's
/// `LaunchStats::instructions` — a mismatch is an internal error, so the
/// report is reconciled by construction.
fn cmd_profile_ops(
    app_id: &str,
    app: &grover_kernels::App,
    scale: Scale,
    json: bool,
    pair: &KernelPair,
) -> Result<(), Failure> {
    let run = |kernel, version: &str| -> Result<(u64, grover_runtime::OpProfile), Failure> {
        let mut p = (app.prepare)(scale);
        let mut profile = None;
        let stats = grover_runtime::enqueue_observed(
            &mut p.ctx,
            kernel,
            &p.args,
            &p.nd,
            &mut grover_runtime::NullSink,
            &Limits::default(),
            Backend::Bytecode,
            &NoopRecorder,
            None,
            Some(&mut profile),
        )
        .map_err(|e| Failure::new(EXIT_EXEC, format!("{version} kernel: {e}")))?;
        let profile = profile.ok_or_else(|| {
            Failure::new(
                1,
                format!("{version} kernel: bytecode launch produced no profile"),
            )
        })?;
        if profile.total_charged != stats.instructions {
            return Err(Failure::new(
                1,
                format!(
                    "{version} kernel: profile does not reconcile: {} charge units != {} instructions",
                    profile.total_charged, stats.instructions
                ),
            ));
        }
        Ok((stats.instructions, profile))
    };
    let (o_insts, o) = run(&pair.original, "original")?;
    let (t_insts, t) = run(&pair.transformed, "transformed")?;

    if json {
        println!(
            "{}",
            Obj::new()
                .str("app", app_id)
                .str("scale", scale_name(scale))
                .str("backend", "bytecode")
                .str("kernel", &pair.original.name)
                .str("pass_fingerprint", &grover_core::pass_fingerprint())
                .raw("original", &op_profile_json(o_insts, &o))
                .raw("transformed", &op_profile_json(t_insts, &t))
                .finish()
        );
        return Ok(());
    }

    println!(
        "profile {app_id} --ops (scale {}, bytecode backend)",
        scale_name(scale)
    );
    println!("  kernel {}", pair.original.name);
    println!(
        "  {:<10}{:>12}{:>12} |{:>12}{:>12} |{:>12}",
        "opcode", "count", "charged", "count", "charged", "delta"
    );
    println!(
        "  {:<10}{:>12}{:>12} |{:>12}{:>12} |",
        "", "original", "original", "transformed", "transformed"
    );
    let charged_of = |p: &grover_runtime::OpProfile, kind: &str| {
        p.ops
            .iter()
            .find(|r| r.kind == kind)
            .map(|r| (r.count, r.charged))
            .unwrap_or((0, 0))
    };
    let mut kinds: Vec<&'static str> = o.ops.iter().map(|r| r.kind).collect();
    for r in &t.ops {
        if !kinds.contains(&r.kind) {
            kinds.push(r.kind);
        }
    }
    for kind in kinds {
        let (oc, och) = charged_of(&o, kind);
        let (tc, tch) = charged_of(&t, kind);
        println!(
            "  {:<10}{:>12}{:>12} |{:>12}{:>12} |{:>+12}",
            kind,
            oc,
            och,
            tc,
            tch,
            delta(och, tch)
        );
    }
    println!(
        "  {:<10}{:>12}{:>12} |{:>12}{:>12} |{:>+12}",
        "total",
        o.total_count,
        o.total_charged,
        t.total_count,
        t.total_charged,
        delta(o.total_charged, t.total_charged)
    );
    for (version, insts, p) in [("original", o_insts, &o), ("transformed", t_insts, &t)] {
        println!(
            "  {version}: {} ops executed, {} charge units == {insts} instructions (reconciled)",
            p.total_count, p.total_charged
        );
        for b in &p.blocks {
            let label = match b.first_value {
                Some(v) => format!("block {} (v{})", b.block, v),
                None => format!("block {}", b.block),
            };
            println!("    {:<16}{:>12}{:>12}", label, b.count, b.charged);
        }
    }
    Ok(())
}

/// One version's per-opcode profile as JSON — the schema the CI
/// `obs-smoke` job validates: `instructions`, `total_count`,
/// `total_charged`, `ops: [{kind, count, charged}]`,
/// `blocks: [{block, first_value, count, charged}]`.
fn op_profile_json(instructions: u64, p: &grover_runtime::OpProfile) -> String {
    let ops = array(p.ops.iter().map(|r| {
        Obj::new()
            .str("kind", r.kind)
            .u64("count", r.count)
            .u64("charged", r.charged)
            .finish()
    }));
    let blocks = array(p.blocks.iter().map(|b| {
        let obj = Obj::new().u64("block", b.block as u64);
        let obj = match b.first_value {
            Some(v) => obj.u64("first_value", v as u64),
            None => obj.null("first_value"),
        };
        obj.u64("count", b.count).u64("charged", b.charged).finish()
    }));
    Obj::new()
        .u64("instructions", instructions)
        .u64("total_count", p.total_count)
        .u64("total_charged", p.total_charged)
        .raw("ops", &ops)
        .raw("blocks", &blocks)
        .finish()
}

/// `transformed - original`, signed.
fn delta(original: u64, transformed: u64) -> i64 {
    transformed as i64 - original as i64
}

/// The side-by-side traffic rows of the profile report.
fn profile_rows(o: &CountingSink, t: &CountingSink) -> Vec<(&'static str, u64, u64)> {
    vec![
        ("global loads", o.global_loads, t.global_loads),
        ("global stores", o.global_stores, t.global_stores),
        ("local loads", o.local_loads, t.local_loads),
        ("local stores", o.local_stores, t.local_stores),
        ("constant loads", o.constant_loads, t.constant_loads),
        ("private loads", o.private_loads, t.private_loads),
        ("private stores", o.private_stores, t.private_stores),
        ("barriers", o.barriers, t.barriers),
        ("instructions", o.instructions, t.instructions),
        ("bytes loaded", o.bytes_loaded, t.bytes_loaded),
        ("bytes stored", o.bytes_stored, t.bytes_stored),
        (
            "global bytes loaded",
            o.global_bytes.loaded,
            t.global_bytes.loaded,
        ),
        (
            "global bytes stored",
            o.global_bytes.stored,
            t.global_bytes.stored,
        ),
        (
            "local bytes loaded",
            o.local_bytes.loaded,
            t.local_bytes.loaded,
        ),
        (
            "local bytes stored",
            o.local_bytes.stored,
            t.local_bytes.stored,
        ),
    ]
}

fn print_profile(
    app_id: &str,
    scale: Scale,
    pair: &KernelPair,
    o: &CountingSink,
    t: &CountingSink,
) {
    println!("profile {app_id} (scale {})", scale_name(scale));
    println!(
        "  {:<22}{:>14}{:>14}{:>14}",
        "metric", "original", "transformed", "delta"
    );
    for (label, ov, tv) in profile_rows(o, t) {
        println!("  {:<22}{:>14}{:>14}{:>+14}", label, ov, tv, delta(ov, tv));
    }
    println!("  reasons (paper §VI-C):");
    println!(
        "    local loads eliminated : {}",
        o.local_loads.saturating_sub(t.local_loads)
    );
    println!(
        "    local stores eliminated: {}",
        o.local_stores.saturating_sub(t.local_stores)
    );
    println!(
        "    global loads added     : {:+}",
        delta(o.global_loads, t.global_loads)
    );
    println!(
        "    barriers removed       : {}",
        o.barriers.saturating_sub(t.barriers)
    );
    println!(
        "  pass: {} barrier(s), {} instruction(s) removed statically (sequence {})",
        pair.report.barriers_removed,
        pair.report.insts_removed,
        grover_core::Sequence::default_pipeline()
    );
    println!("  buffers:");
    for b in &pair.report.buffers {
        let reason = b
            .outcome
            .reason()
            .map(|r| format!(" ({r})"))
            .unwrap_or_default();
        let solutions = if b.solutions.is_empty() {
            String::new()
        } else {
            format!("  solve {}", b.solutions.join("; "))
        };
        println!(
            "    __local {}: {}{reason}{solutions}",
            b.buffer,
            b.outcome.kind()
        );
    }
}

fn space_json(loaded: u64, stored: u64) -> String {
    Obj::new()
        .u64("loaded", loaded)
        .u64("stored", stored)
        .finish()
}

fn counts_json(c: &CountingSink) -> String {
    Obj::new()
        .u64("global_loads", c.global_loads)
        .u64("global_stores", c.global_stores)
        .u64("local_loads", c.local_loads)
        .u64("local_stores", c.local_stores)
        .u64("constant_loads", c.constant_loads)
        .u64("private_loads", c.private_loads)
        .u64("private_stores", c.private_stores)
        .u64("barriers", c.barriers)
        .u64("instructions", c.instructions)
        .u64("bytes_loaded", c.bytes_loaded)
        .u64("bytes_stored", c.bytes_stored)
        .raw(
            "global_bytes",
            &space_json(c.global_bytes.loaded, c.global_bytes.stored),
        )
        .raw(
            "local_bytes",
            &space_json(c.local_bytes.loaded, c.local_bytes.stored),
        )
        .raw(
            "constant_bytes",
            &space_json(c.constant_bytes.loaded, c.constant_bytes.stored),
        )
        .finish()
}

fn profile_json(
    app_id: &str,
    scale: Scale,
    pair: &KernelPair,
    o: &CountingSink,
    t: &CountingSink,
) -> String {
    let delta_obj = Obj::new()
        .i64("local_loads_removed", delta(t.local_loads, o.local_loads))
        .i64(
            "local_stores_removed",
            delta(t.local_stores, o.local_stores),
        )
        .i64("global_loads_added", delta(o.global_loads, t.global_loads))
        .i64(
            "global_stores_added",
            delta(o.global_stores, t.global_stores),
        )
        .i64("barriers_removed", delta(t.barriers, o.barriers))
        .i64("instructions", delta(o.instructions, t.instructions))
        .i64("bytes_loaded", delta(o.bytes_loaded, t.bytes_loaded))
        .i64("bytes_stored", delta(o.bytes_stored, t.bytes_stored))
        .i64(
            "global_bytes_loaded",
            delta(o.global_bytes.loaded, t.global_bytes.loaded),
        )
        .i64(
            "local_bytes_loaded",
            delta(o.local_bytes.loaded, t.local_bytes.loaded),
        )
        .finish();
    let buffers = array(pair.report.buffers.iter().map(|b| {
        let obj = Obj::new()
            .str("buffer", &b.buffer)
            .str("outcome", b.outcome.kind());
        let obj = match b.outcome.reason() {
            Some(r) => obj.str("reason", &r),
            None => obj.null("reason"),
        };
        obj.raw(
            "solutions",
            &array(b.solutions.iter().map(|s| grover_obs::json::escape(s))),
        )
        .finish()
    }));
    let pass = Obj::new()
        .u64("barriers_removed", pair.report.barriers_removed as u64)
        .u64("insts_removed", pair.report.insts_removed as u64)
        .bool("all_removed", pair.report.all_removed())
        .finish();
    Obj::new()
        .str("app", app_id)
        .str("scale", scale_name(scale))
        .str("backend", Backend::default().name())
        .str("kernel", &pair.original.name)
        .str("pass_fingerprint", &grover_core::pass_fingerprint())
        // `prepare_pair` applies the default pipeline; record it so the
        // profile names the sequence the deltas belong to.
        .str(
            "sequence",
            &grover_core::Sequence::default_pipeline().spec(),
        )
        .raw("original", &counts_json(o))
        .raw("transformed", &counts_json(t))
        .raw("delta", &delta_obj)
        .raw("buffers", &buffers)
        .raw("pass", &pass)
        .finish()
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

fn decision_json(app_id: &str, scale: Scale, d: &Decision) -> String {
    let obj = Obj::new()
        .str("app", app_id)
        .str("device", &d.device)
        .str("scale", scale_name(scale))
        .str("backend", Backend::default().name())
        .str("pass_fingerprint", &grover_core::pass_fingerprint());
    let obj = d.write_fields(obj);
    let obj = match d.predicted {
        Some(conf) => obj.bool("predicted", true).f64("confidence", conf),
        None => obj.bool("predicted", false).null("confidence"),
    };
    obj.finish()
}

fn cmd_classify(args: &[String]) -> Result<(), Failure> {
    let mut path = None;
    let mut opts = BuildOptions::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-D" => {
                let d = it
                    .next()
                    .ok_or_else(|| Failure::usage("-D needs an argument"))?;
                let (n, v) = d.split_once('=').unwrap_or((d.as_str(), "1"));
                opts = opts.define(n, v);
            }
            other if other.starts_with("-D") => {
                let d = &other[2..];
                let (n, v) = d.split_once('=').unwrap_or((d, "1"));
                opts = opts.define(n, v);
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| Failure::usage("no input file"))?;
    let source = std::fs::read_to_string(&path)
        .map_err(|e| Failure::new(EXIT_COMPILE, format!("cannot read {path}: {e}")))?;
    let module =
        compile(&source, &opts).map_err(|e| Failure::new(EXIT_COMPILE, format!("{path}: {e}")))?;
    for kernel in &module.kernels {
        println!("kernel {}:", kernel.name);
        let classes = grover_core::classify(kernel);
        if classes.is_empty() {
            println!("  (no __local buffers)");
        }
        for c in classes {
            println!(
                "  __local {:<12} {:<22?} {} loads, {} stores, {}  — {}",
                c.buffer,
                c.pattern,
                c.loads,
                c.stores,
                if c.synchronised {
                    "synchronised"
                } else {
                    "NOT synchronised"
                },
                c.pattern.describe()
            );
        }
    }
    Ok(())
}

fn cmd_fuzz(args: &[String], recorder: &Arc<dyn Recorder>) -> Result<(), Failure> {
    let mut seed = 42u64;
    let mut cases = 200u64;
    let mut json = false;
    let mut out_dir = "fuzz-regressions".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = parse_u64(&mut it, "--seed")?,
            "--cases" => cases = parse_u64(&mut it, "--cases")?,
            "--json" => json = true,
            "--out-dir" => {
                out_dir = it
                    .next()
                    .ok_or_else(|| Failure::usage("--out-dir needs a path"))?
                    .clone()
            }
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let opts = grover_fuzz::CampaignOptions {
        seed,
        cases,
        out_dir: Some(out_dir.clone().into()),
    };
    let summary = grover_fuzz::run_campaign(&opts, recorder.as_ref());
    if json {
        println!("{}", summary.to_json());
    } else {
        print!("{}", summary.to_text());
    }
    if summary.ok() {
        Ok(())
    } else {
        Err(Failure::new(
            EXIT_FUZZ,
            format!(
                "{} of {} fuzz cases failed; shrunk reproducers under {out_dir}/",
                summary.failures.len(),
                cases
            ),
        ))
    }
}

/// `grover predict <app-id>`: answer the tuning question from a trained
/// model. Runs the tuner with the model as its predictor — a confident
/// prediction is served with zero launches; an abstention falls back to
/// the measured race and the decision reports whether the model agreed.
fn cmd_predict(args: &[String], recorder: &Arc<dyn Recorder>) -> Result<(), Failure> {
    let mut app_id = None;
    let mut device = "SNB".to_string();
    let mut scale = Scale::Small;
    let mut model_path: Option<String> = None;
    let mut threshold: Option<f64> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => {
                model_path = Some(
                    it.next()
                        .ok_or_else(|| Failure::usage("--model needs a model.json path"))?
                        .clone(),
                )
            }
            "--device" => {
                device = it
                    .next()
                    .ok_or_else(|| Failure::usage("--device needs a name"))?
                    .clone()
            }
            "--scale" => scale = parse_scale(&mut it)?,
            "--predict-threshold" => threshold = Some(parse_f64(&mut it, "--predict-threshold")?),
            "--json" => json = true,
            other if app_id.is_none() => app_id = Some(other.to_string()),
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let app_id = app_id.ok_or_else(|| Failure::usage("no application id (try `grover list`)"))?;
    let model_path = model_path.ok_or_else(|| Failure::usage("--model is required"))?;
    let app = suite_app_by_id(&app_id).ok_or_else(|| {
        Failure::new(
            EXIT_UNKNOWN_TARGET,
            format!("unknown app `{app_id}` (try `grover list`)"),
        )
    })?;
    let model = load_model(&model_path)?;
    let pair = prepare_pair(&app, scale).map_err(|e| Failure::new(EXIT_COMPILE, e))?;
    let prepare = app.prepare;
    let workload = Workload::new(move || {
        let p = prepare(scale);
        (p.ctx, p.args, p.nd)
    });

    let mut tuner = Tuner::new();
    tuner.recorder = recorder.clone();
    tuner.predictor = Some(Arc::new(model));
    if let Some(t) = threshold {
        tuner.predict_threshold = t;
    }
    let d = tuner
        .tune(&pair.original, &device, &workload)
        .map_err(tune_failure)?;

    if json {
        println!("{}", decision_json(&app_id, scale, &d));
    } else {
        if d.predicted.is_none() {
            println!(
                "model abstained below threshold {:.3}; fell back to the measured race ({} launch(es))",
                tuner.predict_threshold,
                tuner.launches_run()
            );
        }
        print_decision(&d);
    }
    Ok(())
}

fn parse_scale(it: &mut std::slice::Iter<String>) -> Result<Scale, Failure> {
    match it
        .next()
        .ok_or_else(|| Failure::usage("--scale needs a value"))?
        .as_str()
    {
        "test" => Ok(Scale::Test),
        "small" => Ok(Scale::Small),
        "paper" => Ok(Scale::Paper),
        other => Err(Failure::usage(format!("unknown scale `{other}`"))),
    }
}

/// `grover train`: fit the per-device scorer from a JSONL corpus and
/// write the versioned `model.json`.
fn cmd_train(args: &[String]) -> Result<(), Failure> {
    let mut corpus_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut cfg = TrainConfig::default();
    let mut eval = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--corpus" => {
                corpus_path = Some(
                    it.next()
                        .ok_or_else(|| Failure::usage("--corpus needs a file"))?
                        .clone(),
                )
            }
            "--out" => {
                out_path = Some(
                    it.next()
                        .ok_or_else(|| Failure::usage("--out needs a file"))?
                        .clone(),
                )
            }
            "--iters" => cfg.iterations = parse_u64(&mut it, "--iters")? as u32,
            "--l2" => cfg.l2 = parse_f64(&mut it, "--l2")?,
            "--learning-rate" => cfg.learning_rate = parse_f64(&mut it, "--learning-rate")?,
            "--threshold" => cfg.threshold = parse_f64(&mut it, "--threshold")?,
            "--eval" => eval = true,
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let corpus_path = corpus_path.ok_or_else(|| Failure::usage("--corpus is required"))?;
    let out_path = out_path.ok_or_else(|| Failure::usage("--out is required"))?;
    let epoch = grover_core::pass_fingerprint();
    let text = std::fs::read_to_string(&corpus_path)
        .map_err(|e| Failure::new(EXIT_COMPILE, format!("cannot read {corpus_path}: {e}")))?;
    let rows = parse_corpus(&text, &epoch)
        .map_err(|e| Failure::new(EXIT_COMPILE, format!("{corpus_path}: {e}")))?;
    if rows.is_empty() {
        return Err(Failure::new(EXIT_COMPILE, "corpus contains no rows"));
    }
    let training = train_rows(&rows);
    let model = PredictModel::train(&training, &epoch, &cfg);
    std::fs::write(&out_path, model.to_json() + "\n")
        .map_err(|e| Failure::new(1, format!("cannot write {out_path}: {e}")))?;
    println!(
        "trained {} device model(s) from {} rows -> {out_path}",
        model.devices.len(),
        rows.len()
    );
    println!(
        "  feature schema: v{} {}",
        model.schema_version, model.schema_hash
    );
    println!("  pass fingerprint epoch: {}", model.epoch);
    for (dev, dm) in &model.devices {
        println!("  {dev}: {} training rows", dm.training_rows());
    }
    if eval {
        let report = evaluate_loo(&training, &epoch, &cfg);
        println!("leave-one-kernel-out evaluation:");
        println!(
            "  {:<10}{:>8}{:>8}{:>10}",
            "device", "agree", "total", "accuracy"
        );
        for (dev, agree, total) in report.by_device() {
            let acc = if total == 0 {
                1.0
            } else {
                agree as f64 / total as f64
            };
            println!("  {:<10}{:>8}{:>8}{:>10.3}", dev, agree, total, acc);
        }
        println!(
            "  overall accuracy {:.3} over {} cases; max wrong-case confidence {:.3}",
            report.accuracy(),
            report.cases.len(),
            report.max_wrong_confidence()
        );
    }
    Ok(())
}

/// `grover corpus export`: dump the JSONL training table — from a serve
/// journal (`--cache-dir`) or by racing the bundled suite on the spot.
fn cmd_corpus(args: &[String], recorder: &Arc<dyn Recorder>) -> Result<(), Failure> {
    let Some(("export", rest)) = args.split_first().map(|(a, r)| (a.as_str(), r)) else {
        return Err(Failure::usage(
            "usage: grover corpus export [--out FILE] ...",
        ));
    };
    let mut out_path: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut scale = Scale::Test;
    let mut verify = true;
    let mut devices: Option<Vec<String>> = None;
    let mut apps_filter: Option<Vec<String>> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out_path = Some(
                    it.next()
                        .ok_or_else(|| Failure::usage("--out needs a file"))?
                        .clone(),
                )
            }
            "--cache-dir" => {
                cache_dir = Some(
                    it.next()
                        .ok_or_else(|| Failure::usage("--cache-dir needs a path"))?
                        .clone(),
                )
            }
            "--scale" => scale = parse_scale(&mut it)?,
            "--no-verify" => verify = false,
            "--devices" => {
                devices = Some(
                    it.next()
                        .ok_or_else(|| Failure::usage("--devices needs a comma-separated list"))?
                        .split(',')
                        .filter(|s| !s.trim().is_empty())
                        .map(str::to_string)
                        .collect(),
                )
            }
            "--apps" => {
                apps_filter = Some(
                    it.next()
                        .ok_or_else(|| Failure::usage("--apps needs a comma-separated list"))?
                        .split(',')
                        .filter(|s| !s.trim().is_empty())
                        .map(str::to_string)
                        .collect(),
                )
            }
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let epoch = grover_core::pass_fingerprint();
    let lines = match cache_dir {
        Some(dir) => export_journal_corpus(&dir, &epoch)?,
        None => export_suite_corpus(
            recorder,
            scale,
            verify,
            devices.as_deref(),
            apps_filter.as_deref(),
            &epoch,
        )?,
    };
    if lines.is_empty() {
        return Err(Failure::new(EXIT_COMPILE, "corpus export produced no rows"));
    }
    let text = lines.join("\n") + "\n";
    match out_path {
        Some(path) => {
            std::fs::write(&path, &text)
                .map_err(|e| Failure::new(1, format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {} corpus row(s) to {path}", lines.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Journal mode: every live record that carries a feature vector under
/// this binary's schema becomes a corpus row (app = the tune-key
/// fingerprint). Rows persisted before predictive tuning, or under a
/// different schema, are skipped and counted.
fn export_journal_corpus(dir: &str, epoch: &str) -> Result<Vec<String>, Failure> {
    // A compact threshold of usize::MAX guarantees the export never
    // rewrites the journal it is reading.
    let (store, _stats) = grover_serve::DecisionStore::open(dir.as_ref(), epoch, usize::MAX)
        .map_err(|e| Failure::new(1, format!("cannot open journal in {dir}: {e}")))?;
    let ours = schema_hash();
    let mut lines = Vec::new();
    let mut skipped = 0usize;
    for rec in store.live_records() {
        let row = match (&rec.feature_schema_hash, &rec.features) {
            (Some(hash), Some(values)) if *hash == ours => {
                match (
                    Verdict::parse(&rec.choice),
                    FeatureVector::from_values(values.clone()),
                ) {
                    (Some(choice), Ok(features)) => Some(CorpusRow {
                        app: rec.fingerprint.clone(),
                        kernel: rec.kernel.clone(),
                        device: rec.device.clone(),
                        choice,
                        np: rec.np,
                        cycles_with: rec.cycles_with,
                        cycles_without: rec.cycles_without,
                        features,
                    }),
                    _ => None,
                }
            }
            _ => None,
        };
        match row {
            Some(r) => lines.push(r.to_json(epoch)),
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!("skipped {skipped} journal record(s) without a matching feature vector");
    }
    Ok(lines)
}

/// Suite mode: race every requested app × device pair and join the
/// measured decision with the original kernel's static features — the
/// fixture generator for the predict tests.
fn export_suite_corpus(
    recorder: &Arc<dyn Recorder>,
    scale: Scale,
    verify: bool,
    devices: Option<&[String]>,
    apps_filter: Option<&[String]>,
    epoch: &str,
) -> Result<Vec<String>, Failure> {
    let device_names: Vec<String> = match devices {
        Some(list) => list.to_vec(),
        None => grover_predict::known_devices()
            .iter()
            .map(|d| d.to_string())
            .collect(),
    };
    let apps: Vec<App> = match apps_filter {
        Some(ids) => ids
            .iter()
            .map(|id| {
                suite_app_by_id(id)
                    .ok_or_else(|| Failure::new(EXIT_UNKNOWN_TARGET, format!("unknown app `{id}`")))
            })
            .collect::<Result<_, _>>()?,
        None => suite_apps(),
    };
    let mut lines = Vec::new();
    for app in &apps {
        let pair = prepare_pair(app, scale)
            .map_err(|e| Failure::new(EXIT_COMPILE, format!("{}: {e}", app.id)))?;
        let nd = (app.prepare)(scale).nd;
        let features = FeatureVector::extract(&pair.original, nd.global, nd.local);
        for device in &device_names {
            let prepare = app.prepare;
            let workload = Workload::new(move || {
                let p = prepare(scale);
                (p.ctx, p.args, p.nd)
            });
            let mut tuner = Tuner::new();
            tuner.recorder = recorder.clone();
            tuner.verify_outputs = verify;
            let d = tuner
                .tune(&pair.original, device, &workload)
                .map_err(tune_failure)?;
            let choice = Verdict::parse(d.choice.kind())
                .expect("tuner choice tags and predict verdict tags coincide");
            let row = CorpusRow {
                app: app.id.to_string(),
                kernel: pair.original.name.clone(),
                device: device.clone(),
                choice,
                np: d.np,
                cycles_with: d.cycles_with,
                cycles_without: d.cycles_without,
                features: features.clone(),
            };
            lines.push(row.to_json(epoch));
        }
    }
    Ok(lines)
}

/// `grover serve`: run the tuning-cache service until a graceful
/// shutdown is requested over HTTP.
fn cmd_serve(args: &[String], recorder: &Arc<dyn Recorder>) -> Result<(), Failure> {
    let mut config = grover_serve::ServeConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..grover_serve::ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                config.addr = it
                    .next()
                    .ok_or_else(|| Failure::usage("--addr needs HOST:PORT"))?
                    .clone()
            }
            "--cache-dir" => {
                config.cache_dir = it
                    .next()
                    .ok_or_else(|| Failure::usage("--cache-dir needs a path"))?
                    .into()
            }
            "--threads" => config.workers = parse_u64(&mut it, "--threads")? as usize,
            "--queue-depth" => config.queue_depth = parse_u64(&mut it, "--queue-depth")? as usize,
            "--cache-capacity" => {
                config.cache_capacity = parse_u64(&mut it, "--cache-capacity")? as usize
            }
            "--max-deadline-ms" => {
                config.max_deadline = Some(Duration::from_millis(parse_u64(
                    &mut it,
                    "--max-deadline-ms",
                )?))
            }
            "--breaker-threshold" => {
                config.breaker_threshold = parse_u64(&mut it, "--breaker-threshold")? as u32
            }
            "--breaker-cooldown-ms" => {
                config.breaker_cooldown =
                    Duration::from_millis(parse_u64(&mut it, "--breaker-cooldown-ms")?)
            }
            "--io-timeout-ms" => {
                let ms = parse_u64(&mut it, "--io-timeout-ms")?;
                config.io_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--compact-threshold" => {
                config.compact_threshold = parse_u64(&mut it, "--compact-threshold")? as usize
            }
            "--flight-capacity" => {
                config.flight_capacity = parse_u64(&mut it, "--flight-capacity")? as usize
            }
            "--profile-ops" => config.profile_ops = true,
            "--model" => {
                config.model_path = Some(
                    it.next()
                        .ok_or_else(|| Failure::usage("--model needs a model.json path"))?
                        .into(),
                )
            }
            "--predict-threshold" => {
                config.predict_threshold = parse_f64(&mut it, "--predict-threshold")?
            }
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let server = grover_serve::Server::start(config, recorder.clone())
        .map_err(|e| Failure::new(1, format!("cannot start server: {e}")))?;
    println!("grover-serve listening on {}", server.addr());
    println!("  pass fingerprint: {}", grover_core::pass_fingerprint());
    println!(
        "  stop with: curl -X POST http://{}/admin/shutdown",
        server.addr()
    );
    server.wait();
    println!("grover-serve stopped");
    Ok(())
}

fn cmd_list() -> Result<(), Failure> {
    println!("{:<11} description", "ID");
    for app in all_apps() {
        println!("{:<11} {}", app.id, app.description);
    }
    Ok(())
}
