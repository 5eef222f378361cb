//! `grover-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics as the last line of standard
//! output; the readable report and provenance go to standard error and,
//! with the spans of a traced run, to `.bench_out/` in the working
//! directory. `--record` instead prints a fresh expected-decision table.
//!
//! An untraced run measures in [`PARTS`] child processes, one after the
//! other, and reports rates and memory as medians over them: a part slowed
//! by a burst of load on a shared host, or by its own memory layout, moves
//! that median less than it moves one long measurement.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use grover_obs::json::{self, Obj};
use grover_obs::{MemoryRecorder, Snapshot};
use grover_perfbench::expected::Table;
use grover_perfbench::probe::probe;
use grover_perfbench::report::{
    end_to_end, end_to_end_notes, layer_totals, per_layer, program_jsonl, provenance, result_line,
    Metric,
};
use grover_perfbench::spans::Spans;
use grover_perfbench::stats::{peak_rss_mb, Rng};
use grover_perfbench::workloads::{self, reference_check, Outcome, Run, NAMES};

/// Child processes an untraced run measures in.
const PARTS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    /// Set in a child process: which part of the parent's run it is.
    part: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: false,
        part: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--part" => args.part = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.record && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(".bench_out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let result = if args.record {
        workloads::record(&scratch).map(|t| print!("{}", t.render()))
    } else if let Some(part) = args.part {
        run_part(&args, part, &scratch)
    } else {
        run(&args, out_dir, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// A child process: run one part untraced and print its outcome.
fn run_part(args: &Args, part: u64, scratch: &Path) -> Result<(), String> {
    let table = Table::committed();
    let out = workloads::run(
        &args.workload,
        &Run {
            seed: Rng::new(args.seed, part).next_u64(),
            seconds: args.seconds,
            table: &table,
            scratch,
            program: None,
        },
    )?;
    println!("{}", out.to_json(peak_rss_mb()));
    Ok(())
}

/// Run the parts of an untraced run one after the other. Returns every
/// part's outcome and peak RSS.
fn run_parts(args: &Args) -> Result<Vec<(Outcome, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..PARTS as u64)
        .map(|part| {
            let child = Command::new(&exe)
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &(args.seconds / PARTS as f64).to_string()])
                .args(["--part", &part.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("part {part}: {e}"))?;
            if !child.status.success() {
                return Err(format!("part {part} exited with {}", child.status));
            }
            let text = String::from_utf8_lossy(&child.stdout);
            let line = text
                .lines()
                .last()
                .ok_or_else(|| format!("part {part}: no report"))?;
            Outcome::from_json(line)
        })
        .collect()
}

fn run(args: &Args, out_dir: &Path, scratch: &Path) -> Result<(), String> {
    let w = args.workload.as_str();
    let mut total: Outcome;
    let metrics: Vec<Metric>;
    let mut notes = Vec::new();
    let bench = Spans::default();
    let mut program = Snapshot::default();
    if args.trace {
        // Half the time untraced, half traced: the ratio of the two is
        // the tracing overhead. Then the layer probe.
        let table = Table::committed();
        let base = |program: Option<Arc<MemoryRecorder>>| Run {
            seed: args.seed,
            seconds: args.seconds / 2.0,
            table: &table,
            scratch,
            program,
        };
        let untraced = workloads::run(w, &base(None))?;
        let recorder = Arc::new(MemoryRecorder::new());
        let traced = workloads::run(w, &base(Some(recorder.clone())))?;
        program = recorder.snapshot();
        let (apps, devices) = workloads::cases(w);
        let t = Instant::now();
        let derived = probe(&apps, devices, &bench, scratch)?;
        notes.push(format!("layer probe {} s", t.elapsed().as_secs_f64()));
        metrics = per_layer(devices, &untraced, &traced, &program, &bench, &derived);
        total = untraced;
        total.absorb_checks(traced);
    } else {
        let parts = run_parts(args)?;
        metrics = end_to_end(w, &parts);
        notes = end_to_end_notes(w, &parts);
        total = Outcome::default();
        for (part, _) in parts {
            total.absorb_checks(part);
        }
    }
    reference_check(&mut total);
    let correct = total.failed == 0;

    let params = [
        ("workload", w.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("clients", workloads::CLIENTS.to_string()),
        ("parts", if args.trace { 1 } else { PARTS }.to_string()),
    ];
    let build_info = provenance(&params);
    eprintln!("build-info {build_info}");
    for m in &metrics {
        eprintln!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for n in &notes {
        eprintln!("{n}");
    }
    for f in &total.failures {
        eprintln!("FAILED: {f}");
    }

    let stem = format!("{w}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let line = result_line(correct, total.attempted, total.failed, &metrics);
    let report = Obj::new()
        .raw("build_info", &build_info)
        .raw("result", &line)
        .raw(
            "failures",
            &json::array(total.failures.iter().map(|f| json::escape(f))),
        )
        .raw("layers", &layer_totals(&bench, &program))
        .finish();
    let write = |name: String, text: &str| {
        std::fs::write(out_dir.join(&name), text).map_err(|e| format!("{name}: {e}"))
    };
    write(format!("{stem}.json"), &(report + "\n"))?;
    if args.trace {
        write(
            format!("{stem}.spans.jsonl"),
            &(bench.jsonl() + &program_jsonl(&program)),
        )?;
    }
    println!("{line}");
    Ok(())
}
