//! Metrics from outcomes, the provenance block, and the result line.

use std::collections::{BTreeMap, HashMap};

use grover_obs::json::{self, Obj};
use grover_obs::Snapshot;

use crate::cases::SWEEP_DEVICES;
use crate::probe::Derived;
use crate::spans::Spans;
use crate::stats::{beyond, median, percentile};
use crate::workloads::Outcome;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The percentile `tail_ms` reports on each workload. `tune-suite` has
/// 11 sweeps per round, so p75 is the highest with ten samples beyond it.
/// On `serve-hit`, p90 sits inside the MIC-hit cluster (a third of all
/// hits); its p99 moves twice as much between runs on a shared host and
/// is printed, not bounded.
pub fn tail_percentile(workload: &str) -> f64 {
    match workload {
        "tune-suite" => 75.0,
        _ => 90.0,
    }
}

/// Successful ops per second: the median over the measured phase's
/// windows, so a burst of load on the host moves it less than a mean.
pub fn ops_per_s(o: &Outcome) -> f64 {
    median(&o.windows)
}

fn pooled(parts: &[(Outcome, f64)], f: impl Fn(&Outcome) -> &Vec<f64>) -> Vec<f64> {
    parts
        .iter()
        .flat_map(|(o, _)| f(o).iter().copied())
        .collect()
}

/// The end-to-end metrics of an untraced run made of `parts` (outcome and
/// peak RSS of each child process): percentiles over every sample of
/// every part, the rate as the median over every window of every part,
/// and memory as the median over parts.
pub fn end_to_end(workload: &str, parts: &[(Outcome, f64)]) -> Vec<Metric> {
    let latencies = pooled(parts, |o| &o.latencies_ms);
    let rates = pooled(parts, |o| &o.windows);
    let rss: Vec<f64> = parts.iter().map(|(_, r)| *r).collect();
    vec![
        metric("setup_s", median(&pooled(parts, |o| &o.setup_s)), "s"),
        metric("ops_per_s", median(&rates), "1/s"),
        metric("p50_ms", percentile(&latencies, 50.0), "ms"),
        metric(
            "tail_ms",
            percentile(&latencies, tail_percentile(workload)),
            "ms",
        ),
        metric("peak_rss_mb", median(&rss), "MiB"),
    ]
}

/// Human-readable extras printed with the end-to-end metrics: the tail
/// under its percentile's own name with its sample counts, the per-part
/// rates, and the error rate (which `attempted`/`failed` also carry).
pub fn end_to_end_notes(workload: &str, parts: &[(Outcome, f64)]) -> Vec<String> {
    let latencies = pooled(parts, |o| &o.latencies_ms);
    let p = tail_percentile(workload);
    let (failed, attempted) = parts
        .iter()
        .fold((0, 0), |(f, a), (o, _)| (f + o.failed, a + o.attempted));
    vec![
        format!(
            "p{p}_ms {} ms ({} samples, {} beyond it)",
            percentile(&latencies, p),
            latencies.len(),
            beyond(&latencies, p)
        ),
        format!(
            "p90_ms {} p95_ms {} p99_ms {}",
            percentile(&latencies, 90.0),
            percentile(&latencies, 95.0),
            percentile(&latencies, 99.0)
        ),
        format!(
            "error_rate {} ({failed} failed of {attempted} attempted)",
            ratio(failed as f64, attempted as f64)
        ),
        format!(
            "per part: ops_per_s {:?}, peak_rss_mb {:?}",
            parts.iter().map(|(o, _)| ops_per_s(o)).collect::<Vec<_>>(),
            parts.iter().map(|(_, r)| *r).collect::<Vec<_>>()
        ),
        format!("setup samples {:?} s", pooled(parts, |o| &o.setup_s)),
    ]
}

fn counter(o: &Outcome, name: &str) -> f64 {
    o.counters.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn durations_ms<'a>(snap: &'a Snapshot, name: &'a str) -> impl Iterator<Item = f64> + 'a {
    snap.spans
        .iter()
        .filter(move |s| s.name == name)
        .filter_map(|s| s.duration)
        .map(|d| d.as_secs_f64() * 1e3)
}

/// `(self ms, wait ms)` per measured request: the server's
/// `serve.request` span minus its `serve.tune` children, and the client
/// latency minus that span.
fn request_split(o: &Outcome, snap: &Snapshot) -> (Vec<f64>, Vec<f64>) {
    let mut tune_by_parent: HashMap<u64, f64> = HashMap::new();
    for s in snap.spans.iter().filter(|s| s.name == "serve.tune") {
        if let (Some(p), Some(d)) = (s.parent, s.duration) {
            *tune_by_parent.entry(p).or_default() += d.as_secs_f64() * 1e3;
        }
    }
    let by_trace: HashMap<String, (u64, f64)> = snap
        .spans
        .iter()
        .filter(|s| s.name == "serve.request")
        .filter_map(|s| Some((s.trace?.to_hex(), (s.id, s.duration?.as_secs_f64() * 1e3))))
        .collect();
    let mut own = Vec::new();
    let mut wait = Vec::new();
    for (trace, client_ms) in &o.requests {
        if let Some((id, server_ms)) = by_trace.get(trace) {
            own.push(server_ms - tune_by_parent.get(id).copied().unwrap_or(0.0));
            wait.push(client_ms - server_ms);
        }
    }
    (own, wait)
}

/// The per-layer metrics of a traced run. `untraced` and `traced` are the
/// two halves of the run; `program` holds the program's own spans of the
/// traced half, `bench` the probe's spans. A layer the workload does not
/// cross (the server, on `tune-suite`) reads 0.
pub fn per_layer(
    devices: &[&str],
    untraced: &Outcome,
    traced: &Outcome,
    program: &Snapshot,
    bench: &Spans,
    derived: &Derived,
) -> Vec<Metric> {
    let spans = bench.all();
    let samples = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms())
            .collect()
    };
    let med = |name: &str| median(&samples(name));
    let mut out = Vec::new();
    for name in [
        "frontend.compile_ms",
        "ir.optimize_ms",
        "core.sequence_ms",
        "runtime.launch_ms",
    ] {
        out.push(metric(name, med(name), "ms"));
    }
    let builds: Vec<f64> = devices
        .iter()
        .flat_map(|d| samples(&format!("devsim.build_ms.{d}")))
        .collect();
    out.push(metric("devsim.build_ms", median(&builds), "ms"));
    for d in SWEEP_DEVICES {
        let name = format!("devsim.build_ms.{d}");
        out.push(metric(&name, med(&name), "ms"));
    }
    out.push(metric(
        "devsim.simulate_ms",
        median(
            derived
                .get("devsim.simulate_ms")
                .map_or(&[][..], Vec::as_slice),
        ),
        "ms",
    ));
    out.push(metric(
        "tuner.launches_per_decision",
        ratio(counter(traced, "launches"), counter(traced, "decisions")),
        "count",
    ));
    let tunes: Vec<f64> = durations_ms(program, "tune").collect();
    let launch_total: f64 = durations_ms(program, "launch").sum();
    out.push(metric("tuner.tune_ms", median(&tunes), "ms"));
    out.push(metric(
        "tuner.race_overlap",
        ratio(launch_total, tunes.iter().sum()),
        "ratio",
    ));
    for name in [
        "predict.extract_ms",
        "serve.parse_ms",
        "serve.key_ms",
        "serve.cache_get_ms",
        "serve.journal_append_ms",
    ] {
        out.push(metric(name, med(name), "ms"));
    }
    let (own, wait) = request_split(traced, program);
    out.push(metric("serve.request_self_ms", median(&own), "ms"));
    out.push(metric("serve.wait_ms", median(&wait), "ms"));
    let hits = counter(traced, "grover_serve_cache_hits_total");
    let misses = counter(traced, "grover_serve_cache_misses_total");
    out.push(metric(
        "serve.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    ));
    out.push(metric(
        "serve.degraded",
        counter(traced, "grover_serve_degraded_total"),
        "count",
    ));
    out.push(metric(
        "serve.launches",
        counter(traced, "grover_serve_launches_total"),
        "count",
    ));
    out.push(metric(
        "obs.overhead_frac",
        ratio(ops_per_s(traced), ops_per_s(untraced)) - 1.0,
        "ratio",
    ));
    out
}

/// Span counts and total self time per layer, for the report file.
pub fn layer_totals(bench: &Spans, program: &Snapshot) -> String {
    let mut totals: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for s in bench.all() {
        let e = totals.entry(format!("bench:{}", s.name)).or_default();
        e.0 += 1;
        e.1 += s.ms();
    }
    for s in &program.spans {
        let e = totals.entry(format!("program:{}", s.name)).or_default();
        e.0 += 1;
        e.1 += s.duration.map_or(0.0, |d| d.as_secs_f64() * 1e3);
    }
    totals
        .iter()
        .fold(Obj::new(), |o, (name, (count, ms))| {
            o.raw(
                name,
                &Obj::new()
                    .u64("count", *count)
                    .f64("total_ms", *ms)
                    .finish(),
            )
        })
        .finish()
}

/// The program's spans as JSON lines, in the benchmark's span format.
pub fn program_jsonl(snap: &Snapshot) -> String {
    let mut s = String::new();
    for sp in &snap.spans {
        let start = u64::try_from(sp.start.as_nanos()).unwrap_or(u64::MAX);
        let end = start.saturating_add(
            sp.duration
                .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
        );
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let trace = sp
            .trace
            .map_or("null".to_string(), |t| json::escape(&t.to_hex()));
        s.push_str(
            &Obj::new()
                .str("source", "program")
                .u64("id", sp.id)
                .raw("parent", &parent)
                .str("name", &sp.name)
                .u64("start_ns", start)
                .u64("end_ns", end)
                .raw("trace", &trace)
                .finish(),
        );
        s.push('\n');
    }
    s
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let m = metrics
        .iter()
        .fold(Obj::new(), |o, m| {
            o.raw(
                &m.name,
                &Obj::new()
                    .f64("value", m.value)
                    .str("unit", m.unit)
                    .finish(),
            )
        })
        .finish();
    Obj::new()
        .bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &m)
        .finish()
}

/// First line of `/proc/cpuinfo` naming the CPU model.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The build-info block: what produced the numbers.
pub fn provenance(params: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let base = Obj::new()
        .str("commit", &commit())
        .str("rustc", env!("PERFBENCH_RUSTC"))
        .str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .u64("nproc", nproc as u64)
        .str("cpu_model", &cpu_model())
        .str("backend", grover_tuner::Tuner::new().backend.name())
        .str("pass_fingerprint", &grover_core::pass_fingerprint());
    params.iter().fold(base, |o, (k, v)| o.str(k, v)).finish()
}
