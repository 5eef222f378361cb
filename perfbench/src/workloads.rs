//! The three workloads. Each is a closed loop — every caller waits for its
//! decision before asking for the next — driven from this process with at
//! most [`CLIENTS`] client threads, and checks every answer against the
//! expected-decision table.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grover_kernels::{all_apps, prepare_pair, run_prepared_backend, App};
use grover_obs::json::{self, Json, Obj};
use grover_obs::{MemoryRecorder, NoopRecorder, Recorder, TraceId};
use grover_runtime::{ExecPolicy, NullSink};
use grover_serve::{http_request, request_full, ClientConfig, ServeConfig, Server, TRACE_HEADER};
use grover_tuner::{Tuner, Workload};

use crate::cases::{serve_apps, serve_keys, ServeKey, HIT_DEVICES, SCALE, SWEEP_DEVICES};
use crate::expected::{answer_row, decision_row, Row, Table};
use crate::stats::Rng;

/// Client threads of the serve workloads (the benchmark host has 2 CPUs).
pub const CLIENTS: usize = 2;

/// The workload names `--workload` accepts.
pub const NAMES: [&str; 3] = ["tune-suite", "serve-hit", "serve-miss"];

/// The `/metrics` counters read before and after a measured phase.
const COUNTERS: [&str; 5] = [
    "grover_serve_launches_total",
    "grover_serve_tune_races_total",
    "grover_serve_cache_hits_total",
    "grover_serve_cache_misses_total",
    "grover_serve_degraded_total",
];

/// One run of one workload.
pub struct Run<'a> {
    /// Input-order seed.
    pub seed: u64,
    /// How long the measured phase lasts (whole rounds, at least one).
    pub seconds: f64,
    /// The decisions every answer must reproduce.
    pub table: &'a Table,
    /// Where cache directories go; removed again before returning.
    pub scratch: &'a Path,
    /// The program's spans, for the traced half of a per-layer run only.
    pub program: Option<Arc<MemoryRecorder>>,
}

/// Everything a run measured and every op it checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops checked: measured decisions or requests, warm-up requests and
    /// reference checks.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Successful ops of the measured phase.
    pub ok_ops: u64,
    /// Successful ops per second in each window of the measured phase: a
    /// round (`tune-suite`, `serve-miss`) or one second (`serve-hit`).
    pub windows: Vec<f64>,
    /// When each successful request of a [`drive`] completed, in seconds
    /// after it started.
    pub completions: Vec<f64>,
    /// One sample per build of the starting state, in seconds.
    pub setup_s: Vec<f64>,
    /// Per app sweep (`tune-suite`) or per request (serve), in ms.
    pub latencies_ms: Vec<f64>,
    /// Serve: trace id and client latency (ms) of each measured request.
    pub requests: Vec<(String, f64)>,
    /// Counter deltas over the measured phase (the `/metrics` counters of
    /// the serve workloads), plus the `launches` and `decisions` (races)
    /// of every tune the run made.
    pub counters: BTreeMap<String, u64>,
}

impl Outcome {
    /// Count one failed op.
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Count one checked op, failed if `r` is an error.
    pub fn check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.fail(e);
        }
    }

    fn add(&mut self, counter: &str, n: u64) {
        *self.counters.entry(counter.to_string()).or_default() += n;
    }

    /// Add `other`'s checked ops, but none of its measurements.
    pub fn absorb_checks(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }

    fn absorb(&mut self, mut other: Outcome) {
        let (ok_ops, latencies, requests, completions) = (
            other.ok_ops,
            std::mem::take(&mut other.latencies_ms),
            std::mem::take(&mut other.requests),
            std::mem::take(&mut other.completions),
        );
        self.absorb_checks(other);
        self.ok_ops += ok_ops;
        self.latencies_ms.extend(latencies);
        self.requests.extend(requests);
        self.completions.extend(completions);
    }

    /// The fields a child process reports to the parent, as one JSON line.
    pub fn to_json(&self, peak_rss_mb: f64) -> String {
        let nums = |v: &[f64]| json::array(v.iter().map(|x| json::number(*x)));
        Obj::new()
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw(
                "failures",
                &json::array(self.failures.iter().map(|f| json::escape(f))),
            )
            .u64("ok_ops", self.ok_ops)
            .raw("windows", &nums(&self.windows))
            .f64("peak_rss_mb", peak_rss_mb)
            .raw("setup_s", &nums(&self.setup_s))
            .raw("latencies_ms", &nums(&self.latencies_ms))
            .finish()
    }

    /// Parse [`Outcome::to_json`]; returns the outcome and peak RSS.
    pub fn from_json(line: &str) -> Result<(Outcome, f64), String> {
        let v = json::parse(line).map_err(|e| format!("child report: {e}"))?;
        let num = |k: &str| {
            v.f64_of(k)
                .ok_or_else(|| format!("child report lacks `{k}`"))
        };
        let count = |k: &str| {
            v.u64_of(k)
                .ok_or_else(|| format!("child report lacks `{k}`"))
        };
        let arr = |k: &str| {
            v.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("child report lacks `{k}`"))
        };
        let nums = |k: &str| -> Result<Vec<f64>, String> {
            arr(k)?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| format!("`{k}`: not a number")))
                .collect()
        };
        let out = Outcome {
            attempted: count("attempted")?,
            failed: count("failed")?,
            failures: arr("failures")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            ok_ops: count("ok_ops")?,
            windows: nums("windows")?,
            setup_s: nums("setup_s")?,
            latencies_ms: nums("latencies_ms")?,
            ..Outcome::default()
        };
        Ok((out, num("peak_rss_mb")?))
    }
}

/// The apps and devices a workload's cases are made of.
pub fn cases(workload: &str) -> (Vec<App>, &'static [&'static str]) {
    match workload {
        "tune-suite" => (all_apps(), &SWEEP_DEVICES),
        "serve-hit" => (serve_apps(), &HIT_DEVICES),
        _ => (serve_apps(), &SWEEP_DEVICES),
    }
}

/// Run the named workload.
pub fn run(name: &str, run: &Run) -> Result<Outcome, String> {
    match name {
        "tune-suite" => Ok(tune_suite(run)),
        "serve-hit" => serve_hit(run),
        "serve-miss" => serve_miss(run),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- tune-suite

/// The decision of each device of one app sweep, or why it failed.
type SweepRows = Vec<(String, Result<Row, String>)>;

/// One app sweep: `prepare_pair`, then a fresh default `Tuner` tuning the
/// original kernel on all six devices. Returns the decision per device,
/// the tuner's launch count and the wall time of `tune_all`.
fn sweep(app: &App, program: Option<&Arc<MemoryRecorder>>) -> (SweepRows, u64, f64) {
    let pair = match prepare_pair(app, SCALE) {
        Ok(p) => p,
        Err(e) => {
            let rows = SWEEP_DEVICES
                .iter()
                .map(|d| (d.to_string(), Err(format!("prepare_pair: {e}"))))
                .collect();
            return (rows, 0, 0.0);
        }
    };
    let prepare = app.prepare;
    let workload = Workload::new(move || {
        let p = prepare(SCALE);
        (p.ctx, p.args, p.nd)
    });
    let mut tuner = Tuner::new();
    tuner.buffers = app
        .disable
        .map(|names| names.iter().map(|s| s.to_string()).collect());
    if let Some(r) = program {
        tuner.recorder = r.clone();
    }
    let start = Instant::now();
    let results = tuner.tune_all(&pair.original, &SWEEP_DEVICES, &workload);
    let elapsed = ms(start.elapsed());
    let rows = results
        .iter()
        .map(|(d, r)| (d.clone(), decision_row(r)))
        .collect();
    (rows, tuner.launches_run(), elapsed)
}

/// `tune-suite`: rounds over the 11 paper apps in seeded order, one sweep
/// over six devices per app. No HTTP, cache or journal is touched.
fn tune_suite(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let apps = all_apps();
    // The starting state: the compiled, transformed and optimised pair and
    // a dataset for every app.
    let t = Instant::now();
    for app in &apps {
        std::hint::black_box((prepare_pair(app, SCALE).ok(), (app.prepare)(SCALE)));
    }
    out.setup_s.push(t.elapsed().as_secs_f64());
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() < run.seconds {
        let mut order: Vec<usize> = (0..apps.len()).collect();
        Rng::new(run.seed, round).shuffle(&mut order);
        let (t, ok_before) = (Instant::now(), out.ok_ops);
        for i in order {
            let app = &apps[i];
            let (rows, launches, sweep_ms) = sweep(app, run.program.as_ref());
            out.latencies_ms.push(sweep_ms);
            out.add("launches", launches);
            out.add("decisions", rows.len() as u64);
            for (device, row) in rows {
                let r = row.and_then(|row| run.table.check("tune", app.id, &device, &row));
                if r.is_ok() {
                    out.ok_ops += 1;
                }
                out.check(r);
            }
        }
        out.windows
            .push((out.ok_ops - ok_before) as f64 / t.elapsed().as_secs_f64());
        round += 1;
    }
    out
}

// ---------------------------------------------------------------- serve

/// Start a server with default settings on an empty cache directory.
pub fn start_server(dir: &Path, program: Option<&Arc<MemoryRecorder>>) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    let recorder: Arc<dyn Recorder> = match program {
        Some(r) => r.clone(),
        None => Arc::new(NoopRecorder),
    };
    Server::start(
        ServeConfig {
            cache_dir: dir.to_path_buf(),
            ..ServeConfig::default()
        },
        recorder,
    )
    .map_err(|e| format!("server start: {e}"))
}

/// POST one body to `/v1/tune` under a fresh trace id, retrying once
/// after a 429. Returns the trace id and the final status and body.
pub fn post_tune(addr: SocketAddr, body: &str) -> (String, Result<(u16, String), String>) {
    let attempt = || {
        let trace = TraceId::mint().to_hex();
        let r = request_full(
            addr,
            "POST",
            "/v1/tune",
            Some(body),
            &[(TRACE_HEADER, &trace)],
            &ClientConfig::default(),
        )
        .map(|(status, _, text)| (status, text))
        .map_err(|e| format!("request failed: {e}"));
        (trace, r)
    };
    match attempt() {
        (_, Ok((429, _))) => {
            std::thread::yield_now();
            attempt()
        }
        other => other,
    }
}

/// Check one answer for `key` against the table; `cached` is what the
/// workload expects the server to report.
pub fn check_answer(
    table: &Table,
    key: &ServeKey,
    reply: Result<(u16, String), String>,
    cached: bool,
) -> Result<Row, String> {
    let (status, body) = reply?;
    let ans = answer_row(status, &body)?;
    table.check("serve", key.case, key.device, &ans.row)?;
    if ans.cached != cached {
        return Err(format!(
            "serve {} on {}: cached = {}, expected {cached}",
            key.case, key.device, ans.cached
        ));
    }
    Ok(ans.row)
}

/// Read the tracked `/metrics` counters.
fn counters(addr: SocketAddr) -> Result<BTreeMap<String, u64>, String> {
    let (status, text) =
        http_request(addr, "GET", "/metrics", None).map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics: HTTP {status}"));
    }
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
            if COUNTERS.contains(&name) {
                let v = value
                    .parse::<f64>()
                    .map_err(|e| format!("/metrics `{line}`: {e}"))?;
                out.insert(name.to_string(), v as u64);
            }
        }
    }
    match COUNTERS.iter().find(|c| !out.contains_key(**c)) {
        Some(missing) => Err(format!("/metrics lacks {missing}")),
        None => Ok(out),
    }
}

fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    after[name].saturating_sub(before[name])
}

/// How a client thread picks its next key.
enum Draw<'a> {
    /// Each listed key once, shared between the clients in order.
    Each(&'a [usize]),
    /// Uniform draws until the deadline, seeded per client.
    Uniform { seed: u64, until: Instant },
}

/// Drive [`CLIENTS`] closed-loop clients against `addr`.
fn drive(addr: SocketAddr, table: &Table, keys: &[ServeKey], draw: &Draw, cached: bool) -> Outcome {
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Outcome::default());
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (next, merged) = (&next, &merged);
            s.spawn(move || {
                let mut out = Outcome::default();
                let mut rng = match draw {
                    Draw::Uniform { seed, .. } => Rng::new(*seed, 1 + c as u64),
                    Draw::Each(_) => Rng::new(0, 0),
                };
                loop {
                    let i = match draw {
                        Draw::Each(order) => match order.get(next.fetch_add(1, Ordering::SeqCst)) {
                            Some(i) => *i,
                            None => break,
                        },
                        Draw::Uniform { until, .. } => {
                            if Instant::now() >= *until {
                                break;
                            }
                            rng.below(keys.len())
                        }
                    };
                    let key = &keys[i];
                    let start = Instant::now();
                    let (trace, reply) = post_tune(addr, &key.body);
                    let latency = ms(start.elapsed());
                    let r = check_answer(table, key, reply, cached).map(|_| ());
                    if r.is_ok() {
                        out.ok_ops += 1;
                        out.completions.push(t0.elapsed().as_secs_f64());
                    }
                    out.check(r);
                    out.latencies_ms.push(latency);
                    out.requests.push((trace, latency));
                }
                merged.lock().expect("client tally poisoned").absorb(out);
            });
        }
    });
    merged.into_inner().expect("client tally poisoned")
}

fn shuffled(n: usize, seed: u64, stream: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, stream).shuffle(&mut order);
    order
}

/// `serve-hit`: warm the 27 CPU keys, then uniform seeded draws over them.
/// Only the request path runs; no launch or race may happen.
fn serve_hit(run: &Run) -> Result<Outcome, String> {
    let keys = serve_keys(&HIT_DEVICES);
    let program = run.program.as_ref();
    let mut out = Outcome::default();
    let dir = run.scratch.join("serve-hit");
    let t = Instant::now();
    let server = start_server(&dir, program)?;
    let order = shuffled(keys.len(), run.seed, u64::MAX);
    let warm = drive(server.addr(), run.table, &keys, &Draw::Each(&order), false);
    out.setup_s.push(t.elapsed().as_secs_f64());
    out.absorb_checks(warm);
    let addr = server.addr();
    let before = counters(addr)?;
    let until = Instant::now() + Duration::from_secs_f64(run.seconds);
    let measured = drive(
        addr,
        run.table,
        &keys,
        &Draw::Uniform {
            seed: run.seed,
            until,
        },
        true,
    );
    // One-second windows; a phase shorter than that is one window.
    let width = run.seconds.min(1.0);
    let mut counts = vec![0u64; (run.seconds / width) as usize];
    for done in &measured.completions {
        if let Some(c) = counts.get_mut((done / width) as usize) {
            *c += 1;
        }
    }
    out.windows = counts.iter().map(|c| *c as f64 / width).collect();
    out.absorb(measured);
    let after = counters(addr)?;
    for name in COUNTERS {
        out.add(name, delta(&before, &after, name));
    }
    // The server started empty, so its totals cover warm-up and hits.
    out.add("launches", after["grover_serve_launches_total"]);
    out.add("decisions", after["grover_serve_tune_races_total"]);
    for name in [
        "grover_serve_launches_total",
        "grover_serve_tune_races_total",
    ] {
        let moved = delta(&before, &after, name);
        if moved != 0 {
            out.fail(format!("{name} moved by {moved} during the hit phase"));
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

/// `serve-miss`: rounds of a fresh server on an empty cache; the clients
/// request each of the 54 keys once per round, in seeded order.
fn serve_miss(run: &Run) -> Result<Outcome, String> {
    let keys = serve_keys(&SWEEP_DEVICES);
    let program = run.program.as_ref();
    let mut out = Outcome::default();
    // Round 0 warms the process (allocator, lazily built tables) and is
    // checked but not measured: a serving process pays that once.
    let mut start = Instant::now();
    let mut round = 0u64;
    while round < 2 || start.elapsed().as_secs_f64() < run.seconds {
        let dir = run.scratch.join(format!("serve-miss-{round}"));
        let t = Instant::now();
        let server = start_server(&dir, program)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        let addr = server.addr();
        let before = counters(addr)?;
        let order = shuffled(keys.len(), run.seed, round);
        let t = Instant::now();
        let requests = drive(addr, run.table, &keys, &Draw::Each(&order), false);
        let rate = requests.ok_ops as f64 / t.elapsed().as_secs_f64();
        let after = counters(addr)?;
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
        if round == 0 {
            out.absorb_checks(requests);
            start = Instant::now();
        } else {
            out.windows.push(rate);
            out.absorb(requests);
            for name in COUNTERS {
                out.add(name, delta(&before, &after, name));
            }
            out.add(
                "launches",
                delta(&before, &after, "grover_serve_launches_total"),
            );
            out.add(
                "decisions",
                delta(&before, &after, "grover_serve_tune_races_total"),
            );
        }
        round += 1;
    }
    Ok(out)
}

// ---------------------------------------------------------------- checks

/// Check every app's original kernel against its scalar reference on the
/// default engine, once per run and outside every timed region.
pub fn reference_check(out: &mut Outcome) {
    let backend = Tuner::new().backend;
    for app in all_apps() {
        let r = prepare_pair(&app, SCALE).and_then(|pair| {
            run_prepared_backend(
                &pair.original,
                (app.prepare)(SCALE),
                &mut NullSink,
                ExecPolicy::Serial,
                backend,
            )
            .map(|_| ())
        });
        out.check(r.map_err(|e| format!("reference check {}: {e}", app.id)));
    }
}

/// Observe every decision once — 66 `tune-suite` cases in-process and
/// the 54 serve keys through a fresh server — as a new expected table.
pub fn record(scratch: &Path) -> Result<Table, String> {
    let mut table = Table::default();
    for app in all_apps() {
        for (device, row) in sweep(&app, None).0 {
            table.insert("tune", app.id, &device, row?);
        }
    }
    let dir = scratch.join("record");
    let server = start_server(&dir, None)?;
    for key in serve_keys(&SWEEP_DEVICES) {
        let (status, body) = post_tune(server.addr(), &key.body).1?;
        let ans = answer_row(status, &body)?;
        table.insert("serve", key.case, key.device, ans.row);
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(table)
}
