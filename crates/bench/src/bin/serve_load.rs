//! Load generator for the `grover-serve` tuning-cache service: N client
//! threads hammer `POST /v1/tune` over a fixed set of distinct tune
//! keys and the tool reports throughput, cache hit-rate and a latency
//! breakdown as JSON.
//!
//! ```text
//! cargo run -p grover-bench --release --bin serve_load -- \
//!     [--addr HOST:PORT] [--clients N] [--requests N] [--distinct K] [--workers N]
//! ```
//!
//! Without `--addr` an in-process server is started on a loopback port
//! with a throwaway cache directory (measuring the full TCP + HTTP path
//! regardless). The first `K` requests are issued serially to warm the
//! cache, so the expected hit rate is exactly `(requests - K) /
//! requests` — the CI smoke job asserts `hit_rate >= 0.9`. A non-zero
//! exit means some request failed.
//!
//! Every request carries its own minted `x-grover-trace-id`; the report
//! asserts the server echoed each id back (`trace_id_echoed`) and, by
//! joining the ids against `GET /debug/requests`, splits p50/p99
//! latency by the server's own disposition (`hit` / `miss` /
//! `coalesced`) instead of guessing from the client side. Requests that
//! aged out of the server's bounded request log are counted as
//! `unclassified`, never silently dropped.
//!
//! With `--predict` the tool instead measures the zero-launch serving
//! path: it races the staging kernel's geometries once in-process to
//! build a training corpus, trains a model, boots the server with
//! `--model`, and hammers `POST /v1/predict`. The report asserts
//! `grover_serve_launches_total` and `grover_serve_tune_races_total`
//! stayed flat across the run (a predict hit performs zero launches)
//! and reports the launch count the model saved versus measuring every
//! request.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use grover_obs::json::{self, Obj};
use grover_obs::NoopRecorder;
use grover_serve::{http_request, request_full, ClientConfig, ServeConfig, Server, TRACE_HEADER};

/// The staging kernel every request tunes; distinct keys come from
/// distinct launch geometries.
const KERNEL: &str = "__kernel void stage(__global float* in, __global float* out) {
    __local float lm[64];
    int lx = get_local_id(0);
    int gx = get_global_id(0);
    lm[lx] = in[gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gx] = lm[63 - lx];
}";

fn tune_body(global: u64) -> String {
    format!(
        "{{\"source\": {}, \"device\": \"SNB\", \"global\": [{global}], \"local\": [64]}}",
        json::escape(KERNEL)
    )
}

/// Mint a process-unique 32-hex trace id (high half: pid, low half: a
/// monotonic sequence number) — valid input for `x-grover-trace-id`.
fn next_trace() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{:016x}{seq:016x}", u64::from(std::process::id()) + 1)
}

struct Tally {
    ok: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    /// Responses whose echoed `x-grover-trace-id` did not match the id
    /// the client sent (should stay zero).
    echo_mismatches: AtomicU64,
    /// Per-request wall-clock latencies (µs) tagged with the trace id of
    /// the final attempt (`None` when no response came back).
    latencies_us: Mutex<Vec<(Option<String>, u64)>>,
}

/// The `p`-th percentile (nearest-rank) of a sorted latency list, in ms.
fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1] as f64 / 1000.0
}

/// `{count, p50_ms, p99_ms}` for one latency bucket.
fn bucket_json(mut us: Vec<u64>) -> String {
    us.sort_unstable();
    Obj::new()
        .u64("count", us.len() as u64)
        .f64("p50_ms", percentile_ms(&us, 50.0))
        .f64("p99_ms", percentile_ms(&us, 99.0))
        .finish()
}

fn run_one(addr: SocketAddr, body: &str, tally: &Tally) {
    let start = Instant::now();
    let trace = run_one_inner(addr, body, tally);
    let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    tally
        .latencies_us
        .lock()
        .expect("latency tally poisoned")
        .push((trace, us));
}

/// One traced POST to `/v1/tune`: returns `(status, body, trace_id)` and
/// counts an echo mismatch if the server failed to echo the id back.
fn tune_once(addr: SocketAddr, body: &str, tally: &Tally) -> Option<(u16, String, String)> {
    let trace = next_trace();
    let (status, headers, text) = request_full(
        addr,
        "POST",
        "/v1/tune",
        Some(body),
        &[(TRACE_HEADER, &trace)],
        &ClientConfig::default(),
    )
    .ok()?;
    if !headers
        .iter()
        .any(|(n, v)| n == TRACE_HEADER && *v == trace)
    {
        tally.echo_mismatches.fetch_add(1, Ordering::Relaxed);
    }
    Some((status, text, trace))
}

/// Issue one tune (retrying once through backpressure) and return the
/// trace id of the attempt whose response settled the request.
fn run_one_inner(addr: SocketAddr, body: &str, tally: &Tally) -> Option<String> {
    match tune_once(addr, body, tally) {
        Some((200, text, trace)) => {
            tally.ok.fetch_add(1, Ordering::Relaxed);
            match json::parse(&text).ok().and_then(|v| v.bool_of("cached")) {
                Some(true) => tally.hits.fetch_add(1, Ordering::Relaxed),
                Some(false) => tally.misses.fetch_add(1, Ordering::Relaxed),
                None => tally.errors.fetch_add(1, Ordering::Relaxed),
            };
            Some(trace)
        }
        Some((429, _, _)) => {
            // Backpressure is not a failure; retry once after yielding.
            std::thread::yield_now();
            match tune_once(addr, body, tally) {
                Some((200, text, trace)) => {
                    tally.ok.fetch_add(1, Ordering::Relaxed);
                    if json::parse(&text).ok().and_then(|v| v.bool_of("cached")) == Some(true) {
                        tally.hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        tally.misses.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(trace)
                }
                other => {
                    tally.errors.fetch_add(1, Ordering::Relaxed);
                    other.map(|(_, _, trace)| trace)
                }
            }
        }
        other => {
            tally.errors.fetch_add(1, Ordering::Relaxed);
            other.map(|(_, _, trace)| trace)
        }
    }
}

/// `GET /debug/requests` → map from trace id to the server's disposition
/// for that request. Empty on any failure (the split then reports
/// everything as unclassified rather than dying).
fn fetch_dispositions(addr: SocketAddr) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let Ok((200, text)) = http_request(addr, "GET", "/debug/requests", None) else {
        return out;
    };
    let Ok(parsed) = json::parse(&text) else {
        return out;
    };
    let Some(entries) = parsed.get("requests").and_then(|v| v.as_arr()) else {
        return out;
    };
    for e in entries {
        if let (Some(trace), Some(disp)) = (e.str_of("trace_id"), e.str_of("disposition")) {
            out.insert(trace.to_string(), disp.to_string());
        }
    }
    out
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut clients = 4usize;
    let mut requests = 200u64;
    let mut distinct = 4u64;
    let mut workers = 2usize;
    let mut predict = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2)
                })
                .clone()
        };
        match a.as_str() {
            "--addr" => addr = Some(next("--addr")),
            "--clients" => clients = next("--clients").parse().expect("--clients: integer"),
            "--requests" => requests = next("--requests").parse().expect("--requests: integer"),
            "--distinct" => distinct = next("--distinct").parse().expect("--distinct: integer"),
            "--workers" => workers = next("--workers").parse().expect("--workers: integer"),
            "--predict" => predict = true,
            other => {
                eprintln!("unexpected argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let distinct = distinct.max(1).min(requests.max(1));
    if predict {
        return run_predict_mode(clients, requests, distinct, workers);
    }

    // An in-process server unless an external one was named. The flight
    // capacity is sized to the campaign so the disposition join below
    // sees every request.
    let (target, _local) = match &addr {
        Some(a) => (a.parse().expect("--addr must be HOST:PORT"), None),
        None => {
            let dir =
                std::env::temp_dir().join(format!("grover-serve-load-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let server = Server::start(
                ServeConfig {
                    cache_dir: dir,
                    workers,
                    flight_capacity: (requests as usize * 2).max(512),
                    ..ServeConfig::default()
                },
                Arc::new(NoopRecorder),
            )
            .expect("in-process server starts");
            (server.addr(), Some(server))
        }
    };

    let bodies: Vec<Arc<String>> = (0..distinct)
        .map(|i| Arc::new(tune_body(64 * (i + 1))))
        .collect();
    let tally = Arc::new(Tally {
        ok: AtomicU64::new(0),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        echo_mismatches: AtomicU64::new(0),
        latencies_us: Mutex::new(Vec::with_capacity(requests as usize)),
    });

    let start = Instant::now();
    // Serial warm-up: one miss per distinct key, deterministically.
    for body in &bodies {
        run_one(target, body, &tally);
    }
    let remaining = requests.saturating_sub(distinct);
    let per_client = remaining / clients as u64;
    let extra = remaining % clients as u64;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = bodies.clone();
            let tally = tally.clone();
            let n = per_client + u64::from((c as u64) < extra);
            std::thread::spawn(move || {
                for i in 0..n {
                    let body = &bodies[((c as u64 + i) % bodies.len() as u64) as usize];
                    run_one(target, body, &tally);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = start.elapsed();

    // Join client-side latencies against the server's own view of each
    // request before shutting it down.
    let dispositions = fetch_dispositions(target);

    if let Some(server) = _local {
        server.shutdown();
    }

    let ok = tally.ok.load(Ordering::Relaxed);
    let hits = tally.hits.load(Ordering::Relaxed);
    let misses = tally.misses.load(Ordering::Relaxed);
    let errors = tally.errors.load(Ordering::Relaxed);
    let echo_mismatches = tally.echo_mismatches.load(Ordering::Relaxed);
    let hit_rate = if ok > 0 { hits as f64 / ok as f64 } else { 0.0 };
    let secs = elapsed.as_secs_f64();
    let tagged = tally
        .latencies_us
        .lock()
        .expect("latency tally poisoned")
        .clone();
    let mut sorted_us: Vec<u64> = tagged.iter().map(|(_, us)| *us).collect();
    sorted_us.sort_unstable();

    let mut split: HashMap<&str, Vec<u64>> = HashMap::new();
    let mut unclassified = 0u64;
    for (trace, us) in &tagged {
        match trace.as_deref().and_then(|t| dispositions.get(t)) {
            Some(d) => split.entry(match d.as_str() {
                "hit" => "hit",
                "miss" => "miss",
                "coalesced" => "coalesced",
                _ => "other",
            }),
            None => {
                unclassified += 1;
                continue;
            }
        }
        .or_default()
        .push(*us);
    }
    let by_disposition = Obj::new()
        .raw("hit", &bucket_json(split.remove("hit").unwrap_or_default()))
        .raw(
            "miss",
            &bucket_json(split.remove("miss").unwrap_or_default()),
        )
        .raw(
            "coalesced",
            &bucket_json(split.remove("coalesced").unwrap_or_default()),
        )
        .raw(
            "other",
            &bucket_json(split.remove("other").unwrap_or_default()),
        )
        .u64("unclassified", unclassified)
        .finish();

    println!(
        "{}",
        Obj::new()
            .u64("requests", requests)
            .u64("clients", clients as u64)
            .u64("distinct", distinct)
            .u64("ok", ok)
            .u64("hits", hits)
            .u64("misses", misses)
            .u64("errors", errors)
            .f64("hit_rate", hit_rate)
            .bool("trace_id_echoed", echo_mismatches == 0)
            .u64("echo_mismatches", echo_mismatches)
            .f64("elapsed_s", secs)
            .f64(
                "throughput_rps",
                if secs > 0.0 { ok as f64 / secs } else { 0.0 }
            )
            .f64("p50_ms", percentile_ms(&sorted_us, 50.0))
            .f64("p99_ms", percentile_ms(&sorted_us, 99.0))
            .raw("by_disposition", &by_disposition)
            .finish()
    );
    if errors > 0 || echo_mismatches > 0 {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Scrape one counter from `GET /metrics` (the `name value` line of the
/// Prometheus-style text format). `u64::MAX` on any failure so a broken
/// scrape can never satisfy a flatness assertion by accident.
fn metric_value(addr: SocketAddr, name: &str) -> u64 {
    let Ok((200, text)) = http_request(addr, "GET", "/metrics", None) else {
        return u64::MAX;
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            let rest = rest.trim_start();
            if rest.len() < line.len() - name.len() {
                if let Ok(v) = rest.trim().parse::<f64>() {
                    return v as u64;
                }
            }
        }
    }
    u64::MAX
}

/// One traced POST to `/v1/predict`; counts hit (`predicted: true`) vs
/// abstain into the tally's hit/miss slots.
fn predict_once(addr: SocketAddr, body: &str, tally: &Tally) {
    let trace = next_trace();
    let resp = request_full(
        addr,
        "POST",
        "/v1/predict",
        Some(body),
        &[(TRACE_HEADER, &trace)],
        &ClientConfig::default(),
    );
    match resp {
        Ok((200, headers, text)) => {
            if !headers
                .iter()
                .any(|(n, v)| n == TRACE_HEADER && *v == trace)
            {
                tally.echo_mismatches.fetch_add(1, Ordering::Relaxed);
            }
            tally.ok.fetch_add(1, Ordering::Relaxed);
            match json::parse(&text).ok().and_then(|v| v.bool_of("predicted")) {
                Some(true) => tally.hits.fetch_add(1, Ordering::Relaxed),
                Some(false) => tally.misses.fetch_add(1, Ordering::Relaxed),
                None => tally.errors.fetch_add(1, Ordering::Relaxed),
            };
        }
        _ => {
            tally.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The `--predict` scenario: corpus → train → serve with the model →
/// hammer `/v1/predict` → assert the launch counters never moved.
fn run_predict_mode(clients: usize, requests: u64, distinct: u64, workers: usize) -> ExitCode {
    use grover_frontend::{compile, BuildOptions};
    use grover_predict::{CorpusRow, FeatureVector, Model, TrainConfig};
    use grover_runtime::{ArgValue, Context, NdRange};
    use grover_tuner::{Tuner, Workload};

    let module = compile(KERNEL, &BuildOptions::new()).expect("staging kernel compiles");
    let kernel = module.kernels.first().expect("one kernel").clone();
    let epoch = grover_core::pass_fingerprint();

    // Phase 1 — corpus: race each distinct geometry once, in-process.
    // These are the only launches of the whole scenario; their count is
    // also the per-decision price a measured tune would pay, which is
    // what every later predict hit saves.
    let mut rows = Vec::new();
    let mut corpus_launches = 0u64;
    let mut corpus_races = 0u64;
    for i in 0..distinct {
        let g = 64 * (i + 1);
        let workload = Workload::new(move || {
            let mut ctx = Context::new();
            let len = (g as usize) * 2 + 64;
            let input: Vec<f32> = (0..len).map(|j| ((j * 13 + 7) % 61) as f32).collect();
            let a = ctx.buffer_f32(&input);
            let b = ctx.buffer_f32(&vec![0.0; len]);
            (
                ctx,
                vec![ArgValue::Buffer(a), ArgValue::Buffer(b)],
                NdRange::d3([g, 1, 1], [64, 1, 1]),
            )
        });
        let mut tuner = Tuner::new();
        let d = tuner
            .tune(&kernel, "SNB", &workload)
            .expect("corpus race succeeds");
        corpus_launches += tuner.launches_run();
        corpus_races += tuner.races_run();
        rows.push(CorpusRow {
            app: format!("stage-{g}"),
            kernel: kernel.name.clone(),
            device: "SNB".to_string(),
            choice: d.choice,
            np: d.np,
            cycles_with: d.cycles_with,
            cycles_without: d.cycles_without,
            features: FeatureVector::extract(&kernel, [g, 1, 1], [64, 1, 1]),
        });
    }

    // Phase 2 — train and persist the model next to the throwaway cache.
    let train: Vec<_> = rows.iter().map(CorpusRow::to_train_row).collect();
    let model = Model::train(&train, &epoch, &TrainConfig::default());
    let dir = std::env::temp_dir().join(format!("grover-serve-predict-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("cache dir");
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, model.to_json() + "\n").expect("model written");

    // Phase 3 — the server, armed with the model. The 0.9 threshold sits
    // below the exact-match confidence, so every request (its features
    // match a training row bit-for-bit) must hit.
    let server = Server::start(
        ServeConfig {
            cache_dir: dir,
            workers,
            flight_capacity: (requests as usize * 2).max(512),
            model_path: Some(model_path),
            predict_threshold: 0.9,
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .expect("in-process server starts");
    let target = server.addr();
    let launches_before = metric_value(target, "grover_serve_launches_total");
    let races_before = metric_value(target, "grover_serve_tune_races_total");

    // Phase 4 — hammer `/v1/predict`.
    let bodies: Vec<Arc<String>> = (0..distinct)
        .map(|i| Arc::new(tune_body(64 * (i + 1))))
        .collect();
    let tally = Arc::new(Tally {
        ok: AtomicU64::new(0),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        echo_mismatches: AtomicU64::new(0),
        latencies_us: Mutex::new(Vec::with_capacity(requests as usize)),
    });
    let start = Instant::now();
    let per_client = requests / clients as u64;
    let extra = requests % clients as u64;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = bodies.clone();
            let tally = tally.clone();
            let n = per_client + u64::from((c as u64) < extra);
            std::thread::spawn(move || {
                for i in 0..n {
                    let body = &bodies[((c as u64 + i) % bodies.len() as u64) as usize];
                    predict_once(target, body, &tally);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = start.elapsed();

    // Phase 5 — the zero-launch proof: both counters flat.
    let launches_after = metric_value(target, "grover_serve_launches_total");
    let races_after = metric_value(target, "grover_serve_tune_races_total");
    let hits_metric = metric_value(target, "grover_serve_predict_hits_total");
    server.shutdown();

    let ok = tally.ok.load(Ordering::Relaxed);
    let hits = tally.hits.load(Ordering::Relaxed);
    let abstains = tally.misses.load(Ordering::Relaxed);
    let errors = tally.errors.load(Ordering::Relaxed);
    let echo_mismatches = tally.echo_mismatches.load(Ordering::Relaxed);
    let launches_flat = launches_before != u64::MAX && launches_after == launches_before;
    let races_flat = races_before != u64::MAX && races_after == races_before;
    // What one measured decision costs, amortised over the corpus build —
    // and therefore what each predict hit saved.
    let launches_per_decision = corpus_launches / distinct.max(1);
    let secs = elapsed.as_secs_f64();
    println!(
        "{}",
        Obj::new()
            .str("mode", "predict")
            .u64("requests", requests)
            .u64("clients", clients as u64)
            .u64("distinct", distinct)
            .u64("ok", ok)
            .u64("predict_hits", hits)
            .u64("predict_abstains", abstains)
            .u64("errors", errors)
            .bool("trace_id_echoed", echo_mismatches == 0)
            .u64("corpus_races", corpus_races)
            .u64("corpus_launches", corpus_launches)
            .u64("launches_before", launches_before)
            .u64("launches_after", launches_after)
            .bool("launches_flat", launches_flat)
            .u64("tune_races_before", races_before)
            .u64("tune_races_after", races_after)
            .bool("tune_races_flat", races_flat)
            .u64("predict_hits_metric", hits_metric)
            .u64("launches_saved", hits * launches_per_decision)
            .f64("elapsed_s", secs)
            .f64(
                "throughput_rps",
                if secs > 0.0 { ok as f64 / secs } else { 0.0 }
            )
            .finish()
    );
    let all_hit = ok == requests && hits == ok;
    if errors > 0 || echo_mismatches > 0 || !launches_flat || !races_flat || !all_hit {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
