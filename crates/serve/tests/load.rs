//! Concurrent load against the in-process server: client threads spread a
//! fixed number of requests over a few distinct keys of the staging
//! kernel. Each request carries its own minted `x-grover-trace-id`. The
//! tests check the cache hit count, the latency percentiles, the trace
//! echo, the server's own per-request disposition (joined through
//! `GET /debug/requests`), and that predict hits leave the launch and
//! race counters flat.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grover_frontend::{compile, BuildOptions};
use grover_obs::json;
use grover_obs::NoopRecorder;
use grover_predict::{FeatureVector, Model, TrainConfig, TrainRow};
use grover_runtime::{ArgValue, Context, NdRange};
use grover_serve::{http_request, request_full, ClientConfig, ServeConfig, Server, TRACE_HEADER};
use grover_tuner::{Tuner, Workload};

/// The staging kernel every request tunes; distinct keys come from
/// distinct launch geometries.
const STAGE: &str = "__kernel void stage(__global float* in, __global float* out) {
    __local float lm[64];
    int lx = get_local_id(0);
    int gx = get_global_id(0);
    lm[lx] = in[gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gx] = lm[63 - lx];
}";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grover-serve-load-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Key `k` of a campaign: STAGE on SNB over `64 * (k + 1)` items.
fn global_of(k: u64) -> u64 {
    64 * (k + 1)
}

fn body(global: u64) -> String {
    format!(
        "{{\"source\": {}, \"device\": \"SNB\", \"global\": [{global}], \"local\": [64]}}",
        json::escape(STAGE)
    )
}

/// One finished request as the client saw it.
struct Sample {
    status: u16,
    /// The response's `cached` (tune) or `predicted` (predict) flag.
    flag: Option<bool>,
    trace: String,
    echoed: bool,
    latency: Duration,
}

/// POST `body` to `path` under the trace id `trace`.
fn send(addr: SocketAddr, path: &str, body: &str, flag: &str, trace: String) -> Sample {
    let start = Instant::now();
    let (status, headers, text) = request_full(
        addr,
        "POST",
        path,
        Some(body),
        &[(TRACE_HEADER, &trace)],
        &ClientConfig::default(),
    )
    .expect("request succeeds");
    let latency = start.elapsed();
    let echoed = headers
        .iter()
        .any(|(n, v)| n == TRACE_HEADER && *v == trace);
    Sample {
        status,
        flag: json::parse(&text).ok().and_then(|v| v.bool_of(flag)),
        trace,
        echoed,
        latency,
    }
}

/// Issue `requests` POSTs to `path` over `distinct` keys. With `warm_up`
/// the first request of each key is sent serially, so every later request
/// finds its key cached. The rest are spread over `clients` threads, each
/// cycling through the keys. Trace ids are `tag` then a sequence number.
fn campaign(
    server: &Server,
    path: &'static str,
    flag: &'static str,
    (clients, requests, distinct): (u64, u64, u64),
    warm_up: bool,
    tag: u64,
) -> Vec<Sample> {
    let addr = server.addr();
    let bodies: Arc<Vec<String>> = Arc::new((0..distinct).map(|k| body(global_of(k))).collect());
    let seq = Arc::new(AtomicU64::new(0));
    let mint = move || format!("{tag:016x}{:016x}", seq.fetch_add(1, Ordering::Relaxed) + 1);
    let mut samples = Vec::new();
    if warm_up {
        for b in bodies.iter() {
            samples.push(send(addr, path, b, flag, mint()));
        }
    }
    let remaining = requests - samples.len() as u64;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = bodies.clone();
            let mint = mint.clone();
            let n = remaining / clients + u64::from(c < remaining % clients);
            std::thread::spawn(move || {
                (0..n)
                    .map(|i| {
                        let b = &bodies[((c + i) % distinct) as usize];
                        send(addr, path, b, flag, mint())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for h in handles {
        samples.extend(h.join().expect("client thread"));
    }
    samples
}

/// Nearest-rank percentiles `ps` of the campaign's latencies.
fn percentiles<const N: usize>(samples: &[Sample], ps: [f64; N]) -> [Duration; N] {
    let mut sorted: Vec<Duration> = samples.iter().map(|s| s.latency).collect();
    sorted.sort_unstable();
    ps.map(|p| {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    })
}

fn count(samples: &[Sample], pred: impl Fn(&Sample) -> bool) -> usize {
    samples.iter().filter(|s| pred(s)).count()
}

/// `GET /debug/requests` as a map from trace id to disposition.
fn dispositions(addr: SocketAddr) -> HashMap<String, String> {
    let (status, text) = http_request(addr, "GET", "/debug/requests", None).unwrap();
    assert_eq!(status, 200, "{text}");
    let log = json::parse(&text).unwrap();
    log.get("requests")
        .and_then(|v| v.as_arr())
        .expect("request list")
        .iter()
        .filter_map(|e| {
            Some((
                e.str_of("trace_id")?.into(),
                e.str_of("disposition")?.into(),
            ))
        })
        .collect()
}

/// One counter from `GET /metrics`, read by its exported name.
fn scrape(addr: SocketAddr, name: &str) -> u64 {
    let (status, text) = http_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200, "{text}");
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` in /metrics:\n{text}"))
}

#[test]
fn repeated_tunes_hit_the_cache_and_every_request_is_traced() {
    let (clients, requests, distinct) = (4, 200, 4);
    let dir = temp_dir("hit");
    let server = Server::start(
        ServeConfig {
            cache_dir: dir.clone(),
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    let samples = campaign(
        &server,
        "/v1/tune",
        "cached",
        (clients, requests, distinct),
        true,
        0x10ad,
    );

    // Every request answered 200 with a decision; after the serial
    // warm-up, every request but the first of each key is a hit.
    assert_eq!(samples.len(), requests as usize);
    assert_eq!(count(&samples, |s| s.status == 200), requests as usize);
    assert_eq!(
        count(&samples, |s| s.flag == Some(false)),
        distinct as usize
    );
    let hits = count(&samples, |s| s.flag == Some(true));
    assert_eq!(hits, (requests - distinct) as usize);
    assert!(hits as f64 / requests as f64 >= 0.9);
    let [p50, p99] = percentiles(&samples, [50.0, 99.0]);
    assert!(p50 <= p99, "p50 {p50:?} > p99 {p99:?}");

    // Every minted trace id came back on its response.
    assert_eq!(count(&samples, |s| !s.echoed), 0);

    // The server's own view of each request: all of them are in the log,
    // and its dispositions agree with the client's count.
    let log = dispositions(server.addr());
    let mut split: HashMap<&str, usize> = HashMap::new();
    let mut unclassified = 0;
    for s in &samples {
        match log.get(&s.trace).map(String::as_str) {
            Some(d @ ("hit" | "miss" | "coalesced")) => *split.entry(d).or_default() += 1,
            Some(_) => *split.entry("other").or_default() += 1,
            None => unclassified += 1,
        }
    }
    assert_eq!(unclassified, 0);
    assert_eq!(split.get("hit").copied(), Some(hits));
    assert_eq!(split.get("miss").copied(), Some(distinct as usize));
    assert_eq!(split.len(), 2, "{split:?}");

    let m = server.metrics();
    assert_eq!(m.cache_hits.get(), requests - distinct);
    assert_eq!(m.tune_races.get(), distinct);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eight_clients_keep_the_tail_under_ten_seconds() {
    let (clients, requests, distinct) = (8, 400, 4);
    let dir = temp_dir("tail");
    let server = Server::start(
        ServeConfig {
            cache_dir: dir.clone(),
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    let samples = campaign(
        &server,
        "/v1/tune",
        "cached",
        (clients, requests, distinct),
        true,
        0x7a11,
    );
    server.shutdown();

    assert_eq!(count(&samples, |s| s.status == 200), requests as usize);
    assert_eq!(
        count(&samples, |s| s.flag == Some(true)),
        (requests - distinct) as usize
    );
    let [p50, p99] = percentiles(&samples, [50.0, 99.0]);
    assert!(
        p50 > Duration::ZERO && p50 <= p99,
        "p50 {p50:?}, p99 {p99:?}"
    );
    assert!(p99 < Duration::from_secs(10), "p99 {p99:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_predicts_all_hit_with_flat_launch_counters() {
    let (clients, requests, distinct) = (4, 80, 4);
    let kernel = compile(STAGE, &BuildOptions::new())
        .expect("compiles")
        .kernel("stage")
        .expect("kernel present")
        .clone();

    // Race every key once in-process and train on the decisions. These
    // are the campaign's only launches.
    let rows: Vec<TrainRow> = (0..distinct)
        .map(|k| {
            let g = global_of(k);
            let workload = Workload::new(move || {
                let mut ctx = Context::new();
                let input: Vec<f32> = (0..g).map(|i| (i % 61) as f32).collect();
                let a = ctx.buffer_f32(&input);
                let b = ctx.zeros_f32(g as usize);
                (
                    ctx,
                    vec![ArgValue::Buffer(a), ArgValue::Buffer(b)],
                    NdRange::d3([g, 1, 1], [64, 1, 1]),
                )
            });
            let d = Tuner::new()
                .tune(&kernel, "SNB", &workload)
                .expect("measured tune");
            TrainRow {
                device: "SNB".to_string(),
                kernel: kernel.name.clone(),
                features: FeatureVector::extract(&kernel, [g, 1, 1], [64, 1, 1]),
                choice: d.choice,
                np: d.np,
            }
        })
        .collect();
    let model = Model::train(
        &rows,
        &grover_core::pass_fingerprint(),
        &TrainConfig::default(),
    );
    let dir = temp_dir("predict");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, model.to_json()).unwrap();

    // Every request's features match a training row exactly, so its
    // confidence clears 0.9.
    let server = Server::start(
        ServeConfig {
            cache_dir: dir.clone(),
            model_path: Some(model_path),
            predict_threshold: 0.9,
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .unwrap();
    let addr = server.addr();
    let launches = scrape(addr, "grover_serve_launches_total");
    let races = scrape(addr, "grover_serve_tune_races_total");
    let samples = campaign(
        &server,
        "/v1/predict",
        "predicted",
        (clients, requests, distinct),
        false,
        0x9ed1,
    );

    assert_eq!(count(&samples, |s| s.status == 200), requests as usize);
    assert_eq!(count(&samples, |s| s.flag == Some(true)), requests as usize);
    assert_eq!(count(&samples, |s| !s.echoed), 0);
    assert_eq!(scrape(addr, "grover_serve_launches_total"), launches);
    assert_eq!(scrape(addr, "grover_serve_tune_races_total"), races);
    assert_eq!(scrape(addr, "grover_serve_predict_hits_total"), requests);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
