//! Short runs of every workload on the current code, and proof that the
//! failure accounting catches a wrong decision and a degraded answer.
//! Run with `cargo test --release` in this directory: a `tune-suite`
//! round is ~5 s optimised and far longer unoptimised.

use std::path::PathBuf;

use grover_kernels::app_by_id;
use grover_obs::json::{self, Obj};
use grover_perfbench::cases::{serve_keys, HIT_DEVICES, SCALE};
use grover_perfbench::expected::{Row, Table};
use grover_perfbench::workloads::{self, check_answer, post_tune, start_server, Outcome, Run};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn short_run(workload: &str, table: &Table) -> Outcome {
    let dir = scratch(workload);
    let out = workloads::run(
        workload,
        &Run {
            seed: 7,
            seconds: 0.2,
            table,
            scratch: &dir,
            program: None,
        },
    )
    .expect("workload runs");
    let _ = std::fs::remove_dir_all(dir);
    out
}

#[test]
fn every_workload_runs_without_failures() {
    let table = Table::committed();
    for w in workloads::NAMES {
        let out = short_run(w, &table);
        assert!(out.attempted > 0, "{w}: nothing attempted");
        assert!(
            out.ok_ops > 0 && !out.latencies_ms.is_empty(),
            "{w}: nothing measured"
        );
        assert_eq!(out.failed, 0, "{w}: {:?}", out.failures);
    }
    let mut checks = Outcome::default();
    workloads::reference_check(&mut checks);
    assert_eq!(
        (checks.attempted, checks.failed),
        (11, 0),
        "{:?}",
        checks.failures
    );
}

#[test]
fn a_corrupted_expected_entry_is_a_failed_op() {
    let mut table = Table::committed();
    let row = table.get("tune", "NVD-MT", "SNB").expect("row").clone();
    table.insert(
        "tune",
        "NVD-MT",
        "SNB",
        Row {
            cycles_with: row.cycles_with + 1,
            ..row
        },
    );
    // One round: every case once, so exactly the corrupted one fails.
    let out = short_run("tune-suite", &table);
    assert_eq!(out.attempted, 66);
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    assert!(
        out.failures[0].contains("NVD-MT on SNB"),
        "{:?}",
        out.failures
    );
}

#[test]
fn a_degraded_answer_is_a_failed_op() {
    let table = Table::committed();
    let dir = scratch("degraded");
    let server = start_server(&dir, None).expect("server starts");
    let addr = server.addr();
    // AMD-MT with server-synthesised args reads out of bounds; five such
    // execution failures open the circuit breaker.
    let app = app_by_id("AMD-MT").expect("app");
    let p = (app.prepare)(SCALE);
    let dims = |d: [u64; 3]| json::array(d.iter().map(u64::to_string));
    let defines = (app.options)(SCALE)
        .defines()
        .iter()
        .fold(Obj::new(), |o, (k, v)| o.str(k, v))
        .finish();
    let bad = Obj::new()
        .str("source", app.source)
        .str("kernel", app.kernel)
        .raw("defines", &defines)
        .raw("global", &dims(p.nd.global))
        .raw("local", &dims(p.nd.local))
        .str("device", "SNB")
        .finish();
    for _ in 0..5 {
        let (_, reply) = post_tune(addr, &bad);
        assert_eq!(reply.expect("answered").0, 500);
    }
    let key = &serve_keys(&HIT_DEVICES)[0];
    let reply = post_tune(addr, &key.body).1;
    let body = reply.clone().expect("answered").1;
    assert!(body.contains("\"degraded\":true"), "{body}");
    let mut out = Outcome::default();
    out.check(check_answer(&table, key, reply, false).map(|_| ()));
    assert_eq!((out.attempted, out.failed), (1, 1));
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
