//! A cache hit answers from the decision cache alone: it builds no device
//! model, and neither does rejecting an unknown device name.
//!
//! `Device::built` is a process-wide counter, so this binary holds exactly
//! one test: no other test's model builds can race with its readings.

use std::sync::Arc;

use grover_devsim::{Device, ALL_DEVICES};
use grover_obs::json::{self, Json};
use grover_obs::NoopRecorder;
use grover_runtime::{ArgValue, Context, NdRange};
use grover_serve::{http_request, ServeConfig, Server};
use grover_tuner::{TuneError, Tuner, Workload};

/// A kernel the pass fully transforms (the staging pattern).
const STAGE: &str = "__kernel void stage(__global float* in, __global float* out) {
    __local float lm[64];
    int lx = get_local_id(0);
    int gx = get_global_id(0);
    lm[lx] = in[gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gx] = lm[63 - lx];
}";

fn tune_body(device: &str) -> String {
    format!(
        "{{\"source\": {}, \"device\": \"{device}\", \"global\": [256], \"local\": [64]}}",
        json::escape(STAGE)
    )
}

fn post(server: &Server, body: &str) -> (u16, Json) {
    let (status, text) =
        http_request(server.addr(), "POST", "/v1/tune", Some(body)).expect("request succeeds");
    (status, json::parse(&text).unwrap_or(Json::Null))
}

#[test]
fn cache_hits_and_unknown_devices_build_no_device_model() {
    let dir = std::env::temp_dir().join(format!("grover-serve-nomodel-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let server = Server::start(
        ServeConfig {
            cache_dir: dir.clone(),
            ..ServeConfig::default()
        },
        Arc::new(NoopRecorder),
    )
    .expect("server starts");

    // Warm one key: the race builds models.
    let before_warm = Device::built();
    let (status, warm) = post(&server, &tune_body("MIC"));
    assert_eq!(status, 200, "{warm:?}");
    assert_eq!(warm.bool_of("cached"), Some(false));
    assert!(Device::built() > before_warm, "a race builds device models");

    // Hits build none.
    let before_hits = Device::built();
    for _ in 0..16 {
        let (status, hit) = post(&server, &tune_body("MIC"));
        assert_eq!(status, 200, "{hit:?}");
        assert_eq!(hit.bool_of("cached"), Some(true));
        assert_eq!(hit.str_of("choice"), warm.str_of("choice"));
    }
    assert_eq!(
        Device::built(),
        before_hits,
        "a cache hit built a device model"
    );
    assert_eq!(server.metrics().cache_hits.get(), 16);

    // An unknown device is still a 400 naming every known device, and
    // rejecting it builds nothing.
    let (status, resp) = post(&server, &tune_body("NoSuchDevice"));
    assert_eq!(status, 400, "{resp:?}");
    assert_eq!(resp.str_of("kind"), Some("bad_request"));
    let msg = resp.str_of("error").expect("error message");
    assert!(msg.contains("unknown device `NoSuchDevice`"), "{msg}");
    assert!(msg.contains(&ALL_DEVICES.join(", ")), "{msg}");
    assert_eq!(Device::built(), before_hits);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // The tuner rejects the name before any transform or launch.
    let module = grover_frontend::compile(STAGE, &Default::default()).expect("compiles");
    let workload = Workload::new(|| -> (Context, Vec<ArgValue>, NdRange) {
        panic!("an unknown device must not reach a launch")
    });
    let mut tuner = Tuner::new();
    assert!(matches!(
        tuner.tune(&module.kernels[0], "NoSuchDevice", &workload),
        Err(TuneError::UnknownDevice(d)) if d == "NoSuchDevice"
    ));
    assert_eq!(Device::built(), before_hits);
}
