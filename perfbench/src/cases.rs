//! The cases each workload runs: the paper's app × device matrix for
//! `tune-suite`, and `/v1/tune` request bodies for the serve workloads.

use grover_kernels::{all_apps, App, Scale};
use grover_obs::json::{self, Obj};
use grover_runtime::{ArgValue, BufferData};

/// The devices of the paper's Fig. 10 (CPUs) and GPU matrix, in sweep
/// order.
pub const SWEEP_DEVICES: [&str; 6] = ["SNB", "Nehalem", "MIC", "Fermi", "Kepler", "Tahiti"];

/// The devices `serve-hit` draws from. GPU hits cost ~0.2 ms and CPU hits
/// ~1.6 ms, so a uniform mix of both would put the median on the boundary
/// between the two clusters, where it does not repeat.
pub const HIT_DEVICES: [&str; 3] = ["SNB", "Nehalem", "MIC"];

/// Every app runs at the smallest dataset scale.
pub const SCALE: Scale = Scale::Test;

/// One app per distinct kernel source: NVD-MM-A/B/AB share one source and
/// differ only in which buffers the pass may disable, which a `/v1/tune`
/// request cannot express, so the server sees 9 sources.
pub fn serve_apps() -> Vec<App> {
    let mut out: Vec<App> = Vec::new();
    for app in all_apps() {
        if out.iter().all(|a| a.source != app.source) {
            out.push(app);
        }
    }
    out
}

/// One `/v1/tune` request: an app's kernel on one device.
#[derive(Clone, Debug)]
pub struct ServeKey {
    /// The kernel name, which names the source in the expected table.
    pub case: &'static str,
    /// Device profile name.
    pub device: &'static str,
    /// The request body.
    pub body: String,
}

/// The request body a launch-time client sends for `app` on `device`:
/// source, kernel, defines, explicit `args` and geometry, all taken from
/// the app's prepared launch. Explicit args matter: the server's
/// synthesised args drive AMD-MT out of bounds.
pub fn tune_body(app: &App, device: &str) -> String {
    let opts = (app.options)(SCALE);
    let defines = opts
        .defines()
        .iter()
        .fold(Obj::new(), |o, (k, v)| o.str(k, v))
        .finish();
    let p = (app.prepare)(SCALE);
    let args = json::array(p.args.iter().map(|a| match a {
        ArgValue::Buffer(b) => match p.ctx.data(*b) {
            BufferData::F32(v) => Obj::new().u64("buffer_f32", v.len() as u64).finish(),
            BufferData::I32(v) => Obj::new().u64("buffer_i32", v.len() as u64).finish(),
            other => panic!(
                "{}: no /v1/tune encoding for a {:?} buffer",
                app.id,
                other.scalar()
            ),
        },
        ArgValue::I32(n) => Obj::new().i64("i32", i64::from(*n)).finish(),
        ArgValue::I64(n) => Obj::new().i64("i64", *n).finish(),
        ArgValue::F32(x) => Obj::new().f64("f32", f64::from(*x)).finish(),
    }));
    let dims = |d: [u64; 3]| json::array(d.iter().map(u64::to_string));
    Obj::new()
        .str("source", app.source)
        .str("kernel", app.kernel)
        .raw("defines", &defines)
        .raw("args", &args)
        .raw("global", &dims(p.nd.global))
        .raw("local", &dims(p.nd.local))
        .str("device", device)
        .finish()
}

/// Every serve source on every one of `devices`.
pub fn serve_keys(devices: &[&'static str]) -> Vec<ServeKey> {
    serve_apps()
        .iter()
        .flat_map(|app| {
            devices.iter().map(move |&device| ServeKey {
                case: app.kernel,
                device,
                body: tune_body(app, device),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_sources_and_54_keys() {
        assert_eq!(serve_apps().len(), 9);
        let keys = serve_keys(&SWEEP_DEVICES);
        assert_eq!(keys.len(), 54);
        let mut ids: Vec<_> = keys.iter().map(|k| (k.case, k.device)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 54);
    }

    #[test]
    fn bodies_are_json_with_explicit_args() {
        for k in serve_keys(&HIT_DEVICES) {
            let v = json::parse(&k.body).expect("body parses");
            assert!(!v.get("args").and_then(|a| a.as_arr()).unwrap().is_empty());
            assert_eq!(v.str_of("device"), Some(k.device));
        }
    }
}
