//! Differential gate for the bytecode backend: every app, both kernel
//! versions, must produce bit-identical output buffers,
//! identical launch statistics and identical trace tallies on the
//! interpreter and the bytecode backend.

use grover_kernels::{
    all_apps, extension_apps, prepare_pair, run_prepared_backend, App, Expected, Prepared, Scale,
};
use grover_runtime::{Backend, CountingSink, ExecPolicy, LaunchStats};

/// Output buffer as raw bits, so float comparison is bit-exact rather than
/// tolerance-based.
enum Bits {
    I32(Vec<i32>),
    F32(Vec<u32>),
}

impl PartialEq for Bits {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Bits::I32(a), Bits::I32(b)) => a == b,
            (Bits::F32(a), Bits::F32(b)) => a == b,
            _ => false,
        }
    }
}

struct Observed {
    bits: Bits,
    stats: LaunchStats,
    counts: CountingSink,
}

fn run_one(app: &App, kernel: &grover_ir::Function, backend: Backend) -> Observed {
    let prepared = (app.prepare)(Scale::Test);
    let mut sink = CountingSink::default();
    // Keep the prepared workload alive past the run so the output buffer
    // can be read back bit-for-bit: re-prepare and run manually.
    let Prepared {
        mut ctx,
        args,
        nd,
        out,
        expected,
        ..
    } = prepared;
    let stats = grover_runtime::enqueue_with_backend(
        &mut ctx,
        kernel,
        &args,
        &nd,
        &mut sink,
        &grover_runtime::Limits::default(),
        ExecPolicy::Serial,
        backend,
    )
    .unwrap_or_else(|e| panic!("{} [{}]: {e}", app.id, backend));
    let bits = match expected {
        Expected::I32(_) => Bits::I32(ctx.read_i32(out).to_vec()),
        Expected::F32(_) => Bits::F32(ctx.read_f32(out).iter().map(|f| f.to_bits()).collect()),
    };
    Observed {
        bits,
        stats,
        counts: sink,
    }
}

fn assert_identical(app: &App, kernel: &grover_ir::Function, which: &str) {
    let a = run_one(app, kernel, Backend::Interp);
    let b = run_one(app, kernel, Backend::Bytecode);
    assert!(
        a.bits == b.bits,
        "{} {which}: output bits differ between backends",
        app.id
    );
    assert_eq!(a.stats, b.stats, "{} {which}: launch stats differ", app.id);
    let (ca, cb) = (&a.counts, &b.counts);
    assert_eq!(
        (ca.instructions, ca.barriers),
        (cb.instructions, cb.barriers),
        "{} {which}: instruction/barrier tallies differ",
        app.id
    );
    assert_eq!(
        (
            ca.global_loads,
            ca.global_stores,
            ca.local_loads,
            ca.local_stores
        ),
        (
            cb.global_loads,
            cb.global_stores,
            cb.local_loads,
            cb.local_stores
        ),
        "{} {which}: access tallies differ",
        app.id
    );
    assert_eq!(
        (ca.bytes_loaded, ca.bytes_stored),
        (cb.bytes_loaded, cb.bytes_stored),
        "{} {which}: byte tallies differ",
        app.id
    );
}

fn suite() -> Vec<App> {
    let mut apps = all_apps();
    apps.extend(extension_apps());
    assert!(apps.len() >= 12, "expected the full 12-app suite");
    apps
}

#[test]
fn all_apps_bit_identical_serial() {
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        assert_identical(&app, &pair.original, "original");
        assert_identical(&app, &pair.transformed, "transformed");
    }
}

#[test]
fn bytecode_validates_against_reference() {
    // Beyond matching the interpreter, the bytecode backend must satisfy
    // the apps' own reference checks (exact for i32, tolerance for f32).
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        for kernel in [&pair.original, &pair.transformed] {
            let mut sink = grover_runtime::NullSink;
            run_prepared_backend(
                kernel,
                (app.prepare)(Scale::Test),
                &mut sink,
                ExecPolicy::Serial,
                Backend::Bytecode,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", app.id));
        }
    }
}
