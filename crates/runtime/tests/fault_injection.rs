//! Exercises the `fault-injection` feature against the real engine: every
//! [`FaultSite`]/[`FaultKind`] combination the hardened pipeline relies on.
//!
//! Plans are always targeted at a per-test kernel name: `inject` serialises
//! concurrent injectors, but launches from other tests in this binary may
//! still overlap a held guard, and must never match its plan.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use grover_frontend::{compile, BuildOptions};
use grover_ir::Function;
use grover_runtime::fault::{self, FaultKind, FaultPlan, FaultSite, FaultTarget};
use grover_runtime::{
    enqueue_with_backend, ArgValue, Backend, Context, ExecError, ExecPolicy, Limits, NdRange,
    NullSink,
};

/// `__kernel void <name>(__global int* a) { a[w] = w; }` over 8 groups.
fn store_kernel(name: &str) -> Function {
    let src = format!(
        "__kernel void {name}(__global int* a) {{
             int w = get_group_id(0);
             a[w] = w;
         }}"
    );
    compile(&src, &BuildOptions::new())
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .kernels
        .remove(0)
}

fn launch(k: &Function, limits: &Limits) -> (Context, Result<(), ExecError>) {
    let mut ctx = Context::new();
    let a = ctx.zeros_i32(8);
    let res = enqueue_with_backend(
        &mut ctx,
        k,
        &[ArgValue::Buffer(a)],
        &NdRange::d1(8, 1),
        &mut NullSink,
        limits,
        ExecPolicy::Serial,
        Backend::default(),
    )
    .map(|_| ());
    (ctx, res)
}

#[test]
fn group_panic_is_isolated_and_attributed() {
    let k = store_kernel("fi_gpanic");
    let _guard = fault::inject(FaultPlan {
        target: FaultTarget::kernel("fi_gpanic"),
        site: FaultSite::Group(2),
        kind: FaultKind::Panic,
        max_fires: 0,
    });
    let (_, res) = launch(&k, &Limits::default());
    match res.unwrap_err() {
        ExecError::WorkerPanic { group, message } => {
            assert_eq!(group, 2);
            assert!(message.contains("fault-injection"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn launch_start_panic_escapes_enqueue() {
    // A launch-entry fault models the death of a whole measurement (the
    // tuner race thread): it must propagate out of `enqueue` itself, to be
    // caught by the *caller's* isolation, not converted to an ExecError.
    let k = store_kernel("fi_lpanic");
    let _guard = fault::inject(FaultPlan {
        target: FaultTarget::kernel("fi_lpanic"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::Panic,
        max_fires: 0,
    });
    let unwound = catch_unwind(AssertUnwindSafe(|| launch(&k, &Limits::default())));
    assert!(unwound.is_err(), "launch-entry panic must unwind");
}

#[test]
fn injected_error_surfaces_verbatim() {
    let k = store_kernel("fi_err");
    let injected = ExecError::Unsupported("injected for test".into());
    let _guard = fault::inject(FaultPlan {
        target: FaultTarget::kernel("fi_err"),
        site: FaultSite::Group(1),
        kind: FaultKind::Error(injected.clone()),
        max_fires: 0,
    });
    let (_, res) = launch(&k, &Limits::default());
    assert_eq!(res.unwrap_err(), injected);
}

#[test]
fn sleep_trips_the_watchdog() {
    let k = store_kernel("fi_sleep");
    let _guard = fault::inject(FaultPlan {
        target: FaultTarget::kernel("fi_sleep"),
        site: FaultSite::Group(0),
        kind: FaultKind::Sleep(Duration::from_millis(50)),
        max_fires: 0,
    });
    let limits = Limits {
        deadline: Some(Duration::from_millis(5)),
        ..Limits::default()
    };
    let (_, res) = launch(&k, &limits);
    assert_eq!(res.unwrap_err(), ExecError::DeadlineExceeded);
}

#[test]
fn corrupt_stores_perturbs_globals_from_trigger_group() {
    let k = store_kernel("fi_corrupt");
    let _guard = fault::inject(FaultPlan {
        target: FaultTarget::kernel("fi_corrupt"),
        site: FaultSite::Group(1),
        kind: FaultKind::CorruptStores,
        max_fires: 0,
    });
    let (ctx, res) = launch(&k, &Limits::default());
    res.unwrap();
    let got = ctx.buffers()[0].clone();
    let grover_runtime::BufferData::I32(got) = got else {
        panic!("expected i32 buffer");
    };
    // Group 0 is clean; groups >= 1 store w ^ 1.
    let want: Vec<i32> = (0..8).map(|w| if w == 0 { 0 } else { w ^ 1 }).collect();
    assert_eq!(got, want);
}

#[test]
fn max_fires_limits_the_fault_to_n_launches() {
    let k = store_kernel("fi_once");
    let _guard = fault::inject(FaultPlan {
        target: FaultTarget::kernel("fi_once"),
        site: FaultSite::Group(0),
        kind: FaultKind::Error(ExecError::Internal("transient".into())),
        max_fires: 1,
    });
    let (_, first) = launch(&k, &Limits::default());
    assert!(first.is_err(), "first launch must hit the fault");
    let (ctx, second) = launch(&k, &Limits::default());
    second.expect("fault exhausted — second launch must be clean");
    let grover_runtime::BufferData::I32(got) = &ctx.buffers()[0] else {
        panic!("expected i32 buffer");
    };
    assert_eq!(got, &[0, 1, 2, 3, 4, 5, 6, 7]);
}

#[test]
fn instruction_site_fault_fires_mid_group() {
    let k = store_kernel("fi_inst");
    let injected = ExecError::Internal("mid-group".into());
    let _guard = fault::inject(FaultPlan {
        target: FaultTarget::kernel("fi_inst"),
        site: FaultSite::Instruction(5),
        kind: FaultKind::Error(injected.clone()),
        max_fires: 0,
    });
    let (_, res) = launch(&k, &Limits::default());
    assert_eq!(res.unwrap_err(), injected);
}

#[test]
fn plans_target_only_matching_kernels() {
    let hit = store_kernel("fi_target_hit");
    let miss = store_kernel("fi_target_miss");
    let _guard = fault::inject(FaultPlan {
        target: FaultTarget::kernel("fi_target_hit"),
        site: FaultSite::Group(0),
        kind: FaultKind::Panic,
        max_fires: 0,
    });
    let (_, res) = launch(&hit, &Limits::default());
    assert!(matches!(res.unwrap_err(), ExecError::WorkerPanic { .. }));
    let (_, res) = launch(&miss, &Limits::default());
    res.expect("plan must not match a differently-named kernel");
}

#[test]
fn dropping_the_guard_uninstalls_the_plan() {
    let k = store_kernel("fi_drop");
    {
        let _guard = fault::inject(FaultPlan {
            target: FaultTarget::kernel("fi_drop"),
            site: FaultSite::Group(0),
            kind: FaultKind::Panic,
            max_fires: 0,
        });
        let (_, res) = launch(&k, &Limits::default());
        assert!(res.is_err());
    }
    let (_, res) = launch(&k, &Limits::default());
    res.expect("plan must be gone after the guard drops");
}

#[test]
fn local_mem_free_targeting_distinguishes_versions() {
    // Same name, two versions: one staging through __local, one not — the
    // `transformed`/`original` selectors must tell them apart (this is how
    // tuner tests hit exactly one side of a race).
    let with_lm = compile(
        "__kernel void fi_vers(__global float* in, __global float* out) {
             __local float lm[16];
             int lx = get_local_id(0);
             lm[lx] = in[lx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[lx] = lm[15 - lx];
         }",
        &BuildOptions::new(),
    )
    .unwrap()
    .kernels
    .remove(0);
    let without_lm = compile(
        "__kernel void fi_vers(__global float* in, __global float* out) {
             int lx = get_local_id(0);
             out[lx] = in[15 - lx];
         }",
        &BuildOptions::new(),
    )
    .unwrap()
    .kernels
    .remove(0);

    let _guard = fault::inject(FaultPlan {
        target: FaultTarget::transformed("fi_vers"),
        site: FaultSite::Group(0),
        kind: FaultKind::Panic,
        max_fires: 0,
    });
    let run = |k: &Function| {
        let mut ctx = Context::new();
        let a = ctx.buffer_f32(&[1.0; 16]);
        let b = ctx.zeros_f32(16);
        enqueue_with_backend(
            &mut ctx,
            k,
            &[ArgValue::Buffer(a), ArgValue::Buffer(b)],
            &NdRange::d1(16, 16),
            &mut NullSink,
            &Limits::default(),
            ExecPolicy::Serial,
            Backend::default(),
        )
        .map(|_| ())
    };
    run(&with_lm).expect("original version must not match a `transformed` target");
    assert!(matches!(
        run(&without_lm).unwrap_err(),
        ExecError::WorkerPanic { .. }
    ));
}
