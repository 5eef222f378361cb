//! The error matrix: every recoverable [`ExecError`] variant, provoked by a
//! real kernel, on both execution engines (the production bytecode engine
//! and the interpreter reference). For each scenario both must report the
//! *same* error — the one belonging to the first failing group in
//! group-linear order.

use std::time::Duration;

use grover_frontend::{compile, BuildOptions};
use grover_ir::Function;
use grover_runtime::{
    enqueue_with_backend, ArgValue, Backend, Context, ExecError, ExecPolicy, LaunchStats, Limits,
    NdRange, NullSink,
};

fn kernel(src: &str) -> Function {
    compile(src, &BuildOptions::new())
        .unwrap_or_else(|e| panic!("compile: {e}"))
        .kernels
        .remove(0)
}

const BACKENDS: [Backend; 2] = [Backend::Bytecode, Backend::Interp];

/// Launch `k` over a fresh 8-element i32 buffer; returns the buffer's
/// final contents and the launch result.
fn launch(
    k: &Function,
    nd: &NdRange,
    limits: &Limits,
    backend: Backend,
) -> (Vec<i32>, Result<LaunchStats, ExecError>) {
    let mut ctx = Context::new();
    let a = ctx.zeros_i32(8);
    let res = enqueue_with_backend(
        &mut ctx,
        k,
        &[ArgValue::Buffer(a)],
        nd,
        &mut NullSink,
        limits,
        ExecPolicy::Serial,
        backend,
    );
    (ctx.read_i32(a).to_vec(), res)
}

/// Run `k` over a fresh 8-element i32 buffer per engine and hand each
/// outcome to `check`.
fn for_each_engine(
    k: &Function,
    nd: &NdRange,
    limits: &Limits,
    check: impl Fn(Backend, Result<(), ExecError>),
) {
    for backend in BACKENDS {
        check(backend, launch(k, nd, limits, backend).1.map(|_| ()));
    }
}

#[test]
fn out_of_bounds_same_under_both_policies() {
    // Group 3 runs off the end of the 8-element buffer.
    let k = kernel(
        "__kernel void oob(__global int* a) {
             int w = get_group_id(0);
             int i = w == 3 ? w + 100 : w;
             a[i] = w;
         }",
    );
    for_each_engine(
        &k,
        &NdRange::d1(6, 1),
        &Limits::default(),
        |backend, res| {
            assert_eq!(
                res.unwrap_err(),
                ExecError::OutOfBounds {
                    buffer: 0,
                    index: 103,
                    len: 8
                },
                "{backend}"
            );
        },
    );
}

#[test]
fn division_by_zero_same_under_both_policies() {
    let k = kernel(
        "__kernel void dbz(__global int* a) {
             int w = get_group_id(0);
             a[w] = 100 / (2 - w);
         }",
    );
    for backend in BACKENDS {
        let (out, res) = launch(&k, &NdRange::d1(8, 1), &Limits::default(), backend);
        assert_eq!(res.unwrap_err(), ExecError::DivisionByZero, "{backend}");
        // Groups 0 and 1 precede the failing group and have completed.
        assert_eq!(&out[..2], &[50, 100], "{backend}");
    }
}

#[test]
fn barrier_divergence_same_under_both_policies() {
    // Within group 1, work-item 0 skips the barrier the others reach.
    let k = kernel(
        "__kernel void div(__global int* a) {
             int w = get_group_id(0);
             int lx = get_local_id(0);
             if (w != 1 || lx != 0) {
                 barrier(CLK_LOCAL_MEM_FENCE);
             }
             a[w] = lx;
         }",
    );
    for_each_engine(
        &k,
        &NdRange::d1(8, 2),
        &Limits::default(),
        |backend, res| {
            assert_eq!(res.unwrap_err(), ExecError::BarrierDivergence, "{backend}");
        },
    );
}

#[test]
fn instruction_limit_same_under_both_policies() {
    // An effectively unbounded loop must die on the launch budget, not hang.
    let k = kernel(
        "__kernel void spin(__global int* a) {
             int acc = 0;
             for (int i = 0; i < 100000000; i++) { acc = acc + i; }
             a[get_group_id(0)] = acc;
         }",
    );
    let limits = Limits {
        max_instructions: 10_000,
        ..Limits::default()
    };
    for_each_engine(&k, &NdRange::d1(8, 1), &limits, |backend, res| {
        assert_eq!(res.unwrap_err(), ExecError::InstructionLimit, "{backend}");
    });
}

#[test]
fn bad_ndrange_same_under_both_policies() {
    // Local size does not divide the global size.
    let k = kernel(
        "__kernel void ok(__global int* a) {
             a[get_group_id(0)] = 1;
         }",
    );
    for_each_engine(
        &k,
        &NdRange::d1(10, 3),
        &Limits::default(),
        |backend, res| {
            assert!(
                matches!(res.unwrap_err(), ExecError::BadNdRange(_)),
                "{backend}"
            );
        },
    );
}

#[test]
fn deadline_exceeded_same_under_both_policies() {
    // A hot loop against a deadline that has effectively already passed
    // reports the deadline, never InstructionLimit.
    let k = kernel(
        "__kernel void spin(__global int* a) {
             int acc = 0;
             for (int i = 0; i < 100000000; i++) { acc = acc + i; }
             a[get_group_id(0)] = acc;
         }",
    );
    let limits = Limits {
        deadline: Some(Duration::ZERO),
        ..Limits::default()
    };
    for_each_engine(&k, &NdRange::d1(8, 1), &limits, |backend, res| {
        assert_eq!(res.unwrap_err(), ExecError::DeadlineExceeded, "{backend}");
    });
}

#[test]
fn generous_deadline_does_not_trip() {
    let k = kernel(
        "__kernel void ok(__global int* a) {
             a[get_group_id(0)] = get_group_id(0);
         }",
    );
    let limits = Limits {
        deadline: Some(Duration::from_secs(3600)),
        ..Limits::default()
    };
    for_each_engine(&k, &NdRange::d1(8, 1), &limits, |backend, res| {
        assert!(res.is_ok(), "{backend}");
    });
}

#[test]
fn first_failing_group_wins() {
    // Groups 2 and 5 both fail, differently. Group 2's out-of-bounds store
    // is the reported error, and groups 0–1 have committed their results.
    let k = kernel(
        "__kernel void two(__global int* a) {
             int w = get_group_id(0);
             int i = w == 2 ? 1000 : w;
             int d = w == 5 ? 0 : 1;
             a[i] = w / d;
         }",
    );
    for backend in BACKENDS {
        let (out, res) = launch(&k, &NdRange::d1(8, 1), &Limits::default(), backend);
        assert_eq!(
            res.unwrap_err(),
            ExecError::OutOfBounds {
                buffer: 0,
                index: 1000,
                len: 8
            },
            "{backend}"
        );
        assert_eq!(&out[..2], &[0, 1], "{backend}");
    }
}

#[test]
fn arg_count_same_under_both_policies() {
    let k = kernel(
        "__kernel void ok(__global int* a, int n) {
             a[get_group_id(0)] = n;
         }",
    );
    for_each_engine(
        &k,
        &NdRange::d1(8, 1),
        &Limits::default(),
        |backend, res| {
            assert_eq!(
                res.unwrap_err(),
                ExecError::ArgCount {
                    expected: 2,
                    got: 1
                },
                "{backend}"
            );
        },
    );
}

#[test]
fn instruction_limit_is_exact() {
    // The budget is handed out in chunks of 2^20 instructions; a launch
    // that spends more than one chunk still fails on exactly the
    // instruction after the budget runs out, never earlier. Straight-line
    // code has no phis, so every counted instruction spends budget.
    let k = kernel(
        "__kernel void count(__global int* a) {
             int g = get_global_id(0);
             a[g & 7] = g * 3 + 1;
         }",
    );
    let nd = NdRange::d1(1 << 18, 64);
    let limited = |max_instructions| Limits {
        max_instructions,
        ..Limits::default()
    };
    for backend in BACKENDS {
        let (_, res) = launch(&k, &nd, &Limits::default(), backend);
        let needed = res.unwrap().instructions;
        assert!(needed > 1 << 20, "{backend}: {needed} fits in one chunk");
        let (_, res) = launch(&k, &nd, &limited(needed), backend);
        assert_eq!(res.unwrap().instructions, needed, "{backend}");
        let (_, res) = launch(&k, &nd, &limited(needed - 1), backend);
        assert_eq!(res.unwrap_err(), ExecError::InstructionLimit, "{backend}");
    }
}
