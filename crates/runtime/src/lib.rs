#![warn(missing_docs)]
//! # grover-runtime
//!
//! An OpenCL-like host API and NDRange interpreter for [`grover_ir`]
//! kernels — the stand-in for the vendor OpenCL runtimes of the Grover
//! paper's experimental pipeline (paper §V-A).
//!
//! * [`Context`] owns device buffers (`clCreateBuffer`-style).
//! * [`enqueue`] launches a kernel over an [`NdRange`] with full work-group
//!   semantics: work-items of a group execute serially between barriers and
//!   rendezvous at each [`grover_ir::value::Inst::Barrier`].
//! * [`enqueue_with_backend`] additionally names the work-group schedule
//!   ([`ExecPolicy`]; serial on the calling thread is the only one) and
//!   the execution engine ([`Backend`]).
//! * [`enqueue_observed`] records the launch as a telemetry span and can
//!   collect a per-opcode [`OpProfile`].
//!
//! Every production launch runs the register-bytecode engine
//! ([`Backend::default`]). The tree-walking interpreter
//! ([`Backend::Interp`]) stays only as the differential reference the
//! bytecode engine is checked against; both are bit-identical.
//! * Every memory access streams an [`AccessEvent`] into a [`TraceSink`];
//!   the device simulator (`grover-devsim`) replays these events against
//!   cache/scratch-pad models to estimate per-device performance.
//!
//! ```
//! use grover_frontend::{compile, BuildOptions};
//! use grover_runtime::{enqueue, ArgValue, Context, Limits, NdRange, NullSink};
//!
//! let module = compile(
//!     "__kernel void scale(__global float* a, float s) {
//!          int i = get_global_id(0);
//!          a[i] = a[i] * s;
//!      }",
//!     &BuildOptions::new(),
//! ).unwrap();
//! let kernel = module.kernel("scale").unwrap();
//!
//! let mut ctx = Context::new();
//! let buf = ctx.buffer_f32(&[1.0, 2.0, 3.0, 4.0]);
//! enqueue(
//!     &mut ctx,
//!     kernel,
//!     &[ArgValue::Buffer(buf), ArgValue::F32(2.0)],
//!     &NdRange::d1(4, 2),
//!     &mut NullSink,
//!     &Limits::default(),
//! ).unwrap();
//! assert_eq!(ctx.read_f32(buf), &[2.0, 4.0, 6.0, 8.0]);
//! ```

pub mod buffer;
pub mod bytecode;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod interp;
pub mod obs;
pub mod trace;
pub mod val;

pub use buffer::{Buffer, BufferData, Context};
pub use bytecode::{disassemble, Backend, BlockProfile, OpKindProfile, OpProfile};
pub use interp::{
    enqueue, enqueue_with_backend, ArgValue, ExecPolicy, LaunchStats, Limits, NdRange,
};
pub use obs::enqueue_observed;
pub use trace::{AccessEvent, CountingSink, NullSink, SpaceBytes, TraceOp, TraceSink, VecSink};
pub use val::{PtrVal, Val};

/// Execution failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Wrong number of kernel arguments.
    ArgCount {
        /// Parameters the kernel declares.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// Argument/operation type mismatch.
    TypeMismatch(String),
    /// Memory access outside a buffer.
    OutOfBounds {
        /// Buffer index (`u32::MAX` = a local buffer).
        buffer: u32,
        /// Offending element index.
        index: usize,
        /// Buffer length in elements.
        len: usize,
    },
    /// Misaligned or negative address.
    BadAddress(i64),
    /// Integer division by zero.
    DivisionByZero,
    /// Work-items of one group reached different barriers (or some returned
    /// while others wait) — undefined behaviour in OpenCL, an error here.
    BarrierDivergence,
    /// The launch exceeded [`Limits::max_instructions`].
    InstructionLimit,
    /// The launch exceeded [`Limits::deadline`] (wall clock). The watchdog
    /// runs at every group start and budget refill, so the launch stops
    /// within one budget chunk of the deadline passing.
    DeadlineExceeded,
    /// Invalid NDRange geometry.
    BadNdRange(String),
    /// A construct the interpreter does not support.
    Unsupported(String),
    /// A panic while executing a work-group (in the interpreter, a trace
    /// sink, or an injected fault) was caught and converted instead of
    /// unwinding through — or aborting — the process.
    WorkerPanic {
        /// Linear id of the group being executed.
        group: u32,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Interpreter invariant violation (a bug).
    Internal(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ArgCount { expected, got } => {
                write!(f, "kernel expects {expected} arguments, got {got}")
            }
            ExecError::TypeMismatch(s) => write!(f, "type mismatch: {s}"),
            ExecError::OutOfBounds { buffer, index, len } => {
                write!(
                    f,
                    "out-of-bounds access: buffer {buffer}, element {index}, length {len}"
                )
            }
            ExecError::BadAddress(a) => write!(f, "misaligned or negative address {a}"),
            ExecError::DivisionByZero => f.write_str("integer division by zero"),
            ExecError::BarrierDivergence => {
                f.write_str("work-items reached different barriers (divergent barrier)")
            }
            ExecError::InstructionLimit => f.write_str("instruction limit exceeded"),
            ExecError::DeadlineExceeded => f.write_str("launch exceeded its wall-clock deadline"),
            ExecError::BadNdRange(s) => write!(f, "invalid NDRange: {s}"),
            ExecError::Unsupported(s) => write!(f, "unsupported: {s}"),
            ExecError::WorkerPanic { group, message } => {
                write!(f, "worker panicked in work-group {group}: {message}")
            }
            ExecError::Internal(s) => write!(f, "internal interpreter error: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}
