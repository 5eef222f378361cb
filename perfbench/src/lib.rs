//! The repository benchmark. One command runs one of three workloads
//! against the public APIs as real callers use them —
//! `grover_kernels::prepare_pair` with `grover_tuner::Tuner`, and
//! `grover_serve::Server` over HTTP — checks every answer, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). See `README.md` in this directory.

pub mod cases;
pub mod expected;
pub mod probe;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
