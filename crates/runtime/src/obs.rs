//! Observed kernel launches: [`enqueue_observed`] wraps the launch engine
//! with a [`grover_obs::Recorder`] span carrying the launch's aggregate
//! metrics — instructions, per-address-space access counts and bytes,
//! geometry, wall time.
//!
//! With the recorder disabled (the default [`grover_obs::NoopRecorder`])
//! the call forwards straight to the unobserved engine: no tee sink and no
//! clock reads — production pays nothing.

use std::time::Instant;

use grover_ir::Function;
use grover_obs::{Recorder, SpanId, Value};

use crate::buffer::Context;
use crate::bytecode::{Backend, OpProfile};
use crate::interp::{enqueue_impl, ArgValue, LaunchStats, Limits, NdRange};
use crate::trace::{AccessEvent, CountingSink, TraceSink};
use crate::ExecError;

/// Forwards every callback to the wrapped sink while tallying counts for
/// the launch span, so observation composes with whatever sink the caller
/// brought (a device model, a [`crate::VecSink`], ...).
struct TeeSink<'a> {
    inner: &'a mut dyn TraceSink,
    counts: CountingSink,
}

impl TraceSink for TeeSink<'_> {
    fn access(&mut self, ev: &AccessEvent) {
        self.counts.access(ev);
        self.inner.access(ev);
    }

    fn barrier(&mut self, group: u32, items: u32) {
        self.counts.barrier(group, items);
        self.inner.barrier(group, items);
    }

    fn workitem_done(&mut self, group: u32, local: u32, instructions: u64) {
        self.counts.workitem_done(group, local, instructions);
        self.inner.workitem_done(group, local, instructions);
    }

    fn workgroup_done(&mut self, group: u32) {
        self.inner.workgroup_done(group);
    }

    // The tee itself always consumes accesses (it counts them), regardless
    // of what the inner sink wants.
    fn wants_events(&self) -> bool {
        true
    }
}

/// Launch a kernel like [`crate::enqueue_with_backend`], recording one
/// `launch` span (under `parent`, if given) on `recorder`.
///
/// Span attributes on success: `kernel`, `backend`, the geometry
/// (`work_groups`, `work_items`), `instructions`, `barriers`, per-space
/// access counts (`global_loads`, `local_stores`, ...), per-space byte
/// tallies (`global_bytes_loaded`, ...), totals (`bytes_loaded`,
/// `bytes_stored`) and `wall_us`. On failure the metrics observed up to
/// the error are still recorded, plus `error`.
///
/// When `profile_out` is `Some` and the backend is [`Backend::Bytecode`],
/// a successful launch writes its per-opcode [`OpProfile`] through
/// `profile_out` — its `total_charged` equals the launch's
/// [`LaunchStats::instructions`] exactly — and (when the recorder is
/// enabled) emits one
/// `profile` event on the launch span with `total_count`/`total_charged`
/// plus `count.<kind>` and `charged.<kind>` attributes per executed
/// opcode kind. With the interpreter reference, or on a failed launch,
/// `profile_out` is left as it was.
///
/// With the recorder disabled (e.g. [`grover_obs::NoopRecorder`]) this is
/// exactly [`crate::enqueue_with_backend`] plus the optional profile.
#[allow(clippy::too_many_arguments)]
pub fn enqueue_observed(
    ctx: &mut Context,
    kernel: &Function,
    args: &[ArgValue],
    nd: &NdRange,
    sink: &mut dyn TraceSink,
    limits: &Limits,
    backend: Backend,
    recorder: &dyn Recorder,
    parent: Option<SpanId>,
    profile_out: Option<&mut Option<OpProfile>>,
) -> Result<LaunchStats, ExecError> {
    if !recorder.enabled() {
        return enqueue_impl(ctx, kernel, args, nd, sink, limits, backend, profile_out);
    }

    let span = recorder.span_start("launch", parent);
    recorder.span_attr(span, "kernel", Value::from(kernel.name.as_str()));
    recorder.span_attr(span, "backend", Value::from(backend.name()));

    let mut tee = TeeSink {
        inner: sink,
        counts: CountingSink::default(),
    };
    let mut profile: Option<OpProfile> = None;
    let t0 = Instant::now();
    let result = enqueue_impl(
        ctx,
        kernel,
        args,
        nd,
        &mut tee,
        limits,
        backend,
        profile_out.is_some().then_some(&mut profile),
    );
    let wall = t0.elapsed();

    let c = &tee.counts;
    recorder.span_attr(span, "instructions", Value::from(c.instructions));
    recorder.span_attr(span, "barriers", Value::from(c.barriers));
    recorder.span_attr(span, "global_loads", Value::from(c.global_loads));
    recorder.span_attr(span, "global_stores", Value::from(c.global_stores));
    recorder.span_attr(span, "local_loads", Value::from(c.local_loads));
    recorder.span_attr(span, "local_stores", Value::from(c.local_stores));
    recorder.span_attr(span, "constant_loads", Value::from(c.constant_loads));
    recorder.span_attr(span, "private_loads", Value::from(c.private_loads));
    recorder.span_attr(span, "private_stores", Value::from(c.private_stores));
    recorder.span_attr(span, "bytes_loaded", Value::from(c.bytes_loaded));
    recorder.span_attr(span, "bytes_stored", Value::from(c.bytes_stored));
    recorder.span_attr(
        span,
        "global_bytes_loaded",
        Value::from(c.global_bytes.loaded),
    );
    recorder.span_attr(
        span,
        "global_bytes_stored",
        Value::from(c.global_bytes.stored),
    );
    recorder.span_attr(
        span,
        "local_bytes_loaded",
        Value::from(c.local_bytes.loaded),
    );
    recorder.span_attr(
        span,
        "local_bytes_stored",
        Value::from(c.local_bytes.stored),
    );
    recorder.span_attr(
        span,
        "constant_bytes_loaded",
        Value::from(c.constant_bytes.loaded),
    );
    recorder.span_attr(span, "wall_us", Value::from(wall.as_micros() as u64));
    match &result {
        Ok(stats) => {
            recorder.span_attr(span, "ok", Value::from(true));
            recorder.span_attr(span, "work_items", Value::from(stats.work_items));
            recorder.span_attr(span, "work_groups", Value::from(stats.work_groups));
        }
        Err(e) => {
            recorder.span_attr(span, "ok", Value::from(false));
            recorder.span_attr(span, "error", Value::from(e.to_string()));
        }
    }

    if let Some(p) = &profile {
        let mut attrs: Vec<(String, Value)> = vec![
            ("total_count".to_string(), Value::from(p.total_count)),
            ("total_charged".to_string(), Value::from(p.total_charged)),
        ];
        for row in &p.ops {
            attrs.push((format!("count.{}", row.kind), Value::from(row.count)));
            attrs.push((format!("charged.{}", row.kind), Value::from(row.charged)));
        }
        let borrowed: Vec<(&str, Value)> =
            attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        recorder.event("profile", Some(span), &borrowed);
    }
    if let (Some(out), Some(p)) = (profile_out, profile) {
        *out = Some(p);
    }
    recorder.span_end(span);
    result
}
