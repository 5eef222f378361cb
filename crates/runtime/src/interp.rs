//! The NDRange interpreter: executes kernels with OpenCL work-group
//! semantics. Work-items of a group run serially between barriers (the way
//! CPU OpenCL runtimes schedule them [paper §VI-C]); at a barrier every
//! item of the group must arrive before any proceeds.
//!
//! Work-groups of one launch run one after another on the calling thread,
//! in group-linear order — see [`ExecPolicy`] and [`enqueue_with_backend`].
//!
//! The same launch engine drives the production bytecode engine
//! ([`crate::bytecode`]); the tree-walking interpreter in this module is
//! the differential reference it is checked against.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use grover_ir::{
    AddressSpace, BinOp, BlockId, Builtin, CastKind, CmpPred, ConstVal, Function, Inst, Scalar,
    Type, ValueDef, ValueId,
};

use crate::buffer::{Buffer, BufferData, Context, GlobalMem};
use crate::bytecode::{self, Backend};
use crate::trace::{AccessEvent, TraceOp, TraceSink};
use crate::val::{PtrVal, Val};
use crate::ExecError;

/// Kernel launch geometry (`clEnqueueNDRangeKernel`).
#[derive(Clone, Copy, Debug)]
pub struct NdRange {
    /// Global work size per dimension.
    pub global: [u64; 3],
    /// Work-group size per dimension.
    pub local: [u64; 3],
}

impl NdRange {
    /// A 1-D launch.
    pub fn d1(global: u64, local: u64) -> NdRange {
        NdRange {
            global: [global, 1, 1],
            local: [local, 1, 1],
        }
    }

    /// A 2-D launch.
    pub fn d2(gx: u64, gy: u64, lx: u64, ly: u64) -> NdRange {
        NdRange {
            global: [gx, gy, 1],
            local: [lx, ly, 1],
        }
    }

    /// A 3-D launch.
    pub fn d3(g: [u64; 3], l: [u64; 3]) -> NdRange {
        NdRange {
            global: g,
            local: l,
        }
    }

    /// Work-groups per dimension.
    pub fn num_groups(&self) -> [u64; 3] {
        [
            self.global[0] / self.local[0],
            self.global[1] / self.local[1],
            self.global[2] / self.local[2],
        ]
    }

    /// Work-items per group.
    pub fn items_per_group(&self) -> u64 {
        self.local.iter().product()
    }

    /// Total work-items in the launch.
    pub fn total_items(&self) -> u64 {
        self.global.iter().product()
    }

    fn validate(&self) -> Result<(), ExecError> {
        for d in 0..3 {
            if self.local[d] == 0 || self.global[d] == 0 {
                return Err(ExecError::BadNdRange("zero dimension".into()));
            }
            if !self.global[d].is_multiple_of(self.local[d]) {
                return Err(ExecError::BadNdRange(format!(
                    "global size {} not divisible by local size {} in dim {d}",
                    self.global[d], self.local[d]
                )));
            }
        }
        Ok(())
    }
}

/// A kernel argument.
#[derive(Clone, Copy, Debug)]
pub enum ArgValue {
    /// A device buffer (pointer parameters).
    Buffer(Buffer),
    /// A 32-bit integer scalar.
    I32(i32),
    /// A 64-bit integer scalar.
    I64(i64),
    /// A 32-bit float scalar.
    F32(f32),
}

/// Aggregate statistics of one launch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Total IR instructions executed.
    pub instructions: u64,
    /// Barrier rendezvous executed (one per group per barrier).
    pub barriers: u64,
    /// Work-items run.
    pub work_items: u64,
    /// Work-groups run.
    pub work_groups: u64,
}

/// Execution limits.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum total IR instructions across the launch. The instruction
    /// right after the budget runs out fails with
    /// [`ExecError::InstructionLimit`] — the same instruction on every run.
    pub max_instructions: u64,
    /// Optional wall-clock deadline for the whole launch. The watchdog is
    /// checked at every work-group start and at budget-refill granularity
    /// (every 2^20 instructions), so a launch overshoots the deadline by
    /// at most one chunk's execution time before it stops with
    /// [`ExecError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_instructions: 20_000_000_000,
            deadline: None,
        }
    }
}

/// How the work-groups of a launch are scheduled onto host threads.
///
/// Work-groups run one after another on the calling thread, in
/// group-linear order (`x` fastest). Concurrency lives one level up: the
/// tuner races whole measurements on scoped threads, and the serving layer
/// runs requests on its worker pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Run work-groups one after another on the calling thread.
    #[default]
    Serial,
}

/// Instructions spent between two watchdog checks.
const BUDGET_CHUNK: u64 = 1 << 20;

/// The launch-wide instruction budget ([`Limits::max_instructions`]) and
/// wall-clock watchdog ([`Limits::deadline`]), owned by the launch loop.
/// The budget is handed out in chunks: `left` counts down inside the
/// current chunk, so the hot loop does one decrement per instruction, and
/// each refill doubles as a watchdog check. The instruction *after* the
/// budget runs out fails with [`ExecError::InstructionLimit`].
pub(crate) struct Budget {
    /// Instructions not yet handed out to a chunk.
    avail: u64,
    /// Instructions left in the current chunk.
    left: u64,
    start: Instant,
    deadline: Option<Duration>,
    /// Injected instruction-site fault: countdown and plan.
    #[cfg(feature = "fault-injection")]
    fault: Option<(u64, std::sync::Arc<crate::fault::Installed>)>,
}

impl Budget {
    /// Watchdog check: fails once the launch has run past its deadline.
    pub(crate) fn check_deadline(&self) -> Result<(), ExecError> {
        match self.deadline {
            Some(d) if self.start.elapsed() > d => Err(ExecError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    #[inline]
    pub(crate) fn spend(&mut self) -> Result<(), ExecError> {
        #[cfg(feature = "fault-injection")]
        if let Some((countdown, inst)) = &mut self.fault {
            *countdown -= 1;
            if *countdown == 0 {
                let inst = inst.clone();
                self.fault = None;
                crate::fault::instruction_hook(&inst)?;
            }
        }
        if self.left == 0 {
            self.refill()?;
        }
        self.left -= 1;
        Ok(())
    }

    fn refill(&mut self) -> Result<(), ExecError> {
        self.check_deadline()?;
        if self.avail == 0 {
            return Err(ExecError::InstructionLimit);
        }
        self.left = self.avail.min(BUDGET_CHUNK);
        self.avail -= self.left;
        Ok(())
    }
}

enum Stop {
    Barrier(ValueId),
    Done,
}

struct WorkItem {
    regs: Vec<Option<Val>>,
    block: BlockId,
    inst_idx: usize,
    prev_block: Option<BlockId>,
    done: bool,
    insts: u64,
    lid: [u64; 3],
    wg: [u64; 3],
}

/// Launch-wide immutable state, computed once per `enqueue` and shared by
/// every group: kernel, geometry, the global-memory view (buffer base
/// addresses included — no per-group probing of the [`Context`]), the
/// pre-resolved parameter seeds and the `__local` buffer layout.
pub(crate) struct LaunchCtx<'a> {
    pub(crate) f: &'a Function,
    pub(crate) nd: NdRange,
    pub(crate) mem: GlobalMem<'a>,
    /// `(register index, value)` seeds applied to every work-item.
    pub(crate) params: Vec<(usize, Val)>,
    /// Element kind and element count of each `__local` buffer.
    pub(crate) local_templ: Vec<(Scalar, usize)>,
    /// Byte offset of each `__local` buffer inside the group-local region.
    pub(crate) local_bases: Vec<u64>,
    /// Whether every group's global stores are perturbed
    /// ([`crate::fault::FaultKind::CorruptStores`] at launch scope; always
    /// `false` without the `fault-injection` feature).
    pub(crate) corrupt_launch: bool,
    /// The fault plan matched against this launch's kernel, if any.
    #[cfg(feature = "fault-injection")]
    pub(crate) fault: Option<std::sync::Arc<crate::fault::Installed>>,
}

/// Scratch reused across the groups of one launch: the work-item states
/// (register files in particular) and the group's local memory are
/// allocated once and reset per group instead of reallocated.
#[derive(Default)]
struct Scratch {
    items: Vec<WorkItem>,
    local_mem: Vec<BufferData>,
}

/// What one group contributed to the launch statistics.
#[derive(Clone, Copy, Default)]
pub(crate) struct GroupStats {
    pub(crate) items: u64,
    pub(crate) barriers: u64,
    pub(crate) instructions: u64,
}

/// Group linear id → 3-D group id (`x` fastest).
fn delinearize(gl: usize, ng: [u64; 3]) -> [u64; 3] {
    let gl = gl as u64;
    [gl % ng[0], (gl / ng[0]) % ng[1], gl / (ng[0] * ng[1])]
}

/// Launch a kernel (the `clEnqueueNDRangeKernel` + `clFinish` pair) on the
/// production engine ([`Backend::default`]), running work-groups serially
/// on the calling thread.
pub fn enqueue(
    ctx: &mut Context,
    kernel: &Function,
    args: &[ArgValue],
    nd: &NdRange,
    sink: &mut dyn TraceSink,
    limits: &Limits,
) -> Result<LaunchStats, ExecError> {
    enqueue_with_backend(
        ctx,
        kernel,
        args,
        nd,
        sink,
        limits,
        ExecPolicy::Serial,
        Backend::default(),
    )
}

/// Launch a kernel under an explicit [`ExecPolicy`] and execution
/// [`Backend`].
///
/// On failure the error of the first failing group is returned, and the
/// sink has observed the complete event streams of every group before it.
/// Both backends produce bit-identical output buffers, [`LaunchStats`]
/// and trace streams for well-formed kernels.
#[allow(clippy::too_many_arguments)]
pub fn enqueue_with_backend(
    ctx: &mut Context,
    kernel: &Function,
    args: &[ArgValue],
    nd: &NdRange,
    sink: &mut dyn TraceSink,
    limits: &Limits,
    policy: ExecPolicy,
    backend: Backend,
) -> Result<LaunchStats, ExecError> {
    let ExecPolicy::Serial = policy;
    enqueue_impl(ctx, kernel, args, nd, sink, limits, backend, None)
}

/// The launch engine behind [`enqueue_with_backend`] and
/// [`crate::obs::enqueue_observed`]. When `profile_out` is `Some` and the
/// backend is [`Backend::Bytecode`], op/edge executions are counted and
/// aggregated into an [`bytecode::OpProfile`] written through
/// `profile_out` iff the launch succeeds. With the interpreter backend, or
/// on any error, `profile_out` is left untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn enqueue_impl(
    ctx: &mut Context,
    kernel: &Function,
    args: &[ArgValue],
    nd: &NdRange,
    sink: &mut dyn TraceSink,
    limits: &Limits,
    backend: Backend,
    profile_out: Option<&mut Option<bytecode::OpProfile>>,
) -> Result<LaunchStats, ExecError> {
    nd.validate()?;
    validate_args(ctx, kernel, args)?;

    let params = param_seeds(kernel, args)?;
    let mut local_templ = Vec::new();
    let mut local_bases = Vec::new();
    let mut off = 0u64;
    for lb in kernel.local_bufs() {
        local_templ.push((lb.elem, (lb.len() * lb.lanes as u64) as usize));
        local_bases.push(off);
        off += lb.size_bytes();
    }
    #[cfg(feature = "fault-injection")]
    let fault = crate::fault::for_kernel(kernel);
    #[cfg(feature = "fault-injection")]
    let corrupt_launch = match &fault {
        // A launch-entry panic deliberately propagates out of `enqueue`:
        // it models a failure of the launching thread itself (e.g. one
        // side of a tuner race), not of a single work-group.
        Some(i) => crate::fault::launch_hook(i)?,
        None => false,
    };
    #[cfg(not(feature = "fault-injection"))]
    let corrupt_launch = false;
    let mut budget = Budget {
        avail: limits.max_instructions,
        left: 0,
        start: Instant::now(),
        deadline: limits.deadline,
        #[cfg(feature = "fault-injection")]
        fault: fault
            .as_ref()
            .and_then(|i| crate::fault::instruction_trigger(i).map(|n| (n, i.clone()))),
    };
    let launch = LaunchCtx {
        f: kernel,
        nd: *nd,
        mem: ctx.global_mem(),
        params,
        local_templ,
        local_bases,
        corrupt_launch,
        #[cfg(feature = "fault-injection")]
        fault,
    };

    // Bytecode backend: lower the kernel once per launch; every group
    // executes the same compiled program.
    let program = match backend {
        Backend::Interp => None,
        Backend::Bytecode => Some(bytecode::LaunchProgram::prepare(kernel, &launch.params)),
    };
    let program = program.as_ref();

    let ng = nd.num_groups();
    let n_groups = (ng[0] * ng[1] * ng[2]) as usize;
    let mut scratch = AnyScratch::new(program.is_some());
    let mut prof = if profile_out.is_some() {
        program.map(bytecode::ProfBuf::for_program)
    } else {
        None
    };
    let mut stats = LaunchStats::default();
    for gl in 0..n_groups {
        let gs = run_group_any(
            &launch,
            program,
            delinearize(gl, ng),
            gl as u32,
            sink,
            &mut budget,
            &mut scratch,
            prof.as_mut(),
        )?;
        stats.instructions += gs.instructions;
        stats.barriers += gs.barriers;
        stats.work_items += gs.items;
        stats.work_groups += 1;
        sink.workgroup_done(gl as u32);
    }
    if let Some(out) = profile_out {
        if let (Some(buf), Some(p)) = (&prof, program) {
            *out = Some(p.aggregate(buf));
        }
    }
    Ok(stats)
}

fn validate_args(ctx: &Context, kernel: &Function, args: &[ArgValue]) -> Result<(), ExecError> {
    if args.len() != kernel.params().len() {
        return Err(ExecError::ArgCount {
            expected: kernel.params().len(),
            got: args.len(),
        });
    }
    for (p, a) in kernel.params().iter().zip(args) {
        let ok = match (p.ty, a) {
            (Type::Ptr { elem, space, .. }, ArgValue::Buffer(b)) => {
                if space == AddressSpace::Local || space == AddressSpace::Private {
                    return Err(ExecError::Unsupported(
                        "local/private pointer kernel arguments".into(),
                    ));
                }
                ctx.scalar_of(*b) == elem
            }
            (Type::Scalar(Scalar::I32), ArgValue::I32(_)) => true,
            (Type::Scalar(Scalar::I64), ArgValue::I64(_)) => true,
            (Type::Scalar(Scalar::F32), ArgValue::F32(_)) => true,
            _ => false,
        };
        if !ok {
            return Err(ExecError::TypeMismatch(format!(
                "argument `{}` expects {}, got {a:?}",
                p.name, p.ty
            )));
        }
    }
    Ok(())
}

/// Resolve every kernel argument to its register seed, once per launch.
fn param_seeds(f: &Function, args: &[ArgValue]) -> Result<Vec<(usize, Val)>, ExecError> {
    let mut seeds = Vec::with_capacity(args.len());
    for (i, _) in f.params().iter().enumerate() {
        let pv = f.param_value(i);
        let v = match (f.ty(pv), args[i]) {
            (Type::Ptr { space, .. }, ArgValue::Buffer(b)) => Val::Ptr(PtrVal {
                space,
                buf: b.0,
                offset: 0,
            }),
            (_, ArgValue::I32(x)) => Val::I32(x),
            (_, ArgValue::I64(x)) => Val::I64(x),
            (_, ArgValue::F32(x)) => Val::F32(x),
            _ => return Err(ExecError::TypeMismatch("param seed".into())),
        };
        seeds.push((pv.index(), v));
    }
    Ok(seeds)
}

/// The mutable state `run_item`/`eval_inst` need for one group: the shared
/// launch context plus this group's local memory and id. The bytecode
/// backend builds the same struct so the shared memory/trace helpers
/// ([`mem_load`], [`mem_store`], [`emit_at`]) serve both engines.
pub(crate) struct GroupRun<'a, 'l> {
    pub(crate) launch: &'a LaunchCtx<'l>,
    pub(crate) local_mem: &'a mut Vec<BufferData>,
    pub(crate) group_linear: u32,
    /// Fault injection: perturb this group's global stores.
    pub(crate) corrupt_stores: bool,
    /// Fault injection: offset this group's global loads by this many
    /// elements (`0` = none).
    pub(crate) load_offset: i64,
}

/// Best-effort stringification of a caught panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Scratch for whichever engine the launch selected, so register files
/// and local memory are reused across the groups of the launch.
enum AnyScratch {
    Interp(Scratch),
    Bytecode(bytecode::BcScratch),
}

impl AnyScratch {
    fn new(bytecode: bool) -> AnyScratch {
        if bytecode {
            AnyScratch::Bytecode(bytecode::BcScratch::default())
        } else {
            AnyScratch::Interp(Scratch::default())
        }
    }
}

/// Run one group on the backend selected at launch, with panic isolation:
/// a panic anywhere inside the group — either engine, a trace sink, or an
/// injected fault — becomes [`ExecError::WorkerPanic`] instead of
/// unwinding through the launch machinery.
#[allow(clippy::too_many_arguments)]
fn run_group_any(
    launch: &LaunchCtx<'_>,
    program: Option<&bytecode::LaunchProgram>,
    wg: [u64; 3],
    group_linear: u32,
    sink: &mut dyn TraceSink,
    budget: &mut Budget,
    scratch: &mut AnyScratch,
    prof: Option<&mut bytecode::ProfBuf>,
) -> Result<GroupStats, ExecError> {
    match catch_unwind(AssertUnwindSafe(|| match (program, &mut *scratch) {
        (None, AnyScratch::Interp(s)) => run_group(launch, wg, group_linear, sink, budget, s),
        (Some(p), AnyScratch::Bytecode(s)) => {
            bytecode::run_group(p, launch, wg, group_linear, sink, budget, s, prof)
        }
        _ => Err(ExecError::Internal(
            "scratch does not match the launch backend".into(),
        )),
    })) {
        Ok(r) => r,
        Err(p) => Err(ExecError::WorkerPanic {
            group: group_linear,
            message: panic_message(p.as_ref()),
        }),
    }
}

fn run_group(
    launch: &LaunchCtx<'_>,
    wg: [u64; 3],
    group_linear: u32,
    sink: &mut dyn TraceSink,
    budget: &mut Budget,
    scratch: &mut Scratch,
) -> Result<GroupStats, ExecError> {
    let f = launch.f;
    let nd = launch.nd;

    budget.check_deadline()?;
    #[cfg(feature = "fault-injection")]
    let corrupt_group = match &launch.fault {
        Some(i) => crate::fault::group_hook(i, group_linear)?,
        None => false,
    };
    #[cfg(not(feature = "fault-injection"))]
    let corrupt_group = false;
    #[cfg(feature = "fault-injection")]
    let load_offset = match &launch.fault {
        Some(i) => crate::fault::load_offset(i, group_linear).unwrap_or(0),
        None => 0,
    };
    #[cfg(not(feature = "fault-injection"))]
    let load_offset = 0;

    // (Re)initialise this group's local memory from the launch template.
    if scratch.local_mem.len() != launch.local_templ.len() {
        scratch.local_mem = launch
            .local_templ
            .iter()
            .map(|&(elem, elems)| match elem {
                Scalar::F32 => BufferData::F32(vec![0.0; elems]),
                Scalar::I32 | Scalar::Bool => BufferData::I32(vec![0; elems]),
                Scalar::I64 => BufferData::I64(vec![0; elems]),
            })
            .collect();
    } else {
        for data in &mut scratch.local_mem {
            match data {
                BufferData::F32(v) => v.fill(0.0),
                BufferData::I32(v) => v.fill(0),
                BufferData::I64(v) => v.fill(0),
            }
        }
    }

    // (Re)initialise the work-item states. Register files are allocated on
    // the launch's first group and merely cleared afterwards.
    let (lsx, lsy, lsz) = (nd.local[0], nd.local[1], nd.local[2]);
    let n_items = (lsx * lsy * lsz) as usize;
    if scratch.items.len() != n_items {
        scratch.items = (0..n_items)
            .map(|_| WorkItem {
                regs: vec![None; f.num_values()],
                block: f.entry,
                inst_idx: 0,
                prev_block: None,
                done: false,
                insts: 0,
                lid: [0, 0, 0],
                wg,
            })
            .collect();
    }
    let mut i = 0;
    for lz in 0..lsz {
        for ly in 0..lsy {
            for lx in 0..lsx {
                let wi = &mut scratch.items[i];
                wi.regs.fill(None);
                for &(idx, v) in &launch.params {
                    wi.regs[idx] = Some(v);
                }
                wi.block = f.entry;
                wi.inst_idx = 0;
                wi.prev_block = None;
                wi.done = false;
                wi.insts = 0;
                wi.lid = [lx, ly, lz];
                wi.wg = wg;
                i += 1;
            }
        }
    }

    let Scratch { items, local_mem } = scratch;
    let mut run = GroupRun {
        launch,
        local_mem,
        group_linear,
        corrupt_stores: launch.corrupt_launch || corrupt_group,
        load_offset,
    };
    let mut stats = GroupStats {
        items: n_items as u64,
        ..GroupStats::default()
    };

    // Barrier-synchronised rounds.
    loop {
        let mut barrier_at: Option<ValueId> = None;
        let mut all_done = true;
        for (i, wi) in items.iter_mut().enumerate() {
            if wi.done {
                continue;
            }
            let stop = run_item(&mut run, wi, sink, budget)?;
            match stop {
                Stop::Done => {
                    wi.done = true;
                    let local_linear = i as u32;
                    sink.workitem_done(group_linear, local_linear, wi.insts);
                    stats.instructions += wi.insts;
                    wi.insts = 0;
                }
                Stop::Barrier(at) => {
                    all_done = false;
                    match barrier_at {
                        None => barrier_at = Some(at),
                        Some(prev) if prev == at => {}
                        Some(_) => return Err(ExecError::BarrierDivergence),
                    }
                }
            }
        }
        if all_done {
            break;
        }
        if barrier_at.is_some() && items.iter().any(|w| w.done) {
            // Some items returned while others wait at a barrier.
            return Err(ExecError::BarrierDivergence);
        }
        stats.barriers += 1;
        sink.barrier(group_linear, n_items as u32);
    }
    Ok(stats)
}

fn run_item(
    r: &mut GroupRun<'_, '_>,
    wi: &mut WorkItem,
    sink: &mut dyn TraceSink,
    budget: &mut Budget,
) -> Result<Stop, ExecError> {
    let f = r.launch.f;
    loop {
        // Batch-evaluate phis at a block head (parallel-copy semantics).
        if wi.inst_idx == 0 {
            let insts = &f.block(wi.block).insts;
            let mut updates: Vec<(ValueId, Val)> = Vec::new();
            let mut n_phis = 0;
            for &iv in insts {
                let Some(Inst::Phi { incoming }) = f.inst(iv) else {
                    break;
                };
                let prev = wi.prev_block.ok_or_else(|| {
                    ExecError::Internal("phi executed with no predecessor".into())
                })?;
                let (_, v) = incoming
                    .iter()
                    .find(|(b, _)| *b == prev)
                    .ok_or_else(|| ExecError::Internal("phi missing incoming edge".into()))?;
                updates.push((iv, value_of(f, wi, *v)?));
                n_phis += 1;
            }
            for (iv, v) in updates {
                wi.regs[iv.index()] = Some(v);
            }
            wi.inst_idx = n_phis;
            wi.insts += n_phis as u64;
        }

        let insts = &f.block(wi.block).insts;
        if wi.inst_idx >= insts.len() {
            return Err(ExecError::Internal("fell off the end of a block".into()));
        }
        let iv = insts[wi.inst_idx];
        let inst = f
            .inst(iv)
            .ok_or_else(|| ExecError::Internal("block entry is not an instruction".into()))?;
        wi.insts += 1;
        budget.spend()?;

        match inst {
            Inst::Barrier { .. } => {
                wi.inst_idx += 1;
                return Ok(Stop::Barrier(iv));
            }
            Inst::Ret => return Ok(Stop::Done),
            Inst::Br { target } => {
                wi.prev_block = Some(wi.block);
                wi.block = *target;
                wi.inst_idx = 0;
                continue;
            }
            Inst::CondBr {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = value_of(f, wi, *cond)?
                    .as_bool()
                    .ok_or_else(|| ExecError::TypeMismatch("condbr on non-bool".into()))?;
                wi.prev_block = Some(wi.block);
                wi.block = if c { *then_blk } else { *else_blk };
                wi.inst_idx = 0;
                continue;
            }
            _ => {}
        }

        let result = eval_inst(r, wi, iv, inst, sink)?;
        if let Some(v) = result {
            wi.regs[iv.index()] = Some(v);
        }
        wi.inst_idx += 1;
    }
}

fn value_of(f: &Function, wi: &WorkItem, v: ValueId) -> Result<Val, ExecError> {
    match &f.value(v).def {
        ValueDef::Const(c) => Ok(match c {
            ConstVal::Bool(b) => Val::Bool(*b),
            ConstVal::I32(x) => Val::I32(*x),
            ConstVal::I64(x) => Val::I64(*x),
            ConstVal::F32Bits(b) => Val::F32(f32::from_bits(*b)),
        }),
        ValueDef::Param(_) => {
            wi.regs[v.index()].ok_or_else(|| ExecError::Internal("parameter not seeded".into()))
        }
        ValueDef::LocalBuf(id) => Ok(Val::Ptr(PtrVal {
            space: AddressSpace::Local,
            buf: id.0,
            offset: 0,
        })),
        ValueDef::Inst(_) => wi.regs[v.index()]
            .ok_or_else(|| ExecError::Internal(format!("use of unevaluated value v{}", v.0))),
    }
}

#[allow(clippy::too_many_lines)]
fn eval_inst(
    r: &mut GroupRun<'_, '_>,
    wi: &WorkItem,
    iv: ValueId,
    inst: &Inst,
    sink: &mut dyn TraceSink,
) -> Result<Option<Val>, ExecError> {
    let f = r.launch.f;
    let val = |v: ValueId| value_of(f, wi, v);
    match inst {
        Inst::Bin { op, lhs, rhs } => {
            let l = val(*lhs)?;
            let rr = val(*rhs)?;
            Ok(Some(eval_bin(*op, l, rr)?))
        }
        Inst::Cmp { pred, lhs, rhs } => {
            let l = val(*lhs)?;
            let rr = val(*rhs)?;
            Ok(Some(eval_cmp(*pred, l, rr)?))
        }
        Inst::Select {
            cond,
            then_val,
            else_val,
        } => {
            let c = val(*cond)?
                .as_bool()
                .ok_or_else(|| ExecError::TypeMismatch("select on non-bool".into()))?;
            Ok(Some(if c { val(*then_val)? } else { val(*else_val)? }))
        }
        Inst::Cast { kind, value, to } => {
            let v = val(*value)?;
            Ok(Some(eval_cast(*kind, v, *to)?))
        }
        Inst::Call { builtin, args } => {
            let a: Vec<Val> = args.iter().map(|&x| val(x)).collect::<Result<_, _>>()?;
            Ok(Some(eval_call(
                &r.launch.nd,
                &wi.lid,
                &wi.wg,
                *builtin,
                &a,
            )?))
        }
        Inst::Gep { base, index } => {
            let p = val(*base)?
                .as_ptr()
                .ok_or_else(|| ExecError::TypeMismatch("gep base not a pointer".into()))?;
            let idx = val(*index)?
                .as_int()
                .ok_or_else(|| ExecError::TypeMismatch("gep index not an integer".into()))?;
            let elem = f
                .ty(*base)
                .pointee()
                .ok_or_else(|| ExecError::TypeMismatch("gep through non-pointer type".into()))?;
            Ok(Some(Val::Ptr(PtrVal {
                space: p.space,
                buf: p.buf,
                offset: p.offset + idx * elem.size_bytes() as i64,
            })))
        }
        Inst::Load { ptr } => {
            let p = val(*ptr)?
                .as_ptr()
                .ok_or_else(|| ExecError::TypeMismatch("load through non-pointer".into()))?;
            let ty = f.ty(iv);
            let lanes = ty.lanes();
            let v = if r.load_offset != 0 && p.space == AddressSpace::Global {
                let pp = PtrVal {
                    offset: p.offset + r.load_offset * ty.size_bytes() as i64,
                    ..p
                };
                mem_load(r, pp, lanes).or_else(|_| mem_load(r, p, lanes))?
            } else {
                mem_load(r, p, lanes)?
            };
            emit(sink, r, wi, TraceOp::Load, p, ty.size_bytes() as u32, iv);
            Ok(Some(v))
        }
        Inst::Store { ptr, value } => {
            let p = val(*ptr)?
                .as_ptr()
                .ok_or_else(|| ExecError::TypeMismatch("store through non-pointer".into()))?;
            let mut v = val(*value)?;
            if r.corrupt_stores && p.space == AddressSpace::Global {
                v = corrupt_val(v);
            }
            let bytes = f.ty(*value).size_bytes() as u32;
            mem_store(r, p, v)?;
            emit(sink, r, wi, TraceOp::Store, p, bytes, iv);
            Ok(None)
        }
        Inst::ExtractLane { vector, lane } => {
            let v = val(*vector)?;
            let i = val(*lane)?.as_int().unwrap_or(0) as usize;
            v.lane(i)
                .map(Some)
                .ok_or_else(|| ExecError::TypeMismatch("extractlane out of range".into()))
        }
        Inst::InsertLane {
            vector,
            lane,
            value,
        } => {
            let v = val(*vector)?;
            let i = val(*lane)?.as_int().unwrap_or(0) as usize;
            let x = val(*value)?;
            v.with_lane(i, x)
                .map(Some)
                .ok_or_else(|| ExecError::TypeMismatch("insertlane mismatch".into()))
        }
        Inst::BuildVector { lanes } => {
            if lanes.len() > 4 {
                return Err(ExecError::Unsupported("vectors wider than 4 lanes".into()));
            }
            let vals: Vec<Val> = lanes.iter().map(|&x| val(x)).collect::<Result<_, _>>()?;
            let n = vals.len() as u8;
            match vals[0] {
                Val::F32(_) => {
                    let mut a = [0.0f32; 4];
                    for (i, v) in vals.iter().enumerate() {
                        a[i] = v
                            .as_f32()
                            .ok_or_else(|| ExecError::TypeMismatch("mixed vector lanes".into()))?;
                    }
                    Ok(Some(Val::VF32(a, n)))
                }
                Val::I32(_) => {
                    let mut a = [0i32; 4];
                    for (i, v) in vals.iter().enumerate() {
                        a[i] = v
                            .as_i32()
                            .ok_or_else(|| ExecError::TypeMismatch("mixed vector lanes".into()))?;
                    }
                    Ok(Some(Val::VI32(a, n)))
                }
                _ => Err(ExecError::Unsupported("vector of this kind".into())),
            }
        }
        Inst::Phi { .. } => Err(ExecError::Internal("phi outside block head".into())),
        Inst::Barrier { .. } | Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret => {
            Err(ExecError::Internal("control handled by run_item".into()))
        }
    }
}

/// Store perturbation for [`crate::fault::FaultKind::CorruptStores`]:
/// deterministic, value-only (addresses and trace shape are unchanged, so
/// cycle measurements stay comparable while outputs diverge).
pub(crate) fn corrupt_val(v: Val) -> Val {
    match v {
        Val::F32(x) => Val::F32(x + 1.0),
        Val::I32(x) => Val::I32(x ^ 1),
        Val::I64(x) => Val::I64(x ^ 1),
        Val::Bool(b) => Val::Bool(!b),
        Val::VF32(mut a, n) => {
            for x in &mut a {
                *x += 1.0;
            }
            Val::VF32(a, n)
        }
        Val::VI32(mut a, n) => {
            for x in &mut a {
                *x ^= 1;
            }
            Val::VI32(a, n)
        }
        Val::VBool(mut a, n) => {
            for x in &mut a {
                *x = !*x;
            }
            Val::VBool(a, n)
        }
        Val::Ptr(_) => v,
    }
}

pub(crate) fn mem_load(r: &GroupRun<'_, '_>, p: PtrVal, lanes: u8) -> Result<Val, ExecError> {
    match p.space {
        AddressSpace::Global | AddressSpace::Constant => r.launch.mem.load(p.buf, p.offset, lanes),
        AddressSpace::Local => load_from(&r.local_mem[p.buf as usize], p.offset, lanes),
        AddressSpace::Private => Err(ExecError::Unsupported("private memory pointers".into())),
    }
}

pub(crate) fn mem_store(r: &mut GroupRun<'_, '_>, p: PtrVal, v: Val) -> Result<(), ExecError> {
    match p.space {
        AddressSpace::Global => r.launch.mem.store(p.buf, p.offset, v),
        AddressSpace::Constant => Err(ExecError::TypeMismatch("store to __constant".into())),
        AddressSpace::Local => store_to(&mut r.local_mem[p.buf as usize], p.offset, v),
        AddressSpace::Private => Err(ExecError::Unsupported("private memory pointers".into())),
    }
}

fn load_from(data: &BufferData, offset: i64, lanes: u8) -> Result<Val, ExecError> {
    let esz = data.scalar().size_bytes() as i64;
    if offset < 0 || offset % esz != 0 {
        return Err(ExecError::BadAddress(offset));
    }
    let idx = (offset / esz) as usize;
    let n = lanes as usize;
    if idx + n > data.len() {
        return Err(ExecError::OutOfBounds {
            buffer: u32::MAX,
            index: idx + n - 1,
            len: data.len(),
        });
    }
    Ok(match data {
        BufferData::F32(v) => {
            if n == 1 {
                Val::F32(v[idx])
            } else {
                let mut a = [0.0f32; 4];
                a[..n].copy_from_slice(&v[idx..idx + n]);
                Val::VF32(a, lanes)
            }
        }
        BufferData::I32(v) => {
            if n == 1 {
                Val::I32(v[idx])
            } else {
                let mut a = [0i32; 4];
                a[..n].copy_from_slice(&v[idx..idx + n]);
                Val::VI32(a, lanes)
            }
        }
        BufferData::I64(v) => Val::I64(v[idx]),
    })
}

fn store_to(data: &mut BufferData, offset: i64, v: Val) -> Result<(), ExecError> {
    let esz = data.scalar().size_bytes() as i64;
    if offset < 0 || offset % esz != 0 {
        return Err(ExecError::BadAddress(offset));
    }
    let idx = (offset / esz) as usize;
    let n = v.lanes() as usize;
    if idx + n > data.len() {
        return Err(ExecError::OutOfBounds {
            buffer: u32::MAX,
            index: idx + n - 1,
            len: data.len(),
        });
    }
    match (data, v) {
        (BufferData::F32(d), Val::F32(x)) => d[idx] = x,
        (BufferData::F32(d), Val::VF32(a, l)) => {
            d[idx..idx + l as usize].copy_from_slice(&a[..l as usize])
        }
        (BufferData::I32(d), Val::I32(x)) => d[idx] = x,
        (BufferData::I32(d), Val::Bool(x)) => d[idx] = x as i32,
        (BufferData::I32(d), Val::VI32(a, l)) => {
            d[idx..idx + l as usize].copy_from_slice(&a[..l as usize])
        }
        (BufferData::I64(d), Val::I64(x)) => d[idx] = x,
        _ => return Err(ExecError::TypeMismatch("local store kind mismatch".into())),
    }
    Ok(())
}

fn emit(
    sink: &mut dyn TraceSink,
    r: &GroupRun<'_, '_>,
    wi: &WorkItem,
    op: TraceOp,
    p: PtrVal,
    bytes: u32,
    pc: ValueId,
) {
    let nd = &r.launch.nd;
    let local_linear =
        (wi.lid[2] * nd.local[1] * nd.local[0] + wi.lid[1] * nd.local[0] + wi.lid[0]) as u32;
    emit_at(sink, r, local_linear, op, p, bytes, pc.0);
}

/// The access-event emitter behind [`emit`], shared with the bytecode
/// backend (which precomputes each item's linear local id).
pub(crate) fn emit_at(
    sink: &mut dyn TraceSink,
    r: &GroupRun<'_, '_>,
    local_linear: u32,
    op: TraceOp,
    p: PtrVal,
    bytes: u32,
    pc: u32,
) {
    let addr = match p.space {
        AddressSpace::Local => r.launch.local_bases[p.buf as usize].wrapping_add(p.offset as u64),
        _ => {
            // Device-wide address: buffer base + offset.
            r.launch.mem.base(p.buf).wrapping_add(p.offset as u64)
        }
    };
    sink.access(&AccessEvent {
        op,
        space: p.space,
        addr,
        bytes,
        group: r.group_linear,
        local: local_linear,
        pc,
    });
}

pub(crate) fn eval_bin(op: BinOp, l: Val, r: Val) -> Result<Val, ExecError> {
    // Vector ops: elementwise over lanes.
    if l.lanes() > 1 || r.lanes() > 1 {
        let n = l.lanes().max(r.lanes());
        let lane_err = || ExecError::Internal("vector lane out of range".into());
        let mut out: Option<Val> = None;
        for i in 0..n as usize {
            let a = l
                .lane(if l.lanes() > 1 { i } else { 0 })
                .ok_or_else(lane_err)?;
            let b = r
                .lane(if r.lanes() > 1 { i } else { 0 })
                .ok_or_else(lane_err)?;
            let x = eval_bin(op, a, b)?;
            out = Some(match out {
                None => match x {
                    Val::F32(v) => {
                        let mut a = [0.0f32; 4];
                        a[0] = v;
                        Val::VF32(a, n)
                    }
                    Val::I32(v) => {
                        let mut a = [0i32; 4];
                        a[0] = v;
                        Val::VI32(a, n)
                    }
                    _ => return Err(ExecError::Unsupported("vector bin kind".into())),
                },
                Some(acc) => acc
                    .with_lane(i, x)
                    .ok_or_else(|| ExecError::TypeMismatch("vector lane mismatch".into()))?,
            });
        }
        // `n >= 2` here (some operand is a vector), so the loop ran and
        // `out` was seeded on its first iteration.
        return out.ok_or_else(|| ExecError::Internal("empty vector op".into()));
    }

    use BinOp::*;
    match op {
        FAdd | FSub | FMul | FDiv | FMin | FMax => {
            let (a, b) = match (l.as_f32(), r.as_f32()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(ExecError::TypeMismatch("float op on non-floats".into())),
            };
            Ok(Val::F32(match op {
                FAdd => a + b,
                FSub => a - b,
                FMul => a * b,
                FDiv => a / b,
                FMin => a.min(b),
                FMax => a.max(b),
                _ => unreachable!(),
            }))
        }
        _ => {
            // Integer ops preserve the width of the left operand.
            let wide = matches!(l, Val::I64(_));
            let (a, b) = match (l.as_int(), r.as_int()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(ExecError::TypeMismatch("int op on non-ints".into())),
            };
            if matches!(op, SDiv | UDiv | SRem | URem) && b == 0 {
                return Err(ExecError::DivisionByZero);
            }
            // Bool And/Or/Xor keep bool.
            if matches!(l, Val::Bool(_)) && matches!(op, And | Or | Xor) {
                let v = match op {
                    And => a & b,
                    Or => a | b,
                    Xor => a ^ b,
                    _ => unreachable!(),
                };
                return Ok(Val::Bool(v != 0));
            }
            let v: i64 = match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                SDiv => a.wrapping_div(b),
                UDiv => {
                    if wide {
                        ((a as u64) / (b as u64)) as i64
                    } else {
                        ((a as u32) / (b as u32)) as i64
                    }
                }
                SRem => a.wrapping_rem(b),
                URem => {
                    if wide {
                        ((a as u64) % (b as u64)) as i64
                    } else {
                        ((a as u32) % (b as u32)) as i64
                    }
                }
                Shl => a.wrapping_shl(b as u32),
                LShr => {
                    if wide {
                        ((a as u64) >> (b as u32 & 63)) as i64
                    } else {
                        (((a as u32) >> (b as u32 & 31)) as i32) as i64
                    }
                }
                AShr => a.wrapping_shr(b as u32),
                And => a & b,
                Or => a | b,
                Xor => a ^ b,
                _ => unreachable!(),
            };
            Ok(if wide {
                Val::I64(v)
            } else {
                Val::I32(v as i32)
            })
        }
    }
}

pub(crate) fn eval_cmp(pred: CmpPred, l: Val, r: Val) -> Result<Val, ExecError> {
    use CmpPred::*;
    if let (Some(a), Some(b)) = (l.as_f32(), r.as_f32()) {
        let v = match pred {
            FEq => a == b,
            FNe => a != b,
            FLt => a < b,
            FLe => a <= b,
            FGt => a > b,
            FGe => a >= b,
            _ => return Err(ExecError::TypeMismatch("int predicate on floats".into())),
        };
        return Ok(Val::Bool(v));
    }
    let (a, b) = match (l.as_int(), r.as_int()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(ExecError::TypeMismatch("cmp kind mismatch".into())),
    };
    // Unsigned comparisons act on the operand width.
    let wide = matches!(l, Val::I64(_));
    let (ua, ub) = if wide {
        (a as u64, b as u64)
    } else {
        (a as u32 as u64, b as u32 as u64)
    };
    let v = match pred {
        Eq => a == b,
        Ne => a != b,
        Slt => a < b,
        Sle => a <= b,
        Sgt => a > b,
        Sge => a >= b,
        Ult => ua < ub,
        Ule => ua <= ub,
        Ugt => ua > ub,
        Uge => ua >= ub,
        _ => return Err(ExecError::TypeMismatch("float predicate on ints".into())),
    };
    Ok(Val::Bool(v))
}

pub(crate) fn eval_cast(kind: CastKind, v: Val, to: Type) -> Result<Val, ExecError> {
    use CastKind::*;
    let t = match to {
        Type::Scalar(s) => s,
        _ => return Err(ExecError::Unsupported("vector casts".into())),
    };
    Ok(match (kind, v, t) {
        (SExt, Val::I32(x), Scalar::I64) => Val::I64(x as i64),
        (SExt, Val::Bool(x), Scalar::I32) => Val::I32(-(x as i32)),
        (ZExt, Val::I32(x), Scalar::I64) => Val::I64(x as u32 as i64),
        (ZExt, Val::Bool(x), Scalar::I32) => Val::I32(x as i32),
        (ZExt, Val::Bool(x), Scalar::I64) => Val::I64(x as i64),
        (Trunc, Val::I64(x), Scalar::I32) => Val::I32(x as i32),
        (Trunc, Val::I32(x), Scalar::Bool) => Val::Bool(x & 1 != 0),
        (SiToFp, Val::I32(x), Scalar::F32) => Val::F32(x as f32),
        (SiToFp, Val::I64(x), Scalar::F32) => Val::F32(x as f32),
        (FpToSi, Val::F32(x), Scalar::I32) => Val::I32(x as i32),
        (FpToSi, Val::F32(x), Scalar::I64) => Val::I64(x as i64),
        (Bitcast, Val::I32(x), Scalar::F32) => Val::F32(f32::from_bits(x as u32)),
        (Bitcast, Val::F32(x), Scalar::I32) => Val::I32(x.to_bits() as i32),
        (k, v, t) => return Err(ExecError::Unsupported(format!("cast {k:?} {v:?} -> {t:?}"))),
    })
}

/// The value of one work-item geometry query, shared by the interpreter's
/// [`eval_call`] and the bytecode backend's pre-resolved query op. `b` must
/// be a work-item query builtin and `d` a validated dimension (`0..3`).
pub(crate) fn workitem_query(
    nd: &NdRange,
    lid: &[u64; 3],
    wg: &[u64; 3],
    b: Builtin,
    d: usize,
) -> u64 {
    use Builtin::*;
    match b {
        LocalId => lid[d],
        GroupId => wg[d],
        GlobalId => wg[d] * nd.local[d] + lid[d],
        LocalSize => nd.local[d],
        GlobalSize => nd.global[d],
        NumGroups => nd.global[d] / nd.local[d],
        _ => unreachable!(),
    }
}

pub(crate) fn eval_call(
    nd: &NdRange,
    lid: &[u64; 3],
    wg: &[u64; 3],
    b: Builtin,
    args: &[Val],
) -> Result<Val, ExecError> {
    use Builtin::*;
    if b.is_workitem_query() {
        let d = args[0]
            .as_int()
            .ok_or_else(|| ExecError::TypeMismatch("query dim not integer".into()))?;
        if !(0..3).contains(&d) {
            return Err(ExecError::TypeMismatch(format!(
                "query dim {d} out of range"
            )));
        }
        let d = d as usize;
        let v = workitem_query(nd, lid, wg, b, d);
        return Ok(Val::I64(v as i64));
    }
    let f1 = |x: Val| {
        x.as_f32()
            .ok_or_else(|| ExecError::TypeMismatch("math builtin on non-float".into()))
    };
    // Vector math: elementwise.
    if args[0].lanes() > 1 && matches!(b, Sqrt | Rsqrt | Fabs | Exp | Log | Floor | Mad) {
        let n = args[0].lanes();
        let mut out = args[0];
        for i in 0..n as usize {
            let la: Vec<Val> = args
                .iter()
                .map(|a| {
                    a.lane(i)
                        .ok_or_else(|| ExecError::TypeMismatch("vector math lanes".into()))
                })
                .collect::<Result<_, _>>()?;
            let x = eval_call(nd, lid, wg, b, &la)?;
            out = out
                .with_lane(i, x)
                .ok_or_else(|| ExecError::TypeMismatch("vector math lanes".into()))?;
        }
        return Ok(out);
    }
    Ok(match b {
        Sqrt => Val::F32(f1(args[0])?.sqrt()),
        Rsqrt => Val::F32(1.0 / f1(args[0])?.sqrt()),
        Fabs => Val::F32(f1(args[0])?.abs()),
        Exp => Val::F32(f1(args[0])?.exp()),
        Log => Val::F32(f1(args[0])?.ln()),
        Floor => Val::F32(f1(args[0])?.floor()),
        Mad => Val::F32(f1(args[0])? * f1(args[1])? + f1(args[2])?),
        IMin | IMax => {
            let (a, bb) = (
                args[0]
                    .as_int()
                    .ok_or_else(|| ExecError::TypeMismatch("min on non-int".into()))?,
                args[1]
                    .as_int()
                    .ok_or_else(|| ExecError::TypeMismatch("min on non-int".into()))?,
            );
            let v = if b == IMin { a.min(bb) } else { a.max(bb) };
            match args[0] {
                Val::I64(_) => Val::I64(v),
                _ => Val::I32(v as i32),
            }
        }
        Clamp => {
            if let (Some(x), Some(lo), Some(hi)) =
                (args[0].as_f32(), args[1].as_f32(), args[2].as_f32())
            {
                Val::F32(x.clamp(lo, hi))
            } else {
                let x = args[0].as_int().unwrap_or(0);
                let lo = args[1].as_int().unwrap_or(0);
                let hi = args[2].as_int().unwrap_or(0);
                Val::I32(x.clamp(lo, hi) as i32)
            }
        }
        Dot => {
            let n = args[0].lanes() as usize;
            let lane_err = || ExecError::TypeMismatch("dot operand lanes".into());
            let mut acc = 0.0f32;
            for i in 0..n {
                acc += f1(args[0].lane(i).ok_or_else(lane_err)?)?
                    * f1(args[1].lane(i).ok_or_else(lane_err)?)?;
            }
            Val::F32(acc)
        }
        _ => return Err(ExecError::Unsupported(format!("builtin {}", b.name()))),
    })
}
