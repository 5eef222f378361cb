//! Deterministic fault injection for the launch and tuning pipeline
//! (compiled only with the `fault-injection` cargo feature).
//!
//! A [`FaultPlan`] names a *target* (which kernels), a *site* (where inside
//! a launch) and a *kind* (what goes wrong); an [`IoFaultPlan`] names an
//! I/O site of the persistence code instead. Tests [`inject`] (or
//! [`inject_io`]) a plan, run the scenario, and drop the returned
//! [`FaultGuard`]; the engine consults
//! the active plan once per launch and at cheap, well-defined points, so
//! every recovery path — panic isolation, the tuner's differential-output
//! guard, the measurement watchdog and the retry loop — is deterministically
//! exercisable without special test-only builds of the interpreter core.
//!
//! Without the feature the hooks compile away entirely; with the feature
//! but no plan installed, the overhead is one `RwLock` read per launch.
//!
//! ```
//! use grover_runtime::fault::{self, FaultKind, FaultPlan, FaultSite, FaultTarget};
//!
//! let _guard = fault::inject(FaultPlan {
//!     target: FaultTarget::kernel("my_kernel"),
//!     site: FaultSite::Group(2),
//!     kind: FaultKind::Panic,
//!     max_fires: 1,
//! });
//! // ... launches of `my_kernel` panic at work-group 2, exactly once ...
//! ```

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

use grover_ir::Function;

use crate::ExecError;

/// Which kernels a [`FaultPlan`] applies to. All set conditions must match.
#[derive(Clone, Debug, Default)]
pub struct FaultTarget {
    /// Match kernels with this exact name (`None` = any name).
    pub kernel: Option<String>,
    /// Match on local-memory usage: `Some(true)` hits only kernels with no
    /// `__local` buffers (the Grover-transformed side of a tuner race),
    /// `Some(false)` only kernels that still stage through local memory.
    pub local_mem_free: Option<bool>,
}

impl FaultTarget {
    /// Every kernel.
    pub fn any() -> FaultTarget {
        FaultTarget::default()
    }

    /// Kernels named `name`, either version.
    pub fn kernel(name: &str) -> FaultTarget {
        FaultTarget {
            kernel: Some(name.to_string()),
            local_mem_free: None,
        }
    }

    /// The Grover-transformed (local-memory-free) version of `name`.
    pub fn transformed(name: &str) -> FaultTarget {
        FaultTarget {
            kernel: Some(name.to_string()),
            local_mem_free: Some(true),
        }
    }

    /// The original (local-memory-using) version of `name`.
    pub fn original(name: &str) -> FaultTarget {
        FaultTarget {
            kernel: Some(name.to_string()),
            local_mem_free: Some(false),
        }
    }

    fn matches(&self, f: &Function) -> bool {
        if let Some(k) = &self.kernel {
            if *k != f.name {
                return false;
            }
        }
        if let Some(free) = self.local_mem_free {
            if (f.local_mem_bytes() == 0) != free {
                return false;
            }
        }
        true
    }
}

/// Where inside a launch the fault triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// At launch entry, before any work-group runs (the panic propagates
    /// out of `enqueue` itself — this is how a tuner race *thread* is
    /// killed, as opposed to a single work-group).
    LaunchStart,
    /// At the start of the work-group with this linear id. For
    /// [`FaultKind::CorruptStores`] the effect covers every group with an
    /// id `>=` this one.
    Group(u32),
    /// After the launch has executed this many IR instructions.
    Instruction(u64),
}

/// What happens when the fault triggers.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// Panic — exercises panic isolation.
    Panic,
    /// Fail with this [`ExecError`].
    Error(ExecError),
    /// Sleep this long — exercises the wall-clock watchdog.
    Sleep(Duration),
    /// Perturb every global store from the trigger point on (floats are
    /// offset by 1.0, integers XOR-ed with 1) — exercises the tuner's
    /// differential-output guard. Ignores `max_fires`.
    CorruptStores,
    /// Offset the element index of every *global* load by this many
    /// elements from the trigger point on ([`FaultSite::LaunchStart`] =
    /// the whole launch, [`FaultSite::Group`] = every group with an id
    /// `>=` the site's), falling back to the original address at buffer
    /// edges. A deterministic stand-in for an index-arithmetic bug in a
    /// transformed kernel — exercises differential-output oracles such as
    /// the fuzzer's. Ignores `max_fires`.
    OffsetGlobalLoads(i64),
}

/// A deterministic fault to inject into matching launches.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Which kernels to hit.
    pub target: FaultTarget,
    /// Where inside the launch.
    pub site: FaultSite,
    /// What goes wrong.
    pub kind: FaultKind,
    /// Fire at most this many times across launches (`0` = unlimited) —
    /// lets tests model transient failures that a retry survives.
    pub max_fires: u32,
}

/// An installed plan plus its fire counter.
#[derive(Debug)]
pub(crate) struct Installed {
    plan: FaultPlan,
    fires: AtomicU32,
}

impl Installed {
    fn fire(&self, where_: &str) -> Result<(), ExecError> {
        if !arm(&self.fires, self.plan.max_fires) {
            return Ok(());
        }
        match &self.plan.kind {
            FaultKind::Panic => panic!("fault-injection: injected panic at {where_}"),
            FaultKind::Error(e) => Err(e.clone()),
            FaultKind::Sleep(d) => {
                std::thread::sleep(*d);
                Ok(())
            }
            // Corruption/offsetting is handled by the memory-access paths,
            // not the trigger.
            FaultKind::CorruptStores | FaultKind::OffsetGlobalLoads(_) => Ok(()),
        }
    }
}

/// Consume one fire; `false` once `max_fires` (`0` = unlimited) is
/// exhausted.
fn arm(fires: &AtomicU32, max_fires: u32) -> bool {
    max_fires == 0 || fires.fetch_add(1, Ordering::Relaxed) < max_fires
}

/// The one plan the process's fault domain holds: a launch plan or an
/// I/O plan, never both.
enum Active {
    Launch(Arc<Installed>),
    Io(Arc<InstalledIo>),
}

/// Launch and I/O plans share one lock domain. A guard holds the lock for
/// its whole lifetime, so concurrent tests serialise instead of firing
/// their plans into each other's scenarios — whichever kind each injects.
static INJECT_LOCK: Mutex<()> = Mutex::new(());
static ACTIVE: RwLock<Option<Active>> = RwLock::new(None);

/// Keeps a plan active and the fault domain held; dropping it uninstalls
/// the plan and releases the domain.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Uninstall the plan but keep holding the domain, so the fault-free
    /// rest of a scenario cannot be hit by another test's plan.
    pub fn clear(&self) {
        *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        self.clear();
    }
}

fn install(active: Active) -> FaultGuard {
    // A previous holder may have panicked (that is the point of this
    // module); the data behind the lock is just a token, so poisoning
    // carries no meaning here.
    let lock = INJECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = Some(active);
    FaultGuard { _lock: lock }
}

/// Install `plan` for the lifetime of the returned guard. Blocks while
/// another guard — launch or I/O — is alive.
pub fn inject(plan: FaultPlan) -> FaultGuard {
    install(Active::Launch(Arc::new(Installed {
        plan,
        fires: AtomicU32::new(0),
    })))
}

/// The active plan, if it targets `kernel`. Resolved once per launch.
pub(crate) fn for_kernel(kernel: &Function) -> Option<Arc<Installed>> {
    match &*ACTIVE.read().unwrap_or_else(|e| e.into_inner()) {
        Some(Active::Launch(i)) if i.plan.target.matches(kernel) => Some(i.clone()),
        _ => None,
    }
}

/// Launch-entry hook. Returns whether stores of the whole launch corrupt.
pub(crate) fn launch_hook(inst: &Installed) -> Result<bool, ExecError> {
    if inst.plan.site != FaultSite::LaunchStart {
        return Ok(false);
    }
    if matches!(inst.plan.kind, FaultKind::CorruptStores) {
        return Ok(true);
    }
    inst.fire("launch start").map(|()| false)
}

/// Group-start hook. Returns whether stores of this group corrupt.
pub(crate) fn group_hook(inst: &Installed, group: u32) -> Result<bool, ExecError> {
    let FaultSite::Group(g) = inst.plan.site else {
        return Ok(false);
    };
    if matches!(inst.plan.kind, FaultKind::CorruptStores) {
        return Ok(group >= g);
    }
    if group != g {
        return Ok(false);
    }
    inst.fire("group start").map(|()| false)
}

/// Element offset applied to this group's global loads, if the active plan
/// injects [`FaultKind::OffsetGlobalLoads`] covering this group.
pub(crate) fn load_offset(inst: &Installed, group: u32) -> Option<i64> {
    let FaultKind::OffsetGlobalLoads(n) = inst.plan.kind else {
        return None;
    };
    match inst.plan.site {
        FaultSite::LaunchStart => Some(n),
        FaultSite::Group(g) if group >= g => Some(n),
        _ => None,
    }
}

/// Instruction countdown for a launch's budget, if the plan has an
/// instruction site.
pub(crate) fn instruction_trigger(inst: &Installed) -> Option<u64> {
    match inst.plan.site {
        // A zero countdown would never fire in the spend loop; fire on the
        // first instruction instead.
        FaultSite::Instruction(n) => Some(n.max(1)),
        _ => None,
    }
}

/// Instruction-site hook, called when a launch's countdown hits zero.
pub(crate) fn instruction_hook(inst: &Installed) -> Result<(), ExecError> {
    inst.fire("instruction site")
}

// ---------------------------------------------------------------------------
// Named I/O fault sites (journal writes, fsync, ...) — used by service-level
// persistence code to prove crash-safety without a real crash.

/// What goes wrong at an I/O fault site.
#[derive(Clone, Debug)]
pub enum IoFaultKind {
    /// The operation fails outright with an `std::io::Error` carrying this
    /// message (a full short-circuit: nothing reaches the file).
    Error(String),
    /// The write persists only this many bytes of the payload before
    /// failing — the torn record a crash mid-`write` leaves behind.
    Torn(usize),
}

/// A deterministic fault to inject into named I/O sites.
///
/// Unlike [`FaultPlan`], which targets kernel launches, an [`IoFaultPlan`]
/// targets persistence operations by site name (e.g. `"journal.append"`,
/// `"journal.fsync"`). Both plan kinds share one slot: a test fails either
/// the tuner or the journal, never both at once.
#[derive(Clone, Debug)]
pub struct IoFaultPlan {
    /// The site name the consuming code passes to [`io_fault`].
    pub site: String,
    /// What goes wrong.
    pub kind: IoFaultKind,
    /// Fire at most this many times (`0` = unlimited).
    pub max_fires: u32,
}

struct InstalledIo {
    plan: IoFaultPlan,
    fires: AtomicU32,
}

/// Install `plan` for the lifetime of the returned guard. Blocks while
/// another guard — launch or I/O — is alive.
pub fn inject_io(plan: IoFaultPlan) -> FaultGuard {
    install(Active::Io(Arc::new(InstalledIo {
        plan,
        fires: AtomicU32::new(0),
    })))
}

/// Consult the active I/O plan at `site`.
///
/// * `Ok(None)` — no fault: perform the operation normally.
/// * `Ok(Some(n))` — torn write: persist only the first `n` payload bytes,
///   then report failure.
/// * `Err(e)` — short-circuit: fail without touching the file.
pub fn io_fault(site: &str) -> Result<Option<usize>, std::io::Error> {
    let inst = match &*ACTIVE.read().unwrap_or_else(|e| e.into_inner()) {
        Some(Active::Io(i)) if i.plan.site == site => i.clone(),
        _ => return Ok(None),
    };
    if !arm(&inst.fires, inst.plan.max_fires) {
        return Ok(None);
    }
    match &inst.plan.kind {
        IoFaultKind::Error(msg) => Err(std::io::Error::other(format!(
            "fault-injection: {msg} (site {site})"
        ))),
        IoFaultKind::Torn(n) => Ok(Some(*n)),
    }
}
