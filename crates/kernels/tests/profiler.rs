//! Determinism and reconciliation gate for the per-opcode bytecode
//! profiler: for every app and both kernel versions, op counts must be
//! bit-identical across Serial and Parallel schedules, and the profile's
//! total charge must equal the launch's instruction tally on both the
//! bytecode backend itself and the reference interpreter.

use grover_kernels::{all_apps, extension_apps, prepare_pair, App, Scale};
use grover_runtime::{Backend, ExecPolicy, NullSink, OpProfile};

fn suite() -> Vec<App> {
    let mut apps = all_apps();
    apps.extend(extension_apps());
    assert!(apps.len() >= 12, "expected the full 12-app suite");
    apps
}

fn profile_one(
    app: &App,
    kernel: &grover_ir::Function,
    policy: ExecPolicy,
    backend: Backend,
) -> (u64, Option<OpProfile>) {
    let p = (app.prepare)(Scale::Test);
    let mut ctx = p.ctx;
    let mut profile = None;
    let stats = grover_runtime::enqueue_observed(
        &mut ctx,
        kernel,
        &p.args,
        &p.nd,
        &mut NullSink,
        &grover_runtime::Limits::default(),
        policy,
        backend,
        &grover_obs::NOOP,
        None,
        Some(&mut profile),
    )
    .unwrap_or_else(|e| panic!("{} [{}/{:?}]: {e}", app.id, backend, policy));
    (stats.instructions, profile)
}

#[test]
fn profile_identical_across_schedules_and_reconciles_with_stats() {
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        for (which, kernel) in [
            ("original", &pair.original),
            ("transformed", &pair.transformed),
        ] {
            let (insts_serial, prof_serial) =
                profile_one(&app, kernel, ExecPolicy::Serial, Backend::Bytecode);
            let (insts_par, prof_par) = profile_one(
                &app,
                kernel,
                ExecPolicy::Parallel { threads: 2 },
                Backend::Bytecode,
            );
            let prof_serial =
                prof_serial.unwrap_or_else(|| panic!("{} {which}: no serial profile", app.id));
            let prof_par =
                prof_par.unwrap_or_else(|| panic!("{} {which}: no parallel profile", app.id));

            // Bit-identical under any schedule: merging per-worker counters
            // is plain addition, so the work-group partition cannot show.
            assert_eq!(
                prof_serial, prof_par,
                "{} {which}: profile differs between Serial and Parallel",
                app.id
            );

            // Exact reconciliation with the launch's own instruction tally.
            assert_eq!(
                prof_serial.total_charged, insts_serial,
                "{} {which}: total_charged != LaunchStats.instructions (bytecode)",
                app.id
            );
            assert_eq!(insts_serial, insts_par, "{} {which}: stats differ", app.id);

            // ... and with the reference interpreter's tally, which counts
            // original IR instructions (fused ops charged twice, phis once).
            let (insts_interp, prof_interp) =
                profile_one(&app, kernel, ExecPolicy::Serial, Backend::Interp);
            assert_eq!(
                prof_serial.total_charged, insts_interp,
                "{} {which}: total_charged != interpreter instruction tally",
                app.id
            );
            assert!(
                prof_interp.is_none(),
                "{} {which}: interpreter backend must not produce a profile",
                app.id
            );

            // Internal consistency: rows sum to the totals, blocks too.
            assert_eq!(
                prof_serial.ops.iter().map(|o| o.count).sum::<u64>(),
                prof_serial.total_count,
                "{} {which}: op rows do not sum to total_count",
                app.id
            );
            assert_eq!(
                prof_serial.ops.iter().map(|o| o.charged).sum::<u64>(),
                prof_serial.total_charged,
                "{} {which}: op rows do not sum to total_charged",
                app.id
            );
            assert_eq!(
                prof_serial.blocks.iter().map(|b| b.charged).sum::<u64>(),
                prof_serial.total_charged,
                "{} {which}: block rows do not sum to total_charged",
                app.id
            );
            assert!(
                prof_serial.total_count > 0,
                "{} {which}: empty profile",
                app.id
            );
        }
    }
}
