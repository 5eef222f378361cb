//! Reconciliation gate for the per-opcode bytecode profiler: for every app
//! and both kernel versions, the profile's total charge must equal the
//! launch's instruction tally on both the bytecode backend itself and the
//! reference interpreter.

use grover_kernels::{all_apps, extension_apps, prepare_pair, App, Scale};
use grover_runtime::{Backend, NullSink, OpProfile};

fn suite() -> Vec<App> {
    let mut apps = all_apps();
    apps.extend(extension_apps());
    assert!(apps.len() >= 12, "expected the full 12-app suite");
    apps
}

fn profile_one(
    app: &App,
    kernel: &grover_ir::Function,
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
        backend,
        &grover_obs::NOOP,
        None,
        &[],
        Some(&mut profile),
    )
    .unwrap_or_else(|e| panic!("{} [{}]: {e}", app.id, backend));
    (stats.instructions, profile)
}

#[test]
fn profile_reconciles_with_stats() {
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        for (which, kernel) in [
            ("original", &pair.original),
            ("transformed", &pair.transformed),
        ] {
            let (insts, prof) = profile_one(&app, kernel, Backend::Bytecode);
            let prof = prof.unwrap_or_else(|| panic!("{} {which}: no profile", app.id));

            // Exact reconciliation with the launch's own instruction tally.
            assert_eq!(
                prof.total_charged, insts,
                "{} {which}: total_charged != LaunchStats.instructions (bytecode)",
                app.id
            );

            // ... and with the reference interpreter's tally, which counts
            // original IR instructions (fused ops charged twice, phis once).
            let (insts_interp, prof_interp) = profile_one(&app, kernel, Backend::Interp);
            assert_eq!(
                prof.total_charged, insts_interp,
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
                prof.ops.iter().map(|o| o.count).sum::<u64>(),
                prof.total_count,
                "{} {which}: op rows do not sum to total_count",
                app.id
            );
            assert_eq!(
                prof.ops.iter().map(|o| o.charged).sum::<u64>(),
                prof.total_charged,
                "{} {which}: op rows do not sum to total_charged",
                app.id
            );
            assert_eq!(
                prof.blocks.iter().map(|b| b.charged).sum::<u64>(),
                prof.total_charged,
                "{} {which}: block rows do not sum to total_charged",
                app.id
            );
            assert!(prof.total_count > 0, "{} {which}: empty profile", app.id);
        }
    }
}
