//! Campaign driver: generate N cases, judge each with the oracle, shrink
//! failures and write standalone reproducers.
//!
//! Determinism contract: a campaign is fully determined by `(seed, cases)`.
//! One [`Gen`] stream drives every case in order and the oracle consumes no
//! randomness, so `--seed 42 --cases 500` replays the first 200 cases of
//! `--seed 42 --cases 200` exactly — extending a run never changes the
//! cases already seen.

use crate::gen::Gen;
use crate::oracle::{check_spec_seqs, random_sequence, FailureKind};
use crate::shrink::shrink;
use crate::spec::{KernelSpec, ALL_POISONS};
use grover_core::Sequence;
use grover_obs::json::{array, Obj};
use grover_obs::{Recorder, SpanGuard, NOOP};
use grover_runtime::Backend;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    pub seed: u64,
    pub cases: u64,
    /// Where shrunk reproducers are written; `None` disables writing.
    pub out_dir: Option<PathBuf>,
}

/// One failed case, after shrinking.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// Campaign-relative case index.
    pub case: u64,
    pub kind: FailureKind,
    pub detail: String,
    /// Shrunk kernel source (with replay directives).
    pub source: String,
    /// Accepted shrink steps from the original failing spec.
    pub shrink_steps: usize,
    /// Reproducer path, if `out_dir` was set and the write succeeded.
    pub reproducer: Option<PathBuf>,
}

/// Campaign result counters plus the shrunk failures.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub seed: u64,
    pub cases: u64,
    /// Must-transform cases that verified bit-exactly.
    pub transformed: u64,
    /// Must-reject cases refused with the expected outcome.
    pub rejected: u64,
    /// Total random-sequence legs judged across all cases (each case
    /// draws 1–2 legal sequences on top of the default transform).
    pub sequences_raced: u64,
    pub failures: Vec<CaseFailure>,
}

impl Summary {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    fn count(&self, kind: FailureKind) -> u64 {
        self.failures.iter().filter(|f| f.kind == kind).count() as u64
    }

    /// Machine-readable summary (stable field set, no timestamps).
    pub fn to_json(&self) -> String {
        let regressions = array(self.failures.iter().map(|f| {
            let mut o = Obj::new()
                .u64("case", f.case)
                .str("kind", f.kind.name())
                .str("detail", &f.detail)
                .u64("shrink_steps", f.shrink_steps as u64)
                .u64("source_lines", f.source.lines().count() as u64);
            o = match &f.reproducer {
                Some(p) => o.str("reproducer", &p.display().to_string()),
                None => o.null("reproducer"),
            };
            o.finish()
        }));
        Obj::new()
            .u64("seed", self.seed)
            .u64("cases", self.cases)
            .str("backend", Backend::default().name())
            .u64("transformed", self.transformed)
            .u64("rejected", self.rejected)
            .u64("failures", self.failures.len() as u64)
            .u64("mismatches", self.count(FailureKind::Mismatch))
            .u64("exec_errors", self.count(FailureKind::ExecError))
            .u64("compile_errors", self.count(FailureKind::CompileError))
            .u64("declines", self.count(FailureKind::Declined))
            .u64(
                "accepted_must_reject",
                self.count(FailureKind::AcceptedMustReject),
            )
            .u64("wrong_outcomes", self.count(FailureKind::WrongOutcome))
            .u64("ir_changes", self.count(FailureKind::IrChanged))
            .u64("sequences_raced", self.sequences_raced)
            .u64(
                "sequence_mismatches",
                self.count(FailureKind::SequenceMismatch),
            )
            .raw("regressions", &regressions)
            .finish()
    }

    /// Human-readable summary.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fuzz: seed {} ({}) — {} cases: {} transformed, {} rejected, {} failed \
             ({} sequence legs)",
            self.seed,
            Backend::default(),
            self.cases,
            self.transformed,
            self.rejected,
            self.failures.len(),
            self.sequences_raced
        );
        for f in &self.failures {
            let _ = writeln!(s, "  case {}: {} — {}", f.case, f.kind.name(), f.detail);
            if let Some(p) = &f.reproducer {
                let _ = writeln!(s, "    reproducer: {}", p.display());
            }
        }
        s
    }
}

/// Draw the spec for campaign case `i`. Every fifth case carries a poison,
/// rotating through all five kinds, so reject coverage is guaranteed at any
/// case count ≥ 5.
fn draw_case(g: &mut Gen, i: u64) -> KernelSpec {
    let poison = if i % 5 == 4 {
        Some(ALL_POISONS[((i / 5) % ALL_POISONS.len() as u64) as usize])
    } else {
        None
    };
    KernelSpec::random(g, poison)
}

fn write_reproducer(dir: &Path, seed: u64, case: u64, source: &str) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("case-{seed}-{case}.cl"));
    std::fs::write(&path, source).ok()?;
    Some(path)
}

/// Run a campaign. Emits one `fuzz.campaign` span with a `fuzz.case` child
/// per case on `rec`, each case's launches nested under it as `launch`
/// spans (free when the recorder is disabled).
pub fn run_campaign(opts: &CampaignOptions, rec: &dyn Recorder) -> Summary {
    let root = SpanGuard::open(rec, "fuzz.campaign", None);
    root.attr("seed", opts.seed);
    root.attr("cases", opts.cases);
    root.attr("backend", Backend::default().name());
    let mut g = Gen::new(opts.seed);
    let mut summary = Summary {
        seed: opts.seed,
        cases: opts.cases,
        ..Summary::default()
    };
    for i in 0..opts.cases {
        let spec = draw_case(&mut g, i);
        // 1–2 random legal sequences ride along on every case, racing the
        // composable pipeline against the same interpreter baseline.
        let n_seqs = if g.chance(1, 2) { 2 } else { 1 };
        let seqs: Vec<Sequence> = (0..n_seqs).map(|_| random_sequence(&mut g)).collect();
        summary.sequences_raced += seqs.len() as u64;
        let span = SpanGuard::open(rec, "fuzz.case", Some(root.id()));
        span.attr("case", i);
        span.attr(
            "expect",
            match spec.poison {
                None => "transform",
                Some(p) => p.name(),
            },
        );
        span.attr(
            "sequences",
            seqs.iter()
                .map(|s| s.spec())
                .collect::<Vec<_>>()
                .join(";")
                .as_str(),
        );
        let outcome = check_spec_seqs(&spec, &seqs, rec, Some(span.id()));
        match outcome.failure() {
            None => {
                if spec.poison.is_none() {
                    summary.transformed += 1;
                    span.attr("outcome", "transformed");
                } else {
                    summary.rejected += 1;
                    span.attr("outcome", "rejected");
                }
            }
            Some(f) => {
                // Minimize while the same failure kind reproduces, then
                // re-derive the detail from the minimized spec.
                let kind = f.kind;
                let (min, steps) = shrink(&spec, |s| {
                    check_spec_seqs(s, &seqs, &NOOP, None)
                        .failure()
                        .map(|f| f.kind)
                        == Some(kind)
                });
                let detail = check_spec_seqs(&min, &seqs, &NOOP, None)
                    .failure()
                    .map(|f| f.detail.clone())
                    .unwrap_or_else(|| f.detail.clone());
                // The reproducer records the raced sequences so a replay
                // re-runs the same legs (`// fuzz: passes=` directives).
                let mut source = min.render();
                if !source.ends_with('\n') {
                    source.push('\n');
                }
                for s in &seqs {
                    source.push_str(&format!("// fuzz: passes={}\n", s.spec()));
                }
                let reproducer = opts
                    .out_dir
                    .as_deref()
                    .and_then(|d| write_reproducer(d, opts.seed, i, &source));
                span.attr("outcome", kind.name());
                span.attr("shrink_steps", steps as u64);
                if let Some(p) = &reproducer {
                    span.attr("reproducer", p.display().to_string().as_str());
                }
                summary.failures.push(CaseFailure {
                    case: i,
                    kind,
                    detail,
                    source,
                    shrink_steps: steps,
                    reproducer,
                });
            }
        }
    }
    root.attr("failures", summary.failures.len() as u64);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use grover_obs::MemoryRecorder;

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let opts = CampaignOptions {
            seed: 7,
            cases: 20,
            out_dir: None,
        };
        let a = run_campaign(&opts, &NOOP);
        assert!(a.ok(), "{}", a.to_text());
        assert_eq!(a.transformed + a.rejected, 20);
        assert_eq!(a.rejected, 4, "every 5th case is a must-reject");
        assert!(
            (20..=40).contains(&a.sequences_raced),
            "each case races 1-2 sequence legs: {}",
            a.sequences_raced
        );
        let b = run_campaign(&opts, &NOOP);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn default_campaign_checks_bytecode_against_the_interpreter() {
        // No option picks the engine: every transform case re-executes
        // both kernels on the bytecode engine after the interpreter
        // reference legs, and the launch spans under each case say so.
        let rec = MemoryRecorder::new();
        let opts = CampaignOptions {
            seed: 7,
            cases: 10,
            out_dir: None,
        };
        let s = run_campaign(&opts, &rec);
        assert!(s.ok(), "{}", s.to_text());
        let snap = rec.snapshot();
        let launches = |backend: &str| {
            snap.spans_named("launch")
                .iter()
                .filter(|l| l.attr_str("backend") == Some(backend))
                .count() as u64
        };
        assert_eq!(launches("bytecode"), 2 * s.transformed);
        // Reference: original + transformed per case, plus one launch per
        // sequence leg (one or two legs per case).
        assert!(
            (3 * s.transformed..=4 * s.transformed).contains(&launches("interp")),
            "{}",
            launches("interp")
        );
    }

    #[test]
    fn prefix_stability_across_case_counts() {
        // Extending a campaign must not change the cases already drawn.
        let mut g1 = Gen::new(99);
        let mut g2 = Gen::new(99);
        let a: Vec<_> = (0..10).map(|i| draw_case(&mut g1, i)).collect();
        let b: Vec<_> = (0..30).map(|i| draw_case(&mut g2, i)).collect();
        assert_eq!(a[..], b[..10]);
    }

    #[test]
    fn campaign_emits_spans() {
        let rec = MemoryRecorder::new();
        let opts = CampaignOptions {
            seed: 3,
            cases: 5,
            out_dir: None,
        };
        run_campaign(&opts, &rec);
        let snap = rec.snapshot();
        assert_eq!(
            snap.spans
                .iter()
                .filter(|s| s.name == "fuzz.campaign")
                .count(),
            1
        );
        assert_eq!(
            snap.spans.iter().filter(|s| s.name == "fuzz.case").count(),
            5
        );
    }

    #[test]
    fn json_summary_shape() {
        let s = run_campaign(
            &CampaignOptions {
                seed: 1,
                cases: 5,
                out_dir: None,
            },
            &NOOP,
        );
        let j = s.to_json();
        for key in [
            "\"seed\":1",
            "\"cases\":5",
            "\"backend\":\"bytecode\"",
            "\"failures\":0",
            "\"mismatches\":0",
            "\"sequences_raced\":",
            "\"sequence_mismatches\":0",
            "\"regressions\":[]",
        ] {
            assert!(j.contains(key), "{key} missing in {j}");
        }
    }
}
