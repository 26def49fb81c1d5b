//! Trace-replay study (simulator-infrastructure experiment, not a paper
//! artifact): every workload trace in the checked-in corpus, replayed
//! under the four headline policies.
//!
//! The corpus under `crates/lb-replay/testdata/` holds LBW1 captures of
//! synthetic applications plus an imported Accel-Sim-style text trace, so
//! this experiment exercises the whole trace frontend end-to-end: decode
//! (or import), registry resolution through `trace:<name>` run keys, and
//! the replay execution path under Baseline, CacheExt, PCAL and
//! Linebacker. Rows report IPC and the L1/register-file hit split — the
//! same axes the paper's headline figures use for the synthetic suite.
//!
//! Not registered in [`crate::experiments::ALL`]: the default suite's
//! output must stay byte-identical to the synthetic-only harness. Run
//! explicitly with `lb-experiments trace_replay`.

use std::sync::Arc;

use gpu_sim::types::AccessOutcome;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{f3, pct, Table};

/// The four policies every trace is replayed under.
pub const ARCHS: [Arch; 4] = [Arch::Baseline, Arch::CacheExt, Arch::Pcal, Arch::Linebacker];

/// Registers the checked-in corpus (every `.lbw1` and `.traceg` file under
/// `crates/lb-replay/testdata/`, by file stem) and returns every registered
/// trace key, sorted — the corpus plus any traces the harness loaded via
/// `--workload trace:PATH`. Idempotent: re-registration reuses existing
/// keys, so repeated calls (tests, plan + run) never grow the registry.
pub fn corpus_keys() -> Vec<&'static str> {
    let dir = lb_replay::testdata_dir();
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.sort();
    for path in files {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
        let rep = match path.extension().and_then(|e| e.to_str()) {
            Some("lbw1") => lb_replay::read_file(&path),
            Some("traceg") => lb_replay::import_file(&path),
            _ => continue,
        };
        let rep = rep.unwrap_or_else(|e| panic!("corpus file {} unreadable: {e}", path.display()));
        workloads::traces::register(stem, Arc::new(rep));
    }
    workloads::traces::names()
}

/// Replays the corpus under every policy and renders the comparison table.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "trace_replay",
        "trace corpus replayed under the headline policies",
        vec![
            "trace".into(),
            "arch".into(),
            "IPC".into(),
            "l1_hit".into(),
            "reg_hit".into(),
            "insts".into(),
        ],
    );
    let keys = corpus_keys();
    for key in &keys {
        for arch in ARCHS {
            let s = r.run_key(RunKey::new(key, arch));
            t.row(vec![
                key.strip_prefix("trace:").unwrap_or(key).into(),
                arch.label(),
                f3(s.ipc()),
                pct(s.outcome_fraction(AccessOutcome::L1Hit)),
                pct(s.outcome_fraction(AccessOutcome::RegHit)),
                s.instructions.to_string(),
            ]);
        }
    }
    if keys.is_empty() {
        t.note("corpus empty: no .lbw1/.traceg files under crates/lb-replay/testdata/");
    } else {
        t.note(format!(
            "{} traces × {} policies; traces are finite, so runs are work-bounded",
            keys.len(),
            ARCHS.len()
        ));
    }
    t
}

/// The experiment's simulation plan: every (trace, policy) point.
pub fn runs(_r: &Runner) -> Vec<RunKey> {
    corpus_keys()
        .into_iter()
        .flat_map(|key| ARCHS.into_iter().map(move |arch| RunKey::new(key, arch)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_registers_and_plan_covers_render() {
        let keys = corpus_keys();
        assert!(!keys.is_empty(), "checked-in corpus must not be empty");
        assert!(keys.iter().all(|k| k.starts_with("trace:")));
        // Idempotent: a second scan returns the same leaked keys.
        assert_eq!(corpus_keys(), keys);
        let r = crate::private_quick_runner(&runs(crate::shared_quick_runner()));
        let warm = r.sims_run();
        let t = run(&r);
        assert_eq!(r.sims_run(), warm, "trace_replay simulated during rendering");
        assert_eq!(t.rows.len(), keys.len() * ARCHS.len());
    }
}
