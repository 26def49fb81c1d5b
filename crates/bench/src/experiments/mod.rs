//! One module per reproduced artifact of the paper's evaluation.

pub mod ablation;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod overhead;
pub mod partition;
pub mod table2;
pub mod trace_replay;

use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::Table;

/// Experiment ids in presentation order.
///
/// The `partition` sensitivity sweep and the `trace_replay` corpus study
/// are runnable by explicit id but deliberately not listed here: the
/// default suite's output must stay byte-identical to the synthetic-only
/// harness.
pub const ALL: [&str; 18] = [
    "table2", "fig01", "fig02", "fig03", "fig04", "fig05", "overhead", "fig09", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "ablation",
];

/// Runs one experiment by id.
pub fn run(id: &str, r: &Runner) -> Option<Table> {
    let t = match id {
        "table2" => table2::run(r),
        "fig01" | "fig1" => fig01::run(r),
        "fig02" | "fig2" => fig02::run(r),
        "fig03" | "fig3" => fig03::run(r),
        "fig04" | "fig4" => fig04::run(r),
        "fig05" | "fig5" => fig05::run(r),
        "fig09" | "fig9" => fig09::run(r),
        "fig10" => fig10::run(r),
        "fig11" => fig11::run(r),
        "fig12" => fig12::run(r),
        "fig13" => fig13::run(r),
        "fig14" => fig14::run(r),
        "fig15" => fig15::run(r),
        "fig16" => fig16::run(r),
        "fig17" => fig17::run(r),
        "fig18" => fig18::run(r),
        "overhead" => overhead::run(r),
        "ablation" => ablation::run(r),
        "partition" => partition::run(r),
        "trace_replay" => trace_replay::run(r),
        _ => return None,
    };
    Some(t)
}

/// First-round simulation plan of one experiment: the [`RunKey`]s its
/// [`run`] will request. Collecting plans across experiments up front lets
/// the harness execute the deduplicated union in parallel before any
/// rendering. Returns `None` for unknown ids. Planning itself never
/// simulates.
pub fn plan(id: &str, r: &Runner) -> Option<Vec<RunKey>> {
    let keys = match id {
        "table2" => table2::runs(r),
        "fig01" | "fig1" => fig01::runs(r),
        "fig02" | "fig2" => fig02::runs(r),
        "fig03" | "fig3" => fig03::runs(r),
        "fig04" | "fig4" => fig04::runs(r),
        "fig05" | "fig5" => fig05::runs(r),
        "fig09" | "fig9" => fig09::runs(r),
        "fig10" => fig10::runs(r),
        "fig11" => fig11::runs(r),
        "fig12" => fig12::runs(r),
        "fig13" => fig13::runs(r),
        "fig14" => fig14::runs(r),
        "fig15" => fig15::runs(r),
        "fig16" => fig16::runs(r),
        "fig17" => fig17::runs(r),
        "fig18" => fig18::runs(r),
        "overhead" => overhead::runs(r),
        "ablation" => ablation::runs(r),
        "partition" => partition::runs(r),
        "trace_replay" => trace_replay::runs(r),
        _ => return None,
    };
    Some(keys)
}

/// Second-round keys whose identity depends on first-round results (Figure
/// 5's Best-SWL+CacheExt point needs the sweep winner). Call after the
/// [`plan`] batch has executed; with a warm memo this is a cheap arg-max,
/// not a simulation. Returns `None` for unknown ids.
pub fn followup(id: &str, r: &Runner) -> Option<Vec<RunKey>> {
    match id {
        "fig05" | "fig5" => Some(fig05::followup_runs(r)),
        _ => plan(id, r).map(|_| Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        let r = crate::shared_quick_runner();
        assert!(run("fig99", r).is_none());
    }

    #[test]
    fn alias_ids_resolve() {
        let r = crate::shared_quick_runner();
        assert!(run("overhead", r).is_some());
    }

    #[test]
    fn partition_sweep_is_opt_in() {
        // Runnable by explicit id, absent from the default suite (whose
        // output must stay byte-identical to the pre-partition harness).
        assert!(!ALL.contains(&"partition"));
        let r = crate::shared_quick_runner();
        assert!(plan("partition", r).is_some());
        assert!(followup("partition", r).is_some());
    }

    #[test]
    fn trace_replay_is_opt_in() {
        // Runnable by explicit id, absent from the default suite (whose
        // output must stay byte-identical to the synthetic-only harness).
        assert!(!ALL.contains(&"trace_replay"));
        let r = crate::shared_quick_runner();
        assert!(plan("trace_replay", r).is_some());
        assert!(followup("trace_replay", r).is_some());
    }

    #[test]
    fn every_experiment_has_a_plan() {
        let r = crate::shared_quick_runner();
        for id in ALL {
            assert!(plan(id, r).is_some(), "{id} has no plan");
            assert!(followup(id, r).is_some(), "{id} has no followup plan");
        }
        assert!(plan("fig99", r).is_none());
    }

    #[test]
    fn plan_covers_render_for_fig01_and_table2() {
        for id in ["fig01", "table2"] {
            let r = crate::private_quick_runner(&plan(id, crate::shared_quick_runner()).unwrap());
            let warm = r.sims_run();
            let _ = run(id, &r).unwrap();
            assert_eq!(r.sims_run(), warm, "{id} simulated during rendering");
        }
    }

    #[test]
    fn fig05_followup_completes_the_plan() {
        let shared = crate::shared_quick_runner();
        let r = crate::private_quick_runner(&plan("fig05", shared).unwrap());
        r.seed_from(shared, &followup("fig05", &r).unwrap());
        let warm = r.sims_run();
        let _ = run("fig05", &r).unwrap();
        assert_eq!(r.sims_run(), warm, "fig05 simulated during rendering");
    }
}
