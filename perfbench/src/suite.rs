//! The `quick-suite` workload: every experiment of `experiments::ALL` at
//! `Scale::Quick`, through the runner's plan, both prefetch rounds and
//! render, as `lb-experiments --scale quick all` runs it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::stats::SimStats;
use lb_bench::{experiments, RunKey, Runner, Scale, Table};

use crate::digest::{digest, digest_text};
use crate::sim::{guarded, verify, Done, Input, Op, Reference, Tally};
use crate::span::{self, Log};
use crate::util::Rng;

/// Reference id of the rendered tables.
pub const TABLES_ID: &str = "quick/tables";

/// The paper's Fig 12 geometric means of Baseline, PCAL, CERF and LB.
const PAPER_FIG12_GM: [f64; 4] = [0.775, 1.076, 1.196, 1.290];

/// Reference id of a quick-scale simulation.
pub fn id(key: &RunKey) -> String {
    format!("quick/{key}")
}

/// A runner with the whole suite planned (the workload's set-up).
pub fn plan(jobs: usize) -> (Runner, Vec<RunKey>) {
    span::scope("experiments.plan", || {
        let mut runner = Runner::new(Scale::Quick);
        runner.set_jobs(jobs);
        let mut batch = Vec::new();
        for id in experiments::ALL {
            batch.extend(experiments::plan(id, &runner).expect("every listed experiment plans"));
        }
        (runner, batch)
    })
}

/// One pass over the suite.
pub struct Pass {
    /// Set-up seconds (runner and plan).
    pub setup_s: f64,
    /// Seconds from the first prefetch to the last rendered table.
    pub measured_s: f64,
    /// Each executed simulation in completion order: key, host seconds
    /// inside the simulation call, stats.
    pub sims: Vec<(RunKey, f64, Arc<SimStats>)>,
    /// Keys requested by both rounds, duplicates included.
    pub keys: usize,
    /// Wall seconds of the two prefetch rounds.
    pub prefetch_s: f64,
    /// Straggler tail of the two rounds: from the last simulation start to
    /// the end of its round (measured only when `monitor` is set).
    pub tail_s: f64,
    /// The rendered tables.
    pub tables: Vec<Table>,
}

/// Runs the suite once with a fresh runner; the seed's generator permutes
/// the order in which each round's keys are submitted.
pub fn pass(jobs: usize, rng: &mut Rng, monitor: bool) -> Pass {
    let t = Instant::now();
    let (runner, mut batch) = plan(jobs);
    let setup_s = t.elapsed().as_secs_f64();
    rng.shuffle(&mut batch);

    let t = Instant::now();
    let (prefetch_s, tail_s, follow) = span::scope("runner.prefetch", || {
        let mut tail = prefetch(&runner, &batch, monitor);
        let mut follow = Vec::new();
        for id in experiments::ALL {
            follow.extend(experiments::followup(id, &runner).expect("every listed id follows up"));
        }
        rng.shuffle(&mut follow);
        tail += prefetch(&runner, &follow, monitor);
        (t.elapsed().as_secs_f64(), tail, follow)
    });
    let tables: Vec<Table> = span::scope("experiments.render", || {
        experiments::ALL.iter().map(|id| experiments::run(id, &runner).expect("known id")).collect()
    });
    let measured_s = t.elapsed().as_secs_f64();

    let by_name: HashMap<String, RunKey> =
        batch.iter().chain(&follow).map(|k| (k.to_string(), *k)).collect();
    let sims = runner
        .profile()
        .records
        .iter()
        .map(|r| {
            let key = by_name[&r.key];
            // A memo hit: every executed key is warm.
            (key, r.wall_s, runner.run_key(key))
        })
        .collect();
    Pass { setup_s, measured_s, sims, keys: batch.len() + follow.len(), prefetch_s, tail_s, tables }
}

/// `Runner::prefetch`, optionally watched by a thread that timestamps each
/// completion (to within a millisecond) so the straggler tail — from the
/// last simulation's start to the end of the round — can be measured.
fn prefetch(runner: &Runner, keys: &[RunKey], monitor: bool) -> f64 {
    if !monitor {
        runner.prefetch(keys);
        return 0.0;
    }
    let first = runner.profile().records.len();
    let done_before = runner.sims_run();
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let stamps = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut stamps = Vec::new();
            let mut seen = done_before;
            while !stop.load(Ordering::SeqCst) {
                let n = runner.sims_run();
                if n != seen {
                    stamps.push((n - done_before, t0.elapsed().as_secs_f64()));
                    seen = n;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            stamps
        });
        runner.prefetch(keys);
        stop.store(true, Ordering::SeqCst);
        watcher.join().expect("the watcher thread only reads counters")
    });
    let end = t0.elapsed().as_secs_f64();
    let profile = runner.profile();
    let last_start = profile.records[first..]
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let finished = stamps.iter().find(|(n, _)| *n > k as u64).map_or(end, |&(_, t)| t);
            finished - r.wall_s
        })
        .fold(0.0f64, f64::max);
    if profile.records.len() == first {
        0.0
    } else {
        end - last_start
    }
}

/// Checks every simulation of a pass and its rendered tables.
pub fn check(p: &Pass, reference: &Reference, tally: &mut Tally) {
    for (key, _, stats) in &p.sims {
        tally.op(verify(&id(key), digest(stats), None, reference));
    }
    tally.op(verify(TABLES_ID, digest_text(&rendered(&p.tables)), None, reference));
}

/// The tables as `lb-experiments --out` writes them.
pub fn rendered(tables: &[Table]) -> String {
    tables.iter().map(|t| t.render() + "\n").collect()
}

/// Mean |ours / paper - 1| over the Fig 12 geometric means of Baseline,
/// PCAL, CERF and LB (simulated; not a held-out validation).
pub fn fig12_gm_err(tables: &[Table]) -> Option<f64> {
    let gm = tables.iter().find(|t| t.id == "fig12")?.rows.last()?;
    let ours = [1, 3, 4, 5].map(|c| gm[c].parse::<f64>().ok());
    let mut err = 0.0;
    for (ours, paper) in ours.into_iter().zip(PAPER_FIG12_GM) {
        err += (ours? / paper - 1.0).abs();
    }
    Some(err / PAPER_FIG12_GM.len() as f64)
}

/// The span pass: the pass's simulations again, built and run through the
/// public `Gpu` API under spans, on `jobs` threads pulling from one queue
/// in the pass's completion order. Returns each simulation's result (`None`
/// if it panicked), aligned with `sims`, and the merged span log.
pub fn spanned(sims: &[(RunKey, f64, Arc<SimStats>)], jobs: usize) -> (Vec<Option<Done>>, Log) {
    let base = Scale::Quick.config();
    let next = AtomicUsize::new(0);
    type Indexed = Vec<(usize, Option<Done>)>;
    let per_thread: Vec<(Indexed, Log)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((key, _, _)) = sims.get(i) else { break };
                        let done = guarded(|| span::scope("sim", || op(key, &base).exec_spanned()));
                        out.push((i, done));
                    }
                    (out, span::take())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("span workers catch panics")).collect()
    });
    let mut done: Vec<Option<Done>> = sims.iter().map(|_| None).collect();
    let mut log = Log::default();
    for (out, l) in per_thread {
        for (i, d) in out {
            done[i] = d;
        }
        log.append(l);
    }
    (done, log)
}

/// Builds the simulation of `key` as the runner does.
fn op(key: &RunKey, base: &gpu_sim::config::GpuConfig) -> Op {
    let (cfg, kernel) = span::scope("bench.config", || {
        let app = workloads::app(key.app).expect("suite keys name known apps");
        let cfg = key.spec().config(base, &app);
        let kernel = span::scope("workloads.kernel", || app.kernel(cfg.n_sms));
        (cfg, kernel)
    });
    Op { id: id(key), arch: key.arch, cfg, input: Input::Kernel(kernel), traced: false, twin: None }
}
