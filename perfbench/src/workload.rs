//! The four workloads, run end to end (plain, timed) or as a span run.

use std::time::Instant;

use lb_bench::experiments::trace_replay;
use lb_bench::Arch;

use crate::digest::{digest, digest_text};
use crate::report::{E2e, SpanRun};
use crate::sim::{guarded, reference_lines, verify, Reference, Tally};
use crate::util::{median, tail_percentile, timed, Rng};
use crate::{serial, span, suite};

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 4] = ["quick-suite", "full-16sm", "replay", "event-trace"];

/// Set-up is sampled in slots spread through the run: `quick-suite` takes
/// one before its first pass and one after every pass, the serial
/// workloads one after every simulation while the pass's set-up time is
/// below [`SETUP_SHARE`] of its simulation time. A slot repeats the set-up
/// at least `SETUP_REPS` times, or once if one repetition outlasts
/// [`SETUP_SLOT_S`], and keeps the median repetition; `setup_s` is the mean
/// of the slot medians. Most set-ups take microseconds, so one repetition
/// would be mostly timer noise; and the shared host switches between a
/// fast and a ~1.8× slower state for seconds to minutes at a time, so a
/// median over the whole run would flip between the two states where a
/// mean over slots follows the share of time spent in each, as the rates
/// do.
pub const SETUP_REPS: usize = 7;
/// See [`SETUP_REPS`].
pub const SETUP_SLOT_S: f64 = 0.001;
/// `quick-suite`'s slots last about this long (it has few of them).
pub const SETUP_CHUNK_S: f64 = 0.05;
/// See [`SETUP_REPS`].
pub const SETUP_SHARE: f64 = 0.05;
/// No slot repeats the set-up more often than this.
pub const SETUP_MAX_REPS: usize = 2_000;

/// Worker threads of a workload: `quick-suite` runs `min(nproc, 2)`
/// simulations at once, the others one at a time.
pub fn jobs(name: &str) -> usize {
    match name {
        "quick-suite" => std::thread::available_parallelism().map_or(1, |n| n.get()).min(2),
        _ => 1,
    }
}

/// Runs whole passes while at least half of the next one, judged by the
/// last, still fits in `seconds` — the pass count `seconds` would round to —
/// so a pass time near a whole fraction of `seconds` does not make runs
/// alternate between one more and one fewer pass. Always at least one.
/// `pass` returns false to stop early.
fn passes(seconds: f64, mut pass: impl FnMut() -> bool) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        if !pass() {
            return;
        }
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last / 2.0 > seconds {
            return;
        }
    }
}

/// Times one slot of set-up repetitions (see [`SETUP_REPS`]): `rep` runs
/// one and returns its seconds. Stops once the minimum is met and `done`
/// says so, given the slot's seconds so far; pushes the slot's median
/// repetition and returns the slot's seconds.
fn slot(slots: &mut Vec<f64>, mut rep: impl FnMut() -> f64, done: impl Fn(f64) -> bool) -> f64 {
    let mut reps = Vec::new();
    let mut spent = 0.0;
    loop {
        reps.push(rep());
        // A plain run keeps no spans, so each repetition's are dropped.
        span::take();
        spent += reps[reps.len() - 1];
        let minimum = reps.len() >= SETUP_REPS || spent >= SETUP_SLOT_S;
        if (minimum && done(spent)) || reps.len() >= SETUP_MAX_REPS {
            slots.push(median(&reps));
            return spent;
        }
    }
}

/// Input generated before the clock starts: `replay`'s captured traces.
fn inputs(name: &str) -> Vec<serial::Captured> {
    match name {
        "replay" => serial::capture_all(),
        _ => Vec::new(),
    }
}

/// Human-only figures of a plain run: (name, value, unit).
pub type Extra = Vec<(&'static str, f64, &'static str)>;

/// Plain run: set-up, then whole passes for about `seconds`.
pub fn end_to_end(
    name: &str,
    seed: u64,
    seconds: f64,
    reference: &Reference,
    tally: &mut Tally,
) -> (E2e, Extra) {
    let jobs = jobs(name);
    let mut rng = Rng::new(seed);
    let mut e = E2e::default();
    let mut extra = Extra::new();
    if name == "quick-suite" {
        let plan = || timed(|| suite::plan(jobs));
        let chunk = |spent: f64| spent >= SETUP_CHUNK_S;
        slot(&mut e.setup, plan, chunk);
        let mut tables = Vec::new();
        passes(seconds, || {
            let Some(p) = guarded(|| suite::pass(jobs, &mut rng, false)) else {
                tally.op(Err("quick-suite pass panicked".into()));
                return false;
            };
            e.measured_s += p.measured_s;
            e.sims.extend(p.sims.iter().map(|(_, secs, s)| (*secs, s.instructions)));
            suite::check(&p, reference, tally);
            tables = p.tables;
            slot(&mut e.setup, plan, chunk);
            true
        });
        if let Some(p95) = tail_percentile(&e.sim_ms(), 95.0) {
            extra.push(("sim_ms_p95", p95, "ms"));
        }
        if let Some(err) = suite::fig12_gm_err(&tables) {
            extra.push(("fig12_gm_err", err, "ratio"));
        }
    } else {
        let captured = inputs(name);
        let mut ops = serial::ops(name, &captured);
        span::take();
        serial::set_twins(&mut ops);
        passes(seconds, || {
            let (mut sims_s, mut setup_s) = (0.0, 0.0);
            let sims = serial::pass(&ops, &mut rng, reference, tally, |secs| {
                sims_s += secs;
                let budget = SETUP_SHARE * sims_s;
                if setup_s < budget {
                    let rep = || serial::time_set_up(name, &captured);
                    setup_s += slot(&mut e.setup, rep, |spent| setup_s + spent >= budget);
                }
            });
            e.measured_s += sims.iter().map(|s| s.0).sum::<f64>();
            e.sims.extend(sims);
            true
        });
    }
    span::take();
    (e, extra)
}

/// Span run: one pass of the workload with every layer boundary timed,
/// beside plain runs of the same simulations.
pub fn span_run(name: &str, seed: u64, reference: &Reference, tally: &mut Tally) -> SpanRun {
    let jobs = jobs(name);
    let mut rng = Rng::new(seed);
    let mut run = SpanRun { jobs, ..SpanRun::default() };
    if name == "quick-suite" {
        let Some(p) = guarded(|| suite::pass(jobs, &mut rng, true)) else {
            tally.op(Err("quick-suite pass panicked".into()));
            return run;
        };
        suite::check(&p, reference, tally);
        let (done, log) = suite::spanned(&p.sims, jobs);
        run.log = span::take();
        run.log.append(log);
        for ((key, secs, plain), d) in p.sims.iter().zip(&done) {
            let Some(d) = d else {
                tally.op(Err(format!("{}: panicked under spans", suite::id(key))));
                continue;
            };
            tally.op(verify(&suite::id(key), digest(&d.stats), Some(digest(plain)), reference));
            run.sims.add(&d.stats);
            run.plain_s += secs;
            run.spanned_s += d.secs;
        }
        run.engine_sims = p.sims.len() as u64;
        run.engine_keys = p.keys as u64;
        run.busy_s = p.sims.iter().map(|s| s.1).sum();
        run.engine_wall_s = p.prefetch_s;
        run.tail_s = p.tail_s;
    } else {
        let captured = inputs(name);
        run.replay_bytes = captured.iter().map(|c| c.bytes.len() as u64).sum();
        let mut ops = serial::ops(name, &captured);
        serial::set_twins(&mut ops);
        serial::span_pass(&ops, &mut rng, reference, tally, &mut run);
        run.log = span::take();
    }
    run
}

/// Every architecture variant any workload runs (one value per variant).
pub fn archs_used() -> Vec<Arch> {
    let (_, batch) = suite::plan(1);
    let mut archs: Vec<Arch> = batch.iter().map(|k| k.arch).collect();
    // The Fig 5 follow-up round's variant (its limit comes from round 1).
    archs.push(Arch::BestSwlCacheExt(2));
    archs.extend(trace_replay::ARCHS);
    archs.extend(serial::FULL_ARCHS);
    archs.extend(serial::TRACE_ARCHS);
    let mut seen = Vec::new();
    archs.retain(|a| {
        let d = std::mem::discriminant(a);
        let new = !seen.contains(&d);
        seen.push(d);
        new
    });
    archs
}

/// Reference digests of every simulation the workloads run, and of the
/// suite's rendered tables, as `id digest` lines.
pub fn record() -> String {
    let mut entries = Vec::new();
    let p = suite::pass(jobs("quick-suite"), &mut Rng::new(0), false);
    for (key, _, stats) in &p.sims {
        entries.push((suite::id(key), digest(stats)));
    }
    entries.push((suite::TABLES_ID.to_string(), digest_text(&suite::rendered(&p.tables))));
    let captured = serial::capture_all();
    for op in serial::full_ops().iter().chain(&serial::replay_ops(&captured)) {
        entries.push((op.id.clone(), digest(&op.exec().stats)));
    }
    span::take();
    reference_lines(&mut entries)
}
