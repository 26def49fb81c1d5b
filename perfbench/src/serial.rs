//! The three workloads that run one simulation at a time: `full-16sm`,
//! `replay` and `event-trace`. Each is a fixed list of [`Op`]s built during
//! set-up; a pass runs every op once in a seed-permuted order.

use std::sync::Arc;

use gpu_sim::config::GpuConfig;
use gpu_sim::policy::baseline_factory;
use lb_bench::experiments::{self, trace_replay};
use lb_bench::{Arch, RunKey, Runner, Scale};

use crate::digest::digest;
use crate::report::SpanRun;
use crate::sim::{guarded, verify, Input, Op, Reference, Tally};
use crate::span;
use crate::util::{timed, Rng};

/// `full-16sm` apps: the cache-sensitive half of Table 2.
pub const FULL_APPS: [&str; 8] = ["S2", "GE", "KM", "AT", "S1", "MV", "CF", "PF"];
/// `full-16sm` architectures.
pub const FULL_ARCHS: [Arch; 2] = [Arch::Baseline, Arch::Linebacker];
/// `full-16sm` cycle cap: three 50k-cycle monitoring windows, the fewest
/// in which Linebacker gets past monitoring and serves register hits (at
/// two windows it serves none).
pub const FULL_MAX_CYCLES: u64 = 150_000;

/// Loop trips of each captured `replay` trace.
pub const REPLAY_ITERATIONS: u32 = 300;

/// `event-trace` apps and architectures, drawn from the Fig 12 plan.
pub const TRACE_APPS: [&str; 3] = ["S2", "BI", "CF"];
/// See [`TRACE_APPS`].
pub const TRACE_ARCHS: [Arch; 4] = [Arch::Baseline, Arch::Pcal, Arch::Cerf, Arch::Linebacker];

/// Builds an op for a synthetic app on `base`, as the runner would.
fn synthetic(id: String, key: RunKey, base: &GpuConfig, traced: bool) -> Op {
    let (cfg, kernel) = span::scope("bench.config", || {
        let app = workloads::app(key.app).expect("workload apps exist");
        let cfg = key.spec().config(base, &app);
        let kernel = span::scope("workloads.kernel", || app.kernel(cfg.n_sms));
        (cfg, kernel)
    });
    Op { id, arch: key.arch, cfg, input: Input::Kernel(kernel), traced, twin: None }
}

/// Set-up of `full-16sm`: the Table 1 machine (16 SMs, 50k-cycle
/// windows) capped at [`FULL_MAX_CYCLES`].
pub fn full_ops() -> Vec<Op> {
    let base = Scale::Full.config().with_windows(50_000, FULL_MAX_CYCLES);
    let mut ops = Vec::new();
    for app in FULL_APPS {
        for arch in FULL_ARCHS {
            let key = RunKey::new(app, arch);
            ops.push(synthetic(format!("full/{key}"), key, &base, false));
        }
    }
    ops
}

/// The machine traces are captured on and replayed by: the quick-scale SM
/// with a cycle cap high enough for every capture to finish.
fn replay_base() -> GpuConfig {
    Scale::Quick.config().with_windows(6_000, 5_000_000)
}

/// A captured, encoded trace: the `replay` workload's input.
#[derive(Debug)]
pub struct Captured {
    /// Application.
    pub app: &'static str,
    /// LBW1 bytes.
    pub bytes: Vec<u8>,
    /// Digest of the capture run.
    pub digest: u64,
}

/// Generates the `replay` input before the clock starts: every app
/// captured as a one-wave trace under the baseline, then encoded.
pub fn capture_all() -> Vec<Captured> {
    let base = replay_base();
    workloads::all_apps()
        .into_iter()
        .map(|app| {
            let (stats, rep) = span::scope("lb_replay.capture", || {
                lb_replay::capture_app(app.abbrev, &base, REPLAY_ITERATIONS, &*baseline_factory())
                    .expect("every app captures within the cycle cap")
            });
            let bytes = span::scope("lb_replay.encode", || lb_replay::encode(&rep));
            Captured { app: app.abbrev, bytes, digest: digest(&stats) }
        })
        .collect()
}

/// Set-up of `replay`: decode each trace and pair it with the four
/// policies of the trace-replay study. The Baseline replay must equal its
/// capture run.
pub fn replay_ops(captured: &[Captured]) -> Vec<Op> {
    let base = replay_base();
    let mut ops = Vec::new();
    for c in captured {
        let rep = span::scope("lb_replay.decode", || {
            lb_replay::decode(&c.bytes).expect("freshly encoded traces decode")
        });
        let rep = Arc::new(rep);
        for arch in trace_replay::ARCHS {
            let cfg = RunKey::new(c.app, arch).spec().config_for_kernel(&base, &rep.stub);
            ops.push(Op {
                id: format!("replay/{}/{}", c.app, arch.label()),
                arch,
                cfg,
                input: Input::Replay(Arc::clone(&rep)),
                traced: false,
                twin: (arch == Arch::Baseline).then_some(c.digest),
            });
        }
    }
    ops
}

/// Set-up of `event-trace`: the [`TRACE_APPS`] × [`TRACE_ARCHS`] keys of
/// the quick-scale Fig 12 plan, traced.
pub fn trace_ops() -> Vec<Op> {
    let runner = Runner::new(Scale::Quick);
    let plan = span::scope("experiments.plan", || {
        experiments::plan("fig12", &runner).expect("fig12 plans")
    });
    let mut keys: Vec<RunKey> = Vec::new();
    for key in plan {
        if TRACE_APPS.contains(&key.app) && TRACE_ARCHS.contains(&key.arch) && !keys.contains(&key)
        {
            keys.push(key);
        }
    }
    let base = runner.config().clone();
    keys.into_iter().map(|k| synthetic(crate::suite::id(&k), k, &base, true)).collect()
}

/// The set-up of a serial workload: its ops, built from `captured` for
/// `replay`.
pub fn ops(name: &str, captured: &[Captured]) -> Vec<Op> {
    match name {
        "full-16sm" => full_ops(),
        "replay" => replay_ops(captured),
        "event-trace" => trace_ops(),
        other => unreachable!("not a serial workload: {other}"),
    }
}

/// Times one whole set-up of a serial workload, in seconds. `replay`'s is
/// built one trace at a time and each trace's ops are dropped, untimed,
/// before the next is decoded, so timing it beside the ops in use does not
/// double the peak RSS.
pub fn time_set_up(name: &str, captured: &[Captured]) -> f64 {
    match name {
        "replay" => captured.chunks(1).map(|c| timed(|| replay_ops(c))).sum(),
        _ => timed(|| ops(name, captured)),
    }
}

/// Runs each traced op's untraced twin (before the clock) and records its
/// digest as the value the traced run must reproduce.
pub fn set_twins(ops: &mut [Op]) {
    for op in ops.iter_mut().filter(|o| o.traced) {
        op.twin = guarded(|| digest(&op.exec_as(false).stats));
    }
}

/// One end-to-end pass: every op once, in a seed-permuted order. Returns
/// (host seconds, warp instructions) per completed simulation.
/// `after` is called with each simulation's seconds once it has ended.
pub fn pass(
    ops: &[Op],
    rng: &mut Rng,
    reference: &Reference,
    tally: &mut Tally,
    mut after: impl FnMut(f64),
) -> Vec<(f64, u64)> {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    rng.shuffle(&mut order);
    let mut out = Vec::with_capacity(ops.len());
    for i in order {
        let op = &ops[i];
        match guarded(|| op.exec()) {
            Some(done) => {
                tally.check(op, &done.stats, reference);
                out.push((done.secs, done.stats.instructions));
                after(done.secs);
            }
            None => tally.op(Err(format!("{}: panicked", op.id))),
        }
    }
    out
}

/// One span pass: every op run plainly and under spans (which first is
/// seed-chosen per op), plus the untraced twin of traced ops. Both runs
/// must equal the reference, and each other.
pub fn span_pass(
    ops: &[Op],
    rng: &mut Rng,
    reference: &Reference,
    tally: &mut Tally,
    run: &mut SpanRun,
) {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    rng.shuffle(&mut order);
    let pass_start = span::now_ns();
    let mut last_start = pass_start;
    for i in order {
        let op = &ops[i];
        let plain_first = rng.coin();
        let mut plain = None;
        if plain_first {
            plain = started(&mut last_start, || op.exec());
        }
        let spanned = started(&mut last_start, || span::scope("sim", || op.exec_spanned()));
        if !plain_first {
            plain = started(&mut last_start, || op.exec());
        }
        let untraced = op.traced.then(|| started(&mut last_start, || op.exec_as(false)));

        let (Some(plain), Some(spanned)) = (plain, spanned) else {
            tally.op(Err(format!("{}: panicked", op.id)));
            continue;
        };
        tally.check(op, &plain.stats, reference);
        tally.op(verify(&op.id, digest(&spanned.stats), Some(digest(&plain.stats)), reference));
        run.plain_s += plain.secs;
        run.spanned_s += spanned.secs;
        run.busy_s += plain.secs + spanned.secs;
        run.sims.add(&spanned.stats);
        if let Some((events, bytes)) = spanned.trace {
            run.trace_events += events;
            run.trace_bytes += bytes;
            run.traced_insts += spanned.stats.instructions;
        }
        match untraced {
            Some(Some(u)) => {
                tally.op(verify(&op.id, digest(&u.stats), None, reference));
                run.traced_s += plain.secs;
                run.untraced_s += u.secs;
                run.busy_s += u.secs;
            }
            Some(None) => tally.op(Err(format!("{}: untraced twin panicked", op.id))),
            None => {}
        }
    }
    let end = span::now_ns();
    run.engine_sims = ops.len() as u64;
    run.engine_keys = ops.len() as u64;
    run.engine_wall_s = (end - pass_start) as f64 * 1e-9;
    run.tail_s = (end - last_start) as f64 * 1e-9;
}

/// Runs `f` (a panic gives `None`), noting its start time in `at`.
fn started<T>(at: &mut u64, f: impl FnOnce() -> T) -> Option<T> {
    *at = span::now_ns();
    guarded(f)
}
