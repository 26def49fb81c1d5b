//! One simulation of a workload ([`Op`]), run plainly (as the end-to-end
//! run does) or wrapped in spans (as the span run does), and the checks
//! every result goes through.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::{run_kernel, run_kernel_traced, run_replay_kernel, Gpu};
use gpu_sim::kernel::KernelSpec;
use gpu_sim::replay::ReplayKernel;
use gpu_sim::stats::SimStats;
use lb_bench::Arch;
use lb_trace::{TraceWriter, Tracer, MASK_ALL};

use crate::digest::digest;
use crate::span;
use crate::timed::{self, Family};

/// What a simulation executes.
#[derive(Debug, Clone)]
pub enum Input {
    /// A synthetic kernel.
    Kernel(KernelSpec),
    /// A decoded LBW1 trace.
    Replay(Arc<ReplayKernel>),
}

/// One simulation: everything it needs is built during set-up.
#[derive(Debug, Clone)]
pub struct Op {
    /// Reference-digest id, e.g. `full/S2/LB`.
    pub id: String,
    /// Architecture (selects the policy factory).
    pub arch: Arch,
    /// Final configuration.
    pub cfg: GpuConfig,
    /// Kernel or trace.
    pub input: Input,
    /// Write every LBT1 event into an in-memory `TraceWriter`.
    pub traced: bool,
    /// A digest the result must also equal (the capture run of a trace, or
    /// the untraced twin of a traced run), besides the reference.
    pub twin: Option<u64>,
}

/// Result of one simulation.
#[derive(Debug)]
pub struct Done {
    /// Host seconds of the simulation call.
    pub secs: f64,
    /// Its statistics.
    pub stats: SimStats,
    /// LBT1 events and bytes written (traced runs).
    pub trace: Option<(u64, u64)>,
}

impl Op {
    /// Runs the simulation through the one-call entry points, untraced by
    /// spans: this is what the end-to-end run times.
    pub fn exec(&self) -> Done {
        self.exec_as(self.traced)
    }

    /// [`Op::exec`] with tracing forced on or off (the untraced twin of a
    /// traced run).
    pub fn exec_as(&self, traced: bool) -> Done {
        let factory = self.arch.factory();
        let t = Instant::now();
        let (stats, trace) = match (&self.input, traced) {
            (Input::Kernel(k), false) => (run_kernel(self.cfg.clone(), k.clone(), &*factory), None),
            (Input::Replay(r), false) => (run_replay_kernel(self.cfg.clone(), r, &*factory), None),
            (Input::Kernel(k), true) => {
                let tracer = Tracer::new(TraceWriter::to_memory(MASK_ALL));
                let stats =
                    run_kernel_traced(self.cfg.clone(), k.clone(), &*factory, tracer.clone());
                (stats, Some(drain(tracer)))
            }
            (Input::Replay(_), true) => unreachable!("no workload traces a replay"),
        };
        Done { secs: t.elapsed().as_secs_f64(), stats, trace }
    }

    /// The same simulation built and run step by step under spans:
    /// `sim.exec` { `lb_trace.writer`, `gpu.new` { `policy.new`, hooks },
    /// `gpu.run` { hooks }, `lb_trace.finish` }, with a timed policy.
    pub fn exec_spanned(&self) -> Done {
        let t = Instant::now();
        let (stats, trace) = span::scope("sim.exec", || {
            let factory = timed::factory(self.arch.factory(), Family::of(self.arch));
            let tracer = match self.traced {
                true => {
                    Tracer::new(span::scope("lb_trace.writer", || TraceWriter::to_memory(MASK_ALL)))
                }
                false => Tracer::off(),
            };
            let mut gpu = span::scope("gpu.new", || match &self.input {
                Input::Kernel(k) => {
                    Gpu::new_traced(self.cfg.clone(), k.clone(), &*factory, tracer.clone())
                }
                Input::Replay(r) => Gpu::new_replay(self.cfg.clone(), Arc::clone(r), &*factory),
            });
            let stats = span::scope("gpu.run", || gpu.run());
            drop(gpu);
            let trace = self.traced.then(|| span::scope("lb_trace.finish", || drain(tracer)));
            (stats, trace)
        });
        Done { secs: t.elapsed().as_secs_f64(), stats, trace }
    }
}

/// Flushes a memory-backed tracer and returns (events, bytes).
fn drain(tracer: Tracer) -> (u64, u64) {
    tracer.finish().expect("an in-memory trace cannot fail to flush");
    let events = tracer.events();
    let bytes = tracer.take_bytes().map_or(0, |b| b.len() as u64);
    (events, bytes)
}

/// Reference digests recorded at the seed commit: `id digest` lines.
#[derive(Debug, Default)]
pub struct Reference(HashMap<String, u64>);

impl Reference {
    /// The reference shipped with the benchmark.
    pub fn shipped() -> Self {
        Self::parse(include_str!("../reference/digests.txt"))
    }

    /// Parses `id hex-digest` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Self {
        Reference(
            text.lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .filter_map(|l| {
                    let (id, hex) = l.rsplit_once(' ')?;
                    Some((id.to_string(), u64::from_str_radix(hex, 16).ok()?))
                })
                .collect(),
        )
    }

    /// The recorded digest of `id`.
    pub fn get(&self, id: &str) -> Option<u64> {
        self.0.get(id).copied()
    }
}

/// Formats reference lines, sorted.
pub fn reference_lines(entries: &mut [(String, u64)]) -> String {
    entries.sort();
    entries.iter().map(|(id, d)| format!("{id} {d:016x}\n")).collect()
}

/// Counts operations and failed checks.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked or failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one operation that failed with `why`, or succeeded.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(why);
            }
        }
    }

    /// Checks a simulation's digest against the reference and its twin.
    pub fn check(&mut self, op: &Op, stats: &SimStats, reference: &Reference) {
        self.op(verify(&op.id, digest(stats), op.twin, reference));
    }
}

/// Checks `got` against the reference for `id` and an optional twin digest.
pub fn verify(id: &str, got: u64, twin: Option<u64>, reference: &Reference) -> Result<(), String> {
    match reference.get(id) {
        None => return Err(format!("{id}: no reference digest")),
        Some(want) if want != got => {
            return Err(format!("{id}: digest {got:016x} != reference {want:016x}"))
        }
        Some(_) => {}
    }
    match twin {
        Some(want) if want != got => Err(format!("{id}: digest {got:016x} != twin {want:016x}")),
        _ => Ok(()),
    }
}

/// Runs `f`, turning a panic into `None`.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}
