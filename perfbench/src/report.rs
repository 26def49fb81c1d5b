//! Metric definitions and how each is computed: the end-to-end metrics of
//! a plain run, and the per-layer metrics of a span run.

use gpu_sim::stats::SimStats;

use crate::span::Log;
use crate::util::{mean, median, peak_rss_mb};

/// A metric's declaration, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics, reported by every `--trace 0` run.
pub const END_TO_END: [Def; 5] = [
    def("setup_s", "s", "lower"),
    def("sims_per_s", "1/s", "higher"),
    def("minsts_per_s", "Minst/s", "higher"),
    def("sim_ms_p50", "ms", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, reported by every `--trace 1` run (zero where a
/// workload does not exercise the layer).
pub const PER_LAYER: [Def; 61] = [
    // bench
    def("experiments.plan_s", "s", "lower"),
    def("runner.prefetch_s", "s", "lower"),
    def("experiments.render_s", "s", "lower"),
    def("engine.sims", "count", "lower"),
    def("engine.keys", "count", "lower"),
    def("engine.dedup", "ratio", "lower"),
    def("engine.worker_busy", "ratio", "higher"),
    def("engine.tail_s", "s", "lower"),
    // workloads
    def("workloads.kernel_s", "s", "lower"),
    def("workloads.kernel_calls", "count", "lower"),
    // gpu-sim
    def("gpu.new_s", "s", "lower"),
    def("gpu.new_calls", "count", "lower"),
    def("gpu.run_s", "s", "lower"),
    def("gpu.run_self_s", "s", "lower"),
    def("gpu.ns_per_sm_cycle", "ns", "lower"),
    def("gpu.ns_per_inst", "ns", "lower"),
    def("gpu.stepped_cycles", "count", "lower"),
    def("gpu.skip_jumps", "count", "lower"),
    def("gpu.skipped_frac", "ratio", "higher"),
    // sm
    def("sm.stepped_cycles", "count", "lower"),
    def("sm.issue_scan_cycles", "count", "lower"),
    def("sm.lsu_busy_cycles", "count", "lower"),
    def("sm.bursts", "count", "lower"),
    def("sm.mean_burst_len", "cycles", "higher"),
    def("sm.desc_hit_rate", "ratio", "higher"),
    // partition
    def("partition.l2_requests", "count", "lower"),
    def("partition.dram_services", "count", "lower"),
    def("partition.icnt_delivered", "count", "lower"),
    def("partition.dram_sleep_frac", "ratio", "higher"),
    def("partition.icnt_sleep_frac", "ratio", "higher"),
    // linebacker / baselines
    def("policy.new_s", "s", "lower"),
    def("linebacker.access_calls", "count", "lower"),
    def("linebacker.access_s", "s", "lower"),
    def("linebacker.window_calls", "count", "lower"),
    def("linebacker.window_s", "s", "lower"),
    def("linebacker.cta_calls", "count", "lower"),
    def("linebacker.cta_s", "s", "lower"),
    def("baselines.access_calls", "count", "lower"),
    def("baselines.access_s", "s", "lower"),
    def("baselines.window_calls", "count", "lower"),
    def("baselines.window_s", "s", "lower"),
    def("baselines.cta_calls", "count", "lower"),
    def("baselines.cta_s", "s", "lower"),
    // lb-replay
    def("lb_replay.capture_s", "s", "lower"),
    def("lb_replay.encode_s", "s", "lower"),
    def("lb_replay.decode_s", "s", "lower"),
    def("lb_replay.bytes", "B", "lower"),
    def("lb_replay.decode_mb_per_s", "MB/s", "higher"),
    // lb-trace
    def("lb_trace.events", "count", "lower"),
    def("lb_trace.bytes", "B", "lower"),
    def("lb_trace.bytes_per_inst", "B/inst", "lower"),
    def("lb_trace.overhead", "ratio", "lower"),
    // simulated components
    def("sim.instructions", "count", "higher"),
    def("sim.ipc", "inst/cycle", "higher"),
    def("l1.accesses", "count", "lower"),
    def("l1.hit_frac", "ratio", "higher"),
    def("l1.reg_hits", "count", "higher"),
    def("l2.hit_frac", "ratio", "higher"),
    def("dram.bytes", "B", "lower"),
    def("rf.bank_conflicts", "count", "lower"),
    // tracing cost
    def("span.overhead", "ratio", "lower"),
];

/// What a plain run measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Median set-up seconds of each slot of repetitions.
    pub setup: Vec<f64>,
    /// (host seconds, warp instructions) of each simulation.
    pub sims: Vec<(f64, u64)>,
    /// Seconds the rates divide by: the wall time of measured work when
    /// simulations overlap (`quick-suite`), else the summed simulation
    /// times.
    pub measured_s: f64,
}

impl E2e {
    /// The [`END_TO_END`] values, in order.
    pub fn values(&self) -> [f64; 5] {
        let insts: u64 = self.sims.iter().map(|s| s.1).sum();
        [
            mean(&self.setup),
            self.sims.len() as f64 / self.measured_s,
            insts as f64 / self.measured_s / 1e6,
            median(&self.sim_ms()),
            peak_rss_mb(),
        ]
    }

    /// Per-simulation host times, ms.
    pub fn sim_ms(&self) -> Vec<f64> {
        self.sims.iter().map(|s| s.0 * 1e3).collect()
    }
}

/// Sums of simulated statistics and host telemetry over many runs.
#[derive(Debug, Default, Clone)]
pub struct Sums {
    cycles: u64,
    instructions: u64,
    stepped: u64,
    skipped: u64,
    skip_jumps: u64,
    sm_stepped: u64,
    issue_scan: u64,
    lsu_busy: u64,
    bursts: u64,
    burst_cycles: u64,
    desc_hits: u64,
    desc_misses: u64,
    l2_requests: u64,
    dram_services: u64,
    icnt_delivered: u64,
    dram_stepped: u64,
    dram_slept: u64,
    icnt_stepped: u64,
    icnt_slept: u64,
    l1_accesses: u64,
    l1_hits: u64,
    reg_hits: u64,
    l2_hits: u64,
    l2_misses: u64,
    dram_bytes: u64,
    bank_conflicts: u64,
}

impl Sums {
    /// Adds one simulation.
    pub fn add(&mut self, s: &SimStats) {
        let e = &s.events;
        self.cycles += s.cycles;
        self.instructions += s.instructions;
        self.stepped += e.stepped_cycles;
        self.skipped += e.skipped_cycles;
        self.skip_jumps += e.skip_jumps;
        self.sm_stepped += e.sm_stepped_cycles;
        self.issue_scan += e.sm_issue_scan_cycles;
        self.lsu_busy += e.sm_lsu_busy_cycles;
        self.bursts += e.sm_bursts;
        self.burst_cycles += e.sm_burst_cycles;
        self.desc_hits += e.desc_hits;
        self.desc_misses += e.desc_misses;
        self.l2_requests += e.l2_requests;
        self.dram_services += e.dram_services;
        self.icnt_delivered += e.icnt_delivered;
        self.dram_stepped += e.dram_stepped_cycles;
        self.dram_slept += e.dram_slept_cycles;
        self.icnt_stepped += e.icnt_stepped_cycles;
        self.icnt_slept += e.icnt_slept_cycles;
        self.l1_accesses += s.mem_accesses();
        self.l1_hits += s.l1_hits;
        self.reg_hits += s.reg_hits;
        self.l2_hits += s.l2_hits;
        self.l2_misses += s.l2_misses;
        self.dram_bytes += s.dram_bytes.iter().sum::<u64>();
        self.bank_conflicts += s.rf_bank_conflicts;
    }
}

/// Everything a span run collects over its one pass.
#[derive(Debug, Default)]
pub struct SpanRun {
    /// Merged span log.
    pub log: Log,
    /// Statistics of the spanned simulations.
    pub sims: Sums,
    /// Host seconds of the plain runs matched to the spanned ones.
    pub plain_s: f64,
    /// Host seconds of the spanned runs.
    pub spanned_s: f64,
    /// Plain traced and untraced seconds of the same keys (`event-trace`).
    pub traced_s: f64,
    /// See [`SpanRun::traced_s`].
    pub untraced_s: f64,
    /// LBT1 events written by the spanned simulations.
    pub trace_events: u64,
    /// LBT1 bytes written by the spanned simulations.
    pub trace_bytes: u64,
    /// Warp instructions of the traced spanned simulations.
    pub traced_insts: u64,
    /// LBW1 bytes decoded.
    pub replay_bytes: u64,
    /// Simulations the engine executed.
    pub engine_sims: u64,
    /// Keys requested of it, duplicates included.
    pub engine_keys: u64,
    /// Summed simulation seconds inside the engine phase.
    pub busy_s: f64,
    /// Worker threads of the engine phase.
    pub jobs: usize,
    /// Wall seconds of the engine phase.
    pub engine_wall_s: f64,
    /// Straggler tail: from the last simulation's start to the phase end.
    pub tail_s: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl SpanRun {
    /// The [`PER_LAYER`] values, in order.
    pub fn values(&self) -> Vec<f64> {
        let l = &self.log;
        let s = &self.sims;
        let secs = |name: &str| l.total(name).0;
        let calls = |name: &str| l.total(name).1 as f64;
        let agg_s = |name: &str| l.agg_total(name).0;
        let agg_n = |name: &str| l.agg_total(name).1 as f64;
        let run_self = l.self_total("gpu.run");
        let values = vec![
            secs("experiments.plan"),
            secs("runner.prefetch"),
            secs("experiments.render"),
            self.engine_sims as f64,
            self.engine_keys as f64,
            ratio(self.engine_sims as f64, self.engine_keys as f64),
            ratio(self.busy_s, self.jobs.max(1) as f64 * self.engine_wall_s),
            self.tail_s,
            secs("workloads.kernel"),
            calls("workloads.kernel"),
            secs("gpu.new"),
            calls("gpu.new"),
            secs("gpu.run"),
            run_self,
            ratio(run_self * 1e9, s.sm_stepped as f64),
            ratio(run_self * 1e9, s.instructions as f64),
            s.stepped as f64,
            s.skip_jumps as f64,
            ratio(s.skipped as f64, (s.stepped + s.skipped) as f64),
            s.sm_stepped as f64,
            s.issue_scan as f64,
            s.lsu_busy as f64,
            s.bursts as f64,
            ratio(s.burst_cycles as f64, s.bursts as f64),
            ratio(s.desc_hits as f64, (s.desc_hits + s.desc_misses) as f64),
            s.l2_requests as f64,
            s.dram_services as f64,
            s.icnt_delivered as f64,
            ratio(s.dram_slept as f64, (s.dram_stepped + s.dram_slept) as f64),
            ratio(s.icnt_slept as f64, (s.icnt_stepped + s.icnt_slept) as f64),
            agg_s("policy.new"),
            agg_n("linebacker.access"),
            agg_s("linebacker.access"),
            agg_n("linebacker.window"),
            agg_s("linebacker.window"),
            agg_n("linebacker.cta"),
            agg_s("linebacker.cta"),
            agg_n("baselines.access"),
            agg_s("baselines.access"),
            agg_n("baselines.window"),
            agg_s("baselines.window"),
            agg_n("baselines.cta"),
            agg_s("baselines.cta"),
            secs("lb_replay.capture"),
            secs("lb_replay.encode"),
            secs("lb_replay.decode"),
            self.replay_bytes as f64,
            ratio(self.replay_bytes as f64 / 1e6, secs("lb_replay.decode")),
            self.trace_events as f64,
            self.trace_bytes as f64,
            ratio(self.trace_bytes as f64, self.traced_insts as f64),
            ratio(self.traced_s, self.untraced_s),
            s.instructions as f64,
            ratio(s.instructions as f64, s.cycles as f64),
            s.l1_accesses as f64,
            ratio(s.l1_hits as f64, s.l1_accesses as f64),
            s.reg_hits as f64,
            ratio(s.l2_hits as f64, (s.l2_hits + s.l2_misses) as f64),
            s.dram_bytes as f64,
            s.bank_conflicts as f64,
            ratio(self.spanned_s, self.plain_s),
        ];
        debug_assert_eq!(values.len(), PER_LAYER.len());
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn span_run_values_cover_every_metric() {
        let run = SpanRun::default();
        assert_eq!(run.values().len(), PER_LAYER.len());
    }
}
