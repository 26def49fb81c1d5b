//! Architectural digests: one 64-bit FNV-1a hash over everything a
//! simulation computes about the modelled GPU, and nothing about the host.
//!
//! Hashed: the scalar counters, the per-partition L2/DRAM/interconnect
//! counters, the per-load maps (in key order), the timeline, the RF space
//! samples, energy and `completed`. Left out: all of `SimStats::events`
//! (idle-skip, burst, descriptor-cache and parallel-executor telemetry) and
//! the partitions' `*_stepped_cycles`, which describe how the host got to
//! the result, not the result. A speed-only change must leave every digest
//! unchanged.

use gpu_sim::stats::SimStats;

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one integer (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float by its bit pattern, so any change in any bit shows.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one simulation's architectural statistics.
pub fn digest(s: &SimStats) -> u64 {
    let mut h = Fnv::default();
    for v in [
        s.cycles,
        s.instructions,
        s.l1_hits,
        s.miss_cold,
        s.miss_2c,
        s.bypasses,
        s.reg_hits,
        s.stores,
        s.l2_hits,
        s.l2_misses,
        s.rf_reads,
        s.rf_writes,
        s.rf_bank_conflicts,
        s.mshr_stalls,
        s.monitor_periods as u64,
        s.completed as u64,
    ] {
        h.u64(v);
    }
    s.dram_bytes.iter().for_each(|&b| h.u64(b));
    h.f64(s.policy_extra_pj);
    h.f64(s.energy_mj);

    h.u64(s.partitions.len() as u64);
    for p in &s.partitions {
        for v in [p.l2_accesses, p.l2_hits, p.l2_misses, p.dram_services, p.icnt_delivered] {
            h.u64(v);
        }
        p.dram_bytes.iter().for_each(|&b| h.u64(b));
    }

    let mut loads: Vec<_> = s.per_load.iter().collect();
    loads.sort_unstable_by_key(|(k, _)| **k);
    h.u64(loads.len() as u64);
    for (k, l) in loads {
        for v in [*k as u64, l.accesses, l.l1_hits, l.misses, l.reg_hits, l.bypasses] {
            h.u64(v);
        }
    }

    let mut details: Vec<_> = s.load_detail.iter().collect();
    details.sort_unstable_by_key(|(k, _)| **k);
    h.u64(details.len() as u64);
    for (k, d) in details {
        h.u64(*k as u64);
        let mut lines: Vec<_> = d.line_counts.iter().collect();
        lines.sort_unstable();
        h.u64(lines.len() as u64);
        for (line, n) in lines {
            h.u64(*line);
            h.u64(*n as u64);
        }
        h.u64(d.windows.len() as u64);
        for w in &d.windows {
            for v in [w.reused_ws_bytes, w.single_use_bytes, w.accesses, w.distinct_lines] {
                h.u64(v);
            }
        }
    }

    h.u64(s.timeline.len() as u64);
    for w in &s.timeline {
        h.u64(w.sm as u64);
        h.u64(w.window as u64);
        h.f64(w.ipc);
        h.f64(w.hit_fraction);
        h.u64(w.active_ctas as u64);
        h.u64(w.victim_regs as u64);
    }
    h.u64(s.rf_samples.len() as u64);
    for r in &s.rf_samples {
        for v in [r.static_unused, r.dynamic_unused, r.victim_in_use] {
            h.u64(v as u64);
        }
    }
    h.finish()
}

/// Digest of a text, e.g. the rendered tables of a whole suite.
pub fn digest_text(text: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(text.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::stats::{LoadStats, WindowSample};

    fn sample() -> SimStats {
        let mut s = SimStats {
            cycles: 1000,
            instructions: 700,
            l1_hits: 40,
            completed: true,
            energy_mj: 0.25,
            ..SimStats::default()
        };
        s.per_load.insert(3, LoadStats { accesses: 9, l1_hits: 4, ..LoadStats::default() });
        s.timeline.push(WindowSample { ipc: 0.7, ..WindowSample::default() });
        s
    }

    #[test]
    fn host_telemetry_is_ignored() {
        let base = digest(&sample());
        let mut s = sample();
        s.events.par_steals = 17;
        s.events.par_barrier_wait_ns = 123_456;
        s.events.sm_bursts = 99;
        assert_eq!(digest(&s), base);
    }

    #[test]
    fn one_count_of_l1_hits_is_caught() {
        let base = digest(&sample());
        let mut s = sample();
        s.l1_hits += 1;
        assert_ne!(digest(&s), base);
    }

    #[test]
    fn per_load_and_timeline_are_covered() {
        let base = digest(&sample());
        let mut s = sample();
        s.per_load.get_mut(&3).unwrap().reg_hits = 1;
        assert_ne!(digest(&s), base);
        let mut s = sample();
        s.timeline[0].ipc = 0.70000001;
        assert_ne!(digest(&s), base);
    }
}
