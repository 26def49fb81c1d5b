//! A forwarding [`SmPolicy`] that times the policy crates' hooks.
//!
//! Every trait method is forwarded, the defaulted ones included, so a
//! wrapped run simulates exactly what an unwrapped one does (a test below
//! checks this by digest for every architecture the workloads use). Hook
//! calls are grouped as `<family>.access` (pre_access, on_hit, on_miss,
//! on_evict, on_store), `<family>.window` (on_window) and `<family>.cta`
//! (the CTA lifecycle hooks), and flushed to the thread's span log as
//! aggregates under whichever span was open when they fired. The query
//! methods (`name`, `victim_space_regs`, `monitor_periods`, `debug_state`)
//! are forwarded untimed.

use std::time::Instant;

use gpu_sim::policy::{MissService, PolicyCtx, PolicyFactory, PreAccess, SmPolicy, WindowInfo};
use gpu_sim::types::{CtaId, LineAddr, LoadId, Pc, RegNum};
use lb_bench::Arch;

use crate::span;

/// The crate a policy comes from: `linebacker` (Linebacker and its victim
/// caching ablations) or `baselines` (everything else, including the
/// hook-free GTO baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The `linebacker` crate.
    Linebacker,
    /// The `baselines` crate (and `gpu_sim::NullPolicy`).
    Baselines,
}

impl Family {
    /// The family of `arch`'s policy.
    pub fn of(arch: Arch) -> Family {
        match arch {
            Arch::Linebacker
            | Arch::LinebackerAssoc(_)
            | Arch::VictimCaching
            | Arch::Svc
            | Arch::LbCacheExt
            | Arch::LbThreshold(_)
            | Arch::LbIpcBound(_) => Family::Linebacker,
            _ => Family::Baselines,
        }
    }

    fn names(self) -> [&'static str; 3] {
        match self {
            Family::Linebacker => ["linebacker.access", "linebacker.window", "linebacker.cta"],
            Family::Baselines => ["baselines.access", "baselines.window", "baselines.cta"],
        }
    }
}

const ACCESS: usize = 0;
const WINDOW: usize = 1;
const CTA: usize = 2;

/// Wraps `inner` so each policy it builds is timed, and each build is
/// recorded as a `policy.new` call.
pub fn factory(inner: Box<PolicyFactory<'static>>, family: Family) -> Box<PolicyFactory<'static>> {
    Box::new(move |sm, cfg, kernel| {
        let t = Instant::now();
        let policy = inner(sm, cfg, kernel);
        span::record(span::current(), "policy.new", 1, t.elapsed().as_nanos() as u64);
        Box::new(Timed { inner: policy, names: family.names(), parent: None, calls: [(0, 0); 3] })
    })
}

struct Timed {
    inner: Box<dyn SmPolicy>,
    names: [&'static str; 3],
    /// Span the pending counts belong to.
    parent: Option<usize>,
    /// Pending (count, ns) per hook group.
    calls: [(u64, u64); 3],
}

impl Timed {
    fn begin(&mut self) -> Instant {
        let parent = span::current();
        if parent != self.parent {
            self.flush();
            self.parent = parent;
        }
        Instant::now()
    }

    fn end(&mut self, group: usize, t: Instant) {
        let c = &mut self.calls[group];
        c.0 += 1;
        c.1 += t.elapsed().as_nanos() as u64;
    }

    fn flush(&mut self) {
        for (name, c) in self.names.iter().zip(&mut self.calls) {
            span::record(self.parent, name, c.0, c.1);
            *c = (0, 0);
        }
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        self.flush();
    }
}

impl SmPolicy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pre_access(
        &mut self,
        warp: u32,
        pc: Pc,
        load: LoadId,
        line: LineAddr,
        ctx: &mut PolicyCtx<'_>,
    ) -> PreAccess {
        let t = self.begin();
        let r = self.inner.pre_access(warp, pc, load, line, ctx);
        self.end(ACCESS, t);
        r
    }

    fn on_hit(&mut self, pc: Pc, load: LoadId, line: LineAddr, ctx: &mut PolicyCtx<'_>) {
        let t = self.begin();
        self.inner.on_hit(pc, load, line, ctx);
        self.end(ACCESS, t);
    }

    fn on_miss(
        &mut self,
        pc: Pc,
        load: LoadId,
        line: LineAddr,
        ctx: &mut PolicyCtx<'_>,
    ) -> MissService {
        let t = self.begin();
        let r = self.inner.on_miss(pc, load, line, ctx);
        self.end(ACCESS, t);
        r
    }

    fn on_evict(&mut self, victim: LineAddr, victim_hpc: u8, ctx: &mut PolicyCtx<'_>) -> bool {
        let t = self.begin();
        let r = self.inner.on_evict(victim, victim_hpc, ctx);
        self.end(ACCESS, t);
        r
    }

    fn on_store(&mut self, line: LineAddr, ctx: &mut PolicyCtx<'_>) {
        let t = self.begin();
        self.inner.on_store(line, ctx);
        self.end(ACCESS, t);
    }

    fn on_window(&mut self, info: &WindowInfo, ctx: &mut PolicyCtx<'_>) -> Option<u32> {
        let t = self.begin();
        let r = self.inner.on_window(info, ctx);
        self.end(WINDOW, t);
        r
    }

    fn on_cta_launch(&mut self, cta: CtaId, first_reg: RegNum, ctx: &mut PolicyCtx<'_>) {
        let t = self.begin();
        self.inner.on_cta_launch(cta, first_reg, ctx);
        self.end(CTA, t);
    }

    fn on_cta_deactivate(&mut self, cta: CtaId, ctx: &mut PolicyCtx<'_>) {
        let t = self.begin();
        self.inner.on_cta_deactivate(cta, ctx);
        self.end(CTA, t);
    }

    fn on_backup_complete(&mut self, cta: CtaId, ctx: &mut PolicyCtx<'_>) {
        let t = self.begin();
        self.inner.on_backup_complete(cta, ctx);
        self.end(CTA, t);
    }

    fn on_cta_activate(&mut self, cta: CtaId, ctx: &mut PolicyCtx<'_>) {
        let t = self.begin();
        self.inner.on_cta_activate(cta, ctx);
        self.end(CTA, t);
    }

    fn on_cta_complete(&mut self, cta: CtaId, ctx: &mut PolicyCtx<'_>) {
        let t = self.begin();
        self.inner.on_cta_complete(cta, ctx);
        self.end(CTA, t);
    }

    fn victim_space_regs(&self) -> u32 {
        self.inner.victim_space_regs()
    }

    fn monitor_periods(&self) -> u32 {
        self.inner.monitor_periods()
    }

    fn debug_state(&self) -> String {
        self.inner.debug_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest;
    use crate::workload;
    use gpu_sim::gpu::run_kernel;
    use lb_bench::RunKey;

    /// Wrapped and unwrapped runs simulate the same thing, for every
    /// architecture any workload runs. Short runs (the quick machine capped
    /// at 40k cycles) keep the test fast; the window is shortened so the
    /// throttling and victim-caching hooks fire too.
    #[test]
    fn wrapped_runs_match_unwrapped_for_every_arch() {
        let archs = workload::archs_used();
        assert!(archs.len() >= 10, "expected the suite's architectures, got {archs:?}");
        let base = lb_bench::Scale::Quick.config().with_windows(4_000, 40_000);
        let app = workloads::app("S2").unwrap();
        for arch in archs {
            let cfg = RunKey::for_app(&app, arch).spec().config(&base, &app);
            let kernel = app.kernel(cfg.n_sms);
            let plain = run_kernel(cfg.clone(), kernel.clone(), &*arch.factory());
            let wrapped = run_kernel(cfg, kernel, &*factory(arch.factory(), Family::of(arch)));
            assert_eq!(digest(&plain), digest(&wrapped), "{arch:?}");
            assert_eq!(plain.events, wrapped.events, "{arch:?}: even host telemetry agrees");
        }
        let log = span::take();
        assert!(log.agg_total("linebacker.access").1 > 0);
        assert!(log.agg_total("baselines.access").1 > 0);
        assert!(log.agg_total("linebacker.window").1 > 0);
        assert!(log.agg_total("policy.new").1 > 0);
    }
}
