//! Quick per-app IPC sanity table across all five architectures.
//!
//! ```text
//! sanity [--quick] [shared flags] [apps...]
//! ```
//!
//! The shared flags are parsed by [`lb_bench::cli`], exactly as
//! `lb-experiments` parses them. With `--profile`, the IPC table moves to
//! stderr and stdout carries a single JSON throughput record (the same
//! shape `lb-experiments --profile` writes), so CI can parse it directly;
//! `--profile-out FILE` also writes it to FILE. With `--trace DIR`, every
//! timed simulation also captures an `.lbt` event trace named after its
//! profile key (e.g. `app=GA_arch=base.lbt`). Each `--workload` trace adds
//! a replayed row.

use baselines::{best_swl_sweep, cerf_factory, pcal_factory};
use gpu_sim::config::GpuConfig;
use gpu_sim::policy::{baseline_factory, PolicyFactory};
use gpu_sim::types::AccessOutcome;
use lb_bench::cli::{self, CommonArgs};
use lb_bench::profile::Profile;
use lb_bench::{simulate, Workload};
use linebacker::{linebacker_factory, LbConfig};
use workloads::all_apps;

fn main() {
    let mut quick = false;
    let mut only: Vec<String> = Vec::new();
    let mut common = CommonArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if common.take(&a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: sanity [--quick] {} [apps...]\n{}\n  --workload traces \
                     add one replayed row each (no Best-SWL sweep for traces)",
                    cli::SYNOPSIS,
                    cli::HELP
                );
                return;
            }
            other => only.push(other.to_string()),
        }
    }
    let trace = common.trace_spec();

    let mut cfg = if quick {
        GpuConfig::default().with_sms(4).with_windows(5_000, 60_000)
    } else {
        GpuConfig::default().with_sms(4).with_windows(10_000, 240_000)
    };
    if let Some(n) = common.partitions {
        cfg = cfg.with_mem_partitions(n);
    }
    let started = std::time::Instant::now();
    let mut prof = Profile::default();
    let timed =
        |prof: &mut Profile, name: String, work: Workload<'_>, factory: &PolicyFactory<'_>| {
            let run = simulate(cfg.clone(), work, factory, trace.as_ref().map(|t| (t, &*name)));
            prof.record_run(name, &run);
            run.stats
        };

    let header = format!(
        "{:<4} {:>8} {:>8} {:>8} {:>8} {:>8}  reg_hit%  periods",
        "app", "base", "bswl", "pcal", "cerf", "lb"
    );
    let mut table = vec![header];
    // One row per app, then one per replayed trace. Best-SWL's CTA-limit
    // sweep is a synthetic-grid oracle, so trace rows show "-" there.
    let traces = common.load_workloads();
    let apps =
        all_apps().into_iter().filter(|a| only.is_empty() || only.iter().any(|o| o == a.abbrev));
    let mut rows: Vec<_> =
        apps.map(|app| (app.abbrev, Workload::Kernel(app.kernel(cfg.n_sms)))).collect();
    rows.extend(traces.iter().map(|(key, rep)| (*key, Workload::Replay(rep))));
    for (key, work) in rows {
        let name = |arch: &str| format!("app={key} arch={arch}");
        let base = timed(&mut prof, name("base"), work.clone(), &baseline_factory());
        let bswl = match &work {
            Workload::Kernel(k) => {
                let t0 = std::time::Instant::now();
                let swl = best_swl_sweep(&cfg, k);
                prof.record(name("bswl(sweep)"), t0.elapsed().as_secs_f64(), &swl.stats);
                format!("{:.3}", swl.stats.ipc())
            }
            Workload::Replay(_) => "-".to_string(),
        };
        let pcal = timed(&mut prof, name("pcal"), work.clone(), &pcal_factory());
        let cerf = timed(&mut prof, name("cerf"), work.clone(), &cerf_factory());
        let lb = timed(&mut prof, name("lb"), work, &linebacker_factory(LbConfig::default()));
        table.push(format!(
            "{:<4} {:>8.3} {:>8} {:>8.3} {:>8.3} {:>8.3}  {:>6.1}%  {}",
            key.strip_prefix("trace:").unwrap_or(key),
            base.ipc(),
            bswl,
            pcal.ipc(),
            cerf.ipc(),
            lb.ipc(),
            lb.outcome_fraction(AccessOutcome::RegHit) * 100.0,
            lb.monitor_periods,
        ));
    }

    if common.profile {
        // Table to stderr; stdout carries exactly one JSON document.
        for line in &table {
            eprintln!("{line}");
        }
        let suite_wall_s = started.elapsed().as_secs_f64();
        prof.record_jobs(1);
        eprint!("{}", prof.summary(suite_wall_s));
        let scale = if quick { "sanity-quick" } else { "sanity" };
        let json = prof.to_json("sanity", scale, suite_wall_s);
        print!("{json}");
        if let Some(p) = common.profile_out {
            std::fs::write(&p, &json).expect("write profile json");
            eprintln!("[profile] wrote {p}");
        }
    } else {
        for line in &table {
            println!("{line}");
        }
    }
}
