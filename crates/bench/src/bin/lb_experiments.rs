//! Command-line experiment harness.
//!
//! ```text
//! lb-experiments [--scale quick|default|full] [--jobs N] [--verbose]
//!                [--out FILE] [--csv-dir DIR] [shared flags] [ids... | all]
//! ```
//!
//! The shared flags (`--profile`, `--trace`, `--partitions`, `--workload`,
//! ...) are parsed by [`lb_bench::cli`], exactly as `sanity` parses them.
//! `--profile` writes its JSON record to `--profile-out` (default
//! `profile.json`).
//!
//! Execution is plan-then-render: every requested experiment first reports
//! its simulation plan as typed run keys, the deduplicated union executes
//! across a worker pool (`--jobs`, or the `LB_JOBS` environment variable,
//! default: all cores), then a second round covers plan nodes whose
//! identity depends on first-round results (the Best-SWL+CacheExt points).
//! Rendering reads from the warm memo, so tables are byte-identical at any
//! worker count.

use lb_bench::cli::{self, fail, CommonArgs};
use lb_bench::{experiments, Runner, Scale};

fn main() {
    let mut scale = Scale::Default;
    let mut ids: Vec<String> = Vec::new();
    let mut verbose = false;
    let mut out_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut common = CommonArgs::default();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if common.take(&a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v)
                    .unwrap_or_else(|| fail(format!("unknown scale '{v}' (quick|default|full)")));
            }
            "--jobs" | "-j" => {
                let v = args.next().unwrap_or_default();
                let n = v.parse::<usize>().ok().filter(|&n| n >= 1);
                jobs = Some(n.unwrap_or_else(|| {
                    fail(format!("--jobs expects a positive integer, got '{v}'"))
                }));
            }
            "--verbose" => verbose = true,
            "--out" => out_path = args.next(),
            "--csv-dir" => csv_dir = args.next(),
            "--help" | "-h" => {
                eprintln!(
                    "usage: lb-experiments [--scale quick|default|full] [--jobs N] \
                     [--verbose] [--out FILE] [--csv-dir DIR] {} [ids... | all]\n  \
                     LB_JOBS=N overrides the default worker count (all cores); \
                     --jobs beats LB_JOBS; output is byte-identical at any \
                     value\n{}\n  --profile-out defaults to profile.json; \
                     --workload traces feed the trace_replay experiment\n  ids: {}",
                    cli::SYNOPSIS,
                    cli::HELP,
                    experiments::ALL.join(" ")
                );
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    // Bare `--workload trace:PATH` runs just the trace study; otherwise an
    // empty id list (or an explicit `all`) expands to the default suite.
    if ids.iter().any(|i| i == "all") || (ids.is_empty() && common.workloads.is_empty()) {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }
    // Loaded traces register under `trace:<stem>` keys and surface through
    // the (opt-in) trace_replay experiment; pull it in if not requested.
    for (key, rep) in common.load_workloads() {
        eprintln!(
            "[workload] {key}: {} streams, {} dynamic insts",
            rep.total_streams(),
            rep.dyn_insts()
        );
        if !ids.iter().any(|i| i == "trace_replay") {
            ids.push("trace_replay".to_string());
        }
    }

    let mut runner = Runner::new(scale);
    runner.verbose = verbose;
    if let Some(n) = common.partitions {
        runner.set_partitions(n);
        eprintln!("[config] memory subsystem split into {n} partitions");
    }
    // Precedence: --jobs flag, then LB_JOBS, then available parallelism.
    let env_jobs = std::env::var("LB_JOBS").ok().and_then(|v| v.parse::<usize>().ok());
    if let Some(n) = jobs.or(env_jobs) {
        runner.set_jobs(n);
    }
    if let Some(spec) = common.trace_spec() {
        eprintln!(
            "[trace] capturing to {}/ (events: {})",
            spec.dir.display(),
            gpu_sim::trace::mask_names(spec.mask)
        );
        runner.set_trace(spec);
    }

    let started = std::time::Instant::now();

    // Round 1: the union of every experiment's plan, deduplicated and
    // executed in parallel with single-flight semantics.
    let mut batch = Vec::new();
    for id in &ids {
        let keys = experiments::plan(id, &runner);
        batch.extend(keys.unwrap_or_else(|| fail(format!("unknown experiment id '{id}'"))));
    }
    eprintln!(
        "[plan] {} experiments -> {} planned runs ({} workers)",
        ids.len(),
        batch.len(),
        runner.jobs()
    );
    runner.prefetch(&batch);

    // Round 2: keys that depend on round-1 results (Best-SWL winners).
    let mut followups = Vec::new();
    for id in &ids {
        followups.extend(experiments::followup(id, &runner).unwrap_or_default());
    }
    if !followups.is_empty() {
        eprintln!("[plan] round 2: {} follow-up runs", followups.len());
        runner.prefetch(&followups);
    }
    eprintln!(
        "[plan] {} simulations executed in {:.1}s; rendering",
        runner.sims_run(),
        started.elapsed().as_secs_f64()
    );

    let mut rendered = String::new();
    for id in &ids {
        let t0 = std::time::Instant::now();
        let t = experiments::run(id, &runner)
            .unwrap_or_else(|| fail(format!("unknown experiment id '{id}'")));
        let s = t.render();
        println!("{s}");
        rendered.push_str(&s);
        rendered.push('\n');
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{}.csv", t.id);
            std::fs::write(&path, t.render_csv()).expect("write csv");
        }
        eprintln!(
            "[{id}] done in {:.1}s ({} sims so far)",
            t0.elapsed().as_secs_f64(),
            runner.sims_run()
        );
    }
    eprintln!(
        "all done: {} experiments, {} simulations, {} workers, {:.1}s, scale={}",
        ids.len(),
        runner.sims_run(),
        runner.jobs(),
        started.elapsed().as_secs_f64(),
        scale
    );
    if let Some(p) = out_path {
        std::fs::write(&p, &rendered).expect("write output file");
        eprintln!("wrote {p}");
    }
    if common.profile {
        let profile_out = common.profile_out.as_deref().unwrap_or("profile.json");
        let suite_wall_s = started.elapsed().as_secs_f64();
        let mut prof = runner.profile();
        prof.record_jobs(runner.jobs() as u64);
        eprint!("{}", prof.summary(suite_wall_s));
        let json = prof.to_json("lb-experiments", &scale.to_string(), suite_wall_s);
        std::fs::write(profile_out, &json).expect("write profile json");
        eprintln!("[profile] wrote {profile_out}");
    }
    // No-op unless LB_PHASE_TIMERS=1 (diagnostics; see gpu_sim::phase_timer).
    gpu_sim::phase_timer::report();
}
