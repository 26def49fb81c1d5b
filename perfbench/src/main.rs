//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints, on standard output, a header, the host
//! fingerprint, one `metric NAME VALUE UNIT` line per figure, any failed
//! checks, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics of a span run.
//! `perfbench --record-reference FILE` writes the reference digests.

use std::process::ExitCode;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::sim::{Reference, Tally};
use perfbench::util::host_json;
use perfbench::workload::{self, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == "--record-reference" {
        let text = workload::record();
        return match std::fs::write(&argv[2], text) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", argv[2]);
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let reference = Reference::shipped();
    let mut tally = Tally::default();
    let name = args.workload.as_str();
    println!(
        "perfbench workload={name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    println!("host {}", host_json(workload::jobs(name), args.seed));

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let run = workload::span_run(name, args.seed, &reference, &mut tally);
        for (d, v) in PER_LAYER.iter().zip(run.values()) {
            metrics.push((d.name, v, d.unit));
        }
    } else {
        let (e2e, extra) =
            workload::end_to_end(name, args.seed, args.seconds, &reference, &mut tally);
        for (d, v) in END_TO_END.iter().zip(e2e.values()) {
            metrics.push((d.name, v, d.unit));
        }
        println!("sims {} measured_s {}", e2e.sims.len(), e2e.measured_s);
        for (n, v, u) in extra {
            println!("metric {n} {v} {u}");
        }
    }
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("metric fail_frac {fail_frac} ratio");
    let mut correct = tally.failed == 0 && tally.attempted > 0;
    for (n, v, u) in &metrics {
        println!("metric {n} {v} {u}");
        if !v.is_finite() {
            correct = false;
        }
    }
    for p in &tally.problems {
        println!("FAILED {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
