//! End-to-end profiler smoke: a forced `--profile` run of the `sanity`
//! binary must emit exactly one valid JSON document on stdout, with the
//! stepped/skipped accounting consistent and skipping engaged somewhere in
//! the suite.

use std::process::Command;

use lb_bench::profile::{validate_json, SCHEMA};

/// Extracts `"key": <number>` from the flat profile JSON (the keys probed
/// here are unique in the document).
fn field(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("missing field {key}"));
    let rest = json[at + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or_else(|_| panic!("unparsable number for {key}: {rest:.20?}"))
}

#[test]
fn sanity_profile_emits_valid_json() {
    // One app keeps this fast; --quick shrinks windows further.
    let out = Command::new(env!("CARGO_BIN_EXE_sanity"))
        .args(["--profile", "--quick", "GA"])
        .output()
        .expect("sanity binary must run");
    assert!(out.status.success(), "sanity exited with {:?}", out.status);

    let stdout = String::from_utf8(out.stdout).expect("stdout must be UTF-8");
    validate_json(&stdout).unwrap_or_else(|at| panic!("invalid JSON at byte {at}: {stdout}"));

    assert_eq!(field(&stdout, "schema"), f64::from(SCHEMA), "document must name its schema");
    assert!(stdout.contains("\"scale\": \"sanity-quick\""));
    assert!(stdout.contains("\"component_sleep\""), "must carry per-component sleep stats");
    assert!(stdout.contains("\"skip_bounds\""), "must carry the skip-engagement breakdown");
    assert!(stdout.contains("\"trace\""), "must carry the trace-capture accounting block");
    assert!(stdout.contains("\"partitions\": [{\"id\": 0,"), "must carry per-partition stats");
    assert!(stdout.contains("\"desc_cache\""), "must carry the descriptor-cache block");
    assert!(stdout.contains("\"sm_phases\""), "must carry per-phase SM cycle attribution");
    assert!(stdout.contains("\"workers\": {\"jobs\": 1}"), "sanity runs one sim at a time");
}

#[test]
fn sanity_profile_counters_are_consistent() {
    let out = Command::new(env!("CARGO_BIN_EXE_sanity"))
        .args(["--profile", "--quick", "GA"])
        .output()
        .expect("sanity binary must run");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    validate_json(&stdout).unwrap_or_else(|at| panic!("invalid JSON at byte {at}"));

    let cycles = field(&stdout, "cycles");
    let stepped = field(&stdout, "stepped_cycles");
    let skipped = field(&stdout, "skipped_cycles");
    assert!(cycles > 0.0);
    assert_eq!(stepped + skipped, cycles, "stepped + skipped must equal cycles");

    let sims = field(&stdout, "sims");
    assert!(sims >= 5.0, "GA runs at least base/bswl/pcal/cerf/lb, got {sims}");

    let cps = field(&stdout, "cycles_per_sec");
    assert!(cps > 0.0, "throughput must be positive");

    // The DRAM controller is one component per GPU, so its stepped + slept
    // cycles must sum to the total simulated cycles across the suite.
    let dram_stepped = field(&stdout, "dram_stepped");
    let dram_slept = field(&stdout, "dram_slept");
    assert_eq!(dram_stepped + dram_slept, cycles, "per-DRAM cycle accounting must close");

    // The descriptor cache is on by default: after every warp's first
    // execution of each static load, accesses replay from the table, so
    // hits must dominate misses across the suite.
    let desc_hits = field(&stdout, "hits");
    let desc_misses = field(&stdout, "misses");
    assert!(desc_hits > 0.0, "default run must replay from the descriptor cache");
    assert!(desc_misses > 0.0, "first executions must decode");
    assert!(
        desc_hits > desc_misses,
        "steady-state replays must outnumber decodes ({desc_hits} vs {desc_misses})"
    );
}
