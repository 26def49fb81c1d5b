//! Command-line flags shared by the `lb-experiments` and `sanity`
//! binaries: parsed and validated in one place, so both accept the same
//! spellings and reject bad values with the same messages.

use std::sync::Arc;

use gpu_sim::replay::ReplayKernel;
use gpu_sim::trace::{parse_mask, MASK_ALL};

use crate::runner::TraceSpec;

/// Synopsis of the shared flags, for the binaries' usage lines.
pub const SYNOPSIS: &str = "[--profile] [--profile-out FILE] [--trace DIR] \
     [--trace-events MASK] [--partitions N] [--workload trace:PATH]...";

/// Help text of the shared flags, for the binaries' `--help`.
pub const HELP: &str = "  --profile prints a hot-path throughput report to stderr and \
     emits one JSON record (--profile-out FILE names the file)\n  \
     --trace DIR captures one .lbt event trace per simulation into DIR; \
     --trace-events narrows the captured kinds (names like issue,l1,dram, \
     a 0x hex mask, or 'all')\n  --partitions N splits the memory subsystem \
     into N L2-slice/DRAM-channel pairs (power of two; default 1)\n  \
     --workload trace:PATH loads a workload trace (.lbw1, or .traceg to \
     import); repeatable";

/// Prints `msg` to stderr and exits with status 2, the harness binaries'
/// usage-error status.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The shared flags, as parsed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommonArgs {
    /// `--profile`: report hot-path throughput.
    pub profile: bool,
    /// `--profile-out FILE`: where the profile's JSON record goes.
    pub profile_out: Option<String>,
    /// `--trace DIR`: directory receiving one `.lbt` per simulation.
    pub trace_dir: Option<String>,
    /// `--trace-events MASK`: event kinds to capture (`None`: all).
    pub trace_mask: Option<u64>,
    /// `--partitions N`: memory-partition count (a power of two).
    pub partitions: Option<u32>,
    /// `--workload trace:PATH`, in command-line order.
    pub workloads: Vec<String>,
}

impl CommonArgs {
    /// Consumes `flag`, taking its value (if it has one) from `rest`.
    /// Returns `Ok(false)` when `flag` is not a shared flag, leaving it to
    /// the binary.
    ///
    /// # Errors
    ///
    /// The message to print when the value is missing or invalid.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = |what: &str| rest.next().ok_or_else(|| format!("{flag} expects {what}"));
        match flag {
            "--profile" => self.profile = true,
            "--profile-out" => self.profile_out = Some(value("a file path")?),
            "--trace" => self.trace_dir = Some(value("a directory path")?),
            "--trace-events" => {
                let v = value("an event mask")?;
                self.trace_mask = Some(parse_mask(&v).map_err(|e| format!("--trace-events: {e}"))?);
            }
            "--partitions" => {
                let v = value("a power of two (1, 2, 4, ...)")?;
                let n = v.parse::<u32>().ok().filter(|n| n.is_power_of_two()).ok_or_else(|| {
                    format!("--partitions expects a power of two (1, 2, 4, ...), got '{v}'")
                })?;
                self.partitions = Some(n);
            }
            "--workload" => self.workloads.push(value("trace:PATH")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// [`CommonArgs::parse_flag`] for a binary's argument loop: a bad
    /// value exits through [`fail`].
    pub fn take(&mut self, flag: &str, rest: &mut impl Iterator<Item = String>) -> bool {
        self.parse_flag(flag, rest).unwrap_or_else(|e| fail(e))
    }

    /// The `--trace` capture spec, with its directory created; `None`
    /// when tracing is off. An uncreatable directory exits through
    /// [`fail`].
    pub fn trace_spec(&self) -> Option<TraceSpec> {
        let dir = self.trace_dir.as_ref()?;
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(format!("--trace {dir}: {e}")));
        Some(TraceSpec { dir: dir.into(), mask: self.trace_mask.unwrap_or(MASK_ALL) })
    }

    /// Loads every `--workload` trace (registering each under its
    /// `trace:<stem>` run-key name); an unreadable trace exits through
    /// [`fail`].
    pub fn load_workloads(&self) -> Vec<(&'static str, Arc<ReplayKernel>)> {
        let load = |spec: &String| {
            lb_replay::load_workload_spec(spec).unwrap_or_else(|e| fail(format!("--workload: {e}")))
        };
        self.workloads.iter().map(load).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<CommonArgs, String> {
        let mut c = CommonArgs::default();
        let mut it = args.split_whitespace().map(String::from);
        while let Some(a) = it.next() {
            assert!(c.parse_flag(&a, &mut it)?, "{a} is a shared flag");
        }
        Ok(c)
    }

    #[test]
    fn parses_every_shared_flag() {
        let c = parse(
            "--profile --profile-out p.json --trace t --trace-events l2 --partitions 4 \
             --workload trace:a.lbw1 --workload trace:b.lbw1",
        )
        .unwrap();
        assert!(c.profile);
        assert_eq!(c.profile_out.as_deref(), Some("p.json"));
        assert_eq!(c.trace_dir.as_deref(), Some("t"));
        assert_eq!(c.trace_mask, Some(parse_mask("l2").unwrap()));
        assert_eq!(c.partitions, Some(4));
        assert_eq!(c.workloads, ["trace:a.lbw1", "trace:b.lbw1"]);
    }

    #[test]
    fn rejects_missing_and_bad_values() {
        let err = |args: &str| parse(args).unwrap_err();
        assert_eq!(err("--profile-out"), "--profile-out expects a file path");
        assert_eq!(err("--trace"), "--trace expects a directory path");
        assert_eq!(err("--workload"), "--workload expects trace:PATH");
        for bad in ["0", "3", "x"] {
            let want = format!("--partitions expects a power of two (1, 2, 4, ...), got '{bad}'");
            assert_eq!(err(&format!("--partitions {bad}")), want);
        }
        assert!(err("--trace-events nonsense").starts_with("--trace-events: "));
    }

    #[test]
    fn leaves_other_flags_to_the_binary() {
        let mut c = CommonArgs::default();
        let mut rest = std::iter::once("quick".to_string());
        assert!(!c.parse_flag("--scale", &mut rest).unwrap());
        assert_eq!(rest.next().as_deref(), Some("quick"), "value not consumed");
        assert_eq!(c, CommonArgs::default());
    }
}
