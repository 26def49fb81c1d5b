//! Small helpers: the seeded shuffle, order statistics, and the host
//! fingerprint printed with every result.

/// SplitMix64: a tiny seeded generator, enough to permute submission order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; NaN when empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Seconds `build` takes, not counting the drop of what it built.
pub fn timed<T>(build: impl FnOnce() -> T) -> f64 {
    let t = std::time::Instant::now();
    let out = std::hint::black_box(build());
    let secs = t.elapsed().as_secs_f64();
    drop(out);
    secs
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (nearest rank) of `v`, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it — p95 needs at least 200.
pub fn tail_percentile(v: &[f64], p: f64) -> Option<f64> {
    let n = v.len();
    let beyond = n as f64 * (100.0 - p) / 100.0;
    if beyond + 1e-9 < TAIL_SAMPLES as f64 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(s[rank.clamp(1, n) - 1])
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host fingerprint, as one JSON object: results from different hosts are
/// never compared as if they came from one.
pub fn host_json(jobs: usize, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a repository rooted here: git must not search the directories
    // above the checkout.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"jobs\": {jobs}, \"seed\": {seed}}}",
        esc(&cpu),
        esc(env!("PERFBENCH_RUSTC")),
        esc(&rev)
    )
}

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples() {
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), Some(190.0));
    }

    #[test]
    fn median_and_shuffle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 1.0]), 2.0);
        assert!(mean(&[]).is_nan());
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b, "same seed, same order");
        let mut c: Vec<u32> = (0..50).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..50).collect::<Vec<_>>());
    }
}
