//! Spans recorded from the benchmark's own files, around calls into each
//! crate's public functions.
//!
//! Each thread keeps its log in memory; [`take`] drains it when the thread's
//! work is done and [`Log::append`] merges logs across threads. Coarse calls
//! (a simulation, `Gpu::new`, `Gpu::run`, a kernel build, a decode) are kept
//! as individual [`Span`]s. Policy hooks fire once per memory access, so
//! they are kept only as an [`Agg`]regate: a count and a total per (name,
//! parent span).

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// One individually kept span. Times are nanoseconds since the process's
/// first call to [`now_ns`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `gpu.run`.
    pub name: &'static str,
    /// Index of the enclosing span in the same [`Log`].
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Aggregated calls of one name under one parent span.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    /// Index of the span that was open when the calls happened.
    pub parent: Option<usize>,
    /// Hook group, e.g. `linebacker.access`.
    pub name: &'static str,
    /// Number of calls.
    pub count: u64,
    /// Summed duration, ns.
    pub total: u64,
}

/// The spans and aggregates of one or more threads.
#[derive(Debug, Default, Clone)]
pub struct Log {
    /// Individually kept spans; parents precede their children.
    pub spans: Vec<Span>,
    /// Aggregated hook calls.
    pub aggs: Vec<Agg>,
    open: Vec<usize>,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log::default());
}

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name`, child of the innermost open span of
/// this thread.
pub fn scope<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = LOG.with(|l| {
        let mut l = l.borrow_mut();
        let id = l.spans.len();
        let parent = l.open.last().copied();
        l.spans.push(Span { name, parent, start: now_ns(), end: 0 });
        l.open.push(id);
        id
    });
    // Closes the span on return and on unwind alike, so a panic caught
    // further up leaves the stack consistent.
    struct Close(usize);
    impl Drop for Close {
        fn drop(&mut self) {
            LOG.with(|l| {
                let mut l = l.borrow_mut();
                l.spans[self.0].end = now_ns();
                l.open.pop();
            });
        }
    }
    let _close = Close(id);
    f()
}

/// The innermost open span of this thread.
pub fn current() -> Option<usize> {
    LOG.with(|l| l.borrow().open.last().copied())
}

/// Adds `count` calls totalling `total` ns under `parent`.
pub fn record(parent: Option<usize>, name: &'static str, count: u64, total: u64) {
    if count == 0 {
        return;
    }
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        match l.aggs.iter_mut().rev().find(|a| a.parent == parent && a.name == name) {
            Some(a) => {
                a.count += count;
                a.total += total;
            }
            None => l.aggs.push(Agg { parent, name, count, total }),
        }
    });
}

/// Drains this thread's log. Call with no span open.
pub fn take() -> Log {
    LOG.with(|l| {
        let log = std::mem::take(&mut *l.borrow_mut());
        debug_assert!(log.open.is_empty(), "take() inside an open span");
        log
    })
}

/// Length of the union of `children`, clipped to `[start, end)`.
pub fn coverage(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

impl Log {
    /// Appends another thread's log, re-basing its span indices.
    pub fn append(&mut self, other: Log) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.aggs.extend(other.aggs.into_iter().map(|mut a| {
            a.parent = a.parent.map(|p| p + base);
            a
        }));
    }

    /// Self time of every span, ns: its duration minus the part of it that
    /// child spans cover, minus its aggregated children (hook calls never
    /// overlap each other or a kept child, so their totals subtract as is).
    pub fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start, s.end));
            }
        }
        let mut agg = vec![0u64; self.spans.len()];
        for a in &self.aggs {
            if let Some(p) = a.parent {
                agg[p] += a.total;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| s.dur().saturating_sub(coverage(s.start, s.end, &kids[i]) + agg[i]))
            .collect()
    }

    /// Summed duration (s) and count of the kept spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let (ns, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, n), s| (ns + s.dur(), n + 1));
        (ns as f64 * 1e-9, n)
    }

    /// Summed self time (s) of the kept spans named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        let own = self.self_times();
        let ns: u64 =
            self.spans.iter().zip(&own).filter(|(s, _)| s.name == name).map(|(_, &t)| t).sum();
        ns as f64 * 1e-9
    }

    /// Summed total (s) and count of the aggregates named `name`.
    pub fn agg_total(&self, name: &str) -> (f64, u64) {
        let (ns, n) = self
            .aggs
            .iter()
            .filter(|a| a.name == name)
            .fold((0u64, 0u64), |(ns, n), a| (ns + a.total, n + a.count));
        (ns as f64 * 1e-9, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, parent, start, end }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // root [0,100): children overlap each other ([10,30) and [20,40)
        // cover 30 together) and one sticks out past the end ([90,120)
        // covers 10 inside the root); a grandchild does not count against
        // the root.
        let log = Log {
            spans: vec![
                span("root", None, 0, 100),
                span("a", Some(0), 10, 30),
                span("b", Some(0), 20, 40),
                span("c", Some(0), 90, 120),
                span("a.kid", Some(1), 12, 18),
            ],
            aggs: vec![Agg { parent: Some(1), name: "hook", count: 3, total: 5 }],
            open: Vec::new(),
        };
        let own = log.self_times();
        assert_eq!(own[0], 100 - 40);
        assert_eq!(own[1], 20 - 6 - 5, "kept child and aggregated hooks both subtract");
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 6);
    }

    #[test]
    fn scopes_nest_and_logs_merge() {
        scope("outer", || {
            scope("inner", || record(current(), "hook", 2, 7));
        });
        let mut a = take();
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.spans[1].parent, Some(0));
        assert_eq!(a.aggs[0].parent, Some(1));
        let b = a.clone();
        a.append(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.aggs[1].parent, Some(3));
        assert_eq!(a.agg_total("hook").1, 4);
        assert_eq!(a.total("inner").1, 2);
    }
}
