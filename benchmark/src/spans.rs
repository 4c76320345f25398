//! The benchmark's own span recorder and the order statistics it reports.
//!
//! Every layer is timed *from outside*: a span is opened here, around a
//! call into a public function of the library, never inside the library.
//! Spans live in one `Vec` for the whole run and are written once, at
//! exit, as a chrome trace.

use std::time::Instant;

/// Sentinel parent of a top-level span.
const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Which fit (chain, seed) of the run the span belongs to.
    pub fit: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. With `on == false` (`--trace 0`) [`Tracer::span`] is a
/// plain call, so the end-to-end run pays nothing for the layer spans.
pub struct Tracer {
    pub on: bool,
    pub fit: u32,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant) -> Tracer {
        Tracer {
            on,
            fit: 0,
            t0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span by hand (for calls that cannot sit in a closure);
    /// `None` in an untraced run. Close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            fit: self.fit,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn end(&mut self, id: Option<u32>) {
        if let Some(idx) = id {
            self.spans[idx as usize].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx));
        }
    }

    /// A layer span: recorded in a traced run, a plain call otherwise.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Chrome-trace JSON. Step-level spans (the children of a `fit` span)
    /// are kept for fits `< detailed_fits` only, so a 60-fit run does not
    /// write half a million events; every other span is kept.
    pub fn chrome_trace(&self, detailed_fits: u32) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            let step_level = s.parent != NO_PARENT && self.spans[s.parent as usize].name == "fit";
            if step_level && s.fit >= detailed_fits {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"fit\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                s.fit
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Median of `v` (0 for an empty slice, so a layer that did not run on a
/// workload reports 0).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 / 99.99 that
/// still has at least ten samples beyond it, and its value (`(0, 0)` for
/// no samples).
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let mut pct = 50.0;
    for p in [90.0, 99.0, 99.9, 99.99] {
        if (n as f64) * (1.0 - p / 100.0) >= 10.0 {
            pct = p;
        }
    }
    if pct == 50.0 {
        return (50.0, median(&s));
    }
    let idx = (((n as f64) * pct / 100.0).ceil() as usize).clamp(1, n) - 1;
    (pct, s[idx])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("run", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = t.self_times_ns();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert!(own[0] < spans[0].dur_ns() / 2);
        assert_eq!(spans[1].parent, 0);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let small: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&small), (50.0, 8.0));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
    }
}
