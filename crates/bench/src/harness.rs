//! Minimal wall-clock benchmark harness, replacing the external
//! `criterion` dependency with the same call-site API surface:
//! `Criterion::default().sample_size(n)`, `bench_function`,
//! `benchmark_group`, and the `criterion_group!` / `criterion_main!`
//! macros (re-exported at the crate root as `bench_group!` aliases too).
//!
//! Methodology: each benchmark first runs a short calibration phase to
//! pick an iteration count that makes one sample take ≳2 ms (so timer
//! granularity is negligible), then records `sample_size` samples and
//! reports min / median / mean per-iteration times. No statistics beyond
//! that — the goal is a dependable relative signal (e.g. the paper's
//! "local reparameterization costs ~2x") from a hermetic build, not
//! confidence intervals.
//!
//! `TYXE_BENCH_FAST=1` drops to one sample of one iteration per
//! benchmark, which is how the bench binaries are smoke-tested in CI.
//!
//! `TYXE_BENCH_FILTER=<substring>` skips every benchmark whose full name
//! does not contain the substring.
//!
//! These are hand-run micro-cases that print to stdout. The repo's
//! recorded, gated numbers come from `benchmark/` (see its README).

use std::time::{Duration, Instant};

/// Target duration for a single measured sample during calibration.
const TARGET_SAMPLE: Duration = Duration::from_millis(2);

/// Drives iteration timing inside a benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` for the calibrated number of iterations.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Top-level harness state; mirrors `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 20 }
    }
}

fn fast_mode() -> bool {
    std::env::var_os("TYXE_BENCH_FAST").is_some_and(|v| v != "0")
}

/// `TYXE_BENCH_FILTER` predicate: empty filter runs everything,
/// otherwise only names containing the substring run.
fn name_passes_filter(name: &str, filter: &str) -> bool {
    filter.is_empty() || name.contains(filter)
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

impl Criterion {
    /// Sets how many timed samples each benchmark records.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Criterion {
        let name = name.into();
        let filter = std::env::var("TYXE_BENCH_FILTER").unwrap_or_default();
        if !name_passes_filter(&name, &filter) {
            return self;
        }
        let (iters, samples) = if fast_mode() {
            (1, 1)
        } else {
            (self.calibrate(&mut f), self.sample_size)
        };
        let mut per_iter: Vec<Duration> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            per_iter.push(b.elapsed / iters as u32);
        }
        per_iter.sort_unstable();
        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<Duration>() / per_iter.len() as u32;
        println!(
            "bench {name:<40} min {:>10}  median {:>10}  mean {:>10}  ({samples} samples x {iters} iters)",
            format_duration(min),
            format_duration(median),
            format_duration(mean),
        );
        self
    }

    /// Opens a named group; member benchmarks are reported as
    /// `group/member`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Finds an iteration count whose total runtime reaches
    /// [`TARGET_SAMPLE`], growing geometrically from 1.
    fn calibrate(&self, f: &mut impl FnMut(&mut Bencher)) -> u64 {
        let mut iters: u64 = 1;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed >= TARGET_SAMPLE || iters >= 1 << 20 {
                return iters;
            }
            // Jump straight to the projected count when we have signal,
            // otherwise double.
            let next = if b.elapsed.is_zero() {
                iters * 2
            } else {
                let scale = TARGET_SAMPLE.as_nanos() as f64 / b.elapsed.as_nanos() as f64;
                ((iters as f64 * scale * 1.2) as u64).clamp(iters + 1, iters * 16)
            };
            iters = next;
        }
    }
}

/// Group handle returned by [`Criterion::benchmark_group`].
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name.into());
        self.criterion.bench_function(full, f);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n;
        self
    }

    pub fn finish(self) {}
}

/// Declares a bench group: a named runner function plus its config and
/// target list, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::harness::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        // Keep the self-test cheap regardless of environment.
        std::env::set_var("TYXE_BENCH_FAST", "1");
        let mut count = 0u64;
        Criterion::default().sample_size(2).bench_function("noop", |b| {
            b.iter(|| {
                count += 1;
                count
            })
        });
        assert!(count > 0);
        std::env::remove_var("TYXE_BENCH_FAST");
    }

    #[test]
    fn groups_prefix_names() {
        std::env::set_var("TYXE_BENCH_FAST", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.bench_function("member", |b| b.iter(|| 1 + 1));
        group.finish();
        std::env::remove_var("TYXE_BENCH_FAST");
    }

    #[test]
    fn filter_matches_by_substring() {
        assert!(name_passes_filter("svi_step_full", ""));
        assert!(name_passes_filter("svi_step_full", "svi_step"));
        assert!(name_passes_filter("group/svi_step_full", "svi_step"));
        assert!(!name_passes_filter("elbo_step/vanilla", "svi_step"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(format_duration(Duration::from_micros(3)), "3.00 µs");
        assert_eq!(format_duration(Duration::from_millis(7)), "7.00 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.000 s");
    }
}
