//! Metrics registry: named counters, gauges and fixed-bucket
//! histograms built purely on atomics.
//!
//! Handles are cheap `Arc` clones; instrumented code looks a handle up
//! once (typically caching it in a `OnceLock`) and afterwards every
//! update is one or two relaxed atomic RMWs — safe from any thread,
//! never blocking, never perturbing numerics.
//!
//! Names follow the `layer.component.event` scheme (DESIGN.md §9) and
//! may carry sorted `(key, value)` tag pairs; `(name, tags)` is the
//! registry key. [`snapshot`] flattens everything into
//! [`MetricRecord`]s (`{name, value, unit, tags}`) and
//! [`write_snapshot_jsonl`] serializes one record per line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonic counter (u64, relaxed increments).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge storing an `f64` as its bit pattern.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// `v` with `2^i <= v+1 < 2^(i+1)` (bucket 0 holds 0), i.e. the upper
/// bound of bucket `i` is `2^(i+1) - 1`. 40 buckets cover ~18 minutes
/// in nanoseconds.
pub const HIST_BUCKETS: usize = 40;

struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Fixed power-of-two-bucket histogram (typically of durations in ns).
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx =
            (u64::BITS - v.saturating_add(1).leading_zeros() - 1).min(HIST_BUCKETS as u32 - 1);
        self.0.buckets[idx as usize].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean observation (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 { 0.0 } else { self.sum() as f64 / n as f64 }
    }

    /// Per-bucket counts; bucket `i` has inclusive upper bound `2^(i+1)-1`.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the inclusive upper
    /// bound of the first bucket at which the cumulative count reaches
    /// `ceil(q * count)`, clamped to [`max`](Self::max) so the tail
    /// quantile never overshoots the largest observation. Resolution
    /// is the power-of-two bucket width; 0 if empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, c) in self.buckets().iter().enumerate() {
            cum += c;
            if cum >= rank {
                let upper = if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max());
            }
        }
        self.max()
    }
}

enum Entry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Slot {
    unit: &'static str,
    entry: Entry,
}

type Key = (String, Vec<(String, String)>);

static REGISTRY: OnceLock<Mutex<BTreeMap<Key, Slot>>> = OnceLock::new();

fn registry() -> &'static Mutex<BTreeMap<Key, Slot>> {
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn key(name: &str, tags: &[(&str, &str)]) -> Key {
    let mut t: Vec<(String, String)> =
        tags.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    t.sort();
    (name.to_string(), t)
}

fn get_or_insert<T: Clone>(
    name: &str,
    tags: &[(&str, &str)],
    unit: &'static str,
    make: impl FnOnce() -> Entry,
    pick: impl Fn(&Entry) -> Option<T>,
) -> T {
    let mut reg = registry().lock().unwrap();
    let slot = reg.entry(key(name, tags)).or_insert_with(|| Slot { unit, entry: make() });
    pick(&slot.entry)
        .unwrap_or_else(|| panic!("obs metric `{name}` already registered with a different kind"))
}

/// Look up (or register) an untagged counter with unit `count`.
pub fn counter(name: &str) -> Counter {
    counter_tagged(name, &[], "count")
}

/// Look up (or register) a counter with tags and an explicit unit.
pub fn counter_tagged(name: &str, tags: &[(&str, &str)], unit: &'static str) -> Counter {
    get_or_insert(
        name,
        tags,
        unit,
        || Entry::Counter(Counter(Arc::new(AtomicU64::new(0)))),
        |e| match e {
            Entry::Counter(c) => Some(c.clone()),
            _ => None,
        },
    )
}

/// Look up (or register) a gauge with tags and an explicit unit.
pub fn gauge_tagged(name: &str, tags: &[(&str, &str)], unit: &'static str) -> Gauge {
    get_or_insert(
        name,
        tags,
        unit,
        || Entry::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))),
        |e| match e {
            Entry::Gauge(g) => Some(g.clone()),
            _ => None,
        },
    )
}

/// Look up (or register) an untagged histogram with unit `ns`.
pub fn histogram(name: &str) -> Histogram {
    histogram_tagged(name, &[], "ns")
}

/// Look up (or register) a histogram with tags and an explicit unit.
pub fn histogram_tagged(name: &str, tags: &[(&str, &str)], unit: &'static str) -> Histogram {
    get_or_insert(
        name,
        tags,
        unit,
        || {
            Entry::Histogram(Histogram(Arc::new(HistInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            })))
        },
        |e| match e {
            Entry::Histogram(h) => Some(h.clone()),
            _ => None,
        },
    )
}

/// One flattened metric sample: the record shape
/// `{name, value, unit, tags}` of the JSONL sink.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// Metric name (`layer.component.event`).
    pub name: String,
    /// Sample value.
    pub value: f64,
    /// Unit label (`count`, `ns`, `flop`, …).
    pub unit: String,
    /// Sorted tag pairs; histogram stats carry a `stat` tag.
    pub tags: Vec<(String, String)>,
}

impl MetricRecord {
    /// Serialize as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"tags\":{{",
            crate::json::escape(&self.name),
            fmt_f64(self.value),
            crate::json::escape(&self.unit),
        );
        for (i, (k, v)) in self.tags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":\"{}\"",
                crate::json::escape(k),
                crate::json::escape(v)
            ));
        }
        s.push_str("}}");
        s
    }
}

/// Format an f64 so it round-trips as JSON (always with a decimal
/// point or exponent; non-finite values become null).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Flatten the registry into records. Counters and gauges yield one
/// record each; histograms yield `stat`-tagged `count`/`sum_ns`/
/// `max_ns`/`mean_ns` records.
pub fn snapshot() -> Vec<MetricRecord> {
    let reg = registry().lock().unwrap();
    let mut out = Vec::new();
    for ((name, tags), slot) in reg.iter() {
        let base: Vec<(String, String)> = tags.clone();
        let with_stat = |stat: &str| {
            let mut t = base.clone();
            t.push(("stat".to_string(), stat.to_string()));
            t.sort();
            t
        };
        match &slot.entry {
            Entry::Counter(c) => out.push(MetricRecord {
                name: name.clone(),
                value: c.get() as f64,
                unit: slot.unit.to_string(),
                tags: base.clone(),
            }),
            Entry::Gauge(g) => out.push(MetricRecord {
                name: name.clone(),
                value: g.get(),
                unit: slot.unit.to_string(),
                tags: base.clone(),
            }),
            Entry::Histogram(h) => {
                out.push(MetricRecord {
                    name: name.clone(),
                    value: h.count() as f64,
                    unit: "count".to_string(),
                    tags: with_stat("count"),
                });
                out.push(MetricRecord {
                    name: name.clone(),
                    value: h.sum() as f64,
                    unit: slot.unit.to_string(),
                    tags: with_stat("sum"),
                });
                out.push(MetricRecord {
                    name: name.clone(),
                    value: h.max() as f64,
                    unit: slot.unit.to_string(),
                    tags: with_stat("max"),
                });
                out.push(MetricRecord {
                    name: name.clone(),
                    value: h.mean(),
                    unit: slot.unit.to_string(),
                    tags: with_stat("mean"),
                });
                for (stat, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                    out.push(MetricRecord {
                        name: name.clone(),
                        value: h.percentile(q) as f64,
                        unit: slot.unit.to_string(),
                        tags: with_stat(stat),
                    });
                }
            }
        }
    }
    out
}

/// Serialize [`snapshot`] as JSONL (one record per line).
pub fn snapshot_jsonl() -> String {
    let mut s = String::new();
    for rec in snapshot() {
        s.push_str(&rec.to_json());
        s.push('\n');
    }
    s
}

/// Write [`snapshot_jsonl`] to `path`, returning the record count.
pub fn write_snapshot_jsonl(path: &std::path::Path) -> std::io::Result<usize> {
    let s = snapshot_jsonl();
    std::fs::write(path, &s)?;
    Ok(s.lines().count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_reuse() {
        let c = counter("test.metrics.counter_roundtrip");
        c.inc();
        c.add(4);
        // Second lookup must alias the same slot.
        assert_eq!(counter("test.metrics.counter_roundtrip").get(), c.get());
        assert!(c.get() >= 5);
    }

    #[test]
    fn gauge_stores_f64() {
        let g = gauge_tagged("test.metrics.gauge", &[], "value");
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = histogram("test.metrics.hist");
        for v in [0u64, 1, 2, 3, 1000, u64::MAX / 2] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), u64::MAX / 2);
        let b = h.buckets();
        assert_eq!(b[0], 1); // v=0
        assert_eq!(b[1], 2); // v=1,2
        assert_eq!(b[2], 1); // v=3
        assert_eq!(b.iter().sum::<u64>(), 6);
    }

    #[test]
    fn tags_distinguish_and_snapshot_flattens() {
        let a = counter_tagged("test.metrics.tagged", &[("worker", "0")], "count");
        let b = counter_tagged("test.metrics.tagged", &[("worker", "1")], "count");
        a.add(3);
        b.add(7);
        let snap = snapshot();
        let find = |w: &str| {
            snap.iter()
                .find(|r| {
                    r.name == "test.metrics.tagged"
                        && r.tags.contains(&("worker".to_string(), w.to_string()))
                })
                .unwrap()
                .value
        };
        assert!(find("0") >= 3.0);
        assert!(find("1") >= 7.0);
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let h = histogram("test.metrics.pctl");
        // 100 observations: 1..=100. Power-of-two buckets give upper
        // bounds 63 for p50 (values 32..=63 land in bucket 5) and 127
        // (clamped to max=100) for p90/p99.
        for v in 1..=100u64 {
            h.record(v);
        }
        // Smallest value 1 lands in bucket 1 (upper bound 3).
        assert_eq!(h.percentile(0.0), 3);
        assert_eq!(h.percentile(0.50), 63);
        assert_eq!(h.percentile(0.99), 100);
        assert_eq!(h.percentile(1.0), 100);
        let snap = snapshot();
        let stat = |s: &str| {
            snap.iter()
                .find(|r| {
                    r.name == "test.metrics.pctl"
                        && r.tags.contains(&("stat".to_string(), s.to_string()))
                })
                .unwrap()
                .value
        };
        assert_eq!(stat("p50"), 63.0);
        assert_eq!(stat("p99"), 100.0);
        assert!(stat("p50") <= stat("p90") && stat("p90") <= stat("p99"));
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let h = histogram("test.metrics.pctl_empty");
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn records_serialize_as_valid_json() {
        let h = histogram("test.metrics.json_hist");
        h.record(42);
        for rec in snapshot() {
            let parsed = crate::json::parse(&rec.to_json()).unwrap();
            let obj = parsed.as_obj().unwrap();
            assert!(obj.iter().any(|(k, _)| k == "name"));
            assert!(obj.iter().any(|(k, _)| k == "value"));
            assert!(obj.iter().any(|(k, _)| k == "unit"));
            assert!(obj.iter().any(|(k, _)| k == "tags"));
        }
    }
}
