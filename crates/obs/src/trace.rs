//! Structured tracing: thread-aware hierarchical spans.
//!
//! Each thread owns a buffer of finished [`SpanRecord`]s; a global
//! registry keeps every buffer alive (and drainable) even after its
//! thread exits, so short-lived pool workers never lose spans. In
//! steady state only the owning thread touches its buffer — the
//! per-buffer mutex is uncontended except during a [`drain`] — and
//! span start/stop never takes a global lock.
//!
//! Spans nest lexically via RAII: [`SpanGuard::enter`] stamps the
//! start time and bumps a thread-local depth; dropping the guard
//! records the finished span. The chrome export lets the viewer
//! reconstruct the hierarchy from time containment per thread
//! (`chrome://tracing` "X" complete events). Every recorded
//! span carries a process-unique `span_id`.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on buffered spans per thread; beyond it spans are counted
/// per thread (see [`dropped_by_thread`]) instead of stored, so a
/// runaway loop cannot exhaust memory.
pub const SPAN_CAP_PER_THREAD: usize = 1 << 16;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, `layer.component.event` by convention (DESIGN.md §9).
    pub name: Cow<'static, str>,
    /// Small dense integer id of the recording thread (not the OS tid).
    pub tid: u64,
    /// Nesting depth on the recording thread when the span opened (0 = root).
    pub depth: u32,
    /// Start time in ns since the process-wide trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration in ns.
    pub dur_ns: u64,
    /// Optional free-form argument (site name, shape, …).
    pub arg: Option<String>,
    /// Process-unique span id (dense, from 1).
    pub span_id: u64,
}

struct ThreadBuf {
    tid: u64,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: OnceLock<Arc<ThreadBuf>> = const { OnceLock::new() };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn local_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    LOCAL.with(|cell| {
        let buf = cell.get_or_init(|| {
            let buf = Arc::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                spans: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            });
            registry().lock().unwrap().push(Arc::clone(&buf));
            buf
        });
        f(buf)
    })
}

/// Nanoseconds since the process-wide trace epoch (first call wins).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Dense integer id of the calling thread, allocating one on first use.
pub fn current_tid() -> u64 {
    local_buf(|b| b.tid)
}

/// Spans discarded because a thread buffer hit [`SPAN_CAP_PER_THREAD`],
/// summed over all threads.
pub fn dropped_spans() -> u64 {
    registry()
        .lock()
        .unwrap()
        .iter()
        .map(|b| b.dropped.load(Ordering::Relaxed))
        .sum()
}

/// Per-thread dropped-span counts, `(tid, count)` for every thread that
/// dropped at least one span. Exporters turn these into explicit
/// `dropped_spans` events so truncation is never silent.
pub fn dropped_by_thread() -> Vec<(u64, u64)> {
    registry()
        .lock()
        .unwrap()
        .iter()
        .filter_map(|b| {
            let n = b.dropped.load(Ordering::Relaxed);
            (n > 0).then_some((b.tid, n))
        })
        .collect()
}

/// RAII span guard: created by [`crate::span!`], records on drop.
/// Inert (a `None` start) when observability is disabled at entry.
#[must_use = "a span records its duration when the guard drops"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: Cow<'static, str>,
    depth: u32,
    start_ns: u64,
    arg: Option<String>,
    span_id: u64,
}

impl SpanGuard {
    /// Open a span with a static name.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { live: None };
        }
        Self::open_live(Cow::Borrowed(name), None)
    }

    /// Open a span with a static name and a free-form argument. The
    /// argument is only materialised when observability is enabled.
    #[inline]
    pub fn enter_with_arg<A: Into<String>>(name: &'static str, arg: A) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { live: None };
        }
        Self::open_live(Cow::Borrowed(name), Some(arg.into()))
    }

    fn open_live(name: Cow<'static, str>, arg: Option<String>) -> SpanGuard {
        let depth = DEPTH.with(|d| {
            let cur = d.get();
            d.set(cur + 1);
            cur
        });
        SpanGuard {
            live: Some(LiveSpan {
                name,
                depth,
                start_ns: now_ns(),
                arg,
                span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let end = now_ns();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        local_buf(|buf| {
            let rec = SpanRecord {
                name: live.name,
                tid: buf.tid,
                depth: live.depth,
                start_ns: live.start_ns,
                dur_ns: end.saturating_sub(live.start_ns),
                arg: live.arg,
                span_id: live.span_id,
            };
            let mut spans = buf.spans.lock().unwrap();
            if spans.len() >= SPAN_CAP_PER_THREAD {
                buf.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            spans.push(rec);
        });
    }
}

/// Take every buffered span from every thread (including exited ones),
/// merged and sorted by `(start_ns, tid)`. Buffers are left empty but
/// registered, so collection continues seamlessly afterwards.
pub fn drain() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for buf in registry().lock().unwrap().iter() {
        out.append(&mut buf.spans.lock().unwrap());
    }
    out.sort_by_key(|a| (a.start_ns, a.tid, a.depth));
    out
}

/// Discard all buffered spans and reset the dropped-span counters.
/// Thread ids and the trace epoch are preserved.
pub fn clear() {
    for buf in registry().lock().unwrap().iter() {
        buf.spans.lock().unwrap().clear();
        buf.dropped.store(0, Ordering::Relaxed);
    }
}

/// Serialize spans as a `chrome://tracing` / Perfetto-compatible JSON
/// trace: `process_name`/`process_sort_index`/`thread_name` metadata for
/// process 1 (`tyxe`), then one "X" (complete) event per span sorted by
/// `(tid, start)`, `ts`/`dur` in µs, nesting inferred by the viewer from
/// time containment per `tid`. Each `(tid, count)` of `drops` (see
/// [`dropped_by_thread`]) becomes an explicit `dropped_spans` instant
/// event at the end of that thread's last span.
pub fn spans_to_chrome_trace(spans: &[SpanRecord], drops: &[(u64, u64)]) -> String {
    let mut events = vec![
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"tyxe\"}}"
            .to_string(),
        "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"sort_index\":2}}"
            .to_string(),
    ];
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"tyxe/t{tid}\"}}}}"
        ));
    }
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.tid, s.start_ns, s.depth));
    for s in sorted {
        let mut ev = format!(
            "{{\"name\":\"{}\",\"cat\":\"tyxe\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"depth\":{},\"id\":{}",
            crate::json::escape(&s.name),
            s.tid,
            micros(s.start_ns),
            micros(s.dur_ns),
            s.depth,
            s.span_id,
        );
        if let Some(arg) = &s.arg {
            ev.push_str(&format!(",\"arg\":\"{}\"", crate::json::escape(arg)));
        }
        ev.push_str("}}");
        events.push(ev);
    }
    for &(tid, count) in drops {
        let end = spans.iter().filter(|s| s.tid == tid).map(|s| s.start_ns + s.dur_ns).max();
        events.push(format!(
            "{{\"name\":\"dropped_spans\",\"cat\":\"tyxe\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":1,\"tid\":{tid},\"ts\":{},\"args\":{{\"count\":{count}}}}}",
            micros(end.unwrap_or(0)),
        ));
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}", events.join(","))
}

/// `ns` as the chrome format's microseconds, with three decimals.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Drain all spans and write them to `path` in chrome-trace format
/// (including `dropped_spans` markers for truncated threads).
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = drain();
    std::fs::write(path, spans_to_chrome_trace(&spans, &dropped_by_thread()))?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_depth() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        clear();
        {
            let _a = crate::span!("outer");
            {
                let _b = crate::span!("inner", "arg-1");
            }
        }
        crate::set_enabled(false);
        let spans = drain();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.arg.as_deref(), Some("arg-1"));
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(outer.tid, inner.tid);
        assert_ne!(outer.span_id, 0);
        assert_ne!(outer.span_id, inner.span_id);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        clear();
        {
            let _a = crate::span!("ghost");
            let _b = crate::span!("ghost", "arg");
        }
        assert!(drain().iter().all(|s| s.name != "ghost"));
    }

    #[test]
    fn cap_drops_excess_spans_and_reports_per_thread() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        clear();
        for _ in 0..SPAN_CAP_PER_THREAD + 10 {
            let _s = crate::span!("capped");
        }
        crate::set_enabled(false);
        let tid = current_tid();
        let spans = drain();
        let n = spans.iter().filter(|s| s.name == "capped").count();
        assert_eq!(n, SPAN_CAP_PER_THREAD);
        assert_eq!(dropped_spans(), 10);
        assert!(dropped_by_thread().contains(&(tid, 10)));
        // The drop marker survives the export.
        let chrome = spans_to_chrome_trace(&spans, &dropped_by_thread());
        let stats = crate::validate::validate_chrome_trace(&chrome).unwrap();
        assert_eq!(stats.dropped_spans, 10);
        clear();
        assert_eq!(dropped_spans(), 0);
    }

    #[test]
    fn exports_are_valid_per_validator() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        clear();
        {
            let _a = crate::span!("exp.outer");
            let _b = crate::span!("exp.inner", "x\"y\\z");
        }
        crate::set_enabled(false);
        let spans = drain();
        let chrome = spans_to_chrome_trace(&spans, &[]);
        let stats = crate::validate::validate_chrome_trace(&chrome).unwrap();
        assert!(stats.span_names.contains("exp.outer"));
        assert!(stats.span_names.contains("exp.inner"));
    }

    /// The one-process document, byte for byte: metadata, spans sorted
    /// by `(tid, start)`, escaped args and a drop marker per truncated
    /// thread (at its last span's end, or 0 for a thread with none).
    #[test]
    fn chrome_export_format_is_pinned() {
        let span = |name, tid, depth, start_ns, dur_ns, arg: Option<&str>, span_id| SpanRecord {
            name: Cow::Borrowed(name),
            tid,
            depth,
            start_ns,
            dur_ns,
            arg: arg.map(str::to_string),
            span_id,
        };
        let spans = [
            span("b.inner", 3, 1, 2_500, 1_001, Some("x\"y\\z"), 2),
            span("a.outer", 3, 0, 1_000, 12_345, None, 1),
            span("c.other", 0, 0, 999, 7, None, 3),
        ];
        let expected = concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":["#,
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"tyxe"}},"#,
            r#"{"name":"process_sort_index","ph":"M","pid":1,"tid":0,"args":{"sort_index":2}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"tyxe/t0"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"tyxe/t3"}},"#,
            r#"{"name":"c.other","cat":"tyxe","ph":"X","pid":1,"tid":0,"ts":0.999,"dur":0.007,"#,
            r#""args":{"depth":0,"id":3}},"#,
            r#"{"name":"a.outer","cat":"tyxe","ph":"X","pid":1,"tid":3,"ts":1.000,"dur":12.345,"#,
            r#""args":{"depth":0,"id":1}},"#,
            r#"{"name":"b.inner","cat":"tyxe","ph":"X","pid":1,"tid":3,"ts":2.500,"dur":1.001,"#,
            r#""args":{"depth":1,"id":2,"arg":"x\"y\\z"}},"#,
            r#"{"name":"dropped_spans","cat":"tyxe","ph":"i","s":"t","pid":1,"tid":3,"ts":13.345,"#,
            r#""args":{"count":5}},"#,
            r#"{"name":"dropped_spans","cat":"tyxe","ph":"i","s":"t","pid":1,"tid":9,"ts":0.000,"#,
            r#""args":{"count":2}}]}"#,
        );
        assert_eq!(spans_to_chrome_trace(&spans, &[(3, 5), (9, 2)]), expected);
    }
}
