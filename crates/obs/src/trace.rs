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
//! records the finished span. Exporters reconstruct the hierarchy
//! either from the recorded `depth` (JSONL) or from time containment
//! per thread (`chrome://tracing` "X" complete events).
//!
//! # Cross-process correlation
//!
//! Every recorded span carries a process-unique `span_id`, and a span
//! may additionally carry a *remote parent*: a `(trace_id,
//! parent_span)` pair stamped by another process (see
//! [`SpanGuard::enter_remote_child`]). The `tyxe-dist` coordinator
//! puts its per-step span id on the wire; workers open their step
//! spans as remote children, so a merged multi-process trace
//! ([`crate::merge`]) can parent worker work under the coordinator's
//! step. Timestamps are anchored to the wall clock via
//! [`epoch_unix_ns`] — the UNIX time of this process's trace epoch —
//! which merging uses to normalize clocks across processes.

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
    /// Process-unique span id (dense, from 1; 0 only in records parsed
    /// from pre-telemetry exports).
    pub span_id: u64,
    /// Distributed trace id this span belongs to (0 = none).
    pub trace_id: u64,
    /// Remote parent span id, stamped by another process (0 = none;
    /// local parenting is positional via `depth`/time containment).
    pub parent_span: u64,
}

struct ThreadBuf {
    tid: u64,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

struct Epoch {
    instant: Instant,
    unix_ns: u64,
}

static EPOCH: OnceLock<Epoch> = OnceLock::new();

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

fn epoch() -> &'static Epoch {
    EPOCH.get_or_init(|| Epoch {
        instant: Instant::now(),
        unix_ns: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64),
    })
}

/// Nanoseconds since the process-wide trace epoch (first call wins).
pub fn now_ns() -> u64 {
    epoch().instant.elapsed().as_nanos() as u64
}

/// UNIX wall-clock time (ns) of this process's trace epoch: the anchor
/// that makes `start_ns` values comparable across processes. Captured
/// together with the monotonic epoch, so
/// `epoch_unix_ns() + span.start_ns` is the span's approximate
/// wall-clock start.
pub fn epoch_unix_ns() -> u64 {
    epoch().unix_ns
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
    trace_id: u64,
    parent_span: u64,
}

impl SpanGuard {
    /// Open a span with a static name.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { live: None };
        }
        Self::open_live(Cow::Borrowed(name), None, 0, 0)
    }

    /// Open a span with a static name and a free-form argument. The
    /// argument is only materialised when observability is enabled.
    #[inline]
    pub fn enter_with_arg<A: Into<String>>(name: &'static str, arg: A) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { live: None };
        }
        Self::open_live(Cow::Borrowed(name), Some(arg.into()), 0, 0)
    }

    /// Open a span whose *parent lives in another process*: `trace_id`
    /// and `parent_span` were stamped by the remote side (e.g. the
    /// dist coordinator's per-step span, carried in the wire
    /// protocol's telemetry section) and are recorded verbatim so a
    /// merged trace can re-link the hierarchy.
    pub fn enter_remote_child<A: Into<String>>(
        name: &'static str,
        trace_id: u64,
        parent_span: u64,
        arg: A,
    ) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { live: None };
        }
        Self::open_live(Cow::Borrowed(name), Some(arg.into()), trace_id, parent_span)
    }

    /// The process-unique id this span will be recorded under
    /// (0 when the guard is inert). The dist coordinator broadcasts
    /// this for its step spans so workers can parent under them.
    pub fn span_id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.span_id)
    }

    fn open_live(
        name: Cow<'static, str>,
        arg: Option<String>,
        trace_id: u64,
        parent_span: u64,
    ) -> SpanGuard {
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
                trace_id,
                parent_span,
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
                trace_id: live.trace_id,
                parent_span: live.parent_span,
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

pub(crate) fn span_json(s: &SpanRecord) -> String {
    let mut line = format!(
        "{{\"name\":\"{}\",\"tid\":{},\"depth\":{},\"start_ns\":{},\"dur_ns\":{},\"span_id\":{}",
        crate::json::escape(&s.name),
        s.tid,
        s.depth,
        s.start_ns,
        s.dur_ns,
        s.span_id,
    );
    if s.trace_id != 0 {
        line.push_str(&format!(",\"trace_id\":{}", s.trace_id));
    }
    if s.parent_span != 0 {
        line.push_str(&format!(",\"parent_span\":{}", s.parent_span));
    }
    if let Some(arg) = &s.arg {
        line.push_str(&format!(",\"arg\":\"{}\"", crate::json::escape(arg)));
    }
    line.push('}');
    line
}

/// Serialize spans as JSONL: one
/// `{"name","tid","depth","start_ns","dur_ns","span_id",…}` object per
/// line (`trace_id`/`parent_span`/`arg` only when set).
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&span_json(s));
        out.push('\n');
    }
    out
}

/// One `dropped_spans` event line per truncated thread, the explicit
/// marker that a buffer hit [`SPAN_CAP_PER_THREAD`] and data is missing.
pub fn dropped_events_jsonl(drops: &[(u64, u64)]) -> String {
    let mut out = String::new();
    for &(tid, count) in drops {
        out.push_str(&format!(
            "{{\"event\":\"dropped_spans\",\"tid\":{tid},\"count\":{count}}}\n"
        ));
    }
    out
}

/// Parsed JSONL span export: the span records plus the per-thread
/// `(tid, count)` drop markers that were interleaved with them.
pub type ParsedSpans = (Vec<SpanRecord>, Vec<(u64, u64)>);

/// Parse a JSONL span export (the [`spans_to_jsonl`] format, optionally
/// interleaved with [`dropped_events_jsonl`] lines) back into records
/// plus per-thread drop counts. Unknown `event` lines are skipped so
/// the format can grow; malformed lines are errors.
pub fn spans_from_jsonl(text: &str) -> Result<ParsedSpans, String> {
    let mut spans = Vec::new();
    let mut drops = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = |what: &str| format!("span line {}: {what}", lineno + 1);
        let rec = crate::json::parse(line).map_err(|e| ctx(&format!("invalid JSON: {e}")))?;
        if let Some(event) = rec.get("event").and_then(|v| v.as_str()) {
            if event == "dropped_spans" {
                let tid = rec.get("tid").and_then(|v| v.as_num()).ok_or_else(|| ctx("tid"))?;
                let count =
                    rec.get("count").and_then(|v| v.as_num()).ok_or_else(|| ctx("count"))?;
                drops.push((tid as u64, count as u64));
            }
            continue;
        }
        let num = |field: &'static str| {
            rec.get(field)
                .and_then(|v| v.as_num())
                .ok_or_else(|| ctx(&format!("missing numeric `{field}`")))
        };
        spans.push(SpanRecord {
            name: Cow::Owned(
                rec.get("name")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| ctx("missing string `name`"))?
                    .to_string(),
            ),
            tid: num("tid")? as u64,
            depth: num("depth")? as u32,
            start_ns: num("start_ns")? as u64,
            dur_ns: num("dur_ns")? as u64,
            arg: rec.get("arg").and_then(|v| v.as_str()).map(str::to_string),
            span_id: rec.get("span_id").and_then(|v| v.as_num()).unwrap_or(0.0) as u64,
            trace_id: rec.get("trace_id").and_then(|v| v.as_num()).unwrap_or(0.0) as u64,
            parent_span: rec.get("parent_span").and_then(|v| v.as_num()).unwrap_or(0.0) as u64,
        });
    }
    Ok((spans, drops))
}

/// Serialize spans as a `chrome://tracing` / Perfetto-compatible JSON
/// trace: the one-process case of [`crate::merge::merged_chrome_trace`]
/// (pid 1, process `tyxe`) — one "X" (complete) event per span, `ts`/
/// `dur` in µs, nesting inferred by the viewer from time containment
/// per `tid`. Truncated threads get an explicit `dropped_spans` instant
/// event.
pub fn spans_to_chrome_trace_with_drops(spans: &[SpanRecord], drops: &[(u64, u64)]) -> String {
    crate::merge::merged_chrome_trace(&[crate::merge::ProcTelemetry {
        pid: 1,
        name: "tyxe".to_string(),
        tid_base: 0,
        clock_offset_ns: 0,
        spans: spans.to_vec(),
        drops: drops.to_vec(),
    }])
}

/// [`spans_to_chrome_trace_with_drops`] without drop events.
pub fn spans_to_chrome_trace(spans: &[SpanRecord]) -> String {
    spans_to_chrome_trace_with_drops(spans, &[])
}

/// Drain all spans and write them to `path` in chrome-trace format
/// (including `dropped_spans` markers for truncated threads).
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = drain();
    std::fs::write(path, spans_to_chrome_trace_with_drops(&spans, &dropped_by_thread()))?;
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
        // The drop marker survives both export formats.
        let drops = dropped_by_thread();
        let chrome = spans_to_chrome_trace_with_drops(&spans, &drops);
        let stats = crate::validate::validate_chrome_trace(&chrome).unwrap();
        assert_eq!(stats.dropped_spans, 10);
        let jsonl = dropped_events_jsonl(&drops);
        let (_, parsed_drops) = spans_from_jsonl(&jsonl).unwrap();
        assert_eq!(parsed_drops, drops);
        clear();
        assert_eq!(dropped_spans(), 0);
    }

    #[test]
    fn remote_children_carry_the_stamped_context() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        clear();
        let parent_id = {
            let parent = crate::span!("remote.parent");
            let id = parent.span_id();
            assert_ne!(id, 0);
            id
        };
        {
            let _child = SpanGuard::enter_remote_child("remote.child", 77, parent_id, "step=3");
        }
        crate::set_enabled(false);
        let spans = drain();
        let child = spans.iter().find(|s| s.name == "remote.child").unwrap();
        assert_eq!(child.trace_id, 77);
        assert_eq!(child.parent_span, parent_id);
    }

    #[test]
    fn jsonl_roundtrips_spans() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        clear();
        {
            let _a = crate::span!("rt.outer");
            let _b = SpanGuard::enter_remote_child("rt.child", 9, 4, "x\"y\\z");
        }
        crate::set_enabled(false);
        let spans = drain();
        let spans: Vec<SpanRecord> =
            spans.into_iter().filter(|s| s.name.starts_with("rt.")).collect();
        let text = spans_to_jsonl(&spans);
        let (parsed, drops) = spans_from_jsonl(&text).unwrap();
        assert_eq!(parsed, spans);
        assert!(drops.is_empty());
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
        let chrome = spans_to_chrome_trace(&spans);
        let stats = crate::validate::validate_chrome_trace(&chrome).unwrap();
        assert!(stats.span_names.contains("exp.outer"));
        assert!(stats.span_names.contains("exp.inner"));
        let jsonl = spans_to_jsonl(&spans);
        for line in jsonl.lines() {
            crate::json::parse(line).unwrap();
        }
    }

    #[test]
    fn epoch_anchor_is_stable_and_plausible() {
        let _ = now_ns();
        let a = epoch_unix_ns();
        let b = epoch_unix_ns();
        assert_eq!(a, b);
        // After 2020-01-01 in ns — the anchor is real wall-clock time.
        assert!(a > 1_577_836_800_000_000_000);
    }
}
