//! Trace merging: fold span sets collected from the dist coordinator
//! and every worker rank (shipped over the wire) into a single
//! `chrome://tracing` / Perfetto file. This is the repository's one
//! chrome-trace writer: a single-process export
//! ([`crate::trace::spans_to_chrome_trace`]) is the one-process merge.
//!
//! # Identity mapping
//!
//! Chrome-trace `pid`/`tid` are display coordinates, so the merge
//! assigns logical ones: the coordinator gets the reserved
//! [`COORD_PID`] and each worker rank gets `pid = rank`. A respawned
//! worker shares its predecessor's pid (same lane in the viewer) but
//! gets its own `process_name` (`rank{r}-inc{i}`) and a disjoint tid
//! range via [`ProcTelemetry::tid_base`], so the pre-kill incarnation
//! stays distinguishable.
//!
//! # Clock normalization
//!
//! Every process timestamps spans in ns since its own trace epoch.
//! Each worker reports its epoch's UNIX time in the handshake
//! ([`crate::trace::epoch_unix_ns`]); the merge shifts its spans by
//! `clock_offset_ns = worker_epoch_unix − coordinator_epoch_unix`,
//! putting all events on the coordinator's clock. The offset is a
//! constant per process, so per-thread ordering is preserved exactly;
//! cross-process skew is bounded by wall-clock quality, which is
//! plenty for step-level correlation (steps are ≥ tens of µs).
//! Span ids (`args.id`/`args.parent`) carry the precise causal links.

use crate::metrics::MetricRecord;
use crate::trace::SpanRecord;

/// Reserved chrome-trace pid for the coordinator process — above any
/// plausible rank, so rank pids never collide with it.
pub const COORD_PID: u64 = 1000;

/// One process's contribution to a merged trace.
#[derive(Debug, Clone)]
pub struct ProcTelemetry {
    /// Chrome pid: [`COORD_PID`], the worker rank, or 1 for a
    /// single-process export.
    pub pid: u64,
    /// Process display name (`coordinator`, `rank{r}-inc{i}`).
    pub name: String,
    /// Added to every tid so incarnations sharing a pid occupy
    /// disjoint thread lanes (convention: `incarnation * 1000`).
    pub tid_base: u64,
    /// ns to add to every timestamp to land on the reference clock
    /// (0 for the coordinator itself; may be negative).
    pub clock_offset_ns: i64,
    /// The process's spans, in its own clock.
    pub spans: Vec<SpanRecord>,
    /// Per-thread `(tid, count)` dropped-span totals.
    pub drops: Vec<(u64, u64)>,
}

impl ProcTelemetry {
    /// Contribution of a worker rank: pid = rank, tids offset by
    /// incarnation, clock shifted by the worker-minus-reference epoch
    /// delta.
    pub fn for_rank(
        rank: u64,
        incarnation: u64,
        clock_offset_ns: i64,
        spans: Vec<SpanRecord>,
        drops: Vec<(u64, u64)>,
    ) -> Self {
        ProcTelemetry {
            pid: rank,
            name: format!("rank{rank}-inc{incarnation}"),
            tid_base: incarnation * 1000,
            clock_offset_ns,
            spans,
            drops,
        }
    }

    /// The coordinator's own contribution (reference clock, no shift).
    pub fn for_coordinator(spans: Vec<SpanRecord>, drops: Vec<(u64, u64)>) -> Self {
        ProcTelemetry {
            pid: COORD_PID,
            name: "coordinator".to_string(),
            tid_base: 0,
            clock_offset_ns: 0,
            spans,
            drops,
        }
    }
}

/// Merge per-process span sets into one chrome-trace JSON document:
/// `process_name`/`process_sort_index`/`thread_name` metadata per
/// process, "X" events with normalized timestamps, and a
/// `dropped_spans` instant event per truncated thread. Within each
/// process, spans are emitted sorted by `(tid, start_ns)`, so
/// normalized timestamps are monotonic per thread lane.
pub fn merged_chrome_trace(procs: &[ProcTelemetry]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&ev);
    };
    for p in procs {
        // Coordinator sorts first; ranks follow in order.
        let sort_index = if p.pid == COORD_PID { 0 } else { p.pid + 1 };
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                p.pid,
                crate::json::escape(&p.name),
            ),
        );
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"sort_index\":{sort_index}}}}}",
                p.pid,
            ),
        );
        let mut tids: Vec<u64> = p.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in &tids {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                     \"args\":{{\"name\":\"{}/t{tid}\"}}}}",
                    p.pid,
                    p.tid_base + tid,
                    crate::json::escape(&p.name),
                ),
            );
        }
        let mut spans: Vec<&SpanRecord> = p.spans.iter().collect();
        spans.sort_by_key(|s| (s.tid, s.start_ns, s.depth));
        for s in spans {
            let ts = s.start_ns as i64 + p.clock_offset_ns;
            push(&mut out, chrome_span_event(s, p.pid, p.tid_base + s.tid, ts));
        }
        for &(tid, count) in &p.drops {
            let end = p
                .spans
                .iter()
                .filter(|s| s.tid == tid)
                .map(|s| s.start_ns + s.dur_ns)
                .max()
                .unwrap_or(0);
            let ts = end as i64 + p.clock_offset_ns;
            push(&mut out, chrome_dropped_event(p.pid, p.tid_base + tid, ts, count));
        }
    }
    out.push_str("]}");
    out
}

fn chrome_span_event(s: &SpanRecord, pid: u64, tid: u64, ts_ns: i64) -> String {
    let sign = if ts_ns < 0 { "-" } else { "" };
    let abs = ts_ns.unsigned_abs();
    let mut ev = format!(
        "{{\"name\":\"{}\",\"cat\":\"tyxe\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
         \"ts\":{sign}{}.{:03},\"dur\":{}.{:03},\"args\":{{\"depth\":{},\"id\":{}",
        crate::json::escape(&s.name),
        abs / 1_000,
        abs % 1_000,
        s.dur_ns / 1_000,
        s.dur_ns % 1_000,
        s.depth,
        s.span_id,
    );
    if s.trace_id != 0 {
        ev.push_str(&format!(",\"trace\":{}", s.trace_id));
    }
    if s.parent_span != 0 {
        ev.push_str(&format!(",\"parent\":{}", s.parent_span));
    }
    if let Some(arg) = &s.arg {
        ev.push_str(&format!(",\"arg\":\"{}\"", crate::json::escape(arg)));
    }
    ev.push_str("}}");
    ev
}

fn chrome_dropped_event(pid: u64, tid: u64, ts_ns: i64, count: u64) -> String {
    let sign = if ts_ns < 0 { "-" } else { "" };
    let abs = ts_ns.unsigned_abs();
    format!(
        "{{\"name\":\"dropped_spans\",\"cat\":\"tyxe\",\"ph\":\"i\",\"s\":\"t\",\
         \"pid\":{pid},\"tid\":{tid},\"ts\":{sign}{}.{:03},\"args\":{{\"count\":{count}}}}}",
        abs / 1_000,
        abs % 1_000,
    )
}

/// Return `records` with `extra` tag pairs added to each (tags kept
/// sorted) — how per-rank metric snapshots get `rank`/`incarnation`
/// tags before aggregation.
pub fn tag_records(records: Vec<MetricRecord>, extra: &[(&str, &str)]) -> Vec<MetricRecord> {
    records
        .into_iter()
        .map(|mut r| {
            for (k, v) in extra {
                r.tags.push((k.to_string(), v.to_string()));
            }
            r.tags.sort();
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(name: &str, tid: u64, start: u64, dur: u64, id: u64) -> SpanRecord {
        SpanRecord {
            name: Cow::Owned(name.to_string()),
            tid,
            depth: 0,
            start_ns: start,
            dur_ns: dur,
            arg: None,
            span_id: id,
            trace_id: 7,
            parent_span: if name.contains("worker") { 1 } else { 0 },
        }
    }

    #[test]
    fn merged_trace_has_per_process_identity_and_normalized_clocks() {
        let coord =
            ProcTelemetry::for_coordinator(vec![span("dist.step", 0, 1_000_000, 9_000_000, 1)], vec![]);
        // Worker clock started 2ms "late": offset −2ms pulls it back.
        let w0 = ProcTelemetry::for_rank(
            0,
            0,
            -2_000_000,
            vec![span("dist.worker.step", 0, 4_000_000, 1_000_000, 10)],
            vec![(0, 3)],
        );
        // Respawned rank 1 at incarnation 1: same pid, offset tid lane.
        let w1 = ProcTelemetry::for_rank(
            1,
            1,
            500_000,
            vec![span("dist.worker.step", 0, 3_000_000, 1_000_000, 11)],
            vec![],
        );
        let doc = merged_chrome_trace(&[coord, w0, w1]);
        let stats = crate::validate::validate_chrome_trace(&doc).unwrap();
        assert_eq!(stats.spans, 3);
        assert!(stats.process_names.contains("coordinator"));
        assert!(stats.process_names.contains("rank0-inc0"));
        assert!(stats.process_names.contains("rank1-inc1"));
        assert_eq!(stats.spans_by_pid.get(&COORD_PID), Some(&1));
        assert_eq!(stats.spans_by_pid.get(&0), Some(&1));
        assert_eq!(stats.spans_by_pid.get(&1), Some(&1));
        assert_eq!(stats.dropped_spans, 3);
        // Normalized worker-0 ts = (4ms − 2ms) = 2ms = 2000 µs.
        assert!(doc.contains("\"ts\":2000.000"), "{doc}");
        // Incarnation-1 thread lane is offset by 1000.
        assert!(doc.contains("\"pid\":1,\"tid\":1000"), "{doc}");
        // Cross-process parent link is preserved in args.
        assert!(doc.contains("\"parent\":1"), "{doc}");
    }

    #[test]
    fn negative_normalized_timestamps_are_emitted_and_parse() {
        let w = ProcTelemetry::for_rank(0, 0, -10_000_000, vec![span("s", 0, 1_000, 10, 1)], vec![]);
        let doc = merged_chrome_trace(&[w]);
        assert!(doc.contains("\"ts\":-"), "{doc}");
        crate::validate::validate_chrome_trace(&doc).unwrap();
    }

    #[test]
    fn tag_records_adds_and_sorts() {
        let recs = vec![MetricRecord {
            name: "m".into(),
            value: 1.0,
            unit: "count".into(),
            tags: vec![("z".into(), "1".into())],
        }];
        let tagged = tag_records(recs, &[("rank", "2"), ("incarnation", "0")]);
        assert_eq!(tagged[0].tags, vec![
            ("incarnation".to_string(), "0".to_string()),
            ("rank".to_string(), "2".to_string()),
            ("z".to_string(), "1".to_string()),
        ]);
    }
}
