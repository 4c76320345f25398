//! Schema validation for the two export formats, used by unit tests
//! and by the `tyxe-obs-validate` binary that `scripts/verify.sh`
//! runs after the trace-emitting smoke fit (jq-free by design).

use std::collections::BTreeSet;

use crate::json::{parse, Json};

/// What a valid chrome trace contained.
#[derive(Debug, Default, Clone)]
pub struct TraceStats {
    /// Total `traceEvents` entries (metadata + spans).
    pub events: usize,
    /// Number of "X" (complete/span) events.
    pub spans: usize,
    /// Distinct `tid`s that recorded at least one span.
    pub threads: BTreeSet<u64>,
    /// Distinct span names.
    pub span_names: BTreeSet<String>,
    /// Maximum recorded nesting depth (from `args.depth`).
    pub max_depth: u64,
    /// Total spans reported lost via `dropped_spans` instant events —
    /// nonzero means a thread hit its buffer cap and the trace is
    /// incomplete there.
    pub dropped_spans: u64,
}

/// Validate a `chrome://tracing` JSON document: a top-level object
/// with a `traceEvents` array whose entries all carry `name`/`ph`/
/// `pid`/`tid`, with numeric `ts` and `dur` on every "X" event.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("trace has no `traceEvents` array")?;
    let mut stats = TraceStats { events: events.len(), ..Default::default() };
    for (i, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("traceEvents[{i}] missing/invalid `{field}`");
        let name = ev.get("name").and_then(|v| v.as_str()).ok_or_else(|| ctx("name"))?;
        let ph = ev.get("ph").and_then(|v| v.as_str()).ok_or_else(|| ctx("ph"))?;
        ev.get("pid").and_then(|v| v.as_num()).ok_or_else(|| ctx("pid"))?;
        let tid = ev.get("tid").and_then(|v| v.as_num()).ok_or_else(|| ctx("tid"))?;
        if ph == "X" {
            ev.get("ts").and_then(|v| v.as_num()).ok_or_else(|| ctx("ts"))?;
            ev.get("dur").and_then(|v| v.as_num()).ok_or_else(|| ctx("dur"))?;
            stats.spans += 1;
            stats.threads.insert(tid as u64);
            stats.span_names.insert(name.to_string());
            if let Some(d) = ev.get("args").and_then(|a| a.get("depth")).and_then(|v| v.as_num())
            {
                stats.max_depth = stats.max_depth.max(d as u64);
            }
        } else if ph == "i" && name == "dropped_spans" {
            let count = ev
                .get("args")
                .and_then(|a| a.get("count"))
                .and_then(|v| v.as_num())
                .ok_or_else(|| ctx("args.count"))?;
            stats.dropped_spans += count as u64;
        }
    }
    Ok(stats)
}

/// What a valid metrics JSONL file contained.
#[derive(Debug, Default, Clone)]
pub struct MetricsStats {
    /// Number of records (lines).
    pub records: usize,
    /// Distinct metric names.
    pub names: BTreeSet<String>,
}

/// Validate metrics JSONL: every non-empty line is an object with
/// string `name`, numeric `value`, string `unit` and an object `tags`
/// whose values are all strings. Extra keys are allowed.
pub fn validate_metrics_jsonl(text: &str) -> Result<MetricsStats, String> {
    let mut stats = MetricsStats::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = |what: &str| format!("line {}: {what}", lineno + 1);
        let rec = parse(line).map_err(|e| ctx(&format!("not valid JSON: {e}")))?;
        let name = rec
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| ctx("missing string `name`"))?;
        rec.get("value")
            .and_then(|v| v.as_num())
            .ok_or_else(|| ctx("missing numeric `value`"))?;
        rec.get("unit")
            .and_then(|v| v.as_str())
            .ok_or_else(|| ctx("missing string `unit`"))?;
        let tags = rec
            .get("tags")
            .and_then(|v| v.as_obj())
            .ok_or_else(|| ctx("missing object `tags`"))?;
        for (k, v) in tags {
            if !matches!(v, Json::Str(_)) {
                return Err(ctx(&format!("tag `{k}` is not a string")));
            }
        }
        stats.records += 1;
        stats.names.insert(name.to_string());
    }
    if stats.records == 0 {
        return Err("metrics file contains no records".to_string());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_emitted_metrics_snapshot() {
        let c = crate::metrics::counter("test.validate.counter");
        c.add(2);
        let h = crate::metrics::histogram("test.validate.hist");
        h.record(10);
        let text = crate::metrics::snapshot_jsonl();
        let stats = validate_metrics_jsonl(&text).unwrap();
        assert!(stats.names.contains("test.validate.counter"));
        assert!(stats.names.contains("test.validate.hist"));
    }

    #[test]
    fn accepts_extra_keys() {
        let line = "{\"name\":\"gemm/256\",\"min_ns\":1,\"median_ns\":2,\"mean_ns\":3,\
                    \"value\":2.0,\"unit\":\"ns\",\"tags\":{\"stat\":\"median_ns\",\"source\":\"bench\"}}\n";
        let stats = validate_metrics_jsonl(line).unwrap();
        assert_eq!(stats.records, 1);
    }

    #[test]
    fn rejects_malformed_metrics() {
        assert!(validate_metrics_jsonl("").is_err());
        assert!(validate_metrics_jsonl("{\"name\":\"x\"}\n").is_err());
        assert!(
            validate_metrics_jsonl("{\"name\":\"x\",\"value\":\"s\",\"unit\":\"u\",\"tags\":{}}\n")
                .is_err()
        );
        assert!(validate_metrics_jsonl(
            "{\"name\":\"x\",\"value\":1.0,\"unit\":\"u\",\"tags\":{\"k\":1}}\n"
        )
        .is_err());
    }

    #[test]
    fn surrogate_escapes_in_span_names_validate() {
        // Span names (e.g. user-labelled sites) may carry astral chars,
        // which the Chrome trace format writes as surrogate pairs. A
        // valid pair must decode to the real character; unpaired halves
        // must degrade to U+FFFD, not break validation.
        let pair = "{\"traceEvents\":[\
            {\"name\":\"fit \\uD83D\\uDE80\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1,\"dur\":2}]}";
        let stats = validate_chrome_trace(pair).unwrap();
        assert!(stats.span_names.contains("fit \u{1f680}"), "{:?}", stats.span_names);

        let lone_high = "{\"traceEvents\":[\
            {\"name\":\"x\\uD83D\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1,\"dur\":2}]}";
        let stats = validate_chrome_trace(lone_high).unwrap();
        assert!(stats.span_names.contains("x\u{fffd}"));

        let lone_low = "{\"name\":\"m\\uDC00\",\"value\":1.0,\"unit\":\"u\",\"tags\":{}}\n";
        let stats = validate_metrics_jsonl(lone_low).unwrap();
        assert!(stats.names.contains("m\u{fffd}"));
    }

    #[test]
    fn validates_chrome_trace_shape() {
        let good = "{\"traceEvents\":[\
            {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"t\"}},\
            {\"name\":\"a.b.c\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.5,\"dur\":2.0,\
             \"args\":{\"depth\":1}}]}";
        let stats = validate_chrome_trace(good).unwrap();
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.threads.len(), 1);
        assert_eq!(stats.max_depth, 1);
        assert!(stats.span_names.contains("a.b.c"));

        assert!(validate_chrome_trace("{}").is_err());
        let no_dur = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1}]}";
        assert!(validate_chrome_trace(no_dur).is_err());
    }

    #[test]
    fn counts_dropped_span_events() {
        let doc = "{\"traceEvents\":[\
            {\"name\":\"a.step\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1,\"dur\":5},\
            {\"name\":\"dropped_spans\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":6,\
             \"args\":{\"count\":7}},\
            {\"name\":\"dropped_spans\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":2,\"ts\":0,\
             \"args\":{\"count\":2}}]}";
        let stats = validate_chrome_trace(doc).unwrap();
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.dropped_spans, 9);
        let no_count = "{\"traceEvents\":[\
            {\"name\":\"dropped_spans\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":6}]}";
        assert!(validate_chrome_trace(no_count).is_err());
    }
}
