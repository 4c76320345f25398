//! Post-mortem dumps, `flight-<rank>-<incarnation>.jsonl`, which the
//! `tyxe-dist` coordinator writes as it buries a worker incarnation
//! (DESIGN.md §14). A format, a writer and a reader: nothing here runs
//! inside the process being described.
//!
//! A worker explains its own exit in its [`LastWords`], sent as event
//! lines at the head of its final span shipment (span parsers skip
//! event lines). The dump is JSONL: a `{"event":"flight",…}` header
//! (`rank`, `incarnation`, `epoch_unix_ns`, `reason`), span lines, note
//! lines, then a metrics snapshot.

use std::path::Path;

use crate::json::{escape, Json};
use crate::trace::{self, SpanRecord};

/// How a process ended, in its own words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastWords {
    /// Why it exited (`shutdown`, `fault.kill`, `panic`, `fatal`).
    pub reason: String,
    /// `(what, detail)` notes, e.g. `("fault.kill", "step=3")`.
    pub notes: Vec<(String, String)>,
}

const LAST_WORDS_EVENT: &str = "{\"event\":\"last_words\"";

fn note_json(what: &str, detail: &str) -> String {
    format!("{{\"event\":\"note\",\"what\":\"{}\",\"detail\":\"{}\"}}", escape(what), escape(detail))
}

fn note_of(rec: &Json) -> (String, String) {
    let field = |k: &str| rec.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    (field("what"), field("detail"))
}

impl LastWords {
    /// The event lines that open a final span shipment: a `last_words`
    /// line with the reason, then a `note` line per note.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!("{LAST_WORDS_EVENT},\"reason\":\"{}\"}}\n", escape(&self.reason));
        for (what, detail) in &self.notes {
            out.push_str(&note_json(what, detail));
            out.push('\n');
        }
        out
    }

    /// Splits a span shipment into the last words it opens with, if
    /// any, and the span lines after them.
    pub fn split(jsonl: &str) -> (Option<LastWords>, &str) {
        if !jsonl.starts_with(LAST_WORDS_EVENT) {
            return (None, jsonl);
        }
        let mut words = LastWords { reason: String::new(), notes: Vec::new() };
        let mut rest = jsonl;
        while let Some((line, tail)) = rest.split_once('\n') {
            let Ok(rec) = crate::json::parse(line) else { break };
            match rec.get("event").and_then(Json::as_str) {
                Some("last_words") => {
                    words.reason = rec.get("reason").and_then(Json::as_str).unwrap_or("").into();
                }
                Some("note") => words.notes.push(note_of(&rec)),
                _ => break,
            }
            rest = tail;
        }
        (Some(words), rest)
    }
}

/// A post-mortem dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Rank of the process the dump describes.
    pub rank: u64,
    /// Worker incarnation (0 = original spawn).
    pub incarnation: u64,
    /// UNIX ns of the process's trace epoch (for clock normalization).
    pub epoch_unix_ns: u64,
    /// Why the process ended (its last words' reason, or the
    /// coordinator's `no last words`).
    pub reason: String,
    /// Every span the process shipped, oldest first.
    pub spans: Vec<SpanRecord>,
    /// `(what, detail)` notes, in order.
    pub notes: Vec<(String, String)>,
    /// The last metrics snapshot the process shipped.
    pub metrics: Vec<crate::metrics::MetricRecord>,
}

impl FlightDump {
    /// Render the dump in the format [`parse_flight`] reads.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"event\":\"flight\",\"rank\":{},\"incarnation\":{},\"epoch_unix_ns\":{},\
             \"reason\":\"{}\"}}\n",
            self.rank,
            self.incarnation,
            self.epoch_unix_ns,
            escape(&self.reason),
        );
        out.push_str(&trace::spans_to_jsonl(&self.spans));
        for (what, detail) in &self.notes {
            out.push_str(&note_json(what, detail));
            out.push('\n');
        }
        for rec in &self.metrics {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }
}

/// Parse a flight dump written by [`FlightDump::to_jsonl`]. The header
/// must be the first line; span, note and metric lines are
/// distinguished by shape.
pub fn parse_flight(text: &str) -> Result<FlightDump, String> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or("flight dump is empty")?;
    let header =
        crate::json::parse(header_line).map_err(|e| format!("flight header: {e}"))?;
    if header.get("event").and_then(|v| v.as_str()) != Some("flight") {
        return Err("flight dump does not start with a {\"event\":\"flight\"} header".into());
    }
    let num = |field: &str| {
        header
            .get(field)
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("flight header missing `{field}`"))
    };
    let mut dump = FlightDump {
        rank: num("rank")? as u64,
        incarnation: num("incarnation")? as u64,
        epoch_unix_ns: num("epoch_unix_ns")? as u64,
        reason: header
            .get("reason")
            .and_then(|v| v.as_str())
            .unwrap_or("unknown")
            .to_string(),
        spans: Vec::new(),
        notes: Vec::new(),
        metrics: Vec::new(),
    };
    let mut span_text = String::new();
    let mut metric_text = String::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let rec = crate::json::parse(line).map_err(|e| format!("flight line: {e}"))?;
        if rec.get("event").and_then(|v| v.as_str()) == Some("note") {
            dump.notes.push(note_of(&rec));
        } else if rec.get("unit").is_some() {
            metric_text.push_str(line);
            metric_text.push('\n');
        } else {
            span_text.push_str(line);
            span_text.push('\n');
        }
    }
    let (spans, _) = trace::spans_from_jsonl(&span_text)?;
    dump.spans = spans;
    dump.metrics = crate::metrics::records_from_jsonl(&metric_text)?;
    Ok(dump)
}

/// Read and parse a flight dump from disk.
pub fn read_flight_file(path: &Path) -> Result<FlightDump, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read flight dump `{}`: {e}", path.display()))?;
    parse_flight(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricRecord;

    fn span(name: &str, span_id: u64) -> SpanRecord {
        let line = format!(
            "{{\"name\":\"{name}\",\"tid\":2,\"depth\":1,\"start_ns\":9,\"dur_ns\":250,\
             \"span_id\":{span_id},\"trace_id\":7,\"parent_span\":3,\"arg\":\"step=\\\"5\\\"\"}}\n"
        );
        trace::spans_from_jsonl(&line).unwrap().0.remove(0)
    }

    #[test]
    fn dump_writer_round_trips_through_parse_flight() {
        let dump = FlightDump {
            rank: 3,
            incarnation: 1,
            epoch_unix_ns: 1_700_000_000_000_000_000,
            reason: "fault.kill".into(),
            spans: vec![span("dist.worker.step", 10), span("core.dist.backward", 11)],
            notes: vec![
                ("fault.kill".into(), "step=5".into()),
                ("panic".into(), "a \"quoted\" \\ message".into()),
            ],
            metrics: vec![MetricRecord {
                name: "dist.frames".into(),
                value: 4.0,
                unit: "count".into(),
                tags: vec![("rank".into(), "3".into())],
            }],
        };
        assert_eq!(parse_flight(&dump.to_jsonl()).unwrap(), dump);
    }

    #[test]
    fn last_words_open_a_shipment_and_split_back_off() {
        let words = LastWords {
            reason: "panic".into(),
            notes: vec![("panic".into(), "boom \"x\"\nline two".into())],
        };
        let spans = trace::spans_to_jsonl(&[span("dist.worker.step", 4)]);
        let shipment = words.to_jsonl() + &spans;
        assert_eq!(LastWords::split(&shipment), (Some(words), spans.as_str()));
        assert_eq!(LastWords::split(&spans), (None, spans.as_str()));
        // The shipment stays a valid span export: span parsers skip it.
        let (parsed, _) = trace::spans_from_jsonl(&shipment).unwrap();
        assert_eq!(parsed, vec![span("dist.worker.step", 4)]);
    }
}
