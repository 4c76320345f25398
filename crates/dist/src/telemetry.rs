//! Cross-process telemetry plane: what the coordinator accumulates
//! from worker `Telemetry` frames — a worker's only channel — and how
//! it folds into one merged trace, one aggregated metrics set and one
//! [`FlightDump`] per incarnation. Span text is kept raw per `(rank,
//! incarnation)` and parsed only at merge or burial time, so shipping
//! costs the coordinator a string append.

use tyxe_obs::flight::{FlightDump, LastWords};
use tyxe_obs::merge::{self, ProcTelemetry};
use tyxe_obs::metrics::MetricRecord;
use tyxe_obs::trace;

use crate::wire::Msg;

/// Cap on accumulated raw span JSONL per `(rank, incarnation)` — a
/// runaway worker cannot balloon coordinator memory. Overflow is
/// counted, reported as a `dropped_spans` thread entry, never silent.
pub const RANK_SPANS_CAP_BYTES: usize = 64 << 20;

/// Telemetry accumulated from one worker incarnation.
#[derive(Debug, Clone, Default)]
pub struct RankTelemetry {
    /// Worker rank.
    pub rank: u32,
    /// Spawn incarnation the data came from.
    pub incarnation: u64,
    /// `worker_epoch_unix − coordinator_epoch_unix`, ns: subtracting
    /// it from nothing — *adding* it to worker timestamps — lands them
    /// on the coordinator's clock (0 when the worker didn't report).
    pub clock_offset_ns: i64,
    /// Concatenated raw span JSONL shipped over the wire (parse
    /// deferred to merge time).
    pub spans_jsonl: String,
    /// Latest per-thread `(tid, count)` dropped-span totals.
    pub dropped: Vec<(u64, u64)>,
    /// Latest metrics snapshot JSONL (snapshots are cumulative, so
    /// last-wins is the correct aggregation).
    pub metrics_jsonl: String,
    /// Why the incarnation exited, in its own words (`None` while it
    /// lives, or when it died without any).
    pub last_words: Option<LastWords>,
    /// Span JSONL bytes discarded past [`RANK_SPANS_CAP_BYTES`].
    pub spans_overflow_bytes: u64,
}

impl RankTelemetry {
    /// Folds in a `Telemetry` frame (any other message is ignored).
    /// Spans are appended (they arrive as drained increments) after
    /// splitting off any last words; drop totals and the metrics snapshot
    /// are cumulative, so the latest wins — but an empty snapshot never
    /// clobbers a real one.
    pub(crate) fn absorb(&mut self, msg: Msg) {
        let Msg::Telemetry { dropped, spans_jsonl, metrics_jsonl, .. } = msg else { return };
        let (last_words, spans) = LastWords::split(&spans_jsonl);
        if last_words.is_some() {
            self.last_words = last_words;
        }
        self.append_spans(spans);
        self.dropped = dropped;
        if !metrics_jsonl.is_empty() {
            self.metrics_jsonl = metrics_jsonl;
        }
    }

    /// Append one shipment of raw span JSONL, enforcing the byte cap.
    pub(crate) fn append_spans(&mut self, jsonl: &str) {
        if self.spans_jsonl.len() + jsonl.len() > RANK_SPANS_CAP_BYTES {
            self.spans_overflow_bytes += jsonl.len() as u64;
        } else {
            self.spans_jsonl.push_str(jsonl);
        }
    }

    /// This incarnation's post-mortem: every span and the last metrics
    /// snapshot it shipped, explained by its last words — or by
    /// `silence` when it left none.
    pub(crate) fn flight_dump(
        &self,
        coord_epoch_unix_ns: u64,
        silence: LastWords,
    ) -> Result<FlightDump, String> {
        let words = self.last_words.clone().unwrap_or(silence);
        Ok(FlightDump {
            rank: u64::from(self.rank),
            incarnation: self.incarnation,
            epoch_unix_ns: coord_epoch_unix_ns.saturating_add_signed(self.clock_offset_ns),
            reason: words.reason,
            spans: trace::spans_from_jsonl(&self.spans_jsonl)?.0,
            notes: words.notes,
            metrics: tyxe_obs::metrics::records_from_jsonl(&self.metrics_jsonl)?,
        })
    }
}

/// Everything the coordinator collected, ready to merge. Available on
/// `DistReport::telemetry` after shutdown when observability was on.
#[derive(Debug, Clone, Default)]
pub struct DistTelemetry {
    /// Per-`(rank, incarnation)` accumulations, ascending.
    pub ranks: Vec<RankTelemetry>,
}

impl DistTelemetry {
    /// Build the single merged `chrome://tracing` document: the
    /// coordinator process's spans (drained from the live buffers
    /// **now** — call once, at the end of the run) plus every rank's
    /// shipped spans, identities and clocks normalized per [`merge`].
    pub fn merged_chrome_trace(&self) -> Result<String, String> {
        let coord_spans = trace::drain();
        let coord_drops = trace::dropped_by_thread();
        let mut procs = vec![ProcTelemetry::for_coordinator(coord_spans, coord_drops)];
        for rt in &self.ranks {
            // Authoritative drop totals ride in rt.dropped.
            let (spans, _) = trace::spans_from_jsonl(&rt.spans_jsonl)
                .map_err(|e| format!("rank {} inc {}: {e}", rt.rank, rt.incarnation))?;
            let mut drops = rt.dropped.clone();
            if rt.spans_overflow_bytes > 0 {
                // Surface coordinator-side truncation the same way a
                // thread-cap drop is surfaced: an explicit drop entry
                // (tid 9999 marks the collection plane itself).
                drops.push((9999, rt.spans_overflow_bytes));
            }
            procs.push(ProcTelemetry::for_rank(
                rt.rank as u64,
                rt.incarnation,
                rt.clock_offset_ns,
                spans,
                drops,
            ));
        }
        Ok(merge::merged_chrome_trace(&procs))
    }

    /// Aggregated metric records: the coordinator's current snapshot
    /// plus each rank's last shipped snapshot tagged with
    /// `rank`/`incarnation`.
    pub fn merged_metric_records(&self) -> Result<Vec<MetricRecord>, String> {
        let mut out = tyxe_obs::metrics::snapshot();
        for rt in &self.ranks {
            if rt.metrics_jsonl.is_empty() {
                continue;
            }
            let recs = tyxe_obs::metrics::records_from_jsonl(&rt.metrics_jsonl)
                .map_err(|e| format!("rank {} inc {} metrics: {e}", rt.rank, rt.incarnation))?;
            out.extend(merge::tag_records(
                recs,
                &[("rank", &rt.rank.to_string()), ("incarnation", &rt.incarnation.to_string())],
            ));
        }
        Ok(out)
    }

    /// Serialize [`DistTelemetry::merged_metric_records`] as JSONL.
    pub fn merged_metrics_jsonl(&self) -> Result<String, String> {
        let mut s = String::new();
        for rec in self.merged_metric_records()? {
            s.push_str(&rec.to_json());
            s.push('\n');
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_accumulation_respects_the_byte_cap() {
        let mut rt = RankTelemetry { rank: 1, ..Default::default() };
        let line = "{\"name\":\"s\",\"tid\":0,\"depth\":0,\"start_ns\":1,\"dur_ns\":1,\
                    \"span_id\":1}\n";
        rt.append_spans(line);
        assert_eq!(rt.spans_jsonl, line);
        // A shipment that would blow the cap is counted, not stored.
        let huge = "x".repeat(RANK_SPANS_CAP_BYTES);
        rt.append_spans(&huge);
        assert_eq!(rt.spans_jsonl, line);
        assert_eq!(rt.spans_overflow_bytes, huge.len() as u64);
    }

    #[test]
    fn merged_outputs_cover_all_ranks() {
        let rt = RankTelemetry {
            rank: 2,
            incarnation: 1,
            clock_offset_ns: -1_000,
            spans_jsonl: "{\"name\":\"dist.worker.step\",\"tid\":0,\"depth\":0,\
                          \"start_ns\":5000,\"dur_ns\":100,\"span_id\":9,\"trace_id\":3,\
                          \"parent_span\":2}\n"
                .to_string(),
            dropped: vec![],
            metrics_jsonl: "{\"name\":\"w.metric\",\"value\":4.0,\"unit\":\"count\",\
                            \"tags\":{}}\n"
                .to_string(),
            last_words: None,
            spans_overflow_bytes: 0,
        };
        let tel = DistTelemetry { ranks: vec![rt] };
        let doc = tel.merged_chrome_trace().unwrap();
        let stats = tyxe_obs::validate::validate_chrome_trace(&doc).unwrap();
        assert!(stats.process_names.contains("coordinator"));
        assert!(stats.process_names.contains("rank2-inc1"));
        assert!(stats.span_names.contains("dist.worker.step"));

        let recs = tel.merged_metric_records().unwrap();
        let w = recs.iter().find(|r| r.name == "w.metric").unwrap();
        assert!(w.tags.contains(&("rank".to_string(), "2".to_string())));
        assert!(w.tags.contains(&("incarnation".to_string(), "1".to_string())));
    }
}
