//! `tyxe-obs-validate` — jq-free schema checker for tyxe-obs exports,
//! run by `scripts/verify.sh` against the trace-emitting smoke fit.
//!
//! ```text
//! tyxe-obs-validate --trace out.json --metrics metrics.jsonl \
//!     --require-span-names core.supervisor.step,prob.svi.model \
//!     --require-threads 2 \
//!     --require-metrics par.pool.tasks,par.fault.injected_panics \
//!     --require-pids 1000,0,1 --require-process-names rank1-inc0 \
//!     --flight flight-1-0.jsonl
//! ```
//!
//! `--require-pids` asserts ≥1 span per listed pid (in merged traces
//! the pid is the rank); `--require-process-names` asserts the listed
//! `process_name` metadata entries exist (e.g. a killed worker's
//! pre-respawn incarnation); `--flight` validates a post-mortem
//! (flight) dump parses and is non-empty. A trace carrying `dropped_spans`
//! events prints a warning (the data is truncated) but still passes.
//!
//! Exits non-zero with a diagnostic on the first violated requirement.

use std::process::exit;

use tyxe_obs::validate::{validate_chrome_trace, validate_metrics_jsonl};

fn fail(msg: &str) -> ! {
    eprintln!("tyxe-obs-validate: {msg}");
    exit(1)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read `{path}`: {e}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut flight_paths: Vec<String> = Vec::new();
    let mut require_span_names: Vec<String> = Vec::new();
    let mut require_metrics: Vec<String> = Vec::new();
    let mut require_pids: Vec<u64> = Vec::new();
    let mut require_process_names: Vec<String> = Vec::new();
    let mut require_threads: usize = 0;
    let mut require_depth: u64 = 0;

    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--trace" => trace_path = Some(value("--trace")),
            "--metrics" => metrics_path = Some(value("--metrics")),
            "--flight" => flight_paths.push(value("--flight")),
            "--require-span-names" => require_span_names
                .extend(value("--require-span-names").split(',').map(str::to_string)),
            "--require-metrics" => {
                require_metrics.extend(value("--require-metrics").split(',').map(str::to_string))
            }
            "--require-pids" => {
                for p in value("--require-pids").split(',') {
                    require_pids.push(
                        p.parse().unwrap_or_else(|_| fail("--require-pids needs integers")),
                    );
                }
            }
            "--require-process-names" => require_process_names
                .extend(value("--require-process-names").split(',').map(str::to_string)),
            "--require-threads" => {
                require_threads = value("--require-threads")
                    .parse()
                    .unwrap_or_else(|_| fail("--require-threads needs an integer"))
            }
            "--require-depth" => {
                require_depth = value("--require-depth")
                    .parse()
                    .unwrap_or_else(|_| fail("--require-depth needs an integer"))
            }
            other => fail(&format!("unknown argument `{other}`")),
        }
    }
    if trace_path.is_none() && metrics_path.is_none() && flight_paths.is_empty() {
        fail("nothing to do: pass --trace, --metrics and/or --flight");
    }

    if let Some(path) = &trace_path {
        let stats = validate_chrome_trace(&read(path))
            .unwrap_or_else(|e| fail(&format!("`{path}`: {e}")));
        println!(
            "trace ok: {} events, {} spans, {} threads, {} span names, max depth {}",
            stats.events,
            stats.spans,
            stats.threads.len(),
            stats.span_names.len(),
            stats.max_depth,
        );
        if stats.dropped_spans > 0 {
            eprintln!(
                "tyxe-obs-validate: warning: `{path}` reports {} dropped span(s) — \
                 a thread hit its buffer cap, trace is incomplete there",
                stats.dropped_spans
            );
        }
        for name in &require_span_names {
            if !stats.span_names.contains(name) {
                fail(&format!("`{path}`: required span name `{name}` not present"));
            }
        }
        for pid in &require_pids {
            match stats.spans_by_pid.get(pid) {
                Some(n) if *n >= 1 => {}
                _ => fail(&format!("`{path}`: no spans from required pid {pid}")),
            }
        }
        for name in &require_process_names {
            if !stats.process_names.contains(name) {
                fail(&format!("`{path}`: required process name `{name}` not present"));
            }
        }
        if stats.threads.len() < require_threads {
            fail(&format!(
                "`{path}`: trace covers {} thread(s), need >= {require_threads}",
                stats.threads.len()
            ));
        }
        if stats.max_depth < require_depth {
            fail(&format!(
                "`{path}`: max span depth {} < required {require_depth}",
                stats.max_depth
            ));
        }
    }

    if let Some(path) = &metrics_path {
        let stats = validate_metrics_jsonl(&read(path))
            .unwrap_or_else(|e| fail(&format!("`{path}`: {e}")));
        println!("metrics ok: {} records, {} names", stats.records, stats.names.len());
        for name in &require_metrics {
            if !stats.names.contains(name) {
                fail(&format!("`{path}`: required metric `{name}` not present"));
            }
        }
    }

    for path in &flight_paths {
        let dump = tyxe_obs::flight::read_flight_file(std::path::Path::new(path))
            .unwrap_or_else(|e| fail(&format!("`{path}`: {e}")));
        if dump.spans.is_empty() && dump.notes.is_empty() {
            fail(&format!("`{path}`: flight dump has no spans or notes"));
        }
        println!(
            "flight ok: rank {} incarnation {} reason `{}`: {} spans, {} notes, {} metrics",
            dump.rank,
            dump.incarnation,
            dump.reason,
            dump.spans.len(),
            dump.notes.len(),
            dump.metrics.len(),
        );
    }
}
