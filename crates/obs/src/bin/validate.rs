//! `tyxe-obs-validate` — jq-free schema checker for tyxe-obs exports,
//! run by `scripts/verify.sh` against the trace-emitting smoke fit.
//!
//! ```text
//! tyxe-obs-validate --trace out.json --metrics metrics.jsonl \
//!     --require-span-names core.supervisor.step,prob.svi.model \
//!     --require-threads 2 \
//!     --require-metrics par.pool.tasks,core.supervisor.retries
//! ```
//!
//! A trace carrying `dropped_spans` events prints a warning (the data is
//! truncated) but still passes.
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
    let mut require_span_names: Vec<String> = Vec::new();
    let mut require_metrics: Vec<String> = Vec::new();
    let mut require_threads: usize = 0;
    let mut require_depth: u64 = 0;

    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--trace" => trace_path = Some(value("--trace")),
            "--metrics" => metrics_path = Some(value("--metrics")),
            "--require-span-names" => require_span_names
                .extend(value("--require-span-names").split(',').map(str::to_string)),
            "--require-metrics" => {
                require_metrics.extend(value("--require-metrics").split(',').map(str::to_string))
            }
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
    if trace_path.is_none() && metrics_path.is_none() {
        fail("nothing to do: pass --trace and/or --metrics");
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
}
