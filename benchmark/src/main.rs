//! The repo benchmark (see `README.md`).
//!
//! ```text
//! tyxe-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! tyxe-benchmark all [--smoke] [--seed <n>] [--set <dir> [--runs <n>]]
//! tyxe-benchmark compare <set-a> <set-b> [--exact]
//! ```
//!
//! The first form is one cold-process run and is what `BENCHMARK.json`'s
//! command resolves to; its last line of standard output is the result
//! object of the benchmark contract.

mod calib;
#[cfg(test)]
mod contract_test;
mod report;
mod run;
mod spans;
mod suite;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

/// Behaviour switches of the library. A run with any of them set would
/// measure a configuration no user gets by default, so it is refused.
const REFUSED_ENV: [&str; 7] = [
    "TYXE_PLAN",
    "TYXE_POOL",
    "TYXE_PREDICT",
    "TYXE_PREDICT_CACHE",
    "TYXE_PREDICT_PLAN",
    "TYXE_NUM_THREADS",
    "TYXE_OBS",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Directory the result files are written to.
    pub out: String,
}

fn parse_run_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: run::RUN_SECONDS,
        trace: false,
        smoke: false,
        out: report::DEFAULT_OUT_DIR.to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = value()?.clone(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for name in REFUSED_ENV {
        if std::env::var_os(name).is_some() {
            eprintln!(
                "tyxe-benchmark: {name} is set; the benchmark measures library defaults only"
            );
            return ExitCode::from(2);
        }
    }
    let outcome = match argv.first().map(String::as_str) {
        Some("all") => suite::run_all(&argv[1..]),
        Some("compare") => suite::compare(&argv[1..]),
        _ => parse_run_args(&argv).and_then(|args| report::run_once(&args, t0)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("tyxe-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
