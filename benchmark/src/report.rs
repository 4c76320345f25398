//! Runs one workload in this process and reports it: every metric by name
//! with its unit, a result file under `benchmark/out/`, the chrome trace of
//! a traced run, and the contract's result object as the last line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tyxe_obs::json::{self, escape, Json};

use crate::calib;
use crate::run::Run;
use crate::workloads::run_workload;
use crate::Args;

/// Fits whose step-level spans are kept in the chrome trace.
const TRACE_DETAILED_FITS: u32 = 2;

/// Where a run's result files go unless `--out` names another directory.
pub const DEFAULT_OUT_DIR: &str = "benchmark/out";

/// File stem of a run's result: `<workload>` untraced, `<workload>.traced`.
pub fn result_path(dir: &Path, workload: &str, trace: bool) -> PathBuf {
    dir.join(if trace {
        format!("{workload}.traced.json")
    } else {
        format!("{workload}.json")
    })
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[(&'static str, &'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `obs.trace_overhead_share`: this traced run's `total_s` ÷ that of the
/// untraced run of the same workload and size in the output directory − 1
/// (`run.sh` makes the untraced run first, with the same seed; a workload
/// does the same amount of work on every seed). `None` when there is no
/// such run.
fn trace_overhead_share(args: &Args, total_s: f64) -> Option<f64> {
    let path = result_path(Path::new(&args.out), &args.workload, false);
    let untraced = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let num = |key: &str| untraced.get(key).and_then(Json::as_num);
    let same_size = num("seconds") == Some(args.seconds)
        && untraced.get("smoke") == Some(&Json::Bool(args.smoke));
    if !same_size {
        return None;
    }
    Some(total_s / num("total_s")? - 1.0)
}

/// What one run measured.
pub struct Measured {
    pub run: Run,
    /// The declared metrics of the run's mode: end-to-end (`--trace 0`) or
    /// per-layer (`--trace 1`).
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Process start to the quality metric (warm probes excluded).
    pub total_s: f64,
    /// Every output check passed and no operation failed.
    pub correct: bool,
}

/// Runs the workload in this process and assembles its metrics.
pub fn measure(args: &Args, t0: Instant) -> Result<Measured, String> {
    let mut run = Run::new(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        t0,
    );
    let root = run.tr.begin("run");
    let total_s = run_workload(&mut run)?;
    run.tr.end(root);

    let metrics = if args.trace {
        let overhead = trace_overhead_share(args, total_s);
        run.info.insert(
            "trace_overhead_base",
            if overhead.is_some() {
                "untraced run of the same flags"
            } else {
                "none found: obs.trace_overhead_share reads 0"
            }
            .to_string(),
        );
        run.per_layer(overhead.unwrap_or(0.0))
    } else {
        run.end_to_end(total_s)
    };
    for (name, _, v) in &metrics {
        if !v.is_finite() {
            run.fail(format!("metric {name} is not finite"));
        }
    }
    let correct = run.checks.iter().all(|c| c.ok) && run.failed == 0;
    Ok(Measured {
        run,
        metrics,
        total_s,
        correct,
    })
}

/// One cold-process run, reported. `Ok(true)` when every output check
/// passed.
pub fn run_once(args: &Args, t0: Instant) -> Result<bool, String> {
    let Measured {
        run,
        metrics,
        total_s,
        correct,
    } = measure(args, t0)?;
    let mean_nll = run.test_nll();
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" }
    );
    for (name, unit, v) in &metrics {
        println!("  {name:<42} {v:>18.6} {unit}");
    }
    if !args.trace {
        // End-to-end metrics of ISSUE 13 that `BENCHMARK.json` cannot bound
        // (see `Run::end_to_end`); the traced run has them in its metrics.
        println!("  {:<42} {mean_nll:>18.6} nats", "test_nll");
        let share = run.failed_ops_share();
        println!("  {:<42} {share:>18.6} ratio", "failed_ops_share");
    }
    // What the wall clock had, before calibration (`calib.rs`).
    let (cal_units, cal_unit_us) = calib::summary();
    println!("  {:<42} {:>18.6} s", "total_wall_s", run.total_wall_s);
    println!(
        "  {:<42} {:>18.6} ratio",
        "machine_factor", run.machine_factor
    );
    println!("  {:<42} {cal_unit_us:>18.6} us", "calibration_unit_us_p50");
    for c in &run.checks {
        println!(
            "  check [{}] {} ({})",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    for f in &run.failures {
        println!("  failed op: {f}");
    }

    let dir = PathBuf::from(&args.out);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut file = String::from("{\n");
    let _ = writeln!(file, "  \"workload\": \"{}\",", escape(&args.workload));
    let _ = writeln!(file, "  \"seed\": {},", args.seed);
    let _ = writeln!(file, "  \"seconds\": {},", num(args.seconds));
    let _ = writeln!(file, "  \"trace\": {},", args.trace);
    let _ = writeln!(file, "  \"smoke\": {},", args.smoke);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(file, "  \"nproc\": {nproc},");
    let _ = writeln!(file, "  \"threads\": {},", tyxe_par::num_threads());
    // Every run uses the library's default thread count on whatever box
    // it is on; no run varies it, so no number here is a scaling claim.
    let _ = writeln!(file, "  \"scaling_measured\": false,");
    let _ = writeln!(file, "  \"correct\": {correct},");
    let _ = writeln!(file, "  \"attempted\": {},", run.attempted);
    let _ = writeln!(file, "  \"failed\": {},", run.failed);
    let _ = writeln!(file, "  \"total_s\": {},", num(total_s));
    let _ = writeln!(file, "  \"total_wall_s\": {},", num(run.total_wall_s));
    let _ = writeln!(file, "  \"machine_factor\": {},", num(run.machine_factor));
    let _ = writeln!(file, "  \"calibration_units\": {cal_units},");
    let _ = writeln!(file, "  \"calibration_unit_us_p50\": {},", num(cal_unit_us));
    let _ = writeln!(file, "  \"calibration_s\": {},", num(calib::spent_s()));
    let share = run.failed_ops_share();
    let _ = writeln!(file, "  \"failed_ops_share\": {},", num(share));
    let _ = writeln!(file, "  \"test_nll\": {},", num(mean_nll));
    let _ = writeln!(
        file,
        "  \"test_nll_bits\": \"{:016x}\",",
        mean_nll.to_bits()
    );
    let per_fit: Vec<String> = run.nll.iter().map(|v| num(*v)).collect();
    let _ = writeln!(file, "  \"test_nll_per_fit\": [{}],", per_fit.join(", "));
    let failures: Vec<String> = run
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let _ = writeln!(file, "  \"failures\": [{}],", failures.join(", "));
    let checks: Vec<String> = run
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                escape(c.name),
                c.ok,
                escape(&c.detail)
            )
        })
        .collect();
    let _ = writeln!(file, "  \"checks\": [{}],", checks.join(", "));
    let info: Vec<String> = run
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v)))
        .collect();
    let _ = writeln!(file, "  \"info\": {{{}}},", info.join(", "));
    let _ = writeln!(
        file,
        "  \"wall_clock\": {},",
        metrics_json(&run.end_to_end_wall())
    );
    let _ = writeln!(file, "  \"metrics\": {}", metrics_json(&metrics));
    file.push_str("}\n");
    let path = result_path(&dir, &args.workload, args.trace);
    std::fs::write(&path, file).map_err(|e| format!("write {}: {e}", path.display()))?;
    if args.trace {
        let path = dir.join(format!("{}.trace.json", args.workload));
        std::fs::write(&path, run.tr.chrome_trace(TRACE_DETAILED_FITS))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        metrics_json(&metrics)
    );
    Ok(correct)
}
