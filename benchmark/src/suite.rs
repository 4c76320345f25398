//! `all`: the five workloads, untraced then traced, each in a fresh
//! process, with the checks that need two runs (traced ≡ untraced bits,
//! HMC vs mean-field band). `compare`: two result sets against the bounds
//! of `BENCHMARK.json`, ISSUE 13's 2 % on `test_nll` and 0 on
//! `failed_ops_share`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use tyxe_obs::json::{self, Json};

use crate::report::{result_path, DEFAULT_OUT_DIR};
use crate::run::RUN_SECONDS;
use crate::spans::{median, quartiles};
use crate::workloads::WORKLOADS;

/// Per-layer counts that repeat exactly between two runs of one seed and
/// one commit.
const EXACT_COUNTERS: [&str; 4] = [
    "tensor.gemm.flops_per_step",
    "tensor.conv2d.calls_per_step",
    "prob.mcmc.leapfrog_steps",
    "tensor.plan.replay_share",
];

/// ISSUE 13's bound on `test_nll`: set b's median may be worse than set
/// a's by this share of `|median a|`. Not in `BENCHMARK.json`, whose
/// bounds are shares of a median that is never 0 (see `Run::end_to_end`).
const TEST_NLL_BOUND: f64 = 0.02;

/// Seeds of the runs of one set are this far apart, so no two runs share
/// a fit (fit `i` of a run uses `seed + i`).
const SEED_STRIDE: u64 = 1000;

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_num()
}

fn text<'a>(result: &'a Json, key: &str) -> &'a str {
    result.get(key).and_then(Json::as_str).unwrap_or("")
}

fn info_num(result: &Json, key: &str) -> Option<f64> {
    result.get("info")?.get(key)?.as_str()?.parse().ok()
}

/// Runs one workload in a child process; `Ok(true)` when it exited 0.
fn spawn_run(
    workload: &str,
    seed: u64,
    trace: bool,
    smoke: bool,
    out: &Path,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    Ok(status.success())
}

/// `all [--smoke] [--seed <n>] [--set <name>] [--runs <n>]`.
pub fn run_all(argv: &[String]) -> Result<bool, String> {
    let (mut smoke, mut seed, mut set, mut runs) = (false, 1u64, None::<String>, 1u64);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--set" => set = Some(value()?.clone()),
            "--runs" => runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if runs > 1 && set.is_none() {
        return Err("--runs needs --set <name>".to_string());
    }

    let mut ok = true;
    for r in 0..runs {
        let dir = match &set {
            Some(name) => set_dir(name).join(format!("run{r}")),
            None => PathBuf::from(DEFAULT_OUT_DIR),
        };
        let run_seed = seed + r * SEED_STRIDE;
        for trace in [false, true] {
            for w in WORKLOADS {
                ok &= spawn_run(w, run_seed, trace, smoke, &dir)?;
            }
        }
        ok &= cross_run_checks(&dir)?;
    }
    println!(
        "{}",
        if ok {
            "benchmark: all output checks passed"
        } else {
            "benchmark: FAILED"
        }
    );
    Ok(ok)
}

/// The checks that need more than one process: the traced run must
/// reproduce the untraced `test_nll` bit for bit, and HMC's band must be
/// wider at the edges than mean-field SVI's.
fn cross_run_checks(dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    let mut band = BTreeMap::new();
    println!("cross-run checks ({})", dir.display());
    for w in WORKLOADS {
        let plain = read_json(&result_path(dir, w, false))?;
        let traced = read_json(&result_path(dir, w, true))?;
        let same = text(&plain, "test_nll_bits") == text(&traced, "test_nll_bits")
            && !text(&plain, "test_nll_bits").is_empty();
        ok &= same;
        println!(
            "  check [{}] {w}: traced test_nll bits {} == untraced {}",
            if same { "ok" } else { "FAILED" },
            text(&traced, "test_nll_bits"),
            text(&plain, "test_nll_bits"),
        );
        if let Some(ratio) = info_num(&plain, "edge_data_sd_ratio") {
            band.insert(w, ratio);
        }
    }
    if let (Some(hmc), Some(svi)) = (band.get("fig1_hmc"), band.get("fig1_svi_shared")) {
        let wider = hmc > svi;
        ok &= wider;
        println!(
            "  check [{}] fig1_hmc edge/data sd ratio {hmc:.3} > fig1_svi_shared's {svi:.3}",
            if wider { "ok" } else { "FAILED" }
        );
    }
    Ok(ok)
}

fn set_dir(name: &str) -> PathBuf {
    let given = PathBuf::from(name);
    if given.is_dir() {
        given
    } else {
        PathBuf::from(DEFAULT_OUT_DIR).join(name)
    }
}

/// The run directories of a set: its `run*` sub-directories, or the set
/// directory itself when it holds the result files directly.
fn run_dirs(set: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(set)
        .map_err(|e| format!("read {}: {e}", set.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("run"))
        })
        .collect();
    dirs.sort();
    if dirs.is_empty() {
        dirs.push(set.to_path_buf());
    }
    Ok(dirs)
}

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let spec = read_json(Path::new("BENCHMARK.json"))?;
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: text(m, "name").to_string(),
                unit: text(m, "unit").to_string(),
                lower_is_better: text(m, "better") == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_num)
                    .ok_or("end_to_end metric without bound")?,
            })
        })
        .collect()
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// One metric × workload row of `compare`: both medians and spreads, how
/// much worse b's median is, and the verdict against `m.bound`. Returns
/// whether the row regressed. `repeats_exactly` is for a value that has no
/// run-to-run noise (`test_nll` on one set of seeds): its spread is the
/// seeds', and says nothing about whether a difference is resolved.
fn verdict_row(w: &str, m: &Bound, va: &[f64], vb: &[f64], repeats_exactly: bool) -> bool {
    let (ma, mb) = (median(va), median(vb));
    let worse = if m.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let (sa, sb) = (spread(va), spread(vb));
    let min = |v: &[f64]| v.iter().cloned().fold(f64::MAX, f64::min);
    let max = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);
    let b_beats_every_a = if m.lower_is_better {
        max(vb) < min(va)
    } else {
        min(vb) > max(va)
    };
    let verdict = if worse > m.bound {
        "REGRESSED"
    } else if sa.max(sb) > m.bound && !b_beats_every_a && !repeats_exactly {
        "unresolved"
    } else if worse < -m.bound {
        "improved"
    } else {
        "unchanged"
    };
    println!(
        "{w:<18} {:<28} {ma:>14.6} {mb:>14.6} {:>7.1}% {:>7.1}% {:>7.1}%  {verdict} (bound {:.0}%, {})",
        m.name,
        sa * 100.0,
        sb * 100.0,
        worse * 100.0,
        m.bound * 100.0,
        m.unit
    );
    worse > m.bound
}

/// `compare <set-a> <set-b> [--exact]`: `Ok(true)` unless a metric of b is
/// worse than a's beyond its bound or an operation of b failed. Values
/// that repeat exactly for one seed on one commit (the `test_nll` bits,
/// the exact counters) are listed where they differ; with `--exact`, the
/// form the repeatability check of one commit uses, a difference fails.
pub fn compare(argv: &[String]) -> Result<bool, String> {
    let exact = argv.iter().any(|a| a == "--exact");
    let sets: Vec<&String> = argv.iter().filter(|a| *a != "--exact").collect();
    let [a, b] = sets[..] else {
        return Err("compare takes two result sets".to_string());
    };
    let (runs_a, runs_b) = (run_dirs(&set_dir(a))?, run_dirs(&set_dir(b))?);
    let bounds = bounds()?;
    let nll_bound = Bound {
        name: "test_nll".to_string(),
        unit: "nats".to_string(),
        lower_is_better: true,
        bound: TEST_NLL_BOUND,
    };
    let mut ok = true;

    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "spread a", "spread b", "worse by"
    );
    for w in WORKLOADS {
        let load = |dirs: &[PathBuf], trace: bool| -> Result<Vec<Json>, String> {
            dirs.iter()
                .map(|d| read_json(&result_path(d, w, trace)))
                .collect()
        };
        let (plain_a, plain_b) = (load(&runs_a, false)?, load(&runs_b, false)?);
        for m in &bounds {
            let values = |rs: &[Json]| -> Vec<f64> {
                rs.iter().filter_map(|r| metric(r, &m.name)).collect()
            };
            let (va, vb) = (values(&plain_a), values(&plain_b));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{w}: metric {} missing from a result set", m.name));
            }
            ok &= !verdict_row(w, m, &va, &vb, false);
        }
        let top = |rs: &[Json], key: &str| -> Vec<f64> {
            rs.iter()
                .filter_map(|r| r.get(key).and_then(Json::as_num))
                .collect()
        };
        let same_seeds = plain_a.len() == plain_b.len()
            && plain_a
                .iter()
                .zip(&plain_b)
                .all(|(ra, rb)| ra.get("seed") == rb.get("seed"));
        ok &= !verdict_row(
            w,
            &nll_bound,
            &top(&plain_a, "test_nll"),
            &top(&plain_b, "test_nll"),
            same_seeds,
        );
        let failed_b = top(&plain_b, "failed_ops_share")
            .into_iter()
            .fold(0.0, f64::max);
        if failed_b > 0.0 {
            ok = false;
            println!("{w:<18} failed_ops_share {failed_b} in set b  FAILED (must be 0)");
        }

        // Same run index and seed: equal on one commit, not merely close.
        let mut differs = false;
        for (r, (ra, rb)) in plain_a.iter().zip(&plain_b).enumerate() {
            if ra.get("seed") == rb.get("seed")
                && text(ra, "test_nll_bits") != text(rb, "test_nll_bits")
            {
                differs = true;
                println!(
                    "{w:<18} run{r}: test_nll bits differ for one seed: {} vs {}",
                    text(ra, "test_nll_bits"),
                    text(rb, "test_nll_bits")
                );
            }
        }
        let (traced_a, traced_b) = (load(&runs_a, true)?, load(&runs_b, true)?);
        for (r, (ra, rb)) in traced_a.iter().zip(&traced_b).enumerate() {
            if ra.get("seed") != rb.get("seed") {
                continue;
            }
            for name in EXACT_COUNTERS {
                let (x, y) = (metric(ra, name), metric(rb, name));
                if x != y {
                    differs = true;
                    println!("{w:<18} run{r}: {name} changed: {x:?} vs {y:?}");
                }
            }
        }
        if differs && exact {
            ok = false;
            println!("{w:<18} FAILED: --exact and a same-seed value differs");
        }
    }
    println!(
        "{}",
        if ok {
            "compare: no regression beyond a bound"
        } else {
            "compare: FAILED"
        }
    );
    Ok(ok)
}
