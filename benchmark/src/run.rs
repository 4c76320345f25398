//! One benchmark run: the accumulators the workloads fill, the helpers
//! that time a step / a predict call / a probe from outside the library,
//! and the assembly of the end-to-end and per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use tyxe::guides::Guide;
use tyxe::likelihoods::Likelihood;
use tyxe::VariationalBnn;
use tyxe_nn::{Forward, Module};
use tyxe_prob::optim::Optimizer;
use tyxe_tensor::Tensor;

use crate::calib;
use crate::spans::{mean, median, tail, Tracer};

/// `run_seconds` of `BENCHMARK.json`: the run length the repeat counts in
/// `workloads.rs` are sized for. `--seconds` scales the repeat counts by
/// `seconds / RUN_SECONDS`, so inputs stay a pure function of the flags.
pub const RUN_SECONDS: f64 = 24.0;

/// Calls a warm probe makes at most, and the wall budget that cuts it
/// short on the expensive layers (a ResNet forward+backward is ~50 ms);
/// `(full, smoke)`.
const PROBE_CALLS: (usize, usize) = (200, 20);
const PROBE_BUDGET_S: (f64, f64) = (0.25, 0.02);
const PROBE_MIN_CALLS: (usize, usize) = (5, 2);

/// Summed counter values by metric name (tags folded together).
pub type Counters = BTreeMap<String, f64>;

pub fn counters_now() -> Counters {
    let mut out = Counters::new();
    for rec in tyxe_obs::metrics::snapshot() {
        // Histograms flatten into `stat`-tagged records; the benchmark
        // only reads counters and gauges.
        if rec.tags.iter().any(|(k, _)| k == "stat") {
            continue;
        }
        *out.entry(rec.name).or_insert(0.0) += rec.value;
    }
    out
}

fn add_delta(acc: &mut Counters, before: &Counters, after: &Counters) {
    for (name, v) in after {
        let d = v - before.get(name).copied().unwrap_or(0.0);
        *acc.entry(name.clone()).or_insert(0.0) += d;
    }
}

/// One output check ("same seed ⇒ same bits" is checked across runs by
/// `suite.rs`; these are the ones a single run can decide).
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// A stretch of the run's clock, in seconds since `t0`.
#[derive(Clone, Copy)]
struct Window {
    from_s: f64,
    to_s: f64,
}

/// The stretches together, calibration ticks taken out (`calib::measure`).
fn measure(windows: &[Window]) -> calib::Measured {
    let mut sum = calib::Measured::default();
    for w in windows {
        sum += calib::measure(w.from_s, w.to_s);
    }
    sum
}

/// One fit's share of the run's throughput metrics.
#[derive(Default)]
struct PerFit {
    steps: f64,
    /// The fit phases (one; twenty chunks a seed on `tab2_gcn_mf`).
    fit: Vec<Window>,
    /// Where this fit's step latencies start in `Run::step_ms`.
    first_step: usize,
}

/// One round of prediction: a `predict` call and the `evaluate` calls on
/// the same posterior that follow it.
struct PredictRound {
    /// Σ input rows × samples over the calls.
    sample_points: f64,
    calls: Vec<Window>,
}

pub struct Run {
    pub tr: Tracer,
    pub workload: String,
    pub seed: u64,
    pub smoke: bool,
    /// `--seconds / RUN_SECONDS`.
    pub scale: f64,
    pub t0: Instant,

    // --- end-to-end accumulators (filled in both modes) ---
    /// Each set-up; the run's first counts from process start.
    setups: Vec<Window>,
    pub steps: u64,
    /// Latency of every SVI step; for MCMC, each chain's fit wall ÷ its
    /// transitions (`McmcBnn::fit` is one call).
    pub step_ms: Vec<f64>,
    pub first_step_ms: Vec<f64>,
    pub predict_call_ms: Vec<f64>,
    pub first_call_ms: Vec<f64>,
    /// What each fit (chain, seed) of the run did, for the throughputs
    /// that are medians over the fits.
    per_fit: Vec<PerFit>,
    predict_rounds: Vec<PredictRound>,
    /// Held-out NLL per fit.
    pub nll: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub checks: Vec<Check>,

    // --- per-layer accumulators (traced mode) ---
    /// Counter deltas summed over the `fit` phases.
    pub fit_counters: Counters,
    /// Counter deltas over the whole measured region (probes excluded).
    pub run_counters: Counters,
    run_counters_start: Counters,
    /// Values a workload sets directly (probe results come from spans).
    pub layer: BTreeMap<&'static str, f64>,
    /// Free-text facts for the result file (unsupported-plan reasons, sizes).
    pub info: BTreeMap<&'static str, String>,
    starts_fit: bool,
    starts_predict: bool,
    /// Set by `end_measured`: process start to the quality metric as the
    /// wall clock had it, calibration ticks included, and how much slower
    /// than nominal the machine ran over it.
    pub total_wall_s: f64,
    pub machine_factor: f64,
}

impl Run {
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
        smoke: bool,
        t0: Instant,
    ) -> Run {
        calib::start(t0);
        if trace {
            // Only to make the gated library counters (GEMM flops, conv
            // calls, pool scopes, leapfrog steps) count; the benchmark
            // reads no library span.
            tyxe_obs::set_enabled(true);
        }
        Run {
            tr: Tracer::new(trace, t0),
            workload: workload.to_string(),
            seed,
            smoke,
            scale: seconds / RUN_SECONDS,
            t0,
            setups: Vec::new(),
            per_fit: Vec::new(),
            predict_rounds: Vec::new(),
            steps: 0,
            step_ms: Vec::new(),
            first_step_ms: Vec::new(),
            predict_call_ms: Vec::new(),
            first_call_ms: Vec::new(),
            nll: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            checks: Vec::new(),
            fit_counters: Counters::new(),
            run_counters: Counters::new(),
            run_counters_start: if trace {
                counters_now()
            } else {
                Counters::new()
            },
            layer: BTreeMap::new(),
            info: BTreeMap::new(),
            starts_fit: true,
            starts_predict: true,
            total_wall_s: 0.0,
            machine_factor: 1.0,
        }
    }

    /// Repeat count for this run: `base` at `--seconds == RUN_SECONDS`,
    /// `smoke` under `--smoke`.
    pub fn repeats(&self, base: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            ((base as f64 * self.scale).round() as usize).max(1)
        }
    }

    /// Step (or transition) count: full size, or the `--smoke` size.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Marks the start of fit/chain/seed number `i`: the next step and the
    /// next predict call are that fit's cold ones.
    pub fn begin_fit(&mut self, i: usize) {
        self.per_fit.push(PerFit {
            first_step: self.step_ms.len(),
            ..PerFit::default()
        });
        self.tr.fit = i as u32;
        self.starts_fit = true;
        self.starts_predict = true;
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// The run's quality metric: held-out NLL, mean over the fits.
    pub fn test_nll(&self) -> f64 {
        mean(&self.nll)
    }

    /// Quality gate: a full-size run must reach `limit` nats held-out NLL.
    /// The limits sit well above what any seed reaches, so they catch a
    /// broken fit, not noise; finer changes show in the same-seed bits
    /// that `compare` checks.
    pub fn check_quality(&mut self, limit: f64) {
        if self.smoke {
            return;
        }
        let nll = self.test_nll();
        self.check(
            "held-out NLL within the workload's limit",
            nll <= limit,
            format!("test_nll {nll:.4} <= {limit}"),
        );
    }

    /// One fit's set-up: data, net, prior, guide or kernel, and on
    /// `tab1_resnet_mf` the pretraining. `build` runs `times` times and the
    /// last result is kept: a sub-millisecond constructor timed three times
    /// a run (`fig1_svi_lr`, `fig1_hmc`) does not give a median that
    /// repeats, so those workloads set each fit up several times. Every
    /// build seeds its own RNGs, so all of them are the same model. The
    /// first set-up of a run counts from process start.
    pub fn setup<R>(&mut self, times: usize, mut build: impl FnMut(&mut Tracer) -> R) -> R {
        let mut last = None;
        for _ in 0..times.max(1) {
            let from_s = if self.setups.is_empty() {
                0.0
            } else {
                self.now_s()
            };
            let out = self.tr.span("setup", &mut build);
            let to_s = self.now_s();
            self.setups.push(Window { from_s, to_s });
            self.tr
                .span("bench.calibrate", |_| calib::tick(calib::SEAM_GAP_S));
            last = Some(out);
        }
        last.expect("at least one build")
    }

    fn now_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// A fit phase: the `fit` span, its wall time, and (traced) the deltas
    /// of the library counters across it.
    pub fn fit_phase<R>(&mut self, f: impl FnOnce(&mut Run) -> R) -> R {
        let before = self
            .tr
            .on
            .then(|| self.tr.span("bench.counters", |_| counters_now()));
        let id = self.tr.begin("fit");
        let steps_before = self.steps;
        let from_s = self.now_s();
        let out = f(self);
        let to_s = self.now_s();
        self.tr.end(id);
        let fit = self.per_fit.last_mut().expect("begin_fit first");
        fit.steps += (self.steps - steps_before) as f64;
        fit.fit.push(Window { from_s, to_s });
        if let Some(before) = before {
            let after = self.tr.span("bench.counters", |_| counters_now());
            add_delta(&mut self.fit_counters, &before, &after);
        }
        out
    }

    /// One SVI step, split where the public API splits it, so the traced
    /// run can time the ELBO forward/backward and the optimizer apart.
    pub fn svi_step<M, L, G, I>(
        &mut self,
        bnn: &VariationalBnn<M, L, G>,
        x: &I,
        y: &Tensor,
        optim: &mut dyn Optimizer,
    ) where
        M: Module + Forward<I, Output = Tensor>,
        L: Likelihood,
        G: Guide,
        I: std::any::Any,
    {
        let start = Instant::now();
        let loss = self.tr.span("core.bnn.svi_fwd_bwd", |_| {
            bnn.svi_forward_backward(x, y, optim)
        });
        self.tr.span("prob.optim.step", |_| optim.step());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.step_ms.push(ms);
        if self.starts_fit {
            self.first_step_ms.push(ms);
            self.starts_fit = false;
        }
        self.steps += 1;
        self.attempted += 1;
        calib::tick(calib::FIT_GAP_S);
        if !loss.is_finite() {
            self.fail(format!(
                "non-finite loss at step {} of fit {}",
                self.steps, self.tr.fit
            ));
        }
    }

    /// One chain of `transitions` MCMC transitions (warm-up included),
    /// timed by `clock`: `McmcBnn::fit` is one call, so a transition is
    /// priced as the chain's wall (less the calibration units its kernel
    /// wrapper ran) ÷ its transitions.
    pub fn chain(&mut self, transitions: usize, clock: impl FnOnce(&mut Tracer)) {
        let from_s = self.now_s();
        clock(&mut self.tr);
        let wall_s = calib::measure(from_s, self.now_s()).wall_s;
        self.step_ms.push(wall_s * 1e3 / transitions as f64);
        self.steps += transitions as u64;
        self.attempted += transitions as u64;
    }

    /// A `predict`/`evaluate` call over `rows` inputs with `samples`
    /// posterior samples. A call named `predict` opens a round, one named
    /// anything else joins the round before it.
    pub fn predict_call<R>(
        &mut self,
        name: &'static str,
        rows: usize,
        samples: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let from_s = self.now_s();
        let out = self.tr.span(name, |_| f());
        let to_s = self.now_s();
        self.tr
            .span("bench.calibrate", |_| calib::tick(calib::SEAM_GAP_S));
        if name == "predict" || self.predict_rounds.is_empty() {
            self.predict_rounds.push(PredictRound {
                sample_points: 0.0,
                calls: Vec::new(),
            });
        }
        let round = self.predict_rounds.last_mut().expect("just pushed");
        round.sample_points += (rows * samples) as f64;
        round.calls.push(Window { from_s, to_s });
        let ms = (to_s - from_s) * 1e3;
        self.predict_call_ms.push(ms);
        if self.starts_predict {
            self.first_call_ms.push(ms);
            self.starts_predict = false;
        }
        self.attempted += 1;
        out
    }

    /// Counts a prediction tensor as failed unless it has `shape` and only
    /// finite entries.
    pub fn check_prediction(&mut self, what: &str, t: &Tensor, shape: &[usize]) {
        if t.shape() != shape {
            self.fail(format!("{what}: shape {:?}, expected {shape:?}", t.shape()));
        } else if t.to_vec().iter().any(|v| !v.is_finite()) {
            self.fail(format!("{what}: non-finite prediction"));
        }
    }

    /// Closes the measured region: everything after this (the warm probes)
    /// is outside `total_s` and the counter deltas. Returns `total_s`:
    /// process start to here, less the calibration units, at nominal
    /// machine speed.
    pub fn end_measured(&mut self) -> f64 {
        if self.tr.on {
            let now = counters_now();
            let start = std::mem::take(&mut self.run_counters_start);
            add_delta(&mut self.run_counters, &start, &now);
        }
        self.total_wall_s = self.now_s();
        let total = calib::measure(0.0, self.total_wall_s);
        self.machine_factor = total.factor();
        total.nominal_s
    }

    /// Wall time of every fit phase, calibration ticks taken out.
    fn fit_wall_s(&self) -> f64 {
        self.per_fit.iter().map(|f| measure(&f.fit).wall_s).sum()
    }

    /// A warm probe: up to 200 calls of `f`, which opens the layer's span
    /// around the call it times; a wall budget cuts the expensive layers
    /// short. Traced runs only.
    pub fn probe(&mut self, mut f: impl FnMut(&mut Tracer)) {
        if !self.tr.on {
            return;
        }
        let (calls, min_calls, budget_s) = if self.smoke {
            (PROBE_CALLS.1, PROBE_MIN_CALLS.1, PROBE_BUDGET_S.1)
        } else {
            (PROBE_CALLS.0, PROBE_MIN_CALLS.0, PROBE_BUDGET_S.0)
        };
        let start = Instant::now();
        for i in 0..calls {
            if i >= min_calls && start.elapsed().as_secs_f64() > budget_s {
                break;
            }
            f(&mut self.tr);
        }
    }

    fn span_total_s(&self, name: &str) -> f64 {
        self.tr
            .durations_ns(name)
            .iter()
            .fold(0.0, |acc, ns| acc + ns)
            / 1e9
    }

    fn span_median(&self, name: &str, per: f64) -> f64 {
        median(&self.tr.durations_ns(name)) / per
    }

    /// The end-to-end metrics `(name, unit, value)`, as ISSUE 13 defines
    /// them, every time at nominal machine speed (`calib.rs`). `test_nll`
    /// and `failed_ops_share` are reported beside them (see `report.rs`):
    /// the first is negative on the regression workloads and the second
    /// must be 0, and the benchmark contract bounds a metric as a share of
    /// a median that is never 0.
    pub fn end_to_end(&self, total_s: f64) -> Vec<(&'static str, &'static str, f64)> {
        self.end_to_end_at(total_s, &|m| m.nominal_s)
    }

    /// The same metrics as the wall clock had them (calibration ticks
    /// still taken out), for the result file.
    pub fn end_to_end_wall(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.end_to_end_at(self.total_wall_s - calib::spent_s(), &|m| m.wall_s)
    }

    fn end_to_end_at(
        &self,
        total_s: f64,
        secs: &dyn Fn(calib::Measured) -> f64,
    ) -> Vec<(&'static str, &'static str, f64)> {
        // Step throughput and latency are taken per fit, prediction
        // throughput per round, and the run reports the median one: a stall
        // the calibration cannot see (a descheduled thread, a late wake-up)
        // then moves the fit or round it hits and not the run's value.
        let over_fits = |f: &dyn Fn(usize, &PerFit) -> f64| -> f64 {
            let per_fit: Vec<f64> = self
                .per_fit
                .iter()
                .enumerate()
                .map(|(i, fit)| f(i, fit))
                .collect();
            median(&per_fit)
        };
        let setups: Vec<f64> = self.setups.iter().map(|&w| secs(measure(&[w]))).collect();
        vec![
            ("setup_s", "s", median(&setups)),
            ("total_s", "s", total_s),
            (
                "fit_steps_per_s",
                "steps/s",
                over_fits(&|_, f| f.steps / secs(measure(&f.fit))),
            ),
            (
                "step_ms_p50",
                "ms",
                over_fits(&|i, f| {
                    let to = self
                        .per_fit
                        .get(i + 1)
                        .map_or(self.step_ms.len(), |next| next.first_step);
                    let fit = measure(&f.fit);
                    median(&self.step_ms[f.first_step..to]) * secs(fit) / fit.wall_s
                }),
            ),
            (
                "predict_sample_points_per_s",
                "pt.samples/s",
                median(
                    &self
                        .predict_rounds
                        .iter()
                        .map(|r| r.sample_points / secs(measure(&r.calls)))
                        .collect::<Vec<f64>>(),
                ),
            ),
            ("peak_rss_mb", "MiB", peak_rss_mib()),
        ]
    }

    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Every per-layer metric `(name, unit, value)`; a layer that does not
    /// run on this workload reports 0.
    /// `trace_overhead` is `obs.trace_overhead_share`.
    pub fn per_layer(&self, trace_overhead: f64) -> Vec<(&'static str, &'static str, f64)> {
        let fitc = |k: &str| self.fit_counters.get(k).copied().unwrap_or(0.0);
        let runc = |k: &str| self.run_counters.get(k).copied().unwrap_or(0.0);
        let l = |k: &str| self.layer.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let steps = self.steps as f64;

        let fwd_bwd = self.tr.durations_ns("core.bnn.svi_fwd_bwd");
        let (tail_pct, tail_ns) = tail(&fwd_bwd);
        let fwd_bwd_p50_us = median(&fwd_bwd) / 1e3;
        let nn_fwd_bwd_us = self.span_median("nn.fwd_bwd", 1e3);
        let predict_calls = self.predict_call_ms.len() as f64;
        let pool_hit = fitc("tensor.alloc.pool_hit");
        let pool_miss = fitc("tensor.alloc.pool_miss");
        let threads = tyxe_par::num_threads() as f64;

        let own = self.tr.self_times_ns();
        let attributed: u64 = self
            .tr
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name != "run")
            .map(|(_, &ns)| ns)
            .sum();
        let run_ns: u64 = self
            .tr
            .spans()
            .iter()
            .filter(|s| s.name == "run")
            .map(|s| s.dur_ns())
            .sum();

        vec![
            ("core.bnn.svi_fwd_bwd_ms_p50", "ms", fwd_bwd_p50_us / 1e3),
            ("core.bnn.svi_fwd_bwd_ms_tail", "ms", tail_ns / 1e6),
            ("core.bnn.svi_fwd_bwd_tail_pct", "%", tail_pct),
            ("core.bnn.svi_fwd_bwd_n", "count", fwd_bwd.len() as f64),
            ("core.bnn.first_step_ms", "ms", median(&self.first_step_ms)),
            (
                "core.bnn.bayes_overhead_ratio",
                "ratio",
                ratio(fwd_bwd_p50_us, nn_fwd_bwd_us),
            ),
            (
                "core.bnn.step_plan_unsupported",
                "count",
                l("core.bnn.step_plan_unsupported"),
            ),
            (
                "core.bnn.predict_plan_unsupported",
                "count",
                l("core.bnn.predict_plan_unsupported"),
            ),
            (
                "core.bnn.sampled_forward_us_p50",
                "us",
                self.span_median("core.bnn.sampled_forward", 1e3),
            ),
            (
                "core.bnn.sampled_forward_lr_us_p50",
                "us",
                self.span_median("core.bnn.sampled_forward_lr", 1e3),
            ),
            (
                "core.guides.sample_guide_us_p50",
                "us",
                self.span_median("core.guides.sample_guide", 1e3),
            ),
            (
                "core.poutine.lr_step_ratio",
                "ratio",
                l("core.poutine.lr_step_ratio"),
            ),
            (
                "core.likelihoods.log_likelihood_us_p50",
                "us",
                self.span_median("core.likelihoods.log_likelihood", 1e3),
            ),
            (
                "core.likelihoods.aggregate_us_p50",
                "us",
                self.span_median("core.likelihoods.aggregate", 1e3),
            ),
            (
                "core.predictive.call_ms_p50",
                "ms",
                median(&self.predict_call_ms),
            ),
            (
                "core.predictive.first_call_ms",
                "ms",
                median(&self.first_call_ms),
            ),
            (
                "core.predictive.cache_hit_ratio",
                "ratio",
                ratio(runc("predict.cache_hit"), predict_calls),
            ),
            (
                "core.predictive.plan_hit_ratio",
                "ratio",
                ratio(runc("predict.plan_hit"), predict_calls),
            ),
            ("core.predictive.samples", "count", runc("predict.samples")),
            (
                "prob.optim.step_us_p50",
                "us",
                self.span_median("prob.optim.step", 1e3),
            ),
            (
                "prob.mcmc.transition_ms_mean",
                "ms",
                l("prob.mcmc.transition_ms_mean"),
            ),
            (
                "prob.mcmc.potential_and_grad_us_p50",
                "us",
                self.span_median("prob.mcmc.potential_and_grad", 1e3),
            ),
            (
                "prob.mcmc.leapfrog_steps",
                "count",
                runc("prob.mcmc.leapfrog_steps"),
            ),
            (
                "prob.mcmc.divergences",
                "count",
                runc("prob.mcmc.divergences"),
            ),
            ("prob.mcmc.predict_ms", "ms", l("prob.mcmc.predict_ms")),
            (
                "nn.forward_us_p50",
                "us",
                self.span_median("nn.forward", 1e3),
            ),
            ("nn.fwd_bwd_us_p50", "us", nn_fwd_bwd_us),
            ("nn.pretrain_s", "s", self.span_total_s("nn.pretrain")),
            (
                "nn.pretrain_step_ms_p50",
                "ms",
                self.span_median("nn.pretrain_step", 1e6),
            ),
            (
                "tensor.gemm.flops_per_step",
                "flop",
                ratio(fitc("tensor.gemm.flops"), steps),
            ),
            (
                "tensor.conv2d.calls_per_step",
                "count",
                ratio(fitc("tensor.conv2d.calls"), steps),
            ),
            (
                "tensor.gemm.gflops_per_s",
                "Gflop/s",
                ratio(fitc("tensor.gemm.flops") / 1e9, self.fit_wall_s()),
            ),
            (
                "tensor.backward_us_p50",
                "us",
                self.span_median("tensor.backward", 1e3),
            ),
            (
                "tensor.plan.replay_share",
                "ratio",
                ratio(fitc("plan.hit"), steps),
            ),
            ("tensor.plan.invalidated", "count", fitc("plan.invalidated")),
            (
                "tensor.pool.hit_ratio",
                "ratio",
                ratio(pool_hit, pool_hit + pool_miss),
            ),
            (
                "tensor.pool.misses_per_step",
                "count",
                ratio(pool_miss, steps),
            ),
            (
                "tensor.pool.bytes_recycled",
                "bytes",
                fitc("tensor.alloc.bytes_recycled"),
            ),
            (
                "par.scopes_per_step",
                "count",
                ratio(fitc("par.pool.scopes"), steps),
            ),
            (
                "par.tasks_per_step",
                "count",
                ratio(fitc("par.pool.tasks_queued"), steps),
            ),
            (
                "par.worker_busy_share",
                "ratio",
                ratio(
                    fitc("par.worker.busy_ns") / 1e9,
                    threads * self.fit_wall_s(),
                ),
            ),
            (
                "graph.gcn_forward_us_p50",
                "us",
                self.span_median("graph.gcn_forward", 1e3),
            ),
            (
                "datasets.generate_s",
                "s",
                self.span_total_s("datasets.generate"),
            ),
            (
                "metrics.eval_ms",
                "ms",
                self.span_median("metrics.eval", 1e6),
            ),
            ("obs.trace_overhead_share", "ratio", trace_overhead),
            (
                "obs.dropped_spans",
                "count",
                tyxe_obs::trace::dropped_spans() as f64,
            ),
            (
                "bench.unattributed_share",
                "ratio",
                1.0 - ratio(attributed as f64, run_ns as f64),
            ),
            ("bench.machine_factor", "ratio", self.machine_factor),
            (
                "bench.calibration_share",
                "ratio",
                ratio(calib::spent_s(), self.total_wall_s),
            ),
            ("test_nll", "nats", self.test_nll()),
            ("failed_ops_share", "ratio", self.failed_ops_share()),
        ]
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
