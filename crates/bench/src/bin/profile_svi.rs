//! Phase-level wall-clock breakdown of one SVI training step, for
//! deciding where step-time optimization effort should go. Prints the
//! full step plus the raw cost of its dominant kernels (GEMMs, normal
//! draws, log-prob chains, Adam update).
//!
//! Usage: cargo run --release -p tyxe-bench --bin profile_svi
//!
//! `--percentiles` switches to a latency-distribution report: p50/p90/
//! p99 duration per span name. By default it profiles a short in-process
//! SVI run; with `--input <trace.json>` it reads an existing
//! `chrome://tracing` file instead — including the *merged* multi-rank
//! trace a `distributed_svi --trace` run writes, so cross-process span
//! populations (`dist.step`, `dist.worker.step`, …) get tail statistics
//! without re-running anything.

use std::time::Instant;

use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_prob::dist::Distribution;
use tyxe_prob::optim::{Adam, Optimizer};
use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;
use tyxe_tensor::Tensor;

fn time<R>(label: &str, iters: usize, mut f: impl FnMut() -> R) {
    // Warmup.
    for _ in 0..3 {
        std::hint::black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    println!("{label:<44} {:>10.1} us", best * 1e6);
}

/// Exact percentile by rank over a sorted sample (the convention
/// `Histogram::percentile` approximates bucket-wise): smallest value
/// with at least `ceil(q*n)` samples at or below it.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `--percentiles` mode: p50/p90/p99 per span name, from `--input
/// <trace.json>` (any chrome trace, merged multi-rank included) or from
/// a short in-process profiling run.
fn run_percentiles(input: Option<std::path::PathBuf>) {
    let durations: Vec<(String, u64)> = match input {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let durs = tyxe_obs::validate::span_durations_from_chrome_trace(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            println!("span percentiles from {} ({} spans)", path.display(), durs.len());
            durs
        }
        None => {
            tyxe_prob::rng::set_seed(5);
            let mut rng = StdRng::seed_from_u64(5);
            let data = tyxe_datasets::foong_regression(256, 0.1, 0);
            let bnn: VariationalBnn<_, HomoskedasticGaussian, AutoNormal> = VariationalBnn::new(
                tyxe_nn::layers::mlp(&[1, 128, 128, 1], false, &mut rng),
                &IIDPrior::standard_normal(),
                HomoskedasticGaussian::new(data.len(), 0.1),
                AutoNormal::new().init_scale(1e-2),
            );
            let mut optim = Adam::new(vec![], 1e-2);
            bnn.svi_step(&data.x, &data.y, &mut optim); // settle
            tyxe_obs::set_enabled(true);
            tyxe_obs::trace::clear();
            for _ in 0..32 {
                bnn.svi_step(&data.x, &data.y, &mut optim);
            }
            let spans = tyxe_obs::trace::drain();
            tyxe_obs::set_enabled(false);
            println!("span percentiles over 32 in-process SVI steps ({} spans)", spans.len());
            spans.iter().map(|s| (s.name.to_string(), s.dur_ns)).collect()
        }
    };
    let mut by_name: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
    for (name, dur) in durations {
        by_name.entry(name).or_default().push(dur);
    }
    println!(
        "{:<36} {:>7} {:>12} {:>12} {:>12}",
        "span", "count", "p50 (us)", "p90 (us)", "p99 (us)"
    );
    let mut rows: Vec<_> = by_name.into_iter().collect();
    for (_, durs) in rows.iter_mut() {
        durs.sort_unstable();
    }
    // Heaviest tails first: the report exists to direct attention.
    rows.sort_by_key(|(_, d)| std::cmp::Reverse(percentile(d, 0.99)));
    for (name, durs) in rows {
        println!(
            "{name:<36} {:>7} {:>12.1} {:>12.1} {:>12.1}",
            durs.len(),
            percentile(&durs, 0.50) as f64 / 1e3,
            percentile(&durs, 0.90) as f64 / 1e3,
            percentile(&durs, 0.99) as f64 / 1e3,
        );
    }
}

fn main() {
    let mut percentiles = false;
    let mut input: Option<std::path::PathBuf> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--percentiles" => percentiles = true,
            "--input" => input = Some(argv.next().expect("--input requires a path").into()),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: profile_svi [--percentiles [--input trace.json]]");
                std::process::exit(2);
            }
        }
    }
    if percentiles {
        run_percentiles(input);
        return;
    }
    tyxe_prob::rng::set_seed(5);
    let mut rng = StdRng::seed_from_u64(5);
    let data = tyxe_datasets::foong_regression(256, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 128, 128, 1], false, &mut rng);
    let bnn: VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal> =
        VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(data.len(), 0.1),
            AutoNormal::new().init_scale(1e-2),
        );
    let mut optim = Adam::new(vec![], 1e-2);

    time("svi_step (plan replay)", 1, || {
        bnn.svi_step(&data.x, &data.y, &mut optim)
    });

    // Dominant raw kernels, outside the training loop.
    let h = Tensor::randn(&[256, 128], &mut rng);
    let w = Tensor::randn(&[128, 128], &mut rng);
    time("gemm 256x128 @ 128x128 (fwd hidden)", 4, || h.matmul(&w));
    let hg = h.clone().requires_grad(true);
    time("hidden matmul fwd+bwd", 2, || {
        let y = hg.matmul(&w).sum();
        y.backward();
    });

    time("randn fill 16384", 8, || {
        tyxe_prob::rng::randn(&[16384])
    });

    let x = Tensor::randn(&[16384], &mut rng);
    let loc = Tensor::zeros(&[16384]);
    let scale = Tensor::full(&[16384], 0.5);
    let normal = tyxe_prob::dist::Normal::new(loc, scale);
    time("Normal::log_prob(16384).sum fwd", 4, || {
        normal.log_prob(&x).sum()
    });
    let xg = x.clone().requires_grad(true);
    time("Normal::log_prob(16384).sum fwd+bwd", 2, || {
        normal.log_prob(&xg).sum().backward()
    });

    time("adam step (16k+ params)", 2, || optim.step());

    // Per-precision step cost, measured pairwise. This box's wall-clock
    // noise swamps sequential A-then-B comparisons, so build separate
    // BNN instances per precision (each keeps its own compiled plan —
    // `set_precision` is only called once per instance, so the global
    // plan generation then stays put) and interleave the timing rounds.
    let make = |rng: &mut StdRng| -> VariationalBnn<_, HomoskedasticGaussian, AutoNormal> {
        VariationalBnn::new(
            tyxe_nn::layers::mlp(&[1, 128, 128, 1], false, rng),
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(data.len(), 0.1),
            AutoNormal::new().init_scale(1e-2),
        )
    };
    let precisions = [
        ("svi_step replay (f64)", tyxe::Precision::F64),
        ("svi_step replay (f32 storage)", tyxe::Precision::F32),
        ("svi_step replay (mixed precision)", tyxe::Precision::Mixed),
    ];
    let pack: Vec<_> = precisions
        .iter()
        .map(|&(label, p)| {
            let b = make(&mut rng);
            b.set_precision(p);
            let mut o = Adam::new(vec![], 1e-2);
            for _ in 0..6 {
                b.svi_step(&data.x, &data.y, &mut o);
            }
            (label, b, o, f64::INFINITY)
        })
        .collect();
    let mut pack = pack;
    let hits0 = tyxe_obs::metrics::counter("plan.hit").get();
    let iters = 4;
    for _round in 0..8 {
        for (_, b, o, best) in pack.iter_mut() {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(b.svi_step(&data.x, &data.y, o));
            }
            *best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
        }
    }
    let hits = tyxe_obs::metrics::counter("plan.hit").get() - hits0;
    for (label, b, _, best) in &pack {
        println!("{label:<44} {:>10.1} us", best * 1e6);
        if let Some(reason) = b.plan_unsupported_reason() {
            println!("    (plan unsupported: {reason})");
        }
    }
    println!("{:<44} {hits:>10} / {}", "plan replay hits in paired rounds", 8 * iters * pack.len());

    // Pool accounting after the warmups above. Everything size-bearing
    // here is byte-denominated (the free-lists are dtype-blind byte
    // buckets): `bytes_recycled` and `pool_size` report bytes of word
    // storage, never element counts; the hit/miss counters are events.
    let (bufs, thread_bytes) = tyxe_tensor::pool::thread_stats();
    println!("\n-- pool accounting (byte-denominated) --");
    println!(
        "{:<36} {:>12} bytes",
        "tensor.alloc.pool_size (gauge)",
        tyxe_obs::metrics::gauge_tagged("tensor.alloc.pool_size", &[], "bytes").get() as u64
    );
    println!(
        "{:<36} {:>12} bytes",
        "tensor.alloc.bytes_recycled",
        tyxe_obs::metrics::counter_tagged("tensor.alloc.bytes_recycled", &[], "bytes").get()
    );
    println!("{:<36} {:>12} bytes ({bufs} buffers)", "this-thread free lists", thread_bytes);
    for dt in ["f32", "f64"] {
        let hit = tyxe_obs::metrics::counter(&format!("tensor.alloc.pool_hit.{dt}")).get();
        let miss = tyxe_obs::metrics::counter(&format!("tensor.alloc.pool_miss.{dt}")).get();
        println!("{:<36} {hit:>12} hits / {miss} misses", format!("pool events ({dt})"));
    }

    // Span-level breakdown via tyxe-obs: run a few steps per precision
    // and aggregate total duration per span name.
    for (label, precision) in [
        ("f64", tyxe::Precision::F64),
        ("f32", tyxe::Precision::F32),
        ("mixed", tyxe::Precision::Mixed),
    ] {
        bnn.set_precision(precision);
        bnn.svi_step(&data.x, &data.y, &mut optim); // settle (records the plan)
        tyxe_obs::set_enabled(true);
        tyxe_obs::trace::clear();
        let t0 = Instant::now();
        for _ in 0..8 {
            bnn.svi_step(&data.x, &data.y, &mut optim);
        }
        let wall = t0.elapsed().as_secs_f64() / 8.0;
        let spans = tyxe_obs::trace::drain();
        tyxe_obs::set_enabled(false);
        let mut agg: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        for s in &spans {
            let key = match (&*s.name, &s.arg) {
                ("tensor.gemm", Some(arg)) => format!("tensor.gemm {arg}"),
                (name, _) => name.to_string(),
            };
            let e = agg.entry(key).or_insert((0, 0));
            e.0 += s.dur_ns;
            e.1 += 1;
        }
        println!("\n-- span totals over 8 steps ({label}, {:.1} us/step wall) --", wall * 1e6);
        let mut rows: Vec<_> = agg.into_iter().collect();
        rows.sort_by_key(|(_, (d, _))| std::cmp::Reverse(*d));
        for (name, (dur, n)) in rows {
            println!("{name:<36} {:>10.1} us/step  x{:>5}", dur as f64 / 8.0 / 1e3, n / 8);
        }
    }
}
