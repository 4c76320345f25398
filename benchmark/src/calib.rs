//! The calibration kernel: how fast this machine is running right now.
//!
//! The box the benchmark runs on is a small guest on a shared host, and
//! what the host's other tenants do moves the wall time of identical work
//! by 10–40 % over seconds to hours (README, "Noise"). A dependent ALU
//! chain does not feel it; memory traffic past the L2 and dense scalar
//! floating point do, and they track the library's slow-downs closely. So
//! the benchmark interleaves a fixed unit of exactly that work — its own
//! code, no call into the library, no allocation after start-up, no use of
//! the library's RNG — with the workload, every [`FIT_GAP_S`] or so, and
//! divides every stretch of wall time by how much slower than
//! [`NOMINAL_UNIT_US`] the units around it ran. A library change moves a metric one for one: the
//! unit is the same code on both sides of every comparison.
//!
//! The state is thread-local because the MCMC kernel wrapper
//! (`workloads::Ticking`) ticks from inside `McmcBnn::fit`.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use crate::spans::median;

/// What one unit takes on the box the benchmark was written on in a quiet
/// hour. Only fixes the scale of the reported times ("seconds of a machine
/// on which the unit takes this long").
pub const NOMINAL_UNIT_US: f64 = 230.0;

/// Unit spacing inside fit loops, and between the short calls of the
/// set-up and predict phases.
pub const FIT_GAP_S: f64 = 0.02;
pub const SEAM_GAP_S: f64 = 0.002;

/// A tick after a long call (a 0.45 s ResNet step, a 2 s `predict`) runs
/// one unit per gap that went by, up to this many: a longer look at the
/// machine where looks are far apart.
const MAX_UNITS_PER_TICK: usize = 32;

/// The machine's speed at a tick is the median over this many ticks
/// around it: one tick is a quarter of a millisecond of a clock that
/// jitters by a tenth.
const SMOOTH_TICKS: usize = 15;

/// The streamed buffer is twice the L2 (4 MiB here), read and written one
/// slice per unit in rotation, so a slice has left the L2 when its turn
/// comes again.
const STREAM_LEN: usize = 1 << 20;
const SLICE_LEN: usize = STREAM_LEN / 8;
const TANH_LEN: usize = 6144;

/// One visit to the calibration kernel: when (seconds since `t0`), and
/// the median time of the units it ran, in µs.
struct Tick {
    from_s: f64,
    to_s: f64,
    unit_us: f64,
}

/// A stretch of the run's clock with the calibration ticks taken out: as
/// the wall clock had it, and at nominal machine speed.
#[derive(Clone, Copy, Default)]
pub struct Measured {
    pub wall_s: f64,
    pub nominal_s: f64,
}

impl Measured {
    /// How much slower than nominal the machine ran over the stretch.
    pub fn factor(&self) -> f64 {
        if self.nominal_s > 0.0 {
            self.wall_s / self.nominal_s
        } else {
            1.0
        }
    }
}

impl std::ops::AddAssign for Measured {
    fn add_assign(&mut self, other: Measured) {
        self.wall_s += other.wall_s;
        self.nominal_s += other.nominal_s;
    }
}

struct Calibrator {
    t0: Instant,
    stream: Vec<f64>,
    next_slice: usize,
    tanh_in: Vec<f64>,
    ticks: Vec<Tick>,
    /// Machine-speed factor at each tick (smoothed); rebuilt when stale.
    factors: Vec<f64>,
    last_end: Instant,
    spent_s: f64,
}

impl Calibrator {
    fn new(t0: Instant) -> Calibrator {
        Calibrator {
            t0,
            stream: vec![1.0; STREAM_LEN],
            next_slice: 0,
            tanh_in: (0..TANH_LEN).map(|i| i as f64 * 1.3e-3 - 4.0).collect(),
            ticks: Vec::new(),
            factors: Vec::new(),
            last_end: Instant::now(),
            spent_s: 0.0,
        }
    }

    /// One unit; returns its duration in µs.
    fn unit(&mut self) -> f64 {
        let start = Instant::now();
        let lo = self.next_slice * SLICE_LEN;
        self.next_slice = (self.next_slice + 1) % (STREAM_LEN / SLICE_LEN);
        for v in &mut self.stream[lo..lo + SLICE_LEN] {
            *v = *v * 0.999_999 + 1e-9;
        }
        let mut acc = 0.0;
        for &v in &self.tanh_in {
            acc += v.tanh() + (v * 0.1).exp();
        }
        black_box(acc);
        black_box(&self.stream);
        start.elapsed().as_secs_f64() * 1e6
    }

    fn tick(&mut self, gap_s: f64) {
        let start = Instant::now();
        let idle_s = start.duration_since(self.last_end).as_secs_f64();
        if idle_s < gap_s {
            return;
        }
        let n = ((idle_s / gap_s) as usize).clamp(1, MAX_UNITS_PER_TICK);
        let us: Vec<f64> = (0..n).map(|_| self.unit()).collect();
        self.last_end = Instant::now();
        self.spent_s += self.last_end.duration_since(start).as_secs_f64();
        self.ticks.push(Tick {
            from_s: start.duration_since(self.t0).as_secs_f64(),
            to_s: self.last_end.duration_since(self.t0).as_secs_f64(),
            unit_us: median(&us),
        });
    }

    fn smooth(&mut self) {
        if self.factors.len() == self.ticks.len() {
            return;
        }
        let n = self.ticks.len();
        let width = SMOOTH_TICKS.min(n);
        self.factors = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(width / 2).min(n - width);
                let us: Vec<f64> = self.ticks[lo..lo + width]
                    .iter()
                    .map(|t| t.unit_us)
                    .collect();
                median(&us) / NOMINAL_UNIT_US
            })
            .collect();
    }

    /// The work between ticks `i − 1` and `i` ran at `factors[i]`, the work
    /// after the last tick at the last factor.
    fn measure(&mut self, from_s: f64, to_s: f64) -> Measured {
        self.smooth();
        let mut out = Measured::default();
        let n = self.ticks.len();
        let mut i = self.ticks.partition_point(|t| t.to_s <= from_s);
        loop {
            let work_from = if i == 0 { 0.0 } else { self.ticks[i - 1].to_s };
            let work_to = if i < n {
                self.ticks[i].from_s
            } else {
                f64::INFINITY
            };
            let factor = match n {
                0 => 1.0,
                _ => self.factors[i.min(n - 1)],
            };
            let overlap = work_to.min(to_s) - work_from.max(from_s);
            if overlap > 0.0 {
                out.wall_s += overlap;
                out.nominal_s += overlap / factor;
            }
            if work_to >= to_s {
                return out;
            }
            i += 1;
        }
    }
}

thread_local! {
    static CAL: RefCell<Option<Calibrator>> = const { RefCell::new(None) };
}

fn with<R>(f: impl FnOnce(&mut Calibrator) -> R) -> R {
    CAL.with(|c| f(c.borrow_mut().as_mut().expect("calib::start first")))
}

/// Starts (or restarts) calibration for a run whose clock started at `t0`.
pub fn start(t0: Instant) {
    let mut cal = Calibrator::new(t0);
    // Page the buffers in and warm libm before the first counted unit.
    cal.unit();
    cal.last_end = Instant::now();
    CAL.with(|c| *c.borrow_mut() = Some(cal));
}

/// Runs calibration units if `gap_s` has gone by since the last ones.
/// Call it between timed calls, never inside one that is timed alone.
pub fn tick(gap_s: f64) {
    with(|c| c.tick(gap_s));
}

/// Wall time the ticks have taken so far.
pub fn spent_s() -> f64 {
    with(|c| c.spent_s)
}

/// `[from_s, to_s]` of the run's clock (seconds since `t0`) less the ticks
/// inside it, as wall time and at nominal machine speed.
pub fn measure(from_s: f64, to_s: f64) -> Measured {
    with(|c| c.measure(from_s, to_s))
}

/// Ticks so far, and the median unit time over them in µs.
pub fn summary() -> (usize, f64) {
    with(|c| {
        let us: Vec<f64> = c.ticks.iter().map(|t| t.unit_us).collect();
        (us.len(), median(&us))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn measure_takes_ticks_out_and_scales_by_the_speed_around() {
        let mut cal = Calibrator::new(Instant::now());
        // A tick of 0.1 s at every whole second from 1 to 100; the first
        // 50 at nominal speed, the rest twice as slow.
        cal.ticks = (1..=100)
            .map(|i| Tick {
                from_s: f64::from(i),
                to_s: f64::from(i) + 0.1,
                unit_us: if i <= 50 {
                    NOMINAL_UNIT_US
                } else {
                    2.0 * NOMINAL_UNIT_US
                },
            })
            .collect();
        // No tick inside: all of it is work, at the speed of the ticks around.
        let m = cal.measure(10.2, 10.7);
        assert!(close(m.wall_s, 0.5) && close(m.nominal_s, 0.5));
        let m = cal.measure(80.2, 80.7);
        assert!(close(m.wall_s, 0.5) && close(m.nominal_s, 0.25));
        // Two ticks inside are taken out.
        let m = cal.measure(10.5, 12.5);
        assert!(close(m.wall_s, 1.8) && close(m.nominal_s, 1.8));
        // Before the first tick and after the last.
        let m = cal.measure(0.0, 0.5);
        assert!(close(m.wall_s, 0.5) && close(m.factor(), 1.0));
        let m = cal.measure(200.0, 201.0);
        assert!(close(m.wall_s, 1.0) && close(m.factor(), 2.0));
        // Starting or ending inside a tick counts none of it.
        let m = cal.measure(20.05, 20.6);
        assert!(close(m.wall_s, 0.5));
    }

    #[test]
    fn no_tick_means_nominal_speed() {
        let mut cal = Calibrator::new(Instant::now());
        let m = cal.measure(1.0, 3.0);
        assert!(close(m.wall_s, 2.0) && close(m.nominal_s, 2.0));
    }

    #[test]
    fn ticks_are_spaced_and_counted() {
        start(Instant::now());
        std::thread::sleep(std::time::Duration::from_millis(3));
        tick(0.002);
        tick(3600.0);
        let (n, us) = summary();
        assert_eq!(n, 1);
        assert!(us > 0.0);
        assert!(spent_s() > 0.0);
    }
}
