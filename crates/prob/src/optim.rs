//! Gradient-based optimizers over leaf tensors (the analogue of
//! `pyro.optim` / `torch.optim`).

use tyxe_tensor::Tensor;

/// A first-order optimizer over a fixed set of leaf tensors.
pub trait Optimizer {
    /// Clears accumulated gradients on all managed tensors.
    fn zero_grad(&mut self);
    /// Applies one update using the accumulated gradients.
    fn step(&mut self);
    /// Current learning rate.
    fn learning_rate(&self) -> f64;
    /// Sets the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f64);
    /// Adds tensors to the managed set (used by lazily initialized guides).
    fn add_params(&mut self, params: Vec<Tensor>);
    /// The managed tensors.
    fn params(&self) -> &[Tensor];
    /// Internal state (moment buffers, step counters) as named
    /// `f64` buffers, for checkpointing. Buffer order follows the managed
    /// parameter order, so it is only meaningful to restore into an
    /// optimizer whose parameters were registered in the same order.
    /// Stateless optimizers return an empty list.
    fn state_buffers(&self) -> Vec<(String, Vec<f64>)> {
        Vec::new()
    }
    /// Restores state previously exported by [`Optimizer::state_buffers`].
    /// Unknown names are ignored; a length mismatch on a known buffer
    /// panics (it means the parameter set changed since the checkpoint).
    fn load_state_buffers(&mut self, _buffers: &[(String, Vec<f64>)]) {}
}

/// True iff every gradient currently stored on `params` is finite.
/// Tensors without gradients are ignored (they contribute nothing to an
/// update either way).
pub fn grads_are_finite(params: &[Tensor]) -> bool {
    params.iter().all(|p| match p.grad() {
        Some(g) => g.iter().all(|v| v.is_finite()),
        None => true,
    })
}

fn restore_buffer(dst: &mut [f64], name: &str, src: &[f64]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "load_state_buffers: length mismatch for {name} (expected {}, got {})",
        dst.len(),
        src.len()
    );
    dst.copy_from_slice(src);
}

/// Adam's moment decay rates and denominator guard: Pytorch's defaults,
/// which every fit in the paper uses.
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// Adam (Kingma & Ba, 2015) with bias correction, betas `(0.9, 0.999)`,
/// `eps = 1e-8` and no weight decay.
#[derive(Debug)]
pub struct Adam {
    params: Vec<Tensor>,
    lr: f64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with learning rate `lr`.
    pub fn new(params: Vec<Tensor>, lr: f64) -> Adam {
        let m = params.iter().map(|p| vec![0.0; p.numel()]).collect();
        let v = params.iter().map(|p| vec![0.0; p.numel()]).collect();
        Adam { params, lr, m, v, t: 0 }
    }
}

impl Optimizer for Adam {
    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn step(&mut self) {
        let _span = tyxe_obs::span!("prob.optim.step", "adam");
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        let lr = self.lr;
        for ((p, m), v) in self.params.iter().zip(self.m.iter_mut()).zip(self.v.iter_mut()) {
            // Fused update: a single loop over data/grad/moment lanes,
            // writing the parameter in place — no copy, no grad clone.
            p.with_data_and_grad(|data, g| {
                for i in 0..data.len() {
                    let grad = g[i];
                    m[i] = BETA1 * m[i] + (1.0 - BETA1) * grad;
                    v[i] = BETA2 * v[i] + (1.0 - BETA2) * grad * grad;
                    let mhat = m[i] / bc1;
                    let vhat = v[i] / bc2;
                    data[i] -= lr * mhat / (vhat.sqrt() + EPS);
                }
            });
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn add_params(&mut self, params: Vec<Tensor>) {
        for p in params {
            self.m.push(vec![0.0; p.numel()]);
            self.v.push(vec![0.0; p.numel()]);
            self.params.push(p);
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn state_buffers(&self) -> Vec<(String, Vec<f64>)> {
        let mut out = vec![("t".to_string(), vec![self.t as f64])];
        for (i, m) in self.m.iter().enumerate() {
            out.push((format!("m.{i}"), m.clone()));
        }
        for (i, v) in self.v.iter().enumerate() {
            out.push((format!("v.{i}"), v.clone()));
        }
        out
    }

    fn load_state_buffers(&mut self, buffers: &[(String, Vec<f64>)]) {
        for (name, buf) in buffers {
            if name == "t" {
                assert_eq!(buf.len(), 1, "load_state_buffers: t must be scalar");
                self.t = buf[0] as u64;
            } else if let Some(i) = name.strip_prefix("m.").and_then(|s| s.parse::<usize>().ok()) {
                if let Some(m) = self.m.get_mut(i) {
                    restore_buffer(m, name, buf);
                }
            } else if let Some(i) = name.strip_prefix("v.").and_then(|s| s.parse::<usize>().ok()) {
                if let Some(v) = self.v.get_mut(i) {
                    restore_buffer(v, name, buf);
                }
            }
        }
    }
}

/// Multiplies the learning rate by `gamma` every `step_size` calls to
/// [`StepLr::step_epoch`] (the analogue of `torch.optim.lr_scheduler.StepLR`).
#[derive(Debug)]
pub struct StepLr {
    step_size: u64,
    gamma: f64,
    epoch: u64,
    base_lr: f64,
}

impl StepLr {
    /// Creates a step schedule from the optimizer's current learning rate.
    pub fn new(optimizer: &dyn Optimizer, step_size: u64, gamma: f64) -> StepLr {
        StepLr {
            step_size,
            gamma,
            epoch: 0,
            base_lr: optimizer.learning_rate(),
        }
    }

    /// Advances one epoch and updates the optimizer's learning rate.
    pub fn step_epoch(&mut self, optimizer: &mut dyn Optimizer) {
        self.epoch += 1;
        let k = (self.epoch / self.step_size) as i32;
        optimizer.set_learning_rate(self.base_lr * self.gamma.powi(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_loss(p: &Tensor) -> Tensor {
        // (p - 3)^2 summed
        p.sub_scalar(3.0).square().sum()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = Tensor::zeros(&[4]).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 0.2);
        for _ in 0..300 {
            opt.zero_grad();
            quadratic_loss(&p).backward();
            opt.step();
        }
        assert!(p.to_vec().iter().all(|&v| (v - 3.0).abs() < 1e-2), "{:?}", p.to_vec());
    }

    #[test]
    fn step_lr_decays() {
        let p = Tensor::zeros(&[1]).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 1.0);
        let mut sched = StepLr::new(&opt, 2, 0.1);
        sched.step_epoch(&mut opt);
        assert_eq!(opt.learning_rate(), 1.0);
        sched.step_epoch(&mut opt);
        assert!((opt.learning_rate() - 0.1).abs() < 1e-12);
        sched.step_epoch(&mut opt);
        sched.step_epoch(&mut opt);
        assert!((opt.learning_rate() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn add_params_extends_state() {
        let p1 = Tensor::zeros(&[2]).requires_grad(true);
        let mut opt = Adam::new(vec![p1], 0.1);
        let p2 = Tensor::zeros(&[3]).requires_grad(true);
        opt.add_params(vec![p2.clone()]);
        assert_eq!(opt.params().len(), 2);
        opt.zero_grad();
        quadratic_loss(&p2).backward();
        opt.step();
        assert!(p2.to_vec()[0] != 0.0);
    }

    #[test]
    fn step_without_grad_is_noop() {
        let p = Tensor::full(&[1], 1.0).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        opt.step();
        assert_eq!(p.to_vec(), vec![1.0]);
    }

    /// Restoring exported state into a fresh optimizer over identical
    /// parameter values must continue the trajectory bit-for-bit.
    #[test]
    fn adam_state_roundtrip_resumes_bitwise() {
        let run_steps = |opt: &mut dyn Optimizer, p: &Tensor, n: usize| {
            for _ in 0..n {
                opt.zero_grad();
                quadratic_loss(p).backward();
                opt.step();
            }
        };

        let p = Tensor::zeros(&[4]).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 0.2);
        run_steps(&mut opt, &p, 7);
        let state = opt.state_buffers();
        let mid = p.to_vec();
        run_steps(&mut opt, &p, 5);
        let reference: Vec<u64> = p.to_vec().iter().map(|v| v.to_bits()).collect();

        let q = Tensor::zeros(&[4]).requires_grad(true);
        q.set_data(mid);
        let mut opt2 = Adam::new(vec![q.clone()], 0.2);
        opt2.load_state_buffers(&state);
        run_steps(&mut opt2, &q, 5);
        let resumed: Vec<u64> = q.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(resumed, reference);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn load_state_rejects_length_mismatch() {
        let p = Tensor::zeros(&[4]).requires_grad(true);
        let mut opt = Adam::new(vec![p], 0.1);
        opt.load_state_buffers(&[("m.0".to_string(), vec![0.0; 2])]);
    }

    #[test]
    fn grads_are_finite_detects_nan_and_inf() {
        let p = Tensor::zeros(&[2]).requires_grad(true);
        assert!(grads_are_finite(std::slice::from_ref(&p))); // no grad at all
        p.set_grad(Some(vec![1.0, 2.0]));
        assert!(grads_are_finite(std::slice::from_ref(&p)));
        p.set_grad(Some(vec![1.0, f64::NAN]));
        assert!(!grads_are_finite(std::slice::from_ref(&p)));
        p.set_grad(Some(vec![f64::INFINITY, 0.0]));
        assert!(!grads_are_finite(&[p]));
    }
}
