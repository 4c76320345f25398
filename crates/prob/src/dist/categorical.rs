//! Batched categorical distribution parameterized by logits.

use std::any::Any;

use tyxe_tensor::Tensor;

use super::Distribution;
use crate::rng;

/// A batch of categorical distributions over `c` classes.
///
/// `logits` has shape `[n, c]` (or `[c]` for a single distribution). Values
/// are class indices stored as `f64` in a tensor of shape `[n]`; `log_prob`
/// returns one log-probability per batch row.
#[derive(Debug, Clone)]
pub struct Categorical {
    logits: Tensor,
    n: usize,
    c: usize,
}

impl Categorical {
    /// Creates a categorical from raw logits of shape `[n, c]` or `[c]`.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is not 1-D or 2-D.
    pub fn from_logits(logits: Tensor) -> Categorical {
        let (n, c, logits) = match logits.ndim() {
            1 => {
                let c = logits.shape()[0];
                (1, c, logits.reshape(&[1, c]))
            }
            2 => (logits.shape()[0], logits.shape()[1], logits),
            d => panic!("Categorical: logits must be 1-D or 2-D, got {d}-D"),
        };
        Categorical { logits, n, c }
    }

    /// Class probabilities, shape `[n, c]`.
    pub fn probs(&self) -> Tensor {
        self.logits.softmax(1)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.c
    }
}

impl Distribution for Categorical {
    fn sample(&self) -> Tensor {
        let p = self.probs().detach();
        let pd = p.data();
        let mut out = Vec::with_capacity(self.n);
        rng::with_rng(|rng| {
            use tyxe_rand::Rng;
            for i in 0..self.n {
                let u: f64 = rng.gen();
                let row = &pd[i * self.c..(i + 1) * self.c];
                let mut acc = 0.0;
                let mut k = self.c - 1;
                for (j, &pj) in row.iter().enumerate() {
                    acc += pj;
                    if u < acc {
                        k = j;
                        break;
                    }
                }
                out.push(k as f64);
            }
        });
        Tensor::from_vec(out, &[self.n])
    }

    fn log_prob(&self, value: &Tensor) -> Tensor {
        assert_eq!(
            value.numel(),
            self.n,
            "Categorical::log_prob: expected {} values, got {}",
            self.n,
            value.numel()
        );
        // The classes are read from `value` by the gather itself, so a
        // plan replay picks up labels written into the same tensor.
        self.logits.log_softmax(1).gather_rows_by(value)
    }

    fn shape(&self) -> Vec<usize> {
        vec![self.n]
    }

    fn mean(&self) -> Tensor {
        // The "mean prediction" for a categorical is its probability vector;
        // exposed for aggregation convenience.
        self.probs()
    }

    fn variance(&self) -> Tensor {
        let p = self.probs();
        p.mul(&p.neg().add_scalar(1.0))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::assert_close;
    use super::*;

    #[test]
    fn log_prob_gathers_correct_class() {
        let logits = Tensor::from_vec(vec![0.0, 0.0, (3.0f64).ln()], &[1, 3]);
        let d = Categorical::from_logits(logits);
        // probs = [0.2, 0.2, 0.6]
        assert_close(d.log_prob(&Tensor::from_vec(vec![2.0], &[1])).item(), 0.6f64.ln(), 1e-9);
        assert_close(d.log_prob(&Tensor::from_vec(vec![0.0], &[1])).item(), 0.2f64.ln(), 1e-9);
    }

    #[test]
    fn sampling_matches_probabilities() {
        crate::rng::set_seed(7);
        let logits = Tensor::from_vec(vec![0.0, (4.0f64).ln()], &[1, 2]);
        let d = Categorical::from_logits(logits);
        let mut count1 = 0;
        for _ in 0..5000 {
            if d.sample().item() == 1.0 {
                count1 += 1;
            }
        }
        let freq = count1 as f64 / 5000.0;
        assert!((freq - 0.8).abs() < 0.03, "freq {freq}");
    }

    #[test]
    fn batch_log_prob_shape() {
        let logits = Tensor::zeros(&[4, 3]);
        let d = Categorical::from_logits(logits);
        let lp = d.log_prob(&Tensor::from_vec(vec![0.0, 1.0, 2.0, 0.0], &[4]));
        assert_eq!(lp.shape(), &[4]);
        for v in lp.to_vec() {
            assert_close(v, (1.0f64 / 3.0).ln(), 1e-9);
        }
    }

    #[test]
    fn one_dim_logits_promoted() {
        let d = Categorical::from_logits(Tensor::zeros(&[5]));
        assert_eq!(d.num_classes(), 5);
        assert_eq!(d.shape(), vec![1]);
    }

    #[test]
    fn grad_flows_through_log_prob() {
        let logits = Tensor::zeros(&[2, 3]).requires_grad(true);
        let d = Categorical::from_logits(logits.clone());
        d.log_prob(&Tensor::from_vec(vec![1.0, 2.0], &[2]))
            .sum()
            .backward();
        let g = logits.grad().unwrap();
        assert!(g.iter().any(|&v| v != 0.0));
        // Per-row gradients sum to zero for log-softmax.
        assert!((g[0] + g[1] + g[2]).abs() < 1e-10);
    }
}
