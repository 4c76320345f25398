//! Emission-absorption volume rendering.

use tyxe_tensor::Tensor;

use crate::camera::Camera;

/// The field values at a batch of 3-D points.
#[derive(Debug, Clone)]
pub struct FieldOutput {
    /// Colors `[n, 3]` in `[0, 1]`.
    pub rgb: Tensor,
    /// Non-negative volume densities `[n]`.
    pub sigma: Tensor,
}

/// A (possibly learned, possibly stochastic) radiance field.
pub trait Field {
    /// Evaluates the field at `points` `[n, 3]`.
    fn query(&self, points: &Tensor) -> FieldOutput;
}

/// Adapts a raw network head `[n, 4]` (3 color logits + 1 raw density) to
/// a [`Field`] by applying `sigmoid` to the colors and `softplus` to the
/// density.
///
/// Wrap the forward pass of a deterministic NeRF **or** its Bayesian
/// drop-in (`tyxe::PytorchBnn`) in a closure:
///
/// ```no_run
/// # let net: tyxe_nn::layers::Sequential = unimplemented!();
/// use tyxe_nn::module::Forward;
/// let field = tyxe_render::RawField::new(|p: &tyxe_tensor::Tensor| net.forward(p));
/// ```
pub struct RawField<F> {
    f: F,
}

impl<F: Fn(&Tensor) -> Tensor> RawField<F> {
    /// Wraps a raw `[n, 3] -> [n, 4]` function.
    pub fn new(f: F) -> RawField<F> {
        RawField { f }
    }
}

impl<F> std::fmt::Debug for RawField<F> {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("RawField").finish()
    }
}

impl<F: Fn(&Tensor) -> Tensor> Field for RawField<F> {
    fn query(&self, points: &Tensor) -> FieldOutput {
        let raw = (self.f)(points);
        assert_eq!(raw.shape()[1], 4, "RawField: head must produce [n, 4]");
        let rgb = raw.slice(1, 0, 3).sigmoid();
        let n = raw.shape()[0];
        let sigma = raw.slice(1, 3, 4).softplus().reshape(&[n]);
        FieldOutput { rgb, sigma }
    }
}

/// A rendered image.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// Composited colors `[h*w, 3]`.
    pub rgb: Tensor,
    /// Accumulated opacity (silhouette) `[h*w]`.
    pub silhouette: Tensor,
}

/// Emission-absorption renderer sampling each ray at its strata midpoints.
#[derive(Debug, Clone, Copy)]
pub struct VolumeRenderer {
    /// Samples per ray.
    pub n_samples: usize,
    /// Near plane distance along each ray.
    pub near: f64,
    /// Far plane distance.
    pub far: f64,
}

impl VolumeRenderer {
    /// A renderer with the given number of samples per ray on `[near, far]`.
    pub fn new(n_samples: usize, near: f64, far: f64) -> VolumeRenderer {
        assert!(n_samples >= 2, "VolumeRenderer: need at least two samples");
        assert!(near < far, "VolumeRenderer: near must be < far");
        VolumeRenderer { n_samples, near, far }
    }

    /// Renders one camera view through `field`. Differentiable with
    /// respect to the field's parameters.
    pub fn render(&self, camera: &Camera, field: &dyn Field) -> RenderOutput {
        let (origins, dirs) = camera.rays();
        let r = camera.num_rays();
        let s = self.n_samples;
        let width = (self.far - self.near) / s as f64;

        // Depths per ray and sample: [r, s].
        let mut depths = vec![0.0; r * s];
        for ray in 0..r {
            for i in 0..s {
                depths[ray * s + i] = self.near + (i as f64 + 0.5) * width;
            }
        }

        // Points: origin + t * dir, laid out [r*s, 3].
        let od = origins.data();
        let dd = dirs.data();
        let mut pts = vec![0.0; r * s * 3];
        for ray in 0..r {
            for i in 0..s {
                let t = depths[ray * s + i];
                for k in 0..3 {
                    pts[(ray * s + i) * 3 + k] = od[ray * 3 + k] + t * dd[ray * 3 + k];
                }
            }
        }
        drop(od);
        drop(dd);
        let points = Tensor::from_vec(pts, &[r * s, 3]);

        let out = field.query(&points);
        let rgb = out.rgb.reshape(&[r, s, 3]);
        let sigma = out.sigma.reshape(&[r, s]);

        // Composite: alpha_i = 1 - exp(-sigma_i * delta), with running
        // transmittance. delta is the stratum width (constant spacing).
        let mut transmittance = Tensor::ones(&[r, 1]);
        let mut acc_rgb = Tensor::zeros(&[r, 3]);
        let mut acc_alpha = Tensor::zeros(&[r, 1]);
        for i in 0..s {
            let sigma_i = sigma.slice(1, i, i + 1); // [r, 1]
            let alpha = sigma_i.mul_scalar(-width).exp().neg().add_scalar(1.0);
            let weight = transmittance.mul(&alpha); // [r, 1]
            let color_i = rgb.slice(1, i, i + 1).reshape(&[r, 3]);
            acc_rgb = acc_rgb.add(&color_i.mul(&weight));
            acc_alpha = acc_alpha.add(&weight);
            transmittance = transmittance.mul(&alpha.neg().add_scalar(1.0));
        }
        RenderOutput {
            rgb: acc_rgb,
            silhouette: acc_alpha.reshape(&[r]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A uniform-density, uniform-color field.
    struct Fog {
        sigma: f64,
        color: [f64; 3],
    }

    impl Field for Fog {
        fn query(&self, points: &Tensor) -> FieldOutput {
            let n = points.shape()[0];
            let rgb: Vec<f64> = (0..n).flat_map(|_| self.color).collect();
            FieldOutput {
                rgb: Tensor::from_vec(rgb, &[n, 3]),
                sigma: Tensor::full(&[n], self.sigma),
            }
        }
    }

    #[test]
    fn empty_space_renders_black_with_zero_silhouette() {
        let cam = Camera::orbit(0.0, 3.0, 4, 4);
        let renderer = VolumeRenderer::new(8, 1.0, 5.0);
        let out = renderer.render(&cam, &Fog { sigma: 0.0, color: [1.0, 0.0, 0.0] });
        assert!(out.rgb.to_vec().iter().all(|&v| v.abs() < 1e-12));
        assert!(out.silhouette.to_vec().iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn dense_fog_saturates_to_fog_color() {
        let cam = Camera::orbit(0.0, 3.0, 2, 2);
        let renderer = VolumeRenderer::new(32, 1.0, 5.0);
        let out = renderer.render(&cam, &Fog { sigma: 50.0, color: [0.2, 0.5, 0.8] });
        let rgb = out.rgb.to_vec();
        assert!((rgb[0] - 0.2).abs() < 1e-6, "{}", rgb[0]);
        assert!((rgb[1] - 0.5).abs() < 1e-6);
        for s in out.silhouette.to_vec() {
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn silhouette_matches_beer_lambert() {
        // Uniform sigma over [near, far]: opacity = 1 - exp(-sigma * L).
        let cam = Camera::orbit(0.0, 3.0, 1, 1);
        let renderer = VolumeRenderer::new(256, 1.0, 3.0);
        let sigma = 0.7;
        let out = renderer.render(&cam, &Fog { sigma, color: [1.0; 3] });
        let expected = 1.0 - (-sigma * 2.0f64).exp();
        let got = out.silhouette.to_vec()[0];
        assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }

    #[test]
    fn raw_field_applies_activations() {
        let f = RawField::new(|p: &Tensor| {
            let n = p.shape()[0];
            Tensor::zeros(&[n, 4])
        });
        let out = f.query(&Tensor::zeros(&[5, 3]));
        assert!((out.rgb.to_vec()[0] - 0.5).abs() < 1e-12); // sigmoid(0)
        assert!((out.sigma.to_vec()[0] - (2.0f64).ln()).abs() < 1e-9); // softplus(0)
    }

    #[test]
    fn rendering_is_differentiable_through_raw_field() {
        let w = Tensor::zeros(&[4]).requires_grad(true);
        let wc = w.clone();
        let f = RawField::new(move |p: &Tensor| {
            let n = p.shape()[0];
            wc.reshape(&[1, 4]).broadcast_to(&[n, 4])
        });
        let cam = Camera::orbit(0.0, 3.0, 2, 2);
        let out = VolumeRenderer::new(4, 1.0, 5.0).render(&cam, &f);
        out.rgb.sum().add(&out.silhouette.sum()).backward();
        let g = w.grad().unwrap();
        assert!(g.iter().all(|v| v.is_finite()));
        assert!(g.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn midpoint_samples_render_the_same_twice() {
        tyxe_prob::rng::set_seed(0);
        let cam = Camera::orbit(0.0, 3.0, 2, 2);
        let field = Fog { sigma: 0.5, color: [0.5; 3] };
        let det = VolumeRenderer::new(8, 1.0, 5.0);
        let a = det.render(&cam, &field).silhouette.to_vec();
        let b = det.render(&cam, &field).silhouette.to_vec();
        assert_eq!(a, b);
    }
}
