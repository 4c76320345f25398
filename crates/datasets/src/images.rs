//! Synthetic image classification datasets: class-prototype generators
//! standing in for CIFAR-10 (in-distribution), SVHN (out-of-distribution)
//! and MNIST/CIFAR Split tasks for continual learning.
//!
//! Each class is a smooth random "texture" prototype; samples are the
//! prototype under a random circular shift, optional horizontal flip,
//! per-sample contrast jitter and pixel noise. This preserves what the
//! paper's experiments actually exercise — learnable class structure,
//! within-class variation, and a distribution shift for the OOD set —
//! without shipping natural images.

use tyxe_rand::Rng;
use tyxe_rand::SeedableRng;
use tyxe_tensor::Tensor;

/// A labelled image dataset.
#[derive(Debug, Clone)]
pub struct ImageDataset {
    /// Images `[n, c, h, w]`, roughly zero-mean unit-scale.
    pub images: Tensor,
    /// Class labels `[n]` stored as `f64` indices.
    pub labels: Tensor,
    /// Number of classes the generator can emit.
    pub num_classes: usize,
}

impl ImageDataset {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.images.shape()[0]
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens images to `[n, c*h*w]` (for MLP architectures).
    pub fn flattened(&self) -> Tensor {
        let n = self.len();
        self.images.reshape(&[n, self.images.numel() / n])
    }

    /// Splits into mini-batches of (at most) `batch_size`.
    pub fn batches(&self, batch_size: usize) -> Vec<(Tensor, Tensor)> {
        let n = self.len();
        let mut out = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + batch_size).min(n);
            out.push((
                self.images.slice(0, start, end),
                self.labels.slice(0, start, end),
            ));
            start = end;
        }
        out
    }
}

/// Generates images from per-class smooth prototypes.
#[derive(Debug, Clone)]
pub struct ImageGenerator {
    prototypes: Vec<Vec<f64>>, // one [c*h*w] buffer per class
    channels: usize,
    height: usize,
    width: usize,
    noise_sd: f64,
    amplitude: f64,
    offset: f64,
    max_shift: usize,
    flip: bool,
}

fn smooth_prototype<R: Rng + ?Sized>(
    channels: usize,
    height: usize,
    width: usize,
    rng: &mut R,
) -> Vec<f64> {
    // A coarse 4x4 random grid per channel, bilinearly upsampled: smooth,
    // distinctive "textures".
    const G: usize = 4;
    let mut out = vec![0.0; channels * height * width];
    for ch in 0..channels {
        let coarse: Vec<f64> = (0..G * G).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for y in 0..height {
            for x in 0..width {
                let fy = y as f64 / height as f64 * (G - 1) as f64;
                let fx = x as f64 / width as f64 * (G - 1) as f64;
                let (y0, x0) = (fy.floor() as usize, fx.floor() as usize);
                let (y1, x1) = ((y0 + 1).min(G - 1), (x0 + 1).min(G - 1));
                let (dy, dx) = (fy - y0 as f64, fx - x0 as f64);
                let v = coarse[y0 * G + x0] * (1.0 - dy) * (1.0 - dx)
                    + coarse[y0 * G + x1] * (1.0 - dy) * dx
                    + coarse[y1 * G + x0] * dy * (1.0 - dx)
                    + coarse[y1 * G + x1] * dy * dx;
                out[(ch * height + y) * width + x] = v;
            }
        }
    }
    out
}

impl ImageGenerator {
    /// A CIFAR-10-like generator: 10 classes of 3-channel images.
    pub fn cifar_like(height: usize, width: usize, seed: u64) -> ImageGenerator {
        ImageGenerator::new(10, 3, height, width, 0.35, 1.0, 0.0, 2, true, seed)
    }

    /// An SVHN-like **out-of-distribution** generator: a disjoint set of
    /// class prototypes (different seed space) with weaker class signal and
    /// heavier pixel noise at matched brightness. The trained classifier
    /// has never seen these textures (as SVHN digits are unseen by a
    /// CIFAR-10 model), so its class evidence is diluted — the property the
    /// paper's OOD experiment measures.
    pub fn svhn_like(height: usize, width: usize, seed: u64) -> ImageGenerator {
        ImageGenerator::new(10, 3, height, width, 0.35, 1.0, 0.0, 1, false, seed ^ 0xdead_beef)
    }

    /// An MNIST-like generator: 10 classes of single-channel images.
    pub fn mnist_like(height: usize, width: usize, seed: u64) -> ImageGenerator {
        ImageGenerator::new(10, 1, height, width, 0.25, 1.0, 0.0, 2, false, seed)
    }

    /// Fully parameterized constructor.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        num_classes: usize,
        channels: usize,
        height: usize,
        width: usize,
        noise_sd: f64,
        amplitude: f64,
        offset: f64,
        max_shift: usize,
        flip: bool,
        seed: u64,
    ) -> ImageGenerator {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(seed);
        let prototypes = (0..num_classes)
            .map(|_| smooth_prototype(channels, height, width, &mut rng))
            .collect();
        ImageGenerator {
            prototypes,
            channels,
            height,
            width,
            noise_sd,
            amplitude,
            offset,
            max_shift,
            flip,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.prototypes.len()
    }

    fn render_sample<R: Rng + ?Sized>(&self, class: usize, rng: &mut R, out: &mut [f64]) {
        let (c, h, w) = (self.channels, self.height, self.width);
        let proto = &self.prototypes[class];
        let sy = rng.gen_range(0..=2 * self.max_shift) as isize - self.max_shift as isize;
        let sx = rng.gen_range(0..=2 * self.max_shift) as isize - self.max_shift as isize;
        let flip = self.flip && rng.gen_bool(0.5);
        let contrast = self.amplitude * rng.gen_range(0.85..1.15);
        for ch in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let src_y = (y as isize + sy).rem_euclid(h as isize) as usize;
                    let mut src_x = (x as isize + sx).rem_euclid(w as isize) as usize;
                    if flip {
                        src_x = w - 1 - src_x;
                    }
                    let noise = tyxe_rand::fill::box_muller(rng);
                    out[(ch * h + y) * w + x] = contrast * proto[(ch * h + src_y) * w + src_x]
                        + self.offset
                        + self.noise_sd * noise;
                }
            }
        }
    }

    /// Samples `n` labelled images with labels drawn uniformly over
    /// `classes` (all classes when `classes` is empty).
    pub fn sample(&self, n: usize, classes: &[usize], seed: u64) -> ImageDataset {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(seed);
        let all: Vec<usize> = if classes.is_empty() {
            (0..self.num_classes()).collect()
        } else {
            classes.to_vec()
        };
        let img_len = self.channels * self.height * self.width;
        let mut images = vec![0.0; n * img_len];
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            // Cycle classes for balance, then shuffle via random shift.
            let class = all[i % all.len()];
            self.render_sample(class, &mut rng, &mut images[i * img_len..(i + 1) * img_len]);
            labels.push(class as f64);
        }
        ImageDataset {
            images: Tensor::from_vec(images, &[n, self.channels, self.height, self.width]),
            labels: Tensor::from_vec(labels, &[n]),
            num_classes: self.num_classes(),
        }
    }

    /// Samples with labels **remapped** to `0..classes.len()` (for Split
    /// tasks, where each task is a fresh binary problem).
    pub fn sample_remapped(&self, n: usize, classes: &[usize], seed: u64) -> ImageDataset {
        let mut ds = self.sample(n, classes, seed);
        let remap: std::collections::HashMap<usize, f64> = classes
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as f64))
            .collect();
        let labels: Vec<f64> = ds
            .labels
            .to_vec()
            .iter()
            .map(|&l| remap[&(l as usize)])
            .collect();
        ds.labels = Tensor::from_vec(labels, &[n]);
        ds.num_classes = classes.len();
        ds
    }
}

/// One task of a Split-MNIST/-CIFAR continual learning stream: a binary
/// classification problem over one pair of classes.
#[derive(Debug, Clone)]
pub struct SplitTask {
    /// Training set (labels in `{0, 1}`).
    pub train: ImageDataset,
    /// Test set (labels in `{0, 1}`).
    pub test: ImageDataset,
    /// The original class pair.
    pub classes: [usize; 2],
}

/// Builds the five binary Split tasks `(0,1), (2,3), ..., (8,9)` from a
/// 10-class generator (Zenke et al., 2017 protocol).
pub fn split_tasks(
    gen: &ImageGenerator,
    n_train: usize,
    n_test: usize,
    seed: u64,
) -> Vec<SplitTask> {
    assert_eq!(gen.num_classes(), 10, "split_tasks: generator must have 10 classes");
    (0..5)
        .map(|t| {
            let classes = [2 * t, 2 * t + 1];
            SplitTask {
                train: gen.sample_remapped(n_train, &classes, seed + 100 + t as u64),
                test: gen.sample_remapped(n_test, &classes, seed + 200 + t as u64),
                classes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_label_range() {
        let gen = ImageGenerator::cifar_like(8, 8, 0);
        let ds = gen.sample(20, &[], 1);
        assert_eq!(ds.images.shape(), &[20, 3, 8, 8]);
        assert_eq!(ds.labels.shape(), &[20]);
        assert!(ds.labels.to_vec().iter().all(|&l| (0.0..10.0).contains(&l)));
        assert_eq!(ds.flattened().shape(), &[20, 192]);
    }

    #[test]
    fn batches_cover_dataset() {
        let gen = ImageGenerator::mnist_like(6, 6, 0);
        let ds = gen.sample(25, &[], 2);
        let batches = ds.batches(8);
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[3].0.shape()[0], 1);
        let total: usize = batches.iter().map(|(x, _)| x.shape()[0]).sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn same_class_images_are_more_similar_than_cross_class() {
        let gen = ImageGenerator::cifar_like(8, 8, 3);
        let dist = |u: &[f64], v: &[f64]| -> f64 {
            u.iter().zip(v).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        // Same class with different augmentations is closer than
        // cross-class *on average*; any single pair can lose the
        // comparison to augmentation noise, so measure the mean margin
        // over several independent draws.
        let (mut same, mut cross) = (0.0, 0.0);
        let pairs = 10;
        for s in 0..pairs {
            let a1 = gen.sample_remapped(1, &[0], 10 + s).images.to_vec();
            let a2 = gen.sample_remapped(1, &[0], 110 + s).images.to_vec();
            let b = gen.sample_remapped(1, &[5], 210 + s).images.to_vec();
            same += dist(&a1, &a2);
            cross += dist(&a1, &b);
        }
        assert!(same < cross, "class structure missing: {same} vs {cross}");
    }

    #[test]
    fn ood_generator_has_shifted_statistics() {
        let id = ImageGenerator::cifar_like(8, 8, 0).sample(50, &[], 5);
        let ood = ImageGenerator::svhn_like(8, 8, 0).sample(50, &[], 5);
        // The OOD shift is pure novelty: same marginal statistics but
        // disjoint prototypes, so ID/OOD images decorrelate.
        let d_id = id.images.slice(0, 0, 1).to_vec();
        let d_ood = ood.images.slice(0, 0, 1).to_vec();
        let dot: f64 = d_id.iter().zip(&d_ood).map(|(a, b)| a * b).sum();
        let n_id: f64 = d_id.iter().map(|v| v * v).sum::<f64>().sqrt();
        let n_ood: f64 = d_ood.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((dot / (n_id * n_ood)).abs() < 0.5, "OOD prototypes correlate with ID");
    }

    #[test]
    fn split_tasks_have_binary_labels_and_disjoint_classes() {
        let gen = ImageGenerator::mnist_like(6, 6, 0);
        let tasks = split_tasks(&gen, 16, 8, 0);
        assert_eq!(tasks.len(), 5);
        for (t, task) in tasks.iter().enumerate() {
            assert_eq!(task.classes, [2 * t, 2 * t + 1]);
            assert!(task.train.labels.to_vec().iter().all(|&l| l == 0.0 || l == 1.0));
            assert_eq!(task.test.len(), 8);
            assert_eq!(task.train.num_classes, 2);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let gen = ImageGenerator::cifar_like(8, 8, 0);
        let a = gen.sample(5, &[], 9).images.to_vec();
        let b = gen.sample(5, &[], 9).images.to_vec();
        assert_eq!(a, b);
    }
}
