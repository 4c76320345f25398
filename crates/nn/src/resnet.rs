//! A residual CNN in the style of the CIFAR ResNets (He et al., 2016) —
//! the `torchvision.models.resnet18` stand-in for the paper's Table 1 /
//! Figure 2 experiment.

use tyxe_tensor::Tensor;

use crate::layers::{BatchNorm2d, Conv2d, Linear};
use crate::module::{join_path, Forward, Module, ParamInfo};

/// A basic residual block: `conv3x3 - BN - ReLU - conv3x3 - BN` plus an
/// identity (or 1x1-projected) shortcut, followed by ReLU.
#[derive(Debug)]
pub struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    downsample: Option<(Conv2d, BatchNorm2d)>,
}

impl BasicBlock {
    /// Creates a block mapping `in_ch -> out_ch` with the given stride on
    /// the first convolution.
    pub fn new<R: tyxe_rand::Rng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        rng: &mut R,
    ) -> BasicBlock {
        let downsample = (stride != 1 || in_ch != out_ch).then(|| {
            (
                Conv2d::with_bias(in_ch, out_ch, 1, stride, 0, false, rng),
                BatchNorm2d::new(out_ch),
            )
        });
        BasicBlock {
            conv1: Conv2d::with_bias(in_ch, out_ch, 3, stride, 1, false, rng),
            bn1: BatchNorm2d::new(out_ch),
            conv2: Conv2d::with_bias(out_ch, out_ch, 3, 1, 1, false, rng),
            bn2: BatchNorm2d::new(out_ch),
            downsample,
        }
    }
}

impl Module for BasicBlock {
    fn kind(&self) -> &'static str {
        "BasicBlock"
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(ParamInfo)) {
        self.conv1.visit_params(&join_path(prefix, "conv1"), f);
        self.bn1.visit_params(&join_path(prefix, "bn1"), f);
        self.conv2.visit_params(&join_path(prefix, "conv2"), f);
        self.bn2.visit_params(&join_path(prefix, "bn2"), f);
        if let Some((conv, bn)) = &self.downsample {
            conv.visit_params(&join_path(prefix, "downsample.0"), f);
            bn.visit_params(&join_path(prefix, "downsample.1"), f);
        }
    }

    fn set_training(&self, training: bool) {
        self.bn1.set_training(training);
        self.bn2.set_training(training);
        if let Some((_, bn)) = &self.downsample {
            bn.set_training(training);
        }
    }

    fn visit_buffers(
        &self,
        prefix: &str,
        f: &mut dyn FnMut(String, &std::cell::RefCell<Vec<f64>>),
    ) {
        self.bn1.visit_buffers(&join_path(prefix, "bn1"), f);
        self.bn2.visit_buffers(&join_path(prefix, "bn2"), f);
        if let Some((_, bn)) = &self.downsample {
            bn.visit_buffers(&join_path(prefix, "downsample.1"), f);
        }
    }
}

impl Forward<Tensor> for BasicBlock {
    type Output = Tensor;

    fn forward(&self, input: &Tensor) -> Tensor {
        let out = self.bn1.forward(&self.conv1.forward(input)).relu();
        let out = self.bn2.forward(&self.conv2.forward(&out));
        let shortcut = match &self.downsample {
            Some((conv, bn)) => bn.forward(&conv.forward(input)),
            None => input.clone(),
        };
        out.add(&shortcut).relu()
    }
}

/// A CIFAR-style ResNet: 3x3 stem, three stages of basic blocks with
/// channel widths `[w, 2w, 4w]`, global average pooling and a linear
/// classifier.
#[derive(Debug)]
pub struct ResNet {
    stem_conv: Conv2d,
    stem_bn: BatchNorm2d,
    stages: Vec<Vec<BasicBlock>>,
    fc: Linear,
}

impl ResNet {
    /// Creates a ResNet with `blocks_per_stage` blocks in each of the three
    /// stages, base width `width`, on `in_channels` input channels,
    /// predicting `num_classes` logits.
    ///
    /// `blocks_per_stage = 1, width = 16` gives an 8-layer net (the scaled
    /// stand-in used in the benchmarks); `blocks_per_stage = 3` gives a
    /// ResNet-20.
    pub fn new<R: tyxe_rand::Rng + ?Sized>(
        in_channels: usize,
        num_classes: usize,
        blocks_per_stage: usize,
        width: usize,
        rng: &mut R,
    ) -> ResNet {
        assert!(blocks_per_stage >= 1, "ResNet: need at least one block per stage");
        let widths = [width, width * 2, width * 4];
        let stem_conv = Conv2d::with_bias(in_channels, width, 3, 1, 1, false, rng);
        let stem_bn = BatchNorm2d::new(width);
        let mut stages = Vec::new();
        let mut in_ch = width;
        for (s, &w) in widths.iter().enumerate() {
            let mut blocks = Vec::new();
            for b in 0..blocks_per_stage {
                let stride = if s > 0 && b == 0 { 2 } else { 1 };
                blocks.push(BasicBlock::new(in_ch, w, stride, rng));
                in_ch = w;
            }
            stages.push(blocks);
        }
        let fc = Linear::new(in_ch, num_classes, rng);
        ResNet {
            stem_conv,
            stem_bn,
            stages,
            fc,
        }
    }

    /// The classifier head (the "last layer" of the paper's LL guides).
    pub fn fc(&self) -> &Linear {
        &self.fc
    }

    /// Runs the convolutional trunk, returning pooled features `[N, D]`.
    pub fn features(&self, input: &Tensor) -> Tensor {
        let mut x = self.stem_bn.forward(&self.stem_conv.forward(input)).relu();
        for stage in &self.stages {
            for block in stage {
                x = block.forward(&x);
            }
        }
        x.global_avg_pool2d()
    }
}

impl Module for ResNet {
    fn kind(&self) -> &'static str {
        "ResNet"
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(ParamInfo)) {
        self.stem_conv.visit_params(&join_path(prefix, "conv1"), f);
        self.stem_bn.visit_params(&join_path(prefix, "bn1"), f);
        for (s, stage) in self.stages.iter().enumerate() {
            for (b, block) in stage.iter().enumerate() {
                block.visit_params(&join_path(prefix, &format!("layer{}.{b}", s + 1)), f);
            }
        }
        self.fc.visit_params(&join_path(prefix, "fc"), f);
    }

    fn set_training(&self, training: bool) {
        self.stem_bn.set_training(training);
        for stage in &self.stages {
            for block in stage {
                block.set_training(training);
            }
        }
    }

    fn visit_buffers(
        &self,
        prefix: &str,
        f: &mut dyn FnMut(String, &std::cell::RefCell<Vec<f64>>),
    ) {
        self.stem_bn.visit_buffers(&join_path(prefix, "bn1"), f);
        for (s, stage) in self.stages.iter().enumerate() {
            for (b, block) in stage.iter().enumerate() {
                block.visit_buffers(&join_path(prefix, &format!("layer{}.{b}", s + 1)), f);
            }
        }
    }
}

impl Forward<Tensor> for ResNet {
    type Output = Tensor;

    fn forward(&self, input: &Tensor) -> Tensor {
        self.fc.forward(&self.features(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = ResNet::new(3, 10, 1, 8, &mut rng);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[2, 10]);
        assert_eq!(net.features(&x).shape(), &[2, 32]);
    }

    #[test]
    fn parameter_names_include_batchnorm_kinds() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = ResNet::new(3, 10, 1, 8, &mut rng);
        let params = net.named_parameters();
        assert!(params.iter().any(|p| p.name == "conv1.weight"));
        assert!(params.iter().any(|p| p.name == "layer1.0.conv1.weight"));
        assert!(params.iter().any(|p| p.name == "fc.bias"));
        let bn_count = params.iter().filter(|p| p.module_kind == "BatchNorm2d").count();
        // stem + 2 per block + 1 downsample bn per stages 2 & 3, each with 2 params.
        assert_eq!(bn_count, 2 * (1 + 3 * 2 + 2));
    }

    #[test]
    fn downsample_present_only_on_stage_transitions() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = ResNet::new(3, 10, 2, 8, &mut rng);
        let names: Vec<String> = net.named_parameters().into_iter().map(|p| p.name).collect();
        assert!(names.iter().any(|n| n == "layer2.0.downsample.0.weight"));
        assert!(!names.iter().any(|n| n.contains("layer1.0.downsample")));
        assert!(!names.iter().any(|n| n.contains("layer2.1.downsample")));
    }

    #[test]
    fn gradient_reaches_stem() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = ResNet::new(3, 4, 1, 4, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        net.forward(&x).square().sum().backward();
        let stem = net
            .named_parameters()
            .into_iter()
            .find(|p| p.name == "conv1.weight")
            .unwrap();
        assert!(stem.param.leaf().grad().is_some());
    }

    #[test]
    fn eval_mode_switches_all_batchnorms() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = ResNet::new(3, 4, 1, 4, &mut rng);
        let x = Tensor::randn(&[4, 3, 8, 8], &mut rng);
        let _ = net.forward(&x); // accumulate running stats
        net.set_training(false);
        // In eval mode repeated forwards are deterministic and identical.
        let a = net.forward(&x).to_vec();
        let b = net.forward(&x).to_vec();
        assert_eq!(a, b);
    }
}
