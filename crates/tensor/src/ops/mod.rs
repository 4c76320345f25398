//! Tensor operations, grouped by kind.
//!
//! All ops are methods on [`crate::Tensor`]; these modules only organize the
//! implementations.

pub(crate) mod batch_norm;
pub(crate) mod binary;
pub(crate) mod conv;
pub mod fused;
pub mod gemm_kernels;
pub(crate) mod linalg;
pub(crate) mod matmul;
pub(crate) mod normal;
pub(crate) mod reduce;
pub(crate) mod shape_ops;
pub(crate) mod softmax;
pub mod tanh_kernel;
pub(crate) mod unary;

pub use fused::{Activation, ScaleMap};

/// Element count below which data-parallel kernels skip pool dispatch:
/// passed to [`tyxe_par::chunk_len`] as the minimum chunk, it keeps small
/// tensors on the calling thread (the chunk then covers the whole
/// buffer). Purely a scheduling knob — results are identical either way.
pub(crate) const PAR_MIN_ELEMS: usize = 32 * 1024;
