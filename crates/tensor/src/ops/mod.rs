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

/// The per-task grain, in elements, of the data-parallel kernels other
/// than GEMM (maps, reductions, transposes, batch norm): passed to
/// [`tyxe_par::chunk_len`] as the minimum chunk, so a kernel fans out
/// only when each task gets at least this many elements and a smaller
/// tensor stays on the calling thread. Its one role is that schedule (GEMMs use
/// `gemm_kernels`' `PAR_MIN_MADDS`); results are identical either way.
pub(crate) const PAR_MIN_ELEMS: usize = 32 * 1024;
