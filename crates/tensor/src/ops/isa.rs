//! The one CPU feature check of the crate: which instruction-set tier the
//! SIMD kernels (`gemm_kernels`, `tanh_kernel`, `box_muller`) run at.
//! Detected once per process; every kernel that dispatches on a tier reads
//! it from here, so the kernels can never disagree about the machine.

use std::sync::OnceLock;

/// A kernel tier, ordered: a CPU that runs a tier runs every lower one.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum Isa {
    /// No FMA: portable scalar bodies (and libm for f64 `tanh` and the
    /// standard-normal fill).
    Base,
    /// AVX2 + FMA, 256-bit vectors.
    Avx2Fma,
    /// AVX-512F + FMA, 512-bit vectors.
    Avx512Fma,
}

/// The best tier this CPU supports.
pub(crate) fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma") {
                return Isa::Avx512Fma;
            }
            // AVX2 without FMA gets the portable kernels.
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return Isa::Avx2Fma;
            }
        }
        Isa::Base
    })
}
