//! The one CPU feature check of the workspace: which instruction-set tier
//! the SIMD kernels run at — the standard-normal fill here ([`crate::fill`])
//! and `tyxe-tensor`'s GEMM and f64 `tanh`. Detected once per process;
//! every kernel that dispatches on a tier reads it from here, so the
//! kernels can never disagree about the machine.

use std::sync::OnceLock;

/// A kernel tier, ordered: a CPU that runs a tier runs every lower one.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Isa {
    /// No FMA: the kernels' portable builds. The normal fill and f64
    /// `tanh` run the FMA tiers' lane code compiled without target
    /// features; `f64::mul_add` is correctly rounded on every target, so
    /// they return the FMA tiers' bits.
    Base,
    /// AVX2 + FMA, 256-bit vectors.
    Avx2Fma,
    /// AVX-512F + AVX2 + FMA, 512-bit vectors.
    Avx512Fma,
}

/// The best tier this CPU supports.
pub fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // AVX2 without FMA gets the portable kernels.
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                if is_x86_feature_detected!("avx512f") {
                    return Isa::Avx512Fma;
                }
                return Isa::Avx2Fma;
            }
        }
        Isa::Base
    })
}
