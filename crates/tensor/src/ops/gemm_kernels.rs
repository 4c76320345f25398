//! Cache-blocked, SIMD-dispatched, multi-threaded `f64` GEMM kernels with
//! a bit-exact determinism contract.
//!
//! Three product shapes back every matrix product in the crate (see
//! [`crate::Tensor::matmul`], the fused linear layer and `conv2d`'s
//! im2col formulation):
//!
//! * [`gemm_ow`]    — `C = A·B`,   `A: [m×k]`, `B: [k×n]`
//! * [`gemm_at_ow`] — `C = Aᵀ·B`,  `A: [k×m]`, `B: [k×n]`
//! * [`gemm_bt_ow`] — `C = A·Bᵀ`,  `A: [m×k]`, `B: [n×k]`
//!
//! Every entry point *overwrites* `C`: each element is written without
//! being read, so callers can hand over uninitialized (pool-recycled)
//! output buffers and skip the zero-fill. A caller that needs a sum of
//! products writes each into its own buffer and adds them in a fixed
//! order (`conv2d`'s weight gradient reduces per-sample partials in
//! ascending sample order).
//!
//! # Determinism contract
//!
//! Every entry point computes, for each output element, the *same
//! sequence of floating-point operations* regardless of thread count or
//! matrix size — the one "zero-fill `C`, then accumulate" would run:
//!
//! * `gemm_ow`/`gemm_at_ow` store one fused/plain multiply-add chain per
//!   element, `p` ascending, seeded from `0.0`;
//! * `gemm_bt_ow` runs the same dot chain and stores `0.0 + dot`. The
//!   explicit add is `C += dot` into a zeroed `C`: it turns a `-0.0` dot
//!   into `+0.0`. It is not a no-op: under FMA, a chain seeded from `+0.0`
//!   rounds an underflowing negative product (`-1e-200 · 1e-200`) to
//!   `-0.0`, which `gemm_ow` keeps and `gemm_bt_ow` normalizes.
//!
//! The blocked path tiles over rows and columns only — `k` is never
//! split, and each output element's accumulator lives in one register
//! for the whole `k` loop — so blocking cannot reorder any element's
//! reduction. Threads partition disjoint, MR-aligned row blocks of `C`,
//! so partitioning cannot either. The retained reference kernels
//! ([`gemm_ow_ref`] and friends) follow the identical per-element
//! recipe; the unit tests below pin all nine entry points bitwise to an
//! in-test zero-fill-then-accumulate loop, and
//! `tests/parallel_identity.rs` pins blocked against reference.
//!
//! # SIMD dispatch and the `madd` recipe
//!
//! Kernels are compiled per ISA via `#[target_feature]` wrappers and
//! selected once at runtime.
//! On CPUs with FMA the multiply-add is a true fused `mul_add` (single
//! rounding) in *both* the blocked and the reference kernels; without
//! FMA both use plain `mul` + `add`. Results are therefore bit-identical
//! across thread counts and against the reference on any given machine,
//! though they may differ *between* machines with different FMA support
//! — the same caveat that applies to any BLAS. Rust never auto-contracts
//! `a * b + c`, so the non-FMA path is stable too.

// Microkernels take (k, ap, bp, c, ldc, rows, cols, mode): the
// signature is the MicroFn ABI shared by every `#[target_feature]`
// instantiation, so bundling arguments into a struct would just move
// the field list without removing it.
#![allow(clippy::too_many_arguments)]

use crate::pool;
use tyxe_rand::isa::{isa, Isa};

/// Work (in multiply-adds, `m·k·n`) below which the blocked path is not
/// worth its packing and dispatch overhead; small products use the
/// reference kernels directly. Both paths obey the same per-element
/// recipe, so the cutoff never affects results.
const BLOCK_MIN_MADDS: usize = 32 * 32 * 32;

/// Column-block width in *elements*: `bp` holds `NC` packed columns
/// (`k × NC` elements), sized to stay comfortably inside L2 for the `k`
/// ranges seen here. `conv2d` sizes its sample groups to about one block
/// of output columns.
pub(crate) const NC: usize = 256;

// ---------------------------------------------------------------------------
// ISA selection
// ---------------------------------------------------------------------------

/// Whether this process's kernels fuse multiply-adds (hardware FMA).
pub fn uses_fma() -> bool {
    matches!(isa(), Isa::Avx2Fma | Isa::Avx512Fma)
}

/// Human-readable label of the selected kernel ISA (for bench reports).
pub fn simd_label() -> &'static str {
    match isa() {
        Isa::Base => "baseline",
        Isa::Avx2Fma => "avx2+fma",
        Isa::Avx512Fma => "avx512+fma",
    }
}

// ---------------------------------------------------------------------------
// Observability probes
// ---------------------------------------------------------------------------

/// tyxe-obs instrumentation for the public GEMM entry points: per-call
/// span (shape + kernel variant + ISA as the span arg), call counters
/// tagged by `variant`/`path`, a FLOP counter, and panel-size gauges. Everything downstream of the single
/// `tyxe_obs::enabled()` load is skipped when observability is off.
mod probe {
    use std::sync::OnceLock;

    use tyxe_obs::metrics::{Counter, Gauge};
    use tyxe_obs::trace::SpanGuard;

    /// Transpose variants of the public entry points, probe index order.
    pub const VARIANTS: [&str; 3] = ["nn", "at", "bt"];

    struct Handles {
        flops: Counter,
        /// `[variant][path]` flattened; path 0 = reference, 1 = blocked.
        calls: Vec<Counter>,
    }

    fn handles() -> &'static Handles {
        static H: OnceLock<Handles> = OnceLock::new();
        H.get_or_init(|| {
            // ISA choice is process-constant: publish it once as a
            // presence gauge so snapshots record which kernels ran.
            tyxe_obs::metrics::gauge_tagged(
                "tensor.gemm.isa",
                &[("isa", super::simd_label())],
                "flag",
            )
            .set(1.0);
            Handles {
                flops: tyxe_obs::metrics::counter_tagged("tensor.gemm.flops", &[], "flop"),
                calls: VARIANTS
                    .iter()
                    .flat_map(|v| {
                        ["reference", "blocked"].iter().map(move |p| {
                            tyxe_obs::metrics::counter_tagged(
                                "tensor.gemm.calls",
                                &[("variant", v), ("path", p)],
                                "count",
                            )
                        })
                    })
                    .collect(),
            }
        })
    }

    /// Record panel geometry of the selected blocked microkernel.
    pub fn panels(mr: usize, nr: usize) {
        static G: OnceLock<(Gauge, Gauge)> = OnceLock::new();
        let (mr_g, nr_g) = G.get_or_init(|| {
            (
                tyxe_obs::metrics::gauge_tagged("tensor.gemm.panel_mr", &[], "count"),
                tyxe_obs::metrics::gauge_tagged("tensor.gemm.panel_nr", &[], "count"),
            )
        });
        mr_g.set(mr as f64);
        nr_g.set(nr as f64);
    }

    /// One probe per public GEMM call, of `batch` products of one shape
    /// (1 but for [`super::gemm_bt_ow_batched`]). Returns the call's span
    /// guard (`None` when observability is disabled: one atomic load).
    #[inline]
    pub fn gemm(
        variant: usize,
        blocked: bool,
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) -> Option<SpanGuard> {
        if !tyxe_obs::enabled() {
            return None;
        }
        let h = handles();
        h.flops.add(2 * (batch * m * k * n) as u64);
        h.calls[variant * 2 + blocked as usize].inc();
        let path = if blocked { "blocked" } else { "reference" };
        let shape = if batch == 1 { format!("{m}x{k}x{n}") } else { format!("{batch}*{m}x{k}x{n}") };
        Some(SpanGuard::enter_with_arg(
            "tensor.gemm",
            format!("{}/{path} {shape} {}", VARIANTS[variant], super::simd_label()),
        ))
    }
}

/// How a kernel stores its finished register accumulators into `C`.
///
/// Accumulators always start from `0.0` and `C` is never read, so both
/// modes are safe on uninitialized buffers. They stay apart because
/// they differ on a `-0.0` accumulator (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Acc {
    /// Store `acc` (`gemm_ow`/`gemm_at_ow`).
    Overwrite,
    /// Store `0.0 + acc` (`gemm_bt_ow`: a `-0.0` dot becomes `+0.0`).
    OverwriteDot,
}

/// `acc` as `mode` stores it into `C`.
#[inline(always)]
fn store(acc: f64, mode: Acc) -> f64 {
    match mode {
        Acc::Overwrite => acc,
        Acc::OverwriteDot => 0.0 + acc,
    }
}

/// The single multiply-add recipe all kernels share.
#[inline(always)]
fn madd<const FMA: bool>(acc: f64, a: f64, b: f64) -> f64 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Scalar multiply-add matching this machine's kernel semantics; exported
/// so tests can build independent references (e.g. a direct convolution)
/// that stay bit-comparable to the tensor ops.
pub fn madd_runtime(acc: f64, a: f64, b: f64) -> f64 {
    if uses_fma() {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

// ---------------------------------------------------------------------------
// Reference kernels (retained; also serve products below the size cutoff)
// ---------------------------------------------------------------------------

// Note for the perf log: the seed's `if av == 0.0 { continue; }`
// zero-skip was dropped. Measured on the 256³ dense bench it was a wash
// (≤0.1% either way — the branch predicts perfectly but saves nothing on
// dense operands), and skipping `+= 0.0 * b` terms changes signed-zero
// and NaN propagation, which would break the bitwise contract between
// these references and the branch-free blocked kernels.

// Each reference writes, per element, the chain that zero-filling `C`
// and accumulating into it would run: the `p == 0` pass *writes*
// `madd(0.0, a, b)`, later `p` passes accumulate, so no element is read
// before it is written and no zero-fill is needed. `k == 0` degenerates
// to the zero-fill itself.

#[inline(always)]
fn gemm_ow_ref_body<const FMA: bool>(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    if k == 0 {
        c[..m * n].fill(0.0);
        return;
    }
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        let av = a[i * k];
        let brow = &b[..n];
        for j in 0..n {
            crow[j] = madd::<FMA>(0.0, av, brow[j]);
        }
        for p in 1..k {
            let av = a[i * k + p];
            let brow = &b[p * n..(p + 1) * n];
            for j in 0..n {
                crow[j] = madd::<FMA>(crow[j], av, brow[j]);
            }
        }
    }
}

#[inline(always)]
fn gemm_at_ow_ref_body<const FMA: bool>(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    if k == 0 {
        c[..m * n].fill(0.0);
        return;
    }
    let brow0 = &b[..n];
    for i in 0..m {
        let av = a[i];
        let crow = &mut c[i * n..(i + 1) * n];
        for j in 0..n {
            crow[j] = madd::<FMA>(0.0, av, brow0[j]);
        }
    }
    for p in 1..k {
        for i in 0..m {
            let av = a[p * m + i];
            let brow = &b[p * n..(p + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for j in 0..n {
                crow[j] = madd::<FMA>(crow[j], av, brow[j]);
            }
        }
    }
}

#[inline(always)]
fn gemm_bt_ow_ref_body<const FMA: bool>(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let arow = &a[i * k..(i + 1) * k];
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for p in 0..k {
                acc = madd::<FMA>(acc, arow[p], brow[p]);
            }
            // `0.0 + acc`: the add into a zeroed C (a `-0.0` dot
            // becomes `+0.0`).
            c[i * n + j] = 0.0 + acc;
        }
    }
}

// `#[target_feature]` must sit on the fn it compiles, so each reference
// gets one FMA instantiation the pub entry routes to.
macro_rules! def_ref {
    ($pub_name:ident, $body:ident, $fma:ident, $doc:literal) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "fma")]
        unsafe fn $fma(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
            $body::<true>(a, b, c, m, k, n);
        }

        #[doc = $doc]
        ///
        /// This is the retained naive reference: a plain triple loop
        /// following the shared per-element recipe. The blocked kernels
        /// are bit-identical to it (see the module docs).
        pub fn $pub_name(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
            #[cfg(target_arch = "x86_64")]
            if uses_fma() {
                // SAFETY: `uses_fma()` implies the `fma` target feature.
                unsafe { $fma(a, b, c, m, k, n) };
                return;
            }
            $body::<false>(a, b, c, m, k, n);
        }
    };
}

def_ref!(gemm_ow_ref, gemm_ow_ref_body, gemm_ow_ref_fma, "Reference overwrite `C = A·B` (`A: [m×k]`, `B: [k×n]`); `C` may be uninitialized.");
def_ref!(gemm_at_ow_ref, gemm_at_ow_ref_body, gemm_at_ow_ref_fma, "Reference overwrite `C = Aᵀ·B` (`A: [k×m]`, `B: [k×n]`); `C` may be uninitialized.");
def_ref!(gemm_bt_ow_ref, gemm_bt_ow_ref_body, gemm_bt_ow_ref_fma, "Reference overwrite `C = A·Bᵀ` (`A: [m×k]`, `B: [n×k]`); `C` may be uninitialized.");

// ---------------------------------------------------------------------------
// Narrow-shape kernels (m == 1, n == 1, or k == 1)
// ---------------------------------------------------------------------------
//
// Degenerate products — matrix·vector, vector·matrix, outer products —
// are a terrible fit for the packed-panel path: an `n == 1` product
// pads its B micropanels out to NR columns and burns NR× the madds, and
// packing overhead dwarfs the O(m·k) useful work. They are also a bad
// fit for the scalar references, which leave lanes and FMA ports idle.
//
// The kernels below keep the exact per-element recipe (each output is
// one p-ascending madd chain from 0.0; `bt` dots are stored as
// `0.0 + dot`) but restructure the *loops* so the work vectorizes: dot-shaped
// products run four independent rows per pass (independent chains hide
// FMA latency), axpy-shaped products make the contiguous operand row
// the inner loop, and outer products stream the contiguous side.
// Multiplication order inside a madd is irrelevant to the result
// (IEEE multiply is commutative), so pairing the swapped operand order
// of some calls below with the shared recipe is still bit-identical to
// the references — which the `narrow_matches_reference_bitwise` test
// pins down.

/// `c[i] = chain_p(rows[i·k + p] · coeff[p])` for `m` contiguous rows:
/// the dot-shaped narrow case (`nn`/`bt` with `n == 1`, `bt` with
/// `m == 1` after swapping roles). Four independent chains per pass.
#[inline(always)]
fn narrow_dots_body<const FMA: bool>(
    rows: &[f64],
    coeff: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    mode: Acc,
) {
    let mut i = 0;
    while i + 4 <= m {
        let r0 = &rows[i * k..i * k + k];
        let r1 = &rows[(i + 1) * k..(i + 1) * k + k];
        let r2 = &rows[(i + 2) * k..(i + 2) * k + k];
        let r3 = &rows[(i + 3) * k..(i + 3) * k + k];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for p in 0..k {
            let bv = coeff[p];
            s0 = madd::<FMA>(s0, r0[p], bv);
            s1 = madd::<FMA>(s1, r1[p], bv);
            s2 = madd::<FMA>(s2, r2[p], bv);
            s3 = madd::<FMA>(s3, r3[p], bv);
        }
        c[i] = store(s0, mode);
        c[i + 1] = store(s1, mode);
        c[i + 2] = store(s2, mode);
        c[i + 3] = store(s3, mode);
        i += 4;
    }
    while i < m {
        let row = &rows[i * k..i * k + k];
        let mut s = 0.0;
        for p in 0..k {
            s = madd::<FMA>(s, row[p], coeff[p]);
        }
        c[i] = store(s, mode);
        i += 1;
    }
}

/// `c[j] = chain_p(coeff[p] · rows[p·stride + j])` for `l` outputs:
/// the axpy-shaped narrow case (`at` with `n == 1`, `nn`/`at` with
/// `m == 1`), `p` outermost so the contiguous operand row is the vector
/// inner loop. `stride` is the full row length of `rows`; callers
/// working a column window pass a pre-offset `rows` slice and keep the
/// original stride. Same recipe as the references: the `p == 0` pass
/// writes `madd(0.0, …)` instead of reading `C` (`k ≥ 1`: narrow shapes
/// have no empty dimension).
#[inline(always)]
fn narrow_axpy_body<const FMA: bool>(
    coeff: &[f64],
    rows: &[f64],
    c: &mut [f64],
    l: usize,
    stride: usize,
    k: usize,
) {
    let av = coeff[0];
    let row = &rows[..l];
    for j in 0..l {
        c[j] = madd::<FMA>(0.0, av, row[j]);
    }
    for p in 1..k {
        let av = coeff[p];
        let row = &rows[p * stride..p * stride + l];
        let crow = &mut c[..l];
        for j in 0..l {
            crow[j] = madd::<FMA>(crow[j], av, row[j]);
        }
    }
}

/// `c[i,j] = a[i] · b[j]`: the `k == 1` outer-product case for all
/// three variants (the length-1 "chain" is a single madd).
#[inline(always)]
fn narrow_outer_body<const FMA: bool>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    mode: Acc,
) {
    for i in 0..m {
        let av = a[i];
        let crow = &mut c[i * n..(i + 1) * n];
        match mode {
            Acc::Overwrite => {
                for j in 0..n {
                    crow[j] = madd::<FMA>(0.0, av, b[j]);
                }
            }
            Acc::OverwriteDot => {
                for j in 0..n {
                    crow[j] = 0.0 + madd::<FMA>(0.0, av, b[j]);
                }
            }
        }
    }
}

/// ISA-dispatched wrappers for one narrow body: plain scalar on Base and
/// AVX2+FMA otherwise (the AVX-512 machines run the 256-bit build of the
/// same recipe — these kernels are load-bound, not ALU-bound).
macro_rules! def_narrow {
    ($name:ident, $body:ident, $fma:ident,
     ($($arg:ident : $ty:ty),*)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn $fma($($arg: $ty),*) {
            $body::<true>($($arg),*);
        }

        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            match isa() {
                // SAFETY: `isa()` verified the matching target features.
                Isa::Avx2Fma | Isa::Avx512Fma => return unsafe { $fma($($arg),*) },
                Isa::Base => {}
            }
            $body::<false>($($arg),*);
        }
    };
}

def_narrow!(narrow_dots, narrow_dots_body, narrow_dots_fma,
    (rows: &[f64], coeff: &[f64], c: &mut [f64], m: usize, k: usize, mode: Acc));
def_narrow!(narrow_axpy, narrow_axpy_body, narrow_axpy_fma,
    (coeff: &[f64], rows: &[f64], c: &mut [f64], l: usize, stride: usize, k: usize));
def_narrow!(narrow_outer, narrow_outer_body, narrow_outer_fma,
    (a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, mode: Acc));

// Parallel drivers over the single-threaded cores. Each partitions `C`
// along an axis that keeps every output element's whole madd chain on
// one thread — rows for the dot/outer shapes, columns for axpy — so
// thread count can never reorder a reduction, exactly like the blocked
// driver's row partitioning. Products below the blocked path's work
// cutoff stay inline; larger ones go through the pool (and emit the
// same `tensor.gemm.block` per-chunk span, so traces keep showing where
// GEMM work actually ran).

fn narrow_dots_par(rows: &[f64], coeff: &[f64], c: &mut [f64], m: usize, k: usize, mode: Acc) {
    if m * k < BLOCK_MIN_MADDS {
        return narrow_dots(rows, coeff, c, m, k, mode);
    }
    let chunk = tyxe_par::chunk_len(m, 4, 4);
    tyxe_par::parallel_for_chunks(c, chunk, |start, c_chunk| {
        let _span = tyxe_obs::span!("tensor.gemm.block");
        let rows_here = c_chunk.len();
        narrow_dots(&rows[start * k..(start + rows_here) * k], coeff, c_chunk, rows_here, k, mode);
    });
}

fn narrow_axpy_par(coeff: &[f64], rows: &[f64], c: &mut [f64], l: usize, k: usize) {
    if l * k < BLOCK_MIN_MADDS {
        return narrow_axpy(coeff, rows, c, l, l, k);
    }
    let chunk = tyxe_par::chunk_len(l, 8, 8);
    tyxe_par::parallel_for_chunks(c, chunk, |start, c_chunk| {
        let _span = tyxe_obs::span!("tensor.gemm.block");
        // Column window [start, start+len): offset the rows base, keep
        // the full row stride.
        narrow_axpy(coeff, &rows[start..], c_chunk, c_chunk.len(), l, k);
    });
}

fn narrow_outer_par(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, mode: Acc) {
    if m * n < BLOCK_MIN_MADDS {
        return narrow_outer(a, b, c, m, n, mode);
    }
    let chunk = tyxe_par::chunk_len(m, 1, 1) * n;
    tyxe_par::parallel_for_chunks(c, chunk, |start, c_chunk| {
        let _span = tyxe_obs::span!("tensor.gemm.block");
        let (i0, rows_here) = (start / n, c_chunk.len() / n);
        narrow_outer(&a[i0..i0 + rows_here], b, c_chunk, rows_here, n, mode);
    });
}

/// Whether the public dispatchers should take the narrow path: some
/// dimension is degenerate and none is empty (empty products fall
/// through to the references, which handle `k == 0` zero-fills).
#[inline]
fn narrow_dims(m: usize, k: usize, n: usize) -> bool {
    m.min(k).min(n) == 1
}

/// Narrow `nn` dispatch.
fn narrow_nn(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    if k == 1 {
        narrow_outer_par(&a[..m], &b[..n], c, m, n, Acc::Overwrite);
    } else if m == 1 {
        narrow_axpy_par(&a[..k], b, c, n, k);
    } else {
        // n == 1: B is [k×1], i.e. a contiguous coefficient column.
        narrow_dots_par(a, &b[..k], c, m, k, Acc::Overwrite);
    }
}

/// Narrow `at` dispatch (`A: [k×m]`).
fn narrow_at(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    if k == 1 {
        // A is [1×m]: an outer product, same as nn.
        narrow_outer_par(&a[..m], &b[..n], c, m, n, Acc::Overwrite);
    } else if m == 1 {
        // A is [k×1]: the coefficient column of an axpy over B's rows.
        narrow_axpy_par(&a[..k], b, c, n, k);
    } else {
        // n == 1: p-major A rows are contiguous — axpy over A's rows
        // with B ([k×1]) as the coefficients.
        narrow_axpy_par(&b[..k], a, c, m, k);
    }
}

/// Narrow `bt` dispatch (`B: [n×k]`): every store is a dot-mode store.
fn narrow_bt(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    if k == 1 {
        // B is [n×1], contiguous: an outer product.
        narrow_outer_par(&a[..m], &b[..n], c, m, n, Acc::OverwriteDot);
    } else if m == 1 {
        // One A row dotted against every B row.
        narrow_dots_par(b, &a[..k], c, n, k, Acc::OverwriteDot);
    } else {
        // n == 1: one B row dotted against every A row.
        narrow_dots_par(a, &b[..k], c, m, k, Acc::OverwriteDot);
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Packs `rows ≤ MR` rows of the logical `A[i,p]` (element stride
/// `a[i·ris + p·pis]`) into a `k × MR` p-major micropanel, zero-padding
/// missing rows.
fn pack_a<const MR: usize>(
    a: &[f64],
    ris: usize,
    pis: usize,
    i0: usize,
    rows: usize,
    k: usize,
    ap: &mut [f64],
) {
    for p in 0..k {
        let dst = &mut ap[p * MR..(p + 1) * MR];
        for (ii, slot) in dst.iter_mut().enumerate() {
            *slot = if ii < rows { a[(i0 + ii) * ris + p * pis] } else { 0.0 };
        }
    }
}

/// Packs `cols ≤ NR` columns of the logical `B[p,j]` (element stride
/// `b[p·pis + j·cis]`) into a `k × NR` p-major micropanel, zero-padding
/// missing columns. The pad multiplies into accumulator lanes that are
/// never stored. A full panel whose rows (`nn`, `at`) or columns (`bt`)
/// are contiguous moves without a per-element test.
fn pack_b<const NR: usize>(
    b: &[f64],
    pis: usize,
    cis: usize,
    j0: usize,
    cols: usize,
    k: usize,
    bp: &mut [f64],
) {
    if cols == NR && cis == 1 {
        for p in 0..k {
            bp[p * NR..(p + 1) * NR].copy_from_slice(&b[p * pis + j0..][..NR]);
        }
        return;
    }
    if cols == NR && pis == 1 && k > 0 {
        for jj in 0..NR {
            for (p, &v) in b[(j0 + jj) * cis..][..k].iter().enumerate() {
                bp[p * NR + jj] = v;
            }
        }
        return;
    }
    for p in 0..k {
        let dst = &mut bp[p * NR..(p + 1) * NR];
        for (jj, slot) in dst.iter_mut().enumerate() {
            *slot = if jj < cols { b[p * pis + (j0 + jj) * cis] } else { 0.0 };
        }
    }
}

// ---------------------------------------------------------------------------
// Microkernel
// ---------------------------------------------------------------------------

/// An MR×NR register tile over packed panels. `mode` selects how the
/// accumulators are stored (see [`Acc`]); `C` is never read, so the
/// output may be uninitialized. The full-tile fast path has
/// compile-time bounds so LLVM keeps `acc` entirely in vector registers.
#[inline(always)]
fn micro_body<const MR: usize, const NR: usize, const FMA: bool>(
    k: usize,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    rows: usize,
    cols: usize,
    mode: Acc,
) {
    let mut acc = [[0.0; NR]; MR];
    if rows == MR && cols == NR {
        for p in 0..k {
            let av: &[f64; MR] = ap[p * MR..p * MR + MR].try_into().unwrap();
            let bv: &[f64; NR] = bp[p * NR..p * NR + NR].try_into().unwrap();
            for ii in 0..MR {
                let a = av[ii];
                for jj in 0..NR {
                    acc[ii][jj] = madd::<FMA>(acc[ii][jj], a, bv[jj]);
                }
            }
        }
        for ii in 0..MR {
            for jj in 0..NR {
                c[ii * ldc + jj] = store(acc[ii][jj], mode);
            }
        }
        return;
    }
    // Edge tile: dynamic bounds on the C side, padded panels on the
    // packed side; the extra lanes are discarded below.
    for p in 0..k {
        let av: &[f64; MR] = ap[p * MR..p * MR + MR].try_into().unwrap();
        let bv: &[f64; NR] = bp[p * NR..p * NR + NR].try_into().unwrap();
        for ii in 0..MR {
            let a = av[ii];
            for jj in 0..NR {
                acc[ii][jj] = madd::<FMA>(acc[ii][jj], a, bv[jj]);
            }
        }
    }
    for ii in 0..rows {
        for jj in 0..cols {
            c[ii * ldc + jj] = store(acc[ii][jj], mode);
        }
    }
}

type MicroFn = unsafe fn(usize, &[f64], &[f64], &mut [f64], usize, usize, usize, Acc);

/// Microkernel instantiations. Tile shapes were tuned on a dense 256³
/// product: wider tiles starve the narrow ISAs of registers, narrower
/// ones starve the wide ISAs of independent accumulator chains.
/// The autovectorized bodies cap out around 32 accumulator *registers*
/// (LLVM's SROA promotion limit; bigger tiles spill to the stack), so
/// the AVX-512 kernel is hand-written with intrinsics to hold a full
/// 8×2-zmm register tile.
unsafe fn micro_base_f64(
    k: usize, ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize, rows: usize, cols: usize, mode: Acc,
) {
    micro_body::<2, 8, false>(k, ap, bp, c, ldc, rows, cols, mode);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_avx2_fma_f64(
    k: usize, ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize, rows: usize, cols: usize, mode: Acc,
) {
    micro_body::<4, 8, true>(k, ap, bp, c, ldc, rows, cols, mode);
}

/// AVX-512 f64 microkernel, written with explicit intrinsics: an 8×16
/// tile needs 16 zmm accumulators, and a `[[f64; 16]; 8]` Rust array is
/// 128 scalars — past LLVM's SROA promotion limit, so the autovectorized
/// generic body spills every accumulator to the stack after each FMA
/// and runs store-bound (measured ~2× slower). Holding the tile in 16
/// `__m512d` values keeps it in registers. The per-element recipe is
/// unchanged — one `vfmaddpd` (= `mul_add`) per `p`, `p` ascending —
/// so results stay bit-identical to the generic body and references.
/// Partial edge tiles run the same register tile over the zero-padded
/// panels and store through lane masks: on a conv's sample group, whose
/// width is rarely a multiple of 16, the generic body's spilling edge
/// tile cost ~9× a full tile per call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "fma")]
unsafe fn micro_avx512_fma_f64(
    k: usize, ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize, rows: usize, cols: usize, mode: Acc,
) {
    use core::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 16;
    debug_assert!(ap.len() >= k * MR && bp.len() >= k * NR);
    debug_assert!((1..=MR).contains(&rows) && (1..=NR).contains(&cols) && c.len() >= (rows - 1) * ldc + cols);
    let mut acc = [[_mm512_setzero_pd(); 2]; MR];
    let mut a_ptr = ap.as_ptr();
    let mut b_ptr = bp.as_ptr();
    for _ in 0..k {
        let b0 = _mm512_loadu_pd(b_ptr);
        let b1 = _mm512_loadu_pd(b_ptr.add(8));
        for (ii, a) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*a_ptr.add(ii));
            a[0] = _mm512_fmadd_pd(av, b0, a[0]);
            a[1] = _mm512_fmadd_pd(av, b1, a[1]);
        }
        a_ptr = a_ptr.add(MR);
        b_ptr = b_ptr.add(NR);
    }
    // An edge tile stores its `rows × cols` corner through lane masks: the
    // panels' zero pads only ever reached lanes the masks leave out.
    let (m0, m1) = (((1u32 << cols.min(8)) - 1) as __mmask8, ((1u32 << cols.saturating_sub(8)) - 1) as __mmask8);
    for (ii, a) in acc.iter().enumerate().take(rows) {
        let dst = c.as_mut_ptr().add(ii * ldc);
        let (v0, v1) = match mode {
            Acc::Overwrite => (a[0], a[1]),
            // `0.0 + acc`, as in the references: a `-0.0` dot becomes
            // `+0.0`.
            Acc::OverwriteDot => (_mm512_add_pd(_mm512_setzero_pd(), a[0]), _mm512_add_pd(_mm512_setzero_pd(), a[1])),
        };
        _mm512_mask_storeu_pd(dst, m0, v0);
        _mm512_mask_storeu_pd(dst.add(8), m1, v1);
    }
}

// ---------------------------------------------------------------------------
// Blocked driver
// ---------------------------------------------------------------------------

/// Strided view of a logical operand: `elem(r, c) = data[r·rs + c·cs]`.
#[derive(Clone, Copy)]
struct StridedMat<'a> {
    data: &'a [f64],
    rs: usize,
    cs: usize,
}

/// Where the blocked driver runs a product's row blocks, and where it
/// packs `B`.
pub(crate) enum Rows<'s> {
    /// Across the thread pool, one scope per column block; `B` packs into
    /// pool scratch.
    Pool,
    /// All on the calling thread, so no scope opens: for a caller that is
    /// itself one task of a scope (`conv2d`'s sample groups). `B` packs
    /// into the caller's scratch, grown on first use and reused by every
    /// later product.
    Here(&'s mut Vec<f64>),
}

/// Packed-panel blocked GEMM: columns are processed in `NC`-wide blocks
/// (B packed once per block into NR-wide micropanels), rows in
/// MR-aligned blocks, partitioned across the thread pool or all on the
/// caller's thread as `rows` says (each row chunk packs its own A
/// micropanels). `k` is deliberately never tiled — see the module-level
/// determinism contract.
fn gemm_blocked_driver<const MR: usize, const NR: usize>(
    a: StridedMat<'_>,
    b: StridedMat<'_>,
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    mode: Acc,
    micro: MicroFn,
    rows: Rows<'_>,
) {
    if m == 0 || n == 0 {
        return;
    }
    // Packed B holds this product's widest column block (`min(n, NC)`
    // columns, whole NR panels) when that fits the pool. Beyond the
    // pool's ceiling it is a fresh allocation per call, and the full `NC`
    // block stays: on `tab2_gcn_mf`'s 16×350×49 weight gradient a
    // product-sized one measured ~5 % slower end to end (DESIGN.md §7).
    // A caller's scratch holds the product-sized block. `pack_b`/`pack_a`
    // write every slot the microkernel reads, zero pads included, so no
    // scratch needs zeroing.
    let sized = k.max(1) * NC.min(n).next_multiple_of(NR);
    let pooled = matches!(rows, Rows::Pool);
    let mut pool_bp;
    let bp: &mut [f64] = match rows {
        Rows::Pool => {
            pool_bp = pool::alloc_uninit(if pool::recycles(sized) { sized } else { k.max(1) * NC });
            &mut pool_bp
        }
        Rows::Here(v) => {
            if v.len() < sized {
                v.resize(sized, 0.0);
            }
            &mut v[..sized]
        }
    };
    let mut j0 = 0;
    while j0 < n {
        let ncb = NC.min(n - j0);
        let npanels = ncb.div_ceil(NR);
        let panel = k * NR;
        for jp in 0..npanels {
            let j = j0 + jp * NR;
            pack_b::<NR>(
                b.data,
                b.rs,
                b.cs,
                j,
                NR.min(n - j),
                k,
                &mut bp[jp * panel..(jp + 1) * panel],
            );
        }
        let bp = &bp[..npanels * panel.max(1)];
        let row_chunk = |start: usize, c_chunk: &mut [f64]| {
            // Recorded on whichever thread (worker or drain-assisting
            // caller) executes the chunk, so traces show the blocked
            // GEMM's actual parallel placement.
            let _span = tyxe_obs::span!("tensor.gemm.block");
            let i_base = start / n;
            let rows_here = c_chunk.len() / n;
            let mut ap = pool::alloc_uninit(k.max(1) * MR);
            let mut i = 0;
            while i < rows_here {
                let rows = MR.min(rows_here - i);
                pack_a::<MR>(a.data, a.rs, a.cs, i_base + i, rows, k, &mut ap);
                for jp in 0..npanels {
                    let j = j0 + jp * NR;
                    let cols = NR.min(n - j);
                    // SAFETY: `micro` was selected to match the features
                    // `isa()` detected on this CPU.
                    unsafe {
                        micro(k, &ap, &bp[jp * panel..(jp + 1) * panel], &mut c_chunk[i * n + j..], n, rows, cols, mode);
                    }
                }
                i += MR;
            }
        };
        if pooled {
            tyxe_par::parallel_for_chunks(c, tyxe_par::chunk_len(m, MR, MR) * n, row_chunk);
        } else {
            row_chunk(0, c);
        }
        j0 += ncb;
    }
}

fn blocked_dispatch(a: StridedMat<'_>, b: StridedMat<'_>, c: &mut [f64], m: usize, k: usize, n: usize, mode: Acc, rows: Rows<'_>) {
    if tyxe_obs::enabled() {
        match isa() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512Fma => probe::panels(8, 16),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => probe::panels(4, 8),
            _ => probe::panels(2, 8),
        }
    }
    match isa() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Fma => gemm_blocked_driver::<8, 16>(a, b, c, m, k, n, mode, micro_avx512_fma_f64, rows),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => gemm_blocked_driver::<4, 8>(a, b, c, m, k, n, mode, micro_avx2_fma_f64, rows),
        _ => gemm_blocked_driver::<2, 8>(a, b, c, m, k, n, mode, micro_base_f64, rows),
    }
}

// ---------------------------------------------------------------------------
// Forced-blocked entry points (exercised directly by the property tests)
// ---------------------------------------------------------------------------

/// Blocked overwrite `C = A·B`, bypassing the small-size cutoff.
pub fn gemm_ow_blocked(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    blocked_dispatch(
        StridedMat { data: a, rs: k, cs: 1 },
        StridedMat { data: b, rs: n, cs: 1 },
        c, m, k, n, Acc::Overwrite, Rows::Pool,
    );
}

/// Blocked overwrite `C = Aᵀ·B` (`A: [k×m]`), bypassing the small-size cutoff.
pub fn gemm_at_ow_blocked(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    blocked_dispatch(
        StridedMat { data: a, rs: 1, cs: m },
        StridedMat { data: b, rs: n, cs: 1 },
        c, m, k, n, Acc::Overwrite, Rows::Pool,
    );
}

/// Blocked overwrite `C = A·Bᵀ` (`B: [n×k]`), bypassing the small-size cutoff.
pub fn gemm_bt_ow_blocked(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    blocked_dispatch(
        StridedMat { data: a, rs: k, cs: 1 },
        StridedMat { data: b, rs: 1, cs: k },
        c, m, k, n, Acc::OverwriteDot, Rows::Pool,
    );
}

// ---------------------------------------------------------------------------
// Public dispatching entry points (used by matmul / fused / conv / linalg)
// ---------------------------------------------------------------------------

/// Overwrite `C = A·B` — narrow kernels on degenerate shapes, blocked +
/// parallel above the size cutoff, reference below; bit-identical every
/// way. Every element of `C` is written without being read, so `C` may
/// hold arbitrary (pool-recycled) garbage on entry.
pub fn gemm_ow(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    if narrow_dims(m, k, n) {
        let _span = probe::gemm(0, false, 1, m, k, n);
        return narrow_nn(a, b, c, m, k, n);
    }
    let blocked = m * k * n >= BLOCK_MIN_MADDS;
    let _span = probe::gemm(0, blocked, 1, m, k, n);
    if blocked {
        gemm_ow_blocked(a, b, c, m, k, n);
    } else {
        gemm_ow_ref(a, b, c, m, k, n);
    }
}

/// Overwrite `C = Aᵀ·B` (`A: [k×m]`); `C` may be uninitialized.
pub fn gemm_at_ow(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    if narrow_dims(m, k, n) {
        let _span = probe::gemm(1, false, 1, m, k, n);
        return narrow_at(a, b, c, m, k, n);
    }
    let blocked = m * k * n >= BLOCK_MIN_MADDS;
    let _span = probe::gemm(1, blocked, 1, m, k, n);
    if blocked {
        gemm_at_ow_blocked(a, b, c, m, k, n);
    } else {
        gemm_at_ow_ref(a, b, c, m, k, n);
    }
}

/// Overwrite `C = A·Bᵀ` (`B: [n×k]`); `C` may be uninitialized. Stores
/// `0.0 + dot`, so a `-0.0` dot comes out `+0.0` (see the module docs).
pub fn gemm_bt_ow(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    if narrow_dims(m, k, n) {
        let _span = probe::gemm(2, false, 1, m, k, n);
        return narrow_bt(a, b, c, m, k, n);
    }
    let blocked = m * k * n >= BLOCK_MIN_MADDS;
    let _span = probe::gemm(2, blocked, 1, m, k, n);
    if blocked {
        gemm_bt_ow_blocked(a, b, c, m, k, n);
    } else {
        gemm_bt_ow_ref(a, b, c, m, k, n);
    }
}

// ---------------------------------------------------------------------------
// Caller-thread entry points (`conv2d`'s sample groups)
// ---------------------------------------------------------------------------
//
// A caller that is itself one task of a scope runs its products here: the
// blocked driver on the calling thread ([`Rows::Here`]), whatever the
// shape, packing `B` into the caller's scratch. The blocked path is
// bit-identical to the references and the narrow kernels, so each output
// element gets the bits [`gemm_ow`] and friends give it.

/// Overwrite `C = A·B` (`A: [m×k]`, `B: [k×n]`) on the calling thread,
/// `B` packed into `pack`; bit-identical to [`gemm_ow`].
pub(crate) fn gemm_ow_here(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize, pack: &mut Vec<f64>) {
    let _span = probe::gemm(0, true, 1, m, k, n);
    blocked_dispatch(
        StridedMat { data: a, rs: k, cs: 1 },
        StridedMat { data: b, rs: n, cs: 1 },
        c, m, k, n, Acc::Overwrite, Rows::Here(pack),
    );
}

/// Overwrite `C = Aᵀ·B` (`A: [k×m]`, `B: [k×n]`) on the calling thread,
/// `B` packed into `pack`; bit-identical to [`gemm_at_ow`].
pub(crate) fn gemm_at_ow_here(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize, pack: &mut Vec<f64>) {
    let _span = probe::gemm(1, true, 1, m, k, n);
    blocked_dispatch(
        StridedMat { data: a, rs: 1, cs: m },
        StridedMat { data: b, rs: n, cs: 1 },
        c, m, k, n, Acc::Overwrite, Rows::Here(pack),
    );
}

/// Batched overwrite `C[s] = A[s]·B[s]ᵀ` for `s < batch` over a leading
/// axis, on the calling thread: `A[s]` is the `[m×k]` matrix at
/// `a[s·sa..]`, `B[s]` the `[n×k]` matrix at `b[s·sb..]` whose rows lie
/// `ldb` apart, and `C` is `[batch, m, n]`. Every `B[s]` packs into the one
/// scratch `pack`. `C[s]` is bit-identical to `gemm_bt_ow(A[s], B[s])`;
/// `sa = m·k`, `sb = n·k`, `ldb = k` is the contiguous `[S, m, k] ×
/// [S, n, k]` case.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bt_ow_batched(
    a: &[f64],
    sa: usize,
    b: &[f64],
    sb: usize,
    ldb: usize,
    c: &mut [f64],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    pack: &mut Vec<f64>,
) {
    if m == 0 || n == 0 {
        return;
    }
    let _span = probe::gemm(2, true, batch, m, k, n);
    for (s, cs) in c[..batch * m * n].chunks_mut(m * n).enumerate() {
        blocked_dispatch(
            StridedMat { data: &a[s * sa..], rs: k, cs: 1 },
            StridedMat { data: &b[s * sb..], rs: 1, cs: ldb },
            cs, m, k, n, Acc::OverwriteDot, Rows::Here(pack),
        );
    }
}

/// Runs the two independent products of a matrix-product backward (`dX`
/// and `dW`, each `madds = m·k·n` multiply-adds) on two pool threads via
/// [`tyxe_par::join2`] — or inline, one after the other, below
/// `BLOCK_MIN_MADDS`, where the pool's wake-up costs more than either
/// product. Each product computes the same bits wherever it runs.
pub(crate) fn join_products(madds: usize, a: impl FnOnce() + Send, b: impl FnOnce() + Send) {
    if madds < BLOCK_MIN_MADDS {
        a();
        b();
    } else {
        tyxe_par::join2(a, b);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;
    use tyxe_rand::{Rng, SeedableRng};

    /// Serialises the crate's tests that flip the global thread count.
    pub(crate) static THREADS: Mutex<()> = Mutex::new(());

    fn rand_vec(rng: &mut tyxe_rand::rngs::StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0f64)).collect()
    }

    /// NaNs with distinct payloads: an output element a kernel reads
    /// before writing, or never writes, shows up as a NaN.
    fn nan_filled(len: usize) -> Vec<f64> {
        (0..len).map(|i| f64::NAN * (i as f64 + 1.0)).collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: element {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    /// Runs `f` at `threads` pool threads, restoring the previous count.
    pub(crate) fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let prev = tyxe_par::num_threads();
        tyxe_par::set_num_threads(threads);
        let r = f();
        tyxe_par::set_num_threads(prev);
        r
    }

    /// How the oracle indexes its operands: `nn` (`A: [m×k]`, `B: [k×n]`),
    /// `at` (`A: [k×m]`) or `bt` (`B: [n×k]`).
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Layout {
        Nn,
        At,
        Bt,
    }

    /// The oracle every entry point must equal bit for bit: zero-fill
    /// `C`, then accumulate into it with this machine's multiply-add,
    /// `p` ascending — `nn`/`at` update `c[i,j]` in place, `bt` adds a
    /// fresh dot once. Written from the contract, not from the kernels.
    fn zero_fill_then_accumulate(layout: Layout, a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let fma = uses_fma();
        let madd = |acc: f64, x: f64, y: f64| if fma { x.mul_add(y, acc) } else { acc + x * y };
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let cij = &mut c[i * n + j];
                match layout {
                    Layout::Nn => (0..k).for_each(|p| *cij = madd(*cij, a[i * k + p], b[p * n + j])),
                    Layout::At => (0..k).for_each(|p| *cij = madd(*cij, a[p * m + i], b[p * n + j])),
                    Layout::Bt => {
                        let dot = (0..k).fold(0.0, |acc, p| madd(acc, a[i * k + p], b[j * k + p]));
                        *cij += dot;
                    }
                }
            }
        }
        c
    }

    type GemmFn = fn(&[f64], &[f64], &mut [f64], usize, usize, usize);

    /// The three references, the three forced-blocked entry points and
    /// the three dispatchers, with the layout each computes.
    fn references() -> [(&'static str, Layout, GemmFn); 3] {
        [("gemm_ow_ref", Layout::Nn, gemm_ow_ref), ("gemm_at_ow_ref", Layout::At, gemm_at_ow_ref), ("gemm_bt_ow_ref", Layout::Bt, gemm_bt_ow_ref)]
    }

    fn forced_blocked() -> [(&'static str, Layout, GemmFn); 3] {
        [("gemm_ow_blocked", Layout::Nn, gemm_ow_blocked), ("gemm_at_ow_blocked", Layout::At, gemm_at_ow_blocked), ("gemm_bt_ow_blocked", Layout::Bt, gemm_bt_ow_blocked)]
    }

    fn dispatchers() -> [(&'static str, Layout, GemmFn); 3] {
        [("gemm_ow", Layout::Nn, gemm_ow), ("gemm_at_ow", Layout::At, gemm_at_ow), ("gemm_bt_ow", Layout::Bt, gemm_bt_ow)]
    }

    /// Each entry point, on a NaN-filled `C`, against the oracle. One
    /// pair of operands serves all three layouts: `A` has `m·k` elements
    /// and `B` `k·n` whichever way they are read.
    fn check_against_oracle(fns: &[(&'static str, Layout, GemmFn)], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        for &(name, layout, f) in fns {
            let want = zero_fill_then_accumulate(layout, a, b, m, k, n);
            let mut got = nan_filled(m * n);
            f(a, b, &mut got, m, k, n);
            assert_bits_eq(&want, &got, &format!("{name} {m}x{k}x{n} at {} threads", tyxe_par::num_threads()));
        }
    }

    /// Dense shapes on both sides of `BLOCK_MIN_MADDS` (32³ is the first
    /// blocked one), edge tiles and more than one `NC` column block.
    const DENSE: &[(usize, usize, usize)] = &[(2, 3, 5), (17, 33, 9), (31, 32, 33), (32, 32, 32), (40, 40, 40), (65, 47, 70), (9, 40, 300)];
    /// `m`, `k` or `n` = 1, each inline and above the narrow kernels'
    /// parallel cutoff.
    const NARROW: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 9),
        (1, 128, 40),
        (1, 300, 200),
        (7, 9, 1),
        (9, 128, 1),
        (513, 128, 1),
        (7, 1, 9),
        (130, 1, 70),
        (300, 1, 200),
        (1, 5, 1),
        (5, 1, 1),
        (1, 1, 5),
    ];
    /// Empty products: `k = 0` writes zeros, an empty `C` writes nothing.
    const EMPTY: &[(usize, usize, usize)] = &[(2, 0, 2), (40, 0, 40), (0, 5, 3), (3, 5, 0)];

    fn sweep(fns: &[(&'static str, Layout, GemmFn)], shapes: &[(usize, usize, usize)], seed: u64) {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(seed);
        for &(m, k, n) in shapes {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            check_against_oracle(fns, &a, &b, m, k, n);
        }
    }

    #[test]
    fn blocked_matches_reference_bitwise_all_variants() {
        let fns: Vec<_> = references().into_iter().chain(forced_blocked()).collect();
        sweep(&fns, DENSE, 42);
        sweep(&fns, NARROW, 43);
    }

    /// All nine entry points, every shape class, at 1 and 4 threads.
    #[test]
    fn overwrite_matches_zerofill_accumulate_bitwise() {
        let fns: Vec<_> = references().into_iter().chain(forced_blocked()).chain(dispatchers()).collect();
        let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 4] {
            at_threads(threads, || {
                for (shapes, seed) in [(DENSE, 99), (NARROW, 100), (EMPTY, 101)] {
                    sweep(&fns, shapes, seed);
                }
            });
        }
    }

    /// The dispatchers route degenerate shapes to the narrow kernels.
    #[test]
    fn narrow_matches_reference_bitwise() {
        for &(m, k, n) in NARROW {
            assert!(narrow_dims(m, k, n), "test shape {m}x{k}x{n} must be narrow");
        }
        sweep(&dispatchers(), NARROW, 1234);
    }

    /// Every product underflows: under FMA each dot is `-0.0`. `gemm_ow`
    /// and `gemm_at_ow` keep it, as accumulating into a zeroed `C` does;
    /// `gemm_bt_ow` stores `0.0 + dot = +0.0`, as adding the dot into a
    /// zeroed `C` does. This is why `Acc` keeps two modes.
    #[test]
    fn bt_dot_underflowing_to_negative_zero_stores_positive_zero() {
        let tiny = 1e-200;
        let fns: Vec<_> = references().into_iter().chain(forced_blocked()).chain(dispatchers()).collect();
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (1, 3, 1), (5, 2, 3), (40, 40, 40)] {
            let a = vec![-tiny; m * k];
            let b = vec![tiny; k * n];
            check_against_oracle(&fns, &a, &b, m, k, n);
            for (name, layout, f) in &fns {
                let mut c = nan_filled(m * n);
                f(&a, &b, &mut c, m, k, n);
                let negative = uses_fma() && *layout != Layout::Bt;
                assert!(c.iter().all(|v| *v == 0.0 && v.is_sign_negative() == negative), "{name} {m}x{k}x{n}: {c:?}");
            }
        }
    }

    type HereFn = fn(&[f64], &[f64], &mut [f64], usize, usize, usize, &mut Vec<f64>);

    /// The caller-thread entry points and the batched `bt` against the
    /// oracle on NaN-filled `C`, every shape class, with one pack scratch
    /// carried across all of them (grown, then reused). The batched `B[s]`
    /// are the column windows `s·k..` of one `[n × 3k]` matrix, as
    /// `conv2d` passes its group block. The underflow case pins each
    /// entry's store mode.
    #[test]
    fn here_and_batched_match_oracle_bitwise() {
        let tiny = 1e-200;
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(55);
        let mut pack = Vec::new();
        let batch = 3;
        for &(m, k, n) in DENSE.iter().chain(NARROW).chain(EMPTY) {
            let random = (rand_vec(&mut rng, batch * m * k), rand_vec(&mut rng, n * batch * k));
            let underflow = (vec![-tiny; batch * m * k], vec![tiny; n * batch * k]);
            for (a, b) in [random, underflow] {
                let what = |name: &str| format!("{name} {m}x{k}x{n}");
                let here: [(&str, Layout, HereFn); 2] = [("gemm_ow_here", Layout::Nn, gemm_ow_here), ("gemm_at_ow_here", Layout::At, gemm_at_ow_here)];
                for (name, layout, f) in here {
                    let want = zero_fill_then_accumulate(layout, &a, &b, m, k, n);
                    let mut got = nan_filled(m * n);
                    f(&a, &b, &mut got, m, k, n, &mut pack);
                    assert_bits_eq(&want, &got, &what(name));
                }
                let mut got = nan_filled(batch * m * n);
                gemm_bt_ow_batched(&a, m * k, &b, k, batch * k, &mut got, batch, m, k, n, &mut pack);
                for s in 0..batch {
                    let bs: Vec<f64> = (0..n).flat_map(|j| b[j * batch * k + s * k..][..k].to_vec()).collect();
                    let want = zero_fill_then_accumulate(Layout::Bt, &a[s * m * k..(s + 1) * m * k], &bs, m, k, n);
                    assert_bits_eq(&want, &got[s * m * n..(s + 1) * m * n], &what(&format!("gemm_bt_ow_batched[{s}]")));
                }
            }
        }
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(7);
        let (m, k, n) = (65, 47, 70);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let run = |threads: usize| {
            at_threads(threads, || {
                let mut c = nan_filled(m * n);
                gemm_ow_blocked(&a, &b, &mut c, m, k, n);
                c
            })
        };
        let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let c1 = run(1);
        let c4 = run(4);
        assert_bits_eq(&c1, &c4, "threads 1 vs 4");
    }

    #[test]
    fn madd_runtime_matches_kernel_semantics() {
        let (acc, a, b) = (0.1f64, 0.2f64, 0.3f64);
        let expected = if uses_fma() { a.mul_add(b, acc) } else { acc + a * b };
        assert_eq!(madd_runtime(acc, a, b).to_bits(), expected.to_bits());
    }
}
