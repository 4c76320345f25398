//! Bitwise identity of the broadcasting kernels with the per-element
//! definition of broadcasting.
//!
//! The six binary ops, `broadcast_to` and the gradient reduction behind
//! both (`sum_to_shape`) index their operands through precomputed strides.
//! The oracle below is the recipe they replaced: turn every flat output
//! index into a multi-index, map it to each operand's flat index and apply
//! the op's scalar recipe; reduce a broadcast gradient by adding, in flat
//! ascending order, into a zeroed accumulator. Values and both input
//! gradients must match it bit for bit, at 1 and at 4 threads — at 4,
//! the shapes above the parallel cutoff split into chunks whose starts
//! fall mid-row.

use std::cell::RefCell;
use std::sync::Mutex;

use tyxe_rand::prop::Gen;
use tyxe_rand::prop_check;
use tyxe_tensor::plan::Compiled;
use tyxe_tensor::Tensor;

/// Serialises the tests that set the global thread count.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = tyxe_par::num_threads();
    tyxe_par::set_num_threads(n);
    let r = f();
    tyxe_par::set_num_threads(prev);
    r
}

/// An op's name, its method, and its scalar forward and backward recipes.
type Op = (&'static str, fn(&Tensor, &Tensor) -> Tensor, fn(f64, f64) -> f64, fn(f64, f64, f64) -> (f64, f64));

const OPS: [Op; 6] = [
    ("add", Tensor::add, |a, b| a + b, |_, _, g| (g, g)),
    ("sub", Tensor::sub, |a, b| a - b, |_, _, g| (g, -g)),
    ("mul", Tensor::mul, |a, b| a * b, |a, b, g| (g * b, g * a)),
    ("div", Tensor::div, |a, b| a / b, |a, b, g| (g / b, -g * a / (b * b))),
    ("maximum", Tensor::maximum, |a, b| a.max(b), |a, b, g| if a >= b { (g, 0.0) } else { (0.0, g) }),
    ("minimum", Tensor::minimum, |a, b| a.min(b), |a, b, g| if a <= b { (g, 0.0) } else { (0.0, g) }),
];

/// Oracle: the row-major multi-index of a flat index.
fn multi_index_of(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let mut idx = vec![0; shape.len()];
    for d in (0..shape.len()).rev() {
        idx[d] = flat % shape[d];
        flat /= shape[d];
    }
    idx
}

/// Oracle: the flat index, in an operand of shape `src`, that the output
/// multi-index `idx` reads (right-aligned; size-1 dimensions repeat).
fn source_offset(idx: &[usize], src: &[usize]) -> usize {
    let lead = idx.len() - src.len();
    let mut flat = 0;
    let mut stride = 1;
    for d in (0..src.len()).rev() {
        if src[d] != 1 {
            flat += idx[lead + d] * stride;
        }
        stride *= src[d];
    }
    flat
}

fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Oracle `sum_to_shape`: flat ascending accumulation into zeros.
fn reduce_oracle(grad: &[f64], out: &[usize], src: &[usize]) -> Vec<f64> {
    if out == src {
        return grad.to_vec();
    }
    let mut acc = vec![0.0; numel(src)];
    for (i, &g) in grad.iter().enumerate() {
        acc[source_offset(&multi_index_of(i, out), src)] += g;
    }
    acc
}

/// What the per-element recipe gives for `op` on operands `av` (shape
/// `ashape`) and `bv` (shape `bshape`) under output gradient `gv`: the
/// values, and both input gradients reduced to their operands' shapes.
fn oracle(
    op: &Op,
    (av, ashape): (&[f64], &[usize]),
    (bv, bshape): (&[f64], &[usize]),
    gv: &[f64],
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (_, _, f, df) = op;
    let out = out_shape(ashape, bshape);
    let (mut want, mut full_a, mut full_b) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &gi) in gv.iter().enumerate() {
        let idx = multi_index_of(i, &out);
        let (x, z) = (av[source_offset(&idx, ashape)], bv[source_offset(&idx, bshape)]);
        want.push(f(x, z));
        let (da, db) = df(x, z, gi);
        full_a.push(da);
        full_b.push(db);
    }
    (want, reduce_oracle(&full_a, &out, ashape), reduce_oracle(&full_b, &out, bshape))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Operand values: mostly random, with a share drawn from a small set so
/// that `maximum`/`minimum` meet ties; never zero, so `div` stays finite.
fn values(g: &mut Gen, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match g.usize_in(0, 4) {
            0 => [-1.0, 0.5, 1.0, 2.0][g.usize_in(0, 4)],
            _ => {
                let x = g.f64_in(0.25, 3.0);
                if g.bool() { x } else { -x }
            }
        })
        .collect()
}

/// Hand-picked shape pairs: leading, interior, trailing, scalar, size-0,
/// two-sided and rank > 4 broadcasts, and shapes above the parallel
/// cutoff whose 4-thread chunks start mid-row.
fn listed_pairs() -> Vec<(Vec<usize>, Vec<usize>)> {
    let pairs: [(&[usize], &[usize]); 14] = [
        (&[3, 4], &[4]),
        (&[4], &[3, 4]),
        (&[2, 16, 14, 14], &[1, 16, 1, 1]),
        (&[1, 5, 1, 1], &[3, 5, 2, 7]),
        (&[4, 3], &[4, 1]),
        (&[350, 7], &[350, 1]),
        (&[], &[2, 3]),
        (&[2, 3], &[]),
        (&[], &[]),
        (&[0, 3], &[3]),
        (&[2, 0], &[1, 0]),
        (&[3, 1], &[1, 4]),
        (&[2, 1, 3, 1, 2, 3], &[3, 1, 2, 1]),
        (&[3, 5, 7, 11, 37], &[5, 1, 11, 1]),
    ];
    let mut pairs: Vec<_> = pairs.iter().map(|(a, b)| (a.to_vec(), b.to_vec())).collect();
    pairs.push((vec![4, 16, 23, 29], vec![1, 16, 1, 1]));
    pairs.push((vec![7, 1, 23, 29], vec![7, 9, 1, 29]));
    pairs
}

/// A random broadcast-compatible pair of rank ≤ 6: each operand drops
/// some leading dimensions and sets others to 1.
fn random_pair(g: &mut Gen) -> (Vec<usize>, Vec<usize>) {
    let rank = g.usize_in(0, 7);
    let out: Vec<usize> = (0..rank).map(|_| g.usize_in(1, 6)).collect();
    let operand = |g: &mut Gen| -> Vec<usize> {
        let drop = g.usize_in(0, rank + 1);
        out[drop..].iter().map(|&d| if g.usize_in(0, 3) == 0 { 1 } else { d }).collect()
    };
    (operand(g), operand(g))
}

fn out_shape(a: &[usize], b: &[usize]) -> Vec<usize> {
    tyxe_tensor::shape::broadcast_shapes(a, b).expect("compatible pair")
}

/// Checks every op on `(ashape, bshape)` against the
/// oracle, at 1 and 4 threads.
fn check_pair(g: &mut Gen, ashape: &[usize], bshape: &[usize]) {
    let out = out_shape(ashape, bshape);
    let n = numel(&out);
    let (av, bv, gv) = (values(g, numel(ashape)), values(g, numel(bshape)), values(g, n));
    for entry in &OPS {
        let (name, op, _, _) = *entry;
        let (want, want_ga, want_gb) = oracle(entry, (&av, ashape), (&bv, bshape), &gv);
        for threads in [1, 4] {
            with_threads(threads, || {
                let a = Tensor::from_vec(av.to_vec(), ashape).requires_grad(true);
                let b = Tensor::from_vec(bv.to_vec(), bshape).requires_grad(true);
                let y = op(&a, &b);
                let what = format!("{name} {ashape:?}∘{bshape:?} at {threads} threads");
                assert_eq!(y.shape(), out.as_slice(), "{what}");
                assert_eq!(bits(&y.to_vec()), bits(&want), "{what}: values");
                y.backward_with_grad(&gv);
                assert_eq!(bits(&a.grad().expect("a grad")), bits(&want_ga), "{what}: da");
                assert_eq!(bits(&b.grad().expect("b grad")), bits(&want_gb), "{what}: db");
            });
        }
    }
    // `broadcast_to` of each operand to the output shape, and back.
    for (shape, v) in [(ashape, &av), (bshape, &bv)] {
        let want: Vec<f64> = (0..n).map(|i| v[source_offset(&multi_index_of(i, &out), shape)]).collect();
        let want_g = reduce_oracle(&gv, &out, shape);
        for threads in [1, 4] {
            with_threads(threads, || {
                let x = Tensor::from_vec(v.to_vec(), shape).requires_grad(true);
                let y = x.broadcast_to(&out);
                let what = format!("broadcast_to {shape:?} -> {out:?} at {threads} threads");
                assert_eq!(bits(&y.to_vec()), bits(&want), "{what}: values");
                y.backward_with_grad(&gv);
                assert_eq!(bits(&x.grad().expect("grad")), bits(&want_g), "{what}: grad");
            });
        }
    }
}

#[test]
fn listed_broadcasts_match_the_per_element_oracle_bitwise() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let pairs = listed_pairs();
    prop_check!(1, |g| {
        for (a, b) in &pairs {
            check_pair(g, a, b);
        }
    });
}

#[test]
fn random_broadcasts_match_the_per_element_oracle_bitwise() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    prop_check!(48, |g| {
        let (a, b) = random_pair(g);
        check_pair(g, &a, &b);
    });
}

/// A recorded broadcast re-fed new operand values replays the oracle's
/// values and gradients, at 1 and 4 threads.
fn check_replay(g: &mut Gen) {
    let (ashape, bshape) = ([4usize, 16, 23, 29], [1usize, 16, 1, 1]);
    let out = out_shape(&ashape, &bshape);
    let gv = values(g, numel(&out));
    for entry in &OPS {
        let (name, op, _, _) = *entry;
        for threads in [1, 4] {
            with_threads(threads, || {
                let a = Tensor::from_vec(values(g, numel(&ashape)), &ashape).requires_grad(true);
                let b = Tensor::from_vec(values(g, numel(&bshape)), &bshape).requires_grad(true);
                // The output gradient enters as a constant factor of the
                // loss: d(Σ y·G)/dy is G exactly.
                let weight = Tensor::from_vec(gv.clone(), &out);
                let y_cell: RefCell<Option<Tensor>> = RefCell::new(None);
                let forward = || {
                    let y = op(&a, &b);
                    *y_cell.borrow_mut() = Some(y.clone());
                    y.mul(&weight).sum()
                };
                let mut driver = Compiled::<()>::unobserved();
                assert!(driver.run(|_| Ok(()), || (), forward).recorded(), "{name}: records");
                assert_eq!(driver.unsupported_reason(), None, "{name}");
                // New values into the recorded operands, then a replay.
                let (av, bv) = (values(g, numel(&ashape)), values(g, numel(&bshape)));
                a.set_data(av.clone());
                b.set_data(bv.clone());
                a.zero_grad();
                b.zero_grad();
                let pass = driver.run(|_| Ok(()), || (), || unreachable!("a replay builds nothing"));
                assert!(pass.replayed(), "{name}: replays");
                pass.backward();

                let (want, want_ga, want_gb) = oracle(entry, (&av, &ashape), (&bv, &bshape), &gv);
                let what = format!("replayed {name} at {threads} threads");
                let y = y_cell.borrow().clone().expect("recorded output");
                assert_eq!(bits(&y.to_vec()), bits(&want), "{what}: values");
                assert_eq!(bits(&a.grad().expect("a grad")), bits(&want_ga), "{what}: da");
                assert_eq!(bits(&b.grad().expect("b grad")), bits(&want_gb), "{what}: db");
            });
        }
    }
}

#[test]
fn a_replayed_broadcast_matches_the_oracle_on_new_values() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    prop_check!(1, |g| {
        check_replay(g);
    });
}
