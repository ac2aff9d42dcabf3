//! Dense-vector kernels used by every iteration loop in the repository.
//!
//! All functions operate on `&[f64]` slices so callers can use plain `Vec`s,
//! borrowed buffers, or sub-slices of larger workspaces without conversion.
//! Length mismatches are programming errors and panic via `debug_assert!` in
//! debug builds (the hot paths must not pay for checks in release builds).
//!
//! # Chunked reductions and bit-determinism
//!
//! The reductions ([`l1_norm`], [`l1_diff`], [`sum`], and their `_pool`
//! variants) all accumulate over **fixed chunks of `REDUCE_CHUNK`
//! elements** and then fold the per-chunk partials in chunk order.
//! Floating-point addition is not associative, so this fixed association is
//! what makes the sequential and pooled paths return *bit-identical*
//! results at every worker count: the pool only changes which thread
//! computes a chunk, never which elements a chunk contains or the order
//! partials combine in.

use crate::pool::{Pool, SharedSlice};

/// Fixed reduction-chunk width. Independent of worker count by design —
/// see the module docs; changing this value changes low-order bits of
/// every reduction (it re-associates the sums), so treat it as part of the
/// numeric contract.
const REDUCE_CHUNK: usize = 4096;

/// Minimum vector length before the pooled reductions fan out. Below this,
/// the broadcast handoff costs more than the arithmetic it distributes.
const PAR_THRESHOLD: usize = 1 << 14;

/// Chunk-ordered fold shared by the sequential reductions: applies
/// `partial` to each fixed chunk and sums the partials left to right.
#[inline]
fn chunked_reduce(len: usize, partial: impl Fn(usize, usize) -> f64) -> f64 {
    let mut acc = 0.0;
    let mut lo = 0;
    while lo < len {
        let hi = (lo + REDUCE_CHUNK).min(len);
        acc += partial(lo, hi);
        lo = hi;
    }
    acc
}

/// Pooled counterpart of [`chunked_reduce`]: per-chunk partials land in a
/// chunk-indexed scratch vector (each slot written by exactly one worker),
/// then fold in chunk order on the calling thread — the identical
/// association as the sequential path, hence bit-identical results.
fn chunked_reduce_pool(
    len: usize,
    pool: &Pool,
    partial: impl Fn(usize, usize) -> f64 + Sync,
) -> f64 {
    let n_chunks = len.div_ceil(REDUCE_CHUNK);
    let mut partials = vec![0.0_f64; n_chunks];
    let out = SharedSlice::new(&mut partials);
    pool.for_each_chunk(n_chunks, |c| {
        let lo = c * REDUCE_CHUNK;
        let hi = (lo + REDUCE_CHUNK).min(len);
        // SAFETY: chunk `c` writes only slot `c`.
        unsafe { out.slice_mut(c, 1)[0] = partial(lo, hi) };
    });
    partials.iter().sum()
}

/// The L1 norm `‖x‖₁ = Σ |xᵢ|`.
///
/// This is the norm the paper uses throughout (`D = ‖Rᵢ‖₁ − ‖Rᵢ₊₁‖₁`,
/// `δ = ‖Rᵢ₊₁ − Rᵢ‖₁`).
#[must_use]
pub fn l1_norm(x: &[f64]) -> f64 {
    // `+ 0.0` normalizes the signed zero: std's float `Sum` identity is
    // -0.0, and a negative-zero "norm" breaks bit-level max tricks
    // downstream (−0.0's bit pattern exceeds every positive float's).
    chunked_reduce(x.len(), |lo, hi| x[lo..hi].iter().map(|v| v.abs()).sum()) + 0.0
}

/// [`l1_norm`] with the chunk partials computed on `pool`'s workers.
/// Bit-identical to the sequential version at every worker count.
#[must_use]
pub fn l1_norm_pool(x: &[f64], pool: &Pool) -> f64 {
    if !pool.is_parallel() || x.len() < PAR_THRESHOLD {
        return l1_norm(x);
    }
    chunked_reduce_pool(x.len(), pool, |lo, hi| x[lo..hi].iter().map(|v| v.abs()).sum()) + 0.0
}

/// The L∞ norm `‖x‖∞ = max |xᵢ|`; zero for the empty vector.
#[must_use]
pub fn linf_norm(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Adds to `acc`, in chunk order, the partials of `‖x − y‖₁` over the
/// first `L` chunks of `x` and `y` (all full) and advances both past them.
/// The `L` add chains run side by side: each partial is the same
/// left-to-right fold from `-0.0` (std's float `Sum` identity) that a chunk
/// summed alone gets, so no bit depends on `L`, but a lone chain is bound by
/// the latency of its adds and `L` of them overlap.
fn l1_diff_chunks<const L: usize>(x: &mut &[f64], y: &mut &[f64], acc: &mut f64) {
    let (xs, ys) = (&x[..L * REDUCE_CHUNK], &y[..L * REDUCE_CHUNK]);
    let mut partials = [-0.0_f64; L];
    for i in 0..REDUCE_CHUNK {
        for (j, p) in partials.iter_mut().enumerate() {
            let k = j * REDUCE_CHUNK + i;
            *p += (xs[k] - ys[k]).abs();
        }
    }
    for p in partials {
        *acc += p;
    }
    (*x, *y) = (&x[L * REDUCE_CHUNK..], &y[L * REDUCE_CHUNK..]);
}

/// The L1 distance `‖x − y‖₁` without materialising the difference vector.
///
/// This is the `δ` of every Jacobi sweep, so the per-chunk add chains run
/// up to four at a time (see `l1_diff_chunks`); the partials and the
/// order they are added in are those of `chunked_reduce`.
#[must_use]
pub fn l1_diff(mut x: &[f64], mut y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0.0;
    while x.len() >= 4 * REDUCE_CHUNK {
        l1_diff_chunks::<4>(&mut x, &mut y, &mut acc);
    }
    match x.len() / REDUCE_CHUNK {
        3 => l1_diff_chunks::<3>(&mut x, &mut y, &mut acc),
        2 => l1_diff_chunks::<2>(&mut x, &mut y, &mut acc),
        1 => l1_diff_chunks::<1>(&mut x, &mut y, &mut acc),
        _ => {}
    }
    if !x.is_empty() {
        acc += x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum::<f64>();
    }
    // `+ 0.0`: see `l1_norm` — keeps the empty diff at +0.0, not -0.0.
    acc + 0.0
}

/// [`l1_diff`] with the chunk partials computed on `pool`'s workers.
/// Bit-identical to the sequential version at every worker count.
#[must_use]
pub fn l1_diff_pool(x: &[f64], y: &[f64], pool: &Pool) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    if !pool.is_parallel() || x.len() < PAR_THRESHOLD {
        return l1_diff(x, y);
    }
    chunked_reduce_pool(x.len(), pool, |lo, hi| {
        x[lo..hi].iter().zip(&y[lo..hi]).map(|(a, b)| (a - b).abs()).sum()
    }) + 0.0
}

/// The L∞ distance `‖x − y‖∞`.
#[must_use]
pub fn linf_diff(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y.iter()).fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
}

/// Sum of all elements (signed, unlike [`l1_norm`]).
#[must_use]
pub fn sum(x: &[f64]) -> f64 {
    chunked_reduce(x.len(), |lo, hi| x[lo..hi].iter().sum())
}

/// [`sum`] with the chunk partials computed on `pool`'s workers.
/// Bit-identical to the sequential version at every worker count.
#[must_use]
pub fn sum_pool(x: &[f64], pool: &Pool) -> f64 {
    if !pool.is_parallel() || x.len() < PAR_THRESHOLD {
        return sum(x);
    }
    chunked_reduce_pool(x.len(), pool, |lo, hi| x[lo..hi].iter().sum())
}

/// Arithmetic mean; zero for the empty vector.
#[must_use]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        sum(x) / x.len() as f64
    }
}

/// `y ← y + a·x` (the classic axpy kernel).
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Adds the scalar `a` to every element (used for the uniform `βE` term).
pub fn add_scalar(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi += a;
    }
}

/// Element-wise `x ≥ y` (the partial order `r₁ ≥ r₂` of the appendix).
#[must_use]
pub fn ge_elementwise(x: &[f64], y: &[f64]) -> bool {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y.iter()).all(|(a, b)| a >= b)
}

/// Element-wise `x ≥ y − tol`, tolerating floating-point jitter when
/// asserting the monotonicity of Theorem 4.1 on computed sequences.
#[must_use]
pub fn ge_elementwise_tol(x: &[f64], y: &[f64], tol: f64) -> bool {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y.iter()).all(|(a, b)| *a >= *b - tol)
}

/// `x ≥ 0` element-wise (appendix Lemma 1 precondition / conclusion).
#[must_use]
pub fn is_nonneg(x: &[f64]) -> bool {
    x.iter().all(|v| *v >= 0.0)
}

/// Relative error `‖x − x*‖₁ / ‖x*‖₁`, the paper's §5 metric for the
/// distance between distributed and centralized ranks.
///
/// Returns `f64::INFINITY` when `‖x*‖₁ = 0` and `x ≠ x*`, and `0.0` when
/// both are zero.
#[must_use]
pub fn relative_error(x: &[f64], x_star: &[f64]) -> f64 {
    relative_error_pool(x, x_star, &Pool::sequential())
}

/// [`relative_error`] with both reductions computed on `pool`'s workers.
/// Bit-identical to the sequential version at every worker count.
#[must_use]
pub fn relative_error_pool(x: &[f64], x_star: &[f64], pool: &Pool) -> f64 {
    let denom = l1_norm_pool(x_star, pool);
    let num = l1_diff_pool(x, x_star, pool);
    if denom == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_norm_basic() {
        assert_eq!(l1_norm(&[1.0, -2.0, 3.0]), 6.0);
        assert_eq!(l1_norm(&[]), 0.0);
        // Empty norms must be POSITIVE zero (std's float Sum identity is
        // -0.0; a sign bit here poisons bit-level comparisons).
        assert_eq!(l1_norm(&[]).to_bits(), 0u64);
        assert_eq!(l1_diff(&[], &[]).to_bits(), 0u64);
    }

    #[test]
    fn l1_norm_parallel_path_matches_sequential() {
        let big: Vec<f64> = (0..(PAR_THRESHOLD + 17)).map(|i| (i as f64) * 0.5 - 100.0).collect();
        let seq: f64 = big.iter().map(|v| v.abs()).sum();
        assert!((l1_norm(&big) - seq).abs() < 1e-6);
    }

    #[test]
    fn pooled_reductions_are_bit_identical_to_sequential() {
        // Irrational-ish values so any re-association would show up in the
        // low bits.
        let x: Vec<f64> =
            (0..(3 * PAR_THRESHOLD + 1234)).map(|i| ((i as f64) * 0.7371).sin() / 3.0).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 1.0001 + 1e-7).collect();
        for workers in [2, 3, 8] {
            let pool = Pool::with_workers(workers);
            assert_eq!(l1_norm(&x).to_bits(), l1_norm_pool(&x, &pool).to_bits());
            assert_eq!(l1_diff(&x, &y).to_bits(), l1_diff_pool(&x, &y, &pool).to_bits());
            assert_eq!(sum(&x).to_bits(), sum_pool(&x, &pool).to_bits());
            assert_eq!(
                relative_error(&x, &y).to_bits(),
                relative_error_pool(&x, &y, &pool).to_bits()
            );
        }
    }

    #[test]
    fn l1_diff_side_by_side_chains_keep_the_chunked_fold() {
        // The reference: one chunk at a time, each folded left to right by
        // std's `Sum`, partials added in chunk order.
        let reference = |x: &[f64], y: &[f64]| {
            chunked_reduce(x.len(), |lo, hi| {
                x[lo..hi].iter().zip(&y[lo..hi]).map(|(a, b)| (a - b).abs()).sum()
            }) + 0.0
        };
        let c = REDUCE_CHUNK;
        for len in [0, 1, c - 1, c, c + 1, 2 * c + 5, 3 * c, 4 * c, 4 * c + 1, 7 * c + 99, 9 * c] {
            let x: Vec<f64> = (0..len).map(|i| ((i as f64) * 0.7371).sin() / 3.0).collect();
            let y: Vec<f64> = x.iter().map(|v| v * 1.0001 - 1e-7).collect();
            assert_eq!(l1_diff(&x, &y).to_bits(), reference(&x, &y).to_bits(), "len {len}");
            assert_eq!(l1_diff(&x, &x).to_bits(), 0, "len {len}: equal vectors give +0.0");
        }
    }

    #[test]
    fn linf_norm_basic() {
        assert_eq!(linf_norm(&[1.0, -7.0, 3.0]), 7.0);
        assert_eq!(linf_norm(&[]), 0.0);
    }

    #[test]
    fn l1_diff_basic() {
        assert_eq!(l1_diff(&[1.0, 2.0], &[0.0, 4.0]), 3.0);
    }

    #[test]
    fn linf_diff_basic() {
        assert_eq!(linf_diff(&[1.0, 2.0], &[0.0, 4.0]), 2.0);
    }

    #[test]
    fn sum_and_mean() {
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_and_add_scalar() {
        let mut x = vec![1.0, -2.0];
        scale(3.0, &mut x);
        assert_eq!(x, vec![3.0, -6.0]);
        add_scalar(1.0, &mut x);
        assert_eq!(x, vec![4.0, -5.0]);
    }

    #[test]
    fn elementwise_order() {
        assert!(ge_elementwise(&[1.0, 2.0], &[1.0, 1.5]));
        assert!(!ge_elementwise(&[1.0, 1.0], &[1.0, 1.5]));
        assert!(ge_elementwise_tol(&[1.0, 1.0], &[1.0, 1.0 + 1e-13], 1e-12));
    }

    #[test]
    fn nonneg_check() {
        assert!(is_nonneg(&[0.0, 1.0]));
        assert!(!is_nonneg(&[0.0, -1e-9]));
    }

    #[test]
    fn relative_error_basic() {
        assert_eq!(relative_error(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
        assert!((relative_error(&[1.1, 1.0], &[1.0, 1.0]) - 0.05).abs() < 1e-12);
        assert_eq!(relative_error(&[0.0], &[0.0]), 0.0);
        assert_eq!(relative_error(&[1.0], &[0.0]), f64::INFINITY);
    }
}
