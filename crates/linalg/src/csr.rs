//! Compressed sparse row (CSR) matrices.
//!
//! The web link matrix is enormous and extremely sparse (the paper's dataset
//! has 1M pages and 15M links, i.e. ~15 non-zeros per row), so CSR is the
//! natural layout: one contiguous array of column indices and one of values,
//! indexed per row through `row_ptr`. All PageRank variants in this
//! repository iterate `R ← A·R + f`, which is a single sparse
//! matrix–vector product (SpMV) per step.
//!
//! # Two layouts
//!
//! [`Csr`] stores an explicit `f64` per non-zero (12+ bytes/nnz streamed).
//! The ranking matrices have a special structure: every stored value is
//! `α / d(u)`, a function of the *column* alone. [`CsrImplicit`] exploits
//! that by dropping the values array entirely and keeping one `scale[u]`
//! per column; each multiply pre-scales the input once
//! (`ws[u] = scale[u] · x[u]`) and the inner loop becomes a pure
//! `u32`-index gather-sum (≤ 8 bytes/nnz). Each product is computed exactly
//! once from the same two operands and the per-row addition order is
//! unchanged, so the implicit kernel is **bit-identical by construction**
//! to the explicit kernel over the same entries — see
//! `implicit_matches_explicit_bitwise` in the tests for the proptest.

use crate::pool::{Pool, SharedSlice};
use crate::vec_ops;

/// Row count above which the pooled SpMV kernels split across the worker
/// pool even when the matrix is sparse.
const PAR_ROWS_THRESHOLD: usize = 1 << 12;

/// Non-zero count above which the pooled SpMV kernels split across the
/// worker pool regardless of row count. Group matrices in a netrun are
/// short (a few thousand rows) but carry tens of thousands of non-zeros;
/// gating on rows alone left them sequential.
const PAR_NNZ_THRESHOLD: usize = 1 << 14;

/// Upper bound on rows per chunk for the pooled SpMV (the old fixed width).
const MAX_CHUNK_ROWS: usize = 1024;

/// Target non-zeros per chunk for the pooled SpMV. The chunk plan aims for
/// this many entries per work item so that short-but-dense matrices still
/// produce enough chunks to feed every worker.
const TARGET_CHUNK_NNZ: usize = 4096;

/// Fixed element-chunk width for the pooled pre-scale pass of
/// [`CsrImplicit`]. The pass is element-wise (no reduction), so chunking
/// cannot change any result bit; the width only balances handoff overhead.
const PRESCALE_CHUNK: usize = 4096;

/// Rows per chunk for the pooled SpMV, as a pure function of the matrix
/// shape `(n_rows, nnz)` — **never** of the worker count, which is what
/// keeps chunk boundaries (and therefore results) identical across pools.
///
/// The plan targets [`TARGET_CHUNK_NNZ`] non-zeros per chunk at the
/// matrix's average degree, clamped to `[1, MAX_CHUNK_ROWS]`. A 1.5k-row /
/// 22k-nnz group matrix used to yield 2 chunks of 1024 rows (starving all
/// but two workers); under this plan it yields ~6.
#[must_use]
pub(crate) fn spmv_chunk_rows(n_rows: usize, nnz: usize) -> usize {
    if n_rows == 0 {
        return 1;
    }
    // rows/chunk ≈ TARGET / avg_degree = TARGET · n_rows / nnz.
    (TARGET_CHUNK_NNZ.saturating_mul(n_rows) / nnz.max(1)).clamp(1, MAX_CHUNK_ROWS)
}

/// Whether a matrix of this shape is worth fanning out on `pool`.
#[inline]
fn spmv_parallel(pool: &Pool, n_rows: usize, nnz: usize) -> bool {
    pool.is_parallel() && (n_rows >= PAR_ROWS_THRESHOLD || nnz >= PAR_NNZ_THRESHOLD)
}

/// Validates the raw arrays shared by both CSR layouts.
///
/// # Panics
/// On any structural inconsistency; each check has its own message so
/// callers (and should_panic tests) can tell them apart.
fn validate_raw_parts(n_rows: usize, n_cols: usize, row_ptr: &[u64], col_idx: &[u32], nnz: usize) {
    assert_eq!(row_ptr.len(), n_rows + 1, "row_ptr must have n_rows + 1 entries");
    assert_eq!(*row_ptr.last().unwrap_or(&0) as usize, nnz, "row_ptr must end at nnz");
    // Every interior pointer must stay inside the entry arrays. Checked
    // explicitly (not just via monotonicity + the last-entry check) so an
    // out-of-bounds interior pointer gets its own message instead of
    // masquerading as a "non-decreasing" violation.
    assert!(row_ptr.iter().all(|&p| p as usize <= nnz), "row_ptr entry exceeds nnz");
    assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr must be non-decreasing");
    assert!(col_idx.iter().all(|&c| (c as usize) < n_cols), "column index out of range");
}

/// Per-column scale factors `α / d(u)` for the implicit-value layout.
///
/// Zero out-degree (dangling) columns get a scale of exactly `0.0` — never
/// `inf` or `NaN` — so a dangling page contributes nothing through the
/// gather, matching the paper's treatment of dangling rank mass.
#[must_use]
pub fn column_scale(alpha: f64, degrees: &[u32]) -> Vec<f64> {
    degrees.iter().map(|&d| if d == 0 { 0.0 } else { alpha / f64::from(d) }).collect()
}

/// Row-pointer array for either CSR layout, auto-narrowed to `u32` when
/// the entry count permits. Narrowing halves the pointer traffic of the
/// SpMV inner loop; the `u64` form remains for ≥ 4G-entry matrices and for
/// benchmarking the wide layout explicitly.
#[derive(Debug, Clone, PartialEq)]
pub enum RowPtr {
    /// Narrow pointers — valid whenever `nnz < u32::MAX`.
    U32(Vec<u32>),
    /// Wide pointers.
    U64(Vec<u64>),
}

impl RowPtr {
    /// Narrows a wide pointer array when every entry fits in `u32`.
    #[must_use]
    fn from_wide(row_ptr: Vec<u64>) -> Self {
        match row_ptr.last() {
            Some(&last) if last < u64::from(u32::MAX) => {
                RowPtr::U32(row_ptr.into_iter().map(|p| p as u32).collect())
            }
            _ => RowPtr::U64(row_ptr),
        }
    }

    /// Whether the narrow (`u32`) representation is in use.
    #[must_use]
    pub fn is_narrow(&self) -> bool {
        matches!(self, RowPtr::U32(_))
    }

    /// The `[start, end)` entry range of row `r`.
    #[inline]
    #[must_use]
    fn bounds(&self, r: usize) -> (usize, usize) {
        match self {
            RowPtr::U32(p) => (p[r] as usize, p[r + 1] as usize),
            RowPtr::U64(p) => (p[r] as usize, p[r + 1] as usize),
        }
    }

    /// Heap bytes held by the pointer array.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match self {
            RowPtr::U32(p) => p.len() * 4,
            RowPtr::U64(p) => p.len() * 8,
        }
    }

    /// The pointer array widened back to `u64`.
    #[must_use]
    fn to_wide(&self) -> Vec<u64> {
        match self {
            RowPtr::U32(p) => p.iter().map(|&v| u64::from(v)).collect(),
            RowPtr::U64(p) => p.clone(),
        }
    }
}

/// A sparse matrix layout the fixed-point solvers can drive. Implemented by
/// the explicit-value [`Csr`] and the bandwidth-lean [`CsrImplicit`]; the
/// solvers are generic over this trait so netruns can pick the layout
/// without duplicating iteration logic.
pub trait SpMatVec {
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Number of columns.
    fn n_cols(&self) -> usize;
    /// Number of stored entries.
    fn nnz(&self) -> usize;
    /// `y ← A·x` on `pool`, bit-identical at every worker count. `ws` is a
    /// reusable workspace; layouts that need none leave it untouched.
    fn mul_into(&self, x: &[f64], y: &mut [f64], ws: &mut Vec<f64>, pool: &Pool);
    /// Sweep `k` of a Jacobi solve: `next ← A·x + f`, returning
    /// `δ = ‖next − x‖₁`, bit-identical at every worker count and across
    /// layouts. A solve numbers its sweeps `0, 1, 2, …`, hands each one the
    /// previous one's `next` as `x`, and leaves `ws` alone in between;
    /// `ws` may hold anything when sweep `0` starts. The default body is
    /// the four-pass reference (multiply, `+ f`, `δ`).
    fn sweep(
        &self,
        k: usize,
        x: &[f64],
        f: &[f64],
        next: &mut [f64],
        ws: &mut Vec<f64>,
        pool: &Pool,
    ) -> f64 {
        let _ = k;
        self.mul_into(x, next, ws, pool);
        for (s, fi) in next.iter_mut().zip(f) {
            *s += fi;
        }
        vec_ops::l1_diff_pool(next, x, pool)
    }
    /// The contraction bound `min(‖A‖∞, ‖A‖₁)` used for solver error
    /// bounds (Theorem 3.2: any norm bounds the spectral radius).
    fn contraction_norm(&self) -> f64;
    /// One Gauss–Seidel row visit: folds row `i`'s off-diagonal terms into
    /// `init` in storage order (`acc += a_ij·x[j]` for `j ≠ i`),
    /// accumulates the diagonal coefficient separately, and returns
    /// `(acc, a_ii)`. Within-sweep solvers need per-row access with entry
    /// values resolved — an implicit entry's value is its column's scale —
    /// which `mul_into` cannot express because the iterate mutates
    /// mid-sweep.
    fn gs_row(&self, i: usize, init: f64, x: &[f64]) -> (f64, f64);
}

/// An immutable sparse matrix in compressed sparse row format.
///
/// Rows correspond to *destination* pages and columns to *source* pages in
/// the "pull" orientation used by the ranking code: entry `(v, u)` holds
/// `α / d(u)` when there is a hyperlink `u → v`, so that
/// `R'(v) = Σ_u A[v,u]·R(u)` is one rank-propagation step.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes the entries of row `r`.
    row_ptr: Vec<u64>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from its raw arrays.
    ///
    /// # Panics
    /// If the arrays are structurally inconsistent (wrong `row_ptr` length,
    /// non-monotonic or out-of-bounds `row_ptr`, mismatched
    /// `col_idx`/`values` lengths, or a column index out of range).
    #[must_use]
    pub fn from_raw_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<u64>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(col_idx.len(), values.len(), "col_idx and values must match");
        validate_raw_parts(n_rows, n_cols, &row_ptr, &col_idx, col_idx.len());
        Self { n_rows, n_cols, row_ptr, col_idx, values }
    }

    /// An `n × n` matrix with no stored entries.
    #[must_use]
    pub fn zero(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            row_ptr: vec![0; n_rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Heap bytes held by the matrix arrays (`row_ptr` + `col_idx` +
    /// `values`). The bandwidth benchmarks divide this by nnz.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * 8 + self.col_idx.len() * 4 + self.values.len() * 8
    }

    /// Rewrites every stored value from per-column scale factors
    /// (`values[k] = scale[col_idx[k]]`), keeping the entry structure — the
    /// explicit-layout twin of [`CsrImplicit::set_scale`].
    ///
    /// # Panics
    /// On a `scale` length other than `n_cols` or a non-finite factor.
    pub fn rescale_columns(&mut self, scale: &[f64]) {
        assert_eq!(scale.len(), self.n_cols, "scale must have one factor per column");
        assert!(scale.iter().all(|s| s.is_finite()), "scale factors must be finite");
        for (v, &c) in self.values.iter_mut().zip(&self.col_idx) {
            *v = scale[c as usize];
        }
    }

    /// The `(col, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]).map(|(&c, &v)| (c as usize, v))
    }

    /// Value at `(r, c)`, `0.0` if not stored. O(row length) — intended for
    /// tests and small matrices, not hot loops.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.row(r).find(|&(col, _)| col == c).map_or(0.0, |(_, v)| v)
    }

    /// Sequential SpMV: `y ← A·x`.
    ///
    /// # Panics
    /// If `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        for (r, yr) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yr = acc;
        }
    }

    /// Pool-parallel SpMV: `y ← A·x` with row chunks distributed over real
    /// worker threads. Rows are independent and each output element is the
    /// same per-row dot product as [`Csr::mul_vec`], so the result is
    /// bit-identical to the sequential kernel at every worker count. Falls
    /// back to the sequential kernel for small matrices or a sequential
    /// pool; chunk boundaries come from `spmv_chunk_rows`, a pure
    /// function of the matrix shape.
    pub fn mul_vec_pool(&self, x: &[f64], y: &mut [f64], pool: &Pool) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        if !spmv_parallel(pool, self.n_rows, self.nnz()) {
            return self.mul_vec(x, y);
        }
        let chunk_rows = spmv_chunk_rows(self.n_rows, self.nnz());
        let n_chunks = self.n_rows.div_ceil(chunk_rows);
        let out = SharedSlice::new(y);
        pool.for_each_chunk(n_chunks, |c| {
            let base = c * chunk_rows;
            let len = chunk_rows.min(self.n_rows - base);
            // SAFETY: chunk `c` covers rows `[base, base + len)` and chunks
            // are pairwise disjoint.
            let ys = unsafe { out.slice_mut(base, len) };
            for (i, yr) in ys.iter_mut().enumerate() {
                let r = base + i;
                let lo = self.row_ptr[r] as usize;
                let hi = self.row_ptr[r + 1] as usize;
                let mut acc = 0.0;
                for k in lo..hi {
                    acc += self.values[k] * x[self.col_idx[k] as usize];
                }
                *yr = acc;
            }
        });
    }

    /// [`Csr::mul_vec_pool`] on the process-wide [`Pool::global`] pool.
    pub fn mul_vec_par(&self, x: &[f64], y: &mut [f64]) {
        self.mul_vec_pool(x, y, Pool::global());
    }

    /// The infinity norm `‖A‖∞ = max_r Σ_c |A[r,c]|` (maximum absolute row
    /// sum). Theorem 3.2 bounds the spectral radius by any matrix norm, and
    /// this is the cheapest one for CSR; the ranking matrices satisfy
    /// `‖A‖∞ ≤ α < 1`, which is what guarantees convergence.
    #[must_use]
    pub fn inf_norm(&self) -> f64 {
        (0..self.n_rows)
            .map(|r| {
                let lo = self.row_ptr[r] as usize;
                let hi = self.row_ptr[r + 1] as usize;
                self.values[lo..hi].iter().map(|v| v.abs()).sum::<f64>()
            })
            .fold(0.0_f64, f64::max)
    }

    /// The 1-norm `‖A‖₁ = max_c Σ_r |A[r,c]|` (maximum absolute column sum).
    #[must_use]
    pub fn one_norm(&self) -> f64 {
        let mut col_sums = vec![0.0_f64; self.n_cols];
        for (k, &c) in self.col_idx.iter().enumerate() {
            col_sums[c as usize] += self.values[k].abs();
        }
        col_sums.into_iter().fold(0.0_f64, f64::max)
    }

    /// Whether every stored value is ≥ 0 (the `A ≥ 0` premise of the
    /// appendix lemmas).
    #[must_use]
    pub fn is_nonneg(&self) -> bool {
        self.values.iter().all(|v| *v >= 0.0)
    }

    /// Transposed copy (swaps the push/pull orientation).
    #[must_use]
    pub fn transpose(&self) -> Csr {
        let mut row_ptr = vec![0u64; self.n_cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.n_cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.n_rows {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            for k in lo..hi {
                let c = self.col_idx[k] as usize;
                let slot = cursor[c] as usize;
                col_idx[slot] = r as u32;
                values[slot] = self.values[k];
                cursor[c] += 1;
            }
        }
        Csr { n_rows: self.n_cols, n_cols: self.n_rows, row_ptr, col_idx, values }
    }

    /// Estimates the spectral radius `ρ(A)` by power iteration on `|A|`
    /// (element-wise absolute values), returning the final Rayleigh-style
    /// L1 growth ratio. Used in tests to confirm `ρ(A) ≤ ‖A‖∞` (Thm 3.2)
    /// with a healthy margin on real link matrices.
    #[must_use]
    pub fn estimate_spectral_radius(&self, iters: usize) -> f64 {
        assert_eq!(self.n_rows, self.n_cols, "spectral radius needs a square matrix");
        if self.n_rows == 0 {
            return 0.0;
        }
        let n = self.n_rows;
        let mut x = vec![1.0 / n as f64; n];
        let mut y = vec![0.0; n];
        let mut ratio = 0.0;
        for _ in 0..iters.max(1) {
            for (r, yr) in y.iter_mut().enumerate() {
                let lo = self.row_ptr[r] as usize;
                let hi = self.row_ptr[r + 1] as usize;
                let mut acc = 0.0;
                for k in lo..hi {
                    acc += self.values[k].abs() * x[self.col_idx[k] as usize];
                }
                *yr = acc;
            }
            let norm: f64 = y.iter().sum();
            if norm == 0.0 {
                return 0.0;
            }
            ratio = norm;
            for v in y.iter_mut() {
                *v /= norm;
            }
            std::mem::swap(&mut x, &mut y);
        }
        ratio
    }
}

impl SpMatVec for Csr {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn mul_into(&self, x: &[f64], y: &mut [f64], _ws: &mut Vec<f64>, pool: &Pool) {
        self.mul_vec_pool(x, y, pool);
    }
    fn contraction_norm(&self) -> f64 {
        self.inf_norm().min(self.one_norm())
    }
    fn gs_row(&self, i: usize, init: f64, x: &[f64]) -> (f64, f64) {
        let mut acc = init;
        let mut diag = 0.0;
        for (j, v) in self.row(i) {
            if j == i {
                diag += v;
            } else {
                acc += v * x[j];
            }
        }
        (acc, diag)
    }
}

/// Row-pointer word: lets the gather kernel monomorphize over narrow and
/// wide pointers instead of matching per row.
trait PtrWord: Copy + Sync {
    /// The pointer as a `usize` index.
    fn idx(self) -> usize;
}
impl PtrWord for u32 {
    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}
impl PtrWord for u64 {
    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Rows per window of the `SweepOrder`. The sort by in-degree is local to
/// a window so that the row-indexed vectors (`f`, the iterate, the scaled
/// workspace) are still walked front to back, 2 KiB of each at a time.
/// Measured on the 100 groups of the `rank-1m` benchmark graph (cold
/// solves to 1e-10, one thread, best of alternating runs; the four-pass
/// kernel this replaced ran 73 M rows/s): 64 rows 146 M, 128 rows 129–138
/// M, **256 rows 148–150 M**, 512 rows 143–145 M, 1024 rows 125–128 M,
/// 4096 rows 116 M, and one window of 65 536 rows — a global sort in all
/// but name — 86 M, with the 83k- and 123k-row groups at 60 M and 51 M,
/// *below* the unsorted kernel's 66 M and 63 M: a wide sort scatters the
/// row-indexed streams over more cache than it saves in the gather.
pub const SWEEP_WINDOW: usize = 256;

/// The order the gather visits rows in: per window of [`SWEEP_WINDOW`]
/// consecutive rows, the rows' offsets into the window, stably
/// counting-sorted by in-degree. `row_ptr` and `col_idx` are not permuted;
/// the order only decides which row comes next, so that the four rows
/// [`gather_quad`] takes side by side are of equal or nearly equal length
/// and their add chains stay in step. Nothing but the permutation is
/// stored — 2 bytes a row; the lengths are read off `row_ptr` as the
/// gather goes.
///
/// Built only by [`SweepOrder::build`] from a validated row pointer. The
/// gather kernel rests on two facts it establishes about window `w`, which
/// covers rows `base .. base + len` (`base = w·SWEEP_WINDOW`,
/// `len = min(SWEEP_WINDOW, n_rows − base)`):
///
/// 1. `offsets[base .. base + len]` is a permutation of `0 .. len`;
/// 2. the in-degrees of rows `base + offsets[base + i]` do not decrease
///    with `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SweepOrder {
    offsets: Vec<u16>,
}

// Window offsets are stored as `u16`.
const _: () = assert!(SWEEP_WINDOW <= 1 << 16);

impl SweepOrder {
    /// Counting sort per window: linear in rows + entries, because the
    /// degree histogram of a window is never longer than its entry count.
    fn build(row_ptr: &RowPtr, n_rows: usize) -> Self {
        let mut offsets = vec![0u16; n_rows];
        // `slot[d]`: first the number of rows of degree `d` in the window,
        // then the next free position among the rows of that degree.
        let mut slot: Vec<u32> = Vec::new();
        let mut degrees = [0usize; SWEEP_WINDOW];
        for (w, out) in offsets.chunks_mut(SWEEP_WINDOW).enumerate() {
            let degrees = &mut degrees[..out.len()];
            for (i, d) in degrees.iter_mut().enumerate() {
                let (lo, hi) = row_ptr.bounds(w * SWEEP_WINDOW + i);
                *d = hi - lo;
            }
            slot.clear();
            slot.resize(degrees.iter().max().map_or(0, |m| m + 1), 0);
            for &d in degrees.iter() {
                slot[d] += 1;
            }
            let mut first = 0;
            for s in &mut slot {
                first += std::mem::replace(s, first);
            }
            for (i, &d) in degrees.iter().enumerate() {
                out[slot[d] as usize] = i as u16;
                slot[d] += 1;
            }
        }
        Self { offsets }
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.len() * 2
    }
}

/// `s[i]`, without the bounds check unless the `checked-kernels` feature
/// is on.
///
/// # Safety
/// `i < s.len()`.
#[inline(always)]
unsafe fn load<T: Copy>(s: &[T], i: usize) -> T {
    #[cfg(feature = "checked-kernels")]
    {
        s[i]
    }
    #[cfg(not(feature = "checked-kernels"))]
    {
        // SAFETY: in bounds per the function contract.
        unsafe { *s.get_unchecked(i) }
    }
}

/// `s[i] = v`, the store twin of [`load`].
///
/// # Safety
/// `i < s.len()`.
#[inline(always)]
unsafe fn store<T>(s: &mut [T], i: usize, v: T) {
    #[cfg(feature = "checked-kernels")]
    {
        s[i] = v;
    }
    #[cfg(not(feature = "checked-kernels"))]
    {
        // SAFETY: in bounds per the function contract.
        unsafe { *s.get_unchecked_mut(i) = v };
    }
}

/// Gathers four rows side by side, `Σ_k ws[col_idx[first[j] + k]]` for
/// `k < degree[j]` in lane `j`: four independent add chains, each row
/// still folded left to right from `0.0` exactly like [`Csr::mul_vec`]. A
/// lone chain is bound by the latency of its adds — one row after another
/// ran 2.2–2.5 ns per entry on vectors that sit in L2; four overlap. The
/// lengths must not decrease from lane to lane: all four chains advance
/// together until the shortest row is done, then three, then two, then the
/// longest alone, so after a sort by in-degree almost every step is
/// four-wide.
///
/// There is one body for every length. Versions with a compile-time trip
/// count for four equal rows of in-degree ≤ 8 measured 1.00× and for ≤ 16
/// 0.94× the sweep rate of this loop alone (same graph and method as
/// [`SWEEP_WINDOW`]): the dispatch and the code it drags through the
/// instruction cache cost what the known trip count saves.
///
/// # Safety
/// `degree[0] <= degree[1] <= degree[2] <= degree[3]`; for each lane `j`,
/// `first[j] .. first[j] + degree[j]` must lie inside `col_idx`; every
/// element of `col_idx` must be `< ws.len()`.
#[inline(always)]
unsafe fn gather_quad(
    col_idx: &[u32],
    ws: &[f64],
    first: [usize; 4],
    degree: [usize; 4],
) -> [f64; 4] {
    // SAFETY: lane `j` is only asked for `k < degree[j]` (the degrees
    // ascend, and lane `j` sits out the loops from `degree[j]` on), so both
    // loads hold per the function contract.
    let term = |j: usize, k: usize| unsafe { load(ws, load(col_idx, first[j] + k) as usize) };
    let mut acc = [0.0_f64; 4];
    for k in 0..degree[0] {
        acc[0] += term(0, k);
        acc[1] += term(1, k);
        acc[2] += term(2, k);
        acc[3] += term(3, k);
    }
    for k in degree[0]..degree[1] {
        acc[1] += term(1, k);
        acc[2] += term(2, k);
        acc[3] += term(3, k);
    }
    for k in degree[1]..degree[2] {
        acc[2] += term(2, k);
        acc[3] += term(3, k);
    }
    for k in degree[2]..degree[3] {
        acc[3] += term(3, k);
    }
    acc
}

/// Gathers the window of rows `base .. base + offsets.len()` in the order
/// `offsets` gives: `emit(o, Σ_k ws[col_idx[row_ptr[base + o] + k]])` for
/// every offset `o`, each sum folded in storage order. The one gather
/// kernel of the implicit layout — the multiply and the fused sweep differ
/// only in `emit`.
///
/// # Safety
/// `offsets` must be one window of the [`SweepOrder`] of `row_ptr` and
/// `base` that window's first row, `row_ptr`/`col_idx` must have passed
/// [`validate_raw_parts`] against `n_cols`, and `ws.len() == n_cols`.
#[inline(always)]
unsafe fn gather_window<P: PtrWord>(
    row_ptr: &[P],
    col_idx: &[u32],
    ws: &[f64],
    base: usize,
    offsets: &[u16],
    mut emit: impl FnMut(usize, f64),
) {
    // SAFETY: `SweepOrder` fact 1 — `base + o` is a row of the matrix, so
    // `row_ptr` (validated: `n_rows + 1` entries) holds both its ends.
    let bounds = |o: u16| unsafe {
        let r = base + o as usize;
        (load(row_ptr, r).idx(), load(row_ptr, r + 1).idx())
    };
    let mut quads = offsets.chunks_exact(4);
    for q in quads.by_ref() {
        let b = [bounds(q[0]), bounds(q[1]), bounds(q[2]), bounds(q[3])];
        // SAFETY: the in-degrees ascend along the window (`SweepOrder`
        // fact 2); `validate_raw_parts` placed every row's `lo .. hi`
        // inside `col_idx` and every column index below
        // `n_cols == ws.len()`.
        let acc =
            unsafe { gather_quad(col_idx, ws, b.map(|(lo, _)| lo), b.map(|(lo, hi)| hi - lo)) };
        for (&o, a) in q.iter().zip(acc) {
            emit(o as usize, a);
        }
    }
    for &o in quads.remainder() {
        let (lo, hi) = bounds(o);
        let mut acc = 0.0;
        for k in lo..hi {
            // SAFETY: as above.
            acc += unsafe { load(ws, load(col_idx, k) as usize) };
        }
        emit(o as usize, acc);
    }
}

/// The bandwidth-lean, implicit-value CSR layout.
///
/// Stores no per-entry values: entry `(v, u)` implicitly holds `scale[u]`
/// (in the ranking matrices, `α / d(u)`). One pre-scale pass per multiply
/// (`ws[u] = scale[u] · x[u]`) turns the inner loop into a `u32` gather-sum
/// that streams 4 bytes of column index per non-zero instead of 12 — plus a
/// row pointer that auto-narrows to `u32` via [`RowPtr`]. A Jacobi solve
/// pre-scales once and then makes one pass per sweep
/// ([`SpMatVec::sweep`]); both walk the rows in the matrix's
/// `SweepOrder`, four rows side by side.
///
/// The multiply is bit-identical to [`Csr::mul_vec`] over the same entries:
/// each product `scale[u] · x[u]` is one f64 multiply of the same operands
/// the explicit kernel uses (`values[k] ≡ scale[col_idx[k]]`), computed
/// exactly once, and the per-row fold order is unchanged — the order rows
/// are visited in touches no sum.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrImplicit {
    n_rows: usize,
    n_cols: usize,
    row_ptr: RowPtr,
    col_idx: Vec<u32>,
    /// `scale[u]` — the implicit value of every entry in column `u`.
    /// Exactly `0.0` for dangling (zero out-degree) columns.
    scale: Vec<f64>,
    /// The order the gather visits rows in — a function of `row_ptr` alone,
    /// so a rescale keeps it.
    order: SweepOrder,
}

impl CsrImplicit {
    /// Builds an implicit-value CSR matrix from its raw arrays. The row
    /// pointer auto-narrows to `u32` when `nnz` permits.
    ///
    /// # Panics
    /// On structurally inconsistent arrays (same checks as
    /// [`Csr::from_raw_parts`]), a `scale` length other than `n_cols`, or a
    /// non-finite scale factor (a dangling column must be `0.0`, not
    /// `inf`/`NaN` — use [`column_scale`]).
    #[must_use]
    pub fn from_raw_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<u64>,
        col_idx: Vec<u32>,
        scale: Vec<f64>,
    ) -> Self {
        validate_raw_parts(n_rows, n_cols, &row_ptr, &col_idx, col_idx.len());
        assert_eq!(scale.len(), n_cols, "scale must have one factor per column");
        assert!(scale.iter().all(|s| s.is_finite()), "scale factors must be finite");
        let row_ptr = RowPtr::from_wide(row_ptr);
        let order = SweepOrder::build(&row_ptr, n_rows);
        Self { n_rows, n_cols, row_ptr, col_idx, scale, order }
    }

    /// An `n_rows × n_cols` matrix with no stored entries (all scales 0).
    #[must_use]
    pub fn zero(n_rows: usize, n_cols: usize) -> Self {
        Self::from_raw_parts(n_rows, n_cols, vec![0; n_rows + 1], Vec::new(), vec![0.0; n_cols])
    }

    /// Forces the wide (`u64`) row pointer, undoing the automatic
    /// narrowing. Exists so benchmarks can measure the narrow-pointer win
    /// in isolation.
    #[must_use]
    pub fn with_wide_row_ptr(mut self) -> Self {
        self.row_ptr = RowPtr::U64(self.row_ptr.to_wide());
        self
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Whether the row pointer narrowed to `u32`.
    #[must_use]
    pub fn row_ptr_is_narrow(&self) -> bool {
        self.row_ptr.is_narrow()
    }

    /// The per-column scale factors.
    #[must_use]
    pub fn scale(&self) -> &[f64] {
        &self.scale
    }

    /// Replaces the per-column scale factors in place, keeping the row
    /// pointer and column indices — the incremental-ranking patch path: a
    /// graph delta that changes out-degrees without touching this matrix's
    /// entry structure only needs new `α/d(u)` factors.
    ///
    /// # Panics
    /// On a `scale` length other than `n_cols` or a non-finite factor (the
    /// same contract as [`CsrImplicit::from_raw_parts`]).
    pub fn set_scale(&mut self, scale: Vec<f64>) {
        assert_eq!(scale.len(), self.n_cols, "scale must have one factor per column");
        assert!(scale.iter().all(|s| s.is_finite()), "scale factors must be finite");
        self.scale = scale;
    }

    /// Heap bytes held by the matrix arrays (`row_ptr` + `col_idx` +
    /// `scale` + the sweep order). The bandwidth benchmarks divide this by
    /// nnz: ≤ 8 bytes per non-zero for the narrow layout versus 12+ for
    /// [`Csr`].
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.heap_bytes()
            + self.col_idx.len() * 4
            + self.scale.len() * 8
            + self.order.heap_bytes()
    }

    /// Materializes the explicit twin: a [`Csr`] with the identical entry
    /// structure and `values[k] = scale[col_idx[k]]`. The twin's
    /// [`Csr::mul_vec`] is the bit-identity reference for this layout.
    #[must_use]
    pub fn to_explicit(&self) -> Csr {
        let values = self.col_idx.iter().map(|&c| self.scale[c as usize]).collect();
        Csr::from_raw_parts(
            self.n_rows,
            self.n_cols,
            self.row_ptr.to_wide(),
            self.col_idx.clone(),
            values,
        )
    }

    /// Pre-scale pass `out[u] = scale[u] · x[u]`: one multiply per column,
    /// the same two operands the explicit kernel multiplies per entry.
    /// Element-wise, so chunking over `pool` cannot affect bits.
    fn prescale(&self, x: &[f64], out: &mut [f64], pool: &Pool) {
        debug_assert!(x.len() == self.n_cols && out.len() == self.n_cols);
        if !spmv_parallel(pool, self.n_rows, self.nnz()) {
            for ((w, &s), &xu) in out.iter_mut().zip(&self.scale).zip(x) {
                *w = s * xu;
            }
            return;
        }
        let shared = SharedSlice::new(out);
        pool.for_each_chunk(self.n_cols.div_ceil(PRESCALE_CHUNK), |c| {
            let base = c * PRESCALE_CHUNK;
            let len = PRESCALE_CHUNK.min(self.n_cols - base);
            // SAFETY: chunk `c` covers elements `[base, base + len)` and
            // chunks are pairwise disjoint.
            let out = unsafe { shared.slice_mut(base, len) };
            for (i, w) in out.iter_mut().enumerate() {
                *w = self.scale[base + i] * x[base + i];
            }
        });
    }

    /// Runs `window(w)` for every window of the sweep order — on `pool`
    /// when the matrix is worth fanning out, inline otherwise. Windows are
    /// fixed row ranges, so which thread runs one cannot change a bit.
    fn for_each_window(&self, pool: &Pool, window: impl Fn(usize) + Sync) {
        let n_windows = self.n_rows.div_ceil(SWEEP_WINDOW);
        if spmv_parallel(pool, self.n_rows, self.nnz()) {
            pool.for_each_chunk(n_windows, window);
        } else {
            (0..n_windows).for_each(window);
        }
    }

    /// Gathers window `w` over the pre-scaled `ws`, handing `emit(i, sum)`
    /// every row `w·SWEEP_WINDOW + i` of the window once.
    ///
    /// # Panics
    /// If `ws.len() != n_cols`.
    #[inline(always)]
    fn gather(&self, ws: &[f64], w: usize, emit: impl FnMut(usize, f64)) {
        assert_eq!(ws.len(), self.n_cols);
        let base = w * SWEEP_WINDOW;
        let offsets = &self.order.offsets[base..self.n_rows.min(base + SWEEP_WINDOW)];
        // SAFETY: `order` was built in the constructor from this very
        // `row_ptr` (and survives only operations that keep every row's
        // in-degree: `set_scale`, `with_wide_row_ptr`), the arrays passed
        // `validate_raw_parts` against `n_cols`, and `ws.len() == n_cols`
        // was just asserted.
        unsafe {
            match &self.row_ptr {
                RowPtr::U32(p) => gather_window(p, &self.col_idx, ws, base, offsets, emit),
                RowPtr::U64(p) => gather_window(p, &self.col_idx, ws, base, offsets, emit),
            }
        }
    }

    /// Sequential SpMV: `y ← A·x`, with `ws` as the pre-scale workspace
    /// (resized to `n_cols`; reuse it across calls to avoid reallocation).
    ///
    /// # Panics
    /// If `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64], ws: &mut Vec<f64>) {
        self.mul_vec_pool(x, y, ws, &Pool::sequential());
    }

    /// Pool-parallel SpMV: `y ← A·x`. Bit-identical to
    /// [`CsrImplicit::mul_vec`] at every worker count: the pre-scale pass
    /// is element-wise, rows are independent, and the windows handed to
    /// the workers are fixed row ranges.
    pub fn mul_vec_pool(&self, x: &[f64], y: &mut [f64], ws: &mut Vec<f64>, pool: &Pool) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        ws.resize(self.n_cols, 0.0);
        self.prescale(x, ws, pool);
        let out = SharedSlice::new(y);
        self.for_each_window(pool, |w| {
            let base = w * SWEEP_WINDOW;
            // SAFETY: window `w` covers rows `[base, base + len)` and
            // windows are pairwise disjoint.
            let ys = unsafe { out.slice_mut(base, SWEEP_WINDOW.min(self.n_rows - base)) };
            // SAFETY (`store`): `SweepOrder` fact 1 — a row of window `w`
            // lies in `[base, base + ys.len())`.
            self.gather(ws, w, |i, sum| unsafe { store(ys, i, sum) });
        });
    }

    /// The infinity norm `‖A‖∞` — computed in the same per-row, in-order
    /// summation as [`Csr::inf_norm`] on the explicit twin, so the bounds
    /// match bit for bit.
    #[must_use]
    pub fn inf_norm(&self) -> f64 {
        (0..self.n_rows)
            .map(|r| {
                let (lo, hi) = self.row_ptr.bounds(r);
                self.col_idx[lo..hi].iter().map(|&c| self.scale[c as usize].abs()).sum::<f64>()
            })
            .fold(0.0_f64, f64::max)
    }

    /// The 1-norm `‖A‖₁` — same accumulation order as [`Csr::one_norm`] on
    /// the explicit twin.
    #[must_use]
    pub fn one_norm(&self) -> f64 {
        let mut col_sums = vec![0.0_f64; self.n_cols];
        for &c in &self.col_idx {
            col_sums[c as usize] += self.scale[c as usize].abs();
        }
        col_sums.into_iter().fold(0.0_f64, f64::max)
    }

    /// Whether every implicit value is ≥ 0.
    #[must_use]
    pub fn is_nonneg(&self) -> bool {
        // An entry's value is its column's scale; columns without entries
        // don't contribute values at all.
        self.col_idx.iter().all(|&c| self.scale[c as usize] >= 0.0)
    }
}

impl SpMatVec for CsrImplicit {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
    fn nnz(&self) -> usize {
        self.col_idx.len()
    }
    fn mul_into(&self, x: &[f64], y: &mut [f64], ws: &mut Vec<f64>, pool: &Pool) {
        self.mul_vec_pool(x, y, ws, pool);
    }
    /// The fused sweep, one pass over the matrix: `ws` holds two pre-scaled
    /// vectors of `n` elements, the one sweep `k` gathers from (filled from
    /// `x` when `k == 0`, by sweep `k − 1` otherwise) and the one it fills
    /// for sweep `k + 1`. Per row `r` it writes `next[r] = Σ + f[r]` and
    /// `scale[r]·next[r]` — every product still one multiply of the two
    /// operands the explicit kernel multiplies per entry, every row sum the
    /// same left-to-right fold, `δ` the same chunk partials — so iterate
    /// and `δ` equal the default body's on the explicit twin bit for bit.
    fn sweep(
        &self,
        k: usize,
        x: &[f64],
        f: &[f64],
        next: &mut [f64],
        ws: &mut Vec<f64>,
        pool: &Pool,
    ) -> f64 {
        let n = self.n_rows;
        assert_eq!(self.n_cols, n, "a sweep needs a square matrix");
        assert!(x.len() == n && f.len() == n && next.len() == n);
        ws.resize(2 * n, 0.0);
        let (even, odd) = ws.split_at_mut(n);
        let (ws_cur, ws_next) = if k.is_multiple_of(2) { (even, odd) } else { (odd, even) };
        if k == 0 {
            self.prescale(x, ws_cur, pool);
        }
        let ws_cur: &[f64] = ws_cur;
        let (out, ws_out) = (SharedSlice::new(next), SharedSlice::new(ws_next));
        self.for_each_window(pool, |w| {
            let base = w * SWEEP_WINDOW;
            let len = SWEEP_WINDOW.min(n - base);
            // SAFETY (both): window `w` covers rows `[base, base + len)`
            // and windows are pairwise disjoint.
            let (out, ws_out) = unsafe { (out.slice_mut(base, len), ws_out.slice_mut(base, len)) };
            let (f, scale) = (&f[base..base + len], &self.scale[base..base + len]);
            // SAFETY (`load`/`store`): `SweepOrder` fact 1 — a row of
            // window `w` lies in `[base, base + len)`, the length of all
            // four window slices.
            self.gather(ws_cur, w, |i, sum| unsafe {
                let v = sum + load(f, i);
                store(out, i, v);
                store(ws_out, i, load(scale, i) * v);
            });
        });
        vec_ops::l1_diff_pool(next, x, pool)
    }
    fn contraction_norm(&self) -> f64 {
        self.inf_norm().min(self.one_norm())
    }
    fn gs_row(&self, i: usize, init: f64, x: &[f64]) -> (f64, f64) {
        // No pre-scaled workspace here: the iterate mutates mid-sweep, so
        // each entry resolves its value (the column's scale) on the fly.
        let (lo, hi) = self.row_ptr.bounds(i);
        let mut acc = init;
        let mut diag = 0.0;
        for &c in &self.col_idx[lo..hi] {
            let c = c as usize;
            if c == i {
                diag += self.scale[c];
            } else {
                acc += self.scale[c] * x[c];
            }
        }
        (acc, diag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn sample() -> Csr {
        // [ 0  0.5 0 ]
        // [ 1  0   2 ]
        // [ 0  0   0 ]
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 1, 0.5);
        t.push(1, 0, 1.0);
        t.push(1, 2, 2.0);
        t.to_csr()
    }

    /// Builds a random pull-oriented ranking matrix in implicit form:
    /// `n` pages, per-column out-degrees in `0..=max_deg` (0 ⇒ dangling),
    /// entries sorted by (row, col) with duplicates allowed.
    fn random_implicit(n: usize, max_deg: u32, alpha: f64, seed: u64) -> CsrImplicit {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut degrees = vec![0u32; n];
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for (u, deg) in degrees.iter_mut().enumerate() {
            let d = rng.gen_range(0..=max_deg);
            *deg = d;
            for _ in 0..d {
                let v = rng.gen_range(0..n) as u32;
                entries.push((v, u as u32));
            }
        }
        entries.sort_unstable();
        let mut row_ptr = vec![0u64; n + 1];
        for &(v, _) in &entries {
            row_ptr[v as usize + 1] += 1;
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx = entries.iter().map(|&(_, u)| u).collect();
        CsrImplicit::from_raw_parts(n, n, row_ptr, col_idx, column_scale(alpha, &degrees))
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        m.mul_vec(&x, &mut y);
        assert_eq!(y, [1.0, 7.0, 0.0]);
    }

    #[test]
    fn mul_vec_par_matches_sequential_small() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y1 = [0.0; 3];
        let mut y2 = [0.0; 3];
        m.mul_vec(&x, &mut y1);
        m.mul_vec_par(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn mul_vec_par_matches_sequential_large() {
        let n = PAR_ROWS_THRESHOLD + 123;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut t = TripletMatrix::new(n, n);
        for _ in 0..n * 4 {
            t.push(rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(-1.0..1.0));
        }
        let m = t.to_csr();
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        m.mul_vec(&x, &mut y1);
        m.mul_vec_par(&x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_vec_pool_bit_identical_across_worker_counts() {
        let n = PAR_ROWS_THRESHOLD + 777;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut t = TripletMatrix::new(n, n);
        for _ in 0..n * 6 {
            t.push(rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(-1.0..1.0));
        }
        let m = t.to_csr();
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut seq = vec![0.0; n];
        m.mul_vec(&x, &mut seq);
        for workers in [1, 2, 8] {
            let pool = Pool::with_workers(workers);
            let mut y = vec![f64::NAN; n];
            m.mul_vec_pool(&x, &mut y, &pool);
            assert!(
                seq.iter().zip(&y).all(|(a, b)| a.to_bits() == b.to_bits()),
                "pooled SpMV diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn chunk_plan_is_a_pure_function_of_shape() {
        // A short-but-dense group matrix must yield more than a couple of
        // chunks (the old fixed 1024-row width starved the pool)...
        let rows = 1536;
        let nnz = 1536 * 15;
        let per = spmv_chunk_rows(rows, nnz);
        assert!(per < rows / 4, "chunk plan too coarse: {per} rows/chunk");
        assert!(rows.div_ceil(per) >= 4, "plan yields too few chunks");
        // ...while huge sparse matrices keep the old cap.
        assert_eq!(spmv_chunk_rows(10_000_000, 10_000_000), MAX_CHUNK_ROWS);
        // The plan depends only on (rows, nnz): constant across calls.
        assert_eq!(spmv_chunk_rows(rows, nnz), per);
        // Degenerate shapes stay sane.
        assert_eq!(spmv_chunk_rows(0, 0), 1);
        assert!(spmv_chunk_rows(5, 0) >= 1);
        // Empty rows don't zero the width.
        assert!(spmv_chunk_rows(100, 1_000_000) >= 1);
    }

    #[test]
    fn nnz_gate_parallelizes_short_dense_matrices() {
        // 1.5k rows is below the row threshold but 22k non-zeros crosses
        // the nnz threshold: the widened gate must fan out.
        let pool = Pool::with_workers(2);
        assert!(spmv_parallel(&pool, 1536, 23_000));
        assert!(!spmv_parallel(&pool, 1536, 1_000));
        assert!(!spmv_parallel(&Pool::sequential(), 1_000_000, 15_000_000));
    }

    #[test]
    fn norms() {
        let m = sample();
        assert_eq!(m.inf_norm(), 3.0); // row 1: 1 + 2
        assert_eq!(m.one_norm(), 2.0); // col 2
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(1, 0), 0.5);
        assert_eq!(t.get(0, 1), 1.0);
        assert_eq!(t.get(2, 1), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn zero_matrix() {
        let z = Csr::zero(4, 2);
        assert_eq!(z.nnz(), 0);
        let mut y = [9.0; 4];
        z.mul_vec(&[1.0, 1.0], &mut y);
        assert_eq!(y, [0.0; 4]);
        assert_eq!(z.inf_norm(), 0.0);
    }

    #[test]
    fn spectral_radius_bounded_by_inf_norm() {
        let m = sample();
        let rho = m.estimate_spectral_radius(100);
        assert!(rho <= m.inf_norm() + 1e-9, "rho={rho} > inf_norm={}", m.inf_norm());
    }

    #[test]
    fn spectral_radius_of_scaled_identity() {
        let mut t = TripletMatrix::new(5, 5);
        for i in 0..5 {
            t.push(i, i, 0.7);
        }
        let rho = t.to_csr().estimate_spectral_radius(50);
        assert!((rho - 0.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row_ptr must end at nnz")]
    fn inconsistent_raw_parts_panic() {
        let _ = Csr::from_raw_parts(1, 1, vec![0, 2], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "row_ptr entry exceeds nnz")]
    fn interior_row_ptr_out_of_bounds_panics() {
        // Ends at nnz = 1 but the interior pointer 5 points past the entry
        // arrays; before the explicit interior check this was only caught
        // incidentally (and misreported) by the monotonicity assert.
        let _ = Csr::from_raw_parts(2, 1, vec![0, 5, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "row_ptr entry exceeds nnz")]
    fn implicit_interior_row_ptr_out_of_bounds_panics() {
        let _ = CsrImplicit::from_raw_parts(2, 1, vec![0, 5, 1], vec![0], vec![0.85]);
    }

    #[test]
    #[should_panic(expected = "scale factors must be finite")]
    fn implicit_rejects_non_finite_scale() {
        let _ = CsrImplicit::from_raw_parts(1, 1, vec![0, 0], vec![], vec![f64::INFINITY]);
    }

    #[test]
    fn nonneg_detection() {
        assert!(sample().is_nonneg());
        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 0, -1.0);
        assert!(!t.to_csr().is_nonneg());
    }

    #[test]
    fn column_scale_zeroes_dangling_columns() {
        let s = column_scale(0.85, &[0, 1, 4, 0]);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[0].to_bits(), 0u64); // +0.0, not -0.0
        assert_eq!(s[1], 0.85);
        assert_eq!(s[2], 0.85 / 4.0);
        assert_eq!(s[3], 0.0);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn implicit_matches_explicit_on_toy_matrix() {
        // 3 pages: 0 → {1, 2}, 1 → {2}, 2 dangling.
        let degrees = [2u32, 1, 0];
        let m = CsrImplicit::from_raw_parts(
            3,
            3,
            vec![0, 0, 1, 3],
            vec![0, 0, 1],
            column_scale(0.85, &degrees),
        );
        assert!(m.row_ptr_is_narrow());
        let twin = m.to_explicit();
        let x = [0.3, 0.5, 0.2];
        let mut y_i = [0.0; 3];
        let mut y_e = [0.0; 3];
        let mut ws = Vec::new();
        m.mul_vec(&x, &mut y_i, &mut ws);
        twin.mul_vec(&x, &mut y_e);
        assert_eq!(y_i.map(f64::to_bits), y_e.map(f64::to_bits));
        assert_eq!(m.inf_norm().to_bits(), twin.inf_norm().to_bits());
        assert_eq!(m.one_norm().to_bits(), twin.one_norm().to_bits());
        assert!(m.is_nonneg());
        assert_eq!(m.nnz(), 3);
        assert!(m.heap_bytes() < twin.heap_bytes());
    }

    #[test]
    fn implicit_dangling_columns_and_empty_rows_stay_finite() {
        // Every page dangling: no entries, all scales exactly 0.0.
        let m = CsrImplicit::from_raw_parts(
            4,
            4,
            vec![0, 0, 0, 0, 0],
            vec![],
            column_scale(0.85, &[0, 0, 0, 0]),
        );
        let mut y = [f64::NAN; 4];
        let mut ws = Vec::new();
        m.mul_vec(&[1.0, 2.0, 3.0, 4.0], &mut y, &mut ws);
        assert_eq!(y, [0.0; 4]);
        assert!(ws.iter().all(|v| v.to_bits() == 0));
        assert_eq!(m.inf_norm(), 0.0);
        assert_eq!(m.one_norm(), 0.0);
        assert_eq!(m.contraction_norm(), 0.0);
    }

    #[test]
    fn wide_row_ptr_is_bit_identical_to_narrow() {
        let m = random_implicit(500, 8, 0.85, 99);
        assert!(m.row_ptr_is_narrow());
        let wide = m.clone().with_wide_row_ptr();
        assert!(!wide.row_ptr_is_narrow());
        let x: Vec<f64> = (0..500).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let (mut y1, mut y2) = (vec![0.0; 500], vec![0.0; 500]);
        let (mut w1, mut w2) = (Vec::new(), Vec::new());
        m.mul_vec(&x, &mut y1, &mut w1);
        wide.mul_vec(&x, &mut y2, &mut w2);
        assert!(y1.iter().zip(&y2).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(wide.heap_bytes() > m.heap_bytes());
        // The layout's reason to exist: 4 B/nnz of `col_idx`, and the 14 B
        // a row of narrow `row_ptr`, scale and sweep order amortize under
        // another 4 once the mean degree passes 3.5 (here 4).
        assert!(m.heap_bytes() as f64 / m.nnz() as f64 <= 8.0);
    }

    #[test]
    fn sweep_order_is_a_degree_sorted_permutation_of_every_window() {
        // The two facts the unchecked gather rests on, over sizes below,
        // equal to and past a window, with a ragged last window.
        for n in [0, 1, 3, SWEEP_WINDOW - 1, SWEEP_WINDOW, SWEEP_WINDOW + 1, 5 * SWEEP_WINDOW + 9] {
            let m = random_implicit(n, 12, 0.85, n as u64 + 1);
            assert_eq!(m.order.offsets.len(), n);
            for (w, offsets) in m.order.offsets.chunks(SWEEP_WINDOW).enumerate() {
                let base = w * SWEEP_WINDOW;
                let mut seen = vec![false; offsets.len()];
                let degree = |o: u16| {
                    let (lo, hi) = m.row_ptr.bounds(base + o as usize);
                    hi - lo
                };
                for pair in offsets.windows(2) {
                    assert!(degree(pair[0]) <= degree(pair[1]), "window {w} not degree-sorted");
                    // Stable: equal degrees keep row order.
                    assert!(degree(pair[0]) < degree(pair[1]) || pair[0] < pair[1]);
                }
                for &o in offsets {
                    assert!(!std::mem::replace(&mut seen[o as usize], true), "row visited twice");
                }
            }
        }
    }

    #[test]
    fn sweep_order_survives_set_scale_and_equals_a_rebuild() {
        let m = random_implicit(3 * SWEEP_WINDOW + 5, 9, 0.85, 17);
        let mut rescaled = m.clone();
        rescaled.set_scale(m.scale().iter().map(|s| s * 0.5).collect());
        assert_eq!(rescaled.order, m.order);
        assert_ne!(rescaled, m);
        // Same structure, built again: same order, and the halved scales
        // give the very same matrix as the in-place patch.
        let rebuilt = CsrImplicit::from_raw_parts(
            m.n_rows,
            m.n_cols,
            m.row_ptr.to_wide(),
            m.col_idx.clone(),
            rescaled.scale().to_vec(),
        );
        assert_eq!(rebuilt, rescaled);
        assert_eq!(m.clone().with_wide_row_ptr().order, m.order);
    }

    #[test]
    fn fused_sweep_matches_the_explicit_twin_where_delta_fans_out() {
        // Long enough for the pooled `δ` (16 384 elements) as well as the
        // pooled gather, and not a multiple of the window or of the
        // reduction chunk.
        let n = (1 << 14) + 300;
        let m = random_implicit(n, 6, 0.85, 3);
        let twin = m.to_explicit();
        let f: Vec<f64> = (0..n).map(|i| 1e-3 / (1.0 + (i % 13) as f64)).collect();
        let x0: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin().abs()).collect();
        for workers in [1, 2, 8] {
            let pool = Pool::with_workers(workers);
            let (mut x_i, mut x_e) = (x0.clone(), x0.clone());
            let (mut next_i, mut next_e) = (vec![0.0; n], vec![0.0; n]);
            let (mut ws_i, mut ws_e) = (Vec::new(), Vec::new());
            for k in 0..5 {
                let d_i = m.sweep(k, &x_i, &f, &mut next_i, &mut ws_i, &pool);
                let d_e = twin.sweep(k, &x_e, &f, &mut next_e, &mut ws_e, &pool);
                assert_eq!(d_i.to_bits(), d_e.to_bits(), "sweep {k}, {workers} workers");
                assert!(next_i.iter().zip(&next_e).all(|(a, b)| a.to_bits() == b.to_bits()));
                std::mem::swap(&mut x_i, &mut next_i);
                std::mem::swap(&mut x_e, &mut next_e);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The tentpole proof: over random ranking matrices — including
        /// dangling columns and empty rows — the implicit kernel matches
        /// the explicit twin bit for bit at 1, 2, and 8 workers, both of
        /// them matching the sequential explicit reference. Sizes are drawn
        /// so some cases cross the nnz parallel gate and genuinely fan out.
        #[test]
        fn implicit_matches_explicit_bitwise(seed in 0u64..1u64 << 32, n in 1usize..2500) {
            let m = random_implicit(n, 12, 0.85, seed);
            let twin = m.to_explicit();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xD15E);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let mut reference = vec![0.0; n];
            twin.mul_vec(&x, &mut reference);
            prop_assert!(reference.iter().all(|v| v.is_finite()));
            prop_assert_eq!(m.inf_norm().to_bits(), twin.inf_norm().to_bits());
            prop_assert_eq!(m.one_norm().to_bits(), twin.one_norm().to_bits());
            for workers in [1usize, 2, 8] {
                let pool = Pool::with_workers(workers);
                let mut y_i = vec![f64::NAN; n];
                let mut y_e = vec![f64::NAN; n];
                let mut ws = Vec::new();
                m.mul_vec_pool(&x, &mut y_i, &mut ws, &pool);
                twin.mul_vec_pool(&x, &mut y_e, &pool);
                for r in 0..n {
                    prop_assert_eq!(
                        y_i[r].to_bits(), reference[r].to_bits(),
                        "implicit row {} diverged at {} workers", r, workers
                    );
                    prop_assert_eq!(y_e[r].to_bits(), reference[r].to_bits());
                }
            }
        }

        /// Dangling columns never leak a non-finite scale into the result,
        /// whatever the graph shape (satellite: dangling/empty-row
        /// coverage through the implicit path).
        #[test]
        fn implicit_dangling_never_produces_non_finite(seed in 0u64..1u64 << 32) {
            let m = random_implicit(64, 2, 0.85, seed); // max_deg 2 ⇒ many dangling
            prop_assert!(m.scale().iter().all(|s| s.is_finite()));
            let x: Vec<f64> = (0..64).map(|i| (i as f64) + 0.5).collect();
            let mut y = vec![f64::NAN; 64];
            let mut ws = Vec::new();
            m.mul_vec(&x, &mut y, &mut ws);
            prop_assert!(y.iter().all(|v| v.is_finite()));
            prop_assert!(ws.iter().all(|v| v.is_finite()));
        }
    }
}
