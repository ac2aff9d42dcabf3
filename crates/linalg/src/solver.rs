//! Fixed-point solver for `x = A·x + f`.
//!
//! This is the computational heart of Algorithm 2 (`GroupPageRank`): each
//! page group repeatedly applies `R ← A·R + (βE + X)` until the successive
//! difference `‖Rᵢ₊₁ − Rᵢ‖₁` drops below a tolerance. Theorem 3.1 guarantees
//! convergence whenever `ρ(A) < 1`, Theorem 3.2 reduces that to the checkable
//! `‖A‖∞ < 1`, and Theorem 3.3 turns the successive difference into a bound
//! on the true error — which is why the stopping rule is sound. The ranking
//! matrices are contractions by construction (`‖A‖₁ ≤ α`), so the solver
//! checks nothing per solve; `tests/monotonicity.rs` holds Theorem 3.3 to
//! the true error.
//!
//! A sweep is the matrix layout's ([`SpMatVec::sweep`]): Jacobi for the
//! explicit [`crate::Csr`], window Gauss–Seidel for the group layout
//! [`crate::CsrImplicit`]. Theorem 3.3 covers both. Split `A = L + M`, `L`
//! the entries whose column lies in a window the sweep already finished
//! (empty for Jacobi). A sweep computes `next = L·next + M·x + f`, so the
//! residual at `next` is `A·next + f − next = M·(next − x)`, and
//! `‖R* − next‖₁ ≤ ‖(I − A)⁻¹‖₁·‖M‖₁·δ ≤ q/(1 − q)·δ` with `q = ‖A‖₁`
//! (for `A ≥ 0`, `‖M‖₁ ≤ ‖A‖₁`). With `A ≥ 0` and `f ≥ 0`, a sweep from a
//! subsolution never lowers a row, which is what Theorems 4.1 and 4.2
//! need.
//!
//! # The relative stop
//!
//! [`FixedPointSolver::solve_relative_with_scratch`] ends a solve once
//! `δ_k ≤ max(tolerance, η·δ₁)`: a fraction `η` of the solve's own first
//! sweep's change, with `tolerance` as the floor. DPR1's group solves use
//! it with `η = `[`INNER_STOP_RATIO`]: their inputs are still moving, so
//! solving each think to `1e-10` absolute (about `1e-14` of a large group's
//! rank) buys nothing the next think keeps. The bound above holds at
//! whatever sweep the solve stops, so a stop at `δ_k ≤ η·δ₁` leaves at most
//! `q/(1 − q)·η·δ₁ ≤ (α/β)·η·δ₁` of the fixed point unsolved — under 6% of
//! the change the first sweep made, at `α = 0.85` and `η = 1e-2`. Every
//! sweep from a subsolution still never lowers a row and never passes the
//! fixed point, so any number of sweeps `≥ 1` keeps Theorems 4.1 and 4.2;
//! and a first sweep that moves nothing (`δ₁ = 0`) stops at once, as the
//! absolute rule does.

use crate::csr::SpMatVec;
use crate::pool::Pool;

/// DPR1's `η`: a group's inner solve stops once its successive difference
/// has fallen to this fraction of its first sweep's (see the module docs).
/// The largest decade that moved no exact benchmark metric on seeds 1–3
/// (DESIGN.md §15 has the measurements).
pub const INNER_STOP_RATIO: f64 = 1e-2;

/// Configuration for the fixed-point iteration.
#[derive(Debug, Clone)]
pub struct FixedPointSolver {
    /// Stop when `‖xᵢ₊₁ − xᵢ‖₁ ≤ tolerance`.
    pub tolerance: f64,
    /// Hard iteration cap (guards against a caller passing `‖A‖∞ ≥ 1`).
    pub max_iters: usize,
    /// Worker pool for the SpMV and reduction kernels. The kernels use
    /// fixed chunk boundaries, so the solve is bit-identical at every
    /// worker count — the pool only changes wall-clock time.
    pub pool: Pool,
}

impl Default for FixedPointSolver {
    fn default() -> Self {
        Self { tolerance: 1e-10, max_iters: 10_000, pool: Pool::sequential() }
    }
}

/// Outcome of a fixed-point solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveReport {
    /// Number of `x ← Ax + f` applications performed.
    pub iterations: usize,
    /// Final successive difference `‖xᵢ₊₁ − xᵢ‖₁`.
    pub final_delta: f64,
    /// Whether the stopping rule was met within `max_iters`:
    /// `final_delta ≤ tolerance`, or under the relative stop
    /// `final_delta ≤ max(tolerance, η·δ₁)`.
    pub converged: bool,
}

impl FixedPointSolver {
    /// Creates a solver with the given tolerance and default limits.
    #[must_use]
    pub fn new(tolerance: f64) -> Self {
        Self { tolerance, ..Self::default() }
    }

    /// Solves `x = A·x + f` in place, starting from the current contents of
    /// `x`. `scratch` is the double buffer (resized to `x`'s length); `ws`
    /// is the matrix layout's sweep workspace (an implicit-value matrix
    /// keeps the pre-scaled newest iterate in it; the explicit layout
    /// leaves it untouched). Callers in hot loops reuse both across solves to avoid
    /// reallocation; neither carries anything from one solve to the next,
    /// so their contents on entry are irrelevant.
    ///
    /// Generic over [`SpMatVec`] so the same iteration drives the explicit
    /// [`crate::Csr`] and the bandwidth-lean [`crate::CsrImplicit`].
    ///
    /// # Panics
    /// If dimensions are inconsistent.
    pub fn solve_with_scratch<M: SpMatVec>(
        &self,
        a: &M,
        f: &[f64],
        x: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        ws: &mut Vec<f64>,
    ) -> SolveReport {
        // A ratio of 0 is the absolute rule: `max(tolerance, 0) = tolerance`.
        self.solve_relative_with_scratch(a, f, x, scratch, ws, 0.0)
    }

    /// [`Self::solve_with_scratch`] under the relative stop: the solve ends
    /// once `δ_k ≤ max(tolerance, ratio·δ₁)`, `δ₁` being its own first
    /// sweep's successive difference. It always runs at least one sweep,
    /// and `final_delta` describes the iterate it leaves in `x`, so
    /// Theorem 3.3's `q/(1 − q)·final_delta` bounds that iterate's error.
    ///
    /// # Panics
    /// If dimensions are inconsistent.
    pub fn solve_relative_with_scratch<M: SpMatVec>(
        &self,
        a: &M,
        f: &[f64],
        x: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        ws: &mut Vec<f64>,
        ratio: f64,
    ) -> SolveReport {
        let n = a.n_rows();
        assert_eq!(a.n_cols(), n, "fixed-point iteration needs a square matrix");
        assert_eq!(f.len(), n);
        assert_eq!(x.len(), n);
        scratch.resize(n, 0.0);
        let mut delta = f64::INFINITY;
        let mut stop = self.tolerance;
        let mut iters = 0;
        while iters < self.max_iters {
            // scratch ← A·x + f
            delta = a.sweep(iters, x, f, scratch, ws, &self.pool);
            if iters == 0 {
                stop = stop.max(ratio * delta);
            }
            iters += 1;
            std::mem::swap(x, scratch);
            if delta <= stop {
                break;
            }
        }
        SolveReport { iterations: iters, final_delta: delta, converged: delta <= stop }
    }

    /// Convenience wrapper around [`Self::solve_with_scratch`] that allocates
    /// its own scratch and workspace buffers.
    pub fn solve<M: SpMatVec>(&self, a: &M, f: &[f64], x: &mut Vec<f64>) -> SolveReport {
        let mut scratch = vec![0.0; x.len()];
        let mut ws = Vec::new();
        self.solve_with_scratch(a, f, x, &mut scratch, &mut ws)
    }

    /// Performs exactly `steps` applications of `x ← A·x + f` (the DPR2 node
    /// body does a single step per outer loop), returning the last successive
    /// difference.
    pub fn step<M: SpMatVec>(&self, a: &M, f: &[f64], x: &mut Vec<f64>, steps: usize) -> f64 {
        let mut scratch = vec![0.0; x.len()];
        let mut ws = Vec::new();
        self.step_with_scratch(a, f, x, steps, &mut scratch, &mut ws)
    }

    /// [`Self::step`] with caller-provided double and workspace buffers, so
    /// per-wake hot loops (one step per think time, thousands of think
    /// times per run) never reallocate. The buffers' contents are
    /// irrelevant on entry — the first sweep overwrites every element.
    pub fn step_with_scratch<M: SpMatVec>(
        &self,
        a: &M,
        f: &[f64],
        x: &mut Vec<f64>,
        steps: usize,
        scratch: &mut Vec<f64>,
        ws: &mut Vec<f64>,
    ) -> f64 {
        let n = a.n_rows();
        assert_eq!(a.n_cols(), n);
        assert_eq!(f.len(), n);
        assert_eq!(x.len(), n);
        scratch.resize(n, 0.0);
        let mut delta = 0.0;
        for k in 0..steps {
            delta = a.sweep(k, x, f, scratch, ws, &self.pool);
            std::mem::swap(x, scratch);
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{column_scale, Csr, CsrImplicit};
    use crate::triplet::TripletMatrix;

    /// 2×2 contraction with known fixed point:
    /// x = [[0.5, 0], [0.25, 0.25]]·x + [1, 1] ⇒ x* = [2, 2].
    fn small_system() -> (Csr, Vec<f64>, Vec<f64>) {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 0.5);
        t.push(1, 0, 0.25);
        t.push(1, 1, 0.25);
        (t.to_csr(), vec![1.0, 1.0], vec![2.0, 2.0])
    }

    #[test]
    fn converges_to_fixed_point() {
        let (a, f, expect) = small_system();
        let mut x = vec![0.0, 0.0];
        let report = FixedPointSolver::new(1e-12).solve(&a, &f, &mut x);
        assert!(report.converged);
        assert!((x[0] - expect[0]).abs() < 1e-10);
        assert!((x[1] - expect[1]).abs() < 1e-10);
    }

    #[test]
    fn warm_start_converges_faster() {
        let (a, f, expect) = small_system();
        let solver = FixedPointSolver::new(1e-12);
        let mut cold = vec![0.0, 0.0];
        let cold_report = solver.solve(&a, &f, &mut cold);
        let mut warm = expect.clone();
        let warm_report = solver.solve(&a, &f, &mut warm);
        assert!(warm_report.iterations < cold_report.iterations);
    }

    #[test]
    fn max_iters_respected_for_non_contraction() {
        // A = [[1.0]] is not a contraction; x = x + 1 diverges.
        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 0, 1.0);
        let a = t.to_csr();
        let solver = FixedPointSolver { tolerance: 1e-12, max_iters: 17, ..Default::default() };
        let mut x = vec![0.0];
        let report = solver.solve(&a, &[1.0], &mut x);
        assert_eq!(report.iterations, 17);
        assert!(!report.converged);
    }

    #[test]
    fn single_step_matches_manual() {
        let (a, f, _) = small_system();
        let solver = FixedPointSolver::default();
        let mut x = vec![4.0, 0.0];
        solver.step(&a, &f, &mut x, 1);
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn pooled_solver_is_bit_identical_to_sequential() {
        let (a, f, _) = small_system();
        let mut x1 = vec![0.0, 0.0];
        FixedPointSolver::new(1e-12).solve(&a, &f, &mut x1);
        for workers in [2, 8] {
            let mut x2 = vec![0.0, 0.0];
            let pool = Pool::with_workers(workers);
            FixedPointSolver { pool, ..FixedPointSolver::new(1e-12) }.solve(&a, &f, &mut x2);
            assert_eq!(x1, x2, "pooled solve diverged at {workers} workers");
        }
    }

    #[test]
    fn zero_dimensional_system() {
        let a = Csr::zero(0, 0);
        let mut x: Vec<f64> = vec![];
        let report = FixedPointSolver::default().solve(&a, &[], &mut x);
        assert!(report.converged);
    }

    #[test]
    fn solve_ignores_whatever_the_buffers_hold_on_entry() {
        // Nothing is carried from one solve to the next: a `ws` and a
        // `scratch` left over from a solve of a *different* system (other
        // length, other scales) — or filled with NaN — change no bit.
        let degrees = [2u32, 2, 1, 0];
        let m = CsrImplicit::from_raw_parts(
            4,
            4,
            vec![0, 1, 2, 4, 5],
            vec![2, 0, 0, 1, 1],
            column_scale(0.85, &degrees),
        );
        let f = vec![0.15 / 4.0; 4];
        let solver = FixedPointSolver::new(1e-12);
        let mut clean = vec![0.25; 4];
        let want = solver.solve(&m, &f, &mut clean);
        for (scratch, ws) in [
            (vec![f64::NAN; 9], vec![f64::NAN; 8]),
            (vec![7.0; 2], vec![-3.0; 31]),
            (Vec::new(), vec![f64::INFINITY; 3]),
        ] {
            let (mut scratch, mut ws) = (scratch, ws);
            let mut x = vec![0.25; 4];
            let got = solver.solve_with_scratch(&m, &f, &mut x, &mut scratch, &mut ws);
            assert_eq!(got, want);
            assert!(x.iter().zip(&clean).all(|(a, b)| a.to_bits() == b.to_bits()));
            // And again on the buffers that solve left behind, as a step.
            let mut y = vec![0.25; 4];
            let mut z = vec![0.25; 4];
            let d1 = solver.step_with_scratch(&m, &f, &mut y, 3, &mut scratch, &mut ws);
            let d2 = solver.step(&m, &f, &mut z, 3);
            assert_eq!(d1.to_bits(), d2.to_bits());
            assert_eq!(y, z);
        }
    }

    #[test]
    fn implicit_solve_is_bit_identical_to_explicit_twin() {
        // A 4-page ranking system: 0 → {1, 2}, 1 → {2, 3}, 2 → {0}, 3
        // dangling. It fits in one window, where the window sweep is a
        // Jacobi sweep: solving through the implicit layout must reproduce
        // the explicit twin's iterates bit for bit.
        let degrees = [2u32, 2, 1, 0];
        let m = CsrImplicit::from_raw_parts(
            4,
            4,
            vec![0, 1, 2, 4, 5],
            vec![2, 0, 0, 1, 1],
            column_scale(0.85, &degrees),
        );
        let twin = m.to_explicit();
        let f = vec![0.15 / 4.0; 4];
        let solver = FixedPointSolver::new(1e-12);
        let mut x_i = vec![0.25; 4];
        let mut x_e = vec![0.25; 4];
        let r_i = solver.solve(&m, &f, &mut x_i);
        let r_e = solver.solve(&twin, &f, &mut x_e);
        assert!(r_i.converged && r_e.converged);
        assert_eq!(r_i.iterations, r_e.iterations);
        assert_eq!(r_i.final_delta.to_bits(), r_e.final_delta.to_bits());
        assert!(x_i.iter().zip(&x_e).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
