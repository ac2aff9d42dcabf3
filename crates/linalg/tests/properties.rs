//! Property tests for the linear-algebra substrate: CSR operations are
//! checked against naive dense references on arbitrary matrices.

use dpr_linalg::csr::SWEEP_WINDOW;
use dpr_linalg::{
    column_scale, vec_ops, Csr, CsrImplicit, FixedPointSolver, Pool, SpMatVec, TripletMatrix,
    INNER_STOP_RATIO,
};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Arbitrary small sparse matrix as (rows, cols, entries).
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..12, 1usize..12).prop_flat_map(|(r, c)| {
        let entries = prop::collection::vec((0..r, 0..c, -2.0f64..2.0), 0..40);
        (Just(r), Just(c), entries)
    })
}

fn dense_of(r: usize, c: usize, entries: &[(usize, usize, f64)]) -> Vec<Vec<f64>> {
    let mut d = vec![vec![0.0; c]; r];
    for &(i, j, v) in entries {
        d[i][j] += v;
    }
    d
}

fn csr_of(r: usize, c: usize, entries: &[(usize, usize, f64)]) -> Csr {
    let mut t = TripletMatrix::new(r, c);
    for &(i, j, v) in entries {
        t.push(i, j, v);
    }
    t.to_csr()
}

/// Row counts the window-sweep model test runs on: none, one, a few,
/// just below / equal to / just above one window, and several windows with
/// a ragged last one, the largest long enough for the pooled pre-scale and
/// `δ` to fan out.
const SWEEP_SHAPES: [usize; 11] = [
    0,
    1,
    5,
    SWEEP_WINDOW - 1,
    SWEEP_WINDOW,
    SWEEP_WINDOW + 1,
    3 * SWEEP_WINDOW + 1,
    3 * SWEEP_WINDOW + 77,
    1000,
    4 * 1024 + 3,
    (1 << 14) + 300,
];

/// A random pull-oriented ranking matrix in implicit form with every
/// shape the gather has a case for: dangling columns (out-degree 0, scale
/// exactly 0), empty rows (the last eighth of the rows is never linked
/// to), a diagonal entry, duplicate entries, and — once there are enough
/// columns — one row longer than a window and one of 40 entries.
fn ranking_matrix(n: usize, seed: u64) -> CsrImplicit {
    let mut rng = SmallRng::seed_from_u64(seed);
    let linked = (n - n / 8).max(1);
    let mut degrees = vec![0u32; n];
    let mut entries: Vec<(u32, u32)> = Vec::new();
    for (u, degree) in degrees.iter_mut().enumerate() {
        *degree = rng.gen_range(0..=9u32);
        for _ in 0..*degree {
            entries.push((rng.gen_range(0..linked) as u32, u as u32));
        }
    }
    if n > 0 {
        let r = rng.gen_range(0..n) as u32;
        entries.push((r, r));
        degrees[r as usize] += 1;
    }
    if n >= 8 {
        for (row, len) in [(n / 2, SWEEP_WINDOW + 44), (n / 3, 40)] {
            for k in 0..len {
                let u = (k * 7 + 1) % n;
                entries.push((row as u32, u as u32));
                degrees[u] += 1;
            }
        }
    }
    from_links(n, entries, &degrees)
}

/// A ranking matrix without dangling pages whose links mostly stay in or
/// go back to the source's own window: nine in ten land on a page before
/// the end of it. Every column then sums to `α`, and the window sweep reads
/// few values it finished this sweep, so it contracts a non-negative error
/// almost as slowly as Jacobi, at close to `q = ‖A‖₁`: the matrices on
/// which Theorem 3.3's `q/(1 − q)·δ` is nearly tight.
fn backward_ranking_matrix(n: usize, seed: u64) -> CsrImplicit {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut degrees = vec![0u32; n];
    let mut entries: Vec<(u32, u32)> = Vec::new();
    for (u, degree) in degrees.iter_mut().enumerate() {
        *degree = rng.gen_range(1..=9u32);
        let window_end = n.min((u / SWEEP_WINDOW + 1) * SWEEP_WINDOW);
        for _ in 0..*degree {
            let end = if rng.gen_range(0..10) == 0 { n } else { window_end };
            entries.push((rng.gen_range(0..end) as u32, u as u32));
        }
    }
    from_links(n, entries, &degrees)
}

/// The pull-oriented implicit matrix of `(destination, source)` links,
/// each column scaled by `0.85 / degree` of its source.
fn from_links(n: usize, mut entries: Vec<(u32, u32)>, degrees: &[u32]) -> CsrImplicit {
    entries.sort_unstable();
    let mut row_ptr = vec![0u64; n + 1];
    for &(v, _) in &entries {
        row_ptr[v as usize + 1] += 1;
    }
    for r in 0..n {
        row_ptr[r + 1] += row_ptr[r];
    }
    let col_idx = entries.iter().map(|&(_, u)| u).collect();
    CsrImplicit::from_raw_parts(n, n, row_ptr, col_idx, column_scale(0.85, degrees))
}

/// The naive window Gauss–Seidel sweep on the explicit twin: windows of
/// [`SWEEP_WINDOW`] rows in order, each row folded left to right over
/// [`Csr::row`] from `0.0`, a column in an earlier window read from this
/// sweep's `next` and every other column from `x`; then `δ = ‖next − x‖₁`.
fn window_sweep_model(twin: &Csr, x: &[f64], f: &[f64], next: &mut [f64]) -> f64 {
    for first in (0..x.len()).step_by(SWEEP_WINDOW) {
        for r in first..x.len().min(first + SWEEP_WINDOW) {
            let mut sum = 0.0;
            for (c, v) in twin.row(r) {
                sum += v * if c < first { next[c] } else { x[c] };
            }
            next[r] = sum + f[r];
        }
    }
    vec_ops::l1_diff(next, x)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The implicit layout's sweep against the naive window model: 20
    /// consecutive sweeps, each fed its own output, at 1, 2 and 8 workers —
    /// every iterate and every `δ` bit for bit. The workspaces start out
    /// holding garbage.
    #[test]
    fn sweep_matches_the_window_gauss_seidel_model(
        seed in 0u64..1u64 << 32,
        shape in 0usize..SWEEP_SHAPES.len(),
    ) {
        let n = SWEEP_SHAPES[shape];
        let m = ranking_matrix(n, seed);
        let twin = m.to_explicit();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EE9);
        let f: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..0.01)).collect();
        let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        for workers in [1usize, 2, 8] {
            let pool = Pool::with_workers(workers);
            let (mut x_i, mut x_m) = (x0.clone(), x0.clone());
            let (mut next_i, mut next_m) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            let mut ws = vec![f64::NAN; 7];
            for k in 0..20 {
                let d_i = m.sweep(k, &x_i, &f, &mut next_i, &mut ws, &pool);
                let d_m = window_sweep_model(&twin, &x_m, &f, &mut next_m);
                prop_assert_eq!(
                    d_i.to_bits(), d_m.to_bits(),
                    "delta of sweep {} diverged at {} workers (n = {})", k, workers, n
                );
                for r in 0..n {
                    prop_assert_eq!(
                        next_i[r].to_bits(), next_m[r].to_bits(),
                        "row {} of sweep {} diverged at {} workers (n = {})", r, k, workers, n
                    );
                }
                std::mem::swap(&mut x_i, &mut next_i);
                std::mem::swap(&mut x_m, &mut next_m);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// DPR1's relative stop, `δ_k ≤ max(ε, η·δ₁)`, on ranking matrices of
    /// three to six windows (never a whole number of them), started from a
    /// random subsolution `c·x* + (1 − c)·v` with `0 ≤ v < f`. Whatever
    /// sweep it stops at: at least one sweep ran, the stop was met unless
    /// `max_iters` cut it short, every row lies between its start and the
    /// fixed point (Theorems 4.1/4.2), and the iterate left in `x` is within
    /// `q/(1 − q)·final_delta` of the fixed point (Theorem 3.3). `δ₁` is
    /// read off a separate first sweep from the same start.
    #[test]
    fn relative_stop_keeps_theorems_3_3_4_1_and_4_2(
        seed in 0u64..1u64 << 32,
        windows in 3usize..7,
        ragged in 1usize..SWEEP_WINDOW,
        backward in any::<bool>(),
        eta in 0usize..4,
        epsilon in 0usize..2,
        max_iters in 0usize..3,
        c in 0.0f64..0.999,
    ) {
        let eta = [INNER_STOP_RATIO, 1e-3, 0.1, 0.5][eta];
        let epsilon = [1e-10, 1e-6][epsilon];
        let max_iters = [1usize, 3, 10_000][max_iters];
        let n = windows * SWEEP_WINDOW + ragged;
        let m = if backward { backward_ranking_matrix(n, seed) } else { ranking_matrix(n, seed) };
        let q = m.to_explicit().one_norm();
        prop_assert!(q < 1.0);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5709);
        let f: Vec<f64> = (0..n).map(|_| rng.gen_range(1e-4..0.01)).collect();
        let mut star = vec![0.0; n];
        let exact = FixedPointSolver { tolerance: 1e-14, max_iters: 5_000, pool: Pool::sequential() };
        let star_report = exact.solve(&m, &f, &mut star);
        prop_assert!(star_report.converged);
        // How far `star` itself may sit below the fixed point, plus rounding.
        let slack = q / (1.0 - q) * star_report.final_delta
            + 64.0 * f64::EPSILON * vec_ops::l1_norm(&star);
        let x0: Vec<f64> = star
            .iter()
            .zip(&f)
            .map(|(s, fi)| c * s + (1.0 - c) * rng.gen_range(0.0..0.9) * fi)
            .collect();

        let solver = FixedPointSolver { tolerance: epsilon, max_iters, pool: Pool::sequential() };
        let mut first = x0.clone();
        let delta_1 = solver.step(&m, &f, &mut first, 1);
        let mut x = x0.clone();
        let (mut scratch, mut ws) = (Vec::new(), Vec::new());
        let report = solver.solve_relative_with_scratch(&m, &f, &mut x, &mut scratch, &mut ws, eta);

        prop_assert!(report.iterations >= 1);
        let stop = epsilon.max(eta * delta_1);
        prop_assert_eq!(report.converged, report.final_delta <= stop);
        prop_assert!(
            report.converged || report.iterations == max_iters,
            "stopped at sweep {} on δ = {} above {}", report.iterations, report.final_delta, stop
        );
        for r in 0..n {
            prop_assert!(x[r] >= x0[r], "row {} fell: {} < {}", r, x[r], x0[r]);
            prop_assert!(x[r] <= star[r] + slack, "row {} passed the fixed point: {} > {}", r, x[r], star[r]);
        }
        let err = vec_ops::l1_diff(&x, &star);
        let bound = q / (1.0 - q) * report.final_delta + slack;
        prop_assert!(
            err <= bound,
            "Theorem 3.3: error {} > bound {} after {} sweeps (n = {}, backward = {})",
            err, bound, report.iterations, n, backward
        );
    }
}

proptest! {
    #[test]
    fn spmv_matches_dense((r, c, entries) in arb_matrix(), xs in prop::collection::vec(-3.0f64..3.0, 1..12)) {
        let dense = dense_of(r, c, &entries);
        let m = csr_of(r, c, &entries);
        let x: Vec<f64> = (0..c).map(|j| xs[j % xs.len()]).collect();
        let mut y = vec![0.0; r];
        m.mul_vec(&x, &mut y);
        for i in 0..r {
            let want: f64 = (0..c).map(|j| dense[i][j] * x[j]).sum();
            prop_assert!((y[i] - want).abs() < 1e-9, "row {i}: {} vs {want}", y[i]);
        }
        // Parallel kernel agrees bit-for-bit at this size (it falls back to
        // sequential under the threshold, but the contract is agreement).
        let mut y2 = vec![0.0; r];
        m.mul_vec_pool(&x, &mut y2, Pool::global());
        prop_assert_eq!(y, y2);
    }

    #[test]
    fn transpose_involution((r, c, entries) in arb_matrix()) {
        let m = csr_of(r, c, &entries);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_norms((r, c, entries) in arb_matrix()) {
        let m = csr_of(r, c, &entries);
        let t = m.transpose();
        prop_assert!((m.inf_norm() - t.one_norm()).abs() < 1e-12);
        prop_assert!((m.one_norm() - t.inf_norm()).abs() < 1e-12);
    }

    #[test]
    fn get_matches_dense((r, c, entries) in arb_matrix()) {
        let dense = dense_of(r, c, &entries);
        let m = csr_of(r, c, &entries);
        for (i, row) in dense.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                prop_assert!((m.get(i, j) - want).abs() < 1e-12);
            }
        }
    }

    /// On scaled-down (certified contraction) matrices the solver must
    /// converge and satisfy the fixed-point equation.
    #[test]
    fn solver_reaches_a_true_fixed_point(
        (n, _, entries) in (2usize..10, Just(0usize), prop::collection::vec((0usize..10, 0usize..10, 0.0f64..0.5), 0..30)),
        f in prop::collection::vec(0.0f64..2.0, 2..10),
    ) {
        let n = n.min(f.len());
        let mut t = TripletMatrix::new(n, n);
        for &(i, j, v) in &entries {
            if i < n && j < n {
                t.push(i, j, v / 10.0); // keep well inside contraction
            }
        }
        let a = t.to_csr();
        prop_assume!(a.inf_norm() < 0.9);
        let f = &f[..n];
        let mut x = vec![0.0; n];
        let report = FixedPointSolver::new(1e-12).solve(&a, f, &mut x);
        prop_assert!(report.converged);
        // Residual check: x ≈ Ax + f.
        let mut ax = vec![0.0; n];
        a.mul_vec(&x, &mut ax);
        for i in 0..n {
            prop_assert!((x[i] - (ax[i] + f[i])).abs() < 1e-9);
        }
    }
}
