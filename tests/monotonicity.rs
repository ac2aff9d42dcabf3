//! Property-based verification of the paper's theory across random
//! configurations: Theorems 4.1/4.2 (DPR1 monotone, bounded), the appendix
//! lemmas, and convergence of the open-system solver — driven by proptest.

use dpr::core::{open_pagerank, try_run_over_network_observed, DprVariant, NetRunConfig};
use dpr::core::{RankConfig, RunRecorder};
use dpr::graph::generators::{random, toy};
use dpr::linalg::csr::SWEEP_WINDOW;
use dpr::linalg::{column_scale, Csr, CsrImplicit, FixedPointSolver, TripletMatrix};
use dpr::partition::{Partition, Strategy};
use dpr::sim::FaultPlan;
use proptest::prelude::*;

/// Runs `cfg` from `R₀ = 0` with Theorems 4.1/4.2 checked at every sample
/// against the centralized fixed point.
fn run_checked(g: &dpr::graph::WebGraph, cfg: NetRunConfig) -> RunRecorder {
    let bound = open_pagerank(g, &RankConfig::default()).ranks;
    let mut rec = RunRecorder::new(1e-4).with_bound(bound);
    try_run_over_network_observed(g, cfg, None, &mut |s| rec.observe(s))
        .expect("a valid configuration");
    rec
}

/// Appendix Lemma 1 — `A ≥ 0`, `f ≥ 0`, `‖A‖∞ < 1` ⇒ the fixed point of
/// `r = Ar + f` is non-negative — checked on the product solver's fixed
/// point (up to `-tol` float jitter). The premises are asserted.
fn lemma1_nonneg_fixed_point_holds(a: &Csr, f: &[f64], tol: f64) -> bool {
    assert!(is_nonneg_matrix(a), "Lemma 1 premise: A >= 0");
    assert!(f.iter().all(|v| *v >= 0.0), "Lemma 1 premise: f >= 0");
    assert!(a.inf_norm() < 1.0, "Lemma 1 premise: ||A||_inf < 1");
    let mut r = vec![0.0; f.len()];
    FixedPointSolver::new(tol * 1e-3).solve(a, f, &mut r);
    r.iter().all(|v| *v >= -tol)
}

/// Appendix Lemma 2 — under Lemma 1's premises on `A`, `f₁ ≥ f₂ ⇒ r₁ ≥ r₂`
/// element-wise (up to `tol`) — checked on the product solver's fixed
/// points. The engine behind Theorems 4.1/4.2.
fn lemma2_monotone_in_f_holds(a: &Csr, f1: &[f64], f2: &[f64], tol: f64) -> bool {
    assert!(is_nonneg_matrix(a), "Lemma 2 premise: A >= 0");
    assert!(a.inf_norm() < 1.0, "Lemma 2 premise: ||A||_inf < 1");
    assert!(f1.iter().zip(f2).all(|(x, y)| x >= y), "Lemma 2 premise: f1 >= f2 element-wise");
    let solver = FixedPointSolver::new(tol * 1e-3);
    let mut r1 = vec![0.0; f1.len()];
    let mut r2 = vec![0.0; f2.len()];
    solver.solve(a, f1, &mut r1);
    solver.solve(a, f2, &mut r2);
    r1.iter().zip(&r2).all(|(x, y)| *x >= *y - tol)
}

fn is_nonneg_matrix(a: &Csr) -> bool {
    (0..a.n_rows()).flat_map(|r| a.row(r)).all(|(_, v)| v >= 0.0)
}

/// A random `n`-page ranking matrix in the group layout: out-degrees in
/// `0..=9` (0 dangles), links drawn uniformly, entry `(v, u) = α/d(u)`.
fn ranking_matrix(n: usize, seed: u64) -> CsrImplicit {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut degrees = vec![0u32; n];
    let mut links: Vec<(u32, u32)> = Vec::new();
    for (u, d) in degrees.iter_mut().enumerate() {
        *d = rng.gen_range(0..=9);
        links.extend((0..*d).map(|_| (rng.gen_range(0..n) as u32, u as u32)));
    }
    links.sort_unstable();
    let mut row_ptr = vec![0u64; n + 1];
    for &(v, _) in &links {
        row_ptr[v as usize + 1] += 1;
    }
    for r in 0..n {
        row_ptr[r + 1] += row_ptr[r];
    }
    let col_idx = links.iter().map(|&(_, u)| u).collect();
    CsrImplicit::from_raw_parts(n, n, row_ptr, col_idx, column_scale(0.85, &degrees))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Theorems 4.1 & 4.2 on random graphs, K, loss rates and schedules, in
    /// the paper's §5 deployment (direct transmission: in-order delivery):
    /// every page's rank sequence is monotone non-decreasing and bounded by
    /// the centralized fixed point.
    #[test]
    fn dpr1_rank_sequences_monotone_and_bounded(
        n in 20usize..200,
        k in 2usize..12,
        p in 0.3f64..=1.0,
        t2 in 1.0f64..8.0,
        seed in 0u64..1000,
    ) {
        let g = random::erdos_renyi(n, 4, 5.0, seed);
        let res = run_checked(&g, NetRunConfig {
            variant: DprVariant::Dpr1,
            strategy: Strategy::HashByUrl,
            t1: 0.0,
            t2,
            send_success_prob: p,
            seed,
            t_end: 60.0,
            sample_every: 5.0,
            ..NetRunConfig::section5(k)
        });
        let (monotone, bounded) = res.theorems_held();
        prop_assert!(monotone, "Theorem 4.1 violated (n={n}, k={k}, p={p})");
        prop_assert!(bounded, "Theorem 4.2 violated (n={n}, k={k}, p={p})");
        // The global average-rank series inherits monotonicity.
        prop_assert!(res.avg_rank.is_monotone_nondecreasing(1e-9));
    }

    /// Same properties for DPR2 (which requires R0 = 0 — our default).
    #[test]
    fn dpr2_rank_sequences_monotone_and_bounded(
        n in 20usize..150,
        k in 2usize..8,
        seed in 0u64..1000,
    ) {
        let g = random::copy_model(n, 4, 5, 0.6, seed);
        let res = run_checked(&g, NetRunConfig {
            variant: DprVariant::Dpr2,
            strategy: Strategy::HashByUrl,
            t1: 0.5,
            t2: 2.0,
            seed,
            t_end: 80.0,
            sample_every: 5.0,
            ..NetRunConfig::section5(k)
        });
        let (monotone, bounded) = res.theorems_held();
        prop_assert!(monotone);
        prop_assert!(bounded);
    }

    /// Appendix Lemma 1: non-negative fixed points of random contractions.
    #[test]
    fn lemma1_nonneg_fixed_point(
        dim in 1usize..30,
        entries in prop::collection::vec((0usize..30, 0usize..30, 0.0f64..0.2), 0..60),
        f_scale in 0.0f64..10.0,
        seed in 0u64..100,
    ) {
        let mut t = TripletMatrix::new(dim, dim);
        for (r, c, v) in entries {
            if r < dim && c < dim {
                t.push(r, c, v / dim as f64); // keep ||A||inf < 1
            }
        }
        let a = t.to_csr();
        prop_assume!(a.inf_norm() < 1.0);
        let f: Vec<f64> = (0..dim).map(|i| f_scale * ((i as u64 ^ seed) % 7) as f64 / 7.0).collect();
        prop_assert!(lemma1_nonneg_fixed_point_holds(&a, &f, 1e-9));
    }

    /// Appendix Lemma 2: the fixed point is monotone in f.
    #[test]
    fn lemma2_monotone_in_f(
        dim in 1usize..25,
        entries in prop::collection::vec((0usize..25, 0usize..25, 0.0f64..0.15), 0..50),
        bump in prop::collection::vec(0.0f64..3.0, 1..25),
    ) {
        let mut t = TripletMatrix::new(dim, dim);
        for (r, c, v) in entries {
            if r < dim && c < dim {
                t.push(r, c, v / dim as f64);
            }
        }
        let a = t.to_csr();
        prop_assume!(a.inf_norm() < 1.0);
        let f2: Vec<f64> = (0..dim).map(|i| i as f64 * 0.1).collect();
        let f1: Vec<f64> =
            f2.iter().enumerate().map(|(i, v)| v + bump.get(i % bump.len()).copied().unwrap_or(0.0)).collect();
        prop_assert!(lemma2_monotone_in_f_holds(&a, &f1, &f2, 1e-9));
    }

    /// Theorem 3.3's stopping rule: wherever the solver reports
    /// convergence, the true error is within `q/(1−q)·δ`, with `δ` the
    /// final successive difference and `q = min(‖A‖∞, ‖A‖₁)` the
    /// contraction factor, computed here from the matrix.
    #[test]
    fn contraction_error_bound_sound(
        dim in 2usize..20,
        density in 1usize..5,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = TripletMatrix::new(dim, dim);
        for r in 0..dim {
            for _ in 0..density {
                let c = rng.gen_range(0..dim);
                t.push(r, c, rng.gen_range(0.0..0.8 / density as f64));
            }
        }
        let a = t.to_csr();
        prop_assume!(a.inf_norm() < 1.0);
        let f: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();

        // Loose solve, then tight solve as "truth".
        let solver = dpr::linalg::FixedPointSolver { tolerance: 1e-4, max_iters: 10_000, ..Default::default() };
        let mut x = vec![0.0; dim];
        let report = solver.solve(&a, &f, &mut x);
        prop_assert!(report.converged);
        let mut x_star = vec![0.0; dim];
        dpr::linalg::FixedPointSolver::new(1e-14).solve(&a, &f, &mut x_star);
        let true_err = dpr::linalg::vec_ops::l1_diff(&x, &x_star);
        let q = a.inf_norm().min(a.one_norm());
        prop_assert!(q < 1.0);
        let bound = q / (1.0 - q) * report.final_delta;
        prop_assert!(true_err <= bound + 1e-9, "true {true_err} > bound {bound}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Theorem 3.3's stopping rule for the group layout's sweep, on
    /// ranking matrices of several windows: a sweep reads the windows it
    /// already finished, so its residual is `M·(next − x)` with `M` the
    /// entries of the current and later windows, and the true error of a
    /// converged solve is still within `q/(1−q)·δ` for `q = ‖A‖₁`.
    #[test]
    fn contraction_error_bound_sound_across_windows(n in 600usize..3_000, seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let a = ranking_matrix(n, seed);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xF00D);
        let f: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let solver = FixedPointSolver { tolerance: 1e-4, max_iters: 10_000, ..Default::default() };
        let mut x = vec![0.0; n];
        let report = solver.solve(&a, &f, &mut x);
        prop_assert!(report.converged);
        let mut x_star = vec![0.0; n];
        FixedPointSolver::new(1e-14).solve(&a.to_explicit(), &f, &mut x_star);
        let true_err = dpr::linalg::vec_ops::l1_diff(&x, &x_star);
        let q = a.to_explicit().one_norm();
        prop_assert!(q < 1.0);
        let bound = q / (1.0 - q) * report.final_delta;
        prop_assert!(true_err <= bound + 1e-9, "true {true_err} > bound {bound} (n = {n})");
    }
}

/// Theorems 4.1 and 4.2 where every group's solve crosses windows of the
/// gather: a 3 000-page web in two groups of more than four windows each,
/// DPR1 and DPR2 from `R₀ = 0` in the §5 deployment.
#[test]
fn theorems_hold_for_groups_of_several_windows() {
    let g = random::erdos_renyi(3_000, 24, 5.0, 17);
    for variant in [DprVariant::Dpr1, DprVariant::Dpr2] {
        let cfg = NetRunConfig {
            variant,
            strategy: Strategy::HashByUrl,
            t1: 0.5,
            t2: 4.0,
            seed: 17,
            t_end: 300.0,
            sample_every: 4.0,
            ..NetRunConfig::section5(2)
        };
        let groups = Partition::build(&g, &cfg.strategy, cfg.k, 0);
        let sizes: Vec<usize> = groups.group_pages().iter().map(Vec::len).collect();
        assert!(sizes.iter().all(|&n| n > 4 * SWEEP_WINDOW), "group sizes {sizes:?}");
        let rec = run_checked(&g, cfg);
        assert_eq!(rec.theorems_held(), (true, true), "{variant:?}");
        assert!(rec.epochs_at_threshold.is_some(), "{variant:?} never reached 0.01%");
    }
}

/// §4.2 lets nodes "sleep for some time, suspend itself as its wish, or even
/// shutdown": two nodes drop off the network for long windows and one runs
/// slow. Lost parts are superseded, never reordered, so Theorem 4.1 still
/// holds and the run still lands on the fixed point.
#[test]
fn theorem_4_1_survives_crash_windows_and_stragglers() {
    let g = toy::two_cliques(5);
    let plan = FaultPlan::new()
        .with_crash(0, 5.0, 60.0)
        .with_crash(0, 150.0, 260.0)
        .with_crash(1, 30.0, 200.0)
        .with_straggler(2, 3.0, 4.0);
    let cfg = NetRunConfig {
        strategy: Strategy::HashByUrl,
        t1: 1.0,
        t2: 1.0,
        t_end: 2_000.0,
        faults: Some(plan),
        seed: 13,
        ..NetRunConfig::section5(4)
    };
    let mut rec = RunRecorder::new(1e-4);
    let res = try_run_over_network_observed(&g, cfg, None, &mut |s| rec.observe(s))
        .expect("a valid configuration");
    assert!(res.final_rel_err < 1e-5, "rel err {} under churn", res.final_rel_err);
    assert!(res.sim_stats.crash_dropped > 10, "churn never exercised");
    assert!(rec.theorems_held().0, "Theorem 4.1 must survive churn");
}
