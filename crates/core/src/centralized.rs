//! Centralized baselines: Algorithm 1 (classic PageRank) and the
//! open-system centralized PageRank (**CPR**) the figures compare against.

use dpr_graph::WebGraph;
use dpr_linalg::vec_ops;
use dpr_linalg::{Csr, Pool, TripletMatrix};

use crate::config::RankConfig;

/// Result of a centralized ranking computation.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankOutcome {
    /// Final rank vector (one entry per crawled page).
    pub ranks: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final successive difference `‖Rᵢ₊₁ − Rᵢ‖₁`.
    pub final_delta: f64,
    /// Whether the tolerance was met within the iteration cap.
    pub converged: bool,
}

/// Builds the open-system propagation matrix `A` of §3 in pull orientation:
/// `A[v][u] = α / d(u)` for each internal link `u → v`, where `d(u)` is the
/// *total* out-degree (internal + external). Rank flowing along external
/// links leaves the system — that is the "open" in Open System PageRank.
#[must_use]
pub fn open_system_matrix(g: &WebGraph, alpha: f64) -> Csr {
    let n = g.n_pages();
    let mut t = TripletMatrix::with_capacity(n, n, g.n_internal_links());
    for u in 0..n as u32 {
        let d = g.out_degree(u);
        if d == 0 {
            continue;
        }
        let w = alpha / f64::from(d);
        for &v in g.out_links(u) {
            t.push(v as usize, u as usize, w);
        }
    }
    t.to_csr()
}

/// **CPR** — centralized open-system PageRank: solves `R = A·R + βE` over
/// the whole crawled graph as a single group with no afferent rank. This is
/// the fixed point the distributed algorithms converge to ("Can the two
/// algorithms converge to the same vector as centralized page ranking? The
/// answer is Yes").
///
/// Iterations are counted from `R₀ = 0`, matching the distributed runs.
///
/// Large graphs route the solve through the process-wide worker pool
/// ([`Pool::global`]); the kernels' fixed chunk boundaries make the result
/// bit-identical to a sequential solve, so this is purely a wall-clock
/// optimization.
#[must_use]
pub fn open_pagerank(g: &WebGraph, cfg: &RankConfig) -> PageRankOutcome {
    let pool = if g.n_pages() > 1 << 15 { Pool::global().clone() } else { Pool::sequential() };
    open_pagerank_with_pool(g, cfg, &pool)
}

/// [`open_pagerank`] on an explicit worker pool — the entry point the
/// threads-vs-speedup bench sweeps. Results are bit-identical at every
/// worker count.
#[must_use]
pub fn open_pagerank_with_pool(g: &WebGraph, cfg: &RankConfig, pool: &Pool) -> PageRankOutcome {
    cfg.validate(g.n_pages());
    let a = open_system_matrix(g, cfg.alpha);
    // In pull orientation the columns (not rows) are the per-source
    // distributions, so the paper's `‖A‖∞ ≤ α` becomes `‖A‖₁ ≤ α` here —
    // either way ρ(A) ≤ α < 1 by Theorem 3.2.
    debug_assert!(a.one_norm() <= cfg.alpha + 1e-12, "‖A‖₁ must be ≤ α");
    let pages: Vec<u32> = (0..g.n_pages() as u32).collect();
    let f = cfg.beta_e_for(&pages);
    let mut r = vec![0.0; g.n_pages()];
    let solver = dpr_linalg::FixedPointSolver {
        tolerance: cfg.epsilon,
        max_iters: cfg.max_iters,
        pool: pool.clone(),
    };
    let report = solver.solve(&a, &f, &mut r);
    PageRankOutcome {
        ranks: r,
        iterations: report.iterations,
        final_delta: report.final_delta,
        converged: report.converged,
    }
}

/// Counts the CPR iterations needed before the iterate's relative error to
/// the (pre-computed) fixed point drops to `threshold` — the metric Fig 8
/// plots for the CPR bar.
#[must_use]
pub fn open_pagerank_iterations_to(g: &WebGraph, cfg: &RankConfig, threshold: f64) -> usize {
    let r_star = open_pagerank(g, cfg).ranks;
    let a = open_system_matrix(g, cfg.alpha);
    let pages: Vec<u32> = (0..g.n_pages() as u32).collect();
    let f = cfg.beta_e_for(&pages);
    let solver = dpr_linalg::FixedPointSolver::new(cfg.epsilon);
    let mut r = vec![0.0; g.n_pages()];
    for iter in 1..=cfg.max_iters {
        solver.step(&a, &f, &mut r, 1);
        if vec_ops::relative_error(&r, &r_star) <= threshold {
            return iter;
        }
    }
    cfg.max_iters
}

/// **Algorithm 1** — classic PageRank over the crawled set treated as a
/// *closed* system: `A[v][u] = 1/d_int(u)` with `d_int` the internal
/// out-degree, and the rank lost to dangling pages each step
/// (`D = ‖Rᵢ‖₁ − ‖Rᵢ₊₁‖₁`) re-injected along `E`:
///
/// ```text
/// R0 = S
/// loop
///     R_{i+1} = A R_i
///     D = ||R_i||_1 - ||R_{i+1}||_1
///     R_{i+1} = R_{i+1} + D·E
///     δ = ||R_{i+1} - R_i||_1
/// while δ > ε
/// ```
///
/// `E` is normalized to unit L1 mass so the total rank `‖R‖₁` is conserved
/// exactly — the "balance of rank carefully considered in each iteration
/// step" the paper contrasts open systems against.
#[must_use]
pub fn pagerank(g: &WebGraph, cfg: &RankConfig) -> PageRankOutcome {
    cfg.validate(g.n_pages());
    let n = g.n_pages();
    if n == 0 {
        return PageRankOutcome { ranks: vec![], iterations: 0, final_delta: 0.0, converged: true };
    }
    // Closed-system matrix: internal links only, 1/d_int weights scaled by α
    // (the paper's formula 2.1 damping constant c).
    let mut t = TripletMatrix::with_capacity(n, n, g.n_internal_links());
    for u in 0..n as u32 {
        let d = g.internal_out_degree(u);
        if d == 0 {
            continue;
        }
        let w = cfg.alpha / f64::from(d);
        for &v in g.out_links(u) {
            t.push(v as usize, u as usize, w);
        }
    }
    let a = t.to_csr();

    // E normalized to total mass 1.
    let mut e: Vec<f64> = (0..n as u32).map(|p| cfg.e.value(p)).collect();
    let mass = vec_ops::l1_norm(&e);
    assert!(mass > 0.0, "E must have positive mass");
    vec_ops::scale(1.0 / mass, &mut e);

    // S = E scaled to total rank n (so average rank starts at 1).
    let mut r: Vec<f64> = e.iter().map(|v| v * n as f64).collect();
    let mut next = vec![0.0; n];
    let mut iterations = 0;
    let mut delta = f64::INFINITY;
    while iterations < cfg.max_iters {
        a.mul_vec(&r, &mut next);
        let d = vec_ops::l1_norm(&r) - vec_ops::l1_norm(&next);
        vec_ops::axpy(d, &e, &mut next);
        delta = vec_ops::l1_diff(&next, &r);
        std::mem::swap(&mut r, &mut next);
        iterations += 1;
        if delta <= cfg.epsilon {
            break;
        }
    }
    PageRankOutcome { ranks: r, iterations, final_delta: delta, converged: delta <= cfg.epsilon }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_graph::generators::toy;
    use dpr_linalg::vec_ops::{l1_norm, mean};

    #[test]
    fn cycle_open_ranks_are_uniform() {
        let g = toy::cycle(8);
        let out = open_pagerank(&g, &RankConfig::default());
        assert!(out.converged);
        // Closed cycle (no leakage): R = αR + β ⇒ R(v) = 1 for every page.
        for r in &out.ranks {
            assert!((r - 1.0).abs() < 1e-6, "rank {r}");
        }
    }

    #[test]
    fn leaky_graph_average_rank_below_one() {
        // 2/3 of each page's links leave the crawl: mean rank must settle
        // well below 1 — the paper's Fig 7 observation (≈ 0.3 with ~53%
        // leakage at α = 0.85).
        let g = toy::leaky_cycle(50, 2);
        let out = open_pagerank(&g, &RankConfig::default());
        let avg = mean(&out.ranks);
        // R = α/3·R + β ⇒ R = 0.15/(1 − 0.85/3) ≈ 0.209.
        assert!((avg - 0.15 / (1.0 - 0.85 / 3.0)).abs() < 1e-6, "avg {avg}");
    }

    #[test]
    fn star_hub_dominates() {
        let g = toy::star(10);
        let out = open_pagerank(&g, &RankConfig::default());
        let hub = out.ranks[0];
        for spoke in &out.ranks[1..] {
            assert!(hub > 3.0 * spoke, "hub {hub} vs spoke {spoke}");
        }
    }

    #[test]
    fn closed_pagerank_conserves_mass() {
        let g = toy::star(10);
        let out = pagerank(&g, &RankConfig::default());
        assert!(out.converged);
        assert!((l1_norm(&out.ranks) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn closed_pagerank_handles_dangling_chain() {
        let g = toy::chain(5);
        let out = pagerank(&g, &RankConfig::default());
        assert!(out.converged);
        assert!((l1_norm(&out.ranks) - 5.0).abs() < 1e-6);
        assert!(out.ranks.iter().all(|r| *r > 0.0));
    }

    #[test]
    fn iterations_to_threshold_less_than_full_solve() {
        let g = toy::star(30);
        let cfg = RankConfig::default();
        let full = open_pagerank(&g, &cfg);
        let coarse = open_pagerank_iterations_to(&g, &cfg, 1e-2);
        let fine = open_pagerank_iterations_to(&g, &cfg, 1e-6);
        assert!(coarse <= fine, "{coarse} > {fine}");
        assert!(fine <= full.iterations + 1);
    }

    #[test]
    fn open_matrix_norm_bounded_by_alpha() {
        let g = toy::leaky_cycle(20, 3);
        let a = open_system_matrix(&g, 0.85);
        assert!(a.one_norm() <= 0.85 + 1e-12);
        assert!((0..a.n_rows()).flat_map(|r| a.row(r)).all(|(_, v)| v >= 0.0));
    }

    #[test]
    fn empty_graph() {
        let g = dpr_graph::GraphBuilder::new().build();
        let out = pagerank(&g, &RankConfig::default());
        assert!(out.converged);
        assert!(out.ranks.is_empty());
    }

    #[test]
    fn virtual_links_defeat_the_rank_sink() {
        // §2's motivating pathology: pages {1,2} form a closed sink fed by
        // page 0. Pure power iteration (no E term) drains everything into
        // the sink; the open-system fixed point keeps every page ranked.
        let mut b = dpr_graph::GraphBuilder::new();
        let s = b.add_site("a.edu");
        let p0 = b.add_page(s);
        let p1 = b.add_page(s);
        let p2 = b.add_page(s);
        b.add_link(p0, p1);
        b.add_link(p1, p2);
        b.add_link(p2, p1);
        let g = b.build();
        let sinks = dpr_graph::analysis::rank_sinks(&g, true);
        assert_eq!(sinks.len(), 1, "test graph must contain a closed sink");

        // Pure iteration R <- A R with alpha ~ 1 and no rank source:
        // the feeder's rank decays toward zero.
        let a = open_system_matrix(&g, 0.999_999);
        let mut r = vec![1.0; 3];
        dpr_linalg::FixedPointSolver { tolerance: 0.0, max_iters: 200, ..Default::default() }
            .step(&a, &[0.0; 3], &mut r, 200);
        assert!(r[p0 as usize] < 1e-6, "feeder should have drained: {}", r[p0 as usize]);

        // Open-system PageRank: everyone keeps positive rank and the
        // feeder holds exactly its source share betaE = 0.15.
        let out = open_pagerank(&g, &RankConfig::default());
        assert!(out.converged);
        assert!((out.ranks[p0 as usize] - 0.15).abs() < 1e-6);
        assert!(out.ranks.iter().all(|&x| x > 0.1));
    }
}
