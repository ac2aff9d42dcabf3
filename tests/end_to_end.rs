//! End-to-end integration: graph generation → partitioning → group build →
//! asynchronous simulation → convergence against the centralized baseline,
//! across datasets, strategies, variants and failure levels.

use dpr::core::config::EVector;
use dpr::core::metrics::top_k;
use dpr::core::{
    open_pagerank, try_run_over_network_observed, DprVariant, NetRunConfig, NetRunResult,
    RankConfig, RunRecorder,
};
use dpr::graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr::graph::generators::{random, toy};
use dpr::partition::Strategy;

fn small_edu() -> dpr::graph::WebGraph {
    edu_domain(&EduDomainConfig { n_pages: 4_000, n_sites: 25, ..EduDomainConfig::default() })
}

fn base_cfg() -> NetRunConfig {
    NetRunConfig {
        strategy: Strategy::HashBySite,
        t1: 0.5,
        t2: 3.0,
        t_end: 250.0,
        sample_every: 2.5,
        ..NetRunConfig::section5(16)
    }
}

fn with_k(k: usize, cfg: NetRunConfig) -> NetRunConfig {
    NetRunConfig { k, n_nodes: k, ..cfg }
}

/// Runs `cfg`; also returns how many groups own pages.
fn rank(g: &dpr::graph::WebGraph, cfg: NetRunConfig) -> (NetRunResult, usize) {
    let mut rec = RunRecorder::new(1e-4);
    let res = try_run_over_network_observed(g, cfg, None, &mut |s| rec.observe(s))
        .expect("a valid configuration");
    (res, rec.active_groups)
}

#[test]
fn dpr1_matches_cpr_on_edu_graph() {
    let g = small_edu();
    let (res, _) = rank(&g, base_cfg());
    let star = open_pagerank(&g, &RankConfig::default()).ranks;
    assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
    // The rankings agree, not just the error norm: the same 50 best pages
    // in the same order.
    assert_eq!(top_k(&res.final_ranks, 50), top_k(&star, 50));
}

#[test]
fn dpr2_matches_cpr_on_edu_graph() {
    let g = small_edu();
    let (res, _) = rank(&g, NetRunConfig { variant: DprVariant::Dpr2, t_end: 400.0, ..base_cfg() });
    assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
}

#[test]
fn all_strategies_converge_to_the_same_ranks() {
    let g = small_edu();
    let star = open_pagerank(&g, &RankConfig::default()).ranks;
    for strategy in [Strategy::Random { seed: 5 }, Strategy::HashByUrl, Strategy::HashBySite] {
        let (res, _) = rank(&g, NetRunConfig { strategy, ..base_cfg() });
        let err = dpr::linalg::vec_ops::relative_error(&res.final_ranks, &star);
        assert!(err < 1e-4, "{} strategy rel err {err}", strategy.name());
    }
}

#[test]
fn convergence_survives_heavy_message_loss() {
    let g = small_edu();
    let (res, _) = rank(&g, NetRunConfig { send_success_prob: 0.3, t_end: 600.0, ..base_cfg() });
    assert!(res.final_rel_err < 1e-3, "rel err {} at p = 0.3", res.final_rel_err);
    let drop_rate =
        res.sim_stats.sends_dropped as f64 / res.sim_stats.sends_attempted.max(1) as f64;
    assert!((0.6..0.8).contains(&drop_rate), "drop rate {drop_rate} should be ~0.7");
}

#[test]
fn k_exceeding_page_count_works() {
    // More rankers than pages: most groups empty, system still converges.
    let g = toy::two_cliques(3);
    let (res, active_groups) =
        rank(&g, NetRunConfig { strategy: Strategy::HashByUrl, ..with_k(64, base_cfg()) });
    assert!(res.final_rel_err < 1e-4);
    assert!(active_groups <= g.n_pages());
}

#[test]
fn single_ranker_degenerates_to_cpr() {
    let g = small_edu();
    let (res, active_groups) = rank(&g, with_k(1, base_cfg()));
    assert!(res.final_rel_err < 1e-6, "K=1 must match CPR almost exactly");
    assert_eq!(active_groups, 1);
    assert_eq!(res.sim_stats.sends_attempted, 0, "one group has nobody to talk to");
}

#[test]
fn random_graph_without_site_structure_converges() {
    let g = random::erdos_renyi(2_000, 10, 8.0, 3);
    let (res, _) = rank(&g, NetRunConfig { strategy: Strategy::HashByUrl, ..base_cfg() });
    assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
}

#[test]
fn copy_model_graph_with_hubs_converges() {
    let g = random::copy_model(2_000, 10, 8, 0.8, 9);
    let (res, _) = rank(&g, base_cfg());
    assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
}

#[test]
fn deterministic_runs_per_seed() {
    let g = toy::two_cliques(4);
    let run = || rank(&g, NetRunConfig { seed: 77, ..base_cfg() }).0;
    let a = run();
    let b = run();
    assert_eq!(a.final_ranks, b.final_ranks);
    assert_eq!(a.sim_stats, b.sim_stats);
    assert_eq!(a.rel_err.points(), b.rel_err.points());
}

#[test]
fn reference_is_reproducible_from_result() {
    // The result's error is measured against CPR: recomputing CPR and the
    // error from the final ranks must agree to the bit.
    let g = small_edu();
    let (res, _) = rank(&g, base_cfg());
    let star = open_pagerank(&g, &RankConfig::default()).ranks;
    let err = dpr::linalg::vec_ops::relative_error(&res.final_ranks, &star);
    assert_eq!(res.final_rel_err.to_bits(), err.to_bits());
}

#[test]
fn distributed_personalized_ranking_converges() {
    // §3: a non-uniform E is personalized ranking — the distributed
    // machinery must converge to the personalized fixed point too.
    let g =
        edu_domain(&EduDomainConfig { n_pages: 1_500, n_sites: 15, ..EduDomainConfig::default() });
    // Site 3's pages get 20 times the rank source of every other page.
    let e = (0..g.n_pages() as u32).map(|p| if g.site(p) == 3 { 2.0 } else { 0.1 }).collect();
    let personal = RankConfig { e: EVector::Custom(e), ..RankConfig::default() };
    let (res, _) =
        rank(&g, NetRunConfig { rank: personal, send_success_prob: 0.7, ..with_k(8, base_cfg()) });
    assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
    // The reference it converged to is the personalized one: site 3's
    // share must exceed its share under uniform E.
    let uniform = open_pagerank(&g, &RankConfig::default()).ranks;
    let share = |r: &[f64]| {
        let site3: f64 =
            (0..g.n_pages() as u32).filter(|&p| g.site(p) == 3).map(|p| r[p as usize]).sum();
        site3 / dpr::linalg::vec_ops::sum(r)
    };
    assert!(share(&res.final_ranks) > share(&uniform) * 1.5);
}
