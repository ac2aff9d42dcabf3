//! Whole-system fault-injection tests: the ack/retry/dedup protocol
//! rescuing convergence under heavy loss, Chord surviving node crashes,
//! a network partition healing, bounded retry budgets on a dead network,
//! and bit-exact replay of faulty runs.

use dpr::core::{
    try_run_over_network, NetRunConfig, NetRunError, NetRunResult, OverlayKind, Reliability,
    Transmission,
};
use dpr::graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr::graph::generators::toy;
use dpr::partition::Strategy;
use dpr::sim::{FaultPlan, Jitter};
use proptest::prelude::*;

/// Every config in this file schedules churn its overlay supports, so a
/// `ChurnUnsupported` error would be a test bug — unwrap it once here.
fn run_over_network(g: &dpr::graph::WebGraph, cfg: NetRunConfig) -> NetRunResult {
    try_run_over_network(g, cfg).expect("test configs use supported churn schedules")
}

/// The headline robustness claim: at 50% per-hop loss the reliable
/// protocol reaches the paper's 0.1% error threshold within a horizon
/// where silent loss does not. Loss compounds per routed hop here, so a
/// 96-node overlay makes the unreliable path lose most packages end to
/// end — yet acks + retransmits recover them.
#[test]
fn retries_beat_silent_loss_within_the_same_horizon() {
    let g = edu_domain(&EduDomainConfig { n_pages: 2_000, n_sites: 20, ..Default::default() });
    let base = NetRunConfig {
        k: 32,
        n_nodes: 96,
        transmission: Transmission::Indirect,
        strategy: Strategy::HashByUrl,
        t_end: 80.0,
        faults: Some(FaultPlan::new().with_latency(0.01).with_default_success(0.5)),
        ..NetRunConfig::default()
    };
    let silent = run_over_network(&g, base.clone());
    let reliable =
        run_over_network(&g, NetRunConfig { reliability: Some(Reliability::default()), ..base });

    assert!(
        reliable.final_rel_err < 1e-3,
        "reliable delivery should reach 0.1%: rel err {}",
        reliable.final_rel_err
    );
    assert!(reliable.rel_err.first_time_below(1e-3).is_some());
    assert!(
        silent.final_rel_err > 1e-3,
        "silent loss should still be above 0.1% at the same horizon: rel err {}",
        silent.final_rel_err
    );
    assert!(silent.rel_err.first_time_below(1e-3).is_none());
    // The win is bought with real retransmissions, and the loss is real.
    assert!(reliable.counters.retries > 0);
    assert!(reliable.counters.duplicates_suppressed > 0);
    assert!(silent.sim_stats.sends_dropped > 0);
}

/// Chord nodes crash mid-run (state lost, groups migrate to the clockwise
/// successor) and ranking still re-converges — the churn path that used
/// to panic with "Chord departures unsupported".
#[test]
fn chord_crashes_reconverge_below_threshold() {
    let g = toy::two_cliques(6);
    let res = run_over_network(
        &g,
        NetRunConfig {
            k: 24,
            n_nodes: 24,
            overlay: OverlayKind::Chord,
            strategy: Strategy::HashByUrl,
            t_end: 400.0,
            departures: vec![(60.0, 2), (90.0, 5)],
            ..NetRunConfig::default()
        },
    );
    assert!(res.final_rel_err < 1e-3, "rel err {}", res.final_rel_err);
}

/// A partition splits the overlay in half early in the run, then heals;
/// cross-cell Y-traffic is blocked during the window and ranking
/// re-converges afterwards.
#[test]
fn partition_then_heal_reconverges() {
    let g = toy::two_cliques(6);
    let side_a: Vec<usize> = (0..12).collect();
    let res = run_over_network(
        &g,
        NetRunConfig {
            k: 24,
            n_nodes: 24,
            strategy: Strategy::HashByUrl,
            t_end: 400.0,
            sample_every: 1.0,
            faults: Some(FaultPlan::new().with_latency(0.01).with_partition(10.0, 60.0, &side_a)),
            ..NetRunConfig::default()
        },
    );
    assert!(res.sim_stats.partition_dropped > 0, "the partition must drop traffic");
    let during = res.rel_err.value_at(59.0).expect("sampled during the window");
    assert!(during > 1e-3, "cross-cell rank cannot settle while partitioned: rel err {during}");
    assert!(
        res.final_rel_err < 1e-3,
        "must re-converge after healing: rel err {}",
        res.final_rel_err
    );
}

/// On a network that drops everything, the retry budget is bounded: every
/// package is retransmitted at most `max_retries` times, then abandoned.
/// The run terminating at all is the termination half of the claim.
#[test]
fn dead_network_exhausts_bounded_retry_budgets() {
    let g = toy::two_cliques(4);
    let rel = Reliability { ack_timeout: 0.5, max_retries: 3, backoff: 2.0 };
    let res = run_over_network(
        &g,
        NetRunConfig {
            k: 8,
            n_nodes: 8,
            strategy: Strategy::HashByUrl,
            t_end: 60.0,
            faults: Some(FaultPlan::new().with_latency(0.01).with_default_success(0.0)),
            reliability: Some(rel),
            ..NetRunConfig::default()
        },
    );
    assert_eq!(res.counters.acks, 0, "nothing arrives, so nothing is acked");
    assert!(res.counters.retry_exhausted > 0, "budgets must actually run out");
    assert!(
        res.counters.gave_up >= res.counters.retry_exhausted,
        "every abandoned package carries at least one update: {} parts for {} packages",
        res.counters.gave_up,
        res.counters.retry_exhausted
    );
    assert!(res.counters.retries > 0);
    let originals = res.counters.data_messages - res.counters.retries;
    assert!(
        res.counters.retries <= originals * u64::from(rel.max_retries),
        "retries {} exceed budget for {} originals",
        res.counters.retries,
        originals
    );
}

/// The README's fault-injection quickstart, kept honest.
#[test]
fn readme_fault_snippet_holds() {
    let graph = toy::two_cliques(5);
    let result = run_over_network(
        &graph,
        NetRunConfig {
            k: 8,
            n_nodes: 8,
            t_end: 400.0,
            faults: Some(FaultPlan::new().with_default_success(0.7).with_partition(
                10.0,
                60.0,
                &[0, 1, 2, 3],
            )),
            reliability: Some(Reliability::default()),
            ..NetRunConfig::default()
        },
    );
    assert!(result.final_rel_err < 1e-3, "rel err {}", result.final_rel_err);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Replay determinism of the full network stack: the same seed and the
    /// same fault plan — loss, jitter, a straggler, a crash window — yield
    /// bit-identical final ranks, engine stats and protocol counters.
    #[test]
    fn same_seed_and_plan_replay_bit_identically(
        seed in any::<u64>(),
        p in 0.3f64..=1.0,
        reliable in any::<bool>(),
    ) {
        let g = toy::two_cliques(4);
        let plan = FaultPlan::new()
            .with_latency(0.01)
            .with_default_success(p)
            .with_jitter(Jitter::Uniform { max: 0.05 })
            .with_straggler(1, 2.0, 2.0)
            .with_crash(2, 20.0, 30.0);
        let cfg = NetRunConfig {
            k: 8,
            n_nodes: 8,
            strategy: Strategy::HashByUrl,
            t_end: 60.0,
            seed,
            faults: Some(plan),
            reliability: reliable.then(Reliability::default),
            ..NetRunConfig::default()
        };
        let a = run_over_network(&g, cfg.clone());
        let b = run_over_network(&g, cfg);
        prop_assert_eq!(a.final_ranks, b.final_ranks);
        prop_assert_eq!(a.sim_stats, b.sim_stats);
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.rel_err.points(), b.rel_err.points());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random churn schedules never panic: departures that name any index
    /// up to three past the initial nodes, the same node twice or the last
    /// live node, and joins (Pastry only) whose id seeds are drawn near
    /// the ring's own so that ids collide. Every run completes or returns
    /// a structured config error.
    #[test]
    fn random_churn_schedules_never_panic(
        chord in any::<bool>(),
        n_nodes in 3usize..=8,
        mut departures in prop::collection::vec((0.0f64..30.0, 0usize..11), 0..=4),
        mut joins in prop::collection::vec((0.0f64..30.0, 0xE00u64..0xE20), 0..=2),
    ) {
        for d in &mut departures {
            d.1 %= n_nodes + 3;
        }
        departures.sort_by(|a, b| a.0.total_cmp(&b.0));
        joins.sort_by(|a, b| a.0.total_cmp(&b.0));
        if chord {
            joins.clear();
        }
        let overlay = if chord { OverlayKind::Chord } else { OverlayKind::Pastry };
        let cfg =
            NetRunConfig { k: 4, n_nodes, overlay, departures, joins, t_end: 20.0, ..Default::default() };
        match try_run_over_network(&toy::two_cliques(6), cfg) {
            Ok(_) | Err(NetRunError::Config { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }
}
