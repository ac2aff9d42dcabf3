//! Bit-determinism contract of the worker-pool compute runtime: the same
//! chunked arithmetic runs whatever the worker count, so every pooled
//! result must equal its sequential counterpart down to the last bit —
//! for the kernels (covered by unit tests in `dpr-linalg`), for the full
//! open PageRank solve, and for the batched netrun engine under randomized
//! fault plans.

use dpr::core::{
    open_pagerank_with_pool, try_run_over_network, NetRunConfig, RankConfig, Reliability,
};
use dpr::graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr::graph::generators::toy;
use dpr::linalg::Pool;
use dpr::partition::Strategy;
use dpr::sim::{FaultPlan, Jitter};
use proptest::prelude::*;

fn assert_bits_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: rank {i} differs ({x:e} vs {y:e})");
    }
}

/// The headline guarantee: `open_pagerank` over the pool produces the same
/// bits as the sequential solve at 1, 2 and 8 workers on a web-like graph.
#[test]
fn open_pagerank_is_bit_identical_at_every_worker_count() {
    let g =
        edu_domain(&EduDomainConfig { n_pages: 30_000, n_sites: 60, ..EduDomainConfig::default() });
    let cfg = RankConfig::default();
    let reference = open_pagerank_with_pool(&g, &cfg, &Pool::sequential());
    assert!(reference.converged, "reference solve must converge");

    for workers in [1usize, 2, 8] {
        let pooled = open_pagerank_with_pool(&g, &cfg, &Pool::with_workers(workers));
        assert_eq!(pooled.iterations, reference.iterations, "{workers} workers");
        assert_bits_equal(
            &pooled.ranks,
            &reference.ranks,
            &format!("open_pagerank with {workers} workers"),
        );
    }
}

/// A shared global pool is reused across back-to-back solves without
/// contaminating results (the pool holds no per-solve state).
#[test]
fn pool_reuse_across_solves_is_stable() {
    let g =
        edu_domain(&EduDomainConfig { n_pages: 20_000, n_sites: 40, ..EduDomainConfig::default() });
    let cfg = RankConfig::default();
    let pool = Pool::with_workers(4);
    let first = open_pagerank_with_pool(&g, &cfg, &pool);
    let second = open_pagerank_with_pool(&g, &cfg, &pool);
    assert_bits_equal(&first.ranks, &second.ranks, "repeated solve on one pool");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The batched netrun engine under adversarial weather: a randomized
    /// fault plan (loss, jitter, a straggler, optionally the ack/retry
    /// protocol) must produce the same `NetRunResult` — rank bits, engine
    /// stats, protocol counters per node, error trajectory — whether node
    /// solves run inline or fanned out over 2 or 8 pool workers.
    #[test]
    fn batched_netrun_is_bit_identical_under_random_fault_plans(
        seed in any::<u64>(),
        p in 0.5f64..=1.0,
        jitter_max in 0.0f64..=0.05,
        straggler_factor in 1.0f64..=3.0,
        reliable in any::<bool>(),
    ) {
        let g = toy::two_cliques(4);
        let plan = FaultPlan::new()
            .with_latency(0.01)
            .with_default_success(p)
            .with_jitter(Jitter::Uniform { max: jitter_max })
            .with_straggler(1, straggler_factor, 2.0);
        let base = NetRunConfig {
            k: 8,
            n_nodes: 8,
            strategy: Strategy::HashByUrl,
            t_end: 60.0,
            seed,
            faults: Some(plan),
            reliability: reliable.then(Reliability::default),
            ..NetRunConfig::default()
        };
        let run = |workers: usize| {
            try_run_over_network(
                &g,
                NetRunConfig { engine_workers: workers, ..base.clone() },
            )
            .expect("no churn scheduled")
        };
        let sequential = run(1);
        let seq_bits: Vec<u64> = sequential.final_ranks.iter().map(|x| x.to_bits()).collect();
        for workers in [2usize, 8] {
            let batched = run(workers);
            let bits: Vec<u64> = batched.final_ranks.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&bits, &seq_bits, "rank bits diverged at {} workers", workers);
            prop_assert_eq!(&batched.sim_stats, &sequential.sim_stats);
            prop_assert_eq!(&batched.counters, &sequential.counters);
            prop_assert_eq!(&batched.per_node, &sequential.per_node);
            prop_assert_eq!(batched.rel_err.points(), sequential.rel_err.points());
        }
    }
}
