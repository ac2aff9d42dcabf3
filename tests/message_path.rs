//! Whole-system guarantees for the message path: §4.4 update coalescing
//! and the overlay route cache shape *cost* (messages, bytes), never
//! *results*. Which parts get merged away depends on what the fault plan
//! lets through and when — and none of it may show in the ranks: from
//! `R₀ = 0` every schedule climbs to the same least f64 fixed point of the
//! rank map, so a run that has stalled under loss, a partition or crash
//! windows holds the very bits of a run that saw no fault at all.

use dpr::core::{try_run_over_network, NetRunConfig, NetRunResult, Reliability, Transmission};
use dpr::graph::generators::toy;
use dpr::graph::WebGraph;
use dpr::partition::Strategy;
use dpr::sim::FaultPlan;

fn run_over_network(g: &WebGraph, cfg: NetRunConfig) -> NetRunResult {
    try_run_over_network(g, cfg).expect("test configs use supported churn schedules")
}

fn base(t_end: f64) -> NetRunConfig {
    NetRunConfig {
        k: 24,
        n_nodes: 24,
        transmission: Transmission::Indirect,
        strategy: Strategy::HashByUrl,
        reliability: Some(Reliability::default()),
        t_end,
        ..NetRunConfig::default()
    }
}

fn rank_bits(r: &NetRunResult) -> Vec<u64> {
    r.final_ranks.iter().map(|x| x.to_bits()).collect()
}

/// Runs `cfg` and the same deployment with neither faults nor the
/// reliability protocol: the schedule really must exercise coalescing, and
/// the final ranks must agree to the last bit. Traffic differs between the
/// two (one RNG draw per send shifts every later think time), so the
/// trajectories only meet where both have exactly stalled.
fn assert_coalescing_bit_identical(g: &WebGraph, cfg: NetRunConfig) {
    let undisturbed = NetRunConfig { faults: None, reliability: None, ..cfg.clone() };
    let run = run_over_network(g, cfg);
    let clean = run_over_network(g, undisturbed);
    assert!(run.final_rel_err < 1e-3, "the run must converge: {}", run.final_rel_err);
    assert!(run.counters.coalesced_parts > 0, "the schedule must actually exercise coalescing");
    assert!(clean.counters.coalesced_parts > 0);
    assert_ne!(run.counters, clean.counters, "the fault plan must change the traffic");
    assert_eq!(rank_bits(&run), rank_bits(&clean), "coalescing must be bit-neutral on final ranks");
}

#[test]
fn coalescing_bit_identical_under_reliable_delivery() {
    assert_coalescing_bit_identical(&toy::two_cliques(6), base(300.0));
}

#[test]
fn coalescing_bit_identical_under_loss() {
    // Under loss the trajectories approach the f64 fixed point from
    // different directions and only become bit-identical once both have
    // *exactly* stalled (t_end 500 still shows ~100-ULP residue; 2000 is
    // comfortably past stall).
    let cfg = NetRunConfig {
        faults: Some(FaultPlan::new().with_latency(0.01).with_default_success(0.7)),
        ..base(2000.0)
    };
    assert_coalescing_bit_identical(&toy::two_cliques(6), cfg);
}

#[test]
fn coalescing_bit_identical_under_partition() {
    let cfg = NetRunConfig {
        faults: Some(FaultPlan::new().with_latency(0.01).with_partition(40.0, 80.0, &[0, 1, 2, 3])),
        ..base(500.0)
    };
    assert_coalescing_bit_identical(&toy::two_cliques(6), cfg);
}

#[test]
fn coalescing_bit_identical_under_crash_windows() {
    let cfg = NetRunConfig {
        faults: Some(
            FaultPlan::new()
                .with_latency(0.01)
                .with_crash(2, 50.0, 90.0)
                .with_crash(7, 120.0, 150.0),
        ),
        ..base(500.0)
    };
    assert_coalescing_bit_identical(&toy::two_cliques(6), cfg);
}

/// The route cache under churn, loss and reliable delivery at once: the
/// run is served from the cache, every departure flushes it, and ranking
/// converges across both. (That a cached answer always equals a fresh one
/// is proved where the cache lives: `dpr-overlay` checks every cached
/// `next_hop` / `route_hops` / `replicas` against the overlay's own under
/// random churn.)
#[test]
fn route_cache_hits_and_flushes_under_churn_and_faults() {
    let g = toy::two_cliques(6);
    let cfg = NetRunConfig {
        departures: vec![(60.0, 3), (110.0, 9)],
        faults: Some(FaultPlan::new().with_latency(0.01).with_default_success(0.8)),
        ..base(400.0)
    };
    let run = run_over_network(&g, cfg);
    assert!(run.final_rel_err < 1e-3, "rel err {}", run.final_rel_err);
    assert!(run.route_cache.hits > run.route_cache.misses, "{:?}", run.route_cache);
    assert_eq!(run.route_cache.invalidations, 2, "each departure must flush the cache once");
}

/// Fire-and-forget packages must move through the receive path without a
/// single payload copy — the counter this guards is the alloc-regression
/// canary for the zero-copy `Arc` transport.
#[test]
fn fire_and_forget_receive_path_never_copies_payloads() {
    let g = toy::two_cliques(6);
    let fire_and_forget = NetRunConfig { reliability: None, ..base(300.0) };
    let run = run_over_network(&g, fire_and_forget);
    assert!(run.counters.data_messages > 0);
    assert_eq!(
        run.counters.payload_clones, 0,
        "receive path cloned {} payloads under fire-and-forget",
        run.counters.payload_clones
    );
    // Reliable delivery keeps the payload in the sender's retransmit queue,
    // so the receiver's `Arc` is still shared — the counter must see it.
    let reliable = run_over_network(&g, base(300.0));
    assert!(reliable.counters.payload_clones > 0, "reliability must exercise the clone fallback");
}
