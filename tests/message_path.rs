//! Whole-system guarantees for the message-path fast paths: §4.4 update
//! coalescing and the overlay route cache may change *cost* (messages,
//! bytes) but never *results*. Final ranks must be bit-identical with the
//! optimizations on vs off — under clean reliable delivery and under the
//! fault plans (loss, partition, crash windows) — and the route cache must
//! leave every observable counter untouched even through churn.

use dpr::core::{try_run_over_network, NetRunConfig, NetRunResult, Reliability, Transmission};
use dpr::graph::generators::toy;
use dpr::graph::WebGraph;
use dpr::partition::Strategy;
use dpr::sim::{FaultPlan, SchedulerKind};

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

/// Runs the same config with coalescing on and off and requires the final
/// ranks to agree to the last bit. Message/byte counters may differ (that
/// is the point of coalescing), so they are asserted directionally, not
/// for equality.
fn assert_coalescing_bit_identical(g: &WebGraph, cfg: NetRunConfig) {
    let on = run_over_network(g, NetRunConfig { coalesce: true, ..cfg.clone() });
    let off = run_over_network(g, NetRunConfig { coalesce: false, ..cfg });
    assert!(on.final_rel_err < 1e-3, "coalesced run must converge: {}", on.final_rel_err);
    assert_eq!(rank_bits(&on), rank_bits(&off), "coalescing must be bit-neutral on final ranks");
    assert!(on.counters.coalesced_parts > 0, "the schedule must actually exercise coalescing");
    assert_eq!(off.counters.coalesced_parts, 0);
    assert!(on.counters.bytes < off.counters.bytes, "coalescing must pay for itself in bytes");
    assert!(on.counters.data_messages <= off.counters.data_messages);
}

#[test]
fn coalescing_bit_identical_under_reliable_delivery() {
    assert_coalescing_bit_identical(&toy::two_cliques(6), base(300.0));
}

#[test]
fn coalescing_bit_identical_under_loss() {
    // Per-hop loss consumes one RNG draw per send, and coalescing changes
    // the send count, so the two trajectories diverge mid-run — they must
    // still stall at the same fixed point of the (deterministic) rank map.
    // That takes a longer horizon than the other plans: the trajectories
    // approach the f64 fixed point from different directions and only
    // become bit-identical once both have *exactly* stalled (t_end 500
    // still shows ~100-ULP residue; 2000 is comfortably past stall).
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

/// The route cache is pure memoization: with churn, loss, and reliable
/// delivery all active, switching it off must change *nothing* observable
/// — ranks, §4.5 counters, and engine statistics all identical — while the
/// cached run really does serve lookups from cache and flush it on churn.
#[test]
fn route_cache_invisible_under_churn_and_faults() {
    let g = toy::two_cliques(6);
    let cfg = NetRunConfig {
        departures: vec![(60.0, 3), (110.0, 9)],
        faults: Some(FaultPlan::new().with_latency(0.01).with_default_success(0.8)),
        ..base(400.0)
    };
    let cached = run_over_network(&g, NetRunConfig { route_cache: true, ..cfg.clone() });
    let fresh = run_over_network(&g, NetRunConfig { route_cache: false, ..cfg });
    assert_eq!(rank_bits(&cached), rank_bits(&fresh));
    assert_eq!(cached.counters, fresh.counters);
    assert_eq!(cached.per_node, fresh.per_node);
    assert_eq!(cached.sim_stats, fresh.sim_stats);
    assert!(cached.final_rel_err < 1e-3, "rel err {}", cached.final_rel_err);
    assert!(cached.route_cache.hits > 0, "the cached run must actually hit");
    assert!(cached.route_cache.invalidations >= 2, "each departure must flush the cache");
    assert_eq!(fresh.route_cache.hits, 0);
    assert_eq!(
        cached.route_cache.hits + cached.route_cache.misses,
        fresh.route_cache.misses,
        "both modes must observe the same lookup stream"
    );
}

/// The slab scheduler and the dirty-row external-contribution cache are
/// pure performance work: on the same churn + loss + reliable-delivery
/// scenario, every combination of {slab, heap} × {cached, full-rebuild}
/// must produce bit-identical ranks, engine statistics, and network
/// counters — while the cached runs really do skip most row recomputation.
#[test]
fn scheduler_and_ext_cache_invisible_under_churn_and_faults() {
    let g = toy::two_cliques(6);
    let cfg = NetRunConfig {
        departures: vec![(60.0, 3), (110.0, 9)],
        faults: Some(FaultPlan::new().with_latency(0.01).with_default_success(0.8)),
        ..base(400.0)
    };
    let reference = run_over_network(
        &g,
        NetRunConfig { scheduler: SchedulerKind::BinaryHeap, ext_cache: false, ..cfg.clone() },
    );
    let mut cached_rows = None;
    for scheduler in [SchedulerKind::Slab, SchedulerKind::BinaryHeap] {
        for ext_cache in [true, false] {
            let run = run_over_network(&g, NetRunConfig { scheduler, ext_cache, ..cfg.clone() });
            assert_eq!(
                rank_bits(&run),
                rank_bits(&reference),
                "ranks diverged under {scheduler:?}/ext_cache={ext_cache}"
            );
            assert_eq!(run.sim_stats, reference.sim_stats);
            // Every counter except the work-observability ones must match
            // the legacy engine exactly. Rows recomputed, inner sweeps and
            // the rows they swept measure the work the cache *saves* (the
            // stall short-circuit only exists on the cached path), so they
            // legitimately differ between ext_cache modes while ranks and
            // traffic do not.
            let mut c = run.counters;
            c.rows_recomputed = reference.counters.rows_recomputed;
            c.inner_sweeps = reference.counters.inner_sweeps;
            c.rows_swept = reference.counters.rows_swept;
            c.sweeps_saved = reference.counters.sweeps_saved;
            assert_eq!(c, reference.counters);
            if ext_cache {
                assert!(
                    run.counters.rows_recomputed < reference.counters.rows_recomputed,
                    "dirty-row cache recomputed {} rows, full rebuild {}",
                    run.counters.rows_recomputed,
                    reference.counters.rows_recomputed
                );
                assert!(
                    run.counters.inner_sweeps < reference.counters.inner_sweeps,
                    "stall short-circuit ran {} sweeps, full rebuild {}",
                    run.counters.inner_sweeps,
                    reference.counters.inner_sweeps
                );
                assert!(run.counters.sweeps_saved > 0, "cached run must skip stalled windows");
                cached_rows.get_or_insert(run.counters.rows_recomputed);
                assert_eq!(cached_rows, Some(run.counters.rows_recomputed));
            } else {
                assert_eq!(run.counters.inner_sweeps, reference.counters.inner_sweeps);
                assert_eq!(run.counters.sweeps_saved, 0);
            }
        }
    }
    assert!(reference.final_rel_err < 1e-3);
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
