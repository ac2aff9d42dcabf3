//! Property tests for [`RouteCache`] invalidation under churn: after every
//! `join`/`depart`/`repair` the cache must answer every lookup exactly as
//! the overlay would fresh — a cached route may never outlive the
//! membership that produced it.

use dpr_overlay::{ChordNetwork, NodeIndex, Overlay, PastryNetwork, RouteCache};
use proptest::prelude::*;

/// One churn step in a randomized schedule.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Pastry only: a new node joins via an alive bootstrap.
    Join(u64),
    /// An alive node (picked by index into the alive set) departs.
    Depart(u8),
    /// Pastry only: eager repair of routing state.
    Repair,
}

fn arb_pastry_events() -> impl Strategy<Value = Vec<Ev>> {
    prop::collection::vec(
        prop_oneof![
            any::<u64>().prop_map(Ev::Join),
            any::<u8>().prop_map(Ev::Depart),
            Just(Ev::Repair),
        ],
        1..10,
    )
}

fn alive_handles(net: &dyn Overlay, n_handles: usize) -> Vec<NodeIndex> {
    (0..n_handles).filter(|&h| net.is_live(h)).collect()
}

/// Every cached answer must equal the freshly computed one, for every
/// alive source and probe key. Calling this both warms the cache (so the
/// next churn event genuinely invalidates populated state) and verifies it.
fn assert_cache_matches_fresh(
    cache: &mut RouteCache,
    net: &dyn Overlay,
    srcs: &[NodeIndex],
    keys: &[u128],
) -> Result<(), TestCaseError> {
    for &s in srcs {
        for &k in keys {
            prop_assert_eq!(cache.next_hop(net, s, k), net.next_hop(s, k), "next_hop src {}", s);
            let cached = cache.route(net, s, k);
            let fresh = net.route(s, k);
            prop_assert_eq!(cached.as_ref(), fresh.as_slice(), "route src {}", s);
            prop_assert_eq!(cache.route_hops(net, s, k), fresh.len(), "route_hops src {}", s);
        }
    }
    for &k in keys {
        let cached = cache.replicas(net, k, 2);
        let fresh = net.replicas(k, 2);
        prop_assert_eq!(cached.as_ref(), fresh.as_slice(), "replicas of {}", k);
    }
    Ok(())
}

/// The vendored proptest stub has no `u128: Arbitrary`; widen sampled
/// `u64` pairs into full-domain probe keys instead.
fn arb_keys() -> impl Strategy<Value = Vec<u128>> {
    prop::collection::vec(
        (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| (u128::from(hi) << 64) | u128::from(lo)),
        2..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn pastry_cache_survives_churn(
        n in 4usize..16,
        seed in any::<u64>(),
        events in arb_pastry_events(),
        mut keys in arb_keys(),
    ) {
        let mut net = PastryNetwork::with_nodes(n, seed);
        let mut n_handles = n;
        // Probe owned keys too, so delivery decisions (`next_hop == None`)
        // get cached and re-checked, not just forwarding decisions.
        keys.push(net.node_key(0));
        let mut cache = RouteCache::new();
        let mut applied = 0;
        assert_cache_matches_fresh(&mut cache, &net, &alive_handles(&net, n_handles), &keys)?;
        for ev in events {
            let alive = alive_handles(&net, n_handles);
            match ev {
                Ev::Join(s) => {
                    net.join(alive[0], s);
                    n_handles += 1;
                }
                Ev::Depart(pick) => {
                    if alive.len() <= 2 {
                        continue;
                    }
                    net.depart(alive[pick as usize % alive.len()]);
                }
                Ev::Repair => net.repair(),
            }
            applied += 1;
            keys.push(net.node_key(n_handles - 1));
            assert_cache_matches_fresh(
                &mut cache,
                &net,
                &alive_handles(&net, n_handles),
                &keys,
            )?;
        }
        if applied > 0 {
            prop_assert!(
                cache.stats().invalidations > 0,
                "churn over a warm cache must flush it at least once"
            );
        }
    }

    #[test]
    fn chord_cache_survives_departures(
        n in 4usize..16,
        seed in any::<u64>(),
        departs in prop::collection::vec(any::<u8>(), 1..8),
        mut keys in arb_keys(),
    ) {
        let mut net = ChordNetwork::with_nodes(n, seed);
        keys.push(net.node_key(0));
        let mut cache = RouteCache::new();
        let mut applied = 0;
        assert_cache_matches_fresh(&mut cache, &net, &alive_handles(&net, n), &keys)?;
        for pick in departs {
            let alive = alive_handles(&net, n);
            if alive.len() <= 2 {
                break;
            }
            net.depart(alive[pick as usize % alive.len()]);
            applied += 1;
            assert_cache_matches_fresh(&mut cache, &net, &alive_handles(&net, n), &keys)?;
        }
        if applied > 0 {
            prop_assert!(cache.stats().invalidations > 0);
        }
    }
}
