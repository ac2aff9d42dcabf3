//! Memoized overlay routing — the message-path hot cache.
//!
//! Every rank update in the networked runtime needs a routing decision:
//! direct transmission resolves the full route to price the lookup (§4.5),
//! indirect transmission resolves one next hop per forwarded package
//! (§4.4). Both are pure functions of `(src, key)` *for a fixed topology*,
//! and the topology changes only at discrete churn events — so between two
//! joins/departs every lookup after the first is a repeat. [`RouteCache`]
//! memoizes them and uses the overlay's [`Overlay::generation`] counter to
//! drop every entry the moment membership changes, which keeps the
//! invariant the rest of the system is built on:
//!
//! > a cached answer is always bit-identical to a freshly computed one.
//!
//! Because of that invariant the cache is invisible to simulation results
//! (same ranks, same §4.5 counters, same `SimStats`); it only removes
//! repeated route walks and their per-hop `Vec` allocations from the hot
//! path. The uncached [`Overlay`] methods stay the reference the tests
//! compare every cached answer against, through churn.

use std::collections::HashMap;
use std::sync::Arc;

use crate::{NodeIndex, Overlay};

/// Hit/miss/invalidation counters for a [`RouteCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to walk the overlay.
    pub misses: u64,
    /// Number of times a generation change flushed the cache.
    pub invalidations: u64,
}

impl RouteCacheStats {
    /// Fraction of lookups answered from the cache (0 when no lookups).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Generation-checked memo of `next_hop` and `route` lookups.
///
/// Keys are `(src, key)` pairs, so one shared cache behaves exactly like a
/// per-source cache. Full routes are stored as `Arc<[NodeIndex]>`: repeated
/// lookups hand out the same allocation instead of rebuilding the hop
/// vector.
#[derive(Debug, Default)]
pub struct RouteCache {
    /// Generation the entries were computed at; entries are flushed when
    /// the overlay reports a different one.
    generation: u64,
    next_hops: HashMap<(NodeIndex, u128), Option<NodeIndex>>,
    routes: HashMap<(NodeIndex, u128), Arc<[NodeIndex]>>,
    replica_sets: HashMap<(u128, usize), Arc<[NodeIndex]>>,
    stats: RouteCacheStats,
}

impl RouteCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every entry if the overlay's topology generation moved since
    /// the entries were computed.
    fn sync(&mut self, net: &dyn Overlay) {
        let gen = net.generation();
        if gen != self.generation {
            self.generation = gen;
            if !(self.next_hops.is_empty()
                && self.routes.is_empty()
                && self.replica_sets.is_empty())
            {
                self.next_hops.clear();
                self.routes.clear();
                self.replica_sets.clear();
                self.stats.invalidations += 1;
            }
        }
    }

    /// Memoized [`Overlay::next_hop`]. Identical to the overlay's answer
    /// by construction: entries never survive a generation change.
    pub fn next_hop(&mut self, net: &dyn Overlay, src: NodeIndex, key: u128) -> Option<NodeIndex> {
        self.sync(net);
        if let Some(&hop) = self.next_hops.get(&(src, key)) {
            self.stats.hits += 1;
            return hop;
        }
        self.stats.misses += 1;
        let hop = net.next_hop(src, key);
        self.next_hops.insert((src, key), hop);
        hop
    }

    /// Memoized [`Overlay::route`], shared without copying the hop vector.
    pub fn route(&mut self, net: &dyn Overlay, src: NodeIndex, key: u128) -> Arc<[NodeIndex]> {
        self.sync(net);
        if let Some(path) = self.routes.get(&(src, key)) {
            self.stats.hits += 1;
            return Arc::clone(path);
        }
        self.stats.misses += 1;
        let path: Arc<[NodeIndex]> = net.route(src, key).into();
        self.routes.insert((src, key), Arc::clone(&path));
        path
    }

    /// Hop count of the memoized route — the `h` that §4.5 charges per
    /// direct-transmission lookup.
    pub fn route_hops(&mut self, net: &dyn Overlay, src: NodeIndex, key: u128) -> usize {
        self.route(net, src, key).len()
    }

    /// Memoized [`Overlay::replicas`], shared without copying the handle
    /// vector. Replica sets depend only on the key and the membership, so
    /// they ride the same generation-stamped invalidation as routes: a
    /// cached set can never outlive the membership that produced it.
    pub fn replicas(&mut self, net: &dyn Overlay, key: u128, k: usize) -> Arc<[NodeIndex]> {
        self.sync(net);
        if let Some(set) = self.replica_sets.get(&(key, k)) {
            self.stats.hits += 1;
            return Arc::clone(set);
        }
        self.stats.misses += 1;
        let set: Arc<[NodeIndex]> = net.replicas(key, k).into();
        self.replica_sets.insert((key, k), Arc::clone(&set));
        set
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RouteCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::key_from_u64;
    use crate::{ChordNetwork, PastryNetwork};

    /// Every cached answer against the overlay's own, for a few sources
    /// and keys.
    fn assert_matches_fresh(cache: &mut RouteCache, net: &dyn Overlay, srcs: &[NodeIndex]) {
        for k in 0..12u64 {
            let key = key_from_u64(k);
            for &src in srcs {
                assert_eq!(cache.next_hop(net, src, key), net.next_hop(src, key));
                assert_eq!(cache.route(net, src, key).as_ref(), net.route(src, key).as_slice());
                assert_eq!(cache.route_hops(net, src, key), net.route(src, key).len());
            }
            assert_eq!(cache.replicas(net, key, 2).as_ref(), net.replicas(key, 2).as_slice());
        }
    }

    #[test]
    fn cached_routes_match_fresh_routes() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut net = PastryNetwork::with_nodes(100, 17);
        let mut cache = RouteCache::new();
        assert_matches_fresh(&mut cache, &net, &[0, 13, 99]);
        let warm = cache.stats();
        assert_matches_fresh(&mut cache, &net, &[0, 13, 99]);
        assert_eq!(cache.stats().misses, warm.misses, "the second pass must hit on every lookup");

        // Through churn: departures, joins and lookups in a random
        // interleaving. An answer computed before a membership change must
        // never be served after it.
        let mut rng = SmallRng::seed_from_u64(23);
        let mut churned = 0;
        for step in 0..60u64 {
            let alive: Vec<NodeIndex> = (0..net.n_nodes()).filter(|&h| net.is_alive(h)).collect();
            match rng.gen_range(0..4) {
                0 => net.depart(alive[rng.gen_range(0..alive.len())]),
                1 => {
                    net.join(alive[0], 1_000 + step);
                }
                _ => {
                    let srcs: Vec<NodeIndex> =
                        (0..3).map(|_| alive[rng.gen_range(0..alive.len())]).collect();
                    assert_matches_fresh(&mut cache, &net, &srcs);
                    continue;
                }
            }
            churned += 1;
        }
        let alive: Vec<NodeIndex> = (0..net.n_nodes()).filter(|&h| net.is_alive(h)).collect();
        assert_matches_fresh(&mut cache, &net, &alive[..3]);
        assert!(churned > 10 && cache.stats().invalidations > 5, "the schedule must churn");

        // Chord departs too (it has no incremental join).
        let mut ring = ChordNetwork::with_nodes(40, 5);
        let mut cache = RouteCache::new();
        for victim in [7, 21, 3, 30] {
            assert_matches_fresh(&mut cache, &ring, &[0, 11, 39]);
            ring.depart(victim);
        }
        assert_matches_fresh(&mut cache, &ring, &[0, 11, 39]);
        assert_eq!(cache.stats().invalidations, 4, "one flush per departure");
    }

    #[test]
    fn chord_departs_bump_generation() {
        let mut net = ChordNetwork::with_nodes(16, 3);
        assert_eq!(net.generation(), 0);
        net.depart(5);
        assert_eq!(net.generation(), 1);
        net.depart(6);
        assert_eq!(net.generation(), 2);
    }

    #[test]
    fn cached_replicas_match_fresh_and_flush_on_churn() {
        let mut net = ChordNetwork::with_nodes(24, 13);
        let mut cache = RouteCache::new();
        let key = key_from_u64(3);
        let first = cache.replicas(&net, key, 2);
        assert_eq!(first.as_ref(), net.replicas(key, 2).as_slice());
        let again = cache.replicas(&net, key, 2);
        assert!(Arc::ptr_eq(&first, &again), "repeat lookups share the allocation");
        assert_eq!(cache.stats().hits, 1);
        // Churn must invalidate: the promoted heir leaves the set.
        net.depart(net.responsible(key));
        let fresh = cache.replicas(&net, key, 2);
        assert_eq!(fresh.as_ref(), net.replicas(key, 2).as_slice());
        assert_eq!(cache.stats().invalidations, 1);
        assert_ne!(first.as_ref(), fresh.as_ref());
    }
}
