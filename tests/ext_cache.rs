//! Property-based verification of the slotted afferent receive path:
//! across random update arrival patterns (raw deliveries with unchanged,
//! grown, shrunk, empty and foreign-page patterns; localized installs;
//! arbitrary sources and row subsets; interleaved refreshes)
//! [`AfferentState`] must materialize an `X` vector that is **bit-for-bit**
//! identical to a naive model that re-sums every row on any change —
//! floating-point addition is not associative, so this only holds because
//! both sum each row's contributions from scratch in ascending source order.

use std::collections::BTreeMap;
use std::sync::Arc;

use dpr::core::AfferentState;
use proptest::prelude::*;

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The naive model: each source's latest entries in localized form, and
/// on any change every row re-summed from scratch in ascending source
/// order.
struct Naive {
    n: usize,
    received: BTreeMap<u32, Vec<(u32, f64)>>,
    x: Vec<f64>,
    dirty: bool,
    rows_recomputed: u64,
}

impl Naive {
    fn new(n: usize) -> Self {
        Self { n, received: BTreeMap::new(), x: vec![0.0; n], dirty: false, rows_recomputed: 0 }
    }

    fn set(&mut self, src: u32, entries: Vec<(u32, f64)>) {
        self.received.insert(src, entries);
        self.dirty = true;
    }

    /// A raw part, localized by binary search into the group's `pages`.
    fn deliver(&mut self, pages: &[u32], src: u32, pattern: &[u32], scores: &[f64]) {
        let entries = pattern.iter().zip(scores);
        let local =
            entries.filter_map(|(p, &s)| pages.binary_search(p).ok().map(|li| (li as u32, s)));
        self.set(src, local.collect());
    }

    fn refresh(&mut self) -> &[f64] {
        if self.dirty {
            self.x = vec![0.0; self.n];
            for entries in self.received.values() {
                for &(li, s) in entries {
                    self.x[li as usize] += s;
                }
            }
            self.rows_recomputed += self.n as u64;
            self.dirty = false;
        }
        &self.x
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random op sequences, including the zero-update extreme (a refresh
    /// before anything arrived, and ops whose entry set filters to empty).
    #[test]
    fn dirty_row_cache_matches_full_rebuild_bit_for_bit(
        n in 1usize..40,
        ops in prop::collection::vec(
            (
                0u32..8,                                              // source group
                any::<bool>(),                                        // refresh afterwards?
                prop::collection::vec((0u32..40, -1.0f64..1.0), 0..=40),
            ),
            0..60,
        ),
    ) {
        let mut cached = AfferentState::new(n);
        let mut full = Naive::new(n);
        // Zero-update extreme: refreshing before any arrival is a no-op.
        prop_assert_eq!(bits(cached.refresh()), bits(full.refresh()));
        for (src, refresh_after, mut raw) in ops {
            // Sort and deduplicate by row, keeping only rows the group owns
            // — ascending unique local indices, what `localize` guarantees
            // in production.
            raw.sort_by_key(|&(li, _)| li);
            raw.dedup_by_key(|&mut (li, _)| li);
            let entries: Vec<(u32, f64)> =
                raw.into_iter().filter(|&(li, _)| (li as usize) < n).collect();
            cached.set(src, entries.clone());
            full.set(src, entries);
            if refresh_after {
                prop_assert_eq!(bits(cached.refresh()), bits(full.refresh()));
            }
        }
        prop_assert_eq!(bits(cached.refresh()), bits(full.refresh()));
        prop_assert_eq!(cached.snapshot_received().len(), full.received.len());
        // The cache must never do *more* row work than the full rebuild.
        prop_assert!(cached.rows_recomputed() <= full.rows_recomputed);
    }
}

/// Scores that stress the *bits* contract: signed zeros and subnormals
/// beside ordinary values.
fn edge_score(pick: u8, v: f64) -> f64 {
    match pick % 16 {
        0 => -0.0,
        1 => 0.0,
        2 => 5e-324,
        3 => -f64::MIN_POSITIVE / 4.0,
        _ => v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The receive path netrun uses: raw `(page, score)` parts delivered
    /// straight into the state. Every op goes to the slotted state and to
    /// the naive model alike; in between, the group's page set shrinks (a
    /// delta tombstones pages) and both are rebuilt — the slotted one by
    /// replay, the model by re-delivering each source's last raw payload.
    /// Parts are dense (up to 40 entries from 8 sources, at least 16 ops),
    /// so most cases compare a row holding three or more non-zero
    /// contributions, where the order a row is summed in shows in its bits.
    #[test]
    fn raw_deliveries_match_full_rebuild_bit_for_bit(
        owned in prop::collection::vec(any::<bool>(), 4..48),
        ops in prop::collection::vec(
            (
                0u32..8,                                              // source group
                0u8..7,                                               // what arrives
                any::<bool>(),                                        // refresh afterwards?
                prop::collection::vec((0u32..48, any::<u8>(), -1.0f64..1.0), 0..=40),
            ),
            16..60,
        ),
    ) {
        // Pages the group owns; every other id below 48 is foreign.
        let mut pages: Vec<u32> =
            owned.iter().enumerate().filter(|(_, &o)| o).map(|(p, _)| p as u32).collect();
        let mut slotted = AfferentState::new(pages.len());
        let mut full = Naive::new(pages.len());
        // The last raw payload of every source still known by its pattern.
        let mut last: BTreeMap<u32, (Arc<[u32]>, Vec<f64>)> = BTreeMap::new();
        for (src, kind, refresh_after, mut raw) in ops {
            raw.sort_by_key(|e| e.0);
            raw.dedup_by_key(|e| e.0);
            let scores: Vec<f64> = raw.iter().map(|&(_, pick, v)| edge_score(pick, v)).collect();
            let localized = |pages: &[u32]| -> Vec<(u32, f64)> {
                raw.iter()
                    .zip(&scores)
                    .filter_map(|(&(p, _, _), &s)| pages.binary_search(&p).ok().map(|li| (li as u32, s)))
                    .collect()
            };
            match kind {
                // A fresh pattern: grown, shrunk, disjoint, with foreign
                // pages, sometimes empty.
                0 | 1 => {
                    let pattern: Arc<[u32]> = if kind == 1 && raw.len() % 3 == 0 {
                        Arc::from([])
                    } else {
                        raw.iter().map(|e| e.0).collect()
                    };
                    let scores = scores[..pattern.len()].to_vec();
                    slotted.deliver(&pages, src, &pattern, &scores);
                    full.deliver(&pages, src, &pattern, &scores);
                    last.insert(src, (pattern, scores));
                }
                // The same pattern again — by pointer, or as an equal copy
                // under a new allocation — with new scores, or with the
                // very same bits (a converged sender republishing).
                2..=4 => {
                    let Some((pattern, old)) = last.get(&src).cloned() else { continue };
                    let pattern: Arc<[u32]> =
                        if kind == 3 { pattern.iter().copied().collect() } else { pattern };
                    let scores: Vec<f64> = if kind == 4 {
                        old
                    } else {
                        (0..pattern.len())
                            .map(|k| scores.get(k).copied().unwrap_or(0.25 * k as f64))
                            .collect()
                    };
                    slotted.deliver(&pages, src, &pattern, &scores);
                    full.deliver(&pages, src, &pattern, &scores);
                    last.insert(src, (pattern, scores));
                }
                // A localized install beside the raw path (a checkpoint
                // restored by `set`): the pattern is unknown afterwards.
                5 => {
                    slotted.set(src, localized(&pages));
                    full.set(src, localized(&pages));
                    last.remove(&src);
                }
                // A delta tombstones one owned page: rebuild both states
                // against the shrunken page set. One page at a time keeps
                // the page set, and its deep rows, from draining away.
                _ => {
                    prop_assert_eq!(bits(slotted.refresh()), bits(full.refresh()));
                    let dead = raw.first().map_or(0, |e| e.0 as usize);
                    let shrunk: Vec<u32> = pages
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != dead % pages.len().max(1))
                        .map(|(_, &p)| p)
                        .collect();
                    let mut replayed = AfferentState::new(shrunk.len());
                    slotted.replay_onto(&shrunk, &mut replayed);
                    let mut oracle = Naive::new(shrunk.len());
                    for (&s, (pattern, scores)) in &last {
                        oracle.deliver(&shrunk, s, pattern, scores);
                    }
                    (pages, slotted, full) = (shrunk, replayed, oracle);
                }
            }
            if refresh_after {
                prop_assert_eq!(bits(slotted.refresh()), bits(full.refresh()));
            }
        }
        prop_assert_eq!(bits(slotted.refresh()), bits(full.refresh()));
        prop_assert_eq!(slotted.snapshot_received().len(), full.received.len());
        prop_assert!(slotted.rows_recomputed() <= full.rows_recomputed);

        // The checkpoint contract: the localized snapshot equals the
        // model's entry for entry, and replaying it through `set` lands on
        // the same `X` bits.
        let snap = slotted.snapshot_received();
        let by_bits = |snap: &[(u32, Vec<(u32, f64)>)]| -> Vec<(u32, Vec<(u32, u64)>)> {
            snap.iter()
                .map(|(g, v)| (*g, v.iter().map(|&(li, s)| (li, s.to_bits())).collect()))
                .collect()
        };
        let model: Vec<(u32, Vec<(u32, f64)>)> = full.received.into_iter().collect();
        prop_assert_eq!(by_bits(&snap), by_bits(&model));
        let mut restored = AfferentState::new(pages.len());
        for (src, entries) in &snap {
            restored.set(*src, entries.clone());
        }
        prop_assert_eq!(bits(restored.refresh()), bits(slotted.x()));
    }
}

/// The all-updated extreme: when every source re-publishes every row each
/// round, the cache has nothing to skip — it must degrade gracefully to
/// exactly the full rebuild's work and bits.
#[test]
fn all_rows_updated_every_round_still_bit_identical() {
    let n = 16usize;
    let mut cached = AfferentState::new(n);
    let mut full = Naive::new(n);
    for round in 0..20u32 {
        for src in 0..4u32 {
            let entries: Vec<(u32, f64)> =
                (0..n as u32).map(|li| (li, f64::from(round * 31 + src * 7 + li) * 0.01)).collect();
            cached.set(src, entries.clone());
            full.set(src, entries);
        }
        assert_eq!(bits(cached.refresh()), bits(full.refresh()), "round {round}");
    }
    // Every row was stale at every refresh: identical work on both sides.
    assert_eq!(cached.rows_recomputed(), full.rows_recomputed);
}

/// A replaced source whose new `Y` no longer touches a row must retract its
/// old contribution from that row (the regression the inverted index could
/// get wrong silently).
#[test]
fn replacement_retracts_abandoned_rows() {
    let mut cached = AfferentState::new(4);
    let mut full = Naive::new(4);
    cached.set(0, vec![(0, 1.0), (2, 2.0)]);
    full.set(0, vec![(0, 1.0), (2, 2.0)]);
    cached.set(1, vec![(2, 0.5)]);
    full.set(1, vec![(2, 0.5)]);
    assert_eq!(bits(cached.refresh()), bits(full.refresh()));
    // Source 0 re-publishes without row 2: row 2 must fall back to source
    // 1's contribution alone.
    cached.set(0, vec![(0, 3.0), (1, 0.25)]);
    full.set(0, vec![(0, 3.0), (1, 0.25)]);
    assert_eq!(cached.refresh(), &[3.0, 0.25, 0.5, 0.0]);
    assert_eq!(bits(cached.refresh()), bits(full.refresh()));
    // Rows 0/1/2 went stale; row 3 was never touched.
    assert!(cached.rows_recomputed() < full.rows_recomputed);
}
