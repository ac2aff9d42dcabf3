//! Integration of the transport layer with both overlays: delivery
//! correctness, cost-model agreement, and the compression codec driven
//! through the same pipeline — plus proptest coverage of routing and the
//! wire codecs.

use dpr::overlay::id::key_from_u64;
use dpr::overlay::{ChordNetwork, Overlay, PastryNetwork};
use dpr::transport::codec::{decode_update, encode_update, PaperSizeModel};
use dpr::transport::compress::{decode_batch, encode_batch, CompressConfig};
use dpr::transport::{analytic, direct, indirect, Batch, Outgoing, RankUpdate};
use proptest::prelude::*;

fn all_to_all(n: usize) -> Vec<Outgoing> {
    (0..n)
        .map(|s| Outgoing {
            sender: s,
            batches: (0..n as u64)
                .map(|g| Batch {
                    dest_key: key_from_u64(g),
                    updates: vec![RankUpdate {
                        from_page: s as u32,
                        to_page: g as u32,
                        score: 0.25,
                    }],
                })
                .collect(),
        })
        .collect()
}

#[test]
fn indirect_delivery_correct_on_both_overlays() {
    let n = 80;
    let traffic = all_to_all(n);
    let pastry = PastryNetwork::with_nodes(n, 1);
    let chord = ChordNetwork::with_nodes(n, 2);
    for net in [&pastry as &dyn Overlay, &chord as &dyn Overlay] {
        let out = indirect::simulate(net, &traffic, &PaperSizeModel);
        assert_eq!(out.stats.delivered_updates, (n * n) as u64);
        for (node, batches) in out.delivered.iter().enumerate() {
            for b in batches {
                assert_eq!(net.responsible(b.dest_key), node);
            }
        }
    }
}

#[test]
fn direct_and_indirect_deliver_identical_payloads() {
    let n = 60;
    let traffic = all_to_all(n);
    let net = PastryNetwork::with_nodes(n, 3);
    let d = direct::simulate(&net, &traffic, &PaperSizeModel);
    let i = indirect::simulate(&net, &traffic, &PaperSizeModel);
    assert_eq!(d.delivered_updates, i.stats.delivered_updates);
}

#[test]
fn measured_costs_track_closed_forms() {
    let n = 150;
    let traffic = all_to_all(n);
    let net = PastryNetwork::with_nodes(n, 5);
    let d = direct::simulate(&net, &traffic, &PaperSizeModel);
    let i = indirect::simulate(&net, &traffic, &PaperSizeModel).stats;
    let h = dpr::overlay::avg_route_hops(&net, 2_000, 1).mean;
    let g = net.mean_neighbors();
    // Within 25% of the analytic predictions (they are first-order models).
    let s_dt = analytic::s_direct(h, n as f64);
    let s_it = analytic::s_indirect(g, n as f64);
    assert!((d.messages as f64 / s_dt - 1.0).abs() < 0.25, "{} vs {s_dt}", d.messages);
    assert!(i.messages as f64 <= s_it * 1.25, "{} vs {s_it}", i.messages);
    // The §4.4 scalability ordering the closed forms predict.
    assert!(i.messages < d.messages, "indirect must win on messages at N = {n}");
}

#[test]
fn chord_needs_more_hops_than_pastry_at_same_scale() {
    let n = 2_000;
    let p = dpr::overlay::avg_route_hops(&PastryNetwork::with_nodes(n, 7), 1_000, 1).mean;
    let c = dpr::overlay::avg_route_hops(&ChordNetwork::with_nodes(n, 7), 1_000, 1).mean;
    assert!(c > p, "chord {c} should exceed pastry {p} (base 2 vs base 16 routing)");
}

#[test]
fn compressed_batches_survive_indirect_transport() {
    // Compress -> ship through the overlay -> decode: scores must survive
    // at f32 precision end to end.
    let n = 40;
    let net = PastryNetwork::with_nodes(n, 9);
    let updates: Vec<RankUpdate> = (0..500)
        .map(|i| RankUpdate { from_page: i * 3 % 97, to_page: i % 31, score: f64::from(i) * 1e-3 })
        .collect();
    let key = key_from_u64(7);
    let encoded = encode_batch(&updates, &CompressConfig::default());
    let traffic = vec![Outgoing {
        sender: 0,
        batches: vec![Batch { dest_key: key, updates: updates.clone() }],
    }];
    let out = indirect::simulate(&net, &traffic, &PaperSizeModel);
    let dest = net.responsible(key);
    let delivered = &out.delivered[dest][0].updates;
    let decoded = decode_batch(&encoded).unwrap();
    assert_eq!(delivered.len(), decoded.len());
    let sum_d: f64 = delivered.iter().map(|u| u.score).sum();
    let sum_c: f64 = decoded.iter().map(|u| u.score).sum();
    assert!((sum_d - sum_c).abs() < 1e-3);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Routing invariant: from any source, any key reaches the globally
    /// responsible node on both overlays, within a logarithmic-ish bound.
    #[test]
    fn routing_always_reaches_responsible(
        n in 2usize..300,
        seed in 0u64..100,
        keys in prop::collection::vec(any::<u64>(), 1..20),
        src_pick in any::<u64>(),
    ) {
        let pastry = PastryNetwork::with_nodes(n, seed);
        let chord = ChordNetwork::with_nodes(n, seed ^ 0xFF);
        let src = (src_pick % n as u64) as usize;
        for k in keys {
            let key = key_from_u64(k);
            for net in [&pastry as &dyn Overlay, &chord as &dyn Overlay] {
                let resp = net.responsible(key);
                let path = net.route(src, key);
                prop_assert_eq!(path.last().copied().unwrap_or(src), resp);
                prop_assert!(path.len() <= 3 * (n.ilog2() as usize + 4));
            }
        }
    }

    /// Wire codec round-trip for arbitrary URLs and scores.
    #[test]
    fn url_codec_roundtrip(
        from in "[a-z0-9./:?=_-]{1,120}",
        to in "[a-z0-9./:?=_-]{1,120}",
        score in prop::num::f64::NORMAL,
    ) {
        let u = RankUpdate { from_page: 0, to_page: 1, score };
        let enc = encode_update(&u, &from, &to);
        let (f, t, s) = decode_update(&enc).unwrap();
        prop_assert_eq!(f, from);
        prop_assert_eq!(t, to);
        prop_assert_eq!(s.to_bits(), score.to_bits());
    }

    /// Compression round-trip preserves id pairs exactly and scores to f32.
    #[test]
    fn compression_roundtrip(
        mut updates in prop::collection::vec(
            (0u32..100_000, 0u32..100_000, -1.0f64..1.0),
            0..200
        )
    ) {
        let batch: Vec<RankUpdate> = updates
            .drain(..)
            .map(|(f, t, s)| RankUpdate { from_page: f, to_page: t, score: s })
            .collect();
        let enc = encode_batch(&batch, &CompressConfig::default());
        let dec = decode_batch(&enc).unwrap();
        prop_assert_eq!(dec.len(), batch.len());
        let mut want: Vec<(u32, u32)> =
            batch.iter().map(|u| (u.to_page, u.from_page)).collect();
        want.sort_unstable();
        let mut got: Vec<(u32, u32)> = dec.iter().map(|u| (u.to_page, u.from_page)).collect();
        got.sort_unstable();
        prop_assert_eq!(got, want);
        // Scores round-trip at f32 precision: total mass must agree with
        // the f32-rounded originals.
        let want_sum: f64 = batch.iter().map(|u| f64::from(u.score as f32)).sum();
        let got_sum: f64 = dec.iter().map(|u| u.score).sum();
        prop_assert!((want_sum - got_sum).abs() < 1e-6 * (1.0 + want_sum.abs()));
    }
}
