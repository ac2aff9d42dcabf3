//! The transport layer against the overlays it runs on: §4.4's costs
//! measured on netrun and set beside the closed forms, routing
//! invariants, and proptest coverage of routing and of every wire decoder.

use dpr::core::netrun::AnyOverlay;
use dpr::core::{try_run_over_network, NetRunConfig, OverlayKind, Transmission};
use dpr::graph::generators::toy;
use dpr::model::analytic;
use dpr::overlay::id::key_from_u64;
use dpr::overlay::{avg_route_hops, ChordNetwork, Overlay, PastryNetwork};
use dpr::partition::{Partition, Strategy};
use dpr::transport::codec::{
    self, decode_update, encode_update, UpdateEncoder, PAPER_LOOKUP_BYTES, PAPER_RECORD_BYTES,
};
use dpr::transport::compress::{self, CompressConfig};
use dpr::transport::snapshot::{self, encode_snapshot_into, SnapshotFrame};
use dpr::transport::RankUpdate;
use proptest::prelude::*;

#[test]
fn measured_costs_track_closed_forms() {
    // The §4.4 worst case: `toy::complete(4N)` split by URL hash into
    // N groups on N nodes, so every group links into every other.
    let n = 60;
    let graph = toy::complete(4 * n);
    // W: each group with pages sends one record per page outside it.
    let sizes = Partition::build(&graph, &Strategy::HashByUrl, n, 0).group_sizes();
    let w = (graph.n_pages() * (sizes.iter().filter(|&&s| s > 0).count() - 1)) as f64;
    let (l, r) = (PAPER_RECORD_BYTES as f64, PAPER_LOOKUP_BYTES as f64);
    for overlay in [OverlayKind::Pastry, OverlayKind::Chord] {
        let cfg = |transmission| NetRunConfig {
            k: n,
            n_nodes: n,
            transmission,
            overlay,
            strategy: Strategy::HashByUrl,
            t1: 1.0,
            t2: 1.0,
            t_end: 20.0,
            seed: 5,
            ..NetRunConfig::default()
        };
        // Messages and bytes per iteration, one iteration being one wake
        // of every node.
        let per_iteration = |transmission| {
            let run = try_run_over_network(&graph, cfg(transmission)).unwrap();
            let iterations = run.sim_stats.wakes as f64 / n as f64;
            let c = run.counters;
            ((c.data_messages + c.lookup_messages) as f64 / iterations, c.bytes as f64 / iterations)
        };
        let (direct, direct_bytes) = per_iteration(Transmission::Direct);
        let (indirect, indirect_bytes) = per_iteration(Transmission::Indirect);
        // `h` and `g` measured on the run's own overlay.
        let deployed = AnyOverlay::build(&cfg(Transmission::Direct));
        let h = avg_route_hops(deployed.as_overlay(), 2_000, 1).mean;
        let g = deployed.as_overlay().mean_neighbors();

        let s_dt = analytic::s_direct(h, n as f64);
        let s_it = analytic::s_indirect(g, n as f64);
        assert!(direct <= s_dt, "{overlay:?}: direct {direct} above (h+1)N² = {s_dt}");
        assert!(indirect <= s_it, "{overlay:?}: indirect {indirect} above gN = {s_it}");
        // The §4.4 scalability ordering the closed forms predict.
        assert!(indirect < direct, "{overlay:?}: indirect must win on messages at N = {n}");
        // Bytes are first-order forms that leave out headers: same order.
        let d_dt = analytic::d_direct(h, l, w, r, n as f64);
        let d_it = analytic::d_indirect(h, l, w);
        for (what, measured, form) in
            [("direct", direct_bytes, d_dt), ("indirect", indirect_bytes, d_it)]
        {
            let ratio = measured / form;
            assert!((0.25..1.5).contains(&ratio), "{overlay:?}: {what} bytes at {ratio}x the form");
        }
    }
}

#[test]
fn chord_needs_more_hops_than_pastry_at_same_scale() {
    let n = 2_000;
    let p = dpr::overlay::avg_route_hops(&PastryNetwork::with_nodes(n, 7), 1_000, 1).mean;
    let c = dpr::overlay::avg_route_hops(&ChordNetwork::with_nodes(n, 7), 1_000, 1).mean;
    assert!(c > p, "chord {c} should exceed pastry {p} (base 2 vs base 16 routing)");
}

/// LEB128, the varint `compress` frames its record count with.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
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
        let enc = compress::encode_batch(&batch, &CompressConfig::default());
        let dec = compress::decode_batch(&enc).unwrap();
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

    /// Every decoder of bytes from the network, fed junk and valid frames
    /// with an inflated count or a truncated tail: none panics or sizes an
    /// allocation from the count, and each returns `None` or exactly the
    /// frame that was encoded.
    #[test]
    fn decoders_return_none_or_the_exact_frame(
        junk in prop::collection::vec(any::<u8>(), 0..64),
        records in prop::collection::vec((0u32..100_000, -1.0f64..1.0), 1..16),
        cut in any::<usize>(),
        claimed in any::<u64>(),
    ) {
        // Distinct `from` ids keep `compress`'s sorted order unambiguous.
        let updates: Vec<RankUpdate> = records
            .iter()
            .enumerate()
            .map(|(i, &(to, score))| RankUpdate { from_page: i as u32, to_page: to, score })
            .collect();
        let url = |p: u32| format!("http://s{}.edu/p{p}.html", p % 7);

        // Junk. The URL and checkpoint frames are fixed-width around their
        // counts, so whatever decodes re-encodes to the very input; the
        // compressed frame admits non-minimal varints, so it must only not
        // panic.
        let mut enc = UpdateEncoder::new();
        if let Some(decoded) = codec::decode_batch(&junk) {
            let again = enc.encode_batch(decoded.iter().map(|(f, t, score)| {
                (RankUpdate { from_page: 0, to_page: 0, score: *score }, f, t)
            }));
            prop_assert_eq!(again, &junk[..]);
        }
        let _ = compress::decode_batch(&junk);
        if let Some(frames) = snapshot::decode_snapshot_batch(&junk) {
            let mut again = Default::default();
            for f in &frames {
                encode_snapshot_into(&mut again, f);
            }
            prop_assert_eq!(&again[..], &junk[..]);
        }

        // URL records back to back: the counts are the URL lengths.
        let frame = enc
            .encode_batch(updates.iter().map(|u| (*u, url(u.from_page), url(u.to_page))))
            .to_vec();
        let want: Vec<(String, String, f64)> =
            updates.iter().map(|u| (url(u.from_page), url(u.to_page), u.score)).collect();
        prop_assert_eq!(codec::decode_batch(&frame), Some(want));
        let u = updates[updates.len() - 1];
        let last = 2 + url(u.from_page).len() + 2 + url(u.to_page).len() + 8;
        let tail = frame.len() - last + 1 + cut % (last - 1);
        prop_assert_eq!(codec::decode_batch(&frame[..tail]), None);
        let mut inflated = frame.clone();
        let len = frame.len() as u64 + 1 + claimed % (u64::from(u16::MAX) - frame.len() as u64);
        inflated[..2].copy_from_slice(&(len as u16).to_be_bytes());
        prop_assert_eq!(codec::decode_batch(&inflated), None);

        // Compressed batch: a record count, then the records.
        let frame = compress::encode_batch(&updates, &CompressConfig::default());
        let mut want: Vec<RankUpdate> = updates
            .iter()
            .map(|u| RankUpdate { score: f64::from(u.score as f32), ..*u })
            .collect();
        want.sort_unstable_by_key(|u| (u.to_page, u.from_page));
        prop_assert_eq!(compress::decode_batch(&frame), Some(want));
        prop_assert_eq!(compress::decode_batch(&frame[..cut % frame.len()]), None);
        // Fewer than 128 records: the count is one byte.
        let mut inflated = varint(claimed.max(updates.len() as u64 + 1));
        inflated.extend_from_slice(&frame[1..]);
        prop_assert_eq!(compress::decode_batch(&inflated), None);

        // Two checkpoint frames back to back.
        let frame = SnapshotFrame {
            group: records[0].0,
            epoch: claimed,
            r: updates.iter().map(|u| u.score).collect(),
            afferent: vec![(7, updates.iter().map(|u| (u.to_page, u.score)).collect())],
        };
        let mut batch = Default::default();
        encode_snapshot_into(&mut batch, &frame);
        encode_snapshot_into(&mut batch, &frame);
        let batch: Vec<u8> = batch[..].to_vec();
        prop_assert_eq!(
            snapshot::decode_snapshot_batch(&batch),
            Some(vec![frame.clone(), frame.clone()])
        );
        let half = batch.len() / 2;
        prop_assert_eq!(snapshot::decode_snapshot_batch(&batch[..half + 1 + cut % (half - 1)]), None);
        // The last frame's source count, past `group | epoch | n_r | r`.
        let n_src_at = half + 16 + 8 * frame.r.len();
        let mut inflated = batch.clone();
        let sources = 2 + claimed % u64::from(u32::MAX - 1);
        inflated[n_src_at..n_src_at + 4].copy_from_slice(&(sources as u32).to_be_bytes());
        prop_assert_eq!(snapshot::decode_snapshot_batch(&inflated), None);
    }
}
