//! The serving-store contract: epoch-versioned [`RankStore`] answers are
//! bit-identical to one-shot scatter-gather queries against the live
//! `Ranker`s at the same epoch — including while the engine keeps
//! committing and readers race publication — and old views stay frozen.
//! The rankers come from netrun's sample hook, at the instant the driver
//! samples the run; the scatter-gather is a naive model in this file.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dpr::core::netrun::{
    try_run_over_network_observed, try_run_over_network_with_store, NetRunConfig,
};
use dpr::core::store::GroupPublish;
use dpr::core::{metrics, Hit, RankStore, Ranker, Sample};
use dpr::graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr::graph::{PageId, WebGraph};
use dpr::partition::Strategy;

fn graph() -> WebGraph {
    edu_domain(&EduDomainConfig::small())
}

/// The scatter-gather model of a top-`k` query: every page of every live
/// ranker (only the candidates, if given, each page once), fully sorted
/// by rank descending with ties by ascending page id, cut to `k`.
fn model_top_k(rankers: &[&Ranker], k: usize, candidates: Option<&[PageId]>) -> Vec<Hit> {
    let wanted: Option<HashSet<PageId>> = candidates.map(|c| c.iter().copied().collect());
    let mut hits: Vec<Hit> = rankers
        .iter()
        .flat_map(|r| r.ctx().pages().iter().zip(r.ranks()))
        .filter(|(p, _)| wanted.as_ref().is_none_or(|w| w.contains(p)))
        .map(|(&page, &rank)| Hit { page, rank })
        .collect();
    hits.sort_by(|a, b| b.rank.total_cmp(&a.rank).then(a.page.cmp(&b.page)));
    hits.truncate(k);
    hits
}

/// The model of the per-site rank mass: each group's pages summed per
/// site in local page order, and the group partials added into the totals
/// in ascending group id.
fn model_site_totals(rankers: &[&Ranker], site_of: &[u32], n_sites: usize) -> Vec<f64> {
    let mut by_group = rankers.to_vec();
    by_group.sort_by_key(|r| r.ctx().group_id());
    let mut totals = vec![0.0; n_sites];
    for r in by_group {
        let mut partial = vec![0.0; n_sites];
        for (&p, &rank) in r.ctx().pages().iter().zip(r.ranks()) {
            partial[site_of[p as usize] as usize] += rank;
        }
        for (t, p) in totals.iter_mut().zip(&partial) {
            *t += *p;
        }
    }
    totals
}

/// Ranks `g` in eight DPR1 groups on eight nodes, every node thinking
/// once per time unit on average, and hands `observe` the live rankers
/// every `sample_every` units until `t_end`.
fn run(
    g: &WebGraph,
    strategy: Strategy,
    seed: u64,
    sample_every: f64,
    t_end: f64,
    mut observe: impl FnMut(&Sample),
) {
    let cfg = NetRunConfig {
        strategy,
        t1: 1.0,
        t2: 1.0,
        seed,
        sample_every,
        t_end,
        ..NetRunConfig::section5(8)
    };
    try_run_over_network_observed(g, cfg, None, &mut observe).expect("a valid configuration");
}

fn site_map(g: &WebGraph) -> Vec<u32> {
    (0..g.n_pages() as u32).map(|p| g.site(p)).collect()
}

fn assert_hits_bits_equal(a: &[Hit], b: &[Hit], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.page, y.page, "{what}: page mismatch");
        assert_eq!(x.rank.to_bits(), y.rank.to_bits(), "{what}: rank bits differ on {}", x.page);
    }
}

/// The acceptance test: at every publication epoch the store's top-k,
/// candidate top-k, point lookups and site aggregates are bit-identical
/// to querying the live rankers directly — while a reader thread hammers
/// the store concurrently with the engine's commits.
#[test]
fn store_matches_live_rankers_at_every_epoch_under_concurrent_reads() {
    let g = graph();
    let site_of = site_map(&g);
    let n_sites = g.n_sites();
    let store = Arc::new(RankStore::new(16).with_sites(site_of.clone(), n_sites));

    // A reader racing the publisher: every view it snaps must be
    // internally consistent (each top hit agrees with a point lookup on
    // the same view) and versions must be monotone.
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let reader = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let reads = Arc::clone(&reads);
        std::thread::spawn(move || {
            let mut last_version = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let v = store.view();
                assert!(v.version() >= last_version, "view versions went backwards");
                last_version = v.version();
                for h in v.top_k(8) {
                    let l = v.lookup(h.page).expect("top hit must be owned");
                    assert_eq!(
                        l.rank.to_bits(),
                        h.rank.to_bits(),
                        "torn view: top-k and lookup disagree"
                    );
                }
                reads.fetch_add(1, Ordering::Relaxed);
            }
        })
    };

    let candidates: Vec<PageId> = (0..60).chain([7, 7, 13]).collect();
    let mut distinct_rankings = 0usize;
    let mut last_top: Option<Vec<Hit>> = None;
    run(&g, Strategy::HashBySite, 3, 10.0, 120.0, |sample| {
        store.publish_rankers(sample.rankers.iter().copied());
        let v = store.view();

        // Bit-identity against the live rankers at this exact epoch.
        let live = model_top_k(sample.rankers, 10, None);
        assert_hits_bits_equal(&v.top_k(10), &live, "global top-k");
        let live_c = model_top_k(sample.rankers, 5, Some(&candidates));
        assert_hits_bits_equal(&v.top_k_candidates(5, &candidates), &live_c, "candidate top-k");
        let global = sample.global;
        for p in [0u32, 7, 131, 999, g.n_pages() as u32 - 1] {
            let l = v.lookup(p).expect("every page is owned");
            assert_eq!(l.rank.to_bits(), global[p as usize].to_bits(), "point lookup page {p}");
        }
        let live_sites = model_site_totals(sample.rankers, &site_of, n_sites);
        assert_sites_bits_equal(v.site_totals().expect("store built with site info"), &live_sites);

        if last_top.as_ref() != Some(&live) {
            distinct_rankings += 1;
        }
        last_top = Some(live);
    });

    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader thread panicked");
    assert!(reads.load(Ordering::Relaxed) > 0, "reader never got a view in");
    assert!(
        distinct_rankings > 1,
        "the ranking never moved across epochs — the test exercised nothing"
    );
    assert!(store.view().version() > 1, "store must have republished across epochs");
}

/// A pinned mid-run view keeps serving its own (unconverged) epoch
/// bit-for-bit after later publishes; the store's current view moves on.
#[test]
fn mid_run_snapshot_stays_frozen_while_store_advances() {
    let g = graph();
    let store = RankStore::new(16);

    // Published at t = 6 (far from converged) and at t = 120 only.
    let mut pinned = None;
    let mut fin_live = Vec::new();
    let mut global = Vec::new();
    run(&g, Strategy::HashBySite, 3, 6.0, 120.0, |sample| {
        if pinned.is_none() {
            store.publish_rankers(sample.rankers.iter().copied());
            let mid = store.view();
            let mid_top = mid.top_k(10);
            let mid_live = model_top_k(sample.rankers, 10, None);
            assert_hits_bits_equal(&mid_top, &mid_live, "mid-run top-k");
            let mid_epochs: Vec<Option<u64>> = (0..8).map(|gid| mid.group_epoch(gid)).collect();
            pinned = Some((mid, mid_top, mid_epochs));
        } else if sample.t == 120.0 {
            store.publish_rankers(sample.rankers.iter().copied());
            fin_live = model_top_k(sample.rankers, 10, None);
            global = sample.global.to_vec();
        }
    });
    let (mid, mid_top, mid_epochs) = pinned.expect("the first sample published");
    let fin = store.view();
    assert_hits_bits_equal(&fin.top_k(10), &fin_live, "final top-k");

    // The pinned view is untouched: same answers, same epochs.
    assert_hits_bits_equal(&mid.top_k(10), &mid_top, "pinned view must not change");
    for (gid, e) in mid_epochs.iter().enumerate() {
        assert_eq!(mid.group_epoch(gid as u32), *e, "pinned epoch of group {gid}");
    }
    // And the two epochs genuinely differ: rank bits moved between t=6
    // and convergence, and every group's epoch advanced.
    assert!(
        mid_top.iter().any(|h| h.rank.to_bits() != global[h.page as usize].to_bits()),
        "mid-run snapshot should not already hold the converged bits"
    );
    for gid in 0..8u32 {
        assert!(
            fin.group_epoch(gid).unwrap() > mid.group_epoch(gid).unwrap(),
            "group {gid} epoch must advance"
        );
    }
}

fn assert_sites_bits_equal(stored: &[f64], live: &[f64]) {
    assert_eq!(stored.len(), live.len());
    for (s, (a, b)) in stored.iter().zip(live).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "site {s} aggregate bits differ");
    }
}

/// Edge cases, each checked against the scatter-gather model: `k == 0`,
/// candidates nobody owns, duplicates, `k` beyond the page count (the
/// store's beyond-cap fallback path), and site totals when every site
/// spans several groups (pages placed by URL hash).
#[test]
fn query_edge_cases_match_scatter_gather() {
    let g = graph();
    run(&g, Strategy::HashByUrl, 5, 80.0, 80.0, |sample| query_edge_cases(&g, sample.rankers));
}

fn query_edge_cases(g: &WebGraph, nodes: &[&Ranker]) {
    let site_of = site_map(g);
    let store = RankStore::new(8).with_sites(site_of.clone(), g.n_sites());
    store.publish_rankers(nodes.iter().copied());
    let v = store.view();

    // k == 0.
    assert!(v.top_k(0).is_empty());
    assert!(v.top_k_candidates(0, &[1, 2, 3]).is_empty());

    // All candidates unowned (beyond the page space).
    let ghosts: Vec<PageId> = (0..10).map(|i| g.n_pages() as u32 + i).collect();
    assert!(v.top_k_candidates(5, &ghosts).is_empty());
    assert!(v.lookup(ghosts[0]).is_none());

    // Mixed owned/unowned with duplicates still agrees bit-for-bit.
    let mixed: Vec<PageId> = vec![5, 5, g.n_pages() as u32 + 1, 17, 5, 17];
    assert_hits_bits_equal(
        &v.top_k_candidates(10, &mixed),
        &model_top_k(nodes, 10, Some(&mixed)),
        "mixed candidates",
    );

    // k far beyond the page count and the store's topk cap: the fallback
    // merge returns every page, same order (ties included), same bits.
    let all_store = v.top_k(g.n_pages() + 50);
    let all_live = model_top_k(nodes, g.n_pages() + 50, None);
    assert_eq!(all_store.len(), g.n_pages());
    assert_hits_bits_equal(&all_store, &all_live, "full-ranking fallback");
    let tied = all_live.windows(2).filter(|w| w[0].rank.to_bits() == w[1].rank.to_bits()).count();
    assert!(tied > 0, "no two pages share a rank: the tie-break went unchecked");

    // Pages are placed by URL hash, so a site spans several groups and the
    // order the group partials are added in shows in the bits.
    let spans =
        nodes.iter().filter(|r| r.ctx().pages().iter().any(|&p| site_of[p as usize] == 0)).count();
    assert!(spans > 2, "site 0 spans {spans} groups: the fold order went unchecked");
    let live_sites = model_site_totals(nodes, &site_of, g.n_sites());
    assert_sites_bits_equal(v.site_totals().expect("store built with site info"), &live_sites);
}

/// Readers racing a publisher that alternates between two whole-system
/// states never observe a torn view: every view is entirely state A or
/// entirely state B, versions are monotone, and the pinned-epoch contract
/// holds under real thread interleavings.
#[test]
fn store_reads_race_epoch_publication() {
    // Two groups, two states with distinguishable exact bit patterns.
    const A0: [f64; 2] = [1.0, 2.0];
    const A1: [f64; 1] = [3.0];
    const B0: [f64; 2] = [5.0, 0.5];
    const B1: [f64; 1] = [0.25];
    let store = Arc::new(RankStore::new(4));
    store.publish([
        GroupPublish { group: 0, epoch: 0, pages: &[0, 1], ranks: &A0 },
        GroupPublish { group: 1, epoch: 0, pages: &[2], ranks: &A1 },
    ]);

    const ROUNDS: u64 = 400;
    // On a single-core host the writer can finish all its publishes
    // before any reader is scheduled, so it yields until some reader has
    // snapped a view of the current epoch (bounded, in case the readers
    // already exited) — forcing genuine interleaving.
    let reads = Arc::new(AtomicU64::new(0));
    let writer = {
        let store = Arc::clone(&store);
        let reads = Arc::clone(&reads);
        std::thread::spawn(move || {
            for epoch in 1..=ROUNDS {
                let (r0, r1): (&[f64], &[f64]) =
                    if epoch % 2 == 0 { (&A0, &A1) } else { (&B0, &B1) };
                assert!(store.publish([
                    GroupPublish { group: 0, epoch, pages: &[0, 1], ranks: r0 },
                    GroupPublish { group: 1, epoch, pages: &[2], ranks: r1 },
                ]));
                let before = reads.load(Ordering::Relaxed);
                for _ in 0..10_000 {
                    if reads.load(Ordering::Relaxed) != before {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        })
    };

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let store = Arc::clone(&store);
            let reads = Arc::clone(&reads);
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                let mut saw_both = [false; 2];
                loop {
                    let v = store.view();
                    reads.fetch_add(1, Ordering::Relaxed);
                    assert!(v.version() >= last_version, "versions must be monotone per reader");
                    last_version = v.version();
                    let p0 = v.lookup(0).unwrap();
                    let p2 = v.lookup(2).unwrap();
                    // Whole-batch atomicity: group 0's state implies
                    // group 1's, and both carry the same epoch.
                    if p0.rank.to_bits() == A0[0].to_bits() {
                        assert_eq!(p2.rank.to_bits(), A1[0].to_bits(), "torn A/B view");
                        saw_both[0] = true;
                    } else {
                        assert_eq!(p0.rank.to_bits(), B0[0].to_bits());
                        assert_eq!(p2.rank.to_bits(), B1[0].to_bits(), "torn B/A view");
                        saw_both[1] = true;
                    }
                    assert_eq!(p0.epoch, p2.epoch, "groups from different publishes");
                    // The precomputed top-k belongs to the same state.
                    let top = v.top_k(1)[0];
                    let want = if p0.rank.to_bits() == A0[0].to_bits() {
                        A1[0] // state A: page 2 at 3.0 wins
                    } else {
                        B0[0] // state B: page 0 at 5.0 wins
                    };
                    assert_eq!(top.rank.to_bits(), want.to_bits(), "top-k from a different state");
                    if v.version() >= ROUNDS {
                        break saw_both;
                    }
                }
            })
        })
        .collect();

    writer.join().expect("writer panicked");
    let mut union = [false; 2];
    for r in readers {
        let saw = r.join().expect("reader panicked");
        union[0] |= saw[0];
        union[1] |= saw[1];
    }
    assert!(
        union[0] && union[1],
        "readers never observed both states ({union:?}) — the race never happened"
    );
    assert_eq!(store.view().version(), 1 + ROUNDS);
}

/// The netrun publication hook: the engine publishes after every sample
/// slice, the final view equals `final_ranks` bit-for-bit, and attaching
/// a store does not perturb the run.
#[test]
fn netrun_publishes_epoch_snapshots_bit_neutrally() {
    let g = edu_domain(&EduDomainConfig::small());
    let cfg = NetRunConfig {
        k: 8,
        n_nodes: 8,
        t_end: 60.0,
        sample_every: 5.0,
        ..NetRunConfig::default()
    };
    let store = RankStore::new(10).with_sites(site_map(&g), g.n_sites());
    let with_store =
        try_run_over_network_with_store(&g, cfg.clone(), Some(&store)).expect("run failed");
    let without = try_run_over_network_with_store(&g, cfg, None).expect("run failed");

    // Bit-neutral: publication is observation only.
    assert_eq!(with_store.final_ranks.len(), without.final_ranks.len());
    for (a, b) in with_store.final_ranks.iter().zip(&without.final_ranks) {
        assert_eq!(a.to_bits(), b.to_bits(), "attaching a store changed the run");
    }
    assert_eq!(with_store.counters, without.counters);

    // The final view is the final ranking, exactly.
    let v = store.view();
    assert!(v.version() >= 2, "multiple slices must have published");
    let want: Vec<u32> = metrics::top_k(&with_store.final_ranks, 10);
    let got = v.top_k(10);
    assert_eq!(got.iter().map(|h| h.page).collect::<Vec<_>>(), want);
    for h in &got {
        assert_eq!(h.rank.to_bits(), with_store.final_ranks[h.page as usize].to_bits());
    }
    assert_eq!(v.n_pages(), g.n_pages());
    let totals = v.site_totals().expect("sites configured");
    let direct: f64 = with_store.final_ranks.iter().sum();
    assert!((totals.iter().sum::<f64>() - direct).abs() <= 1e-9 * direct.max(1.0));
    let stats = store.stats();
    assert!(stats.publishes >= 2, "stats: {stats:?}");
}
