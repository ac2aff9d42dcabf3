//! The differential matrix: committed digests of whole runs, so a change
//! that must not move a bit gets its identity proof from `cargo test`, and
//! a change that moves bits on purpose has to say which cells moved.
//!
//! Every netrun cell runs at `engine_workers` 1 and 2, must produce the
//! same digest at both, must match the committed one, and must land on
//! centralized PageRank of the graph the run ended on (relative L1 error
//! and exact top-10). A digest covers the final rank bits, the whole
//! `rel_err` series, `SimStats`, and every `NetCounters` field, summed and
//! per node. The §5 cells are netrun cells too, in the shape the paper's
//! evaluation (Figs 6–8) runs: one group per overlay node, direct
//! transmission, loss from `p`.
//!
//! The constants were recorded on x86-64 Linux. The one libm call on the
//! path is the `ln` in the exponential think-time draw (`sample_wait`); a
//! platform whose `ln` rounds differently moves every digest at once, and
//! the fix there is to re-record, not to hunt a bug.
//!
//! To re-record: run the file, paste the table each failing test prints.

use dpr::core::{
    group_owners, open_pagerank, try_run_over_network, try_run_over_network_observed, DprVariant,
    NetRunConfig, NetRunResult, OverlayKind, RankConfig, Reliability, RunRecorder, Sample,
    Transmission,
};
use dpr::graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr::graph::{DeltaOp, GraphDelta, WebGraph};
use dpr::partition::Strategy;
use dpr::sim::{FaultPlan, Jitter, TimeSeries};

/// FNV-1a.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Exact bits, and where the sequence ends.
    fn floats(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
        self.bytes(b"|");
    }

    /// Every field by name and value (integers and flags only): a field
    /// added, dropped or renamed moves every digest, so nobody can forget
    /// to decide whether it belongs.
    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}|").as_bytes());
    }

    fn series(&mut self, s: &TimeSeries) {
        self.floats(s.points().iter().flat_map(|&(t, v)| [t, v]));
    }
}

fn netrun_digest(res: &NetRunResult) -> u64 {
    let mut d = Digest::new();
    d.floats(res.final_ranks.iter().copied());
    d.series(&res.rel_err);
    d.debug(&(res.sim_stats, res.counters, &res.per_node));
    d.0
}

fn web() -> WebGraph {
    edu_domain(&EduDomainConfig { n_pages: 600, n_sites: 24, ..EduDomainConfig::default() })
}

fn top10(ranks: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ranks.len()).collect();
    idx.sort_by(|&a, &b| ranks[b].total_cmp(&ranks[a]).then(a.cmp(&b)));
    idx.truncate(10);
    idx
}

/// Centralized PageRank of the graph a run with `deltas` ends on, solved
/// far below the tolerance the cells are held to; tombstoned pages are
/// pinned to zero, as the distributed system stops ranking them.
fn centralized(g: &WebGraph, deltas: &[(f64, GraphDelta)]) -> Vec<f64> {
    let mut g = g.clone();
    let mut dead = Vec::new();
    for (_, delta) in deltas {
        let (next, report) = delta.apply_report(&g);
        g = next;
        dead.extend(report.deleted);
    }
    let tight = RankConfig { epsilon: 1e-12, max_iters: 100_000, ..RankConfig::default() };
    let mut ranks = open_pagerank(&g, &tight).ranks;
    for p in dead {
        ranks[p as usize] = 0.0;
    }
    ranks
}

const VARIANTS: [(&str, DprVariant); 2] = [("dpr1", DprVariant::Dpr1), ("dpr2", DprVariant::Dpr2)];
const STRATEGIES: [(&str, Strategy); 2] =
    [("site", Strategy::HashBySite), ("url", Strategy::HashByUrl)];
const TRANSMISSIONS: [(&str, Transmission); 2] =
    [("direct", Transmission::Direct), ("indirect", Transmission::Indirect)];

/// The two deployments: Pastry with whole sites per group on fewer nodes
/// than groups (collocated groups deliver locally, a joiner inherits some),
/// and Chord with URL-hashed groups, one per node.
fn deployment(name: &str) -> NetRunConfig {
    let base = NetRunConfig { k: 12, t_end: 400.0, sample_every: 4.0, ..NetRunConfig::default() };
    match name {
        "pastry-site" => NetRunConfig {
            overlay: OverlayKind::Pastry,
            strategy: Strategy::HashBySite,
            n_nodes: 8,
            seed: 3,
            ..base
        },
        "chord-url" => NetRunConfig {
            overlay: OverlayKind::Chord,
            strategy: Strategy::HashByUrl,
            n_nodes: 12,
            seed: 5,
            ..base
        },
        other => panic!("no deployment {other}"),
    }
}

const SCENARIOS: [&str; 8] = [
    "lossless",
    "loss",
    "loss-reliable-jitter",
    "crash-warm",
    "crash-cold",
    "join",
    "delta-add-only",
    "delta-insert-page",
];

fn scenario(name: &str, g: &WebGraph, cfg: NetRunConfig) -> NetRunConfig {
    let crash = 60.0;
    let crashed = |cfg: NetRunConfig, replication| {
        let victim = group_owners(&cfg)[0];
        NetRunConfig {
            replication,
            departures: vec![(crash, victim)],
            faults: Some(FaultPlan::new().with_latency(0.01).with_permanent_crash(victim, crash)),
            ..cfg
        }
    };
    match name {
        "lossless" => cfg,
        "loss" => NetRunConfig { send_success_prob: 0.8, ..cfg },
        "loss-reliable-jitter" => NetRunConfig {
            faults: Some(
                FaultPlan::new()
                    .with_latency(0.01)
                    .with_default_success(0.8)
                    .with_jitter(Jitter::Uniform { max: 0.005 }),
            ),
            reliability: Some(Reliability::default()),
            ..cfg
        },
        "crash-warm" => crashed(cfg, 2),
        "crash-cold" => crashed(cfg, 0),
        "join" => NetRunConfig { joins: vec![(50.0, 901), (70.0, 902)], ..cfg },
        "delta-add-only" => {
            let n = g.n_pages() as u32;
            let ops = (0..12u32)
                .map(|i| DeltaOp::AddLink { from: (37 * i + 5) % n, to: (101 * i + 17) % n })
                .collect();
            NetRunConfig { deltas: vec![(80.0, GraphDelta::new(ops))], ..cfg }
        }
        "delta-insert-page" => {
            let mut delta = GraphDelta::link_churn(g, 0.02, 7);
            delta.ops.push(DeltaOp::DeletePage { page: 3 });
            delta.ops.push(DeltaOp::InsertPage { site: 1, ext_out: 2, links: vec![0, 1, 250] });
            NetRunConfig { deltas: vec![(80.0, delta)], ..cfg }
        }
        other => panic!("no scenario {other}"),
    }
}

/// Runs one cell at 1 and 2 engine workers, the first with `observe`
/// attached, holds it to centralized PageRank, and returns its digest.
fn run_cell(
    name: &str,
    g: &WebGraph,
    cfg: &NetRunConfig,
    observe: &mut dyn FnMut(&Sample<'_>),
) -> u64 {
    let run = |engine_workers, observe: &mut dyn FnMut(&Sample<'_>)| {
        let cfg = NetRunConfig { engine_workers, ..cfg.clone() };
        try_run_over_network_observed(g, cfg, None, observe)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let res = run(1, observe);
    let digest = netrun_digest(&res);
    assert_eq!(
        netrun_digest(&run(2, &mut |_| {})),
        digest,
        "{name}: 2 engine workers moved the digest"
    );

    let reference = centralized(g, &cfg.deltas);
    assert_eq!(res.final_ranks.len(), reference.len(), "{name}");
    let err = dpr::linalg::vec_ops::relative_error(&res.final_ranks, &reference);
    assert!(err < 1e-12, "{name}: relative error {err} against centralized PageRank");
    assert_eq!(top10(&res.final_ranks), top10(&reference), "{name}: top-10 differs");
    match cfg.replication {
        0 => assert_eq!(res.counters.takeovers_warm + res.counters.takeovers_cold, 0, "{name}"),
        _ => assert!(res.counters.takeovers_warm > 0, "{name}: no warm takeover"),
    }
    if !cfg.deltas.is_empty() {
        assert!(res.counters.delta_messages > 0, "{name}: the delta dirtied no hosted group");
    }
    if cfg.send_success_prob < 1.0 || cfg.reliability.is_some() {
        assert!(res.sim_stats.sends_dropped > 0, "{name}: nothing was lost");
    }
    // Only direct transmission looks owners up (§4.4).
    let looks_up = cfg.transmission == Transmission::Direct;
    assert_eq!(res.counters.lookup_messages > 0, looks_up, "{name}");
    digest
}

/// Compares `got` against the committed `table`; on any difference prints
/// the whole table as it should now read.
fn check(table: &[(&str, u64)], got: &[(String, u64)]) {
    let moved: Vec<&str> = got
        .iter()
        .filter(|(name, d)| !table.iter().any(|(n, e)| n == name && e == d))
        .map(|(name, _)| name.as_str())
        .collect();
    if moved.is_empty() && table.len() == got.len() {
        return;
    }
    let listing: String =
        got.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n")).collect();
    panic!("digests moved in {} cell(s): {moved:?}\nthe table now reads:\n{listing}", moved.len());
}

/// Which deployment a cell of the main sweep runs on: alternating, so each
/// deployment meets both variants, both transmissions and every scenario
/// (joins are Pastry-only).
fn deployment_of(scenario: usize, variant: usize, transmission: usize) -> &'static str {
    if SCENARIOS[scenario] == "join" || (scenario + variant + transmission).is_multiple_of(2) {
        "pastry-site"
    } else {
        "chord-url"
    }
}

fn netrun_cells(on: &str) -> Vec<(String, u64)> {
    let g = web();
    let mut got = Vec::new();
    let mut cell = |sc: &str, (vname, variant): (&str, _), (tname, transmission): (&str, _)| {
        let cfg = NetRunConfig { variant, transmission, ..deployment(on) };
        let name = format!("{vname}/{tname}/{on}/{sc}");
        let digest = run_cell(&name, &g, &scenario(sc, &g, cfg), &mut |_| {});
        got.push((name, digest));
    };
    for (si, sc) in SCENARIOS.iter().enumerate() {
        for (vi, variant) in VARIANTS.into_iter().enumerate() {
            for (ti, transmission) in TRANSMISSIONS.into_iter().enumerate() {
                // The main sweep, plus the lossless cells on the other
                // deployment too: the plain path in full product.
                if deployment_of(si, vi, ti) == on || *sc == "lossless" {
                    cell(sc, variant, transmission);
                }
            }
        }
    }
    got
}

const PASTRY_SITE: &[(&str, u64)] = &[
    ("dpr1/direct/pastry-site/lossless", 0xcc809776ab299c94),
    ("dpr1/indirect/pastry-site/lossless", 0x32bd2474527fd247),
    ("dpr2/direct/pastry-site/lossless", 0x2f1a8fc739e32278),
    ("dpr2/indirect/pastry-site/lossless", 0x919625d11bf618e6),
    ("dpr1/indirect/pastry-site/loss", 0xbf1fd84121202ab2),
    ("dpr2/direct/pastry-site/loss", 0x1cdbf1df5936b253),
    ("dpr1/direct/pastry-site/loss-reliable-jitter", 0x0bd18fc7ba30ae34),
    ("dpr2/indirect/pastry-site/loss-reliable-jitter", 0x19c3b4151228012b),
    ("dpr1/indirect/pastry-site/crash-warm", 0x7add5a3667dad2f0),
    ("dpr2/direct/pastry-site/crash-warm", 0x6be8864a858b184c),
    ("dpr1/direct/pastry-site/crash-cold", 0x079c78a80da5ca21),
    ("dpr2/indirect/pastry-site/crash-cold", 0x271b01a3460d902b),
    ("dpr1/direct/pastry-site/join", 0x7714b6a03eb9c9ac),
    ("dpr1/indirect/pastry-site/join", 0xbcd5765285bb11fa),
    ("dpr2/direct/pastry-site/join", 0x0a190332a708714d),
    ("dpr2/indirect/pastry-site/join", 0x6a4474ba8b5dbe6e),
    ("dpr1/direct/pastry-site/delta-add-only", 0xbf85b57069f9caae),
    ("dpr2/indirect/pastry-site/delta-add-only", 0x58aab73a81394f05),
    ("dpr1/indirect/pastry-site/delta-insert-page", 0x61f9bc7315090e19),
    ("dpr2/direct/pastry-site/delta-insert-page", 0xf7c59527704953ec),
];

const CHORD_URL: &[(&str, u64)] = &[
    ("dpr1/direct/chord-url/lossless", 0xe37c43c43824a62d),
    ("dpr1/indirect/chord-url/lossless", 0xa5e0693c86a937c6),
    ("dpr2/direct/chord-url/lossless", 0xaca6db49f3a0eeb1),
    ("dpr2/indirect/chord-url/lossless", 0x512a1e9666a0a560),
    ("dpr1/direct/chord-url/loss", 0xdc3007226f06db61),
    ("dpr2/indirect/chord-url/loss", 0x86aab83e35e93fc6),
    ("dpr1/indirect/chord-url/loss-reliable-jitter", 0xadb8d80696c29563),
    ("dpr2/direct/chord-url/loss-reliable-jitter", 0x107432a4f1c93344),
    ("dpr1/direct/chord-url/crash-warm", 0x69fa413da09204dd),
    ("dpr2/indirect/chord-url/crash-warm", 0x454e56174d1e3381),
    ("dpr1/indirect/chord-url/crash-cold", 0xc466d55d818f0f87),
    ("dpr2/direct/chord-url/crash-cold", 0x55db8415e33984fc),
    ("dpr1/indirect/chord-url/delta-add-only", 0x84c686eec192fad6),
    ("dpr2/direct/chord-url/delta-add-only", 0xfb653a6af46bd400),
    ("dpr1/direct/chord-url/delta-insert-page", 0x21aa876457a675f9),
    ("dpr2/indirect/chord-url/delta-insert-page", 0x769ea1689895e53d),
];

const SECTION5: &[(&str, u64)] = &[
    ("dpr1/p1/site", 0xd1ec354b7828d6a3),
    ("dpr1/p1/url", 0x46f84ca1086c94de),
    ("dpr1/p1/site/warm", 0x491a844e0ed67df1),
    ("dpr1/p0.7/site", 0x5f68f1e78c849da7),
    ("dpr1/p0.7/url", 0x28ef35a86510a450),
    ("dpr1/p0.7/site/warm", 0x65e1f21df4b4a324),
    ("dpr2/p1/site", 0x2a1d122672d985e5),
    ("dpr2/p1/url", 0xca9e04c407ce369b),
    ("dpr2/p1/url/warm", 0xd0b57d9d661bc365),
    ("dpr2/p0.7/site", 0x236c1e630a8abc5d),
    ("dpr2/p0.7/url", 0x26d04130e7a5380e),
    ("dpr2/p0.7/url/warm", 0x4b360055be33d823),
];

#[test]
fn netrun_cells_on_pastry_by_site() {
    check(PASTRY_SITE, &netrun_cells("pastry-site"));
}

#[test]
fn netrun_cells_on_chord_by_url() {
    check(CHORD_URL, &netrun_cells("chord-url"));
}

/// The §5 cells rank a recrawl of `web()` in the deployment shape of the
/// paper's evaluation: both variants, both loss rates of Figs 6–7, both
/// strategies. From `R₀ = 0` under direct transmission every cell must
/// also keep Theorems 4.1/4.2 and Fig 7's monotone average rank. One warm
/// cell per variant and loss rate starts from the previous crawl's
/// converged ranks instead, where the theorems make no promise.
#[test]
fn run_distributed_cells() {
    let previous = web();
    let g = GraphDelta::link_churn(&previous, 0.05, 11).apply(&previous);
    let bound = open_pagerank(&g, &RankConfig::default()).ranks;
    let warm = open_pagerank(&previous, &RankConfig::default()).ranks;
    let mut got = Vec::new();
    for (vi, (vname, variant)) in VARIANTS.into_iter().enumerate() {
        for p in [1.0, 0.7] {
            let cfg = |strategy| NetRunConfig {
                variant,
                strategy,
                send_success_prob: p,
                seed: 9,
                t1: 0.0,
                t2: 6.0,
                t_end: 300.0,
                sample_every: 3.0,
                ..NetRunConfig::section5(12)
            };
            for (sname, strategy) in STRATEGIES {
                let name = format!("{vname}/p{p}/{sname}");
                let mut rec = RunRecorder::new(1e-4).with_bound(bound.clone());
                let digest = run_cell(&name, &g, &cfg(strategy), &mut |s| rec.observe(s));
                got.push((name.clone(), digest));
                assert_eq!(rec.theorems_held(), (true, true), "{name}");
                assert!(rec.avg_rank.is_monotone_nondecreasing(1e-9), "{name}");
                assert!(rec.epochs_at_threshold.is_some(), "{name}: never reached 0.01%");
            }
            let (sname, strategy) = STRATEGIES[vi];
            let name = format!("{vname}/p{p}/{sname}/warm");
            let cfg = NetRunConfig { warm_start: Some(warm.clone()), ..cfg(strategy) };
            got.push((name.clone(), run_cell(&name, &g, &cfg, &mut |_| {})));
        }
    }
    check(SECTION5, &got);
}

/// Observation moves no bit: a §5 run with a recorder attached has the
/// digest — rank bits, `rel_err`, `SimStats`, every `NetCounters` field —
/// of the same run without one.
#[test]
fn observation_is_bit_neutral() {
    let g = web();
    let cfg = NetRunConfig {
        send_success_prob: 0.7,
        t1: 0.0,
        t2: 6.0,
        t_end: 150.0,
        ..NetRunConfig::section5(12)
    };
    let bound = open_pagerank(&g, &cfg.rank).ranks;
    let mut rec = RunRecorder::new(1e-4).with_bound(bound);
    let observed = try_run_over_network_observed(&g, cfg.clone(), None, &mut |s| rec.observe(s))
        .expect("a valid configuration");
    let plain = try_run_over_network(&g, cfg).expect("a valid configuration");
    assert_eq!(netrun_digest(&observed), netrun_digest(&plain));
    assert_eq!(rec.avg_rank.len(), observed.rel_err.len(), "one sample per slice");
    assert_eq!(rec.theorems_held(), (true, true));
    assert!(rec.epochs_at_threshold.is_some_and(|e| e >= 1.0));
}
