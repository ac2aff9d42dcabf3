//! The four workloads: what each one is, and how its inputs are made
//! from `--seed`.
//!
//! A workload is a [`Spec`] (scale, partitioning, overlay, variant, fault
//! model, disturbance, query pacing). [`generate`] turns `(spec, seed)`
//! into [`Inputs`]: a `DPRG1` snapshot on disk, a complete
//! [`NetRunConfig`] (deltas, faults and departures included) and the seed
//! of the query stream. The program under test only ever sees these
//! generated inputs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dpr_core::{group_owners, DprVariant, NetRunConfig, OverlayKind, Reliability, Transmission};
use dpr_crawl::{
    crawl_bfs, crawl_growth_delta, crawl_to_graph, CrawlBudget, HiddenWeb, HiddenWebConfig,
};
use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr_graph::urls::splitmix64;
use dpr_graph::{DeltaOp, GraphDelta, WebGraph};
use dpr_partition::Strategy;
use dpr_sim::FaultPlan;

/// Where the page graph comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// `edu_domain` synthesizer (the paper's dataset shape).
    Edu,
    /// `crawl_bfs` of a `HiddenWeb` with this many pages in total.
    Crawl { web_pages: u64 },
}

/// What disturbs the converged system mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disturb {
    /// One delta adding `frac` more internal links (a refresh of the crawl
    /// that discovered them), see [`link_discovery`].
    Discover { at: f64, frac: f64 },
    /// Permanent crash of the owner of group 0.
    Crash { at: f64 },
    /// `count` continued-crawl deltas of `frac` more pages each.
    Growth { first_at: f64, every: f64, count: usize, frac: f64 },
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub source: Source,
    pub pages: usize,
    pub sites: usize,
    pub k: usize,
    pub nodes: usize,
    pub overlay: OverlayKind,
    pub variant: DprVariant,
    pub strategy: Strategy,
    pub transmission: Transmission,
    /// Per-message success probability (the paper's `p`).
    pub success_prob: f64,
    pub reliable: bool,
    pub replication: usize,
    pub t_end: f64,
    pub sample_every: f64,
    pub disturb: Disturb,
    /// Sleep of the serve-phase publisher between epoch swaps.
    pub publisher_pace_ms: u64,
    /// `NetRunConfig::seed`: overlay node ids, per-node think-time means,
    /// loss rolls. The simulated deployment belongs to the workload, not to
    /// its inputs: with 64 to 256 nodes, redrawing it moves
    /// `converge_vtime` by a third either way, which would hide any change
    /// in the program. `--seed` makes the graph, the delta and the queries.
    pub deployment_seed: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "rank-1m",
        why: "1M pages by site on Pastry, DPR1: the headline scale; big groups make the inner solve and memory the limit",
        source: Source::Edu,
        pages: 1_000_000,
        sites: 100,
        k: 100,
        nodes: 256,
        overlay: OverlayKind::Pastry,
        variant: DprVariant::Dpr1,
        strategy: Strategy::HashBySite,
        transmission: Transmission::Indirect,
        success_prob: 1.0,
        reliable: false,
        replication: 0,
        t_end: 100.0,
        sample_every: 2.0,
        disturb: Disturb::Discover { at: 60.0, frac: 0.001 },
        publisher_pace_ms: 5,
        deployment_seed: 0xD15C_0000 + 1,
    },
    Spec {
        name: "mesh-100k",
        why: "100k pages by URL on Chord, DPR2, direct, 10% loss, retries, replicas, one crash: the message path does the work, the solve almost none",
        source: Source::Edu,
        pages: 100_000,
        sites: 100,
        k: 64,
        nodes: 128,
        overlay: OverlayKind::Chord,
        variant: DprVariant::Dpr2,
        strategy: Strategy::HashByUrl,
        transmission: Transmission::Direct,
        success_prob: 0.9,
        reliable: true,
        replication: 2,
        t_end: 80.0,
        sample_every: 0.5,
        disturb: Disturb::Crash { at: 55.0 },
        publisher_pace_ms: 5,
        deployment_seed: 0xD15C_0000 + 2,
    },
    Spec {
        name: "crawl-200k",
        why: "200k-page crawl of a 1M-page web growing by three crawl deltas: page inserts force group rebuilds, warm restarts and store epoch hand-off",
        source: Source::Crawl { web_pages: 1_000_000 },
        pages: 200_000,
        sites: 100,
        k: 100,
        nodes: 256,
        overlay: OverlayKind::Pastry,
        variant: DprVariant::Dpr1,
        strategy: Strategy::HashBySite,
        transmission: Transmission::Indirect,
        success_prob: 1.0,
        reliable: false,
        replication: 0,
        t_end: 142.0,
        sample_every: 2.0,
        disturb: Disturb::Growth { first_at: 46.0, every: 32.0, count: 3, frac: 0.001 },
        publisher_pace_ms: 5,
        deployment_seed: 0xD15C_0000 + 3,
    },
    Spec {
        name: "serve-100k",
        why: "100k pages, 64 groups, store published every 0.5 time units and a fast publisher beside the readers: the store does most of the work",
        source: Source::Edu,
        pages: 100_000,
        sites: 100,
        k: 64,
        nodes: 64,
        overlay: OverlayKind::Pastry,
        variant: DprVariant::Dpr1,
        strategy: Strategy::HashBySite,
        transmission: Transmission::Indirect,
        success_prob: 1.0,
        reliable: false,
        replication: 0,
        t_end: 120.0,
        sample_every: 0.5,
        disturb: Disturb::Discover { at: 60.0, frac: 0.001 },
        publisher_pace_ms: 1,
        deployment_seed: 0xD15C_0000 + 4,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--quick` scale: at most 20k pages on a fifth of the nodes,
    /// same phases, disturbances and checks.
    pub fn quick(self) -> Spec {
        let pages = self.pages.min(20_000);
        let shrink = |n: usize| (n / 4).max(16);
        Spec {
            pages,
            sites: self.sites.min(40),
            k: shrink(self.k),
            nodes: shrink(self.nodes),
            source: match self.source {
                Source::Edu => Source::Edu,
                Source::Crawl { .. } => Source::Crawl { web_pages: 4 * pages as u64 },
            },
            ..self
        }
    }

    /// Times at which the system is disturbed.
    pub fn disturb_times(&self) -> Vec<f64> {
        match self.disturb {
            Disturb::Discover { at, .. } | Disturb::Crash { at } => vec![at],
            Disturb::Growth { first_at, every, count, .. } => {
                (0..count).map(|i| first_at + every * i as f64).collect()
            }
        }
    }
}

/// One independent stream per use of the seed (the repository's own
/// `splitmix64` of a mixed key).
pub fn mix(seed: u64, stream: u64) -> u64 {
    splitmix64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
}

/// The next value of the `splitmix64` sequence whose state is `x`.
pub fn next_u64(x: &mut u64) -> u64 {
    let out = splitmix64(*x);
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// Input-generation timings of the crawl source (the `crawl.*` layer).
#[derive(Debug, Clone, Copy, Default)]
pub struct CrawlTimings {
    pub bfs_pages: usize,
    pub bfs_secs: f64,
    pub growth_secs: f64,
}

/// Everything the program under test is given.
pub struct Inputs {
    /// The `DPRG1` snapshot the set-up phase loads.
    pub snapshot: PathBuf,
    /// Complete run configuration, disturbance included.
    pub cfg: NetRunConfig,
    /// Seed of the serve-phase query stream.
    pub query_seed: u64,
    /// 64-bit digest of the generated graph, printed in the run's header.
    pub graph_digest: u64,
    /// Site of every page the run ends with (inserted pages included).
    pub final_sites: Vec<u32>,
    pub n_sites: usize,
    /// Present when the graph came from a crawl.
    pub crawl: Option<CrawlTimings>,
}

fn edu_graph(spec: &Spec, seed: u64) -> WebGraph {
    edu_domain(&EduDomainConfig {
        n_pages: spec.pages,
        n_sites: spec.sites,
        seed: mix(seed, 1),
        ..EduDomainConfig::default()
    })
}

/// FNV-1a over the adjacency — cheap, and different for different graphs.
fn digest(g: &WebGraph) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    eat(g.n_pages() as u64);
    for (u, v) in g.links() {
        eat(u64::from(u) << 32 | u64::from(v));
    }
    h
}

/// A refresh of the crawl that discovered `frac` more internal links:
/// `round(frac · links)` `AddLink`s between uniformly drawn distinct pages,
/// ordered by source. Every source's out-degree grows, so each dirtied
/// group is patched, warm-restarted and shipped the delta.
///
/// Add-only on purpose. `GraphDelta::link_churn` also removes links, and
/// when it removes the last link between two groups the destination keeps
/// the source's last `Y` part for ever (`compute_y` no longer names that
/// destination, so nothing replaces it): about one seed in five then
/// stalls near 1e-6 relative error at 100k pages instead of 1e-13. That is
/// a defect of the delta path to fix in its own change, not a workload.
pub fn link_discovery(g: &WebGraph, frac: f64, seed: u64) -> GraphDelta {
    let n = g.n_pages() as u64;
    let count = ((g.n_internal_links() as f64 * frac).round() as usize).max(1);
    let mut rng = seed;
    let mut next = || {
        rng = mix(rng, 7);
        rng
    };
    let mut pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
    while pairs.len() < count {
        let (u, v) = ((next() % n) as u32, (next() % n) as u32);
        if u != v && !g.out_links(u).contains(&v) {
            pairs.insert((u, v));
        }
    }
    GraphDelta::new(pairs.into_iter().map(|(from, to)| DeltaOp::AddLink { from, to }).collect())
}

/// Crawls `spec.pages` pages and returns the graph, the deltas of the
/// continued crawl (each `frac` more pages) and the graph they end on.
fn crawl_graph(spec: &Spec, seed: u64) -> (WebGraph, Vec<GraphDelta>, WebGraph, CrawlTimings) {
    let Source::Crawl { web_pages } = spec.source else { unreachable!("crawl source only") };
    let (count, frac) = match spec.disturb {
        Disturb::Growth { count, frac, .. } => (count, frac),
        _ => (0, 0.0),
    };
    let web = HiddenWeb::new(HiddenWebConfig {
        total_pages: web_pages,
        n_sites: spec.sites,
        seed: mix(seed, 1),
        ..HiddenWebConfig::default()
    });
    let step = (spec.pages as f64 * frac).round() as usize;
    // One BFS to the final size; its prefixes are the successive crawls.
    let t0 = Instant::now();
    let all = crawl_bfs(&web, CrawlBudget { max_pages: spec.pages + count * step }).fetched;
    let bfs_secs = t0.elapsed().as_secs_f64();
    assert!(all.len() == spec.pages + count * step, "hidden web too small for the crawl budget");
    let base = crawl_to_graph(&web, &all[..spec.pages]);
    let t0 = Instant::now();
    let mut deltas = Vec::with_capacity(count);
    let mut grown = base.clone();
    for i in 0..count {
        let have = spec.pages + i * step;
        let d = crawl_growth_delta(&web, &grown, &all[..have], &all[have..have + step]);
        grown = d.apply(&grown);
        deltas.push(d);
    }
    let growth_secs = t0.elapsed().as_secs_f64();
    let t = CrawlTimings { bfs_pages: all.len(), bfs_secs, growth_secs };
    (base, deltas, grown, t)
}

/// Crawl timings of `spec` alone (the traced pass of a workload whose
/// graph is not crawled measures the crawl layer on a small web).
pub fn crawl_timings(spec: &Spec, seed: u64) -> CrawlTimings {
    crawl_graph(spec, seed).3
}

fn sites_of(g: &WebGraph) -> Vec<u32> {
    (0..g.n_pages() as u32).map(|p| g.site(p)).collect()
}

/// The *generate* phase: graph → snapshot file, plus the run configuration.
pub fn generate(spec: &Spec, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    let snapshot = dir.join(format!("{}-{seed}-{}.dprg1", spec.name, std::process::id()));
    let mut cfg = NetRunConfig {
        k: spec.k,
        n_nodes: spec.nodes,
        transmission: spec.transmission,
        overlay: spec.overlay,
        variant: spec.variant,
        strategy: spec.strategy,
        send_success_prob: spec.success_prob,
        seed: spec.deployment_seed,
        t_end: spec.t_end,
        sample_every: spec.sample_every,
        reliability: spec.reliable.then(Reliability::default),
        replication: spec.replication,
        engine_workers: 1,
        ..NetRunConfig::default()
    };
    let (graph, final_sites, crawl) = match spec.source {
        Source::Edu => {
            let g = edu_graph(spec, seed);
            let sites = sites_of(&g);
            (g, sites, None)
        }
        Source::Crawl { .. } => {
            let (g, deltas, grown, t) = crawl_graph(spec, seed);
            cfg.deltas = spec.disturb_times().into_iter().zip(deltas).collect();
            (g, sites_of(&grown), Some(t))
        }
    };
    match spec.disturb {
        Disturb::Discover { at, frac } => {
            cfg.deltas = vec![(at, link_discovery(&graph, frac, mix(seed, 3)))];
        }
        Disturb::Crash { at } => {
            let victim = group_owners(&cfg)[0];
            cfg.departures = vec![(at, victim)];
            cfg.faults = Some(
                FaultPlan::new()
                    .with_latency(0.01)
                    .with_default_success(spec.success_prob)
                    .with_permanent_crash(victim, at),
            );
        }
        Disturb::Growth { .. } => {}
    }
    dpr_graph::io::save_snapshot(&graph, &snapshot)?;
    Ok(Inputs {
        snapshot,
        cfg,
        query_seed: mix(seed, 4),
        graph_digest: digest(&graph),
        final_sites,
        n_sites: graph.n_sites(),
        crawl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        std::env::temp_dir().join(format!("dpr-benchmark-test-{}", std::process::id()))
    }

    fn inputs(spec: &Spec, seed: u64) -> Inputs {
        let i = generate(spec, seed, &tmp()).expect("inputs are written");
        std::fs::remove_file(&i.snapshot).expect("snapshot was written");
        i
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_another_graph() {
        for spec in WORKLOADS.map(Spec::quick) {
            let (a, b, c) = (inputs(&spec, 7), inputs(&spec, 7), inputs(&spec, 8));
            assert_eq!(a.graph_digest, b.graph_digest, "{}: same seed, other graph", spec.name);
            assert_eq!(a.cfg.deltas, b.cfg.deltas, "{}: same seed, other deltas", spec.name);
            assert_eq!(a.query_seed, b.query_seed);
            assert_ne!(a.graph_digest, c.graph_digest, "{}: other seed, same graph", spec.name);
            assert_ne!(a.query_seed, c.query_seed);
            // The simulated deployment belongs to the workload.
            assert_eq!(a.cfg.seed, c.cfg.seed);
            assert_eq!(a.cfg.departures, c.cfg.departures);
        }
    }

    #[test]
    fn quick_specs_stay_small_and_keep_their_disturbance() {
        for w in WORKLOADS {
            let q = w.quick();
            assert!(q.pages <= 20_000 && q.k <= w.k && q.nodes <= w.nodes);
            assert_eq!(q.disturb, w.disturb);
            assert_eq!(q.disturb_times(), w.disturb_times());
            assert!(w.disturb_times().iter().all(|&t| t < w.t_end));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn a_discovery_delta_only_adds_links_that_were_not_there() {
        let g = edu_graph(&WORKLOADS[3].quick(), 3);
        let d = link_discovery(&g, 0.01, 11);
        assert_eq!(d.ops.len(), (g.n_internal_links() as f64 * 0.01).round() as usize);
        for op in &d.ops {
            let DeltaOp::AddLink { from, to } = op else { panic!("add-only delta holds {op:?}") };
            assert!(from != to && !g.out_links(*from).contains(to));
        }
        assert_eq!(d, link_discovery(&g, 0.01, 11));
        assert_ne!(d, link_discovery(&g, 0.01, 12));
        assert_eq!(d.apply(&g).n_internal_links(), g.n_internal_links() + d.ops.len());
    }
}
