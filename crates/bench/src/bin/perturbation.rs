//! **PERTURBATION** — how far does a localized graph change travel?
//!
//! The paper's dynamic-graph story (§4.3) and the incremental-ranking use
//! case rest on an empirical property: PageRank perturbations decay
//! geometrically with link distance (each hop multiplies the disturbance
//! by at most α divided across out-links). This experiment rewires the
//! out-links of a single site, re-solves, and bins |ΔR| by BFS distance
//! from the changed pages — showing why warm restarts after a small
//! re-crawl converge so quickly.
//!
//! Asserted (the bin exits non-zero when it fails): mean |ΔR| falls
//! strictly from distance 0 to 1 to 2, and distance 0 is at least 10×
//! distance 2.
//!
//! Usage: `perturbation [--pages N] [--sites S] [--site SID]`

use dpr_bench::BenchArgs;
use dpr_core::{open_pagerank, RankConfig};
use dpr_graph::analysis::bfs_distance;
use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr_graph::{GraphBuilder, WebGraph};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    distance: u32,
    pages: usize,
    mean_abs_delta: f64,
    max_abs_delta: f64,
}

/// Rebuilds `g` with the out-links of every page on `site` rewired to
/// deterministic new targets (same degrees).
fn rewire_site(g: &WebGraph, site: u32) -> WebGraph {
    let mut b = GraphBuilder::with_capacity(g.n_pages(), g.n_internal_links());
    for s in 0..g.n_sites() as u32 {
        b.add_site(g.site_name(s).to_string());
    }
    for p in 0..g.n_pages() as u32 {
        b.add_page(g.site(p));
    }
    let n = g.n_pages() as u64;
    for p in 0..g.n_pages() as u32 {
        if g.site(p) == site {
            for (i, _) in g.out_links(p).iter().enumerate() {
                let mut v = (dpr_graph::urls::splitmix64(u64::from(p) * 131 + i as u64) % n) as u32;
                if v == p {
                    v = (v + 1) % g.n_pages() as u32;
                }
                b.add_link(p, v);
            }
            b.add_external_links(p, g.external_out_degree(p));
        } else {
            for &v in g.out_links(p) {
                b.add_link(p, v);
            }
            b.add_external_links(p, g.external_out_degree(p));
        }
    }
    b.build()
}

fn main() {
    let args = BenchArgs::from_env("perturbation");
    let pages = args.get("pages", 50_000usize);
    let sites = args.get("sites", 100usize);
    let site = args.get("site", 5u32);

    eprintln!("[perturbation] generating edu-domain graph: {pages} pages");
    let g = edu_domain(&EduDomainConfig {
        n_pages: pages,
        n_sites: sites,
        ..EduDomainConfig::default()
    });
    let cfg = RankConfig { epsilon: 1e-12, ..RankConfig::default() };
    let before = open_pagerank(&g, &cfg).ranks;

    let g2 = rewire_site(&g, site);
    let after = open_pagerank(&g2, &cfg).ranks;

    // Distance from the changed pages (seeds = the rewired site, measured
    // on the *new* graph where the perturbation propagates).
    let seeds: Vec<u32> = (0..g.n_pages() as u32).filter(|&p| g.site(p) == site).collect();
    eprintln!("[perturbation] rewired site {site}: {} pages", seeds.len());
    let dist = bfs_distance(&g2, &seeds);

    let max_d = 8u32;
    let mut rows: Vec<Row> = Vec::new();
    for d in 0..=max_d {
        let idx: Vec<usize> = (0..g.n_pages())
            .filter(|&i| dist[i] == d || (d == max_d && dist[i] != u32::MAX && dist[i] >= max_d))
            .collect();
        if idx.is_empty() {
            continue;
        }
        let deltas: Vec<f64> = idx.iter().map(|&i| (after[i] - before[i]).abs()).collect();
        rows.push(Row {
            distance: d,
            pages: idx.len(),
            mean_abs_delta: deltas.iter().sum::<f64>() / deltas.len() as f64,
            max_abs_delta: deltas.iter().fold(0.0f64, |a, &b| a.max(b)),
        });
    }

    println!("\nRank perturbation vs link distance from a rewired site\n");
    println!("{:>9} {:>10} {:>16} {:>16}", "distance", "pages", "mean |dR|", "max |dR|");
    for r in &rows {
        println!(
            "{:>9} {:>10} {:>16.3e} {:>16.3e}",
            if r.distance == max_d { format!("{}+", r.distance) } else { r.distance.to_string() },
            r.pages,
            r.mean_abs_delta,
            r.max_abs_delta
        );
    }
    let near = rows.first().map_or(0.0, |r| r.mean_abs_delta);
    let (far_d, far) = rows.last().map_or((0, 0.0), |r| (r.distance, r.mean_abs_delta));
    println!(
        "\nDecay: mean |dR| falls {:.0}x from the changed pages to distance {far_d} — the locality \
         that makes incremental / warm-started re-ranking after small re-crawls cheap (§4.3).",
        near / far.max(1e-300)
    );
    let [d0, d1, d2] = [0, 1, 2].map(|d| {
        rows.iter().find(|r| r.distance == d).expect("pages at every distance to 2").mean_abs_delta
    });
    assert!(d0 > d1 && d1 > d2, "mean |dR| must fall hop by hop: {d0:.2e}, {d1:.2e}, {d2:.2e}");
    assert!(d0 >= 10.0 * d2, "distance 0 must be >= 10x distance 2: {d0:.2e} vs {d2:.2e}");

    if let Err(e) = args.emit(&rows) {
        eprintln!("[perturbation] JSON write failed: {e}");
    }
}
