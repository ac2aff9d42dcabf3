//! **ABL-PARTITION** — the §4.1 partitioning ablation: cut links, balance
//! and communication fan-out for the three dividing strategies, plus the
//! re-crawl stability that rules the random strategy out.
//!
//! Expected shape: hash-by-site cuts ~10x fewer links than hash-by-URL or
//! random (because ~90% of links are intra-site), and only the hash
//! strategies keep a page on the same ranker across crawls.
//!
//! Asserted (the bin exits non-zero when one fails): hash-by-site cuts at
//! least 5x fewer links than hash-by-URL, both hash strategies are 100%
//! re-crawl stable, and random is below 50%.
//!
//! Usage: `partition_ablation [--pages N] [--sites S] [--k K]`

use dpr_bench::BenchArgs;
use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
use dpr_graph::refresh::recrawl;
use dpr_partition::{Partition, PartitionMetrics, Strategy};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    strategy: String,
    cut_links: usize,
    cut_fraction: f64,
    balance: f64,
    non_empty_groups: usize,
    mean_out_partners: f64,
    recrawl_stability: f64,
}

fn main() {
    let args = BenchArgs::from_env("partition_ablation");
    let pages = args.get("pages", 100_000usize);
    let sites = args.get("sites", 100usize);
    let k = args.get("k", 64usize);

    eprintln!("[partition] generating edu-domain graph: {pages} pages, {sites} sites");
    let g = edu_domain(&EduDomainConfig {
        n_pages: pages,
        n_sites: sites,
        ..EduDomainConfig::default()
    });
    eprintln!(
        "[partition] intra-site link fraction: {:.3} (paper's [16]: ~0.9)",
        g.intra_site_fraction()
    );
    // A second crawl of the same web: 20% of pages changed links, 5% growth.
    let (g2, _) = recrawl(&g, 0.2, 0.05, 99);

    let strategies = [Strategy::Random { seed: 11 }, Strategy::HashByUrl, Strategy::HashBySite];
    let mut rows = Vec::new();
    for s in strategies {
        let p = Partition::build(&g, &s, k, 0);
        let m = PartitionMetrics::compute(&g, &p);
        // Same strategy, next dividing event (epoch 1), on the re-crawl.
        let p2 = Partition::build(&g2, &s, k, 1);
        let stability = p.stability(&p2);
        rows.push(Row {
            strategy: s.name().to_string(),
            cut_links: m.cut_links,
            cut_fraction: m.cut_fraction,
            balance: m.balance,
            non_empty_groups: m.non_empty_groups,
            mean_out_partners: m.mean_out_partners,
            recrawl_stability: stability,
        });
    }

    println!("\n§4.1 partitioning ablation (K = {k}, {pages} pages, {sites} sites)\n");
    println!(
        "{:<14} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "strategy", "cut links", "cut %", "balance", "groups", "partners", "stability"
    );
    for r in &rows {
        println!(
            "{:<14} {:>10} {:>7.1}% {:>8.2} {:>8} {:>10.1} {:>9.1}%",
            r.strategy,
            r.cut_links,
            r.cut_fraction * 100.0,
            r.balance,
            r.non_empty_groups,
            r.mean_out_partners,
            r.recrawl_stability * 100.0
        );
    }
    let by_name = |name: &str| rows.iter().find(|r| r.strategy == name).unwrap();
    let (site, url, random) = (by_name("hash-by-site"), by_name("hash-by-url"), by_name("random"));
    let fewer = url.cut_fraction / site.cut_fraction.max(1e-12);
    println!(
        "\nhash-by-site cuts {fewer:.1}x fewer links than hash-by-url and is {:.0}% re-crawl stable \
         (paper: \"divide at site-granularity ... can reduce communication overhead greatly\").",
        site.recrawl_stability * 100.0
    );
    assert!(fewer >= 5.0, "hash-by-site cuts only {fewer:.1}x fewer links than hash-by-url");
    for r in [site, url] {
        assert!(r.recrawl_stability == 1.0, "{} is not re-crawl stable", r.strategy);
    }
    assert!(
        random.recrawl_stability < 0.5,
        "random is {:.1}% stable",
        random.recrawl_stability * 100.0
    );

    if let Err(e) = args.emit(&rows) {
        eprintln!("[partition] JSON write failed: {e}");
    }
}
