//! **CRAWL-MODES** — the parallel-crawler substrate (\[16\], the paper's
//! source for intra-site locality and site-hash responsibility): coverage,
//! overlap and communication for the firewall / cross-over / exchange
//! coordination modes, as the number of crawling agents grows.
//!
//! Asserted at every agent count (the bin exits non-zero when one fails):
//! firewall mode exchanges no URL, cross-over fetches some page twice
//! once there are two agents, and exchange fetches no page twice and
//! covers at least what firewall mode does.
//!
//! Usage: `crawler_modes [--web-pages N] [--sites S] [--max-agents A]`

use dpr_bench::BenchArgs;
use dpr_crawl::crawler::parallel_crawl;
use dpr_crawl::{crawl_to_graph, CrawlBudget, HiddenWeb, HiddenWebConfig, Mode};
use dpr_graph::GraphStats;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mode: String,
    agents: usize,
    pages_fetched: usize,
    coverage_pct: f64,
    overlap: u64,
    urls_exchanged: u64,
    exchanged_per_page: f64,
}

fn main() {
    let args = BenchArgs::from_env("crawler_modes");
    let web_pages = args.get("web-pages", 100_000u64);
    let sites = args.get("sites", 100usize);
    let max_agents = args.get("max-agents", 16usize);

    let web = HiddenWeb::new(HiddenWebConfig {
        total_pages: web_pages,
        n_sites: sites,
        ..HiddenWebConfig::default()
    });
    eprintln!("[crawl] hidden web: {web_pages} pages, {sites} sites");

    let budget = CrawlBudget { max_pages: usize::MAX };
    let mut rows = Vec::new();
    for agents in [1usize, 2, 4, 8, 16] {
        if agents > max_agents {
            break;
        }
        for (name, mode) in [
            ("firewall", Mode::Firewall),
            ("crossover", Mode::CrossOver),
            ("exchange", Mode::Exchange),
        ] {
            let res = parallel_crawl(&web, agents, mode, budget);
            rows.push(Row {
                mode: name.to_string(),
                agents,
                pages_fetched: res.fetched.len(),
                coverage_pct: res.outcome.coverage * 100.0,
                overlap: res.outcome.overlap,
                urls_exchanged: res.outcome.urls_exchanged,
                exchanged_per_page: res.outcome.urls_exchanged as f64
                    / res.fetched.len().max(1) as f64,
            });
        }
        let [fw, co, ex] = &rows[rows.len() - 3..] else { unreachable!("three modes per sweep") };
        assert_eq!(fw.urls_exchanged, 0, "{agents} agents: firewall mode exchanged URLs");
        assert!(agents == 1 || co.overlap > 0, "{agents} agents: cross-over never overlapped");
        assert_eq!(ex.overlap, 0, "{agents} agents: exchange mode fetched a page twice");
        assert!(ex.coverage_pct >= fw.coverage_pct, "{agents} agents: exchange covers less");
        eprintln!("[crawl] finished {agents}-agent sweep");
    }

    println!("\nParallel crawler modes ([16]) on a {web_pages}-page hidden web\n");
    println!(
        "{:>7} {:<10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "agents", "mode", "fetched", "coverage", "overlap", "exchanged", "per page"
    );
    for r in &rows {
        println!(
            "{:>7} {:<10} {:>10} {:>9.1}% {:>10} {:>12} {:>10.2}",
            r.agents,
            r.mode,
            r.pages_fetched,
            r.coverage_pct,
            r.overlap,
            r.urls_exchanged,
            r.exchanged_per_page
        );
    }

    // Show the dataset the ranking pipeline would receive from the best
    // mode at the largest scale.
    let res = parallel_crawl(&web, max_agents.min(16), Mode::Exchange, budget);
    let g = crawl_to_graph(&web, &res.fetched);
    println!("\nExchange-mode dataset fed to the rankers:\n{}", GraphStats::compute(&g));
    println!(
        "\n(~1 exchanged URL per page — [16]'s locality statistic — is what keeps §4.1's \
         site partitioning cheap.)"
    );

    if let Err(e) = args.emit(&rows) {
        eprintln!("[crawl] JSON write failed: {e}");
    }
}
