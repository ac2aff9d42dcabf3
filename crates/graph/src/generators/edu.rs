//! The edu-domain dataset synthesizer.
//!
//! The paper evaluates on the Google programming-contest dataset: "a
//! selection of HTML web pages from 100 different sites in the edu domain
//! ... nearly 1M pages with overall 15M links", of which "only 7M of the
//! whole 15M links point to pages in the dataset". That dataset is no longer
//! distributed, so this module synthesizes a graph matching every property
//! the paper's conclusions rest on:
//!
//! * 100 sites with skewed (Zipf) size distribution,
//! * a mean total out-degree of 15 links/page,
//! * ≈ 7/15 of links staying inside the crawled set (the rest leak rank out
//!   of the open system — this is what makes the converged average rank land
//!   near 0.3 in Fig 7),
//! * ≈ 90% of internal links staying within the source page's own site
//!   (Cho & Garcia-Molina \[16\]; the §4.1 partitioning argument),
//! * heavy-tailed in-degrees via the copy model.

use std::io::{self, Seek, Write};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Poisson};

use crate::builder::GraphBuilder;
use crate::graph::WebGraph;
use crate::io::SnapshotWriter;
use crate::urls;

/// Parameters of the edu-domain synthesizer.
#[derive(Debug, Clone, Copy)]
pub struct EduDomainConfig {
    /// Number of sites (paper: 100).
    pub n_sites: usize,
    /// Number of crawled pages (paper: ~1M; default scaled to 100k so the
    /// full experiment suite runs on a laptop in minutes).
    pub n_pages: usize,
    /// Mean total out-degree, internal + external (paper: 15).
    pub mean_out_degree: f64,
    /// Fraction of links whose destination is inside the crawled set
    /// (paper: 7M / 15M ≈ 0.467).
    pub internal_fraction: f64,
    /// Of the internal links, the fraction staying on the source page's own
    /// site (\[16\]: ≈ 0.9).
    pub intra_site_fraction: f64,
    /// Copy-model probability for destination choice (higher ⇒ heavier
    /// in-degree tail).
    pub copy_prob: f64,
    /// Zipf exponent for site sizes (0 ⇒ uniform sites).
    pub zipf_exponent: f64,
    /// RNG seed; the generator is fully deterministic per seed.
    pub seed: u64,
}

impl Default for EduDomainConfig {
    fn default() -> Self {
        Self {
            n_sites: 100,
            n_pages: 100_000,
            mean_out_degree: 15.0,
            internal_fraction: 7.0 / 15.0,
            intra_site_fraction: 0.9,
            copy_prob: 0.7,
            zipf_exponent: 0.8,
            seed: 0x0DD5_EED5,
        }
    }
}

impl EduDomainConfig {
    /// A small configuration for fast tests (5k pages, 20 sites).
    #[must_use]
    pub fn small() -> Self {
        Self { n_pages: 5_000, n_sites: 20, ..Self::default() }
    }
}

/// Receives generated page rows, one per page in ascending id order.
///
/// The generator itself never materializes the edge list: each page's
/// destinations are handed over row by row, and the sink decides whether to
/// accumulate them in memory ([`edu_domain`]) or stream them to disk
/// ([`edu_domain_to_snapshot`]).
pub trait PageRowSink {
    /// Called once before any rows with the site host names and the number
    /// of pages on each site (pages occupy contiguous id blocks in site
    /// order, so this fixes every page's site up front).
    ///
    /// # Errors
    /// Sinks backed by I/O may fail.
    fn sites(&mut self, names: &[String], sizes: &[usize]) -> io::Result<()>;
    /// One page row: its site, external out-link count, and **sorted**
    /// internal destination list.
    ///
    /// # Errors
    /// Sinks backed by I/O may fail.
    fn page(&mut self, site: u32, ext_out: u32, dsts: &[u32]) -> io::Result<()>;
}

/// In-memory sink accumulating rows into a [`GraphBuilder`].
struct BuilderSink {
    b: GraphBuilder,
    next_page: u32,
}

impl PageRowSink for BuilderSink {
    fn sites(&mut self, names: &[String], sizes: &[usize]) -> io::Result<()> {
        // Pre-register every page so rows may link forward to pages whose
        // rows have not been emitted yet.
        for (name, &sz) in names.iter().zip(sizes) {
            let site = self.b.add_site(name.clone());
            for _ in 0..sz {
                self.b.add_page(site);
            }
        }
        Ok(())
    }

    fn page(&mut self, site: u32, ext_out: u32, dsts: &[u32]) -> io::Result<()> {
        let p = self.next_page;
        self.next_page += 1;
        let _ = site; // fixed already by the pre-registration in `sites`
        if ext_out > 0 {
            self.b.add_external_links(p, ext_out);
        }
        for &v in dsts {
            self.b.add_link(p, v);
        }
        Ok(())
    }
}

/// Streaming sink writing rows straight to a binary snapshot.
pub struct SnapshotSink<W: Write + Seek> {
    w: Option<SnapshotWriter<W>>,
    raw: Option<W>,
    n_pages: usize,
}

impl<W: Write + Seek> SnapshotSink<W> {
    /// A sink that will write a snapshot of `n_pages` pages to `w`.
    pub fn new(w: W, n_pages: usize) -> Self {
        Self { w: None, raw: Some(w), n_pages }
    }

    /// Backpatches the link count and returns the underlying writer.
    ///
    /// # Errors
    /// Propagates I/O failures from the underlying writer.
    ///
    /// # Panics
    /// If fewer rows than `n_pages` were streamed, or `sites` never ran.
    pub fn finish(self) -> io::Result<W> {
        self.w.expect("sites emitted").finish()
    }
}

impl<W: Write + Seek> PageRowSink for SnapshotSink<W> {
    fn sites(&mut self, names: &[String], _sizes: &[usize]) -> io::Result<()> {
        let raw = self.raw.take().expect("sites called once");
        self.w = Some(SnapshotWriter::new(raw, names, self.n_pages)?);
        Ok(())
    }

    fn page(&mut self, site: u32, ext_out: u32, dsts: &[u32]) -> io::Result<()> {
        self.w.as_mut().expect("sites before pages").page(site, ext_out, dsts)
    }
}

/// Generates the synthetic edu-domain graph described by `cfg`.
///
/// Pages of a site occupy a contiguous id block (crawls are typically
/// site-ordered); destination choice uses per-site and global copy lists so
/// both intra-site and cross-site in-degrees are heavy-tailed.
///
/// # Panics
/// On degenerate configurations (`n_pages < n_sites`, fractions outside
/// `[0, 1]`).
#[must_use]
pub fn edu_domain(cfg: &EduDomainConfig) -> WebGraph {
    let mut sink = BuilderSink {
        b: GraphBuilder::with_capacity(
            cfg.n_pages,
            (cfg.n_pages as f64 * cfg.mean_out_degree * cfg.internal_fraction) as usize,
        ),
        next_page: 0,
    };
    generate_rows(cfg, &mut sink).expect("in-memory sink cannot fail");
    sink.b.build()
}

/// Generates the edu-domain graph and streams it directly to a binary
/// snapshot, never materializing the edge list in memory (only the copy
/// lists driving destination choice are kept). Loading the snapshot with
/// [`crate::io::read_snapshot`] yields a graph equal to
/// [`edu_domain`]`(cfg)` — the row stream is identical.
///
/// # Errors
/// Propagates I/O failures from the underlying writer.
///
/// # Panics
/// On degenerate configurations, as [`edu_domain`].
pub fn edu_domain_to_snapshot<W: Write + Seek>(cfg: &EduDomainConfig, w: W) -> io::Result<()> {
    let mut sink = SnapshotSink::new(w, cfg.n_pages);
    generate_rows(cfg, &mut sink)?;
    sink.finish()?;
    Ok(())
}

/// Streams an *existing* graph's rows through a [`PageRowSink`] — the same
/// row path the generators use, so a mutated graph (e.g. after a
/// [`crate::GraphDelta`]) can be re-snapshotted by any sink.
///
/// Sinks that rely on the contiguous-site-block contract of
/// [`PageRowSink::sites`] (such as the builder sink) require `g` to keep
/// pages of a site in one ascending block; [`SnapshotSink`] takes the site
/// of each page from its row and works for any graph.
///
/// # Errors
/// Propagates sink failures.
pub fn stream_graph<S: PageRowSink>(g: &WebGraph, sink: &mut S) -> io::Result<()> {
    let names: Vec<String> = (0..g.n_sites() as u32).map(|s| g.site_name(s).to_string()).collect();
    let sizes: Vec<usize> = (0..g.n_sites() as u32).map(|s| g.site_size(s) as usize).collect();
    sink.sites(&names, &sizes)?;
    for p in 0..g.n_pages() as u32 {
        sink.page(g.site(p), g.external_out_degree(p), g.out_links(p))?;
    }
    Ok(())
}

/// Generates the edu-domain graph as a binary snapshot file at `path`.
///
/// # Errors
/// Propagates I/O failures.
pub fn edu_domain_to_snapshot_path(
    cfg: &EduDomainConfig,
    path: impl AsRef<std::path::Path>,
) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    edu_domain_to_snapshot(cfg, io::BufWriter::new(f))
}

/// The generator core: emits one row per page into `sink`. RNG consumption
/// is independent of the sink, so every sink observes the same rows for a
/// given seed.
fn generate_rows<S: PageRowSink>(cfg: &EduDomainConfig, sink: &mut S) -> io::Result<()> {
    assert!(cfg.n_sites >= 1);
    assert!(cfg.n_pages >= cfg.n_sites, "need at least one page per site");
    assert!((0.0..=1.0).contains(&cfg.internal_fraction));
    assert!((0.0..=1.0).contains(&cfg.intra_site_fraction));
    assert!((0.0..=1.0).contains(&cfg.copy_prob));
    assert!(cfg.mean_out_degree > 0.0);

    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // --- Site sizes: Zipf weights, every site gets >= 1 page. -------------
    let weights: Vec<f64> =
        (1..=cfg.n_sites).map(|r| 1.0 / (r as f64).powf(cfg.zipf_exponent)).collect();
    let wsum: f64 = weights.iter().sum();
    let spare = cfg.n_pages - cfg.n_sites;
    let mut sizes: Vec<usize> =
        weights.iter().map(|w| 1 + ((w / wsum) * spare as f64).floor() as usize).collect();
    // Distribute the rounding remainder to the largest sites.
    let mut assigned: usize = sizes.iter().sum();
    let mut i = 0;
    while assigned < cfg.n_pages {
        sizes[i % cfg.n_sites] += 1;
        assigned += 1;
        i += 1;
    }

    // --- Pages: contiguous block per site. --------------------------------
    let names: Vec<String> = (0..cfg.n_sites as u32).map(urls::site_host).collect();
    sink.sites(&names, &sizes)?;
    let mut site_range = Vec::with_capacity(cfg.n_sites); // (first_page, size)
    let mut next = 0u32;
    for &sz in &sizes {
        site_range.push((next, sz as u32));
        next += sz as u32;
    }
    debug_assert_eq!(next as usize, cfg.n_pages);

    // --- Links. ------------------------------------------------------------
    let poisson = Poisson::new(cfg.mean_out_degree).expect("positive mean");
    // Copy lists: destinations of already-created links.
    let mut global_dests: Vec<u32> = Vec::new();
    let mut site_dests: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_sites];
    let mut row: Vec<u32> = Vec::new();

    for (s, &(first, sz)) in site_range.iter().enumerate() {
        for p in first..first + sz {
            let d = poisson.sample(&mut rng) as usize;
            row.clear();
            let mut ext = 0u32;
            for _ in 0..d {
                if !rng.gen_bool(cfg.internal_fraction) {
                    ext += 1;
                    continue;
                }
                let v = if rng.gen_bool(cfg.intra_site_fraction) {
                    // Intra-site destination.
                    let pool = &site_dests[s];
                    if !pool.is_empty() && rng.gen_bool(cfg.copy_prob) {
                        pool[rng.gen_range(0..pool.len())]
                    } else {
                        first + rng.gen_range(0..sz)
                    }
                } else {
                    // Cross-site (but still crawled) destination.
                    if !global_dests.is_empty() && rng.gen_bool(cfg.copy_prob) {
                        global_dests[rng.gen_range(0..global_dests.len())]
                    } else {
                        rng.gen_range(0..cfg.n_pages as u32)
                    }
                };
                if v == p {
                    // Treat would-be self links as external, preserving d(u).
                    ext += 1;
                    continue;
                }
                row.push(v);
                global_dests.push(v);
                let vs = site_of_page(&site_range, v);
                site_dests[vs].push(v);
            }
            // Snapshot rows carry sorted destination lists; the builder path
            // would sort them at `build()` time anyway.
            row.sort_unstable();
            sink.page(s as u32, ext, &row)?;
        }
    }
    Ok(())
}

/// Binary-search the contiguous site blocks for the site of page `v`.
fn site_of_page(ranges: &[(u32, u32)], v: u32) -> usize {
    match ranges.binary_search_by(|&(first, _)| first.cmp(&v)) {
        Ok(i) => i,
        Err(i) => i - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> EduDomainConfig {
        EduDomainConfig { n_pages: 20_000, n_sites: 50, ..EduDomainConfig::default() }
    }

    #[test]
    fn deterministic_per_seed() {
        let g1 = edu_domain(&test_cfg());
        let g2 = edu_domain(&test_cfg());
        assert_eq!(g1, g2);
    }

    #[test]
    fn matches_paper_link_budget() {
        let g = edu_domain(&test_cfg());
        let total = g.n_total_links() as f64;
        let per_page = total / g.n_pages() as f64;
        assert!(
            (13.0..=17.0).contains(&per_page),
            "mean out-degree {per_page} not near the paper's 15"
        );
        let internal_frac = g.n_internal_links() as f64 / total;
        assert!(
            (0.42..=0.52).contains(&internal_frac),
            "internal fraction {internal_frac} not near 7/15"
        );
    }

    #[test]
    fn intra_site_fraction_near_90_percent() {
        let g = edu_domain(&test_cfg());
        let f = g.intra_site_fraction();
        assert!((0.85..=0.95).contains(&f), "intra-site fraction {f}");
    }

    #[test]
    fn site_sizes_are_skewed() {
        let g = edu_domain(&test_cfg());
        let largest = (0..g.n_sites() as u32).map(|s| g.site_size(s)).max().unwrap();
        let smallest = (0..g.n_sites() as u32).map(|s| g.site_size(s)).min().unwrap();
        assert!(smallest >= 1);
        assert!(largest > 5 * smallest, "Zipf skew missing: {largest} vs {smallest}");
    }

    #[test]
    fn in_degree_heavy_tailed() {
        let g = edu_domain(&test_cfg());
        let deg = g.in_degrees();
        let mean = deg.iter().map(|&d| f64::from(d)).sum::<f64>() / deg.len() as f64;
        let max = f64::from(*deg.iter().max().unwrap());
        assert!(max > 10.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn no_self_links() {
        let g = edu_domain(&EduDomainConfig::small());
        assert!(g.links().all(|(u, v)| u != v));
    }

    #[test]
    fn streamed_snapshot_equals_in_memory_generation() {
        let cfg = EduDomainConfig::small();
        let mut cur = io::Cursor::new(Vec::new());
        edu_domain_to_snapshot(&cfg, &mut cur).unwrap();
        let streamed = crate::io::read_snapshot(cur.into_inner().as_slice()).unwrap();
        assert_eq!(streamed, edu_domain(&cfg));
    }

    #[test]
    fn site_lookup_helper() {
        let ranges = [(0, 10), (10, 5), (15, 100)];
        assert_eq!(site_of_page(&ranges, 0), 0);
        assert_eq!(site_of_page(&ranges, 9), 0);
        assert_eq!(site_of_page(&ranges, 10), 1);
        assert_eq!(site_of_page(&ranges, 14), 1);
        assert_eq!(site_of_page(&ranges, 15), 2);
        assert_eq!(site_of_page(&ranges, 114), 2);
    }
}
