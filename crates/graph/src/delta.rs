//! Crawl deltas: first-class edits to an immutable [`WebGraph`].
//!
//! The paper freezes the link structure before ranking starts; a crawl
//! refresh therefore means a cold restart of the whole run. [`GraphDelta`]
//! makes the "live web" case expressible instead: a small, ordered batch of
//! structural edits (link add/remove, whole-row replacement, page insert or
//! delete, site split) that can be
//!
//! * applied to a graph ([`GraphDelta::apply`]), producing the mutated
//!   crawl plus a [`DeltaReport`] of exactly which surviving pages changed
//!   their out-row — the set a ranker must re-solve,
//! * diffed out of two crawls ([`GraphDelta::diff`]) or streamed from a
//!   [`recrawl`](crate::refresh) ([`GraphDelta::from_recrawl`]),
//! * serialized as a `DPRD1` record appended to the `DPRG1` binary
//!   snapshot (see [`io`](crate::io)),
//! * generated synthetically ([`GraphDelta::link_churn`]) for benchmarks.
//!
//! # Deletion semantics: tombstones
//!
//! Page ids are dense and stable — they back URLs, partition assignments
//! and rank-store lookups — so [`DeltaOp::DeletePage`] never renumbers.
//! The deleted page keeps its id slot but becomes a *tombstone*: its
//! out-row and external count are cleared, and **every in-link pointing at
//! it is removed from the linker's row**. A page whose only out-link
//! pointed at the tombstone therefore ends with `d(u) = 0` — genuinely
//! dangling, with a `column_scale` entry of exactly `0.0` (the PR 8
//! contract) — rather than keeping a phantom link into a rank black hole.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::graph::{PageId, SiteId, WebGraph};
use crate::refresh::RecrawlReport;

/// One structural edit. Ops are applied in order; later ops see the
/// effects of earlier ones (an inserted page may be linked, then deleted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Add one internal link `from → to` (duplicates are legal and count
    /// twice in `d(from)`, like the builder).
    AddLink {
        /// Source page.
        from: PageId,
        /// Destination page.
        to: PageId,
    },
    /// Remove one instance of the internal link `from → to`.
    RemoveLink {
        /// Source page.
        from: PageId,
        /// Destination page.
        to: PageId,
    },
    /// Replace a page's external out-link count (the links that leave the
    /// crawled set but still divide its rank).
    SetExternal {
        /// The page.
        page: PageId,
        /// New external out-link count.
        ext_out: u32,
    },
    /// Replace a page's whole out-row — the natural unit a re-crawled page
    /// produces.
    SetLinks {
        /// The page.
        page: PageId,
        /// New external out-link count.
        ext_out: u32,
        /// New internal destinations (any order; stored sorted).
        links: Vec<PageId>,
    },
    /// Append a freshly crawled page; it receives the next dense id.
    InsertPage {
        /// Site of the new page (must already exist).
        site: SiteId,
        /// External out-link count.
        ext_out: u32,
        /// Internal destinations (must already exist; any order).
        links: Vec<PageId>,
    },
    /// Tombstone a page: clear its out-row, drop every in-link to it, keep
    /// its id slot (see the module docs).
    DeletePage {
        /// The page to tombstone.
        page: PageId,
    },
    /// Move pages onto a freshly registered site (a host split). Pure
    /// metadata: ranks don't depend on site membership, but partitioning
    /// and URLs of the moved pages do — a running ranker keeps its pinned
    /// partition until the next full run.
    SplitSite {
        /// Host name of the new site.
        new_site: String,
        /// Pages moving to it.
        pages: Vec<PageId>,
    },
}

/// An ordered batch of [`DeltaOp`]s — one crawl refresh's worth of edits.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphDelta {
    /// The edits, applied in order.
    pub ops: Vec<DeltaOp>,
}

/// What [`GraphDelta::apply_report`] changed, in terms a ranker can act
/// on. All ids refer to the *new* graph.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaReport {
    /// Surviving pages whose out-row or out-degree changed (sorted): with
    /// [`DeltaReport::inserted`] and [`DeltaReport::deleted`], the pages
    /// whose groups must rebuild their matrix and efferent routes.
    /// Includes pages that merely lost an in-link *target* to a deletion
    /// and pages whose external out-degree alone changed.
    pub touched_pages: Vec<PageId>,
    /// Ids of inserted pages (sorted, all `≥` the old page count).
    pub inserted: Vec<PageId>,
    /// Pages tombstoned by this delta (sorted).
    pub deleted: Vec<PageId>,
}

impl DeltaReport {
    /// True when the delta changed nothing at all.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.touched_pages.is_empty() && self.inserted.is_empty() && self.deleted.is_empty()
    }
}

impl GraphDelta {
    /// A delta carrying `ops`.
    #[must_use]
    pub fn new(ops: Vec<DeltaOp>) -> Self {
        Self { ops }
    }

    /// The empty delta (applies as the identity).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when the delta carries no ops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the delta to `g`, returning the mutated graph.
    ///
    /// # Panics
    /// On an invalid op (unknown page/site, removing an absent link,
    /// editing a tombstone).
    #[must_use]
    pub fn apply(&self, g: &WebGraph) -> WebGraph {
        self.apply_report(g).0
    }

    /// Applies the delta and reports exactly what changed.
    ///
    /// Cost is one pass over the ops plus one pass over the graph's rows
    /// (the row scan both filters in-links to tombstones and detects which
    /// rows actually differ), independent of how the ops are batched.
    ///
    /// # Panics
    /// On an invalid op — see [`GraphDelta::apply`].
    #[must_use]
    pub fn apply_report(&self, g: &WebGraph) -> (WebGraph, DeltaReport) {
        let n_old = g.n_pages() as u32;
        // Rows cloned on first touch; untouched rows stream straight from
        // the old CSR at assembly time.
        let mut edited: BTreeMap<PageId, Vec<PageId>> = BTreeMap::new();
        let mut ext_edit: BTreeMap<PageId, u32> = BTreeMap::new();
        let mut deleted: BTreeSet<PageId> = BTreeSet::new();
        // Inserted pages: (site, ext_out, sorted links); id = n_old + index.
        let mut inserted: Vec<(SiteId, u32, Vec<PageId>)> = Vec::new();
        let mut site_names: Vec<String> =
            (0..g.n_sites() as u32).map(|s| g.site_name(s).to_string()).collect();
        let mut site_edit: BTreeMap<PageId, SiteId> = BTreeMap::new();

        for op in &self.ops {
            let n_total = n_old + inserted.len() as u32;
            let alive = |p: PageId, deleted: &BTreeSet<PageId>| {
                assert!(p < n_total, "delta references unknown page {p} (have {n_total})");
                assert!(!deleted.contains(&p), "delta edits tombstoned page {p}");
            };
            // Clone-on-write access to a page's out-row.
            macro_rules! row_mut {
                ($p:expr) => {{
                    let p: PageId = $p;
                    if p < n_old {
                        edited.entry(p).or_insert_with(|| g.out_links(p).to_vec())
                    } else {
                        &mut inserted[(p - n_old) as usize].2
                    }
                }};
            }
            match op {
                DeltaOp::AddLink { from, to } => {
                    alive(*from, &deleted);
                    alive(*to, &deleted);
                    let row = row_mut!(*from);
                    let at = row.partition_point(|&v| v <= *to);
                    row.insert(at, *to);
                }
                DeltaOp::RemoveLink { from, to } => {
                    alive(*from, &deleted);
                    let row = row_mut!(*from);
                    let at = row
                        .iter()
                        .position(|v| v == to)
                        .unwrap_or_else(|| panic!("delta removes absent link {from} → {to}"));
                    row.remove(at);
                }
                DeltaOp::SetExternal { page, ext_out } => {
                    alive(*page, &deleted);
                    if *page < n_old {
                        ext_edit.insert(*page, *ext_out);
                    } else {
                        inserted[(*page - n_old) as usize].1 = *ext_out;
                    }
                }
                DeltaOp::SetLinks { page, ext_out, links } => {
                    alive(*page, &deleted);
                    let mut row = links.clone();
                    row.sort_unstable();
                    for &v in &row {
                        alive(v, &deleted);
                    }
                    *row_mut!(*page) = row;
                    if *page < n_old {
                        ext_edit.insert(*page, *ext_out);
                    } else {
                        inserted[(*page - n_old) as usize].1 = *ext_out;
                    }
                }
                DeltaOp::InsertPage { site, ext_out, links } => {
                    assert!(
                        (*site as usize) < site_names.len(),
                        "delta inserts page on unknown site {site}"
                    );
                    let mut row = links.clone();
                    row.sort_unstable();
                    for &v in &row {
                        alive(v, &deleted);
                        assert_ne!(v, n_total, "delta inserts page linking to itself");
                    }
                    inserted.push((*site, *ext_out, row));
                }
                DeltaOp::DeletePage { page } => {
                    alive(*page, &deleted);
                    deleted.insert(*page);
                    // The tombstone keeps its slot but loses its row; in-
                    // links are filtered in the assembly pass below.
                    if *page < n_old {
                        edited.insert(*page, Vec::new());
                        ext_edit.insert(*page, 0);
                    } else {
                        let e = &mut inserted[(*page - n_old) as usize];
                        e.1 = 0;
                        e.2.clear();
                    }
                }
                DeltaOp::SplitSite { new_site, pages } => {
                    let sid = site_names.len() as SiteId;
                    site_names.push(new_site.clone());
                    for &p in pages {
                        alive(p, &deleted);
                        site_edit.insert(p, sid);
                    }
                }
            }
        }

        // Assembly: stream every row (edited or original), filtering links
        // whose target was tombstoned, and record which surviving rows
        // actually differ from the old graph.
        let n_total = n_old as usize + inserted.len();
        let mut out_ptr: Vec<u64> = Vec::with_capacity(n_total + 1);
        out_ptr.push(0);
        let mut out_dst: Vec<PageId> = Vec::with_capacity(g.n_internal_links());
        let mut ext_out: Vec<u32> = Vec::with_capacity(n_total);
        let mut site_of: Vec<SiteId> = Vec::with_capacity(n_total);
        let mut touched: Vec<PageId> = Vec::new();
        for p in 0..n_old {
            let start = out_dst.len();
            let row: &[PageId] = match edited.get(&p) {
                Some(r) => r,
                None => g.out_links(p),
            };
            if deleted.is_empty() {
                out_dst.extend_from_slice(row);
            } else {
                out_dst.extend(row.iter().copied().filter(|v| !deleted.contains(v)));
            }
            out_ptr.push(out_dst.len() as u64);
            let e = ext_edit.get(&p).copied().unwrap_or_else(|| g.external_out_degree(p));
            ext_out.push(e);
            site_of.push(site_edit.get(&p).copied().unwrap_or_else(|| g.site(p)));
            let same_row = out_dst[start..] == *g.out_links(p);
            if !deleted.contains(&p) && (!same_row || e != g.external_out_degree(p)) {
                touched.push(p);
            }
        }
        for (i, (site, e, row)) in inserted.iter().enumerate() {
            let p = n_old + i as u32;
            out_dst.extend(row.iter().copied().filter(|v| !deleted.contains(v)));
            out_ptr.push(out_dst.len() as u64);
            ext_out.push(*e);
            site_of.push(site_edit.get(&p).copied().unwrap_or(*site));
        }
        let g2 = WebGraph::from_parts(out_ptr, out_dst, ext_out, site_of, site_names);
        let report = DeltaReport {
            touched_pages: touched,
            inserted: (n_old..n_old + inserted.len() as u32)
                .filter(|p| !deleted.contains(p))
                .collect(),
            deleted: deleted.into_iter().collect(),
        };
        (g2, report)
    }

    /// The delta turning `old` into `new`, assuming `new` preserves the
    /// first `old.n_pages()` ids (the [`recrawl`](crate::refresh::recrawl)
    /// contract): changed rows become [`DeltaOp::SetLinks`], appended pages
    /// become [`DeltaOp::InsertPage`].
    ///
    /// # Panics
    /// If `new` has fewer pages than `old` or drops one of `old`'s sites
    /// (deletions are tombstones, never renumberings).
    #[must_use]
    pub fn diff(old: &WebGraph, new: &WebGraph) -> Self {
        assert!(new.n_pages() >= old.n_pages(), "diff target renumbers pages");
        assert!(new.n_sites() >= old.n_sites(), "diff target drops sites");
        for s in 0..old.n_sites() as u32 {
            assert_eq!(old.site_name(s), new.site_name(s), "diff target renames site {s}");
        }
        let mut ops = Vec::new();
        // Insert all appended pages bare first, then fill rows: changed or
        // fresh rows may reference appended ids in any order, and a row may
        // only reference pages that already exist.
        for p in old.n_pages() as u32..new.n_pages() as u32 {
            ops.push(DeltaOp::InsertPage { site: new.site(p), ext_out: 0, links: Vec::new() });
        }
        for p in 0..old.n_pages() as u32 {
            assert_eq!(old.site(p), new.site(p), "diff target re-sites page {p}");
            if old.out_links(p) != new.out_links(p)
                || old.external_out_degree(p) != new.external_out_degree(p)
            {
                ops.push(DeltaOp::SetLinks {
                    page: p,
                    ext_out: new.external_out_degree(p),
                    links: new.out_links(p).to_vec(),
                });
            }
        }
        for p in old.n_pages() as u32..new.n_pages() as u32 {
            if !new.out_links(p).is_empty() || new.external_out_degree(p) > 0 {
                ops.push(DeltaOp::SetLinks {
                    page: p,
                    ext_out: new.external_out_degree(p),
                    links: new.out_links(p).to_vec(),
                });
            }
        }
        Self { ops }
    }

    /// Streams a [`recrawl`](crate::refresh::recrawl) outcome as a delta:
    /// the report pins which rows changed, so only those are diffed.
    ///
    /// # Panics
    /// If `report` does not describe `old → new` (id contract violated).
    #[must_use]
    pub fn from_recrawl(old: &WebGraph, new: &WebGraph, report: &RecrawlReport) -> Self {
        let mut ops = Vec::new();
        // Bare inserts first, then deletions, then rows — changed or fresh
        // rows may reference appended ids in any order (see
        // [`GraphDelta::diff`]), and no row may reference a tombstone.
        for &p in &report.new_pages {
            assert!(p as usize >= old.n_pages(), "recrawl new page {p} overlaps the old id space");
            ops.push(DeltaOp::InsertPage { site: new.site(p), ext_out: 0, links: Vec::new() });
        }
        for &p in &report.deleted_pages {
            ops.push(DeltaOp::DeletePage { page: p });
        }
        let deleted: BTreeSet<PageId> = report.deleted_pages.iter().copied().collect();
        for &p in &report.changed_pages {
            if deleted.contains(&p) {
                continue;
            }
            ops.push(DeltaOp::SetLinks {
                page: p,
                ext_out: new.external_out_degree(p),
                links: new.out_links(p).to_vec(),
            });
        }
        for &p in &report.new_pages {
            if !new.out_links(p).is_empty() || new.external_out_degree(p) > 0 {
                ops.push(DeltaOp::SetLinks {
                    page: p,
                    ext_out: new.external_out_degree(p),
                    links: new.out_links(p).to_vec(),
                });
            }
        }
        Self { ops }
    }

    /// A synthetic link-churn delta: `frac` of `g`'s internal links (at
    /// least one, if any exist) are re-pointed at fresh random targets.
    /// Every rewire is a `RemoveLink` + `AddLink` pair on the same source,
    /// so out-degrees — and therefore `column_scale` — are preserved while
    /// the row structure changes. Deterministic per `(frac, seed)`.
    ///
    /// # Panics
    /// If `frac` is outside `[0, 1]`.
    #[must_use]
    pub fn link_churn(g: &WebGraph, frac: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "churn fraction must be in [0, 1], got {frac}");
        let m = g.n_internal_links();
        if m == 0 || frac == 0.0 || g.n_pages() < 2 {
            return Self::empty();
        }
        let n_churn = ((m as f64 * frac).round() as usize).clamp(1, m);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Sample distinct link positions (global indices into the CSR edge
        // array) — a sorted sample keeps the source lookup a single sweep.
        let mut picks: BTreeSet<usize> = BTreeSet::new();
        while picks.len() < n_churn {
            picks.insert(rng.gen_range(0..m));
        }
        let n = g.n_pages() as u32;
        let mut ops = Vec::with_capacity(2 * n_churn);
        let mut edge = 0usize;
        let mut picks = picks.into_iter().peekable();
        'outer: for u in 0..n {
            let row = g.out_links(u);
            let next = edge + row.len();
            while let Some(&idx) = picks.peek() {
                if idx >= next {
                    break;
                }
                picks.next();
                let old_to = row[idx - edge];
                let mut v = rng.gen_range(0..n);
                while v == u {
                    v = rng.gen_range(0..n);
                }
                ops.push(DeltaOp::RemoveLink { from: u, to: old_to });
                ops.push(DeltaOp::AddLink { from: u, to: v });
                if picks.peek().is_none() {
                    break 'outer;
                }
            }
            edge = next;
        }
        Self { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::toy;
    use crate::refresh::recrawl_with_deletions;
    use crate::GraphBuilder;

    fn chain3() -> WebGraph {
        // a → b → c, plus c's external link.
        let mut b = GraphBuilder::new();
        let s = b.add_site("a.edu");
        let pa = b.add_page(s);
        let pb = b.add_page(s);
        let pc = b.add_page(s);
        b.add_link(pa, pb);
        b.add_link(pb, pc);
        b.add_external_links(pc, 1);
        b.build()
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = toy::two_cliques(4);
        let (g2, report) = GraphDelta::empty().apply_report(&g);
        assert_eq!(g2, g);
        assert!(report.is_noop());
    }

    #[test]
    fn add_and_remove_links() {
        let g = chain3();
        let d = GraphDelta::new(vec![
            DeltaOp::AddLink { from: 0, to: 2 },
            DeltaOp::RemoveLink { from: 1, to: 2 },
        ]);
        let (g2, report) = d.apply_report(&g);
        assert_eq!(g2.out_links(0), &[1, 2]);
        assert_eq!(g2.out_links(1), &[] as &[u32]);
        assert_eq!(report.touched_pages, vec![0, 1]);
        assert!(report.deleted.is_empty());
    }

    #[test]
    fn delete_filters_in_links_and_dangles_sources() {
        let g = chain3();
        let (g2, report) = GraphDelta::new(vec![DeltaOp::DeletePage { page: 1 }]).apply_report(&g);
        // Page 0's only out-link pointed at the tombstone: it is dangling
        // now, not linking into a black hole.
        assert_eq!(g2.n_pages(), 3, "tombstones keep the id space dense");
        assert_eq!(g2.out_degree(0), 0);
        assert_eq!(g2.out_links(1), &[] as &[u32]);
        assert_eq!(g2.out_degree(2), 1, "external links of survivors are untouched");
        assert_eq!(report.deleted, vec![1]);
        assert_eq!(report.touched_pages, vec![0], "the linker's row changed, page 2's did not");
        assert_eq!(g2.url_of(0), g.url_of(0), "ids and urls survive");
    }

    #[test]
    fn insert_then_link_then_delete() {
        let g = chain3();
        let d = GraphDelta::new(vec![
            DeltaOp::InsertPage { site: 0, ext_out: 2, links: vec![0, 2] },
            DeltaOp::AddLink { from: 0, to: 3 },
            DeltaOp::DeletePage { page: 3 },
        ]);
        let (g2, report) = d.apply_report(&g);
        assert_eq!(g2.n_pages(), 4);
        assert_eq!(g2.out_degree(3), 0, "inserted page was tombstoned again");
        assert_eq!(g2.out_links(0), &[1], "link to the tombstone was filtered");
        assert!(report.inserted.is_empty(), "a page deleted in the same delta never surfaces");
        assert_eq!(report.deleted, vec![3]);
        // Page 0 gained a link and lost it to the filter — net unchanged.
        assert!(report.touched_pages.is_empty());
    }

    #[test]
    fn set_links_replaces_whole_row() {
        let g = chain3();
        let d = GraphDelta::new(vec![DeltaOp::SetLinks { page: 2, ext_out: 0, links: vec![0, 1] }]);
        let (g2, report) = d.apply_report(&g);
        assert_eq!(g2.out_links(2), &[0, 1]);
        assert_eq!(g2.external_out_degree(2), 0);
        assert_eq!(report.touched_pages, vec![2]);
    }

    #[test]
    fn split_site_moves_metadata_only() {
        let g = chain3();
        let d =
            GraphDelta::new(vec![DeltaOp::SplitSite { new_site: "b.edu".into(), pages: vec![2] }]);
        let (g2, report) = d.apply_report(&g);
        assert_eq!(g2.n_sites(), 2);
        assert_eq!(g2.site(2), 1);
        assert_eq!(g2.site_name(1), "b.edu");
        assert!(report.is_noop(), "a site split changes no out-row");
    }

    #[test]
    fn diff_round_trips_recrawl() {
        let g = toy::cycle(30);
        let (g2, report) = recrawl_with_deletions(&g, 0.3, 0.1, 0.1, 7);
        let d = GraphDelta::diff(&g, &g2);
        assert_eq!(d.apply(&g), g2);
        let d2 = GraphDelta::from_recrawl(&g, &g2, &report);
        assert_eq!(d2.apply(&g), g2);
    }

    #[test]
    fn link_churn_preserves_degrees() {
        let g = toy::two_cliques(6);
        let d = GraphDelta::link_churn(&g, 0.25, 42);
        assert!(!d.is_empty());
        let (g2, report) = d.apply_report(&g);
        for p in 0..g.n_pages() as u32 {
            assert_eq!(g2.out_degree(p), g.out_degree(p), "degree of page {p}");
        }
        assert!(!report.touched_pages.is_empty());
        assert_eq!(GraphDelta::link_churn(&g, 0.25, 42), d, "deterministic per seed");
    }

    #[test]
    #[should_panic(expected = "absent link")]
    fn removing_absent_link_panics() {
        let g = chain3();
        let _ = GraphDelta::new(vec![DeltaOp::RemoveLink { from: 0, to: 2 }]).apply(&g);
    }

    #[test]
    #[should_panic(expected = "tombstoned page")]
    fn editing_tombstone_panics() {
        let g = chain3();
        let _ = GraphDelta::new(vec![
            DeltaOp::DeletePage { page: 1 },
            DeltaOp::AddLink { from: 1, to: 2 },
        ])
        .apply(&g);
    }
}
