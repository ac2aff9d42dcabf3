//! Epoch-versioned, read-optimized rank store — ROADMAP item 2's serving
//! layer for the paper's motivating search engine.
//!
//! The solve side ([`crate::netrun`]'s driver, after every sample slice)
//! *publishes* immutable per-group snapshots of its [`Ranker`]s: the
//! group's rank vector plus its outer-iteration epoch. The store assembles them into a [`StoreView`]
//! — an immutable, internally consistent picture of the whole ranking with
//! precomputed global top-k and per-site aggregates — and swaps it in
//! behind an `Arc`. Readers clone the `Arc` under a read lock held for a
//! pointer copy; the publisher rebuilds the next view entirely outside the
//! lock and swaps it in under a write lock held for a pointer store. No
//! reader ever blocks the solve/commit path, and no query ever observes a
//! half-published epoch (§12 of DESIGN.md).
//!
//! A publish costs what the readers use:
//!
//! * a group's derived indices — its top-`topk_cap` order prefix and its
//!   per-site partial sums — are rebuilt **only when its rank bits
//!   actually change**; an epoch bump that re-publishes identical bits (a
//!   converged group) reuses every index by `Arc` clone;
//! * a changed group of `n` pages costs `O(n)` — one bounded selection
//!   scan (`metrics::select_top_k_by`) — plus `O(cap log cap)` to sort its
//!   prefix, never a sort of all `n`; the global top-`cap` is then one
//!   more selection over the `G · cap` prefix entries of the `G` groups;
//! * the page → (group, local index) map is a dense vector indexed by page
//!   id (graph ids are dense; crawl deltas append), shared between views
//!   while page sets are stable, so a lookup is one bounds-checked index.
//!
//! Answers are **bit-identical** to a one-shot scatter-gather over the
//! live rankers at the same epoch: hits use the exact published rank bits
//! and one `(rank desc, page asc)` total order, and site aggregates fold
//! per-group partials in ascending group id.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dpr_graph::PageId;
use dpr_partition::GroupId;

use crate::metrics::select_top_k_by;
use crate::ranker::Ranker;

/// One query hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Global page id.
    pub page: PageId,
    /// Its current rank at the owning ranker.
    pub rank: f64,
}

/// The one ordering every query answer uses: descending rank
/// (`total_cmp`, so NaN-safe), ties broken by ascending page id.
fn hit_order(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    b.rank.total_cmp(&a.rank).then_with(|| a.page.cmp(&b.page))
}

/// Default number of precomputed global top-k entries.
pub const DEFAULT_TOPK_CAP: usize = 128;

/// One group's publication: what the solve side hands the store each time
/// a group finishes an outer iteration (or a checkpoint interval).
#[derive(Debug, Clone, Copy)]
pub struct GroupPublish<'a> {
    /// Which group this snapshot belongs to.
    pub group: GroupId,
    /// The group's outer-iteration epoch at snapshot time.
    pub epoch: u64,
    /// Global page ids owned by the group, in local order. Usually
    /// identical on every publish of the same group; a publish with a
    /// *different* page set (a crawl delta deleted or inserted pages)
    /// retires the group's old location entries and installs the new ones,
    /// so lookups on removed pages answer `None` instead of a stale slot.
    pub pages: &'a [PageId],
    /// Current rank of each owned page, parallel to `pages`.
    pub ranks: &'a [f64],
}

/// One group's published state, immutable once built. Shared by `Arc`
/// between consecutive views, so an unchanged group costs a pointer clone
/// per publish.
#[derive(Debug)]
pub struct GroupRanks {
    group: GroupId,
    epoch: u64,
    pages: Arc<Vec<PageId>>,
    ranks: Arc<Vec<f64>>,
    /// Local indices of the group's top-`topk_cap` pages, sorted by (rank
    /// desc, page asc) — all the group can add to a top-`topk_cap`.
    order: Arc<Vec<u32>>,
    /// Per-site rank mass of this group's pages, accumulated in local page
    /// order (present iff the store was built with site info).
    site_partial: Option<Arc<Vec<f64>>>,
}

impl GroupRanks {
    /// Group id.
    #[must_use]
    pub fn group(&self) -> GroupId {
        self.group
    }
    /// Outer epoch this snapshot was published at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
    /// Owned pages (local order).
    #[must_use]
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }
    /// Published ranks (local order).
    #[must_use]
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }
}

/// Where each page lives: `(owning group, local index)` at position `page`
/// of a dense vector, [`PageIndex::NOWHERE`] for a page no published group
/// owns. Page ids are dense (graph ids; crawl deltas append), so the
/// vector is as long as the largest published id.
#[derive(Debug, Clone, Default)]
struct PageIndex {
    loc: Vec<(GroupId, u32)>,
    /// Entries that are not `NOWHERE`.
    located: usize,
}

impl PageIndex {
    const NOWHERE: (GroupId, u32) = (GroupId::MAX, u32::MAX);

    fn get(&self, page: PageId) -> Option<(GroupId, u32)> {
        self.loc.get(page as usize).copied().filter(|&l| l != Self::NOWHERE)
    }

    fn retire(&mut self, page: PageId) {
        if let Some(l) = self.loc.get_mut(page as usize) {
            if *l != Self::NOWHERE {
                *l = Self::NOWHERE;
                self.located -= 1;
            }
        }
    }

    fn install(&mut self, page: PageId, at: (GroupId, u32)) {
        let i = page as usize;
        if i >= self.loc.len() {
            self.loc.resize(i + 1, Self::NOWHERE);
        }
        assert!(
            self.loc[i] == Self::NOWHERE,
            "page {page} published by two groups: a page has one owning group, and a \
             publish retires a repaged group's old pages before it installs any new ones"
        );
        self.loc[i] = at;
        self.located += 1;
    }
}

/// A point lookup's answer: the rank plus its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointLookup {
    /// The queried page.
    pub page: PageId,
    /// Its published rank (exact solve bits).
    pub rank: f64,
    /// The owning group.
    pub group: GroupId,
    /// The owning group's epoch at publication.
    pub epoch: u64,
}

/// Publication counters (monotonic over the store's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Views swapped in (`publish` calls that changed anything).
    pub publishes: u64,
    /// Group snapshots accepted (epoch moved and/or bits changed).
    pub group_updates: u64,
    /// Group snapshots skipped as identical (same epoch, same bits).
    pub skipped_updates: u64,
}

/// An immutable snapshot of the whole ranking at one publication instant.
///
/// Cloning the `Arc<StoreView>` out of [`RankStore::view`] pins this
/// epoch: every query on it is answered from the same consistent state no
/// matter how many publishes happen concurrently.
#[derive(Debug)]
pub struct StoreView {
    version: u64,
    /// Indexed by group id; `None` for never-published ids.
    groups: Vec<Option<Arc<GroupRanks>>>,
    /// page → (owning group, local index). Shared between views while page
    /// sets are stable; a publish that changes a group's page set (crawl
    /// delta) clones the vector once, retiring the group's old entries
    /// before installing the new ones.
    page_loc: Arc<PageIndex>,
    /// Precomputed global top-`topk_cap` (rank desc, page asc).
    topk: Vec<Hit>,
    topk_cap: usize,
    /// Precomputed per-site totals (present iff site info was supplied).
    site_totals: Option<Arc<Vec<f64>>>,
}

impl StoreView {
    fn empty(topk_cap: usize) -> Self {
        Self {
            version: 0,
            groups: Vec::new(),
            page_loc: Arc::default(),
            topk: Vec::new(),
            topk_cap,
            site_totals: None,
        }
    }

    /// Monotone view version: bumps by one per accepted publish. Version 0
    /// is the empty store.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The published epoch of one group, if it has published.
    #[must_use]
    pub fn group_epoch(&self, group: GroupId) -> Option<u64> {
        self.groups.get(group as usize)?.as_ref().map(|g| g.epoch)
    }

    /// One group's published snapshot, if any.
    #[must_use]
    pub fn group(&self, group: GroupId) -> Option<&Arc<GroupRanks>> {
        self.groups.get(group as usize)?.as_ref()
    }

    /// Total pages published so far.
    #[must_use]
    pub fn n_pages(&self) -> usize {
        self.page_loc.located
    }

    /// Global top-`k`: bit-identical to merging every live ranker's pages
    /// at this view's epochs. `k ≤ topk_cap` is answered from the
    /// precomputed prefix (a memcpy); larger `k` selects from every
    /// published page.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<Hit> {
        if k <= self.topk_cap || self.topk.len() < self.topk_cap {
            // The second disjunct: fewer total pages than the cap means the
            // precomputed list already holds *every* page.
            return self.topk[..k.min(self.topk.len())].to_vec();
        }
        let all = self.groups.iter().flatten().flat_map(|g| {
            g.pages.iter().zip(g.ranks.iter()).map(|(&page, &rank)| Hit { page, rank })
        });
        select_top_k_by(all, k, hit_order)
    }

    /// Top-`k` restricted to a candidate set (duplicates count once):
    /// bit-identical to the scatter-gather equivalent. Unowned candidates
    /// are ignored.
    #[must_use]
    pub fn top_k_candidates(&self, k: usize, candidates: &[PageId]) -> Vec<Hit> {
        let mut cands = candidates.to_vec();
        cands.sort_unstable();
        cands.dedup();
        let hits =
            cands.into_iter().filter_map(|p| self.lookup(p).map(|l| Hit { page: p, rank: l.rank }));
        select_top_k_by(hits, k, hit_order)
    }

    /// Point lookup: the page's exact published rank bits plus owning
    /// group and epoch. `None` if no published group owns the page.
    #[must_use]
    pub fn lookup(&self, page: PageId) -> Option<PointLookup> {
        let (group, li) = self.page_loc.get(page)?;
        let g = self.groups[group as usize].as_ref()?;
        Some(PointLookup { page, rank: g.ranks[li as usize], group, epoch: g.epoch })
    }

    /// Precomputed per-site rank totals, bit-identical to summing the live
    /// rankers' pages per site, group by group in ascending group id, at
    /// this view's epochs. `None` when the store was built without site
    /// info.
    #[must_use]
    pub fn site_totals(&self) -> Option<&[f64]> {
        self.site_totals.as_deref().map(Vec::as_slice)
    }
}

/// The concurrent rank store: one writer (the publishing engine), any
/// number of readers. See the module docs for the swap discipline.
pub struct RankStore {
    current: RwLock<Arc<StoreView>>,
    /// Serializes publishers; readers never touch it.
    publish_lock: Mutex<()>,
    topk_cap: usize,
    /// page → site, for per-site aggregates (optional).
    site_of: Option<Arc<Vec<u32>>>,
    n_sites: usize,
    publishes: AtomicU64,
    group_updates: AtomicU64,
    skipped_updates: AtomicU64,
}

impl std::fmt::Debug for RankStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.view();
        f.debug_struct("RankStore")
            .field("version", &v.version())
            .field("n_pages", &v.n_pages())
            .field("topk_cap", &self.topk_cap)
            .finish()
    }
}

impl RankStore {
    /// A fresh store precomputing `topk_cap` global top entries.
    #[must_use]
    pub fn new(topk_cap: usize) -> Self {
        Self {
            current: RwLock::new(Arc::new(StoreView::empty(topk_cap))),
            publish_lock: Mutex::new(()),
            topk_cap,
            site_of: None,
            n_sites: 0,
            publishes: AtomicU64::new(0),
            group_updates: AtomicU64::new(0),
            skipped_updates: AtomicU64::new(0),
        }
    }

    /// Enables per-site aggregates (`site_of[page] → site id`). Must be
    /// called before the first publish.
    ///
    /// # Panics
    /// If anything has already been published.
    #[must_use]
    pub fn with_sites(mut self, site_of: Vec<u32>, n_sites: usize) -> Self {
        assert_eq!(self.view().version(), 0, "with_sites must precede the first publish");
        self.site_of = Some(Arc::new(site_of));
        self.n_sites = n_sites;
        self
    }

    /// The current immutable view. The read lock is held only for the
    /// `Arc` clone; queries run lock-free on the returned view, which
    /// stays valid (and unchanged) however many publishes follow.
    #[must_use]
    pub fn view(&self) -> Arc<StoreView> {
        Arc::clone(&self.current.read())
    }

    /// Publication counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            publishes: self.publishes.load(Ordering::Relaxed),
            group_updates: self.group_updates.load(Ordering::Relaxed),
            skipped_updates: self.skipped_updates.load(Ordering::Relaxed),
        }
    }

    /// Publishes a batch of group snapshots atomically: readers see either
    /// the previous view or one containing the whole batch. Returns `true`
    /// if a new view was swapped in (`false` = every snapshot was
    /// identical to what the store already held).
    ///
    /// Unchanged groups (same epoch *and* same rank bits) are skipped;
    /// epoch bumps with identical bits reuse every derived index; the
    /// global top-k and site totals are rebuilt only when some group's
    /// rank bits actually changed. A publish whose page set differs from
    /// the group's previous one (a crawl delta deleted or inserted pages)
    /// is always treated as a change: the old location entries are
    /// retired — `lookup` on a removed page answers `None` — and every
    /// derived index of the group is rebuilt against the new page set.
    ///
    /// # Panics
    /// If a publication's `pages`/`ranks` lengths differ, or two groups
    /// claim the same page.
    pub fn publish<'a, I>(&self, updates: I) -> bool
    where
        I: IntoIterator<Item = GroupPublish<'a>>,
    {
        let _serial = self.publish_lock.lock();
        let old = self.view();

        let mut groups = old.groups.clone();
        let mut new_pages: Vec<(GroupId, Arc<Vec<PageId>>)> = Vec::new();
        let mut retired_pages: Vec<Arc<Vec<PageId>>> = Vec::new();
        let mut any_change = false;
        let mut ranks_changed = false;
        let mut accepted = 0u64;
        let mut skipped = 0u64;

        for u in updates {
            let gi = u.group as usize;
            if gi >= groups.len() {
                groups.resize(gi + 1, None);
            }
            let prev = groups[gi].take();
            assert_eq!(
                u.pages.len(),
                u.ranks.len(),
                "group {} pages/ranks length mismatch",
                u.group
            );
            let pages_changed = prev.as_ref().is_some_and(|g| g.pages.as_slice() != u.pages);
            // The previous snapshot, when this update repeats its pages and
            // rank bits.
            let same_bits =
                prev.as_ref().filter(|g| !pages_changed && rank_bits_equal(&g.ranks, u.ranks));
            if same_bits.is_some_and(|g| g.epoch == u.epoch) {
                skipped += 1;
                groups[gi] = prev;
                continue;
            }
            accepted += 1;
            any_change = true;
            let pages = match (&prev, pages_changed) {
                (Some(g), false) => Arc::clone(&g.pages),
                (prev, _) => {
                    if let Some(g) = prev {
                        // Changed page set: every old location entry of
                        // this group is retired before the new set goes in
                        // (local indices shift even for surviving pages).
                        retired_pages.push(Arc::clone(&g.pages));
                    }
                    let p = Arc::new(u.pages.to_vec());
                    new_pages.push((u.group, Arc::clone(&p)));
                    p
                }
            };
            let (ranks, order, site_partial) = if let Some(g) = same_bits {
                // Epoch moved, bits did not (a converged group keeps
                // iterating): every derived index is still valid.
                (Arc::clone(&g.ranks), Arc::clone(&g.order), g.site_partial.clone())
            } else {
                ranks_changed = true;
                let ranks = Arc::new(u.ranks.to_vec());
                let order = Arc::new(build_order(&pages, &ranks, self.topk_cap));
                let partial = self
                    .site_of
                    .as_ref()
                    .map(|so| Arc::new(build_site_partial(&pages, &ranks, so, self.n_sites)));
                (ranks, order, partial)
            };
            groups[gi] = Some(Arc::new(GroupRanks {
                group: u.group,
                epoch: u.epoch,
                pages,
                ranks,
                order,
                site_partial,
            }));
        }

        self.group_updates.fetch_add(accepted, Ordering::Relaxed);
        self.skipped_updates.fetch_add(skipped, Ordering::Relaxed);
        if !any_change {
            return false;
        }

        let page_loc = if new_pages.is_empty() && retired_pages.is_empty() {
            Arc::clone(&old.page_loc)
        } else {
            let mut m = (*old.page_loc).clone();
            // All retirements precede all inserts, so a page surviving a
            // repage (or moving between groups in one batch) re-resolves
            // cleanly instead of tripping the clash assert.
            for &p in retired_pages.iter().flat_map(|pages| pages.iter()) {
                m.retire(p);
            }
            for (gid, pages) in &new_pages {
                for (li, &p) in pages.iter().enumerate() {
                    m.install(p, (*gid, li as u32));
                }
            }
            Arc::new(m)
        };

        let (topk, site_totals) = if ranks_changed {
            let topk = build_topk(&groups, self.topk_cap);
            let totals =
                self.site_of.as_ref().map(|_| Arc::new(fold_site_totals(&groups, self.n_sites)));
            (topk, totals)
        } else {
            // Only epochs moved: the ranking itself is unchanged.
            (old.topk.clone(), old.site_totals.clone())
        };

        let next = Arc::new(StoreView {
            version: old.version + 1,
            groups,
            page_loc,
            topk,
            topk_cap: self.topk_cap,
            site_totals,
        });
        // The entire rebuild above ran without the write lock; the swap is
        // a pointer store, so a concurrent reader blocks for at most that.
        *self.current.write() = next;
        self.publishes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Publishes every ranker's current state (group, outer epoch, exact
    /// rank bits) as one batch — the simulation-side hook.
    pub fn publish_rankers<'a>(&self, rankers: impl IntoIterator<Item = &'a Ranker>) -> bool {
        self.publish(rankers.into_iter().map(|r| GroupPublish {
            group: r.ctx().group_id(),
            epoch: r.epoch(),
            pages: r.ctx().pages(),
            ranks: r.ranks(),
        }))
    }

    /// Convenience: [`StoreView::top_k`] on the current view.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<Hit> {
        self.view().top_k(k)
    }

    /// Convenience: [`StoreView::top_k_candidates`] on the current view.
    #[must_use]
    pub fn top_k_candidates(&self, k: usize, candidates: &[PageId]) -> Vec<Hit> {
        self.view().top_k_candidates(k, candidates)
    }

    /// Convenience: [`StoreView::lookup`] on the current view.
    #[must_use]
    pub fn lookup(&self, page: PageId) -> Option<PointLookup> {
        self.view().lookup(page)
    }
}

fn rank_bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Local indices of the group's top-`cap` pages in (rank desc, page asc)
/// order: `O(n)` to select, `O(cap log cap)` to sort.
fn build_order(pages: &[PageId], ranks: &[f64], cap: usize) -> Vec<u32> {
    select_top_k_by(0..ranks.len() as u32, cap, |&a, &b| {
        ranks[b as usize]
            .total_cmp(&ranks[a as usize])
            .then_with(|| pages[a as usize].cmp(&pages[b as usize]))
    })
}

fn build_site_partial(
    pages: &[PageId],
    ranks: &[f64],
    site_of: &[u32],
    n_sites: usize,
) -> Vec<f64> {
    let mut partial = vec![0.0; n_sites];
    for (li, &p) in pages.iter().enumerate() {
        // Pages beyond the site map (inserted by a crawl delta after the
        // store was built) contribute to no site aggregate.
        if let Some(&s) = site_of.get(p as usize) {
            partial[s as usize] += ranks[li];
        }
    }
    partial
}

/// The global top-`cap`: a selection over every group's order prefix.
fn build_topk(groups: &[Option<Arc<GroupRanks>>], cap: usize) -> Vec<Hit> {
    let prefixes = groups.iter().flatten().flat_map(|g| {
        g.order.iter().map(|&li| Hit { page: g.pages[li as usize], rank: g.ranks[li as usize] })
    });
    select_top_k_by(prefixes, cap, hit_order)
}

/// Folds per-group site partials into global totals in ascending group id
/// — the canonical order a per-site sum over the live rankers takes too,
/// so the precomputed aggregate matches that sum bit for bit.
fn fold_site_totals(groups: &[Option<Arc<GroupRanks>>], n_sites: usize) -> Vec<f64> {
    let mut totals = vec![0.0; n_sites];
    for g in groups.iter().flatten() {
        if let Some(p) = &g.site_partial {
            for (t, v) in totals.iter_mut().zip(p.iter()) {
                *t += *v;
            }
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn publish_two_groups(store: &RankStore) {
        // Group 0 owns pages {0, 2, 4}, group 1 owns {1, 3}.
        assert!(store.publish([
            GroupPublish { group: 0, epoch: 1, pages: &[0, 2, 4], ranks: &[0.5, 0.1, 0.9] },
            GroupPublish { group: 1, epoch: 1, pages: &[1, 3], ranks: &[0.7, 0.2] },
        ]));
    }

    #[test]
    fn topk_merges_across_groups() {
        let store = RankStore::new(2);
        assert_eq!(store.view().version(), 0);
        assert!(store.top_k(3).is_empty(), "empty store answers empty");
        publish_two_groups(&store);
        let v = store.view();
        assert_eq!(v.version(), 1);
        assert_eq!(v.n_pages(), 5);
        // Precomputed prefix (cap = 2)...
        assert_eq!(v.top_k(2), vec![Hit { page: 4, rank: 0.9 }, Hit { page: 1, rank: 0.7 }]);
        // ...and the beyond-cap fallback merge.
        let all = v.top_k(10);
        assert_eq!(all.len(), 5);
        assert_eq!(
            all.iter().map(|h| h.page).collect::<Vec<_>>(),
            vec![4, 1, 0, 3, 2],
            "full descending order across both groups"
        );
        assert_eq!(v.group_epoch(0), Some(1));
        assert_eq!(v.group_epoch(7), None);
    }

    #[test]
    fn candidates_dedup_and_ignore_unowned() {
        let store = RankStore::new(8);
        publish_two_groups(&store);
        let hits = store.top_k_candidates(4, &[3, 99, 3, 3, 0, 4_000_000]);
        assert_eq!(hits, vec![Hit { page: 0, rank: 0.5 }, Hit { page: 3, rank: 0.2 }]);
        assert!(store.top_k_candidates(0, &[0, 1, 2]).is_empty(), "k = 0 answers empty");
        assert!(store.lookup(99).is_none());
        let l = store.lookup(3).unwrap();
        assert_eq!((l.group, l.epoch, l.rank), (1, 1, 0.2));
    }

    #[test]
    fn identical_republish_is_skipped_and_epoch_bump_reuses_indices() {
        let store = RankStore::new(4);
        publish_two_groups(&store);
        let v1 = store.view();

        // Same epoch, same bits: no new view.
        assert!(!store.publish([GroupPublish {
            group: 0,
            epoch: 1,
            pages: &[0, 2, 4],
            ranks: &[0.5, 0.1, 0.9],
        }]));
        assert_eq!(store.view().version(), 1);
        assert_eq!(store.stats().skipped_updates, 1);

        // Epoch moved, bits identical: new view, derived indices shared.
        assert!(store.publish([GroupPublish {
            group: 0,
            epoch: 5,
            pages: &[0, 2, 4],
            ranks: &[0.5, 0.1, 0.9],
        }]));
        let v2 = store.view();
        assert_eq!(v2.version(), 2);
        assert_eq!(v2.group_epoch(0), Some(5));
        let (g1, g2) = (v1.group(0).unwrap(), v2.group(0).unwrap());
        assert!(Arc::ptr_eq(&g1.order, &g2.order), "order index must be reused");
        assert!(Arc::ptr_eq(&g1.ranks, &g2.ranks), "rank vector must be reused");
        assert_eq!(v1.top_k(4), v2.top_k(4));

        // Bits changed: indices rebuilt, topk reflects the new ranking.
        assert!(store.publish([GroupPublish {
            group: 0,
            epoch: 6,
            pages: &[0, 2, 4],
            ranks: &[0.5, 2.0, 0.9],
        }]));
        assert_eq!(store.top_k(1), vec![Hit { page: 2, rank: 2.0 }]);
        assert_eq!(store.stats().publishes, 3);
        assert_eq!(store.stats().group_updates, 4); // 2 initial + bump + change
    }

    #[test]
    fn old_views_stay_frozen_after_publish() {
        let store = RankStore::new(4);
        publish_two_groups(&store);
        let pinned = store.view();
        assert!(store.publish([GroupPublish {
            group: 1,
            epoch: 9,
            pages: &[1, 3],
            ranks: &[9.0, 9.0],
        }]));
        // The pinned view still answers from its own epoch...
        assert_eq!(pinned.top_k(1), vec![Hit { page: 4, rank: 0.9 }]);
        assert_eq!(pinned.lookup(1).unwrap().rank, 0.7);
        // ...while the store serves the new one.
        assert_eq!(store.top_k(1), vec![Hit { page: 1, rank: 9.0 }]);
    }

    #[test]
    fn site_totals_fold_in_group_order() {
        // site 0 = {0, 1}, site 1 = {2, 3, 4}.
        let store = RankStore::new(4).with_sites(vec![0, 0, 1, 1, 1], 2);
        publish_two_groups(&store);
        let v = store.view();
        let totals = v.site_totals().unwrap();
        assert_eq!(totals.len(), 2);
        // Exact reference: group 0 partial then group 1 partial.
        let g0: [f64; 2] = [0.5 + 0.0, 0.1 + 0.9]; // pages 0→s0, 2→s1, 4→s1
        let g1: [f64; 2] = [0.7, 0.2]; // pages 1→s0, 3→s1
        assert_eq!(totals[0].to_bits(), (g0[0] + g1[0]).to_bits());
        assert_eq!(totals[1].to_bits(), (g0[1] + g1[1]).to_bits());
    }

    #[test]
    fn deleted_page_lookup_goes_stale_free() {
        // Satellite regression: after a crawl delta removes page 2 from
        // group 0, a lookup on it must answer `None` — not a stale
        // `(group, idx)` resolving into the shrunken rank vector.
        let store = RankStore::new(4);
        publish_two_groups(&store);
        assert_eq!(store.lookup(2).unwrap().rank, 0.1);
        let pinned = store.view();

        assert!(store.publish([GroupPublish {
            group: 0,
            epoch: 2,
            pages: &[0, 4],
            ranks: &[0.6, 1.0],
        }]));
        assert!(store.lookup(2).is_none(), "deleted page must not resolve");
        // Surviving pages re-resolve at their shifted local indices.
        let l = store.lookup(4).unwrap();
        assert_eq!((l.group, l.epoch, l.rank), (0, 2, 1.0));
        assert_eq!(store.lookup(0).unwrap().rank, 0.6);
        assert!(store.top_k(10).iter().all(|h| h.page != 2));
        assert_eq!(store.view().n_pages(), 4);
        // The pinned pre-delta view keeps serving the old epoch.
        assert_eq!(pinned.lookup(2).unwrap().rank, 0.1);

        // A later publish that *adds* a page (insert delta) resolves too.
        assert!(store.publish([GroupPublish {
            group: 0,
            epoch: 3,
            pages: &[0, 4, 7],
            ranks: &[0.6, 1.0, 0.3],
        }]));
        assert_eq!(store.lookup(7).unwrap().rank, 0.3);
        assert_eq!(store.view().n_pages(), 5);
    }

    #[test]
    #[should_panic(expected = "published by two groups")]
    fn page_ownership_clash_panics() {
        let store = RankStore::new(4);
        let _ = store.publish([
            GroupPublish { group: 0, epoch: 1, pages: &[0, 1], ranks: &[0.1, 0.2] },
            GroupPublish { group: 1, epoch: 1, pages: &[1], ranks: &[0.3] },
        ]);
    }

    /// Pages `0..UNIVERSE` exist; groups `0..GROUPS` deal them out.
    const UNIVERSE: u32 = 12;
    const GROUPS: u32 = 3;
    /// Ties across groups are the rule; both zeros order apart.
    const RANK_POOL: [f64; 5] = [0.5, 0.25, 1.0, 0.0, -0.0];
    /// Candidate list of the model test: duplicates, unowned, out of range.
    const CANDIDATES: [PageId; 10] = [0, 3, 3, 7, 11, 13, 99, u32::MAX, 5, 0];

    /// Everything the model test asks a view, in exact bits.
    #[derive(Debug, PartialEq)]
    struct Answers {
        top_k: Vec<Vec<(PageId, u64)>>,
        candidates: Vec<Vec<(PageId, u64)>>,
        lookups: Vec<Option<(GroupId, u64, u64)>>,
        n_pages: usize,
    }

    fn lookup_ids() -> impl Iterator<Item = PageId> {
        (0..=UNIVERSE + 1).chain([u32::MAX])
    }

    fn bits(hits: &[Hit]) -> Vec<(PageId, u64)> {
        hits.iter().map(|h| (h.page, h.rank.to_bits())).collect()
    }

    fn answers_of(view: &StoreView, ks: &[usize]) -> Answers {
        Answers {
            top_k: ks.iter().map(|&k| bits(&view.top_k(k))).collect(),
            candidates: ks.iter().map(|&k| bits(&view.top_k_candidates(k, &CANDIDATES))).collect(),
            lookups: lookup_ids()
                .map(|p| view.lookup(p).map(|l| (l.group, l.epoch, l.rank.to_bits())))
                .collect(),
            n_pages: view.n_pages(),
        }
    }

    /// The naive model: what each group last published, answered by a
    /// `HashMap` and full sorts.
    type Held = Vec<Option<(u64, Vec<PageId>, Vec<f64>)>>;

    fn model_answers(held: &Held, ks: &[usize]) -> Answers {
        let mut loc: HashMap<PageId, (GroupId, u64, f64)> = HashMap::new();
        for (g, h) in held.iter().enumerate() {
            if let Some((epoch, pages, ranks)) = h {
                for (&p, &r) in pages.iter().zip(ranks) {
                    assert!(loc.insert(p, (g as GroupId, *epoch, r)).is_none());
                }
            }
        }
        let mut all: Vec<Hit> =
            loc.iter().map(|(&page, &(_, _, rank))| Hit { page, rank }).collect();
        all.sort_by(hit_order);
        let mut cands = CANDIDATES.to_vec();
        cands.sort_unstable();
        cands.dedup();
        let mut cand_hits: Vec<Hit> =
            all.iter().filter(|h| cands.binary_search(&h.page).is_ok()).copied().collect();
        cand_hits.sort_by(hit_order);
        Answers {
            top_k: ks.iter().map(|&k| bits(&all[..k.min(all.len())])).collect(),
            candidates: ks.iter().map(|&k| bits(&cand_hits[..k.min(cand_hits.len())])).collect(),
            lookups: lookup_ids()
                .map(|p| loc.get(&p).map(|&(g, e, r)| (g, e, r.to_bits())))
                .collect(),
            n_pages: loc.len(),
        }
    }

    /// One publish step as raw draws: per page a new owner (`GROUPS` =
    /// nobody) used when `redeal`, per page a fresh rank, per group an
    /// action — 0 stay out of the batch, 1 fresh ranks at the next epoch,
    /// 2 the held ranks at the next epoch, 3 the held ranks at the held
    /// epoch. A group whose dealt page set differs from the one it holds
    /// is always in the batch, with fresh ranks.
    type Step = (bool, Vec<u32>, Vec<usize>, Vec<u8>);

    fn step_strategy() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        let pages = UNIVERSE as usize;
        (
            any::<bool>(),
            proptest::collection::vec(0..=GROUPS, pages),
            proptest::collection::vec(0..RANK_POOL.len(), pages),
            proptest::collection::vec(0u8..4, GROUPS as usize),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        // The store against the naive model after every publish — top-k
        // around the cap, candidate top-k, every lookup, `n_pages` — with
        // equal ranks across groups, epoch-only bumps, identical
        // republishes and repages that delete, insert and move pages
        // between groups in one batch; and every view pinned earlier
        // still answers exactly what it did.
        #[test]
        fn store_matches_a_naive_model(
            cap in proptest::strategy::Strategy::prop_map(0..4usize, |i| [0, 1, 3, 100][i]),
            steps in proptest::collection::vec(step_strategy(), 1..10),
        ) {
            let store = RankStore::new(cap);
            let mut held: Held = vec![None; GROUPS as usize];
            let mut owner: Vec<u32> = (0..UNIVERSE).map(|p| p % GROUPS).collect();
            let mut pinned: Vec<(Arc<StoreView>, Vec<usize>, Answers)> = Vec::new();
            for (redeal, owners, rank_draws, actions) in steps {
                if redeal {
                    owner = owners;
                }
                // A fixed, non-ascending local order per page set.
                let mut dealt: Vec<Vec<PageId>> = vec![Vec::new(); GROUPS as usize];
                for p in 0..UNIVERSE {
                    if let Some(d) = dealt.get_mut(owner[p as usize] as usize) {
                        d.push(p);
                    }
                }
                let mut batch: Vec<(GroupId, u64, Vec<PageId>, Vec<f64>)> = Vec::new();
                let mut expect_swap = false;
                for (g, mut pages) in dealt.into_iter().enumerate() {
                    pages.sort_by_key(|&p| (p * 7) % UNIVERSE);
                    let fresh: Vec<f64> =
                        pages.iter().map(|&p| RANK_POOL[rank_draws[p as usize]]).collect();
                    let (epoch, ranks) = match (&held[g], actions[g]) {
                        (Some((e, hp, _)), _) if *hp != pages => (e + 1, fresh),
                        (None, 0) | (Some(_), 0) => continue,
                        (None, _) => (0, fresh),
                        (Some((e, _, _)), 1) => (e + 1, fresh),
                        (Some((e, _, hr)), 2) => (e + 1, hr.clone()),
                        (Some((e, _, hr)), _) => (*e, hr.clone()),
                    };
                    expect_swap |= held[g].as_ref().is_none_or(|(e, hp, hr)| {
                        *e != epoch || *hp != pages || bits_of(hr) != bits_of(&ranks)
                    });
                    batch.push((g as GroupId, epoch, pages, ranks));
                }
                let swapped = store.publish(batch.iter().map(|(group, epoch, pages, ranks)| {
                    GroupPublish { group: *group, epoch: *epoch, pages, ranks }
                }));
                proptest::prop_assert_eq!(swapped, expect_swap);
                for (g, epoch, pages, ranks) in batch {
                    held[g as usize] = Some((epoch, pages, ranks));
                }

                let total = held.iter().flatten().map(|(_, p, _)| p.len()).sum::<usize>();
                let ks = vec![0, 1, cap.saturating_sub(1), cap, cap + 1, total + 3];
                let want = model_answers(&held, &ks);
                let view = store.view();
                proptest::prop_assert_eq!(&answers_of(&view, &ks), &want);
                for (old, old_ks, old_want) in &pinned {
                    proptest::prop_assert_eq!(&answers_of(old, old_ks), old_want);
                }
                pinned.push((view, ks, want));
            }
        }
    }

    fn bits_of(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
