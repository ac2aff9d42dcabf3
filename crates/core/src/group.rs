//! Algorithm 2 — `GroupPageRank`, the per-group open-system solver.
//!
//! A page group (the pages owned by one page ranker) sees the world as in
//! Fig 2 of the paper:
//!
//! * **inner links** — both endpoints in the group: the local matrix `A`
//!   with `A[v][u] = α/d(u)`;
//! * **virtual links** — the uniform rank source `βE`;
//! * **afferent links** — rank `X` flowing in from other groups;
//! * **efferent links** — rank `Y = α·R(u)/d(u)` flowing out to other
//!   groups (see the crate-level note on the paper's formula 3.5 typo).
//!
//! `GroupPageRank(R0, X)` iterates `R ← A·R + βE + X` to its fixed point;
//! the column norm satisfies `‖A‖₁ ≤ α < 1` (the paper writes `‖A‖∞` for
//! its row-stochastic orientation; ours is transposed), so Theorems 3.1–3.3
//! guarantee convergence.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use dpr_graph::{PageId, WebGraph};
use dpr_linalg::{
    column_scale, CsrImplicit, FixedPointSolver, Pool, SolveReport, INNER_STOP_RATIO,
};
use dpr_partition::{GroupId, Partition};

use crate::config::RankConfig;

/// Which in-memory layout a group's local matrix uses: always the
/// implicit-value [`CsrImplicit`], which streams ≤ 8 bytes per non-zero
/// instead of 12+; the tests hold its solves to the explicit twin
/// (`CsrImplicit::to_explicit`). It has one variant and stays a parameter
/// of [`GroupContext::build_all_with_layout`] and [`GroupContext::rebuild`]
/// only because the benchmark crate (`benchmark/src/phases.rs`,
/// `layers.rs`) passes `MatrixLayout::default()` to both. It stays an enum,
/// not a unit struct: clippy's `default_constructed_unit_structs` would
/// flag those calls under the benchmark's `-D warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixLayout {
    /// Implicit per-column values (`α/d(u)`), `u32` gather kernel.
    #[default]
    Implicit,
}

/// A value derived from the rest of its owner and computed on first use.
/// It never takes part in equality: two contexts with the same structure
/// are equal whether or not either has filled its memos yet.
#[derive(Debug, Clone)]
struct Memo<T>(OnceLock<T>);

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Self(OnceLock::new())
    }
}

impl<T> PartialEq for Memo<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// One efferent edge: `(local source index, α/d(source), global destination
/// page)`.
type EfferentEdge = (u32, f64, PageId);

/// Efferent edges from one group to a single destination group, sorted by
/// destination page so outgoing scores aggregate in one scan.
#[derive(Debug, Clone, PartialEq)]
struct EfferentBatch {
    dest: GroupId,
    edges: Vec<EfferentEdge>,
    /// The distinct destination pages of `edges`, ascending — the page-id
    /// half of every `Y` this batch publishes. Built the first time the
    /// group publishes and shared by pointer with every part and receiver.
    pattern: Memo<Arc<[PageId]>>,
}

impl EfferentBatch {
    fn new(dest: GroupId, mut edges: Vec<EfferentEdge>) -> Self {
        edges.sort_unstable_by_key(|&(_, _, v)| v);
        Self { dest, edges, pattern: Memo::default() }
    }

    fn pattern(&self) -> &Arc<[PageId]> {
        self.pattern.0.get_or_init(|| {
            let mut pages: Vec<PageId> = self.edges.iter().map(|&(_, _, v)| v).collect();
            pages.dedup();
            pages.into()
        })
    }

    /// The score half of this batch's `Y`, aligned with
    /// [`EfferentBatch::pattern`]: per destination page, the products
    /// `α/d(u) · R(u)` added in edge order.
    fn scores(&self, r: &[f64]) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::with_capacity(self.pattern().len());
        let mut last_v = None;
        for &(lu, w, v) in &self.edges {
            let score = w * r[lu as usize];
            match out.last_mut() {
                Some(acc) if last_v == Some(v) => *acc += score,
                _ => out.push(score),
            }
            last_v = Some(v);
        }
        out
    }
}

/// Everything one page ranker needs to run Algorithms 2–4 on its group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupContext {
    group_id: GroupId,
    /// Global ids of the pages in this group, sorted ascending; local index
    /// `i` refers to `pages[i]`.
    pages: Vec<PageId>,
    /// Local propagation matrix (inner links only).
    a: CsrImplicit,
    /// `βE` restricted to this group's pages.
    beta_e: Vec<f64>,
    /// Outgoing rank routes, one batch per destination group.
    efferent: Vec<EfferentBatch>,
}

impl GroupContext {
    /// Builds the contexts of **all** groups of a partition: one
    /// [`GroupContext::rebuild`]-equivalent assembly per group, fanned out
    /// over the shared worker pool (O(pages + links) in total).
    #[must_use]
    pub fn build_all(g: &WebGraph, partition: &Partition, cfg: &RankConfig) -> Vec<GroupContext> {
        Self::build_all_with_layout(g, partition, cfg, MatrixLayout::default())
    }

    /// [`GroupContext::build_all`]; `MatrixLayout` has one variant.
    #[must_use]
    pub fn build_all_with_layout(
        g: &WebGraph,
        partition: &Partition,
        cfg: &RankConfig,
        _layout: MatrixLayout,
    ) -> Vec<GroupContext> {
        cfg.validate(g.n_pages());
        assert_eq!(partition.n_pages(), g.n_pages());
        let k = partition.k();

        let group_pages = partition.group_pages();
        // Global page -> local index within its group.
        let mut local_of = vec![0u32; g.n_pages()];
        for pages in &group_pages {
            for (i, &p) in pages.iter().enumerate() {
                local_of[p as usize] = i as u32;
            }
        }

        // Groups assemble independently, one chunk each, so the result is
        // identical to the sequential loop. Small builds stay inline: the
        // broadcast handoff would dominate.
        let pool = if g.n_pages() >= 1 << 14 && k > 1 {
            Pool::global().clone()
        } else {
            Pool::sequential()
        };
        let slots: Vec<OnceLock<GroupContext>> = (0..k).map(|_| OnceLock::new()).collect();
        pool.for_each_chunk(k, |gid| {
            let pages = group_pages[gid].clone();
            let local = |_: &[PageId], v: PageId| local_of[v as usize];
            let ctx = Self::assemble(g, partition.assignment(), cfg, gid as GroupId, pages, local);
            assert!(slots[gid].set(ctx).is_ok(), "group {gid} built twice");
        });
        slots.into_iter().map(|s| s.into_inner().expect("every group built")).collect()
    }

    /// Rebuilds **one** group's context against a mutated graph — the
    /// incremental-ranking path: a delta dirties a handful of groups, each
    /// of which re-derives its matrix, efferent routes, and `βE` from the
    /// new graph, while every untouched group keeps its existing context
    /// untouched. Cost is one pass over the group's own rows, independent
    /// of graph size.
    ///
    /// `pages` is the group's sorted page set in the new graph;
    /// `assignment` maps every page of `g` to its owning group. This is the
    /// assembly [`GroupContext::build_all_with_layout`] runs per group, with
    /// inner destinations localized by binary search instead of a
    /// whole-graph index, so both yield the same arrays and all solve bits
    /// match exactly.
    ///
    /// # Panics
    /// If `pages` is not sorted-unique, contains a page outside `g` or not
    /// assigned to `gid`, or `assignment` does not cover `g`.
    #[must_use]
    pub fn rebuild(
        g: &WebGraph,
        assignment: &[GroupId],
        cfg: &RankConfig,
        gid: GroupId,
        pages: Vec<PageId>,
        _layout: MatrixLayout,
    ) -> GroupContext {
        cfg.validate(g.n_pages());
        assert_eq!(assignment.len(), g.n_pages(), "assignment must cover the graph");
        assert!(pages.windows(2).all(|w| w[0] < w[1]), "pages must be sorted unique");
        let local = |pages: &[PageId], v: PageId| {
            pages.binary_search(&v).expect("inner destination owned") as u32
        };
        Self::assemble(g, assignment, cfg, gid, pages, local)
    }

    /// The one way a group's context is made: scans the group's pages in
    /// ascending order, splits every out-link by its destination's group
    /// into an inner pair (localized through `local_of(pages, v)`) or an
    /// efferent edge, and assembles the matrix, the efferent batches and
    /// `βE`. The scan order fixes every array, so the result does not
    /// depend on how `local_of` finds an index.
    fn assemble(
        g: &WebGraph,
        assignment: &[GroupId],
        cfg: &RankConfig,
        gid: GroupId,
        pages: Vec<PageId>,
        local_of: impl Fn(&[PageId], PageId) -> u32,
    ) -> GroupContext {
        // Inner links as local (row, col) = (dest, src) pairs; the entry
        // value is implicit (`α/d(src)`, a function of the column alone),
        // so nothing else needs collecting.
        let mut inner: Vec<(u32, u32)> = Vec::new();
        let mut eff_map: HashMap<GroupId, Vec<EfferentEdge>> = HashMap::new();
        for (lu, &u) in pages.iter().enumerate() {
            assert_eq!(assignment[u as usize], gid, "page {u} is not assigned to group {gid}");
            let d = g.out_degree(u);
            if d == 0 {
                continue;
            }
            let w = cfg.alpha / f64::from(d);
            let lu = lu as u32;
            for &v in g.out_links(u) {
                let gv = assignment[v as usize];
                if gv == gid {
                    inner.push((local_of(&pages, v), lu));
                } else {
                    eff_map.entry(gv).or_default().push((lu, w, v));
                }
            }
        }
        let mut efferent: Vec<EfferentBatch> =
            eff_map.into_iter().map(|(dest, edges)| EfferentBatch::new(dest, edges)).collect();
        efferent.sort_unstable_by_key(|b| b.dest);
        let a = Self::assemble_matrix(g, cfg, &pages, &inner);
        GroupContext { group_id: gid, beta_e: cfg.beta_e_for(&pages), a, pages, efferent }
    }

    /// Assembles one group's local matrix from its inner-link pairs:
    /// counting-sort by destination row, per-row column sort, per-column
    /// scale `α/d(u)` (exactly `0.0` for dangling pages — see
    /// `dpr_linalg::column_scale`). Parallel inner links stay as separate
    /// entries.
    fn assemble_matrix(
        g: &WebGraph,
        cfg: &RankConfig,
        pages: &[PageId],
        pairs: &[(u32, u32)],
    ) -> CsrImplicit {
        let n = pages.len();
        let degrees: Vec<u32> = pages.iter().map(|&p| g.out_degree(p)).collect();
        let scale = column_scale(cfg.alpha, &degrees);
        let mut row_ptr = vec![0u64; n + 1];
        for &(lv, _) in pairs {
            row_ptr[lv as usize + 1] += 1;
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut cursor: Vec<u64> = row_ptr.clone();
        let mut col_idx = vec![0u32; pairs.len()];
        for &(lv, lu) in pairs {
            let slot = cursor[lv as usize] as usize;
            col_idx[slot] = lu;
            cursor[lv as usize] += 1;
        }
        for r in 0..n {
            col_idx[row_ptr[r] as usize..row_ptr[r + 1] as usize].sort_unstable();
        }
        CsrImplicit::from_raw_parts(n, n, row_ptr, col_idx, scale)
    }

    /// The group's local propagation matrix.
    #[must_use]
    pub fn matrix(&self) -> &CsrImplicit {
        &self.a
    }

    /// This group's id.
    #[must_use]
    pub fn group_id(&self) -> GroupId {
        self.group_id
    }

    /// Number of pages owned by the group.
    #[must_use]
    pub fn n_local(&self) -> usize {
        self.pages.len()
    }

    /// The global page ids owned by the group (sorted).
    #[must_use]
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The groups this group sends rank to.
    pub fn efferent_groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.efferent.iter().map(|b| b.dest)
    }

    /// Maps a global page id to its local index, if owned by this group.
    #[must_use]
    pub fn local_index(&self, p: PageId) -> Option<usize> {
        self.pages.binary_search(&p).ok()
    }

    /// `βE` restricted to this group's pages. Callers that keep a persistent
    /// `f = βE + X` buffer rebuild its rows from this slice.
    #[must_use]
    pub fn beta_e(&self) -> &[f64] {
        &self.beta_e
    }

    /// **Algorithm 2**: solves `R = A·R + βE + X` starting from the current
    /// contents of `r` (warm starts make DPR1's later outer loops cheap).
    /// The caller passes the right-hand side `f = βE + X` directly
    /// (maintained incrementally across think steps) plus reusable solve
    /// and multiply-workspace buffers, so the hot path allocates nothing.
    ///
    /// The solve stops at `δ_k ≤ max(epsilon, η·δ₁)` with `η =`
    /// [`INNER_STOP_RATIO`]: a hundredth of what this think's first sweep
    /// moved is already far below what the next think's inputs will
    /// change, and `epsilon` is the floor. It is
    /// [`FixedPointSolver::solve_relative_with_scratch`] on
    /// [`GroupContext::matrix`], bit for bit.
    pub fn group_pagerank_prepared(
        &self,
        r: &mut Vec<f64>,
        f: &[f64],
        epsilon: f64,
        max_iters: usize,
        scratch: &mut Vec<f64>,
        ws: &mut Vec<f64>,
    ) -> SolveReport {
        assert_eq!(r.len(), self.n_local());
        assert_eq!(f.len(), self.n_local());
        FixedPointSolver { tolerance: epsilon, max_iters, pool: Pool::sequential() }
            .solve_relative_with_scratch(&self.a, f, r, scratch, ws, INNER_STOP_RATIO)
    }

    /// One iteration `R ← A·R + βE + X` (the DPR2 node body) with a
    /// prepared `f = βE + X` and reusable double/workspace buffers, so it
    /// allocates nothing. Returns the successive L1 difference.
    pub fn step_prepared(
        &self,
        r: &mut Vec<f64>,
        f: &[f64],
        scratch: &mut Vec<f64>,
        ws: &mut Vec<f64>,
    ) -> f64 {
        assert_eq!(r.len(), self.n_local());
        assert_eq!(f.len(), self.n_local());
        FixedPointSolver::default().step_with_scratch(&self.a, f, r, 1, scratch, ws)
    }

    /// Computes the outgoing rank `Y` for every destination group:
    /// `Y(v) = Σ_{u→v efferent} α·R(u)/d(u)`, aggregated per destination
    /// page. Entries are `(global destination page, score)`.
    #[must_use]
    pub fn compute_y(&self, r: &[f64]) -> Vec<(GroupId, Vec<(PageId, f64)>)> {
        self.y_parts(r)
            .map(|(dest, pattern, scores)| (dest, pattern.iter().copied().zip(scores).collect()))
            .collect()
    }

    /// [`GroupContext::compute_y`] split the way the link structure splits
    /// it: per destination group, the page-id pattern (fixed until a delta
    /// rebuilds this context, memoized, shared by pointer) and this call's
    /// scores, aligned with it.
    pub(crate) fn y_parts<'a>(
        &'a self,
        r: &'a [f64],
    ) -> impl Iterator<Item = (GroupId, &'a Arc<[PageId]>, Vec<f64>)> + 'a {
        assert_eq!(r.len(), self.n_local());
        self.efferent.iter().map(move |batch| (batch.dest, batch.pattern(), batch.scores(r)))
    }

    /// Localizes an incoming `Y` payload (global page ids) into
    /// `(local index, score)` pairs; entries for pages this group does not
    /// own are ignored (stale traffic after a repartition).
    #[must_use]
    pub fn localize(&self, entries: &[(PageId, f64)]) -> Vec<(u32, f64)> {
        entries.iter().filter_map(|&(p, s)| self.local_index(p).map(|i| (i as u32, s))).collect()
    }
}

/// The afferent-rank bookkeeping every ranker needs: the latest `Y`
/// received from each source group, materialized on demand into the dense
/// `X` vector of Algorithm 2. A newer message from the same source
/// *replaces* the older one — `Y` is the sender's current outflow, not an
/// increment — which is what makes DPR1's sequences monotone under loss
/// (a dropped `Y` just leaves the previous, smaller one in place).
///
/// # Structure once, scores every window
///
/// Between crawl deltas the link structure behind a source's `Y` never
/// changes, only its scores do. The state therefore keeps, per
/// source, the page-id *pattern* of its last `Y`, the local row of every
/// entry, and a *slot* per entry into one flat value array laid out row
/// by row, ascending source within a row (`row_ptr` + `slot_vals`: `X =
/// S·vals` as a CSR with an implicit all-ones `S`). A delivery whose
/// pattern matches the stored one — a pointer compare when sender and
/// receiver share the memoized `Arc`, an id-by-id compare otherwise —
/// writes its scores through the slots and marks exactly the rows whose
/// bits moved. Only a pattern that really changed (first contact, a delta
/// that rewired the sender, a checkpoint installed by
/// [`AfferentState::set`]) re-localizes it and rebuilds the layout.
///
/// [`AfferentState::refresh`] re-sums each marked row as one contiguous
/// slice, *from scratch in ascending source order*, so `X` is
/// bit-identical at every refresh to summing every source's latest entries
/// afresh in that order: floating-point addition is not associative, and
/// the engine promises bit-identical runs per seed. The tests hold it to
/// exactly that naive model (`tests/ext_cache.rs`, `ranker::tests`).
///
/// Pages of a pattern this group does not own (a `Y` computed before a
/// delta tombstoned them, still in flight) keep their place in the
/// pattern and a slot in a trailing *spill row* that no `X` entry sums,
/// so pattern and slots remain a faithful copy of the raw payload for
/// [`AfferentState::replay_onto`].
#[derive(Debug, Clone)]
pub struct AfferentState {
    x: Vec<f64>,
    rows_recomputed: u64,
    store: Slotted,
}

/// One source group's latest contribution in slotted form; `local` and the
/// scores are aligned entry for entry.
#[derive(Debug, Clone)]
struct Source {
    src: GroupId,
    /// Page ids of the last raw delivery. `None` once the contribution is
    /// only known in localized form (after a `set`).
    pattern: Option<Arc<[PageId]>>,
    /// Local row per entry, ascending; `n_local` (the spill row) for a
    /// page this group does not own.
    local: Vec<u32>,
    held: Held,
}

/// Where a source's scores live.
#[derive(Debug, Clone)]
enum Held {
    /// In `slot_vals`, entry `k` at `slots[k]`.
    Slots(Vec<u32>),
    /// With the source itself: its entry structure changed since the last
    /// layout, and the next refresh gives it slots. Deferring that lets a
    /// burst of first contacts (start-up, a takeover, a delta replay)
    /// share one layout pass.
    Staged(Vec<f64>),
}

/// Rows whose `x` entry is stale, deduplicated through `flags`.
#[derive(Debug, Clone)]
struct DirtyRows {
    flags: Vec<bool>,
    rows: Vec<u32>,
}

impl DirtyRows {
    /// Marks row `li` stale; the spill row (`li == n_local`) has no `x`
    /// entry and is skipped.
    #[inline]
    fn mark(&mut self, li: u32) {
        if let Some(flag) = self.flags.get_mut(li as usize) {
            if !*flag {
                *flag = true;
                self.rows.push(li);
            }
        }
    }
}

/// Stores `v` in `cell` and marks row `li` stale when the bits moved. Bits,
/// not `==`: `0.0`/`-0.0` differ and equal NaNs match.
#[inline]
fn store(cell: &mut f64, v: f64, li: u32, dirty: &mut DirtyRows) {
    if cell.to_bits() != v.to_bits() {
        *cell = v;
        dirty.mark(li);
    }
}

#[derive(Debug, Clone)]
struct Slotted {
    /// Ascending by source group.
    sources: Vec<Source>,
    /// `n_local + 2` offsets into `slot_vals`: one row per local page plus
    /// the spill row.
    row_ptr: Vec<u32>,
    /// The scores of every source that has slots, row-major, ascending
    /// source within a row.
    slot_vals: Vec<f64>,
    dirty: DirtyRows,
}

impl Slotted {
    fn new(n_local: usize) -> Self {
        Self {
            sources: Vec::new(),
            row_ptr: vec![0; n_local + 2],
            slot_vals: Vec::new(),
            dirty: DirtyRows { flags: vec![false; n_local], rows: Vec::new() },
        }
    }

    fn n_local(&self) -> u32 {
        self.dirty.flags.len() as u32
    }

    fn find(&self, src: GroupId) -> Result<usize, usize> {
        self.sources.binary_search_by_key(&src, |s| s.src)
    }

    /// The hot path: writes `scores` (aligned with `sources[i]`'s entries)
    /// where they live and marks the rows whose bits moved.
    fn write(&mut self, i: usize, scores: impl Iterator<Item = f64>) {
        let s = &mut self.sources[i];
        match &mut s.held {
            Held::Slots(slots) => {
                for ((&slot, &li), v) in slots.iter().zip(&s.local).zip(scores) {
                    store(&mut self.slot_vals[slot as usize], v, li, &mut self.dirty);
                }
            }
            Held::Staged(vals) => {
                for ((cell, &li), v) in vals.iter_mut().zip(&s.local).zip(scores) {
                    store(cell, v, li, &mut self.dirty);
                }
            }
        }
    }

    /// Entry `k` of `s`.
    fn score(&self, s: &Source, k: usize) -> f64 {
        match &s.held {
            Held::Slots(slots) => self.slot_vals[slots[k] as usize],
            Held::Staged(vals) => vals[k],
        }
    }

    /// The owned `(row, score)` entries of `s`, ascending by row.
    fn localized<'a>(&'a self, s: &'a Source) -> impl Iterator<Item = (u32, f64)> + 'a {
        let n = self.n_local();
        s.local
            .iter()
            .enumerate()
            .filter(move |(_, &li)| li < n)
            .map(|(k, &li)| (li, self.score(s, k)))
    }

    /// Installs a contribution whose entry structure differs from the
    /// stored one (or a first contribution): marks the rows where the
    /// source's contribution appears, disappears or changes bits, and
    /// stages the scores until the next layout.
    fn restage(
        &mut self,
        src: GroupId,
        pattern: Option<Arc<[PageId]>>,
        local: Vec<u32>,
        scores: Vec<f64>,
    ) {
        debug_assert_eq!(local.len(), scores.len());
        let n = self.n_local();
        let at = self.find(src);
        let held: Vec<(u32, f64)> =
            at.map_or_else(|_| Vec::new(), |i| self.localized(&self.sources[i]).collect());
        let mut held = held.into_iter().peekable();
        let mut fresh =
            local.iter().zip(&scores).filter(|(&li, _)| li < n).map(|(&li, &v)| (li, v)).peekable();
        // Both ascend by row: one merge pass finds the rows on one side
        // only and the shared rows whose bits differ.
        loop {
            let li = match (held.peek().copied(), fresh.peek().copied()) {
                (None, None) => break,
                (Some((a, va)), Some((b, vb))) if a == b => {
                    held.next();
                    fresh.next();
                    if va.to_bits() == vb.to_bits() {
                        continue;
                    }
                    a
                }
                (Some((a, _)), Some((b, _))) if a < b => {
                    held.next();
                    a
                }
                (Some((a, _)), None) => {
                    held.next();
                    a
                }
                (_, Some((b, _))) => {
                    fresh.next();
                    b
                }
            };
            self.dirty.mark(li);
        }
        drop(fresh);
        let new = Source { src, pattern, local, held: Held::Staged(scores) };
        match at {
            Ok(i) => self.sources[i] = new,
            Err(i) => self.sources.insert(i, new),
        }
    }

    /// Lays `slot_vals` out afresh for the current entry structure of
    /// every source: row by row, ascending source within a row. Values
    /// move, none changes, so rows nobody marked re-sum to the same bits.
    fn layout(&mut self) {
        let entries: usize = self.sources.iter().map(|s| s.local.len()).sum();
        assert!(
            u32::try_from(entries).is_ok(),
            "{entries} afferent entries overflow the u32 slots"
        );
        let mut row_ptr = vec![0u32; self.row_ptr.len()];
        for s in &self.sources {
            for &li in &s.local {
                row_ptr[li as usize + 1] += 1;
            }
        }
        for r in 1..row_ptr.len() {
            row_ptr[r] += row_ptr[r - 1];
        }
        let mut cursor = row_ptr.clone();
        let mut vals = vec![0.0; entries];
        for i in 0..self.sources.len() {
            let s = &self.sources[i];
            let slots: Vec<u32> = (0..s.local.len())
                .map(|k| {
                    let next = &mut cursor[s.local[k] as usize];
                    let slot = *next;
                    *next += 1;
                    vals[slot as usize] = self.score(s, k);
                    slot
                })
                .collect();
            self.sources[i].held = Held::Slots(slots);
        }
        self.row_ptr = row_ptr;
        self.slot_vals = vals;
    }

    /// A raw delivery: `scores[k]` is `src`'s current outflow into page
    /// `pattern[k]`; `pages` are the receiving group's own, ascending.
    fn deliver(&mut self, pages: &[PageId], src: GroupId, pattern: &Arc<[PageId]>, scores: &[f64]) {
        let at = self.find(src);
        if let Ok(i) = at {
            match &mut self.sources[i].pattern {
                Some(held) if Arc::ptr_eq(held, pattern) => {
                    return self.write(i, scores.iter().copied());
                }
                // After a delta rebuilt the sender the ids may match under
                // a new allocation: adopt it so the next compare is a
                // pointer compare again.
                Some(held) if held[..] == pattern[..] => {
                    *held = Arc::clone(pattern);
                    return self.write(i, scores.iter().copied());
                }
                _ => {}
            }
        }
        let n = pages.len() as u32;
        let local: Vec<u32> =
            pattern.iter().map(|p| pages.binary_search(p).map_or(n, |li| li as u32)).collect();
        if let Ok(i) = at {
            // Unknown or different ids that land on the same rows (the
            // first delivery after a takeover installed this source from
            // a checkpoint): the entry structure stands.
            if self.sources[i].local == local {
                self.sources[i].pattern = Some(Arc::clone(pattern));
                return self.write(i, scores.iter().copied());
            }
        }
        self.restage(src, Some(Arc::clone(pattern)), local, scores.to_vec());
    }

    fn set(&mut self, src: GroupId, entries: Vec<(u32, f64)>) {
        if let Ok(i) = self.find(src) {
            if self.sources[i].local.iter().copied().eq(entries.iter().map(|e| e.0)) {
                self.sources[i].pattern = None;
                return self.write(i, entries.iter().map(|e| e.1));
            }
        }
        let (local, scores) = entries.into_iter().unzip();
        self.restage(src, None, local, scores);
    }
}

impl AfferentState {
    /// State for a group with `n_local` pages (X starts at zero).
    #[must_use]
    pub fn new(n_local: usize) -> Self {
        Self { x: vec![0.0; n_local], rows_recomputed: 0, store: Slotted::new(n_local) }
    }

    /// Records the latest raw `Y` from `src`: `scores[k]` flows into page
    /// `pattern[k]` (global ids, strictly ascending — what
    /// `GroupContext::y_parts` produces). `pages` is the receiving
    /// group's own sorted page list ([`GroupContext::pages`]); pattern
    /// pages outside it contribute nothing. Replaces any previous
    /// contribution from the same source, like [`AfferentState::set`] of
    /// the localized payload, without materializing it.
    ///
    /// # Panics
    /// If `pattern` and `scores` differ in length or `pages` is not this
    /// state's group.
    pub fn deliver(
        &mut self,
        pages: &[PageId],
        src: GroupId,
        pattern: &Arc<[PageId]>,
        scores: &[f64],
    ) {
        assert_eq!(pattern.len(), scores.len(), "one score per pattern page");
        assert_eq!(pages.len(), self.x.len(), "pages must be the receiving group's");
        debug_assert!(pattern.windows(2).all(|w| w[0] < w[1]), "pattern must ascend");
        self.store.deliver(pages, src, pattern, scores);
    }

    fn check_entries(&self, entries: &[(u32, f64)]) {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "Y entries must be sorted by unique local index"
        );
        assert!(
            entries.last().is_none_or(|e| (e.0 as usize) < self.x.len()),
            "Y entry outside the group's rows"
        );
    }

    /// Records the latest `Y` from `src` (already localized); replaces any
    /// previous contribution from the same source. Entries must be sorted
    /// by strictly increasing local index (what
    /// [`GroupContext::localize`] produces).
    pub fn set(&mut self, src: GroupId, entries: Vec<(u32, f64)>) {
        self.check_entries(&entries);
        self.store.set(src, entries);
    }

    /// Materializes and returns `X` ("Xi+1 = Refresh X" in Algorithms 3/4).
    pub fn refresh(&mut self) -> &[f64] {
        self.refresh_tracked(None);
        &self.x
    }

    /// [`AfferentState::refresh`], appending the indices of every row whose
    /// `x` entry was recomputed to `touched`. Callers maintaining derived
    /// per-row state — the ranker's persistent `f = βE + X` buffer — use
    /// the worklist to update exactly the rows that may have changed.
    pub fn refresh_tracked(&mut self, touched: Option<&mut Vec<u32>>) {
        let s = &mut self.store;
        if s.sources.iter().any(|source| matches!(source.held, Held::Staged(_))) {
            s.layout();
        }
        for &li in &s.dirty.rows {
            s.dirty.flags[li as usize] = false;
            let row = s.row_ptr[li as usize] as usize..s.row_ptr[li as usize + 1] as usize;
            // From-scratch re-sum in ascending source order: the same
            // additions, in the same order, as summing every source's
            // latest entries afresh.
            let mut sum = 0.0;
            for &v in &s.slot_vals[row] {
                sum += v;
            }
            self.x[li as usize] = sum;
        }
        self.rows_recomputed += s.dirty.rows.len() as u64;
        if let Some(t) = touched {
            t.extend_from_slice(&s.dirty.rows);
        }
        s.dirty.rows.clear();
    }

    /// The current `X` without refreshing (test/inspection use).
    #[must_use]
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Copies out the per-source contributions in localized form, in
    /// ascending source order — the checkpoint payload the replication
    /// protocol ships. Replaying the snapshot through
    /// [`AfferentState::set`] in this order reproduces `X` bit-identically
    /// on a fresh instance: both the original and the restored state sum
    /// rows in the same ascending source order.
    #[must_use]
    pub fn snapshot_received(&self) -> Vec<(GroupId, Vec<(u32, f64)>)> {
        let s = &self.store;
        s.sources.iter().map(|source| (source.src, s.localized(source).collect())).collect()
    }

    /// Re-delivers every source's last raw `Y` into `fresh`, the state of
    /// the same group after a delta changed its page set to `pages` —
    /// exactly what receiving those messages again under the new context
    /// would do: shifted local indices and dropped pages fall out of the
    /// re-localization. Only sources whose raw pattern is known replay; one
    /// installed by [`AfferentState::set`] (a checkpoint) is repopulated
    /// by its sender's next publication.
    pub fn replay_onto(&self, pages: &[PageId], fresh: &mut AfferentState) {
        let s = &self.store;
        for source in &s.sources {
            if let Some(pattern) = &source.pattern {
                let scores: Vec<f64> =
                    (0..source.local.len()).map(|k| s.score(source, k)).collect();
                fresh.deliver(pages, source.src, pattern, &scores);
            }
        }
    }

    /// Total rows recomputed across all refreshes: the rows some delivery
    /// marked, each counted once per refresh. Summing every row afresh on
    /// any change would count all of them every time.
    #[must_use]
    pub fn rows_recomputed(&self) -> u64 {
        self.rows_recomputed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use dpr_graph::generators::toy;
    use dpr_partition::Strategy;

    /// Algorithm 2 spelled out on the context's own parts: `f = βE + X`,
    /// then the plain solver on the group matrix.
    fn solve(ctx: &GroupContext, r: &mut Vec<f64>, x: &[f64], eps: f64) -> SolveReport {
        let f: Vec<f64> = ctx.beta_e().iter().zip(x).map(|(b, xi)| b + xi).collect();
        let solver = FixedPointSolver { tolerance: eps, max_iters: 1000, pool: Pool::sequential() };
        solver.solve(ctx.matrix(), &f, r)
    }

    #[test]
    fn afferent_state_replaces_per_source() {
        let mut st = AfferentState::new(3);
        st.set(0, vec![(0, 1.0), (2, 2.0)]);
        st.set(1, vec![(0, 0.5)]);
        assert_eq!(st.refresh(), &[1.5, 0.0, 2.0]);
        // A newer Y from source 0 replaces, not accumulates.
        st.set(0, vec![(0, 3.0)]);
        assert_eq!(st.refresh(), &[3.5, 0.0, 0.0]);
        assert_eq!(st.snapshot_received().len(), 2);
    }

    #[test]
    fn afferent_state_refresh_is_idempotent() {
        let mut st = AfferentState::new(2);
        st.set(5, vec![(1, 4.0)]);
        assert_eq!(st.refresh(), &[0.0, 4.0]);
        assert_eq!(st.refresh(), &[0.0, 4.0]);
    }

    #[test]
    fn afferent_snapshot_replays_bit_identically() {
        // The checkpoint/restore contract the takeover protocol relies on:
        // replaying a snapshot through `set` on a fresh instance rebuilds
        // the exact bits of `X`, which are the snapshot's entries summed
        // afresh in ascending source order.
        let mut st = AfferentState::new(5);
        st.set(3, vec![(0, 0.125), (4, 1.0 / 3.0)]);
        st.set(0, vec![(0, 0.7), (2, 1e-9), (4, 0.7)]);
        st.set(3, vec![(0, 0.125), (1, 0.2), (4, 1.0 / 3.0)]);
        // Row 4 sums to different bits in descending source order.
        st.set(9, vec![(3, 0.55), (4, 0.2)]);
        let x_before: Vec<u64> = st.refresh().iter().map(|v| v.to_bits()).collect();
        let snap = st.snapshot_received();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "ascending source order");
        let mut fresh = AfferentState::new(5);
        let mut naive = [0.0; 5];
        for (src, entries) in &snap {
            fresh.set(*src, entries.clone());
            for &(li, s) in entries {
                naive[li as usize] += s;
            }
        }
        let x_after: Vec<u64> = fresh.refresh().iter().map(|v| v.to_bits()).collect();
        assert_eq!(x_before, x_after);
        assert_eq!(x_before, naive.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn raw_deliveries_track_patterns_spill_foreign_pages_and_replay() {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // The group owns pages 10, 20, 30; page 25 is foreign.
        let pages = [10, 20, 30];
        let pattern: Arc<[PageId]> = Arc::from([10, 25, 30]);
        let mut st = AfferentState::new(3);
        st.deliver(&pages, 4, &pattern, &[1.0, 9.0, 2.0]);
        st.deliver(&pages, 2, &Arc::from([20, 30]), &[0.5, 0.25]);
        assert_eq!(st.refresh(), &[1.0, 0.5, 2.25]);
        assert_eq!(st.rows_recomputed(), 3);
        // Same pattern by pointer, one score moved: one row re-summed.
        st.deliver(&pages, 4, &pattern, &[1.0, 9.0, 3.0]);
        assert_eq!(st.refresh(), &[1.0, 0.5, 3.25]);
        assert_eq!(st.rows_recomputed(), 4);
        // Equal ids under another allocation, identical bits: nothing to do.
        st.deliver(&pages, 4, &Arc::from([10, 25, 30]), &[1.0, 9.0, 3.0]);
        st.refresh();
        assert_eq!(st.rows_recomputed(), 4);
        // The checkpoint form drops the foreign entry.
        let snap = st.snapshot_received();
        assert_eq!(snap, vec![(2, vec![(1, 0.5), (2, 0.25)]), (4, vec![(0, 1.0), (2, 3.0)])]);

        // A takeover installs the snapshot; each source's next delivery
        // lands on the same rows and only has to bring its pattern along.
        let mut taken = AfferentState::new(3);
        for (src, entries) in &snap {
            taken.set(*src, entries.clone());
        }
        assert_eq!(bits(taken.refresh()), bits(st.x()));
        let recomputed = taken.rows_recomputed();
        taken.deliver(&pages, 2, &Arc::from([20, 30]), &[0.5, 0.25]);
        taken.refresh();
        assert_eq!(taken.rows_recomputed(), recomputed);

        // A delta tombstones page 10 and brings page 25 in: the replay
        // re-localizes the full raw payload, foreign score included, and
        // skips the source known only in localized form.
        let mut fresh = AfferentState::new(3);
        st.replay_onto(&[20, 25, 30], &mut fresh);
        assert_eq!(fresh.refresh(), &[0.5, 9.0, 3.25]);
        let mut from_taken = AfferentState::new(3);
        taken.replay_onto(&[20, 25, 30], &mut from_taken);
        assert_eq!(from_taken.snapshot_received().len(), 1);
        // An empty part retracts a source's whole contribution.
        fresh.deliver(&[20, 25, 30], 4, &Arc::from([]), &[]);
        assert_eq!(fresh.refresh(), &[0.5, 0.0, 0.25]);
    }

    fn split_cycle() -> (WebGraph, Vec<GroupContext>) {
        // Cycle of 6 split into two groups of alternating pages: every link
        // crosses groups.
        let g = toy::cycle(6);
        let assignment = (0..6u32).map(|p| p % 2).collect();
        let partition = Partition::from_assignment(2, assignment);
        let ctxs = GroupContext::build_all(&g, &partition, &RankConfig::default());
        (g, ctxs)
    }

    #[test]
    fn build_all_structure() {
        let (_, ctxs) = split_cycle();
        assert_eq!(ctxs.len(), 2);
        assert_eq!(ctxs[0].pages(), &[0, 2, 4]);
        assert_eq!(ctxs[1].pages(), &[1, 3, 5]);
        // Alternating cycle: no inner links at all.
        assert_eq!(ctxs[0].a.nnz(), 0);
        assert_eq!(ctxs[0].efferent_groups().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn group_solve_is_bit_identical_to_its_explicit_twin() {
        // The implicit matrix holds the same entries as its explicit twin,
        // and inside one window the window sweep is a Jacobi sweep, so a
        // GroupPageRank solve of a group this small must produce the same
        // rank bits as the plain (Jacobi) solver on the twin, stopped by
        // the same relative rule.
        let g = toy::complete(10);
        let assignment = (0..10u32).map(|p| p % 2).collect();
        let partition = Partition::from_assignment(2, assignment);
        let ctx = GroupContext::build_all(&g, &partition, &RankConfig::default()).swap_remove(0);
        let twin = ctx.matrix().to_explicit();
        assert_eq!(ctx.matrix().nnz(), twin.nnz());
        assert!(ctx.matrix().heap_bytes() < twin.heap_bytes());
        let f: Vec<f64> = ctx.beta_e().iter().map(|b| b + 0.01).collect();
        let mut r_i = vec![0.0; ctx.n_local()];
        let (mut scratch, mut ws) = (Vec::new(), Vec::new());
        let report = ctx.group_pagerank_prepared(&mut r_i, &f, 1e-12, 1000, &mut scratch, &mut ws);
        assert!(report.converged);
        let mut r_e = vec![0.0; ctx.n_local()];
        let solver =
            FixedPointSolver { tolerance: 1e-12, max_iters: 1000, pool: Pool::sequential() };
        let (mut scratch_e, mut ws_e) = (Vec::new(), Vec::new());
        let report_e = solver.solve_relative_with_scratch(
            &twin,
            &f,
            &mut r_e,
            &mut scratch_e,
            &mut ws_e,
            INNER_STOP_RATIO,
        );
        assert_eq!(report_e.iterations, report.iterations);
        assert_eq!(report_e.final_delta.to_bits(), report.final_delta.to_bits());
        assert!(r_i.iter().zip(&r_e).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn compute_y_carries_alpha_fraction() {
        let (_, ctxs) = split_cycle();
        let r = vec![1.0, 1.0, 1.0];
        let ys = ctxs[0].compute_y(&r);
        assert_eq!(ys.len(), 1);
        let (dest, entries) = &ys[0];
        assert_eq!(*dest, 1);
        // Pages 0,2,4 each send α·1/1 to pages 1,3,5.
        assert_eq!(entries.len(), 3);
        for (_, s) in entries {
            assert!((s - 0.85).abs() < 1e-12);
        }
    }

    #[test]
    fn y_parts_share_one_memoized_pattern_per_destination() {
        let g = dpr_graph::generators::random::erdos_renyi(300, 6, 6.0, 9);
        let partition = Partition::build(&g, &Strategy::HashByUrl, 5, 0);
        let cfg = RankConfig::default();
        for ctx in &GroupContext::build_all(&g, &partition, &cfg) {
            let r: Vec<f64> = (0..ctx.n_local()).map(|i| 0.1 + 0.37 * i as f64).collect();
            let mut dests = ctx.efferent_groups();
            for ((dest, a, scores), (_, b, _)) in ctx.y_parts(&r).zip(ctx.y_parts(&r)) {
                assert_eq!(Some(dest), dests.next());
                // Every publication hands out the same allocation, which
                // is what receivers compare by pointer.
                assert!(Arc::ptr_eq(a, b));
                assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending, distinct pages");
                assert!(a.iter().all(|&p| partition.group_of(p) == dest));
                assert_eq!(a.len(), scores.len());
            }
            // The scores are the cross-group rank flow, link by link.
            let total: f64 = ctx.y_parts(&r).flat_map(|(_, _, scores)| scores).sum();
            let mut expect = 0.0;
            for (lu, &u) in ctx.pages().iter().enumerate() {
                let out =
                    g.out_links(u).iter().filter(|&&v| partition.group_of(v) != ctx.group_id());
                expect += out.count() as f64 * cfg.alpha / f64::from(g.out_degree(u)) * r[lu];
            }
            assert!((total - expect).abs() <= 1e-9 * expect.max(1.0), "{total} vs {expect}");
        }
    }

    #[test]
    fn y_aggregates_parallel_edges_to_same_dest() {
        // Two pages in group 0 both link to the same page in group 1.
        let mut b = dpr_graph::GraphBuilder::new();
        let s = b.add_site("a.edu");
        let p0 = b.add_page(s);
        let p1 = b.add_page(s);
        let p2 = b.add_page(s);
        b.add_link(p0, p2);
        b.add_link(p1, p2);
        let g = b.build();
        let partition = Partition::from_assignment(2, vec![0, 0, 1]);
        let ctxs = GroupContext::build_all(&g, &partition, &RankConfig::default());
        let ys = ctxs[0].compute_y(&[2.0, 4.0]);
        assert_eq!(ys[0].1, vec![(p2, 0.85 * 2.0 + 0.85 * 4.0)]);
    }

    #[test]
    fn group_pagerank_matches_global_fixed_point_via_exchange() {
        // Alternate GroupPageRank and Y-exchange by hand until the stacked
        // vector matches the centralized open-system solution.
        let (g, ctxs) = split_cycle();
        let cfg = RankConfig::default();
        let star = crate::centralized::open_pagerank(&g, &cfg);

        let mut r: Vec<Vec<f64>> = ctxs.iter().map(|c| vec![0.0; c.n_local()]).collect();
        let mut x: Vec<Vec<f64>> = r.clone();
        for _ in 0..200 {
            for (i, c) in ctxs.iter().enumerate() {
                assert!(solve(c, &mut r[i], &x[i], 1e-12).converged);
            }
            // Exchange Y.
            let mut new_x: Vec<Vec<f64>> = ctxs.iter().map(|c| vec![0.0; c.n_local()]).collect();
            for (i, c) in ctxs.iter().enumerate() {
                for (dest, entries) in c.compute_y(&r[i]) {
                    let dc = &ctxs[dest as usize];
                    for (li, s) in dc.localize(&entries) {
                        new_x[dest as usize][li as usize] += s;
                    }
                }
            }
            x = new_x;
        }
        let mut global = vec![0.0; g.n_pages()];
        for (i, c) in ctxs.iter().enumerate() {
            for (li, &p) in c.pages().iter().enumerate() {
                global[p as usize] = r[i][li];
            }
        }
        let err = dpr_linalg::vec_ops::relative_error(&global, &star.ranks);
        assert!(err < 1e-8, "relative error {err}");
    }

    #[test]
    fn localize_ignores_foreign_pages() {
        let (_, ctxs) = split_cycle();
        let local = ctxs[0].localize(&[(0, 1.0), (1, 2.0), (4, 3.0)]);
        assert_eq!(local, vec![(0, 1.0), (2, 3.0)]);
    }

    #[test]
    fn single_group_has_no_efferent_traffic() {
        let g = toy::complete(5);
        let partition = Partition::build(&g, &Strategy::HashBySite, 1, 0);
        let ctxs = GroupContext::build_all(&g, &partition, &RankConfig::default());
        assert_eq!(ctxs.len(), 1);
        assert_eq!(ctxs[0].efferent_groups().count(), 0);
        // And GroupPageRank alone reproduces CPR.
        let mut r = vec![0.0; 5];
        let x = vec![0.0; 5];
        solve(&ctxs[0], &mut r, &x, 1e-12);
        // The reference is itself only converged to ~1e-8 (its epsilon), so
        // compare with matching slack.
        let star = crate::centralized::open_pagerank(&g, &RankConfig::default());
        assert!(dpr_linalg::vec_ops::relative_error(&r, &star.ranks) < 1e-7);
    }

    /// One group as a reader of the paper derives it from the graph and the
    /// assignment alone: per local row, the sorted local columns of its
    /// inner in-links (parallel links repeated); per column, `α/d(u)` over
    /// the total out-degree (`0.0` when dangling); per destination group,
    /// the ascending distinct pages it is linked to and their `Y` under `r`.
    struct ModelGroup {
        rows: Vec<Vec<u32>>,
        scale: Vec<f64>,
        y: BTreeMap<GroupId, (Vec<PageId>, Vec<f64>)>,
    }

    fn model_group(
        g: &WebGraph,
        assignment: &[GroupId],
        alpha: f64,
        gid: GroupId,
        r: &[f64],
    ) -> ModelGroup {
        let pages: Vec<PageId> =
            (0..g.n_pages() as PageId).filter(|&p| assignment[p as usize] == gid).collect();
        let local = |p: PageId| pages.iter().position(|&q| q == p).unwrap() as u32;
        let degree = |u: PageId| g.out_links(u).len() as u32 + g.external_out_degree(u);
        let scale: Vec<f64> = pages
            .iter()
            .map(|&u| if degree(u) == 0 { 0.0 } else { alpha / f64::from(degree(u)) })
            .collect();
        let mut rows = vec![Vec::new(); pages.len()];
        let mut y_by_page: BTreeMap<GroupId, BTreeMap<PageId, f64>> = BTreeMap::new();
        for (lu, &u) in pages.iter().enumerate() {
            for &v in g.out_links(u) {
                let gv = assignment[v as usize];
                if gv == gid {
                    rows[local(v) as usize].push(lu as u32);
                } else {
                    *y_by_page.entry(gv).or_default().entry(v).or_default() += scale[lu] * r[lu];
                }
            }
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        let y = y_by_page
            .into_iter()
            .map(|(dest, by_page)| (dest, by_page.into_iter().unzip()))
            .collect();
        ModelGroup { rows, scale, y }
    }

    /// Holds one built context to the model, entry for entry.
    fn assert_matches_model(ctx: &GroupContext, model: &ModelGroup, r: &[f64]) {
        let gid = ctx.group_id();
        let m = ctx.matrix();
        assert_eq!(m.scale().len(), model.scale.len(), "group {gid}: column count");
        for (lu, (got, want)) in m.scale().iter().zip(&model.scale).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "group {gid} column {lu}: {got} vs {want}");
        }
        let twin = m.to_explicit();
        for (lv, want) in model.rows.iter().enumerate() {
            let (cols, vals): (Vec<u32>, Vec<f64>) =
                twin.row(lv).map(|(c, v)| (c as u32, v)).unzip();
            assert_eq!(&cols, want, "group {gid} row {lv}");
            assert!(vals
                .iter()
                .zip(&cols)
                .all(|(v, &c)| v.to_bits() == m.scale()[c as usize].to_bits()));
        }
        let parts: Vec<_> = ctx.y_parts(r).collect();
        let dests: Vec<GroupId> = parts.iter().map(|p| p.0).collect();
        assert_eq!(dests, model.y.keys().copied().collect::<Vec<_>>(), "group {gid}: destinations");
        for ((dest, pattern, scores), (want_pattern, want_scores)) in
            parts.iter().zip(model.y.values())
        {
            assert_eq!(&pattern[..], &want_pattern[..], "group {gid} -> {dest}: pattern");
            for (got, want) in scores.iter().zip(want_scores) {
                // Three or more contributions to one page may associate
                // differently from the model's running sum.
                assert!(
                    (got - want).abs() <= 1e-15 * want.abs(),
                    "group {gid} -> {dest}: Y {got} vs {want}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The one builder, reached through both entry points (the
        /// all-groups pass and the per-group rebuild), against the model:
        /// parallel links, dangling pages, pages with only external links
        /// and groups that own nothing.
        #[test]
        fn builder_matches_a_model_read_off_the_graph(
            n in 1usize..40,
            k in 1usize..7,
            links in proptest::collection::vec((0u32..40, 0u32..40), 0..160),
            ext in proptest::collection::vec(0u32..3, 40),
            owner in proptest::collection::vec(0u32..7, 40),
            seed in 0u64..1000,
        ) {
            let mut b = dpr_graph::GraphBuilder::new();
            let s = b.add_site("a.edu");
            for _ in 0..n {
                b.add_page(s);
            }
            let n32 = n as u32;
            for &(u, v) in &links {
                // Folding ids onto the page range repeats links: parallel
                // inner and efferent links both occur.
                b.add_link(u % n32, v % n32);
            }
            for (u, &e) in ext.iter().take(n).enumerate() {
                b.add_external_links(u as PageId, e);
            }
            let g = b.build();
            // Owners drawn from 0..7 folded onto `k` groups: some groups
            // get no page.
            let assignment: Vec<GroupId> =
                owner.iter().take(n).map(|&o| o % k as u32).collect();
            let partition = Partition::from_assignment(k, assignment.clone());
            let cfg = RankConfig::default();
            for ctx in GroupContext::build_all(&g, &partition, &cfg) {
                let gid = ctx.group_id();
                let r: Vec<f64> = (0..ctx.n_local())
                    .map(|i| 0.1 + ((seed + i as u64 * 7919) % 1000) as f64 / 997.0)
                    .collect();
                let model = model_group(&g, &assignment, cfg.alpha, gid, &r);
                assert_matches_model(&ctx, &model, &r);
                let rebuilt = GroupContext::rebuild(
                    &g,
                    &assignment,
                    &cfg,
                    gid,
                    ctx.pages().to_vec(),
                    MatrixLayout::default(),
                );
                assert_matches_model(&rebuilt, &model, &r);
            }
        }
    }

    #[test]
    fn empty_group_is_harmless() {
        let g = toy::cycle(4);
        // Group 2 owns nothing.
        let partition = Partition::from_assignment(3, vec![0, 0, 1, 1]);
        let ctxs = GroupContext::build_all(&g, &partition, &RankConfig::default());
        assert_eq!(ctxs[2].n_local(), 0);
        let mut r = vec![];
        assert!(solve(&ctxs[2], &mut r, &[], 1e-9).converged);
        assert!(ctxs[2].compute_y(&r).is_empty());
    }

    proptest::proptest! {
        /// Satellite contract: a re-crawl deletion that leaves some linker
        /// with no surviving out-links must give that page a column scale
        /// of **exactly** `0.0` in its group matrix — the same dangling
        /// contract the static build pins — never a phantom `α/d` from the
        /// pre-deletion degree.
        #[test]
        fn deletion_dangled_pages_get_exact_zero_column_scale(
            n in 2usize..40,
            sites in 1usize..4,
            deg in 1.0f64..5.0,
            change in 0.0f64..1.0,
            delete in 0.05f64..0.6,
            seed in 0u64..300,
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq, prop_assume};
            let g = dpr_graph::generators::random::erdos_renyi(n, sites, deg, seed);
            let (g2, report) =
                dpr_graph::refresh::recrawl_with_deletions(&g, change, 0.1, delete, seed ^ 1);
            prop_assume!(!report.deleted_pages.is_empty());
            let partition = Partition::build(&g2, &Strategy::HashBySite, 3, 0);
            let ctxs = GroupContext::build_all(&g2, &partition, &RankConfig::default());
            for ctx in &ctxs {
                let m = ctx.matrix();
                for (li, &p) in ctx.pages().iter().enumerate() {
                    if g2.out_degree(p) == 0 {
                        prop_assert_eq!(
                            m.scale()[li].to_bits(),
                            0.0f64.to_bits(),
                            "dangling page {} must scale to exactly 0.0",
                            p
                        );
                    } else {
                        prop_assert!(m.scale()[li] > 0.0);
                    }
                }
            }
        }
    }
}
