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

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use dpr_graph::{PageId, WebGraph};
use dpr_linalg::pool::SharedSlice;
use dpr_linalg::{column_scale, Csr, CsrImplicit, FixedPointSolver, Pool, SolveReport, SpMatVec};
use dpr_partition::{GroupId, Partition};

use crate::config::RankConfig;

/// Which in-memory layout a group's local matrix uses. The implicit-value
/// layout is the default everywhere: it streams ≤ 8 bytes per non-zero
/// instead of 12+ and is bit-identical to the explicit layout by
/// construction (see `dpr_linalg::CsrImplicit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixLayout {
    /// Implicit per-column values (`α/d(u)`), `u32` gather kernel.
    #[default]
    Implicit,
    /// Explicit per-entry `f64` values: the reference the implicit layout's
    /// solves are tested bit-identical against. No run uses it.
    Explicit,
}

/// A group's local propagation matrix in its chosen layout. Both variants
/// hold the *same entries* — the explicit form is materialized from the
/// implicit one (`values[k] = scale[col_idx[k]]`) — so solves are
/// bit-identical across layouts.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupMatrix {
    /// Explicit-value CSR.
    Explicit(Csr),
    /// Implicit-value (bandwidth-lean) CSR.
    Implicit(CsrImplicit),
}

impl GroupMatrix {
    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        match self {
            GroupMatrix::Explicit(m) => m.nnz(),
            GroupMatrix::Implicit(m) => m.nnz(),
        }
    }

    /// Heap bytes held by the matrix arrays.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match self {
            GroupMatrix::Explicit(m) => m.heap_bytes(),
            GroupMatrix::Implicit(m) => m.heap_bytes(),
        }
    }
}

impl SpMatVec for GroupMatrix {
    fn n_rows(&self) -> usize {
        match self {
            GroupMatrix::Explicit(m) => m.n_rows(),
            GroupMatrix::Implicit(m) => m.n_rows(),
        }
    }
    fn n_cols(&self) -> usize {
        match self {
            GroupMatrix::Explicit(m) => m.n_cols(),
            GroupMatrix::Implicit(m) => m.n_cols(),
        }
    }
    fn nnz(&self) -> usize {
        GroupMatrix::nnz(self)
    }
    fn mul_into(&self, x: &[f64], y: &mut [f64], ws: &mut Vec<f64>, pool: &Pool) {
        match self {
            GroupMatrix::Explicit(m) => m.mul_into(x, y, ws, pool),
            GroupMatrix::Implicit(m) => m.mul_into(x, y, ws, pool),
        }
    }
    fn sweep(
        &self,
        k: usize,
        x: &[f64],
        f: &[f64],
        next: &mut [f64],
        ws: &mut Vec<f64>,
        pool: &Pool,
    ) -> f64 {
        match self {
            GroupMatrix::Explicit(m) => m.sweep(k, x, f, next, ws, pool),
            GroupMatrix::Implicit(m) => m.sweep(k, x, f, next, ws, pool),
        }
    }
    fn contraction_norm(&self) -> f64 {
        match self {
            GroupMatrix::Explicit(m) => m.contraction_norm(),
            GroupMatrix::Implicit(m) => m.contraction_norm(),
        }
    }
    fn gs_row(&self, i: usize, init: f64, x: &[f64]) -> (f64, f64) {
        match self {
            GroupMatrix::Explicit(m) => m.gs_row(i, init, x),
            GroupMatrix::Implicit(m) => m.gs_row(i, init, x),
        }
    }
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
    /// Local propagation matrix (inner links only), in the layout chosen
    /// at build time (implicit-value by default).
    a: GroupMatrix,
    /// `βE` restricted to this group's pages.
    beta_e: Vec<f64>,
    /// Outgoing rank routes, one batch per destination group.
    efferent: Vec<EfferentBatch>,
    /// `min(‖A‖∞, ‖A‖₁)` of `a` (two passes over the matrix), computed by
    /// the first solve that reports it.
    norm: Memo<f64>,
}

/// The group matrix with its contraction norm read from the context's
/// memo: what the solvers are handed, so a solve per think window does not
/// pay two matrix passes for a bound nobody on that path reads.
struct MemoNorm<'a>(&'a GroupContext);

impl SpMatVec for MemoNorm<'_> {
    fn n_rows(&self) -> usize {
        self.0.a.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.0.a.n_cols()
    }
    fn nnz(&self) -> usize {
        self.0.a.nnz()
    }
    fn mul_into(&self, x: &[f64], y: &mut [f64], ws: &mut Vec<f64>, pool: &Pool) {
        self.0.a.mul_into(x, y, ws, pool);
    }
    fn sweep(
        &self,
        k: usize,
        x: &[f64],
        f: &[f64],
        next: &mut [f64],
        ws: &mut Vec<f64>,
        pool: &Pool,
    ) -> f64 {
        self.0.a.sweep(k, x, f, next, ws, pool)
    }
    fn contraction_norm(&self) -> f64 {
        self.0.contraction_norm()
    }
    fn gs_row(&self, i: usize, init: f64, x: &[f64]) -> (f64, f64) {
        self.0.a.gs_row(i, init, x)
    }
}

impl GroupContext {
    /// Builds the contexts of **all** groups of a partition in one pass over
    /// the graph (O(pages + links)), using the default bandwidth-lean
    /// [`MatrixLayout::Implicit`] local matrices.
    #[must_use]
    pub fn build_all(g: &WebGraph, partition: &Partition, cfg: &RankConfig) -> Vec<GroupContext> {
        Self::build_all_with_layout(g, partition, cfg, MatrixLayout::default())
    }

    /// [`GroupContext::build_all`] with an explicit choice of local-matrix
    /// layout.
    #[must_use]
    pub fn build_all_with_layout(
        g: &WebGraph,
        partition: &Partition,
        cfg: &RankConfig,
        layout: MatrixLayout,
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

        // Inner links as local (row, col) = (dest, src) pairs; the entry
        // value is implicit (`α/d(src)`, a function of the column alone),
        // so nothing else needs collecting.
        let mut inner: Vec<Vec<(u32, u32)>> = vec![Vec::new(); k];
        let mut efferent_maps: Vec<HashMap<GroupId, Vec<EfferentEdge>>> = vec![HashMap::new(); k];

        for u in 0..g.n_pages() as u32 {
            let d = g.out_degree(u);
            if d == 0 {
                continue;
            }
            let w = cfg.alpha / f64::from(d);
            let gu = partition.group_of(u);
            let lu = local_of[u as usize];
            for &v in g.out_links(u) {
                let gv = partition.group_of(v);
                if gv == gu {
                    inner[gu as usize].push((local_of[v as usize], lu));
                } else {
                    efferent_maps[gu as usize].entry(gv).or_default().push((lu, w, v));
                }
            }
        }

        // Per-group assembly (CSR conversion, efferent-batch sorting) is
        // independent across groups, so it fans out over the shared worker
        // pool — one chunk per group, each output slot written exactly once,
        // so the result is identical to the sequential loop. Small builds
        // stay inline: the broadcast handoff would dominate.
        let pool = if g.n_pages() >= 1 << 14 && k > 1 {
            Pool::global().clone()
        } else {
            Pool::sequential()
        };
        let mut pages_in = group_pages;
        let mut out: Vec<Option<GroupContext>> = (0..k).map(|_| None).collect();
        {
            let pages_slots = SharedSlice::new(&mut pages_in);
            let eff_slots = SharedSlice::new(&mut efferent_maps);
            let out_slots = SharedSlice::new(&mut out);
            let inner = &inner;
            pool.for_each_chunk(k, |gid| {
                // SAFETY (all three): each `gid` is claimed by exactly one
                // chunk, so the slot accesses are disjoint.
                let pages = std::mem::take(unsafe { &mut pages_slots.slice_mut(gid, 1)[0] });
                let eff_map = unsafe { &mut eff_slots.slice_mut(gid, 1)[0] };
                let mut efferent: Vec<EfferentBatch> =
                    eff_map.drain().map(|(dest, edges)| EfferentBatch::new(dest, edges)).collect();
                efferent.sort_unstable_by_key(|b| b.dest);
                let a = Self::assemble_matrix(g, cfg, &pages, &inner[gid], layout);
                let ctx = GroupContext {
                    group_id: gid as GroupId,
                    beta_e: cfg.beta_e_for(&pages),
                    a,
                    pages,
                    efferent,
                    norm: Memo::default(),
                };
                unsafe { out_slots.slice_mut(gid, 1)[0] = Some(ctx) };
            });
        }
        out.into_iter().map(|c| c.expect("every group built")).collect()
    }

    /// Assembles one group's local matrix from its inner-link pairs:
    /// counting-sort by destination row, per-row column sort, per-column
    /// scale `α/d(u)` (exactly `0.0` for dangling pages — see
    /// `dpr_linalg::column_scale`). Parallel inner links stay as separate
    /// entries in *every* layout — the explicit form is materialized from
    /// the implicit one — so layouts share identical entry structure and
    /// solves match bit for bit.
    fn assemble_matrix(
        g: &WebGraph,
        cfg: &RankConfig,
        pages: &[PageId],
        pairs: &[(u32, u32)],
        layout: MatrixLayout,
    ) -> GroupMatrix {
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
        let m = CsrImplicit::from_raw_parts(n, n, row_ptr, col_idx, scale);
        match layout {
            MatrixLayout::Implicit => GroupMatrix::Implicit(m),
            MatrixLayout::Explicit => GroupMatrix::Explicit(m.to_explicit()),
        }
    }

    /// Rebuilds **one** group's context against a mutated graph — the
    /// incremental-ranking path: a delta dirties a handful of groups, each
    /// of which re-derives its matrix, efferent routes, and `βE` from the
    /// new graph, while every untouched group keeps its existing context
    /// untouched. Cost is one pass over the group's own rows, independent
    /// of graph size.
    ///
    /// `pages` is the group's sorted page set in the new graph;
    /// `assignment` maps every page of `g` to its owning group. Building
    /// every group this way yields contexts identical to
    /// [`GroupContext::build_all_with_layout`]: pairs and efferent edges
    /// are collected in the same ascending-source order, so the assembled
    /// arrays — and therefore all solve bits — match exactly.
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
        layout: MatrixLayout,
    ) -> GroupContext {
        cfg.validate(g.n_pages());
        assert_eq!(assignment.len(), g.n_pages(), "assignment must cover the graph");
        assert!(pages.windows(2).all(|w| w[0] < w[1]), "pages must be sorted unique");
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
                if assignment[v as usize] == gid {
                    let lv = pages.binary_search(&v).expect("inner destination owned") as u32;
                    inner.push((lv, lu));
                } else {
                    eff_map.entry(assignment[v as usize]).or_default().push((lu, w, v));
                }
            }
        }
        let mut efferent: Vec<EfferentBatch> =
            eff_map.into_iter().map(|(dest, edges)| EfferentBatch::new(dest, edges)).collect();
        efferent.sort_unstable_by_key(|b| b.dest);
        let a = Self::assemble_matrix(g, cfg, &pages, &inner, layout);
        GroupContext {
            group_id: gid,
            beta_e: cfg.beta_e_for(&pages),
            a,
            pages,
            efferent,
            norm: Memo::default(),
        }
    }

    /// Patches this context in place for a delta that changed out-degrees
    /// **without touching the group's link structure** (external-out-degree
    /// edits, including ones that leave a page dangling): recomputes the
    /// per-column `α/d(u)` factors — exactly `0.0` for a newly dangling
    /// page — and the efferent edge weights, reusing the matrix's entry
    /// structure and allocations. Bit-identical to a full
    /// [`GroupContext::rebuild`] whenever that structural precondition
    /// holds; the caller is responsible for checking it (netrun derives it
    /// from the delta report's ext-only page list).
    pub fn rescale_in_place(&mut self, g: &WebGraph, cfg: &RankConfig) {
        let degrees: Vec<u32> = self.pages.iter().map(|&p| g.out_degree(p)).collect();
        let scale = column_scale(cfg.alpha, &degrees);
        for batch in &mut self.efferent {
            for (lu, w, _) in &mut batch.edges {
                *w = cfg.alpha / f64::from(degrees[*lu as usize]);
            }
        }
        match &mut self.a {
            GroupMatrix::Implicit(m) => m.set_scale(scale),
            GroupMatrix::Explicit(m) => m.rescale_columns(&scale),
        }
        // New column factors, new norm; the efferent patterns stand (the
        // link structure did not move).
        self.norm = Memo::default();
    }

    /// `min(‖A‖∞, ‖A‖₁)` of the group matrix — the contraction factor of
    /// Theorems 3.2/3.3 — computed on first use and kept with the context.
    #[must_use]
    pub(crate) fn contraction_norm(&self) -> f64 {
        *self.norm.0.get_or_init(|| self.a.contraction_norm())
    }

    /// The group's local propagation matrix.
    #[must_use]
    pub fn matrix(&self) -> &GroupMatrix {
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

    /// **Algorithm 2**: solves `R = A·R + βE + X` starting from the current
    /// contents of `r` (warm starts make DPR1's later outer loops cheap),
    /// with the solve's SpMV/reduction kernels routed through `pool` —
    /// bit-identical at every worker count (fixed chunk boundaries). Builds
    /// `f = βE + X` and its buffers per call: the plain form, which the
    /// real-thread driver uses and the tests hold [`Ranker`](crate::Ranker)
    /// to.
    ///
    /// # Panics
    /// If `r` or `x` have the wrong length.
    pub fn group_pagerank_pooled(
        &self,
        r: &mut Vec<f64>,
        x: &[f64],
        epsilon: f64,
        max_iters: usize,
        pool: &Pool,
    ) -> SolveReport {
        assert_eq!(r.len(), self.n_local());
        assert_eq!(x.len(), self.n_local());
        let f: Vec<f64> = self.beta_e.iter().zip(x).map(|(b, xi)| b + xi).collect();
        FixedPointSolver { tolerance: epsilon, max_iters, pool: pool.clone() }.solve(
            &MemoNorm(self),
            &f,
            r,
        )
    }

    /// `βE` restricted to this group's pages. Callers that keep a persistent
    /// `f = βE + X` buffer rebuild its rows from this slice.
    #[must_use]
    pub fn beta_e(&self) -> &[f64] {
        &self.beta_e
    }

    /// [`GroupContext::group_pagerank_pooled`] with a *prepared* right-hand
    /// side: the caller passes `f = βE + X` directly (maintained
    /// incrementally across think steps) plus reusable solve and
    /// multiply-workspace buffers, so the hot path allocates nothing.
    /// Bit-identical to the allocating form for equal `f`.
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
            .solve_with_scratch(&MemoNorm(self), f, r, scratch, ws)
    }

    /// One iteration `R ← A·R + βE + X` (the DPR2 node body) on an explicit
    /// pool, in the plain allocating form of
    /// [`GroupContext::group_pagerank_pooled`]. Returns the successive L1
    /// difference.
    pub fn step_pooled(&self, r: &mut Vec<f64>, x: &[f64], pool: &Pool) -> f64 {
        assert_eq!(r.len(), self.n_local());
        assert_eq!(x.len(), self.n_local());
        let f: Vec<f64> = self.beta_e.iter().zip(x).map(|(b, xi)| b + xi).collect();
        FixedPointSolver::default().with_pool(pool.clone()).step(&self.a, &f, r, 1)
    }

    /// [`GroupContext::step_pooled`] with a prepared `f = βE + X` and
    /// reusable double/workspace buffers (the allocation-free DPR2 think).
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
/// changes, only its scores do. The default mode therefore keeps, per
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
/// slice, *from scratch in ascending source order* — the order the full
/// rebuild adds contributions in (`received` is a `BTreeMap`) — so `X` is
/// bit-identical to a full rebuild at every refresh: floating-point
/// addition is not associative, and the engine promises bit-identical
/// runs per seed.
///
/// Pages of a pattern this group does not own (a `Y` computed before a
/// delta tombstoned them, still in flight) keep their place in the
/// pattern and a slot in a trailing *spill row* that no `X` entry sums,
/// so pattern and slots remain a faithful copy of the raw payload for
/// [`AfferentState::replay_onto`].
///
/// [`AfferentState::new_full_rebuild`] keeps the pre-cache behavior
/// (store localized entries, rebuild every row on any change) as the test
/// oracle.
#[derive(Debug, Clone)]
pub struct AfferentState {
    x: Vec<f64>,
    rows_recomputed: u64,
    store: Store,
}

#[derive(Debug, Clone)]
enum Store {
    Slotted(Slotted),
    Full(FullRebuild),
}

/// The oracle: localized entries per source, every row re-summed on any
/// change.
#[derive(Debug, Clone, Default)]
struct FullRebuild {
    /// BTreeMap (not HashMap) so X materialization sums in a fixed order.
    received: BTreeMap<GroupId, Vec<(u32, f64)>>,
    dirty: bool,
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
    /// State for a group with `n_local` pages (X starts at zero), in the
    /// default slotted mode.
    #[must_use]
    pub fn new(n_local: usize) -> Self {
        Self {
            x: vec![0.0; n_local],
            rows_recomputed: 0,
            store: Store::Slotted(Slotted::new(n_local)),
        }
    }

    /// The pre-cache baseline: every refresh rebuilds the whole `X` vector
    /// from the stored localized entries. Kept as the oracle the slotted
    /// mode is tested against; results are bit-identical either way.
    #[must_use]
    pub fn new_full_rebuild(n_local: usize) -> Self {
        Self { store: Store::Full(FullRebuild::default()), ..Self::new(n_local) }
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
        match &mut self.store {
            Store::Slotted(s) => s.deliver(pages, src, pattern, scores),
            Store::Full(_) => {
                let localized = pattern
                    .iter()
                    .zip(scores)
                    .filter_map(|(p, &s)| pages.binary_search(p).ok().map(|li| (li as u32, s)))
                    .collect();
                self.set(src, localized);
            }
        }
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
        match &mut self.store {
            Store::Slotted(s) => s.set(src, entries),
            // The baseline models the pre-cache engine: it re-stores and
            // rebuilds on every arrival, bit-identical or not.
            Store::Full(f) => {
                f.received.insert(src, entries);
                f.dirty = true;
            }
        }
    }

    /// Materializes and returns `X` ("Xi+1 = Refresh X" in Algorithms 3/4).
    pub fn refresh(&mut self) -> &[f64] {
        self.refresh_tracked(None);
        &self.x
    }

    /// [`AfferentState::refresh`], appending the indices of every row whose
    /// `x` entry was recomputed to `touched` (all rows in full-rebuild
    /// mode). Callers maintaining derived per-row state — the ranker's
    /// persistent `f = βE + X` buffer — use the worklist to update exactly
    /// the rows that may have changed.
    pub fn refresh_tracked(&mut self, touched: Option<&mut Vec<u32>>) {
        match &mut self.store {
            Store::Full(f) => {
                if !f.dirty {
                    return;
                }
                self.x.iter_mut().for_each(|v| *v = 0.0);
                for entries in f.received.values() {
                    for &(li, s) in entries {
                        self.x[li as usize] += s;
                    }
                }
                self.rows_recomputed += self.x.len() as u64;
                if let Some(t) = touched {
                    t.extend(0..self.x.len() as u32);
                }
                f.dirty = false;
            }
            Store::Slotted(s) => {
                if s.sources.iter().any(|source| matches!(source.held, Held::Staged(_))) {
                    s.layout();
                }
                for &li in &s.dirty.rows {
                    s.dirty.flags[li as usize] = false;
                    let row = s.row_ptr[li as usize] as usize..s.row_ptr[li as usize + 1] as usize;
                    // From-scratch re-sum in ascending source order: the
                    // same additions, in the same order, as the full
                    // rebuild above.
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
        }
    }

    /// The current `X` without refreshing (test/inspection use).
    #[must_use]
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Number of source groups heard from so far.
    #[must_use]
    pub fn n_sources(&self) -> usize {
        match &self.store {
            Store::Slotted(s) => s.sources.len(),
            Store::Full(f) => f.received.len(),
        }
    }

    /// Copies out the per-source contributions in localized form, in
    /// ascending source order — the checkpoint payload the replication
    /// protocol ships. Replaying the snapshot through
    /// [`AfferentState::set`] in this order reproduces `X` bit-identically
    /// on a fresh instance: both the original and the restored state sum
    /// rows in the same ascending source order.
    #[must_use]
    pub fn snapshot_received(&self) -> Vec<(GroupId, Vec<(u32, f64)>)> {
        match &self.store {
            Store::Slotted(s) => {
                s.sources.iter().map(|source| (source.src, s.localized(source).collect())).collect()
            }
            Store::Full(f) => f.received.iter().map(|(&g, v)| (g, v.clone())).collect(),
        }
    }

    /// Re-delivers every source's last raw `Y` into `fresh`, the state of
    /// the same group after a delta changed its page set to `pages` —
    /// exactly what receiving those messages again under the new context
    /// would do: shifted local indices and dropped pages fall out of the
    /// re-localization. Only sources whose raw pattern is known replay; one
    /// installed by [`AfferentState::set`] (a checkpoint) is repopulated
    /// by its sender's next publication, and the full-rebuild baseline
    /// keeps no raw payloads at all.
    pub fn replay_onto(&self, pages: &[PageId], fresh: &mut AfferentState) {
        let Store::Slotted(s) = &self.store else { return };
        for source in &s.sources {
            if let Some(pattern) = &source.pattern {
                let scores: Vec<f64> =
                    (0..source.local.len()).map(|k| s.score(source, k)).collect();
                fresh.deliver(pages, source.src, pattern, &scores);
            }
        }
    }

    /// Total rows recomputed across all refreshes (a full rebuild counts
    /// every row) — the work the slotted mode is there to avoid.
    #[must_use]
    pub fn rows_recomputed(&self) -> u64 {
        self.rows_recomputed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_graph::generators::toy;
    use dpr_partition::Strategy;

    #[test]
    fn afferent_state_replaces_per_source() {
        let mut st = AfferentState::new(3);
        st.set(0, vec![(0, 1.0), (2, 2.0)]);
        st.set(1, vec![(0, 0.5)]);
        assert_eq!(st.refresh(), &[1.5, 0.0, 2.0]);
        // A newer Y from source 0 replaces, not accumulates.
        st.set(0, vec![(0, 3.0)]);
        assert_eq!(st.refresh(), &[3.5, 0.0, 0.0]);
        assert_eq!(st.n_sources(), 2);
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
        // the exact bits of `X`, in both caching modes.
        let mut st = AfferentState::new(5);
        st.set(3, vec![(0, 0.125), (4, 1.0 / 3.0)]);
        st.set(0, vec![(0, 0.7), (2, 1e-9)]);
        st.set(3, vec![(0, 0.125), (1, 0.2), (4, 1.0 / 3.0)]);
        st.set(9, vec![(3, 0.55)]);
        let x_before: Vec<u64> = st.refresh().iter().map(|v| v.to_bits()).collect();
        let snap = st.snapshot_received();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "ascending source order");
        for fresh in [AfferentState::new(5), AfferentState::new_full_rebuild(5)] {
            let mut fresh = fresh;
            for (src, entries) in &snap {
                fresh.set(*src, entries.clone());
            }
            let x_after: Vec<u64> = fresh.refresh().iter().map(|v| v.to_bits()).collect();
            assert_eq!(x_before, x_after);
        }
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
        assert_eq!(from_taken.n_sources(), 1);
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
    fn matrix_layouts_solve_bit_identically() {
        // Implicit (default) and explicit layouts hold the same entries, so
        // a GroupPageRank solve must produce the same rank bits.
        let g = toy::complete(10);
        let assignment = (0..10u32).map(|p| p % 2).collect();
        let partition = Partition::from_assignment(2, assignment);
        let cfg = RankConfig::default();
        let build = |layout| GroupContext::build_all_with_layout(&g, &partition, &cfg, layout);
        let implicit = build(MatrixLayout::Implicit);
        let explicit = build(MatrixLayout::Explicit);
        assert!(matches!(implicit[0].matrix(), GroupMatrix::Implicit(_)));
        assert!(matches!(explicit[0].matrix(), GroupMatrix::Explicit(_)));
        assert_eq!(implicit[0].matrix().nnz(), explicit[0].matrix().nnz());
        assert!(implicit[0].matrix().heap_bytes() < explicit[0].matrix().heap_bytes());
        let x = vec![0.01; implicit[0].n_local()];
        let solve = |ctxs: &[GroupContext]| {
            let mut r = vec![0.0; ctxs[0].n_local()];
            let report =
                ctxs[0].group_pagerank_pooled(&mut r, &x, 1e-12, 1000, &Pool::sequential());
            assert!(report.converged);
            r
        };
        let r_i = solve(&implicit);
        let r_e = solve(&explicit);
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
    fn contraction_norm_is_memoized_and_follows_a_rescale() {
        use dpr_graph::{DeltaOp, GraphDelta};
        let g = dpr_graph::generators::random::erdos_renyi(120, 4, 5.0, 2);
        let partition = Partition::build(&g, &Strategy::HashBySite, 2, 0);
        let cfg = RankConfig::default();
        let mut ctx = GroupContext::build_all(&g, &partition, &cfg).swap_remove(0);
        assert_eq!(ctx.contraction_norm(), ctx.matrix().contraction_norm());
        // The solvers report the same certified bound through the memo as
        // straight off the matrix.
        let x = vec![0.0; ctx.n_local()];
        let mut r = vec![0.0; ctx.n_local()];
        let report = ctx.group_pagerank_pooled(&mut r, &x, 1e-12, 1000, &Pool::sequential());
        let mut r2 = vec![0.0; ctx.n_local()];
        let direct =
            FixedPointSolver { tolerance: 1e-12, max_iters: 1000, pool: Pool::sequential() }.solve(
                ctx.matrix(),
                ctx.beta_e(),
                &mut r2,
            );
        assert_eq!(report, direct);
        // More external links on every page shrink every column.
        let ops = ctx.pages().iter().map(|&page| DeltaOp::SetExternal { page, ext_out: 50 });
        let g2 = GraphDelta::new(ops.collect()).apply(&g);
        let before = ctx.contraction_norm();
        ctx.rescale_in_place(&g2, &cfg);
        assert!(ctx.contraction_norm() < before);
        assert_eq!(ctx.contraction_norm(), ctx.matrix().contraction_norm());
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
                let report =
                    c.group_pagerank_pooled(&mut r[i], &x[i], 1e-12, 1000, &Pool::sequential());
                assert!(report.converged);
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
        ctxs[0].group_pagerank_pooled(&mut r, &x, 1e-12, 1000, &Pool::sequential());
        // The reference is itself only converged to ~1e-8 (its epsilon), so
        // compare with matching slack.
        let star = crate::centralized::open_pagerank(&g, &RankConfig::default());
        assert!(dpr_linalg::vec_ops::relative_error(&r, &star.ranks) < 1e-7);
    }

    #[test]
    fn rebuild_per_group_matches_build_all() {
        // The incremental path's correctness anchor: rebuilding any single
        // group against the same graph reproduces the batch-built context
        // exactly (same arrays, same bits), in every layout.
        let g = dpr_graph::generators::random::erdos_renyi(200, 5, 4.0, 3);
        let partition = Partition::build(&g, &Strategy::HashBySite, 4, 0);
        let cfg = RankConfig::default();
        for layout in [MatrixLayout::Implicit, MatrixLayout::Explicit] {
            let all = GroupContext::build_all_with_layout(&g, &partition, &cfg, layout);
            for ctx in &all {
                let rebuilt = GroupContext::rebuild(
                    &g,
                    partition.assignment(),
                    &cfg,
                    ctx.group_id(),
                    ctx.pages().to_vec(),
                    layout,
                );
                assert_eq!(&rebuilt, ctx);
            }
        }
    }

    #[test]
    fn rescale_in_place_matches_rebuild_for_ext_only_delta() {
        use dpr_graph::{DeltaOp, GraphDelta};
        // p0→p1→p2→p0 plus external-only pages; the delta dangles p3
        // (ext 4 → 0) and grows p5's external degree. No internal row
        // changes, so every dirty group qualifies for the in-place rescale.
        let mut b = dpr_graph::GraphBuilder::new();
        let s = b.add_site("a.edu");
        let pages: Vec<u32> = (0..6).map(|_| b.add_page(s)).collect();
        b.add_link(pages[0], pages[1]);
        b.add_link(pages[1], pages[2]);
        b.add_link(pages[2], pages[0]);
        b.add_link(pages[5], pages[0]);
        b.add_external_links(pages[3], 4);
        b.add_external_links(pages[4], 1);
        b.add_external_links(pages[5], 2);
        let g = b.build();
        let delta = GraphDelta::new(vec![
            DeltaOp::SetExternal { page: pages[3], ext_out: 0 },
            DeltaOp::SetExternal { page: pages[5], ext_out: 7 },
        ]);
        let (g2, report) = delta.apply_report(&g);
        assert_eq!(report.ext_only_pages, vec![pages[3], pages[5]]);
        assert_eq!(report.touched_pages, report.ext_only_pages);

        let assignment = vec![0u32, 0, 1, 1, 0, 1];
        let partition = Partition::from_assignment(2, assignment.clone());
        let cfg = RankConfig::default();
        for layout in [MatrixLayout::Implicit, MatrixLayout::Explicit] {
            let old = GroupContext::build_all_with_layout(&g, &partition, &cfg, layout);
            for ctx in &old {
                let mut patched = ctx.clone();
                patched.rescale_in_place(&g2, &cfg);
                let rebuilt = GroupContext::rebuild(
                    &g2,
                    &assignment,
                    &cfg,
                    ctx.group_id(),
                    ctx.pages().to_vec(),
                    layout,
                );
                assert_eq!(patched, rebuilt, "layout {layout:?} group {}", ctx.group_id());
            }
        }
        // The dangled page's column scale is exactly 0.0, not a residue.
        let patched = {
            let mut c = GroupContext::build_all(&g, &partition, &cfg)
                .into_iter()
                .find(|c| c.local_index(pages[3]).is_some())
                .unwrap();
            c.rescale_in_place(&g2, &cfg);
            c
        };
        let li = patched.local_index(pages[3]).unwrap();
        match patched.matrix() {
            GroupMatrix::Implicit(m) => {
                assert_eq!(m.scale()[li].to_bits(), 0.0f64.to_bits());
            }
            GroupMatrix::Explicit(_) => unreachable!("default layout is implicit"),
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
        let report = ctxs[2].group_pagerank_pooled(&mut r, &[], 1e-9, 10, &Pool::sequential());
        assert!(report.converged);
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
                let GroupMatrix::Implicit(m) = ctx.matrix() else {
                    unreachable!("default layout is implicit")
                };
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
