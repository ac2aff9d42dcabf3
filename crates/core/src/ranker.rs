//! One think step — the loop body of Algorithms 3 & 4, written once.
//!
//! A [`Ranker`] is one page group's ranking state and the three things a
//! page ranker does with it: **receive** (`deliver` records the latest `Y`
//! of a source group), **think** (refresh `X` → solve `R = A·R + βE + X` →
//! produce `Y`), and **hand over** (`snapshot` / `restore` for a warm
//! takeover, `rebase` for a crawl delta, `seed_ranks` for a warm start).
//! It is sans-IO: no simulator type, no configuration struct, no RNG, no
//! clock that feeds back into a result. Whoever hosts it decides when to
//! think and where the parts go — [`netrun`](crate::netrun)'s overlay
//! nodes host several, each OS thread of [`threaded`](crate::threaded)
//! hosts one.
//!
//! # What is cached, and why it cannot move a bit
//!
//! * `f = βE + X` persists; a think patches exactly the rows the afferent
//!   refresh recomputed.
//! * **Stall short-circuit.** When no row of `f` was touched and the last
//!   solve ended on a successive difference of exactly `0.0`, `r` is the
//!   exact f64 fixed point of `r ← A·r + f`: running the solve again would
//!   reproduce `r` bit for bit (ranks are non-negative, so not even the
//!   sign of a zero can differ). The think skips the arithmetic and still
//!   publishes.
//! * **`Y` memo.** `Y` is a pure function of `r`; the memoized parts are
//!   valid exactly while `r` is bitwise unchanged.
//!
//! The tests below hold every think to a reference that caches nothing.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use dpr_graph::PageId;
use dpr_partition::GroupId;

use crate::group::{AfferentState, GroupContext};

/// Which distributed algorithm a think step runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DprVariant {
    /// Algorithm 3: inner-converge before every publish.
    Dpr1,
    /// Algorithm 4: one iteration per publish.
    Dpr2,
}

/// Sweep cap of one DPR1 inner solve: a safety net.
const MAX_INNER_SWEEPS: usize = 10_000;

/// One `Y` in flight: the publishing group, the destination group, and the
/// aggregated rank transfers, `scores[k]` into page `pattern[k]`. Both
/// halves are shared, not owned, so every coalesced, relayed or
/// retransmitted copy bumps two pointers. On the wire a part is still
/// priced as `scores.len()` §4.5 updates: the split is how a host holds a
/// message, not a protocol change.
#[derive(Debug, Clone)]
pub struct YPart {
    /// Publishing group.
    pub src_group: GroupId,
    /// Destination group.
    pub dest_group: GroupId,
    /// Destination pages (global ids, ascending): the sender's memoized
    /// efferent pattern, the same allocation in every publication until a
    /// delta rebuilds the sender, so a receiver recognizes it by pointer.
    pub pattern: Arc<[PageId]>,
    /// This publication's scores. A converged group re-publishes the same
    /// `Arc` every think.
    pub scores: Arc<Vec<f64>>,
}

/// Per-source afferent contributions in localized form: `(source group,
/// (local page index, contribution))` pairs in ascending source order.
pub type AfferentSnapshot = Vec<(GroupId, Vec<(u32, f64)>)>;

/// One group's dynamic state as a checkpoint carries it — the in-memory
/// twin of the wire frame in [`dpr_transport::snapshot`]. Only dynamic
/// state travels (`r`, afferent contributions in localized per-source
/// form, the epoch): pages and link structure are functions of the graph
/// and the partition, so whoever restores it builds the [`GroupContext`]
/// locally. Payloads are `Arc`-shared across the copies bound for
/// different replicas.
#[derive(Debug, Clone)]
pub struct GroupSnapshot {
    /// The checkpointed group.
    pub group: GroupId,
    /// The ranker's think count when the snapshot was taken; replicas keep
    /// the highest-epoch snapshot they have seen.
    pub epoch: u64,
    /// The group's local rank vector (exact bits).
    pub r: Arc<Vec<f64>>,
    /// Per-source afferent contributions.
    pub afferent: Arc<AfferentSnapshot>,
}

impl GroupSnapshot {
    /// Scored entries the snapshot carries (`r` plus afferent) — the
    /// record count §4.5-style pricing charges.
    #[must_use]
    pub fn n_entries(&self) -> u64 {
        self.r.len() as u64 + self.afferent.iter().map(|(_, v)| v.len() as u64).sum::<u64>()
    }
}

/// Wall-clock seconds one think spent per stage. Measurement only: nothing
/// a ranker computes reads them.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThinkSecs {
    /// Afferent refresh and the patch of `f`.
    pub refresh: f64,
    /// The inner solve (zero-length when short-circuited).
    pub solve: f64,
    /// `Y` assembly (a memo hit costs nothing).
    pub compute_y: f64,
}

/// One page group's ranking state. See the module docs.
#[derive(Debug)]
pub struct Ranker {
    /// Static group structure (netrun shares it with its context directory).
    ctx: Arc<GroupContext>,
    r: Vec<f64>,
    afferent: AfferentState,
    /// Persistent solve input `f = βE + X`.
    f: Vec<f64>,
    /// Solve double buffer and sweep workspace; nothing outlives a solve.
    scratch: Vec<f64>,
    ws: Vec<f64>,
    /// Rows of `X` the last think's refresh recomputed.
    touched: Vec<u32>,
    /// Final successive difference of the last solve that actually ran;
    /// `∞` until one has, and again after `r` was set from outside.
    last_delta: f64,
    /// `Y(r)`, valid iff `r` is bitwise what it was computed from.
    y_memo: Option<Vec<YPart>>,
    epoch: u64,
    inner_sweeps: u64,
    rows_swept: u64,
    sweeps_saved: u64,
    /// Afferent rows re-summed under the contexts before the current one.
    rows_recomputed_before: u64,
}

impl Ranker {
    /// A cold ranker for `ctx`: `R₀ = 0` (the start under which Theorems
    /// 4.1/4.2 hold), nothing received.
    #[must_use]
    pub fn new(ctx: Arc<GroupContext>) -> Self {
        let n = ctx.n_local();
        Self {
            r: vec![0.0; n],
            afferent: AfferentState::new(n),
            // `X` starts at zero, so `f = βE` exactly (βE ≥ 0, and
            // `b + 0.0` is bitwise `b` for non-negative `b`).
            f: ctx.beta_e().to_vec(),
            scratch: vec![0.0; n],
            ws: Vec::new(),
            touched: Vec::new(),
            last_delta: f64::INFINITY,
            y_memo: None,
            epoch: 0,
            inner_sweeps: 0,
            rows_swept: 0,
            sweeps_saved: 0,
            rows_recomputed_before: 0,
            ctx,
        }
    }

    /// The group's static structure.
    #[must_use]
    pub fn ctx(&self) -> &Arc<GroupContext> {
        &self.ctx
    }

    /// Current local rank vector (`ranks()[i]` belongs to `ctx().pages()[i]`).
    #[must_use]
    pub fn ranks(&self) -> &[f64] {
        &self.r
    }

    /// Thinks completed (the outer-iteration count; restored by a warm
    /// takeover, kept across a rebase).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Inner-solver sweeps run since this ranker was made (a rebase keeps
    /// counting).
    #[must_use]
    pub fn inner_sweeps(&self) -> u64 {
        self.inner_sweeps
    }

    /// Matrix rows those sweeps updated.
    #[must_use]
    pub fn rows_swept(&self) -> u64 {
        self.rows_swept
    }

    /// Thinks whose solve the stall short-circuit skipped: each is exactly
    /// one sweep a non-caching ranker would have run to find `r` unmoved.
    #[must_use]
    pub fn sweeps_saved(&self) -> u64 {
        self.sweeps_saved
    }

    /// Afferent `X` rows re-summed by refreshes since this ranker was made.
    #[must_use]
    pub fn rows_recomputed(&self) -> u64 {
        self.rows_recomputed_before + self.afferent.rows_recomputed()
    }

    /// Receives a raw part from `src`: `scores[k]` is its current outflow
    /// into page `pattern[k]`. Replaces whatever `src` contributed before;
    /// pattern pages this group does not own contribute nothing.
    pub fn deliver(&mut self, src: GroupId, pattern: &Arc<[PageId]>, scores: &[f64]) {
        self.afferent.deliver(self.ctx.pages(), src, pattern, scores);
    }

    /// Whether, as of the last think, `r` is the exact fixed point of its
    /// inputs: that think's refresh touched no row of `X`, and the last
    /// solve that ran ended on a successive difference of `0.0`.
    #[must_use]
    pub fn is_stalled(&self) -> bool {
        self.touched.is_empty() && self.last_delta == 0.0
    }

    /// The loop body: refresh `X`, solve (DPR1: to the relative stop of
    /// [`GroupContext::group_pagerank_prepared`], `epsilon` its floor;
    /// DPR2: one sweep), and return this think's `Y`, one part per
    /// destination group in ascending order, with where the time went. A
    /// group without pages has nothing to think about and publishes
    /// nothing.
    pub fn think(&mut self, variant: DprVariant, epsilon: f64) -> (&[YPart], ThinkSecs) {
        let n = self.ctx.n_local();
        if n == 0 {
            return (&[], ThinkSecs::default());
        }
        let refresh_start = Instant::now();
        self.touched.clear();
        self.afferent.refresh_tracked(Some(&mut self.touched));
        let (beta_e, x) = (self.ctx.beta_e(), self.afferent.x());
        for &li in &self.touched {
            self.f[li as usize] = beta_e[li as usize] + x[li as usize];
        }
        let solve_start = Instant::now();
        if self.is_stalled() {
            self.sweeps_saved += 1;
        } else {
            let (ctx, r, f) = (&self.ctx, &mut self.r, &self.f);
            let (sweeps, delta) = match variant {
                DprVariant::Dpr1 => {
                    let report = ctx.group_pagerank_prepared(
                        r,
                        f,
                        epsilon,
                        MAX_INNER_SWEEPS,
                        &mut self.scratch,
                        &mut self.ws,
                    );
                    (report.iterations as u64, report.final_delta)
                }
                DprVariant::Dpr2 => (1, ctx.step_prepared(r, f, &mut self.scratch, &mut self.ws)),
            };
            self.inner_sweeps += sweeps;
            self.rows_swept += sweeps * n as u64;
            self.last_delta = delta;
            // A multi-sweep solve moved `r` even if its last sweep did not.
            if sweeps > 1 || delta != 0.0 {
                self.y_memo = None;
            }
        }
        self.epoch += 1;
        let y_start = Instant::now();
        let src_group = self.ctx.group_id();
        let y = self.y_memo.get_or_insert_with(|| {
            self.ctx
                .y_parts(&self.r)
                .map(|(dest_group, pattern, scores)| YPart {
                    src_group,
                    dest_group,
                    pattern: Arc::clone(pattern),
                    scores: Arc::new(scores),
                })
                .collect()
        });
        let secs = ThinkSecs {
            refresh: (solve_start - refresh_start).as_secs_f64(),
            solve: (y_start - solve_start).as_secs_f64(),
            compute_y: y_start.elapsed().as_secs_f64(),
        };
        (y, secs)
    }

    /// Sets `R` from a global rank vector (pages this group owns are copied
    /// in) — the warm start after a re-crawl. §4.3 notes the monotonicity
    /// theorems no longer apply from such a start; the contraction still
    /// converges from any.
    pub fn seed_ranks(&mut self, global: &[f64]) {
        for (ri, &p) in self.r.iter_mut().zip(self.ctx.pages()) {
            if let Some(&v) = global.get(p as usize) {
                *ri = v;
            }
        }
        self.r_was_set();
    }

    /// `r` changed behind the solver's back: it is no known fixed point
    /// and `Y` must be recomputed.
    fn r_was_set(&mut self) {
        self.last_delta = f64::INFINITY;
        self.y_memo = None;
    }

    /// The checkpoint of this ranker's dynamic state.
    #[must_use]
    pub fn snapshot(&self) -> GroupSnapshot {
        GroupSnapshot {
            group: self.ctx.group_id(),
            epoch: self.epoch,
            r: Arc::new(self.r.clone()),
            afferent: Arc::new(self.afferent.snapshot_received()),
        }
    }

    /// Warm-starts a cold ranker from `snap`: the ranks are copied, the
    /// afferent contributions replay through [`AfferentState::set`] in the
    /// order the original deliveries summed them (so the rebuilt `X` is
    /// bit-identical to the owner's at snapshot time), and the epoch
    /// resumes. Returns `false`, leaving the ranker cold, when the
    /// snapshot's rank vector does not fit this context — it describes the
    /// group before a crawl delta repaged it.
    pub fn restore(&mut self, snap: &GroupSnapshot) -> bool {
        if snap.r.len() != self.r.len() {
            return false;
        }
        self.r.copy_from_slice(&snap.r);
        self.r_was_set();
        for (src, entries) in snap.afferent.iter() {
            self.afferent.set(*src, entries.clone());
        }
        self.epoch = snap.epoch;
        true
    }

    /// The delta warm restart: moves this ranker onto `new_ctx`, the same
    /// group after a crawl delta changed its pages or links. Surviving
    /// pages keep their ranks and inserted ones start at zero; every
    /// source's last raw part is re-delivered under the new context (so
    /// shifted local indices and dropped pages fall out of the
    /// re-localization); the epoch and the work counters keep counting.
    /// Returns the destination groups the old context published to and the
    /// new one does not: each would keep this group's last contribution for
    /// ever unless the host sends it one empty part.
    pub fn rebase(&mut self, new_ctx: Arc<GroupContext>) -> Vec<GroupId> {
        let mut fresh = Ranker::new(new_ctx);
        for (ri, &p) in fresh.r.iter_mut().zip(fresh.ctx.pages()) {
            if let Some(j) = self.ctx.local_index(p) {
                *ri = self.r[j];
            }
        }
        self.afferent.replay_onto(fresh.ctx.pages(), &mut fresh.afferent);
        fresh.epoch = self.epoch;
        fresh.inner_sweeps = self.inner_sweeps;
        fresh.rows_swept = self.rows_swept;
        fresh.sweeps_saved = self.sweeps_saved;
        fresh.rows_recomputed_before = self.rows_recomputed();
        let kept: BTreeSet<GroupId> = fresh.ctx.efferent_groups().collect();
        let dropped = self.ctx.efferent_groups().filter(|dest| !kept.contains(dest)).collect();
        *self = fresh;
        dropped
    }
}

/// Stitches the local rank vectors of `rankers` into one global,
/// page-indexed vector; a page no ranker owns reads zero.
#[must_use]
pub fn assemble_ranks<'a>(
    rankers: impl IntoIterator<Item = &'a Ranker>,
    n_pages: usize,
) -> Vec<f64> {
    let mut global = vec![0.0; n_pages];
    for ranker in rankers {
        for (&p, &rank) in ranker.ctx.pages().iter().zip(&ranker.r) {
            global[p as usize] = rank;
        }
    }
    global
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use dpr_graph::generators::random::erdos_renyi;
    use dpr_graph::{DeltaOp, GraphDelta, WebGraph};
    use dpr_linalg::{FixedPointSolver, Pool, INNER_STOP_RATIO};
    use dpr_partition::{Partition, Strategy};
    use proptest::prelude::*;

    use crate::config::RankConfig;
    use crate::group::MatrixLayout;

    const VARIANTS: [DprVariant; 2] = [DprVariant::Dpr1, DprVariant::Dpr2];
    const EPSILON: f64 = 1e-10;

    /// The reference: a ranker that caches nothing. It keeps each source's
    /// latest `Y` localized, re-sums every row of `X` from scratch in
    /// ascending source order at every think, builds `f` from scratch,
    /// solves with the plain solver on the group matrix (DPR1 under the
    /// relative stop, with fresh buffers) and computes `Y` fresh.
    struct Naive {
        ctx: Arc<GroupContext>,
        r: Vec<f64>,
        received: BTreeMap<GroupId, Vec<(u32, f64)>>,
        x: Vec<f64>,
    }

    impl Naive {
        fn new(ctx: Arc<GroupContext>) -> Self {
            let n = ctx.n_local();
            Self { ctx, r: vec![0.0; n], received: BTreeMap::new(), x: vec![0.0; n] }
        }

        /// `src`'s latest raw part, localized by binary search into the
        /// group's pages.
        fn deliver(&mut self, src: GroupId, pattern: &[PageId], scores: &[f64]) {
            let ctx = &self.ctx;
            let entries = pattern.iter().zip(scores);
            let local = entries.filter_map(|(&p, &s)| ctx.local_index(p).map(|li| (li as u32, s)));
            self.received.insert(src, local.collect());
        }

        /// One window's solve of `r` against the current `X`: `f = βE + X`
        /// built afresh, then the plain solver on the group matrix.
        fn solve(&self, r: &mut Vec<f64>, variant: DprVariant) {
            let f: Vec<f64> = self.ctx.beta_e().iter().zip(&self.x).map(|(b, x)| b + x).collect();
            let solver = FixedPointSolver {
                tolerance: EPSILON,
                max_iters: MAX_INNER_SWEEPS,
                pool: Pool::sequential(),
            };
            match variant {
                DprVariant::Dpr1 => {
                    let (mut scratch, mut ws) = (Vec::new(), Vec::new());
                    let m = self.ctx.matrix();
                    solver.solve_relative_with_scratch(
                        m,
                        &f,
                        r,
                        &mut scratch,
                        &mut ws,
                        INNER_STOP_RATIO,
                    );
                }
                DprVariant::Dpr2 => {
                    solver.step(self.ctx.matrix(), &f, r, 1);
                }
            }
        }

        fn think(&mut self, variant: DprVariant) -> Vec<YBits> {
            if self.ctx.n_local() == 0 {
                return Vec::new();
            }
            self.x = vec![0.0; self.ctx.n_local()];
            for entries in self.received.values() {
                for &(li, s) in entries {
                    self.x[li as usize] += s;
                }
            }
            let mut r = std::mem::take(&mut self.r);
            self.solve(&mut r, variant);
            self.r = r;
            let y = self.ctx.compute_y(&self.r).into_iter();
            y.map(|(d, e)| (d, e.into_iter().map(|(p, s)| (p, s.to_bits())).collect())).collect()
        }
    }

    /// One destination's `Y`, scores as bits.
    type YBits = (GroupId, Vec<(PageId, u64)>);

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn y_bits(parts: &[YPart]) -> Vec<YBits> {
        let entries = |p: &YPart| -> Vec<(PageId, u64)> {
            p.pattern.iter().copied().zip(p.scores.iter().map(|s| s.to_bits())).collect()
        };
        parts.iter().map(|p| (p.dest_group, entries(p))).collect()
    }

    /// Group 0 of a random web under three successive crawls: as built,
    /// after a delta that rewires links, tombstones one of the group's
    /// pages and inserts another, and after a second rewiring.
    fn contexts(seed: u64) -> (usize, Vec<Arc<GroupContext>>) {
        let cfg = RankConfig::default();
        let g0 = erdos_renyi(60, 4, 4.0, seed);
        let mut assignment =
            Partition::build(&g0, &Strategy::HashByUrl, 3, 0).assignment().to_vec();
        let context = |g: &WebGraph, assignment: &[GroupId], dead: Option<PageId>| {
            let pages = (0..g.n_pages() as PageId)
                .filter(|&p| assignment[p as usize] == 0 && Some(p) != dead)
                .collect();
            Arc::new(GroupContext::rebuild(g, assignment, &cfg, 0, pages, MatrixLayout::default()))
        };
        let c0 = context(&g0, &assignment, None);
        let victim = c0.pages()[c0.n_local() / 2];
        let mut d1 = GraphDelta::link_churn(&g0, 0.2, seed ^ 1);
        d1.ops.push(DeltaOp::DeletePage { page: victim });
        d1.ops.push(DeltaOp::InsertPage { site: 0, ext_out: 1, links: vec![0, 7, 31] });
        let g1 = d1.apply(&g0);
        assignment.push(0);
        let c1 = context(&g1, &assignment, Some(victim));
        // The generator does not know tombstones: keep its links off ours.
        let mut d2 = GraphDelta::link_churn(&g1, 0.3, seed ^ 2);
        d2.ops.retain(|op| !matches!(op, DeltaOp::AddLink { to, .. } if *to == victim));
        let g2 = d2.apply(&g1);
        let c2 = context(&g2, &assignment, Some(victim));
        (g2.n_pages(), vec![c0, c1, c2])
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Every think of a `Ranker` — whatever was delivered, seeded or
        /// rebased before it — lands on the rank bits and the
        /// `Y` bits of the reference that caches nothing; and whenever the
        /// ranker reports a stall, the reference's next solve would indeed
        /// not move a bit. Parts are dense enough (up to 64 entries, at
        /// least 8 ops) that most cases think with three or more sources
        /// on some row, where the order `X` is summed in shows in its bits.
        #[test]
        fn think_is_bit_identical_to_a_ranker_that_caches_nothing(
            seed in 0u64..1_000,
            ops in prop::collection::vec(
                (
                    0u8..10,                                               // what happens
                    1u32..5,                                               // source group
                    prop::collection::vec((0u32..64, 0.0f64..1.0), 0..64), // entries
                ),
                8..48,
            ),
        ) {
            let (n_pages, ctxs) = contexts(seed);
            for variant in VARIANTS {
                let mut next_ctx = ctxs.iter().cloned();
                let first = next_ctx.next().expect("three contexts");
                let mut ranker = Ranker::new(Arc::clone(&first));
                let mut naive = Naive::new(first);
                // The last raw part of every source still known by its
                // pattern: what a rebase re-delivers, and what a source
                // re-publishes under the same allocation.
                let mut raw: BTreeMap<GroupId, (Arc<[PageId]>, Vec<f64>)> = BTreeMap::new();
                for (kind, src, entries) in &ops {
                    let mut entries = entries.clone();
                    entries.sort_by_key(|e| e.0);
                    entries.dedup_by_key(|e| e.0);
                    match kind {
                        // A part: under a fresh pattern (grown, shrunk, with
                        // foreign pages, sometimes empty), or new scores
                        // under the pattern already held.
                        0..=3 => {
                            let held = raw.get(src).filter(|_| *kind >= 2);
                            let pattern = held.map_or_else(
                                || entries.iter().map(|e| e.0).collect(),
                                |(pattern, _)| Arc::clone(pattern),
                            );
                            let n = entries.len().max(1);
                            let score = |k: usize| entries.get(k % n).map_or(0.0, |e| e.1);
                            let scores: Vec<f64> = (0..pattern.len()).map(score).collect();
                            ranker.deliver(*src, &pattern, &scores);
                            naive.deliver(*src, &pattern, &scores);
                            raw.insert(*src, (pattern, scores));
                        }
                        8 => {
                            let scale = entries.len() as f64 * 0.1;
                            let global: Vec<f64> =
                                (0..n_pages).map(|p| scale * (p % 7) as f64).collect();
                            ranker.seed_ranks(&global);
                            for (ri, &p) in naive.r.iter_mut().zip(naive.ctx.pages()) {
                                *ri = global[p as usize];
                            }
                        }
                        9 => {
                            let Some(ctx) = next_ctx.next() else { continue };
                            let old: BTreeSet<GroupId> = naive.ctx.efferent_groups().collect();
                            let mut fresh = Naive::new(Arc::clone(&ctx));
                            for (ri, &p) in fresh.r.iter_mut().zip(ctx.pages()) {
                                *ri = naive.ctx.local_index(p).map_or(0.0, |j| naive.r[j]);
                            }
                            for (src, (pattern, scores)) in &raw {
                                fresh.deliver(*src, pattern, scores);
                            }
                            naive = fresh;
                            let dropped: BTreeSet<GroupId> =
                                ranker.rebase(ctx).into_iter().collect();
                            let kept: BTreeSet<GroupId> = naive.ctx.efferent_groups().collect();
                            prop_assert_eq!(dropped, &old - &kept);
                            prop_assert_eq!(bits(ranker.ranks()), bits(&naive.r));
                        }
                        // A run of thinks: steady inputs are what lets a
                        // ranker stall.
                        _ => for _ in 0..=entries.len() % 4 {
                            let before = ranker.epoch();
                            let y = y_bits(ranker.think(variant, EPSILON).0);
                            prop_assert_eq!(y, naive.think(variant));
                            prop_assert_eq!(bits(ranker.ranks()), bits(&naive.r));
                            prop_assert_eq!(ranker.epoch(), before + 1);
                            if ranker.is_stalled() {
                                let mut again = naive.r.clone();
                                naive.solve(&mut again, variant);
                                prop_assert_eq!(bits(&again), bits(&naive.r));
                            }
                        },
                    }
                }
            }
        }
    }

    #[test]
    fn steady_inputs_stall_then_skip_the_solve_and_republish_the_same_parts() {
        let (_, ctxs) = contexts(7);
        for variant in VARIANTS {
            let mut ranker = Ranker::new(Arc::clone(&ctxs[0]));
            let pattern: Arc<[PageId]> = ranker.ctx().pages().iter().copied().take(5).collect();
            ranker.deliver(2, &pattern, &[0.3, 0.1, 0.4, 0.1, 0.5]);
            let mut thinks = 0;
            while !ranker.is_stalled() {
                ranker.think(variant, EPSILON);
                thinks += 1;
                assert!(thinks < 1_000, "{variant:?} never stalled");
            }
            assert_eq!(ranker.sweeps_saved(), 0, "a solve that moved nothing finds the stall");
            let (sweeps, rows) = (ranker.inner_sweeps(), ranker.rows_swept());
            assert_eq!(rows, sweeps * ranker.ctx().n_local() as u64);
            let first: Vec<YPart> = ranker.think(variant, EPSILON).0.to_vec();
            let again: Vec<YPart> = ranker.think(variant, EPSILON).0.to_vec();
            assert!(!first.is_empty());
            for (a, b) in first.iter().zip(&again) {
                assert!(Arc::ptr_eq(&a.scores, &b.scores) && Arc::ptr_eq(&a.pattern, &b.pattern));
            }
            assert_eq!(ranker.sweeps_saved(), 2);
            assert_eq!(ranker.inner_sweeps(), sweeps, "a skipped think runs no sweep");
            // The same scores again move no bit: still stalled. One moved
            // score wakes the solver up.
            ranker.deliver(2, &pattern, &[0.3, 0.1, 0.4, 0.1, 0.5]);
            ranker.think(variant, EPSILON);
            assert!(ranker.is_stalled());
            ranker.deliver(2, &pattern, &[0.3, 0.1, 0.4, 0.1, 0.6]);
            ranker.think(variant, EPSILON);
            assert!(!ranker.is_stalled() && ranker.inner_sweeps() > sweeps);
        }
    }

    #[test]
    fn restore_resumes_a_snapshot_and_refuses_one_that_does_not_fit() {
        let (_, ctxs) = contexts(3);
        let variant = DprVariant::Dpr2;
        let mut owner = Ranker::new(Arc::clone(&ctxs[0]));
        let pattern: Arc<[PageId]> = owner.ctx().pages().iter().copied().step_by(2).collect();
        let scores: Vec<f64> = (0..pattern.len()).map(|k| 0.05 * (k + 1) as f64).collect();
        owner.deliver(1, &pattern, &scores);
        let first: Arc<[PageId]> = owner.ctx().pages()[..1].into();
        owner.deliver(2, &first, &[0.25]);
        for _ in 0..3 {
            owner.think(variant, EPSILON);
        }
        let snap = owner.snapshot();
        assert_eq!((snap.group, snap.epoch), (0, 3));
        assert_eq!(snap.n_entries(), (snap.r.len() + pattern.len() + 1) as u64);

        let mut heir = Ranker::new(Arc::clone(&ctxs[0]));
        assert!(heir.restore(&snap));
        assert_eq!(heir.epoch(), 3);
        let theirs = y_bits(owner.think(variant, EPSILON).0);
        assert_eq!(y_bits(heir.think(variant, EPSILON).0), theirs);
        assert_eq!(bits(heir.ranks()), bits(owner.ranks()));

        // A snapshot of the group before a delta repaged it does not fit.
        let stale = GroupSnapshot { r: Arc::new(vec![0.5; snap.r.len() + 1]), ..snap };
        let mut repaged = Ranker::new(Arc::clone(&ctxs[1]));
        assert!(!repaged.restore(&stale));
        assert_eq!(repaged.epoch(), 0);
        assert!(repaged.ranks().iter().all(|&r| r == 0.0));
    }
}
