//! Algorithms 3 & 4 — **DPR1** and **DPR2** as asynchronous actors.
//!
//! Each page ranker loops forever: refresh the afferent vector `X` from the
//! latest `Y` messages other groups managed to deliver, recompute `R`, send
//! fresh `Y` to every destination group, then sleep for an exponentially
//! distributed think time. The two variants differ only in how much work an
//! outer loop does:
//!
//! * **DPR1** runs `GroupPageRank` (Algorithm 2) to *inner convergence*
//!   before publishing `Y`;
//! * **DPR2** performs a *single* iteration `R ← A·R + βE + X` and eagerly
//!   publishes.
//!
//! Nodes start at different times, run at different speeds, and their `Y`
//! sends are dropped with probability `1 − p` — precisely the freedoms §4.2
//! grants ("ranking programs in all the nodes can start at different time,
//! execute at different 'speed', sleep for some time"). Longer absences —
//! a node that sleeps, suspends itself or shuts down — are
//! [`dpr_sim::FaultPlan`] crash windows and stragglers, for this host as
//! for every other.
//!
//! With `R₀ = 0` the per-node rank sequences are monotone non-decreasing and
//! bounded by the centralized fixed point (Theorems 4.1/4.2); enabling
//! [`RankerNode::enable_theorem_tracking`] checks both properties at every
//! step of a live run.

use std::sync::Arc;

use dpr_graph::PageId;
use dpr_partition::GroupId;
use dpr_sim::{Actor, Ctx};
use rand::Rng;

use crate::group::GroupContext;
pub use crate::ranker::DprVariant;
use crate::ranker::{assemble_ranks, InnerSolver, Ranker};

/// The `Y` payload one group sends another: aggregated
/// `(destination page, score)` pairs. The sender is identified by the
/// simulator's `from` index (= group id).
#[derive(Debug, Clone, PartialEq)]
pub struct YMessage {
    /// Aggregated rank transfers, keyed by global destination page.
    pub entries: Vec<(PageId, f64)>,
}

/// Theorem 4.1/4.2 instrumentation state.
#[derive(Debug, Clone)]
struct TheoremTracker {
    /// R snapshot at the previous outer iteration.
    prev_r: Vec<f64>,
    /// Per-local-page upper bound (the centralized fixed point R*).
    bound: Option<Vec<f64>>,
    /// Whether monotonicity has held so far.
    monotone_ok: bool,
    /// Whether the bound has held so far.
    bounded_ok: bool,
}

/// Numeric slack for the theorem checks. The checks are exact in real
/// arithmetic, but the Theorem 4.2 upper bound is the *computed* centralized
/// fixed point — itself converged from below to within the solver tolerance
/// (~1e-8) — so the slack must absorb that residual as well as float jitter.
const THEOREM_TOL: f64 = 1e-6;

/// One page ranker as a simulator actor: a [`Ranker`] plus when it wakes
/// and what it publishes of each think.
pub struct RankerNode {
    ranker: Ranker,
    variant: DprVariant,
    /// Mean think time of this group (drawn from `[T1, T2]` by the run
    /// harness).
    mean_wait: f64,
    /// Inner tolerance for DPR1's `GroupPageRank`.
    inner_epsilon: f64,
    /// Outer loop steps completed (the Fig 8 "number of iterations").
    pub outer_iterations: u64,
    /// Suppress re-sending `Y` entries that changed by at most this amount
    /// since they were last published (0.0 = always send everything). The
    /// §4.5/§7 communication-reduction knob; keep it well below the target
    /// accuracy.
    y_threshold: f64,
    /// Last published score per destination batch entry (lazily sized).
    last_sent: Option<Vec<Vec<f64>>>,
    /// Y entries actually published.
    pub y_entries_sent: u64,
    /// Y entries suppressed by the threshold.
    pub y_entries_suppressed: u64,
    tracker: Option<TheoremTracker>,
}

impl RankerNode {
    /// Creates a node with `R₀ = 0` (the initial value under which
    /// Theorems 4.1/4.2 hold).
    #[must_use]
    pub fn new(ctx: GroupContext, variant: DprVariant, mean_wait: f64) -> Self {
        Self {
            ranker: Ranker::new(Arc::new(ctx)),
            variant,
            mean_wait,
            inner_epsilon: 1e-10,
            outer_iterations: 0,
            y_threshold: 0.0,
            last_sent: None,
            y_entries_sent: 0,
            y_entries_suppressed: 0,
            tracker: None,
        }
    }

    /// Overrides the DPR1 inner tolerance.
    #[must_use]
    pub fn with_inner_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0);
        self.inner_epsilon = epsilon;
        self
    }

    /// Enables thresholded `Y` publication (see [`Self::y_entries_sent`]).
    #[must_use]
    pub fn with_y_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold >= 0.0);
        self.y_threshold = threshold;
        self
    }

    /// Seeds `R` from a global rank vector (pages this group owns are
    /// copied in). Used to *warm-start* ranking after a re-crawl changed
    /// the link graph — the paper's dynamic-graph scenario (§4.3 notes the
    /// monotonicity theorems no longer apply, but convergence to the new
    /// fixed point is still expected; the contraction makes it so from any
    /// start).
    pub fn seed_ranks(&mut self, global: &[f64]) {
        self.ranker.seed_ranks(global);
        // Monotonicity tracking baselines must restart from the seed.
        if let Some(t) = &mut self.tracker {
            t.prev_r.copy_from_slice(self.ranker.ranks());
        }
    }

    /// Turns on Theorem 4.1/4.2 checking; `bound` is this group's slice of
    /// the centralized fixed point `R*` (local indexing), or `None` to
    /// check monotonicity only.
    pub fn enable_theorem_tracking(&mut self, bound: Option<Vec<f64>>) {
        if let Some(b) = &bound {
            assert_eq!(b.len(), self.group().n_local());
        }
        self.tracker = Some(TheoremTracker {
            prev_r: self.ranker.ranks().to_vec(),
            bound,
            monotone_ok: true,
            bounded_ok: true,
        });
    }

    /// Whether every theorem check passed so far (`None` if tracking is
    /// off). Returns `(monotone, bounded)`.
    #[must_use]
    pub fn theorems_held(&self) -> Option<(bool, bool)> {
        self.tracker.as_ref().map(|t| (t.monotone_ok, t.bounded_ok))
    }

    /// The group context.
    #[must_use]
    pub fn group(&self) -> &GroupContext {
        self.ranker.ctx()
    }

    /// Current local rank vector.
    #[must_use]
    pub fn ranks(&self) -> &[f64] {
        self.ranker.ranks()
    }

    /// One wake's work: think, then publish this think's `Y` — all of it,
    /// or what moved past the threshold.
    fn loop_body(&mut self, ctx: &mut Ctx<'_, YMessage>) {
        let (parts, _) = self.ranker.think(self.variant, InnerSolver::Jacobi, self.inner_epsilon);
        let ys: Vec<(GroupId, Vec<(PageId, f64)>)> = parts
            .iter()
            .map(|p| {
                (p.dest_group, p.pattern.iter().copied().zip(p.scores.iter().copied()).collect())
            })
            .collect();
        self.outer_iterations += 1;
        self.check_theorems();
        let threshold = self.y_threshold;
        let last = self
            .last_sent
            .get_or_insert_with(|| ys.iter().map(|(_, e)| vec![0.0; e.len()]).collect());
        let mut sent = 0u64;
        let mut suppressed = 0u64;
        for (bi, (dest, entries)) in ys.into_iter().enumerate() {
            let filtered: Vec<(PageId, f64)> = if threshold > 0.0 {
                let batch_last = &mut last[bi];
                entries
                    .into_iter()
                    .enumerate()
                    .filter(|&(ei, (_, score))| {
                        if (score - batch_last[ei]).abs() > threshold {
                            batch_last[ei] = score;
                            true
                        } else {
                            suppressed += 1;
                            false
                        }
                    })
                    .map(|(_, e)| e)
                    .collect()
            } else {
                entries
            };
            if filtered.is_empty() {
                continue;
            }
            sent += filtered.len() as u64;
            ctx.send(dest as usize, YMessage { entries: filtered });
        }
        self.y_entries_sent += sent;
        self.y_entries_suppressed += suppressed;
    }

    fn check_theorems(&mut self) {
        let Some(t) = &mut self.tracker else { return };
        let r = self.ranker.ranks();
        for (new, old) in r.iter().zip(&t.prev_r) {
            if *new < *old - THEOREM_TOL {
                t.monotone_ok = false;
            }
        }
        if let Some(bound) = &t.bound {
            for (new, b) in r.iter().zip(bound) {
                if *new > *b + THEOREM_TOL {
                    t.bounded_ok = false;
                }
            }
        }
        t.prev_r.copy_from_slice(r);
    }
}

/// Samples a host's exponential think time with mean `mean_wait` (zero
/// mean ⇒ immediate re-wake with a tiny guard so the simulation still
/// advances).
pub(crate) fn sample_wait(mean_wait: f64, rng: &mut impl Rng) -> f64 {
    if mean_wait <= 0.0 {
        return 1e-3;
    }
    let u: f64 = rng.gen::<f64>();
    -mean_wait * (1.0 - u).ln()
}

impl Actor for RankerNode {
    type Msg = YMessage;

    fn on_start(&mut self, ctx: &mut Ctx<'_, YMessage>) {
        // Nodes start at different times: the first wake is itself an
        // exponential draw.
        let w = sample_wait(self.mean_wait, ctx.rng());
        ctx.schedule_wake(w);
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, YMessage>) {
        if self.group().n_local() > 0 {
            self.loop_body(ctx);
        }
        let w = sample_wait(self.mean_wait, ctx.rng());
        ctx.schedule_wake(w);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, YMessage>, from: usize, msg: YMessage) {
        // Merge (upsert) rather than replace: under thresholded publication
        // an absent entry means "unchanged since the last Y", and for full
        // publications merge and replace coincide (the entry set per
        // destination is fixed by the link structure).
        self.ranker.merge(from as GroupId, &msg.entries);
    }
}

/// Stitches the per-group rank vectors of all nodes into one global rank
/// vector (page-indexed).
#[must_use]
pub fn assemble_global(nodes: &[RankerNode], n_pages: usize) -> Vec<f64> {
    assemble_ranks(nodes.iter().map(|n| &n.ranker), n_pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::open_pagerank;
    use crate::config::RankConfig;
    use dpr_graph::generators::toy;
    use dpr_linalg::vec_ops::relative_error;
    use dpr_partition::{Partition, Strategy};
    use dpr_sim::{FaultPlan, SimConfig, Simulation};

    fn make_nodes(
        g: &dpr_graph::WebGraph,
        k: usize,
        variant: DprVariant,
        mean_wait: f64,
    ) -> Vec<RankerNode> {
        let p = Partition::build(g, &Strategy::HashByUrl, k, 0);
        GroupContext::build_all(g, &p, &RankConfig::default())
            .into_iter()
            .map(|c| RankerNode::new(c, variant, mean_wait))
            .collect()
    }

    #[test]
    fn dpr1_converges_to_centralized_on_two_cliques() {
        let g = toy::two_cliques(5);
        let star = open_pagerank(&g, &RankConfig::default()).ranks;
        let nodes = make_nodes(&g, 4, DprVariant::Dpr1, 1.0);
        let mut sim = Simulation::new(nodes, SimConfig { seed: 1, ..SimConfig::default() });
        sim.run_until(200.0);
        let global = assemble_global(sim.actors(), g.n_pages());
        let err = relative_error(&global, &star);
        assert!(err < 1e-6, "rel err {err}");
    }

    #[test]
    fn dpr2_converges_to_centralized_on_two_cliques() {
        let g = toy::two_cliques(5);
        let star = open_pagerank(&g, &RankConfig::default()).ranks;
        let nodes = make_nodes(&g, 4, DprVariant::Dpr2, 1.0);
        let mut sim = Simulation::new(nodes, SimConfig { seed: 2, ..SimConfig::default() });
        sim.run_until(600.0);
        let global = assemble_global(sim.actors(), g.n_pages());
        let err = relative_error(&global, &star);
        assert!(err < 1e-5, "rel err {err}");
    }

    #[test]
    fn converges_despite_message_loss() {
        let g = toy::two_cliques(4);
        let star = open_pagerank(&g, &RankConfig::default()).ranks;
        let nodes = make_nodes(&g, 4, DprVariant::Dpr1, 1.0);
        let cfg = SimConfig { send_success_prob: 0.5, seed: 3, ..SimConfig::default() };
        let mut sim = Simulation::new(nodes, cfg);
        sim.run_until(800.0);
        let global = assemble_global(sim.actors(), g.n_pages());
        let err = relative_error(&global, &star);
        assert!(err < 1e-5, "rel err {err} under 50% loss");
        assert!(sim.stats().sends_dropped > 0, "loss was never exercised");
    }

    #[test]
    fn theorem_4_1_and_4_2_hold_during_dpr1() {
        let g = toy::two_cliques(5);
        let cfg = RankConfig::default();
        let star = open_pagerank(&g, &cfg).ranks;
        let p = Partition::build(&g, &Strategy::HashByUrl, 3, 0);
        let nodes: Vec<RankerNode> = GroupContext::build_all(&g, &p, &cfg)
            .into_iter()
            .map(|c| {
                let bound: Vec<f64> = c.pages().iter().map(|&pg| star[pg as usize]).collect();
                let mut n = RankerNode::new(c, DprVariant::Dpr1, 2.0);
                n.enable_theorem_tracking(Some(bound));
                n
            })
            .collect();
        // Lossy + heterogeneous — the theorems must hold regardless.
        let sim_cfg = SimConfig { send_success_prob: 0.7, seed: 7, ..SimConfig::default() };
        let mut sim = Simulation::new(nodes, sim_cfg);
        sim.run_until(300.0);
        for (i, node) in sim.actors().iter().enumerate() {
            let (monotone, bounded) = node.theorems_held().unwrap();
            assert!(monotone, "node {i} violated Theorem 4.1");
            assert!(bounded, "node {i} violated Theorem 4.2");
        }
    }

    #[test]
    fn theorem_4_1_holds_for_dpr2_with_zero_start() {
        let g = toy::cycle(9);
        let p = Partition::build(&g, &Strategy::HashByUrl, 3, 0);
        let nodes: Vec<RankerNode> = GroupContext::build_all(&g, &p, &RankConfig::default())
            .into_iter()
            .map(|c| {
                let mut n = RankerNode::new(c, DprVariant::Dpr2, 1.0);
                n.enable_theorem_tracking(None);
                n
            })
            .collect();
        let mut sim = Simulation::new(nodes, SimConfig { seed: 11, ..SimConfig::default() });
        sim.run_until(300.0);
        for node in sim.actors() {
            assert!(node.theorems_held().unwrap().0);
        }
    }

    #[test]
    fn dpr1_uses_fewer_outer_iterations_than_dpr2() {
        let g = toy::two_cliques(6);
        let star = open_pagerank(&g, &RankConfig::default()).ranks;
        let outer_at_convergence = |variant| {
            let nodes = make_nodes(&g, 4, variant, 1.0);
            let mut sim = Simulation::new(nodes, SimConfig { seed: 5, ..SimConfig::default() });
            let mut t = 0.0;
            loop {
                t += 5.0;
                sim.run_until(t);
                let global = assemble_global(sim.actors(), g.n_pages());
                if relative_error(&global, &star) < 1e-4 || t > 2000.0 {
                    break;
                }
            }
            let total: u64 = sim.actors().iter().map(|n| n.outer_iterations).sum();
            total as f64 / sim.actors().len() as f64
        };
        let dpr1 = outer_at_convergence(DprVariant::Dpr1);
        let dpr2 = outer_at_convergence(DprVariant::Dpr2);
        assert!(dpr1 < dpr2, "DPR1 {dpr1} outer iters vs DPR2 {dpr2}");
    }

    #[test]
    fn convergence_survives_node_blackouts() {
        // §4.2 says nodes may "sleep for some time, suspend itself as its
        // wish, or even shutdown": half the nodes drop off the network for
        // long windows and a third runs slow — convergence and the theorems
        // must survive.
        let g = toy::two_cliques(5);
        let cfg = RankConfig::default();
        let star = open_pagerank(&g, &cfg).ranks;
        let p = Partition::build(&g, &Strategy::HashByUrl, 4, 0);
        let nodes: Vec<RankerNode> = GroupContext::build_all(&g, &p, &cfg)
            .into_iter()
            .map(|c| {
                let mut n = RankerNode::new(c, DprVariant::Dpr1, 1.0);
                n.enable_theorem_tracking(None);
                n
            })
            .collect();
        let plan = FaultPlan::new()
            .with_crash(0, 5.0, 60.0)
            .with_crash(0, 150.0, 260.0)
            .with_crash(1, 30.0, 200.0)
            .with_straggler(2, 3.0, 4.0);
        let mut sim = Simulation::with_plan(nodes, 13, plan);
        sim.run_until(2_000.0);
        let global = assemble_global(sim.actors(), g.n_pages());
        let err = relative_error(&global, &star);
        assert!(err < 1e-5, "rel err {err} under churn");
        assert!(sim.stats().crash_dropped > 10, "churn never exercised");
        for node in sim.actors() {
            assert!(node.theorems_held().unwrap().0, "Thm 4.1 must survive churn");
        }
    }

    #[test]
    fn assemble_covers_every_page_once() {
        let g = toy::cycle(12);
        let nodes = make_nodes(&g, 5, DprVariant::Dpr1, 1.0);
        let covered: usize = nodes.iter().map(|n| n.group().n_local()).sum();
        assert_eq!(covered, 12);
        let global = assemble_global(&nodes, 12);
        assert_eq!(global.len(), 12);
    }
}
