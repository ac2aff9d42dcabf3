//! Composable, deterministic fault injection for the event loop.
//!
//! A [`FaultPlan`] describes *everything unreliable* about the simulated
//! network: i.i.d. message loss, per-link loss, latency jitter, timed
//! network partitions, straggler nodes and crash windows. The plan is pure
//! configuration — all randomness it needs is drawn from the engine's own
//! seeded RNG, so a `(seed, plan)` pair replays bit-identically. A plan
//! with only a latency and a success probability draws a drop roll only
//! when success is `< 1.0` and no jitter at all.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::Rng;

/// Latency jitter added to every send, sampled per message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Jitter {
    /// No jitter; no RNG draw is consumed.
    None,
    /// Uniform in `[0, max)`.
    Uniform {
        /// Upper bound of the jitter interval.
        max: f64,
    },
    /// Exponential with the given mean (heavy-ish tail: occasional slow
    /// messages, the asynchronous regime studied by Kollias et al.).
    Exponential {
        /// Mean of the exponential delay.
        mean: f64,
    },
}

/// A timed network partition: during `[start, end)`, nodes inside
/// `side_a` cannot exchange messages with nodes outside it (in either
/// direction). After `end` the partition heals.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// Virtual time at which the partition starts.
    pub start: f64,
    /// Virtual time at which it heals.
    pub end: f64,
    /// Sorted members of one cell; everyone else forms the other cell.
    side_a: Vec<usize>,
}

impl PartitionWindow {
    fn severs(&self, from: usize, to: usize, now: f64) -> bool {
        if now < self.start || now >= self.end {
            return false;
        }
        let a = self.side_a.binary_search(&from).is_ok();
        let b = self.side_a.binary_search(&to).is_ok();
        a != b
    }
}

/// A crash window: the node is down during `[start, end)` — every message
/// sent by it or addressed to it in that interval is dropped. Use
/// `end = f64::INFINITY` for a crash with no restart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: usize,
    /// Crash time.
    pub start: f64,
    /// Restart time (exclusive).
    pub end: f64,
}

/// Multipliers slowing one node down without making it lossy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Multiplies the network latency of messages this node sends.
    pub latency_factor: f64,
    /// Multiplies every wake delay this node schedules (think time).
    pub think_factor: f64,
}

/// Why a send was dropped deterministically (no loss roll involved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// An active [`PartitionWindow`] separates sender and receiver.
    Partition,
    /// Sender or receiver is inside a [`CrashWindow`].
    Crash,
}

/// The full fault model for a run. Compose with the `with_*` builders:
///
/// ```
/// use dpr_sim::faults::{FaultPlan, Jitter};
///
/// let plan = FaultPlan::new()
///     .with_default_success(0.7)                  // Figs 6–7's p = 0.7
///     .with_jitter(Jitter::Uniform { max: 0.05 })
///     .with_partition(50.0, 80.0, &[0, 1, 2])     // cells {0,1,2} vs rest
///     .with_straggler(4, 4.0, 3.0)                // node 4 runs slow
///     .with_crash(7, 120.0, 160.0);               // node 7 down, restarts
/// assert!(plan.success_prob(0, 5) < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base network latency per send.
    pub latency: f64,
    /// Success probability applied to every unreliable send (the paper's
    /// `p`).
    pub default_success: f64,
    /// Latency jitter distribution.
    pub jitter: Jitter,
    /// Per-directed-link success probabilities; these *compose* with
    /// `default_success` multiplicatively (independent loss processes).
    link_success: BTreeMap<(usize, usize), f64>,
    /// Timed partitions.
    partitions: Vec<PartitionWindow>,
    /// Straggler nodes.
    stragglers: BTreeMap<usize, Straggler>,
    /// Crash windows.
    crashes: Vec<CrashWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// A perfect network: no loss, a 0.01 latency (small against think
    /// times, as in the paper's model where waiting dominates), no jitter,
    /// no windows.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan {
            latency: 0.01,
            default_success: 1.0,
            jitter: Jitter::None,
            link_success: BTreeMap::new(),
            partitions: Vec::new(),
            stragglers: BTreeMap::new(),
            crashes: Vec::new(),
        }
    }

    /// Sets the base per-send latency.
    #[must_use]
    pub fn with_latency(mut self, latency: f64) -> Self {
        assert!(latency >= 0.0 && latency.is_finite(), "invalid latency {latency}");
        self.latency = latency;
        self
    }

    /// Sets the i.i.d. per-send success probability (the paper's `p`).
    #[must_use]
    pub fn with_default_success(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "success probability out of range: {p}");
        self.default_success = p;
        self
    }

    /// Sets the success probability of the directed link `from → to`;
    /// composes multiplicatively with the default success probability.
    #[must_use]
    pub fn with_link_success(mut self, from: usize, to: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "success probability out of range: {p}");
        self.link_success.insert((from, to), p);
        self
    }

    /// Sets the latency jitter distribution.
    #[must_use]
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        if let Jitter::Uniform { max } = jitter {
            assert!(max >= 0.0 && max.is_finite(), "invalid jitter bound {max}");
        }
        if let Jitter::Exponential { mean } = jitter {
            assert!(mean > 0.0 && mean.is_finite(), "invalid jitter mean {mean}");
        }
        self.jitter = jitter;
        self
    }

    /// Adds a partition window separating `side_a` from everyone else
    /// during `[start, end)`.
    #[must_use]
    pub fn with_partition(mut self, start: f64, end: f64, side_a: &[usize]) -> Self {
        assert!(start < end, "empty partition window [{start}, {end})");
        let mut side: Vec<usize> = side_a.to_vec();
        side.sort_unstable();
        side.dedup();
        self.partitions.push(PartitionWindow { start, end, side_a: side });
        self
    }

    /// Marks `node` as a straggler: its sends take `latency_factor ×` the
    /// base latency and its scheduled wakes stretch by `think_factor`.
    #[must_use]
    pub fn with_straggler(mut self, node: usize, latency_factor: f64, think_factor: f64) -> Self {
        assert!(latency_factor >= 1.0 && think_factor >= 1.0, "straggler factors must be ≥ 1");
        self.stragglers.insert(node, Straggler { latency_factor, think_factor });
        self
    }

    /// Adds a crash window for `node` during `[start, end)`; use
    /// `f64::INFINITY` as `end` for a permanent crash.
    #[must_use]
    pub fn with_crash(mut self, node: usize, start: f64, end: f64) -> Self {
        assert!(start < end, "empty crash window [{start}, {end})");
        self.crashes.push(CrashWindow { node, start, end });
        self
    }

    /// Adds a crash from which `node` never restarts — the fail-stop model
    /// the replication/takeover protocol is built against, as opposed to a
    /// [`Self::with_crash`] window a node recovers from with its state
    /// intact. Shorthand for `with_crash(node, start, f64::INFINITY)`.
    #[must_use]
    pub fn with_permanent_crash(self, node: usize, start: f64) -> Self {
        self.with_crash(node, start, f64::INFINITY)
    }

    /// Effective success probability of a send `from → to` (loss processes
    /// compose multiplicatively).
    #[must_use]
    pub fn success_prob(&self, from: usize, to: usize) -> f64 {
        let link = self.link_success.get(&(from, to)).copied().unwrap_or(1.0);
        (self.default_success * link).clamp(0.0, 1.0)
    }

    /// Whether a send at time `now` is deterministically blocked, and why.
    /// Crash windows take precedence over partitions in the reported
    /// reason (a crashed node is down regardless of topology).
    #[must_use]
    pub fn block_reason(&self, from: usize, to: usize, now: f64) -> Option<BlockReason> {
        if self
            .crashes
            .iter()
            .any(|c| (c.node == from || c.node == to) && now >= c.start && now < c.end)
        {
            return Some(BlockReason::Crash);
        }
        if self.partitions.iter().any(|p| p.severs(from, to, now)) {
            return Some(BlockReason::Partition);
        }
        None
    }

    /// Network latency for a message sent by `from` (straggler-scaled).
    #[must_use]
    pub fn latency_for(&self, from: usize) -> f64 {
        self.latency * self.stragglers.get(&from).map_or(1.0, |s| s.latency_factor)
    }

    /// Lower bound on the delay of **any** message sent under this plan:
    /// straggler latency factors are ≥ 1, jitter samples are ≥ 0, and
    /// multi-hop extra delay is ≥ 0, so no send can arrive earlier than
    /// `now + min_send_latency()`. The batched engine uses this as its safe
    /// lookahead window: wakes within it cannot be affected by messages the
    /// batch itself generates.
    #[must_use]
    pub fn min_send_latency(&self) -> f64 {
        self.latency
    }

    /// Think-time multiplier for wakes scheduled by `node`.
    #[must_use]
    pub fn think_factor(&self, node: usize) -> f64 {
        self.stragglers.get(&node).map_or(1.0, |s| s.think_factor)
    }

    /// Samples the jitter term. Consumes an RNG draw **only** when a
    /// jitter distribution is configured, preserving bit-compatibility of
    /// trivial plans with the historical engine.
    pub fn sample_jitter(&self, rng: &mut SmallRng) -> f64 {
        match self.jitter {
            Jitter::None => 0.0,
            Jitter::Uniform { max } => rng.gen::<f64>() * max,
            Jitter::Exponential { mean } => {
                let u: f64 = rng.gen();
                -mean * (1.0 - u).ln()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn builder_sets_latency_and_loss() {
        let plan = FaultPlan::new().with_latency(0.25).with_default_success(0.7);
        assert_eq!(plan.latency, 0.25);
        assert_eq!(plan.default_success, 0.7);
        assert_eq!(plan.success_prob(0, 1), 0.7);
    }

    #[test]
    fn link_loss_composes_with_default() {
        let plan = FaultPlan::new().with_default_success(0.5).with_link_success(1, 2, 0.5);
        assert_eq!(plan.success_prob(1, 2), 0.25);
        assert_eq!(plan.success_prob(2, 1), 0.5);
        assert_eq!(plan.success_prob(0, 3), 0.5);
    }

    #[test]
    fn partition_severs_only_across_cells_during_window() {
        let plan = FaultPlan::new().with_partition(10.0, 20.0, &[0, 1]);
        // Across cells, inside the window: blocked both ways.
        assert_eq!(plan.block_reason(0, 2, 15.0), Some(BlockReason::Partition));
        assert_eq!(plan.block_reason(2, 1, 15.0), Some(BlockReason::Partition));
        // Within a cell: fine.
        assert_eq!(plan.block_reason(0, 1, 15.0), None);
        assert_eq!(plan.block_reason(2, 3, 15.0), None);
        // Outside the window: healed.
        assert_eq!(plan.block_reason(0, 2, 9.9), None);
        assert_eq!(plan.block_reason(0, 2, 20.0), None);
    }

    #[test]
    fn crash_window_blocks_both_directions_and_reports_crash() {
        let plan = FaultPlan::new().with_crash(3, 5.0, 10.0).with_partition(0.0, 100.0, &[3]);
        assert_eq!(plan.block_reason(3, 1, 7.0), Some(BlockReason::Crash));
        assert_eq!(plan.block_reason(1, 3, 7.0), Some(BlockReason::Crash));
        // After restart the partition (which also isolates 3) still bites.
        assert_eq!(plan.block_reason(1, 3, 50.0), Some(BlockReason::Partition));
        // The window is half-open: at 10.0 only the partition still bites.
        assert_eq!(plan.block_reason(3, 0, 9.9), Some(BlockReason::Crash));
        assert_eq!(plan.block_reason(3, 0, 10.0), Some(BlockReason::Partition));
    }

    #[test]
    fn stragglers_scale_latency_and_think_time() {
        let plan = FaultPlan::new().with_latency(0.1).with_straggler(2, 4.0, 3.0);
        assert!((plan.latency_for(2) - 0.4).abs() < 1e-12);
        assert!((plan.latency_for(1) - 0.1).abs() < 1e-12);
        assert_eq!(plan.think_factor(2), 3.0);
        assert_eq!(plan.think_factor(1), 1.0);
    }

    #[test]
    fn jitter_none_consumes_no_rng() {
        let plan = FaultPlan::new();
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        assert_eq!(plan.sample_jitter(&mut a), 0.0);
        // b untouched: both streams must stay aligned.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn jitter_draws_are_bounded_and_deterministic() {
        let plan = FaultPlan::new().with_jitter(Jitter::Uniform { max: 0.5 });
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            let x = plan.sample_jitter(&mut a);
            assert!((0.0..0.5).contains(&x));
            assert_eq!(x, plan.sample_jitter(&mut b));
        }
        let exp = FaultPlan::new().with_jitter(Jitter::Exponential { mean: 0.2 });
        let mean: f64 = (0..5000).map(|_| exp.sample_jitter(&mut a)).sum::<f64>() / 5000.0;
        assert!((mean - 0.2).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn permanent_crash_never_restarts() {
        let plan = FaultPlan::new().with_permanent_crash(3, 50.0).with_crash(7, 50.0, 80.0);
        // Node 3 is fail-stop: down forever after 50.0.
        assert_eq!(plan.block_reason(3, 0, 49.9), None);
        assert_eq!(plan.block_reason(3, 0, 50.0), Some(BlockReason::Crash));
        assert_eq!(plan.block_reason(0, 3, 1e12), Some(BlockReason::Crash));
        // Node 7 restarts at 80.0.
        assert_eq!(plan.block_reason(0, 7, 60.0), Some(BlockReason::Crash));
        assert_eq!(plan.block_reason(0, 7, 80.0), None);
    }
}
