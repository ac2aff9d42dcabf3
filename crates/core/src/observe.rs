//! What a run shows an observer at every sample slice, and the observer
//! the paper's §5 figures are read from.
//!
//! [`netrun`](crate::netrun)'s driver samples the run every
//! `sample_every` units of virtual time: it assembles the global rank
//! vector and records its relative error. An observer passed to
//! [`try_run_over_network_observed`](crate::netrun::try_run_over_network_observed)
//! sees that same sample, read-only, and nothing it does can move a bit of
//! the run. [`RunRecorder`] turns the samples into what Figs 6–8 need
//! beyond the error series: the average rank (Fig 7), the mean outer
//! iteration count at a threshold (Fig 8), and the Theorem 4.1/4.2 verdict.
//!
//! # Where Theorems 4.1/4.2 hold, and how they are checked
//!
//! From `R₀ = 0`, every page's rank never decreases (4.1) and never exceeds
//! the centralized fixed point `R*` (4.2), provided each group's afferent
//! input is the latest `Y` of every sender. Under netrun that holds for
//! direct transmission with in-order delivery: one sender's parts to one
//! destination all travel the same lookup delay, so they arrive in the
//! order they were sent. Indirect relays may reorder parts, and the
//! theorems make no promise after a warm start, a crawl delta or a cold
//! takeover (each restarts some ranks from a value that is not a lower
//! iterate). The recorder checks both at every sample slice, per page of
//! the global vector — the same sequences the paper's per-node statement
//! covers, at sample granularity rather than at every think.

use dpr_linalg::vec_ops;
use dpr_sim::TimeSeries;

use crate::ranker::Ranker;

/// One sample slice as the driver sees it.
#[derive(Debug, Clone, Copy)]
pub struct Sample<'a> {
    /// Virtual time at the end of the slice.
    pub t: f64,
    /// `‖R(t) − R*‖₁ / ‖R*‖₁`, the value the error series records at `t`.
    pub rel_err: f64,
    /// Every group hosted on a live node.
    pub rankers: &'a [&'a Ranker],
    /// The global rank vector (page-indexed) the error was computed from.
    pub global: &'a [f64],
}

/// Numeric slack of the theorem checks. They are exact in real arithmetic,
/// but the Theorem 4.2 bound is a *computed* fixed point, itself converged
/// from below to within the solver tolerance (~1e-8), so the slack absorbs
/// that residual as well as float jitter.
const THEOREM_TOL: f64 = 1e-6;

/// Records, sample by sample, what Figs 6–8 read beyond the error series.
#[derive(Debug, Clone)]
pub struct RunRecorder {
    threshold: f64,
    bound: Option<Vec<f64>>,
    prev: Vec<f64>,
    /// Mean rank over all pages at every sample (Fig 7).
    pub avg_rank: TimeSeries,
    /// Mean [`Ranker::epoch`] of the groups that own pages, at the first
    /// sample whose relative error was at most the threshold (Fig 8's
    /// outer iterations). The time of that sample is
    /// `rel_err.first_time_below(threshold)` of the run's result.
    pub epochs_at_threshold: Option<f64>,
    /// Groups that own at least one page, at the latest sample.
    pub active_groups: usize,
    monotone: bool,
    bounded: bool,
}

impl RunRecorder {
    /// A recorder reading the iteration count at relative error
    /// `threshold`, with no Theorem 4.2 bound.
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        Self {
            threshold,
            bound: None,
            prev: Vec::new(),
            avg_rank: TimeSeries::new(),
            epochs_at_threshold: None,
            active_groups: 0,
            monotone: true,
            bounded: true,
        }
    }

    /// Checks Theorem 4.2 against `bound`, page-indexed — the centralized
    /// fixed point `R*`.
    #[must_use]
    pub fn with_bound(mut self, bound: Vec<f64>) -> Self {
        self.bound = Some(bound);
        self
    }

    /// `(monotone, bounded)` so far: whether every page's rank was
    /// non-decreasing from sample to sample (Theorem 4.1), and whether it
    /// stayed within the bound (Theorem 4.2; trivially true without one).
    #[must_use]
    pub fn theorems_held(&self) -> (bool, bool) {
        (self.monotone, self.bounded)
    }

    /// Takes one sample.
    pub fn observe(&mut self, s: &Sample<'_>) {
        self.avg_rank.push(s.t, vec_ops::mean(s.global));
        let active: Vec<u64> =
            s.rankers.iter().filter(|r| r.ctx().n_local() > 0).map(|r| r.epoch()).collect();
        self.active_groups = active.len();
        if s.rel_err <= self.threshold && self.epochs_at_threshold.is_none() {
            self.epochs_at_threshold =
                Some(active.iter().sum::<u64>() as f64 / active.len().max(1) as f64);
        }
        self.check_theorems(s.global);
    }

    fn check_theorems(&mut self, global: &[f64]) {
        self.monotone &= global.iter().zip(&self.prev).all(|(&new, &old)| new >= old - THEOREM_TOL);
        if let Some(bound) = &self.bound {
            self.bounded &= global.iter().zip(bound).all(|(&r, &b)| r <= b + THEOREM_TOL);
        }
        self.prev.clear();
        self.prev.extend_from_slice(global);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dpr_graph::generators::toy;
    use dpr_partition::{Partition, Strategy};

    use super::*;
    use crate::config::RankConfig;
    use crate::group::GroupContext;
    use crate::ranker::DprVariant;

    fn feed(rec: &mut RunRecorder, samples: &[&[f64]]) {
        for (i, global) in samples.iter().enumerate() {
            rec.observe(&Sample { t: i as f64, rel_err: 1.0, rankers: &[], global });
        }
    }

    #[test]
    fn the_theorem_checks_flag_a_decrease_and_an_exceeded_bound() {
        let mut rising = RunRecorder::new(1e-4).with_bound(vec![1.0, 1.0]);
        feed(&mut rising, &[&[0.0, 0.0], &[0.5, 0.2], &[0.9, 0.2]]);
        assert_eq!(rising.theorems_held(), (true, true));
        assert!(rising.avg_rank.is_monotone_nondecreasing(0.0));

        let mut falls = RunRecorder::new(1e-4);
        feed(&mut falls, &[&[0.0, 0.0], &[0.5, 0.2], &[0.5, 0.1]]);
        assert_eq!(falls.theorems_held(), (false, true), "a rank went down");

        let mut exceeds = RunRecorder::new(1e-4).with_bound(vec![1.0, 0.3]);
        feed(&mut exceeds, &[&[0.0, 0.0], &[0.5, 0.2], &[0.6, 0.4]]);
        assert_eq!(exceeds.theorems_held(), (true, false), "a rank passed R*");
    }

    #[test]
    fn the_iteration_count_is_read_once_at_the_first_sample_under_the_threshold() {
        let g = toy::two_cliques(3);
        let p = Partition::build(&g, &Strategy::HashByUrl, 4, 0);
        let mut rankers: Vec<Ranker> = GroupContext::build_all(&g, &p, &RankConfig::default())
            .into_iter()
            .map(|c| Ranker::new(Arc::new(c)))
            .collect();
        let active = rankers.iter().filter(|r| r.ctx().n_local() > 0).count();
        let mut rec = RunRecorder::new(0.1);
        for (t, rel_err) in [(1.0, 0.5), (2.0, 0.1), (3.0, 0.01)] {
            for r in &mut rankers {
                r.think(DprVariant::Dpr2, 1e-10);
            }
            let refs: Vec<&Ranker> = rankers.iter().collect();
            rec.observe(&Sample { t, rel_err, rankers: &refs, global: &[0.0] });
        }
        // Two thinks by the first sample at or under 0.1; an empty group
        // never thinks and does not count.
        assert_eq!(rec.epochs_at_threshold, Some(2.0));
        assert_eq!(rec.active_groups, active);
        assert_eq!(rec.avg_rank.len(), 3);
    }
}
