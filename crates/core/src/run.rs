//! Whole-system experiment orchestration: builds the partition and groups,
//! wires the ranker actors into the discrete-event simulator, runs with the
//! paper's §5 parameters (K, p, T1, T2), and records the time series behind
//! Figs 6–8.

use dpr_graph::WebGraph;
use dpr_linalg::vec_ops;
use dpr_partition::{Partition, Strategy};
use dpr_sim::waits::WaitModel;
use dpr_sim::{SimConfig, SimStats, Simulation, TimeSeries};

use crate::centralized::open_pagerank;
use crate::config::RankConfig;
use crate::dpr::{assemble_global, DprVariant, RankerNode};
use crate::group::GroupContext;

/// Parameters of one distributed run (one curve of Figs 6–8).
#[derive(Debug, Clone)]
pub struct DistributedRunConfig {
    /// Number of page rankers `K`.
    pub k: usize,
    /// DPR1 or DPR2.
    pub variant: DprVariant,
    /// How pages map to rankers (§4.1).
    pub strategy: Strategy,
    /// Open-system ranking parameters.
    pub rank: RankConfig,
    /// Think-time interval `[T1, T2]` the per-group means are drawn from.
    pub t1: f64,
    /// Upper end of the think-time interval.
    pub t2: f64,
    /// The paper's `p`: probability a `Y` send succeeds.
    pub send_success_prob: f64,
    /// Master seed (think-time means, drops, start offsets).
    pub seed: u64,
    /// DPR1 inner tolerance.
    pub inner_epsilon: f64,
    /// Virtual-time horizon.
    pub t_end: f64,
    /// Sampling period for the time series.
    pub sample_every: f64,
    /// Relative-error threshold for the "converged" readout (Fig 8 uses
    /// 0.01% = 1e-4).
    pub threshold_rel_err: f64,
    /// Check Theorems 4.1/4.2 on every node during the run.
    pub track_theorems: bool,
    /// Suppress `Y` entries that changed by at most this amount since last
    /// published (0.0 = off). §4.5/§7 communication reduction; keep well
    /// below `threshold_rel_err` or convergence stalls at the threshold.
    pub y_threshold: f64,
    /// Warm-start ranks (global, page-indexed), e.g. the converged ranks of
    /// the previous crawl. With a warm start the Theorem 4.1/4.2
    /// instrumentation is meaningless (sequences need not be monotone) and
    /// should stay off.
    pub warm_start: Option<Vec<f64>>,
}

impl Default for DistributedRunConfig {
    fn default() -> Self {
        Self {
            k: 100,
            variant: DprVariant::Dpr1,
            strategy: Strategy::HashBySite,
            rank: RankConfig::default(),
            t1: 0.0,
            t2: 6.0,
            send_success_prob: 1.0,
            seed: 0,
            inner_epsilon: 1e-10,
            t_end: 100.0,
            sample_every: 1.0,
            threshold_rel_err: 1e-4,
            track_theorems: false,
            y_threshold: 0.0,
            warm_start: None,
        }
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// `‖R(t) − R*‖₁ / ‖R*‖₁` over time (Fig 6).
    pub rel_err: TimeSeries,
    /// Average rank over time (Fig 7).
    pub avg_rank: TimeSeries,
    /// Virtual time when the threshold was first met.
    pub time_at_threshold: Option<f64>,
    /// Mean outer iterations of the *active* (non-empty) rankers when the
    /// threshold was first met (the Fig 8 y-axis).
    pub mean_outer_iters_at_threshold: Option<f64>,
    /// Final relative error at `t_end`.
    pub final_rel_err: f64,
    /// Final global rank vector.
    pub final_ranks: Vec<f64>,
    /// The centralized fixed point used as reference.
    pub reference_ranks: Vec<f64>,
    /// Engine counters (sends, drops, deliveries, wakes).
    pub sim_stats: SimStats,
    /// Per-theorem verdicts when tracking was on: `(monotone, bounded)`
    /// ANDed over all nodes.
    pub theorems_held: Option<(bool, bool)>,
    /// Number of groups that own at least one page.
    pub active_groups: usize,
    /// Y entries published across all nodes.
    pub y_entries_sent: u64,
    /// Y entries suppressed by the `y_threshold` knob.
    pub y_entries_suppressed: u64,
}

/// Builds partition, group contexts, reference solution and actors, runs
/// to `t_end`, and samples the two series every `sample_every` units.
///
/// # Panics
/// If the configuration is invalid.
#[must_use]
pub fn run_distributed(g: &WebGraph, cfg: DistributedRunConfig) -> RunResult {
    cfg.rank.validate(g.n_pages());
    assert!(cfg.t_end > 0.0 && cfg.sample_every > 0.0);
    assert!((0.0..=1.0).contains(&cfg.send_success_prob));

    let partition = Partition::build(g, &cfg.strategy, cfg.k, 0);
    // Both construction hot spots fan out over the shared worker pool
    // on large graphs: the reference solve through the pooled kernels
    // (bit-identical to sequential) and the per-group context assembly
    // inside `build_all`.
    let reference = open_pagerank(g, &cfg.rank).ranks;
    let contexts = GroupContext::build_all(g, &partition, &cfg.rank);
    let waits = WaitModel::uniform_means(cfg.k, cfg.t1, cfg.t2, cfg.seed ^ 0xABCD);

    let nodes: Vec<RankerNode> = contexts
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let bound: Option<Vec<f64>> = cfg
                .track_theorems
                .then(|| c.pages().iter().map(|&p| reference[p as usize]).collect());
            let mut node = RankerNode::new(c, cfg.variant, waits.mean(i))
                .with_inner_epsilon(cfg.inner_epsilon)
                .with_y_threshold(cfg.y_threshold);
            if cfg.track_theorems {
                node.enable_theorem_tracking(bound);
            }
            if let Some(seed_ranks) = &cfg.warm_start {
                node.seed_ranks(seed_ranks);
            }
            node
        })
        .collect();

    let mut sim = Simulation::new(
        nodes,
        SimConfig { send_success_prob: cfg.send_success_prob, latency: 0.01, seed: cfg.seed },
    );

    let mut rel_err = TimeSeries::new();
    let mut avg_rank = TimeSeries::new();
    let mut time_at_threshold = None;
    let mut iters_at_threshold = None;
    let n_pages = g.n_pages();

    sim.run_sampled(cfg.t_end, cfg.sample_every, |t, nodes| {
        let global = assemble_global(nodes, n_pages);
        let err = vec_ops::relative_error(&global, &reference);
        rel_err.push(t, err);
        avg_rank.push(t, vec_ops::mean(&global));
        if err <= cfg.threshold_rel_err && time_at_threshold.is_none() {
            time_at_threshold = Some(t);
            let active: Vec<&RankerNode> =
                nodes.iter().filter(|n| n.group().n_local() > 0).collect();
            let total: u64 = active.iter().map(|n| n.outer_iterations).sum();
            iters_at_threshold = Some(total as f64 / active.len().max(1) as f64);
        }
    });

    let nodes = sim.actors();
    let final_ranks = assemble_global(nodes, n_pages);
    let final_rel_err = vec_ops::relative_error(&final_ranks, &reference);
    let active_groups = nodes.iter().filter(|n| n.group().n_local() > 0).count();
    let theorems_held = cfg.track_theorems.then(|| {
        nodes
            .iter()
            .filter_map(|n| n.theorems_held())
            .fold((true, true), |(am, ab), (m, b)| (am && m, ab && b))
    });

    let y_entries_sent = nodes.iter().map(|n| n.y_entries_sent).sum();
    let y_entries_suppressed = nodes.iter().map(|n| n.y_entries_suppressed).sum();
    RunResult {
        rel_err,
        avg_rank,
        time_at_threshold,
        mean_outer_iters_at_threshold: iters_at_threshold,
        final_rel_err,
        final_ranks,
        reference_ranks: reference,
        sim_stats: sim.stats(),
        theorems_held,
        active_groups,
        y_entries_sent,
        y_entries_suppressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
    use dpr_graph::generators::toy;

    fn quick_cfg() -> DistributedRunConfig {
        DistributedRunConfig {
            k: 8,
            t1: 0.5,
            t2: 2.0,
            t_end: 150.0,
            sample_every: 2.0,
            strategy: Strategy::HashByUrl,
            ..DistributedRunConfig::default()
        }
    }

    #[test]
    fn relative_error_decreases_and_converges() {
        let g = toy::two_cliques(6);
        let res = run_distributed(&g, quick_cfg());
        let pts = res.rel_err.points();
        assert!(pts.first().unwrap().1 > pts.last().unwrap().1);
        assert!(res.final_rel_err < 1e-4, "final rel err {}", res.final_rel_err);
        assert!(res.time_at_threshold.is_some());
        assert!(res.mean_outer_iters_at_threshold.unwrap() >= 1.0);
    }

    #[test]
    fn lossy_run_converges_slower_but_converges() {
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let reliable = run_distributed(
            &g,
            DistributedRunConfig { send_success_prob: 1.0, seed: 9, ..quick_cfg() },
        );
        let lossy = run_distributed(
            &g,
            DistributedRunConfig { send_success_prob: 0.5, seed: 9, ..quick_cfg() },
        );
        assert!(reliable.final_rel_err < 1e-3);
        assert!(lossy.final_rel_err < 1e-2);
        let t_rel = reliable.time_at_threshold;
        let t_lossy = lossy.time_at_threshold;
        if let (Some(a), Some(b)) = (t_rel, t_lossy) {
            assert!(b >= a, "loss should not speed convergence: {a} vs {b}");
        }
        assert!(lossy.sim_stats.sends_dropped > 0);
    }

    #[test]
    fn avg_rank_monotone_and_theorems_hold() {
        let g = edu_domain(&EduDomainConfig {
            n_pages: 1_500,
            n_sites: 15,
            ..EduDomainConfig::default()
        });
        let res = run_distributed(&g, DistributedRunConfig { track_theorems: true, ..quick_cfg() });
        assert!(res.avg_rank.is_monotone_nondecreasing(1e-9), "Fig 7 property violated");
        let (monotone, bounded) = res.theorems_held.unwrap();
        assert!(monotone, "Theorem 4.1 violated");
        assert!(bounded, "Theorem 4.2 violated");
    }

    #[test]
    fn leaky_dataset_average_rank_settles_below_one() {
        // The Fig 7 observation: with ~53% of links leaving the dataset the
        // converged average rank sits near 0.3, not 1.0.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let res = run_distributed(&g, DistributedRunConfig { t_end: 200.0, ..quick_cfg() });
        let avg = res.avg_rank.last_value().unwrap();
        assert!((0.15..=0.5).contains(&avg), "converged average rank {avg}");
    }

    #[test]
    fn k_has_little_effect_on_iterations() {
        // Fig 8's second conclusion. Compare outer iterations at K=4 vs
        // K=32 on the same dataset.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let iters = |k: usize| {
            run_distributed(
                &g,
                DistributedRunConfig { k, t1: 1.0, t2: 1.0, t_end: 400.0, ..quick_cfg() },
            )
            .mean_outer_iters_at_threshold
            .expect("must converge")
        };
        let a = iters(4);
        let b = iters(32);
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 3.0, "K changed iterations too much: {a} vs {b}");
    }

    #[test]
    fn y_threshold_cuts_traffic_without_breaking_convergence() {
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let full = run_distributed(&g, DistributedRunConfig { seed: 4, ..quick_cfg() });
        let thresholded =
            run_distributed(&g, DistributedRunConfig { seed: 4, y_threshold: 1e-6, ..quick_cfg() });
        assert_eq!(full.y_entries_suppressed, 0);
        assert!(thresholded.y_entries_suppressed > 0, "threshold never fired");
        // Traffic drops substantially…
        assert!(
            thresholded.y_entries_sent < full.y_entries_sent / 2,
            "sent {} vs {}",
            thresholded.y_entries_sent,
            full.y_entries_sent
        );
        // …while accuracy stays within the threshold's reach.
        assert!(thresholded.final_rel_err < 1e-3, "rel err {}", thresholded.final_rel_err);
    }

    #[test]
    fn distributed_personalized_ranking_converges() {
        // §3: non-uniform E = personalized ranking — the distributed
        // machinery must converge to the personalized fixed point too.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 1_500,
            n_sites: 15,
            ..EduDomainConfig::default()
        });
        let e = crate::personalized::site_biased_e(&g, 3, 0.1, 2.0);
        let rank = crate::RankConfig { e, ..crate::RankConfig::default() };
        let res = run_distributed(&g, DistributedRunConfig { rank: rank.clone(), ..quick_cfg() });
        assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
        // The reference it converged to is the personalized one: site 3's
        // share must exceed its share under uniform E.
        let uniform = crate::centralized::open_pagerank(&g, &crate::RankConfig::default()).ranks;
        let share = |r: &[f64]| {
            let site3: f64 =
                (0..g.n_pages() as u32).filter(|&p| g.site(p) == 3).map(|p| r[p as usize]).sum();
            site3 / dpr_linalg::vec_ops::sum(r)
        };
        assert!(share(&res.final_ranks) > share(&uniform) * 1.5);
    }

    #[test]
    fn empty_groups_are_counted_out() {
        let g = toy::two_cliques(4); // 2 sites
        let res = run_distributed(
            &g,
            DistributedRunConfig { k: 16, strategy: Strategy::HashBySite, ..quick_cfg() },
        );
        assert!(res.active_groups <= 2);
        assert!(res.final_rel_err < 1e-3);
    }
}
