//! The five phases of one workload run: *generate* (in `workloads`),
//! *set-up*, *rank*, *serve* (publish + query), *check*.
//!
//! Every call into the program under test goes through a span of the
//! [`Recorder`]; with tracing off the recorder only runs the closure, so
//! the untraced pass measures the same code without the bookkeeping.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpr_core::netrun::try_run_over_network_with_store;
use dpr_core::store::{GroupRanks, DEFAULT_TOPK_CAP};
use dpr_core::{group_owners, GroupContext, GroupPublish, MatrixLayout, NetRunResult, RankStore};
use dpr_graph::{PageId, WebGraph};
use dpr_linalg::vec_ops::relative_error;
use dpr_partition::Partition;

use crate::spans::Recorder;
use crate::workloads::{mix, next_u64, Inputs};

/// Relative error below which the system counts as (re)converged.
pub const TOL: f64 = 1e-6;
/// Timed set-up repetitions (after one untimed): at least this many, and
/// more until [`SETUP_FILL_SECS`] are spent or [`SETUP_MAX_REPS`] are made.
pub const SETUP_MIN_REPS: usize = 5;
pub const SETUP_MAX_REPS: usize = 25;
pub const SETUP_FILL_SECS: f64 = 1.0;
/// The rank phase is repeated, at most [`RANK_MAX_REPS`] times, while the
/// repetitions together stay under this many seconds.
pub const RANK_BUDGET_SECS: f64 = 18.0;
pub const RANK_MAX_REPS: usize = 3;
/// Timed full publishes, in three blocks: before, between and after the
/// two halves of the serve phase.
pub const PUBLISH_BLOCK_REPS: usize = 14;
/// `publish_ms` is this quantile of the timed publishes.
pub const PUBLISH_QUANTILE: f64 = 0.1;
/// The serve phase never runs shorter than this, whatever `--seconds`.
pub const MIN_SERVE_SECS: f64 = 5.0;
/// The serve phase is cut into windows this long.
pub const SERVE_WINDOW_SECS: f64 = 0.1;

/// Query mix in percent: lookup / top-k / candidate top-k / site totals.
pub const MIX: [u64; 4] = [70, 20, 8, 2];
/// What the mid-run epoch of the serve phase is: every rank scaled by this.
pub const MID_SCALE: f64 = 0.75;

/// The `q`-quantile of `values` (nearest rank).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// What the set-up phase builds — the same objects, by the same public
/// calls, as the head of `try_run_over_network_with_store`.
pub struct Built {
    pub graph: WebGraph,
    pub partition: Partition,
    pub contexts: Vec<GroupContext>,
    pub owners: Vec<usize>,
}

/// One set-up: snapshot on disk → graph → partition → group contexts →
/// overlay with every group placed on its owner.
pub fn set_up(inputs: &Inputs, rec: &mut Recorder) -> std::io::Result<Built> {
    rec.span("setup", |rec| {
        let graph =
            rec.span("graph.load_snapshot", |_| dpr_graph::io::load_snapshot(&inputs.snapshot))?;
        let cfg = &inputs.cfg;
        let partition =
            rec.span("partition.build", |_| Partition::build(&graph, &cfg.strategy, cfg.k, 0));
        let contexts = rec.span("group.build_all", |_| {
            GroupContext::build_all_with_layout(
                &graph,
                &partition,
                &cfg.rank,
                MatrixLayout::default(),
            )
        });
        let owners = rec.span("overlay.build_and_place", |_| group_owners(cfg));
        Ok(Built { graph, partition, contexts, owners })
    })
}

/// Set-up phase: one untimed repetition, then the timed ones. Returns the
/// last build and the seconds of every timed repetition.
pub fn setup_phase(inputs: &Inputs, rec: &mut Recorder) -> std::io::Result<(Built, Vec<f64>)> {
    rec.span("phase.setup", |rec| {
        let mut built = set_up(inputs, &mut Recorder::new(false))?;
        let mut secs = Vec::with_capacity(SETUP_MAX_REPS);
        while secs.len() < SETUP_MIN_REPS
            || (secs.len() < SETUP_MAX_REPS && secs.iter().sum::<f64>() < SETUP_FILL_SECS)
        {
            drop(built);
            let t = Instant::now();
            built = set_up(inputs, rec)?;
            secs.push(t.elapsed().as_secs_f64());
        }
        Ok((built, secs))
    })
}

/// Simulated-time results read off the error series of the run.
pub struct Convergence {
    /// First sample time with `rel_err ≤ TOL`.
    pub converge_vtime: Option<f64>,
    /// Per disturbance: sample windows until `rel_err ≤ TOL` again.
    pub reconverge_windows: Vec<Option<f64>>,
}

pub fn convergence(points: &[(f64, f64)], disturbed_at: &[f64], sample_every: f64) -> Convergence {
    let first = disturbed_at.first().copied().unwrap_or(f64::INFINITY);
    let converge_vtime = points.iter().find(|&&(t, v)| t < first && v <= TOL).map(|&(t, _)| t);
    let reconverge_windows = disturbed_at
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let until = disturbed_at.get(i + 1).copied().unwrap_or(f64::INFINITY);
            points
                .iter()
                .find(|&&(t, v)| t > d && t < until && v <= TOL)
                .map(|&(t, _)| (t - d) / sample_every)
        })
        .collect();
    Convergence { converge_vtime, reconverge_windows }
}

/// One whole-system run with a fresh serving store attached.
pub fn rank_once(built: &Built, inputs: &Inputs, rec: &mut Recorder) -> (NetRunResult, RankStore) {
    let store = new_store(inputs);
    let res = rec.span("netrun.try_run_over_network_with_store", |_| {
        try_run_over_network_with_store(&built.graph, inputs.cfg.clone(), Some(&store))
            .expect("workload configurations are valid")
    });
    (res, store)
}

/// Seconds of a run that belong to the system: the event loop with its
/// sampling and store publication, without the reference solves the
/// driver recomputes after a delta for measurement only.
pub fn rank_wall(res: &NetRunResult) -> f64 {
    res.engine_secs - res.delta_ref_secs
}

/// The store every workload serves from (site aggregates on).
pub fn new_store(inputs: &Inputs) -> RankStore {
    RankStore::new(DEFAULT_TOPK_CAP).with_sites(inputs.final_sites.clone(), inputs.n_sites)
}

/// Two whole-store states the serve phase alternates between: the final
/// epoch as the run published it, and a "mid-run" epoch in which every
/// rank is the final one times [`MID_SCALE`] — so every publish moves
/// every group's bits and rebuilds every derived index.
pub struct ServeStates {
    groups: Vec<Arc<GroupRanks>>,
    mid: Vec<Vec<f64>>,
    next_epoch: u64,
}

impl ServeStates {
    pub fn capture(store: &RankStore, k: usize) -> Self {
        let view = store.view();
        let groups: Vec<Arc<GroupRanks>> =
            (0..k as u32).filter_map(|g| view.group(g).cloned()).collect();
        let mid =
            groups.iter().map(|g| g.ranks().iter().map(|r| r * MID_SCALE).collect()).collect();
        let next_epoch = groups.iter().map(|g| g.epoch()).max().unwrap_or(0) + 1;
        Self { groups, mid, next_epoch }
    }

    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    fn fresh_epoch(&mut self) -> u64 {
        self.next_epoch += 1;
        self.next_epoch - 1
    }

    /// Group `slot` in its mid-run (`mid = true`) or final state.
    fn part(&self, slot: usize, epoch: u64, mid: bool) -> GroupPublish<'_> {
        let g = &self.groups[slot];
        GroupPublish {
            group: g.group(),
            epoch,
            pages: g.pages(),
            ranks: if mid { &self.mid[slot] } else { g.ranks() },
        }
    }

    /// Publishes the mid-run (`mid = true`) or final state under a fresh
    /// epoch. Returns whether a new view was swapped in.
    pub fn publish(&mut self, store: &RankStore, mid: bool) -> bool {
        let epoch = self.fresh_epoch();
        store.publish((0..self.groups.len()).map(|slot| self.part(slot, epoch, mid)))
    }

    /// Publishes the final state again under the epoch last used: after a
    /// final-state publish this changes nothing and the store skips it.
    pub fn republish(&self, store: &RankStore) -> bool {
        let epoch = self.next_epoch - 1;
        store.publish((0..self.groups.len()).map(|slot| self.part(slot, epoch, false)))
    }

    /// Publishes group `slot` alone, in its mid-run state.
    pub fn publish_one(&mut self, store: &RankStore, slot: usize) -> bool {
        let epoch = self.fresh_epoch();
        store.publish(std::iter::once(self.part(slot, epoch, true)))
    }
}

/// One block of the publish phase: the final state, then
/// [`PUBLISH_BLOCK_REPS`] timed single-threaded publishes in which every
/// group's bits move. Appends the per-call milliseconds to `ms`.
pub fn publish_block(
    store: &RankStore,
    states: &mut ServeStates,
    rec: &mut Recorder,
    ms: &mut Vec<f64>,
) {
    rec.span("phase.publish", |rec| {
        states.publish(store, false);
        for i in 0..PUBLISH_BLOCK_REPS {
            let (swapped, secs) = rec.timed("store.publish", || states.publish(store, i % 2 == 0));
            assert!(swapped, "a full publish must swap a view in");
            ms.push(secs * 1e3);
        }
    })
}

/// One query of the mix, drawn from `draw`. Returns `false` when the
/// answer is missing or wrong: a lookup must return the page's rank bits
/// of one of the two epochs being served.
#[inline]
pub fn query(store: &RankStore, draw: u64, final_ranks: &[f64], acc: &mut u64) -> bool {
    let n = final_ranks.len() as u64;
    let page = ((draw >> 32) % n) as PageId;
    match draw % 100 {
        x if x < MIX[0] => match store.lookup(page) {
            Some(l) => {
                *acc ^= l.rank.to_bits();
                let fin = final_ranks[page as usize];
                l.rank.to_bits() == fin.to_bits() || l.rank.to_bits() == (fin * MID_SCALE).to_bits()
            }
            None => false,
        },
        x if x < MIX[0] + MIX[1] => {
            let top = store.top_k(10);
            *acc ^= top.last().map_or(0, |h| h.rank.to_bits());
            top.len() == 10.min(final_ranks.len()) && top.windows(2).all(|w| w[0].rank >= w[1].rank)
        }
        x if x < MIX[0] + MIX[1] + MIX[2] => {
            // Nine candidates, one of them twice (dedup stays hot).
            let mut c = [page; 9];
            for (i, slot) in c.iter_mut().enumerate().take(8) {
                *slot = ((u64::from(page) + i as u64 * 977) % n) as PageId;
            }
            let top = store.top_k_candidates(5, &c);
            *acc ^= top.first().map_or(0, |h| h.rank.to_bits());
            !top.is_empty() && top.len() <= 5
        }
        _ => {
            let view = store.view();
            match view.site_totals() {
                Some(t) => {
                    *acc ^= t[page as usize % t.len()].to_bits();
                    true
                }
                None => false,
            }
        }
    }
}

/// What the serve phase runs against, the same for both halves.
#[derive(Clone, Copy)]
pub struct ServeLoad<'a> {
    pub final_ranks: &'a [f64],
    pub query_seed: u64,
    /// Sleep of the publisher between epoch swaps.
    pub pace: Duration,
    pub host_threads: usize,
}

#[derive(Default)]
pub struct Served {
    pub queries: u64,
    pub wrong: u64,
    /// Queries per second of each window.
    pub window_qps: Vec<f64>,
    pub epoch_swaps: u64,
}

/// Half of the serve phase: a closed loop of one reader for `secs` seconds
/// while one publisher thread alternates the mid-run and the final epoch.
/// The loop is cut into windows of [`SERVE_WINDOW_SECS`]; see `serve_qps`
/// in the README for why the phase reports the fastest of them. On a
/// one-thread host the publisher is refused and the reader runs alone.
pub fn serve_phase(
    store: &RankStore,
    states: &mut ServeStates,
    load: &ServeLoad<'_>,
    secs: f64,
    rec: &mut Recorder,
    out: &mut Served,
) {
    let ServeLoad { final_ranks, query_seed, pace, host_threads } = *load;
    let stop = AtomicBool::new(false);
    rec.span("phase.serve", |_| {
        std::thread::scope(|scope| {
            let publisher = (host_threads >= 2).then(|| {
                let (stop, states) = (&stop, &mut *states);
                scope.spawn(move || {
                    let mut swaps = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        swaps += u64::from(states.publish(store, swaps.is_multiple_of(2)));
                        std::thread::sleep(pace);
                    }
                    swaps
                })
            });
            let mut rng = mix(query_seed, out.queries);
            let mut acc = 0u64;
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < secs {
                let (seg_t0, mut seg_queries) = (Instant::now(), 0u64);
                let seg_secs = loop {
                    for _ in 0..1024 {
                        out.wrong +=
                            u64::from(!query(store, next_u64(&mut rng), final_ranks, &mut acc));
                    }
                    seg_queries += 1024;
                    let e = seg_t0.elapsed().as_secs_f64();
                    if e >= SERVE_WINDOW_SECS {
                        break e;
                    }
                };
                out.queries += seg_queries;
                out.window_qps.push(seg_queries as f64 / seg_secs);
            }
            black_box(acc);
            stop.store(true, Ordering::Relaxed);
            out.epoch_swaps +=
                publisher.map_or(0, |p| p.join().expect("publisher thread panicked"));
        })
    });
}

/// One named check of the check phase.
pub struct Check {
    pub what: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Checks made right after the rank phase, while the store still holds
/// what the run published: the served view equals `final_ranks` bit for
/// bit, page by page, and so do 1 000 lookups sampled through the store.
pub fn check_store(store: &RankStore, res: &NetRunResult, seed: u64) -> Vec<Check> {
    let view = store.view();
    let n = res.final_ranks.len();
    let mismatched = res
        .final_ranks
        .iter()
        .enumerate()
        .filter(|&(p, r)| view.lookup(p as PageId).map(|l| l.rank.to_bits()) != Some(r.to_bits()))
        .count();
    let mut rng = mix(seed, 5);
    let sampled_bad = (0..1000)
        .filter(|_| {
            let p = (next_u64(&mut rng) % n as u64) as usize;
            store.lookup(p as PageId).map(|l| l.rank.to_bits())
                != Some(res.final_ranks[p].to_bits())
        })
        .count();
    vec![
        Check {
            what: "served view bit-equal to final ranks",
            ok: mismatched == 0 && view.n_pages() == n,
            detail: format!("{mismatched} of {n} pages differ, view holds {}", view.n_pages()),
        },
        Check {
            what: "1000 sampled lookups bit-equal",
            ok: sampled_bad == 0,
            detail: format!("{sampled_bad} differ"),
        },
    ]
}

/// The graph the system ends on: the loaded one with every delta applied.
pub fn final_graph(built: &Built, inputs: &Inputs, rec: &mut Recorder) -> WebGraph {
    let mut g = built.graph.clone();
    for (_, d) in &inputs.cfg.deltas {
        g = rec.span("graph.delta_apply", |_| d.apply(&g));
    }
    g
}

/// Checks against the centralized fixed point of the final graph.
pub fn check_ranks(res: &NetRunResult, conv: &Convergence, reference: &[f64]) -> Vec<Check> {
    let err = if reference.len() == res.final_ranks.len() {
        relative_error(&res.final_ranks, reference)
    } else {
        f64::INFINITY
    };
    let top = |r: &[f64]| dpr_core::metrics::top_k(r, 10);
    let stuck: Vec<usize> = conv
        .reconverge_windows
        .iter()
        .enumerate()
        .filter(|(_, w)| w.is_none())
        .map(|(i, _)| i)
        .collect();
    vec![
        Check {
            what: "final relative error within tolerance",
            ok: err <= TOL,
            detail: format!("{err:.3e}"),
        },
        Check {
            what: "top-10 equal to the centralized solve",
            ok: top(&res.final_ranks) == top(reference),
            detail: String::new(),
        },
        Check {
            what: "converged before the first disturbance",
            ok: conv.converge_vtime.is_some(),
            detail: format!("{:?}", conv.converge_vtime),
        },
        Check {
            what: "reconverged after every disturbance",
            ok: stuck.is_empty(),
            detail: format!("disturbances never recovered from: {stuck:?}"),
        },
    ]
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
