//! Real-thread execution: every page ranker is an OS thread and `Y`
//! travels over crossbeam channels.
//!
//! The discrete-event runs ([`run`](crate::run), [`netrun`](crate::netrun))
//! prove the paper's properties under *controlled* asynchrony —
//! reproducible schedules, injected failures, per-node think times. This
//! module complements them with genuine parallel hardware: rankers compute
//! concurrently on all cores and exchange rank over channels.
//!
//! Execution is bulk-synchronous (Pregel-style): within a round every
//! ranker drains its inbox, solves its group, and publishes `Y`; a barrier
//! separates rounds, so everything sent in round `i` is visible in round
//! `i + 1`. The barrier makes termination exact — a round in which no
//! ranker moved more than `epsilon` publishes nothing, so the system is
//! quiescent — and makes results *deterministic* even though threads race
//! freely inside a round (the afferent state sums per-source contributions
//! in a fixed order, so arrival order cannot perturb the floats). The
//! fully asynchronous schedule of §4.2 lives in the simulator, where it can
//! be controlled and replayed; here the point is correctness on real
//! parallelism.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use crossbeam::channel::{unbounded, Receiver, Sender};
use dpr_graph::{PageId, WebGraph};
use dpr_linalg::{vec_ops, Pool};
use dpr_partition::{GroupId, Partition, Strategy};

use crate::centralized::open_pagerank;
use crate::config::RankConfig;
use crate::dpr::DprVariant;
use crate::group::{AfferentState, GroupContext};

/// Parameters of a real-thread run.
#[derive(Debug, Clone)]
pub struct ThreadedRunConfig {
    /// Number of page rankers (= OS threads).
    pub k: usize,
    /// Page → ranker strategy.
    pub strategy: Strategy,
    /// Ranking parameters.
    pub rank: RankConfig,
    /// DPR1 (inner-converge per publish) or DPR2 (one step per publish).
    pub variant: DprVariant,
    /// Stop once no ranker's `R` moved more than this in a round.
    pub quiescence_epsilon: f64,
    /// Safety cap on rounds.
    pub max_rounds: u64,
    /// Worker pool for each ranker's *inner* solve kernels. Defaults to
    /// sequential: the rankers themselves already occupy one core each, so
    /// hand a real pool in only when `k` is small relative to the machine
    /// (e.g. 2 rankers on a 16-core box). The kernels' fixed chunking
    /// keeps results bit-identical whichever pool is used.
    pub solver_pool: Pool,
}

impl Default for ThreadedRunConfig {
    fn default() -> Self {
        Self {
            k: 8,
            strategy: Strategy::HashBySite,
            rank: RankConfig::default(),
            variant: DprVariant::Dpr1,
            quiescence_epsilon: 1e-9,
            max_rounds: 100_000,
            solver_pool: Pool::sequential(),
        }
    }
}

/// Result of a real-thread run.
#[derive(Debug, Clone)]
pub struct ThreadedRunResult {
    /// Final global ranks.
    pub final_ranks: Vec<f64>,
    /// Relative error vs the centralized fixed point.
    pub final_rel_err: f64,
    /// Rounds until quiescence.
    pub rounds: u64,
    /// Total `Y` messages exchanged.
    pub messages: u64,
}

/// A `Y` payload on the wire: `(source group, entries)`.
type YWire = (GroupId, Vec<(PageId, f64)>);

/// Shared coordination state.
struct Coord {
    /// Barrier 1: everyone finished draining + computing — only now may
    /// anyone publish (otherwise a fast thread's round-i+1 publish could
    /// race into a slow thread's round-i+1 drain and break determinism).
    compute_done: Barrier,
    /// Barrier 2: everyone finished publishing.
    publish_done: Barrier,
    /// Barrier 3: leader has evaluated quiescence.
    round_done: Barrier,
    /// Max L1 movement this round, as f64 bits (valid fetch_max for
    /// non-negative floats).
    max_moved_bits: AtomicU64,
    /// Set by the leader when the round moved less than epsilon.
    done: AtomicBool,
    /// Rounds completed.
    rounds: AtomicU64,
}

/// Runs distributed page ranking on real threads until global quiescence.
///
/// # Panics
/// If the configuration is invalid or a ranker thread panics.
#[must_use]
pub fn run_threaded(g: &WebGraph, cfg: &ThreadedRunConfig) -> ThreadedRunResult {
    cfg.rank.validate(g.n_pages());
    assert!(cfg.k >= 1);
    assert!(cfg.quiescence_epsilon > 0.0);

    let partition = Partition::build(g, &cfg.strategy, cfg.k, 0);
    let reference = open_pagerank(g, &cfg.rank).ranks;
    let contexts = GroupContext::build_all(g, &partition, &cfg.rank);

    let (senders, receivers): (Vec<Sender<YWire>>, Vec<Receiver<YWire>>) =
        (0..cfg.k).map(|_| unbounded()).unzip();
    let coord = Arc::new(Coord {
        compute_done: Barrier::new(cfg.k),
        publish_done: Barrier::new(cfg.k),
        round_done: Barrier::new(cfg.k),
        max_moved_bits: AtomicU64::new(0),
        done: AtomicBool::new(false),
        rounds: AtomicU64::new(0),
    });

    let results: Vec<(GroupContext, Vec<f64>, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.k);
        for (i, (ctx, inbox)) in contexts.into_iter().zip(receivers).enumerate() {
            let senders = senders.clone();
            let coord = Arc::clone(&coord);
            let cfg = cfg.clone();
            handles.push(
                scope.spawn(move || ranker_thread(i == 0, ctx, inbox, senders, &coord, &cfg)),
            );
        }
        drop(senders);
        handles.into_iter().map(|h| h.join().expect("ranker thread panicked")).collect()
    });

    let mut final_ranks = vec![0.0; g.n_pages()];
    let mut messages = 0u64;
    for (ctx, r, sent) in &results {
        for (li, &p) in ctx.pages().iter().enumerate() {
            final_ranks[p as usize] = r[li];
        }
        messages += sent;
    }
    ThreadedRunResult {
        final_rel_err: vec_ops::relative_error(&final_ranks, &reference),
        final_ranks,
        rounds: coord.rounds.load(Ordering::Acquire),
        messages,
    }
}

/// Body of one ranker thread. Returns `(context, R, messages sent)`.
fn ranker_thread(
    leader: bool,
    ctx: GroupContext,
    inbox: Receiver<YWire>,
    senders: Vec<Sender<YWire>>,
    coord: &Coord,
    cfg: &ThreadedRunConfig,
) -> (GroupContext, Vec<f64>, u64) {
    let n = ctx.n_local();
    let mut r = vec![0.0; n];
    let mut prev = vec![0.0; n];
    let mut afferent = AfferentState::new(n);
    let mut sent = 0u64;

    loop {
        // --- compute phase -------------------------------------------------
        // Everything published last round is already in the inbox (sends
        // happened before the senders crossed barrier B).
        while let Ok((src, entries)) = inbox.try_recv() {
            let localized = ctx.localize(&entries);
            afferent.merge(src, &localized);
        }
        let x = afferent.refresh();
        match cfg.variant {
            DprVariant::Dpr1 => {
                ctx.group_pagerank_pooled(&mut r, x, 1e-12, 100_000, &cfg.solver_pool);
            }
            DprVariant::Dpr2 => {
                ctx.step_pooled(&mut r, x, &cfg.solver_pool);
            }
        }
        let moved = vec_ops::l1_diff(&r, &prev);
        prev.copy_from_slice(&r);
        coord.max_moved_bits.fetch_max(moved.abs().to_bits(), Ordering::AcqRel);

        // --- publish phase (gated so no drain can observe this round) ------
        coord.compute_done.wait();
        if moved > cfg.quiescence_epsilon {
            for (dest, entries) in ctx.compute_y(&r) {
                if senders[dest as usize].send((ctx.group_id(), entries)).is_ok() {
                    sent += 1;
                }
            }
        }
        coord.publish_done.wait();

        // --- decide phase (leader) -----------------------------------------
        if leader {
            let max_moved = f64::from_bits(coord.max_moved_bits.load(Ordering::Acquire));
            let round = coord.rounds.fetch_add(1, Ordering::AcqRel) + 1;
            if max_moved <= cfg.quiescence_epsilon || round >= cfg.max_rounds {
                coord.done.store(true, Ordering::Release);
            }
            coord.max_moved_bits.store(0, Ordering::Release);
        }
        coord.round_done.wait();
        if coord.done.load(Ordering::Acquire) {
            return (ctx, r, sent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
    use dpr_graph::generators::toy;

    #[test]
    fn threads_converge_to_centralized_ranks() {
        let g = toy::two_cliques(6);
        let res = run_threaded(&g, &ThreadedRunConfig { k: 4, ..ThreadedRunConfig::default() });
        assert!(res.final_rel_err < 1e-6, "rel err {}", res.final_rel_err);
        assert!(res.messages > 0);
        assert!(res.rounds > 1);
    }

    #[test]
    fn many_threads_on_a_real_dataset() {
        let g = edu_domain(&EduDomainConfig {
            n_pages: 3_000,
            n_sites: 24,
            ..EduDomainConfig::default()
        });
        let res = run_threaded(
            &g,
            &ThreadedRunConfig {
                k: 16,
                strategy: Strategy::HashByUrl,
                ..ThreadedRunConfig::default()
            },
        );
        assert!(res.final_rel_err < 1e-6, "rel err {}", res.final_rel_err);
    }

    #[test]
    fn dpr2_variant_also_terminates_and_converges() {
        let g = toy::two_cliques(5);
        let res = run_threaded(
            &g,
            &ThreadedRunConfig { k: 4, variant: DprVariant::Dpr2, ..ThreadedRunConfig::default() },
        );
        assert!(res.final_rel_err < 1e-5, "rel err {}", res.final_rel_err);
        // One Jacobi step per round: rounds ≈ the CPR iteration count.
        assert!(res.rounds >= 5);
    }

    #[test]
    fn single_thread_degenerates_to_cpr() {
        let g = toy::complete(6);
        let res = run_threaded(&g, &ThreadedRunConfig { k: 1, ..ThreadedRunConfig::default() });
        assert!(res.final_rel_err < 1e-8, "rel err {}", res.final_rel_err);
        assert_eq!(res.messages, 0);
    }

    #[test]
    fn results_are_bit_deterministic_across_runs() {
        // Threads race inside a round, but the barrier discipline plus the
        // fixed-order afferent summation make the output exact.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 1_000,
            n_sites: 10,
            ..EduDomainConfig::default()
        });
        let cfg = ThreadedRunConfig { k: 8, ..ThreadedRunConfig::default() };
        let a = run_threaded(&g, &cfg);
        let b = run_threaded(&g, &cfg);
        assert_eq!(a.final_ranks, b.final_ranks);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages, b.messages);
    }

    /// Whole-run digests (FNV-1a over the final rank bits, then `rounds`
    /// and `messages`), recorded on x86-64 Linux before the thread body
    /// became a `Ranker` host: that change must not move them. To
    /// re-record on purpose, paste the table the failure prints.
    #[test]
    fn whole_runs_match_their_committed_digests() {
        const CELLS: [(usize, Strategy, DprVariant, u64, u64, u64); 4] = [
            (8, Strategy::HashBySite, DprVariant::Dpr1, 11, 483, 0xb334_3bbf_0402_c89f),
            (16, Strategy::HashByUrl, DprVariant::Dpr1, 26, 5_775, 0x47ca_1d7b_007b_97bb),
            (4, Strategy::HashBySite, DprVariant::Dpr2, 28, 318, 0x2624_9d13_940c_ec73),
            (1, Strategy::HashBySite, DprVariant::Dpr1, 2, 0, 0x7c02_f379_f5f1_cdad),
        ];
        let g = edu_domain(&EduDomainConfig {
            n_pages: 3_000,
            n_sites: 24,
            ..EduDomainConfig::default()
        });
        let mut table = String::new();
        let mut moved = false;
        for (k, strategy, variant, rounds, messages, digest) in CELLS {
            let cfg =
                ThreadedRunConfig { k, strategy: strategy.clone(), variant, ..Default::default() };
            let res = run_threaded(&g, &cfg);
            let mut d = 0xcbf2_9ce4_8422_2325u64;
            let words = res.final_ranks.iter().map(|x| x.to_bits());
            for b in words.chain([res.rounds, res.messages]).flat_map(u64::to_le_bytes) {
                d = (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            moved |= (res.rounds, res.messages, d) != (rounds, messages, digest);
            table.push_str(&format!(
                "({k}, Strategy::{strategy:?}, DprVariant::{variant:?}, {}, {}, {d:#018x}),\n",
                res.rounds, res.messages
            ));
        }
        assert!(!moved, "threaded digests moved; the run now reads:\n{table}");
    }

    #[test]
    fn matches_the_simulated_run_fixed_point() {
        // Real threads and the discrete-event simulator must land on the
        // same fixed point (both converge to CPR).
        let g = toy::two_cliques(5);
        let threaded =
            run_threaded(&g, &ThreadedRunConfig { k: 4, ..ThreadedRunConfig::default() });
        let simulated = crate::run::run_distributed(
            &g,
            crate::run::DistributedRunConfig {
                k: 4,
                strategy: Strategy::HashBySite,
                t_end: 300.0,
                ..crate::run::DistributedRunConfig::default()
            },
        );
        let diff = vec_ops::l1_diff(&threaded.final_ranks, &simulated.final_ranks);
        assert!(diff < 1e-5, "threaded and simulated runs disagree by {diff}");
    }
}
