//! The thread host: every page group's [`Ranker`] runs on its own OS
//! thread and `Y` travels over crossbeam channels.
//!
//! The discrete-event host ([`netrun`](crate::netrun)) proves the paper's
//! properties under *controlled* asynchrony — reproducible schedules,
//! injected failures, per-node think times. This host runs the same think
//! step on genuine parallel hardware, the check
//! Kollias, Gallopoulos & Szyld (cs/0606047) made of the asynchronous
//! iteration on a real cluster.
//!
//! Execution is bulk-synchronous (Pregel-style): within a round every
//! thread drains its inbox into its ranker, thinks, and publishes the
//! returned parts; a barrier separates rounds, so everything sent in round
//! `i` is visible in round `i + 1`. The barrier makes termination exact — a
//! round in which no ranker moved more than `epsilon` publishes nothing, so
//! the system is quiescent — and makes results *deterministic* even though
//! threads race freely inside a round (a ranker sums per-source
//! contributions in a fixed order, so arrival order cannot perturb the
//! floats). The fully asynchronous schedule of §4.2 lives in the simulator,
//! where it can be controlled and replayed; here the point is correctness
//! on real parallelism.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use crossbeam::channel::{unbounded, Receiver, Sender};
use dpr_graph::WebGraph;
use dpr_linalg::vec_ops;
use dpr_partition::{Partition, Strategy};

use crate::centralized::open_pagerank;
use crate::config::RankConfig;
use crate::group::GroupContext;
use crate::ranker::{assemble_ranks, DprVariant, Ranker, YPart};

/// DPR1 inner tolerance of a thread's think.
const INNER_EPSILON: f64 = 1e-12;

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

    let (senders, receivers): (Vec<Sender<YPart>>, Vec<Receiver<YPart>>) =
        (0..cfg.k).map(|_| unbounded()).unzip();
    let coord = Coord {
        compute_done: Barrier::new(cfg.k),
        publish_done: Barrier::new(cfg.k),
        round_done: Barrier::new(cfg.k),
        max_moved_bits: AtomicU64::new(0),
        done: AtomicBool::new(false),
        rounds: AtomicU64::new(0),
    };

    let results: Vec<(Ranker, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.k);
        for (i, (ctx, inbox)) in contexts.into_iter().zip(receivers).enumerate() {
            let (senders, coord) = (senders.clone(), &coord);
            let ranker = Ranker::new(Arc::new(ctx));
            handles.push(
                scope.spawn(move || ranker_thread(i == 0, ranker, inbox, senders, coord, cfg)),
            );
        }
        drop(senders);
        handles.into_iter().map(|h| h.join().expect("ranker thread panicked")).collect()
    });

    let final_ranks = assemble_ranks(results.iter().map(|(ranker, _)| ranker), g.n_pages());
    ThreadedRunResult {
        final_rel_err: vec_ops::relative_error(&final_ranks, &reference),
        final_ranks,
        rounds: coord.rounds.load(Ordering::Acquire),
        messages: results.iter().map(|(_, sent)| sent).sum(),
    }
}

/// Body of one ranker thread. Returns the ranker and the messages it sent.
fn ranker_thread(
    leader: bool,
    mut ranker: Ranker,
    inbox: Receiver<YPart>,
    senders: Vec<Sender<YPart>>,
    coord: &Coord,
    cfg: &ThreadedRunConfig,
) -> (Ranker, u64) {
    let mut prev = ranker.ranks().to_vec();
    let mut sent = 0u64;

    loop {
        // --- compute phase -------------------------------------------------
        // Everything published last round is already in the inbox (sends
        // happened before the senders crossed barrier B).
        while let Ok(part) = inbox.try_recv() {
            ranker.deliver(part.src_group, &part.pattern, &part.scores);
        }
        let parts = ranker.think(cfg.variant, INNER_EPSILON).0.to_vec();
        let moved = vec_ops::l1_diff(ranker.ranks(), &prev);
        prev.copy_from_slice(ranker.ranks());
        coord.max_moved_bits.fetch_max(moved.abs().to_bits(), Ordering::AcqRel);

        // --- publish phase (gated so no drain can observe this round) ------
        coord.compute_done.wait();
        if moved > cfg.quiescence_epsilon {
            for part in parts {
                if senders[part.dest_group as usize].send(part).is_ok() {
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
            return (ranker, sent);
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
            let cfg = ThreadedRunConfig { k, strategy, variant, ..Default::default() };
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
        let simulated = crate::netrun::try_run_over_network(
            &g,
            crate::netrun::NetRunConfig {
                strategy: Strategy::HashBySite,
                t1: 0.0,
                t2: 6.0,
                t_end: 300.0,
                ..crate::netrun::NetRunConfig::section5(4)
            },
        )
        .expect("a valid configuration");
        let diff = vec_ops::l1_diff(&threaded.final_ranks, &simulated.final_ranks);
        assert!(diff < 1e-5, "threaded and simulated runs disagree by {diff}");
    }
}
