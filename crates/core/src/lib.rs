//! Distributed Page Ranking in Structured P2P Networks — the core library.
//!
//! This crate implements the paper's primary contribution on top of the
//! substrates in this workspace (`dpr-linalg`, `dpr-graph`, `dpr-partition`,
//! `dpr-overlay`, `dpr-transport`, `dpr-sim`):
//!
//! * [`config::RankConfig`] — the open-system parameters: `α` (the fraction
//!   of a page's rank carried by real links), `β = 1 − α` (virtual-link /
//!   rank-source fraction) and the rank-source vector `E`;
//! * [`centralized`] — Algorithm 1 (classic PageRank with sink
//!   redistribution) and the open-system centralized baseline **CPR** the
//!   figures compare against;
//! * [`group`] — Algorithm 2, `GroupPageRank`: one page group solving
//!   `R = A·R + βE + X` with afferent rank `X` received from other groups,
//!   and producing efferent rank `Y` for them;
//! * [`ranker`] — the loop body of Algorithms 3 & 4, **DPR1** and **DPR2**
//!   (refresh `X`, solve, publish `Y`), as one sans-IO state machine: the
//!   only place the loop is spelled, hosted by the two hosts below;
//! * [`netrun`] — the simulated host: rankers placed on overlay nodes, `Y`
//!   routed through the overlay under faults, churn, deltas and
//!   replication; the paper's §5 experiments (Figs 6–8) run on it in their
//!   own deployment shape ([`NetRunConfig::section5`]);
//! * [`observe`] — what the run driver shows an observer at every sample,
//!   and the recorder of the Fig 7/8 series and the Theorem 4.1/4.2
//!   verdict;
//! * [`threaded`] — one ranker per OS thread, the host with real
//!   interleavings;
//! * [`hits`] — Kleinberg's HITS, the other seminal link-analysis baseline
//!   the introduction discusses;
//! * [`personalized`] — non-uniform `E` (§3's pointer to personalized page
//!   ranking).
//!
//! ## A note on formula 3.5
//!
//! The paper defines `Y = B·R` with `B[u][v] = β/d(u)`, which contradicts
//! §3's construction where the *real* (inner + efferent) rank transmission
//! carries the `α` fraction and the virtual links carry `β`. We implement
//! `Y(v) = Σ α·R(u)/d(u)` over efferent links `u → v`: with that reading,
//! stacking all group equations yields the single global system
//! `R = α·Ā·R + βE`, whose unique fixed point is exactly what the
//! centralized open-system baseline computes — and the paper's own
//! experiment ("Distributed PageRank converges to the ranks of centralized
//! PageRank", Fig 6) requires that identity to hold.

#![warn(missing_docs)]

pub mod centralized;
pub mod config;
pub mod group;
pub mod hits;
pub mod metrics;
pub mod netrun;
pub mod observe;
pub mod personalized;
pub mod query;
pub mod ranker;
pub mod ranks_io;
pub mod store;
pub mod threaded;

pub use centralized::{open_pagerank, open_pagerank_with_pool, pagerank, PageRankOutcome};
pub use config::RankConfig;
pub use dpr_overlay::RouteCacheStats;
pub use group::{AfferentState, GroupContext, GroupMatrix, MatrixLayout};
pub use netrun::{
    group_owners, try_run_over_network, try_run_over_network_observed, ChurnUnsupported,
    NetCounters, NetRunConfig, NetRunError, NetRunResult, OverlayKind, PhaseSecs, Reliability,
    Transmission,
};
pub use observe::{RunRecorder, Sample};
pub use query::{distributed_top_k, query_cost, site_totals, Hit, QueryCost};
pub use ranker::{DprVariant, GroupSnapshot, Ranker, YPart};
pub use store::{GroupPublish, PointLookup, RankStore, StoreStats, StoreView};
pub use threaded::{run_threaded, ThreadedRunConfig, ThreadedRunResult};
