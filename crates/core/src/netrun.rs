//! The simulated host: DPR with rank exchange **routed through the
//! structured overlay**, in both §4.4 transmission styles. Every simulated
//! run in the repository goes through here — the product path, the paper's
//! §5 figures ([`NetRunConfig::section5`]) and the tests alike:
//!
//! * page groups are placed on overlay nodes by **DHT responsibility** —
//!   group `g` lives on the node numerically closest to `key(g)`;
//! * with [`Transmission::Direct`], a publishing node first pays an
//!   `h`-hop lookup (modelled as added latency and counted messages), then
//!   ships `Y` point-to-point;
//! * with [`Transmission::Indirect`], `Y` parts travel hop-by-hop along the
//!   overlay's own routes as real simulator messages: every relay buffers
//!   arriving parts and, at its next wake, recombines them by destination
//!   and forwards **one package per neighbor** (Fig 4's pack/unpack cycle),
//!   so in-network aggregation emerges from the simulation instead of being
//!   assumed;
//! * message and byte counters per node reproduce the §4.4 cost asymmetry
//!   (direct: `O((h+1)K²)` messages; indirect: neighbor-bound packages but
//!   `h×` forwarded bytes) *while the ranks are converging*;
//! * the driver samples the run every `sample_every` units — the error
//!   series, the optional [`RankStore`](crate::store::RankStore)
//!   publication, and a read-only observer
//!   ([`try_run_over_network_observed`], [`crate::observe`]).
//!
//! Each node wakes after an exponential think time whose mean is drawn per
//! node from `[T1, T2]`, and a send succeeds with probability `p` — §5's
//! model. Nodes start at different times, run at different speeds, and
//! may sleep or shut down ([`dpr_sim::FaultPlan`] crash windows and
//! stragglers): the freedoms §4.2 grants.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use dpr_graph::{GraphDelta, PageId, WebGraph};
use dpr_linalg::vec_ops;
use dpr_overlay::{
    CanNetwork, ChordNetwork, NodeId, NodeIndex, Overlay, PastryNetwork, RouteCache,
    RouteCacheStats,
};
use dpr_partition::{GroupId, Partition};
use dpr_sim::waits::WaitModel;
use dpr_sim::{FaultPlan, SchedStats, SimStats, Simulation, TimeSeries};
use dpr_transport::codec;

use crate::centralized::open_pagerank;
use crate::config::RankConfig;
use crate::group::{GroupContext, MatrixLayout};
use crate::observe::Sample;
use crate::ranker::{assemble_ranks, Ranker};
pub use crate::ranker::{AfferentSnapshot, DprVariant, GroupSnapshot, YPart};

mod node;

use node::{NetNode, Shared};

/// Which structured overlay carries the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayKind {
    /// Pastry prefix routing (the paper's §4.5 assumption).
    Pastry,
    /// Chord ring with finger tables.
    Chord,
    /// CAN coordinate torus with the given dimensionality.
    Can {
        /// Number of torus dimensions (1..=4).
        d: usize,
    },
}

/// A churn operation the active overlay implementation does not support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnUnsupported {
    /// The requested operation (`"departures"` or `"joins"`).
    pub op: &'static str,
    /// The overlay that rejected it.
    pub overlay: &'static str,
}

impl std::fmt::Display for ChurnUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mid-run {} are not supported on the {} overlay", self.op, self.overlay)
    }
}

impl std::error::Error for ChurnUnsupported {}

/// Why a whole-system run was rejected before its event loop started.
/// Malformed configurations come back as structured errors instead of
/// aborting the process (the churn schedules and the replication knobs
/// arrive from CLI flags and experiment scripts, where a typo should fail
/// the run, not the harness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetRunError {
    /// Scheduled churn the chosen overlay cannot perform.
    Churn(ChurnUnsupported),
    /// A configuration value failed validation.
    Config {
        /// The offending field or aspect.
        what: &'static str,
        /// Human-readable explanation.
        detail: String,
    },
}

impl std::fmt::Display for NetRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetRunError::Churn(c) => c.fmt(f),
            NetRunError::Config { what, detail } => {
                write!(f, "invalid net-run config ({what}): {detail}")
            }
        }
    }
}

impl std::error::Error for NetRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetRunError::Churn(c) => Some(c),
            NetRunError::Config { .. } => None,
        }
    }
}

impl From<ChurnUnsupported> for NetRunError {
    fn from(c: ChurnUnsupported) -> Self {
        NetRunError::Churn(c)
    }
}

/// Concrete overlay storage behind the shared lock (an enum rather than a
/// trait object so churn operations, which not every overlay supports,
/// stay available).
pub enum AnyOverlay {
    /// Pastry prefix routing.
    Pastry(PastryNetwork),
    /// Chord ring.
    Chord(ChordNetwork),
    /// CAN torus.
    Can(CanNetwork),
}

impl AnyOverlay {
    /// The overlay `cfg` deploys on: its kind, its node count, and node ids
    /// drawn from its seed. A caller measuring the run's own overlay (the
    /// `h` and `g` of §4.4) builds it here, the way the run does.
    #[must_use]
    pub fn build(cfg: &NetRunConfig) -> Self {
        let seed = overlay_seed(cfg);
        match cfg.overlay {
            OverlayKind::Pastry => AnyOverlay::Pastry(PastryNetwork::with_nodes(cfg.n_nodes, seed)),
            OverlayKind::Chord => AnyOverlay::Chord(ChordNetwork::with_nodes(cfg.n_nodes, seed)),
            OverlayKind::Can { d } => AnyOverlay::Can(CanNetwork::with_nodes(cfg.n_nodes, d, seed)),
        }
    }

    /// The routing view shared by every overlay kind.
    #[must_use]
    pub fn as_overlay(&self) -> &dyn Overlay {
        match self {
            AnyOverlay::Pastry(p) => p,
            AnyOverlay::Chord(c) => c,
            AnyOverlay::Can(c) => c,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyOverlay::Pastry(_) => "Pastry",
            AnyOverlay::Chord(_) => "Chord",
            AnyOverlay::Can(_) => "CAN",
        }
    }

    /// Node departure. Pastry and Chord repair their routing state; CAN
    /// does not model churn and returns an error.
    ///
    /// # Errors
    /// [`ChurnUnsupported`] on CAN.
    pub fn depart(&mut self, h: NodeIndex) -> Result<(), ChurnUnsupported> {
        match self {
            AnyOverlay::Pastry(p) => {
                p.depart(h);
                Ok(())
            }
            AnyOverlay::Chord(c) => {
                c.depart(h);
                Ok(())
            }
            AnyOverlay::Can(_) => Err(ChurnUnsupported { op: "departures", overlay: self.name() }),
        }
    }

    /// Mid-run join: derives a fresh node id from `seed`, bootstraps off
    /// the first live node, and returns the newcomer's handle. Only Pastry
    /// implements incremental joins.
    ///
    /// # Errors
    /// [`ChurnUnsupported`] on Chord/CAN.
    ///
    /// # Panics
    /// If no node of the network is live, or `seed`'s id is taken. A run's
    /// churn schedule cannot get there: validation refuses the departure
    /// of the last live node and a join whose id is in use.
    pub fn join(&mut self, seed: u64) -> Result<NodeIndex, ChurnUnsupported> {
        match self {
            AnyOverlay::Pastry(p) => {
                let bootstrap = (0..p.n_nodes()).find(|&h| p.is_alive(h)).expect(
                    "a live node to bootstrap from: the last live node's departure is refused",
                );
                Ok(p.join(bootstrap, seed))
            }
            _ => Err(ChurnUnsupported { op: "joins", overlay: self.name() }),
        }
    }
}

/// Which §4.4 transmission scheme carries the `Y` exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmission {
    /// Lookup (h hops of latency + h counted messages) then point-to-point.
    Direct,
    /// Hop-by-hop forwarding along overlay routes with per-relay
    /// aggregation.
    Indirect,
}

/// Hop-by-hop reliable-delivery settings: every data package is
/// sequence-numbered, the receiver acknowledges it, and the sender
/// retransmits unacked packages with exponential backoff until a bounded
/// retry budget runs out. Receivers suppress duplicates (a retransmission
/// whose original did arrive) but re-ack them, since the earlier ack may
/// itself have been lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reliability {
    /// Time to wait for an ack before the first retransmission: positive
    /// and finite, and should comfortably exceed one round trip
    /// (`2 × hop_latency` plus engine latency).
    pub ack_timeout: f64,
    /// Maximum retransmissions per package; afterwards the package is
    /// abandoned and counted in [`NetCounters::retry_exhausted`].
    pub max_retries: u32,
    /// Multiplier applied to the timeout after every retransmission
    /// (exponential backoff): finite and at least 1.
    pub backoff: f64,
}

impl Default for Reliability {
    fn default() -> Self {
        Self { ack_timeout: 1.0, max_retries: 5, backoff: 2.0 }
    }
}

/// The smallest bottleneck `B` a run accepts, in bytes per virtual-time
/// unit. At this rate even a `u64::MAX`-byte frame serializes in under
/// 2e25 units, so no frame's delay and no uplink queue can overflow to
/// infinity, a delay the engine refuses to schedule.
const MIN_BOTTLENECK: f64 = 1e-6;

/// Parameters of a whole-system run.
#[derive(Debug, Clone)]
pub struct NetRunConfig {
    /// Number of page groups `K`.
    pub k: usize,
    /// Number of overlay nodes `N` (groups are placed on them by DHT
    /// responsibility; `N` may differ from `K` in either direction).
    pub n_nodes: usize,
    /// Transmission scheme.
    pub transmission: Transmission,
    /// Overlay flavor hosting the rankers.
    pub overlay: OverlayKind,
    /// DPR1 or DPR2.
    pub variant: DprVariant,
    /// Page → group strategy.
    pub strategy: dpr_partition::Strategy,
    /// Ranking parameters.
    pub rank: RankConfig,
    /// Think-time interval `[T1, T2]`.
    pub t1: f64,
    /// Upper end of the think-time interval.
    pub t2: f64,
    /// Per-message success probability in `[0, 1]` (applies to every routed
    /// hop under indirect transmission — losses compound with path length,
    /// a harsher but more realistic reading than the paper's per-Y loss).
    pub send_success_prob: f64,
    /// Virtual-time cost of one overlay hop: finite and non-negative.
    pub hop_latency: f64,
    /// Master seed.
    pub seed: u64,
    /// Virtual-time horizon: positive and finite.
    pub t_end: f64,
    /// Sampling period for the error series.
    pub sample_every: f64,
    /// Bytes per rank update on the wire (the paper's `l`; lookups and
    /// headers pay [`codec::PAPER_LOOKUP_BYTES`] and
    /// [`codec::PAPER_HEADER_BYTES`]).
    pub update_bytes: u64,
    /// Per-node bottleneck bandwidth in bytes per virtual-time unit
    /// (§4.5's `B`): every outgoing message is serialized through the
    /// sender's uplink, so messages queue when the node produces bytes
    /// faster than `B`. Finite and at least `1e-6`; `None` = infinite
    /// uplink.
    pub bottleneck_bytes_per_time: Option<f64>,
    /// Scheduled node crashes: at each `(time, node)` the node departs the
    /// overlay, its hosted groups *lose their state* and migrate to the
    /// new responsible nodes, and ranking must re-converge. Requires
    /// [`OverlayKind::Pastry`] or [`OverlayKind::Chord`]. Times must be
    /// finite, non-negative and strictly increasing.
    pub departures: Vec<(f64, NodeIndex)>,
    /// Scheduled node joins: at each `(time, id_seed)` a fresh node joins
    /// the overlay and the groups it becomes responsible for are handed
    /// over *gracefully* — ranking state moves with them (contrast with
    /// `departures`, where state is lost). Requires
    /// [`OverlayKind::Pastry`]. Times must be finite, non-negative and
    /// strictly increasing.
    pub joins: Vec<(f64, u64)>,
    /// Scheduled crawl deltas: at each `(time, delta)` the live graph is
    /// patched in place and the affected groups re-rank *incrementally* —
    /// each dirtied owner receives the delta as a priced message, rebuilds
    /// its group's context (one group, not the web), and warm-starts its solve
    /// from the previous fixed point with ranks and afferent history
    /// kept. Untouched converged groups never leave the stall
    /// short-circuit, and when a [`RankStore`](crate::store::RankStore)
    /// is attached it keeps serving each dirtied group's pre-delta epoch
    /// until the group re-converges. Times must be finite, non-negative
    /// and strictly increasing; an empty delta is bit-invisible. Works on
    /// every overlay.
    pub deltas: Vec<(f64, GraphDelta)>,
    /// Optional ack/retry/dedup protocol on every data package. `None`
    /// keeps the paper's fire-and-forget model where lost `Y` vectors are
    /// simply absorbed by the next exchange.
    pub reliability: Option<Reliability>,
    /// Full fault model for the underlying engine. When set, it takes
    /// precedence over `send_success_prob` (the plan's own loss, latency,
    /// jitter, partitions, stragglers and crash windows govern delivery).
    pub faults: Option<FaultPlan>,
    /// Replication factor `k` for crash-survivable ranking. When `> 0`,
    /// every group owner periodically ships a compact checkpoint of each
    /// hosted group's dynamic state (`r`, afferent `X`, iteration epoch) to
    /// the group's `k` overlay replicas ([`Overlay::replicas`]: Pastry's
    /// numerically adjacent leaves, Chord's successor list), priced as
    /// §4.5 traffic. When a crashed node's groups fall to a replica by DHT
    /// responsibility, the replica detects the owner's silence by
    /// checkpoint timeout and re-hosts the groups *warm* from its newest
    /// checkpoint instead of rank-zero. `0` (the default) disables the
    /// protocol entirely — no extra messages, no extra state, the exact
    /// pre-replication baseline. Requires Pastry or Chord.
    pub replication: usize,
    /// Virtual-time interval between checkpoint shipments (`replication >
    /// 0` only). Shorter intervals mean fresher warm starts and faster
    /// suspicion at more checkpoint bytes.
    pub checkpoint_every: f64,
    /// Failure-detection threshold: a replica suspects the owner dead — and
    /// takes over the orphaned groups it is now responsible for — once it
    /// has heard no checkpoint for `suspect_after × checkpoint_every`
    /// virtual time. Timeout-based, no oracle knowledge: detection costs
    /// real windows, which is exactly the gap the warm start then recovers.
    pub suspect_after: u32,
    /// Worker threads for the engine's deterministic parallel think stage.
    /// `1` (the default) runs the plain sequential event loop; `> 1` runs
    /// same-window node solves concurrently on a shared pool and commits
    /// their outputs in canonical `(time, seq)` order — bit-identical to
    /// the sequential engine at any worker count (the
    /// [`dpr_sim`] batched-engine contract).
    pub engine_workers: usize,
    /// Inner-solve tolerance: the `ε` each DPR1 think window's
    /// `R = A·R + βE + X` solve targets.
    pub inner_epsilon: f64,
    /// Warm-start ranks (global, page-indexed), e.g. the converged ranks of
    /// the previous crawl: each group's `R` is seeded from them once, at
    /// placement ([`Ranker::seed_ranks`]); pages past the vector's end
    /// start at zero. `None` starts every group at `R₀ = 0`, the start
    /// Theorems 4.1/4.2 assume.
    pub warm_start: Option<Vec<f64>>,
}

impl Default for NetRunConfig {
    fn default() -> Self {
        Self {
            k: 64,
            n_nodes: 64,
            transmission: Transmission::Indirect,
            overlay: OverlayKind::Pastry,
            variant: DprVariant::Dpr1,
            strategy: dpr_partition::Strategy::HashBySite,
            rank: RankConfig::default(),
            t1: 0.5,
            t2: 3.0,
            send_success_prob: 1.0,
            hop_latency: 0.05,
            seed: 0,
            t_end: 200.0,
            sample_every: 2.0,
            update_bytes: codec::PAPER_RECORD_BYTES as u64,
            bottleneck_bytes_per_time: None,
            departures: Vec::new(),
            joins: Vec::new(),
            deltas: Vec::new(),
            reliability: None,
            faults: None,
            replication: 0,
            checkpoint_every: 4.0,
            suspect_after: 2,
            engine_workers: 1,
            inner_epsilon: 1e-10,
            warm_start: None,
        }
    }
}

impl NetRunConfig {
    /// The deployment shape of the paper's §5 evaluation: `k` groups on `k`
    /// Pastry nodes, direct transmission, and a 0.01 hop so that, as in §5,
    /// waiting dominates the exchange. Loss (`send_success_prob`, the
    /// paper's `p`), `[T1, T2]`, the variant and the horizon are the
    /// caller's, as they are each figure's.
    #[must_use]
    pub fn section5(k: usize) -> Self {
        Self {
            k,
            n_nodes: k,
            transmission: Transmission::Direct,
            overlay: OverlayKind::Pastry,
            hop_latency: 0.01,
            ..Self::default()
        }
    }
}

/// Per-node network cost counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Data packages sent (each counted once per hop under indirect;
    /// retransmissions count again — they cost real bandwidth).
    pub data_messages: u64,
    /// Lookup messages charged (direct transmission only).
    pub lookup_messages: u64,
    /// Bytes put on the wire (forwarded bytes count at every hop; ack
    /// frames and retransmitted payloads included).
    pub bytes: u64,
    /// Retransmissions triggered by ack timeouts.
    pub retries: u64,
    /// Ack frames sent.
    pub acks: u64,
    /// Received duplicates suppressed by the dedup filter.
    pub duplicates_suppressed: u64,
    /// Packages abandoned after exhausting the retry budget.
    pub retry_exhausted: u64,
    /// `Y` parts absorbed by per-destination coalescing before reaching
    /// the wire (each one a superseded update that was never sent).
    pub coalesced_parts: u64,
    /// Receive-path payload copies forced by a still-shared `Arc` (a
    /// reliable-mode sender holding the package for retransmission). Zero
    /// under fire-and-forget: payloads move end to end without a copy.
    pub payload_clones: u64,
    /// Afferent `X` rows re-summed during refreshes: the rows an arriving
    /// part actually moved. Charged to the group's host at collection
    /// time.
    pub rows_recomputed: u64,
    /// `Y` parts abandoned with their package when the retry budget ran
    /// out — the per-part face of [`NetCounters::retry_exhausted`]
    /// (updates that were *silently never delivered*, the quantity a
    /// liveness analysis actually cares about).
    pub gave_up: u64,
    /// Checkpoint messages shipped to replicas (`replication > 0` only).
    pub checkpoints_sent: u64,
    /// Bytes of checkpoint traffic (also included in `bytes`): the §4.5
    /// price of crash survivability, separable from the `Y` exchange.
    pub checkpoint_bytes: u64,
    /// Orphaned groups re-hosted *warm* from a replica's checkpoint.
    pub takeovers_warm: u64,
    /// Orphaned groups re-hosted *cold* (rank zero) because no checkpoint
    /// had arrived before the owner went silent — the liveness fallback.
    pub takeovers_cold: u64,
    /// Crawl-delta shipments received: one per scheduled delta per node
    /// that owned at least one dirtied group at delivery time.
    pub delta_messages: u64,
    /// Bytes of serialized crawl deltas (the `DPRG1` delta-record wire
    /// form plus a per-message header; also included in `bytes`) — the
    /// §4.5-style price of keeping ranks live against an evolving web.
    pub delta_bytes: u64,
    /// Inner-solver sweeps run by this node's hosted groups across all
    /// think windows — the FLOP-side twin of
    /// [`NetCounters::rows_recomputed`]. Charged to the group's host at
    /// collection time.
    pub inner_sweeps: u64,
    /// Matrix rows those sweeps updated: per solve, its sweeps times the
    /// group's page count at that moment (a delta may resize a group
    /// mid-run). An exact count; over [`PhaseSecs::solve`] it is the rate
    /// the inner solves ran at, to set beside the kernel's own.
    pub rows_swept: u64,
    /// Think windows the stall short-circuit skipped: each saves exactly
    /// the one sweep a ranker without it would have run to find its ranks
    /// unmoved. An exact count.
    pub sweeps_saved: u64,
}

/// Sums counters field by field: a node's parts into the node, and the
/// nodes of a run into its total.
impl std::ops::AddAssign for NetCounters {
    fn add_assign(&mut self, o: Self) {
        self.data_messages += o.data_messages;
        self.lookup_messages += o.lookup_messages;
        self.bytes += o.bytes;
        self.retries += o.retries;
        self.acks += o.acks;
        self.duplicates_suppressed += o.duplicates_suppressed;
        self.retry_exhausted += o.retry_exhausted;
        self.coalesced_parts += o.coalesced_parts;
        self.payload_clones += o.payload_clones;
        self.rows_recomputed += o.rows_recomputed;
        self.gave_up += o.gave_up;
        self.checkpoints_sent += o.checkpoints_sent;
        self.checkpoint_bytes += o.checkpoint_bytes;
        self.takeovers_warm += o.takeovers_warm;
        self.takeovers_cold += o.takeovers_cold;
        self.delta_messages += o.delta_messages;
        self.delta_bytes += o.delta_bytes;
        self.inner_sweeps += o.inner_sweeps;
        self.rows_swept += o.rows_swept;
        self.sweeps_saved += o.sweeps_saved;
    }
}

/// Wall-clock seconds per layer of the run, measured inside the program:
/// every node accumulates its own and the driver adds the two it runs
/// itself. Always on (a few clock reads per data message, wake and group
/// think); never read by the simulation, so it cannot move a simulated
/// number. What `engine_secs` holds beyond their sum is the event engine
/// itself, the reliability and replication protocols, and churn. With
/// `engine_workers > 1` the node-side layers overlap across threads and
/// the sum may exceed `engine_secs`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSecs {
    /// Receive path: raw `Y` parts into the afferent states.
    pub deliver: f64,
    /// Afferent refresh: dirty `X` rows re-summed, `f = βE + X` patched.
    pub refresh: f64,
    /// Inner solves (Algorithm 2 or one DPR2 step).
    pub solve: f64,
    /// `Y` assembly from the solved ranks.
    pub compute_y: f64,
    /// Coalescing, routing and sending a wake's parts (deliveries to
    /// groups on the same node are counted under `deliver`, not here).
    pub dispatch: f64,
    /// Driver: assembling the global rank vector and the error sample
    /// after every slice.
    pub sample: f64,
    /// Driver: store publication after every slice.
    pub publish: f64,
}

impl PhaseSecs {
    /// Seconds accounted for across all layers.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.deliver
            + self.refresh
            + self.solve
            + self.compute_y
            + self.dispatch
            + self.sample
            + self.publish
    }
}

impl std::ops::AddAssign for PhaseSecs {
    fn add_assign(&mut self, o: Self) {
        self.deliver += o.deliver;
        self.refresh += o.refresh;
        self.solve += o.solve;
        self.compute_y += o.compute_y;
        self.dispatch += o.dispatch;
        self.sample += o.sample;
        self.publish += o.publish;
    }
}

/// Result of a whole-system run.
#[derive(Debug, Clone)]
pub struct NetRunResult {
    /// Relative error vs the centralized fixed point, over time.
    pub rel_err: TimeSeries,
    /// Final relative error.
    pub final_rel_err: f64,
    /// Final global ranks.
    pub final_ranks: Vec<f64>,
    /// Summed per-node network counters.
    pub counters: NetCounters,
    /// The same counters before summing, indexed by overlay node. Sends
    /// (data, lookups, retries) are charged to the sender; acks and
    /// duplicate suppressions to the receiver.
    pub per_node: Vec<NetCounters>,
    /// Wall-clock seconds spent before the event loop started: graph
    /// partitioning, the centralized reference solve, group-context
    /// assembly, and overlay placement. Identical work across engine
    /// configurations, so throughput comparisons should exclude it.
    pub setup_secs: f64,
    /// Wall-clock seconds spent inside the event loop (simulation plus
    /// periodic error sampling) — the denominator for events/sec.
    pub engine_secs: f64,
    /// Wall-clock seconds of the `engine_secs` window spent recomputing
    /// the centralized reference after crawl deltas — measurement-only
    /// overhead (error tracking), not protocol work. Subtract it when
    /// comparing incremental-update engine time against a cold restart.
    pub delta_ref_secs: f64,
    /// Where the `engine_secs` window went, layer by layer, summed over
    /// every node and the driver (see [`PhaseSecs`]).
    pub phase_secs: PhaseSecs,
    /// Engine counters.
    pub sim_stats: SimStats,
    /// Event-scheduler allocation counters (arena recycling
    /// observability; never part of the replay contract).
    pub sched_stats: SchedStats,
    /// Measured mean route length between group publishers and owners.
    pub mean_route_hops: f64,
    /// Route-cache hit/miss/invalidation counters for the whole run.
    pub route_cache: RouteCacheStats,
}

/// One scheduled churn event, merged from `departures`, `joins`, and
/// `deltas` (the index points into `cfg.deltas`).
#[derive(Clone, Copy)]
enum ChurnEvent {
    Depart(NodeIndex),
    Join { id_seed: u64 },
    Delta(usize),
}

/// Builds and executes a whole-system run, validating churn support and
/// configuration shape up front.
///
/// # Errors
/// [`NetRunError::Churn`] when `departures` are scheduled on CAN or
/// `joins` on anything but Pastry; [`NetRunError::Config`] for malformed
/// values (empty system, a horizon that is not positive and finite, a
/// schedule time that is not finite, non-negative and increasing, a
/// departure of a node that is not live then or of the last live one, a
/// join whose id is already in use, replication on CAN, degenerate
/// checkpoint/suspicion settings, an inverted or negative think-time
/// interval, or a hop latency, bottleneck, loss probability, ack timeout or
/// backoff outside its documented range).
pub fn try_run_over_network(g: &WebGraph, cfg: NetRunConfig) -> Result<NetRunResult, NetRunError> {
    try_run_over_network_with_store(g, cfg, None)
}

/// [`try_run_over_network`] with a serving-side publication hook: after
/// every sample slice (the same cadence as the convergence series) the
/// driver publishes each hosted group's rank vector and outer epoch into
/// `store`, so concurrent readers query a consistent, epoch-versioned
/// picture of the run while the engine keeps committing. Publication
/// happens outside the event loop and never mutates node state, so it is
/// bit-neutral: results are identical with or without a store (and the
/// store's converged-group skip logic keeps steady-state publishes cheap).
///
/// The final published view equals [`NetRunResult::final_ranks`] exactly —
/// the last slice ends at `t_end`, where the result itself is assembled.
///
/// # Errors
/// Same as [`try_run_over_network`].
pub fn try_run_over_network_with_store(
    g: &WebGraph,
    cfg: NetRunConfig,
    store: Option<&crate::store::RankStore>,
) -> Result<NetRunResult, NetRunError> {
    try_run_over_network_observed(g, cfg, store, &mut |_| {})
}

/// The seed the overlay draws its node ids from.
fn overlay_seed(cfg: &NetRunConfig) -> u64 {
    cfg.seed ^ 0x0E0E
}

/// One validation row: `Ok` when `ok`, else a [`NetRunError::Config`]
/// naming `what`.
fn require(ok: bool, what: &'static str, detail: String) -> Result<(), NetRunError> {
    ok.then_some(()).ok_or(NetRunError::Config { what, detail })
}

/// The rule every duration, tolerance and rate keeps.
fn positive_finite(what: &'static str, v: f64) -> Result<(), NetRunError> {
    require(v > 0.0 && v.is_finite(), what, format!("must be positive and finite, got {v}"))
}

/// The one rule every event schedule keeps: times finite, non-negative
/// and strictly increasing. A NaN time never compares as due and an
/// infinite one never comes, so either would hold the run open forever.
fn check_schedule(what: &'static str, times: impl Iterator<Item = f64>) -> Result<(), NetRunError> {
    let mut prev = f64::NEG_INFINITY;
    for t in times {
        let detail = format!("times must be finite, non-negative and strictly increasing, got {t}");
        require(t.is_finite() && t >= 0.0 && t > prev, what, detail)?;
        prev = t;
    }
    Ok(())
}

/// Departures, joins and crawl deltas merged into the one time-ordered
/// churn schedule the driver consumes. The sort is stable, so coinciding
/// times keep the departures → joins → deltas order.
fn churn_schedule(cfg: &NetRunConfig) -> Vec<(f64, ChurnEvent)> {
    let mut churn: Vec<(f64, ChurnEvent)> = cfg
        .departures
        .iter()
        .map(|&(t, node)| (t, ChurnEvent::Depart(node)))
        .chain(cfg.joins.iter().map(|&(t, id_seed)| (t, ChurnEvent::Join { id_seed })))
        .chain(cfg.deltas.iter().enumerate().map(|(i, &(t, _))| (t, ChurnEvent::Delta(i))))
        .collect();
    churn.sort_by(|a, b| a.0.total_cmp(&b.0));
    churn
}

/// Replays membership over the churn schedule, in the order the driver
/// consumes it. A departure must name a node that is live at that moment:
/// its index is below `n_nodes` plus the joins so far, it has not departed
/// already, and another node stays live. A join must bring a Pastry id
/// that no node, live or departed, holds yet.
fn check_membership(cfg: &NetRunConfig, churn: &[(f64, ChurnEvent)]) -> Result<(), NetRunError> {
    let mut ids: HashSet<NodeId> = HashSet::new();
    if !cfg.joins.is_empty() {
        ids.extend((0..cfg.n_nodes).map(|i| PastryNetwork::node_id(overlay_seed(cfg), i)));
    }
    let mut live = vec![true; cfg.n_nodes];
    let mut n_live = cfg.n_nodes;
    for &(t, event) in churn {
        match event {
            ChurnEvent::Depart(node) => {
                let detail = format!("node {node} is not live at t={t}");
                require(live.get(node) == Some(&true), "departures", detail)?;
                let detail = format!("node {node} at t={t} is the last live node");
                require(n_live > 1, "departures", detail)?;
                live[node] = false;
                n_live -= 1;
            }
            ChurnEvent::Join { id_seed } => {
                let detail = format!("join seed {id_seed} at t={t} gives an id already in use");
                require(ids.insert(NodeId::from_seed(id_seed)), "joins", detail)?;
                live.push(true);
                n_live += 1;
            }
            ChurnEvent::Delta(_) => {}
        }
    }
    Ok(())
}

/// Every rule a configuration must keep before a run starts: the values
/// the engine would otherwise assert on, and those that would hang the
/// run or quietly turn a protocol off. Returns the churn schedule it
/// checked, for the driver to run.
fn validate(cfg: &NetRunConfig) -> Result<Vec<(f64, ChurnEvent)>, NetRunError> {
    let (k, n) = (cfg.k, cfg.n_nodes);
    let detail = format!("need at least one group and one node, got k={k} n_nodes={n}");
    require(k >= 1 && n >= 1, "k/n_nodes", detail)?;
    // An infinite horizon never ends; a NaN or non-positive one runs nothing.
    positive_finite("t_end", cfg.t_end)?;
    let overlay = match cfg.overlay {
        OverlayKind::Pastry => "Pastry",
        OverlayKind::Chord => "Chord",
        OverlayKind::Can { .. } => "CAN",
    };
    if !cfg.departures.is_empty() && overlay == "CAN" {
        return Err(ChurnUnsupported { op: "departures", overlay }.into());
    }
    if !cfg.joins.is_empty() && overlay != "Pastry" {
        return Err(ChurnUnsupported { op: "joins", overlay }.into());
    }
    check_schedule("departures", cfg.departures.iter().map(|e| e.0))?;
    check_schedule("joins", cfg.joins.iter().map(|e| e.0))?;
    check_schedule("deltas", cfg.deltas.iter().map(|e| e.0))?;
    let churn = churn_schedule(cfg);
    check_membership(cfg, &churn)?;
    if cfg.replication > 0 {
        let detail = "the CAN overlay has no replica sets (see DESIGN.md §11); use Pastry or Chord";
        require(overlay != "CAN", "replication", detail.into())?;
        positive_finite("checkpoint_every", cfg.checkpoint_every)?;
        let detail = "must be at least 1 missed checkpoint interval".into();
        require(cfg.suspect_after >= 1, "suspect_after", detail)?;
    }
    positive_finite("inner_epsilon", cfg.inner_epsilon)?;
    let (t1, t2) = (cfg.t1, cfg.t2);
    let detail = format!("need finite 0 <= t1 <= t2, got t1={t1} t2={t2}");
    require(t1 >= 0.0 && t1 <= t2 && t2.is_finite(), "t1/t2", detail)?;
    // The sampling loop would never advance.
    positive_finite("sample_every", cfg.sample_every)?;
    // A negative, NaN or infinite delay is one the engine refuses to
    // schedule, and a zero, negative or NaN bandwidth makes one. So is the
    // delay of the longest route, `n_nodes + joins` hops, when it overflows.
    let h = cfg.hop_latency;
    let hops = cfg.n_nodes + cfg.joins.len();
    let detail = format!("must be >= 0 and keep a {hops}-hop route's delay finite, got {h}");
    require(h >= 0.0 && (hops as f64 * h).is_finite(), "hop_latency", detail)?;
    if let Some(b) = cfg.bottleneck_bytes_per_time {
        let detail = format!("must be finite and >= {MIN_BOTTLENECK}, got {b}");
        require(b >= MIN_BOTTLENECK && b.is_finite(), "bottleneck_bytes_per_time", detail)?;
    }
    let p = cfg.send_success_prob;
    require((0.0..=1.0).contains(&p), "send_success_prob", format!("must be in [0, 1], got {p}"))?;
    // A NaN or infinite timeout never fires (reliability silently off), a
    // non-positive one fires at once; a backoff below 1 or NaN shrinks it.
    if let Some(rel) = cfg.reliability {
        positive_finite("ack_timeout", rel.ack_timeout)?;
        let b = rel.backoff;
        require(b >= 1.0 && b.is_finite(), "backoff", format!("must be finite and >= 1, got {b}"))?;
    }
    Ok(churn)
}

/// [`try_run_over_network_with_store`] with an observer: after every sample
/// slice, once the error sample is taken and before the store publishes,
/// `observe` sees the slice's [`Sample`] — the time, the relative error,
/// every group hosted on a live node and the global rank vector. It only
/// reads, so a run is bit-identical with any observer or none.
///
/// # Errors
/// Same as [`try_run_over_network`].
pub fn try_run_over_network_observed(
    g: &WebGraph,
    cfg: NetRunConfig,
    store: Option<&crate::store::RankStore>,
    observe: &mut dyn FnMut(&Sample<'_>),
) -> Result<NetRunResult, NetRunError> {
    let wall_start = Instant::now();
    cfg.rank.validate(g.n_pages());
    let churn = validate(&cfg)?;
    let cfg = Arc::new(cfg);
    let overlay = AnyOverlay::build(&cfg);
    let key_of: Vec<u128> = (0..cfg.k as u64).map(dpr_overlay::id::key_from_u64).collect();
    let owner_of: Vec<NodeIndex> =
        key_of.iter().map(|&k| overlay.as_overlay().responsible(k)).collect();

    let partition = Partition::build(g, &cfg.strategy, cfg.k, 0);
    let mut reference = open_pagerank(g, &cfg.rank).ranks;
    // Run-wide context directory, indexed by group id and shared with
    // every node: static group structure is rebuilt from here (never
    // shipped) when a replica takes over an orphaned group.
    let contexts: Vec<Arc<GroupContext>> =
        GroupContext::build_all(g, &partition, &cfg.rank).into_iter().map(Arc::new).collect();
    debug_assert!(contexts.iter().enumerate().all(|(gid, c)| c.group_id() as usize == gid));
    // Draw means for joiners too; uniform_means samples sequentially, so
    // the first n_nodes means are unchanged by the extension.
    let waits =
        WaitModel::uniform_means(cfg.n_nodes + cfg.joins.len(), cfg.t1, cfg.t2, cfg.seed ^ 0xCAFE);

    // Place groups on their owner nodes.
    let mut hosted: Vec<Vec<Ranker>> = (0..cfg.n_nodes).map(|_| Vec::new()).collect();
    let mut hop_total = 0usize;
    let mut hop_count = 0usize;
    for c in &contexts {
        let owner = owner_of[c.group_id() as usize];
        // Record the publisher→owner route lengths for reporting.
        for dest in c.efferent_groups() {
            hop_total += overlay.as_overlay().route(owner, key_of[dest as usize]).len();
            hop_count += 1;
        }
        let mut ranker = Ranker::new(Arc::clone(c));
        if let Some(ranks) = &cfg.warm_start {
            ranker.seed_ranks(ranks);
        }
        hosted[owner].push(ranker);
    }

    let shared = Shared {
        overlay: Arc::new(RwLock::new(overlay)),
        owner_of: Arc::new(RwLock::new(owner_of)),
        key_of: Arc::new(key_of),
        cache: Arc::new(RwLock::new(RouteCache::new())),
        cfg: Arc::clone(&cfg),
        contexts: Arc::new(RwLock::new(contexts)),
    };
    let nodes: Vec<NetNode> = hosted
        .into_iter()
        .enumerate()
        .map(|(i, groups)| NetNode::new(i, groups, waits.mean(i), &shared))
        .collect();

    // The fault plan takes precedence over the legacy scalar knob.
    let plan = cfg.faults.clone().unwrap_or_else(|| {
        FaultPlan::new().with_latency(0.01).with_default_success(cfg.send_success_prob)
    });
    let mut sim = Simulation::with_plan(nodes, cfg.seed, plan);

    let setup_secs = wall_start.elapsed().as_secs_f64();
    // `engine_workers == 1` is the plain sequential event loop (the
    // replay-contract reference); `> 1` takes the batched path, which
    // commits in the identical (time, seq) order and is bit-identical.
    let engine_pool =
        (cfg.engine_workers > 1).then(|| dpr_linalg::pool::Pool::with_workers(cfg.engine_workers));
    let run_until = |sim: &mut Simulation<NetNode>, t| match &engine_pool {
        Some(pool) => sim.run_until_pooled(t, pool),
        None => sim.run_until(t),
    };
    let engine_start = Instant::now();
    let mut delta_ref_secs = 0.0f64;
    let mut phase_secs = PhaseSecs::default();
    let mut rel_err = TimeSeries::new();
    let mut n_pages = g.n_pages();
    let mut churn = churn.into_iter().peekable();
    let mut joined = 0usize;
    // Live-graph state, materialized lazily on the first crawl delta: the
    // mutable graph plus the page→group assignment (extended as pages are
    // inserted; pinned for existing pages).
    let mut live: Option<(WebGraph, Vec<GroupId>)> = None;
    // Tombstoned pages: no group ranks them anymore, so their reference
    // entries are pinned to 0.0 (the centralized solve still hands a
    // tombstone its βE share — rank that never propagates and that the
    // distributed system deliberately stops serving).
    let mut dead: Vec<PageId> = Vec::new();
    // Groups re-solving after a delta: their store publishes are held
    // back — the store keeps serving the pre-delta epoch — until the
    // group's ranker re-stalls on the new fixed point.
    let mut resolving: HashSet<GroupId> = HashSet::new();
    let mut t = 0.0;
    while t < cfg.t_end {
        let next_t = (t + cfg.sample_every).min(cfg.t_end);
        // Apply any churn scheduled inside this slice first.
        while let Some((ct, ev)) = churn.next_if(|&(ct, _)| ct <= next_t) {
            run_until(&mut sim, ct);
            match ev {
                ChurnEvent::Depart(node) => apply_departure(&mut sim, &shared, node),
                ChurnEvent::Join { id_seed } => {
                    let mean_wait = waits.mean(cfg.n_nodes + joined);
                    joined += 1;
                    apply_join(&mut sim, &shared, mean_wait, id_seed);
                }
                ChurnEvent::Delta(i) => {
                    let (gl, asg) =
                        live.get_or_insert_with(|| (g.clone(), partition.assignment().to_vec()));
                    let report =
                        apply_delta(&mut sim, &shared, gl, asg, &cfg.deltas[i].1, &mut resolving);
                    if !report.is_noop() {
                        for &p in &report.deleted {
                            dead.push(p);
                        }
                        n_pages = gl.n_pages();
                        let ref_start = Instant::now();
                        reference = open_pagerank(gl, &cfg.rank).ranks;
                        for &p in &dead {
                            reference[p as usize] = 0.0;
                        }
                        delta_ref_secs += ref_start.elapsed().as_secs_f64();
                    }
                }
            }
        }
        run_until(&mut sim, next_t);
        let sample_start = Instant::now();
        let global = assemble_ranks(hosted_groups(sim.actors()), n_pages);
        let err = vec_ops::relative_error(&global, &reference);
        rel_err.push(next_t, err);
        // A dirtied group leaves the resolving set once its ranker has
        // re-stalled on the exact post-delta fixed point (reads state
        // only — bit-neutral to the run).
        let rankers: Vec<&Ranker> = hosted_groups(sim.actors()).collect();
        resolving
            .retain(|&gid| !rankers.iter().any(|r| r.ctx().group_id() == gid && r.is_stalled()));
        observe(&Sample { t: next_t, rel_err: err, rankers: &rankers, global: &global });
        let publish_start = Instant::now();
        phase_secs.sample += (publish_start - sample_start).as_secs_f64();
        if let Some(store) = store {
            // Group state is only read here: publication cannot perturb
            // the run. Crashed/migrated groups publish from their current
            // host; a group orphaned mid-takeover simply keeps its last
            // published epoch until a survivor re-hosts it; a group still
            // re-solving a crawl delta keeps serving its pre-delta epoch
            // until the new fixed point is reached.
            store.publish_rankers(
                rankers.iter().copied().filter(|r| !resolving.contains(&r.ctx().group_id())),
            );
        }
        phase_secs.publish += publish_start.elapsed().as_secs_f64();
        t = next_t;
    }
    let publish_start = Instant::now();
    if let Some(store) = store {
        // Final flush, gate lifted: a group still mid-resolve at `t_end`
        // publishes its best current state, so the served view equals
        // `final_ranks` exactly (already-published groups skip via the
        // store's bit-identical-republish path).
        store.publish_rankers(hosted_groups(sim.actors()));
    }
    phase_secs.publish += publish_start.elapsed().as_secs_f64();

    let engine_secs = engine_start.elapsed().as_secs_f64();
    for node in sim.actors() {
        phase_secs += node.phase();
    }
    let final_ranks = assemble_ranks(hosted_groups(sim.actors()), n_pages);
    let per_node: Vec<NetCounters> = sim.actors().iter().map(NetNode::counters).collect();
    let mut counters = NetCounters::default();
    for &c in &per_node {
        counters += c;
    }
    let route_cache = shared.cache.read().stats();
    Ok(NetRunResult {
        final_rel_err: vec_ops::relative_error(&final_ranks, &reference),
        rel_err,
        final_ranks,
        counters,
        per_node,
        setup_secs,
        engine_secs,
        delta_ref_secs,
        phase_secs,
        sim_stats: sim.stats(),
        sched_stats: sim.sched_stats(),
        mean_route_hops: if hop_count == 0 { 0.0 } else { hop_total as f64 / hop_count as f64 },
        route_cache,
    })
}

/// Crashes `node`: removes it from the overlay, recomputes group
/// ownership, and discards everything the node held — its ranking state
/// dies with it.
///
/// What happens to the orphaned groups depends on the replication mode:
///
/// * `replication == 0` (the baseline): the driver migrates them to the
///   new responsible nodes *with all ranking state lost* (R back to 0,
///   afferent history cleared) — the peers' next Y deliveries rebuild it.
///   This oracle re-hosting is instant but cold.
/// * `replication > 0`: nobody is told anything. The surviving replicas
///   notice the owner's silence by checkpoint timeout (their suspicion
///   clocks) and re-host the groups warm from their newest snapshots —
///   detection costs real windows, recovery starts near the fixed point
///   instead of at zero.
fn apply_departure(sim: &mut Simulation<NetNode>, shared: &Shared, node: NodeIndex) {
    // `check_membership` replayed this departure against a live node and
    // CAN's departures were refused, so `depart` cannot fail or panic.
    shared.overlay.write().depart(node).expect("churn support validated before the run");
    shared.reassign_owners();
    let actors = sim.actors_mut();
    let orphaned = actors[node].crash();
    if shared.cfg.replication > 0 {
        // Crash-survivable mode: the state is simply gone; takeover is
        // the replicas' job, driven by their own failure detectors.
        return;
    }
    let owners = shared.owner_of.read();
    for lost in orphaned {
        let new_owner = owners[lost.ctx().group_id() as usize];
        actors[new_owner].adopt(Ranker::new(Arc::clone(lost.ctx())));
    }
}

/// Joins a fresh node (id derived from `id_seed`): inserts it into the
/// overlay, recomputes group ownership, spawns its actor mid-run, and
/// hands over the groups it is now responsible for *with their ranking
/// state intact* — a graceful handoff, unlike the state loss of
/// [`apply_departure`].
fn apply_join(sim: &mut Simulation<NetNode>, shared: &Shared, mean_wait: f64, id_seed: u64) {
    // Joins run on Pastry only and `check_membership` gave this one an id
    // new to the ring, so `join` cannot fail or panic.
    let new = shared.overlay.write().join(id_seed).expect("churn support validated before the run");
    shared.reassign_owners();
    let idx = sim.add_actor(NetNode::new(new, Vec::new(), mean_wait, shared));
    debug_assert_eq!(idx, new, "overlay handle and actor index must agree");

    // Graceful handoff: any group no longer hosted by its owner moves,
    // state and all.
    let owners = shared.owner_of.read();
    let actors = sim.actors_mut();
    let migrating: Vec<Ranker> =
        actors.iter_mut().flat_map(|a| a.release_foreign(&owners)).collect();
    for ranker in migrating {
        let gid = ranker.ctx().group_id() as usize;
        actors[owners[gid]].adopt(ranker);
    }
}

/// Applies one scheduled crawl delta to the running system — the
/// incremental-ranking path. The graph is patched in place and only the
/// groups the delta actually dirties are touched:
///
/// * every dirty group — one owning a page whose out-row or out-degree
///   changed, or a page inserted or tombstoned — gets a one-group
///   [`GroupContext::rebuild`] against the new graph, the same assembly
///   the set-up ran: cost proportional to the group, not the web;
/// * each dirty group's host *warm-starts* ([`Ranker::rebase`]): the
///   ranker resumes from the previous fixed point instead of from zero;
/// * a rebuilt group that no longer links into some destination group
///   sends it one empty part with its host's next wake, retracting the
///   contribution that destination would otherwise keep for ever;
/// * every untouched group keeps its context, its ranks, and its stall
///   short-circuit — it never notices the delta;
/// * each node owning at least one dirty group is charged one delta
///   shipment (the `DPRG1` delta-record wire bytes plus a header) — the
///   §4.5-style price of the crawler pushing the update into the
///   overlay.
///
/// Inserted pages are assigned by the run's own strategy (crawl epoch 0,
/// like the initial partition); existing pages keep their pinned
/// assignment, so a `SplitSite` op affects future assignments only (the
/// DESIGN.md §14 caveat for URL-hashed strategies). Replica checkpoints
/// of dirty groups are purged — they describe the pre-delta group.
///
/// Runs in the sequential driver between engine slices, like the other
/// churn events, so worker counts cannot reorder it: the replay and
/// cross-worker bit-identity contracts hold with deltas exactly as
/// without. Returns the delta report; the caller refreshes the
/// centralized reference and the page count from it.
fn apply_delta(
    sim: &mut Simulation<NetNode>,
    shared: &Shared,
    g_live: &mut WebGraph,
    assignment: &mut Vec<GroupId>,
    delta: &GraphDelta,
    resolving: &mut HashSet<GroupId>,
) -> dpr_graph::DeltaReport {
    let Shared { cfg, contexts, .. } = shared;
    let (g2, report) = delta.apply_report(g_live);
    *g_live = g2;
    // Every new id slot gets an assignment — including pages inserted and
    // tombstoned within the same delta, which still occupy a slot.
    for p in assignment.len() as PageId..g_live.n_pages() as PageId {
        assignment.push(cfg.strategy.assign(g_live, p, cfg.k, 0));
    }
    // The dirty groups, ascending (BTreeSet: rebuild order is
    // deterministic).
    let pages = report.touched_pages.iter().chain(&report.inserted).chain(&report.deleted);
    let dirty: BTreeSet<GroupId> = pages.map(|&p| assignment[p as usize]).collect();
    if dirty.is_empty() {
        return report; // an empty delta is bit-invisible
    }
    {
        let mut dir = contexts.write();
        for &gid in &dirty {
            let mut pages: Vec<PageId> = dir[gid as usize]
                .pages()
                .iter()
                .copied()
                .filter(|p| report.deleted.binary_search(p).is_err())
                .collect();
            // Inserted ids all exceed the old page count, so appending the
            // group's share keeps `pages` sorted.
            pages
                .extend(report.inserted.iter().copied().filter(|&p| assignment[p as usize] == gid));
            let layout = MatrixLayout::default();
            dir[gid as usize] =
                Arc::new(GroupContext::rebuild(g_live, assignment, &cfg.rank, gid, pages, layout));
        }
    }
    // Warm-restart each dirty group's hosted state and price the delta
    // shipment to the nodes owning dirty groups.
    let dir = contexts.read();
    let mut charged: BTreeSet<usize> = BTreeSet::new();
    for &gid in &dirty {
        resolving.insert(gid);
        // Stale pre-delta checkpoints are useless for a warm takeover;
        // purge them everywhere (a frame already in flight is caught by
        // the length guard in `Ranker::restore`). A group orphaned by a
        // crash has no host: the eventual takeover rebuilds from the
        // already-updated context directory.
        for (host, a) in sim.actors_mut().iter_mut().enumerate() {
            if a.rebase_group(gid, &dir[gid as usize]) {
                charged.insert(host);
            }
        }
    }
    drop(dir);
    let (now, wire) = (sim.now(), dpr_graph::io::delta_wire_bytes(delta));
    for host in charged {
        sim.actors_mut()[host].receive_delta(now, wire);
    }
    report
}

/// The owner node of every group under `cfg` — the same DHT-responsibility
/// mapping `try_run_over_network` computes at placement time, rebuilt from
/// the config's overlay seed without running a simulation. Tests and
/// benches use it to pick a crash victim that actually hosts groups (e.g.
/// `group_owners(&cfg)[0]` is the owner of group 0).
#[must_use]
pub fn group_owners(cfg: &NetRunConfig) -> Vec<NodeIndex> {
    let overlay = AnyOverlay::build(cfg);
    let ov = overlay.as_overlay();
    (0..cfg.k as u64).map(|g| ov.responsible(dpr_overlay::id::key_from_u64(g))).collect()
}

/// Every hosted group (a departed node hosts none).
fn hosted_groups(nodes: &[NetNode]) -> impl Iterator<Item = &Ranker> {
    nodes.iter().flat_map(NetNode::groups)
}

#[cfg(test)]
mod tests {
    use super::node::NetMsg;
    use super::*;
    use dpr_graph::generators::edu::{edu_domain, EduDomainConfig};
    use dpr_graph::generators::toy;
    use dpr_graph::DeltaOp;
    use dpr_partition::Strategy;

    /// Test convenience: every config in this module schedules churn the
    /// overlay supports, so unwrap the `Result` here instead of threading
    /// `expect` through every call site.
    fn run_over_network(g: &WebGraph, cfg: NetRunConfig) -> NetRunResult {
        try_run_over_network(g, cfg).expect("test configs use supported churn schedules")
    }

    /// Everything a run produces that the replay contract covers: rank
    /// bits, summed and per-node counters, engine stats, the error series.
    fn assert_same_run(a: &NetRunResult, b: &NetRunResult, what: &str) {
        let bits = |r: &NetRunResult| r.final_ranks.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "rank bits diverged: {what}");
        assert_eq!(a.counters, b.counters, "counters diverged: {what}");
        assert_eq!(a.per_node, b.per_node, "per-node counters diverged: {what}");
        assert_eq!(a.sim_stats, b.sim_stats, "engine stats diverged: {what}");
        assert_eq!(a.rel_err.points(), b.rel_err.points(), "error series diverged: {what}");
    }

    fn quick(transmission: Transmission) -> NetRunConfig {
        NetRunConfig {
            k: 24,
            n_nodes: 24,
            transmission,
            strategy: Strategy::HashByUrl,
            t_end: 300.0,
            ..NetRunConfig::default()
        }
    }

    #[test]
    fn indirect_sends_fewer_messages_than_direct() {
        let g = edu_domain(&EduDomainConfig {
            n_pages: 3_000,
            n_sites: 30,
            ..EduDomainConfig::default()
        });
        let k = 48;
        let run =
            |t| run_over_network(&g, NetRunConfig { k, n_nodes: k, t_end: 150.0, ..quick(t) });
        let d = run(Transmission::Direct);
        let i = run(Transmission::Indirect);
        assert!(d.final_rel_err < 1e-3);
        assert!(i.final_rel_err < 1e-3);
        let d_total = d.counters.data_messages + d.counters.lookup_messages;
        let i_total = i.counters.data_messages;
        assert!(i_total < d_total, "indirect {i_total} should beat direct {d_total} messages");
    }

    #[test]
    fn converges_on_every_overlay_kind() {
        let g = toy::two_cliques(5);
        for overlay in [OverlayKind::Pastry, OverlayKind::Chord, OverlayKind::Can { d: 2 }] {
            let res =
                run_over_network(&g, NetRunConfig { overlay, ..quick(Transmission::Indirect) });
            assert!(res.final_rel_err < 1e-4, "{overlay:?}: rel err {}", res.final_rel_err);
            assert!(
                res.counters.sweeps_saved > 0,
                "{overlay:?}: a converged run must bank its stall-skipped verification sweeps"
            );
        }
    }

    #[test]
    fn tight_bottleneck_slows_convergence() {
        // §4.5's B as queueing: an uplink that cannot keep up with the Y
        // traffic must push the 1%-error crossing later, but never break
        // convergence.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let base = NetRunConfig {
            k: 24,
            n_nodes: 24,
            strategy: Strategy::HashByUrl,
            t_end: 900.0,
            ..NetRunConfig::default()
        };
        let fast = run_over_network(&g, base.clone());
        let slow = run_over_network(
            &g,
            NetRunConfig { bottleneck_bytes_per_time: Some(20_000.0), ..base },
        );
        assert!(fast.final_rel_err < 1e-3);
        assert!(slow.final_rel_err < 1e-2, "rel err {}", slow.final_rel_err);
        let tf = fast.rel_err.first_time_below(0.01).expect("fast hits 1%");
        let ts = slow.rel_err.first_time_below(0.01).expect("slow hits 1%");
        assert!(ts > tf, "bottleneck should delay convergence: {ts} vs {tf}");
    }

    #[test]
    fn ranking_recovers_from_a_node_crash() {
        // A node hosting groups crashes mid-run: its state is lost, its
        // groups migrate cold to the new responsible nodes, and the system
        // re-converges — quantitatively: the error spikes above the
        // converged level, then returns below the pre-crash tolerance
        // within a bounded number of sample windows.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let base = NetRunConfig {
            k: 24,
            n_nodes: 24,
            strategy: Strategy::HashByUrl,
            t_end: 500.0,
            sample_every: 2.0,
            ..NetRunConfig::default()
        };
        let crash = 120.0;
        // The owner of group 0 hosts ranking state by construction — no
        // probe run needed to find a meaningful victim.
        let victim = group_owners(&base)[0];
        let res = run_over_network(
            &g,
            NetRunConfig { departures: vec![(crash, victim)], ..base.clone() },
        );
        let tol = 1e-3;
        let before = res.rel_err.value_at(crash - 1.0).unwrap();
        assert!(before < tol, "must converge before the crash: {before}");
        let after: Vec<(f64, f64)> =
            res.rel_err.points().iter().copied().filter(|&(t, _)| t > crash).collect();
        let spike = after.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
        assert!(spike > before * 5.0, "state loss must perturb the ranks: spike {spike}");
        let recovered_at = after
            .iter()
            .find(|&&(_, v)| v < tol)
            .map(|&(t, _)| t)
            .expect("error must drop back below the pre-crash tolerance");
        let windows = ((recovered_at - crash) / base.sample_every).round() as u64;
        assert!(
            windows <= 60,
            "cold re-convergence took {windows} windows (recovered at t = {recovered_at})"
        );
        assert!(res.final_rel_err < tol, "rel err {}", res.final_rel_err);
    }

    #[test]
    fn crash_spike_then_reconvergence_is_visible() {
        let g = toy::two_cliques(6);
        let base = NetRunConfig {
            k: 8,
            n_nodes: 8,
            strategy: Strategy::HashByUrl,
            t_end: 400.0,
            sample_every: 1.0,
            ..NetRunConfig::default()
        };
        // Crash every node once except node 0, late enough that the system
        // converged first; at least one crash must perturb the ranks.
        let res = run_over_network(
            &g,
            NetRunConfig {
                departures: (1..8).map(|i| (100.0 + 10.0 * i as f64, i)).collect(),
                ..base
            },
        );
        let before = res.rel_err.value_at(99.0).unwrap();
        assert!(before < 1e-3, "should converge before the crashes: {before}");
        let spike = res
            .rel_err
            .points()
            .iter()
            .filter(|&&(t, _)| t > 100.0)
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(spike > before * 5.0, "crashes should perturb ranks: spike {spike}");
        assert!(res.final_rel_err < 1e-3, "must re-converge: {}", res.final_rel_err);
    }

    #[test]
    fn departures_rejected_on_can() {
        let g = toy::cycle(4);
        let err = try_run_over_network(
            &g,
            NetRunConfig {
                overlay: OverlayKind::Can { d: 2 },
                departures: vec![(1.0, 0)],
                ..NetRunConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, NetRunError::Churn(ChurnUnsupported { op: "departures", overlay: "CAN" }));
        assert!(err.to_string().contains("not supported on the CAN overlay"));
    }

    #[test]
    fn joins_rejected_on_chord_and_can() {
        let g = toy::cycle(4);
        for overlay in [OverlayKind::Chord, OverlayKind::Can { d: 2 }] {
            let err = try_run_over_network(
                &g,
                NetRunConfig { overlay, joins: vec![(1.0, 77)], ..NetRunConfig::default() },
            )
            .unwrap_err();
            match err {
                NetRunError::Churn(c) => assert_eq!(c.op, "joins"),
                other => panic!("expected a churn error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_configs_are_rejected_with_structured_errors() {
        // Formerly panicking validations: a bad config from a CLI flag or
        // an experiment script must fail the run, not abort the process.
        let g = toy::cycle(4);
        let what = |cfg: NetRunConfig| match try_run_over_network(&g, cfg).unwrap_err() {
            NetRunError::Config { what, .. } => what,
            other => panic!("expected a config error, got {other:?}"),
        };
        let base = NetRunConfig::default;
        assert_eq!(what(NetRunConfig { k: 0, ..base() }), "k/n_nodes");
        assert_eq!(what(NetRunConfig { n_nodes: 0, ..base() }), "k/n_nodes");
        assert_eq!(
            what(NetRunConfig { departures: vec![(5.0, 1), (5.0, 2)], ..base() }),
            "departures"
        );
        assert_eq!(what(NetRunConfig { joins: vec![(9.0, 1), (5.0, 2)], ..base() }), "joins");
        assert_eq!(
            what(NetRunConfig { replication: 1, checkpoint_every: 0.0, ..base() }),
            "checkpoint_every"
        );
        assert_eq!(
            what(NetRunConfig { replication: 1, checkpoint_every: f64::INFINITY, ..base() }),
            "checkpoint_every"
        );
        assert_eq!(
            what(NetRunConfig { replication: 1, suspect_after: 0, ..base() }),
            "suspect_after"
        );
        assert_eq!(
            what(NetRunConfig { replication: 1, overlay: OverlayKind::Can { d: 2 }, ..base() }),
            "replication"
        );
        for eps in [0.0, -1e-10, f64::INFINITY, f64::NAN] {
            assert_eq!(what(NetRunConfig { inner_epsilon: eps, ..base() }), "inner_epsilon");
        }
        for (t1, t2) in [(5.0, 1.0), (-1.0, 6.0), (0.0, f64::INFINITY), (f64::NAN, 6.0)] {
            assert_eq!(what(NetRunConfig { t1, t2, ..base() }), "t1/t2");
        }
        assert_eq!(what(NetRunConfig { sample_every: 0.0, ..base() }), "sample_every");
        // Values the engine used to assert on (a panic), or that quietly
        // turned reliable delivery off or made it retry at once.
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(what(NetRunConfig { hop_latency: bad, ..base() }), "hop_latency");
        }
        // A finite hop latency whose 64-hop route delay overflows used to
        // panic in the engine on a direct run; the largest legal one runs.
        let direct = |hop_latency| NetRunConfig {
            k: 16,
            t_end: 20.0,
            transmission: Transmission::Direct,
            hop_latency,
            ..base()
        };
        for bad in [1e308, f64::MAX] {
            assert_eq!(what(direct(bad)), "hop_latency");
        }
        try_run_over_network(&toy::two_cliques(6), direct(f64::MAX / 64.0))
            .expect("a 64-hop route at this latency has a finite delay");
        // A B that is not positive makes an invalid delay, and so does a
        // positive one so small that a frame's delay overflows to infinity.
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1e-310] {
            let cfg = NetRunConfig { bottleneck_bytes_per_time: Some(bad), ..base() };
            assert_eq!(what(cfg), "bottleneck_bytes_per_time");
        }
        // The slowest accepted B still runs: its frames queue for ever.
        let slowest =
            NetRunConfig { k: 4, t_end: 20.0, bottleneck_bytes_per_time: Some(1e-6), ..base() };
        let r = try_run_over_network(&toy::two_cliques(6), slowest).expect("B = 1e-6 is legal");
        assert!(r.counters.data_messages > 0);
        for bad in [f64::NAN, 1.5, -0.5] {
            assert_eq!(
                what(NetRunConfig { send_success_prob: bad, ..base() }),
                "send_success_prob"
            );
        }
        let reliable = |ack_timeout, backoff| NetRunConfig {
            reliability: Some(Reliability { ack_timeout, backoff, ..Reliability::default() }),
            ..base()
        };
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            assert_eq!(what(reliable(bad, 2.0)), "ack_timeout");
        }
        for bad in [f64::NAN, 0.0, 0.5, f64::INFINITY] {
            assert_eq!(what(reliable(1.0, bad)), "backoff");
        }
        // A NaN or infinite horizon used to hang the run or end it before
        // it started, reporting a 100% error as a result.
        for t_end in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert_eq!(what(NetRunConfig { t_end, ..base() }), "t_end");
        }
        // Every schedule keeps one rule: finite, non-negative, strictly
        // increasing. A NaN or infinite time used to hang the run.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert_eq!(what(NetRunConfig { departures: vec![(bad, 0)], ..base() }), "departures");
            assert_eq!(what(NetRunConfig { joins: vec![(bad, 3)], ..base() }), "joins");
            let delta = GraphDelta::empty();
            assert_eq!(what(NetRunConfig { deltas: vec![(bad, delta)], ..base() }), "deltas");
        }
        assert_eq!(what(NetRunConfig { joins: vec![(1.0, 3), (f64::NAN, 4)], ..base() }), "joins");
        // Membership: a departure names a node live at that moment and
        // leaves one live; a join brings an id new to the ring. These used
        // to panic inside the overlay mid-run.
        let churn = |overlay, n_nodes, departures: &[(f64, usize)], joins: &[(f64, u64)]| {
            let (departures, joins) = (departures.to_vec(), joins.to_vec());
            NetRunConfig { k: 8, n_nodes, overlay, departures, joins, t_end: 60.0, ..base() }
        };
        for overlay in [OverlayKind::Pastry, OverlayKind::Chord] {
            let twice = churn(overlay, 12, &[(20.0, 4), (40.0, 4)], &[]);
            assert_eq!(what(twice), "departures");
            assert_eq!(what(churn(overlay, 12, &[(20.0, 99)], &[])), "departures");
            assert_eq!(what(churn(overlay, 12, &[(20.0, 12)], &[])), "departures");
            assert_eq!(what(churn(overlay, 2, &[(10.0, 0), (20.0, 1)], &[])), "departures");
        }
        let pastry = OverlayKind::Pastry;
        assert_eq!(what(churn(pastry, 12, &[(10.0, 12)], &[(10.0, 3)])), "departures");
        assert_eq!(what(churn(pastry, 12, &[], &[(1.0, 7), (2.0, 7)])), "joins");
        let initial_seed = overlay_seed(&base());
        assert_eq!(what(churn(pastry, 12, &[], &[(1.0, initial_seed)])), "joins");
        // Crashing the node that joined before it is legal and runs.
        let joined_then_crashed = churn(pastry, 12, &[(20.0, 12)], &[(10.0, 3)]);
        try_run_over_network(&toy::two_cliques(6), joined_then_crashed).expect("node 12 is live");
        assert_eq!(
            what(NetRunConfig {
                deltas: vec![(5.0, GraphDelta::empty()), (5.0, GraphDelta::empty())],
                ..base()
            }),
            "deltas"
        );
        let err = try_run_over_network(&g, NetRunConfig { k: 0, ..base() }).unwrap_err();
        assert!(err.to_string().contains("invalid net-run config"));
    }

    #[test]
    fn can_churn_gap_is_pinned() {
        // CAN's departure repair (zone merging) is deliberately out of
        // scope — see DESIGN.md §11. Pin the gap at the overlay seam so a
        // future implementation must flip this test consciously, and check
        // the replication layer refuses to start on CAN rather than
        // silently running with empty replica sets.
        let mut ov = AnyOverlay::Can(CanNetwork::with_nodes(8, 2, 1));
        assert_eq!(
            ov.depart(3).unwrap_err(),
            ChurnUnsupported { op: "departures", overlay: "CAN" }
        );
        assert!(
            ov.as_overlay().replicas(dpr_overlay::id::key_from_u64(0), 2).is_empty(),
            "CAN keeps the Overlay::replicas default: no replica sets"
        );
        let g = toy::cycle(4);
        let err = try_run_over_network(
            &g,
            NetRunConfig {
                overlay: OverlayKind::Can { d: 2 },
                replication: 1,
                ..NetRunConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, NetRunError::Config { what: "replication", .. }));
    }

    #[test]
    fn joins_hand_over_groups_gracefully() {
        let g = toy::two_cliques(5);
        let base = NetRunConfig {
            n_nodes: 8, // few nodes: joiners very likely take over groups
            t_end: 400.0,
            ..quick(Transmission::Indirect)
        };
        let res = run_over_network(
            &g,
            NetRunConfig { joins: vec![(50.0, 901), (80.0, 902), (110.0, 903)], ..base.clone() },
        );
        assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
        // Handoff keeps state: the error curve never spikes back above the
        // pre-join level once converged (graceful, not a crash).
        let before = res.rel_err.value_at(49.0).unwrap();
        let after_max = res
            .rel_err
            .points()
            .iter()
            .filter(|&&(t, _)| t > 50.0)
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(
            after_max <= before * 1.5 + 1e-12,
            "joins must not perturb ranks: before {before}, after max {after_max}"
        );
    }

    #[test]
    fn reliable_delivery_suppresses_duplicates_and_acks() {
        let g = toy::two_cliques(5);
        let res = run_over_network(
            &g,
            NetRunConfig {
                send_success_prob: 0.5,
                reliability: Some(Reliability::default()),
                t_end: 300.0,
                ..quick(Transmission::Indirect)
            },
        );
        assert!(res.counters.acks > 0, "acks must flow");
        assert!(res.counters.retries > 0, "50% loss must trigger retries");
        assert!(res.final_rel_err < 1e-3, "rel err {}", res.final_rel_err);
    }

    #[test]
    fn reliability_is_quiet_on_a_perfect_network() {
        let g = toy::two_cliques(4);
        let res = run_over_network(
            &g,
            NetRunConfig {
                reliability: Some(Reliability::default()),
                ..quick(Transmission::Indirect)
            },
        );
        assert_eq!(res.counters.retries, 0);
        assert_eq!(res.counters.duplicates_suppressed, 0);
        assert_eq!(res.counters.retry_exhausted, 0);
        assert_eq!(res.counters.gave_up, 0, "no update may be silently abandoned");
        assert!(res.counters.acks >= res.counters.data_messages);
        assert!(res.final_rel_err < 1e-4);
    }

    #[test]
    fn package_clones_share_the_payload_allocation() {
        // The retransmit path clones data messages; payloads must be
        // shared, never copied.
        let parts = Arc::new(vec![YPart {
            src_group: 0,
            dest_group: 1,
            pattern: Arc::from([0]),
            scores: Arc::new(vec![0.5]),
        }]);
        let original = NetMsg::Data { seq: Some(0), parts: Arc::clone(&parts) };
        let NetMsg::Data { parts: retransmitted, .. } = original.clone() else { unreachable!() };
        assert!(Arc::ptr_eq(&parts, &retransmitted));
    }

    #[test]
    fn retransmitted_bytes_match_the_original_send() {
        // On a 2-node overlay every node's data packages have one constant
        // payload size (the same parts structure every wake). Solve that
        // size per node from a clean run, then check a partition-stressed
        // run — where every data message past the first attempt is a
        // retransmission sharing the original's payload — against the same
        // per-node accounting identity: bytes = data·P + acks·header. Any
        // retransmission that put different bytes on the wire than its
        // original breaks the identity.
        let g = toy::two_cliques(4);
        let base = NetRunConfig {
            k: 2,
            n_nodes: 2,
            strategy: Strategy::HashByUrl,
            reliability: Some(Reliability::default()),
            t_end: 120.0,
            ..quick(Transmission::Indirect)
        };
        let clean = run_over_network(&g, base.clone());
        let stressed = run_over_network(
            &g,
            NetRunConfig {
                faults: Some(FaultPlan::new().with_latency(0.01).with_partition(20.0, 45.0, &[0])),
                ..base
            },
        );
        assert!(stressed.counters.retries > 0, "the partition must force retransmissions");
        let hdr = 40u64;
        // On two nodes each sender emits the same parts structure every
        // wake, so all of one node's packages share a single payload size.
        // Solve it from the per-node byte identity and require the
        // partition-stressed run — where the extra data messages are
        // retransmissions sharing the original send's payload — to satisfy
        // the identity with the *same* size (both runs place groups
        // identically).
        let solve = |c: &NetCounters| {
            if c.data_messages == 0 {
                return None;
            }
            let payload = c.bytes - c.acks * hdr;
            assert_eq!(
                payload % c.data_messages,
                0,
                "bytes must be an integer number of equal-sized packages"
            );
            Some(payload / c.data_messages)
        };
        assert_eq!(clean.per_node.len(), stressed.per_node.len());
        let mut senders = 0;
        for (c, s) in clean.per_node.iter().zip(&stressed.per_node) {
            assert_eq!(solve(c), solve(s));
            senders += usize::from(c.data_messages > 0);
        }
        assert!(senders > 0, "the topology must produce cross-node traffic");
        // And the retransmitted payloads were *correct*: ranking still
        // reaches the centralized fixed point after the partition heals.
        assert!(stressed.final_rel_err < 1e-3, "rel err {}", stressed.final_rel_err);
    }

    #[test]
    fn direct_mode_batches_per_owner_and_every_part_pays_its_lookup() {
        // Two nodes, six groups, every page linking to every other: at
        // each wake a node hosting m groups publishes m·(k − m) parts to
        // the other node, one hop away. §4.4 batching ships them as ONE
        // data message, while §4.5 still charges each part its own lookup.
        let g = toy::complete(24);
        let k = 6;
        let cfg = NetRunConfig { k, n_nodes: 2, t_end: 120.0, ..quick(Transmission::Direct) };
        let owners = group_owners(&cfg);
        let res = run_over_network(&g, cfg);
        let mut batched = 0;
        for (node, c) in res.per_node.iter().enumerate() {
            let m = owners.iter().filter(|&&o| o == node).count() as u64;
            assert_eq!(c.lookup_messages, c.data_messages * m * (k as u64 - m), "node {node}");
            batched += u64::from(c.lookup_messages > c.data_messages);
        }
        assert!(batched > 0, "some node must host several groups: owners {owners:?}");
        assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
    }

    #[test]
    fn engine_workers_are_bit_invisible() {
        // The tentpole contract: any worker count replays the sequential
        // engine bit for bit — ranks, cost counters, engine stats, the
        // whole error time series, and even the order-sensitive route
        // cache bookkeeping.
        let g = toy::two_cliques(6);
        let base = NetRunConfig {
            faults: Some(
                FaultPlan::new()
                    .with_latency(0.01)
                    .with_default_success(0.85)
                    .with_jitter(dpr_sim::Jitter::Uniform { max: 0.005 })
                    .with_straggler(3, 2.0, 1.5),
            ),
            t_end: 250.0,
            ..quick(Transmission::Indirect)
        };
        let run = |workers| {
            run_over_network(&g, NetRunConfig { engine_workers: workers, ..base.clone() })
        };
        let seq = run(1);
        assert_eq!(seq.sched_stats.batches, 0, "one worker is the plain sequential loop");
        for workers in [2, 4, 8] {
            let par = run(workers);
            assert_same_run(&par, &seq, &format!("{workers} workers"));
            assert_eq!(par.route_cache.hits, seq.route_cache.hits);
            assert_eq!(par.route_cache.misses, seq.route_cache.misses);
            assert!(par.sched_stats.batches > 0, "parallel runs must actually batch");
            assert!(par.sched_stats.max_batch >= 2, "no same-window parallelism exposed");
        }
    }

    #[test]
    fn engine_workers_survive_churn_and_reliability() {
        // The hard mode: departures (state loss + ownership churn), a
        // join (graceful handoff + mid-run actor spawn), retransmissions,
        // and direct-mode lookups — still bit-identical across workers.
        let g = toy::two_cliques(5);
        let base = NetRunConfig {
            n_nodes: 8,
            send_success_prob: 0.7,
            reliability: Some(Reliability::default()),
            departures: vec![(60.0, 2)],
            joins: vec![(90.0, 901)],
            t_end: 300.0,
            ..quick(Transmission::Direct)
        };
        let run = |workers| {
            run_over_network(&g, NetRunConfig { engine_workers: workers, ..base.clone() })
        };
        let seq = run(1);
        let par = run(2);
        assert_same_run(&par, &seq, "2 workers");
        assert!(par.counters.retries > 0, "loss must exercise the retransmit path");
        assert!(seq.final_rel_err < 1e-3, "rel err {}", seq.final_rel_err);
    }

    #[test]
    fn fault_plan_overrides_scalar_loss() {
        // A plan with no loss beats the scalar knob claiming total loss:
        // `faults` must take precedence.
        let g = toy::two_cliques(4);
        let res = run_over_network(
            &g,
            NetRunConfig {
                send_success_prob: 0.0,
                faults: Some(FaultPlan::new().with_latency(0.01)),
                ..quick(Transmission::Indirect)
            },
        );
        assert_eq!(res.sim_stats.sends_dropped, 0);
        assert!(res.final_rel_err < 1e-4, "rel err {}", res.final_rel_err);
    }

    #[test]
    fn replication_zero_is_the_exact_baseline() {
        // The observation-invariance contract: with `replication: 0` the
        // protocol knobs must be completely inert — same rank bits, same
        // counters, same engine stats, zero checkpoint traffic — even
        // through a departure (which takes the legacy cold-migration
        // path).
        let g = toy::two_cliques(5);
        let base = NetRunConfig {
            departures: vec![(60.0, 2)],
            t_end: 250.0,
            ..quick(Transmission::Indirect)
        };
        let a = run_over_network(&g, base.clone());
        let b =
            run_over_network(&g, NetRunConfig { checkpoint_every: 0.25, suspect_after: 9, ..base });
        assert_same_run(&a, &b, "inert knobs must not change a single bit");
        assert_eq!(a.counters.checkpoints_sent, 0);
        assert_eq!(a.counters.checkpoint_bytes, 0);
        assert_eq!(a.counters.takeovers_warm + a.counters.takeovers_cold, 0);
    }

    #[test]
    fn warm_takeover_beats_cold_restart() {
        // The acceptance scenario: a mid-run permanent crash of a group-
        // hosting node under DPR2 — one power step per think, the regime
        // where restarting from zero costs real virtual time (DPR1's
        // unbounded inner solve would erase the difference as soon as the
        // afferent state is rebuilt). With replicas, the orphaned groups
        // come back warm from checkpoints and the error returns below
        // tolerance in measurably fewer sample windows than the cold
        // replication-0 baseline; both end at the same fixed point
        // (top-10 pages compared against an undisturbed run, L1 error
        // below tolerance).
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let crash = 150.0;
        let base = NetRunConfig {
            k: 24,
            n_nodes: 24,
            strategy: Strategy::HashByUrl,
            variant: DprVariant::Dpr2,
            t_end: 400.0,
            sample_every: 2.0,
            ..NetRunConfig::default()
        };
        let victim = group_owners(&base)[0];
        let run = |replication| {
            run_over_network(
                &g,
                NetRunConfig {
                    replication,
                    departures: vec![(crash, victim)],
                    faults: Some(
                        FaultPlan::new().with_latency(0.01).with_permanent_crash(victim, crash),
                    ),
                    ..base.clone()
                },
            )
        };
        let cold = run(0);
        let warm = run(2);
        let healthy = run_over_network(&g, base.clone());
        let tol = 1e-3;
        assert!(healthy.final_rel_err < tol);
        assert!(cold.final_rel_err < tol, "cold rel err {}", cold.final_rel_err);
        assert!(warm.final_rel_err < tol, "warm rel err {}", warm.final_rel_err);
        assert!(warm.counters.checkpoints_sent > 0, "owners must ship checkpoints");
        assert!(warm.counters.checkpoint_bytes > 0, "checkpoints must be priced");
        assert!(warm.counters.takeovers_warm > 0, "orphaned groups must be re-hosted warm");
        assert_eq!(warm.counters.takeovers_cold, 0, "checkpoints had ample time to arrive");
        assert_eq!(cold.counters.checkpoints_sent, 0);
        // Same fixed point: the top pages agree with the undisturbed run.
        let top = |r: &[f64]| {
            let mut idx: Vec<usize> = (0..r.len()).collect();
            idx.sort_by(|&a, &b| r[b].total_cmp(&r[a]).then(a.cmp(&b)));
            idx.truncate(10);
            idx
        };
        assert_eq!(top(&warm.final_ranks), top(&healthy.final_ranks));
        assert_eq!(top(&cold.final_ranks), top(&healthy.final_ranks));
        // And the headline: measurably fewer post-crash windows to get
        // back below tolerance.
        let windows = |res: &NetRunResult| {
            res.rel_err
                .points()
                .iter()
                .filter(|&&(t, _)| t > crash)
                .find(|&&(_, v)| v < tol)
                .map(|&(t, _)| ((t - crash) / base.sample_every).round() as u64)
                .expect("re-converges before t_end")
        };
        let (wc, ww) = (windows(&cold), windows(&warm));
        assert!(ww < wc, "warm takeover must recover in fewer windows: warm {ww} vs cold {wc}");
    }

    #[test]
    fn zero_op_delta_is_bit_invisible() {
        // A delta carrying zero ops must leave every rank bit and every
        // counter identical to an undisturbed run, at any worker count —
        // the delta machinery itself is observation-free.
        let g = toy::two_cliques(6);
        let base = NetRunConfig { t_end: 250.0, ..quick(Transmission::Indirect) };
        let undisturbed = run_over_network(&g, base.clone());
        for workers in [1, 2, 4] {
            let res = run_over_network(
                &g,
                NetRunConfig {
                    deltas: vec![(60.0, GraphDelta::empty())],
                    engine_workers: workers,
                    ..base.clone()
                },
            );
            assert_same_run(&res, &undisturbed, &format!("{workers} workers"));
            assert_eq!(res.counters.delta_messages, 0, "an empty delta ships nothing");
        }
    }

    #[test]
    fn crawl_delta_reconverges_warm_and_prices_shipment() {
        // The tentpole scenario: converge, then a real crawl delta (link
        // churn plus a page delete and a page insert) lands mid-run. The
        // dirtied groups warm-start from the previous fixed point and the
        // system re-converges to the *mutated* graph's fixed point (the
        // in-run reference swaps at delta time); the shipment is priced;
        // and the whole evolution replays bit-identically at any worker
        // count.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let mut delta = GraphDelta::link_churn(&g, 0.02, 7);
        delta.ops.push(DeltaOp::DeletePage { page: 3 });
        delta.ops.push(DeltaOp::InsertPage { site: 0, ext_out: 2, links: vec![0, 1] });
        let when = 150.0;
        let base = NetRunConfig {
            k: 24,
            n_nodes: 24,
            strategy: Strategy::HashByUrl,
            t_end: 400.0,
            sample_every: 2.0,
            deltas: vec![(when, delta)],
            ..NetRunConfig::default()
        };
        let res = run_over_network(&g, base.clone());
        let tol = 1e-3;
        assert!(res.rel_err.value_at(when - 1.0).unwrap() < tol, "must converge before the delta");
        assert!(res.final_rel_err < tol, "must re-converge: rel err {}", res.final_rel_err);
        assert_eq!(res.final_ranks.len(), g.n_pages() + 1, "the insert extends the rank vector");
        assert_eq!(res.final_ranks[3], 0.0, "a tombstoned page is no longer ranked");
        assert!(res.final_ranks[g.n_pages()] > 0.0, "the inserted page earns rank");
        assert!(res.counters.delta_messages > 0, "dirty owners receive priced shipments");
        assert!(res.counters.delta_bytes > 0, "delta bytes must be charged");
        // Warm beats cold: re-convergence after the delta takes less
        // virtual time than the initial convergence from rank zero.
        let initial = res.rel_err.first_time_below(tol).expect("initially converges");
        let recovered = res
            .rel_err
            .points()
            .iter()
            .filter(|&&(t, _)| t > when)
            .find(|&&(_, v)| v < tol)
            .map(|&(t, _)| t - when)
            .expect("re-converges after the delta");
        assert!(
            recovered < initial,
            "warm re-solve must beat the cold start: {recovered} vs {initial}"
        );
        for workers in [2, 4] {
            let par =
                run_over_network(&g, NetRunConfig { engine_workers: workers, ..base.clone() });
            assert_same_run(&par, &res, &format!("{workers} workers"));
        }
    }

    #[test]
    fn store_epoch_handoff_across_a_delta() {
        // A store attached across a crawl delta: dirtied groups hold
        // their publishes while re-solving (readers keep the pre-delta
        // epoch), then the final flush serves the new fixed point — the
        // tombstoned page drops out of the view, every surviving page
        // answers with the exact final rank bits.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 1_000,
            n_sites: 10,
            ..EduDomainConfig::default()
        });
        let mut delta = GraphDelta::link_churn(&g, 0.02, 11);
        delta.ops.push(DeltaOp::DeletePage { page: 5 });
        let when = 150.0;
        let cfg = NetRunConfig {
            k: 16,
            n_nodes: 16,
            strategy: Strategy::HashByUrl,
            t_end: 400.0,
            sample_every: 2.0,
            deltas: vec![(when, delta)],
            ..NetRunConfig::default()
        };
        let store = crate::store::RankStore::new(16);
        let res = try_run_over_network_with_store(&g, cfg, Some(&store)).expect("valid config");
        let view = store.view();
        assert_eq!(view.lookup(5), None, "tombstoned page must drop out of the served view");
        for (p, &r) in res.final_ranks.iter().enumerate() {
            if p == 5 {
                continue;
            }
            let got = view.lookup(p as PageId);
            assert_eq!(
                got.map(|l| l.rank.to_bits()),
                Some(r.to_bits()),
                "served rank for page {p} must match the final fixed point"
            );
        }
    }

    #[test]
    fn continuous_delta_stream_tracks_the_evolving_web() {
        // The "live web" loop: crawl → delta → re-converge → repeat. Three
        // successive churn deltas land mid-run, each computed against the
        // graph state the previous one produced (exactly what a continuous
        // recrawl feeds in). The run must re-converge between every pair of
        // deltas, end at the final graph's fixed point, and replay
        // bit-identically across worker counts.
        let g0 = edu_domain(&EduDomainConfig {
            n_pages: 1_500,
            n_sites: 15,
            ..EduDomainConfig::default()
        });
        let times = [150.0, 320.0, 490.0];
        let mut deltas = Vec::new();
        let mut g = g0.clone();
        for (i, &t) in times.iter().enumerate() {
            let d = GraphDelta::link_churn(&g, 0.01, 100 + i as u64);
            g = d.apply(&g);
            deltas.push((t, d));
        }
        let base = NetRunConfig {
            k: 16,
            n_nodes: 16,
            strategy: Strategy::HashByUrl,
            t_end: 700.0,
            sample_every: 2.0,
            deltas,
            ..NetRunConfig::default()
        };
        let res = run_over_network(&g0, base.clone());
        let tol = 1e-3;
        // Converged before the first delta and re-converged inside every
        // inter-delta window.
        assert!(res.rel_err.value_at(times[0] - 1.0).unwrap() < tol);
        for w in times.windows(2) {
            let back = res.rel_err.first_time_below_after(w[0], tol);
            assert!(
                back.is_some_and(|t| t < w[1]),
                "must re-converge inside ({}, {}): {back:?}",
                w[0],
                w[1]
            );
        }
        assert!(res.final_rel_err < tol, "final fixed point: {}", res.final_rel_err);
        // Each delta ships to at least one dirty owner.
        assert!(res.counters.delta_messages >= times.len() as u64);
        let par = run_over_network(&g0, NetRunConfig { engine_workers: 4, ..base });
        assert_same_run(&par, &res, "4 workers");
    }

    #[test]
    fn phase_secs_are_populated_and_bounded_by_engine_secs() {
        // The in-program layer times: every layer a run exercises reports
        // a positive share, and on the sequential engine the layers are
        // disjoint slices of the engine window, so they sum to at most
        // `engine_secs`. A store is attached so the publish layer runs.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let store = crate::store::RankStore::new(16);
        let cfg = NetRunConfig { k: 16, n_nodes: 8, t_end: 60.0, ..quick(Transmission::Direct) };
        let res = try_run_over_network_with_store(&g, cfg, Some(&store)).expect("valid config");
        let p = res.phase_secs;
        for (name, secs) in [
            ("deliver", p.deliver),
            ("refresh", p.refresh),
            ("solve", p.solve),
            ("compute_y", p.compute_y),
            ("dispatch", p.dispatch),
            ("sample", p.sample),
            ("publish", p.publish),
        ] {
            assert!(secs > 0.0 && secs.is_finite(), "{name} phase not populated: {secs}");
        }
        assert!(
            p.total() <= res.engine_secs,
            "phases {} exceed the engine window {}",
            p.total(),
            res.engine_secs
        );
    }

    #[test]
    fn rows_swept_is_sweeps_times_group_size_per_group() {
        // Two groups of different sizes on two different nodes: each host's
        // `rows_swept` is its own group's sweeps times that group's page
        // count, and the run's is their sum.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 1_500,
            n_sites: 7,
            ..EduDomainConfig::default()
        });
        let base = NetRunConfig {
            k: 2,
            n_nodes: 4,
            strategy: Strategy::HashBySite,
            t_end: 40.0,
            ..NetRunConfig::default()
        };
        let cfg = (0..64)
            .map(|seed| NetRunConfig { seed, ..base.clone() })
            .find(|c| {
                let owners = group_owners(c);
                owners[0] != owners[1]
            })
            .expect("some deployment seed separates two groups on four nodes");
        let sizes: Vec<u64> = Partition::build(&g, &cfg.strategy, cfg.k, 0)
            .group_pages()
            .iter()
            .map(|p| p.len() as u64)
            .collect();
        assert!(sizes[0] != sizes[1] && sizes.iter().all(|&n| n > 0), "sizes {sizes:?}");
        let owners = group_owners(&cfg);
        let res = run_over_network(&g, cfg);
        let mut total = 0;
        for (gid, &owner) in owners.iter().enumerate() {
            let c = &res.per_node[owner];
            assert!(c.inner_sweeps > 0, "group {gid} never solved");
            assert_eq!(c.rows_swept, c.inner_sweeps * sizes[gid], "group {gid}");
            total += c.rows_swept;
        }
        assert_eq!(res.counters.rows_swept, total);
    }

    #[test]
    fn work_counters_never_fall_across_a_delta_or_a_crash() {
        // The solve counts are run-wide: a run cut just before the delta,
        // or just before the crash, did a prefix of the full run's work,
        // so no node's count and no total may be lower in the longer run.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 1_500,
            n_sites: 12,
            ..EduDomainConfig::default()
        });
        let (delta_at, crash_at) = (60.0, 100.0);
        let base = NetRunConfig {
            k: 8,
            n_nodes: 6,
            strategy: Strategy::HashBySite,
            t_end: 160.0,
            deltas: vec![(delta_at, GraphDelta::link_churn(&g, 0.05, 3))],
            ..NetRunConfig::default()
        };
        let cfg = NetRunConfig { departures: vec![(crash_at, group_owners(&base)[0])], ..base };
        let work =
            |c: &NetCounters| [c.inner_sweeps, c.rows_swept, c.rows_recomputed, c.sweeps_saved];
        let full = run_over_network(&g, cfg.clone());
        assert!(full.counters.delta_messages > 0, "the delta dirtied no hosted group");
        for cut in [delta_at - 0.01, crash_at - 0.01] {
            let short = run_over_network(&g, NetRunConfig { t_end: cut, ..cfg.clone() });
            let pairs = short
                .per_node
                .iter()
                .zip(&full.per_node)
                .chain([(&short.counters, &full.counters)]);
            for (node, (s, f)) in pairs.enumerate() {
                let (s, f) = (work(s), work(f));
                assert!(
                    s.iter().zip(&f).all(|(a, b)| a <= b),
                    "node {node} (the last is the total): cut at {cut} {s:?}, full run {f:?}"
                );
            }
        }
    }

    /// Sites of three pages in a ring, plus one link from each site to the
    /// next: under `HashBySite` the only traffic between two groups is
    /// what those chain links carry.
    fn site_chain(n_sites: usize) -> WebGraph {
        let mut b = dpr_graph::GraphBuilder::new();
        let first: Vec<PageId> = (0..n_sites)
            .map(|s| {
                let site = b.add_site(format!("s{s}.edu"));
                let pages: Vec<PageId> = (0..3).map(|_| b.add_page(site)).collect();
                for i in 0..3 {
                    b.add_link(pages[i], pages[(i + 1) % 3]);
                }
                pages[0]
            })
            .collect();
        for s in 0..n_sites {
            b.add_link(first[s], first[(s + 1) % n_sites]);
        }
        b.build()
    }

    #[test]
    fn delta_dropping_the_last_link_to_a_group_retracts_its_part() {
        // The stale-part defect: when a delta removes the only link from
        // group A to group B, A's `Y` stops naming B, and without a
        // retraction B would keep A's last contribution for ever. The
        // rebuilt owner sends B one empty part; the run lands on the final
        // graph's fixed point.
        let g = site_chain(8);
        let k = 8;
        let partition = Partition::build(&g, &Strategy::HashBySite, k, 0);
        // A chain link whose two groups exchange nothing else.
        let pair = |s: usize| {
            (partition.group_of(3 * s as u32), partition.group_of(3 * ((s + 1) % 8) as u32))
        };
        let s = (0..8)
            .find(|&s| {
                let (a, b) = pair(s);
                a != b && (0..8).filter(|&o| pair(o) == (a, b)).count() == 1
            })
            .expect("some chain link is the only one between its groups");
        let (from, to) = (3 * s as u32, 3 * ((s + 1) % 8) as u32);
        let delta = GraphDelta::new(vec![DeltaOp::RemoveLink { from, to }]);
        let base = NetRunConfig {
            k,
            n_nodes: 8,
            strategy: Strategy::HashBySite,
            // A reference tight enough to show 1e-10 on 24 pages.
            rank: RankConfig { epsilon: 1e-13, ..RankConfig::default() },
            t_end: 400.0,
            deltas: vec![(150.0, delta)],
            ..NetRunConfig::default()
        };
        for transmission in [Transmission::Direct, Transmission::Indirect] {
            let res = run_over_network(&g, NetRunConfig { transmission, ..base.clone() });
            let before = res.rel_err.value_at(149.0).unwrap();
            assert!(before < 1e-10, "converged before the delta: {before}");
            assert!(
                res.final_rel_err <= 1e-10,
                "{transmission:?}: the dropped destination kept a stale part: {}",
                res.final_rel_err
            );
        }
        // Nothing dropped, nothing sent: an add-only delta costs exactly
        // the delta shipment over the undisturbed run's bytes up to the
        // point it lands.
        let add = GraphDelta::new(vec![DeltaOp::AddLink { from, to }]);
        let quiet =
            run_over_network(&g, NetRunConfig { deltas: vec![], t_end: 150.0, ..base.clone() });
        let added =
            run_over_network(&g, NetRunConfig { deltas: vec![(150.0, add)], t_end: 150.0, ..base });
        assert_eq!(added.counters.data_messages, quiet.counters.data_messages);
        assert_eq!(added.counters.bytes - added.counters.delta_bytes, quiet.counters.bytes);
    }

    #[test]
    fn external_degree_only_delta_reconverges_to_the_new_fixed_point() {
        // A delta of `SetExternal` ops moves no internal link, yet every
        // edited page's `α/d(u)` changes, and with it its group's matrix
        // column and `Y` weights: each such group must be rebuilt like any
        // other dirty group. One edit leaves a page with only external
        // links dangling (its column scale becomes exactly 0.0).
        let n_sites = 8;
        let mut b = dpr_graph::GraphBuilder::new();
        let (mut first, mut leaf) = (Vec::new(), Vec::new());
        for s in 0..n_sites {
            let site = b.add_site(format!("s{s}.edu"));
            let p: Vec<PageId> = (0..4).map(|_| b.add_page(site)).collect();
            for i in 0..3 {
                b.add_link(p[i], p[(i + 1) % 3]);
            }
            b.add_link(p[0], p[3]);
            b.add_external_links(p[1], 1);
            b.add_external_links(p[3], 2);
            first.push(p[0]);
            leaf.push(p[3]);
        }
        for s in 0..n_sites {
            b.add_link(first[s], first[(s + 1) % n_sites]);
        }
        let g = b.build();
        let delta = GraphDelta::new(vec![
            DeltaOp::SetExternal { page: leaf[2], ext_out: 0 },
            DeltaOp::SetExternal { page: first[5], ext_out: 4 },
            DeltaOp::SetExternal { page: first[5] + 1, ext_out: 0 },
            DeltaOp::SetExternal { page: first[1], ext_out: 3 },
        ]);
        let (g2, report) = delta.apply_report(&g);
        assert!(report.inserted.is_empty() && report.deleted.is_empty());
        assert_eq!(g2.out_degree(leaf[2]), 0, "the edit dangles a page");
        let exact = RankConfig { epsilon: 1e-15, ..RankConfig::default() };
        let (before, after) = (open_pagerank(&g, &exact).ranks, open_pagerank(&g2, &exact).ranks);
        assert!(vec_ops::relative_error(&before, &after) > 1e-4, "the delta moves the fixed point");
        let when = 150.0;
        for variant in [DprVariant::Dpr1, DprVariant::Dpr2] {
            let res = run_over_network(
                &g,
                NetRunConfig {
                    k: 4,
                    n_nodes: 4,
                    strategy: Strategy::HashBySite,
                    variant,
                    rank: exact.clone(),
                    inner_epsilon: 1e-15,
                    t_end: 600.0,
                    deltas: vec![(when, delta.clone())],
                    ..NetRunConfig::default()
                },
            );
            let pre = res.rel_err.value_at(when - 1.0).unwrap();
            assert!(pre < 1e-10, "{variant:?} converged before the delta: {pre}");
            let err = vec_ops::relative_error(&res.final_ranks, &after);
            assert!(err <= 1e-12, "{variant:?}: {err} from the post-delta fixed point");
        }
    }

    #[test]
    fn link_churn_that_drops_group_pairs_still_reconverges() {
        // 48 URL-hashed groups over 1 500 pages share a handful of links
        // per pair, so a 5% churn removes the last link of some pairs.
        // Before the retraction part every seed of this setup stalled near
        // 5e-4 relative error.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 1_500,
            n_sites: 15,
            ..EduDomainConfig::default()
        });
        let res = run_over_network(
            &g,
            NetRunConfig {
                k: 48,
                n_nodes: 48,
                strategy: Strategy::HashByUrl,
                t_end: 400.0,
                deltas: vec![(150.0, GraphDelta::link_churn(&g, 0.05, 1))],
                ..NetRunConfig::default()
            },
        );
        assert!(res.final_rel_err <= 1e-10, "stalled at {}", res.final_rel_err);
    }

    #[test]
    fn takeover_then_delta_replay_is_bit_identical_across_engine_workers() {
        // The two ways a group's afferent state is rebuilt, back to back:
        // a replica installs an orphaned group from its checkpoint
        // (localized entries, pattern unknown until each source's next
        // delivery), then crawl deltas repage and rewire groups and the
        // states replay from patterns and slots. Both are pure functions
        // of the event order, so every worker count lands on the same
        // bits.
        let g = edu_domain(&EduDomainConfig {
            n_pages: 2_000,
            n_sites: 20,
            ..EduDomainConfig::default()
        });
        let crash = 60.0;
        let mut rewire = GraphDelta::link_churn(&g, 0.02, 11);
        rewire.ops.push(DeltaOp::InsertPage { site: 1, ext_out: 1, links: vec![2, 700] });
        let mut again = GraphDelta::link_churn(&rewire.apply(&g), 0.01, 12);
        again.ops.push(DeltaOp::DeletePage { page: 5 });
        let base = NetRunConfig {
            k: 24,
            n_nodes: 24,
            overlay: OverlayKind::Chord,
            strategy: Strategy::HashByUrl,
            variant: DprVariant::Dpr2,
            replication: 2,
            t_end: 300.0,
            ..quick(Transmission::Direct)
        };
        let victim = group_owners(&base)[0];
        let base = NetRunConfig {
            departures: vec![(crash, victim)],
            faults: Some(
                FaultPlan::new()
                    .with_latency(0.01)
                    .with_default_success(0.9)
                    .with_permanent_crash(victim, crash),
            ),
            // Suspicion takes two checkpoint intervals (8.0) plus a wake:
            // the first delta lands just after the takeover, while sources
            // are still re-delivering to the freshly installed groups.
            deltas: vec![(crash + 14.0, rewire), (crash + 80.0, again)],
            ..base
        };
        let run = |workers| {
            run_over_network(&g, NetRunConfig { engine_workers: workers, ..base.clone() })
        };
        let seq = run(1);
        assert!(seq.counters.takeovers_warm > 0, "the crash must be survived warm");
        assert!(seq.counters.delta_messages > 0, "the deltas must dirty hosted groups");
        assert!(seq.final_rel_err < 1e-6, "rel err {}", seq.final_rel_err);
        for workers in [2, 4] {
            assert_same_run(&run(workers), &seq, &format!("{workers} workers"));
        }
    }
}
