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

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use dpr_graph::{GraphDelta, PageId, WebGraph};
use dpr_linalg::vec_ops;
use dpr_overlay::{
    CanNetwork, ChordNetwork, NodeIndex, Overlay, PastryNetwork, RouteCache, RouteCacheStats,
};
use dpr_partition::{GroupId, Partition};
use dpr_sim::waits::WaitModel;
use dpr_sim::{Actor, Ctx, FaultPlan, SchedStats, SimStats, Simulation, TimeSeries};
use dpr_transport::codec;
use dpr_transport::snapshot::paper_snapshot_bytes;
use rand::Rng;

use crate::centralized::open_pagerank;
use crate::config::RankConfig;
use crate::group::{GroupContext, MatrixLayout};
use crate::observe::Sample;
use crate::ranker::{assemble_ranks, Ranker};
pub use crate::ranker::{AfferentSnapshot, DprVariant, GroupSnapshot, YPart};

/// §4.5's price of one message header (data, ack, checkpoint and delta
/// frames alike).
const HEADER_BYTES: u64 = codec::PAPER_HEADER_BYTES as u64;

/// §4.5's `r`: the price of one lookup message, per routed hop.
const LOOKUP_BYTES: u64 = codec::PAPER_LOOKUP_BYTES as u64;

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
        let seed = cfg.seed ^ 0x0E0E;
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
    pub fn join(&mut self, seed: u64) -> Result<NodeIndex, ChurnUnsupported> {
        match self {
            AnyOverlay::Pastry(p) => {
                let bootstrap = (0..p.n_nodes())
                    .find(|&h| p.is_alive(h))
                    .expect("network has at least one live node");
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
    /// Time to wait for an ack before the first retransmission. Should
    /// comfortably exceed one round trip (`2 × hop_latency` plus engine
    /// latency).
    pub ack_timeout: f64,
    /// Maximum retransmissions per package; afterwards the package is
    /// abandoned and counted in [`NetCounters::retry_exhausted`].
    pub max_retries: u32,
    /// Multiplier applied to the timeout after every retransmission
    /// (exponential backoff).
    pub backoff: f64,
}

impl Default for Reliability {
    fn default() -> Self {
        Self { ack_timeout: 1.0, max_retries: 5, backoff: 2.0 }
    }
}

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
    /// Per-message success probability (applies to every routed hop under
    /// indirect transmission — losses compound with path length, a harsher
    /// but more realistic reading than the paper's per-Y loss).
    pub send_success_prob: f64,
    /// Virtual-time cost of one overlay hop.
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
    /// faster than `B`. `None` = infinite uplink.
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
    /// each dirtied owner receives the delta as a priced message, patches
    /// its group's matrix (a pure column rescale when only out-degrees
    /// changed, a one-group rebuild otherwise), and warm-starts its solve
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

/// A package of parts sharing one overlay hop.
///
/// The payload is behind an `Arc` so the in-flight copy and the sender's
/// retransmit queue share one allocation: a retransmission clones the
/// `Arc`, never the parts. (`Arc<Vec<_>>` rather than `Arc<[_]>` so a
/// receiver holding the last reference can take the parts back out with
/// [`Arc::try_unwrap`] — the fire-and-forget path moves payloads end to
/// end without copying them once.)
#[derive(Debug, Clone)]
pub struct Package(pub Arc<Vec<YPart>>);

/// The simulator message: a data package (sequence-numbered when the
/// reliability protocol is active), a hop-by-hop acknowledgment, or a
/// replication checkpoint.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// A data package.
    Data {
        /// Sender-local sequence number; `None` = fire-and-forget.
        seq: Option<u64>,
        /// The payload.
        package: Package,
    },
    /// Acknowledgment of the sender's `Data { seq }`.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Group-state checkpoint from an owner to one of its replicas.
    /// Fire-and-forget: a lost checkpoint is superseded by the next one,
    /// so freshness — not retransmission — is the delivery guarantee.
    Checkpoint {
        /// Every snapshot this owner ships to the receiving replica,
        /// `Arc`-shared with the copies bound for the other replicas.
        snaps: Arc<Vec<GroupSnapshot>>,
    },
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
    /// Inner-solver sweeps (Jacobi iterations) run by this node's hosted
    /// groups across all think windows — the FLOP-side twin of
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

/// An overlay node hosting zero or more page groups and relaying traffic.
pub struct NetNode {
    me: NodeIndex,
    groups: Vec<Ranker>,
    shared: Shared,
    relay: Vec<YPart>,
    /// `Y` parts produced by the last `think` (the engine's parallel
    /// compute stage), awaiting dispatch by the matching `on_wake` commit.
    pending_y: Vec<YPart>,
    mean_wait: f64,
    /// Virtual time until which this node's uplink is busy serializing
    /// previously sent bytes (bottleneck model).
    uplink_busy_until: f64,
    /// False once the node departed: it stops waking and drops traffic.
    active: bool,
    /// Network cost counters for traffic *originated or forwarded* here.
    pub counters: NetCounters,
    /// Where this node's wall-clock time went (see [`PhaseSecs`]).
    phase: PhaseSecs,
    /// Next data sequence number (reliability protocol).
    next_seq: u64,
    /// Unacked packages awaiting retransmission, by sequence number
    /// (`BTreeMap` so the retransmit scan order is deterministic).
    pending: BTreeMap<u64, PendingSend>,
    /// `(sender, seq)` pairs already processed, for duplicate suppression.
    seen: HashSet<(usize, u64)>,
    /// Newest checkpoint held for each group this node replicates, plus
    /// when the owner was last heard from (`BTreeMap`: takeover scan order
    /// is deterministic).
    replica_store: BTreeMap<GroupId, ReplicaEntry>,
    /// When this node first noticed each orphaned group it is responsible
    /// for but holds no checkpoint of — the cold-takeover liveness
    /// fallback's suspicion clock.
    orphan_since: BTreeMap<GroupId, f64>,
    /// Virtual time of the last checkpoint shipment (`-inf` initially, so
    /// the first wake establishes a baseline at the replicas).
    last_checkpoint: f64,
}

/// A replica's record of one group it guards: the newest snapshot and the
/// freshness of the owner's last sign of life.
struct ReplicaEntry {
    snap: GroupSnapshot,
    /// Virtual time of the last checkpoint from the owner — *any*
    /// checkpoint refreshes it, even one carrying an older epoch, since it
    /// proves the owner is alive.
    last_heard: f64,
}

/// One unacked package on the sender side. `parts` shares the in-flight
/// package's allocation; retransmissions put the *same* bytes back on the
/// wire without copying them.
struct PendingSend {
    dst: NodeIndex,
    parts: Arc<Vec<YPart>>,
    /// Retransmissions already performed.
    retries: u32,
    /// Virtual time at which the package is considered lost.
    deadline: f64,
    /// Current retransmission timeout (grows by the backoff factor).
    rto: f64,
}

/// The run-wide state every node holds a handle to.
#[derive(Clone)]
struct Shared {
    overlay: Arc<RwLock<AnyOverlay>>,
    /// `group → owner node` (responsible node of the group's key).
    owner_of: Arc<RwLock<Vec<NodeIndex>>>,
    /// `group → DHT key`.
    key_of: Arc<Vec<u128>>,
    /// Memo of routing decisions (keys include the source node, so one
    /// shared cache is equivalent to per-node caches).
    cache: Arc<RwLock<RouteCache>>,
    cfg: Arc<NetRunConfig>,
    /// Group-context directory indexed by group id: static group structure
    /// is never shipped, any node rebuilds it from here when it takes over
    /// an orphaned group. Behind a lock because crawl deltas swap dirtied
    /// groups' contexts mid-run (the driver writes, nodes read).
    contexts: Arc<RwLock<Vec<Arc<GroupContext>>>>,
}

impl Shared {
    /// Recomputes `group → owner` after the overlay's membership changed.
    fn reassign_owners(&self) {
        let ov = self.overlay.read();
        for (slot, &key) in self.owner_of.write().iter_mut().zip(self.key_of.iter()) {
            *slot = ov.as_overlay().responsible(key);
        }
    }
}

impl NetNode {
    /// Node `me` hosting `groups`, with nothing sent, received or
    /// checkpointed yet.
    fn new(me: NodeIndex, groups: Vec<Ranker>, mean_wait: f64, shared: &Shared) -> Self {
        Self {
            me,
            groups,
            shared: shared.clone(),
            relay: Vec::new(),
            pending_y: Vec::new(),
            mean_wait,
            uplink_busy_until: 0.0,
            active: true,
            counters: NetCounters::default(),
            phase: PhaseSecs::default(),
            next_seq: 0,
            pending: BTreeMap::new(),
            seen: HashSet::new(),
            replica_store: BTreeMap::new(),
            orphan_since: BTreeMap::new(),
            // `-inf`: the first wake establishes a baseline at the replicas.
            last_checkpoint: f64::NEG_INFINITY,
        }
    }

    fn payload_bytes(&self, parts: &[YPart]) -> u64 {
        let updates: u64 = parts.iter().map(|p| p.scores.len() as u64).sum();
        updates * self.shared.cfg.update_bytes + HEADER_BYTES
    }

    /// Delivers a part to a locally hosted group, raw.
    fn deliver_local(&mut self, part: &YPart) {
        if let Some(ranker) = self.hosted_mut(part.dest_group) {
            ranker.deliver(part.src_group, &part.pattern, &part.scores);
        }
        // A part for a group we do not host is stale traffic after a
        // membership change; §4.2 lets nodes drop it silently.
    }

    fn hosts(&self, gid: GroupId) -> bool {
        self.groups.iter().any(|g| g.ctx().group_id() == gid)
    }

    fn hosted_mut(&mut self, gid: GroupId) -> Option<&mut Ranker> {
        self.groups.iter_mut().find(|g| g.ctx().group_id() == gid)
    }

    /// Cached next hop toward `dest_group`'s key.
    fn next_hop_for(&self, dest_group: GroupId) -> Option<NodeIndex> {
        let ov = self.shared.overlay.read();
        self.shared.cache.write().next_hop(
            ov.as_overlay(),
            self.me,
            self.shared.key_of[dest_group as usize],
        )
    }

    /// Cached route length toward `dest_group`'s key — the `h` a direct
    /// transmission's lookup pays in messages and latency (§4.5).
    fn lookup_hops(&self, dest_group: GroupId) -> u64 {
        let ov = self.shared.overlay.read();
        self.shared.cache.write().route_hops(
            ov.as_overlay(),
            self.me,
            self.shared.key_of[dest_group as usize],
        ) as u64
    }

    /// Per-destination update coalescing (§4.4): merges parts sharing
    /// `(src_group, dest_group)`, keeping the newest payload at the
    /// earliest occurrence's position. Sequential delivery would hand both
    /// to [`Ranker::deliver`], which replaces per source — so dropping the
    /// superseded payload is rank-neutral and the stale bytes simply never
    /// reach the wire.
    fn coalesce_parts(&mut self, parts: &mut Vec<YPart>) {
        if parts.len() < 2 {
            return;
        }
        let mut slot: HashMap<(GroupId, GroupId), usize> = HashMap::with_capacity(parts.len());
        let mut kept: Vec<YPart> = Vec::with_capacity(parts.len());
        for part in parts.drain(..) {
            match slot.entry((part.src_group, part.dest_group)) {
                Entry::Occupied(e) => {
                    self.counters.coalesced_parts += 1;
                    kept[*e.get()] = part;
                }
                Entry::Vacant(e) => {
                    e.insert(kept.len());
                    kept.push(part);
                }
            }
        }
        *parts = kept;
    }

    /// Serializes `bytes` through the node's uplink: returns the extra
    /// delay before the message can leave and advances the busy horizon
    /// (§4.5's per-node bottleneck `B`; formula 4.7's constraint appears
    /// here as queueing delay instead of an inequality).
    fn uplink_delay(&mut self, now: f64, bytes: u64) -> f64 {
        let Some(b) = self.shared.cfg.bottleneck_bytes_per_time else { return 0.0 };
        let start = self.uplink_busy_until.max(now);
        let done = start + bytes as f64 / b;
        self.uplink_busy_until = done;
        done - now
    }

    /// The single data-send path: counts the message and bytes, pays the
    /// uplink, registers the package for retransmission when reliability
    /// is on, and hands it to the engine. `extra_delay` models time spent
    /// before the message can leave (a direct-mode lookup).
    fn transmit(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg>,
        dst: NodeIndex,
        extra_delay: f64,
        parts: Vec<YPart>,
    ) {
        self.counters.data_messages += 1;
        let bytes = self.payload_bytes(&parts);
        self.counters.bytes += bytes;
        let queueing = self.uplink_delay(ctx.now(), bytes);
        let delay = self.shared.cfg.hop_latency + queueing + extra_delay;
        let parts = Arc::new(parts);
        let seq = self.shared.cfg.reliability.map(|rel| {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.insert(
                seq,
                PendingSend {
                    dst,
                    parts: Arc::clone(&parts),
                    retries: 0,
                    deadline: ctx.now() + delay + rel.ack_timeout,
                    rto: rel.ack_timeout,
                },
            );
            seq
        });
        ctx.send_after(dst, delay, NetMsg::Data { seq, package: Package(parts) });
    }

    /// Retransmits every pending package whose ack deadline has passed,
    /// with exponential backoff, abandoning those out of retry budget.
    /// Runs at every wake, so the scan granularity is the think time.
    fn retransmit_due(&mut self, ctx: &mut Ctx<'_, NetMsg>, rel: Reliability) {
        let now = ctx.now();
        let due: Vec<u64> =
            self.pending.iter().filter(|(_, p)| p.deadline <= now).map(|(&s, _)| s).collect();
        for seq in due {
            let mut p = self.pending.remove(&seq).expect("due entry present");
            if p.retries >= rel.max_retries {
                self.counters.retry_exhausted += 1;
                self.counters.gave_up += p.parts.len() as u64;
                continue;
            }
            p.retries += 1;
            self.counters.retries += 1;
            self.counters.data_messages += 1;
            let bytes = self.payload_bytes(&p.parts);
            self.counters.bytes += bytes;
            let queueing = self.uplink_delay(now, bytes);
            let delay = self.shared.cfg.hop_latency + queueing;
            // The retransmitted package shares the original's allocation:
            // byte-for-byte the same payload, no copy.
            ctx.send_after(
                p.dst,
                delay,
                NetMsg::Data { seq: Some(seq), package: Package(Arc::clone(&p.parts)) },
            );
            p.rto *= rel.backoff;
            p.deadline = now + delay + p.rto;
            self.pending.insert(seq, p);
        }
    }

    /// Sends `parts` on their way ([`NetNode::route_parts`], the dispatch
    /// phase), then delivers the ones bound for groups hosted right here
    /// (the deliver phase). Nothing on the send path reads group state, so
    /// delivering after the sends changes nothing but the timing split.
    fn dispatch(&mut self, ctx: &mut Ctx<'_, NetMsg>, parts: Vec<YPart>) {
        let start = Instant::now();
        let local = self.route_parts(ctx, parts);
        let routed = Instant::now();
        for part in &local {
            self.deliver_local(part);
        }
        self.phase.dispatch += (routed - start).as_secs_f64();
        self.phase.deliver += routed.elapsed().as_secs_f64();
    }

    /// Routes parts one overlay hop (indirect) or directly to the owner
    /// (direct), one package per next hop. Superseded same-`(src, dest)`
    /// parts are merged away first, and direct mode batches everything
    /// bound for one owner into a single package (one data message, one
    /// header; every part's destination still pays its §4.5 lookup).
    /// Returns, in order, the parts whose destination group lives on this
    /// node.
    fn route_parts(&mut self, ctx: &mut Ctx<'_, NetMsg>, mut parts: Vec<YPart>) -> Vec<YPart> {
        self.coalesce_parts(&mut parts);
        let mut local = Vec::new();
        match self.shared.cfg.transmission {
            Transmission::Direct => {
                // BTreeMap: package send order must be deterministic.
                let mut by_owner: BTreeMap<NodeIndex, (u64, Vec<YPart>)> = BTreeMap::new();
                for part in parts {
                    let owner = self.shared.owner_of.read()[part.dest_group as usize];
                    if owner == self.me {
                        local.push(part);
                        continue;
                    }
                    // Pay the lookup: h messages of r bytes, plus latency
                    // before the data message can leave.
                    let hops = self.lookup_hops(part.dest_group);
                    self.counters.lookup_messages += hops;
                    self.counters.bytes += hops * LOOKUP_BYTES;
                    let slot = by_owner.entry(owner).or_insert((0, Vec::new()));
                    // The batch leaves once its slowest lookup resolves.
                    slot.0 = slot.0.max(hops);
                    slot.1.push(part);
                }
                for (owner, (hops, batch)) in by_owner {
                    let lookup_delay = hops as f64 * self.shared.cfg.hop_latency;
                    self.transmit(ctx, owner, lookup_delay, batch);
                }
            }
            Transmission::Indirect => {
                // BTreeMap: package send order must be deterministic.
                let mut by_hop: BTreeMap<NodeIndex, Vec<YPart>> = BTreeMap::new();
                for part in parts {
                    match self.next_hop_for(part.dest_group) {
                        None => local.push(part),
                        Some(hop) => by_hop.entry(hop).or_default().push(part),
                    }
                }
                for (hop, package) in by_hop {
                    self.transmit(ctx, hop, 0.0, package);
                }
            }
        }
        local
    }

    /// One think of every hosted group, their `Y` parts buffered in
    /// `pending_y` for the next dispatch. This is the wake's pure-compute
    /// slice — it touches only this node's own state, draws no RNG, and
    /// sends nothing, which is what lets the batched engine run it
    /// concurrently with other nodes' thinks ([`Actor::think`]) without
    /// observable divergence.
    fn run_group_thinks(&mut self) {
        let cfg = &self.shared.cfg;
        for ranker in &mut self.groups {
            let (y, secs) = ranker.think(cfg.variant, cfg.inner_epsilon);
            let buffer_start = Instant::now();
            self.pending_y.extend_from_slice(y);
            self.phase.refresh += secs.refresh;
            self.phase.solve += secs.solve;
            self.phase.compute_y += secs.compute_y + buffer_start.elapsed().as_secs_f64();
        }
    }

    /// Ships one checkpoint message to each replica of every group this
    /// node owns: the group's dynamic state (`r`, afferent contributions,
    /// epoch), batched per destination so a replica guarding several of
    /// this owner's groups receives a single message. Checkpoints are
    /// priced like §4.5 rank updates (one record per carried entry plus a
    /// header per message) and pay the sender's uplink — survivability
    /// competes for the same bandwidth as the `Y` exchange.
    fn ship_checkpoints(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let k = self.shared.cfg.replication;
        // BTreeMap: the per-replica send order must be deterministic.
        let mut per_dst: BTreeMap<NodeIndex, Vec<GroupSnapshot>> = BTreeMap::new();
        for ranker in &self.groups {
            let gid = ranker.ctx().group_id();
            if self.shared.owner_of.read()[gid as usize] != self.me {
                continue; // not ours to checkpoint (transient misplacement)
            }
            let reps = {
                let ov = self.shared.overlay.read();
                self.shared.cache.write().replicas(
                    ov.as_overlay(),
                    self.shared.key_of[gid as usize],
                    k,
                )
            };
            if reps.is_empty() {
                continue;
            }
            let snap = ranker.snapshot();
            for &rep in reps.iter() {
                if rep != self.me {
                    per_dst.entry(rep).or_default().push(snap.clone());
                }
            }
        }
        for (dst, snaps) in per_dst {
            let entries: u64 = snaps.iter().map(GroupSnapshot::n_entries).sum();
            let bytes = paper_snapshot_bytes(entries, self.shared.cfg.update_bytes) + HEADER_BYTES;
            self.counters.checkpoints_sent += 1;
            self.counters.checkpoint_bytes += bytes;
            self.counters.bytes += bytes;
            let queueing = self.uplink_delay(ctx.now(), bytes);
            // One hop: replicas are the owner's overlay neighbors (Pastry
            // leaf set, Chord successor list) by construction.
            ctx.send_after(
                dst,
                self.shared.cfg.hop_latency + queueing,
                NetMsg::Checkpoint { snaps: Arc::new(snaps) },
            );
        }
    }

    /// Failure detection and takeover: for every group this node is DHT-
    /// responsible for but does not host, suspect the former owner dead
    /// once no checkpoint has been heard for `suspect_after ×
    /// checkpoint_every` virtual time, then re-host the group — warm from
    /// the newest held checkpoint, or cold (rank zero) via the
    /// `orphan_since` fallback when none ever arrived. Purely timeout-
    /// based: no oracle tells the replica about the crash, so detection
    /// costs real windows (the gap the warm start then recovers).
    fn scan_takeover(&mut self, now: f64) {
        let timeout = f64::from(self.shared.cfg.suspect_after) * self.shared.cfg.checkpoint_every;
        let mut adopt: Vec<GroupId> = Vec::new();
        {
            let owners = self.shared.owner_of.read();
            for (gid, &owner) in owners.iter().enumerate() {
                let gid = gid as GroupId;
                if owner != self.me || self.hosts(gid) {
                    self.orphan_since.remove(&gid);
                    continue;
                }
                // Responsible but not hosting: the group is orphaned.
                match self.replica_store.get(&gid) {
                    Some(e) if now - e.last_heard >= timeout => adopt.push(gid),
                    Some(_) => {} // owner (or a takeover peer) still alive
                    None => {
                        let since = *self.orphan_since.entry(gid).or_insert(now);
                        if now - since >= timeout {
                            adopt.push(gid);
                        }
                    }
                }
            }
        }
        for gid in adopt {
            self.install_group(gid);
            self.orphan_since.remove(&gid);
        }
    }

    /// Re-hosts `gid` on this node: a fresh [`Ranker`] over the shared
    /// context directory's entry, warm-started from the newest held
    /// checkpoint when there is one that still fits (see
    /// [`Ranker::restore`]; the driver purges stale checkpoints at delta
    /// time, but a frame already in flight can still land afterwards), so
    /// the next think solves from the checkpointed `r` instead of from
    /// zero.
    fn install_group(&mut self, gid: GroupId) {
        let mut ranker = Ranker::new(Arc::clone(&self.shared.contexts.read()[gid as usize]));
        if self.replica_store.get(&gid).is_some_and(|e| ranker.restore(&e.snap)) {
            self.counters.takeovers_warm += 1;
        } else {
            self.counters.takeovers_cold += 1;
        }
        self.groups.push(ranker);
    }
}

/// Samples a node's exponential think time with mean `mean_wait` (zero
/// mean ⇒ immediate re-wake with a tiny guard so the simulation still
/// advances).
fn sample_wait(mean_wait: f64, rng: &mut impl Rng) -> f64 {
    if mean_wait <= 0.0 {
        return 1e-3;
    }
    let u: f64 = rng.gen::<f64>();
    -mean_wait * (1.0 - u).ln()
}

impl Actor for NetNode {
    type Msg = NetMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        // Nodes start at different times: the first wake is itself an
        // exponential draw.
        let w = sample_wait(self.mean_wait, ctx.rng());
        ctx.schedule_wake(w);
    }

    fn think(&mut self, _now: f64) {
        // The engine runs this (possibly concurrently with other nodes'
        // thinks) exactly once before every on_wake.
        if self.active {
            self.run_group_thinks();
        }
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        if !self.active {
            return; // departed: no work, no reschedule
        }
        // 1. Retransmit unacked packages whose deadline passed.
        if let Some(rel) = self.shared.cfg.reliability {
            self.retransmit_due(ctx, rel);
        }

        // 2. Forward buffered relay traffic (indirect transmission's
        //    store-recombine-forward cycle) together with the Y parts this
        //    wake's think() buffered: relayed and freshly produced parts
        //    share this wake's packages — §4.4's merge at intermediate
        //    nodes.
        let mut outgoing = std::mem::take(&mut self.relay);
        outgoing.append(&mut self.pending_y);
        if !outgoing.is_empty() {
            self.dispatch(ctx, outgoing);
        }

        // 3. Replication protocol (gated: with `replication == 0` this
        //    wake is byte-for-byte the pre-replication baseline). Adopt
        //    orphaned groups whose owner went silent, then ship fresh
        //    checkpoints on the checkpoint clock — adoption first, so a
        //    just-taken-over group announces itself to *its* replicas in
        //    the same wake.
        if self.shared.cfg.replication > 0 {
            self.scan_takeover(ctx.now());
            if ctx.now() - self.last_checkpoint >= self.shared.cfg.checkpoint_every {
                self.ship_checkpoints(ctx);
                self.last_checkpoint = ctx.now();
            }
        }

        let w = sample_wait(self.mean_wait, ctx.rng());
        ctx.schedule_wake(w);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NetMsg>, from: usize, msg: NetMsg) {
        if !self.active {
            return; // a departed node neither relays nor delivers
        }
        let package = match msg {
            NetMsg::Ack { seq } => {
                self.pending.remove(&seq);
                return;
            }
            NetMsg::Checkpoint { snaps } => {
                let now = ctx.now();
                for snap in snaps.iter() {
                    let e = self
                        .replica_store
                        .entry(snap.group)
                        .or_insert_with(|| ReplicaEntry { snap: snap.clone(), last_heard: now });
                    // An out-of-order older frame must not roll back a
                    // newer epoch, but any checkpoint proves the owner
                    // (or its takeover successor) is alive.
                    if snap.epoch >= e.snap.epoch {
                        e.snap = snap.clone();
                    }
                    e.last_heard = now;
                    self.orphan_since.remove(&snap.group);
                }
                return;
            }
            NetMsg::Data { seq, package } => {
                if let Some(seq) = seq {
                    // Ack first — even for duplicates, since the previous
                    // ack may have been lost. Ack frames are header-sized
                    // control traffic; they skip the §4.5 data uplink.
                    self.counters.acks += 1;
                    self.counters.bytes += HEADER_BYTES;
                    ctx.send(from, NetMsg::Ack { seq });
                    if !self.seen.insert((from, seq)) {
                        self.counters.duplicates_suppressed += 1;
                        return;
                    }
                }
                package
            }
        };
        // Fire-and-forget packages arrive holding the last `Arc` reference,
        // so the parts move out without a copy; only a reliable-mode sender
        // still holding the payload for retransmission forces a clone.
        let parts = Arc::try_unwrap(package.0).unwrap_or_else(|shared| {
            self.counters.payload_clones += 1;
            (*shared).clone()
        });
        let start = Instant::now();
        for part in parts {
            if self.shared.owner_of.read()[part.dest_group as usize] == self.me {
                self.deliver_local(&part);
            } else {
                // Buffer for the next wake; recombination with other parts
                // for the same destination happens in dispatch().
                self.relay.push(part);
            }
        }
        self.phase.deliver += start.elapsed().as_secs_f64();
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
/// schedule time that is not finite, non-negative and increasing,
/// replication on CAN, degenerate checkpoint/suspicion settings, an
/// inverted or negative think-time interval).
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

/// The one rule every event schedule keeps: times finite, non-negative
/// and strictly increasing. A NaN time never compares as due and an
/// infinite one never comes, so either would hold the run open forever.
fn check_schedule(what: &'static str, times: impl Iterator<Item = f64>) -> Result<(), NetRunError> {
    let mut prev = f64::NEG_INFINITY;
    for t in times {
        if !(t.is_finite() && t >= 0.0 && t > prev) {
            return Err(NetRunError::Config {
                what,
                detail: format!(
                    "times must be finite, non-negative and strictly increasing, got {t}"
                ),
            });
        }
        prev = t;
    }
    Ok(())
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
    if cfg.k < 1 || cfg.n_nodes < 1 {
        return Err(NetRunError::Config {
            what: "k/n_nodes",
            detail: format!(
                "need at least one group and one node, got k={} n_nodes={}",
                cfg.k, cfg.n_nodes
            ),
        });
    }
    let cfg = Arc::new(cfg);

    if !(cfg.t_end > 0.0 && cfg.t_end.is_finite()) {
        // An infinite horizon never ends; a NaN or non-positive one runs nothing.
        return Err(NetRunError::Config {
            what: "t_end",
            detail: format!("must be positive and finite, got {}", cfg.t_end),
        });
    }
    if !cfg.departures.is_empty() && matches!(cfg.overlay, OverlayKind::Can { .. }) {
        return Err(ChurnUnsupported { op: "departures", overlay: "CAN" }.into());
    }
    if !cfg.joins.is_empty() {
        match cfg.overlay {
            OverlayKind::Pastry => {}
            OverlayKind::Chord => {
                return Err(ChurnUnsupported { op: "joins", overlay: "Chord" }.into())
            }
            OverlayKind::Can { .. } => {
                return Err(ChurnUnsupported { op: "joins", overlay: "CAN" }.into())
            }
        }
    }
    check_schedule("departures", cfg.departures.iter().map(|e| e.0))?;
    check_schedule("joins", cfg.joins.iter().map(|e| e.0))?;
    check_schedule("deltas", cfg.deltas.iter().map(|e| e.0))?;
    if cfg.replication > 0 {
        if matches!(cfg.overlay, OverlayKind::Can { .. }) {
            return Err(NetRunError::Config {
                what: "replication",
                detail: "the CAN overlay has no replica sets (see DESIGN.md §11); \
                         use Pastry or Chord"
                    .into(),
            });
        }
        if !(cfg.checkpoint_every > 0.0 && cfg.checkpoint_every.is_finite()) {
            return Err(NetRunError::Config {
                what: "checkpoint_every",
                detail: format!("must be positive and finite, got {}", cfg.checkpoint_every),
            });
        }
        if cfg.suspect_after < 1 {
            return Err(NetRunError::Config {
                what: "suspect_after",
                detail: "must be at least 1 missed checkpoint interval".into(),
            });
        }
    }
    if !(cfg.inner_epsilon > 0.0 && cfg.inner_epsilon.is_finite()) {
        return Err(NetRunError::Config {
            what: "inner_epsilon",
            detail: format!("must be positive and finite, got {}", cfg.inner_epsilon),
        });
    }
    if !(cfg.t1 >= 0.0 && cfg.t1 <= cfg.t2 && cfg.t2.is_finite()) {
        return Err(NetRunError::Config {
            what: "t1/t2",
            detail: format!("need finite 0 <= t1 <= t2, got t1={} t2={}", cfg.t1, cfg.t2),
        });
    }
    if !(cfg.sample_every > 0.0 && cfg.sample_every.is_finite()) {
        // The sampling loop below would never advance.
        return Err(NetRunError::Config {
            what: "sample_every",
            detail: format!("must be positive and finite, got {}", cfg.sample_every),
        });
    }
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

    // Merge departures, joins, and crawl deltas into one time-ordered
    // churn schedule (the sort is stable, so coinciding times keep the
    // departures → joins → deltas order deterministically).
    let mut churn: Vec<(f64, ChurnEvent)> = cfg
        .departures
        .iter()
        .map(|&(t, node)| (t, ChurnEvent::Depart(node)))
        .chain(cfg.joins.iter().map(|&(t, id_seed)| (t, ChurnEvent::Join { id_seed })))
        .chain(cfg.deltas.iter().enumerate().map(|(i, &(t, _))| (t, ChurnEvent::Delta(i))))
        .collect();
    churn.sort_by(|a, b| a.0.total_cmp(&b.0));

    let setup_secs = wall_start.elapsed().as_secs_f64();
    // `engine_workers == 1` is the plain sequential event loop (the
    // replay-contract reference); `> 1` takes the batched path, which
    // commits in the identical (time, seq) order and is bit-identical.
    let engine_pool =
        (cfg.engine_workers > 1).then(|| dpr_linalg::pool::Pool::with_workers(cfg.engine_workers));
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
        while let Some(&(ct, _)) = churn.peek() {
            if ct > next_t {
                break;
            }
            let (ct, ev) = churn.next().expect("peeked");
            match &engine_pool {
                Some(pool) => sim.run_until_pooled(ct, pool),
                None => sim.run_until(ct),
            }
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
        match &engine_pool {
            Some(pool) => sim.run_until_pooled(next_t, pool),
            None => sim.run_until(next_t),
        }
        let sample_start = Instant::now();
        let global = assemble(sim.actors(), n_pages);
        let err = vec_ops::relative_error(&global, &reference);
        rel_err.push(next_t, err);
        // A dirtied group leaves the resolving set once its ranker has
        // re-stalled on the exact post-delta fixed point (reads state
        // only — bit-neutral to the run).
        if !resolving.is_empty() {
            let actors = sim.actors();
            resolving.retain(|&gid| {
                !actors.iter().any(|n| {
                    n.active && n.groups.iter().any(|r| r.ctx().group_id() == gid && r.is_stalled())
                })
            });
        }
        let rankers: Vec<&Ranker> = hosted_groups(sim.actors()).collect();
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
        phase_secs += node.phase;
    }
    let final_ranks = assemble(sim.actors(), n_pages);
    let per_node: Vec<NetCounters> = sim
        .actors()
        .iter()
        .map(|n| {
            let mut c = n.counters;
            c.rows_recomputed = n.groups.iter().map(Ranker::rows_recomputed).sum();
            c.inner_sweeps = n.groups.iter().map(Ranker::inner_sweeps).sum();
            c.rows_swept = n.groups.iter().map(Ranker::rows_swept).sum();
            c.sweeps_saved = n.groups.iter().map(Ranker::sweeps_saved).sum();
            c
        })
        .collect();
    let counters = per_node.iter().fold(NetCounters::default(), |mut acc, c| {
        acc.data_messages += c.data_messages;
        acc.lookup_messages += c.lookup_messages;
        acc.bytes += c.bytes;
        acc.retries += c.retries;
        acc.acks += c.acks;
        acc.duplicates_suppressed += c.duplicates_suppressed;
        acc.retry_exhausted += c.retry_exhausted;
        acc.coalesced_parts += c.coalesced_parts;
        acc.payload_clones += c.payload_clones;
        acc.rows_recomputed += c.rows_recomputed;
        acc.gave_up += c.gave_up;
        acc.checkpoints_sent += c.checkpoints_sent;
        acc.checkpoint_bytes += c.checkpoint_bytes;
        acc.takeovers_warm += c.takeovers_warm;
        acc.takeovers_cold += c.takeovers_cold;
        acc.delta_messages += c.delta_messages;
        acc.delta_bytes += c.delta_bytes;
        acc.inner_sweeps += c.inner_sweeps;
        acc.rows_swept += c.rows_swept;
        acc.sweeps_saved += c.sweeps_saved;
        acc
    });
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
///   notice the owner's silence by checkpoint timeout
///   ([`NetNode::scan_takeover`]) and re-host the groups warm from their
///   newest snapshots — detection costs real windows, recovery starts
///   near the fixed point instead of at zero.
fn apply_departure(sim: &mut Simulation<NetNode>, shared: &Shared, node: NodeIndex) {
    shared.overlay.write().depart(node).expect("churn support validated before the run");
    shared.reassign_owners();
    let actors = sim.actors_mut();
    actors[node].active = false;
    let orphaned = std::mem::take(&mut actors[node].groups);
    actors[node].relay.clear();
    actors[node].pending_y.clear();
    actors[node].pending.clear();
    actors[node].replica_store.clear();
    actors[node].orphan_since.clear();
    if shared.cfg.replication > 0 {
        // Crash-survivable mode: the state is simply gone; takeover is
        // the replicas' job, driven by their own failure detectors.
        return;
    }
    let owners = shared.owner_of.read();
    for lost in orphaned {
        let new_owner = owners[lost.ctx().group_id() as usize];
        actors[new_owner].groups.push(Ranker::new(Arc::clone(lost.ctx())));
    }
}

/// Joins a fresh node (id derived from `id_seed`): inserts it into the
/// overlay, recomputes group ownership, spawns its actor mid-run, and
/// hands over the groups it is now responsible for *with their ranking
/// state intact* — a graceful handoff, unlike the state loss of
/// [`apply_departure`].
fn apply_join(sim: &mut Simulation<NetNode>, shared: &Shared, mean_wait: f64, id_seed: u64) {
    let new = shared.overlay.write().join(id_seed).expect("churn support validated before the run");
    shared.reassign_owners();
    let idx = sim.add_actor(NetNode::new(new, Vec::new(), mean_wait, shared));
    debug_assert_eq!(idx, new, "overlay handle and actor index must agree");

    // Graceful handoff: any group no longer hosted by its owner moves,
    // state and all.
    let owners = shared.owner_of.read();
    let actors = sim.actors_mut();
    let mut migrating = Vec::new();
    for (host, actor) in actors.iter_mut().enumerate() {
        let mut i = 0;
        while i < actor.groups.len() {
            if owners[actor.groups[i].ctx().group_id() as usize] != host {
                migrating.push(actor.groups.remove(i));
            } else {
                i += 1;
            }
        }
    }
    for ranker in migrating {
        let gid = ranker.ctx().group_id() as usize;
        actors[owners[gid]].groups.push(ranker);
    }
}

/// Applies one scheduled crawl delta to the running system — the
/// incremental-ranking path. The graph is patched in place and only the
/// groups the delta actually dirties are touched:
///
/// * a dirty group whose pages all kept their internal out-rows (pure
///   out-degree edits, including pages left dangling by a deletion)
///   gets its matrix *rescaled in place* — same entry structure, new
///   `α/d(u)` column factors;
/// * any other dirty group (links rewired, pages inserted or tombstoned)
///   gets a one-group [`GroupContext::rebuild`] against the new graph —
///   cost proportional to the group, not the web;
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
    // Classify the dirty groups (BTreeMap: patch order is deterministic).
    // `true` = structural (page set or link structure changed, full
    // one-group rebuild); `false` = every dirty page kept its internal
    // out-row, so an in-place column rescale suffices.
    let ext_only: HashSet<PageId> = report.ext_only_pages.iter().copied().collect();
    let mut dirty: BTreeMap<GroupId, bool> = BTreeMap::new();
    for &p in &report.touched_pages {
        let structural = dirty.entry(assignment[p as usize]).or_insert(false);
        *structural |= !ext_only.contains(&p);
    }
    for &p in report.inserted.iter().chain(report.deleted.iter()) {
        dirty.insert(assignment[p as usize], true);
    }
    if dirty.is_empty() {
        return report; // an empty delta is bit-invisible
    }
    {
        let mut dir = contexts.write();
        for (&gid, &structural) in &dirty {
            let old_ctx = &dir[gid as usize];
            let new_ctx = if structural {
                let mut pages: Vec<PageId> = old_ctx
                    .pages()
                    .iter()
                    .copied()
                    .filter(|p| report.deleted.binary_search(p).is_err())
                    .collect();
                // Inserted ids all exceed the old page count, so appending
                // the group's share keeps `pages` sorted.
                pages.extend(
                    report.inserted.iter().copied().filter(|&p| assignment[p as usize] == gid),
                );
                let layout = MatrixLayout::default();
                Arc::new(GroupContext::rebuild(g_live, assignment, &cfg.rank, gid, pages, layout))
            } else {
                let mut c = (**old_ctx).clone();
                c.rescale_in_place(g_live, &cfg.rank);
                Arc::new(c)
            };
            dir[gid as usize] = new_ctx;
        }
    }
    // Warm-restart each dirty group's hosted state and price the delta
    // shipment to the nodes owning dirty groups.
    let dir = contexts.read();
    let actors = sim.actors_mut();
    let wire = dpr_graph::io::delta_wire_bytes(delta) + HEADER_BYTES;
    let mut charged: BTreeSet<usize> = BTreeSet::new();
    for &gid in dirty.keys() {
        resolving.insert(gid);
        // Stale pre-delta checkpoints are useless for a warm takeover;
        // purge them everywhere (a frame already in flight is caught by
        // the length guard in `Ranker::restore`).
        for a in actors.iter_mut() {
            a.replica_store.remove(&gid);
        }
        let Some(node) = actors.iter_mut().find(|a| a.hosts(gid)) else {
            // Orphaned by a crash: the eventual takeover rebuilds from
            // the already-updated context directory.
            continue;
        };
        charged.insert(node.me);
        let ranker = node.hosted_mut(gid).expect("the host was found by this group");
        let dropped = ranker.rebase(Arc::clone(&dir[gid as usize]));
        // A destination the rebuilt group no longer links to would keep
        // this group's last contribution for ever — its `Y` stops naming
        // it, so nothing replaces it. Retract it: one empty part per
        // dropped destination, sent with the host's next wake through the
        // normal dispatch path (coalesced, priced as a header when it
        // travels alone, retried under reliability).
        node.pending_y.extend(dropped.into_iter().map(|dest_group| YPart {
            src_group: gid,
            dest_group,
            pattern: Arc::from([]),
            scores: Arc::default(),
        }));
    }
    drop(dir);
    for host in charged {
        let c = &mut actors[host].counters;
        c.delta_messages += 1;
        c.delta_bytes += wire;
        c.bytes += wire;
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

/// Every group hosted on a live node.
fn hosted_groups(nodes: &[NetNode]) -> impl Iterator<Item = &Ranker> {
    nodes.iter().filter(|n| n.active).flat_map(|n| &n.groups)
}

fn assemble(nodes: &[NetNode], n_pages: usize) -> Vec<f64> {
    assemble_ranks(nodes.iter().flat_map(|n| &n.groups), n_pages)
}

#[cfg(test)]
mod tests {
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
        // The retransmit path clones `Package`s; payloads must be shared,
        // never copied.
        let parts = Arc::new(vec![YPart {
            src_group: 0,
            dest_group: 1,
            pattern: Arc::from([0]),
            scores: Arc::new(vec![0.5]),
        }]);
        let original = Package(Arc::clone(&parts));
        let retransmitted = original.clone();
        assert!(Arc::ptr_eq(&original.0, &retransmitted.0));
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
