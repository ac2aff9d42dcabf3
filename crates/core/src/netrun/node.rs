//! The overlay node and the sans-IO protocol parts it composes: the
//! [`Outbox`] (coalescing, routing, uplink and the §4.5 price of every
//! frame), the [`ReliableLink`] (ack, retry, dedup) and the [`Replica`]
//! (checkpoints, suspicion, takeover). A part takes the time and its
//! inputs and returns what to send; only [`NetNode`] puts a message on the
//! simulator's wire, and the driver reaches a node only through its
//! methods.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use dpr_overlay::{NodeIndex, Overlay, RouteCache};
use dpr_partition::GroupId;
use dpr_sim::{Actor, Ctx};
use dpr_transport::codec;
use dpr_transport::snapshot::paper_snapshot_bytes;
use parking_lot::RwLock;
use rand::Rng;

use super::{AnyOverlay, NetCounters, NetRunConfig, PhaseSecs, Reliability, Transmission};
use crate::group::GroupContext;
use crate::ranker::{GroupSnapshot, Ranker, YPart};

/// §4.5's price of one message header (data, ack, checkpoint and delta
/// frames alike).
const HEADER_BYTES: u64 = codec::PAPER_HEADER_BYTES as u64;

/// §4.5's `r`: the price of one lookup message, per routed hop.
const LOOKUP_BYTES: u64 = codec::PAPER_LOOKUP_BYTES as u64;

/// The simulator message: a data package (sequence-numbered when the
/// reliability protocol is active), a hop-by-hop acknowledgment, or a
/// replication checkpoint.
#[derive(Debug, Clone)]
pub(super) enum NetMsg {
    /// A data package: parts sharing one overlay hop.
    Data {
        /// Sender-local sequence number; `None` = fire-and-forget.
        seq: Option<u64>,
        /// The payload is behind an `Arc` so the in-flight copy and the
        /// sender's retransmit queue share one allocation: a
        /// retransmission clones the `Arc`, never the parts.
        /// (`Arc<Vec<_>>` rather than `Arc<[_]>` so a receiver holding the
        /// last reference can take the parts back out with
        /// [`Arc::try_unwrap`] — the fire-and-forget path moves payloads
        /// end to end without copying them once.)
        parts: Arc<Vec<YPart>>,
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

/// The run-wide state every node holds a handle to.
#[derive(Clone)]
pub(super) struct Shared {
    pub(super) overlay: Arc<RwLock<AnyOverlay>>,
    /// `group → owner node` (responsible node of the group's key).
    pub(super) owner_of: Arc<RwLock<Vec<NodeIndex>>>,
    /// `group → DHT key`.
    pub(super) key_of: Arc<Vec<u128>>,
    /// Memo of routing decisions (keys include the source node, so one
    /// shared cache is equivalent to per-node caches).
    pub(super) cache: Arc<RwLock<RouteCache>>,
    pub(super) cfg: Arc<NetRunConfig>,
    /// Group-context directory indexed by group id: static group structure
    /// is never shipped, any node rebuilds it from here when it takes over
    /// an orphaned group. Behind a lock because crawl deltas swap dirtied
    /// groups' contexts mid-run (the driver writes, nodes read).
    pub(super) contexts: Arc<RwLock<Vec<Arc<GroupContext>>>>,
}

impl Shared {
    /// Recomputes `group → owner` after the overlay's membership changed.
    pub(super) fn reassign_owners(&self) {
        let ov = self.overlay.read();
        for (slot, &key) in self.owner_of.write().iter_mut().zip(self.key_of.iter()) {
            *slot = ov.as_overlay().responsible(key);
        }
    }

    /// Runs `f` on the overlay's routing view and the shared route cache.
    fn routed<T>(&self, f: impl FnOnce(&dyn Overlay, &mut RouteCache) -> T) -> T {
        let ov = self.overlay.read();
        f(ov.as_overlay(), &mut self.cache.write())
    }
}

/// One frame to price: what it carries decides its bytes.
enum Frame<'a> {
    /// A data package's parts, and the time it waits before it can leave
    /// (a direct-mode lookup; `0.0` otherwise).
    Data(&'a [YPart], f64),
    /// A checkpoint of these snapshots to one replica.
    Checkpoint(&'a [GroupSnapshot]),
    /// A hop-by-hop acknowledgment.
    Ack,
    /// A direct transmission's lookup of this many routed hops.
    Lookup(u64),
    /// A crawl delta's serialized `DPRG1` bytes, charged to the owner.
    Delta(u64),
}

/// The outbox: everything between a node's `Y` parts and the wire. It
/// coalesces superseded parts, routes the rest, queues bytes on the
/// node's uplink and charges every frame's §4.5 price.
struct Outbox {
    cfg: Arc<NetRunConfig>,
    /// Virtual time until which this node's uplink is busy serializing
    /// previously sent bytes (bottleneck model).
    uplink_busy_until: f64,
    counters: NetCounters,
}

impl Outbox {
    fn new(cfg: Arc<NetRunConfig>) -> Self {
        Self { cfg, uplink_busy_until: 0.0, counters: NetCounters::default() }
    }

    /// §4.5's price of `frame`, the one place it is computed: charges the
    /// frame's bytes and counters and returns its delay. Data and
    /// checkpoint frames (one record per carried entry plus a header) pay
    /// a hop and serialize through the node's uplink — §4.5's per-node
    /// bottleneck `B`; formula 4.7's constraint appears here as queueing
    /// delay instead of an inequality. Acks are header-sized control
    /// traffic that skips the data uplink; lookups and deltas are
    /// charged, not sent.
    fn price(&mut self, now: f64, frame: Frame<'_>) -> f64 {
        let c = &mut self.counters;
        let (bytes, extra) = match frame {
            Frame::Data(parts, extra) => {
                let updates: u64 = parts.iter().map(|p| p.scores.len() as u64).sum();
                c.data_messages += 1;
                (updates * self.cfg.update_bytes + HEADER_BYTES, Some(extra))
            }
            Frame::Checkpoint(snaps) => {
                let entries: u64 = snaps.iter().map(GroupSnapshot::n_entries).sum();
                let bytes = paper_snapshot_bytes(entries, self.cfg.update_bytes) + HEADER_BYTES;
                c.checkpoints_sent += 1;
                c.checkpoint_bytes += bytes;
                (bytes, Some(0.0))
            }
            Frame::Ack => {
                c.acks += 1;
                (HEADER_BYTES, None)
            }
            Frame::Lookup(hops) => {
                c.lookup_messages += hops;
                (hops * LOOKUP_BYTES, None)
            }
            Frame::Delta(wire) => {
                c.delta_messages += 1;
                c.delta_bytes += wire + HEADER_BYTES;
                (wire + HEADER_BYTES, None)
            }
        };
        c.bytes += bytes;
        let Some(extra) = extra else { return 0.0 };
        let queueing = match self.cfg.bottleneck_bytes_per_time {
            None => 0.0,
            Some(b) => {
                let start = self.uplink_busy_until.max(now);
                let done = start + bytes as f64 / b;
                self.uplink_busy_until = done;
                done - now
            }
        };
        self.cfg.hop_latency + queueing + extra
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

    /// Routes parts one overlay hop (indirect) or directly to the owner
    /// (direct), one package per next hop. Superseded same-`(src, dest)`
    /// parts are merged away first, and direct mode batches everything
    /// bound for one owner into a single package (one data message, one
    /// header; every part's destination still pays its §4.5 lookup).
    /// Returns, in order, the parts whose destination group lives on `me`,
    /// and the packages in send order, each with its next hop and the
    /// lookup delay before it can leave.
    fn route(
        &mut self,
        now: f64,
        me: NodeIndex,
        shared: &Shared,
        mut parts: Vec<YPart>,
    ) -> (Vec<YPart>, impl Iterator<Item = (NodeIndex, f64, Vec<YPart>)>) {
        self.coalesce_parts(&mut parts);
        let (transmission, latency) = (self.cfg.transmission, self.cfg.hop_latency);
        let mut local = Vec::new();
        // BTreeMap: package send order must be deterministic.
        let mut by_hop: BTreeMap<NodeIndex, (u64, Vec<YPart>)> = BTreeMap::new();
        for part in parts {
            let key = shared.key_of[part.dest_group as usize];
            let (hop, hops) = match transmission {
                Transmission::Direct => match shared.owner_of.read()[part.dest_group as usize] {
                    owner if owner == me => (None, 0),
                    owner => {
                        // Pay the lookup: h messages of r bytes now, and
                        // h hops of latency before the package can leave.
                        let hops = shared.routed(|ov, cache| cache.route_hops(ov, me, key)) as u64;
                        self.price(now, Frame::Lookup(hops));
                        (Some(owner), hops)
                    }
                },
                Transmission::Indirect => {
                    (shared.routed(|ov, cache| cache.next_hop(ov, me, key)), 0)
                }
            };
            let Some(hop) = hop else {
                local.push(part);
                continue;
            };
            let slot = by_hop.entry(hop).or_insert((0, Vec::new()));
            // A direct batch leaves once its slowest lookup resolves.
            slot.0 = slot.0.max(hops);
            slot.1.push(part);
        }
        (
            local,
            by_hop.into_iter().map(move |(hop, (hops, parts))| (hop, hops as f64 * latency, parts)),
        )
    }
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

/// The reliable link: one node's end of the [`Reliability`] protocol —
/// sequence numbers, retransmission with backoff until the budget runs
/// out, and the dedup/re-ack rule. Inert when `rel` is `None`.
#[derive(Default)]
struct ReliableLink {
    rel: Option<Reliability>,
    /// Next data sequence number.
    next_seq: u64,
    /// Unacked packages awaiting retransmission, by sequence number
    /// (`BTreeMap` so the retransmit scan order is deterministic).
    pending: BTreeMap<u64, PendingSend>,
    /// `(sender, seq)` pairs already processed, for duplicate suppression.
    seen: HashSet<(usize, u64)>,
    counters: NetCounters,
}

impl ReliableLink {
    /// Stamps a package sent to `dst` at `now` with `delay` and holds it
    /// for retransmission until its ack arrives; `None` = fire-and-forget.
    fn track(
        &mut self,
        now: f64,
        delay: f64,
        dst: NodeIndex,
        parts: &Arc<Vec<YPart>>,
    ) -> Option<u64> {
        let rel = self.rel?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let parts = Arc::clone(parts);
        let deadline = now + delay + rel.ack_timeout;
        self.pending
            .insert(seq, PendingSend { dst, parts, retries: 0, deadline, rto: rel.ack_timeout });
        Some(seq)
    }

    /// Retransmits every pending package whose ack deadline has passed,
    /// with exponential backoff, abandoning those out of retry budget;
    /// `resend(dst, seq, parts)` puts one on the wire and returns its
    /// delay. Runs at every wake, so the scan granularity is the think
    /// time.
    fn retransmit_due(
        &mut self,
        now: f64,
        mut resend: impl FnMut(NodeIndex, u64, &Arc<Vec<YPart>>) -> f64,
    ) {
        let Some(rel) = self.rel else { return };
        let due: Vec<(u64, PendingSend)> =
            self.pending.extract_if(.., |_, p| p.deadline <= now).collect();
        for (seq, mut p) in due {
            if p.retries >= rel.max_retries {
                self.counters.retry_exhausted += 1;
                self.counters.gave_up += p.parts.len() as u64;
                continue;
            }
            p.retries += 1;
            self.counters.retries += 1;
            let delay = resend(p.dst, seq, &p.parts);
            p.rto *= rel.backoff;
            p.deadline = now + delay + p.rto;
            self.pending.insert(seq, p);
        }
    }

    /// Whether `(from, seq)` is new. A duplicate (a retransmission whose
    /// original did arrive) is counted and dropped — after its re-ack,
    /// since the earlier ack may itself have been lost.
    fn accept(&mut self, from: usize, seq: u64) -> bool {
        let fresh = self.seen.insert((from, seq));
        self.counters.duplicates_suppressed += u64::from(!fresh);
        fresh
    }
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

/// The replica: one node's half of crash-survivable ranking
/// (`replication > 0`) — it takes in checkpoints, runs the suspicion
/// clock and decides whether a takeover starts warm or cold.
#[derive(Default)]
struct Replica {
    /// Newest checkpoint held for each group this node replicates, plus
    /// when the owner was last heard from (`BTreeMap`: takeover scan order
    /// is deterministic).
    store: BTreeMap<GroupId, ReplicaEntry>,
    /// When this node first noticed each orphaned group it is responsible
    /// for but holds no checkpoint of — the cold-takeover liveness
    /// fallback's suspicion clock.
    orphan_since: BTreeMap<GroupId, f64>,
    /// Virtual time of the last checkpoint shipment (`-inf` initially, so
    /// the first wake establishes a baseline at the replicas).
    last_checkpoint: f64,
    counters: NetCounters,
}

impl Replica {
    /// Takes in one checkpoint frame that arrived at `now`.
    fn ingest(&mut self, now: f64, snaps: &[GroupSnapshot]) {
        for snap in snaps {
            let e = self
                .store
                .entry(snap.group)
                .or_insert_with(|| ReplicaEntry { snap: snap.clone(), last_heard: now });
            // An out-of-order older frame must not roll back a newer
            // epoch, but any checkpoint proves the owner (or its takeover
            // successor) is alive.
            if snap.epoch >= e.snap.epoch {
                e.snap = snap.clone();
            }
            e.last_heard = now;
            self.orphan_since.remove(&snap.group);
        }
    }

    /// Failure detection: for every group `owners` makes `me` responsible
    /// for but that `hosts` says is not hosted here, suspect the former
    /// owner dead once no checkpoint has been heard for `timeout` — or,
    /// when none ever arrived, once the `orphan_since` clock has run that
    /// long. Purely timeout-based: no oracle tells the replica about the
    /// crash, so detection costs real windows (the gap the warm start then
    /// recovers). Returns the groups to adopt, ascending.
    fn suspects(
        &mut self,
        now: f64,
        timeout: f64,
        me: NodeIndex,
        owners: &[NodeIndex],
        hosts: impl Fn(GroupId) -> bool,
    ) -> Vec<GroupId> {
        let mut adopt: Vec<GroupId> = Vec::new();
        for (gid, &owner) in owners.iter().enumerate() {
            let gid = gid as GroupId;
            if owner != me || hosts(gid) {
                self.orphan_since.remove(&gid);
                continue;
            }
            // Responsible but not hosting: the group is orphaned.
            match self.store.get(&gid) {
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
        adopt
    }

    /// Re-hosts `gid`: a fresh [`Ranker`] over `ctx`, warm-started from the
    /// newest held checkpoint when there is one that still fits (see
    /// [`Ranker::restore`]; the driver purges stale checkpoints at delta
    /// time, but a frame already in flight can still land afterwards), so
    /// the next think solves from the checkpointed `r` instead of from
    /// zero; cold otherwise.
    fn adopt(&mut self, gid: GroupId, ctx: Arc<GroupContext>) -> Ranker {
        let mut ranker = Ranker::new(ctx);
        if self.store.get(&gid).is_some_and(|e| ranker.restore(&e.snap)) {
            self.counters.takeovers_warm += 1;
        } else {
            self.counters.takeovers_cold += 1;
        }
        self.orphan_since.remove(&gid);
        ranker
    }
}

/// The solve counts of `groups`, summed; every other counter zero.
fn solve_work(groups: &[Ranker]) -> NetCounters {
    let mut c = NetCounters::default();
    for g in groups {
        c.rows_recomputed += g.rows_recomputed();
        c.inner_sweeps += g.inner_sweeps();
        c.rows_swept += g.rows_swept();
        c.sweeps_saved += g.sweeps_saved();
    }
    c
}

/// An overlay node hosting zero or more page groups and relaying traffic.
pub(super) struct NetNode {
    me: NodeIndex,
    groups: Vec<Ranker>,
    shared: Shared,
    relay: Vec<YPart>,
    /// `Y` parts produced by the last `think` (the engine's parallel
    /// compute stage), awaiting dispatch by the matching `on_wake` commit.
    pending_y: Vec<YPart>,
    mean_wait: f64,
    /// False once the node departed: it stops waking and drops traffic.
    active: bool,
    /// Where this node's wall-clock time went (see [`PhaseSecs`]).
    phase: PhaseSecs,
    /// Receive-path payload copies ([`NetCounters::payload_clones`]).
    payload_clones: u64,
    /// The solve counts of the groups this node hosted when it crashed:
    /// the work was done, so the run's totals keep it.
    crashed_work: NetCounters,
    outbox: Outbox,
    link: ReliableLink,
    replica: Replica,
}

impl NetNode {
    /// Node `me` hosting `groups`, with nothing sent, received or
    /// checkpointed yet.
    pub(super) fn new(me: NodeIndex, groups: Vec<Ranker>, mean_wait: f64, shared: &Shared) -> Self {
        Self {
            me,
            groups,
            shared: shared.clone(),
            relay: Vec::new(),
            pending_y: Vec::new(),
            mean_wait,
            active: true,
            phase: PhaseSecs::default(),
            payload_clones: 0,
            crashed_work: NetCounters::default(),
            outbox: Outbox::new(Arc::clone(&shared.cfg)),
            link: ReliableLink { rel: shared.cfg.reliability, ..ReliableLink::default() },
            replica: Replica { last_checkpoint: f64::NEG_INFINITY, ..Replica::default() },
        }
    }

    /// The groups hosted here (none once the node departed).
    pub(super) fn groups(&self) -> &[Ranker] {
        &self.groups
    }

    /// Where this node's wall-clock time went.
    pub(super) fn phase(&self) -> PhaseSecs {
        self.phase
    }

    /// Network cost counters for traffic *originated or forwarded* here,
    /// with the solve counts of every group hosted here, now or at a crash.
    pub(super) fn counters(&self) -> NetCounters {
        let mut c = self.outbox.counters;
        c += self.link.counters;
        c += self.replica.counters;
        c += self.crashed_work;
        c += solve_work(&self.groups);
        c.payload_clones = self.payload_clones;
        c
    }

    /// The node departs: it stops waking and relaying, and everything it
    /// held dies with it but the count of the work it did. Returns its
    /// groups for the driver to dispose of.
    pub(super) fn crash(&mut self) -> Vec<Ranker> {
        self.crashed_work += solve_work(&self.groups);
        self.active = false;
        self.relay.clear();
        self.pending_y.clear();
        self.link.pending.clear();
        self.replica.store.clear();
        self.replica.orphan_since.clear();
        std::mem::take(&mut self.groups)
    }

    /// Hosts `ranker` from now on.
    pub(super) fn adopt(&mut self, ranker: Ranker) {
        self.groups.push(ranker);
    }

    /// Hands back, in hosting order, the groups `owners` places elsewhere.
    pub(super) fn release_foreign(&mut self, owners: &[NodeIndex]) -> Vec<Ranker> {
        let me = self.me;
        let (kept, foreign) = std::mem::take(&mut self.groups)
            .into_iter()
            .partition(|g| owners[g.ctx().group_id() as usize] == me);
        self.groups = kept;
        foreign
    }

    /// A crawl delta changed group `gid`: any checkpoint held of it is
    /// dropped (stale for a warm takeover), and when it is hosted here it
    /// warm-restarts on `ctx` ([`Ranker::rebase`]) — returns whether it
    /// is. A destination the rebuilt group no longer links to would keep
    /// this group's last contribution for ever — its `Y` stops naming it,
    /// so nothing replaces it. Retract it: one empty part per dropped
    /// destination, sent with the next wake through the normal dispatch
    /// path (coalesced, priced as a header when it travels alone, retried
    /// under reliability).
    pub(super) fn rebase_group(&mut self, gid: GroupId, ctx: &Arc<GroupContext>) -> bool {
        self.replica.store.remove(&gid);
        let Some(ranker) = self.hosted_mut(gid) else { return false };
        let dropped = ranker.rebase(Arc::clone(ctx));
        self.pending_y.extend(dropped.into_iter().map(|dest_group| YPart {
            src_group: gid,
            dest_group,
            pattern: Arc::from([]),
            scores: Arc::default(),
        }));
        true
    }

    /// Charges the crawl-delta shipment of `wire` serialized bytes that
    /// reached this node at `now`.
    pub(super) fn receive_delta(&mut self, now: f64, wire: u64) {
        self.outbox.price(now, Frame::Delta(wire));
    }

    fn hosted_mut(&mut self, gid: GroupId) -> Option<&mut Ranker> {
        self.groups.iter_mut().find(|g| g.ctx().group_id() == gid)
    }

    /// Delivers a part to a locally hosted group, raw.
    fn deliver_local(&mut self, part: &YPart) {
        if let Some(ranker) = self.hosted_mut(part.dest_group) {
            ranker.deliver(part.src_group, &part.pattern, &part.scores);
        }
        // A part for a group we do not host is stale traffic after a
        // membership change; §4.2 lets nodes drop it silently.
    }

    /// The one priced send path: `outbox` prices `frame`, `msg` builds the
    /// message from the delay, and the engine delivers it after that delay
    /// (returned). It takes the outbox, not `self`, so a caller may hold the
    /// link.
    fn send(
        outbox: &mut Outbox,
        ctx: &mut Ctx<'_, NetMsg>,
        dst: NodeIndex,
        frame: Frame<'_>,
        msg: impl FnOnce(f64) -> NetMsg,
    ) -> f64 {
        let delay = outbox.price(ctx.now(), frame);
        ctx.send_after(dst, delay, msg(delay));
        delay
    }

    /// Sends `parts` on their way ([`Outbox::route`], the dispatch phase),
    /// then delivers the ones bound for groups hosted right here (the
    /// deliver phase). Nothing on the send path reads group state, so
    /// delivering after the sends changes nothing but the timing split.
    fn dispatch(&mut self, ctx: &mut Ctx<'_, NetMsg>, parts: Vec<YPart>) {
        let start = Instant::now();
        let now = ctx.now();
        let (local, packages) = self.outbox.route(now, self.me, &self.shared, parts);
        for (dst, lookup_delay, parts) in packages {
            let (parts, link) = (Arc::new(parts), &mut self.link);
            Self::send(&mut self.outbox, ctx, dst, Frame::Data(&parts, lookup_delay), |delay| {
                NetMsg::Data { seq: link.track(now, delay, dst, &parts), parts: Arc::clone(&parts) }
            });
        }
        let routed = Instant::now();
        for part in &local {
            self.deliver_local(part);
        }
        self.phase.dispatch += (routed - start).as_secs_f64();
        self.phase.deliver += routed.elapsed().as_secs_f64();
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
    /// priced like §4.5 rank updates and pay the sender's uplink —
    /// survivability competes for the same bandwidth as the `Y` exchange.
    fn ship_checkpoints(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let k = self.shared.cfg.replication;
        // BTreeMap: the per-replica send order must be deterministic.
        let mut per_dst: BTreeMap<NodeIndex, Vec<GroupSnapshot>> = BTreeMap::new();
        for ranker in &self.groups {
            let gid = ranker.ctx().group_id();
            if self.shared.owner_of.read()[gid as usize] != self.me {
                continue; // not ours to checkpoint (transient misplacement)
            }
            let key = self.shared.key_of[gid as usize];
            let reps = self.shared.routed(|ov, cache| cache.replicas(ov, key, k));
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
            // One hop: replicas are the owner's overlay neighbors (Pastry
            // leaf set, Chord successor list) by construction.
            let snaps = Arc::new(snaps);
            Self::send(&mut self.outbox, ctx, dst, Frame::Checkpoint(&snaps), |_| {
                NetMsg::Checkpoint { snaps: Arc::clone(&snaps) }
            });
        }
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
        let now = ctx.now();
        // 1. Retransmit unacked packages whose deadline passed. The
        //    retransmitted package shares the original's allocation:
        //    byte-for-byte the same payload, no copy.
        let outbox = &mut self.outbox;
        self.link.retransmit_due(now, |dst, seq, parts| {
            Self::send(outbox, ctx, dst, Frame::Data(parts, 0.0), |_| NetMsg::Data {
                seq: Some(seq),
                parts: Arc::clone(parts),
            })
        });

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
        let cfg = &self.shared.cfg;
        if cfg.replication > 0 {
            let every = cfg.checkpoint_every;
            let timeout = f64::from(cfg.suspect_after) * every;
            let groups = &self.groups;
            let owners = self.shared.owner_of.read();
            let adopt = self.replica.suspects(now, timeout, self.me, &owners, |gid| {
                groups.iter().any(|g| g.ctx().group_id() == gid)
            });
            drop(owners);
            for gid in adopt {
                let ctx = Arc::clone(&self.shared.contexts.read()[gid as usize]);
                let ranker = self.replica.adopt(gid, ctx);
                self.groups.push(ranker);
            }
            if now - self.replica.last_checkpoint >= every {
                self.ship_checkpoints(ctx);
                self.replica.last_checkpoint = now;
            }
        }

        let w = sample_wait(self.mean_wait, ctx.rng());
        ctx.schedule_wake(w);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NetMsg>, from: usize, msg: NetMsg) {
        if !self.active {
            return; // a departed node neither relays nor delivers
        }
        let parts = match msg {
            NetMsg::Ack { seq } => {
                self.link.pending.remove(&seq);
                return;
            }
            NetMsg::Checkpoint { snaps } => return self.replica.ingest(ctx.now(), &snaps),
            NetMsg::Data { seq, parts } => {
                if let Some(seq) = seq {
                    // Ack first — even for duplicates, since the previous
                    // ack may have been lost.
                    Self::send(&mut self.outbox, ctx, from, Frame::Ack, |_| NetMsg::Ack { seq });
                    if !self.link.accept(from, seq) {
                        return;
                    }
                }
                parts
            }
        };
        // Fire-and-forget packages arrive holding the last `Arc` reference,
        // so the parts move out without a copy; only a reliable-mode sender
        // still holding the payload for retransmission forces a clone.
        let parts = Arc::try_unwrap(parts).unwrap_or_else(|shared| {
            self.payload_clones += 1;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn part(src_group: GroupId, dest_group: GroupId, score: f64) -> YPart {
        YPart { src_group, dest_group, pattern: Arc::from([0]), scores: Arc::new(vec![score]) }
    }

    fn snap(group: GroupId, epoch: u64, r: f64) -> GroupSnapshot {
        GroupSnapshot { group, epoch, r: Arc::new(vec![r]), afferent: Arc::new(Vec::new()) }
    }

    fn link(max_retries: u32) -> ReliableLink {
        let rel = Reliability { ack_timeout: 1.0, max_retries, backoff: 2.0 };
        ReliableLink { rel: Some(rel), ..ReliableLink::default() }
    }

    #[test]
    fn frames_pay_their_bytes_and_data_queues_on_the_uplink() {
        // The netrun tests see the uplink only as slower convergence: here
        // each frame's bytes and each delay are exact. 80 bytes per unit
        // serializes a 240-byte package in 3.
        let cfg = NetRunConfig {
            hop_latency: 0.5,
            bottleneck_bytes_per_time: Some(80.0),
            ..NetRunConfig::default()
        };
        let mut outbox = Outbox::new(Arc::new(cfg));
        let parts = [part(0, 1, 0.1), part(0, 2, 0.2)];
        assert_eq!(outbox.price(10.0, Frame::Data(&parts, 0.25)), 0.5 + 3.0 + 0.25);
        // Busy until 13: a 140-byte package at 11 leaves at 14.75.
        assert_eq!(outbox.price(11.0, Frame::Data(&parts[..1], 0.0)), 0.5 + 3.75);
        // Acks, lookups and deltas are charged but never queue.
        assert_eq!(outbox.price(11.0, Frame::Ack), 0.0);
        assert_eq!(outbox.price(11.0, Frame::Lookup(3)), 0.0);
        assert_eq!(outbox.price(11.0, Frame::Delta(60)), 0.0);
        assert_eq!(outbox.price(11.0, Frame::Checkpoint(&[snap(0, 1, 0.5)])), 0.5 + 5.5);
        let c = outbox.counters;
        assert_eq!((c.data_messages, c.acks, c.lookup_messages), (2, 1, 3));
        assert_eq!((c.delta_messages, c.delta_bytes), (1, 100));
        assert_eq!((c.checkpoints_sent, c.checkpoint_bytes), (1, 140));
        assert_eq!(c.bytes, 240 + 140 + 40 + 3 * 50 + 100 + 140);
    }

    #[test]
    fn coalescing_keeps_the_newest_part_at_the_earliest_position() {
        // tests/message_path.rs pins coalescing as rank-neutral, not the
        // order its parts leave in.
        let mut outbox = Outbox::new(Arc::new(NetRunConfig::default()));
        let mut parts = vec![
            part(0, 1, 0.1),
            part(2, 1, 0.2),
            part(0, 1, 0.3),
            part(0, 3, 0.4),
            part(2, 1, 0.5),
        ];
        outbox.coalesce_parts(&mut parts);
        let got: Vec<_> = parts.iter().map(|p| (p.src_group, p.dest_group, p.scores[0])).collect();
        assert_eq!(got, [(0, 1, 0.3), (2, 1, 0.5), (0, 3, 0.4)]);
        assert_eq!(outbox.counters.coalesced_parts, 2);
    }

    #[test]
    fn the_timeout_doubles_per_retry_and_counts_from_each_send() {
        // The netrun tests count retries; none pins when each one fires.
        assert_eq!(ReliableLink::default().track(0.0, 0.0, 1, &Arc::new(Vec::new())), None);
        let mut link = link(5);
        let parts = Arc::new(vec![part(0, 1, 0.5)]);
        assert_eq!(link.track(10.0, 0.25, 3, &parts), Some(0));
        assert_eq!(link.pending[&0].deadline, 10.0 + 0.25 + 1.0);
        link.retransmit_due(11.0, |_, _, _| panic!("not due before its deadline"));
        let (mut now, mut rto, mut sent) = (11.25, 1.0, 0);
        for _ in 0..3 {
            link.retransmit_due(now, |dst, seq, resent| {
                assert!((dst, seq) == (3, 0) && Arc::ptr_eq(resent, &parts));
                sent += 1;
                0.5
            });
            rto *= 2.0;
            assert_eq!((link.pending[&0].rto, link.pending[&0].deadline), (rto, now + 0.5 + rto));
            now = link.pending[&0].deadline;
        }
        assert_eq!((sent, link.counters.retries), (3, 3));
    }

    #[test]
    fn an_abandoned_package_gives_up_every_part_it_carried() {
        // tests/fault_recovery.rs bounds `gave_up` only by `retry_exhausted`.
        let mut link = link(1);
        let parts = Arc::new(vec![part(0, 1, 0.5), part(0, 2, 0.25), part(4, 1, 1.0)]);
        link.track(0.0, 0.0, 1, &parts);
        link.retransmit_due(1.0, |_, _, _| 0.0);
        link.retransmit_due(3.0, |_, _, _| panic!("the budget allows one retry"));
        let c = link.counters;
        assert_eq!((c.retries, c.retry_exhausted, c.gave_up), (1, 1, 3));
        assert!(link.pending.is_empty());
    }

    #[test]
    fn a_duplicate_is_refused_and_counted() {
        // The netrun tests pin zero duplicates on a clean network, never a
        // suppressed one.
        let mut link = link(5);
        assert!(link.accept(4, 7));
        assert!(link.accept(5, 7), "sequence numbers are per sender");
        assert!(!link.accept(4, 7));
        assert_eq!(link.counters.duplicates_suppressed, 1);
    }

    #[test]
    fn an_older_checkpoint_proves_life_but_never_rolls_back() {
        // No netrun test delivers checkpoints out of order.
        let mut replica = Replica::default();
        replica.ingest(4.0, &[snap(7, 5, 0.5)]);
        replica.ingest(6.0, &[snap(7, 3, 0.1)]);
        let held = &replica.store[&7];
        assert_eq!((held.snap.epoch, held.snap.r[0], held.last_heard), (5, 0.5, 6.0));
        replica.ingest(8.0, &[snap(7, 6, 0.7)]);
        let held = &replica.store[&7];
        assert_eq!((held.snap.epoch, held.snap.r[0], held.last_heard), (6, 0.7, 8.0));
    }

    #[test]
    fn takeover_waits_the_whole_suspicion_timeout() {
        // warm_takeover_beats_cold_restart rules cold takeovers out
        // altogether; nothing pins when either clock fires. Node 2 owns
        // groups 0, 2 and 3 and hosts 2; `suspect_after × checkpoint_every`
        // = 2 × 4.
        let (me, timeout, owners) = (2, 2.0 * 4.0, [2, 0, 2, 2]);
        let mut replica = Replica::default();
        let mut suspects = |now| replica.suspects(now, timeout, me, &owners, |gid| gid == 2);
        assert!(suspects(10.0).is_empty(), "the orphan clocks start");
        assert!(suspects(17.5).is_empty());
        assert_eq!(suspects(18.0), [0, 3], "no checkpoint ever came: cold");
        // A checkpoint stops group 3's orphan clock; its owner is
        // suspected only `timeout` after it was last heard from.
        replica.ingest(12.0, &[snap(3, 1, 0.5)]);
        let mut suspects = |now| replica.suspects(now, timeout, me, &owners, |gid| gid == 2);
        assert_eq!(suspects(19.5), [0]);
        assert_eq!(suspects(20.0), [0, 3], "silent since 12: warm");
    }
}
