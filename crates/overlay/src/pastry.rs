//! Pastry-style prefix-routing overlay (Rowstron & Druschel \[6\]).
//!
//! Node ids are 128-bit numbers read as 32 base-16 digits. Each node keeps:
//!
//! * a **routing table** — row `r` holds, for each digit value `d`, some node
//!   sharing exactly the first `r` digits with this node and having digit
//!   `d` at position `r`;
//! * a **leaf set** — the `L` nodes numerically adjacent to this node.
//!
//! A message for key `k` is forwarded to the routing-table entry matching one
//! more digit of `k`; once `k` falls within the leaf-set span the numerically
//! closest leaf delivers it. Expected hop count is `O(log₁₆ N)` — about 2.5
//! hops at 1000 nodes, 3.5 at 10 000 and 4.0 at 100 000, which are exactly
//! the `h` constants the paper plugs into Table 1.
//!
//! The bulk constructor builds *converged* state from a global membership
//! view (the steady state a long-running Pastry network reaches), while
//! [`PastryNetwork::join`] implements the incremental protocol: the joining
//! node routes a join message to its own id, copies row `i` of its routing
//! table from the `i`-th node on the path, adopts the destination's leaf
//! neighborhood, and announces itself so existing nodes can fill empty
//! slots. Numeric closeness uses plain `|a − b|` on the id space.

use crate::id::{NodeId, N_DIGITS, RADIX};
use crate::{NodeIndex, Overlay};

/// Sentinel for an empty routing-table slot.
const EMPTY: u32 = u32::MAX;

/// Half leaf-set size (`L/2`; Pastry's default configuration keeps 8 leaves
/// on each side, `L = 16`).
const DEFAULT_LEAF_HALF: usize = 8;

/// One node's routing table: `rows[r][d]` is the handle of a node sharing
/// the first `r` digits with the owner and having digit `d` at position `r`
/// (or [`EMPTY`]). Only the rows that can be non-trivial are stored.
#[derive(Debug, Clone)]
struct RoutingTable {
    rows: Vec<[u32; RADIX]>,
}

impl RoutingTable {
    fn empty(n_rows: usize) -> Self {
        Self { rows: vec![[EMPTY; RADIX]; n_rows] }
    }

    fn get(&self, row: usize, digit: usize) -> Option<u32> {
        let v = *self.rows.get(row)?.get(digit)?;
        (v != EMPTY).then_some(v)
    }
}

/// A simulated Pastry network over a fixed (but joinable) membership.
#[derive(Debug, Clone)]
pub struct PastryNetwork {
    /// Append-only node ids; `NodeIndex` = position here (stable across
    /// joins).
    nodes: Vec<NodeId>,
    /// Handles sorted by id.
    order: Vec<u32>,
    /// `rank[h]` = position of handle `h` in `order`.
    rank: Vec<u32>,
    /// Per-node routing tables.
    tables: Vec<RoutingTable>,
    /// Liveness per handle; departed nodes leave stale table entries that
    /// routing skips until [`PastryNetwork::repair`] rebuilds.
    alive: Vec<bool>,
    /// Optional physical coordinates per node (unit square). When present,
    /// table construction is *proximity-aware*: among the candidates for a
    /// routing-table slot, the physically nearest is chosen (Pastry's
    /// "proximity neighbor selection"). Hop counts are unchanged; per-hop
    /// network distance drops.
    locations: Option<Vec<(f64, f64)>>,
    leaf_half: usize,
    /// Topology version for [`crate::RouteCache`] invalidation; bumped by
    /// every `join`/`depart`/`repair`.
    generation: u64,
}

impl PastryNetwork {
    /// Builds a converged network of `n` nodes with ids derived from
    /// `seed` (deterministic).
    #[must_use]
    pub fn with_nodes(n: usize, seed: u64) -> Self {
        Self::from_ids((0..n).map(|i| Self::node_id(seed, i)).collect())
    }

    /// The id [`Self::with_nodes`] gives node `i` of a network built from
    /// `seed`.
    #[must_use]
    pub fn node_id(seed: u64, i: usize) -> NodeId {
        NodeId::from_seed(seed ^ ((i as u64) << 1))
    }

    /// Like [`Self::with_nodes`] but places every node at a deterministic
    /// point in the unit square and selects routing-table entries by
    /// physical proximity (PNS). Compare [`Self::mean_route_distance`]
    /// against the proximity-oblivious network to see the effect.
    #[must_use]
    pub fn with_nodes_and_proximity(n: usize, seed: u64) -> Self {
        let mut net = Self::with_nodes(n, seed);
        let locations: Vec<(f64, f64)> = (0..n as u64)
            .map(|i| {
                let hx = crate::id::splitmix64(seed ^ i ^ 0x10C0);
                let hy = crate::id::splitmix64(seed ^ i ^ 0x10C1);
                ((hx >> 11) as f64 / (1u64 << 53) as f64, (hy >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect();
        net.locations = Some(locations);
        // Rebuild tables with proximity-aware slot selection.
        net.repair();
        net
    }

    /// Physical distance between two nodes (0 when no proximity space is
    /// attached).
    #[must_use]
    pub fn distance_between(&self, a: NodeIndex, b: NodeIndex) -> f64 {
        match &self.locations {
            None => 0.0,
            Some(loc) => {
                let (ax, ay) = loc[a];
                let (bx, by) = loc[b];
                ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
            }
        }
    }

    /// Detaches the proximity space (benchmark helper: rebuild tables
    /// obliviously, then [`Self::restore_locations_for_benchmark`]).
    #[doc(hidden)]
    pub fn strip_locations_for_benchmark(&mut self) -> Option<Vec<(f64, f64)>> {
        self.locations.take()
    }

    /// Re-attaches a proximity space detached by
    /// [`Self::strip_locations_for_benchmark`].
    #[doc(hidden)]
    pub fn restore_locations_for_benchmark(&mut self, loc: Option<Vec<(f64, f64)>>) {
        self.locations = loc;
    }

    /// Mean physical route distance over `samples` random lookups — the
    /// latency proxy PNS optimizes. Requires a proximity space.
    #[must_use]
    pub fn mean_route_distance(&self, samples: usize, seed: u64) -> f64 {
        assert!(self.locations.is_some(), "no proximity space attached");
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let live: Vec<usize> = (0..self.nodes.len()).filter(|&i| self.alive[i]).collect();
        let mut total = 0.0;
        for _ in 0..samples {
            let src = live[rng.gen_range(0..live.len())];
            let key = crate::id::key_from_u64(rng.gen());
            let mut cur = src;
            for &hop in &self.route(src, key) {
                total += self.distance_between(cur, hop);
                cur = hop;
            }
        }
        total / samples as f64
    }

    /// Builds a converged network from explicit ids.
    ///
    /// # Panics
    /// If `ids` is empty or contains duplicates.
    #[must_use]
    pub fn from_ids(ids: Vec<NodeId>) -> Self {
        assert!(!ids.is_empty(), "a network needs at least one node");
        let n = ids.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&h| ids[h as usize]);
        assert!(
            order.windows(2).all(|w| ids[w[0] as usize] != ids[w[1] as usize]),
            "duplicate node ids"
        );
        let mut rank = vec![0u32; n];
        for (pos, &h) in order.iter().enumerate() {
            rank[h as usize] = pos as u32;
        }
        let mut net = Self {
            nodes: ids,
            order,
            rank,
            tables: Vec::with_capacity(n),
            alive: vec![true; n],
            locations: None,
            leaf_half: DEFAULT_LEAF_HALF,
            generation: 0,
        };
        for h in 0..n {
            let t = net.build_table_for(Some(h), net.nodes[h]);
            net.tables.push(t);
        }
        net
    }

    /// Number of digits a table needs before prefix ranges collapse to
    /// single nodes: `⌈log₁₆ n⌉ + 2` rows is always enough in practice, but
    /// we simply stop when the range is a singleton.
    fn build_table_for(&self, owner: Option<NodeIndex>, id: NodeId) -> RoutingTable {
        let max_rows = N_DIGITS;
        let mut table = RoutingTable::empty(0);
        for r in 0..max_rows {
            let (lo, hi) = self.prefix_range(id, r);
            if hi - lo <= 1 {
                break; // only this id's own region remains
            }
            let mut row = [EMPTY; RADIX];
            let own_digit = id.digit(r);
            for (d, slot) in row.iter_mut().enumerate() {
                if d == own_digit {
                    continue;
                }
                let pick = match (owner, &self.locations) {
                    // Proximity-aware: nearest candidate in the slot range.
                    (Some(me), Some(_)) => self.nearest_in_prefix_digit(me, id, r, d, lo, hi),
                    _ => self.first_in_prefix_digit(id, r, d, lo, hi),
                };
                if let Some(h) = pick {
                    if self.nodes[h as usize] != id {
                        *slot = h;
                    }
                }
            }
            table.rows.push(row);
        }
        table
    }

    /// Sorted-order sub-range of candidates sharing `r` digits with `id`
    /// and having digit `d` at position `r`.
    fn digit_range(&self, id: NodeId, r: usize, d: usize, lo: usize, hi: usize) -> (usize, usize) {
        let bits = 4 * r as u32;
        let mask: u128 = if bits == 0 { 0 } else { !((1u128 << (128 - bits)) - 1) };
        let shift = 128 - bits - 4;
        let base = (id.0 & mask) | ((d as u128) << shift);
        let start = self.order[lo..hi].partition_point(|&h| self.nodes[h as usize].0 < base) + lo;
        let span = 1u128 << shift;
        let end = match base.checked_add(span) {
            Some(limit) => {
                self.order[lo..hi].partition_point(|&h| self.nodes[h as usize].0 < limit) + lo
            }
            None => hi,
        };
        (start, end)
    }

    /// The physically nearest candidate for slot `(r, d)` — Pastry's
    /// proximity neighbor selection.
    fn nearest_in_prefix_digit(
        &self,
        me: NodeIndex,
        id: NodeId,
        r: usize,
        d: usize,
        lo: usize,
        hi: usize,
    ) -> Option<u32> {
        let (start, end) = self.digit_range(id, r, d, lo, hi);
        self.order[start..end].iter().copied().filter(|&h| self.alive[h as usize]).min_by(
            |&a, &b| {
                self.distance_between(me, a as NodeIndex)
                    .total_cmp(&self.distance_between(me, b as NodeIndex))
            },
        )
    }

    /// Sorted-order range `[lo, hi)` of nodes sharing the first `r` digits
    /// of `id`.
    fn prefix_range(&self, id: NodeId, r: usize) -> (usize, usize) {
        if r == 0 {
            return (0, self.order.len());
        }
        let bits = 4 * r as u32;
        let mask: u128 = if bits >= 128 { u128::MAX } else { !((1u128 << (128 - bits)) - 1) };
        let base = id.0 & mask;
        let lo = self.order.partition_point(|&h| self.nodes[h as usize].0 < base);
        let hi = if bits == 0 {
            self.order.len()
        } else {
            let span = 1u128 << (128 - bits);
            match base.checked_add(span) {
                Some(end) => self.order.partition_point(|&h| self.nodes[h as usize].0 < end),
                None => self.order.len(),
            }
        };
        (lo, hi)
    }

    /// First node (in sorted order) whose id shares `r` digits with `id` and
    /// has digit `d` at position `r`; searched within the prefix range
    /// `[lo, hi)`.
    fn first_in_prefix_digit(
        &self,
        id: NodeId,
        r: usize,
        d: usize,
        lo: usize,
        hi: usize,
    ) -> Option<u32> {
        let bits = 4 * r as u32;
        let mask: u128 = if bits == 0 { 0 } else { !((1u128 << (128 - bits)) - 1) };
        let shift = 128 - bits - 4;
        let base = (id.0 & mask) | ((d as u128) << shift);
        let start = self.order[lo..hi].partition_point(|&h| self.nodes[h as usize].0 < base) + lo;
        if start < hi {
            let h = self.order[start];
            let cand = self.nodes[h as usize];
            if cand.shared_prefix_len(id).min(N_DIGITS) >= r && cand.digit(r) == d {
                return Some(h);
            }
        }
        None
    }

    /// The id of node `h`.
    #[must_use]
    pub fn id_of(&self, h: NodeIndex) -> NodeId {
        self.nodes[h]
    }

    /// Handles of the leaf set of `h` (up to `L/2` on each numeric side,
    /// clamped at the ends of the id space), excluding `h` itself.
    #[must_use]
    pub fn leaf_set(&self, h: NodeIndex) -> Vec<NodeIndex> {
        let r = self.rank[h] as usize;
        self.leaf_positions(h).filter(|&p| p != r).map(|p| self.order[p] as NodeIndex).collect()
    }

    /// Sorted-order positions spanned by `h`'s leaf set, *including* `h`'s
    /// own position. `next_hop` iterates this range directly so the routing
    /// hot path never materializes a leaf-set vector.
    fn leaf_positions(&self, h: NodeIndex) -> std::ops::Range<usize> {
        let r = self.rank[h] as usize;
        let lo = r.saturating_sub(self.leaf_half);
        let hi = (r + self.leaf_half + 1).min(self.order.len());
        lo..hi
    }

    /// Incremental join: derives a fresh id from `seed`, routes a join
    /// message from `bootstrap`, initializes the new node's routing table
    /// from the path, and fills empty slots in existing tables. Returns the
    /// new node's handle.
    ///
    /// # Panics
    /// If the derived id collides with an existing node (astronomically
    /// unlikely; re-seed).
    pub fn join(&mut self, bootstrap: NodeIndex, seed: u64) -> NodeIndex {
        let id = NodeId::from_seed(seed);
        assert!(self.nodes.iter().all(|&n| n != id), "id collision on join; pick another seed");
        // Path the join message takes through the current network.
        let mut path = vec![bootstrap];
        path.extend(self.route(bootstrap, id.0));

        // Insert into membership.
        let h = self.nodes.len();
        self.nodes.push(id);
        self.alive.push(true);
        if let Some(loc) = &mut self.locations {
            let hx = crate::id::splitmix64(seed ^ 0x10C0);
            let hy = crate::id::splitmix64(seed ^ 0x10C1);
            loc.push((
                (hx >> 11) as f64 / (1u64 << 53) as f64,
                (hy >> 11) as f64 / (1u64 << 53) as f64,
            ));
        }
        let pos = self.order.partition_point(|&o| self.nodes[o as usize] < id);
        self.order.insert(pos, h as u32);
        self.rank = vec![0; self.nodes.len()];
        for (p, &o) in self.order.iter().enumerate() {
            self.rank[o as usize] = p as u32;
        }

        // Build the new node's table: row i seeded from the i-th path node's
        // row i (their first i digits match ours well enough in converged
        // networks); then patch with exact candidates where available.
        let mut table = RoutingTable::empty(0);
        for r in 0..N_DIGITS {
            let (lo, hi) = self.prefix_range(id, r);
            if hi - lo <= 1 {
                break;
            }
            let mut row = [EMPTY; RADIX];
            if let Some(&donor) = path.get(r) {
                if let Some(donor_row) = self.tables[donor].rows.get(r) {
                    row = *donor_row;
                }
            }
            // Patch: remove entries whose prefix no longer matches ours and
            // fill gaps from the global view (converged-state correction).
            let own_digit = id.digit(r);
            for (d, slot) in row.iter_mut().enumerate() {
                if d == own_digit {
                    *slot = EMPTY;
                    continue;
                }
                let valid = slot
                    .checked_sub(0)
                    .filter(|&s| s != EMPTY)
                    .map(|s| {
                        let cand = self.nodes[s as usize];
                        cand.shared_prefix_len(id) >= r && cand.digit(r) == d
                    })
                    .unwrap_or(false);
                if !valid {
                    *slot = EMPTY;
                    if let Some(c) = self.first_in_prefix_digit(id, r, d, lo, hi) {
                        *slot = c;
                    }
                }
            }
            table.rows.push(row);
        }
        self.tables.push(table);

        // Announce: existing nodes adopt the newcomer into empty slots.
        for other in 0..h {
            let oid = self.nodes[other];
            let r = oid.shared_prefix_len(id);
            if r >= N_DIGITS {
                continue;
            }
            let d = id.digit(r);
            while self.tables[other].rows.len() <= r {
                let rows = self.tables[other].rows.len();
                let _ = rows;
                self.tables[other].rows.push([EMPTY; RADIX]);
            }
            if self.tables[other].rows[r][d] == EMPTY {
                self.tables[other].rows[r][d] = h as u32;
            }
        }
        self.generation += 1;
        h
    }
}

impl PastryNetwork {
    /// Whether node `h` is still a member.
    #[must_use]
    pub fn is_alive(&self, h: NodeIndex) -> bool {
        self.alive[h]
    }

    /// Number of live nodes (the [`Overlay`] trait's `n_nodes` counts
    /// handles, including departed ones, because handles must stay stable).
    #[must_use]
    pub fn n_alive(&self) -> usize {
        self.order.len()
    }

    /// Node departure (crash or voluntary leave). The node disappears from
    /// the sorted membership immediately — leaf sets, which are derived
    /// from the sorted order, self-repair — while other nodes' routing
    /// tables keep a stale entry that routing skips until [`Self::repair`].
    /// This mirrors real Pastry: leaf-set repair is eager, routing-table
    /// repair is lazy.
    ///
    /// # Panics
    /// If `h` already departed or is the last live node.
    pub fn depart(&mut self, h: NodeIndex) {
        assert!(self.alive[h], "node {h} already departed");
        assert!(self.order.len() > 1, "cannot remove the last node");
        self.alive[h] = false;
        let pos = self.rank[h] as usize;
        self.order.remove(pos);
        for (p, &o) in self.order.iter().enumerate() {
            self.rank[o as usize] = p as u32;
        }
        self.generation += 1;
    }

    /// Rebuilds every live node's routing table from the current
    /// membership (the eventual outcome of Pastry's background table
    /// maintenance after churn).
    pub fn repair(&mut self) {
        for h in 0..self.nodes.len() {
            if self.alive[h] {
                self.tables[h] = self.build_table_for(Some(h), self.nodes[h]);
            }
        }
        self.generation += 1;
    }
}

impl Overlay for PastryNetwork {
    fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn node_key(&self, idx: NodeIndex) -> u128 {
        self.nodes[idx].0
    }

    fn responsible(&self, key: u128) -> NodeIndex {
        // Numerically closest id; tie broken toward the smaller id.
        let pos = self.order.partition_point(|&h| self.nodes[h as usize].0 < key);
        let mut best: Option<(u128, NodeIndex)> = None;
        for p in [pos.wrapping_sub(1), pos] {
            if p < self.order.len() {
                let h = self.order[p] as NodeIndex;
                let d = self.nodes[h].distance(NodeId(key));
                if best.is_none_or(|(bd, bh)| {
                    d < bd || (d == bd && self.nodes[h].0 < self.nodes[bh].0)
                }) {
                    best = Some((d, h));
                }
            }
        }
        best.expect("non-empty network").1
    }

    fn route(&self, src: NodeIndex, key: u128) -> Vec<NodeIndex> {
        let mut path = Vec::new();
        let mut cur = src;
        while let Some(nh) = self.next_hop(cur, key) {
            debug_assert!(
                self.nodes[nh].distance(NodeId(key)) < self.nodes[cur].distance(NodeId(key)),
                "routing must strictly approach the key"
            );
            path.push(nh);
            cur = nh;
        }
        path
    }

    fn next_hop(&self, src: NodeIndex, key: u128) -> Option<NodeIndex> {
        assert!(self.alive[src], "routing from departed node {src}");
        let target = NodeId(key);
        let resp = self.responsible(key);
        if resp == src {
            return None;
        }
        let my = self.nodes[src];
        let my_dist = my.distance(target);

        // (1) Leaf-set delivery: if the responsible node is within our leaf
        //     span, hop straight to the numerically closest leaf. Leaf-set
        //     membership is a rank-range check on the sorted order, so no
        //     vector is allocated per hop.
        let leaf_range = self.leaf_positions(src);
        if leaf_range.contains(&(self.rank[resp] as usize)) {
            return Some(resp);
        }

        // (2) Prefix routing: match one more digit (skipping entries that
        //     point at departed nodes — lazy table repair).
        let l = my.shared_prefix_len(target);
        if let Some(t) = self.tables[src].get(l, target.digit(l)) {
            let t = t as NodeIndex;
            if self.alive[t] && self.nodes[t].distance(target) < my_dist {
                return Some(t);
            }
        }

        // (3) Rare case: any known node with an equal-or-longer shared
        //     prefix that is strictly closer; the closest leaf always
        //     qualifies as a last resort (it moves us along the sorted
        //     order toward the key).
        let mut best: Option<(u128, NodeIndex)> = None;
        let mut consider = |h: NodeIndex| {
            // Lazy repair: skip stale entries naming departed nodes.
            if !self.alive[h] {
                return;
            }
            let cand = self.nodes[h];
            let d = cand.distance(target);
            if d < my_dist
                && cand.shared_prefix_len(target) >= l
                && best.is_none_or(|(bd, _)| d < bd)
            {
                best = Some((d, h));
            }
        };
        for p in leaf_range.clone() {
            let h = self.order[p] as NodeIndex;
            if h != src {
                consider(h);
            }
        }
        for row in &self.tables[src].rows {
            for &e in row.iter() {
                if e != EMPTY {
                    consider(e as NodeIndex);
                }
            }
        }
        if best.is_none() {
            // Fall back to pure leaf-walking (strictly decreasing distance,
            // no prefix requirement) — guarantees termination.
            for p in leaf_range {
                let h = self.order[p] as NodeIndex;
                if h == src {
                    continue;
                }
                let d = self.nodes[h].distance(target);
                if d < my_dist && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, h));
                }
            }
        }
        best.map(|(_, h)| h)
    }

    fn is_live(&self, idx: NodeIndex) -> bool {
        self.alive[idx]
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn replicas(&self, key: u128, k: usize) -> Vec<NodeIndex> {
        if k == 0 || self.order.len() <= 1 {
            return Vec::new();
        }
        // The k+1 numerically closest live nodes all sit within k+1 sorted
        // positions of the key's insertion point, so a clamped window is
        // enough — same non-wrapping shape as the leaf ranges.
        let target = NodeId(key);
        let pos = self.order.partition_point(|&h| self.nodes[h as usize].0 < key);
        let lo = pos.saturating_sub(k + 1);
        let hi = (pos + k + 1).min(self.order.len());
        let mut cand: Vec<NodeIndex> = self.order[lo..hi].iter().map(|&h| h as NodeIndex).collect();
        // (distance, id) is exactly `responsible`'s ordering, so cand[0] is
        // the current owner and cand[1..] the succession order.
        cand.sort_by_key(|&h| (self.nodes[h].distance(target), self.nodes[h].0));
        debug_assert_eq!(cand[0], self.responsible(key));
        cand.into_iter().skip(1).take(k).collect()
    }

    fn neighbors(&self, idx: NodeIndex) -> Vec<NodeIndex> {
        let mut out = self.leaf_set(idx);
        for row in &self.tables[idx].rows {
            for &e in row.iter() {
                if e != EMPTY && self.alive[e as usize] {
                    out.push(e as NodeIndex);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&h| h != idx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::key_from_u64;

    #[test]
    fn single_node_network() {
        let net = PastryNetwork::with_nodes(1, 7);
        assert_eq!(net.n_nodes(), 1);
        assert_eq!(net.responsible(key_from_u64(5)), 0);
        assert!(net.route(0, key_from_u64(5)).is_empty());
        assert!(net.neighbors(0).is_empty());
    }

    #[test]
    fn responsible_is_numerically_closest() {
        let net = PastryNetwork::with_nodes(64, 3);
        for k in 0..200u64 {
            let key = key_from_u64(k);
            let resp = net.responsible(key);
            let best = (0..net.n_nodes())
                .min_by_key(|&h| (net.id_of(h).distance(NodeId(key)), net.id_of(h).0))
                .unwrap();
            assert_eq!(resp, best);
        }
    }

    #[test]
    fn routing_always_delivers() {
        let net = PastryNetwork::with_nodes(200, 11);
        for k in 0..300u64 {
            let key = key_from_u64(k);
            let resp = net.responsible(key);
            for src in [0usize, 57, 199] {
                let path = net.route(src, key);
                let last = path.last().copied().unwrap_or(src);
                assert_eq!(last, resp, "key {k} from {src}");
                assert!(path.len() <= net.n_nodes(), "path too long");
            }
        }
    }

    #[test]
    fn routes_are_logarithmically_short() {
        let net = PastryNetwork::with_nodes(1000, 5);
        let mut total = 0usize;
        let samples = 500;
        for k in 0..samples as u64 {
            let key = key_from_u64(k ^ 0xABCD);
            total += net.route((k as usize * 37) % 1000, key).len();
        }
        let avg = total as f64 / samples as f64;
        // log16(1000) ≈ 2.49; the paper quotes ~2.5 hops at 1000 nodes.
        assert!((1.5..=3.5).contains(&avg), "avg hops {avg} out of Pastry's expected band");
    }

    #[test]
    fn neighbors_contain_all_next_hops() {
        let net = PastryNetwork::with_nodes(150, 23);
        for src in 0..20 {
            let nbrs = net.neighbors(src);
            for k in 0..50u64 {
                if let Some(nh) = net.next_hop(src, key_from_u64(k)) {
                    assert!(nbrs.contains(&nh), "next hop {nh} not a neighbor of {src}");
                }
            }
        }
    }

    #[test]
    fn neighbor_counts_are_dozens_not_hundreds() {
        // §4.4: "one node commonly has roughly some dozens of neighbors".
        let net = PastryNetwork::with_nodes(1000, 9);
        let g = net.mean_neighbors();
        assert!((10.0..=80.0).contains(&g), "mean neighbors {g}");
    }

    #[test]
    fn join_inserts_routable_node() {
        let mut net = PastryNetwork::with_nodes(100, 31);
        let newcomer = net.join(0, 0xBEEF);
        assert_eq!(net.n_nodes(), 101);
        // The newcomer's own id must now route to the newcomer from
        // anywhere.
        let key = net.id_of(newcomer).0;
        for src in [0usize, 50, 99] {
            let path = net.route(src, key);
            assert_eq!(path.last().copied().unwrap_or(src), newcomer);
        }
        // And the newcomer can reach everyone else.
        for k in 0..50u64 {
            let key = key_from_u64(k);
            let resp = net.responsible(key);
            let path = net.route(newcomer, key);
            assert_eq!(path.last().copied().unwrap_or(newcomer), resp);
        }
    }

    #[test]
    fn repeated_joins_keep_network_consistent() {
        let mut net = PastryNetwork::with_nodes(50, 77);
        for j in 0..25u64 {
            net.join((j as usize) % net.n_nodes(), 0x1000 + j);
        }
        assert_eq!(net.n_nodes(), 75);
        for k in 0..100u64 {
            let key = key_from_u64(k);
            let resp = net.responsible(key);
            let path = net.route((k as usize) % 75, key);
            assert_eq!(path.last().copied().unwrap_or((k as usize) % 75), resp);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node ids")]
    fn duplicate_ids_rejected() {
        let _ = PastryNetwork::from_ids(vec![NodeId(1), NodeId(1)]);
    }

    #[test]
    fn routing_survives_departures_without_repair() {
        let mut net = PastryNetwork::with_nodes(200, 41);
        // 20% of nodes crash; leaf sets self-repair, routing tables go
        // stale but routing must still deliver (lazily skipping the dead).
        for h in (0..200).step_by(5) {
            net.depart(h);
        }
        assert_eq!(net.n_alive(), 160);
        for k in 0..200u64 {
            let key = key_from_u64(k);
            let resp = net.responsible(key);
            assert!(net.is_alive(resp), "responsible node is dead");
            for src in [1usize, 51, 199] {
                assert!(net.is_alive(src));
                let path = net.route(src, key);
                assert_eq!(path.last().copied().unwrap_or(src), resp, "key {k} from {src}");
                assert!(path.iter().all(|&h| net.is_alive(h)), "routed through a dead node");
            }
        }
    }

    #[test]
    fn repair_restores_route_quality() {
        let mut net = PastryNetwork::with_nodes(500, 43);
        for h in (0..500).step_by(3) {
            net.depart(h);
        }
        let degraded = crate::metrics::avg_route_hops(&net, 500, 1).mean;
        net.repair();
        let repaired = crate::metrics::avg_route_hops(&net, 500, 1).mean;
        assert!(
            repaired <= degraded + 1e-9,
            "repair should not worsen routes: {repaired} vs {degraded}"
        );
        // Still correct after repair.
        for k in 0..100u64 {
            let key = key_from_u64(k);
            let resp = net.responsible(key);
            let path = net.route(1, key);
            assert_eq!(path.last().copied().unwrap_or(1), resp);
        }
    }

    #[test]
    fn departure_moves_responsibility_to_a_neighbor() {
        let mut net = PastryNetwork::with_nodes(50, 47);
        let key = key_from_u64(9);
        let old = net.responsible(key);
        net.depart(old);
        let new = net.responsible(key);
        assert_ne!(new, old);
        assert!(net.is_alive(new));
    }

    #[test]
    fn join_after_departures_works() {
        let mut net = PastryNetwork::with_nodes(60, 53);
        net.depart(10);
        net.depart(20);
        let newcomer = net.join(0, 0xFACE);
        let key = net.id_of(newcomer).0;
        let path = net.route(1, key);
        assert_eq!(path.last().copied().unwrap_or(1), newcomer);
    }

    #[test]
    #[should_panic(expected = "already departed")]
    fn double_departure_panics() {
        let mut net = PastryNetwork::with_nodes(10, 3);
        net.depart(4);
        net.depart(4);
    }

    #[test]
    fn proximity_tables_route_correctly() {
        let net = PastryNetwork::with_nodes_and_proximity(300, 61);
        for k in 0..200u64 {
            let key = key_from_u64(k);
            let resp = net.responsible(key);
            let path = net.route(5, key);
            assert_eq!(path.last().copied().unwrap_or(5), resp);
        }
    }

    #[test]
    fn proximity_selection_reduces_route_distance() {
        // Same ids, same lookups; PNS tables should cut the mean physical
        // distance per route without inflating hop counts.
        let n = 1_000;
        let seed = 77;
        let plain = {
            let mut net = PastryNetwork::with_nodes_and_proximity(n, seed);
            // Strip proximity from table *construction* but keep the
            // coordinate space for measurement: rebuild tables with the
            // oblivious picker by clearing locations, repairing, then
            // re-attaching.
            let loc = net.locations.take();
            net.repair();
            net.locations = loc;
            net
        };
        let pns = PastryNetwork::with_nodes_and_proximity(n, seed);
        let d_plain = plain.mean_route_distance(800, 3);
        let d_pns = pns.mean_route_distance(800, 3);
        assert!(d_pns < d_plain * 0.95, "PNS should shorten routes: {d_pns} vs {d_plain}");
        let h_plain = crate::metrics::avg_route_hops(&plain, 800, 3).mean;
        let h_pns = crate::metrics::avg_route_hops(&pns, 800, 3).mean;
        assert!((h_pns - h_plain).abs() < 0.5, "hops changed too much: {h_pns} vs {h_plain}");
    }

    #[test]
    fn distance_is_zero_without_a_proximity_space() {
        let net = PastryNetwork::with_nodes(10, 5);
        assert_eq!(net.distance_between(0, 1), 0.0);
    }

    #[test]
    fn replicas_are_the_closest_nodes_after_the_owner() {
        let net = PastryNetwork::with_nodes(64, 3);
        for k in 0..100u64 {
            let key = key_from_u64(k);
            let resp = net.responsible(key);
            let reps = net.replicas(key, 3);
            assert_eq!(reps.len(), 3);
            assert!(!reps.contains(&resp), "owner must not replicate to itself");
            // Brute-force ground truth: all nodes by (distance, id).
            let mut all: Vec<usize> = (0..net.n_nodes()).collect();
            all.sort_by_key(|&h| (net.id_of(h).distance(NodeId(key)), net.id_of(h).0));
            assert_eq!(all[0], resp);
            assert_eq!(&all[1..4], reps.as_slice(), "key {k}");
        }
    }

    #[test]
    fn replica_succession_matches_departures() {
        // The heir property: departing the owner promotes replicas[0],
        // departing the heir too promotes replicas[1].
        let mut net = PastryNetwork::with_nodes(50, 19);
        let key = key_from_u64(13);
        let reps = net.replicas(key, 2);
        net.depart(net.responsible(key));
        assert_eq!(net.responsible(key), reps[0]);
        net.depart(net.responsible(key));
        assert_eq!(net.responsible(key), reps[1]);
    }

    #[test]
    fn replicas_clamp_to_membership() {
        let net = PastryNetwork::with_nodes(3, 7);
        let key = key_from_u64(1);
        let reps = net.replicas(key, 10);
        assert_eq!(reps.len(), 2, "only the two non-owners exist");
        assert!(net.replicas(key, 0).is_empty());
        let single = PastryNetwork::with_nodes(1, 7);
        assert!(single.replicas(key, 3).is_empty());
    }
}
