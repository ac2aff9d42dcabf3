//! The event scheduler behind the virtual-time loop.
//!
//! Two interchangeable implementations of one priority queue keyed by
//! `(time, seq)`:
//!
//! * [`SlabScheduler`] (the default) — event payloads live in a reusable
//!   **arena** with free-list recycling, and a binary heap of small
//!   24-byte index entries decides the order. Steady-state operation
//!   performs **no per-event allocation**: a popped event returns its slot
//!   to the free list and the next push reuses it, and heap sift
//!   operations move only `(time, seq, slot)` triples instead of whole
//!   event payloads (which, for the network simulation, carry `Arc`s and
//!   enum variants an order of magnitude larger).
//! * the legacy `BinaryHeap<Reverse<Event>>` — kept selectable through
//!   [`SchedulerKind::BinaryHeap`] so golden tests and benchmarks can
//!   prove the slab path delivers the *exact* same event order and beats
//!   the heap on throughput.
//!
//! # Determinism
//!
//! Both schedulers dequeue strictly by `(time, seq)` where `seq` is the
//! global push counter maintained by the engine. Every event's key is
//! unique (`seq` never repeats), so the order is *total* — there are no
//! ties for a heap to break arbitrarily — and the two implementations are
//! observationally identical: same deliveries, same RNG consumption, same
//! `SimStats`, bit-identical actor state. `crates/sim/tests/`'s golden
//! test pins this equivalence under a mixed wake/send/fault workload.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which event-queue implementation the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Slab arena + index heap (no per-event allocation in steady state).
    #[default]
    Slab,
    /// The legacy `BinaryHeap` of whole events (baseline / golden-test
    /// reference).
    BinaryHeap,
}

/// Allocation/recycling counters of the active scheduler. For the slab
/// scheduler `arena_slots` is the high-water mark of *distinct* slots ever
/// allocated; in steady state it stays flat while `pushes` keeps growing —
/// the "no per-event allocation growth" property benchmarks assert. The
/// heap scheduler reports its equivalent capacity numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Total events ever pushed.
    pub pushes: u64,
    /// Distinct payload slots allocated over the run (slab: arena length;
    /// heap: peak queue length — every element is an inline payload).
    pub arena_slots: usize,
    /// Peak number of events simultaneously queued.
    pub peak_queue_len: usize,
    /// Events currently queued.
    pub queue_len: usize,
    /// Wake batches extracted by the batched engine (zero under the plain
    /// sequential `run_until`). Like the allocation counters these are
    /// observability, not part of the replay contract.
    pub batches: u64,
    /// Largest wake batch extracted.
    pub max_batch: usize,
    /// Batches that contained exactly one wake (no parallelism exposed).
    pub singleton_batches: u64,
    /// Message deliveries committed through a held batch instead of
    /// breaking extraction (the lookahead-amortization win: before held
    /// deliveries existed, every one of these ended a batch early).
    pub held_deliveries: u64,
}

/// Heap entry: the full ordering key plus the arena slot holding the
/// payload. Kept to three words so sift operations stay cheap and never
/// touch the payload arena.
#[derive(Clone, Copy)]
struct Entry {
    time: f64,
    seq: u64,
    slot: u32,
}

impl Entry {
    /// `(time, seq)` is unique per event, so this is a total order.
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        match self.time.total_cmp(&other.time) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.seq < other.seq,
        }
    }
}

/// Min-heap of `Entry` over a payload arena with free-list recycling.
pub struct SlabScheduler<T> {
    /// Payload arena. `None` slots are free (listed in `free`).
    arena: Vec<Option<T>>,
    /// Indices of free arena slots, reused LIFO.
    free: Vec<u32>,
    /// Implicit binary min-heap of `(time, seq, slot)`.
    heap: Vec<Entry>,
    pushes: u64,
    peak: usize,
}

impl<T> Default for SlabScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlabScheduler<T> {
    /// An empty scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self { arena: Vec::new(), free: Vec::new(), heap: Vec::new(), pushes: 0, peak: 0 }
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queues `payload` under the key `(time, seq)`. Reuses a free arena
    /// slot when one exists; only grows the arena at the high-water mark.
    pub fn push(&mut self, time: f64, seq: u64, payload: T) {
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.arena[s as usize].is_none());
                self.arena[s as usize] = Some(payload);
                s
            }
            None => {
                let s = u32::try_from(self.arena.len()).expect("more than 2^32 queued events");
                self.arena.push(Some(payload));
                s
            }
        };
        self.heap.push(Entry { time, seq, slot });
        self.sift_up(self.heap.len() - 1);
        self.pushes += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    /// Earliest queued `(time, seq)`, if any.
    #[must_use]
    pub fn peek_key(&self) -> Option<(f64, u64)> {
        self.heap.first().map(|e| (e.time, e.seq))
    }

    /// Earliest queued event — key and a borrow of its payload — without
    /// dequeuing it. The batched engine uses this to decide whether the
    /// head is a wake it may pull into the current batch.
    #[must_use]
    pub fn peek(&self) -> Option<(f64, u64, &T)> {
        self.heap.first().map(|e| {
            let payload =
                self.arena[e.slot as usize].as_ref().expect("queued slot holds a payload");
            (e.time, e.seq, payload)
        })
    }

    /// Dequeues the earliest event, returning `(time, payload)` and
    /// recycling its arena slot.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let payload = self.arena[top.slot as usize].take().expect("queued slot holds a payload");
        self.free.push(top.slot);
        Some((top.time, payload))
    }

    /// Allocation counters (see [`SchedStats`]).
    #[must_use]
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            pushes: self.pushes,
            arena_slots: self.arena.len(),
            peak_queue_len: self.peak,
            queue_len: self.heap.len(),
            ..SchedStats::default()
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].before(&self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && self.heap[r].before(&self.heap[l]) { r } else { l };
            if self.heap[child].before(&self.heap[i]) {
                self.heap.swap(i, child);
                i = child;
            } else {
                break;
            }
        }
    }
}

/// One event in the legacy heap (payload stored inline).
pub(crate) struct HeapEvent<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for HeapEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for HeapEvent<T> {}
impl<T> PartialOrd for HeapEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEvent<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// The engine-facing queue: one of the two implementations, same contract.
pub(crate) enum EventQueue<T> {
    /// Arena-backed scheduler.
    Slab(SlabScheduler<T>),
    /// Legacy `BinaryHeap` of whole events.
    Heap { queue: BinaryHeap<Reverse<HeapEvent<T>>>, pushes: u64, peak: usize },
}

impl<T> EventQueue<T> {
    /// Creates the queue flavor selected by `kind`.
    #[must_use]
    pub fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Slab => EventQueue::Slab(SlabScheduler::new()),
            SchedulerKind::BinaryHeap => {
                EventQueue::Heap { queue: BinaryHeap::new(), pushes: 0, peak: 0 }
            }
        }
    }

    /// Queues `payload` under `(time, seq)`.
    pub fn push(&mut self, time: f64, seq: u64, payload: T) {
        match self {
            EventQueue::Slab(s) => s.push(time, seq, payload),
            EventQueue::Heap { queue, pushes, peak } => {
                queue.push(Reverse(HeapEvent { time, seq, payload }));
                *pushes += 1;
                *peak = (*peak).max(queue.len());
            }
        }
    }

    /// Earliest queued time, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        match self {
            EventQueue::Slab(s) => s.peek_key().map(|(t, _)| t),
            EventQueue::Heap { queue, .. } => queue.peek().map(|Reverse(e)| e.time),
        }
    }

    /// Earliest queued `(time, seq)`, if any.
    #[must_use]
    pub fn peek_key(&self) -> Option<(f64, u64)> {
        match self {
            EventQueue::Slab(s) => s.peek_key(),
            EventQueue::Heap { queue, .. } => queue.peek().map(|Reverse(e)| (e.time, e.seq)),
        }
    }

    /// Earliest queued event with a borrow of its payload, without
    /// dequeuing.
    #[must_use]
    pub fn peek(&self) -> Option<(f64, u64, &T)> {
        match self {
            EventQueue::Slab(s) => s.peek(),
            EventQueue::Heap { queue, .. } => {
                queue.peek().map(|Reverse(e)| (e.time, e.seq, &e.payload))
            }
        }
    }

    /// Dequeues the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        match self {
            EventQueue::Slab(s) => s.pop(),
            EventQueue::Heap { queue, .. } => queue.pop().map(|Reverse(e)| (e.time, e.payload)),
        }
    }

    /// Allocation counters of the active implementation.
    #[must_use]
    pub fn stats(&self) -> SchedStats {
        match self {
            EventQueue::Slab(s) => s.stats(),
            EventQueue::Heap { queue, pushes, peak } => SchedStats {
                pushes: *pushes,
                arena_slots: *peak,
                peak_queue_len: *peak,
                queue_len: queue.len(),
                ..SchedStats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `q` and returns the (time, payload) sequence.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(f64, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn both_schedulers_pop_in_identical_key_order() {
        // Adversarial key set: duplicate times (order decided by seq),
        // interleaved pushes and pops.
        let keys: Vec<(f64, u64)> =
            vec![(3.0, 0), (1.0, 1), (3.0, 2), (0.5, 3), (1.0, 4), (0.5, 5), (2.0, 6), (0.0, 7)];
        let mut slab = EventQueue::new(SchedulerKind::Slab);
        let mut heap = EventQueue::new(SchedulerKind::BinaryHeap);
        for (i, &(t, s)) in keys.iter().enumerate() {
            slab.push(t, s, i as u32);
            heap.push(t, s, i as u32);
        }
        let a = drain(&mut slab);
        let b = drain(&mut heap);
        assert_eq!(a, b);
        // And the order is (time, seq)-sorted.
        let mut sorted = keys.clone();
        sorted.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        let popped: Vec<(f64, u64)> = a.iter().map(|&(t, i)| (t, keys[i as usize].1)).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn slab_recycles_slots_in_steady_state() {
        let mut s = SlabScheduler::new();
        let mut seq = 0u64;
        // Keep ≤ 4 events in flight across many push/pop cycles.
        for round in 0..1_000 {
            for _ in 0..4 {
                s.push(round as f64, seq, seq);
                seq += 1;
            }
            for _ in 0..4 {
                s.pop().unwrap();
            }
        }
        let st = s.stats();
        assert_eq!(st.pushes, 4_000);
        assert!(st.arena_slots <= 4, "arena grew ({}) despite recycling", st.arena_slots);
        assert_eq!(st.queue_len, 0);
        assert_eq!(st.peak_queue_len, 4);
    }

    #[test]
    fn slab_handles_interleaved_push_pop() {
        let mut s = SlabScheduler::new();
        s.push(5.0, 0, "a");
        s.push(1.0, 1, "b");
        assert_eq!(s.pop(), Some((1.0, "b")));
        s.push(3.0, 2, "c");
        s.push(0.5, 3, "d");
        assert_eq!(s.pop(), Some((0.5, "d")));
        assert_eq!(s.pop(), Some((3.0, "c")));
        assert_eq!(s.pop(), Some((5.0, "a")));
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new(SchedulerKind::Slab);
        q.push(2.0, 0, 'x');
        q.push(1.0, 1, 'y');
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.pop(), Some((1.0, 'y')));
        assert_eq!(q.peek_time(), Some(2.0));
    }

    #[test]
    fn nan_free_total_order_on_equal_times() {
        // seq breaks ties deterministically — FIFO among equal times.
        let mut s = SlabScheduler::new();
        for i in 0..10u64 {
            s.push(1.0, i, i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }
}
