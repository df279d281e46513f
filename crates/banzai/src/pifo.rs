//! Programmable packet scheduling: PIFO (push-in-first-out) queues whose
//! ranks are computed by packet transactions.
//!
//! The paper's switch model stops at a drop-tail FIFO; the same authors'
//! *Programmable Packet Scheduling at Line Rate* shows that a single
//! primitive — a priority queue that admits packets at an arbitrary rank
//! and releases them in rank order — expresses WFQ, strict priority,
//! token-bucket shaping, and hierarchies thereof, with the rank itself
//! computed by an ordinary Domino program (STFQ's virtual start time,
//! CoDel's deadline). This module provides that primitive:
//!
//! * [`Scheduler`] — the queue discipline contract the switch drives; the
//!   drop-tail FIFO the switch always had is the [`Fifo`] implementation,
//! * [`Pifo`] — the PIFO block: pop in ascending [`SchedKey`] order with
//!   a **stable FIFO tie-break on arrival order**, bounded capacity. Like
//!   the hardware block of *Programmable Packet Scheduling*, which keeps
//!   a sorted array and pops its head, it holds a **sorted run** and pops
//!   its end; what arrives while a run drains waits in a binary heap
//!   until the heap holds as many as the run, and then both are sorted
//!   into one run (a *settle*) — so a burst is sorted once and then
//!   drained at O(1) a departure instead of sifting through a heap deeper
//!   than the cache,
//! * [`HierPifo`] — hierarchical composition (PIFO-of-PIFOs): a root PIFO
//!   of class tokens ranked by class picks *which* leaf transmits next,
//!   and that class's leaf PIFO picks *what* — strict priority across
//!   classes over rank order (e.g. per-class WFQ) within each,
//! * [`SchedSpec`] — the switch-facing policy: which packet fields feed
//!   the key, which queue shape to build, and which
//!   [`DropReason`](crate::switch::DropReason) a rejected packet counts
//!   under ([`DropReason::SchedFull`](crate::switch::DropReason) for every
//!   rank scheduler; the FIFO keeps its historical
//!   [`DropReason::QueueFull`](crate::switch::DropReason)).
//!
//! The contracts here are pinned by `tests/scheduling.rs` (golden
//! invariants: WFQ fairness, strict-priority exactness, shaping departure
//! times) and `tests/proptest_scheduling.rs` (pop order equals a
//! stable-sort oracle across random rank streams × capacities × tie
//! patterns).

use domino_ir::{FieldId, FlatPacket, Packet};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// The scheduling key of one packet: `(class, rank)`, compared
/// lexicographically — class is the outer (strict-priority) level, rank
/// the inner one. Flat policies leave `class` at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchedKey {
    /// Outer strict-priority level (lower departs first).
    pub class: i64,
    /// Inner rank (lower departs first within a class). Under a shaping
    /// policy this is an earliest-departure cycle rather than a priority.
    pub rank: i64,
}

impl SchedKey {
    /// A flat (class 0) key.
    pub fn rank(rank: i64) -> SchedKey {
        SchedKey { class: 0, rank }
    }
}

/// A queue discipline the switch can drive: push with a [`SchedKey`],
/// pop whatever the discipline says departs next.
///
/// Implementations are bounded: `push` hands the item back instead of
/// growing past [`Scheduler::capacity`], and the caller decides which
/// drop counter the rejection bumps.
pub trait Scheduler<T> {
    /// Admits an item under a key, or returns it if the queue is full.
    #[allow(clippy::result_large_err)] // Err is the caller's own item, returned by design.
    fn push(&mut self, key: SchedKey, item: T) -> Result<(), T>;

    /// Removes and returns the next item to depart, with its key.
    fn pop(&mut self) -> Option<(SchedKey, T)>;

    /// The key [`Scheduler::pop`] would return next, without removing it.
    fn peek_key(&self) -> Option<SchedKey>;

    /// Current occupancy.
    fn len(&self) -> usize;

    /// Maximum occupancy.
    fn capacity(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The drop-tail FIFO the switch always had, as a [`Scheduler`]: keys are
/// recorded but ignored for ordering — departure order is arrival order.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<(SchedKey, T)>,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// An empty FIFO bounded at `capacity` items.
    pub fn bounded(capacity: usize) -> Fifo<T> {
        Fifo {
            items: VecDeque::new(),
            capacity,
        }
    }
}

impl<T> Scheduler<T> for Fifo<T> {
    fn push(&mut self, key: SchedKey, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            return Err(item);
        }
        self.items.push_back((key, item));
        Ok(())
    }

    fn pop(&mut self) -> Option<(SchedKey, T)> {
        self.items.pop_front()
    }

    fn peek_key(&self) -> Option<SchedKey> {
        self.items.front().map(|(k, _)| *k)
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One queued entry: the key plus a monotone arrival sequence number that
/// breaks rank ties FIFO — two packets with equal keys depart in arrival
/// order, which is what makes PIFO order a *stable* sort of the pushes.
#[derive(Debug, Clone)]
struct Entry<T> {
    key: SchedKey,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Entry<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Entry<T>) -> std::cmp::Ordering {
        (self.key, self.seq).cmp(&(other.key, other.seq))
    }
}

/// The fewest late arrivals a [`Pifo`] sorts into its run, so that a
/// shallow queue — line rate, a small class — stays a plain binary heap.
const SETTLE_MIN: usize = 32;

/// A push-in-first-out queue: admits at any [`SchedKey`], pops in
/// ascending key order, ties broken by arrival order (stable).
///
/// It is two halves ordered by the same `(key, arrival)`: a **run**,
/// sorted so that the next departure is last — the PIFO paper's sorted
/// array, popped from the end — and a binary **heap** of everything
/// pushed since the run was last sorted. A push goes onto the heap. A pop
/// first *settles* once the heap holds 32 entries and at least as many
/// as the run: both are sorted into the larger of their two buffers,
/// which becomes the run, and the other, emptied, becomes the heap. Then
/// it takes the lesser of the two heads.
///
/// * A settle over `m` entries follows at least `m / 2` pushes, so it
///   costs amortised O(log m) a push; a pop is O(1) from the run or
///   O(log h) from a heap of `h`. No sequence of operations is
///   asymptotically worse than a binary heap, and a burst pushed whole
///   and then drained is sorted once, not sifted once a departure. A
///   queue that never holds 32 — line rate, a small class of a
///   [`HierPifo`] — is the heap alone and never sorts.
/// * Memory: the run's buffer grows as one heap's would, to the queue at
///   its deepest. A push into an empty queue swaps the buffers if the
///   run's is the larger, so a burst fills it, and burst-then-drain
///   traffic holds what one heap does. Under sustained load — a push for
///   every pop, the queue full — the heap's buffer stops at half the
///   queue, so the two hold up to 1.5× what one heap would (a full
///   65,536-deep switch queue: 3 MiB more). Once both have grown, nothing
///   allocates.
///
/// ```
/// use banzai::pifo::{Pifo, SchedKey, Scheduler};
///
/// let mut q: Pifo<&str> = Pifo::bounded(8);
/// q.push(SchedKey::rank(30), "c").unwrap();
/// q.push(SchedKey::rank(10), "a").unwrap();
/// q.push(SchedKey::rank(10), "b").unwrap(); // same rank, arrives later
/// assert_eq!(q.pop().unwrap().1, "a"); // lowest rank first
/// assert_eq!(q.pop().unwrap().1, "b"); // FIFO within a rank
/// assert_eq!(q.pop().unwrap().1, "c");
/// ```
#[derive(Debug, Clone)]
pub struct Pifo<T> {
    /// Sorted ascending as `Reverse`, so the next departure is last.
    run: Vec<Reverse<Entry<T>>>,
    /// Everything pushed since the last settle.
    heap: BinaryHeap<Reverse<Entry<T>>>,
    capacity: usize,
    next_seq: u64,
}

impl<T> Pifo<T> {
    /// An empty PIFO bounded at `capacity` items.
    pub fn bounded(capacity: usize) -> Pifo<T> {
        Pifo {
            run: Vec::new(),
            heap: BinaryHeap::new(),
            capacity,
            next_seq: 0,
        }
    }

    /// An empty PIFO with no occupancy bound (`usize::MAX`).
    pub fn unbounded() -> Pifo<T> {
        Pifo::bounded(usize::MAX)
    }

    /// Sorts the heap and what is left of the run into one run, in the
    /// larger of the two buffers; the other, emptied, becomes the heap.
    fn settle(&mut self) {
        let mut merged = std::mem::take(&mut self.heap).into_vec();
        if merged.capacity() < self.run.capacity() {
            std::mem::swap(&mut merged, &mut self.run);
        }
        merged.append(&mut self.run);
        // `seq` makes every entry distinct, so an unstable sort is stable.
        merged.sort_unstable();
        self.heap = std::mem::replace(&mut self.run, merged).into();
    }
}

impl<T> Scheduler<T> for Pifo<T> {
    fn push(&mut self, key: SchedKey, item: T) -> Result<(), T> {
        if self.len() >= self.capacity {
            return Err(item);
        }
        // An empty queue's next burst fills the larger buffer.
        if self.is_empty() && self.run.capacity() > self.heap.capacity() {
            let heap = std::mem::take(&mut self.heap).into_vec();
            self.heap = std::mem::replace(&mut self.run, heap).into();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { key, seq, item }));
        Ok(())
    }

    fn pop(&mut self) -> Option<(SchedKey, T)> {
        if self.heap.len() >= self.run.len().max(SETTLE_MIN) {
            self.settle();
        }
        // `Reverse`: the greater head departs first (`None` is least).
        let Reverse(e) = if self.run.last() > self.heap.peek() {
            self.run.pop()
        } else {
            self.heap.pop()
        }?;
        Some((e.key, e.item))
    }

    fn peek_key(&self) -> Option<SchedKey> {
        let Reverse(e) = self.run.last().max(self.heap.peek())?;
        Some(e.key)
    }

    fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Hierarchical PIFO-of-PIFOs: a root PIFO of **class tokens** (one per
/// enqueued item, ranked by class) decides which class transmits next;
/// that class's **leaf PIFO** (ranked by the item's rank) decides which
/// item. The net order is strict priority across classes, rank order —
/// e.g. per-class WFQ — within each, exactly what a flat PIFO over the
/// composite `(class, rank)` key yields; the two are differentially
/// tested against each other, and the hierarchy is the shape hardware
/// composes (the root picks a leaf *without* inspecting leaf occupants).
///
/// ```
/// use banzai::pifo::{HierPifo, Pifo, SchedKey, Scheduler};
///
/// let mut q: HierPifo<u32> = HierPifo::bounded(16);
/// q.push(SchedKey { class: 1, rank: 5 }, 15).unwrap();
/// q.push(SchedKey { class: 0, rank: 9 }, 9).unwrap();
/// q.push(SchedKey { class: 0, rank: 7 }, 7).unwrap();
/// // Class 0 drains first (in rank order), then class 1.
/// let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
/// assert_eq!(order, [7, 9, 15]);
/// ```
#[derive(Debug, Clone)]
pub struct HierPifo<T> {
    /// One token per enqueued item, keyed `(class, class)` so the root's
    /// order is pure strict priority.
    root: Pifo<()>,
    /// Per-class leaf PIFOs, keyed `(0, rank)`.
    leaves: BTreeMap<i64, Pifo<T>>,
    /// Total-occupancy bound across every leaf.
    capacity: usize,
    len: usize,
}

impl<T> HierPifo<T> {
    /// An empty hierarchy bounded at `capacity` total items.
    pub fn bounded(capacity: usize) -> HierPifo<T> {
        HierPifo {
            root: Pifo::unbounded(),
            leaves: BTreeMap::new(),
            capacity,
            len: 0,
        }
    }
}

impl<T> Scheduler<T> for HierPifo<T> {
    fn push(&mut self, key: SchedKey, item: T) -> Result<(), T> {
        if self.len >= self.capacity {
            return Err(item);
        }
        let leaf = self.leaves.entry(key.class).or_insert_with(Pifo::unbounded);
        // Leaf PIFOs are unbounded: this never hands the item back.
        leaf.push(SchedKey::rank(key.rank), item)?;
        let token = SchedKey {
            class: key.class,
            rank: key.class,
        };
        // Nor does the unbounded root refuse the item's token.
        let _ = self.root.push(token, ());
        self.len += 1;
        Ok(())
    }

    fn pop(&mut self) -> Option<(SchedKey, T)> {
        let (token, ()) = self.root.pop()?;
        // One root token per queued item: its class has a leaf, and the
        // leaf an item.
        let (leaf_key, item) = self.leaves.get_mut(&token.class)?.pop()?;
        self.len -= 1;
        Some((
            SchedKey {
                class: token.class,
                rank: leaf_key.rank,
            },
            item,
        ))
    }

    fn peek_key(&self) -> Option<SchedKey> {
        let token = self.root.peek_key()?;
        let leaf = self.leaves.get(&token.class)?;
        Some(SchedKey {
            class: token.class,
            rank: leaf.peek_key()?.rank,
        })
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The switch's queue, dispatching over the discipline the
/// [`SchedSpec`] selected. (An enum, not a `Box<dyn Scheduler>`: the
/// switch derives `Clone`, and the FIFO arm keeps the historical
/// drop-tail path monomorphic.)
#[derive(Debug, Clone)]
pub enum SchedQueue<T> {
    /// Drop-tail FIFO (the default — bit-identical to the pre-PIFO switch).
    Fifo(Fifo<T>),
    /// Flat PIFO.
    Pifo(Pifo<T>),
    /// Hierarchical PIFO-of-PIFOs.
    Hier(HierPifo<T>),
}

impl<T> Scheduler<T> for SchedQueue<T> {
    fn push(&mut self, key: SchedKey, item: T) -> Result<(), T> {
        match self {
            SchedQueue::Fifo(q) => q.push(key, item),
            SchedQueue::Pifo(q) => q.push(key, item),
            SchedQueue::Hier(q) => q.push(key, item),
        }
    }

    fn pop(&mut self) -> Option<(SchedKey, T)> {
        match self {
            SchedQueue::Fifo(q) => q.pop(),
            SchedQueue::Pifo(q) => q.pop(),
            SchedQueue::Hier(q) => q.pop(),
        }
    }

    fn peek_key(&self) -> Option<SchedKey> {
        match self {
            SchedQueue::Fifo(q) => q.peek_key(),
            SchedQueue::Pifo(q) => q.peek_key(),
            SchedQueue::Hier(q) => q.peek_key(),
        }
    }

    fn len(&self) -> usize {
        match self {
            SchedQueue::Fifo(q) => q.len(),
            SchedQueue::Pifo(q) => q.len(),
            SchedQueue::Hier(q) => q.len(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            SchedQueue::Fifo(q) => q.capacity(),
            SchedQueue::Pifo(q) => q.capacity(),
            SchedQueue::Hier(q) => q.capacity(),
        }
    }
}

/// The scheduling policy a switch runs: which discipline, and which packet
/// fields — written by the ingress pipeline, i.e. by the rank *program* —
/// feed the [`SchedKey`]. The fields are read after ingress, so STFQ's
/// `start`, CoDel's deadline, or a shaper's send time program the
/// scheduler end-to-end.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedSpec {
    /// Drop-tail FIFO (the historical switch; keys ignored).
    #[default]
    Fifo,
    /// Flat PIFO ranked by the named field — WFQ when the field is an
    /// STFQ virtual start time.
    Pifo {
        /// Packet field supplying the rank.
        rank: String,
    },
    /// Flat PIFO ranked by the named field, with pops **gated**: a packet
    /// does not depart before the cycle its rank names (rank =
    /// earliest-departure cycle). Token-bucket / pacing shapers.
    Shaping {
        /// Packet field supplying the earliest-departure cycle.
        rank: String,
    },
    /// Hierarchical: strict priority by the class field, rank order (per
    /// the rank field) within each class.
    Priority {
        /// Packet field supplying the strict-priority class.
        class: String,
        /// Packet field supplying the within-class rank.
        rank: String,
    },
}

impl SchedSpec {
    /// Reads this policy's [`SchedKey`] off an (ingress-processed) packet
    /// by name — the reference; every switch run, sharded ones included,
    /// reads it off the slab's slots (`KeySlots::key_of`). Missing fields
    /// read as 0, matching the engines' semantics.
    pub fn key_of(&self, pkt: &Packet) -> SchedKey {
        match self {
            SchedSpec::Fifo => SchedKey::rank(0),
            SchedSpec::Pifo { rank } | SchedSpec::Shaping { rank } => {
                SchedKey::rank(pkt.get_or_zero(rank) as i64)
            }
            SchedSpec::Priority { class, rank } => SchedKey {
                class: pkt.get_or_zero(class) as i64,
                rank: pkt.get_or_zero(rank) as i64,
            },
        }
    }

    /// Resolves the key fields to slots once, through `slot_of` (the
    /// switch's table), so the per-packet read is [`KeySlots::key_of`].
    pub(crate) fn resolve(&self, mut slot_of: impl FnMut(&str) -> FieldId) -> KeySlots {
        match self {
            SchedSpec::Fifo => KeySlots::Fifo,
            SchedSpec::Pifo { rank } | SchedSpec::Shaping { rank } => KeySlots::Rank(slot_of(rank)),
            SchedSpec::Priority { class, rank } => {
                KeySlots::ClassRank(slot_of(class), slot_of(rank))
            }
        }
    }

    /// Builds the queue this policy runs, bounded at `capacity`.
    pub fn build_queue<T>(&self, capacity: usize) -> SchedQueue<T> {
        match self {
            SchedSpec::Fifo => SchedQueue::Fifo(Fifo::bounded(capacity)),
            SchedSpec::Pifo { .. } | SchedSpec::Shaping { .. } => {
                SchedQueue::Pifo(Pifo::bounded(capacity))
            }
            SchedSpec::Priority { .. } => SchedQueue::Hier(HierPifo::bounded(capacity)),
        }
    }

    /// The drop reason a packet rejected by a full queue counts under:
    /// the FIFO keeps its historical
    /// [`DropReason::QueueFull`](crate::switch::DropReason); every rank
    /// scheduler drops under
    /// [`DropReason::SchedFull`](crate::switch::DropReason), so congestion
    /// on a programmed scheduler is distinguishable in the counters.
    pub fn full_drop_reason(&self) -> crate::switch::DropReason {
        match self {
            SchedSpec::Fifo => crate::switch::DropReason::QueueFull,
            _ => crate::switch::DropReason::SchedFull,
        }
    }

    /// Whether pops are gated on the rank as an earliest-departure cycle.
    pub fn is_shaping(&self) -> bool {
        matches!(self, SchedSpec::Shaping { .. })
    }

    /// Whether this is the default FIFO policy.
    pub fn is_fifo(&self) -> bool {
        matches!(self, SchedSpec::Fifo)
    }
}

/// A [`SchedSpec`]'s key fields as slots of one switch's field table
/// ([`SchedSpec::resolve`]) — for a sharded switch, the one table its
/// shards share.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KeySlots {
    Fifo,
    Rank(FieldId),
    ClassRank(FieldId, FieldId),
}

impl KeySlots {
    /// [`SchedSpec::key_of`] over slots: the same key, no name lookups
    /// (absent slots hold 0, matching the by-name read).
    #[inline]
    pub(crate) fn key_of(self, pkt: &FlatPacket) -> SchedKey {
        match self {
            KeySlots::Fifo => SchedKey::rank(0),
            KeySlots::Rank(rank) => SchedKey::rank(pkt.get_or_zero(rank) as i64),
            KeySlots::ClassRank(class, rank) => SchedKey {
                class: pkt.get_or_zero(class) as i64,
                rank: pkt.get_or_zero(rank) as i64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops everything, asserting `peek_key` agrees with each pop.
    fn drain<T, S: Scheduler<T>>(q: &mut S) -> Vec<(SchedKey, T)> {
        let mut out = Vec::new();
        while let Some(peeked) = q.peek_key() {
            let (key, item) = q.pop().expect("peek said non-empty");
            assert_eq!(key, peeked);
            out.push((key, item));
        }
        assert!(q.is_empty());
        out
    }

    #[test]
    fn fifo_ignores_keys_and_bounds_occupancy() {
        let mut q: Fifo<u32> = Fifo::bounded(3);
        for (i, rank) in [50i64, 10, 30].iter().enumerate() {
            q.push(SchedKey::rank(*rank), i as u32).unwrap();
        }
        assert_eq!(q.push(SchedKey::rank(0), 99), Err(99));
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, [0, 1, 2], "FIFO departs in arrival order");
    }

    #[test]
    fn pifo_pops_in_rank_order_with_stable_ties() {
        let mut q: Pifo<usize> = Pifo::bounded(64);
        let ranks = [5i64, 3, 5, 1, 3, 3, 9, 1];
        for (i, r) in ranks.iter().enumerate() {
            q.push(SchedKey::rank(*r), i).unwrap();
        }
        // Oracle: stable sort of (rank, arrival).
        let mut expect: Vec<(i64, usize)> = ranks.iter().copied().zip(0..).collect();
        expect.sort_by_key(|&(r, i)| (r, i));
        let got: Vec<(i64, usize)> = drain(&mut q)
            .into_iter()
            .map(|(k, v)| (k.rank, v))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pifo_rejects_when_full_without_displacing() {
        let mut q: Pifo<&str> = Pifo::bounded(2);
        q.push(SchedKey::rank(10), "a").unwrap();
        q.push(SchedKey::rank(20), "b").unwrap();
        // Even a better-ranked packet is rejected: drop-tail admission,
        // like the hardware PIFO block's bounded SRAM.
        assert_eq!(q.push(SchedKey::rank(1), "urgent"), Err("urgent"));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "a");
    }

    #[test]
    fn hierarchy_matches_flat_composite_key_pifo() {
        let keys = [(2i64, 7i64), (0, 9), (1, 1), (0, 2), (2, 7), (1, 1), (0, 9)];
        let mut hier: HierPifo<usize> = HierPifo::bounded(64);
        let mut flat: Pifo<usize> = Pifo::bounded(64);
        for (i, &(class, rank)) in keys.iter().enumerate() {
            hier.push(SchedKey { class, rank }, i).unwrap();
            flat.push(SchedKey { class, rank }, i).unwrap();
        }
        assert_eq!(drain(&mut hier), drain(&mut flat));
    }

    #[test]
    fn hierarchy_interleaved_push_pop_still_pops_global_min() {
        let mut q: HierPifo<&str> = HierPifo::bounded(16);
        q.push(SchedKey { class: 1, rank: 0 }, "low-a").unwrap();
        q.push(SchedKey { class: 0, rank: 5 }, "hi-a").unwrap();
        assert_eq!(q.pop().unwrap().1, "hi-a");
        // A high-class packet arriving *after* pops began still preempts.
        q.push(SchedKey { class: 0, rank: 9 }, "hi-b").unwrap();
        assert_eq!(q.pop().unwrap().1, "hi-b");
        assert_eq!(q.pop().unwrap().1, "low-a");
        assert!(q.pop().is_none());
    }

    #[test]
    fn hierarchy_capacity_is_total_across_leaves() {
        let mut q: HierPifo<u32> = HierPifo::bounded(2);
        q.push(SchedKey { class: 0, rank: 0 }, 0).unwrap();
        q.push(SchedKey { class: 5, rank: 0 }, 1).unwrap();
        assert_eq!(q.push(SchedKey { class: 9, rank: 0 }, 2), Err(2));
    }

    #[test]
    fn spec_reads_keys_and_picks_drop_reason() {
        use crate::switch::DropReason;

        let pkt = Packet::new().with("start", 42).with("class", 3);
        assert_eq!(SchedSpec::Fifo.key_of(&pkt), SchedKey::rank(0));
        let wfq = SchedSpec::Pifo {
            rank: "start".into(),
        };
        assert_eq!(wfq.key_of(&pkt), SchedKey::rank(42));
        assert_eq!(wfq.full_drop_reason(), DropReason::SchedFull);
        let prio = SchedSpec::Priority {
            class: "class".into(),
            rank: "start".into(),
        };
        assert_eq!(prio.key_of(&pkt), SchedKey { class: 3, rank: 42 });
        let missing = SchedSpec::Pifo {
            rank: "absent".into(),
        };
        assert_eq!(missing.key_of(&pkt), SchedKey::rank(0));
        assert_eq!(SchedSpec::Fifo.full_drop_reason(), DropReason::QueueFull);
        assert!(SchedSpec::Shaping { rank: "dl".into() }.is_shaping());
    }
}
