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
//!   a **stable FIFO tie-break on arrival order**, bounded capacity — a
//!   binary heap of `(key, arrival)`, so its pops are a stable sort of its
//!   pushes (a scheduled burst never enters it: the switch sorts a burst
//!   once, `Switch::drain_burst`),
//! * [`SchedSpec`] — the switch-facing policy: which packet fields feed
//!   the key (strict priority over per-class ranks is the one PIFO keyed
//!   by `(class, rank)`, as in *Programmable Packet Scheduling*), which
//!   queue to build, and which
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
use std::collections::{BinaryHeap, VecDeque};

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

/// A push-in-first-out queue: admits at any [`SchedKey`], pops in
/// ascending key order, ties broken by arrival order (stable) — one binary
/// heap ordered by `(key, arrival)`, O(log n) a push or a pop.
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
    heap: BinaryHeap<Reverse<Entry<T>>>,
    capacity: usize,
    next_seq: u64,
}

impl<T> Pifo<T> {
    /// An empty PIFO bounded at `capacity` items.
    pub fn bounded(capacity: usize) -> Pifo<T> {
        Pifo {
            heap: BinaryHeap::new(),
            capacity,
            next_seq: 0,
        }
    }

    /// An empty PIFO with no occupancy bound (`usize::MAX`).
    pub fn unbounded() -> Pifo<T> {
        Pifo::bounded(usize::MAX)
    }
}

impl<T> Scheduler<T> for Pifo<T> {
    fn push(&mut self, key: SchedKey, item: T) -> Result<(), T> {
        if self.len() >= self.capacity {
            return Err(item);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { key, seq, item }));
        Ok(())
    }

    fn pop(&mut self) -> Option<(SchedKey, T)> {
        let Reverse(e) = self.heap.pop()?;
        Some((e.key, e.item))
    }

    fn peek_key(&self) -> Option<SchedKey> {
        self.heap.peek().map(|Reverse(e)| e.key)
    }

    fn len(&self) -> usize {
        self.heap.len()
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
    /// PIFO: every rank discipline.
    Pifo(Pifo<T>),
}

impl<T> Scheduler<T> for SchedQueue<T> {
    fn push(&mut self, key: SchedKey, item: T) -> Result<(), T> {
        match self {
            SchedQueue::Fifo(q) => q.push(key, item),
            SchedQueue::Pifo(q) => q.push(key, item),
        }
    }

    fn pop(&mut self) -> Option<(SchedKey, T)> {
        match self {
            SchedQueue::Fifo(q) => q.pop(),
            SchedQueue::Pifo(q) => q.pop(),
        }
    }

    fn peek_key(&self) -> Option<SchedKey> {
        match self {
            SchedQueue::Fifo(q) => q.peek_key(),
            SchedQueue::Pifo(q) => q.peek_key(),
        }
    }

    fn len(&self) -> usize {
        match self {
            SchedQueue::Fifo(q) => q.len(),
            SchedQueue::Pifo(q) => q.len(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            SchedQueue::Fifo(q) => q.capacity(),
            SchedQueue::Pifo(q) => q.capacity(),
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
    /// PIFO ranked by the named field — WFQ when the field is an
    /// STFQ virtual start time.
    Pifo {
        /// Packet field supplying the rank.
        rank: String,
    },
    /// PIFO ranked by the named field, with pops **gated**: a packet
    /// does not depart before the cycle its rank names (rank =
    /// earliest-departure cycle). Token-bucket / pacing shapers.
    Shaping {
        /// Packet field supplying the earliest-departure cycle.
        rank: String,
    },
    /// Strict priority by the class field, rank order (per the rank field)
    /// within each class: one PIFO keyed by `(class, rank)`.
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
            _ => SchedQueue::Pifo(Pifo::bounded(capacity)),
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
