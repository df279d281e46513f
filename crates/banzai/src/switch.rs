//! The whole-switch view of Figure 1: packets traverse an **ingress
//! pipeline**, are queued, and then traverse an **egress pipeline** before
//! transmission.
//!
//! Table 4 assigns each algorithm to one of the two pipelines (flowlet
//! routing decisions happen at ingress; RCP/HULL/CoDel queue measurements
//! at egress, where sojourn times are known). Both pipelines are ordinary
//! Banzai machines; the queue between them is modeled as a bounded queue
//! (a FIFO, or whatever discipline the switch's [`SchedSpec`] selects)
//! whose occupancy and sojourn timestamps are exposed to egress programs
//! as packet metadata — exactly the metadata real switch schedulers
//! provide.
//!
//! The switch is generic over its [`PipelineEngine`]: the slot-compiled
//! [`SlotMachine`] fast path, or the map-based reference [`Machine`] (the
//! default, and the oracle) — the two are observably identical, which the
//! differential throughput harness asserts.
//!
//! # One packet currency inside
//!
//! Like Banzai's machine model (parse once into a header vector, run
//! every stage on it, deparse once), a packet enters the switch's layout
//! once and leaves it once. Each [`Switch`] runs on **one** [`FieldTable`]
//! (its own — or, as a shard, the one its sharded switch built for every
//! shard, see `crate::shard`):
//! both pipelines are lowered onto it, and the queue metadata names and
//! the [`SchedSpec`]'s fields are resolved to [`FieldId`]s when the switch
//! is built or reconfigured. A map packet is flattened where the source
//! lends it (**admission**: a slice's packet is read in place, never
//! cloned); ingress, the [`SchedKey`] read, the queue, the metadata
//! stamps and egress all work on that slab; the sink
//! materialises one map [`Packet`] from it (**emission**). Input fields
//! the table does not name ride beside the slab as a (normally empty)
//! residual. A **byte-born** packet crosses bytes ↔ slab instead and is
//! never a map: a [`BoundParser`] on the switch's table lays the frame's
//! table-known fields straight onto the slab, the frame itself rides
//! beside it in the record's own buffer (every field without a slot is
//! still in its bytes), and the sink patches the slots back into those
//! bytes and lends them out.
//!
//! # One run loop, and one burst
//!
//! The machine has one shape, so the switch has one cycle loop
//! (`Switch::cycle`): pull an arrival, admit it through ingress into the
//! queue, tick the clock, and let the link drain the queue's head through
//! egress. Every line-rate terminal is that loop fed two pieces of data:
//!
//! | terminal | arrivals | sink keeps |
//! |---|---|---|
//! | [`Run::collect`] / [`Run::for_each`] | packet source | the emitted packet, which it owns |
//! | [`FrameRun::for_each`] | frame source + [`BoundParser`] | nothing: it is lent the record's bytes, patched in place |
//! | [`FrameRun::collect`] | frame source + [`BoundParser`] | a copy of each lent frame |
//! | sharded workers (`crate::shard`) | batches of the arrivals the dispatcher pulled, stamped | the emitted packet (its value row moved out of the record), or the patched buffer moved out of the record |
//!
//! Every run takes one kind of arrival, a `Stamped` pair: the cycle it
//! arrives at, and its record already on the switch's table — a packet
//! admitted from its source's loan, or a frame the bound parser laid out
//! with its [`WireLayout`] beside it — or the [`ParseVerdict`] that
//! rejected the frame. Exactly two adapters make them, `admitting` and
//! `parsing`, and each stamps its `k`-th arrival `from + k`: a
//! line-rate run from the switch's clock, so it continues across runs; a
//! burst from 0; a sharded run from the sharded switch's clock, on the
//! dispatcher's thread, whose batches a shard's loop takes unchanged.
//! The sink is lent each departing record and turns it into its
//! terminal's currency. Whatever the combination, the queue is the
//! switch's own [`SchedQueue`] under the configured [`SchedSpec`].
//!
//! A scheduled burst ([`SchedRun`], and its sharded twin) is not that
//! loop: nothing departs until the source has ended, so the queue's pop
//! order is a stable sort of what it holds. `Switch::hold` runs ingress
//! on each arrival and holds the first `capacity`; `Switch::drain_burst`
//! sorts them once by `(key, arrival)` and departs them one per cycle.
//! Both scheduling terminals, serial and sharded, are these two.
//!
//! # Recycling
//!
//! A Banzai pipeline holds one header vector per stage and its queue a
//! fixed set of buffer cells; nothing is allocated per packet. The loop
//! does the same with the in-flight record (slab, presence mask, and the
//! residual or the frame's layout and buffer): once a packet is gone —
//! its sink has returned, or the full queue refused it — its record goes
//! into a pool the loop is lent, and the next arrival overwrites a pooled
//! record instead of making one: the arrival adapter — lent the pool —
//! admits a packet or parses a frame into it (a frame the parse graph
//! rejects never takes one). Admission has one form: an empty pool hands
//! it a new, empty record, written into like a pooled one. So a run makes
//! about as many records as it ever has in flight at once, however long
//! the source. What is pooled is decided by whose pool the loop is lent,
//! not by a setting:
//!
//! * a pool of **the run's own** pools only **while somebody can ask for
//!   a record** — a serial terminal lends its loop no pool, so once its
//!   source has ended a draining queue frees as it goes (a burst, which
//!   arrives whole before anything departs, recycles only the records of
//!   refused arrivals, and its drain moves each row into the departing
//!   packet);
//! * **the caller's pool** gets every record back — a shard worker's
//!   arrivals come in records the sharded dispatcher made, so
//!   `Switch::run_stamped` lends the loop its caller's pool and hands
//!   back every record it is done with, drained queue and all, and the
//!   dispatcher admits into them (a record may come back without its
//!   value row, moved into the packet it emitted — `InFlight::emit_row`
//!   says why that lane moves and the serial terminals copy; only
//!   admission may see one so);
//! * the pool **dies with the run** — between runs the table may grow
//!   (see [`Switch::with_scheduler`]), and a record is sized by its table.
//!   An engine that unwinds mid-run drops the pool with everything else.

use crate::error::{FaultReport, ShardSalvage, SwitchError};
use crate::machine::{AtomPipeline, Machine};
use crate::pifo::{KeySlots, SchedKey, SchedQueue, SchedSpec, Scheduler};
use crate::slot::SlotMachine;
use crate::stream::{IntoSource, RunStats, Source, SourceError};
use crate::wire::{BoundParser, ParseVerdict, WireConfig, WireLayout};
use domino_ir::{FieldId, FieldTable, FlatPacket, Packet, PacketEdges, Residual, StateStore};
use std::fmt;
use std::sync::Arc;

/// An execution engine a [`Switch`] can drive a pipeline with.
///
/// Implemented by the slot-compiled [`SlotMachine`] and, behind a
/// flat ↔ map shim, by the reference [`Machine`]; both process one packet
/// per clock **in place on the switch's flat layout** and expose their
/// persistent state for inspection. `build`/`bind` are how a switch puts
/// two engines — and the sharded switch in `crate::shard` every shard's —
/// on one table; `import_state` warm-starts an engine from a serial
/// checkpoint.
pub trait PipelineEngine {
    /// Instantiates an engine (with fresh state) for a compiled pipeline,
    /// laid out on `table`: every packet field the pipeline names is
    /// interned there (existing slots kept, new ones appended).
    fn build(pipeline: &AtomPipeline, table: &mut FieldTable) -> Result<Self, SwitchError>
    where
        Self: Sized;

    /// Hands the engine the finished table — the one it was built on,
    /// possibly grown since. Called before the first packet and again
    /// whenever the switch's table grows.
    fn bind(&mut self, table: &Arc<FieldTable>);

    /// Runs one packet through every stage, in place (transactional view).
    fn process(&mut self, pkt: &mut FlatPacket);

    /// Snapshot of the engine's persistent state, in map form.
    fn export_state(&self) -> StateStore;

    /// Overwrites the engine's persistent state from a snapshot (the
    /// inverse of [`PipelineEngine::export_state`]; shapes must match).
    fn import_state(&mut self, snapshot: &StateStore);
}

/// Why a switch dropped a packet — the observability split between
/// congestion losses and malformed traffic.
///
/// A real switch's counters distinguish tail drops from parser discards;
/// conflating them (as a single `drops` total once did) makes a burst of
/// garbage frames indistinguishable from congestion. Every drop anywhere
/// in the switch is exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The packet parsed (or arrived parsed) but the FIFO was at
    /// capacity — a congestion loss.
    QueueFull,
    /// The frame failed the wire parse graph with this verdict — a
    /// malformed-traffic discard, before ingress ever ran.
    Parse(ParseVerdict),
    /// The packet was shed at the sharded switch's dispatcher because the
    /// target shard's batch ring was full and the overload policy is
    /// [`Backpressure::Shed`](crate::shard::Backpressure::Shed) — an
    /// overload loss upstream of any per-shard queue.
    Backpressure,
    /// The packet parsed and cleared ingress, but the **programmed
    /// scheduler** ([`crate::pifo`]: PIFO, shaping, or strict priority — any
    /// non-FIFO [`SchedSpec`]) was at capacity — a congestion loss on a
    /// rank-ordered queue, split from [`DropReason::QueueFull`] so a
    /// drowning scheduler is distinguishable from a drowning drop-tail
    /// FIFO.
    SchedFull,
}

impl DropReason {
    /// Number of distinct reasons (queue-full, one per parse verdict,
    /// backpressure, sched-full).
    pub const COUNT: usize = 3 + ParseVerdict::COUNT;

    /// Dense index of this reason (0 is queue-full; parse verdicts follow
    /// in [`ParseVerdict::ALL`] order; then backpressure, then
    /// sched-full).
    ///
    /// New reasons are **appended**, never inserted: the dense index is
    /// part of exported diagnostics (`BENCH_throughput.json`, merged
    /// counters), so existing indices must stay stable —
    /// `tests/drop_reasons.rs` golden-pins the full assignment.
    pub fn index(self) -> usize {
        match self {
            DropReason::QueueFull => 0,
            DropReason::Parse(v) => 1 + v.index(),
            DropReason::Backpressure => 1 + ParseVerdict::COUNT,
            DropReason::SchedFull => 2 + ParseVerdict::COUNT,
        }
    }

    /// Every reason, in dense-index order.
    pub fn all() -> impl Iterator<Item = DropReason> {
        std::iter::once(DropReason::QueueFull)
            .chain(ParseVerdict::ALL.into_iter().map(DropReason::Parse))
            .chain([DropReason::Backpressure, DropReason::SchedFull])
    }

    /// Stable snake_case label (counter name in logs and bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::Parse(v) => v.label(),
            DropReason::Backpressure => "backpressure",
            DropReason::SchedFull => "sched_full",
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-reason drop counters: one saturating-free `u64` per
/// [`DropReason`], cheap enough to bump on the per-packet path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropCounters {
    counts: [u64; DropReason::COUNT],
}

impl Default for DropCounters {
    fn default() -> Self {
        DropCounters {
            counts: [0; DropReason::COUNT],
        }
    }
}

impl DropCounters {
    /// All-zero counters.
    pub fn new() -> DropCounters {
        DropCounters::default()
    }

    pub(crate) fn bump(&mut self, reason: DropReason) {
        self.counts[reason.index()] += 1;
    }

    pub(crate) fn bump_by(&mut self, reason: DropReason, n: u64) {
        self.counts[reason.index()] += n;
    }

    /// Drops recorded for one reason.
    pub fn get(&self, reason: DropReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Total drops across every reason (what `Switch::drops` reports).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Congestion losses (the queue-full reason alone).
    pub fn queue_full(&self) -> u64 {
        self.counts[DropReason::QueueFull.index()]
    }

    /// Overload sheds at the sharded dispatcher (the backpressure reason
    /// alone; always 0 on a serial [`Switch`]).
    pub fn backpressure(&self) -> u64 {
        self.counts[DropReason::Backpressure.index()]
    }

    /// Congestion losses on a programmed (non-FIFO) scheduler (the
    /// sched-full reason alone; always 0 under the default FIFO policy).
    pub fn sched_full(&self) -> u64 {
        self.counts[DropReason::SchedFull.index()]
    }

    /// Malformed-traffic discards (every parse verdict summed).
    pub fn parse_total(&self) -> u64 {
        self.total() - self.queue_full() - self.backpressure() - self.sched_full()
    }

    /// Adds another set of counters into this one (shard merging).
    pub fn merge(&mut self, other: &DropCounters) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The per-reason difference since an earlier snapshot — what one
    /// run contributed to cumulative counters.
    pub(crate) fn since(&self, earlier: &DropCounters) -> DropCounters {
        let mut diff = DropCounters::new();
        for (i, (now, then)) in self.counts.iter().zip(&earlier.counts).enumerate() {
            diff.counts[i] = now - then;
        }
        diff
    }

    /// Iterates `(reason, count)` in dense-index order.
    pub fn iter(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::all().map(|r| (r, self.counts[r.index()]))
    }
}

/// One transmitted packet of a scheduling run
/// (`switch.run(..).scheduled()`): the packet after egress, plus the
/// scheduling observables the invariant suites assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedDeparture {
    /// The packet's arrival cycle (0-based within the run).
    pub arrival: i64,
    /// The key the scheduler ordered it by.
    pub key: SchedKey,
    /// The cycle it left the switch (drain starts at `trace.len()`).
    pub departure: i64,
    /// The packet, after the egress pipeline.
    pub pkt: Packet,
}

/// The metadata fields the queue stamps on every packet handed to the
/// egress pipeline: enqueue timestamp, dequeue time, and queue depth.
/// Sharding's flow-key analysis treats this set as ingress-written (see
/// `crate::shard`).
pub const QUEUE_METADATA_FIELDS: [&str; 3] = ["enq_ts", "now", "qdepth"];

/// A packet in flight between its arrival and its sink: the slab on the
/// switch's table, plus whatever of the input the table does not name.
/// It is also what crosses a shard boundary (`crate::shard`): every shard
/// of a sharded switch runs on the one table its dispatcher admits onto.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) flat: FlatPacket,
    pub(crate) rest: Rest,
}

/// What rides beside a slab, by how the packet was born.
#[derive(Debug, Clone)]
pub(crate) enum Rest {
    /// Packet-born: the input fields the table does not name.
    Fields(Residual),
    /// Byte-born: the frame, where every field without a slot still sits.
    /// Boxed, so a queued slab pays one pointer either way.
    Frame(Box<WireLayout>),
}

impl InFlight {
    /// **Admission**: lands `pkt` on the table `edges` belong to — the
    /// one map → flat crossing of its life — keeping the fields the table
    /// does not name. A `spent` record is overwritten where it lies, a new
    /// one made if there is none.
    pub(crate) fn admit(
        pkt: &Packet,
        edges: &mut PacketEdges,
        spent: Option<InFlight>,
    ) -> InFlight {
        // The spent record is admitted into where it lies and returned:
        // moving it out of the `Option` and rebuilding it instead read
        // `stream_congested` and `sharded_flowlet` 4–7% slower.
        if let Some(mut spent) = spent {
            if let Rest::Fields(residual) = &mut spent.rest {
                edges.admit_into(pkt, &mut spent.flat, residual);
                return spent;
            }
        }
        let mut flat = FlatPacket::new(Arc::clone(edges.table()));
        let mut residual = Residual::new();
        edges.admit_into(pkt, &mut flat, &mut residual);
        InFlight {
            flat,
            rest: Rest::Fields(residual),
        }
    }

    /// The byte-born arrival: `parser` walks the parse graph over `frame`
    /// and lands it — slab cleared and filled, bytes copied into the
    /// record's own buffer — on the record `spent` supplies, a new one if
    /// it has none. A rejected frame asks for no record.
    pub(crate) fn parse(
        frame: &[u8],
        parser: &BoundParser,
        spent: impl FnOnce() -> Option<InFlight>,
    ) -> Result<InFlight, ParseVerdict> {
        let spent = || {
            spent().and_then(|spent| match spent.rest {
                Rest::Frame(layout) => Some((spent.flat, layout)),
                Rest::Fields(_) => None,
            })
        };
        let (flat, layout) = parser.parse_into(frame, spent)?;
        Ok(InFlight {
            flat,
            rest: Rest::Frame(layout),
        })
    }

    /// **Emission**: the one flat → map crossing of a packet-born slab,
    /// every field in name order. (A byte-born slab leaves through the
    /// deparser instead; asked anyway, it has no unnamed fields to add.)
    pub(crate) fn emit(&self, edges: &mut PacketEdges) -> Packet {
        match &self.rest {
            Rest::Fields(residual) => edges.emit(&self.flat, residual),
            Rest::Frame(_) => edges.emit(&self.flat, &[]),
        }
    }

    /// [`InFlight::emit`], **moving** the slab's value row into the packet
    /// ([`PacketEdges::emit_row`]; a slab with a residual keeps its row):
    /// the record is left without one, and only admission —
    /// [`InFlight::admit`], into a pooled record — may see it again.
    ///
    /// Which of the two a terminal calls follows from where its records go
    /// home. A serial line-rate terminal's record stays on its thread, and
    /// copying leaves the row in it for the next admission: those copy. A
    /// sharded `Forward` lane's record crosses back to the dispatcher
    /// thread, which allocated its row; moving that row into the packet
    /// keeps the output in the dispatcher's allocator arena: that lane
    /// moves. A burst's drain (`Switch::drain_burst`) recycles no record —
    /// each is dropped once it departs — so there is no next admission to
    /// leave a row for: it moves. Each of the first two loses where the
    /// other is used — the cost ledger's `norm_pkts_per_s`, one emission
    /// everywhere against this choice, measured before the burst drain
    /// moved (medians of six alternating pairs):
    ///
    /// | everywhere | `serial_flowlet` | `stream_congested` | `sched_wfq` | `sharded_flowlet` |
    /// |---|---|---|---|---|
    /// | move | 0.871× | 0.966× | 1.027× | 0.984× |
    /// | copy | 1.026× | 1.015× | 0.983× | 0.913×, peak RSS 1.32× |
    pub(crate) fn emit_row(&mut self, edges: &mut PacketEdges) -> Packet {
        match &self.rest {
            Rest::Fields(residual) => edges.emit_row(&mut self.flat, residual),
            Rest::Frame(_) => edges.emit(&self.flat, &[]),
        }
    }

    /// The way out of a byte-born slab: its own frame with every slotted
    /// field patched back in place, lent (`None` for a packet-born slab,
    /// which has no frame to leave in). Whoever keeps the frame copies it
    /// or takes the buffer; the record is spent either way.
    pub(crate) fn deparse(&mut self, parser: &BoundParser) -> Option<&mut Vec<u8>> {
        match &mut self.rest {
            Rest::Frame(layout) => Some(parser.deparse_in_place(&self.flat, layout)),
            Rest::Fields(_) => None,
        }
    }
}

/// Spent records, for admission to overwrite instead of making new ones
/// (the module docs' *Recycling*).
pub(crate) type Pool = Vec<InFlight>;

/// **The arrival** of every run: its arrival cycle, and the record on the
/// switch's table (or the verdict that rejected its frame). Only the two
/// adapters, [`admitting`] and [`parsing`], stamp one.
pub(crate) type Stamped = (i64, Result<InFlight, ParseVerdict>);

/// What pulling an adapter yields: the next arrival, `None` at the end of
/// the stream, or the source's error.
pub(crate) type Pulled = Result<Option<Stamped>, SourceError>;

/// The packet-born adapter: lends each packet of `source` and admits it
/// from that loan — its one map → slab crossing — into a record of the
/// pool it is lent if there is one ([`InFlight::admit`]), stamping the
/// `k`-th arrival `from + k`.
pub(crate) fn admitting<S: Source<Packet>>(
    source: &mut S,
    from: i64,
) -> impl FnMut(&mut PacketEdges, &mut Pool) -> Pulled + '_ {
    let mut at = from;
    move |edges, pool| {
        let Some(pkt) = source.lend()? else {
            return Ok(None);
        };
        let p = InFlight::admit(&pkt, edges, pool.pop());
        at += 1;
        Ok(Some((at - 1, Ok(p))))
    }
}

/// The byte-born adapter: `parser` lays each frame of `source` onto a
/// record of the pool it is lent if there is one ([`InFlight::parse`]),
/// or rejects it, stamping the `k`-th arrival `from + k`.
pub(crate) fn parsing<'a, S: Source<[u8]>>(
    source: &'a mut S,
    parser: &'a BoundParser,
    from: i64,
) -> impl FnMut(&mut PacketEdges, &mut Pool) -> Pulled + 'a {
    let mut at = from;
    move |_, pool| {
        let Some(frame) = source.lend()? else {
            return Ok(None);
        };
        let p = InFlight::parse(&frame, parser, || pool.pop());
        at += 1;
        Ok(Some((at - 1, p)))
    }
}

/// A burst's held arrival: its key, its arrival cycle and its
/// ingress-processed record ([`Switch::hold`], [`Switch::drain_burst`]).
pub(crate) type Held = (SchedKey, i64, InFlight);

/// **The burst order** — a PIFO's pop order over what a burst holds:
/// `(key, arrival)`, whose tie-break is arrival. The one sort of held
/// slabs, run by the burst drain ([`Switch::drain_burst`]) and by a
/// faulted sharded scheduling lane's salvage. Arrival cycles are
/// distinct, so an unstable sort is stable.
pub(crate) fn sort_burst(held: &mut [Held]) {
    held.sort_unstable_by_key(|&(key, arrival, _)| (key, arrival));
}

/// How a run through the one loop ended: its totals, the switch's books
/// as the run began ([`Switch::books`]), and the source's error if it
/// failed rather than ended.
struct Ended {
    stats: RunStats,
    before: Books,
    error: Option<SourceError>,
}

/// A switch's books at one instant: its drop counters and its transmit
/// count. A run's share is what they moved by since ([`Switch::salvage`]).
pub(crate) type Books = (DropCounters, u64);

/// A switch: ingress pipeline, a bounded queue under the discipline its
/// [`SchedSpec`] selects (drop-tail FIFO unless
/// [`Switch::with_scheduler`] sets another), egress pipeline.
///
/// # Panic freedom
///
/// The run entry points ([`Switch::run`], [`Switch::run_frames`]) never
/// panic on any input trace: malformed frames become typed
/// [`DropReason::Parse`] counters, overfull queues become
/// [`DropReason::QueueFull`] counters, and unsupported configurations are
/// rejected up front as typed [`SwitchError`]s. A
/// panic can only originate inside a custom [`PipelineEngine`] (e.g. a
/// deliberately faulty one — see [`crate::fault`]), and propagates out of
/// this switch's terminals; the sharded switch's threaded terminals
/// supervise even those, its sequential ones do not (see
/// [`crate::shard`]).
#[derive(Debug, Clone)]
pub struct Switch<E: PipelineEngine = Machine> {
    ingress: E,
    /// The egress engine: a sharded burst's drain also runs it on the
    /// departures its shard owns (`crate::shard`).
    pub(crate) egress: E,
    /// The one layout both engines run on and every queued slab is keyed
    /// by (see the module docs), as its two map edges hold it: where a
    /// run's packets are admitted and emitted, with what the edges have
    /// memoised of the traffic so far. The loop lends them to its sink.
    /// The table is append-only: reconfiguration may grow it, which
    /// re-makes the edges and re-binds the engines.
    pub(crate) edges: PacketEdges,
    /// `(enqueue_cycle, packet)` queue between the pipelines, running the
    /// discipline `sched` selected (drop-tail FIFO by default) for every
    /// run, packet-born or byte-born. Empty between runs.
    queue: SchedQueue<(i64, InFlight)>,
    /// The scheduling policy `queue` was built from (see
    /// [`Switch::with_scheduler`]), and its key fields as slots.
    sched: SchedSpec,
    key: KeySlots,
    /// Cycles taken to transmit one packet from the queue (≥1): values
    /// above 1 create standing queues under load, which is what egress
    /// AQM algorithms exist to observe.
    drain_period: u64,
    /// The cycle of the arrival taken last (between runs: where the
    /// line-rate clock resumes). At line rate a packet is through both
    /// engines before the next arrives, so when an engine unwinds
    /// mid-run, this names the packet it was processing.
    pub(crate) now: i64,
    /// The books: every drop and every departure of a packet this switch
    /// handled — as a shard, a sharded dispatcher's sheds of packets
    /// steered to it and a sharded burst's departures on its egress too.
    pub(crate) drops: DropCounters,
    pub(crate) transmitted: u64,
    /// Slots of the metadata stamped for egress programs, in
    /// [`QUEUE_METADATA_FIELDS`] order (enqueue timestamp, now, depth).
    meta: [FieldId; 3],
    /// What a scheduled burst holds: the serial burst ([`SchedRun`]), or
    /// a shard's part of a sharded one, lent to its scheduling lane
    /// (`crate::shard`). Empty between runs, its buffer kept for the next.
    pub(crate) burst: Vec<Held>,
}

impl Switch<Machine> {
    /// Builds a switch from two compiled pipelines and a queue capacity,
    /// running both on the map-based reference engine.
    pub fn new(ingress: AtomPipeline, egress: AtomPipeline, capacity: usize) -> Switch {
        let mut table = FieldTable::new();
        let ingress = Machine::on_table(ingress, &mut table);
        let egress = Machine::on_table(egress, &mut table);
        let meta = QUEUE_METADATA_FIELDS.map(|f| table.intern(f));
        Switch::assemble(ingress, egress, &Arc::new(table), meta, capacity)
    }
}

impl Switch<SlotMachine> {
    /// Builds a switch running both pipelines on the slot-compiled fast
    /// path (bit-identical to [`Switch::new`], without per-packet string
    /// hashing inside the pipelines).
    pub fn new_slot(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
        capacity: usize,
    ) -> Result<Switch<SlotMachine>, SwitchError> {
        Switch::build_with(ingress, egress, capacity, SlotMachine::build)
    }
}

impl<E: PipelineEngine> Switch<E> {
    /// Builds a switch whose engines come from `make`, called for the
    /// ingress pipeline and then the egress pipeline against the switch's
    /// one field table ([`PipelineEngine::build`] is the plain `make`; a
    /// fault-injecting factory passes its own).
    pub fn build_with(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
        capacity: usize,
        mut make: impl FnMut(&AtomPipeline, &mut FieldTable) -> Result<E, SwitchError>,
    ) -> Result<Switch<E>, SwitchError> {
        let mut table = FieldTable::new();
        let ingress = make(ingress, &mut table)?;
        let egress = make(egress, &mut table)?;
        let meta = QUEUE_METADATA_FIELDS.map(|f| table.intern(f));
        let table = Arc::new(table);
        Ok(Switch::assemble(ingress, egress, &table, meta, capacity))
    }

    /// Finishes a switch around two engines built on `table` — its own,
    /// or the one every shard of a sharded switch shares — where `meta`
    /// are the slots of [`QUEUE_METADATA_FIELDS`].
    pub(crate) fn assemble(
        mut ingress: E,
        mut egress: E,
        table: &Arc<FieldTable>,
        meta: [FieldId; 3],
        capacity: usize,
    ) -> Switch<E> {
        ingress.bind(table);
        egress.bind(table);
        Switch {
            ingress,
            egress,
            edges: PacketEdges::new(table),
            queue: SchedSpec::Fifo.build_queue(capacity),
            sched: SchedSpec::Fifo,
            key: KeySlots::Fifo,
            drain_period: 1,
            now: 0,
            drops: DropCounters::new(),
            transmitted: 0,
            meta,
            burst: Vec::new(),
        }
    }

    /// The slot of `name`, growing the table (and re-binding both
    /// engines) if the switch has not met the field yet. Growth happens
    /// only between runs, when the queue holds no slab of the old size.
    fn slot_of(&mut self, name: &str) -> FieldId {
        if let Some(id) = self.edges.table().lookup(name) {
            return id;
        }
        debug_assert!(self.queue.is_empty(), "the table grows only between runs");
        let mut table = FieldTable::clone(self.edges.table());
        let id = table.intern(name);
        let table = Arc::new(table);
        self.edges = PacketEdges::new(&table);
        self.ingress.bind(&table);
        self.egress.bind(&table);
        id
    }

    /// Sets how many cycles the output link needs per packet (default 1;
    /// larger values model an oversubscribed egress link).
    pub fn with_drain_period(mut self, cycles: u64) -> Switch<E> {
        self.drain_period = cycles.max(1);
        self
    }

    /// Replaces the queue's discipline (default: drop-tail FIFO) with the
    /// given [`SchedSpec`] — a PIFO, a shaper, or strict priority,
    /// whose rank fields an ingress Domino program writes. Call before
    /// running traffic; any queued packets are discarded.
    ///
    /// ```
    /// use banzai::pifo::SchedSpec;
    /// use banzai::{AtomPipeline, Switch};
    /// use domino_ir::Packet;
    ///
    /// // A PIFO ranked by the packets' own `start` field: a burst
    /// // admitted back-to-back departs in rank order, not arrival order.
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     64,
    /// )
    /// .with_scheduler(SchedSpec::Pifo { rank: "start".into() });
    /// let trace: Vec<Packet> = [30, 10, 20]
    ///     .iter()
    ///     .map(|&r| Packet::new().with("start", r))
    ///     .collect();
    /// let deps = sw.run(&trace).scheduled().collect().unwrap();
    /// let order: Vec<i64> = deps.iter().map(|d| d.key.rank).collect();
    /// assert_eq!(order, [10, 20, 30]);
    /// ```
    pub fn with_scheduler(mut self, spec: SchedSpec) -> Switch<E> {
        self.queue = spec.build_queue(self.queue.capacity());
        self.key = spec.resolve(|field| self.slot_of(field));
        self.sched = spec;
        self
    }

    /// Total packets dropped so far, for any reason (the sum over
    /// [`Switch::drop_counters`]).
    ///
    /// ```
    /// use banzai::{AtomPipeline, Switch};
    /// use domino_ir::Packet;
    ///
    /// // Capacity 2 with a link needing 4 cycles/packet: arrivals outrun
    /// // the drain and the tail drops.
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     2,
    /// )
    /// .with_drain_period(4);
    /// let out = sw.run(&vec![Packet::new(); 10]).collect().unwrap();
    /// assert!(sw.drops() > 0);
    /// // Conservation: every admitted packet is eventually transmitted.
    /// assert_eq!(out.len() as u64, sw.transmitted());
    /// assert_eq!(sw.transmitted() + sw.drops(), 10);
    /// ```
    pub fn drops(&self) -> u64 {
        self.drops.total()
    }

    /// The per-reason drop counters: congestion (queue-full) losses split
    /// from every malformed-traffic parse verdict.
    ///
    /// ```
    /// use banzai::wire::{encode, FrameSpec, ParseVerdict, WireConfig};
    /// use banzai::{AtomPipeline, DropReason, Switch};
    /// use domino_ir::Packet;
    ///
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     64,
    /// );
    /// let cfg = WireConfig::new();
    /// let good = encode(&Packet::new(), &cfg, &FrameSpec::default());
    /// let runt = good[..9].to_vec(); // cut inside the Ethernet header
    /// let frames = vec![good, runt];
    /// let out = sw.run_frames(&frames, &cfg).collect().unwrap();
    ///
    /// // One frame made it through; the runt was counted by reason.
    /// assert_eq!(out.len(), 1);
    /// let counters = sw.drop_counters();
    /// assert_eq!(
    ///     counters.get(DropReason::Parse(ParseVerdict::TruncatedEthernet)),
    ///     1,
    /// );
    /// assert_eq!(counters.parse_total(), 1);
    /// assert_eq!(counters.queue_full(), 0); // not a congestion loss
    /// assert_eq!(sw.drops(), 1);            // total still sees it
    /// ```
    pub fn drop_counters(&self) -> &DropCounters {
        &self.drops
    }

    /// Number of packets transmitted (fully processed by egress) so far.
    ///
    /// ```
    /// use banzai::{AtomPipeline, Switch};
    /// use domino_ir::Packet;
    ///
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     64,
    /// );
    /// sw.run(&vec![Packet::new(); 5]).collect().unwrap();
    /// assert_eq!(sw.transmitted(), 5);
    /// assert_eq!(sw.drops(), 0);
    /// ```
    pub fn transmitted(&self) -> u64 {
        self.transmitted
    }

    /// Current queue occupancy.
    ///
    /// ```
    /// use banzai::{AtomPipeline, Switch};
    /// use domino_ir::Packet;
    ///
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     64,
    /// );
    /// assert_eq!(sw.queue_depth(), 0); // empty between full traces
    /// sw.run(&vec![Packet::new(); 8]).collect().unwrap();
    /// assert_eq!(sw.queue_depth(), 0); // a full run drains the queue
    /// assert_eq!(sw.capacity(), 64);
    /// ```
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The queue's capacity (packets beyond this are dropped at enqueue).
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Snapshot of the ingress engine's persistent state.
    pub fn export_ingress_state(&self) -> StateStore {
        self.ingress.export_state()
    }

    /// Snapshot of the egress engine's persistent state.
    pub fn export_egress_state(&self) -> StateStore {
        self.egress.export_state()
    }

    /// Overwrites the ingress engine's state from a snapshot (the
    /// per-partition import hook; shapes must match the pipeline's
    /// declarations).
    pub fn import_ingress_state(&mut self, snapshot: &StateStore) {
        self.ingress.import_state(snapshot);
    }

    /// Overwrites the egress engine's state from a snapshot.
    pub fn import_egress_state(&mut self, snapshot: &StateStore) {
        self.egress.import_state(snapshot);
    }

    /// The arrival half of a cycle: notes the arrival's cycle, runs
    /// ingress on the slab in place and reads the key the configured
    /// discipline orders it by off its slots.
    fn arrive(&mut self, now: i64, p: &mut InFlight) -> SchedKey {
        self.now = now;
        self.ingress.process(&mut p.flat);
        self.key.key_of(&p.flat)
    }

    /// Books an arrival the queue had no room for, under the configured
    /// discipline's drop reason.
    fn refuse(&mut self) {
        self.drops.bump(self.sched.full_drop_reason());
    }

    /// Books an arrival slot whose frame the parser rejected, under its
    /// verdict.
    fn reject(&mut self, verdict: ParseVerdict) {
        self.drops.bump(DropReason::Parse(verdict));
    }

    /// A departure: stamps the queue metadata (`meta`, in
    /// [`QUEUE_METADATA_FIELDS`] order) by slot, for the egress pass that
    /// follows.
    fn depart(meta: [FieldId; 3], enq_ts: i64, now: i64, depth: usize, p: &mut InFlight) {
        let [enq_ts_slot, now_slot, depth_slot] = meta;
        p.flat.set(enq_ts_slot, enq_ts as i32);
        p.flat.set(now_slot, now as i32);
        p.flat.set(depth_slot, depth as i32);
    }

    /// **The burst admission** of a scheduling run, serial or sharded: a
    /// stamped arrival runs ingress and is held under its key — or, once
    /// its cycle reaches `capacity`, booked under the discipline's drop
    /// reason and its record put in `spent`. Nothing departs while a burst
    /// arrives, so the queue only grows and admits exactly the first
    /// `capacity` arrival cycles, a rule any shard can apply alone. A
    /// rejected frame is booked under its verdict.
    pub(crate) fn hold(&mut self, (now, arrival): Stamped, held: &mut Vec<Held>, spent: &mut Pool) {
        match arrival {
            Ok(mut p) => {
                let key = self.arrive(now, &mut p);
                if (now as usize) < self.queue.capacity() {
                    held.push((key, now, p));
                } else {
                    self.refuse();
                    spent.push(p);
                }
            }
            Err(verdict) => self.reject(verdict),
        }
    }

    /// **The burst drain** of a scheduling run, serial or sharded: sorts
    /// `held` in the burst order ([`sort_burst`]) — the run's one ordering
    /// step — and departs one record per cycle from `now`, the cycle the
    /// burst ended, leaving `now` at the cycle after the last departure;
    /// under a shaper no record departs before its rank. Each departure is
    /// stamped, lent to `egress` with its arrival cycle (the serial
    /// switch's engine, or the engine of the shard that owns it) and
    /// emitted with its row moved out ([`InFlight::emit_row`]). `held` is
    /// left empty, its buffer kept.
    pub(crate) fn drain_burst(
        meta: [FieldId; 3],
        edges: &mut PacketEdges,
        shaping: bool,
        held: &mut Vec<Held>,
        now: &mut i64,
        mut egress: impl FnMut(i64, &mut FlatPacket),
    ) -> Vec<SchedDeparture> {
        sort_burst(held);
        let total = held.len();
        let mut out = Vec::with_capacity(total);
        for (key, arrival, mut p) in held.drain(..) {
            let departure = if shaping { key.rank.max(*now) } else { *now };
            let depth = total - out.len() - 1;
            Self::depart(meta, arrival, departure, depth, &mut p);
            egress(arrival, &mut p.flat);
            out.push(SchedDeparture {
                arrival,
                key,
                departure,
                pkt: p.emit_row(edges),
            });
            *now = departure + 1;
        }
        out
    }

    /// **The one run loop** every line-rate terminal of this switch —
    /// and, through [`Switch::run_stamped`], every shard worker — is an
    /// instance of (see the module docs for the table). One iteration is
    /// one cycle:
    ///
    /// 1. **arrival slot** — `pull` is lent the switch's edges and the
    ///    pool and yields the next [`Stamped`] arrival, whose cycle sets
    ///    the clock (stamps increase), already on the switch table, in a
    ///    spent record of the pool if there is one; ingress runs on the
    ///    slab, the [`SchedKey`] is read off slots, and the record joins
    ///    the queue as having arrived at this cycle — or the drop is booked
    ///    under the discipline's reason, or under the verdict that rejected
    ///    its frame. A failed or ended source is never pulled again;
    /// 2. the run is over once the source has ended and the queue is
    ///    empty — so everything admitted departs and the books close
    ///    (`lost_in_fault == 0`) even when the source failed mid-stream;
    /// 3. **drain slot** — the clock ticks; every `drain_period` cycles,
    ///    *after* the cycle's arrival (a packet admitted at cycle `t`
    ///    leaves at `t + 1` at the earliest), the head departs unless a
    ///    shaper's rank says it is not yet due: `enq_ts`/`now`/`qdepth`
    ///    (or the configured names) are stamped, egress runs, and `sink`
    ///    is lent the record the cycle it leaves, to emit or deparse —
    ///    memory stays O(queue capacity) however long the source.
    ///
    /// A record whose packet is gone — departed, or refused by the full
    /// queue — goes to a pool `pull` is lent, to admit a packet or parse a
    /// frame into (the module docs' *Recycling*): the caller's `pool`,
    /// which gets every record back, drained queue and all; or, given
    /// none, a pool of the run's own, which frees what departs once the
    /// source has ended.
    ///
    /// Engine state and the drop/transmit counters accumulate across
    /// calls; the queue is empty on entry and on return.
    fn cycle(
        &mut self,
        pool: Option<&mut Pool>,
        mut pull: impl FnMut(&mut PacketEdges, &mut Pool) -> Pulled,
        mut sink: impl FnMut(&mut PacketEdges, &mut InFlight),
    ) -> Ended {
        let shaping = self.sched.is_shaping();
        let before = self.books();
        let mut stats = RunStats::default();
        let (keep, mut own) = (pool.is_some(), Vec::new());
        let pool = pool.unwrap_or(&mut own);
        let mut now = self.now;
        let mut ended = false;
        let mut error = None;
        loop {
            if !ended {
                match pull(&mut self.edges, pool) {
                    Ok(Some((t, arrival))) => {
                        debug_assert!(stats.offered == 0 || now <= t, "arrival stamps increase");
                        stats.offered += 1;
                        now = t;
                        match arrival {
                            Ok(mut p) => {
                                let key = self.arrive(now, &mut p);
                                if let Err((_, p)) = self.queue.push(key, (now, p)) {
                                    self.refuse();
                                    pool.push(p);
                                }
                            }
                            Err(verdict) => self.reject(verdict),
                        }
                    }
                    Ok(None) => ended = true,
                    Err(e) => {
                        ended = true;
                        error = Some(e);
                    }
                }
            }
            if ended && self.queue.is_empty() {
                break;
            }
            now += 1;
            // A shaper's head is not due before the cycle its rank names:
            // until then its slots go unused.
            let open = (now as u64).is_multiple_of(self.drain_period)
                && match self.queue.peek_key() {
                    Some(head) if shaping => head.rank <= now,
                    _ => true,
                };
            if open {
                if let Some((_, (arrival, mut p))) = self.queue.pop() {
                    let depth = self.queue.len();
                    Self::depart(self.meta, arrival, now, depth, &mut p);
                    self.egress.process(&mut p.flat);
                    self.transmitted += 1;
                    sink(&mut self.edges, &mut p);
                    if !ended || keep {
                        pool.push(p);
                    }
                }
            }
        }
        self.now = now;
        stats.transmitted = self.transmitted - before.1;
        Ended {
            stats,
            before,
            error,
        }
    }

    /// Runs a batch of arrivals stamped elsewhere through the loop at
    /// line rate, handing `sink` each slab as it departs and `spent` every
    /// record it is done with — the sharded workers' way in, whose
    /// dispatcher made the records and takes them back.
    ///
    /// A shard of a partitioned switch sees only *its* packets, stamped
    /// with their **global** arrival cycles, so its `enq_ts`/`now`
    /// metadata is bit-identical to the serial switch's. The slabs must be
    /// on this switch's table, and the configured discipline ungated (the
    /// sharded switch checks).
    pub(crate) fn run_stamped(
        &mut self,
        arrivals: impl IntoIterator<Item = Stamped>,
        spent: &mut Pool,
        sink: impl FnMut(&mut PacketEdges, &mut InFlight),
    ) {
        debug_assert_eq!(self.drain_period, 1, "a shard's link drains every cycle");
        let mut arrivals = arrivals.into_iter();
        self.cycle(Some(spent), |_, _| Ok(arrivals.next()), sink);
    }

    /// The switch's books as they stand: what a run's share is counted
    /// from.
    pub(crate) fn books(&self) -> Books {
        (self.drops.clone(), self.transmitted)
    }

    /// **The one close of a run's books**, serial or sharded: this
    /// switch's entry in a [`FaultReport`] as shard `shard` (a serial
    /// switch is shard 0 of itself; a `failed` shard's entry is made by
    /// its replacement, which took the dead shard's books). The run's
    /// drops are what the counters moved by since `before`; of what it
    /// transmitted, `output` is kept for the report and the rest — the
    /// count returned beside the entry — left through a sink. Kept output
    /// that never departed (what a scheduling lane held) is booked as
    /// transmitted here. The state is exported unless `failed`.
    pub(crate) fn salvage(
        &mut self,
        shard: usize,
        failed: bool,
        before: &Books,
        offered: u64,
        output: Vec<Packet>,
    ) -> (ShardSalvage, u64) {
        let (kept, sent) = (output.len() as u64, self.transmitted - before.1);
        self.transmitted += kept.saturating_sub(sent);
        let state = (!failed).then(|| (self.ingress.export_state(), self.egress.export_state()));
        let salvage = ShardSalvage {
            shard,
            failed,
            offered,
            output,
            drops: self.drops.since(&before.0),
            state,
        };
        (salvage, sent.saturating_sub(kept))
    }

    /// Turns how a run [`Ended`] into the terminal's result: its totals,
    /// or — if the source failed mid-stream — the typed fault whose report
    /// carries the output the terminal `kept` (nothing, when it streamed
    /// to a sink) and closed books. A terminal moves its output into
    /// `kept`, so that each transmitted packet exists once.
    fn close(
        &mut self,
        end: Ended,
        kept: impl FnOnce() -> Vec<Packet>,
    ) -> Result<RunStats, SwitchError> {
        let Some(error) = end.error else {
            return Ok(end.stats);
        };
        let offered = end.stats.offered;
        let (salvage, streamed) = self.salvage(0, false, &end.before, offered, kept());
        Err(FaultReport::assemble(
            offered,
            streamed,
            Some(error),
            Vec::new(),
            vec![salvage],
        ))
    }

    /// Opens a streaming run session: anything convertible to a
    /// packet [`Source`] (a `&[Packet]` slice, a `&Vec<Packet>`, a
    /// generator, a pcap-backed source) drives the switch through the
    /// returned [`Run`] builder — the single entry point of every packet
    /// run.
    ///
    /// ```
    /// use banzai::stream::GenSource;
    /// use banzai::{AtomPipeline, Switch};
    /// use domino_ir::Packet;
    ///
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     64,
    /// );
    /// // Slices are sources…
    /// let out = sw.run(&vec![Packet::new(); 3]).collect().unwrap();
    /// assert_eq!(out.len(), 3);
    /// // …and so is a bounded generator that never materializes the
    /// // trace: outputs stream to the sink, memory stays O(queue).
    /// let stats = sw
    ///     .run(GenSource::with_len(1000, |i| {
    ///         Some(Packet::new().with("seq", i as i32))
    ///     }))
    ///     .for_each(|_pkt| {})
    ///     .unwrap();
    /// assert_eq!(stats.offered, 1000);
    /// assert_eq!(stats.transmitted, 1000);
    /// ```
    pub fn run<S: IntoSource<Packet>>(&mut self, source: S) -> Run<'_, E, S::Source> {
        Run {
            switch: self,
            source: source.into_source(),
        }
    }

    /// Opens a streaming **byte-frame** run session: anything convertible
    /// to a frame [`Source`] (a slice of frames, a pcap reader) drives the
    /// parse → pipeline → deparse path through the returned [`FrameRun`]
    /// builder.
    pub fn run_frames<'c, S: IntoSource<[u8]>>(
        &mut self,
        source: S,
        cfg: &'c WireConfig,
    ) -> FrameRun<'_, 'c, E, S::Source> {
        FrameRun {
            switch: self,
            source: source.into_source(),
            cfg,
        }
    }
}

/// A configured line-rate run session on a serial [`Switch`] — the
/// builder [`Switch::run`] returns. Terminal methods consume it:
/// [`Run::collect`] materializes the transmitted packets,
/// [`Run::for_each`] streams them to a sink (O(queue) memory), and
/// [`Run::scheduled`] makes the session a scheduled burst under the
/// discipline [`Switch::with_scheduler`] installed.
///
/// The **line-rate regime**: one input packet arrives per cycle on a
/// clock that continues from the switch's previous run; each is processed
/// by ingress and enqueued (or dropped if the queue is full). Every
/// `drain_period` cycles the head departs — whatever packet the
/// configured discipline says is next (arrival order on the default FIFO,
/// rank order on a PIFO; a shaper additionally holds its head until the
/// cycle its rank names) — with `enq_ts`/`qdepth` (or the configured
/// names) and `now` stamped so egress programs can compute sojourn times.
#[must_use = "a run session does nothing until a terminal method (`collect`, `for_each`) runs it"]
pub struct Run<'s, E: PipelineEngine, S: Source<Packet>> {
    switch: &'s mut Switch<E>,
    source: S,
}

impl<'s, E: PipelineEngine, S: Source<Packet>> Run<'s, E, S> {
    /// Switches this session to the scheduling regime under the queue's
    /// **already-configured** discipline (see [`Switch::with_scheduler`]).
    pub fn scheduled(self) -> SchedRun<'s, E, S> {
        SchedRun {
            switch: self.switch,
            source: self.source,
        }
    }

    /// Runs the session and collects every transmitted packet, in order —
    /// bit-identical to streaming them through [`Run::for_each`].
    ///
    /// # Errors
    ///
    /// [`SwitchError::Fault`] if the source fails mid-stream; the report
    /// carries everything transmitted before (and drained after) the
    /// failure, with closed books.
    pub fn collect(mut self) -> Result<Vec<Packet>, SwitchError> {
        let (lo, hi) = self.source.size_hint();
        let mut out = Vec::with_capacity(hi.unwrap_or(lo).min(1 << 20));
        let pull = admitting(&mut self.source, self.switch.now);
        let end = (self.switch).cycle(None, pull, |edges, p| out.push(p.emit(edges)));
        self.switch.close(end, || std::mem::take(&mut out))?;
        Ok(out)
    }

    /// Runs the session, streaming each transmitted packet to `sink` the
    /// cycle it departs — the bounded-memory terminal for arbitrarily
    /// long sources. Returns offered/transmitted totals for this run.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Fault`] if the source fails mid-stream (packets
    /// already handed to `sink` are not replayed in the report's salvage;
    /// the sink saw them the moment they departed).
    pub fn for_each<F: FnMut(Packet)>(mut self, mut sink: F) -> Result<RunStats, SwitchError> {
        let pull = admitting(&mut self.source, self.switch.now);
        let end = (self.switch).cycle(None, pull, |edges, p| sink(p.emit(edges)));
        self.switch.close(end, Vec::new)
    }
}

/// A run session in the **scheduling regime** — built by
/// [`Run::scheduled`]. The whole source arrives as a back-to-back burst
/// (one packet per cycle, cycles `0..n` of a run-local clock), then the
/// queue drains at one packet per cycle from cycle `n` in whatever order
/// the configured [`SchedSpec`] dictates. Nothing departs until the source
/// has ended, so that order is a stable sort of what the queue holds: the
/// switch holds the first `capacity` arrivals and sorts them once, by
/// `(key, arrival)` — the admission and drain the sharded twin
/// ([`ShardedSchedRun`](crate::shard::ShardedSchedRun)) shares.
///
/// This is the regime where a scheduler is observable at all: under
/// [`Switch::run`]'s line-rate admission the queue never holds more than
/// one packet, so every discipline degenerates to FIFO. The burst builds
/// a standing queue of up to `capacity` packets (no pops happen while it
/// arrives, so the first `capacity` arrivals are admitted; arrivals beyond
/// capacity drop under the policy's reason — [`DropReason::SchedFull`]
/// for rank schedulers), and the drain exposes the discipline's order.
/// `drain_period` is ignored: the drain *is* the one-packet-per-cycle
/// output link.
///
/// Under a [`SchedSpec::Shaping`] policy a packet's rank is its
/// earliest-departure cycle: the link idles until the next packet's rank,
/// so departure times (not just order) are programmed.
///
/// Egress metadata is stamped per departure (`enq_ts` = arrival cycle,
/// `now` = departure cycle, `qdepth` = packets still queued), so
/// sojourn-aware egress programs (CoDel) observe the scheduler's actual
/// queueing delays.
#[must_use = "a run session does nothing until `collect` runs it"]
pub struct SchedRun<'s, E: PipelineEngine, S: Source<Packet>> {
    switch: &'s mut Switch<E>,
    source: S,
}

impl<E: PipelineEngine, S: Source<Packet>> SchedRun<'_, E, S> {
    /// Runs the burst + drain and returns one [`SchedDeparture`] per
    /// transmitted packet, in departure order.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Fault`] if the source fails mid-burst; everything
    /// admitted still drains and is reported, with closed books.
    pub fn collect(mut self) -> Result<Vec<SchedDeparture>, SwitchError> {
        let sw = &mut *self.switch;
        let before = sw.books();
        let (mut held, mut spent) = (std::mem::take(&mut sw.burst), Vec::new());
        let mut stats = RunStats::default();
        // A burst's clock is run-local.
        let mut pull = admitting(&mut self.source, 0);
        let error = loop {
            match pull(&mut sw.edges, &mut spent) {
                Ok(Some(arrival)) => sw.hold(arrival, &mut held, &mut spent),
                end => break end.err(),
            }
            stats.offered += 1;
        };
        let (egress, edges, shaping) = (&mut sw.egress, &mut sw.edges, sw.sched.is_shaping());
        sw.now = stats.offered as i64;
        let egress = |_, p: &mut FlatPacket| egress.process(p);
        let mut out =
            Switch::<E>::drain_burst(sw.meta, edges, shaping, &mut held, &mut sw.now, egress);
        sw.burst = held;
        stats.transmitted = out.len() as u64;
        sw.transmitted += stats.transmitted;
        let end = Ended {
            stats,
            before,
            error,
        };
        sw.close(end, || out.drain(..).map(|d| d.pkt).collect())?;
        Ok(out)
    }
}

/// A streaming byte-frame run session (parse → pipeline → deparse) — the
/// builder [`Switch::run_frames`] returns: a line-rate [`Run`] with the
/// wire front-end ([`crate::wire`]) on both ends.
///
/// Each arrival slot takes one frame: a frame the parse graph rejects is
/// dropped on its arrival cycle under the matching [`DropReason::Parse`]
/// counter (malformed traffic still consumes arrival slots, as on a real
/// wire — it just never reaches ingress). An accepted frame is parsed
/// straight onto the switch's slab by a [`BoundParser`] bound to the
/// switch's table and copied — its one copy — into the record's buffer;
/// its [`WireLayout`] rides the switch's queue beside the slab — the
/// configured discipline, capacity and drop reason apply exactly as to
/// packet-born traffic — and on departure every pipeline-modified field is
/// patched from its slot back into its wire position in that buffer, so
/// all unparsed bytes (options, payloads) survive verbatim. Frames are
/// lent in by the frame [`Source`] and lent out to the sink; the record
/// between them is a recycled one (module docs, *Recycling*). The output
/// is byte-identical to parsing, [`Switch::run`]ning and deparsing on the
/// map tier of [`crate::wire`], the reference.
#[must_use = "a run session does nothing until a terminal method (`collect`, `for_each`) runs it"]
pub struct FrameRun<'s, 'c, E: PipelineEngine, S: Source<[u8]>> {
    switch: &'s mut Switch<E>,
    source: S,
    cfg: &'c WireConfig,
}

impl<E: PipelineEngine, S: Source<[u8]>> FrameRun<'_, '_, E, S> {
    /// Runs the session and collects every transmitted frame, in order.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Fault`] if the source fails mid-stream (a torn
    /// capture file); frames transmitted before the failure are in the
    /// report's accounting, and malformed-but-complete frames are *not*
    /// errors — they are [`DropReason::Parse`] drops as always.
    pub fn collect(self) -> Result<Vec<Vec<u8>>, SwitchError> {
        let (lo, hi) = self.source.size_hint();
        let mut out = Vec::with_capacity(hi.unwrap_or(lo).min(1 << 20));
        self.for_each(|frame| out.push(frame.to_vec()))?;
        Ok(out)
    }

    /// Runs the session, lending each transmitted frame to `sink` — the
    /// bounded-memory terminal. The slice is the departing record's own
    /// buffer, patched in place and overwritten by a later arrival: a
    /// sink that keeps a frame copies it ([`FrameRun::collect`] is that
    /// sink). Returns offered/transmitted totals.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Fault`] if the source fails mid-stream.
    pub fn for_each<F: FnMut(&[u8])>(mut self, mut sink: F) -> Result<RunStats, SwitchError> {
        // Bound per run: reconfiguration between runs may have grown the
        // table. The borrowed frame is copied into its record inside the
        // pull, so the source can be pulled again next cycle.
        let parser = BoundParser::bind(self.cfg.clone(), Arc::clone(self.switch.edges.table()));
        let pull = parsing(&mut self.source, &parser, self.switch.now);
        let end = (self.switch).cycle(None, pull, |_, p| {
            if let Some(frame) = p.deparse(&parser) {
                sink(frame);
            }
        });
        self.switch.close(end, Vec::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The compiler lives upstream of this crate, so unit tests here cover
    // queue mechanics with pass-through pipelines; real-algorithm switch
    // tests live in the workspace integration suite.
    fn passthrough(name: &str) -> AtomPipeline {
        AtomPipeline::passthrough(name)
    }

    /// `(cycle, packet)` pairs through [`Switch::run_stamped`] the way a
    /// sharded dispatcher and worker do it: admit, run, emit.
    fn run_stamped<'a>(
        sw: &mut Switch,
        arrivals: impl Iterator<Item = (usize, &'a Packet)>,
    ) -> Vec<Packet> {
        let mut dispatcher = sw.edges.clone();
        let slabs =
            arrivals.map(|(i, p)| (i as i64, Ok(InFlight::admit(p, &mut dispatcher, None))));
        let mut out = Vec::new();
        sw.run_stamped(slabs, &mut Vec::new(), |edges, p| out.push(p.emit(edges)));
        out
    }

    #[test]
    fn queue_preserves_order_and_count() {
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64);
        let trace: Vec<Packet> = (0..40).map(|i| Packet::new().with("seq", i)).collect();
        let out = sw.run(&trace).collect().unwrap();
        assert_eq!(out.len(), 40);
        for (i, p) in out.iter().enumerate() {
            assert_eq!(p.get("seq"), Some(i as i32));
        }
        assert_eq!(sw.drops(), 0);
        assert_eq!(sw.transmitted(), 40);
    }

    #[test]
    fn oversubscribed_link_builds_queue_and_drops() {
        // Drain every 2 cycles with capacity 8: arrivals outpace the link.
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(2);
        let trace: Vec<Packet> = (0..100).map(|i| Packet::new().with("seq", i)).collect();
        let out = sw.run(&trace).collect().unwrap();
        assert!(sw.drops() > 0, "expected drops, got none");
        assert_eq!(out.len() as u64 + sw.drops(), 100);
        assert_eq!(sw.transmitted(), out.len() as u64);
    }

    #[test]
    fn egress_sees_sojourn_metadata() {
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64).with_drain_period(3);
        let trace: Vec<Packet> = (0..30).map(|i| Packet::new().with("seq", i)).collect();
        let out = sw.run(&trace).collect().unwrap();
        // Sojourn = now - enq_ts grows as the queue builds.
        let sojourns: Vec<i32> = out
            .iter()
            .map(|p| p.get("now").unwrap() - p.get("enq_ts").unwrap())
            .collect();
        assert!(*sojourns.last().unwrap() > sojourns[0], "{sojourns:?}");
        assert!(out.iter().all(|p| p.get("qdepth").is_some()));
    }

    #[test]
    fn stamped_run_equals_serial_run_at_line_rate() {
        let trace: Vec<Packet> = (0..20).map(|i| Packet::new().with("seq", i)).collect();
        let mut serial = Switch::new(passthrough("in"), passthrough("out"), 8);
        let serial_out = serial.run(&trace).collect().unwrap();
        let mut stamped = Switch::new(passthrough("in"), passthrough("out"), 8);
        let stamped_out = run_stamped(&mut stamped, trace.iter().enumerate());
        assert_eq!(serial_out, stamped_out);
        assert_eq!(serial.transmitted(), stamped.transmitted());
        assert_eq!(serial.drops(), stamped.drops());
    }

    #[test]
    fn stamped_subsequences_compose_into_the_serial_run() {
        // Even/odd arrivals on two separate switches (as two shards would
        // see them) reproduce the serial outputs at those positions —
        // the global stamps carry the shared clock.
        let trace: Vec<Packet> = (0..30).map(|i| Packet::new().with("seq", i)).collect();
        let mut serial = Switch::new(passthrough("in"), passthrough("out"), 8);
        let serial_out = serial.run(&trace).collect().unwrap();
        for parity in 0..2usize {
            let mut shard = Switch::new(passthrough("in"), passthrough("out"), 8);
            let mine = trace.iter().enumerate().filter(|(i, _)| i % 2 == parity);
            let out = run_stamped(&mut shard, mine);
            let expected: Vec<Packet> = serial_out
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, p)| p.clone())
                .collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn state_import_hooks_roundtrip() {
        let mut a = Switch::new_slot(&passthrough("in"), &passthrough("out"), 8).unwrap();
        let snap_in = a.export_ingress_state();
        let snap_eg = a.export_egress_state();
        a.import_ingress_state(&snap_in);
        a.import_egress_state(&snap_eg);
        assert_eq!(a.export_ingress_state(), snap_in);
        assert_eq!(a.export_egress_state(), snap_eg);
    }

    #[test]
    fn wire_trace_roundtrips_frames_through_the_switch() {
        use crate::wire::{encode, parse, FrameSpec, WireConfig};

        let cfg = WireConfig::new();
        let frames: Vec<Vec<u8>> = (0..10)
            .map(|i| {
                let spec = FrameSpec {
                    sport: 1000 + i,
                    ..FrameSpec::default()
                };
                encode(&Packet::new(), &cfg, &spec)
            })
            .collect();
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64);
        let out = sw.run_frames(&frames, &cfg).collect().unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(sw.transmitted(), 10);
        assert_eq!(sw.drops(), 0);
        // Passthrough pipelines leave every header byte intact, but the
        // queue metadata is not a wire field, so frames come back
        // byte-identical in order.
        for (i, (frame, orig)) in out.iter().zip(&frames).enumerate() {
            assert_eq!(frame, orig, "frame {i}");
            assert_eq!(
                parse(frame, &cfg).unwrap().pkt.get("sport"),
                Some(1000 + i as i32)
            );
        }
    }

    #[test]
    fn wire_trace_splits_congestion_from_parse_drops() {
        use crate::wire::{encode, FrameSpec, ParseVerdict, WireConfig};

        let cfg = WireConfig::new();
        let good = encode(&Packet::new(), &cfg, &FrameSpec::default());
        let mut frames: Vec<Vec<u8>> = vec![good.clone(); 20];
        frames.push(good[..13].to_vec()); // runt Ethernet
        frames.push(good[..20].to_vec()); // cut inside IPv4
                                          // Capacity 2, slow link: some good frames tail-drop too.
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 2).with_drain_period(4);
        let out = sw.run_frames(&frames, &cfg).collect().unwrap();
        let c = sw.drop_counters();
        assert_eq!(c.get(DropReason::Parse(ParseVerdict::TruncatedEthernet)), 1);
        assert_eq!(c.get(DropReason::Parse(ParseVerdict::TruncatedIpv4)), 1);
        assert_eq!(c.parse_total(), 2);
        assert!(c.queue_full() > 0, "expected congestion drops");
        assert_eq!(c.total(), sw.drops());
        assert_eq!(out.len() as u64 + c.total(), frames.len() as u64);
    }

    #[test]
    fn drop_reason_indices_are_dense() {
        let all: Vec<DropReason> = DropReason::all().collect();
        assert_eq!(all.len(), DropReason::COUNT);
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(DropReason::QueueFull.to_string(), "queue_full");
    }

    #[test]
    fn drop_counters_merge_is_elementwise() {
        use crate::wire::ParseVerdict;

        let mut a = DropCounters::new();
        a.bump(DropReason::QueueFull);
        a.bump(DropReason::Parse(ParseVerdict::BadIhl));
        let mut b = DropCounters::new();
        b.bump(DropReason::QueueFull);
        b.bump(DropReason::Parse(ParseVerdict::TruncatedTcp));
        a.merge(&b);
        assert_eq!(a.queue_full(), 2);
        assert_eq!(a.get(DropReason::Parse(ParseVerdict::BadIhl)), 1);
        assert_eq!(a.get(DropReason::Parse(ParseVerdict::TruncatedTcp)), 1);
        assert_eq!(a.total(), 4);
        assert_eq!(a.iter().map(|(_, n)| n).sum::<u64>(), 4);
    }

    #[test]
    fn sched_trace_under_fifo_departs_in_arrival_order() {
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64);
        let trace: Vec<Packet> = (0..10).map(|i| Packet::new().with("seq", 9 - i)).collect();
        let deps = sw.run(&trace).scheduled().collect().unwrap();
        assert_eq!(deps.len(), 10);
        for (i, d) in deps.iter().enumerate() {
            assert_eq!(d.arrival, i as i64, "FIFO keeps arrival order");
            // Burst of 10, drain starts at cycle 10.
            assert_eq!(d.departure, 10 + i as i64);
            assert_eq!(d.pkt.get("enq_ts"), Some(i as i32));
            assert_eq!(d.pkt.get("now"), Some(d.departure as i32));
        }
        assert_eq!(sw.transmitted(), 10);
    }

    #[test]
    fn sched_trace_pifo_orders_by_rank_and_drops_sched_full() {
        use crate::pifo::SchedSpec;

        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 4)
            .with_scheduler(SchedSpec::Pifo { rank: "r".into() });
        // 6 packets into capacity 4: the last two drop as SchedFull.
        let ranks = [40, 10, 30, 20, 99, 98];
        let trace: Vec<Packet> = ranks.iter().map(|&r| Packet::new().with("r", r)).collect();
        let deps = sw.run(&trace).scheduled().collect().unwrap();
        let got: Vec<i64> = deps.iter().map(|d| d.key.rank).collect();
        assert_eq!(got, [10, 20, 30, 40]);
        assert_eq!(sw.drop_counters().sched_full(), 2);
        assert_eq!(sw.drop_counters().queue_full(), 0);
        assert_eq!(sw.transmitted() + sw.drops(), 6);
    }

    #[test]
    fn sched_trace_shaping_delays_departures_to_their_ranks() {
        use crate::pifo::SchedSpec;

        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64)
            .with_scheduler(SchedSpec::Shaping { rank: "edt".into() });
        // Earliest-departure times well past the burst end (cycle 3).
        let trace: Vec<Packet> = [20, 10, 40]
            .iter()
            .map(|&t| Packet::new().with("edt", t))
            .collect();
        let deps = sw.run(&trace).scheduled().collect().unwrap();
        let times: Vec<i64> = deps.iter().map(|d| d.departure).collect();
        assert_eq!(times, [10, 20, 40], "the link idles until each EDT");
    }

    #[test]
    fn slot_engine_switch_matches_reference_switch() {
        let mk_map = || Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(2);
        let mk_slot = || {
            Switch::new_slot(&passthrough("in"), &passthrough("out"), 8)
                .unwrap()
                .with_drain_period(2)
        };
        let trace: Vec<Packet> = (0..100).map(|i| Packet::new().with("seq", i)).collect();
        let (mut a, mut b) = (mk_map(), mk_slot());
        assert_eq!(
            a.run(&trace).collect().unwrap(),
            b.run(&trace).collect().unwrap()
        );
        assert_eq!(a.drops(), b.drops());
        assert_eq!(a.transmitted(), b.transmitted());
    }

    #[test]
    fn for_each_streams_bit_identical_to_collect() {
        let trace: Vec<Packet> = (0..50).map(|i| Packet::new().with("seq", i)).collect();
        let mut collected =
            Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(2);
        let out = collected.run(&trace).collect().unwrap();
        let mut streamed =
            Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(2);
        let mut sunk = Vec::new();
        let stats = streamed.run(&trace).for_each(|p| sunk.push(p)).unwrap();
        assert_eq!(out, sunk);
        assert_eq!(stats.offered, 50);
        assert_eq!(stats.transmitted, out.len() as u64);
        assert_eq!(collected.drops(), streamed.drops());
        assert_eq!(collected.transmitted(), streamed.transmitted());
    }

    #[test]
    fn generated_source_matches_materialized_slice() {
        use crate::stream::GenSource;

        let mk = |i: u64| Packet::new().with("seq", i as i32);
        let trace: Vec<Packet> = (0..200).map(mk).collect();
        let mut a = Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(3);
        let mut b = Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(3);
        let from_slice = a.run(&trace).collect().unwrap();
        let from_gen = b
            .run(GenSource::with_len(200, |i| Some(mk(i))))
            .collect()
            .unwrap();
        assert_eq!(from_slice, from_gen);
        assert_eq!(a.drops(), b.drops());
    }

    #[test]
    fn source_error_mid_stream_closes_the_books() {
        use crate::stream::{FailAfter, GenSource};

        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 4).with_drain_period(3);
        let source = FailAfter::new(
            GenSource::new(|i| Some(Packet::new().with("seq", i as i32))),
            25,
            "disk torn mid-record",
        );
        let err = sw.run(source).collect().unwrap_err();
        let report = err.fault().expect("source failures are faults");
        let src = report.source.as_ref().expect("a SourceFault is attached");
        assert_eq!(src.at, 25);
        assert!(src.error.to_string().contains("disk torn"), "{src}");
        assert!(report.failures.is_empty(), "no worker faulted");
        // Everything pulled before the failure was processed and drained:
        // the books close with nothing lost to the fault.
        let acc = report.accounting;
        assert!(acc.conserved(), "{acc}");
        assert_eq!(acc.offered, 25);
        assert_eq!(acc.lost_in_fault, 0);
        assert_eq!(report.salvage[0].output.len() as u64, acc.transmitted);
        assert_eq!(acc.transmitted + acc.dropped, 25);
        assert!(acc.dropped > 0, "capacity 4 at drain 3 must tail-drop");
        assert!(err.to_string().contains("source failed after 25"), "{err}");
    }

    #[test]
    fn sched_run_source_error_still_drains_admitted_burst() {
        use crate::pifo::SchedSpec;
        use crate::stream::{FailAfter, GenSource};

        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64)
            .with_scheduler(SchedSpec::Pifo { rank: "r".into() });
        let source = FailAfter::new(
            GenSource::new(|i| Some(Packet::new().with("r", 100 - i as i32))),
            10,
            "burst cut short",
        );
        let err = sw.run(source).scheduled().collect().unwrap_err();
        let report = err.fault().unwrap();
        assert_eq!(report.accounting.offered, 10);
        assert_eq!(report.accounting.transmitted, 10, "admitted burst drains");
        assert!(report.accounting.conserved());
        assert_eq!(
            report.salvage[0].output.len() as u64,
            report.accounting.transmitted
        );
    }

    /// ROADMAP 7(a), first step: pins what the 32-bit stamps do as the
    /// cycle counter crosses 2³¹. [`Switch::depart`] stamps the low 32
    /// bits of the cycle, so `now` and `enq_ts` wrap negative — but an
    /// egress program's `now - enq_ts` (Domino's wrapping `Sub`) is still
    /// the true sojourn, and queue depth, drops and departure order never
    /// see the clock at all. Slot = map across the wrap.
    #[test]
    fn cycle_stamps_wrap_but_sojourn_depth_and_order_do_not() {
        use crate::machine::{AtomRole, CompiledAtom};
        use domino_ast::BinOp;
        use domino_ir::{Codelet, Operand, TacRhs, TacStmt};

        const START: i64 = (1 << 31) - 100;
        let field = |f: &str| Operand::Field(f.into());
        let sojourn = Codelet::new(vec![TacStmt::Assign {
            dst: "sojourn".into(),
            rhs: TacRhs::Binary(BinOp::Sub, field("now"), field("enq_ts")),
        }]);
        let egress = AtomPipeline {
            stages: vec![vec![CompiledAtom {
                codelet: sojourn,
                role: AtomRole::Stateless,
            }]],
            declared_fields: vec!["sojourn".into()],
            ..passthrough("sojourn")
        };
        let trace: Vec<Packet> = (0..400).map(|i| Packet::new().with("seq", i)).collect();
        fn from<E: PipelineEngine>(mut sw: Switch<E>, start: i64, trace: &[Packet]) -> Vec<Packet> {
            sw.now = start;
            let out = sw.run(trace).collect().unwrap();
            assert_eq!(out.len() as u64 + sw.drops(), trace.len() as u64);
            out
        }

        // Line rate, and a 3:1 oversubscribed 16-deep queue.
        for drain in [1, 3] {
            let map =
                || Switch::new(passthrough("in"), egress.clone(), 16).with_drain_period(drain);
            let slot = Switch::new_slot(&passthrough("in"), &egress, 16)
                .unwrap()
                .with_drain_period(drain);
            let wrapped = from(map(), START, &trace);
            assert_eq!(
                from(slot, START, &trace),
                wrapped,
                "drain {drain}: slot = map"
            );
            // The same run in the same drain phase, far from the wrap,
            // where the stamps are the cycles themselves.
            let near = START % drain as i64;
            let unwrapped = from(map(), near, &trace);
            assert_eq!(wrapped.len(), unwrapped.len(), "drain {drain}");
            assert_eq!(
                wrapped.len() < trace.len(),
                drain > 1,
                "only congestion drops"
            );

            let get = |p: &Packet, f: &str| p.get(f).unwrap();
            let mut straddlers = 0;
            for (w, u) in wrapped.iter().zip(&unwrapped) {
                let seq = get(u, "seq");
                assert_eq!(get(w, "seq"), seq, "drain {drain}: departure order");
                assert_eq!(get(w, "qdepth"), get(u, "qdepth"), "packet {seq}");
                for stamp in ["now", "enq_ts"] {
                    let cycle = (get(u, stamp) as i64 - near) + START;
                    assert_eq!(get(w, stamp), cycle as i32, "packet {seq}: `{stamp}`");
                }
                let true_sojourn = get(u, "now") - get(u, "enq_ts");
                assert_eq!(get(u, "sojourn"), true_sojourn);
                assert_eq!(get(w, "sojourn"), true_sojourn, "packet {seq}");
                straddlers += (get(w, "enq_ts") > 0 && get(w, "now") < 0) as usize;
            }
            assert!(
                straddlers > 0,
                "drain {drain}: no packet sat across the wrap"
            );
        }
    }
}
