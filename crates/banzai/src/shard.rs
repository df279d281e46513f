//! The sharded switch: N slot-compiled switches on **one field table**
//! behind an RSS-style flow-steering dispatcher.
//!
//! The paper's Banzai machine reaches line rate by pipelining atoms in
//! hardware; a software simulator reaches for cores instead. The key
//! observation carries over: Domino confines every piece of per-flow
//! state to one atom, and when that state is *indexed by a packet-derived
//! flow key* (`flowlet.domino`'s `last_time[pkt.id]`), packets of
//! different key classes never touch common state — so the trace can be
//! partitioned across shards with **no cross-shard coordination**, the
//! same per-flow partitioning RSS NICs and multi-pipeline P4 targets rely
//! on.
//!
//! The moving parts:
//!
//! * [`ShardPlan`] — the program's own decision, stated once: each
//!   pipeline's [`Partitionability`] as the state-indexing analysis
//!   ([`StateLayout::flow_key`](domino_ir::layout::StateLayout::flow_key))
//!   found it, from which the steering rule follows — the extracted flow
//!   key, or — for a plan with no key — packets **dealt round-robin by
//!   arrival index**: stateless pipelines, and **replica mode** for
//!   commutative sketch state (`heavy_hitters.domino`'s three
//!   differently-hashed count-min rows: every shard runs a full copy,
//!   balanced even under heavy-tailed flow skew, and exported copies fold
//!   back elementwise at collect time); or a **single-shard fallback with
//!   a two-tier diagnostic** when the state survives neither analysis
//!   (`rcp.domino`'s global registers) — see [`ShardTier`]. No
//!   caller-supplied key can override it, so every configuration is
//!   serial-equivalent by construction;
//! * [`ShardedSwitch`] — spawns one worker thread per shard
//!   ([`ShardedRun::collect`]), feeds each through a bounded ring of
//!   slab batches, runs a [`Switch`] of its own per shard (stamped with
//!   global arrival cycles, so queue metadata is bit-identical to the
//!   serial switch), and merges transmitted packets by **round-robin
//!   from shard 0** — per-flow order is preserved exactly (a flow, as
//!   defined by the steering key, lives on one shard), the cross-flow
//!   interleaving is a pure function of the shard count, so differential
//!   tests stay bit-reproducible run to run, and a run dealt by index
//!   (shard `k` holds arrivals `k, k + n, …`) comes back in serial order;
//! * merged state export — under keyed steering each array slot belongs
//!   to exactly one key class, hence to exactly one shard; reading every
//!   slot from its owner reconstructs the serial state bit-for-bit.
//!   Under replica mode every shard holds a full sketch copy and
//!   [`ReplicaSpec::merge_states`] folds them — summed displacements for
//!   counter rows, elementwise max for membership bits — which is *also*
//!   bit-identical to the serial state; only per-packet outputs that
//!   read sketch state mid-trace trade bit-identity for the sketch's own
//!   (ε, δ) approximation contract.
//!
//! The sequential twins ([`ShardedRun::partitioned`],
//! [`ShardedRun::instrumented`], [`ShardedRun::for_each`] and
//! [`ShardedFrameRun::partitioned`]) run the same dispatcher and the same
//! lanes on the caller's thread — one core, each shard's lane stepped the
//! moment its batch fills — which is what the E10 harness times:
//! per-shard busy time measured without scheduler interference gives the
//! critical-path throughput the shards would sustain on real cores.
//!
//! # One table, one packet format
//!
//! The P4 abstract machine parses a packet once into one header vector
//! that every pipeline of a multi-pipeline target works on; so does this
//! switch. A `ShardedSwitch` owns **one** [`FieldTable`], open only
//! while [`ShardedSwitch::new_with`] builds it: every shard's two
//! engines and the steering rule are lowered onto it, and the queue
//! metadata, the [`SchedSpec`]'s rank/class fields and any
//! fault-injected fields are interned, before it is closed behind an
//! `Arc` that every shard — and every shard rebuilt after a fault —
//! binds to. So one format crosses every boundary:
//!
//! * the **dispatcher admits once** — a map packet is flattened onto the
//!   table, a frame is parsed onto it by one [`BoundParser`], either way
//!   into a record of the run's one pool when it has one — and
//!   evaluates the steering rule over the slab's **slots**
//!   (`SlotSteer`: the flow key's slice lowered like an engine's
//!   program, or the arrival index);
//!   [`ShardPlan::steer`] is the same rule by name, the reference the
//!   suites hold the dispatcher to;
//! * **slabs ride the rings**, or are handed straight to the lane,
//!   stamped with their arrival cycle (a rejected frame rides as its
//!   verdict, dealt by index); the shard's switch runs its one loop on
//!   them;
//! * a scheduling run is the serial burst split at its seam: each lane
//!   admits its slabs as the serial switch does (`Switch::hold`) and
//!   holds them in arrival order, in its shard's own burst buffer — kept
//!   between runs, as the serial switch keeps its own — and the union of
//!   what they hold drains as the serial burst drains
//!   (`Switch::drain_burst`: one sort — the run's only ordering step —
//!   then a departure on each slab, through the egress engine of the
//!   shard that owns it: so egress state lives in the shards alone,
//!   whichever run moved it);
//! * each packet is **emitted (or deparsed) once**: in the worker's sink
//!   on a forwarding run — the slab's value row moved into the packet, a
//!   frame's buffer out of the record — after the egress pass on a
//!   scheduling run;
//! * **records come home**: a lane's step hands every record it is done
//!   with back — inline, straight into the dispatcher's pool; threaded,
//!   with the batch's emptied buffer over one return channel the
//!   dispatcher drains without waiting — so a record is made, admitted
//!   into and freed on the dispatcher's thread, and a run makes about as
//!   many as it has in flight at once. Only admission may see a record
//!   whose row left with its packet.
//!
//! Each thing exists once. Every shard's [`Switch`] runs its one cycle
//! loop (stamped arrivals, line rate). Every run, threaded or
//! sequential, is **one dispatcher** (`scatter`: the only pull → admit →
//! steer → batch loop) feeding each shard's *lane* (the per-batch step:
//! forward and emit, forward and deparse, or ingress and hold) and
//! **one close-out** (`gather`: shards put back, streams handed over —
//! or salvage, rebuild and the one `FaultReport` constructor in
//! [`crate::error`], the books closed over this run's counters). What
//! differs between the two ways of running is only *where a lane is
//! stepped*: by the one worker behind its ring under `catch_unwind`
//! (`threaded`), or on the spot on the caller's thread (`inline`).
//!
//! # Supervision
//!
//! The threaded path ([`ShardedRun::collect`]) is **supervised**: a
//! worker that panics, stalls past the [`ShardConfig::watchdog_ms`]
//! watchdog, or dies silently never takes the run down with it. Each
//! worker wraps every batch in `catch_unwind`; the feeder detects dead
//! rings and applies the configured [`Backpressure`] policy to full ones
//! (block with a watchdog, or shed under the
//! [`DropReason::Backpressure`]
//! counter); the collector abandons — never joins — a hung worker. A
//! faulted run returns
//! [`SwitchError::Fault`] carrying a
//! full [`FaultReport`]: per-shard errors,
//! salvaged outputs and state snapshots, and exact packet-conservation
//! accounting. Failed shards are rebuilt with fresh engines, so the
//! switch stays usable after a fault.

use crate::error::{FaultCause, FaultReport, ShardError, ShardSalvage, SwitchError};
use crate::machine::AtomPipeline;
use crate::pifo::SchedSpec;
use crate::slot::{KeySlice, SlotMachine};
use crate::stream::{
    FrameSource, IntoFrameSource, IntoPacketSource, PacketSource, RunStats, SourceError,
};
use crate::switch::{
    sort_burst, DropCounters, DropReason, Held, InFlight, PipelineEngine, Pool, SchedDeparture,
    Stamped, Switch, QUEUE_METADATA_FIELDS,
};
use crate::wire::{BoundParser, ParseVerdict, WireConfig};
use domino_ast::{StateKind, StateVar};
use domino_ir::layout::StateLayout;
use domino_ir::partition::{FlowKeySpec, Partitionability, ReplicaSpec};
use domino_ir::{FieldId, FieldTable, FlatPacket, Packet, PacketEdges, StateStore, TacStmt};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A batch of stamped arrivals on the switch's one table, bound for one
/// shard's lane — over its ring, or stepped inline.
type Batch = Vec<Stamped>;

/// What goes round a threaded run: a batch out over a shard's ring, its
/// emptied buffer home over the one return channel beside the records
/// its step spent (a vector that rides out empty).
type Trip = (Batch, Pool);

/// The feeder's handle to one shard's batch ring (`None` once the shard
/// has been declared dead or stalled and cut off).
type BatchSender = Option<mpsc::SyncSender<Trip>>;

/// What a dispatcher's `pull` yields: the next arrival, already on the
/// table (or the verdict that rejected its frame) and in a record of the
/// pool it is lent if there is one, `None` at the end of the stream, or
/// the source's error.
type Pulled = Result<Option<Result<InFlight, ParseVerdict>>, SourceError>;

/// Configuration for a [`ShardedSwitch`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Requested shard (worker) count; the plan may fall back to 1.
    pub shards: usize,
    /// Packets per steering batch (the unit pushed into a shard's ring).
    pub batch: usize,
    /// Ring depth in batches (bounded channel capacity — backpressure).
    pub ring: usize,
    /// Per-shard queue capacity (see [`Switch::capacity`]).
    pub capacity: usize,
    /// What the dispatcher does when a shard's ring stays full.
    pub backpressure: Backpressure,
    /// Watchdog window in milliseconds: how long the dispatcher blocks on
    /// a full ring under [`Backpressure::Block`], and how long the
    /// collector waits for a worker's outcome, before declaring the
    /// worker stalled and abandoning it.
    pub watchdog_ms: u64,
    /// The scheduling policy every shard's queue runs (default: drop-tail
    /// FIFO — see [`SchedSpec`] and [`ShardedRun::scheduled`]).
    pub sched: SchedSpec,
}

impl ShardConfig {
    /// A config with `shards` workers and the defaults: 256-packet
    /// batches, an 8-batch ring, capacity 512, blocking backpressure with
    /// a 5-second watchdog.
    pub fn new(shards: usize) -> ShardConfig {
        ShardConfig {
            shards: shards.max(1),
            batch: 256,
            ring: 8,
            capacity: 512,
            backpressure: Backpressure::Block,
            watchdog_ms: 5_000,
            sched: SchedSpec::Fifo,
        }
    }

    /// Overrides the steering batch size.
    pub fn with_batch(mut self, batch: usize) -> ShardConfig {
        self.batch = batch.max(1);
        self
    }

    /// Overrides the per-shard queue capacity.
    pub fn with_capacity(mut self, capacity: usize) -> ShardConfig {
        self.capacity = capacity;
        self
    }

    /// Overrides the ring depth (batches per shard channel, floored at 1).
    pub fn with_ring(mut self, ring: usize) -> ShardConfig {
        self.ring = ring.max(1);
        self
    }

    /// Overrides the overload policy.
    pub fn with_backpressure(mut self, policy: Backpressure) -> ShardConfig {
        self.backpressure = policy;
        self
    }

    /// Overrides the watchdog window (milliseconds, floored at 1).
    pub fn with_watchdog_ms(mut self, ms: u64) -> ShardConfig {
        self.watchdog_ms = ms.max(1);
        self
    }

    /// Overrides the scheduling policy every shard's queue runs.
    pub fn with_scheduler(mut self, sched: SchedSpec) -> ShardConfig {
        self.sched = sched;
        self
    }
}

/// What the dispatcher does when a shard's batch ring is full — the
/// explicit overload policy (a full ring must degrade deterministically,
/// never block forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Wait for the worker to drain the ring (lossless), but only up to
    /// the [`ShardConfig::watchdog_ms`] watchdog — a worker that never
    /// drains is declared stalled and abandoned, not waited on forever.
    #[default]
    Block,
    /// Drop the batch on the floor immediately, counting every packet
    /// under [`DropReason::Backpressure`]
    /// — bounded latency at the cost of loss, the overload behaviour of a
    /// real line-rate dispatcher.
    Shed,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig::new(1)
    }
}

/// How the dispatcher picks a shard for each packet: always from the
/// pipelines' own state indexing ([`ShardPlan`]), so that a sharded run
/// is serial-equivalent by construction. The one mode is a type of its
/// own so that [`ShardPlan::plan`]'s callers never change.
#[derive(Debug, Clone, PartialEq)]
pub enum SteerMode {
    /// Derive the flow key from the pipelines' own state indexing; falls
    /// back to a single shard — with a diagnostic — when the indexing is
    /// not partitionable.
    Auto,
}

/// The partitioning tier a [`ShardPlan`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardTier {
    /// Keyed steering, or stateless pipelines dealt by index: sharded
    /// per-shard outputs and merged state are bit-identical to serial
    /// execution (and a dealt run's merged output is the serial output).
    Exact,
    /// At least one pipeline runs full sketch replicas merged at collect
    /// time. Merged *state* is still bit-identical to serial; per-packet
    /// *outputs* that read sketch state obey the sketch's own (ε, δ)
    /// approximation contract instead of bit-identity.
    Replicable,
    /// Single-shard fallback; [`ShardPlan::fallback`] carries the
    /// two-tier diagnostic.
    Fallback,
}

impl fmt::Display for ShardTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardTier::Exact => write!(f, "Exact"),
            ShardTier::Replicable => write!(f, "Replicable"),
            ShardTier::Fallback => write!(f, "Fallback"),
        }
    }
}

/// A plan's steering rule resolved onto the sharded switch's table
/// ([`ShardPlan::lower`]): the flow key's slice, lowered like an engine's
/// program, or — for a plan without a key — nothing, every arrival dealt
/// by its index. What the dispatcher evaluates in place of the by-name
/// reference [`ShardPlan::steer`].
#[derive(Debug)]
struct SlotSteer(Option<KeySlice>);

impl SlotSteer {
    /// The shard of `n` the `idx`-th arrival steers to: exactly
    /// `plan.steer(idx, &pkt)` for the map packet the slab `p` was
    /// admitted from (or, byte-born, for
    /// [`wire::parse`](crate::wire::parse)'s packet). A rejected frame
    /// (`None`) carries no key, so it is dealt by index. The pipelines
    /// never rewrite a key root ([`ShardPlan::validate`]), so a departing
    /// slab steers where its arrival did.
    fn shard_of(&mut self, idx: usize, p: Option<&FlatPacket>, n: usize) -> usize {
        match (&mut self.0, p) {
            (Some(slice), Some(p)) if n > 1 => FlowKeySpec::shard_of_class(slice.key_of(p), n),
            _ => idx % n,
        }
    }
}

/// The sharding decision for an ingress/egress pipeline pair, stated
/// once: each side's [`Partitionability`] exactly as the state-indexing
/// analysis found it, and the diagnostic of a single-shard fallback. The
/// flow key, the tier, the steering rule and how each side's state merges
/// back all follow from the two sides.
///
/// Produced by [`ShardPlan::plan`]; inspect [`ShardPlan::effective`] and
/// [`ShardPlan::fallback`] to see whether the requested parallelism was
/// granted and, if not, why.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    requested: usize,
    /// Both [`Partitionability::Stateless`] on a fallback: its one
    /// shard's state *is* the serial state.
    ingress: Partitionability,
    egress: Partitionability,
    fallback: Option<String>,
}

/// A side's replica spec, when it runs in replica mode.
fn replica(side: &Partitionability) -> Option<&ReplicaSpec> {
    match side {
        Partitionability::Replicable(spec) => Some(spec),
        _ => None,
    }
}

/// All TAC statements of a compiled pipeline, in execution order.
fn stmts_of(pipeline: &AtomPipeline) -> Vec<TacStmt> {
    pipeline
        .stages
        .iter()
        .flatten()
        .flat_map(|a| a.codelet.stmts.iter().cloned())
        .collect()
}

/// Every packet field the pipeline can write on its way through —
/// assignments, state-read destinations, deparsed declared fields, and
/// the switch queue's metadata stamps.
fn written_fields(pipeline: &AtomPipeline) -> BTreeSet<String> {
    let mut written: BTreeSet<String> = BTreeSet::new();
    for stmt in stmts_of(pipeline) {
        match stmt {
            TacStmt::Assign { dst, .. } | TacStmt::ReadState { dst, .. } => {
                written.insert(dst);
            }
            TacStmt::WriteState { .. } => {}
        }
    }
    for (declared, internal) in &pipeline.output_map {
        // Identity pairs are pass-throughs, not writes (the deparser
        // only copies when the names differ).
        if declared != internal {
            written.insert(declared.clone());
        }
    }
    for meta in crate::switch::QUEUE_METADATA_FIELDS {
        written.insert(meta.to_string());
    }
    written
}

impl ShardPlan {
    /// Decides how a pipeline pair shards at a requested shard count.
    ///
    /// Both pipelines' state indexing must be partitionable (see
    /// [`StateLayout::flow_key`](domino_ir::layout::StateLayout::flow_key));
    /// when both carry keyed state the two keys must agree, and an
    /// egress-derived key must not depend on fields the ingress pipeline
    /// (or the queue's metadata stamps, [`QUEUE_METADATA_FIELDS`])
    /// rewrites — the dispatcher evaluates the key on the *input* packet.
    /// Any violation produces a single-shard plan carrying the diagnostic.
    pub fn plan(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
        shards: usize,
        _mode: &SteerMode,
    ) -> ShardPlan {
        let requested = shards.max(1);
        match ShardPlan::validate(ingress, egress) {
            Ok((ingress, egress)) => ShardPlan {
                requested,
                ingress,
                egress,
                fallback: None,
            },
            Err(diagnostic) => ShardPlan {
                requested,
                ingress: Partitionability::Stateless,
                egress: Partitionability::Stateless,
                fallback: Some(diagnostic),
            },
        }
    }

    /// Each side's partitionability, checked as a pair. A keyed side
    /// dictates the steering, so two keyed sides must agree, and an
    /// egress key has to be computable on the input packet; a replicable
    /// side is state-safe under any deterministic steering.
    fn validate(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
    ) -> Result<(Partitionability, Partitionability), String> {
        let side = |which: &str, p: &AtomPipeline| {
            (StateLayout::from_decls(&p.state_decls).flow_key(&stmts_of(p)))
                .map_err(|e| format!("{which} `{}`: {e}", p.name))
        };
        let (part_in, part_eg) = (side("ingress", ingress)?, side("egress", egress)?);
        if let Partitionability::Keyed(b) = &part_eg {
            if let Partitionability::Keyed(a) = &part_in {
                if a != b {
                    return Err(format!(
                        "ingress `{}` and egress `{}` partition their state by \
                         different flow keys (`{}` mod {} vs `{}` mod {})",
                        ingress.name,
                        egress.name,
                        a.key_field(),
                        a.modulus(),
                        b.key_field(),
                        b.modulus()
                    ));
                }
            }
            let written = written_fields(ingress);
            if let Some(root) = b.roots().iter().find(|r| written.contains(*r)) {
                return Err(format!(
                    "egress `{}` keys its state on `{root}`, which ingress \
                     `{}` (or the queue metadata) rewrites; the dispatcher \
                     cannot evaluate the key on the input packet",
                    egress.name, ingress.name
                ));
            }
        }
        Ok((part_in, part_eg))
    }

    /// The shard count the caller asked for.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// The shard count actually granted (1 on fallback).
    pub fn effective(&self) -> usize {
        if self.fallback.is_some() {
            1
        } else {
            self.requested
        }
    }

    /// The diagnostic explaining a single-shard fallback, if any.
    pub fn fallback(&self) -> Option<&str> {
        self.fallback.as_deref()
    }

    /// The extracted flow key, when steering is key-derived: the keyed
    /// side's (two keyed sides agree).
    pub fn flow_key(&self) -> Option<&FlowKeySpec> {
        [&self.ingress, &self.egress]
            .into_iter()
            .find_map(|side| match side {
                Partitionability::Keyed(spec) => Some(spec),
                _ => None,
            })
    }

    /// The partitioning tier this plan resolved to.
    pub fn tier(&self) -> ShardTier {
        if self.fallback.is_some() {
            ShardTier::Fallback
        } else if self.ingress_replica().or(self.egress_replica()).is_some() {
            ShardTier::Replicable
        } else {
            ShardTier::Exact
        }
    }

    /// The ingress pipeline's replica spec, when it runs in replica mode.
    pub fn ingress_replica(&self) -> Option<&ReplicaSpec> {
        replica(&self.ingress)
    }

    /// The egress pipeline's replica spec, when it runs in replica mode.
    pub fn egress_replica(&self) -> Option<&ReplicaSpec> {
        replica(&self.egress)
    }

    /// The shard the `idx`-th input packet steers to — the by-name
    /// reference; the dispatcher evaluates the same rule over the slots
    /// of the slab it admitted, and the two agree on every packet
    /// (`tests/sharding.rs` holds them together).
    ///
    /// A keyed side steers by its flow key, a pure function of the packet
    /// (`idx` is ignored). A plan without a key has no per-flow state for
    /// steering to protect, so it deals packets round-robin by trace
    /// index: replica merges tolerate any steering (updates commute), the
    /// deal stays load-balanced on the heavy-tailed traces sketch programs
    /// are written for, and shard `k` holds arrivals `k, k + n, …`, which
    /// the merge's round-robin from shard 0 puts back in serial order.
    pub fn steer(&self, idx: usize, pkt: &Packet) -> usize {
        let n = self.effective();
        match self.flow_key() {
            Some(spec) if n > 1 => spec.shard_of(pkt, n),
            _ => idx % n,
        }
    }

    /// Resolves the steering rule onto `table`, interning every field it
    /// reads, so the dispatcher steers slabs ([`SlotSteer::shard_of`]).
    fn lower(&self, table: &mut FieldTable) -> Result<SlotSteer, SwitchError> {
        let key = self.flow_key().map(|spec| KeySlice::lower(spec, table));
        Ok(SlotSteer(key.transpose().map_err(SwitchError::build)?))
    }
}

impl fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} shards", self.effective(), self.requested)?;
        if let Some(why) = &self.fallback {
            return write!(f, ", single-shard fallback: {why}");
        }
        match (self.flow_key(), self.tier()) {
            (Some(spec), _) => {
                let (key, modulus) = (spec.key_field(), spec.modulus());
                write!(f, ", keyed on pkt.{key} mod {modulus}")
            }
            (None, ShardTier::Exact) => write!(f, ", stateless, dealt round-robin"),
            (None, _) => {
                write!(f, ", replicated sketches, dealt round-robin")?;
                // The union of both sides' index roots, for diagnostics:
                // steering never affects a replica merge (updates commute).
                let roots: BTreeSet<&str> = (self.ingress_replica().into_iter())
                    .chain(self.egress_replica())
                    .flat_map(|r| r.steer_roots().iter().map(String::as_str))
                    .collect();
                if roots.is_empty() {
                    return Ok(());
                }
                let roots: Vec<&str> = roots.into_iter().collect();
                write!(f, " (index roots [{}])", roots.join(", "))
            }
        }
    }
}

/// Wall-clock breakdown of one instrumented sharded run.
///
/// `shard_ns` is measured with every shard's lane stepped on the calling
/// thread, a batch at a time as the dispatcher fills it, so each number
/// is that shard's *busy* time free of scheduler interference, and host
/// noise lands on every lane evenly — on an N-core machine the shards
/// run concurrently and the run completes in
/// [`ShardTimings::critical_ns`] (dispatcher and workers are pipelined,
/// so the slower of the two lanes bounds the run).
#[derive(Debug, Clone)]
pub struct ShardTimings {
    /// Time to steer the trace into per-shard batched streams.
    pub steer_ns: u128,
    /// Per-shard pipeline busy time.
    pub shard_ns: Vec<u128>,
    /// Time to merge the transmitted streams back together.
    pub merge_ns: u128,
}

impl ShardTimings {
    /// The modeled steady-state completion time on dedicated hardware:
    /// `max(steer, merge, slowest shard)`.
    ///
    /// The deployment shape is the standard one for software dataplanes:
    /// an RX (steering) core, N worker cores, a TX (merge) core, all
    /// pipelined batch by batch — so sustained throughput is bounded by
    /// the busiest single lane, not their sum.
    pub fn critical_ns(&self) -> u128 {
        self.shard_ns
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.steer_ns)
            .max(self.merge_ns)
    }
}

/// One instrumented sharded run: merged output plus the timing breakdown.
///
/// (For the un-merged per-shard view — the observable differential tests
/// compare — use [`ShardedRun::partitioned`]; keeping both
/// alive would double the run's memory footprint, which matters at
/// millions of packets.)
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The round-robin merge of every shard's transmitted packets.
    pub merged: Vec<Packet>,
    /// Where the time went.
    pub timings: ShardTimings,
}

/// A switch sharded across N workers by flow steering: one [`Switch`]
/// (slot-compiled by default) per shard, all on one field table, fed
/// with batches of slabs the dispatcher admitted, merged back
/// deterministically.
///
/// # Panic freedom
///
/// No public entry point panics. The threaded run supervises its workers
/// (even a deliberately panicking [`PipelineEngine`] surfaces as a typed
/// [`SwitchError::Fault`], never an abort — see the module docs), and the
/// sequential twins propagate engine errors as `Result`s.
///
/// ```
/// use banzai::{AtomPipeline, ShardConfig, ShardedSwitch};
/// use domino_ir::Packet;
///
/// // Stateless pipelines deal packets round-robin; 4 workers, and the
/// // merge puts them back in serial order.
/// let mut sw = ShardedSwitch::new_slot(
///     &AtomPipeline::passthrough("in"),
///     &AtomPipeline::passthrough("out"),
///     ShardConfig::new(4),
/// )
/// .unwrap();
/// let trace: Vec<Packet> = (0..100).map(|i| Packet::new().with("flow", i % 7)).collect();
/// let out = sw.run(&trace).collect().unwrap();
/// assert_eq!(out.len(), 100);
/// assert_eq!(sw.transmitted(), 100);
/// assert_eq!(sw.plan().effective(), 4);
/// ```
#[derive(Debug)]
pub struct ShardedSwitch<E: PipelineEngine = SlotMachine> {
    plan: ShardPlan,
    shards: Vec<Switch<E>>,
    /// **The one field table** (see the module docs): every shard's two
    /// engines and `steer` are lowered onto it, and every name the queue
    /// or the scheduler stamps or reads is on it, before
    /// [`ShardedSwitch::new_with`] closes it — so a slab the dispatcher
    /// admits is the slab every shard runs on. It is held as its map
    /// edges, the ones the dispatcher thread uses (admission, salvage, a
    /// scheduled burst's emission; each shard emits through its own);
    /// `meta` are its [`QUEUE_METADATA_FIELDS`] slots.
    edges: PacketEdges,
    meta: [FieldId; 3],
    /// The plan's steering rule over the table's slots.
    steer: SlotSteer,
    /// The compiled pipelines, kept for rebuilding a failed shard's
    /// engines after a fault (through the plain [`PipelineEngine::build`]
    /// hook, so replacements are pristine — a [`crate::fault::FaultyEngine`]
    /// shard is rebuilt *without* its fault schedule).
    ingress_pipeline: AtomPipeline,
    egress_pipeline: AtomPipeline,
    /// The configuration as built (`batch`, `ring` and `watchdog_ms`
    /// floored at 1); `sched` is the policy every shard runs and the
    /// scheduling merge obeys.
    config: ShardConfig,
    /// Counters salvaged from shards that have since been rebuilt, plus
    /// feeder-side backpressure sheds and scheduled bursts' departures
    /// (which leave by the drain, not a shard's loop) — folded into
    /// [`Self::transmitted`] / [`Self::drop_counters`] so the totals stay
    /// conservation-exact across faults.
    extra_transmitted: u64,
    extra_drops: DropCounters,
    /// Where the line-rate clock resumes: the cycle after the last
    /// arrival of the previous run, as on the serial switch.
    now: i64,
}

impl ShardedSwitch<SlotMachine> {
    /// Builds a sharded switch running every shard on the slot-compiled
    /// fast path (the production configuration).
    pub fn new_slot(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
        config: ShardConfig,
    ) -> Result<ShardedSwitch<SlotMachine>, SwitchError> {
        ShardedSwitch::new(ingress, egress, config)
    }
}

impl<E: PipelineEngine> ShardedSwitch<E> {
    /// Builds a sharded switch over any [`PipelineEngine`].
    ///
    /// Never fails on a non-partitionable pipeline pair — that produces a
    /// working single-shard plan with [`ShardPlan::fallback`] set.
    /// Errors only if the engine itself cannot be built.
    pub fn new(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
        config: ShardConfig,
    ) -> Result<ShardedSwitch<E>, SwitchError> {
        ShardedSwitch::new_with(ingress, egress, config, |_, pipeline, table| {
            E::build(pipeline, table)
        })
    }

    /// Builds a sharded switch with a caller-supplied engine factory —
    /// the constructor-driven injection point the chaos suite uses to arm
    /// individual shards with [`crate::fault::FaultyEngine`] schedules.
    ///
    /// `make` has [`Switch::build_with`]'s shape plus the shard index: it
    /// is called once per shard, with `(shard, ingress, table)`, for the
    /// shard's ingress engine, against the switch's one field table
    /// ([`PipelineEngine::build`] is the plain `make`). Egress engines,
    /// and shards **rebuilt after a fault**, do *not* go through it; they
    /// use the plain build hook, so a replacement engine never inherits
    /// its predecessor's fault schedule, and a scheduled burst's drain,
    /// which runs egress on the caller's thread outside any worker's
    /// supervision, never meets an injected fault.
    pub fn new_with<F>(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
        mut config: ShardConfig,
        mut make: F,
    ) -> Result<ShardedSwitch<E>, SwitchError>
    where
        F: FnMut(usize, &AtomPipeline, &mut FieldTable) -> Result<E, SwitchError>,
    {
        (config.batch, config.ring) = (config.batch.max(1), config.ring.max(1));
        config.watchdog_ms = config.watchdog_ms.max(1);
        let plan = ShardPlan::plan(ingress, egress, config.shards, &SteerMode::Auto);
        // The table is open here and nowhere else: engines first (slot
        // order is the serial switch's), then every name the queue, the
        // scheduler and the dispatcher resolve.
        let mut table = FieldTable::new();
        let mut engines = Vec::with_capacity(plan.effective());
        for s in 0..plan.effective() {
            let ingress = make(s, ingress, &mut table)?;
            engines.push((ingress, E::build(egress, &mut table)?));
        }
        let meta = QUEUE_METADATA_FIELDS.map(|f| table.intern(f));
        config.sched.resolve(|f| table.intern(f));
        let steer = plan.lower(&mut table)?;
        let table = Arc::new(table);
        // The configured scheduling policy is applied uniformly on top of
        // whatever `make` built (so injected-fault factories compose with
        // programmed schedulers); its fields already have their slots.
        let shards = (engines.into_iter())
            .map(|(ingress, egress)| {
                Switch::assemble(ingress, egress, &table, meta, config.capacity)
                    .with_scheduler(config.sched.clone())
            })
            .collect();
        Ok(ShardedSwitch {
            plan,
            shards,
            edges: PacketEdges::new(&table),
            meta,
            steer,
            ingress_pipeline: ingress.clone(),
            egress_pipeline: egress.clone(),
            config,
            extra_transmitted: 0,
            extra_drops: DropCounters::new(),
            now: 0,
        })
    }

    /// A pristine shard over the kept pipelines — what replaces one lost
    /// to a fault, through the plain [`PipelineEngine::build`] hook (never
    /// the factory: no inherited fault schedule), on the same table.
    fn fresh_shard(&self) -> Result<Switch<E>, SwitchError> {
        // The table is closed; re-lowering pipelines it already holds
        // names nothing new, so the engines are built against a scratch
        // copy and bound to the original.
        let (table, config) = (self.edges.table(), &self.config);
        let mut names = FieldTable::clone(table);
        let ingress = E::build(&self.ingress_pipeline, &mut names)?;
        let egress = E::build(&self.egress_pipeline, &mut names)?;
        debug_assert_eq!(names.len(), table.len());
        let sw = Switch::assemble(ingress, egress, table, self.meta, config.capacity);
        Ok(sw.with_scheduler(config.sched.clone()))
    }

    /// The resolved sharding decision.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of live shards (== [`ShardPlan::effective`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured overload policy.
    pub fn backpressure(&self) -> Backpressure {
        self.config.backpressure
    }

    /// Packets dropped across all shards for any reason, dispatcher
    /// backpressure sheds and counters salvaged from rebuilt shards
    /// included.
    pub fn drops(&self) -> u64 {
        self.drop_counters().total()
    }

    /// Per-reason drop counters merged across all shards (see
    /// [`crate::switch::DropCounters`]), dispatcher sheds and salvaged
    /// counters included.
    pub fn drop_counters(&self) -> DropCounters {
        let mut merged = self.extra_drops.clone();
        for s in &self.shards {
            merged.merge(s.drop_counters());
        }
        merged
    }

    /// Packets transmitted across all shards (outputs salvaged from
    /// since-rebuilt shards included).
    pub fn transmitted(&self) -> u64 {
        self.shards.iter().map(|s| s.transmitted()).sum::<u64>() + self.extra_transmitted
    }

    /// Merges per-shard output streams by round-robin from shard 0 (the
    /// one cursor every sharded run merges by): take one packet from each
    /// non-exhausted shard in cyclic order. Per-flow order is preserved
    /// for flows as the flow key defines them (such a flow lives on one
    /// shard and shard order is kept); the cross-flow interleave is a
    /// pure function of the shard count, so repeated runs are
    /// bit-identical regardless of thread scheduling. A plan without a
    /// key deals arrival `i` to shard `i % n`, so its streams merge back
    /// into the serial order.
    pub fn merge(&self, parts: Vec<Vec<Packet>>) -> Vec<Packet> {
        if parts.len() <= 1 {
            return parts.into_iter().next().unwrap_or_default();
        }
        let mut merge = RoundRobin::new(parts.into_iter());
        let mut out = Vec::with_capacity(merge.held);
        merge.drain(true, |p| out.push(p));
        out
    }

    /// Opens a streaming run session: anything convertible to a
    /// [`PacketSource`] drives the sharded switch through the returned
    /// [`ShardedRun`] builder — the single entry point of every sharded
    /// packet run.
    ///
    /// The supervised terminal ([`ShardedRun::collect`]) pulls from the
    /// source on the dispatcher thread and feeds the bounded batch rings,
    /// so *input* memory stays O(batch × shards) however long the run;
    /// [`ShardedRun::for_each`] additionally streams outputs to a sink.
    ///
    /// ```
    /// use banzai::{AtomPipeline, ShardConfig, ShardedSwitch};
    /// use domino_ir::Packet;
    ///
    /// let mut sw = ShardedSwitch::new_slot(
    ///     &AtomPipeline::passthrough("in"),
    ///     &AtomPipeline::passthrough("out"),
    ///     ShardConfig::new(2),
    /// )
    /// .unwrap();
    /// let trace: Vec<Packet> = (0..50).map(|i| Packet::new().with("flow", i % 5)).collect();
    /// let merged = sw.run(&trace).collect().unwrap();
    /// assert_eq!(merged.len(), 50);
    /// ```
    pub fn run<S: IntoPacketSource>(&mut self, source: S) -> ShardedRun<'_, E, S::Source> {
        ShardedRun {
            switch: self,
            source: source.into_packet_source(),
        }
    }

    /// Opens a streaming byte-frame run session over anything convertible
    /// to a [`FrameSource`] — the sharded twin of
    /// [`Switch::run_frames`], terminated by
    /// [`ShardedFrameRun::partitioned`].
    pub fn run_frames<'c, S: IntoFrameSource>(
        &mut self,
        source: S,
        cfg: &'c WireConfig,
    ) -> ShardedFrameRun<'_, 'c, E, S::Source> {
        ShardedFrameRun {
            switch: self,
            source: source.into_frame_source(),
            cfg,
        }
    }

    /// Whether this switch's shards compose back into the serial run —
    /// the precondition of every forwarding terminal, checked before a
    /// packet is pulled. A shard's link drains every cycle, so its queue
    /// never holds more than one packet: every packet admitted at cycle
    /// `t` leaves at `t + 1` with queue depth 0, independent of what
    /// other shards carry, and with at most one occupant any *ungated*
    /// discipline pops it — FIFO, PIFO and strict priority all compose.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Unsupported`] under [`SchedSpec::Shaping`]: a gated
    /// head holds a standing queue, which couples shards through the
    /// clock and cannot be partitioned.
    fn check_line_rate(&self) -> Result<(), SwitchError> {
        if self.config.sched.is_shaping() {
            return Err(SwitchError::Unsupported(
                "stamped (sharded) execution cannot run a shaping discipline at line rate: \
                 a gated standing queue couples shards (use `.scheduled()`, which models shaping)"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Takes the shards for a run, noting each one's books — drop
    /// counters and transmit count — as it goes: [`ShardedSwitch::gather`]
    /// puts the shards back and closes the run's books over the
    /// difference, so a report never carries an earlier run's drops.
    fn take_shards(&mut self) -> (Vec<Switch<E>>, Vec<(DropCounters, u64)>) {
        let shards = std::mem::take(&mut self.shards);
        let before = (shards.iter())
            .map(|s| (s.drop_counters().clone(), s.transmitted()))
            .collect();
        (shards, before)
    }

    /// **The one dispatcher** of every sharded run, threaded or inline:
    /// `pull` the next arrival already on the table (a map packet
    /// admitted — its one map → slab crossing — or a frame parsed, or
    /// the verdict that rejected it), stamp it with its arrival cycle
    /// (`from` plus its index), steer it, and `feed` each shard its
    /// arrivals a batch at a time — `feed` is lent the full batch, leaves
    /// it empty (taken for a ring, or drained where it lies, its buffer
    /// kept for the next) and answers with how many of it were shed. What happens to a fed batch
    /// is the executor's business
    /// ([`ShardedSwitch::threaded`], [`ShardedSwitch::inline`]); what the
    /// dispatcher saw comes back as the [`Scatter`].
    ///
    /// The dispatcher owns **the run's one record pool**, as
    /// `Switch::cycle`'s caller owns its: `feed` is lent it to put back
    /// the records the shards are done with, `pull` to admit into them.
    /// It holds no more than the run had in flight at once, and dies
    /// with the run.
    ///
    /// Input memory is O(batch × shards) here: at most one pending batch
    /// per shard, never the whole trace. A source error stops the pull
    /// loop; what was pulled before it is still fed, so every lane runs
    /// its share to completion, and the error rides back in
    /// [`Scatter::source_error`]. Faulted or not, the switch's clock
    /// stands after the last arrival pulled.
    fn scatter(
        &mut self,
        before: Vec<(DropCounters, u64)>,
        from: i64,
        mut pull: impl FnMut(&mut PacketEdges, &mut Pool) -> Pulled,
        mut feed: impl FnMut(usize, &mut Batch, &mut Pool) -> u64,
    ) -> Scatter {
        let (n, batch) = (before.len(), self.config.batch);
        let mut run = Scatter {
            before,
            offered: vec![0; n],
            sheds: vec![0; n],
            pulled: 0,
            source_error: None,
            timings: ShardTimings {
                steer_ns: 0,
                shard_ns: vec![0; n],
                merge_ns: 0,
            },
        };
        let start = Instant::now();
        let mut pool = Vec::new();
        let mut timed_feed = |s: usize, full: &mut Batch, run: &mut Scatter, pool: &mut _| {
            let t = Instant::now();
            run.sheds[s] += feed(s, full, pool);
            run.timings.shard_ns[s] += t.elapsed().as_nanos();
        };
        let mut pending: Vec<Batch> = (0..n).map(|_| Vec::with_capacity(batch)).collect();
        run.source_error = loop {
            let arrival = match pull(&mut self.edges, &mut pool) {
                Ok(Some(arrival)) => arrival,
                end => break end.err(),
            };
            let i = run.pulled as usize;
            let slab = arrival.as_ref().ok().map(|p| &p.flat);
            let s = self.steer.shard_of(i, slab, n);
            run.pulled += 1;
            run.offered[s] += 1;
            pending[s].push((from + i as i64, arrival));
            if pending[s].len() == batch {
                timed_feed(s, &mut pending[s], &mut run, &mut pool);
            }
        };
        for (s, rest) in pending.iter_mut().enumerate() {
            if !rest.is_empty() {
                timed_feed(s, rest, &mut run, &mut pool);
            }
        }
        let fed: u128 = run.timings.shard_ns.iter().sum();
        run.timings.steer_ns = start.elapsed().as_nanos() - fed;
        self.now = from + run.pulled as i64;
        run
    }

    /// The **supervised** executor: each shard moves into one [`worker`]
    /// thread behind a bounded ring, `feed` pushes a batch into the ring
    /// under the configured [`Backpressure`] policy, and each worker's
    /// outcome is collected bounded by the watchdog. Generic over the
    /// worker's [`Lane`], so forwarding runs and scheduling runs get the
    /// identical failure model.
    ///
    /// The rings add `ring` batches per shard to the dispatcher's input
    /// memory. A shard cut off as dead or stalled (its sender is gone)
    /// keeps accumulating `offered` (for the books) but receives nothing
    /// further; after a source error the rings are closed normally, so
    /// every live worker drains what it was fed and reports.
    ///
    /// Records come home: after each batch a worker sends its buffer and
    /// the records it spent into one return channel, which `feed` drains
    /// into the pool — never waiting on it — before it sends the next
    /// batch out in a buffer that came home. What is still in the channel
    /// when the run ends is freed with it, on this thread.
    ///
    /// Each lane is made by `lane` from the shard it will run on, before
    /// the shard leaves for its thread, so a lane can hold in a buffer the
    /// shard keeps between runs.
    fn threaded<L: Lane<E> + Send + 'static>(
        &mut self,
        from: i64,
        pull: impl FnMut(&mut PacketEdges, &mut Pool) -> Pulled,
        lane: impl Fn(&mut Switch<E>) -> L,
    ) -> Result<Gathered<L::Out>, SwitchError>
    where
        E: Send + 'static,
        L::Out: Send + 'static,
    {
        // Survivors come back through the outcome channels; failed
        // shards are rebuilt by `gather`.
        let (switches, before) = self.take_shards();
        let n = switches.len();
        let watchdog = Duration::from_millis(self.config.watchdog_ms);
        let policy = self.config.backpressure;

        let (home, back) = mpsc::channel::<Trip>();
        let mut txs: Vec<BatchSender> = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for mut sw in switches {
            let (tx, rx) = mpsc::sync_channel::<Trip>(self.config.ring);
            let (done_tx, done_rx) = mpsc::channel();
            let (lane, home) = (lane(&mut sw), home.clone());
            let handle = std::thread::spawn(move || {
                let _ = done_tx.send(worker(sw, rx, home, lane));
            });
            txs.push(Some(tx));
            workers.push((done_rx, handle));
        }

        let mut stalled = vec![false; n];
        let mut spares: Vec<Trip> = Vec::new();
        let run = self.scatter(before, from, pull, |s, batch, pool| {
            for (buf, mut spent) in back.try_iter() {
                pool.append(&mut spent);
                spares.push((buf, spent));
            }
            let Some(tx) = txs[s].as_ref() else {
                batch.clear();
                return 0;
            };
            let cap = batch.capacity();
            let (buf, spent) = (spares.pop())
                .unwrap_or_else(|| (Vec::with_capacity(cap), Vec::with_capacity(cap)));
            let full = (std::mem::replace(batch, buf), spent);
            let len = full.0.len() as u64;
            match feed_batch(tx, full, policy, watchdog) {
                FeedResult::Sent => 0,
                FeedResult::Shed => len,
                cut => {
                    stalled[s] = matches!(cut, FeedResult::Stalled);
                    txs[s] = None;
                    0
                }
            }
        });
        drop(txs); // close every ring: drained workers exit their loops

        // Collect, bounded by the watchdog per shard. A worker that never
        // reports is abandoned (its thread handle is dropped, detaching
        // it) — never joined, so a wedged engine cannot hang the caller —
        // and taken to have booked nothing since the run began.
        let silent = |s: usize, cause| (Err((None, cause, run.before[s].0.clone())), Vec::new());
        let watchdog_ms = self.config.watchdog_ms;
        let mut collected = Vec::with_capacity(n);
        for (s, (done_rx, handle)) in workers.into_iter().enumerate() {
            let reported = if stalled[s] {
                Err(mpsc::RecvTimeoutError::Timeout)
            } else {
                done_rx.recv_timeout(watchdog)
            };
            collected.push(match reported {
                Ok(outcome) => {
                    let _ = handle.join();
                    outcome
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    drop(handle);
                    silent(s, FaultCause::Stall { watchdog_ms })
                }
                // The thread died outside the supervised path.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let _ = handle.join();
                    silent(s, FaultCause::Disconnected)
                }
            });
        }
        self.gather::<L>(run, collected)
    }

    /// The **inline** executor behind the sequential twins
    /// ([`ShardedRun::partitioned`], [`ShardedRun::instrumented`],
    /// [`ShardedRun::for_each`], [`ShardedFrameRun::partitioned`]): the
    /// same dispatcher, the same lanes, no ring and no thread — `feed`
    /// steps the shard's lane the moment its batch fills, on the
    /// caller's thread (so the dispatcher's per-shard feed time *is* the
    /// shard's busy time, free of scheduler interference), the step
    /// putting its spent records straight back into the pool, then lends
    /// the lane to `tap`, which may take what it holds. Unsupervised: an
    /// engine panic propagates.
    ///
    /// At line rate consecutive steps of one switch compose (its queue is
    /// empty between them), so the batch size never shows in the output;
    /// it only bounds the memory and interleaves the timed lanes, which
    /// spreads host interference — it arrives in epochs longer than a
    /// batch — evenly over them: honest *relative* lane balance, which is
    /// what the E10 model needs.
    fn inline<L: Lane<E>>(
        &mut self,
        pull: impl FnMut(&mut PacketEdges, &mut Pool) -> Pulled,
        lane: impl Fn() -> L,
        mut tap: impl FnMut(usize, &mut L),
    ) -> Result<Gathered<L::Out>, SwitchError> {
        self.check_line_rate()?;
        let (switches, before) = self.take_shards();
        let mut lanes: Vec<(Switch<E>, L)> = switches.into_iter().map(|sw| (sw, lane())).collect();
        let run = self.scatter(before, self.now, pull, |s, batch, pool| {
            let (sw, lane) = &mut lanes[s];
            lane.step(sw, batch, pool);
            tap(s, lane);
            0
        });
        let collected = (lanes.into_iter())
            .map(|(sw, lane)| (Ok(sw), lane.drain()))
            .collect();
        self.gather::<L>(run, collected)
    }

    /// **The one close-out** of every sharded run: puts the shards back
    /// and hands over each lane's stream — or, if any worker or the
    /// source faulted, salvages everything reachable, rebuilds the dead
    /// shards with fresh engines (through the plain build hook: no
    /// inherited faults) so the switch stays usable, and returns the
    /// report with its books closed over **this run**: a survivor's drops
    /// are its counters' growth since [`ShardedSwitch::take_shards`], and
    /// what it transmitted beyond what its lane still holds left through
    /// a sink (or as bytes) and is counted, not carried.
    ///
    /// A survivor's salvaged output is booked here only where its own
    /// transmit counter never saw it (a scheduling run stops short of
    /// egress); a failed shard's counters are gone with it, so its
    /// lifetime books move to the switch's own and its salvage always is.
    fn gather<L: Lane<E>>(
        &mut self,
        run: Scatter,
        collected: Vec<Outcome<E, L::Out>>,
    ) -> Result<Gathered<L::Out>, SwitchError> {
        // Account for dispatcher sheds whether or not anything faulted.
        self.extra_drops
            .bump_by(DropReason::Backpressure, run.sheds.iter().sum());

        if run.source_error.is_none() && collected.iter().all(|(shard, _)| shard.is_ok()) {
            let mut streams = Vec::with_capacity(collected.len());
            for (shard, out) in collected {
                self.shards.extend(shard.ok());
                streams.push(out);
            }
            return Ok(Gathered {
                pulled: run.pulled,
                timings: run.timings,
                streams,
            });
        }

        let mut failures: Vec<ShardError> = Vec::new();
        let mut salvage: Vec<ShardSalvage> = Vec::with_capacity(collected.len());
        let mut shards = Vec::with_capacity(collected.len());
        let mut streamed = 0;
        for (s, (shard, out)) in collected.into_iter().enumerate() {
            let output = L::salvage(out, &mut self.edges);
            let kept = output.len() as u64;
            let (drops_before, sent_before) = &run.before[s];
            let mut drops = DropCounters::new();
            drops.bump_by(DropReason::Backpressure, run.sheds[s]);
            match shard {
                Ok(sw) => {
                    let sent = sw.transmitted() - sent_before;
                    streamed += sent.saturating_sub(kept);
                    self.extra_transmitted += kept.saturating_sub(sent);
                    drops.merge(&sw.drop_counters().since(drops_before));
                    salvage.push(sw.salvage(s, run.offered[s], output, drops));
                    shards.push(sw);
                }
                Err((packet, cause, booked)) => {
                    self.extra_transmitted += sent_before + kept;
                    self.extra_drops.merge(&booked);
                    drops.merge(&booked.since(drops_before));
                    failures.push(ShardError {
                        shard: s,
                        packet,
                        cause,
                    });
                    salvage.push(ShardSalvage {
                        shard: s,
                        failed: true,
                        offered: run.offered[s],
                        output,
                        drops,
                        state: None,
                    });
                    shards.push(self.fresh_shard()?);
                }
            }
        }
        self.shards = shards;
        Err(FaultReport::assemble(
            run.pulled,
            streamed,
            run.source_error,
            failures,
            salvage,
        ))
    }

    /// The scheduling policy every shard runs.
    pub fn scheduler(&self) -> &SchedSpec {
        &self.config.sched
    }

    /// The bound tier of the wire front-end on this switch's table — the
    /// one parser of a byte-frame run ([`ShardedFrameRun::partitioned`]).
    fn parser(&self, cfg: &WireConfig) -> BoundParser {
        BoundParser::bind(cfg.clone(), Arc::clone(self.edges.table()))
    }

    /// Each shard's `(ingress, egress)` state snapshot.
    pub fn export_shard_states(&self) -> Vec<(StateStore, StateStore)> {
        self.shards
            .iter()
            .map(|s| (s.export_ingress_state(), s.export_egress_state()))
            .collect()
    }

    /// Reconstructs the serial switch's ingress state from the shards:
    /// every array slot is read from the shard that owns its key class,
    /// sketch replicas fold back by their merge, and a stateless side (or
    /// a single shard) reads any shard's snapshot.
    pub fn export_merged_ingress_state(&self) -> StateStore {
        self.merged_state(
            &self.plan.ingress,
            &self.ingress_pipeline.state_decls,
            |s| s.export_ingress_state(),
        )
    }

    /// Reconstructs the serial switch's egress state from the shards.
    pub fn export_merged_egress_state(&self) -> StateStore {
        self.merged_state(&self.plan.egress, &self.egress_pipeline.state_decls, |s| {
            s.export_egress_state()
        })
    }

    fn merged_state(
        &self,
        side: &Partitionability,
        decls: &[StateVar],
        export: impl Fn(&Switch<E>) -> StateStore,
    ) -> StateStore {
        let snaps = || -> Vec<StateStore> { self.shards.iter().map(&export).collect() };
        match side {
            // A stateless side writes no state: all shards still hold the
            // declared initializers, as does the serial switch.
            Partitionability::Stateless => export(&self.shards[0]),
            _ if self.shards.len() == 1 => export(&self.shards[0]),
            Partitionability::Keyed(spec) => {
                let snaps = snaps();
                let mut merged = StateStore::from_decls(decls);
                for d in decls {
                    match d.kind {
                        // Keyed extraction forbids scalar *access*, so a
                        // declared scalar is untouched everywhere and the
                        // initializer already in `merged` is the value.
                        StateKind::Scalar => {}
                        StateKind::Array { size } => {
                            for k in 0..size {
                                let owner =
                                    FlowKeySpec::shard_of_class(k % spec.modulus(), snaps.len());
                                merged.write_array(
                                    &d.name,
                                    k as i32,
                                    snaps[owner].read_array(&d.name, k as i32),
                                );
                            }
                        }
                    }
                }
                merged
            }
            // Full replica per shard: sum of displacements for counter
            // rows, max for membership bits — bit-identical to serial.
            Partitionability::Replicable(spec) => spec.merge_states(&snaps()),
        }
    }

    /// Loads serial state snapshots into the shards — the import half of
    /// the per-partition state hooks, the inverse of the merged exports.
    /// A keyed shard only ever touches its own key classes, so every
    /// shard takes the full snapshot, which reproduces exactly the
    /// partition a merged export would select (as it does, trivially, on
    /// a stateless side or a single shard). A replicated side's merge adds
    /// up each replica's change from the declared initial state, so the
    /// snapshot goes to shard 0 alone and every other replica restarts
    /// from that initial state: the merge then reads the snapshot back,
    /// and a warm-started run continues the serial switch's state.
    pub fn import_state(&mut self, ingress: &StateStore, egress: &StateStore) {
        let rest =
            |side: &Partitionability, pipeline: &AtomPipeline, snapshot: &StateStore| match side {
                Partitionability::Replicable(_) => StateStore::from_decls(&pipeline.state_decls),
                _ => snapshot.clone(),
            };
        let rest_in = rest(&self.plan.ingress, &self.ingress_pipeline, ingress);
        let rest_eg = rest(&self.plan.egress, &self.egress_pipeline, egress);
        for (s, sw) in self.shards.iter_mut().enumerate() {
            sw.import_ingress_state(if s == 0 { ingress } else { &rest_in });
            sw.import_egress_state(if s == 0 { egress } else { &rest_eg });
        }
    }
}

/// A pending sharded streaming run, opened by [`ShardedSwitch::run`].
///
/// Terminal methods pick the execution strategy:
///
/// * [`ShardedRun::collect`] — supervised worker threads, merged output
///   (the production path);
/// * [`ShardedRun::for_each`] — single-threaded, outputs streamed to a
///   sink in merge order (bounded memory end to end);
/// * [`ShardedRun::partitioned`] — unsupervised sequential twin, un-merged
///   per-shard outputs (the differential observable);
/// * [`ShardedRun::instrumented`] — the partitioned run with lane timings;
/// * [`ShardedRun::scheduled`] — switch to the PIFO scheduling experiment.
#[must_use = "a run session does nothing until a terminal method consumes it"]
pub struct ShardedRun<'s, E: PipelineEngine, S: PacketSource> {
    switch: &'s mut ShardedSwitch<E>,
    source: S,
}

impl<'s, E: PipelineEngine, S: PacketSource> ShardedRun<'s, E, S> {
    /// Switches this run to the scheduling experiment under the
    /// [`SchedSpec`] the switch was configured with (see
    /// [`ShardConfig::with_scheduler`]).
    pub fn scheduled(self) -> ShardedSchedRun<'s, E, S> {
        ShardedSchedRun {
            switch: self.switch,
            source: self.source,
        }
    }

    /// Runs the source across all shards on **supervised worker
    /// threads** — the caller thread pulls packets, admits each onto the
    /// switch's table and steers the slab into per-shard bounded batch
    /// rings, each worker drains its ring through its own switch inside
    /// `catch_unwind` and emits what departs, and the outputs merge
    /// deterministically. Input memory is O(batch × ring × shards).
    ///
    /// # Failure model
    ///
    /// * A **panicking** worker is isolated: its panic is caught, the
    ///   remaining shards drain cleanly, and the run returns
    ///   [`SwitchError::Fault`] with a [`FaultReport`] naming the shard,
    ///   the global index of the packet that triggered the fault, the
    ///   panic payload, every surviving shard's complete output and state
    ///   snapshot, the failed shard's completed-batch output prefix, and
    ///   [`Accounting`](crate::error::Accounting) that balances exactly
    ///   (`offered == transmitted + dropped + lost_in_fault`).
    /// * A **source error** mid-stream stops the feeder; every worker
    ///   still drains what it was fed, and the report carries the
    ///   [`SourceFault`](crate::error::SourceFault) alongside complete
    ///   per-shard salvage.
    /// * A **full ring** degrades per the configured [`Backpressure`]
    ///   policy: `Block` waits up to [`ShardConfig::watchdog_ms`] then
    ///   declares the worker stalled; `Shed` drops the batch under the
    ///   [`DropReason::Backpressure`] counter and keeps going.
    /// * A **stalled or silently dead** worker is detected by the
    ///   feeder/collector watchdog and abandoned — this method never
    ///   hangs on a wedged worker and never joins one.
    ///
    /// After a fault, failed shards are **rebuilt** with fresh engines
    /// (surviving shards keep their state), so the switch remains usable;
    /// warm-start a rebuilt shard from the salvaged snapshots via
    /// [`ShardedSwitch::import_state`] if desired.
    pub fn collect(mut self) -> Result<Vec<Packet>, SwitchError>
    where
        E: Send + 'static,
    {
        let sw = self.switch;
        sw.check_line_rate()?;
        let run = sw.threaded(sw.now, admitting(&mut self.source), |_| Forward::default())?;
        Ok(sw.merge(run.streams))
    }

    /// Streams every merged output packet to `sink` instead of
    /// materializing them, single-threaded, in exactly the order
    /// [`ShardedRun::collect`] would return — bit-identical output with
    /// memory bounded by the steering balance rather than the trace
    /// length. Returns the run's [`RunStats`].
    ///
    /// Each shard's output is buffered and emitted by the one cursor
    /// [`ShardedSwitch::merge`] runs — one packet per cursor visit,
    /// waiting on a shard whose next output has not materialized yet and
    /// skipping it only once the stream has ended (when an empty buffer
    /// is provably final). The buffers hold only packets the cursor has
    /// not reached, so balanced steering keeps them small; a
    /// pathologically imbalanced trace (every packet on one shard)
    /// degrades to buffering that shard's output.
    pub fn for_each<F: FnMut(Packet)>(mut self, mut sink: F) -> Result<RunStats, SwitchError> {
        let sw = self.switch;
        let mut merge = RoundRobin::new(sw.shards.iter().map(|_| Vec::new()));
        let mut emitted: u64 = 0;
        let mut emit = |pkt| {
            emitted += 1;
            sink(pkt);
        };
        // The tap empties the lane after every step, so a fault's salvage
        // carries the books and state snapshots but no packet payloads.
        let end = sw.inline(
            admitting(&mut self.source),
            Forward::default,
            |s, lane: &mut Forward| {
                merge.push(s, lane.0.drain(..));
                merge.drain(false, &mut emit);
            },
        );
        // Faulted or not, everything transmitted reaches the sink first.
        merge.drain(true, &mut emit);
        Ok(RunStats {
            offered: end?.pulled,
            transmitted: emitted,
        })
    }

    /// Runs shard-by-shard on the calling thread and returns each shard's
    /// output subsequence (un-merged) — the observable the differential
    /// suites compare against serial execution. Unsupervised: engine
    /// errors propagate as `Result`s, engine panics as panics.
    pub fn partitioned(mut self) -> Result<Vec<Vec<Packet>>, SwitchError> {
        let pull = admitting(&mut self.source);
        Ok(self
            .switch
            .inline(pull, Forward::default, |_, _| {})?
            .streams)
    }

    /// Like [`ShardedRun::partitioned`], but timed (steer, per-shard busy
    /// runs, merge) and merged — see [`ShardTimings`].
    pub fn instrumented(mut self) -> Result<ShardRun, SwitchError> {
        let pull = admitting(&mut self.source);
        let run = self.switch.inline(pull, Forward::default, |_, _| {})?;
        // Time the merge the production path performs: a move, no clones.
        let t = Instant::now();
        let merged = self.switch.merge(run.streams);
        let timings = ShardTimings {
            merge_ns: t.elapsed().as_nanos(),
            ..run.timings
        };
        Ok(ShardRun { merged, timings })
    }
}

/// A pending sharded **scheduling** run (see [`ShardedRun::scheduled`]).
#[must_use = "a run session does nothing until a terminal method consumes it"]
pub struct ShardedSchedRun<'s, E: PipelineEngine, S: PacketSource> {
    switch: &'s mut ShardedSwitch<E>,
    source: S,
}

impl<E: PipelineEngine, S: PacketSource> ShardedSchedRun<'_, E, S> {
    /// Runs the scheduling experiment across all shards on supervised
    /// worker threads — the sharded twin of the serial
    /// `run(..).scheduled().collect()`, bit-identical to it on
    /// [`ShardTier::Exact`] plans.
    ///
    /// Each worker runs the serial burst's admission (`Switch::hold`) on
    /// its steered slabs: ingress, then held under the key the configured
    /// [`SchedSpec`] reads off it. During the arrival phase the queue only
    /// grows, so the serial switch admits exactly the first `capacity`
    /// arrivals — a globally computable rule, which is what keeps sharded
    /// `SchedFull` drops bit-identical to serial even under overload. At
    /// collect time the union of the shards' streams drains as the serial
    /// burst does (`Switch::drain_burst`): sorted by `(key, global
    /// arrival cycle)` — the run's one sort; a lane holds its slabs in
    /// arrival order — departed with the serial departure cycles, and
    /// emitted — once, here. Each departure runs on the egress engine of
    /// the shard that owns it: under a keyed egress the shard its flow
    /// key steers to (the shard that held it), under any other egress
    /// shard 0 — so egress state has one home whatever kind of run moved
    /// it, and the merged export reads it. Held slabs have one home too:
    /// each lane holds in its shard's own burst buffer, the drain runs
    /// over shard 0's with the others appended, and every buffer goes back
    /// to its shard emptied, so a burst regrows nothing an earlier one
    /// grew.
    ///
    /// # Failure model
    ///
    /// Supervision is identical to [`ShardedRun::collect`] (same feeder,
    /// rings, watchdog, and collector). A faulted run returns
    /// [`SwitchError::Fault`]; every shard's salvage is what its lane
    /// held, sorted **in rank order** by the sort the burst drain runs
    /// (the lane lives outside the per-batch `catch_unwind`, so a
    /// mid-batch panic cannot corrupt or lose it), and
    /// [`Accounting`](crate::error::Accounting) closes the books exactly.
    /// A source error lands like a worker fault: the feeder stops, every
    /// lane drains into salvage, sorted the same way, and the report
    /// carries a [`SourceFault`](crate::error::SourceFault) with closed
    /// books. A failed shard is rebuilt from the initialisers, egress
    /// state included, as after a forwarding fault. A surviving shard
    /// keeps its state but gives its burst buffer to the salvage, so its
    /// next burst holds in a new one, as a rebuilt shard's does.
    pub fn collect(mut self) -> Result<Vec<SchedDeparture>, SwitchError>
    where
        E: Send + 'static,
    {
        let sw = self.switch;
        // A burst's clock is run-local, as on the serial switch; each
        // lane holds in its shard's own buffer.
        let lane = |shard: &mut Switch<E>| Schedule(std::mem::take(&mut shard.burst));
        let mut lanes = sw.threaded(0, admitting(&mut self.source), lane)?.streams;
        // The serial burst's drain over the union of what the shards
        // held, appended onto the first lane's buffer. A keyed egress
        // departs each slab on the shard its key steers to — the one that
        // held it; any other egress departs on shard 0, so a replicated
        // egress sees the serial departure sequence whole.
        let mut held = std::mem::take(&mut lanes[0]);
        lanes[1..].iter_mut().for_each(|lane| held.append(lane));
        let n = sw.shards.len();
        let mut steer =
            matches!(sw.plan.egress, Partitionability::Keyed(_)).then_some(&mut sw.steer);
        let shards = &mut sw.shards;
        let egress = |i: i64, p: &mut FlatPacket| {
            let s = steer
                .as_mut()
                .map_or(0, |steer| steer.shard_of(i as usize, Some(p), n));
            shards[s].egress.process(p)
        };
        let (edges, shaping) = (&mut sw.edges, sw.config.sched.is_shaping());
        let out = Switch::<E>::drain_burst(sw.meta, edges, shaping, &mut held, &mut sw.now, egress);
        // Every buffer, emptied, goes home to its shard for the next burst.
        lanes[0] = held;
        for (shard, buffer) in sw.shards.iter_mut().zip(lanes) {
            shard.burst = buffer;
        }
        sw.extra_transmitted += out.len() as u64;
        Ok(out)
    }
}

/// A pending sharded **byte-level** run, opened by
/// [`ShardedSwitch::run_frames`].
#[must_use = "a run session does nothing until a terminal method consumes it"]
pub struct ShardedFrameRun<'s, 'c, E: PipelineEngine, S: FrameSource> {
    switch: &'s mut ShardedSwitch<E>,
    source: S,
    cfg: &'c WireConfig,
}

impl<E: PipelineEngine, S: FrameSource> ShardedFrameRun<'_, '_, E, S> {
    /// Parses, steers and runs the frame stream on the calling thread,
    /// returning the per-shard output frames (un-merged).
    ///
    /// The dispatcher parses each frame **once**, on the bound tier (a
    /// [`BoundParser`] on the switch's one table) and into a record of the
    /// run's pool — one a shard has spent, its buffer moved out with the
    /// frame it sent, or a new one — steers
    /// the slab by its slots and frame index, and hands it — its
    /// [`WireLayout`](crate::wire::WireLayout) beside it, stamped with the
    /// frame index as its arrival cycle — to the shard, which patches the
    /// record's bytes in place as it departs; the buffer is moved out of
    /// the record, not copied. A frame lands on exactly the shard its
    /// packet-born twin would: per-shard output equals the serial
    /// [`Switch::run_frames`] output split by
    /// `plan.steer(i, &wire::parse(frame).pkt)`. A malformed frame
    /// carries no fields to steer by; it is dealt round-robin by frame
    /// index (shard `i % n`) and booked there under the
    /// [`DropReason::Parse`] of the dispatcher's verdict, still consuming
    /// its arrival cycle — frame conservation holds shard by shard.
    ///
    /// A source error reports a
    /// [`SourceFault`](crate::error::SourceFault) whose salvage carries
    /// the per-shard books and state snapshots (output frames are bytes,
    /// not packets, so the salvage `output` vectors stay empty — the
    /// typed parse-drop counters still close the accounting exactly).
    pub fn partitioned(mut self) -> Result<Vec<Vec<Vec<u8>>>, SwitchError> {
        let parser = self.switch.parser(self.cfg);
        let pull = |_: &mut PacketEdges, pool: &mut Pool| {
            Ok((self.source.next_frame()?).map(|f| InFlight::parse(f, &parser, || pool.pop())))
        };
        let lane = || Frames(&parser, Vec::new());
        Ok(self.switch.inline(pull, lane, |_, _| {})?.streams)
    }
}

/// **The one merge order** of every sharded run
/// ([`ShardedSwitch::merge`], [`ShardedRun::for_each`]): a cursor that
/// visits the shards' output buffers in cyclic order from shard 0, taking
/// one packet per visit.
struct RoundRobin {
    buffers: Vec<VecDeque<Packet>>,
    /// Packets in `buffers`, so the cursor knows when every one is empty.
    held: usize,
    at: usize,
}

impl RoundRobin {
    /// A cursor over `parts`, one per shard (at least one).
    fn new(parts: impl Iterator<Item = Vec<Packet>>) -> RoundRobin {
        let buffers: Vec<VecDeque<Packet>> = parts.map(VecDeque::from).collect();
        let held = buffers.iter().map(VecDeque::len).sum();
        RoundRobin {
            buffers,
            held,
            at: 0,
        }
    }

    /// Appends to shard `s`'s buffer.
    fn push(&mut self, s: usize, packets: impl ExactSizeIterator<Item = Packet>) {
        self.held += packets.len();
        self.buffers[s].extend(packets);
    }

    /// Hands `sink` every packet whose turn has come. Until the streams
    /// have `ended` an empty buffer may still fill, so the cursor waits
    /// on it; once they have, an empty buffer is final and it moves on.
    fn drain(&mut self, ended: bool, mut sink: impl FnMut(Packet)) {
        loop {
            match self.buffers[self.at].pop_front() {
                Some(pkt) => {
                    self.held -= 1;
                    sink(pkt);
                }
                None if !ended || self.held == 0 => return,
                None => {}
            }
            self.at = (self.at + 1) % self.buffers.len();
        }
    }
}

/// How one shard's lane ended, as the close-out has it (`D` is the
/// [`Lane`]'s output item): the switch handed back with the lane's
/// complete output — or, with the switch gone (its state is suspect after
/// an unwind, and a stalled or vanished worker never returns it), the
/// global index of the packet whose processing faulted if the worker
/// lived to name it, the cause, and its drop counters as they stood
/// (plain integers, safe to read; a worker that never reported: as the
/// run began), beside what the lane held at that instant.
type Outcome<E, D> = (
    Result<Switch<E>, (Option<u64>, FaultCause, DropCounters)>,
    Vec<D>,
);

/// A shard's per-batch step — the one both executors call — and what it
/// accumulates **outside** a worker's unwind scope: a panicking engine
/// loses at most the batch in flight, never what the lane already holds —
/// which is what makes salvage possible. A fault's close-out turns each
/// shard's stream into its salvage once, by the lane's own rule.
trait Lane<E: PipelineEngine> {
    /// What the lane hands back per packet it holds.
    type Out;

    /// The packets one shard's stream contributes to a fault report, in
    /// the order the report carries them (none where they are no packets:
    /// frames are reported by count alone).
    fn salvage(stream: Vec<Self::Out>, edges: &mut PacketEdges) -> Vec<Packet>;

    /// Runs one batch of stamped arrivals — inside the worker's
    /// `catch_unwind`, or inline on the caller's thread — and leaves it
    /// empty, every record it is done with put in `spent` for the
    /// dispatcher to admit into.
    fn step(&mut self, sw: &mut Switch<E>, batch: &mut Batch, spent: &mut Pool);

    /// Everything the lane holds, in the order it came to hold it: the
    /// complete stream of a drained ring, or what a faulted one had.
    fn drain(self) -> Vec<Self::Out>;
}

/// The forwarding lane of every packet-born forwarding terminal: each
/// batch runs through the switch's loop as stamped arrivals and is
/// emitted as it departs — the slab's value row moved into the packet,
/// the record spent without it; the lane holds the output of every
/// *completed* batch (a batch's own gathers beside it until it is).
#[derive(Default)]
struct Forward(Vec<Packet>, Vec<Packet>);

impl<E: PipelineEngine> Lane<E> for Forward {
    type Out = Packet;

    fn salvage(stream: Vec<Packet>, _: &mut PacketEdges) -> Vec<Packet> {
        stream
    }

    fn step(&mut self, sw: &mut Switch<E>, batch: &mut Batch, spent: &mut Pool) {
        sw.run_stamped(batch.drain(..), spent, |e, p| self.1.push(p.emit_row(e)));
        self.0.append(&mut self.1);
    }

    fn drain(self) -> Vec<Packet> {
        self.0
    }
}

/// The byte-born forwarding lane ([`ShardedFrameRun::partitioned`]): the
/// run's one parser patches each departing record's bytes in place and
/// the lane keeps the buffer, moved out of the record.
struct Frames<'p>(&'p BoundParser, Vec<Vec<u8>>);

impl<E: PipelineEngine> Lane<E> for Frames<'_> {
    type Out = Vec<u8>;

    fn salvage(_: Vec<Vec<u8>>, _: &mut PacketEdges) -> Vec<Packet> {
        Vec::new()
    }

    fn step(&mut self, sw: &mut Switch<E>, batch: &mut Batch, spent: &mut Pool) {
        let Frames(parser, out) = self;
        sw.run_stamped(batch.drain(..), spent, |_, p| {
            out.extend(p.deparse(parser).map(std::mem::take))
        });
    }

    fn drain(self) -> Vec<Vec<u8>> {
        self.1
    }
}

/// The scheduling lane ([`ShardedSchedRun::collect`]): the serial burst's
/// admission ([`Switch::hold`]) on each steered slab. The lane holds what
/// it admitted outside the unwind scope, in the buffer its shard keeps
/// for bursts (`Switch::burst`, lent for the run and handed back emptied),
/// and drains it in arrival order, unsorted: a clean run's one sort is
/// the burst drain's, over the union of the lanes. A fault's salvage
/// sorts each lane's holdings with the same function ([`sort_burst`]), so
/// it comes out in rank order, finer than batch granularity.
struct Schedule(Vec<Held>);

impl<E: PipelineEngine> Lane<E> for Schedule {
    /// `(key, global arrival cycle, ingress-processed slab)`.
    type Out = Held;

    /// A faulted scheduling run never reaches egress: its salvage is what
    /// the lane held, in the burst's order.
    fn salvage(mut stream: Vec<Held>, edges: &mut PacketEdges) -> Vec<Packet> {
        sort_burst(&mut stream);
        stream.into_iter().map(|(_, _, p)| p.emit(edges)).collect()
    }

    fn step(&mut self, sw: &mut Switch<E>, batch: &mut Batch, spent: &mut Pool) {
        for arrival in batch.drain(..) {
            sw.hold(arrival, &mut self.0, spent);
        }
    }

    fn drain(self) -> Vec<Held> {
        self.0
    }
}

/// The one shard worker: drain the ring batch by batch through the
/// lane's step, each batch inside `catch_unwind` so an engine panic is
/// contained to this shard, and send each batch's buffer and spent
/// records `home` to the dispatcher (once it has hung up, they die here).
fn worker<E: PipelineEngine, L: Lane<E>>(
    mut sw: Switch<E>,
    rx: mpsc::Receiver<Trip>,
    home: mpsc::Sender<Trip>,
    mut lane: L,
) -> Outcome<E, L::Out> {
    while let Ok((mut batch, mut spent)) = rx.recv() {
        let step = AssertUnwindSafe(|| lane.step(&mut sw, &mut batch, &mut spent));
        if let Err(payload) = catch_unwind(step) {
            // `payload.as_ref()`, not `&payload`: the latter unsizes the
            // Box itself into `dyn Any` and every downcast misses.
            let cause = FaultCause::Panic(panic_payload_string(payload.as_ref()));
            let gone = (Some(sw.now as u64), cause, sw.drop_counters().clone());
            return (Err(gone), lane.drain());
        }
        let _ = home.send((batch, spent));
    }
    (Ok(sw), lane.drain())
}

/// Renders a caught panic payload (`String` and `&str` payloads verbatim,
/// anything else a placeholder).
fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// The packet-born `pull`: each packet admitted onto the table — its one
/// map → slab crossing — from the source's loan ([`PacketSource::lend`]:
/// a slice's packet is read where it lies), into a record of the pool if
/// it has one.
fn admitting<S: PacketSource>(
    source: &mut S,
) -> impl FnMut(&mut PacketEdges, &mut Pool) -> Pulled + '_ {
    |edges, pool| Ok((source.lend()?).map(|pkt| Ok(InFlight::admit(&pkt, edges, pool.pop()))))
}

/// Everything the one dispatcher observed during a run
/// ([`ShardedSwitch::scatter`]) — what the one close-out
/// ([`ShardedSwitch::gather`]) closes the books over.
struct Scatter {
    /// Each shard's drop counters and transmit count as it was taken for
    /// the run (reports carry the run's delta).
    before: Vec<(DropCounters, u64)>,
    /// Arrivals steered to each shard (fed or not — the books).
    offered: Vec<u64>,
    /// Packets shed per shard under [`Backpressure::Shed`].
    sheds: Vec<u64>,
    /// Total arrivals pulled from the source before it ended or failed.
    pulled: u64,
    /// The source's mid-stream error, if it failed rather than ended.
    source_error: Option<SourceError>,
    /// The dispatcher's own clock: its time inside `feed`, per shard
    /// (inline, the shard's busy time) and everything else — pulling,
    /// admitting, steering (the RX lane). The merge is the terminal's to
    /// time.
    timings: ShardTimings,
}

/// A run that ended clean, as [`ShardedSwitch::gather`] hands it to its
/// terminal.
struct Gathered<O> {
    /// Total arrivals pulled from the source.
    pulled: u64,
    /// The dispatcher's lane timings (see [`Scatter::timings`]).
    timings: ShardTimings,
    /// Each lane's complete stream, in shard order.
    streams: Vec<Vec<O>>,
}

/// Outcome of pushing one batch into a shard's ring.
enum FeedResult {
    Sent,
    /// Ring full under [`Backpressure::Shed`]: the batch was dropped.
    Shed,
    /// Ring full past the watchdog under [`Backpressure::Block`].
    Stalled,
    /// The worker's receiver is gone (the worker exited — it faulted).
    Dead,
}

/// Pushes a batch with the configured overload policy. Never blocks past
/// `watchdog`.
fn feed_batch(
    tx: &mpsc::SyncSender<Trip>,
    mut batch: Trip,
    policy: Backpressure,
    watchdog: Duration,
) -> FeedResult {
    let start = Instant::now();
    loop {
        match tx.try_send(batch) {
            Ok(()) => return FeedResult::Sent,
            Err(mpsc::TrySendError::Disconnected(_)) => return FeedResult::Dead,
            Err(mpsc::TrySendError::Full(b)) => match policy {
                Backpressure::Shed => return FeedResult::Shed,
                Backpressure::Block => {
                    if start.elapsed() >= watchdog {
                        return FeedResult::Stalled;
                    }
                    batch = b;
                    // SyncSender has no send_timeout; a short sleep keeps
                    // the spin polite while staying far under any
                    // realistic watchdog granularity.
                    std::thread::sleep(Duration::from_micros(200));
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{AtomRole, CompiledAtom};
    use domino_ast::BinOp;
    use domino_ir::{Codelet, Operand, StateRef, TacRhs};

    /// A per-flow array counter: `counts[pkt.flow] += 1`, exposing the
    /// new count in `pkt.c` — keyed on the input field `flow`.
    fn array_counter(name: &str, arr: &str, size: u32) -> AtomPipeline {
        let body = Codelet::new(vec![
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Array {
                    name: arr.into(),
                    index: Operand::Field("flow".into()),
                },
            },
            TacStmt::Assign {
                dst: "c".into(),
                rhs: TacRhs::Binary(BinOp::Add, Operand::Field("old".into()), Operand::Const(1)),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: arr.into(),
                    index: Operand::Field("flow".into()),
                },
                src: Operand::Field("c".into()),
            },
        ]);
        AtomPipeline {
            name: name.into(),
            target_name: "test".into(),
            stages: vec![vec![CompiledAtom {
                codelet: body,
                role: AtomRole::Stateless,
            }]],
            state_decls: vec![StateVar {
                name: arr.into(),
                kind: StateKind::Array { size },
                init: 0,
            }],
            declared_fields: vec!["c".into()],
            output_map: vec![],
        }
    }

    /// A global scalar counter — deliberately *not* partitionable.
    fn scalar_counter() -> AtomPipeline {
        let body = Codelet::new(vec![
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Scalar("total".into()),
            },
            TacStmt::Assign {
                dst: "c".into(),
                rhs: TacRhs::Binary(BinOp::Add, Operand::Field("old".into()), Operand::Const(1)),
            },
            TacStmt::WriteState {
                state: StateRef::Scalar("total".into()),
                src: Operand::Field("c".into()),
            },
        ]);
        AtomPipeline {
            name: "scalar_counter".into(),
            target_name: "test".into(),
            stages: vec![vec![CompiledAtom {
                codelet: body,
                role: AtomRole::Stateless,
            }]],
            state_decls: vec![StateVar {
                name: "total".into(),
                kind: StateKind::Scalar,
                init: 0,
            }],
            declared_fields: vec!["c".into()],
            output_map: vec![],
        }
    }

    fn flow_trace(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                Packet::new()
                    .with("flow", (i * 7 % 23) as i32)
                    .with("seq", i as i32)
            })
            .collect()
    }

    fn passthrough(name: &str) -> AtomPipeline {
        AtomPipeline::passthrough(name)
    }

    #[test]
    fn plan_extracts_flow_key_from_array_counter() {
        let p = array_counter("count", "counts", 64);
        let plan = ShardPlan::plan(&p, &passthrough("out"), 4, &SteerMode::Auto);
        assert_eq!(plan.effective(), 4);
        assert!(plan.fallback().is_none());
        let spec = plan.flow_key().expect("keyed");
        assert_eq!(spec.key_field(), "flow");
        assert_eq!(spec.modulus(), 64);
        assert!(plan.to_string().contains("keyed on pkt.flow mod 64"));
    }

    #[test]
    fn plan_falls_back_on_scalar_state_with_diagnostic() {
        let plan = ShardPlan::plan(&scalar_counter(), &passthrough("out"), 8, &SteerMode::Auto);
        assert_eq!(plan.requested(), 8);
        assert_eq!(plan.effective(), 1);
        let why = plan.fallback().expect("diagnostic");
        assert!(why.contains("scalar state `total`"), "{why}");
    }

    #[test]
    fn plan_rejects_mismatched_ingress_egress_keys() {
        let ingress = array_counter("in", "a", 8);
        let mut egress = array_counter("eg", "b", 16);
        // Re-key egress on a different field.
        for stage in &mut egress.stages {
            for atom in stage {
                for stmt in &mut atom.codelet.stmts {
                    match stmt {
                        TacStmt::ReadState { state, .. } | TacStmt::WriteState { state, .. } => {
                            if let StateRef::Array { index, .. } = state {
                                *index = Operand::Field("other".into());
                            }
                        }
                        TacStmt::Assign { .. } => {}
                    }
                }
            }
        }
        let plan = ShardPlan::plan(&ingress, &egress, 4, &SteerMode::Auto);
        assert_eq!(plan.effective(), 1);
        assert!(
            plan.fallback().unwrap().contains("different flow keys"),
            "{}",
            plan.fallback().unwrap()
        );
    }

    #[test]
    fn sharded_counter_equals_serial_per_shard_and_in_state() {
        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let trace = flow_trace(500);

        let mut serial = Switch::new_slot(&ingress, &egress, 512).unwrap();
        let serial_out = serial.run(&trace).collect().unwrap();

        for shards in [1, 2, 4, 8] {
            let mut sharded =
                ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(shards)).unwrap();
            let parts = sharded.run(&trace).partitioned().unwrap();
            // Each shard's outputs are the serial outputs at the
            // positions steered to it (serial output order == input
            // order at line rate).
            for (s, part) in parts.iter().enumerate() {
                let expected: Vec<Packet> = trace
                    .iter()
                    .enumerate()
                    .filter(|&(i, p)| sharded.plan().steer(i, p) == s)
                    .map(|(i, _)| serial_out[i].clone())
                    .collect();
                assert_eq!(part, &expected, "shard {s} of {shards}");
            }
            assert_eq!(
                sharded.export_merged_ingress_state(),
                serial.export_ingress_state(),
                "{shards} shards: merged state"
            );
            assert_eq!(sharded.transmitted(), serial.transmitted());
            assert_eq!(sharded.drops(), 0);
        }
    }

    #[test]
    fn threaded_run_is_deterministic_and_equals_sequential_merge() {
        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let trace = flow_trace(700);
        let cfg = ShardConfig::new(4).with_batch(32);

        let mut a = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let threaded = a.run(&trace).collect().unwrap();

        let mut b = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let run = b.run(&trace).instrumented().unwrap();
        assert_eq!(threaded, run.merged);
        assert_eq!(
            a.export_merged_ingress_state(),
            b.export_merged_ingress_state()
        );

        // And a second threaded run from fresh state is bit-identical.
        let mut c = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        assert_eq!(c.run(&trace).collect().unwrap(), threaded);
    }

    #[test]
    fn merge_preserves_per_shard_order_and_multiset() {
        let sw =
            ShardedSwitch::new_slot(&passthrough("in"), &passthrough("out"), ShardConfig::new(4))
                .unwrap();
        // Uneven parts: shard 1 empty, shard 2 ten times longer than the
        // others.
        let parts: Vec<Vec<Packet>> = (0..4)
            .zip([4, 0, 40, 4])
            .map(|(s, len)| {
                (0..len)
                    .map(|i| Packet::new().with("shard", s).with("i", i))
                    .collect()
            })
            .collect();
        let merged = sw.merge(parts.clone());
        assert_eq!(merged.len(), 48);
        for s in 0..4 {
            let sub: Vec<&Packet> = merged
                .iter()
                .filter(|p| p.get("shard") == Some(s))
                .collect();
            let orig: Vec<&Packet> = parts[s as usize].iter().collect();
            assert_eq!(sub, orig, "shard {s} order broken by merge");
        }
        // The exact interleave: from shard 0, one packet from each
        // non-empty shard per round, the empty shard passed over, then the
        // long shard's tail.
        let mut want: Vec<(i32, i32)> = (0..4).flat_map(|i| [(0, i), (2, i), (3, i)]).collect();
        want.extend((4..40).map(|i| (2, i)));
        let got: Vec<(i32, i32)> = (merged.iter())
            .map(|p| (p.expect("shard"), p.expect("i")))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn merge_of_no_parts_is_empty() {
        let sw =
            ShardedSwitch::new_slot(&passthrough("in"), &passthrough("out"), ShardConfig::new(3))
                .unwrap();
        assert_eq!(sw.merge(Vec::new()), Vec::<Packet>::new());
        assert_eq!(sw.merge(vec![Vec::new()]), Vec::<Packet>::new());
    }

    #[test]
    fn fallback_shard_still_matches_serial_exactly() {
        let ingress = scalar_counter();
        let egress = passthrough("out");
        let trace = flow_trace(200);
        let mut serial = Switch::new_slot(&ingress, &egress, 512).unwrap();
        let serial_out = serial.run(&trace).collect().unwrap();
        let mut sharded = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.run(&trace).collect().unwrap(), serial_out);
        assert_eq!(
            sharded.export_merged_ingress_state(),
            serial.export_ingress_state()
        );
    }

    #[test]
    fn import_state_broadcast_roundtrips_through_merged_export() {
        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        // Build a warm serial state.
        let mut serial = Switch::new_slot(&ingress, &egress, 512).unwrap();
        serial.run(&flow_trace(300)).collect().unwrap();
        let warm_in = serial.export_ingress_state();
        let warm_eg = serial.export_egress_state();

        let mut sharded = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
        sharded.import_state(&warm_in, &warm_eg);
        assert_eq!(sharded.export_merged_ingress_state(), warm_in);

        // Continuing from the warm state matches serial continuation.
        let more = flow_trace(100);
        let serial_more = serial.run(&more).collect().unwrap();
        let parts = sharded.run(&more).partitioned().unwrap();
        let mut flat: Vec<(usize, Packet)> = Vec::new();
        for (s, part) in parts.iter().enumerate() {
            let idxs: Vec<usize> = more
                .iter()
                .enumerate()
                .filter(|&(i, p)| sharded.plan().steer(i, p) == s)
                .map(|(i, _)| i)
                .collect();
            for (i, p) in idxs.into_iter().zip(part.iter()) {
                flat.push((i, p.clone()));
            }
        }
        flat.sort_by_key(|(i, _)| *i);
        // Timestamps differ (the warm serial switch's clock kept
        // running), so compare the algorithm's own fields.
        for (i, p) in flat {
            assert_eq!(
                p.get("c"),
                serial_more[i].get("c"),
                "packet {i} diverged after warm start"
            );
        }
        assert_eq!(
            sharded.export_merged_ingress_state(),
            serial.export_ingress_state()
        );
    }

    #[test]
    fn sharded_for_each_streams_bit_identical_to_collect() {
        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let cfg = ShardConfig::new(4).with_batch(32);
        // Balanced, and every packet on one shard: the cursor then waits
        // on an empty buffer until the stream ends.
        let one_flow: Vec<Packet> = (0..500)
            .map(|i| Packet::new().with("flow", 5).with("seq", i))
            .collect();
        for (trace, spread) in [(flow_trace(500), 4), (one_flow, 1)] {
            let mut a = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
            let steered: BTreeSet<usize> = (trace.iter().enumerate())
                .map(|(i, p)| a.plan().steer(i, p))
                .collect();
            assert_eq!(steered.len(), spread);
            let collected = a.run(&trace).collect().unwrap();

            let mut b = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
            let mut streamed = Vec::new();
            let stats = b.run(&trace).for_each(|p| streamed.push(p)).unwrap();
            assert_eq!(streamed, collected);
            assert_eq!(stats.offered, 500);
            assert_eq!(stats.transmitted, collected.len() as u64);
            assert_eq!(
                a.export_merged_ingress_state(),
                b.export_merged_ingress_state()
            );
        }
    }

    #[test]
    fn sharded_source_error_mid_stream_closes_the_books() {
        use crate::stream::{FailAfter, GenSource};

        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let cfg = ShardConfig::new(4).with_batch(16);
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let src = FailAfter::new(
            GenSource::new(|i| Some(Packet::new().with("flow", (i % 23) as i32))),
            100,
            "link flap",
        );
        let err = sw.run(src).collect().unwrap_err();
        let SwitchError::Fault(report) = err else {
            panic!("expected a fault report");
        };
        let fault = report.source.as_ref().expect("source fault recorded");
        assert_eq!(fault.at, 100);
        assert!(report.failures.is_empty(), "no shard failed");
        assert!(report.accounting.conserved(), "{}", report.accounting);
        assert_eq!(report.accounting.offered, 100);
        assert_eq!(report.accounting.lost_in_fault, 0);
        let kept: usize = report.salvage.iter().map(|s| s.output.len()).sum();
        assert_eq!(kept, report.accounting.transmitted as usize);
        assert!(report
            .salvage
            .iter()
            .all(|s| !s.failed && s.state.is_some()));
        // The switch stays usable after the fault.
        let out = sw.run(&flow_trace(50)).collect().unwrap();
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn partitioned_source_error_salvages_every_shard() {
        use crate::stream::{FailAfter, GenSource};

        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(2)).unwrap();
        let src = FailAfter::new(
            GenSource::new(|i| Some(Packet::new().with("flow", (i % 23) as i32))),
            40,
            "disk error",
        );
        let err = sw.run(src).partitioned().unwrap_err();
        let SwitchError::Fault(report) = err else {
            panic!("expected a fault report");
        };
        assert_eq!(report.source.as_ref().unwrap().at, 40);
        assert_eq!(report.salvage.len(), 2);
        assert!(report
            .salvage
            .iter()
            .all(|s| !s.failed && s.state.is_some()));
        assert_eq!(report.salvage.iter().map(|s| s.offered).sum::<u64>(), 40);
        assert_eq!(report.accounting.offered, 40);
        assert!(report.accounting.conserved(), "{}", report.accounting);
    }

    #[test]
    fn one_table_is_held_by_every_shard_engine_and_parser_even_after_a_rebuild() {
        use crate::fault::{FaultSpec, FaultyEngine};

        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let cfg = ShardConfig::new(3)
            .with_batch(8)
            .with_scheduler(SchedSpec::Priority {
                class: "prio".into(),
                rank: "c".into(),
            });
        let sw = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        for shard in &sw.shards {
            assert!(Arc::ptr_eq(shard.edges.table(), sw.edges.table()));
        }
        assert!(Arc::ptr_eq(
            sw.parser(&WireConfig::new()).table(),
            sw.edges.table()
        ));
        // Every name anything resolves later was interned before the
        // table closed: metadata, the scheduler's fields, the flow key.
        for field in ["enq_ts", "now", "qdepth", "prio", "c", "flow"] {
            assert!(sw.edges.table().lookup(field).is_some(), "{field}");
        }

        // Kill shard 1 at its fourth packet; it is rebuilt on the table
        // its predecessor ran on, and the switch runs again.
        let mut armed: ShardedSwitch<FaultyEngine<SlotMachine>> =
            ShardedSwitch::new_with(&ingress, &egress, cfg, |s, pipeline, table| {
                let kill = matches!((s, pipeline.name.as_str()), (1, "count"));
                let faults = if kill {
                    vec![FaultSpec::panic_at(3)]
                } else {
                    Vec::new()
                };
                FaultyEngine::with_faults(pipeline, faults, table)
            })
            .unwrap();
        let table = Arc::clone(armed.edges.table());
        let err = armed.run(&flow_trace(300)).collect().unwrap_err();
        let report = err.fault().expect("the armed shard faults");
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].shard, 1);
        assert!(Arc::ptr_eq(armed.edges.table(), &table));
        for shard in &armed.shards {
            assert!(Arc::ptr_eq(shard.edges.table(), &table));
        }
        assert_eq!(armed.run(&flow_trace(50)).collect().unwrap().len(), 50);
        assert_eq!(
            armed
                .run(&flow_trace(20))
                .scheduled()
                .collect()
                .unwrap()
                .len(),
            20
        );
    }

    /// The scheduling lane is executor-agnostic: stepped inline it is the
    /// sequential oracle of the threaded run — same per-shard pop streams,
    /// same refusals, same ingress state.
    #[test]
    fn schedule_lane_stepped_inline_equals_the_threaded_run() {
        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let spec = SchedSpec::Priority {
            class: "flow".into(),
            rank: "c".into(),
        };
        let cfg = ShardConfig::new(4)
            .with_batch(16)
            .with_capacity(200)
            .with_scheduler(spec.clone());
        let trace = flow_trace(300);
        let lane = || Schedule(Vec::new());
        let keys = |run: Gathered<Held>| -> Vec<Vec<(crate::pifo::SchedKey, i64)>> {
            assert_eq!(run.pulled, 300);
            (run.streams.into_iter())
                .map(|stream| stream.into_iter().map(|(key, t, _)| (key, t)).collect())
                .collect()
        };

        let mut a = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        assert_eq!(a.plan().tier(), ShardTier::Exact);
        let mut source = trace.as_slice().into_packet_source();
        let threaded = keys(a.threaded(0, admitting(&mut source), |_| lane()).unwrap());

        let mut b = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let mut source = trace.as_slice().into_packet_source();
        let inline = keys(b.inline(admitting(&mut source), lane, |_, _| {}).unwrap());

        assert_eq!(inline, threaded);
        assert_eq!(inline.iter().map(Vec::len).sum::<usize>(), 200);
        for stream in &inline {
            let mut arrivals = stream.windows(2);
            assert!(
                arrivals.all(|w| w[0].1 < w[1].1),
                "a lane drains in strictly increasing arrival cycle"
            );
        }
        assert_eq!(b.drop_counters(), a.drop_counters());
        assert_eq!(b.drop_counters().sched_full(), 100);
        assert_eq!(
            b.export_merged_ingress_state(),
            a.export_merged_ingress_state()
        );
    }

    #[test]
    fn malformed_frames_are_dealt_by_index_and_booked_on_that_shard() {
        use crate::wire::{encode, parse, FrameSpec};

        let cfg = WireConfig::new();
        let good = encode(&Packet::new(), &cfg, &FrameSpec::default());
        let frames: Vec<Vec<u8>> = (0..12)
            .map(|i| match i % 4 {
                1 => good[..9].to_vec(),  // runt Ethernet
                3 => good[..20].to_vec(), // cut inside IPv4
                _ => good.clone(),
            })
            .collect();
        let mut sw =
            ShardedSwitch::new_slot(&passthrough("in"), &passthrough("out"), ShardConfig::new(3))
                .unwrap();
        let parts = sw.run_frames(&frames, &cfg).partitioned().unwrap();
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 6);

        let mut expected = vec![DropCounters::new(); 3];
        for (i, frame) in frames.iter().enumerate() {
            if let Err(verdict) = parse(frame, &cfg) {
                expected[i % 3].bump(DropReason::Parse(verdict));
            }
        }
        for (s, shard) in sw.shards.iter().enumerate() {
            assert_eq!(shard.drop_counters(), &expected[s], "shard {s}");
        }
        assert_eq!(sw.drop_counters().parse_total(), 6);
    }
}
