//! # banzai — a machine model for programmable line-rate switches
//!
//! Banzai (§2 of *Packet Transactions*, SIGCOMM 2016) abstracts
//! programmable switch pipelines (RMT, Intel FlexPipe, Cavium XPliant): a
//! feed-forward pipeline of stages, each stage a vector of **atoms** that
//! execute within one clock cycle, one packet per cycle. Atoms are the
//! machine's instruction set; stateful atoms own their state exclusively —
//! state is never shared across atoms or stages.
//!
//! This crate provides:
//!
//! * [`kind::AtomKind`] — the seven stateful atom kinds of Table 3 and
//!   their capability lattice,
//! * [`atom`] — filled-in atom templates ([`atom::StatefulConfig`]):
//!   predication trees with relational guards and single-ALU updates,
//! * [`target::Target`] — concrete compiler targets (§5.2): atom kind +
//!   resource limits + available intrinsics,
//! * [`machine`] — the executable machine: [`machine::AtomPipeline`] and
//!   [`machine::Machine`] with both transactional and cycle-accurate
//!   (packets-in-flight) execution, which are observably identical — the
//!   packet-transaction guarantee,
//! * [`slot`] — the slot-compiled fast path: [`slot::SlotPipeline`]
//!   (pipelines lowered onto interned field/state layouts) and
//!   [`slot::SlotMachine`], bit-identical to [`machine::Machine`] with no
//!   per-packet string hashing,
//! * [`switch`] — the Figure-1 whole-switch view (ingress pipeline, queue,
//!   egress pipeline), generic over either execution engine,
//! * [`pifo`] — programmable scheduling: push-in-first-out queue blocks
//!   popped in rank order (the rank itself computed by a Domino program's
//!   output field), and the [`pifo::SchedSpec`] policy that selects the
//!   switch queue's discipline — WFQ, strict priority, and token-bucket
//!   shaping,
//! * [`shard`] — the multi-core scale-out: [`shard::ShardedSwitch`] steers
//!   flows to N independent per-shard switches (RSS-style, keyed by the
//!   program's own state indexing) and merges packets and state back
//!   deterministically, bit-identical to serial execution,
//! * [`wire`] — the byte-level front-end: an Ethernet → VLAN → IPv4 →
//!   TCP/UDP parse graph decoding raw frames into packet fields (typed
//!   [`wire::ParseVerdict`]s on malformed input, never a panic) and a
//!   patch-list deparser re-serializing modified headers, so the full
//!   path is bytes → parse → pipeline → deparse → bytes,
//! * [`error`] — the typed failure model: [`error::SwitchError`] with
//!   per-shard [`error::ShardError`]s and a salvage-carrying
//!   [`error::FaultReport`] whose [`error::Accounting`] proves packet
//!   conservation (`offered == transmitted + dropped + lost_in_fault`),
//! * [`fault`] — deterministic fault injection:
//!   [`fault::FaultyEngine`] wraps any engine and panics, stalls, or
//!   bit-flips at seed-scheduled packet indices, the hook the chaos
//!   suite and fabric-scale simulation both drive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod error;
pub mod fault;
pub mod kind;
pub mod machine;
pub mod pifo;
pub mod shard;
pub mod slot;
pub mod stream;
pub mod switch;
pub mod target;
pub mod wire;

pub use atom::{Guard, GuardOperand, RelOp, StatefulConfig, Tree, Update};
pub use error::{
    Accounting, FaultCause, FaultReport, ShardError, ShardSalvage, SourceFault, SwitchError,
};
pub use fault::{FaultKind, FaultPlan, FaultSpec, FaultyEngine};
pub use kind::{AtomKind, StatefulCaps};
pub use machine::{AtomPipeline, AtomRole, CompiledAtom, Machine};
pub use pifo::{Fifo, Pifo, SchedKey, SchedQueue, SchedSpec, Scheduler};
pub use shard::{
    Backpressure, ShardConfig, ShardPlan, ShardRun, ShardTier, ShardTimings, ShardedFrameRun,
    ShardedRun, ShardedSchedRun, ShardedSwitch, SteerMode,
};
pub use slot::{SlotMachine, SlotPipeline};
pub use stream::{
    FailAfter, GenSource, IntoSource, PacketSource, RunStats, SliceSource, Source, SourceError,
};
pub use switch::{
    DropCounters, DropReason, FrameRun, PipelineEngine, Run, SchedDeparture, SchedRun, Switch,
};
pub use target::Target;
pub use wire::{
    deparse, encode, parse, BoundParser, FrameSpec, ParseVerdict, WireConfig, WireLayout,
    WirePacket,
};
