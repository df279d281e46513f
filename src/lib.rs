//! # domino — packet transactions for line-rate switches
//!
//! A faithful, complete Rust implementation of *Packet Transactions:
//! High-Level Programming for Line-Rate Switches* (Sivaraman et al.,
//! SIGCOMM 2016): the **Domino** language, its all-or-nothing compiler,
//! and the **Banzai** machine model for programmable line-rate switch
//! pipelines, plus the paper's hardware cost model, P4 backend, and the
//! Table 4 algorithm suite.
//!
//! This crate is the facade: it re-exports the workspace and offers
//! one-call helpers for the common path.
//!
//! ## Quickstart
//!
//! ```
//! use domino::prelude::*;
//!
//! // A packet transaction: sequential code, atomic and isolated across
//! // packets.
//! let src = r#"
//!     struct Packet { int sport; int dport; int bucket; int count; };
//!     int counters[256] = {0};
//!     void count_flows(struct Packet pkt) {
//!         pkt.bucket = hash2(pkt.sport, pkt.dport) % 256;
//!         counters[pkt.bucket] = counters[pkt.bucket] + 1;
//!         pkt.count = counters[pkt.bucket];
//!     }
//! "#;
//!
//! // Compile for a Banzai machine whose stateful atom is ReadAddWrite.
//! let target = Target::banzai(AtomKind::Raw);
//! let pipeline = domino::compile(src, &target).expect("compiles at line rate");
//! assert_eq!(pipeline.max_stateful_kind(), Some(AtomKind::Raw));
//!
//! // Run packets through the machine: one packet per clock cycle.
//! let mut machine = Machine::new(pipeline);
//! let out = machine.process(Packet::new().with("sport", 99).with("dport", 80));
//! assert_eq!(out.get("count"), Some(1));
//! ```
//!
//! ## Streaming ingestion
//!
//! Whole-switch runs pull packets from a [`PacketSource`](banzai::PacketSource)
//! through the unified `run` builder, so a trace never has to be
//! materialized — memory stays bounded however long the run:
//!
//! ```
//! use domino::prelude::*;
//!
//! let mut sw = Switch::new_slot(
//!     &banzai::AtomPipeline::passthrough("in"),
//!     &banzai::AtomPipeline::passthrough("out"),
//!     64,
//! )
//! .unwrap();
//!
//! // One million generated packets, never held in memory at once: the
//! // source yields them on demand and the sink consumes them as they
//! // depart.
//! let src = GenSource::with_len(1_000_000, |i| {
//!     Some(Packet::new().with("flow", (i % 97) as i32))
//! });
//! let stats = sw.run(src).for_each(|_pkt| {}).unwrap();
//! assert_eq!(stats.offered, 1_000_000);
//! assert_eq!(stats.transmitted, 1_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use atom_synth;
pub use banzai;
pub use domino_ast;
pub use domino_compiler;
pub use domino_ir;
pub use hardware_model;
pub use p4_backend;

use banzai::machine::AtomPipeline;
use banzai::Target;
use domino_ast::Diagnostic;

/// Commonly used types, for `use domino::prelude::*`.
pub mod prelude {
    pub use banzai::wire::{
        deparse, encode, parse, BoundParser, FrameSpec, ParseVerdict, WireConfig, WirePacket,
    };
    pub use banzai::{
        Accounting, AtomKind, Backpressure, DropCounters, DropReason, FailAfter, FaultCause,
        FaultKind, FaultPlan, FaultReport, FaultSpec, FaultyEngine, Fifo, FrameRun, GenSource,
        IntoSource, Machine, PacketSource, Pifo, Run, RunStats, SchedDeparture, SchedKey, SchedRun,
        SchedSpec, Scheduler, ShardConfig, ShardError, ShardSalvage, ShardedFrameRun, ShardedRun,
        ShardedSchedRun, ShardedSwitch, SliceSource, SlotMachine, Source, SourceError, SourceFault,
        SteerMode, Switch, SwitchError, Target,
    };
    pub use domino_ir::{Packet, StateStore};
}

/// Compiles a Domino source program for a Banzai target (all-or-nothing:
/// the pipeline runs at line rate, or compilation fails with a diagnostic).
pub fn compile(source: &str, target: &Target) -> Result<AtomPipeline, Diagnostic> {
    domino_compiler::compile(source, target)
}

/// Compiles an ingress and an egress program and assembles a multi-core
/// [`ShardedSwitch`](banzai::ShardedSwitch): N worker shards, each a
/// slot-compiled switch, fed by RSS-style flow steering derived from the
/// programs' own state indexing.
///
/// Sharding never changes observable behaviour: per-flow outputs and
/// merged state are bit-identical to the serial switch. Programs whose
/// state indexing is not partitionable (global registers, multi-hash
/// sketches) run on a single shard, with the reason recorded in
/// [`ShardPlan::fallback`](banzai::ShardPlan::fallback).
///
/// The threaded run is supervised: worker faults surface as typed
/// [`SwitchError::Fault`](banzai::SwitchError::Fault) values carrying a
/// salvage-and-accounting [`FaultReport`](banzai::FaultReport), never as
/// a process abort (see `banzai::shard`'s failure model).
///
/// ```
/// use domino::prelude::*;
///
/// let ingress = "struct P { int flow; int c; };\nint counts[64] = {0};\n\
///                void count(struct P pkt) {\n\
///                  counts[pkt.flow] = counts[pkt.flow] + 1;\n\
///                  pkt.c = counts[pkt.flow];\n\
///                }";
/// let egress = "struct P { int c; int heavy; };\n\
///               void mark(struct P pkt) { pkt.heavy = pkt.c > 4; }";
/// let mut sw = domino::sharded_switch(
///     ingress,
///     egress,
///     &Target::banzai(AtomKind::Raw),
///     ShardConfig::new(4),
/// )
/// .unwrap();
/// assert_eq!(sw.plan().effective(), 4);
///
/// let trace: Vec<Packet> = (0..40).map(|i| Packet::new().with("flow", i % 8)).collect();
/// let out = sw.run(&trace).collect().unwrap();
/// assert_eq!(out.len(), 40);
/// // Five packets per flow: every flow's last packet is marked heavy.
/// assert_eq!(out.iter().filter(|p| p.get("heavy") == Some(1)).count(), 8);
/// ```
pub fn sharded_switch(
    ingress: &str,
    egress: &str,
    target: &Target,
    config: banzai::ShardConfig,
) -> Result<banzai::ShardedSwitch, Diagnostic> {
    let ingress = compile(ingress, target)?;
    let egress = compile(egress, target)?;
    banzai::ShardedSwitch::new_slot(&ingress, &egress, config).map_err(|e| {
        Diagnostic::global(
            domino_ast::Stage::CodeGen,
            format!("internal error: sharded switch construction failed: {e}"),
        )
    })
}

/// Compiles a program and emits the equivalent P4 (the code a programmer
/// would otherwise write by hand, §5.1).
pub fn compile_to_p4(source: &str, target: &Target) -> Result<String, Diagnostic> {
    let compilation = domino_compiler::normalize(source)?;
    let pipeline = domino_compiler::lower(&compilation, target)?;
    Ok(p4_backend::generate(&compilation, &pipeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use banzai::AtomKind;
    use domino_ir::Packet;

    const SRC: &str = "struct P { int a; int total; };\nint sum = 0;\n\
                       void acc(struct P pkt) { sum = sum + pkt.a; pkt.total = sum; }";

    #[test]
    fn facade_compile_and_run() {
        let mut m = banzai::Machine::new(compile(SRC, &Target::banzai(AtomKind::Raw)).unwrap());
        let out = m.process(Packet::new().with("a", 5).with("total", 0));
        assert_eq!(out.get("total"), Some(5));
        let out = m.process(Packet::new().with("a", 7).with("total", 0));
        assert_eq!(out.get("total"), Some(12));
    }

    #[test]
    fn facade_p4_generation() {
        let p4 = compile_to_p4(SRC, &Target::banzai(AtomKind::Raw)).unwrap();
        assert!(p4.contains("register<bit<32>>(1) sum;"), "{p4}");
    }

    #[test]
    fn facade_rejects_like_compiler() {
        assert!(compile(SRC, &Target::banzai(AtomKind::Write)).is_err());
    }

    #[test]
    fn facade_wire_roundtrip() {
        use crate::prelude::*;

        let cfg = WireConfig::new();
        let frame = encode(
            &Packet::new().with("sport", 443),
            &cfg,
            &FrameSpec::default(),
        );
        let wp = parse(&frame, &cfg).unwrap();
        assert_eq!(wp.pkt.get("sport"), Some(443));
        assert_eq!(deparse(&wp.pkt, &wp.layout), frame);
        assert_eq!(
            parse(&frame[..10], &cfg).unwrap_err(),
            ParseVerdict::TruncatedEthernet
        );
    }
}
