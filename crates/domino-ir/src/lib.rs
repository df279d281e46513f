//! # domino-ir — shared intermediate representation and reference semantics
//!
//! This crate sits between the Domino front end ([`domino_ast`]) and the
//! Banzai machine model: it defines
//!
//! * [`packet::Packet`] — parsed packets as named 32-bit fields,
//! * [`state::StateStore`] — persistent switch state (registers/arrays),
//! * [`layout`] — the compile-time field-layout pass: interned fields
//!   ([`layout::FieldTable`]), flat packets ([`layout::FlatPacket`]), and
//!   flat state ([`layout::FlatState`]) for the slot-compiled fast path,
//! * [`tac`] — three-address code, the normalized form of a transaction,
//! * [`codelet`] — codelets and the PVSM pipeline IR (§4.2),
//! * [`interp`] — the sequential reference interpreters that define the
//!   packet-transaction semantics every backend must preserve,
//! * [`wire`] — the canonical field names byte-level wire headers parse
//!   into (the naming contract between `banzai::wire`'s parser/deparser
//!   and compiled pipelines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codelet;
pub mod interp;
pub mod layout;
pub mod packet;
pub mod state;
pub mod tac;
pub mod wire;

pub use codelet::{Codelet, PvsmPipeline};
pub use interp::{run_ast, run_tac, step_ast, step_tac};
pub use layout::{
    FieldId, FieldTable, FlatPacket, FlatState, FlowKeySpec, MergeOp, PacketEdges,
    Partitionability, ReplicaArray, ReplicaSpec, Residual, StateLayout,
};
pub use packet::Packet;
pub use state::{StateStore, StateValue};
pub use tac::{Operand, StateRef, TacProgram, TacRhs, TacStmt};
