//! The slot-compiled execution engine: atom pipelines lowered onto fixed
//! field/state layouts and executed with pure integer indexing.
//!
//! [`Machine`](crate::Machine) interprets TAC with string-keyed map
//! lookups on every operand — fine as a semantic reference, orders of
//! magnitude off the paper's "run at the line rate of the switching
//! fabric" story. This module is the fast path:
//!
//! 1. [`SlotPipeline::lower`] resolves, once per pipeline, every packet
//!    field to a [`FieldId`] slot (via a [`FieldTable`] built in
//!    deterministic first-mention order), every state variable to a base
//!    offset in a flat register file ([`StateLayout`]), and every
//!    intrinsic to a direct entry point — producing slot-indexed atom
//!    programs ([`SlotOp`]).
//! 2. [`SlotMachine`] executes those programs over [`FlatPacket`]s and a
//!    [`FlatState`] register file: no per-packet string hashing, no tree
//!    walks, no allocation in the per-statement loop.
//!
//! Because TAC is straight-line, the set of slots a pipeline writes is a
//! compile-time constant; the engine writes raw slots in the hot loop and
//! restores the presence invariant with one precomputed bitmask OR per
//! packet. The map-based [`Machine`](crate::Machine) remains the semantic
//! reference; differential tests (and the `throughput` harness) assert the
//! two paths are bit-identical, packet-for-packet and state-for-state.

use crate::error::SwitchError;
use crate::machine::AtomPipeline;
use crate::switch::PipelineEngine;
use domino_ast::{intrinsics, BinOp, UnOp};
use domino_ir::layout::{FieldId, FieldTable, FlatPacket, FlatState, FlowKeySpec, StateLayout};
use domino_ir::{Operand, Packet, StateRef, StateStore, TacRhs, TacStmt};
use std::fmt;
use std::sync::Arc;

/// An operand with its field pre-resolved to a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOperand {
    /// A packet-field slot.
    Slot(FieldId),
    /// An immediate constant.
    Const(i32),
}

impl SlotOperand {
    #[inline]
    fn eval(self, vals: &[i32]) -> i32 {
        match self {
            SlotOperand::Slot(id) => vals[id.index()],
            SlotOperand::Const(c) => c,
        }
    }
}

/// An intrinsic pre-resolved to its accelerator entry point (no per-packet
/// string dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variants are the intrinsic names
pub enum IntrinsicFn {
    Hash2,
    Hash3,
    Isqrt,
    CodelGap,
}

impl IntrinsicFn {
    /// Resolves an intrinsic by name.
    pub fn from_name(name: &str) -> Option<IntrinsicFn> {
        match name {
            "hash2" => Some(IntrinsicFn::Hash2),
            "hash3" => Some(IntrinsicFn::Hash3),
            "isqrt" => Some(IntrinsicFn::Isqrt),
            "codel_gap" => Some(IntrinsicFn::CodelGap),
            _ => None,
        }
    }

    /// The argument count this intrinsic requires (enforced at lowering).
    pub fn arity(self) -> usize {
        match self {
            IntrinsicFn::Hash2 | IntrinsicFn::CodelGap => 2,
            IntrinsicFn::Hash3 => 3,
            IntrinsicFn::Isqrt => 1,
        }
    }

    #[inline]
    fn eval(self, args: &[i32]) -> i32 {
        match (self, args) {
            (IntrinsicFn::Hash2, [a, b]) => intrinsics::hash2(*a, *b),
            (IntrinsicFn::Hash3, [a, b, c]) => intrinsics::hash3(*a, *b, *c),
            (IntrinsicFn::Isqrt, [a]) => intrinsics::isqrt(*a),
            (IntrinsicFn::CodelGap, [count, interval]) => intrinsics::codel_gap(*count, *interval),
            _ => unreachable!("arity checked at lowering time"),
        }
    }
}

/// A state reference with the variable pre-resolved to its register-file
/// window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotStateRef {
    /// A scalar at a fixed offset.
    Scalar(u32),
    /// An array window `[base, base+len)` indexed by an operand.
    Array {
        /// First register-file slot of the array.
        base: u32,
        /// Array length (indices wrap modulo this, like the map path).
        len: u32,
        /// The index operand.
        index: SlotOperand,
    },
}

impl SlotStateRef {
    #[inline]
    fn read(&self, state: &FlatState, vals: &[i32]) -> i32 {
        match self {
            SlotStateRef::Scalar(base) => state.read(*base),
            SlotStateRef::Array { base, len, index } => {
                state.read_array(*base, *len, index.eval(vals))
            }
        }
    }

    #[inline]
    fn write(&self, value: i32, state: &mut FlatState, vals: &[i32]) {
        match self {
            SlotStateRef::Scalar(base) => state.write(*base, value),
            SlotStateRef::Array { base, len, index } => {
                state.write_array(*base, *len, index.eval(vals), value)
            }
        }
    }
}

/// A right-hand side with all operands slot-resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // mirrors `TacRhs`, variant for variant
pub enum SlotRhs {
    Copy(SlotOperand),
    Unary(UnOp, SlotOperand),
    Binary(BinOp, SlotOperand, SlotOperand),
    Ternary(SlotOperand, SlotOperand, SlotOperand),
    Intrinsic {
        func: IntrinsicFn,
        args: Vec<SlotOperand>,
        modulo: Option<i32>,
    },
}

impl SlotRhs {
    #[inline]
    fn eval(&self, vals: &[i32]) -> i32 {
        match self {
            SlotRhs::Copy(o) => o.eval(vals),
            SlotRhs::Unary(op, o) => op.eval(o.eval(vals)),
            SlotRhs::Binary(op, a, b) => op.eval(a.eval(vals), b.eval(vals)),
            SlotRhs::Ternary(c, a, b) => {
                if c.eval(vals) != 0 {
                    a.eval(vals)
                } else {
                    b.eval(vals)
                }
            }
            SlotRhs::Intrinsic { func, args, modulo } => {
                let mut buf = [0i32; 3];
                for (slot, a) in buf.iter_mut().zip(args) {
                    *slot = a.eval(vals);
                }
                let raw = func.eval(&buf[..args.len()]);
                match modulo {
                    Some(m) => BinOp::Mod.eval(raw, *m),
                    None => raw,
                }
            }
        }
    }
}

/// One slot-indexed statement (the lowered form of [`TacStmt`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // mirrors `TacStmt`, variant for variant
pub enum SlotOp {
    ReadState {
        dst: FieldId,
        state: SlotStateRef,
    },
    WriteState {
        state: SlotStateRef,
        src: SlotOperand,
    },
    Assign {
        dst: FieldId,
        rhs: SlotRhs,
    },
}

impl SlotOp {
    #[inline]
    fn exec(&self, state: &mut FlatState, vals: &mut [i32]) {
        match self {
            SlotOp::ReadState { dst, state: sref } => {
                vals[dst.index()] = sref.read(state, vals);
            }
            SlotOp::WriteState { state: sref, src } => {
                sref.write(src.eval(vals), state, vals);
            }
            SlotOp::Assign { dst, rhs } => {
                vals[dst.index()] = rhs.eval(vals);
            }
        }
    }
}

/// An [`AtomPipeline`] compiled down to slot-indexed programs: one op list
/// per stage (atoms concatenated in execution order), a deparse copy list,
/// and the static written-slot presence mask.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPipeline {
    name: String,
    table: Arc<FieldTable>,
    state_layout: StateLayout,
    stages: Vec<Vec<SlotOp>>,
    /// Deparser view as `(declared, internal)` slot pairs (only pairs with
    /// distinct names, matching the map path).
    deparse: Vec<(FieldId, FieldId)>,
    /// Presence bitmask of every slot any statement (or the deparser)
    /// writes — constant because TAC is straight-line.
    written_mask: Box<[u64]>,
    /// The same set as a slot list, for merging results back into map
    /// packets at the edges.
    written_slots: Vec<FieldId>,
}

impl SlotPipeline {
    /// Lowers an atom pipeline onto fixed layouts.
    ///
    /// Fails (with a human-readable reason) only on pipelines the compiler
    /// would never emit — an unknown intrinsic, a bad arity, or a state
    /// variable outside the declarations; `domino_compiler` validates the
    /// lowering at code-generation time so every compiled pipeline is
    /// guaranteed slot-executable.
    pub fn lower(pipeline: &AtomPipeline) -> Result<SlotPipeline, String> {
        let mut table = FieldTable::new();
        let mut program = SlotPipeline::lower_onto(pipeline, &mut table)?;
        program.bind(&Arc::new(table));
        Ok(program)
    }

    /// Lowers `pipeline` onto a table other pipelines share (a
    /// [`Switch`](crate::Switch) lowers its ingress and egress onto one):
    /// fields `table` already names keep their slots, new ones are
    /// appended. The program is not executable until [`Self::bind`] hands
    /// it the finished table.
    fn lower_onto(pipeline: &AtomPipeline, table: &mut FieldTable) -> Result<SlotPipeline, String> {
        // Declared fields first: their slots are stable for observers.
        for f in &pipeline.declared_fields {
            table.intern(f);
        }
        let state_layout = StateLayout::from_decls(&pipeline.state_decls);

        let mut written: Vec<FieldId> = Vec::new();
        let mut stages = Vec::with_capacity(pipeline.stages.len());
        for stage in &pipeline.stages {
            let mut ops = Vec::new();
            for atom in stage {
                for stmt in &atom.codelet.stmts {
                    let op = lower_stmt(stmt, table, &state_layout)?;
                    if let SlotOp::ReadState { dst, .. } | SlotOp::Assign { dst, .. } = op {
                        written.push(dst);
                    }
                    ops.push(op);
                }
            }
            stages.push(ops);
        }

        let mut deparse = Vec::new();
        for (declared, internal) in &pipeline.output_map {
            if declared != internal {
                let d = table.intern(declared);
                let i = table.intern(internal);
                deparse.push((d, i));
                written.push(d);
            }
        }
        written.sort_unstable();
        written.dedup();

        Ok(SlotPipeline {
            name: pipeline.name.clone(),
            table: Arc::default(),
            state_layout,
            stages,
            deparse,
            written_mask: Box::default(),
            written_slots: written,
        })
    }

    /// Adopts `table` — the one this program was lowered onto, possibly
    /// grown since (slots are append-only, so every [`FieldId`] still
    /// holds) — and sizes the written-slot mask to it.
    fn bind(&mut self, table: &Arc<FieldTable>) {
        let mut mask = vec![0u64; table.len().div_ceil(64)].into_boxed_slice();
        for id in &self.written_slots {
            mask[id.index() / 64] |= 1 << (id.index() % 64);
        }
        self.written_mask = mask;
        self.table = Arc::clone(table);
    }

    /// Transaction name this pipeline implements.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field layout (interned slots) this pipeline executes over.
    pub fn field_table(&self) -> &Arc<FieldTable> {
        &self.table
    }

    /// The state layout (register-file offsets).
    pub fn state_layout(&self) -> &StateLayout {
        &self.state_layout
    }

    /// Pipeline depth (number of stages).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Total slot-indexed operations across all stages.
    pub fn op_count(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }
}

impl fmt::Display for SlotPipeline {
    /// Renders the layout: field slots, state offsets, per-stage op counts
    /// (the `domc --emit layout` view).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "layout for `{}` — {} field slots, {} state slots, {} stages / {} ops",
            self.name,
            self.table.len(),
            self.state_layout.total_slots(),
            self.depth(),
            self.op_count()
        )?;
        write!(f, "{}", self.table)?;
        write!(f, "{}", self.state_layout)?;
        for (i, stage) in self.stages.iter().enumerate() {
            writeln!(f, "stage {}: {} ops", i + 1, stage.len())?;
        }
        Ok(())
    }
}

fn lower_operand(op: &Operand, table: &mut FieldTable) -> SlotOperand {
    match op {
        Operand::Field(f) => SlotOperand::Slot(table.intern(f)),
        Operand::Const(c) => SlotOperand::Const(*c),
    }
}

fn lower_state_ref(
    sref: &StateRef,
    table: &mut FieldTable,
    layout: &StateLayout,
) -> Result<SlotStateRef, String> {
    let entry = layout
        .slot(sref.name())
        .ok_or_else(|| format!("state variable `{}` is not declared", sref.name()))?;
    match sref {
        StateRef::Scalar(name) => {
            if entry.is_array {
                return Err(format!(
                    "state variable `{name}` is an array, used as scalar"
                ));
            }
            Ok(SlotStateRef::Scalar(entry.base))
        }
        StateRef::Array { name, index } => {
            if !entry.is_array {
                return Err(format!(
                    "state variable `{name}` is a scalar, used as array"
                ));
            }
            Ok(SlotStateRef::Array {
                base: entry.base,
                len: entry.len,
                index: lower_operand(index, table),
            })
        }
    }
}

fn lower_stmt(
    stmt: &TacStmt,
    table: &mut FieldTable,
    layout: &StateLayout,
) -> Result<SlotOp, String> {
    Ok(match stmt {
        TacStmt::ReadState { dst, state } => SlotOp::ReadState {
            dst: table.intern(dst),
            state: lower_state_ref(state, table, layout)?,
        },
        TacStmt::WriteState { state, src } => SlotOp::WriteState {
            state: lower_state_ref(state, table, layout)?,
            src: lower_operand(src, table),
        },
        TacStmt::Assign { dst, rhs } => SlotOp::Assign {
            dst: table.intern(dst),
            rhs: lower_rhs(rhs, table)?,
        },
    })
}

fn lower_rhs(rhs: &TacRhs, table: &mut FieldTable) -> Result<SlotRhs, String> {
    Ok(match rhs {
        TacRhs::Copy(o) => SlotRhs::Copy(lower_operand(o, table)),
        TacRhs::Unary(op, o) => SlotRhs::Unary(*op, lower_operand(o, table)),
        TacRhs::Binary(op, a, b) => {
            SlotRhs::Binary(*op, lower_operand(a, table), lower_operand(b, table))
        }
        TacRhs::Ternary(c, a, b) => SlotRhs::Ternary(
            lower_operand(c, table),
            lower_operand(a, table),
            lower_operand(b, table),
        ),
        TacRhs::Intrinsic { name, args, modulo } => {
            let func = IntrinsicFn::from_name(name)
                .ok_or_else(|| format!("no execution-engine entry point for intrinsic `{name}`"))?;
            if args.len() != func.arity() {
                return Err(format!(
                    "intrinsic `{name}` takes {} argument(s), got {}",
                    func.arity(),
                    args.len()
                ));
            }
            SlotRhs::Intrinsic {
                func,
                args: args.iter().map(|a| lower_operand(a, table)).collect(),
                modulo: *modulo,
            }
        }
    })
}

/// A [`FlowKeySpec`]'s stateless slice lowered onto a field table:
/// [`FlowKeySpec::key_of`] — the by-name reference — over slots, for a
/// dispatcher that steers slabs (`crate::shard`).
#[derive(Debug, Clone)]
pub(crate) struct KeySlice {
    ops: Vec<SlotOp>,
    key: FieldId,
    modulus: i64,
    /// The slice runs on scratch, never on the packet it steers; a
    /// stateless slice never touches the (empty) register file.
    scratch: Vec<i32>,
    no_state: FlatState,
}

impl KeySlice {
    /// Lowers the slice with the engine's own [`lower_stmt`], interning
    /// every field it names on `table`.
    pub(crate) fn lower(spec: &FlowKeySpec, table: &mut FieldTable) -> Result<KeySlice, String> {
        let no_state = StateLayout::from_decls(&[]);
        let ops = (spec.stmts().iter())
            .map(|stmt| lower_stmt(stmt, table, &no_state))
            .collect::<Result<_, _>>()?;
        Ok(KeySlice {
            ops,
            key: table.intern(spec.key_field()),
            modulus: spec.modulus() as i64,
            scratch: Vec::new(),
            no_state: FlatState::new(no_state),
        })
    }

    /// The key class of the packet on `flat`. The reference copies only
    /// the slice's roots into a fresh packet; copying the whole slab
    /// agrees with it on every input, because every operand of the slice
    /// is a root or a field the slice assigned earlier.
    pub(crate) fn key_of(&mut self, flat: &FlatPacket) -> u32 {
        self.scratch.clear();
        self.scratch.extend_from_slice(flat.slots());
        for op in &self.ops {
            op.exec(&mut self.no_state, &mut self.scratch);
        }
        (self.scratch[self.key.index()] as i64).rem_euclid(self.modulus) as u32
    }
}

/// A machine instance running the slot-compiled fast path: a lowered
/// pipeline plus a live flat register file.
///
/// Mirrors [`Machine`](crate::Machine)'s API (`process`, `run_trace`,
/// `run_trace_pipelined`) with bit-identical observable behaviour, plus
/// `*_flat` variants that skip the map-packet edges entirely for replaying
/// pre-converted traces at full speed.
#[derive(Debug, Clone)]
pub struct SlotMachine {
    program: SlotPipeline,
    state: FlatState,
}

impl SlotMachine {
    /// Lowers `pipeline` and instantiates fresh state.
    pub fn compile(pipeline: &AtomPipeline) -> Result<SlotMachine, String> {
        Ok(SlotMachine::from_program(SlotPipeline::lower(pipeline)?))
    }

    /// Instantiates a machine from an already-lowered pipeline.
    pub fn from_program(program: SlotPipeline) -> SlotMachine {
        let state = FlatState::new(program.state_layout.clone());
        SlotMachine { program, state }
    }

    /// The lowered program this machine runs.
    pub fn program(&self) -> &SlotPipeline {
        &self.program
    }

    /// The field layout for building [`FlatPacket`]s to feed `*_flat`.
    pub fn field_table(&self) -> &Arc<FieldTable> {
        &self.program.table
    }

    /// Converts a map-packet trace onto this machine's layout once, for
    /// repeated replay through the flat entry points.
    pub fn flatten_trace(&self, trace: &[Packet]) -> Vec<FlatPacket> {
        trace
            .iter()
            .map(|p| FlatPacket::from_packet(p, &self.program.table))
            .collect()
    }

    /// Exports the live register file as a map [`StateStore`] (for
    /// inspection and for comparison against the reference path).
    pub fn export_state(&self) -> StateStore {
        self.state.export()
    }

    /// Overwrites the register file from a map snapshot (the inverse of
    /// [`SlotMachine::export_state`]; shapes must match the layout).
    pub fn import_state(&mut self, snapshot: &StateStore) {
        self.state.import(snapshot);
    }

    /// Runs one flat packet through every stage in place (transactional
    /// view) — the allocation-free hot path.
    pub fn process_flat(&mut self, pkt: &mut FlatPacket) {
        let vals = pkt.slots_mut();
        for stage in &self.program.stages {
            for op in stage {
                op.exec(&mut self.state, vals);
            }
        }
        for (declared, internal) in &self.program.deparse {
            vals[declared.index()] = vals[internal.index()];
        }
        pkt.mark_present(&self.program.written_mask);
    }

    /// Runs a flat trace, one packet at a time.
    pub fn run_trace_flat(&mut self, trace: &[FlatPacket]) -> Vec<FlatPacket> {
        trace
            .iter()
            .map(|p| {
                let mut pkt = p.clone();
                self.process_flat(&mut pkt);
                pkt
            })
            .collect()
    }

    /// Cycle-accurate simulation over flat packets: one packet enters per
    /// cycle, up to `depth` in flight — the slot-path mirror of
    /// [`Machine::run_trace_pipelined`](crate::Machine::run_trace_pipelined).
    pub fn run_trace_pipelined_flat(&mut self, trace: &[FlatPacket]) -> Vec<FlatPacket> {
        let depth = self.program.depth();
        let mut slots: Vec<Option<FlatPacket>> = vec![None; depth];
        let mut out = Vec::with_capacity(trace.len());
        let mut input = trace.iter();
        loop {
            for s in (0..depth).rev() {
                if let Some(mut pkt) = slots[s].take() {
                    for op in &self.program.stages[s] {
                        op.exec(&mut self.state, pkt.slots_mut());
                    }
                    if s + 1 == depth {
                        let vals = pkt.slots_mut();
                        for (declared, internal) in &self.program.deparse {
                            vals[declared.index()] = vals[internal.index()];
                        }
                        pkt.mark_present(&self.program.written_mask);
                        out.push(pkt);
                    } else {
                        slots[s + 1] = Some(pkt);
                    }
                }
            }
            match input.next() {
                Some(p) => {
                    if depth == 0 {
                        out.push(p.clone());
                    } else {
                        slots[0] = Some(p.clone());
                    }
                }
                None => {
                    if slots.iter().all(|s| s.is_none()) {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Runs one map packet through the fast path.
    ///
    /// Fields the layout does not know (pass-through metadata the program
    /// never mentions) are preserved verbatim, exactly like the map path:
    /// the result starts from the input packet and only written slots are
    /// merged back.
    pub fn process(&mut self, pkt: Packet) -> Packet {
        let mut flat = FlatPacket::from_packet(&pkt, &self.program.table);
        self.process_flat(&mut flat);
        let mut out = pkt;
        self.merge_back(&flat, &mut out);
        out
    }

    /// Runs a map-packet trace, one packet at a time (the drop-in
    /// replacement for [`Machine::run_trace`](crate::Machine::run_trace)).
    pub fn run_trace(&mut self, trace: &[Packet]) -> Vec<Packet> {
        trace.iter().map(|p| self.process(p.clone())).collect()
    }

    /// Cycle-accurate simulation over map packets: bit-identical to
    /// [`Machine::run_trace_pipelined`](crate::Machine::run_trace_pipelined).
    ///
    /// The pipeline is in-order, so output `i` corresponds to input `i` and
    /// pass-through fields can be merged from the matching input.
    pub fn run_trace_pipelined(&mut self, trace: &[Packet]) -> Vec<Packet> {
        let flat = self.flatten_trace(trace);
        let outs = self.run_trace_pipelined_flat(&flat);
        debug_assert_eq!(outs.len(), trace.len());
        outs.iter()
            .zip(trace)
            .map(|(f, orig)| {
                let mut out = orig.clone();
                self.merge_back(f, &mut out);
                out
            })
            .collect()
    }

    /// Copies every slot this pipeline writes from `flat` into `out` by
    /// name — the deparser step reconstructing a map packet from a flat
    /// run. `process` is `from_packet` → `process_flat` → `merge_back`;
    /// harnesses that time the flat path re-use this to realize outputs
    /// for comparison against the reference path.
    pub fn merge_back(&self, flat: &FlatPacket, out: &mut Packet) {
        let vals = flat.slots();
        for id in &self.program.written_slots {
            out.set(self.program.table.name(*id), vals[id.index()]);
        }
    }
}

impl PipelineEngine for SlotMachine {
    fn build(pipeline: &AtomPipeline, table: &mut FieldTable) -> Result<SlotMachine, SwitchError> {
        SlotPipeline::lower_onto(pipeline, table)
            .map(SlotMachine::from_program)
            .map_err(SwitchError::build)
    }

    fn bind(&mut self, table: &Arc<FieldTable>) {
        self.program.bind(table);
    }

    fn process(&mut self, pkt: &mut FlatPacket) {
        self.process_flat(pkt);
    }

    fn export_state(&self) -> StateStore {
        SlotMachine::export_state(self)
    }

    fn import_state(&mut self, snapshot: &StateStore) {
        SlotMachine::import_state(self, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{AtomRole, CompiledAtom, Machine};
    use domino_ast::{StateKind, StateVar};
    use domino_ir::Codelet;

    // banzai cannot depend on domino-compiler (it is upstream), so unit
    // tests lower hand-built pipelines; compiled-program coverage lives in
    // the workspace integration suite. This builds the same 2-stage
    // counter pipeline as the `machine` module's tests.
    fn counter_pipeline() -> AtomPipeline {
        use domino_ir::{TacRhs, TacStmt};
        let counter = Codelet::new(vec![
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Scalar("c".into()),
            },
            TacStmt::Assign {
                dst: "count".into(),
                rhs: TacRhs::Binary(BinOp::Add, Operand::Field("old".into()), Operand::Const(1)),
            },
            TacStmt::WriteState {
                state: StateRef::Scalar("c".into()),
                src: Operand::Field("count".into()),
            },
        ]);
        let compare = Codelet::new(vec![TacStmt::Assign {
            dst: "flag".into(),
            rhs: TacRhs::Binary(BinOp::Gt, Operand::Field("count".into()), Operand::Const(2)),
        }]);
        AtomPipeline {
            name: "count".into(),
            target_name: "test".into(),
            stages: vec![
                vec![CompiledAtom {
                    codelet: counter,
                    role: AtomRole::Stateless, // role is irrelevant to execution
                }],
                vec![CompiledAtom {
                    codelet: compare,
                    role: AtomRole::Stateless,
                }],
            ],
            state_decls: vec![StateVar {
                name: "c".into(),
                kind: StateKind::Scalar,
                init: 0,
            }],
            declared_fields: vec!["count".into(), "flag".into()],
            output_map: vec![],
        }
    }

    #[test]
    fn slot_machine_matches_map_machine_on_counter_pipeline() {
        let pipeline = counter_pipeline();
        let trace: Vec<Packet> = (0..40).map(|i| Packet::new().with("seq", i)).collect();
        let mut map = Machine::new(pipeline.clone());
        let mut slot = SlotMachine::compile(&pipeline).unwrap();
        let map_out = map.run_trace(&trace);
        let slot_out = slot.run_trace(&trace);
        assert_eq!(map_out, slot_out);
        assert_eq!(*map.state(), slot.export_state());
    }

    #[test]
    fn slot_pipelined_matches_map_pipelined() {
        let pipeline = counter_pipeline();
        let trace: Vec<Packet> = (0..23).map(|i| Packet::new().with("seq", i)).collect();
        let mut map = Machine::new(pipeline.clone());
        let mut slot = SlotMachine::compile(&pipeline).unwrap();
        assert_eq!(
            map.run_trace_pipelined(&trace),
            slot.run_trace_pipelined(&trace)
        );
        assert_eq!(*map.state(), slot.export_state());
    }

    #[test]
    fn unknown_passthrough_fields_survive_the_fast_path() {
        let pipeline = counter_pipeline();
        let mut slot = SlotMachine::compile(&pipeline).unwrap();
        let out = slot.process(Packet::new().with("mystery", 77));
        assert_eq!(out.get("mystery"), Some(77));
        assert_eq!(out.get("count"), Some(1));
    }

    #[test]
    fn lowering_is_deterministic() {
        let pipeline = counter_pipeline();
        let a = SlotPipeline::lower(&pipeline).unwrap();
        let b = SlotPipeline::lower(&pipeline).unwrap();
        assert_eq!(a, b);
        // Declared fields take the first slots, in declaration order.
        assert_eq!(a.field_table().lookup("count").map(|f| f.index()), Some(0));
        assert_eq!(a.field_table().lookup("flag").map(|f| f.index()), Some(1));
    }

    #[test]
    fn flat_replay_equals_map_edged_run() {
        let pipeline = counter_pipeline();
        let trace: Vec<Packet> = (0..10).map(|i| Packet::new().with("count", i)).collect();
        let mut m1 = SlotMachine::compile(&pipeline).unwrap();
        let mut m2 = SlotMachine::compile(&pipeline).unwrap();
        let map_edged = m1.run_trace(&trace);
        let flat = m2.flatten_trace(&trace);
        let flat_out = m2.run_trace_flat(&flat);
        for (m, f) in map_edged.iter().zip(&flat_out) {
            assert_eq!(*m, f.to_packet());
        }
        assert_eq!(m1.export_state(), m2.export_state());
    }

    #[test]
    fn intrinsic_arity_mismatch_is_rejected_at_lowering() {
        use domino_ir::{TacRhs, TacStmt};
        let mut pipeline = counter_pipeline();
        pipeline.stages[1][0].codelet = Codelet::new(vec![TacStmt::Assign {
            dst: "flag".into(),
            rhs: TacRhs::Intrinsic {
                name: "isqrt".into(),
                args: vec![Operand::Field("count".into()), Operand::Const(1)],
                modulo: None,
            },
        }]);
        let err = SlotPipeline::lower(&pipeline).unwrap_err();
        assert!(err.contains("takes 1 argument(s), got 2"), "{err}");
    }

    #[test]
    fn undeclared_state_is_rejected_at_lowering() {
        let mut pipeline = counter_pipeline();
        pipeline.state_decls.clear();
        let err = SlotPipeline::lower(&pipeline).unwrap_err();
        assert!(err.contains("`c`"), "{err}");
    }

    #[test]
    fn display_shows_layout() {
        let program = SlotPipeline::lower(&counter_pipeline()).unwrap();
        let text = program.to_string();
        assert!(text.contains("field slots"), "{text}");
        assert!(text.contains("pkt.count"), "{text}");
        assert!(text.contains("state[0] = c"), "{text}");
    }
}
