//! The slot-compiled execution engine: atom pipelines lowered onto fixed
//! field/state layouts and executed as one dense instruction stream.
//!
//! [`Machine`](crate::Machine) interprets TAC with string-keyed map
//! lookups on every operand — fine as a semantic reference, orders of
//! magnitude off the paper's "run at the line rate of the switching
//! fabric" story. This module is the fast path, split the way the paper's
//! machine is: everything that can be decided when the pipeline is
//! *configured* is, and a packet only *clocks* the result.
//!
//! 1. [`SlotPipeline::lower`] turns every TAC statement into one `Inst` —
//!    a small `Copy` record: an opcode (the [`BinOp`]/[`UnOp`] included),
//!    a destination, three raw operands and one bit per operand saying
//!    whether it is a slot of the packet's slab or an immediate. Packet
//!    fields are resolved to [`FieldId`] slots (via a [`FieldTable`] built
//!    in deterministic first-mention order), state variables to windows
//!    of a flat register file ([`StateLayout`]), intrinsics to opcodes
//!    (their arity checked here, once), and `x % CONST` — written out or
//!    an intrinsic's `% N` — to a precomputed multiply (`ModC`), so no
//!    packet pays a divide for a modulus the program fixed. All stages,
//!    then the deparser's copies, sit in **one** `Vec<Inst>`; the stage
//!    boundaries are offsets into it.
//! 2. [`SlotMachine`] runs that stream over [`FlatPacket`]s and a
//!    [`FlatState`] register file with one loop (`exec`): the
//!    transactional `process_flat` runs the whole stream, the
//!    cycle-accurate replay runs a stage's slice of it per clock, and the
//!    shard dispatcher's key slice is a stream of its own — there is no
//!    second executable form. No string hashing, no tree walk, no
//!    allocation per statement.
//!
//! Because TAC is straight-line, the set of slots a pipeline writes is a
//! compile-time constant; the engine writes raw slots in the hot loop and
//! restores the presence invariant with one precomputed bitmask OR per
//! packet. The map-based [`Machine`](crate::Machine) remains the semantic
//! reference; differential tests (and the `throughput` harness) assert the
//! two paths are bit-identical, packet-for-packet and state-for-state.

use crate::error::SwitchError;
use crate::machine::{pipelined, AtomPipeline};
use crate::switch::PipelineEngine;
use domino_ast::{intrinsics, BinOp, UnOp};
use domino_ir::layout::{FieldId, FieldTable, FlatPacket, FlatState, StateLayout, StateSlot};
use domino_ir::partition::FlowKeySpec;
use domino_ir::{Operand, Packet, StateRef, StateStore, TacRhs, TacStmt};
use std::fmt;
use std::sync::Arc;

/// `x % modulus` for a modulus fixed at lowering (Lemire's fastmod): the
/// remainder of `|x|` by `|modulus|` is the high half of two multiplies
/// by `magic` = ⌈2⁶⁴ / |modulus|⌉, and the sign follows the dividend as
/// `wrapping_rem`'s does. Exact for every `i32` dividend and every
/// modulus: ±1 wraps the magic to 0 and every remainder with it,
/// `i32::MIN` is 2³¹ unsigned, and modulus 0 gets magic 0 — the defined 0
/// of [`BinOp::Mod`] without a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModC {
    magic: u64,
    abs: u32,
}

impl ModC {
    fn new(modulus: i32) -> ModC {
        let abs = modulus.unsigned_abs();
        let magic = (u64::MAX.checked_div(abs as u64)).map_or(0, |q| q.wrapping_add(1));
        ModC { magic, abs }
    }

    #[inline]
    fn rem(self, x: i32) -> i32 {
        let low = self.magic.wrapping_mul(x.unsigned_abs() as u64);
        // Below `abs` ≤ 2³¹, so it fits and its negation cannot overflow.
        let r = ((low as u128 * self.abs as u128) >> 64) as i32;
        if x < 0 {
            -r
        } else {
            r
        }
    }
}

/// What an [`Inst`] does, over its operands `a`, `b`, `c` = `args[0..3]`.
/// Every opcode but the two stores writes the packet slot `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Opcode {
    /// `dst ← a`.
    Copy,
    /// `dst ← op a`.
    Un(UnOp),
    /// `dst ← a op b`.
    Bin(BinOp),
    /// `dst ← a % CONST`, by the instruction's [`ModC`].
    ModC,
    /// `dst ← a ? b : c`.
    Sel,
    /// The intrinsics over `a`, `b`, `c`, reduced by the instruction's
    /// [`ModC`] when the `MODC` bit is set.
    Hash2,
    Hash3,
    Isqrt,
    CodelGap,
    /// `dst ← state[a]` (`a` a raw register-file offset).
    Load,
    /// `dst ← state[a + wrap(b, c)]` (`c` the raw window length).
    LoadArr,
    /// `state[dst] ← a` (`dst` a register-file offset, not a packet slot).
    Store,
    /// `state[dst + wrap(b, c)] ← a`.
    StoreArr,
}

/// Bit of [`Inst::imm`] saying `m` is wired: the result is reduced by it.
const MODC: u8 = 1 << 3;

/// One instruction of the stream (the lowered form of a [`TacStmt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Inst {
    op: Opcode,
    /// Bit `i` set: `args[i]` is an immediate, not a slot to fetch.
    imm: u8,
    dst: u32,
    args: [i32; 3],
    m: ModC,
}

impl Inst {
    fn new(op: Opcode, dst: u32) -> Inst {
        Inst {
            op,
            imm: 0,
            dst,
            args: [0; 3],
            m: ModC::new(0),
        }
    }

    /// Operand `i` wired to a program operand: its slot, or the constant.
    fn arg(mut self, i: usize, operand: &Operand, table: &mut FieldTable) -> Inst {
        self.args[i] = match operand {
            Operand::Field(f) => table.intern(f).raw() as i32,
            Operand::Const(c) => {
                self.imm |= 1 << i;
                *c
            }
        };
        self
    }

    /// Operand `i` as a number lowering resolved itself: a slot, a
    /// register-file offset or a window length.
    fn raw(mut self, i: usize, value: u32) -> Inst {
        self.args[i] = value as i32;
        self
    }

    fn modc(mut self, modulus: i32) -> Inst {
        self.imm |= MODC;
        self.m = ModC::new(modulus);
        self
    }

    /// The operand fetch: two-way, slot or immediate.
    #[inline]
    fn get(&self, vals: &[i32], i: usize) -> i32 {
        if self.imm >> i & 1 != 0 {
            self.args[i]
        } else {
            vals[self.args[i] as usize]
        }
    }

    #[inline]
    fn reduce(&self, raw: i32) -> i32 {
        if self.imm & MODC != 0 {
            self.m.rem(raw)
        } else {
            raw
        }
    }

    fn writes_packet(&self) -> bool {
        !matches!(self.op, Opcode::Store | Opcode::StoreArr)
    }
}

/// The one executor: every run path of this module is this loop over a
/// slice of a stream.
#[inline]
fn exec(insts: &[Inst], state: &mut FlatState, vals: &mut [i32]) {
    for i in insts {
        let value = match i.op {
            Opcode::Copy => i.get(vals, 0),
            Opcode::Un(op) => op.eval(i.get(vals, 0)),
            Opcode::Bin(op) => op.eval(i.get(vals, 0), i.get(vals, 1)),
            Opcode::ModC => i.m.rem(i.get(vals, 0)),
            Opcode::Sel => match i.get(vals, 0) {
                0 => i.get(vals, 2),
                _ => i.get(vals, 1),
            },
            Opcode::Hash2 => i.reduce(intrinsics::hash2(i.get(vals, 0), i.get(vals, 1))),
            Opcode::Hash3 => i.reduce(intrinsics::hash3(
                i.get(vals, 0),
                i.get(vals, 1),
                i.get(vals, 2),
            )),
            Opcode::Isqrt => i.reduce(intrinsics::isqrt(i.get(vals, 0))),
            Opcode::CodelGap => i.reduce(intrinsics::codel_gap(i.get(vals, 0), i.get(vals, 1))),
            Opcode::Load => state.read(i.args[0] as u32),
            Opcode::LoadArr => state.read_array(i.args[0] as u32, i.args[2] as u32, i.get(vals, 1)),
            Opcode::Store => {
                state.write(i.dst, i.get(vals, 0));
                continue;
            }
            Opcode::StoreArr => {
                state.write_array(i.dst, i.args[2] as u32, i.get(vals, 1), i.get(vals, 0));
                continue;
            }
        };
        vals[i.dst as usize] = value;
    }
}

impl fmt::Display for Inst {
    /// `opcode  destination <- operands`, slots as `s3`, immediates as
    /// `#7`, a wired modulus as `mod N`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arg = |i: usize| match self.imm >> i & 1 {
            0 => format!("s{}", self.args[i]),
            _ => format!("#{}", self.args[i]),
        };
        let args = |n: usize| (0..n).map(arg).collect::<Vec<_>>().join(", ");
        let window = |base: u32| format!("state[{base} + {} wrap {}]", arg(1), self.args[2]);
        let (name, dst, operands) = match self.op {
            Opcode::Copy => ("copy", None, arg(0)),
            Opcode::Un(op) => (op.symbol(), None, arg(0)),
            Opcode::Bin(op) => (op.symbol(), None, args(2)),
            Opcode::ModC => ("modc", None, arg(0)),
            Opcode::Sel => ("sel", None, args(3)),
            Opcode::Hash2 => ("hash2", None, args(2)),
            Opcode::Hash3 => ("hash3", None, args(3)),
            Opcode::Isqrt => ("isqrt", None, arg(0)),
            Opcode::CodelGap => ("codel_gap", None, args(2)),
            Opcode::Load => ("load", None, format!("state[{}]", self.args[0])),
            Opcode::LoadArr => ("load[]", None, window(self.args[0] as u32)),
            Opcode::Store => ("store", Some(format!("state[{}]", self.dst)), arg(0)),
            Opcode::StoreArr => ("store[]", Some(window(self.dst)), arg(0)),
        };
        let dst = dst.unwrap_or_else(|| format!("s{}", self.dst));
        write!(f, "{name:<9} {dst} <- {operands}")?;
        if self.imm & MODC != 0 {
            write!(f, " mod {}", self.m.abs)?;
        }
        Ok(())
    }
}

/// An [`AtomPipeline`] compiled down to one instruction stream — every
/// stage's statements in execution order, then the deparser's copies —
/// with the stage boundaries as offsets and the static written-slot
/// presence mask.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPipeline {
    name: String,
    table: Arc<FieldTable>,
    state_layout: StateLayout,
    insts: Vec<Inst>,
    /// Stage `s` is `insts[bounds[s]..bounds[s + 1]]`; the deparser view
    /// (one `Copy` per output whose declared and internal names differ,
    /// matching the map path) is everything from the last bound on.
    bounds: Vec<usize>,
    /// Presence bitmask of every slot the stream writes — constant
    /// because TAC is straight-line.
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

        let mut insts = Vec::new();
        let mut bounds = vec![0];
        for stage in &pipeline.stages {
            for stmt in stage.iter().flat_map(|atom| &atom.codelet.stmts) {
                insts.push(lower_stmt(stmt, table, &state_layout)?);
            }
            bounds.push(insts.len());
        }
        for (declared, internal) in &pipeline.output_map {
            if declared != internal {
                let copy = Inst::new(Opcode::Copy, table.intern(declared).raw());
                insts.push(copy.raw(0, table.intern(internal).raw()));
            }
        }

        Ok(SlotPipeline {
            name: pipeline.name.clone(),
            table: Arc::default(),
            state_layout,
            insts,
            bounds,
            written_mask: Box::default(),
            written_slots: Vec::new(),
        })
    }

    /// Adopts `table` — the one this program was lowered onto, possibly
    /// grown since (slots are append-only, so every slot number still
    /// holds) — and sizes the written-slot mask to it.
    fn bind(&mut self, table: &Arc<FieldTable>) {
        let mut mask = vec![0u64; table.len().div_ceil(64)].into_boxed_slice();
        for inst in self.insts.iter().filter(|i| i.writes_packet()) {
            mask[inst.dst as usize / 64] |= 1 << (inst.dst % 64);
        }
        let written = |id: &FieldId| mask[id.index() / 64] >> (id.index() % 64) & 1 != 0;
        self.written_slots = table.iter().map(|(id, _)| id).filter(written).collect();
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
        self.bounds.len() - 1
    }

    /// Total slot-indexed operations across all stages.
    pub fn op_count(&self) -> usize {
        self.bounds[self.depth()]
    }

    /// The slice of the stream stage `s` clocks.
    fn stage(&self, s: usize) -> &[Inst] {
        &self.insts[self.bounds[s]..self.bounds[s + 1]]
    }

    /// The deparser's copies: the tail of the stream.
    fn deparse(&self) -> &[Inst] {
        &self.insts[self.op_count()..]
    }
}

impl fmt::Display for SlotPipeline {
    /// Renders the layout — field slots, state offsets — and the
    /// instruction stream the engine executes, stage by stage (the
    /// `domc --emit layout` view).
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
        for s in 0..self.depth() {
            writeln!(f, "stage {}: {} ops", s + 1, self.stage(s).len())?;
            self.stage(s)
                .iter()
                .try_for_each(|i| writeln!(f, "  {i}"))?;
        }
        if !self.deparse().is_empty() {
            writeln!(f, "deparse: {} copies", self.deparse().len())?;
            self.deparse()
                .iter()
                .try_for_each(|i| writeln!(f, "  {i}"))?;
        }
        Ok(())
    }
}

/// Resolves a state reference to its register-file window, refusing a
/// variable that is undeclared or of the other kind.
fn lower_state_ref<'a>(sref: &StateRef, layout: &'a StateLayout) -> Result<&'a StateSlot, String> {
    let entry = layout
        .slot(sref.name())
        .ok_or_else(|| format!("state variable `{}` is not declared", sref.name()))?;
    match sref {
        StateRef::Scalar(name) if entry.is_array => Err(format!(
            "state variable `{name}` is an array, used as scalar"
        )),
        StateRef::Array { name, .. } if !entry.is_array => Err(format!(
            "state variable `{name}` is a scalar, used as array"
        )),
        _ => Ok(entry),
    }
}

fn lower_stmt(
    stmt: &TacStmt,
    table: &mut FieldTable,
    layout: &StateLayout,
) -> Result<Inst, String> {
    Ok(match stmt {
        TacStmt::ReadState { dst, state } => {
            let (dst, window) = (table.intern(dst).raw(), lower_state_ref(state, layout)?);
            match state {
                StateRef::Scalar(_) => Inst::new(Opcode::Load, dst).raw(0, window.base),
                StateRef::Array { index, .. } => (Inst::new(Opcode::LoadArr, dst))
                    .raw(0, window.base)
                    .arg(1, index, table)
                    .raw(2, window.len),
            }
        }
        TacStmt::WriteState { state, src } => {
            let window = lower_state_ref(state, layout)?;
            match state {
                StateRef::Scalar(_) => Inst::new(Opcode::Store, window.base).arg(0, src, table),
                StateRef::Array { index, .. } => (Inst::new(Opcode::StoreArr, window.base))
                    .arg(0, src, table)
                    .arg(1, index, table)
                    .raw(2, window.len),
            }
        }
        TacStmt::Assign { dst, rhs } => lower_rhs(table.intern(dst).raw(), rhs, table)?,
    })
}

fn lower_rhs(dst: u32, rhs: &TacRhs, table: &mut FieldTable) -> Result<Inst, String> {
    Ok(match rhs {
        TacRhs::Copy(o) => Inst::new(Opcode::Copy, dst).arg(0, o, table),
        TacRhs::Unary(op, o) => Inst::new(Opcode::Un(*op), dst).arg(0, o, table),
        TacRhs::Binary(BinOp::Mod, a, Operand::Const(m)) => {
            Inst::new(Opcode::ModC, dst).arg(0, a, table).modc(*m)
        }
        TacRhs::Binary(op, a, b) => {
            (Inst::new(Opcode::Bin(*op), dst).arg(0, a, table)).arg(1, b, table)
        }
        TacRhs::Ternary(c, a, b) => (Inst::new(Opcode::Sel, dst).arg(0, c, table))
            .arg(1, a, table)
            .arg(2, b, table),
        TacRhs::Intrinsic { name, args, modulo } => {
            let (op, arity) = match name.as_str() {
                "hash2" => (Opcode::Hash2, 2),
                "hash3" => (Opcode::Hash3, 3),
                "isqrt" => (Opcode::Isqrt, 1),
                "codel_gap" => (Opcode::CodelGap, 2),
                _ => {
                    return Err(format!(
                        "no execution-engine entry point for intrinsic `{name}`"
                    ))
                }
            };
            if args.len() != arity {
                return Err(format!(
                    "intrinsic `{name}` takes {arity} argument(s), got {}",
                    args.len()
                ));
            }
            let inst = (args.iter().enumerate())
                .fold(Inst::new(op, dst), |inst, (i, a)| inst.arg(i, a, table));
            modulo.map_or(inst, |m| inst.modc(m))
        }
    })
}

/// A [`FlowKeySpec`]'s stateless slice lowered onto a field table:
/// [`FlowKeySpec::key_of`] — the by-name reference — over slots, for a
/// dispatcher that steers slabs (`crate::shard`).
#[derive(Debug, Clone)]
pub(crate) struct KeySlice {
    insts: Vec<Inst>,
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
        let insts = (spec.stmts().iter())
            .map(|stmt| lower_stmt(stmt, table, &no_state))
            .collect::<Result<_, _>>()?;
        Ok(KeySlice {
            insts,
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
        exec(&self.insts, &mut self.no_state, &mut self.scratch);
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
        exec(&self.program.insts, &mut self.state, pkt.slots_mut());
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
        let program = &self.program;
        pipelined(
            program.depth(),
            trace,
            &mut self.state,
            |state, s, pkt| exec(program.stage(s), state, pkt.slots_mut()),
            |state, pkt| {
                exec(program.deparse(), state, pkt.slots_mut());
                pkt.mark_present(&program.written_mask);
            },
        )
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
    use domino_ir::partition::mix64;
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
        // The stream itself, stage by stage: count = slot 0, flag = 1, old = 2.
        let stream = "stage 1: 3 ops\n  \
            load      s2 <- state[0]\n  \
            +         s0 <- s2, #1\n  \
            store     state[0] <- s0\n\
            stage 2: 1 ops\n  \
            >         s1 <- s0, #2\n";
        assert!(text.ends_with(stream), "{text}");
    }

    #[test]
    fn display_shows_wired_moduli_windows_and_deparse_copies() {
        use domino_ir::{TacRhs, TacStmt};
        let field = |f: &str| Operand::Field(f.into());
        let arr = |index| StateRef::Array {
            name: "c".into(),
            index,
        };
        let mut pipeline = counter_pipeline();
        pipeline.state_decls[0].kind = StateKind::Array { size: 8 };
        pipeline.stages[0][0].codelet = Codelet::new(vec![
            TacStmt::Assign {
                dst: "count".into(),
                rhs: TacRhs::Binary(BinOp::Mod, field("count"), Operand::Const(-7)),
            },
            TacStmt::ReadState {
                dst: "old".into(),
                state: arr(field("count")),
            },
            TacStmt::WriteState {
                state: arr(Operand::Const(9)),
                src: field("old"),
            },
        ]);
        pipeline.stages[1][0].codelet = Codelet::new(vec![TacStmt::Assign {
            dst: "flag".into(),
            rhs: TacRhs::Intrinsic {
                name: "hash2".into(),
                args: vec![field("flag"), Operand::Const(3)],
                modulo: Some(10),
            },
        }]);
        pipeline.output_map = vec![("count".into(), "old".into())];
        let text = SlotPipeline::lower(&pipeline).unwrap().to_string();
        let stream = "stage 1: 3 ops\n  \
            modc      s0 <- s0 mod 7\n  \
            load[]    s2 <- state[0 + s0 wrap 8]\n  \
            store[]   state[0 + #9 wrap 8] <- s2\n\
            stage 2: 1 ops\n  \
            hash2     s1 <- s1, #3 mod 10\n\
            deparse: 1 copies\n  \
            copy      s0 <- s2\n";
        assert!(text.ends_with(stream), "{text}");
    }

    #[test]
    fn modc_equals_wrapping_rem_on_the_corner_grid_and_at_random() {
        const CORNERS: [i32; 9] = [
            i32::MIN,
            i32::MIN + 1,
            -2,
            -1,
            0,
            1,
            2,
            i32::MAX - 1,
            i32::MAX,
        ];
        let check = |x: i32, m: i32| {
            assert_eq!(ModC::new(m).rem(x), BinOp::Mod.eval(x, m), "{x} % {m}");
        };
        for x in CORNERS {
            for m in [1, 2, 3, 10, 8000, 1 << 16] {
                check(x, m);
                check(x, -m);
            }
            for m in [0, 1 << 30, i32::MAX, i32::MIN] {
                check(x, m);
            }
            CORNERS.iter().for_each(|&m| check(x, m));
        }
        // Seeded pairs of every magnitude: both sides shifted by a drawn amount.
        for seed in 0..100_000u64 {
            let (a, b) = (mix64(seed), mix64(!seed));
            check(a as i32 >> (b & 31), (b >> 32) as i32 >> (b >> 5 & 31));
        }
    }
}
