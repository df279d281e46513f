//! The Banzai machine: a pipeline of stages executing one packet per clock
//! cycle (§2.2).
//!
//! Each stage holds a vector of atoms that execute in parallel on the
//! packet resident in that stage. An atom completes its entire sequential
//! body within the cycle, which is what provides transactional semantics
//! for state (§2.3).
//!
//! Two execution modes are provided:
//!
//! * [`Machine::process`] / [`Machine::run_trace`] — run each packet
//!   through all stages before admitting the next (the *transactional
//!   reference* view);
//! * [`Machine::run_trace_pipelined`] — cycle-accurate simulation with up
//!   to `depth` packets in flight, one entering per cycle.
//!
//! Because every state variable is confined to a single atom in a single
//! stage, the two modes are observably identical — that equivalence is the
//! paper's core guarantee and is asserted by tests and property tests.

use crate::atom::StatefulConfig;
use crate::error::SwitchError;
use crate::kind::AtomKind;
use crate::switch::PipelineEngine;
use domino_ast::StateVar;
use domino_ir::interp::exec_tac_stmt;
use domino_ir::{Codelet, FieldTable, FlatPacket, Packet, StateStore};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// How an atom was realized on the target.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomRole {
    /// A stateless atom (one packet-field operation).
    Stateless,
    /// A stateful atom: the kind used and the synthesized template
    /// configuration proving the codelet fits it.
    Stateful {
        /// The atom kind this codelet was mapped onto.
        kind: AtomKind,
        /// The synthesized configuration (filled template).
        config: StatefulConfig,
    },
}

/// One atom of the compiled pipeline: the codelet it implements (its
/// sequential body, which *is* the atom's defining semantics per §2.3) plus
/// how it was realized.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAtom {
    /// The codelet (sequential TAC body).
    pub codelet: Codelet,
    /// Stateless or stateful realization.
    pub role: AtomRole,
}

impl CompiledAtom {
    /// Executes the atom's body on a packet (one clock cycle's worth of
    /// work).
    pub fn execute(&self, state: &mut StateStore, pkt: &mut Packet) {
        for stmt in &self.codelet.stmts {
            exec_tac_stmt(stmt, state, pkt);
        }
    }

    /// True if the atom modifies persistent state.
    pub fn is_stateful(&self) -> bool {
        matches!(self.role, AtomRole::Stateful { .. })
    }
}

/// A compiled atom pipeline for a Banzai machine.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomPipeline {
    /// Transaction name this pipeline implements.
    pub name: String,
    /// Name of the target it was compiled for.
    pub target_name: String,
    /// `stages[i]` = atoms executing in parallel in stage `i`.
    pub stages: Vec<Vec<CompiledAtom>>,
    /// Program state declarations (for machine initialization).
    pub state_decls: Vec<StateVar>,
    /// The observable packet fields (declared in the packet struct).
    pub declared_fields: Vec<String>,
    /// Deparser view: `(declared_field, internal_field)` pairs mapping each
    /// declared field to the SSA version holding its final value. Applied
    /// when a packet leaves the pipeline. Fields not listed pass through
    /// unchanged.
    pub output_map: Vec<(String, String)>,
}

impl AtomPipeline {
    /// An empty (zero-stage) pipeline that forwards packets untouched —
    /// handy for tests and doc examples that exercise queueing machinery
    /// without a compiler in reach.
    pub fn passthrough(name: &str) -> AtomPipeline {
        AtomPipeline {
            name: name.to_string(),
            target_name: "passthrough".to_string(),
            stages: vec![],
            state_decls: vec![],
            declared_fields: vec![],
            output_map: vec![],
        }
    }

    /// Pipeline depth (number of stages).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Maximum atoms in any stage.
    pub fn max_atoms_per_stage(&self) -> usize {
        self.stages.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Maximum *stateful* atoms in any stage.
    pub fn max_stateful_per_stage(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.iter().filter(|a| a.is_stateful()).count())
            .max()
            .unwrap_or(0)
    }

    /// Total number of atoms.
    pub fn atom_count(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }

    /// The most expressive stateful atom kind actually used, if any.
    ///
    /// Because the kinds form a containment hierarchy, this is the *least
    /// expressive target* able to run the program (Table 4's "least
    /// expressive atom" column).
    pub fn max_stateful_kind(&self) -> Option<AtomKind> {
        self.stages
            .iter()
            .flatten()
            .filter_map(|a| match &a.role {
                AtomRole::Stateful { kind, .. } => Some(*kind),
                AtomRole::Stateless => None,
            })
            .max()
    }

    /// Checks the structural invariant that makes pipelining sound: every
    /// state variable is confined to exactly one atom (in one stage).
    ///
    /// Returns the offending variable name on violation.
    pub fn validate_state_confinement(&self) -> Result<(), String> {
        let mut owner: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for (si, stage) in self.stages.iter().enumerate() {
            for (ai, atom) in stage.iter().enumerate() {
                for var in atom.codelet.state_vars() {
                    if let Some((psi, pai)) = owner.insert(var, (si, ai)) {
                        if (psi, pai) != (si, ai) {
                            return Err(format!(
                                "state variable `{var}` appears in stage {} atom {} \
                                 and stage {} atom {}",
                                psi + 1,
                                pai + 1,
                                si + 1,
                                ai + 1
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for AtomPipeline {
    /// Renders the pipeline in the style of Figure 3b: stages top to
    /// bottom, stateful atoms marked.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline `{}` on {} — {} stages, max {} atoms/stage",
            self.name,
            self.target_name,
            self.depth(),
            self.max_atoms_per_stage()
        )?;
        for (i, stage) in self.stages.iter().enumerate() {
            writeln!(f, "Stage {}", i + 1)?;
            for atom in stage {
                let marker = match &atom.role {
                    AtomRole::Stateful { kind, .. } => format!("[stateful: {}]", kind.paper_name()),
                    AtomRole::Stateless => "[stateless]".to_string(),
                };
                for (j, stmt) in atom.codelet.stmts.iter().enumerate() {
                    if j == 0 {
                        writeln!(f, "  {marker} {stmt}")?;
                    } else {
                        writeln!(f, "  {: <width$} {stmt}", "", width = marker.len())?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// A Banzai machine instance: a compiled pipeline plus live state.
#[derive(Debug, Clone)]
pub struct Machine {
    pipeline: AtomPipeline,
    state: StateStore,
}

impl Machine {
    /// Instantiates a machine with freshly initialized state.
    pub fn new(pipeline: AtomPipeline) -> Machine {
        let state = StateStore::from_decls(&pipeline.state_decls);
        Machine { pipeline, state }
    }

    /// The live state store (e.g. for inspecting counters after a run).
    pub fn state(&self) -> &StateStore {
        &self.state
    }

    /// Overwrites state variables from a snapshot (the export/import hook
    /// the sharded switch uses to warm-start a partition; every snapshot
    /// variable must exist with the same shape).
    pub fn import_state(&mut self, snapshot: &StateStore) {
        self.state.import(snapshot);
    }

    /// The pipeline this machine runs.
    pub fn pipeline(&self) -> &AtomPipeline {
        &self.pipeline
    }

    /// The reference machine on a switch table: it executes by field
    /// name, so the table needs the pipeline's names only — no lowering,
    /// nothing that can fail.
    pub(crate) fn on_table(pipeline: AtomPipeline, table: &mut FieldTable) -> Machine {
        for f in &pipeline.declared_fields {
            table.intern(f);
        }
        for stmt in pipeline
            .stages
            .iter()
            .flatten()
            .flat_map(|a| &a.codelet.stmts)
        {
            for f in stmt.field_written().into_iter().chain(stmt.fields_read()) {
                table.intern(f);
            }
        }
        for (declared, internal) in &pipeline.output_map {
            table.intern(declared);
            table.intern(internal);
        }
        Machine::new(pipeline)
    }

    /// Runs one packet through every stage (transactional view).
    pub fn process(&mut self, mut pkt: Packet) -> Packet {
        for stage in &self.pipeline.stages {
            for atom in stage {
                atom.execute(&mut self.state, &mut pkt);
            }
        }
        Self::deparse(&self.pipeline.output_map, &mut pkt);
        pkt
    }

    /// Applies the deparser view: copy each declared field's final SSA
    /// version back into the declared name.
    fn deparse(output_map: &[(String, String)], pkt: &mut Packet) {
        for (declared, internal) in output_map {
            if declared != internal {
                let v = pkt.get_or_zero(internal);
                pkt.set(declared, v);
            }
        }
    }

    /// Runs a trace, one packet at a time.
    pub fn run_trace(&mut self, trace: &[Packet]) -> Vec<Packet> {
        trace.iter().map(|p| self.process(p.clone())).collect()
    }

    /// Cycle-accurate simulation: one packet enters per cycle, up to
    /// `depth` packets are in flight, each stage processes its resident
    /// packet every cycle.
    ///
    /// Output order equals input order (the pipeline is in-order). The
    /// result is bit-identical to [`Machine::run_trace`] because state is
    /// confined to single atoms — this equivalence is the packet-transaction
    /// guarantee, and tests assert it.
    pub fn run_trace_pipelined(&mut self, trace: &[Packet]) -> Vec<Packet> {
        let pipeline = &self.pipeline;
        pipelined(
            pipeline.depth(),
            trace,
            &mut self.state,
            |state, s, pkt| {
                for atom in &pipeline.stages[s] {
                    atom.execute(state, pkt);
                }
            },
            |_, pkt| Self::deparse(&pipeline.output_map, pkt),
        )
    }
}

/// The one cycle-accurate clock, shared by [`Machine::run_trace_pipelined`]
/// and the slot engine's `run_trace_pipelined_flat`: each cycle every
/// resident packet runs its stage's `step` and moves on one stage (last
/// stage first, so nothing moves twice), the packet leaving the last stage
/// is `finish`ed (deparsed) and emitted, and one packet of `trace` is
/// admitted; the clock stops when the trace is spent and the pipeline
/// has drained. A zero-stage pipeline passes packets through untouched.
pub(crate) fn pipelined<P: Clone, S>(
    depth: usize,
    trace: &[P],
    state: &mut S,
    step: impl Fn(&mut S, usize, &mut P),
    finish: impl Fn(&mut S, &mut P),
) -> Vec<P> {
    if depth == 0 {
        return trace.to_vec();
    }
    let mut slots: Vec<Option<P>> = vec![None; depth];
    let mut out = Vec::with_capacity(trace.len());
    let mut input = trace.iter();
    loop {
        for s in (0..depth).rev() {
            if let Some(mut pkt) = slots[s].take() {
                step(state, s, &mut pkt);
                if s + 1 == depth {
                    finish(state, &mut pkt);
                    out.push(pkt);
                } else {
                    slots[s + 1] = Some(pkt);
                }
            }
        }
        slots[0] = input.next().cloned();
        if slots.iter().all(Option::is_none) {
            return out;
        }
    }
}

/// The flat ↔ map shim that lets the map-based oracle sit in the flat
/// interior: the only place a map [`Packet`] exists between a switch's
/// admission and emission edges.
impl PipelineEngine for Machine {
    fn build(pipeline: &AtomPipeline, table: &mut FieldTable) -> Result<Machine, SwitchError> {
        Ok(Machine::on_table(pipeline.clone(), table))
    }

    fn bind(&mut self, _table: &Arc<FieldTable>) {}

    fn process(&mut self, pkt: &mut FlatPacket) {
        let out = Machine::process(self, pkt.to_packet());
        let table = Arc::clone(pkt.table());
        // `out` carries the slab's own fields (table names) plus what the
        // pipeline wrote, which `on_table` interned while the table was
        // open. A table only ever grows until it is closed behind its
        // `Arc` — in `Switch::build_with`/`Switch::slot_of`, or once per
        // sharded switch in `ShardedSwitch::new_with` — and `pkt` lies on
        // that closed table, so the lookup cannot miss.
        for (name, value) in out.iter() {
            let slot = table
                .lookup(name)
                .expect("on_table interned every field the pipeline can write");
            pkt.set(slot, value);
        }
    }

    fn export_state(&self) -> StateStore {
        self.state().clone()
    }

    fn import_state(&mut self, snapshot: &StateStore) {
        Machine::import_state(self, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Tree, Update};
    use domino_ast::{BinOp, StateKind};
    use domino_ir::{Operand, StateRef, TacRhs, TacStmt};

    /// Builds a 2-stage pipeline:
    ///   stage 1: stateful counter codelet (read+increment+write) exposing
    ///            the new count in pkt.count
    ///   stage 2: stateless compare pkt.flag = pkt.count > 2
    fn counter_pipeline() -> AtomPipeline {
        let counter_codelet = Codelet::new(vec![
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
        let config = StatefulConfig {
            state_refs: vec![StateRef::Scalar("c".into())],
            trees: vec![Tree::Leaf(Update::Add(Operand::Const(1)))],
            outputs: vec![("old".into(), 0)],
        };
        let compare = Codelet::new(vec![TacStmt::Assign {
            dst: "flag".into(),
            rhs: TacRhs::Binary(BinOp::Gt, Operand::Field("count".into()), Operand::Const(2)),
        }]);
        AtomPipeline {
            name: "count".into(),
            target_name: "banzai-raw".into(),
            stages: vec![
                vec![CompiledAtom {
                    codelet: counter_codelet,
                    role: AtomRole::Stateful {
                        kind: AtomKind::Raw,
                        config,
                    },
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
    fn pipeline_stats() {
        let p = counter_pipeline();
        assert_eq!(p.depth(), 2);
        assert_eq!(p.max_atoms_per_stage(), 1);
        assert_eq!(p.max_stateful_per_stage(), 1);
        assert_eq!(p.atom_count(), 2);
        assert_eq!(p.max_stateful_kind(), Some(AtomKind::Raw));
        p.validate_state_confinement().unwrap();
    }

    #[test]
    fn process_counts_packets() {
        let mut m = Machine::new(counter_pipeline());
        let outs = m.run_trace(&vec![Packet::new(); 4]);
        assert_eq!(outs[0].get("count"), Some(1));
        assert_eq!(outs[3].get("count"), Some(4));
        assert_eq!(outs[0].get("flag"), Some(0));
        assert_eq!(outs[2].get("flag"), Some(1)); // count 3 > 2
        assert_eq!(m.state().read_scalar("c"), 4);
    }

    #[test]
    fn pipelined_equals_serial() {
        let trace: Vec<Packet> = (0..50).map(|i| Packet::new().with("seq", i)).collect();
        let mut m1 = Machine::new(counter_pipeline());
        let serial = m1.run_trace(&trace);
        let mut m2 = Machine::new(counter_pipeline());
        let pipelined = m2.run_trace_pipelined(&trace);
        assert_eq!(serial, pipelined);
        assert_eq!(m1.state().read_scalar("c"), m2.state().read_scalar("c"));
    }

    #[test]
    fn pipelined_preserves_order_and_length() {
        let trace: Vec<Packet> = (0..17).map(|i| Packet::new().with("seq", i)).collect();
        let mut m = Machine::new(counter_pipeline());
        let outs = m.run_trace_pipelined(&trace);
        assert_eq!(outs.len(), 17);
        for (i, p) in outs.iter().enumerate() {
            assert_eq!(p.get("seq"), Some(i as i32));
        }
    }

    #[test]
    fn empty_trace_yields_empty_output() {
        let mut m = Machine::new(counter_pipeline());
        assert!(m.run_trace_pipelined(&[]).is_empty());
        assert!(m.run_trace(&[]).is_empty());
    }

    #[test]
    fn state_confinement_violation_detected() {
        let mut p = counter_pipeline();
        // Duplicate the stateful atom into stage 2: `c` now lives twice.
        let dup = p.stages[0][0].clone();
        p.stages[1].push(dup);
        let err = p.validate_state_confinement().unwrap_err();
        assert!(err.contains("`c`"), "{err}");
    }

    #[test]
    fn display_marks_stateful_atoms() {
        let text = counter_pipeline().to_string();
        assert!(text.contains("Stage 1"), "{text}");
        assert!(text.contains("[stateful: ReadAddWrite (RAW)]"), "{text}");
        assert!(text.contains("[stateless]"), "{text}");
    }

    #[test]
    fn machine_state_resets_per_instance() {
        let mut m1 = Machine::new(counter_pipeline());
        m1.run_trace(&vec![Packet::new(); 3]);
        let m2 = Machine::new(counter_pipeline());
        assert_eq!(m2.state().read_scalar("c"), 0);
    }
}
