//! # domino-compiler — packet transactions to Banzai atom pipelines
//!
//! The three-phase compiler of §4 (Figure 4):
//!
//! 1. **Normalization** (§4.1): [`branch_removal`] (Figure 5),
//!    [`state_flank`] (Figure 6), [`ssa`] (Figure 7), [`tac_flatten`]
//!    (Figure 8), plus the [`cleanup`] (copy propagation / dead code)
//!    visible in the paper's figures.
//! 2. **Pipelining** (§4.2): [`depgraph`] (Figure 9) and [`schedule`]
//!    produce the PVSM codelet pipeline.
//! 3. **Code generation** (§4.3): [`codegen`] maps codelets onto a
//!    concrete [`banzai::Target`] using program synthesis
//!    ([`atom_synth`]), enforcing resource limits.
//!
//! Compilation is **all-or-nothing**: [`compile`] returns a pipeline
//! guaranteed to run at line rate on the target, or a diagnostic
//! explaining exactly which codelet or limit failed.
//!
//! ```
//! use banzai::{AtomKind, Target};
//!
//! let src = r#"
//!     struct Packet { int sport; int dport; int id; };
//!     int count = 0;
//!     void tally(struct Packet pkt) {
//!         pkt.id = hash2(pkt.sport, pkt.dport) % 1024;
//!         count = count + 1;
//!     }
//! "#;
//! let pipeline = domino_compiler::compile(src, &Target::banzai(AtomKind::Raw)).unwrap();
//! assert_eq!(pipeline.max_stateful_kind(), Some(AtomKind::Raw));
//!
//! // The same program cannot run on a Write-only machine:
//! assert!(domino_compiler::compile(src, &Target::banzai(AtomKind::Write)).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch_removal;
pub mod cleanup;
pub mod codegen;
pub mod depgraph;
pub mod fresh;
pub mod policy;
pub mod schedule;
pub mod ssa;
pub mod state_flank;
pub mod tac_flatten;

use banzai::machine::AtomPipeline;
use banzai::Target;
use domino_ast::diag::{Diagnostic, Stage};
use domino_ast::{CheckedProgram, StateVar};
use domino_ir::{PvsmPipeline, TacProgram};
use std::collections::BTreeSet;

pub use branch_removal::Assign;

/// Every intermediate artifact of a compilation, for golden tests,
/// debugging, and the `domc --emit` flags.
#[derive(Debug, Clone)]
pub struct Compilation {
    /// The checked program (post-sema AST).
    pub checked: CheckedProgram,
    /// After branch removal (Figure 5).
    pub straightline: Vec<Assign>,
    /// After state-flank rewriting (Figure 6).
    pub flanked: Vec<Assign>,
    /// After SSA conversion (Figure 7).
    pub ssa: Vec<Assign>,
    /// Normalized three-address code (Figure 8), post cleanup.
    pub tac: TacProgram,
    /// The PVSM codelet pipeline (Figure 9 + scheduling).
    pub pvsm: PvsmPipeline,
    /// Deparser view: declared field → internal field with final value.
    pub output_map: Vec<(String, String)>,
}

impl Compilation {
    /// Renders a statement list (one of the AST-level artifacts) as text.
    pub fn render_assigns(stmts: &[Assign]) -> String {
        let mut out = String::new();
        for a in stmts {
            out.push_str(&format!("{} = {};\n", a.lhs, a.rhs));
        }
        out
    }
}

/// Runs the front end and all normalization + pipelining passes
/// (everything target-independent).
pub fn normalize(source: &str) -> Result<Compilation, Diagnostic> {
    let checked = domino_ast::parse_and_check(source)?;
    normalize_checked(checked)
}

/// Like [`normalize`], starting from a checked program.
pub fn normalize_checked(checked: CheckedProgram) -> Result<Compilation, Diagnostic> {
    let mut fresh = fresh::FreshNames::new(
        checked
            .packet_fields
            .iter()
            .cloned()
            .chain(checked.state.iter().map(|s| s.name.clone())),
    );

    let straightline = branch_removal::remove_branches(&checked.body, &mut fresh);
    let (flanked, _flanks) = state_flank::rewrite_state_ops(&straightline, &checked, &mut fresh)
        .map_err(|e| Diagnostic::global(Stage::Transform, e.message))?;
    let ssa_result = ssa::to_ssa(&flanked, &mut fresh);
    let tac_stmts = tac_flatten::flatten(&ssa_result.stmts, &mut fresh)
        .map_err(|e| Diagnostic::global(Stage::Transform, e.message))?;

    // Deparser view: each declared field maps to its final SSA version
    // (identity for never-assigned input fields).
    let output_map: Vec<(String, String)> = checked
        .packet_fields
        .iter()
        .filter_map(|f| {
            ssa_result
                .final_version
                .get(f)
                .map(|v| (f.clone(), v.clone()))
        })
        .collect();
    let output_roots: BTreeSet<String> = output_map
        .iter()
        .map(|(_, internal)| internal.clone())
        .collect();

    let tac_stmts = cleanup::cleanup(tac_stmts, &output_roots);
    let tac = TacProgram {
        name: checked.name.clone(),
        declared_fields: checked.packet_fields.clone(),
        state: checked.state.clone(),
        stmts: tac_stmts,
    };
    let pvsm = schedule::schedule(&tac.stmts);

    Ok(Compilation {
        checked,
        straightline,
        flanked,
        ssa: ssa_result.stmts,
        tac,
        pvsm,
        output_map,
    })
}

/// Compiles a Domino source program for a Banzai target (all-or-nothing).
pub fn compile(source: &str, target: &Target) -> Result<AtomPipeline, Diagnostic> {
    let compilation = normalize(source)?;
    lower(&compilation, target)
}

/// Compiles a checked program for a Banzai target.
pub fn compile_checked(
    checked: CheckedProgram,
    target: &Target,
) -> Result<AtomPipeline, Diagnostic> {
    let compilation = normalize_checked(checked)?;
    lower(&compilation, target)
}

/// Decides whether a normalized program's state indexing is
/// shard-partitionable — the validation behind `banzai`'s sharded switch
/// and `domc --emit flow-key`.
///
/// Returns the extracted [`Partitionability`](domino_ir::Partitionability)
/// witness — a flow key, a replica spec for commutative sketch state
/// (`heavy_hitters.domino`'s differently-hashed count-min rows, merged
/// elementwise at collect time), or "stateless" — or the human-readable
/// reason the sharded switch will fall back to a single shard. The
/// fallback diagnostic names both rejections: why the state is not
/// exactly partitionable (a scalar (global) register as in `rcp.domino`,
/// a state-dependent index) *and* why it is not replicable either.
///
/// ```
/// let flowlet = std::fs::read_to_string(
///     concat!(env!("CARGO_MANIFEST_DIR"), "/../algorithms/src/domino/flowlet.domino"),
/// )
/// .unwrap();
/// let c = domino_compiler::normalize(&flowlet).unwrap();
/// let domino_ir::Partitionability::Keyed(spec) = domino_compiler::flow_key(&c).unwrap()
/// else {
///     panic!("flowlet keys its state");
/// };
/// assert_eq!(spec.modulus(), 8000);
/// assert_eq!(spec.roots(), ["dport".to_string(), "sport".to_string()]);
/// ```
pub fn flow_key(compilation: &Compilation) -> Result<domino_ir::Partitionability, String> {
    domino_ir::StateLayout::from_decls(&compilation.checked.state).flow_key(&compilation.tac.stmts)
}

/// Lowers an already-normalized compilation onto a target.
pub fn lower(compilation: &Compilation, target: &Target) -> Result<AtomPipeline, Diagnostic> {
    let state_decls: Vec<StateVar> = compilation.checked.state.clone();
    let pipeline = codegen::generate(
        &compilation.checked.name,
        &compilation.pvsm,
        target,
        state_decls,
        compilation.checked.packet_fields.clone(),
        compilation.output_map.clone(),
    )?;
    // The field-layout pass must accept everything this compiler emits:
    // validating here means every compiled pipeline is guaranteed
    // slot-executable, so downstream users can unwrap the fast path.
    banzai::SlotPipeline::lower(&pipeline).map_err(|e| {
        Diagnostic::global(
            Stage::CodeGen,
            format!("internal error: compiled pipeline has no slot layout: {e}"),
        )
    })?;
    Ok(pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use banzai::{AtomKind, Machine};
    use domino_ir::{run_ast, Packet, StateStore};

    const FLOWLET: &str = r#"
#define NUM_FLOWLETS 8000
#define THRESHOLD 5
#define NUM_HOPS 10
struct Packet { int sport; int dport; int new_hop; int arrival; int next_hop; int id; };
int last_time[NUM_FLOWLETS] = {0};
int saved_hop[NUM_FLOWLETS] = {0};
void flowlet(struct Packet pkt) {
  pkt.new_hop = hash3(pkt.sport, pkt.dport, pkt.arrival) % NUM_HOPS;
  pkt.id = hash2(pkt.sport, pkt.dport) % NUM_FLOWLETS;
  if (pkt.arrival - last_time[pkt.id] > THRESHOLD) {
    saved_hop[pkt.id] = pkt.new_hop;
  }
  last_time[pkt.id] = pkt.arrival;
  pkt.next_hop = saved_hop[pkt.id];
}
"#;

    #[test]
    fn flowlet_compiles_to_six_stage_praw_pipeline() {
        let target = Target::banzai(AtomKind::Praw);
        let pipeline = compile(FLOWLET, &target).unwrap();
        assert_eq!(pipeline.depth(), 6, "\n{pipeline}");
        assert_eq!(pipeline.max_atoms_per_stage(), 2, "\n{pipeline}");
        assert_eq!(pipeline.max_stateful_kind(), Some(AtomKind::Praw));
    }

    #[test]
    fn flowlet_rejected_on_raw_target() {
        let err = compile(FLOWLET, &Target::banzai(AtomKind::Raw)).unwrap_err();
        assert!(err.message.contains("cannot run at line rate"), "{err}");
    }

    #[test]
    fn compiled_flowlet_matches_reference_interpreter() {
        let target = Target::banzai(AtomKind::Pairs);
        let compilation = normalize(FLOWLET).unwrap();
        let pipeline = lower(&compilation, &target).unwrap();
        let mut machine = Machine::new(pipeline);

        // Reference: serial AST interpretation.
        let mut ref_state = StateStore::from_decls(&compilation.checked.state);

        let mk = |sport: i32, dport: i32, arrival: i32| {
            Packet::new()
                .with("sport", sport)
                .with("dport", dport)
                .with("arrival", arrival)
                .with("new_hop", 0)
                .with("next_hop", 0)
                .with("id", 0)
        };
        let trace: Vec<Packet> = (0..200).map(|i| mk(i % 7, 80 + (i % 3), i * 2)).collect();

        let expected = run_ast(&compilation.checked, &mut ref_state, &trace);
        let got = machine.run_trace(&trace);
        let fields = compilation.checked.packet_fields.clone();
        for (e, g) in expected.iter().zip(&got) {
            assert_eq!(e.project(&fields), g.project(&fields));
        }
    }

    #[test]
    fn pipelined_execution_matches_serial_for_flowlet() {
        let target = Target::banzai(AtomKind::Pairs);
        let pipeline = compile(FLOWLET, &target).unwrap();
        let trace: Vec<Packet> = (0..100)
            .map(|i| {
                Packet::new()
                    .with("sport", i % 5)
                    .with("dport", 443)
                    .with("arrival", i * 3)
                    .with("new_hop", 0)
                    .with("next_hop", 0)
                    .with("id", 0)
            })
            .collect();
        let mut m1 = Machine::new(pipeline.clone());
        let mut m2 = Machine::new(pipeline);
        assert_eq!(m1.run_trace(&trace), m2.run_trace_pipelined(&trace));
    }

    #[test]
    fn flow_key_accepts_flowlet_and_rejects_global_registers() {
        let c = normalize(FLOWLET).unwrap();
        let domino_ir::Partitionability::Keyed(spec) = flow_key(&c).unwrap() else {
            panic!("flowlet state is keyed");
        };
        assert_eq!(spec.key_field(), "id0");
        assert_eq!(spec.modulus(), 8000);
        assert_eq!(spec.roots(), ["dport".to_string(), "sport".to_string()]);

        let rcp = "struct P { int size_bytes; };\nint total = 0;\n\
                   void rcp(struct P pkt) { total = total + pkt.size_bytes; }";
        let err = flow_key(&normalize(rcp).unwrap()).unwrap_err();
        assert!(err.contains("scalar state `total`"), "{err}");
    }

    #[test]
    fn flow_key_agrees_between_tac_and_compiled_pipeline() {
        // The sharded switch re-derives the key from the pipeline's atom
        // codelets; it must match the compiler's TAC-level answer.
        let c = normalize(FLOWLET).unwrap();
        let tac_spec = match flow_key(&c).unwrap() {
            domino_ir::Partitionability::Keyed(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        let pipeline = lower(&c, &Target::banzai(AtomKind::Pairs)).unwrap();
        let stmts: Vec<domino_ir::TacStmt> = pipeline
            .stages
            .iter()
            .flatten()
            .flat_map(|a| a.codelet.stmts.iter().cloned())
            .collect();
        let part = domino_ir::StateLayout::from_decls(&pipeline.state_decls)
            .flow_key(&stmts)
            .unwrap();
        let domino_ir::Partitionability::Keyed(pipe_spec) = part else {
            panic!("pipeline state is keyed");
        };
        assert_eq!(tac_spec.key_field(), pipe_spec.key_field());
        assert_eq!(tac_spec.modulus(), pipe_spec.modulus());
        assert_eq!(tac_spec.roots(), pipe_spec.roots());
    }

    #[test]
    fn lex_parse_sema_errors_propagate() {
        let target = Target::banzai(AtomKind::Pairs);
        assert_eq!(compile("@", &target).unwrap_err().stage, Stage::Lex);
        assert_eq!(
            compile("struct P { int a; };", &target).unwrap_err().stage,
            Stage::Parse
        );
        assert_eq!(
            compile(
                "struct P { int a; };\nvoid f(struct P pkt) { pkt.b = 1; }",
                &target
            )
            .unwrap_err()
            .stage,
            Stage::Sema
        );
    }

    #[test]
    fn stateless_only_program_compiles_on_weakest_target() {
        let src = "struct P { int a; int b; int r; };\n\
                   void f(struct P pkt) { pkt.r = pkt.a + pkt.b; }";
        let pipeline = compile(src, &Target::banzai(AtomKind::Write)).unwrap();
        assert_eq!(pipeline.depth(), 1);
        assert_eq!(pipeline.max_stateful_kind(), None);
    }

    #[test]
    fn empty_transaction_compiles_to_empty_pipeline() {
        let src = "struct P { int a; };\nvoid f(struct P pkt) { }";
        let pipeline = compile(src, &Target::banzai(AtomKind::Write)).unwrap();
        assert_eq!(pipeline.depth(), 0);
        // And the machine passes packets through unchanged.
        let mut m = Machine::new(pipeline);
        let p = Packet::new().with("a", 9);
        assert_eq!(m.process(p.clone()), p);
    }

    #[test]
    fn output_map_restores_declared_fields() {
        // pkt.r is assigned twice; the machine must expose the final value
        // under the declared name.
        let src = "struct P { int a; int r; };\n\
                   void f(struct P pkt) { pkt.r = pkt.a; pkt.r = pkt.r + 1; }";
        let pipeline = compile(src, &Target::banzai(AtomKind::Write)).unwrap();
        let mut m = Machine::new(pipeline);
        let out = m.process(Packet::new().with("a", 10).with("r", 0));
        assert_eq!(out.get("r"), Some(11));
    }

    #[test]
    fn artifacts_are_all_populated() {
        let c = normalize(FLOWLET).unwrap();
        assert!(!c.straightline.is_empty());
        assert!(!c.flanked.is_empty());
        assert!(!c.ssa.is_empty());
        assert!(!c.tac.stmts.is_empty());
        assert_eq!(c.pvsm.depth(), 6);
        assert!(c.output_map.iter().any(|(d, _)| d == "next_hop"));
    }
}
