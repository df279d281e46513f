//! Codelets and the Pipelined Virtual Switch Machine (PVSM).
//!
//! After pipelining (§4.2), a transaction becomes a **codelet pipeline**: a
//! sequence of stages, each holding codelets that execute in parallel. A
//! codelet is a sequential block of TAC statements that must execute
//! atomically — one strongly connected component of the dependency graph.
//! PVSM places no computational or resource constraints (like LLVM's
//! unlimited virtual registers); those are applied during code generation.

use crate::tac::TacStmt;
use std::collections::BTreeSet;
use std::fmt;

/// A sequential block of TAC statements that must execute atomically within
/// one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Codelet {
    /// Statements in dependency (topological) order.
    pub stmts: Vec<TacStmt>,
}

impl Codelet {
    /// Creates a codelet from ordered statements.
    pub fn new(stmts: Vec<TacStmt>) -> Self {
        Codelet { stmts }
    }

    /// True if the codelet touches no state (pure packet-field compute).
    pub fn is_stateless(&self) -> bool {
        self.state_vars().is_empty()
    }

    /// Names of the state variables this codelet reads or writes.
    pub fn state_vars(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for s in &self.stmts {
            if let Some(n) = s.state_read() {
                out.insert(n);
            }
            if let Some(n) = s.state_written() {
                out.insert(n);
            }
        }
        out
    }

    /// Packet fields read by the codelet from *outside* (i.e. not produced
    /// by an earlier statement of the same codelet).
    pub fn external_reads(&self) -> BTreeSet<&str> {
        let mut produced: BTreeSet<&str> = BTreeSet::new();
        let mut out = BTreeSet::new();
        for s in &self.stmts {
            for r in s.fields_read() {
                if !produced.contains(r) {
                    out.insert(r);
                }
            }
            if let Some(w) = s.field_written() {
                produced.insert(w);
            }
        }
        out
    }
}

impl fmt::Display for Codelet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.stmts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// The PVSM intermediate representation: stages of codelets, unconstrained
/// by width, depth, or atom capability.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PvsmPipeline {
    /// `stages[i]` holds the codelets running in parallel in stage `i`.
    pub stages: Vec<Vec<Codelet>>,
}

impl PvsmPipeline {
    /// Number of stages (pipeline depth).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Maximum number of codelets in any stage (pipeline width actually
    /// used).
    pub fn max_width(&self) -> usize {
        self.stages.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Maximum number of *stateful* codelets in any stage.
    pub fn max_stateful_width(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.iter().filter(|c| !c.is_stateless()).count())
            .max()
            .unwrap_or(0)
    }

    /// Total number of codelets.
    pub fn codelet_count(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }

    /// Iterates all codelets with their stage index.
    pub fn iter_codelets(&self) -> impl Iterator<Item = (usize, &Codelet)> {
        self.stages
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |c| (i, c)))
    }
}

impl fmt::Display for PvsmPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, stage) in self.stages.iter().enumerate() {
            writeln!(f, "=== Stage {} ===", i + 1)?;
            for (j, c) in stage.iter().enumerate() {
                let tag = if c.is_stateless() {
                    "stateless"
                } else {
                    "stateful"
                };
                writeln!(f, "--- codelet {}.{} ({tag}) ---", i + 1, j + 1)?;
                writeln!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tac::{Operand, StateRef, TacRhs};
    use domino_ast::BinOp;

    fn read(dst: &str, var: &str) -> TacStmt {
        TacStmt::ReadState {
            dst: dst.into(),
            state: StateRef::Scalar(var.into()),
        }
    }
    fn write(var: &str, src: &str) -> TacStmt {
        TacStmt::WriteState {
            state: StateRef::Scalar(var.into()),
            src: Operand::Field(src.into()),
        }
    }
    fn add(dst: &str, a: &str, b: i32) -> TacStmt {
        TacStmt::Assign {
            dst: dst.into(),
            rhs: TacRhs::Binary(BinOp::Add, Operand::Field(a.into()), Operand::Const(b)),
        }
    }

    #[test]
    fn statefulness_detected() {
        let stateless = Codelet::new(vec![add("t", "a", 1)]);
        assert!(stateless.is_stateless());
        let stateful = Codelet::new(vec![read("t", "c"), add("t2", "t", 1), write("c", "t2")]);
        assert!(!stateful.is_stateless());
        assert_eq!(
            stateful.state_vars().into_iter().collect::<Vec<_>>(),
            vec!["c"]
        );
    }

    #[test]
    fn external_reads_exclude_internal_products() {
        let c = Codelet::new(vec![read("t", "c"), add("t2", "t", 1), write("c", "t2")]);
        // `t` and `t2` are produced internally; no external packet reads.
        assert!(c.external_reads().is_empty());
        let c2 = Codelet::new(vec![add("x", "incoming", 3)]);
        assert_eq!(
            c2.external_reads().into_iter().collect::<Vec<_>>(),
            vec!["incoming"]
        );
    }

    #[test]
    fn pipeline_stats() {
        let p = PvsmPipeline {
            stages: vec![
                vec![
                    Codelet::new(vec![add("a", "x", 1)]),
                    Codelet::new(vec![add("b", "x", 2)]),
                ],
                vec![Codelet::new(vec![read("t", "s"), write("s", "a")])],
            ],
        };
        assert_eq!(p.depth(), 2);
        assert_eq!(p.max_width(), 2);
        assert_eq!(p.max_stateful_width(), 1);
        assert_eq!(p.codelet_count(), 3);
    }

    #[test]
    fn display_labels_stages() {
        let p = PvsmPipeline {
            stages: vec![vec![Codelet::new(vec![add("a", "x", 1)])]],
        };
        let text = p.to_string();
        assert!(text.contains("=== Stage 1 ==="), "{text}");
        assert!(text.contains("stateless"), "{text}");
    }
}
