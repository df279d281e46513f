//! Compiler targets: concrete Banzai machines (§5.2).
//!
//! A target fixes (a) the stateful atom kind available in every stage, (b)
//! the single stateless atom's operation set, (c) resource limits (pipeline
//! depth, atoms per stage), and (d) which intrinsics have hardware
//! accelerators. The paper's seven targets each pair one stateful atom of
//! Table 3 with the stateless atom, 32 stages, ~300 stateless and ~10
//! stateful atoms per stage.

use crate::kind::AtomKind;
use domino_ast::BinOp;
use domino_ir::TacRhs;
use std::collections::BTreeSet;
use std::fmt;

/// A concrete Banzai machine the compiler can target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    /// Human-readable target name (e.g. `banzai-praw`).
    pub name: String,
    /// The stateful atom kind available in every stage.
    pub stateful_kind: AtomKind,
    /// Number of pipeline stages (the paper assumes 32, like RMT).
    pub pipeline_depth: usize,
    /// Stateless atoms per stage (~300 in the paper's area budget).
    pub stateless_per_stage: usize,
    /// Stateful atoms per stage (~10: memory-bank limited, §5.2).
    pub stateful_per_stage: usize,
    /// Intrinsics with hardware accelerators (hash units).
    pub intrinsics: BTreeSet<String>,
    /// Functions provided by the optional look-up-table unit (§5.3 future
    /// work: "a look-up table abstraction that allows us to approximate
    /// such mathematical functions"). Empty on baseline targets.
    pub lut_functions: BTreeSet<String>,
}

impl Target {
    /// The paper's standard target for a given stateful atom kind: 32
    /// stages, 300 stateless + 10 stateful atoms per stage, hash
    /// accelerators, no LUT.
    pub fn banzai(kind: AtomKind) -> Target {
        Target {
            name: format!("banzai-{}", kind.short_name()),
            stateful_kind: kind,
            pipeline_depth: 32,
            stateless_per_stage: 300,
            stateful_per_stage: 10,
            intrinsics: ["hash2", "hash3"].iter().map(|s| s.to_string()).collect(),
            lut_functions: BTreeSet::new(),
        }
    }

    /// The X1 extension target: like [`Target::banzai`] but with a
    /// look-up-table unit approximating `isqrt`, which lets CoDel map
    /// (§5.3).
    pub fn banzai_with_lut(kind: AtomKind) -> Target {
        let mut t = Target::banzai(kind);
        t.name = format!("banzai-{}-lut", kind.short_name());
        t.lut_functions.insert("isqrt".to_string());
        t.lut_functions.insert("codel_gap".to_string());
        t
    }

    /// True if the named intrinsic has an accelerator (hash unit or LUT) on
    /// this target.
    pub fn has_intrinsic(&self, name: &str) -> bool {
        self.intrinsics.contains(name) || self.lut_functions.contains(name)
    }

    /// Checks that a stateless right-hand side is within the stateless
    /// atom's operation set (§5.2: "simple arithmetic (add, subtract, left
    /// shift, right shift), logical (and, or, xor), relational, or
    /// conditional operations"; any operand may be a constant).
    ///
    /// Returns a human-readable reason when the operation is *not*
    /// supported — multiplication, division, and modulo have no single-cycle
    /// combinational implementation at line rate, so the all-or-nothing
    /// compiler rejects them.
    pub fn check_stateless_rhs(&self, rhs: &TacRhs) -> Result<(), String> {
        match rhs {
            TacRhs::Copy(_) | TacRhs::Ternary(..) => Ok(()),
            // Unary ops map to the binary units: -x = 0 - x, !x = (x == 0),
            // ~x = x ^ -1.
            TacRhs::Unary(..) => Ok(()),
            TacRhs::Binary(op, _, _) => match op {
                BinOp::Mul | BinOp::Div | BinOp::Mod => Err(format!(
                    "`{}` is not a line-rate operation: the stateless atom \
                     supports add/sub/shift/and/or/xor/relational/conditional \
                     only (use shifts for powers of two, or fold `%` into a \
                     hash intrinsic)",
                    op.symbol()
                )),
                _ => Ok(()),
            },
            TacRhs::Intrinsic { name, .. } => {
                if self.has_intrinsic(name) {
                    Ok(())
                } else {
                    Err(format!(
                        "target `{}` has no hardware unit for intrinsic `{name}`",
                        self.name
                    ))
                }
            }
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (stateful atom: {}, {} stages, {}+{} atoms/stage)",
            self.name,
            self.stateful_kind,
            self.pipeline_depth,
            self.stateless_per_stage,
            self.stateful_per_stage
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_ir::Operand;

    fn fld(n: &str) -> Operand {
        Operand::Field(n.into())
    }

    #[test]
    fn standard_targets_cover_all_kinds() {
        let ts: Vec<Target> = AtomKind::ALL.iter().map(|k| Target::banzai(*k)).collect();
        assert_eq!(ts.len(), 7);
        assert_eq!(ts[0].stateful_kind, AtomKind::Write);
        assert_eq!(ts[6].stateful_kind, AtomKind::Pairs);
        assert!(ts.iter().all(|t| t.pipeline_depth == 32));
    }

    #[test]
    fn stateless_atom_accepts_paper_ops() {
        let t = Target::banzai(AtomKind::Write);
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::BitAnd,
            BinOp::BitOr,
            BinOp::BitXor,
            BinOp::Ge,
            BinOp::Le,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Gt,
            BinOp::And,
            BinOp::Or,
        ] {
            assert!(
                t.check_stateless_rhs(&TacRhs::Binary(op, fld("a"), fld("b")))
                    .is_ok(),
                "{op:?}"
            );
        }
        assert!(t
            .check_stateless_rhs(&TacRhs::Ternary(fld("c"), fld("a"), fld("b")))
            .is_ok());
        assert!(t.check_stateless_rhs(&TacRhs::Copy(fld("a"))).is_ok());
    }

    #[test]
    fn stateless_atom_rejects_mul_div_mod() {
        let t = Target::banzai(AtomKind::Pairs);
        for op in [BinOp::Mul, BinOp::Div, BinOp::Mod] {
            let err = t
                .check_stateless_rhs(&TacRhs::Binary(op, fld("a"), fld("b")))
                .unwrap_err();
            assert!(err.contains("not a line-rate operation"), "{err}");
        }
    }

    #[test]
    fn hash_intrinsics_available_isqrt_not() {
        let t = Target::banzai(AtomKind::Pairs);
        assert!(t
            .check_stateless_rhs(&TacRhs::Intrinsic {
                name: "hash2".into(),
                args: vec![fld("a"), fld("b")],
                modulo: Some(64),
            })
            .is_ok());
        let err = t
            .check_stateless_rhs(&TacRhs::Intrinsic {
                name: "isqrt".into(),
                args: vec![fld("a")],
                modulo: None,
            })
            .unwrap_err();
        assert!(err.contains("no hardware unit"), "{err}");
    }

    #[test]
    fn lut_target_provides_isqrt() {
        let t = Target::banzai_with_lut(AtomKind::Pairs);
        assert!(t
            .check_stateless_rhs(&TacRhs::Intrinsic {
                name: "isqrt".into(),
                args: vec![fld("a")],
                modulo: None,
            })
            .is_ok());
        assert_eq!(t.name, "banzai-pairs-lut");
    }

    #[test]
    fn display_summarizes() {
        let t = Target::banzai(AtomKind::Praw);
        let text = t.to_string();
        assert!(text.contains("banzai-praw"), "{text}");
        assert!(text.contains("32 stages"), "{text}");
    }
}
