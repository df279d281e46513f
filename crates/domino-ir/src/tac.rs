//! Three-address code (TAC) — the normalized form of a packet transaction.
//!
//! After the normalization passes (§4.1) every statement is one of:
//!
//! * a **state read flank** `pkt.f = state;`,
//! * a **state write flank** `state = pkt.f;`,
//! * a packet-field operation `pkt.f1 = pkt.f2 op pkt.f3;` (or a unary /
//!   conditional / intrinsic form).
//!
//! All arithmetic happens on packet fields; state is only read and written
//! whole (this is what makes pipelining tractable, §4.1 "Rewriting state
//! variable operations"). The paper allows an operand of a TAC statement to
//! be an intrinsic call; we instead keep intrinsic calls as a standalone
//! right-hand side with an optional folded `% CONST` (the hash unit delivers
//! a bounded value), which is equivalent and simpler to map onto atoms.

use domino_ast::{BinOp, StateVar, UnOp};
use std::collections::BTreeSet;
use std::fmt;

/// An operand of a TAC statement: a packet field or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A packet field (header or metadata/temporary).
    Field(String),
    /// An immediate constant.
    Const(i32),
}

impl Operand {
    /// The field name, if this is a field operand.
    pub fn field(&self) -> Option<&str> {
        match self {
            Operand::Field(f) => Some(f),
            Operand::Const(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Field(n) => write!(f, "pkt.{n}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A reference to a state variable: a scalar, or an array element whose
/// index is a packet field or constant (the index expression has been moved
/// into the read flank by normalization).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // struct-variant fields are documented on the variant
pub enum StateRef {
    /// `x`
    Scalar(String),
    /// `arr[idx]`
    Array { name: String, index: Operand },
}

impl StateRef {
    /// The state variable's name (ignoring the index).
    pub fn name(&self) -> &str {
        match self {
            StateRef::Scalar(n) => n,
            StateRef::Array { name, .. } => name,
        }
    }
}

impl fmt::Display for StateRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateRef::Scalar(n) => write!(f, "{n}"),
            StateRef::Array { name, index } => write!(f, "{name}[{index}]"),
        }
    }
}

/// The right-hand side of a packet-field assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // struct-variant fields are documented on the variant
pub enum TacRhs {
    /// `o`
    Copy(Operand),
    /// `op o`
    Unary(UnOp, Operand),
    /// `a op b`
    Binary(BinOp, Operand, Operand),
    /// `cond ? a : b` — the conditional operator has 4 arguments in total
    /// (§4.1 footnote 5).
    Ternary(Operand, Operand, Operand),
    /// `name(args...) % modulo` — intrinsic call with optional folded
    /// modulo.
    Intrinsic {
        name: String,
        args: Vec<Operand>,
        modulo: Option<i32>,
    },
}

impl TacRhs {
    /// All operands read by this right-hand side.
    pub fn operands(&self) -> Vec<&Operand> {
        match self {
            TacRhs::Copy(o) | TacRhs::Unary(_, o) => vec![o],
            TacRhs::Binary(_, a, b) => vec![a, b],
            TacRhs::Ternary(c, a, b) => vec![c, a, b],
            TacRhs::Intrinsic { args, .. } => args.iter().collect(),
        }
    }
}

impl fmt::Display for TacRhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TacRhs::Copy(o) => write!(f, "{o}"),
            TacRhs::Unary(op, o) => write!(f, "{}{o}", op.symbol()),
            TacRhs::Binary(op, a, b) => write!(f, "{a} {} {b}", op.symbol()),
            TacRhs::Ternary(c, a, b) => write!(f, "{c} ? {a} : {b}"),
            TacRhs::Intrinsic { name, args, modulo } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")?;
                if let Some(m) = modulo {
                    write!(f, " % {m}")?;
                }
                Ok(())
            }
        }
    }
}

/// One three-address code statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // struct-variant fields are documented on the variant
pub enum TacStmt {
    /// Read flank: `pkt.dst = state;`
    ReadState { dst: String, state: StateRef },
    /// Write flank: `state = src;`
    WriteState { state: StateRef, src: Operand },
    /// Packet-field computation: `pkt.dst = rhs;`
    Assign { dst: String, rhs: TacRhs },
}

impl TacStmt {
    /// Packet fields read by this statement (including array index fields).
    pub fn fields_read(&self) -> BTreeSet<&str> {
        fn add_op<'a>(o: &'a Operand, out: &mut BTreeSet<&'a str>) {
            if let Operand::Field(name) = o {
                out.insert(name.as_str());
            }
        }
        let mut out = BTreeSet::new();
        match self {
            TacStmt::ReadState { state, .. } => {
                if let StateRef::Array { index, .. } = state {
                    add_op(index, &mut out);
                }
            }
            TacStmt::WriteState { state, src } => {
                if let StateRef::Array { index, .. } = state {
                    add_op(index, &mut out);
                }
                add_op(src, &mut out);
            }
            TacStmt::Assign { rhs, .. } => {
                for o in rhs.operands() {
                    add_op(o, &mut out);
                }
            }
        }
        out
    }

    /// The packet field written by this statement, if any.
    pub fn field_written(&self) -> Option<&str> {
        match self {
            TacStmt::ReadState { dst, .. } | TacStmt::Assign { dst, .. } => Some(dst),
            TacStmt::WriteState { .. } => None,
        }
    }

    /// The state variable read by this statement, if any.
    pub fn state_read(&self) -> Option<&str> {
        match self {
            TacStmt::ReadState { state, .. } => Some(state.name()),
            _ => None,
        }
    }

    /// The state variable written by this statement, if any.
    pub fn state_written(&self) -> Option<&str> {
        match self {
            TacStmt::WriteState { state, .. } => Some(state.name()),
            _ => None,
        }
    }
}

impl fmt::Display for TacStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TacStmt::ReadState { dst, state } => write!(f, "pkt.{dst} = {state};"),
            TacStmt::WriteState { state, src } => write!(f, "{state} = {src};"),
            TacStmt::Assign { dst, rhs } => write!(f, "pkt.{dst} = {rhs};"),
        }
    }
}

/// A normalized packet transaction: declarations plus straight-line TAC.
#[derive(Debug, Clone, PartialEq)]
pub struct TacProgram {
    /// Transaction name.
    pub name: String,
    /// Fields declared in the packet struct (the *observable* fields —
    /// compiler temporaries are not included).
    pub declared_fields: Vec<String>,
    /// State variable declarations.
    pub state: Vec<StateVar>,
    /// The straight-line statement list.
    pub stmts: Vec<TacStmt>,
}

impl fmt::Display for TacProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.stmts {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fld(n: &str) -> Operand {
        Operand::Field(n.into())
    }

    #[test]
    fn display_matches_paper_style() {
        let s = TacStmt::Assign {
            dst: "tmp".into(),
            rhs: TacRhs::Binary(BinOp::Sub, fld("arrival"), fld("last_time")),
        };
        assert_eq!(s.to_string(), "pkt.tmp = pkt.arrival - pkt.last_time;");

        let r = TacStmt::ReadState {
            dst: "saved_hop".into(),
            state: StateRef::Array {
                name: "saved_hop".into(),
                index: fld("id"),
            },
        };
        assert_eq!(r.to_string(), "pkt.saved_hop = saved_hop[pkt.id];");

        let w = TacStmt::WriteState {
            state: StateRef::Scalar("counter".into()),
            src: Operand::Const(0),
        };
        assert_eq!(w.to_string(), "counter = 0;");

        let i = TacStmt::Assign {
            dst: "id".into(),
            rhs: TacRhs::Intrinsic {
                name: "hash2".into(),
                args: vec![fld("sport"), fld("dport")],
                modulo: Some(8000),
            },
        };
        assert_eq!(
            i.to_string(),
            "pkt.id = hash2(pkt.sport, pkt.dport) % 8000;"
        );
    }

    #[test]
    fn fields_read_collects_index_and_operands() {
        let w = TacStmt::WriteState {
            state: StateRef::Array {
                name: "a".into(),
                index: fld("id"),
            },
            src: fld("val"),
        };
        let read: Vec<&str> = w.fields_read().into_iter().collect();
        assert_eq!(read, vec!["id", "val"]);
    }

    #[test]
    fn ternary_reads_three_operands() {
        let s = TacStmt::Assign {
            dst: "next".into(),
            rhs: TacRhs::Ternary(fld("c"), fld("a"), Operand::Const(4)),
        };
        let read: Vec<&str> = s.fields_read().into_iter().collect();
        assert_eq!(read, vec!["a", "c"]);
        assert_eq!(s.field_written(), Some("next"));
    }

    #[test]
    fn state_accessors() {
        let r = TacStmt::ReadState {
            dst: "x".into(),
            state: StateRef::Scalar("counter".into()),
        };
        assert_eq!(r.state_read(), Some("counter"));
        assert_eq!(r.state_written(), None);
        let w = TacStmt::WriteState {
            state: StateRef::Scalar("counter".into()),
            src: fld("x"),
        };
        assert_eq!(w.state_written(), Some("counter"));
        assert_eq!(w.state_read(), None);
    }
}
