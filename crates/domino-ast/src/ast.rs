//! Abstract syntax tree for Domino programs.
//!
//! The same tree type is used before and after semantic analysis; sema
//! ([`crate::sema`]) establishes the invariants documented on each node
//! (e.g. after sema, [`Expr::Ident`] only ever names a state scalar, and all
//! `#define` constants have been folded into [`Expr::Int`]).

use crate::span::Span;
use std::fmt;

/// Binary operators, in C semantics over 32-bit wrapping integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are their C spellings
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    /// Logical `&&` (operands normalized to 0/1).
    And,
    /// Logical `||`.
    Or,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
}

impl BinOp {
    /// True for `< > <= >= == !=`.
    pub fn is_relational(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// C spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
        }
    }

    /// Evaluates the operator with C-on-32-bit-wrapping semantics.
    ///
    /// Division/modulo by zero are defined to yield 0 (the simulator must be
    /// total); shifts use only the low 5 bits of the shift amount, matching
    /// common hardware behaviour.
    #[inline]
    pub fn eval(self, a: i32, b: i32) -> i32 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::Shl => a.wrapping_shl(b as u32 & 31),
            BinOp::Shr => a.wrapping_shr(b as u32 & 31),
            BinOp::BitAnd => a & b,
            BinOp::BitOr => a | b,
            BinOp::BitXor => a ^ b,
            BinOp::And => ((a != 0) && (b != 0)) as i32,
            BinOp::Or => ((a != 0) || (b != 0)) as i32,
            BinOp::Lt => (a < b) as i32,
            BinOp::Gt => (a > b) as i32,
            BinOp::Le => (a <= b) as i32,
            BinOp::Ge => (a >= b) as i32,
            BinOp::Eq => (a == b) as i32,
            BinOp::Ne => (a != b) as i32,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical not `!` (yields 0/1).
    Not,
    /// Bitwise not `~`.
    BitNot,
}

impl UnOp {
    /// C spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        }
    }

    /// Evaluates with wrapping semantics.
    #[inline]
    pub fn eval(self, a: i32) -> i32 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => (a == 0) as i32,
            UnOp::BitNot => !a,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal (or folded `#define` constant after sema).
    Int(i32, Span),
    /// Bare identifier. After sema this is guaranteed to name a **state
    /// scalar**; `#define` names have been folded to [`Expr::Int`].
    Ident(String, Span),
    /// `pkt.field` — a packet field access (`base.field`).
    Field(String, String, Span),
    /// `arr[idx]` — a state array element access.
    Index(String, Box<Expr>, Span),
    /// `op e`.
    Unary(UnOp, Box<Expr>, Span),
    /// `a op b`.
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// `cond ? then : else`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>, Span),
    /// Intrinsic call, e.g. `hash2(pkt.sport, pkt.dport)`.
    Call(String, Vec<Expr>, Span),
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Ident(_, s)
            | Expr::Field(_, _, s)
            | Expr::Index(_, _, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Ternary(_, _, _, s)
            | Expr::Call(_, _, s) => *s,
        }
    }

    /// Structural equality, ignoring spans. Used e.g. for the Table 1 check
    /// that all accesses to an array use the same index expression.
    pub fn structurally_equal(&self, other: &Expr) -> bool {
        match (self, other) {
            (Expr::Int(a, _), Expr::Int(b, _)) => a == b,
            (Expr::Ident(a, _), Expr::Ident(b, _)) => a == b,
            (Expr::Field(b1, f1, _), Expr::Field(b2, f2, _)) => b1 == b2 && f1 == f2,
            (Expr::Index(n1, i1, _), Expr::Index(n2, i2, _)) => {
                n1 == n2 && i1.structurally_equal(i2)
            }
            (Expr::Unary(o1, e1, _), Expr::Unary(o2, e2, _)) => {
                o1 == o2 && e1.structurally_equal(e2)
            }
            (Expr::Binary(o1, a1, b1, _), Expr::Binary(o2, a2, b2, _)) => {
                o1 == o2 && a1.structurally_equal(a2) && b1.structurally_equal(b2)
            }
            (Expr::Ternary(c1, t1, e1, _), Expr::Ternary(c2, t2, e2, _)) => {
                c1.structurally_equal(c2) && t1.structurally_equal(t2) && e1.structurally_equal(e2)
            }
            (Expr::Call(n1, a1, _), Expr::Call(n2, a2, _)) => {
                n1 == n2
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2).all(|(x, y)| x.structurally_equal(y))
            }
            _ => false,
        }
    }

    /// Calls `f` on this expression and all sub-expressions (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Int(..) | Expr::Ident(..) | Expr::Field(..) => {}
            Expr::Index(_, idx, _) => idx.walk(f),
            Expr::Unary(_, e, _) => e.walk(f),
            Expr::Binary(_, a, b, _) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Ternary(c, t, e, _) => {
                c.walk(f);
                t.walk(f);
                e.walk(f);
            }
            Expr::Call(_, args, _) => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    /// Rebuilds the expression bottom-up, applying `f` to every node after
    /// its children have been rebuilt (post-order map).
    pub fn map(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Int(..) | Expr::Ident(..) | Expr::Field(..) => self,
            Expr::Index(n, idx, s) => Expr::Index(n, Box::new(idx.map(f)), s),
            Expr::Unary(op, e, s) => Expr::Unary(op, Box::new(e.map(f)), s),
            Expr::Binary(op, a, b, s) => {
                Expr::Binary(op, Box::new(a.map(f)), Box::new(b.map(f)), s)
            }
            Expr::Ternary(c, t, e, s) => Expr::Ternary(
                Box::new(c.map(f)),
                Box::new(t.map(f)),
                Box::new(e.map(f)),
                s,
            ),
            Expr::Call(n, args, s) => {
                Expr::Call(n, args.into_iter().map(|a| a.map(f)).collect(), s)
            }
        };
        f(rebuilt)
    }

    /// True if the expression contains no state references (idents or array
    /// indexing) — i.e. it reads only packet fields and constants.
    pub fn is_stateless(&self) -> bool {
        let mut stateless = true;
        self.walk(&mut |e| {
            if matches!(e, Expr::Ident(..) | Expr::Index(..)) {
                stateless = false;
            }
        });
        stateless
    }
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// `pkt.field`.
    Field(String, String, Span),
    /// A state scalar `x`.
    Scalar(String, Span),
    /// A state array element `arr[idx]`.
    Array(String, Box<Expr>, Span),
}

impl LValue {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            LValue::Field(_, _, s) | LValue::Scalar(_, s) | LValue::Array(_, _, s) => *s,
        }
    }
}

/// A statement. Domino has only assignments and (nested) conditionals;
/// everything else in Table 1 is banned.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // struct-variant fields are documented on the variant
pub enum Stmt {
    /// `lhs = rhs;` (compound assignments and `++`/`--` are desugared to
    /// this form by the parser).
    Assign { lhs: LValue, rhs: Expr, span: Span },
    /// `if (cond) { .. } else { .. }`. A missing else is an empty vec.
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
        span: Span,
    },
}

impl Stmt {
    /// The source span.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign { span, .. } | Stmt::If { span, .. } => *span,
        }
    }
}

/// A `#define NAME <const-expr>` directive. The value expression is folded
/// to a constant during semantic analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Define {
    /// Macro name.
    pub name: String,
    /// Value expression (folded to a constant by sema).
    pub value: Expr,
    /// Source span of the directive.
    pub span: Span,
}

/// A `struct Name { int f; ... };` declaration describing the packet
/// headers and metadata visible to the transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDecl {
    /// Struct type name.
    pub name: String,
    /// Field names in declaration order.
    pub fields: Vec<(String, Span)>,
    /// Source span of the declaration.
    pub span: Span,
}

/// A global state variable: `int x = 0;` or `int arr[SIZE] = {0};`.
///
/// State variables persist across packets — they are *the* algorithmic
/// state the paper is about.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// State variable name.
    pub name: String,
    /// `None` for scalars; `Some(size-expr)` for arrays. The size must fold
    /// to a positive constant.
    pub size: Option<Expr>,
    /// Initializer expression (defaults to 0). For arrays this is the value
    /// every element starts with (`= {v}` syntax).
    pub init: Option<Expr>,
    /// Source span of the declaration.
    pub span: Span,
}

/// The packet transaction: `void name(struct StructName param) { body }`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Transaction (function) name.
    pub name: String,
    /// Name of the packet struct type.
    pub struct_name: String,
    /// Name of the packet parameter (usually `pkt` or `p`).
    pub param: String,
    /// The transaction body.
    pub body: Vec<Stmt>,
    /// Source span of the signature.
    pub span: Span,
}

/// A complete parsed Domino program: defines, one packet struct, state
/// declarations, and exactly one packet transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// `#define` directives.
    pub defines: Vec<Define>,
    /// Struct declarations (packet layout).
    pub structs: Vec<StructDecl>,
    /// Persistent state declarations.
    pub globals: Vec<GlobalDecl>,
    /// The packet transaction.
    pub transaction: Transaction,
}

impl fmt::Display for LValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LValue::Field(b, n, _) => write!(f, "{b}.{n}"),
            LValue::Scalar(n, _) => write!(f, "{n}"),
            LValue::Array(n, i, _) => write!(f, "{n}[{i}]"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v, _) => write!(f, "{v}"),
            Expr::Ident(n, _) => write!(f, "{n}"),
            Expr::Field(b, n, _) => write!(f, "{b}.{n}"),
            Expr::Index(n, i, _) => write!(f, "{n}[{i}]"),
            Expr::Unary(op, e, _) => write!(f, "{}({e})", op.symbol()),
            Expr::Binary(op, a, b, _) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Ternary(c, t, e, _) => write!(f, "({c} ? {t} : {e})"),
            Expr::Call(n, args, _) => {
                write!(f, "{n}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fld(name: &str) -> Expr {
        Expr::Field("pkt".into(), name.into(), Span::SYNTH)
    }

    #[test]
    fn binop_eval_matches_c_semantics() {
        assert_eq!(BinOp::Add.eval(i32::MAX, 1), i32::MIN); // wrapping
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Div.eval(7, 0), 0); // total semantics
        assert_eq!(BinOp::Mod.eval(7, 0), 0);
        assert_eq!(BinOp::Shl.eval(1, 33), 2); // shift amount masked to 5 bits
        assert_eq!(BinOp::And.eval(3, 0), 0);
        assert_eq!(BinOp::And.eval(3, -1), 1);
        assert_eq!(BinOp::Lt.eval(-1, 0), 1);
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(i32::MIN), i32::MIN); // wrapping
        assert_eq!(UnOp::Not.eval(0), 1);
        assert_eq!(UnOp::Not.eval(42), 0);
        assert_eq!(UnOp::BitNot.eval(0), -1);
    }

    #[test]
    fn structural_equality_ignores_spans() {
        let a = Expr::Field("pkt".into(), "id".into(), Span::new(1, 2, 1, 1));
        let b = Expr::Field("pkt".into(), "id".into(), Span::new(9, 10, 3, 4));
        assert!(a.structurally_equal(&b));
        let c = Expr::Field("pkt".into(), "other".into(), Span::SYNTH);
        assert!(!a.structurally_equal(&c));
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(fld("a")),
            Box::new(Expr::Ternary(
                Box::new(fld("c")),
                Box::new(fld("t")),
                Box::new(Expr::Int(1, Span::SYNTH)),
                Span::SYNTH,
            )),
            Span::SYNTH,
        );
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 6);
    }

    #[test]
    fn map_rewrites_bottom_up() {
        // Replace every Int(1) with Int(2).
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Int(1, Span::SYNTH)),
            Box::new(Expr::Int(1, Span::SYNTH)),
            Span::SYNTH,
        );
        let out = e.map(&mut |e| match e {
            Expr::Int(1, s) => Expr::Int(2, s),
            other => other,
        });
        match out {
            Expr::Binary(BinOp::Add, a, b, _) => {
                assert!(matches!(*a, Expr::Int(2, _)));
                assert!(matches!(*b, Expr::Int(2, _)));
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn statelessness_detection() {
        assert!(fld("a").is_stateless());
        let stateful = Expr::Index("arr".into(), Box::new(fld("i")), Span::SYNTH);
        assert!(!stateful.is_stateless());
        let scalar = Expr::Ident("counter".into(), Span::SYNTH);
        assert!(!scalar.is_stateless());
    }

    #[test]
    fn display_round_trips_shape() {
        let e = Expr::Ternary(
            Box::new(Expr::Binary(
                BinOp::Gt,
                Box::new(fld("tmp")),
                Box::new(Expr::Int(5, Span::SYNTH)),
                Span::SYNTH,
            )),
            Box::new(fld("new_hop")),
            Box::new(fld("saved_hop")),
            Span::SYNTH,
        );
        assert_eq!(
            e.to_string(),
            "((pkt.tmp > 5) ? pkt.new_hop : pkt.saved_hop)"
        );
    }
}
