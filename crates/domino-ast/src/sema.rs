//! Semantic analysis.
//!
//! Turns a parsed [`Program`] into a [`CheckedProgram`]:
//!
//! * `#define` constants are folded away (including inside expressions),
//! * every name is resolved (packet field, state scalar, state array,
//!   intrinsic) and arity-checked,
//! * the Table 1 restrictions that are not already syntactic are enforced —
//!   most importantly that **all accesses to a given state array within one
//!   transaction use the same index expression** (switch memories do not
//!   support distinct read/write addresses per clock cycle, §3.2),
//! * `min`/`max` helper calls are desugared to conditional expressions,
//! * constant subexpressions are folded.
//!
//! After sema the AST satisfies: `Expr::Ident` only names state scalars,
//! `Expr::Index` only names state arrays with a stateless index expression,
//! and every `Expr::Call` is a known intrinsic with correct arity.

use crate::ast::*;
use crate::diag::{Diagnostic, Result, Stage};
use crate::intrinsics;
use crate::span::Span;
use std::collections::HashMap;

/// Kind of a state variable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum StateKind {
    /// A single register.
    Scalar,
    /// A register array of the given (constant) size.
    Array { size: u32 },
}

/// A resolved state-variable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateVar {
    /// Variable name.
    pub name: String,
    /// Scalar or array.
    pub kind: StateKind,
    /// Initial value of the scalar / of every array element.
    pub init: i32,
}

/// A semantically checked Domino program.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedProgram {
    /// Transaction name (e.g. `flowlet`).
    pub name: String,
    /// Packet parameter name (e.g. `pkt`).
    pub param: String,
    /// Declared packet fields, in declaration order.
    pub packet_fields: Vec<String>,
    /// State variables, in declaration order.
    pub state: Vec<StateVar>,
    /// The resolved, folded transaction body.
    pub body: Vec<Stmt>,
}

/// Runs semantic analysis on a parsed program.
pub fn check(program: &Program) -> Result<CheckedProgram> {
    Checker::new(program)?.run()
}

/// Parses and checks in one step.
pub fn parse_and_check(source: &str) -> Result<CheckedProgram> {
    let program = crate::parser::parse(source)?;
    check(&program)
}

struct Checker<'a> {
    program: &'a Program,
    defines: HashMap<String, i32>,
    fields: Vec<String>,
    state: Vec<StateVar>,
    /// For each array, the canonical index expression seen first.
    array_index: HashMap<String, Expr>,
}

impl<'a> Checker<'a> {
    fn new(program: &'a Program) -> Result<Self> {
        Ok(Checker {
            program,
            defines: HashMap::new(),
            fields: Vec::new(),
            state: Vec::new(),
            array_index: HashMap::new(),
        })
    }

    fn err(&self, msg: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::new(Stage::Sema, msg, span)
    }

    fn run(mut self) -> Result<CheckedProgram> {
        self.collect_defines()?;
        self.collect_fields()?;
        self.collect_state()?;

        let tx = &self.program.transaction;
        let mut body = Vec::with_capacity(tx.body.len());
        for stmt in &tx.body {
            body.push(self.check_stmt(stmt)?);
        }

        Ok(CheckedProgram {
            name: tx.name.clone(),
            param: tx.param.clone(),
            packet_fields: self.fields,
            state: self.state,
            body,
        })
    }

    fn collect_defines(&mut self) -> Result<()> {
        for d in &self.program.defines {
            if self.defines.contains_key(&d.name) {
                return Err(self.err(format!("duplicate #define `{}`", d.name), d.span));
            }
            let folded = self.resolve_expr(&d.value, true)?;
            let Expr::Int(v, _) = folded else {
                return Err(self.err(
                    format!("#define `{}` must be a compile-time constant", d.name),
                    d.span,
                ));
            };
            self.defines.insert(d.name.clone(), v);
        }
        Ok(())
    }

    fn collect_fields(&mut self) -> Result<()> {
        let tx = &self.program.transaction;
        let st = self
            .program
            .structs
            .iter()
            .find(|s| s.name == tx.struct_name)
            .ok_or_else(|| {
                self.err(
                    format!(
                        "transaction `{}` takes `struct {}` but no such struct is declared",
                        tx.name, tx.struct_name
                    ),
                    tx.span,
                )
            })?;
        for (f, fspan) in &st.fields {
            if self.fields.contains(f) {
                return Err(self.err(format!("duplicate packet field `{f}`"), *fspan));
            }
            self.fields.push(f.clone());
        }
        if self.fields.is_empty() {
            return Err(self.err(
                format!("packet struct `{}` has no fields", st.name),
                st.span,
            ));
        }
        Ok(())
    }

    fn collect_state(&mut self) -> Result<()> {
        for g in &self.program.globals {
            if self.state.iter().any(|s| s.name == g.name) {
                return Err(self.err(format!("duplicate state variable `{}`", g.name), g.span));
            }
            if self.defines.contains_key(&g.name) {
                return Err(self.err(
                    format!("`{}` is already a #define constant", g.name),
                    g.span,
                ));
            }
            let kind = match &g.size {
                None => StateKind::Scalar,
                Some(size_expr) => {
                    let folded = self.resolve_expr(size_expr, true)?;
                    let Expr::Int(size, _) = folded else {
                        return Err(self.err(
                            format!("array size of `{}` must be a compile-time constant", g.name),
                            size_expr.span(),
                        ));
                    };
                    if size <= 0 {
                        return Err(self.err(
                            format!("array `{}` must have a positive size (got {size})", g.name),
                            size_expr.span(),
                        ));
                    }
                    StateKind::Array { size: size as u32 }
                }
            };
            let init = match &g.init {
                None => 0,
                Some(e) => {
                    let folded = self.resolve_expr(e, true)?;
                    let Expr::Int(v, _) = folded else {
                        return Err(self.err(
                            format!(
                                "initializer of `{}` must be a compile-time constant",
                                g.name
                            ),
                            e.span(),
                        ));
                    };
                    v
                }
            };
            self.state.push(StateVar {
                name: g.name.clone(),
                kind,
                init,
            });
        }
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &Stmt) -> Result<Stmt> {
        match stmt {
            Stmt::Assign { lhs, rhs, span } => {
                let lhs = self.check_lvalue(lhs)?;
                let rhs = self.resolve_expr(rhs, false)?;
                Ok(Stmt::Assign {
                    lhs,
                    rhs,
                    span: *span,
                })
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                let cond = self.resolve_expr(cond, false)?;
                let then_branch = then_branch
                    .iter()
                    .map(|s| self.check_stmt(s))
                    .collect::<Result<Vec<_>>>()?;
                let else_branch = else_branch
                    .iter()
                    .map(|s| self.check_stmt(s))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    span: *span,
                })
            }
        }
    }

    fn check_lvalue(&mut self, lhs: &LValue) -> Result<LValue> {
        match lhs {
            LValue::Field(base, field, span) => {
                self.check_field_access(base, field, *span)?;
                Ok(lhs.clone())
            }
            LValue::Scalar(name, span) => {
                if self.defines.contains_key(name) {
                    return Err(
                        self.err(format!("cannot assign to #define constant `{name}`"), *span)
                    );
                }
                match self.state.iter().find(|s| s.name == *name) {
                    Some(sv) if sv.kind == StateKind::Scalar => Ok(lhs.clone()),
                    Some(_) => Err(self.err(
                        format!("state array `{name}` must be indexed (`{name}[...]`)"),
                        *span,
                    )),
                    None if *name == self.program.transaction.param => Err(self.err(
                        "cannot assign to the packet parameter itself; assign to its fields",
                        *span,
                    )),
                    None => Err(self.err(format!("unknown variable `{name}`"), *span)),
                }
            }
            LValue::Array(name, idx, span) => {
                self.check_array_named(name, *span)?;
                let idx = self.resolve_expr(idx, false)?;
                self.check_array_index(name, &idx)?;
                Ok(LValue::Array(name.clone(), Box::new(idx), *span))
            }
        }
    }

    fn check_field_access(&self, base: &str, field: &str, span: Span) -> Result<()> {
        let param = &self.program.transaction.param;
        if base != param {
            return Err(self.err(
                format!("unknown struct variable `{base}` (the packet parameter is `{param}`)"),
                span,
            ));
        }
        if !self.fields.contains(&field.to_string()) {
            return Err(self.err(
                format!(
                    "`{}` has no field `{field}` (declared fields: {})",
                    self.program.transaction.struct_name,
                    self.fields.join(", ")
                ),
                span,
            ));
        }
        Ok(())
    }

    fn check_array_named(&self, name: &str, span: Span) -> Result<()> {
        match self.state.iter().find(|s| s.name == name) {
            Some(sv) if matches!(sv.kind, StateKind::Array { .. }) => Ok(()),
            Some(_) => Err(self.err(
                format!("`{name}` is a scalar state variable, not an array"),
                span,
            )),
            None => Err(self.err(format!("unknown state array `{name}`"), span)),
        }
    }

    /// Enforces the Table 1 rule: all accesses to an array within one
    /// transaction execution use the same index expression, and the index is
    /// computed from packet fields and constants only.
    fn check_array_index(&mut self, array: &str, idx: &Expr) -> Result<()> {
        if !idx.is_stateless() {
            return Err(self.err(
                format!(
                    "index of `{array}` must be computed from packet fields and \
                     constants only (state-dependent addressing cannot run at \
                     line rate)"
                ),
                idx.span(),
            ));
        }
        match self.array_index.get(array) {
            None => {
                self.array_index.insert(array.to_string(), idx.clone());
                Ok(())
            }
            Some(canonical) if canonical.structurally_equal(idx) => Ok(()),
            Some(canonical) => Err(self.err(
                format!(
                    "array `{array}` is accessed with two different index \
                     expressions (`{canonical}` and `{idx}`); Table 1 requires a \
                     single index per transaction execution because switch \
                     memories support one address per clock cycle"
                ),
                idx.span(),
            )),
        }
    }

    /// Resolves names, folds constants, desugars `min`/`max`.
    ///
    /// With `const_only`, any non-constant leaf is an error (used for
    /// `#define` values, array sizes, initializers).
    fn resolve_expr(&mut self, expr: &Expr, const_only: bool) -> Result<Expr> {
        let resolved = match expr {
            Expr::Int(v, s) => Expr::Int(*v, *s),
            Expr::Ident(name, s) => {
                if let Some(v) = self.defines.get(name) {
                    Expr::Int(*v, *s)
                } else if const_only {
                    return Err(self.err(format!("`{name}` is not a compile-time constant"), *s));
                } else {
                    match self.state.iter().find(|sv| sv.name == *name) {
                        Some(sv) if sv.kind == StateKind::Scalar => Expr::Ident(name.clone(), *s),
                        Some(_) => {
                            return Err(
                                self.err(format!("state array `{name}` must be indexed"), *s)
                            )
                        }
                        None => return Err(self.err(format!("unknown variable `{name}`"), *s)),
                    }
                }
            }
            Expr::Field(base, field, s) => {
                if const_only {
                    return Err(self.err("packet fields are not compile-time constants", *s));
                }
                self.check_field_access(base, field, *s)?;
                Expr::Field(base.clone(), field.clone(), *s)
            }
            Expr::Index(name, idx, s) => {
                if const_only {
                    return Err(self.err("state is not a compile-time constant", *s));
                }
                self.check_array_named(name, *s)?;
                let idx = self.resolve_expr(idx, false)?;
                self.check_array_index(name, &idx)?;
                Expr::Index(name.clone(), Box::new(idx), *s)
            }
            Expr::Unary(op, e, s) => {
                let e = self.resolve_expr(e, const_only)?;
                Expr::Unary(*op, Box::new(e), *s)
            }
            Expr::Binary(op, a, b, s) => {
                let a = self.resolve_expr(a, const_only)?;
                let b = self.resolve_expr(b, const_only)?;
                Expr::Binary(*op, Box::new(a), Box::new(b), *s)
            }
            Expr::Ternary(c, t, e, s) => {
                let c = self.resolve_expr(c, const_only)?;
                let t = self.resolve_expr(t, const_only)?;
                let e = self.resolve_expr(e, const_only)?;
                Expr::Ternary(Box::new(c), Box::new(t), Box::new(e), *s)
            }
            Expr::Call(name, args, s) => {
                if const_only {
                    return Err(self.err("calls are not compile-time constants", *s));
                }
                let args = args
                    .iter()
                    .map(|a| self.resolve_expr(a, false))
                    .collect::<Result<Vec<_>>>()?;
                match name.as_str() {
                    // min/max are pure sugar over the conditional operator.
                    "min" | "max" => {
                        if args.len() != 2 {
                            return Err(self.err(format!("`{name}` takes exactly 2 arguments"), *s));
                        }
                        let op = if name == "max" { BinOp::Gt } else { BinOp::Lt };
                        let a = args[0].clone();
                        let b = args[1].clone();
                        Expr::Ternary(
                            Box::new(Expr::Binary(
                                op,
                                Box::new(a.clone()),
                                Box::new(b.clone()),
                                *s,
                            )),
                            Box::new(a),
                            Box::new(b),
                            *s,
                        )
                    }
                    other => {
                        let Some(sig) = intrinsics::lookup(other) else {
                            return Err(self.err(
                                format!(
                                    "unknown function `{other}` (available intrinsics: {})",
                                    intrinsics::names().join(", ")
                                ),
                                *s,
                            ));
                        };
                        if args.len() != sig.arity {
                            return Err(self.err(
                                format!(
                                    "intrinsic `{other}` takes {} argument(s), got {}",
                                    sig.arity,
                                    args.len()
                                ),
                                *s,
                            ));
                        }
                        // Intrinsic arguments may read state: the flank pass
                        // turns such reads into packet fields. If the result
                        // feeds the *same* state variable's update, the codelet
                        // collapse rejects it (an intrinsic cannot sit inside a
                        // single-cycle stateful atom).
                        Expr::Call(other.to_string(), args, *s)
                    }
                }
            }
        };
        Ok(fold(resolved))
    }
}

/// Folds constant subexpressions (one level; callers fold bottom-up).
fn fold(e: Expr) -> Expr {
    match e {
        Expr::Unary(op, inner, s) => match *inner {
            Expr::Int(v, _) => Expr::Int(op.eval(v), s),
            other => Expr::Unary(op, Box::new(other), s),
        },
        Expr::Binary(op, a, b, s) => match (*a, *b) {
            (Expr::Int(x, _), Expr::Int(y, _)) => Expr::Int(op.eval(x, y), s),
            (a, b) => Expr::Binary(op, Box::new(a), Box::new(b), s),
        },
        Expr::Ternary(c, t, els, s) => match *c {
            Expr::Int(v, _) => {
                if v != 0 {
                    *t
                } else {
                    *els
                }
            }
            c => Expr::Ternary(Box::new(c), t, els, s),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<CheckedProgram> {
        check(&parse(src).unwrap())
    }

    const HEADER: &str = "struct P { int a; int b; int r; };\n";

    #[test]
    fn checks_simple_program() {
        let p = check_src(&format!(
            "{HEADER}int c = 0;\nvoid f(struct P pkt) {{ c = c + pkt.a; pkt.r = pkt.b; }}"
        ))
        .unwrap();
        assert_eq!(p.packet_fields, vec!["a", "b", "r"]);
        assert_eq!(p.state.len(), 1);
        assert_eq!(p.state[0].kind, StateKind::Scalar);
    }

    #[test]
    fn folds_defines_into_constants() {
        let p = check_src(
            "#define N 5\n#define M N + 2\nstruct P { int a; };\n\
             void f(struct P pkt) { pkt.a = M; }",
        )
        .unwrap();
        let Stmt::Assign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        assert!(matches!(rhs, Expr::Int(7, _)));
    }

    #[test]
    fn resolves_array_size_from_define() {
        let p = check_src(
            "#define N 128\nint tbl[N] = {3};\nstruct P { int a; };\n\
             void f(struct P pkt) { tbl[pkt.a] = 0; }",
        )
        .unwrap();
        assert_eq!(p.state[0].kind, StateKind::Array { size: 128 });
        assert_eq!(p.state[0].init, 3);
    }

    #[test]
    fn rejects_unknown_field() {
        let err =
            check_src(&format!("{HEADER}void f(struct P pkt) {{ pkt.zz = 1; }}")).unwrap_err();
        assert!(err.message.contains("no field `zz`"), "{}", err.message);
    }

    #[test]
    fn rejects_wrong_param_base() {
        let err = check_src(&format!("{HEADER}void f(struct P pkt) {{ q.a = 1; }}")).unwrap_err();
        assert!(
            err.message.contains("unknown struct variable `q`"),
            "{}",
            err.message
        );
    }

    #[test]
    fn rejects_unknown_state() {
        let err =
            check_src(&format!("{HEADER}void f(struct P pkt) {{ counter = 1; }}")).unwrap_err();
        assert!(err.message.contains("unknown variable"), "{}", err.message);
    }

    #[test]
    fn rejects_assignment_to_define() {
        let err = check_src(&format!(
            "#define C 9\n{HEADER}void f(struct P pkt) {{ C = 1; }}"
        ))
        .unwrap_err();
        assert!(err.message.contains("#define constant"), "{}", err.message);
    }

    #[test]
    fn rejects_scalar_indexed_as_array() {
        let err = check_src(&format!(
            "{HEADER}int x = 0;\nvoid f(struct P pkt) {{ x[pkt.a] = 1; }}"
        ))
        .unwrap_err();
        assert!(err.message.contains("not an array"), "{}", err.message);
    }

    #[test]
    fn rejects_array_used_as_scalar() {
        let err = check_src(&format!(
            "{HEADER}int arr[4];\nvoid f(struct P pkt) {{ arr = 1; }}"
        ))
        .unwrap_err();
        assert!(err.message.contains("must be indexed"), "{}", err.message);
    }

    #[test]
    fn enforces_single_index_per_array() {
        let err = check_src(&format!(
            "{HEADER}int arr[4];\nvoid f(struct P pkt) {{ arr[pkt.a] = 1; pkt.r = arr[pkt.b]; }}"
        ))
        .unwrap_err();
        assert!(
            err.message.contains("two different index"),
            "{}",
            err.message
        );
        assert!(err.message.contains("Table 1"), "{}", err.message);
    }

    #[test]
    fn same_index_twice_is_fine() {
        check_src(&format!(
            "{HEADER}int arr[4];\nvoid f(struct P pkt) {{ pkt.r = arr[pkt.a]; arr[pkt.a] = pkt.r + 1; }}"
        ))
        .unwrap();
    }

    #[test]
    fn two_arrays_may_use_different_indices() {
        check_src(&format!(
            "{HEADER}int x[4];\nint y[4];\n\
             void f(struct P pkt) {{ x[pkt.a] = 1; y[pkt.b] = 2; }}"
        ))
        .unwrap();
    }

    #[test]
    fn rejects_state_dependent_index() {
        let err = check_src(&format!(
            "{HEADER}int ptr = 0;\nint arr[4];\nvoid f(struct P pkt) {{ arr[ptr] = 1; }}"
        ))
        .unwrap_err();
        assert!(
            err.message.contains("packet fields and constants"),
            "{}",
            err.message
        );
    }

    #[test]
    fn rejects_negative_array_size() {
        let err = check_src(&format!(
            "int arr[0];\n{HEADER}void f(struct P pkt) {{ arr[pkt.a] = 1; }}"
        ))
        .unwrap_err();
        assert!(err.message.contains("positive size"), "{}", err.message);
    }

    #[test]
    fn intrinsic_arity_checked() {
        let err = check_src(&format!(
            "{HEADER}void f(struct P pkt) {{ pkt.r = hash2(pkt.a); }}"
        ))
        .unwrap_err();
        assert!(err.message.contains("takes 2"), "{}", err.message);
    }

    #[test]
    fn unknown_intrinsic_rejected() {
        let err = check_src(&format!(
            "{HEADER}void f(struct P pkt) {{ pkt.r = sqrtf(pkt.a); }}"
        ))
        .unwrap_err();
        assert!(err.message.contains("unknown function"), "{}", err.message);
    }

    #[test]
    fn intrinsic_args_may_read_state() {
        // Allowed at sema level; the flank pass turns the state read into a
        // packet field. (Cyclic uses are rejected later, at codelet
        // collapse.)
        check_src(&format!(
            "{HEADER}int s = 0;\nvoid f(struct P pkt) {{ pkt.r = hash2(s, pkt.a); }}"
        ))
        .unwrap();
    }

    #[test]
    fn desugars_max_to_ternary() {
        let p = check_src(&format!(
            "{HEADER}void f(struct P pkt) {{ pkt.r = max(pkt.a, pkt.b); }}"
        ))
        .unwrap();
        let Stmt::Assign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        assert_eq!(rhs.to_string(), "((pkt.a > pkt.b) ? pkt.a : pkt.b)");
    }

    #[test]
    fn folds_constant_arithmetic() {
        let p = check_src(&format!(
            "{HEADER}void f(struct P pkt) {{ pkt.r = (3 + 4) * 2; }}"
        ))
        .unwrap();
        let Stmt::Assign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        assert!(matches!(rhs, Expr::Int(14, _)));
    }

    #[test]
    fn folds_constant_ternary() {
        let p = check_src(&format!(
            "{HEADER}void f(struct P pkt) {{ pkt.r = 1 ? pkt.a : pkt.b; }}"
        ))
        .unwrap();
        let Stmt::Assign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        assert_eq!(rhs.to_string(), "pkt.a");
    }

    #[test]
    fn duplicate_state_rejected() {
        let err = check_src(&format!(
            "int x = 0;\nint x = 1;\n{HEADER}void f(struct P pkt) {{ }}"
        ))
        .unwrap_err();
        assert!(err.message.contains("duplicate state"), "{}", err.message);
    }

    #[test]
    fn missing_struct_rejected() {
        let err = check_src("struct Q { int a; };\nvoid f(struct P pkt) { }").unwrap_err();
        assert!(err.message.contains("no such struct"), "{}", err.message);
    }

    #[test]
    fn flowlet_checks_clean() {
        let src = r#"
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
        let p = check_src(src).unwrap();
        assert_eq!(p.state.len(), 2);
        assert_eq!(p.state[0].kind, StateKind::Array { size: 8000 });
    }
}
