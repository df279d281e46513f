//! Pass 1 — branch removal (Figure 5, §4.1).
//!
//! Converts (possibly nested) `if`/`else` statements into straight-line
//! code using the conditional operator, starting from the innermost `if`
//! and recursing outwards:
//!
//! ```text
//! if (C) { x = A; } else { y = B; }
//! ⇒
//! pkt.__br0 = C;
//! x = pkt.__br0 ? A : x;       // rewritten
//! y = pkt.__br0 ? y : B;       // rewritten
//! ```
//!
//! The condition is hoisted into a temporary packet field *before* the
//! branch bodies run, because the bodies may overwrite fields the
//! condition reads. Straight-line code simplifies everything downstream:
//! only read-after-write dependencies remain after SSA, and control
//! dependencies are gone entirely (this is the if-conversion analogue
//! noted in Table 2, simpler here because Domino has no backward control
//! transfer).

use crate::fresh::FreshNames;
use domino_ast::ast::{Expr, LValue, Stmt};
use domino_ast::Span;

/// An assignment-only statement (the output of this pass).
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// Target (packet field or state location).
    pub lhs: LValue,
    /// Value expression (may contain conditionals).
    pub rhs: Expr,
}

/// Removes all branches from a transaction body, yielding straight-line
/// assignments.
pub fn remove_branches(body: &[Stmt], fresh: &mut FreshNames) -> Vec<Assign> {
    let mut out = Vec::new();
    lower_block(body, fresh, &mut out);
    out
}

fn lower_block(stmts: &[Stmt], fresh: &mut FreshNames, out: &mut Vec<Assign>) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { lhs, rhs, .. } => out.push(Assign {
                lhs: lhs.clone(),
                rhs: rhs.clone(),
            }),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                // Hoist the condition (evaluated before either branch).
                let cond_field = fresh.fresh("__br");
                out.push(Assign {
                    lhs: LValue::Field("pkt".into(), cond_field.clone(), Span::SYNTH),
                    rhs: cond.clone(),
                });
                let cond_expr = Expr::Field("pkt".into(), cond_field, Span::SYNTH);

                // Innermost-first: recursively flatten each branch...
                let mut then_flat = Vec::new();
                lower_block(then_branch, fresh, &mut then_flat);
                let mut else_flat = Vec::new();
                lower_block(else_branch, fresh, &mut else_flat);

                // ...then guard every assignment with the hoisted condition.
                for a in then_flat {
                    let keep = lvalue_as_expr(&a.lhs);
                    out.push(Assign {
                        lhs: a.lhs,
                        rhs: Expr::Ternary(
                            Box::new(cond_expr.clone()),
                            Box::new(a.rhs),
                            Box::new(keep),
                            Span::SYNTH,
                        ),
                    });
                }
                for a in else_flat {
                    let keep = lvalue_as_expr(&a.lhs);
                    out.push(Assign {
                        lhs: a.lhs,
                        rhs: Expr::Ternary(
                            Box::new(cond_expr.clone()),
                            Box::new(keep),
                            Box::new(a.rhs),
                            Span::SYNTH,
                        ),
                    });
                }
            }
        }
    }
}

/// The "keep the old value" expression for an assignment target.
pub fn lvalue_as_expr(lv: &LValue) -> Expr {
    match lv {
        LValue::Field(b, f, s) => Expr::Field(b.clone(), f.clone(), *s),
        LValue::Scalar(n, s) => Expr::Ident(n.clone(), *s),
        LValue::Array(n, i, s) => Expr::Index(n.clone(), i.clone(), *s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_ast::parse_and_check;

    fn run(src: &str) -> Vec<String> {
        let p = parse_and_check(src).unwrap();
        let mut fresh = FreshNames::new(p.packet_fields.iter().cloned());
        remove_branches(&p.body, &mut fresh)
            .into_iter()
            .map(|a| format!("{} = {};", a.lhs, a.rhs))
            .collect()
    }

    #[test]
    fn flowlet_branch_matches_figure5() {
        let lines = run("#define THRESHOLD 5\n\
             struct P { int arrival; int new_hop; int id; };\n\
             int last_time[8] = {0};\nint saved_hop[8] = {0};\n\
             void f(struct P pkt) {\n\
               if (pkt.arrival - last_time[pkt.id] > THRESHOLD) {\n\
                 saved_hop[pkt.id] = pkt.new_hop;\n\
               }\n\
             }");
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "pkt.__br = ((pkt.arrival - last_time[pkt.id]) > 5);"
        );
        assert_eq!(
            lines[1],
            "saved_hop[pkt.id] = (pkt.__br ? pkt.new_hop : saved_hop[pkt.id]);"
        );
    }

    #[test]
    fn else_branch_keeps_then_value() {
        let lines = run("struct P { int a; int r; };\n\
             void f(struct P pkt) { if (pkt.a) { pkt.r = 1; } else { pkt.r = 2; } }");
        assert_eq!(lines[1], "pkt.r = (pkt.__br ? 1 : pkt.r);");
        assert_eq!(lines[2], "pkt.r = (pkt.__br ? pkt.r : 2);");
    }

    #[test]
    fn condition_hoisted_before_body_mutation() {
        // The branch body overwrites the field the condition reads.
        let lines = run("struct P { int a; int b; };\n\
             void f(struct P pkt) { if (pkt.a > 0) { pkt.a = 0; pkt.b = pkt.a; } }");
        assert_eq!(lines[0], "pkt.__br = (pkt.a > 0);");
        assert_eq!(lines[1], "pkt.a = (pkt.__br ? 0 : pkt.a);");
        // pkt.b reads the *updated* pkt.a, preserving sequential semantics.
        assert_eq!(lines[2], "pkt.b = (pkt.__br ? pkt.a : pkt.b);");
    }

    #[test]
    fn nested_ifs_recurse_innermost_first() {
        let lines = run("struct P { int a; int b; int r; };\n\
             void f(struct P pkt) {\n\
               if (pkt.a) { if (pkt.b) { pkt.r = 1; } }\n\
             }");
        // __br = a; __br_1 = __br ? b : __br_1; r = __br ? (__br_1 ? 1 : r) : r
        assert_eq!(lines.len(), 3);
        assert!(
            lines[2].contains("pkt.__br ? (pkt.__br_1 ? 1 : pkt.r) : pkt.r"),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn else_if_chains_flatten() {
        let lines = run("struct P { int a; int b; int r; };\n\
             void f(struct P pkt) {\n\
               if (pkt.a) { pkt.r = 1; } else if (pkt.b) { pkt.r = 2; } else { pkt.r = 3; }\n\
             }");
        // cond0; r(then); cond1 (guarded); r(elif-then); r(else)
        assert_eq!(lines.len(), 5);
        assert!(lines[4].contains("pkt.__br ?"), "{}", lines[4]);
    }

    #[test]
    fn straight_line_is_untouched() {
        let lines = run("struct P { int a; int r; };\nvoid f(struct P pkt) { pkt.r = pkt.a + 1; }");
        assert_eq!(lines, vec!["pkt.r = (pkt.a + 1);"]);
    }

    #[test]
    fn fresh_names_avoid_user_fields() {
        let lines = run("struct P { int __br; int a; };\n\
             void f(struct P pkt) { if (pkt.a) { pkt.a = 0; } }");
        // The user already has a field named __br; the temp must differ.
        assert!(lines[0].starts_with("pkt.__br_1 ="), "{}", lines[0]);
    }
}
