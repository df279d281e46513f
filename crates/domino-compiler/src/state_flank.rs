//! Pass 2 — rewriting state variable operations (Figure 6, §4.1).
//!
//! For each state variable, create a **read flank** that reads the variable
//! into a packet temporary at its first access, replace every occurrence of
//! the variable with that temporary, and append a **write flank** that
//! stores the temporary back at the end of the transaction. For arrays the
//! index expression is materialized once (as a packet field) and shared by
//! both flanks, mirroring the hardware constraint that a memory gets one
//! address per clock cycle.
//!
//! After this pass the only operations on state are whole reads and whole
//! writes; all arithmetic happens on packet fields, which is what makes
//! pipelining (§4.2) tractable.

use crate::branch_removal::Assign;
use crate::fresh::FreshNames;
use domino_ast::ast::{Expr, LValue};
use domino_ast::{CheckedProgram, Span};
use std::collections::{BTreeMap, BTreeSet};

/// Metadata about one flanked state variable.
#[derive(Debug, Clone, PartialEq)]
pub struct FlankInfo {
    /// State variable name.
    pub var: String,
    /// The packet temporary holding its value inside the transaction.
    pub temp_field: String,
    /// For arrays: the packet field used as the (single) index.
    pub index_field: Option<String>,
}

/// Errors from the flanking pass (index-constancy violations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlankError {
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for FlankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for FlankError {}

/// Runs the pass. `stmts` must be straight-line (post branch removal).
pub fn rewrite_state_ops(
    stmts: &[Assign],
    program: &CheckedProgram,
    fresh: &mut FreshNames,
) -> Result<(Vec<Assign>, Vec<FlankInfo>), FlankError> {
    let param = program.param.clone();

    // 1. Find each state variable's first access and canonical index expr.
    let mut first_access: BTreeMap<String, usize> = BTreeMap::new();
    let mut index_expr: BTreeMap<String, Expr> = BTreeMap::new();
    for (i, a) in stmts.iter().enumerate() {
        for (var, idx) in state_accesses(a) {
            first_access.entry(var.clone()).or_insert(i);
            if let Some(idx) = idx {
                index_expr.entry(var).or_insert(idx);
            }
        }
    }

    // 2. Index constancy: no field feeding an array's index expression may
    //    be assigned at or after the array's first access (the index must
    //    be constant for the whole transaction execution, Table 1).
    for (var, idx) in &index_expr {
        let first = first_access[var];
        let mut idx_fields: BTreeSet<&str> = BTreeSet::new();
        idx.walk(&mut |e| {
            if let Expr::Field(_, f, _) = e {
                idx_fields.insert(f);
            }
        });
        for (i, a) in stmts.iter().enumerate().skip(first) {
            if let LValue::Field(_, f, _) = &a.lhs {
                if idx_fields.contains(f.as_str()) {
                    return Err(FlankError {
                        message: format!(
                            "field `{f}` feeds the index of array `{var}` but is \
                             reassigned (statement {}) after the array's first \
                             access (statement {}); the index must be constant \
                             for each transaction execution (Table 1)",
                            i + 1,
                            first + 1
                        ),
                    });
                }
            }
        }
    }

    // 3. Allocate flank temporaries (preferring the variable's own name,
    //    like the paper's `pkt.last_time` for state `last_time`).
    let mut flanks: Vec<FlankInfo> = Vec::new();
    let mut by_var: BTreeMap<String, usize> = BTreeMap::new();
    let mut vars_by_pos: Vec<(usize, String)> =
        first_access.iter().map(|(v, i)| (*i, v.clone())).collect();
    vars_by_pos.sort();
    for (_, var) in &vars_by_pos {
        let temp_field = fresh.fresh(var);
        let index_field = match index_expr.get(var) {
            None => None,
            Some(Expr::Field(_, f, _)) => Some(f.clone()),
            Some(_) => Some(fresh.fresh(&format!("__idx_{var}"))),
        };
        by_var.insert(var.clone(), flanks.len());
        flanks.push(FlankInfo {
            var: var.clone(),
            temp_field,
            index_field,
        });
    }

    // 4. Emit: index materialization + read flank before first access,
    //    rewritten statements, write flanks at the end.
    let mut out: Vec<Assign> = Vec::new();
    for (i, a) in stmts.iter().enumerate() {
        for (pos, var) in &vars_by_pos {
            if *pos == i {
                let fi = &flanks[by_var[var]];
                emit_read_flank(fi, index_expr.get(var), &param, &mut out);
            }
        }
        out.push(rewrite_assign(a, &flanks, &by_var, &param));
    }
    // Variables whose first access would be past the end (cannot happen,
    // but keep the loop total for empty bodies).
    for (pos, var) in &vars_by_pos {
        if *pos >= stmts.len() {
            let fi = &flanks[by_var[var]];
            emit_read_flank(fi, index_expr.get(var), &param, &mut out);
        }
    }
    for fi in &flanks {
        let temp = Expr::Field(param.clone(), fi.temp_field.clone(), Span::SYNTH);
        let lhs = match &fi.index_field {
            None => LValue::Scalar(fi.var.clone(), Span::SYNTH),
            Some(idx) => LValue::Array(
                fi.var.clone(),
                Box::new(Expr::Field(param.clone(), idx.clone(), Span::SYNTH)),
                Span::SYNTH,
            ),
        };
        out.push(Assign { lhs, rhs: temp });
    }

    Ok((out, flanks))
}

fn emit_read_flank(fi: &FlankInfo, idx_expr: Option<&Expr>, param: &str, out: &mut Vec<Assign>) {
    // Materialize a complex index expression once.
    if let (Some(idx_field), Some(expr)) = (&fi.index_field, idx_expr) {
        let already_a_field = matches!(expr, Expr::Field(_, f, _) if f == idx_field);
        if !already_a_field {
            out.push(Assign {
                lhs: LValue::Field(param.to_string(), idx_field.clone(), Span::SYNTH),
                rhs: expr.clone(),
            });
        }
    }
    let rhs = match &fi.index_field {
        None => Expr::Ident(fi.var.clone(), Span::SYNTH),
        Some(idx) => Expr::Index(
            fi.var.clone(),
            Box::new(Expr::Field(param.to_string(), idx.clone(), Span::SYNTH)),
            Span::SYNTH,
        ),
    };
    out.push(Assign {
        lhs: LValue::Field(param.to_string(), fi.temp_field.clone(), Span::SYNTH),
        rhs,
    });
}

/// Replaces state reads/writes in one statement with the flank temporaries.
fn rewrite_assign(
    a: &Assign,
    flanks: &[FlankInfo],
    by_var: &BTreeMap<String, usize>,
    param: &str,
) -> Assign {
    let temp_of = |var: &str| flanks[by_var[var]].temp_field.clone();
    let rhs = a.rhs.clone().map(&mut |e| match e {
        Expr::Ident(name, s) if by_var.contains_key(&name) => {
            Expr::Field(param.to_string(), temp_of(&name), s)
        }
        Expr::Index(name, _, s) if by_var.contains_key(&name) => {
            Expr::Field(param.to_string(), temp_of(&name), s)
        }
        other => other,
    });
    let lhs = match &a.lhs {
        LValue::Scalar(name, s) if by_var.contains_key(name) => {
            LValue::Field(param.to_string(), temp_of(name), *s)
        }
        LValue::Array(name, _, s) if by_var.contains_key(name) => {
            LValue::Field(param.to_string(), temp_of(name), *s)
        }
        other => other.clone(),
    };
    Assign { lhs, rhs }
}

/// Yields `(var, index_expr?)` for each state access in a statement.
fn state_accesses(a: &Assign) -> Vec<(String, Option<Expr>)> {
    let mut out = Vec::new();
    a.rhs.walk(&mut |e| match e {
        Expr::Ident(name, _) => out.push((name.clone(), None)),
        Expr::Index(name, idx, _) => out.push((name.clone(), Some((**idx).clone()))),
        _ => {}
    });
    match &a.lhs {
        LValue::Scalar(name, _) => out.push((name.clone(), None)),
        LValue::Array(name, idx, _) => out.push((name.clone(), Some((**idx).clone()))),
        LValue::Field(..) => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_removal::remove_branches;
    use domino_ast::parse_and_check;

    fn run(src: &str) -> (Vec<String>, Vec<FlankInfo>) {
        let p = parse_and_check(src).unwrap();
        let mut fresh = FreshNames::new(p.packet_fields.iter().cloned());
        let straight = remove_branches(&p.body, &mut fresh);
        let (flanked, infos) = rewrite_state_ops(&straight, &p, &mut fresh).unwrap();
        let lines = flanked
            .iter()
            .map(|a| format!("{} = {};", a.lhs, a.rhs))
            .collect();
        (lines, infos)
    }

    #[test]
    fn scalar_gets_read_and_write_flanks() {
        let (lines, infos) = run("struct P { int x; };\nint c = 0;\n\
             void f(struct P pkt) { c = c + pkt.x; }");
        assert_eq!(
            lines,
            vec![
                "pkt.c = c;",               // read flank
                "pkt.c = (pkt.c + pkt.x);", // rewritten
                "c = pkt.c;",               // write flank
            ]
        );
        assert_eq!(infos[0].temp_field, "c");
        assert_eq!(infos[0].index_field, None);
    }

    #[test]
    fn array_flanks_match_figure6() {
        let (lines, _) = run(
            "struct P { int id; int arrival; };\nint last_time[8] = {0};\n\
             void f(struct P pkt) {\n\
               pkt.id = 3;\n\
               last_time[pkt.id] = pkt.arrival;\n\
             }",
        );
        assert_eq!(
            lines,
            vec![
                "pkt.id = 3;",
                "pkt.last_time = last_time[pkt.id];", // read flank
                "pkt.last_time = pkt.arrival;",       // rewritten
                "last_time[pkt.id] = pkt.last_time;", // write flank
            ]
        );
    }

    #[test]
    fn reads_replaced_with_temp() {
        let (lines, _) = run("struct P { int id; int out; };\nint tbl[4] = {0};\n\
             void f(struct P pkt) { pkt.out = tbl[pkt.id] + 1; }");
        assert_eq!(
            lines,
            vec![
                "pkt.tbl = tbl[pkt.id];",
                "pkt.out = (pkt.tbl + 1);",
                "tbl[pkt.id] = pkt.tbl;",
            ]
        );
    }

    #[test]
    fn complex_index_is_materialized_once() {
        let (lines, infos) = run("struct P { int a; int out; };\nint tbl[16] = {0};\n\
             void f(struct P pkt) { pkt.out = tbl[pkt.a & 15]; }");
        assert_eq!(infos[0].index_field.as_deref(), Some("__idx_tbl"));
        assert_eq!(lines[0], "pkt.__idx_tbl = (pkt.a & 15);");
        assert_eq!(lines[1], "pkt.tbl = tbl[pkt.__idx_tbl];");
        assert_eq!(lines[3], "tbl[pkt.__idx_tbl] = pkt.tbl;");
    }

    #[test]
    fn flank_temp_avoids_colliding_field_name() {
        // The packet already has a field named like the state variable.
        let (lines, infos) = run("struct P { int c; };\nint c = 0;\n\
             void f(struct P pkt) { c = c + pkt.c; }");
        assert_eq!(infos[0].temp_field, "c_1");
        assert_eq!(lines[0], "pkt.c_1 = c;");
        assert_eq!(lines[2], "c = pkt.c_1;");
    }

    #[test]
    fn index_reassignment_after_first_access_rejected() {
        let p = parse_and_check(
            "struct P { int id; };\nint tbl[4] = {0};\n\
             void f(struct P pkt) { tbl[pkt.id] = 1; pkt.id = 2; }",
        )
        .unwrap();
        let mut fresh = FreshNames::new(p.packet_fields.iter().cloned());
        let straight = remove_branches(&p.body, &mut fresh);
        let err = rewrite_state_ops(&straight, &p, &mut fresh).unwrap_err();
        assert!(err.message.contains("must be constant"), "{}", err.message);
    }

    #[test]
    fn index_assignment_before_first_access_is_fine() {
        let (lines, _) = run("struct P { int id; };\nint tbl[4] = {0};\n\
             void f(struct P pkt) { pkt.id = 2; tbl[pkt.id] = 1; }");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn two_variables_flanked_independently() {
        let (lines, infos) = run(
            "struct P { int id; int v; };\nint a[4] = {0};\nint b = 0;\n\
             void f(struct P pkt) { a[pkt.id] = pkt.v; b = b + 1; }",
        );
        assert_eq!(infos.len(), 2);
        // Both write flanks are at the end.
        assert!(lines[lines.len() - 2].starts_with("a[pkt.id]"), "{lines:?}");
        assert!(lines[lines.len() - 1].starts_with("b ="), "{lines:?}");
    }

    #[test]
    fn flowlet_guarded_write_rewrites_to_temp() {
        let (lines, _) = run("#define THRESHOLD 5\n\
             struct P { int arrival; int new_hop; int id; int next_hop; };\n\
             int last_time[8] = {0};\nint saved_hop[8] = {0};\n\
             void f(struct P pkt) {\n\
               if (pkt.arrival - last_time[pkt.id] > THRESHOLD) {\n\
                 saved_hop[pkt.id] = pkt.new_hop;\n\
               }\n\
               last_time[pkt.id] = pkt.arrival;\n\
               pkt.next_hop = saved_hop[pkt.id];\n\
             }");
        let text = lines.join("\n");
        // The guarded write becomes a conditional on the temp.
        assert!(
            text.contains("pkt.saved_hop = (pkt.__br ? pkt.new_hop : pkt.saved_hop);"),
            "{text}"
        );
        // Write flanks for both arrays appear at the end.
        assert!(
            text.ends_with(
                "last_time[pkt.id] = pkt.last_time;\nsaved_hop[pkt.id] = pkt.saved_hop;"
            ) || text.ends_with(
                "saved_hop[pkt.id] = pkt.saved_hop;\nlast_time[pkt.id] = pkt.last_time;"
            ),
            "{text}"
        );
    }
}
