//! Pass 3 — static single-assignment form (Figure 7, §4.1).
//!
//! Every packet field is assigned exactly once: each assignment to a field
//! creates a new version (`pkt.id` → `pkt.id0`, `pkt.last_time` →
//! `pkt.last_time0`, `pkt.last_time1`, ...), and subsequent reads use the
//! latest version. Because the code is straight-line (no branches, no φ
//! nodes needed), this removes all Write-After-Read and Write-After-Write
//! dependencies; only Read-After-Write dependencies remain for the
//! pipeliner.
//!
//! The *final* version of each declared packet field is recorded in the
//! output map — the deparser view that the Banzai machine applies when a
//! packet leaves the pipeline.

use crate::branch_removal::Assign;
use crate::fresh::FreshNames;
use domino_ast::ast::{Expr, LValue};
use std::collections::BTreeMap;

/// Result of SSA conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct SsaResult {
    /// The renamed statements.
    pub stmts: Vec<Assign>,
    /// For each field ever assigned: its final version name.
    pub final_version: BTreeMap<String, String>,
}

/// Converts straight-line, flanked statements to SSA form.
pub fn to_ssa(stmts: &[Assign], fresh: &mut FreshNames) -> SsaResult {
    // current[f] = name holding f's latest value (defaults to f itself,
    // i.e. the value the packet arrived with).
    let mut current: BTreeMap<String, String> = BTreeMap::new();
    // next version number per field.
    let mut next: BTreeMap<String, u32> = BTreeMap::new();

    let mut out = Vec::with_capacity(stmts.len());
    for a in stmts {
        // Rewrite reads first (RHS and any array-index expressions).
        let rhs = rename_reads(a.rhs.clone(), &current);
        let lhs = match &a.lhs {
            LValue::Field(base, f, s) => {
                let n = next.entry(f.clone()).or_insert(0);
                let (versioned, new_next) = fresh.fresh_numbered(f, *n);
                *n = new_next;
                current.insert(f.clone(), versioned.clone());
                LValue::Field(base.clone(), versioned, *s)
            }
            // Write flanks: the state name is not versioned, but its index
            // expression is a read.
            LValue::Array(name, idx, s) => LValue::Array(
                name.clone(),
                Box::new(rename_reads((**idx).clone(), &current)),
                *s,
            ),
            LValue::Scalar(name, s) => LValue::Scalar(name.clone(), *s),
        };
        out.push(Assign { lhs, rhs });
    }

    SsaResult {
        stmts: out,
        final_version: current,
    }
}

fn rename_reads(e: Expr, current: &BTreeMap<String, String>) -> Expr {
    e.map(&mut |e| match e {
        Expr::Field(base, f, s) => {
            let name = current.get(&f).cloned().unwrap_or(f);
            Expr::Field(base, name, s)
        }
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_removal::remove_branches;
    use crate::state_flank::rewrite_state_ops;
    use domino_ast::parse_and_check;

    fn run(src: &str) -> (Vec<String>, BTreeMap<String, String>) {
        let p = parse_and_check(src).unwrap();
        let mut fresh = FreshNames::new(p.packet_fields.iter().cloned());
        let straight = remove_branches(&p.body, &mut fresh);
        let (flanked, _) = rewrite_state_ops(&straight, &p, &mut fresh).unwrap();
        let ssa = to_ssa(&flanked, &mut fresh);
        let lines = ssa
            .stmts
            .iter()
            .map(|a| format!("{} = {};", a.lhs, a.rhs))
            .collect();
        (lines, ssa.final_version)
    }

    #[test]
    fn versions_match_figure7_style() {
        let (lines, finals) = run(
            "struct P { int id; int arrival; };\nint last_time[8] = {0};\n\
             void f(struct P pkt) {\n\
               pkt.id = 3;\n\
               last_time[pkt.id] = pkt.arrival;\n\
             }",
        );
        assert_eq!(
            lines,
            vec![
                "pkt.id0 = 3;",
                "pkt.last_time0 = last_time[pkt.id0];",
                "pkt.last_time1 = pkt.arrival;",
                "last_time[pkt.id0] = pkt.last_time1;",
            ]
        );
        assert_eq!(finals["id"], "id0");
        assert_eq!(finals["last_time"], "last_time1");
    }

    #[test]
    fn every_field_assigned_once() {
        let (lines, _) = run("struct P { int a; int r; };\n\
             void f(struct P pkt) { pkt.r = pkt.a; pkt.r = pkt.r + 1; pkt.r = pkt.r + 2; }");
        // Collect assignment targets; no duplicates allowed.
        let mut targets: Vec<&str> = lines
            .iter()
            .map(|l| l.split(" = ").next().unwrap())
            .collect();
        let before = targets.len();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), before, "{lines:?}");
    }

    #[test]
    fn reads_use_latest_version() {
        let (lines, _) = run("struct P { int a; int r; };\n\
             void f(struct P pkt) { pkt.r = pkt.a; pkt.r = pkt.r + 1; }");
        assert_eq!(lines[1], "pkt.r1 = (pkt.r0 + 1);");
    }

    #[test]
    fn unassigned_inputs_keep_their_names() {
        let (lines, finals) =
            run("struct P { int a; int r; };\nvoid f(struct P pkt) { pkt.r = pkt.a + 1; }");
        assert_eq!(lines, vec!["pkt.r0 = (pkt.a + 1);"]);
        assert!(!finals.contains_key("a"));
    }

    #[test]
    fn write_flank_reads_final_temp_version() {
        let (lines, _) = run("struct P { int x; };\nint c = 0;\n\
             void f(struct P pkt) { c = c + pkt.x; c = c + 1; }");
        assert_eq!(
            lines,
            vec![
                "pkt.c0 = c;",
                "pkt.c1 = (pkt.c0 + pkt.x);",
                "pkt.c2 = (pkt.c1 + 1);",
                "c = pkt.c2;",
            ]
        );
    }

    #[test]
    fn collision_with_existing_numbered_name_skipped() {
        // User declares a field literally named `a0`; SSA must not reuse it.
        let (lines, _) =
            run("struct P { int a; int a0; };\nvoid f(struct P pkt) { pkt.a = pkt.a0; }");
        assert_eq!(lines, vec!["pkt.a1 = pkt.a0;"]);
    }
}
