//! RTL emission across the whole algorithm suite: every stateful atom the
//! compiler synthesizes for the Table 4 programs must emit a
//! well-structured Verilog module (one register block, one clocked
//! process, every packet operand a port), whose registers reset to the
//! values the program declares.

use banzai::atom::StatefulConfig;
use banzai::{AtomPipeline, AtomRole, Target};
use hardware_model::emit_verilog;

/// Each register's declared initial value, in `config.state_refs` order.
fn initial_values(pipeline: &AtomPipeline, config: &StatefulConfig) -> Vec<i32> {
    (config.state_refs.iter())
        .map(|r| {
            let decl = pipeline.state_decls.iter().find(|d| d.name == r.name());
            decl.expect("every state reference is declared").init
        })
        .collect()
}

/// The stateful atoms of `algo` compiled for its least target, each with
/// its module emitted.
fn modules(algo: &str) -> Vec<(StatefulConfig, String)> {
    let algo = algorithms::by_name(algo).unwrap();
    let target = algo.least_target().unwrap();
    let pipeline = domino_compiler::compile(algo.source, &target).unwrap();
    (pipeline.stages.iter().flatten())
        .filter_map(|a| match &a.role {
            AtomRole::Stateful { config, .. } => Some(config.clone()),
            _ => None,
        })
        .map(|config| {
            let v = emit_verilog(algo.name, &config, &initial_values(&pipeline, &config));
            (config, v)
        })
        .collect()
}

#[test]
fn every_synthesized_atom_emits_verilog() {
    let mut modules = 0;
    for algo in algorithms::TABLE4.iter() {
        let Some(kind) = algo.paper.least_atom else {
            continue;
        };
        let pipeline = domino_compiler::compile(algo.source, &Target::banzai(kind)).unwrap();
        for (si, stage) in pipeline.stages.iter().enumerate() {
            for (ai, atom) in stage.iter().enumerate() {
                let AtomRole::Stateful { config, .. } = &atom.role else {
                    continue;
                };
                let name = format!("{}_s{}_a{}", algo.name, si + 1, ai + 1);
                let v = emit_verilog(&name, config, &initial_values(&pipeline, config));
                assert_eq!(v.matches("module ").count(), 1, "{name}:\n{v}");
                assert_eq!(v.matches("endmodule").count(), 1, "{name}");
                assert_eq!(v.matches("always @(posedge clk)").count(), 1, "{name}");
                // Every state variable of the codelet has a register and
                // a next-state net.
                for i in 0..config.state_refs.len() {
                    assert!(v.contains(&format!("reg [31:0] state{i};")), "{name}:\n{v}");
                    assert!(
                        v.contains(&format!("wire [31:0] next_state{i}")),
                        "{name}:\n{v}"
                    );
                    assert!(v.contains(&format!("state{i} <= INIT{i};")), "{name}:\n{v}");
                }
                modules += 1;
            }
        }
    }
    // The suite contains a healthy number of distinct stateful atoms.
    assert!(modules >= 15, "only {modules} stateful atoms emitted");
}

#[test]
fn conga_pairs_atom_emits_dual_register_module() {
    let conga = modules("conga");
    let (config, v) = conga.first().expect("conga has a stateful atom");
    assert_eq!(config.state_refs.len(), 2, "CONGA updates a pair");
    assert!(v.contains("reg [31:0] state0;"), "{v}");
    assert!(v.contains("reg [31:0] state1;"), "{v}");
    // The guard of one variable references the other ($signed compare on
    // a state register).
    assert!(v.contains("$signed(state0)"), "{v}");
}

/// A register resets to what the program declares, not to 0: AVQ's
/// virtual capacity starts at 1000, and CONGA's best path starts at
/// utilisation `INFINITE_UTIL` on no path (-1).
#[test]
fn registers_reset_to_their_declared_initial_values() {
    let avq = modules("avq");
    let (config, v) = (avq.iter())
        .find(|(c, _)| c.state_refs.iter().any(|r| r.name() == "vcap"))
        .expect("avq has an atom holding vcap");
    assert_resets_to(config, v, "vcap", "32'h000003e8");

    let conga = modules("conga");
    let (config, v) = &conga[0];
    assert_resets_to(config, v, "best_path_util", "32'h7fffffff");
    assert_resets_to(config, v, "best_path", "32'hffffffff");
}

/// Asserts that the register holding `name` in `v` resets to `init`.
fn assert_resets_to(config: &StatefulConfig, v: &str, name: &str, init: &str) {
    let i = config.state_refs.iter().position(|r| r.name() == name);
    let i = i.unwrap_or_else(|| panic!("no register holds {name}:\n{v}"));
    assert!(
        v.contains(&format!("parameter [31:0] INIT{i} = {init};")),
        "{v}"
    );
    assert!(v.contains(&format!("state{i} <= INIT{i};")), "{v}");
}
