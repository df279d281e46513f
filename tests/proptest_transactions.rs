//! Property-based compiler fuzzing.
//!
//! Generates random (but valid) Domino packet transactions — straight-line
//! field arithmetic, guarded scalar/array state updates — compiles them
//! for the most expressive Banzai target, and checks the paper's central
//! theorem on random traces:
//!
//! > any visible state is equivalent to a serial execution of packet
//! > transactions across packets (§1)
//!
//! i.e. compiled-pipeline output ≡ sequential interpretation, in both the
//! one-packet-at-a-time and the cycle-accurate packets-in-flight modes.

use banzai::{AtomKind, Machine, SlotMachine, Target};
use domino_ir::{run_ast, Packet, StateStore};
use proptest::prelude::*;

/// Number of input fields every generated program declares.
const NUM_INPUTS: usize = 4;
/// Array size for the generated array state variable.
const ARRAY_SIZE: usize = 16;

/// A value operand available at a given point of the program.
#[derive(Debug, Clone)]
enum GenOperand {
    Input(usize),
    Temp(usize),
    Const(i32),
}

impl GenOperand {
    fn render(&self) -> String {
        match self {
            GenOperand::Input(i) => format!("pkt.in{i}"),
            GenOperand::Temp(i) => format!("pkt.t{i}"),
            GenOperand::Const(c) => format!("{c}"),
        }
    }
}

/// A small pure expression over available operands.
#[derive(Debug, Clone)]
enum GenExpr {
    Op(GenOperand),
    Bin(&'static str, GenOperand, GenOperand),
    Tern(GenOperand, GenOperand, GenOperand),
}

impl GenExpr {
    fn render(&self) -> String {
        match self {
            GenExpr::Op(o) => o.render(),
            GenExpr::Bin(op, a, b) => format!("{} {op} {}", a.render(), b.render()),
            GenExpr::Tern(c, a, b) => {
                format!("{} ? {} : {}", c.render(), a.render(), b.render())
            }
        }
    }
}

/// A state update in atom-friendly form.
#[derive(Debug, Clone)]
enum GenUpdate {
    Write(GenOperand),
    Add(GenOperand),
    Sub(GenOperand),
}

impl GenUpdate {
    fn render(&self, lhs: &str) -> String {
        match self {
            GenUpdate::Write(o) => format!("{lhs} = {};", o.render()),
            GenUpdate::Add(o) => format!("{lhs} = {lhs} + {};", o.render()),
            GenUpdate::Sub(o) => format!("{lhs} = {lhs} - {};", o.render()),
        }
    }
}

/// One generated statement.
#[derive(Debug, Clone)]
enum GenStmt {
    /// `pkt.t<n> = expr;` (n = next fresh temp)
    Field(GenExpr),
    /// optionally-guarded update of scalar `s<var>` or `arr[pkt.idx]`.
    State {
        array: bool,
        var: usize,
        update: GenUpdate,
        else_update: Option<GenUpdate>,
        guard: Option<GenExpr>,
    },
}

fn operand_strategy(temps: usize) -> impl Strategy<Value = GenOperand> {
    let mut opts = vec![
        (4, (0..NUM_INPUTS).prop_map(GenOperand::Input).boxed()),
        (2, (-20i32..20).prop_map(GenOperand::Const).boxed()),
    ];
    if temps > 0 {
        opts.push((3, (0..temps).prop_map(GenOperand::Temp).boxed()));
    }
    proptest::strategy::Union::new_weighted(opts)
}

fn expr_strategy(temps: usize) -> impl Strategy<Value = GenExpr> {
    let ops = prop_oneof![
        Just("+"),
        Just("-"),
        Just("&"),
        Just("|"),
        Just("^"),
        Just("<"),
        Just(">"),
        Just("=="),
        Just("!="),
        Just(">>"),
        Just("<<"),
    ];
    prop_oneof![
        2 => operand_strategy(temps).prop_map(GenExpr::Op),
        4 => (ops, operand_strategy(temps), operand_strategy(temps))
            .prop_map(|(op, a, b)| GenExpr::Bin(op, a, b)),
        1 => (operand_strategy(temps), operand_strategy(temps), operand_strategy(temps))
            .prop_map(|(c, a, b)| GenExpr::Tern(c, a, b)),
    ]
}

fn update_strategy(temps: usize) -> impl Strategy<Value = GenUpdate> {
    prop_oneof![
        operand_strategy(temps).prop_map(GenUpdate::Write),
        operand_strategy(temps).prop_map(GenUpdate::Add),
        operand_strategy(temps).prop_map(GenUpdate::Sub),
    ]
}

/// Generates a whole program: a statement plan where statement `i` may use
/// temps defined by statements `0..i`.
fn program_strategy() -> impl Strategy<Value = Vec<GenStmt>> {
    // Fixed shape: up to 8 statements; temp k is defined by the k-th
    // Field statement.
    proptest::collection::vec(any::<u8>(), 1..8).prop_flat_map(|shape| {
        let mut strategies: Vec<BoxedStrategy<GenStmt>> = Vec::new();
        let mut temps = 0usize;
        for tag in shape {
            match tag % 3 {
                0 => {
                    let s = expr_strategy(temps).prop_map(GenStmt::Field).boxed();
                    strategies.push(s);
                    temps += 1;
                }
                _ => {
                    let s = (
                        any::<bool>(),
                        0..2usize,
                        update_strategy(temps),
                        proptest::option::of(update_strategy(temps)),
                        proptest::option::of(expr_strategy(temps)),
                    )
                        .prop_map(|(array, var, update, else_update, guard)| GenStmt::State {
                            array,
                            var,
                            update,
                            else_update: if guard.is_some() { else_update } else { None },
                            guard,
                        })
                        .boxed();
                    strategies.push(s);
                }
            }
        }
        strategies
    })
}

/// Renders the plan to Domino source. Each array variable is indexed by a
/// dedicated input-derived field computed up front (Table 1 rule).
fn render(stmts: &[GenStmt]) -> String {
    let mut src = String::new();
    src.push_str("struct Packet {\n");
    for i in 0..NUM_INPUTS {
        src.push_str(&format!("  int in{i};\n"));
    }
    src.push_str("  int idx;\n");
    let temps = stmts
        .iter()
        .filter(|s| matches!(s, GenStmt::Field(_)))
        .count();
    for i in 0..temps {
        src.push_str(&format!("  int t{i};\n"));
    }
    src.push_str("};\n");
    src.push_str("int s0 = 0;\nint s1 = 5;\n");
    src.push_str(&format!("int arr0[{ARRAY_SIZE}] = {{0}};\n"));
    src.push_str(&format!("int arr1[{ARRAY_SIZE}] = {{1}};\n"));
    src.push_str("void generated(struct Packet pkt) {\n");
    src.push_str(&format!("  pkt.idx = pkt.in0 & {};\n", ARRAY_SIZE - 1));
    let mut temp = 0;
    for s in stmts {
        match s {
            GenStmt::Field(e) => {
                src.push_str(&format!("  pkt.t{temp} = {};\n", e.render()));
                temp += 1;
            }
            GenStmt::State {
                array,
                var,
                update,
                else_update,
                guard,
            } => {
                let lhs = if *array {
                    format!("arr{var}[pkt.idx]")
                } else {
                    format!("s{var}")
                };
                match guard {
                    None => src.push_str(&format!("  {}\n", update.render(&lhs))),
                    Some(g) => {
                        src.push_str(&format!("  if ({}) {{\n", g.render()));
                        src.push_str(&format!("    {}\n", update.render(&lhs)));
                        src.push_str("  }");
                        if let Some(e) = else_update {
                            src.push_str(" else {\n");
                            src.push_str(&format!("    {}\n", e.render(&lhs)));
                            src.push_str("  }");
                        }
                        src.push('\n');
                    }
                }
            }
        }
    }
    src.push_str("}\n");
    src
}

fn trace_strategy() -> impl Strategy<Value = Vec<Vec<i32>>> {
    proptest::collection::vec(proptest::collection::vec(-100i32..100, NUM_INPUTS), 1..60)
}

fn to_packets(rows: &[Vec<i32>], temps: usize) -> Vec<Packet> {
    rows.iter()
        .map(|row| {
            let mut p = Packet::new();
            for (i, v) in row.iter().enumerate() {
                p.set(&format!("in{i}"), *v);
            }
            p.set("idx", 0);
            for t in 0..temps {
                p.set(&format!("t{t}"), 0);
            }
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: for any generated transaction that the
    /// all-or-nothing compiler accepts, the compiled pipeline's observable
    /// behaviour equals serial execution — in both execution modes — and
    /// final state matches exactly.
    #[test]
    fn compiled_pipeline_equals_serial_semantics(
        stmts in program_strategy(),
        rows in trace_strategy(),
    ) {
        let src = render(&stmts);
        let checked = domino_ast::parse_and_check(&src)
            .unwrap_or_else(|e| panic!("generated program must check: {e}\n{src}"));

        // Compilation may legitimately reject (e.g. an update whose
        // operand chain exceeds single-ALU form) — all-or-nothing. Only
        // accepted programs are executed.
        let target = Target::banzai(AtomKind::Pairs);
        let Ok(pipeline) = domino_compiler::compile(&src, &target) else {
            return Ok(());
        };

        let temps = stmts.iter().filter(|s| matches!(s, GenStmt::Field(_))).count();
        let trace = to_packets(&rows, temps);

        let mut interp_state = StateStore::from_decls(&checked.state);
        let expected = run_ast(&checked, &mut interp_state, &trace);

        let mut m1 = Machine::new(pipeline.clone());
        let got_serial = m1.run_trace(&trace);
        let mut m2 = Machine::new(pipeline);
        let got_pipelined = m2.run_trace_pipelined(&trace);

        let fields = checked.packet_fields.clone();
        for (i, ((e, g), gp)) in
            expected.iter().zip(&got_serial).zip(&got_pipelined).enumerate()
        {
            prop_assert_eq!(
                e.project(&fields), g.project(&fields),
                "serial mismatch at packet {} for program:\n{}", i, src
            );
            prop_assert_eq!(
                g.project(&fields), gp.project(&fields),
                "pipelined mismatch at packet {} for program:\n{}", i, src
            );
        }
        prop_assert_eq!(m1.state(), &interp_state, "state mismatch:\n{}", src);
        prop_assert_eq!(m2.state(), &interp_state, "pipelined state mismatch:\n{}", src);
    }

    /// The paper's core guarantee, preserved on the new engine: for any
    /// generated transaction, slot-compiled *pipelined* execution (up to
    /// `depth` packets in flight, interned fields, flat state) is
    /// bit-identical to map-based *sequential* execution — full packets
    /// and exported state.
    #[test]
    fn slot_pipelined_equals_map_serial(
        stmts in program_strategy(),
        rows in trace_strategy(),
    ) {
        let src = render(&stmts);
        let target = Target::banzai(AtomKind::Pairs);
        let Ok(pipeline) = domino_compiler::compile(&src, &target) else {
            return Ok(());
        };

        let temps = stmts.iter().filter(|s| matches!(s, GenStmt::Field(_))).count();
        let trace = to_packets(&rows, temps);

        let mut map_machine = Machine::new(pipeline.clone());
        let map_serial = map_machine.run_trace(&trace);

        let mut slot_machine = SlotMachine::compile(&pipeline)
            .unwrap_or_else(|e| panic!("slot lowering failed: {e}\n{src}"));
        let slot_pipelined = slot_machine.run_trace_pipelined(&trace);

        prop_assert_eq!(
            &map_serial, &slot_pipelined,
            "slot pipelined vs map serial diverged for program:\n{}", src
        );
        prop_assert_eq!(
            map_machine.state(), &slot_machine.export_state(),
            "slot pipelined state diverged for program:\n{}", src
        );
    }

    /// Flow-steered sharding is invisible: for any generated transaction
    /// and any shard count, each shard's output subsequence equals the
    /// single-threaded slot engine's outputs at the positions steered to
    /// that shard, and the merged exported state is identical.
    /// Partitionable programs (array-only state, one index field) really
    /// fan out; programs with scalar state exercise the single-shard
    /// fallback — the equality must hold either way.
    #[test]
    fn sharded_equals_single_threaded_slot_engine(
        stmts in program_strategy(),
        rows in trace_strategy(),
        shards in 1usize..=8,
    ) {
        let src = render(&stmts);
        let checked = domino_ast::parse_and_check(&src)
            .unwrap_or_else(|e| panic!("generated program must check: {e}\n{src}"));
        let target = Target::banzai(AtomKind::Pairs);
        let Ok(pipeline) = domino_compiler::compile(&src, &target) else {
            return Ok(());
        };

        let temps = stmts.iter().filter(|s| matches!(s, GenStmt::Field(_))).count();
        let trace = to_packets(&rows, temps);

        let mut slot = SlotMachine::compile(&pipeline)
            .unwrap_or_else(|e| panic!("slot lowering failed: {e}\n{src}"));
        let serial = slot.run_trace(&trace);

        let egress = banzai::AtomPipeline::passthrough("egress");
        let mut sharded = banzai::ShardedSwitch::new_slot(
            &pipeline,
            &egress,
            banzai::ShardConfig::new(shards),
        )
        .unwrap_or_else(|e| panic!("sharded build failed: {e}\n{src}"));
        let parts = sharded.run(&trace).partitioned().unwrap();

        // Per-shard outputs == serial outputs at the steered positions
        // (projected onto declared fields: the switch adds queue
        // metadata the bare engine does not stamp).
        let fields = checked.packet_fields.clone();
        let assignment: Vec<usize> = trace
        .iter()
        .enumerate()
        .map(|(i, p)| sharded.plan().steer(i, p))
        .collect();
        for (s, part) in parts.iter().enumerate() {
            let mut cursor = 0usize;
            for (i, &shard) in assignment.iter().enumerate() {
                if shard != s {
                    continue;
                }
                prop_assert_eq!(
                    part[cursor].project(&fields),
                    serial[i].project(&fields),
                    "shard {}/{} diverged at input {} for program:\n{}",
                    s, shards, i, src
                );
                cursor += 1;
            }
            prop_assert_eq!(part.len(), cursor, "shard {} length:\n{}", s, src);
        }
        prop_assert_eq!(
            sharded.export_merged_ingress_state(),
            slot.export_state(),
            "merged state diverged ({} shards, fallback: {:?}):\n{}",
            shards, sharded.plan().fallback(), src
        );
    }

    /// Compilation is deterministic and the atom-kind ladder is monotone:
    /// a program accepted at kind K is accepted at every kind above K.
    #[test]
    fn target_ladder_is_monotone(stmts in program_strategy()) {
        let src = render(&stmts);
        let mut accepted_below = false;
        let mut results = Vec::new();
        for kind in AtomKind::ALL {
            let ok = domino_compiler::compile(&src, &Target::banzai(kind)).is_ok();
            results.push((kind, ok));
            if accepted_below {
                prop_assert!(
                    ok,
                    "ladder not monotone ({:?}): {:?}\n{}",
                    kind, results, src
                );
            }
            accepted_below |= ok;
        }
    }
}
