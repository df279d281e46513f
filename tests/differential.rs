//! End-to-end differential testing: for every Table 4 algorithm, the
//! compiled Banzai pipeline (on both execution engines), the sequential
//! reference interpreter, and the independent Rust reference
//! implementation must agree packet-for-packet on realistic workloads.
//!
//! This is the paper's core guarantee made executable: a packet
//! transaction's compiled pipeline is observably identical to serial
//! execution (§3), and our Domino sources faithfully implement the
//! published algorithms. The four ways:
//!
//! 1. map-based [`Machine`] (the semantic reference engine),
//! 2. the slot-compiled [`SlotMachine`] fast path,
//! 3. the sequential AST interpreter (the defining semantics),
//! 4. an independently written Rust reference implementation.

use banzai::{AtomPipeline, AtomRole, CompiledAtom, Machine, SlotMachine, Target};
use domino_ir::{run_ast, Packet, StateStore, StateValue};

const TRACE_LEN: usize = 800;
const SEED: u64 = 0x000D_0771_2016;

/// Compiles an algorithm on the least-expressive target the paper says it
/// needs and returns a machine.
fn machine_for(a: &algorithms::Algorithm) -> Machine {
    let target = a.least_target().expect("algorithm must map");
    let pipeline =
        domino_compiler::compile(a.source, &target).unwrap_or_else(|e| panic!("{}: {e}", a.name));
    Machine::new(pipeline)
}

/// Runs the four implementations and checks the designated output fields
/// and exported state.
fn differential(a: &algorithms::Algorithm) {
    let trace = a.trace(TRACE_LEN, SEED);

    // 1. Compiled pipeline on the map-based reference engine.
    let mut machine = machine_for(a);
    let machine_out = machine.run_trace(&trace);

    // 1b. The same pipeline on the slot-compiled fast path: bit-identical
    // to the reference engine, full-packet and state-for-state.
    let mut slot = SlotMachine::compile(machine.pipeline())
        .unwrap_or_else(|e| panic!("{}: slot lowering failed: {e}", a.name));
    let slot_out = slot.run_trace(&trace);
    for (i, (m, s)) in machine_out.iter().zip(&slot_out).enumerate() {
        assert_eq!(
            m, s,
            "{}: slot fast path diverges from map engine at packet {i}",
            a.name
        );
    }
    assert_eq!(
        *machine.state(),
        slot.export_state(),
        "{}: slot fast path state diverges from map engine",
        a.name
    );
    // What the engine executes is readable (`domc --emit layout`): one
    // listed stage per pipeline stage, every wired modulus by its value.
    let listing = slot.program().to_string();
    let stages = listing.lines().filter(|l| l.starts_with("stage ")).count();
    assert_eq!(stages, machine.pipeline().depth(), "{listing}");
    match a.name {
        "flowlet" => assert!(
            listing.contains(" mod 10\n") && listing.contains(" mod 8000\n"),
            "{listing}"
        ),
        "codel_lut" => assert_eq!(stages, 19, "{listing}"),
        _ => {}
    }

    // 2. Sequential AST interpreter (the defining semantics).
    let checked = domino_ast::parse_and_check(a.source).unwrap();
    let mut interp_state = StateStore::from_decls(&checked.state);
    let interp_out = run_ast(&checked, &mut interp_state, &trace);

    // 3. Independent Rust reference implementation.
    let mut reference = a.reference();
    let mut ref_out = Vec::with_capacity(trace.len());
    for p in &trace {
        let mut pkt = p.clone();
        reference.process(&mut pkt);
        ref_out.push(pkt);
    }

    for (i, ((m, s), r)) in machine_out
        .iter()
        .zip(&interp_out)
        .zip(&ref_out)
        .enumerate()
    {
        // Pipeline ≡ interpreter on *all* declared fields.
        let fields = checked.packet_fields.clone();
        assert_eq!(
            m.project(&fields),
            s.project(&fields),
            "{}: pipeline vs interpreter diverge at packet {i}",
            a.name
        );
        // Pipeline ≡ reference on the algorithm's output fields.
        for f in a.output_fields {
            assert_eq!(
                m.get_or_zero(f),
                r.get_or_zero(f),
                "{}: field `{f}` differs from reference at packet {i} (input {})",
                a.name,
                trace[i]
            );
        }
    }

    // State comparison: machine vs reference export.
    for (name, expected) in reference.export_state() {
        let got = machine
            .state()
            .get(&name)
            .unwrap_or_else(|| panic!("{}: machine has no state variable `{name}`", a.name));
        assert_eq!(got, &expected, "{}: state `{name}` differs", a.name);
    }

    // And machine state must equal interpreter state exactly.
    assert_eq!(
        machine.state(),
        &interp_state,
        "{}: machine vs interpreter state",
        a.name
    );
}

macro_rules! differential_test {
    ($name:ident) => {
        #[test]
        fn $name() {
            differential(&algorithms::by_name(stringify!($name)).unwrap());
        }
    };
}

differential_test!(bloom_filter);
differential_test!(heavy_hitters);
differential_test!(flowlet);
differential_test!(rcp);
differential_test!(sampled_netflow);
differential_test!(hull);
differential_test!(avq);
differential_test!(stfq);
differential_test!(dns_ttl_change);
differential_test!(conga);
differential_test!(codel_lut);

/// CoDel doesn't compile (Table 4: "Doesn't map"), but its *semantics* are
/// still defined — check the reference implementation against the
/// sequential interpreter.
#[test]
fn codel_reference_matches_interpreter() {
    let a = algorithms::by_name("codel").unwrap();
    let trace = a.trace(TRACE_LEN, SEED);
    let checked = domino_ast::parse_and_check(a.source).unwrap();
    let mut state = StateStore::from_decls(&checked.state);
    let interp_out = run_ast(&checked, &mut state, &trace);

    let mut reference = a.reference();
    for (i, p) in trace.iter().enumerate() {
        let mut pkt = p.clone();
        reference.process(&mut pkt);
        for f in a.output_fields {
            assert_eq!(
                pkt.get_or_zero(f),
                interp_out[i].get_or_zero(f),
                "codel: `{f}` at packet {i}"
            );
        }
    }
    for (name, expected) in reference.export_state() {
        match (state.get(&name).unwrap(), &expected) {
            (StateValue::Scalar(a), StateValue::Scalar(b)) => {
                assert_eq!(a, b, "codel state `{name}`")
            }
            (a, b) => assert_eq!(a, b, "codel state `{name}`"),
        }
    }
}

/// Cycle-accurate pipelined execution (packets in flight) must equal
/// serial transactional execution for every algorithm — the isolation
/// half of the packet-transaction guarantee.
#[test]
fn pipelined_equals_serial_for_all_algorithms() {
    for a in algorithms::TABLE4
        .iter()
        .filter(|a| a.paper.least_atom.is_some())
    {
        let trace = a.trace(300, SEED ^ 0x9e37);
        let mut m1 = machine_for(a);
        let mut m2 = machine_for(a);
        let serial = m1.run_trace(&trace);
        let pipelined = m2.run_trace_pipelined(&trace);
        assert_eq!(
            serial, pipelined,
            "{}: pipelining changed observable behaviour",
            a.name
        );
        assert_eq!(m1.state(), m2.state(), "{}: state diverged", a.name);

        // The guarantee holds on the fast path too: slot-compiled
        // pipelined execution equals map-based serial execution.
        let mut m3 = SlotMachine::compile(m1.pipeline()).unwrap();
        let slot_pipelined = m3.run_trace_pipelined(&trace);
        assert_eq!(
            serial, slot_pipelined,
            "{}: slot pipelining changed observable behaviour",
            a.name
        );
        assert_eq!(
            *m1.state(),
            m3.export_state(),
            "{}: slot pipelined state diverged",
            a.name
        );
        flat_paths_agree(m1.pipeline(), &trace);
    }
}

/// The slot engine's stage offsets are load-bearing: the cycle-accurate
/// flat replay (a stage's slice of the stream per clock) must equal the
/// transactional flat run (the whole stream per packet), slab for slab
/// and presence bit for presence bit, and both the map engine.
fn flat_paths_agree(pipeline: &AtomPipeline, trace: &[Packet]) {
    let name = &pipeline.name;
    let mut map = Machine::new(pipeline.clone());
    let mut serial = SlotMachine::compile(pipeline).unwrap();
    let mut pipelined = SlotMachine::compile(pipeline).unwrap();
    let flat = serial.flatten_trace(trace);
    let serial_out = serial.run_trace_flat(&flat);
    let pipelined_out = pipelined.run_trace_pipelined_flat(&flat);
    assert_eq!(serial_out, pipelined_out, "{name}: flat replay vs flat run");
    for ((input, want), got) in trace.iter().zip(map.run_trace(trace)).zip(&serial_out) {
        let mut merged = input.clone();
        serial.merge_back(got, &mut merged);
        assert_eq!(merged, want, "{name}: flat run vs map engine on {input}");
    }
    assert_eq!(
        *map.state(),
        serial.export_state(),
        "{name}: flat run state"
    );
    assert_eq!(
        *map.state(),
        pipelined.export_state(),
        "{name}: flat replay state"
    );
}

/// The corners lowering strength-reduces, on a pipeline no compiler
/// emitted: `% 0` (defined 0), a negative modulus, constant array indices
/// outside the window (both signs), an intrinsic that overwrites one of
/// its own arguments, and a deparser copy — three stages, so the replay
/// has packets in flight between them.
#[test]
fn hand_built_corner_pipeline_agrees_on_every_path() {
    use domino_ast::{BinOp, StateKind, StateVar};
    use domino_ir::{Codelet, Operand, StateRef, TacRhs, TacStmt};
    let field = |f: &str| Operand::Field(f.into());
    let assign = |dst: &str, rhs| TacStmt::Assign {
        dst: dst.into(),
        rhs,
    };
    let arr = |index| StateRef::Array {
        name: "arr".into(),
        index,
    };
    let atom = |stmts| {
        vec![CompiledAtom {
            codelet: Codelet::new(stmts),
            role: AtomRole::Stateless, // role is irrelevant to execution
        }]
    };
    let pipeline = AtomPipeline {
        name: "corners".into(),
        target_name: "test".into(),
        stages: vec![
            atom(vec![
                assign(
                    "zero",
                    TacRhs::Binary(BinOp::Mod, field("x"), Operand::Const(0)),
                ),
                assign(
                    "neg",
                    TacRhs::Binary(BinOp::Mod, field("x"), Operand::Const(-7)),
                ),
                assign("var", TacRhs::Binary(BinOp::Mod, field("x"), field("y"))),
            ]),
            atom(vec![
                TacStmt::ReadState {
                    dst: "old".into(),
                    state: arr(Operand::Const(9)),
                },
                TacStmt::WriteState {
                    state: arr(Operand::Const(-3)),
                    src: field("neg"),
                },
                TacStmt::WriteState {
                    state: arr(field("x")),
                    src: field("old"),
                },
            ]),
            atom(vec![
                assign(
                    "h",
                    TacRhs::Intrinsic {
                        name: "hash2".into(),
                        args: vec![field("h"), field("x")],
                        modulo: Some(-5),
                    },
                ),
                assign(
                    "x",
                    TacRhs::Intrinsic {
                        name: "isqrt".into(),
                        args: vec![field("x")],
                        modulo: Some(0),
                    },
                ),
                assign(
                    "y",
                    TacRhs::Intrinsic {
                        name: "codel_gap".into(),
                        args: vec![field("y"), Operand::Const(i32::MIN)],
                        modulo: None,
                    },
                ),
            ]),
        ],
        state_decls: vec![StateVar {
            name: "arr".into(),
            kind: StateKind::Array { size: 4 },
            init: 0,
        }],
        declared_fields: vec!["x".into(), "y".into(), "out".into()],
        output_map: vec![("out".into(), "h".into())],
    };
    let corners = [i32::MIN, -8, -1, 0, 1, 6, 7, 1 << 16, i32::MAX];
    let trace: Vec<Packet> = (corners.iter())
        .flat_map(|&x| corners.map(|y| Packet::new().with("x", x).with("y", y).with("h", x ^ y)))
        .collect();
    flat_paths_agree(&pipeline, &trace);
}

/// Every mapping algorithm compiles on the Pairs target (hierarchy
/// containment: the most expressive machine runs everything that maps).
#[test]
fn pairs_target_runs_all_mapping_algorithms() {
    let target = Target::banzai(banzai::AtomKind::Pairs);
    for a in algorithms::TABLE4
        .iter()
        .filter(|a| a.paper.least_atom.is_some())
    {
        domino_compiler::compile(a.source, &target).unwrap_or_else(|e| panic!("{}: {e}", a.name));
    }
}

/// And none of them compiles on a target *below* its least atom.
#[test]
fn below_least_atom_is_rejected() {
    use banzai::AtomKind;
    for a in algorithms::TABLE4.iter() {
        let Some(least) = a.paper.least_atom else {
            continue;
        };
        let below: Vec<AtomKind> = AtomKind::ALL.into_iter().filter(|k| *k < least).collect();
        for kind in below {
            assert!(
                domino_compiler::compile(a.source, &Target::banzai(kind)).is_err(),
                "{} unexpectedly compiled on {:?}",
                a.name,
                kind
            );
        }
    }
}
