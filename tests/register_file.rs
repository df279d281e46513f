//! A register file is made when its machine first runs.
//!
//! A slot engine's flat register file is allocated on the engine's first
//! packet, state import or pipelined replay; until then it holds only its
//! layout. None of that may be observable: a switch that has not run
//! exports its initialisers — non-zero ones included, like CONGA's
//! `best_path_util = INFINITE_UTIL` and `best_path = -1` — an import
//! before the first run takes effect, and a shard rebuilt after a fault
//! starts from the initialisers, exactly as a made file would.

use banzai::{
    AtomKind, AtomPipeline, FaultPlan, FaultyEngine, ShardConfig, ShardedSwitch, SlotMachine,
    Switch, SwitchError, Target,
};
use domino_ir::{Packet, StateStore, StateValue};

const CAPACITY: usize = 512;

/// CONGA on its least target, on both sides of the switch.
fn conga() -> AtomPipeline {
    let conga = algorithms::by_name("conga").expect("Table 4 lists CONGA");
    domino_compiler::compile(conga.source, &Target::banzai(AtomKind::Pairs)).unwrap()
}

fn trace(n: usize) -> Vec<Packet> {
    algorithms::by_name("conga").unwrap().trace(n, 36)
}

/// The declared initialisers, checked against the source's non-zero ones.
fn initialisers(pipeline: &AtomPipeline) -> StateStore {
    let inits = StateStore::from_decls(&pipeline.state_decls);
    let first = |name: &str| match inits.get(name) {
        Some(StateValue::Array(v)) => v[0],
        other => panic!("`{name}` is not an array: {other:?}"),
    };
    assert_ne!(first("best_path_util"), 0, "a non-zero initialiser");
    assert_eq!(first("best_path"), -1);
    inits
}

#[test]
fn machines_and_switches_that_never_ran_export_their_initialisers() {
    let conga = conga();
    let inits = initialisers(&conga);

    let machine = SlotMachine::compile(&conga).unwrap();
    assert_eq!(machine.export_state(), inits);

    let switch = Switch::new_slot(&conga, &conga, CAPACITY).unwrap();
    assert_eq!(switch.export_ingress_state(), inits);
    assert_eq!(switch.export_egress_state(), inits);

    let sharded = ShardedSwitch::new_slot(&conga, &conga, ShardConfig::new(2)).unwrap();
    assert_eq!(sharded.export_merged_ingress_state(), inits);
    assert_eq!(sharded.export_merged_egress_state(), inits);
    for (ingress, egress) in sharded.export_shard_states() {
        assert_eq!(ingress, inits);
        assert_eq!(egress, inits);
    }
}

#[test]
fn an_import_before_the_first_run_takes_effect() {
    let conga = conga();
    let trace = trace(400);
    // A warm snapshot: the reference engine's state after half the trace.
    let mut warm = Switch::new(conga.clone(), conga.clone(), CAPACITY);
    warm.run(&trace[..200]).collect().unwrap();
    let snapshot = warm.export_ingress_state();
    assert_ne!(snapshot, initialisers(&conga));

    let mut machine = SlotMachine::compile(&conga).unwrap();
    machine.import_state(&snapshot);
    assert_eq!(machine.export_state(), snapshot);

    // Both engines continue from the import, packet for packet.
    let mut slot = Switch::new_slot(&conga, &conga, CAPACITY).unwrap();
    slot.import_ingress_state(&snapshot);
    assert_eq!(slot.export_ingress_state(), snapshot);
    let mut reference = Switch::new(conga.clone(), conga.clone(), CAPACITY);
    reference.import_ingress_state(&snapshot);
    let rest = &trace[200..];
    assert_eq!(
        slot.run(rest).collect().unwrap(),
        reference.run(rest).collect().unwrap()
    );
    assert_eq!(
        slot.export_ingress_state(),
        reference.export_ingress_state()
    );
    // Which is where the uninterrupted run ends.
    warm.run(rest).collect().unwrap();
    assert_eq!(slot.export_ingress_state(), warm.export_ingress_state());

    // And a sharded switch's broadcast import, before any run.
    let mut sharded = ShardedSwitch::new_slot(&conga, &conga, ShardConfig::new(2)).unwrap();
    sharded.import_state(&snapshot, &initialisers(&conga));
    assert_eq!(sharded.export_merged_ingress_state(), snapshot);
}

#[test]
fn a_shard_rebuilt_after_a_fault_starts_from_the_initialisers() {
    let conga = conga();
    let inits = initialisers(&conga);
    let trace = trace(400);
    let cfg = ShardConfig::new(2).with_batch(8);
    let probe = ShardedSwitch::new_slot(&conga, &conga, cfg.clone()).unwrap();
    let victim = probe.plan().steer(0, &trace[0]);
    let faults = FaultPlan::kill(2, victim, 40);
    let mut schedules: Vec<_> = (0..2).map(|s| faults.faults_for(s).to_vec()).collect();
    let mut sharded: ShardedSwitch<FaultyEngine<SlotMachine>> =
        ShardedSwitch::new_with(&conga, &conga, cfg, |s, pipeline, table| {
            FaultyEngine::with_faults(pipeline, std::mem::take(&mut schedules[s]), table)
        })
        .unwrap();
    match sharded.run(&trace).collect() {
        Err(SwitchError::Fault(_)) => {}
        other => panic!("the armed shard did not fault: {other:?}"),
    }
    let states = sharded.export_shard_states();
    assert_eq!(states[victim].0, inits, "the rebuilt shard's ingress");
    assert_eq!(states[victim].1, inits, "the rebuilt shard's egress");
    assert_ne!(states[1 - victim].0, inits, "the survivor keeps its state");
}
