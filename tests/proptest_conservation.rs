//! Property: **packet conservation**. Every packet offered to a switch is
//! accounted for exactly once — transmitted, counted under a typed
//! [`DropReason`], or (on a faulted sharded run) attributed to the fault
//! in the salvage accounting. No configuration, trace, scheduling
//! interleave, or injected fault may create or leak packets:
//!
//! * fault-free sharded runs: `offered == transmitted + drops.total()`
//!   across random traces, shard counts 1..=8, queue capacities (including
//!   the pathological 0), batch/ring geometries, and both backpressure
//!   policies;
//! * the wire path (`run_frames`): every frame — valid, truncated,
//!   or garbage — is transmitted or counted under queue-full/parse;
//! * seeded-fault runs: a faulted run's [`Accounting`] balances
//!   (`offered == transmitted + dropped + lost_in_fault`), and a run the
//!   fault missed still balances on the live counters.

use banzai::wire::{self, FrameSpec, WireConfig};
use banzai::{
    AtomKind, AtomPipeline, Backpressure, FaultPlan, FaultyEngine, ShardConfig, ShardedSwitch,
    SlotMachine, Switch, SwitchError, Target,
};
use domino_ir::Packet;
use proptest::prelude::*;

/// A per-flow counter (partitionable: real fan-out at every shard count).
const COUNTER: &str = "struct P { int flow; int c; };\nint counts[64] = {0};\n\
                       void count(struct P pkt) {\n\
                         counts[pkt.flow] = counts[pkt.flow] + 1;\n\
                         pkt.c = counts[pkt.flow];\n\
                       }";

fn counter_pipeline() -> AtomPipeline {
    domino_compiler::compile(COUNTER, &Target::banzai(AtomKind::Raw)).unwrap()
}

fn to_trace(flows: &[i32]) -> Vec<Packet> {
    flows
        .iter()
        .map(|&f| Packet::new().with("flow", f).with("c", 0))
        .collect()
}

fn capacity_of(sel: usize) -> usize {
    [0, 1, 4, 512][sel]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fault-free threaded runs conserve for every geometry: transmitted
    /// packets plus counted drops equals the offered trace, and the
    /// output stream length equals the transmitted counter.
    #[test]
    fn sharded_run_conserves_packets(
        flows in proptest::collection::vec(0..64i32, 0..400),
        shards in 1..=8usize,
        cap in 0..=3usize,
        batch in 1..=64usize,
        ring in 1..=8usize,
        shed in any::<bool>(),
    ) {
        let ingress = counter_pipeline();
        let egress = AtomPipeline::passthrough("egress");
        let policy = if shed { Backpressure::Shed } else { Backpressure::Block };
        let cfg = ShardConfig::new(shards)
            .with_capacity(capacity_of(cap))
            .with_batch(batch)
            .with_ring(ring)
            .with_backpressure(policy);
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();

        let trace = to_trace(&flows);
        let out = sw.run(&trace).collect().expect("no faults armed");

        prop_assert_eq!(out.len() as u64, sw.transmitted());
        prop_assert_eq!(
            sw.transmitted() + sw.drops(),
            trace.len() as u64,
            "offered {} != transmitted {} + dropped {}",
            trace.len(), sw.transmitted(), sw.drops()
        );
        // Zero capacity tail-drops everything that reaches a shard queue.
        if capacity_of(cap) == 0 {
            prop_assert_eq!(sw.transmitted(), 0);
        }
    }
}

// Seeded one-victim fault plans: whether or not the fault actually
// fires (the seeded packet index may exceed what the victim is
// offered), the books must balance.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn faulted_run_accounting_balances(
        flows in proptest::collection::vec(0..64i32, 1..300),
        shards in 1..=8usize,
        batch in 1..=32usize,
        seed in 0..10_000i64,
    ) {
        let seed = seed as u64;
        let ingress = counter_pipeline();
        let egress = AtomPipeline::passthrough("egress");
        let trace = to_trace(&flows);
        let faults = FaultPlan::seeded(seed, shards, trace.len() as u64);
        let cfg = ShardConfig::new(shards).with_batch(batch);
        // Ingress (built first) takes the schedule; egress runs clean.
        let mut schedules: Vec<_> = (0..shards).map(|s| faults.faults_for(s).to_vec()).collect();
        let mut sw: ShardedSwitch<FaultyEngine<SlotMachine>> =
            ShardedSwitch::new_with(&ingress, &egress, cfg, |s, pipeline, table| {
                FaultyEngine::with_faults(pipeline, std::mem::take(&mut schedules[s]), table)
            })
            .unwrap();

        match sw.run(&trace).collect() {
            Ok(out) => {
                // The seeded fault landed past the victim's offered count.
                prop_assert_eq!(out.len() as u64 + sw.drops(), trace.len() as u64);
            }
            Err(SwitchError::Fault(report)) => {
                prop_assert_eq!(report.accounting.offered, trace.len() as u64);
                prop_assert!(
                    report.accounting.conserved(),
                    "books out of balance: {}", report.accounting
                );
                prop_assert_eq!(report.failures.len(), 1);
                // Salvage covers every shard exactly once, and per-shard
                // offered counts partition the trace.
                let offered_sum: u64 = report.salvage.iter().map(|s| s.offered).sum();
                prop_assert_eq!(offered_sum, trace.len() as u64);
            }
            Err(other) => prop_assert!(false, "unexpected error variant: {}", other),
        }
    }
}

/// A byte buffer that is sometimes a valid frame, sometimes a truncated
/// one, sometimes garbage — the wire path must account for all of them.
fn any_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Valid TCP frame carrying a random sport.
        2 => (0..60_000i32).prop_map(|sport| {
            wire::encode(
                &Packet::new().with("sport", sport),
                &WireConfig::new(),
                &FrameSpec::default(),
            )
        }),
        // Truncation of a valid frame (hits every Truncated* verdict).
        2 => (0..60_000i32, 0..70usize).prop_map(|(sport, cut)| {
            let f = wire::encode(
                &Packet::new().with("sport", sport),
                &WireConfig::new(),
                &FrameSpec::default(),
            );
            let keep = cut.min(f.len());
            f[..keep].to_vec()
        }),
        // Raw garbage.
        1 => proptest::collection::vec(any::<u8>(), 0..80),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Wire-path conservation: frames out + typed drops == frames in,
    /// with malformed frames landing under parse verdicts, never lost.
    #[test]
    fn wire_trace_conserves_frames(
        frames in proptest::collection::vec(any_frame(), 0..40),
        cap in 0..=2usize,
    ) {
        let capacity = [0, 1, 256][cap];
        let mut sw = Switch::new(
            AtomPipeline::passthrough("in"),
            AtomPipeline::passthrough("out"),
            capacity,
        );
        let cfg = WireConfig::new();
        let out = sw
            .run_frames(&frames, &cfg)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");
        prop_assert_eq!(out.len() as u64, sw.transmitted());
        prop_assert_eq!(
            sw.transmitted() + sw.drops(),
            frames.len() as u64,
            "offered {} != transmitted {} + dropped {}",
            frames.len(), sw.transmitted(), sw.drops()
        );
        // Drops split exactly into congestion + parse (no backpressure on
        // a serial switch).
        let c = sw.drop_counters();
        prop_assert_eq!(c.backpressure(), 0);
        prop_assert_eq!(c.queue_full() + c.parse_total(), c.total());
    }
}

/// A two-row count-min sketch with per-row salted hashes: distinct
/// index fields per row keep it out of the Exact tier, so it exercises
/// replica-mode sharding (full sketch copy per shard, merged at
/// collect).
const SKETCH: &str = "struct P { int sport; int dport; int h0; int h1; };\n\
                      int cms0[16] = {0};\n\
                      int cms1[32] = {0};\n\
                      void sketch(struct P pkt) {\n\
                        pkt.h0 = hash3(pkt.sport, pkt.dport, 1007) % 16;\n\
                        cms0[pkt.h0] = cms0[pkt.h0] + 1;\n\
                        pkt.h1 = hash3(pkt.sport, pkt.dport, 1014) % 32;\n\
                        cms1[pkt.h1] = cms1[pkt.h1] + 1;\n\
                      }";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replica-mode conservation: packets conserve exactly, and the
    /// merged sketch conserves *mass* — every update a packet carried
    /// is in the merged state, none created, none lost — plus the full
    /// sketch contract (`bench::sketch::verify_sketch`), at every
    /// geometry.
    #[test]
    fn replica_sharded_run_conserves_packets_and_mass(
        keys in proptest::collection::vec((0..9i32, 0..5i32), 0..300),
        shards in 1..=8usize,
        batch in 1..=64usize,
    ) {
        let ingress = domino_compiler::compile(SKETCH, &Target::banzai(AtomKind::Raw)).unwrap();
        let egress = AtomPipeline::passthrough("egress");
        let cfg = ShardConfig::new(shards).with_batch(batch);
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        prop_assert_eq!(sw.plan().tier(), banzai::ShardTier::Replicable);
        let spec = sw.plan().ingress_replica().unwrap().clone();

        let trace: Vec<Packet> = keys
            .iter()
            .map(|&(s, d)| {
                Packet::new()
                    .with("sport", s)
                    .with("dport", d)
                    .with("h0", 0)
                    .with("h1", 0)
            })
            .collect();
        let out = sw.run(&trace).collect().expect("no faults armed");
        prop_assert_eq!(out.len() as u64, sw.transmitted());
        prop_assert_eq!(sw.transmitted() + sw.drops(), trace.len() as u64);
        prop_assert_eq!(sw.drops(), 0, "line-rate run must not drop");

        // Mass conservation and the rest of the sketch contract on the
        // merged export (panics on violation).
        let merged = sw.export_merged_ingress_state();
        bench::sketch::verify_sketch(&spec, &trace, &merged, "replica conservation");
    }
}
