//! Property suite for the programmable scheduler (`banzai::pifo`).
//!
//! Three invariants, each over randomized geometry:
//!
//! * a PIFO is a **stable priority queue**: its pop sequence equals a
//!   stable sort of the admitted pushes by `(class, rank)` — arrival
//!   order breaking ties — for any rank distribution, tie density, and
//!   capacity, including under interleaved push/pop and under phased
//!   bursts and drains against a naive model;
//! * the sharded scheduling run ([`ShardedSwitch::run_sched_trace`]) is
//!   **bit-identical to serial** — departures, drop counters, and the
//!   state of a departure-order-sensitive egress — across disciplines,
//!   shard counts, capacities, and batch/ring geometries;
//! * **conservation under `SchedFull` pressure**: a rank scheduler at
//!   capacity `c` admits exactly `min(n, c)` of an `n`-packet burst and
//!   books the rest under the pinned `sched_full` reason, with
//!   `offered == transmitted + dropped` in every configuration.

use banzai::{
    AtomKind, AtomPipeline, DropReason, Pifo, SchedKey, SchedSpec, Scheduler, ShardConfig,
    ShardedSwitch, Switch, Target,
};
use domino_ir::Packet;
use proptest::prelude::*;

/// Per-flow counter: `c` is the flow's running packet count, so using it
/// as a rank produces dense cross-flow ties (every flow's k-th packet
/// shares rank k) — maximal tie-break stress.
const COUNTER: &str = "struct P { int flow; int c; };\nint counts[64] = {0};\n\
                       void count(struct P pkt) {\n\
                         counts[pkt.flow] = counts[pkt.flow] + 1;\n\
                         pkt.c = counts[pkt.flow];\n\
                       }";

/// Stateful egress whose outputs are prefix sums over the departure
/// sequence: any order or timing divergence corrupts `sum` and the
/// exported `total_sojourn` register.
const SOJOURN_EGRESS: &str = "struct P { int enq_ts; int now; int qdepth; int soj; int sum; };\n\
                              int total_sojourn = 0;\n\
                              void sojourn(struct P pkt) {\n\
                                pkt.soj = pkt.now - pkt.enq_ts;\n\
                                total_sojourn = total_sojourn + pkt.soj;\n\
                                pkt.sum = total_sojourn;\n\
                              }";

fn counter_pipeline() -> AtomPipeline {
    domino_compiler::compile(COUNTER, &Target::banzai(AtomKind::Raw)).unwrap()
}

fn sojourn_pipeline() -> AtomPipeline {
    domino_compiler::compile(SOJOURN_EGRESS, &Target::banzai(AtomKind::Raw)).unwrap()
}

fn to_trace(flows: &[i32]) -> Vec<Packet> {
    flows
        .iter()
        .map(|&f| {
            Packet::new()
                .with("flow", f)
                .with("cls", f % 3)
                .with("c", 0)
        })
        .collect()
}

fn spec_of(sel: usize) -> SchedSpec {
    match sel {
        0 => SchedSpec::Pifo { rank: "c".into() },
        1 => SchedSpec::Priority {
            class: "cls".into(),
            rank: "c".into(),
        },
        _ => SchedSpec::Shaping { rank: "c".into() },
    }
}

fn capacity_of(sel: usize) -> usize {
    [0, 1, 17, 512][sel]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pop order == stable sort of the admitted pushes. Small key
    /// domains force heavy ties; the capacity draw covers rejection
    /// (bounded PIFOs refuse new pushes rather than displace).
    #[test]
    fn pifo_pop_order_is_the_stable_sort_of_admitted_pushes(
        keys in proptest::collection::vec((0..3i64, 0..6i64), 0..120),
        cap_frac in 0..=100usize,
    ) {
        let capacity = keys.len() * cap_frac / 100;
        let mut pifo: Pifo<usize> = Pifo::bounded(capacity);
        let mut admitted: Vec<(SchedKey, usize)> = Vec::new();
        for (i, &(class, rank)) in keys.iter().enumerate() {
            let key = SchedKey { class, rank };
            if pifo.push(key, i).is_ok() {
                admitted.push((key, i));
            }
        }
        prop_assert_eq!(admitted.len(), keys.len().min(capacity));

        let mut oracle = admitted;
        oracle.sort_by_key(|&(key, _)| key); // sort_by_key is stable: arrival breaks ties
        let mut popped = Vec::new();
        while let Some(entry) = pifo.pop() {
            popped.push(entry);
        }
        prop_assert_eq!(popped, oracle);
    }

    /// Interleaved push/pop against a naive model: at every step the
    /// PIFO pops the globally minimal (class, rank, arrival) element.
    #[test]
    fn pifo_interleaved_ops_match_the_naive_model(
        ops in proptest::collection::vec(
            proptest::option::of((0..4i64, 0..8i64)), 0..200),
    ) {
        let mut pifo: Pifo<u64> = Pifo::unbounded();
        let mut model: Vec<(SchedKey, u64)> = Vec::new();
        let mut seq = 0u64;
        for op in ops {
            match op {
                Some((class, rank)) => {
                    let key = SchedKey { class, rank };
                    prop_assert!(pifo.push(key, seq).is_ok());
                    model.push((key, seq));
                    seq += 1;
                }
                None => {
                    let expected = model
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(key, s))| (key, s))
                        .map(|(i, _)| i)
                        .map(|i| model.remove(i));
                    prop_assert_eq!(pifo.pop(), expected);
                }
            }
            prop_assert_eq!(pifo.len(), model.len());
        }
    }

    /// Phased bursts against the naive model: each phase pushes a burst
    /// from a small key domain, then pops up to as many, so the queue runs
    /// deep and a `Pifo` sorts with both its sorted run and its heap of
    /// late arrivals full — which a 50/50 interleaving never reaches. At
    /// every step `peek_key` names the next pop, and `len` and each
    /// refusal match the model.
    #[test]
    fn pifo_phased_bursts_match_the_naive_model(
        phases in proptest::collection::vec(
            (proptest::collection::vec((0..3i64, 0..6i64), 0..=64), 0..=64usize),
            0..8),
        capacity in 0..=160usize,
    ) {
        let mut pifo: Pifo<u64> = Pifo::bounded(capacity);
        let mut model: Vec<(SchedKey, u64)> = Vec::new();
        let mut seq = 0u64;
        for (burst, drain) in phases {
            for (class, rank) in burst {
                let key = SchedKey { class, rank };
                let admitted = model.len() < capacity;
                let expected = if admitted { Ok(()) } else { Err(seq) };
                prop_assert_eq!(pifo.push(key, seq), expected);
                if admitted {
                    model.push((key, seq));
                }
                seq += 1;
                prop_assert_eq!(pifo.len(), model.len());
            }
            for _ in 0..drain {
                let next = model
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &entry)| entry)
                    .map(|(i, _)| i)
                    .map(|i| model.remove(i));
                let next_key = next.map(|(key, _)| key);
                prop_assert_eq!(pifo.peek_key(), next_key);
                prop_assert_eq!(pifo.pop(), next);
                prop_assert_eq!(pifo.len(), model.len());
            }
        }
    }

    /// The sharded scheduling run reproduces the serial one bit-for-bit:
    /// same departures (packets, keys, arrival and departure cycles),
    /// same typed drop counters, same egress register state — for every
    /// discipline, shard count, capacity, and feeder geometry.
    #[test]
    fn sharded_sched_run_is_bit_identical_to_serial(
        flows in proptest::collection::vec(0..64i32, 0..300),
        shards in 1..=6usize,
        spec_sel in 0..3usize,
        cap in 0..=3usize,
        batch in 1..=64usize,
        ring in 1..=8usize,
    ) {
        let ingress = counter_pipeline();
        let egress = sojourn_pipeline();
        let spec = spec_of(spec_sel);
        let capacity = capacity_of(cap);
        let trace = to_trace(&flows);

        let mut serial = Switch::new_slot(&ingress, &egress, capacity)
            .unwrap()
            .with_scheduler(spec.clone());
        let serial_out = serial.run(&trace).scheduled().collect()
        .expect("slice-backed sources cannot fail mid-stream");

        let cfg = ShardConfig::new(shards)
            .with_capacity(capacity)
            .with_batch(batch)
            .with_ring(ring)
            .with_scheduler(spec);
        let mut sharded = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let sharded_out = sharded.run(&trace).scheduled().collect().expect("no faults armed");

        prop_assert_eq!(sharded_out, serial_out);
        prop_assert_eq!(sharded.transmitted(), serial.transmitted());
        prop_assert_eq!(sharded.drop_counters(), serial.drop_counters().clone());
        prop_assert_eq!(
            sharded.export_sched_egress_state(),
            serial.export_egress_state()
        );
    }

    /// Conservation under overflow pressure: a burst longer than the
    /// queue admits exactly `capacity` packets; the overflow is booked
    /// under `sched_full` (never `queue_full`) and the ledger balances.
    #[test]
    fn sched_full_pressure_conserves_packets(
        n in 0..250usize,
        shards in 1..=6usize,
        spec_sel in 0..3usize,
        cap in 0..=3usize,
    ) {
        let ingress = counter_pipeline();
        let egress = sojourn_pipeline();
        let capacity = capacity_of(cap);
        let flows: Vec<i32> = (0..n).map(|i| (i % 64) as i32).collect();
        let trace = to_trace(&flows);

        let cfg = ShardConfig::new(shards)
            .with_capacity(capacity)
            .with_scheduler(spec_of(spec_sel));
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let out = sw.run(&trace).scheduled().collect().expect("no faults armed");

        let admitted = n.min(capacity);
        prop_assert_eq!(out.len(), admitted);
        prop_assert_eq!(sw.transmitted(), admitted as u64);
        let counters = sw.drop_counters();
        prop_assert_eq!(counters.get(DropReason::SchedFull), (n - admitted) as u64);
        prop_assert_eq!(counters.get(DropReason::QueueFull), 0);
        prop_assert_eq!(sw.transmitted() + sw.drops(), n as u64);
    }
}
