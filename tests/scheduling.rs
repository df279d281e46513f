//! Scheduling-invariant golden suite for the programmable scheduler
//! (`banzai::pifo`, experiment E13).
//!
//! A Domino transaction computes each packet's *rank*; the configured
//! [`SchedSpec`] turns ranks into departure order. These goldens pin the
//! observable scheduling behaviour of that split on both the serial
//! [`Switch`] and the multi-core [`ShardedSwitch`] (which must be
//! bit-identical to serial):
//!
//! * **WFQ fairness** — `stfq` ranks drain a backlogged burst
//!   byte-by-byte fair: on a maximally unfair (flow-major) arrival
//!   order, every pair of still-backlogged flows stays within one
//!   maximum packet of each other at every departure;
//! * **strict priority exactness** — under `Priority{class, rank}` no
//!   packet ever departs before a co-resident packet of a lower class;
//! * **shaping departure times** — the token-bucket pacer's
//!   earliest-departure ranks are enforced as actual departure *cycles*,
//!   pinned exactly;
//! * **strict priority over WFQ** — `Priority{class, rank}` departs in
//!   the order of a `(class, rank, arrival)` stable sort computed apart
//!   from the switch, with overflow counted under the pinned `sched_full`
//!   reason.
//!
//! Like `tests/drop_reasons.rs`, pinned vectors are append-only: a
//! failure here means the scheduler's exported behaviour moved.

use algorithms::sched;
use banzai::{
    AtomPipeline, SchedDeparture, SchedSpec, ShardConfig, ShardPlan, ShardedSwitch, SteerMode,
    Switch, Target,
};
use domino_ir::Packet;

const SEED: u64 = 0x0913_F012_2016;

/// One maximum-size packet (trace lengths are drawn from 64..1500): the
/// fairness slack WFQ is allowed.
const MAX_PKT: i32 = 1500;

fn compile(source: &str, kind: banzai::AtomKind) -> AtomPipeline {
    domino_compiler::compile(source, &Target::banzai(kind)).unwrap()
}

fn stfq_pipeline() -> AtomPipeline {
    let a = algorithms::by_name("stfq").unwrap();
    compile(a.source, a.paper.least_atom.unwrap())
}

fn pacer_pipeline() -> AtomPipeline {
    compile(sched::PACER_SOURCE, banzai::AtomKind::Nested)
}

/// A stateful egress whose outputs depend on the exact departure order
/// and times (prefix sums of sojourn): any scheduling divergence between
/// serial and sharded runs shows up in `sum` and in exported state.
const SOJOURN_EGRESS: &str = "struct P { int enq_ts; int now; int qdepth; int soj; int sum; };\n\
                              int total_sojourn = 0;\n\
                              void sojourn(struct P pkt) {\n\
                                pkt.soj = pkt.now - pkt.enq_ts;\n\
                                total_sojourn = total_sojourn + pkt.soj;\n\
                                pkt.sum = total_sojourn;\n\
                              }";

fn sojourn_egress() -> AtomPipeline {
    compile(SOJOURN_EGRESS, banzai::AtomKind::Raw)
}

/// A keyed stateful egress: per-flow prefix sums of sojourn, indexed as
/// `flows`-flow ingress programs index theirs (`pkt.flow & (flows - 1)`),
/// so its key agrees with the ingress's and the plan keeps every shard.
fn keyed_sojourn_egress(flows: u32) -> AtomPipeline {
    let source = format!(
        "#define NUM_FLOWS {flows}\n\
         struct P {{ int flow; int idx; int enq_ts; int now; int soj; int sum; }};\n\
         int sums[NUM_FLOWS] = {{0}};\n\
         void keyed_sojourn(struct P pkt) {{\n\
           pkt.idx = pkt.flow & (NUM_FLOWS - 1);\n\
           pkt.soj = pkt.now - pkt.enq_ts;\n\
           sums[pkt.idx] = sums[pkt.idx] + pkt.soj;\n\
           pkt.sum = sums[pkt.idx];\n\
         }}"
    );
    compile(&source, banzai::AtomKind::Raw)
}

/// Runs the same sched trace serial and 4-way sharded, asserts the
/// sharded run is bit-identical (departures, counters, egress state),
/// and returns the serial departures. Two arms: `egress` (the scalar
/// sojourn register, which falls the plan back to one shard) and a
/// keyed egress on the ingress's own flow key, which runs on all four.
fn serial_and_sharded(
    label: &str,
    ingress: &AtomPipeline,
    egress: &AtomPipeline,
    spec: SchedSpec,
    capacity: usize,
    trace: &[Packet],
) -> Vec<SchedDeparture> {
    let passthrough = AtomPipeline::passthrough("out");
    let key = ShardPlan::plan(ingress, &passthrough, 4, &SteerMode::Auto);
    let keyed = keyed_sojourn_egress(key.flow_key().expect("a keyed ingress").modulus());
    let mut departures = Vec::new();
    for (egress, shards) in [(egress, 1), (&keyed, 4)] {
        let label = format!("{label}, egress `{}`", egress.name);
        let mut serial = Switch::new_slot(ingress, egress, capacity)
            .unwrap()
            .with_scheduler(spec.clone());
        let serial_out = serial
            .run(trace)
            .scheduled()
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");

        let cfg = ShardConfig::new(4)
            .with_capacity(capacity)
            .with_scheduler(spec.clone());
        let mut sharded = ShardedSwitch::new_slot(ingress, egress, cfg).unwrap();
        assert_eq!(
            sharded.plan().effective(),
            shards,
            "{label}: {}",
            sharded.plan()
        );
        let sharded_out = sharded.run(trace).scheduled().collect().unwrap();

        assert_eq!(
            sharded_out, serial_out,
            "{label}: sharded departures diverged from serial"
        );
        assert_eq!(sharded.transmitted(), serial.transmitted(), "{label}");
        assert_eq!(
            sharded.drop_counters(),
            serial.drop_counters().clone(),
            "{label}: drop counters diverged"
        );
        assert_eq!(
            sharded.export_merged_egress_state(),
            serial.export_egress_state(),
            "{label}: egress state diverged"
        );
        departures.push(serial_out);
    }
    departures.swap_remove(0)
}

#[test]
fn wfq_fairness_within_one_max_packet_on_adversarial_interleaving() {
    // Flow-major arrival order: all of flow 0's packets, then flow 1's…
    // — the most unfair arrival order there is. All virtual times are 0,
    // so stfq's `start` rank is each flow's cumulative byte count and a
    // rank-ordered drain must interleave the flows byte-fairly.
    const FLOWS: usize = 6;
    const PER_FLOW: usize = 40;
    let trace = sched::backlogged_burst(FLOWS, PER_FLOW, SEED);
    let deps = serial_and_sharded(
        "wfq",
        &stfq_pipeline(),
        &sojourn_egress(),
        SchedSpec::Pifo {
            rank: "start".into(),
        },
        trace.len(),
        &trace,
    );
    assert_eq!(deps.len(), trace.len(), "lossless at full capacity");

    let mut served = [0i64; FLOWS]; // bytes transmitted so far
    let mut remaining = [PER_FLOW; FLOWS];
    for d in &deps {
        let flow = d.pkt.expect("flow") as usize;
        served[flow] += i64::from(d.pkt.expect("length"));
        remaining[flow] -= 1;
        // Every pair of flows that both still have packets queued must
        // be within one maximum packet of each other — the SFQ bound.
        for a in 0..FLOWS {
            for b in (a + 1)..FLOWS {
                if remaining[a] > 0 && remaining[b] > 0 {
                    assert!(
                        (served[a] - served[b]).abs() <= i64::from(MAX_PKT),
                        "after departure of arrival {}: flow {a} served {} vs \
                         flow {b} served {} — more than one max packet apart",
                        d.arrival,
                        served[a],
                        served[b],
                    );
                }
            }
        }
    }
}

#[test]
fn strict_priority_is_exact_and_wfq_within_class() {
    let trace = sched::classed_stfq_trace(300, 3, SEED);
    let deps = serial_and_sharded(
        "priority",
        &stfq_pipeline(),
        &sojourn_egress(),
        SchedSpec::Priority {
            class: "class".into(),
            rank: "start".into(),
        },
        trace.len(),
        &trace,
    );
    assert_eq!(deps.len(), trace.len());

    // All packets are co-resident (one burst), so priority is absolute:
    // classes depart in nondecreasing order, ranks nondecreasing within
    // a class, arrival order breaking rank ties.
    for w in deps.windows(2) {
        assert!(
            (w[0].key, w[0].arrival) < (w[1].key, w[1].arrival),
            "departure order must be strictly increasing in \
             (class, rank, arrival): {:?} then {:?}",
            (w[0].key, w[0].arrival),
            (w[1].key, w[1].arrival),
        );
    }
    // The key the scheduler used is exactly what the transaction wrote.
    for d in &deps {
        assert_eq!(d.key.class, i64::from(d.pkt.expect("class")));
        assert_eq!(d.key.rank, i64::from(d.pkt.expect("start")));
    }
}

#[test]
fn shaping_departure_cycles_are_pinned_to_the_pacer_ranks() {
    // Hand-built burst, GAP = 8 (see pacer.domino). Bucket math:
    //   i  flow  at   next_send before   dl (rank)
    //   0   0    10         0            10
    //   1   0    11        18            18
    //   2   0    12        26            26
    //   3   1    13         0            13
    //   4   1    14        21            21
    //   5   0    15        34            34
    let arrivals: [(i32, i32); 6] = [(0, 10), (0, 11), (0, 12), (1, 13), (1, 14), (0, 15)];
    let trace: Vec<Packet> = arrivals
        .iter()
        .map(|&(flow, at)| {
            Packet::new()
                .with("flow", flow)
                .with("at", at)
                .with("dl", 0)
        })
        .collect();

    let deps = serial_and_sharded(
        "shaping",
        &pacer_pipeline(),
        &sojourn_egress(),
        SchedSpec::Shaping { rank: "dl".into() },
        trace.len(),
        &trace,
    );

    // Pinned: pops in rank order, link idles until each head's rank.
    let order: Vec<i64> = deps.iter().map(|d| d.arrival).collect();
    assert_eq!(order, [0, 3, 1, 4, 2, 5], "rank order of departures");
    let cycles: Vec<i64> = deps.iter().map(|d| d.departure).collect();
    assert_eq!(
        cycles,
        [10, 13, 18, 21, 26, 34],
        "programmed departure cycles"
    );

    // The shaping invariants behind the pin: never before the rank, and
    // per-flow spacing at least GAP.
    let mut last_dep: std::collections::BTreeMap<i32, i64> = Default::default();
    for d in &deps {
        assert!(d.departure >= d.key.rank, "departed before its EDT");
        let flow = d.pkt.expect("flow");
        if let Some(prev) = last_dep.insert(flow, d.departure) {
            assert!(
                d.departure - prev >= i64::from(sched::PACER_GAP),
                "flow {flow} released {prev} then {} — under GAP",
                d.departure
            );
        }
    }
}

#[test]
fn hierarchical_pifo_matches_flat_composite_sort_with_sched_full_overflow() {
    const N: usize = 100;
    const CAPACITY: usize = 64;
    let trace = sched::classed_stfq_trace(N, 3, SEED ^ 0xA5);
    let spec = SchedSpec::Priority {
        class: "class".into(),
        rank: "start".into(),
    };

    let deps = serial_and_sharded(
        "priority-overflow",
        &stfq_pipeline(),
        &sojourn_egress(),
        spec.clone(),
        CAPACITY,
        &trace,
    );

    // Burst admission is by occupancy: exactly the first CAPACITY
    // arrivals enter the PIFO; the rest drop under sched_full.
    assert_eq!(deps.len(), CAPACITY);
    let admitted: Vec<i64> = {
        let mut v: Vec<i64> = deps.iter().map(|d| d.arrival).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(admitted, (0..CAPACITY as i64).collect::<Vec<_>>());

    // Oracle: strict priority over per-class WFQ must equal a stable
    // sort of the admitted prefix by
    // (class, rank, arrival). Ranks are what the transaction computes,
    // so replay the ingress program over the admitted prefix (state
    // evolution depends only on the arrival-order prefix).
    let mut replay = banzai::Machine::new(stfq_pipeline());
    let mut oracle: Vec<(i64, i64, i64)> = trace[..CAPACITY]
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let key = spec.key_of(&replay.process(p.clone()));
            (key.class, key.rank, i as i64)
        })
        .collect();
    oracle.sort_unstable();
    let got: Vec<(i64, i64, i64)> = deps
        .iter()
        .map(|d| (d.key.class, d.key.rank, d.arrival))
        .collect();
    assert_eq!(got, oracle, "strict priority != composite-key sort");

    // The overflow is typed: sched_full, not queue_full.
    let mut serial = Switch::new_slot(&stfq_pipeline(), &sojourn_egress(), CAPACITY)
        .unwrap()
        .with_scheduler(spec);
    let out = serial
        .run(&trace)
        .scheduled()
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");
    assert_eq!(out.len(), CAPACITY);
    assert_eq!(serial.drop_counters().sched_full(), (N - CAPACITY) as u64);
    assert_eq!(serial.drop_counters().queue_full(), 0);
}

/// A warm-started scheduling run continues the serial switch's: the
/// snapshot `import_state` loads reaches the egress engines the burst
/// departs on (when the scheduling path kept an egress engine of its own,
/// the snapshot once reached only the shards, so the burst's egress pass
/// restarted from the declared initializers and `sum` diverged from the
/// first departure on).
#[test]
fn warm_started_scheduling_run_is_bit_identical_to_serial() {
    let (ingress, egress) = (stfq_pipeline(), sojourn_egress());
    let spec = SchedSpec::Pifo {
        rank: "start".into(),
    };
    let warmup = sched::backlogged_burst(4, 10, SEED);
    let trace = sched::backlogged_burst(4, 25, SEED ^ 1);
    let serial = || {
        Switch::new_slot(&ingress, &egress, trace.len())
            .unwrap()
            .with_scheduler(spec.clone())
    };

    let mut warm = serial();
    warm.run(&warmup).scheduled().collect().unwrap();
    let (warm_in, warm_eg) = (warm.export_ingress_state(), warm.export_egress_state());
    assert_ne!(
        warm_eg,
        serial().export_egress_state(),
        "warm-up left state"
    );

    let mut continued = serial();
    continued.import_ingress_state(&warm_in);
    continued.import_egress_state(&warm_eg);
    let serial_out = continued.run(&trace).scheduled().collect().unwrap();

    for shards in [1, 4] {
        let cfg = ShardConfig::new(shards)
            .with_capacity(trace.len())
            .with_scheduler(spec.clone());
        let mut sharded = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        sharded.import_state(&warm_in, &warm_eg);
        let sharded_out = sharded.run(&trace).scheduled().collect().unwrap();
        assert_eq!(sharded_out, serial_out, "{shards} shards: departures");
        assert_eq!(
            sharded.export_merged_egress_state(),
            continued.export_egress_state(),
            "{shards} shards: egress state"
        );
    }
}
