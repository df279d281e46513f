//! Chaos suite: supervised sharded execution under injected faults.
//!
//! The contract under test (see `banzai::shard`'s failure model and
//! `banzai::fault`):
//!
//! * a worker panic at **any** packet index on **any** shard never
//!   deadlocks or aborts the process — the run returns a typed
//!   [`SwitchError::Fault`] naming the shard, the failing packet's global
//!   index, and the panic payload;
//! * every surviving shard's salvage is **bit-identical to the serial
//!   switch** restricted to that shard's flows (outputs and state);
//! * packet conservation holds exactly on every faulted run:
//!   `offered == transmitted + dropped + lost_in_fault`;
//! * a stalled worker trips the watchdog instead of hanging the caller,
//!   whether the feeder waits on its full ring or the collector waits on
//!   its outcome, and a slow one is waited for, not cut off;
//! * `Backpressure::Shed` sheds under overload, counted, and conserves;
//! * the switch is rebuilt after a fault and remains usable.

use banzai::fault::INJECTED_PANIC_MARKER;
use banzai::{
    AtomKind, AtomPipeline, Backpressure, FaultCause, FaultPlan, FaultSpec, FaultyEngine,
    ShardConfig, ShardedSwitch, SlotMachine, Switch, SwitchError, Target,
};
use domino_ir::Packet;

const CAPACITY: usize = 512;

/// A per-flow counter — partitionable, so it genuinely fans out.
const COUNTER: &str = "struct P { int flow; int c; };\nint counts[64] = {0};\n\
                       void count(struct P pkt) {\n\
                         counts[pkt.flow] = counts[pkt.flow] + 1;\n\
                         pkt.c = counts[pkt.flow];\n\
                       }";

fn counter_pipelines() -> (AtomPipeline, AtomPipeline) {
    let ingress = domino_compiler::compile(COUNTER, &Target::banzai(AtomKind::Raw)).unwrap();
    (ingress, AtomPipeline::passthrough("egress"))
}

fn trace(len: usize, flows: i32) -> Vec<Packet> {
    (0..len)
        .map(|i| Packet::new().with("flow", i as i32 % flows).with("c", 0))
        .collect()
}

/// Builds a sharded switch whose shards are armed per `faults` — the
/// constructor-driven injection path (`new_with` + `FaultyEngine`).
fn armed(
    ingress: &AtomPipeline,
    egress: &AtomPipeline,
    cfg: ShardConfig,
    faults: &FaultPlan,
) -> ShardedSwitch<FaultyEngine<SlotMachine>> {
    // `new_with` hands the factory each shard's ingress engine alone: it
    // takes the shard's schedule; egress engines are built plain.
    let mut schedules: Vec<_> = (0..cfg.shards)
        .map(|s| faults.faults_for(s).to_vec())
        .collect();
    ShardedSwitch::new_with(ingress, egress, cfg, |s, pipeline, table| {
        FaultyEngine::with_faults(pipeline, std::mem::take(&mut schedules[s]), table)
    })
    .unwrap()
}

/// Unwraps a run result into its fault report, asserting it faulted.
fn expect_fault<T>(res: Result<T, SwitchError>, ctx: &str) -> banzai::FaultReport {
    match res {
        Err(SwitchError::Fault(report)) => *report,
        Err(other) => panic!("{ctx}: wrong error variant: {other}"),
        Ok(_) => panic!("{ctx}: run succeeded despite armed fault"),
    }
}

/// Kill the worker at every shard × a spread of packet indices: the run
/// must return a typed error naming the shard, cause, and exact global
/// packet index; survivors must match serial bit-for-bit; the books must
/// balance. On the counter program and on a Table 4 workload (flowlet on
/// its least target: hashed array indices, two arrays, PRAW atoms).
#[test]
fn kill_any_shard_at_any_packet_is_isolated_and_accounted() {
    let (ingress, egress) = counter_pipelines();
    kills_are_isolated_and_accounted("counter", &ingress, &egress, &trace(480, 48));

    let flowlet = algorithms::by_name("flowlet").unwrap();
    let target = flowlet.least_target().unwrap();
    let ingress = domino_compiler::compile(flowlet.source, &target).unwrap();
    let trace = flowlet.trace(480, 0x000D_0771_2016);
    kills_are_isolated_and_accounted("flowlet", &ingress, &egress, &trace);
}

fn kills_are_isolated_and_accounted(
    what: &str,
    ingress: &AtomPipeline,
    egress: &AtomPipeline,
    trace: &[Packet],
) {
    const SHARDS: usize = 4;
    const BATCH: usize = 8;

    // Serial reference (the ground truth survivors must match).
    let mut serial = Switch::new_slot(ingress, egress, CAPACITY).unwrap();
    let serial_out = serial
        .run(trace)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");

    // Steering assignment, from an unarmed twin (the plan is pure).
    let probe = ShardedSwitch::new_slot(ingress, egress, ShardConfig::new(SHARDS)).unwrap();
    assert_eq!(probe.plan().effective(), SHARDS, "{what}: {}", probe.plan());
    let assignment: Vec<usize> = trace
        .iter()
        .enumerate()
        .map(|(i, p)| probe.plan().steer(i, p))
        .collect();
    let positions = |s: usize| -> Vec<u64> {
        assignment
            .iter()
            .enumerate()
            .filter(|&(_, &sh)| sh == s)
            .map(|(i, _)| i as u64)
            .collect()
    };
    for s in 0..SHARDS {
        assert!(
            positions(s).len() > 20,
            "{what}: shard {s} starved by steering"
        );
    }

    for victim in 0..SHARDS {
        let victim_positions = positions(victim);
        let last = victim_positions.len() as u64 - 1;
        for local_k in [0, 1, 17, last] {
            let ctx = format!("{what}: victim {victim}, local packet {local_k}");
            let cfg = ShardConfig::new(SHARDS).with_batch(BATCH);
            let faults = FaultPlan::kill(SHARDS, victim, local_k);
            let mut sw = armed(ingress, egress, cfg, &faults);
            let report = expect_fault(sw.run(trace).collect(), &ctx);

            // Typed error: shard, global packet index, payload marker.
            assert_eq!(report.failures.len(), 1, "{ctx}");
            let failure = &report.failures[0];
            assert_eq!(failure.shard, victim, "{ctx}");
            assert_eq!(
                failure.packet,
                Some(victim_positions[local_k as usize]),
                "{ctx}: wrong failing packet"
            );
            assert!(
                matches!(&failure.cause, FaultCause::Panic(p) if p.contains(INJECTED_PANIC_MARKER)),
                "{ctx}: {:?}",
                failure.cause
            );

            // Survivors: complete output + state, bit-identical to the
            // serial switch restricted to their flows.
            let mut survivors = report.survivors();
            survivors.sort_unstable();
            let expected_survivors: Vec<usize> = (0..SHARDS).filter(|&s| s != victim).collect();
            assert_eq!(survivors, expected_survivors, "{ctx}");
            for s in expected_survivors {
                let salvage = report.shard(s).unwrap();
                let expected: Vec<&Packet> = assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &sh)| sh == s)
                    .map(|(i, _)| &serial_out[i])
                    .collect();
                let got: Vec<&Packet> = salvage.output.iter().collect();
                assert_eq!(
                    got, expected,
                    "{ctx}: shard {s} output diverged from serial"
                );
                assert_eq!(salvage.offered, expected.len() as u64, "{ctx}");
                assert_eq!(salvage.lost(), 0, "{ctx}: survivor lost packets");

                // State: equal to a serial run over exactly this shard's
                // packet subsequence.
                let sub: Vec<Packet> = assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &sh)| sh == s)
                    .map(|(i, _)| trace[i].clone())
                    .collect();
                let mut twin = Switch::new_slot(ingress, egress, CAPACITY).unwrap();
                twin.run(&sub)
                    .for_each(|_| {})
                    .expect("slice-backed sources cannot fail mid-stream");
                let (salvaged_ingress, salvaged_egress) = salvage
                    .state
                    .as_ref()
                    .unwrap_or_else(|| panic!("{ctx}: no state"));
                assert_eq!(
                    salvaged_ingress,
                    &twin.export_ingress_state(),
                    "{ctx}: shard {s} ingress state diverged from serial"
                );
                assert_eq!(salvaged_egress, &twin.export_egress_state(), "{ctx}");
            }

            // Victim: the completed-batch prefix, nothing more.
            let victim_salvage = report.shard(victim).unwrap();
            assert!(victim_salvage.failed, "{ctx}");
            assert!(
                victim_salvage.state.is_none(),
                "{ctx}: faulted state reported"
            );
            let whole_batches = (local_k as usize / BATCH) * BATCH;
            assert_eq!(victim_salvage.output.len(), whole_batches, "{ctx}");
            assert_eq!(
                victim_salvage.lost(),
                victim_positions.len() as u64 - whole_batches as u64,
                "{ctx}"
            );

            // The books balance exactly.
            assert_eq!(report.accounting.offered, trace.len() as u64, "{ctx}");
            assert!(
                report.accounting.conserved(),
                "{ctx}: {}",
                report.accounting
            );
            assert_eq!(report.accounting.dropped, 0, "{ctx}");
        }
    }
}

/// The single-shard configuration goes through the same supervised path:
/// a fault still salvages and accounts instead of crashing.
#[test]
fn single_shard_fault_is_supervised_too() {
    let (ingress, egress) = counter_pipelines();
    let trace = trace(60, 4);
    let cfg = ShardConfig::new(1).with_batch(16);
    let mut sw = armed(&ingress, &egress, cfg, &FaultPlan::kill(1, 0, 21));
    let report = expect_fault(sw.run(&trace).collect(), "single shard");

    assert_eq!(report.failures[0].shard, 0);
    assert_eq!(report.failures[0].packet, Some(21));
    // No survivor: the failed shard's prefix is all the salvage holds.
    assert!(report.survivors().is_empty());
    assert_eq!(report.shard(0).unwrap().output.len(), 16);
    assert_eq!(report.accounting.transmitted, 16);
    assert!(report.accounting.conserved(), "{}", report.accounting);
}

/// A worker wedged past the watchdog is declared stalled and abandoned —
/// the caller gets a typed `Stall` error promptly instead of hanging.
#[test]
fn stalled_worker_trips_watchdog_without_hanging() {
    let (ingress, egress) = counter_pipelines();
    let trace = trace(200, 16);
    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
    let victim = probe.plan().steer(0, &trace[0]);

    let mut faults = FaultPlan::none(4);
    faults.push(victim, FaultSpec::stall_at(0, 2_000));
    let cfg = ShardConfig::new(4)
        .with_batch(8)
        .with_ring(1)
        .with_watchdog_ms(100)
        .with_backpressure(Backpressure::Block);
    let mut sw = armed(&ingress, &egress, cfg, &faults);

    let started = std::time::Instant::now();
    let report = expect_fault(sw.run(&trace).collect(), "stall");
    assert!(
        started.elapsed() < std::time::Duration::from_millis(1_500),
        "caller waited on a wedged worker: {:?}",
        started.elapsed()
    );
    let failure = report
        .failures
        .iter()
        .find(|f| f.shard == victim)
        .expect("victim must be reported");
    assert!(
        matches!(failure.cause, FaultCause::Stall { watchdog_ms: 100 }),
        "{:?}",
        failure.cause
    );
    assert_eq!(failure.packet, None, "a stalled worker never says where");
    assert!(report.accounting.conserved(), "{}", report.accounting);
    assert_eq!(
        report.shard(victim).unwrap().lost(),
        report.shard(victim).unwrap().offered
    );
}

/// The collector's watchdog: behind a ring deep enough that the wedged
/// victim's never fills, the feeder never waits on it — the collector
/// does, and gives the victim up after one window in which nothing came
/// home.
#[test]
fn a_stalled_worker_behind_a_deep_ring_trips_the_collectors_watchdog() {
    let (ingress, egress) = counter_pipelines();
    let trace = trace(200, 16);
    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
    let victim = probe.plan().steer(0, &trace[0]);

    let mut faults = FaultPlan::none(4);
    faults.push(victim, FaultSpec::stall_at(0, 2_000));
    let cfg = ShardConfig::new(4)
        .with_batch(8)
        .with_ring(16)
        .with_watchdog_ms(100)
        .with_backpressure(Backpressure::Block);
    let mut sw = armed(&ingress, &egress, cfg, &faults);

    let started = std::time::Instant::now();
    let report = expect_fault(sw.run(&trace).collect(), "collector stall");
    assert!(
        started.elapsed() < std::time::Duration::from_millis(1_500),
        "caller waited on a wedged worker: {:?}",
        started.elapsed()
    );
    let salvage = report.shard(victim).unwrap();
    assert!(
        salvage.offered <= 8 * 16,
        "the victim's ring filled: {} packets offered",
        salvage.offered
    );
    let failure = (report.failures.iter())
        .find(|f| f.shard == victim)
        .expect("victim must be reported");
    assert!(
        matches!(failure.cause, FaultCause::Stall { watchdog_ms: 100 }),
        "{:?}",
        failure.cause
    );
    assert_eq!(failure.packet, None, "a stalled worker never says where");
    assert_eq!(report.failures.len(), 1, "only the victim stalled");
    assert!(report.accounting.conserved(), "{}", report.accounting);
    assert_eq!(salvage.lost(), salvage.offered);
}

/// A worker the feeder gave up on may wake, drain what its ring held and
/// report before the run ends: its stall stands. The batches it was never
/// sent are lost with it, so its switch does not carry this run's books —
/// a run that believed the late report would return `Ok`, packets short.
#[test]
fn a_stalled_worker_that_wakes_before_the_run_ends_stays_stalled() {
    let (ingress, egress) = counter_pipelines();
    let trace = trace(400, 16);
    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
    let shard_of: Vec<usize> = (trace.iter().enumerate())
        .map(|(i, p)| probe.plan().steer(i, p))
        .collect();
    let share = |s: usize| shard_of.iter().filter(|&&t| t == s).count() as u64;
    let victim = shard_of[0];
    let slow = (0..4)
        .filter(|&s| s != victim)
        .max_by_key(|&s| share(s))
        .unwrap();

    // The victim sleeps three windows behind a one-batch ring and is
    // given up on after one. The slow shard naps on every batch, each nap
    // inside a window, so the feed outlasts the victim's sleep — and on
    // its last packet too, so the victim's report comes home before the
    // slow shard's.
    let mut faults = FaultPlan::none(4);
    faults.push(victim, FaultSpec::stall_at(0, 300));
    for at in (0..share(slow)).step_by(4).chain([share(slow) - 1]) {
        faults.push(slow, FaultSpec::stall_at(at, 30));
    }
    assert!(
        share(slow) / 4 * 30 > 2 * 300,
        "the slow shard's naps are too few"
    );
    let cfg = ShardConfig::new(4)
        .with_batch(4)
        .with_ring(1)
        .with_watchdog_ms(100)
        .with_backpressure(Backpressure::Block);
    let mut sw = armed(&ingress, &egress, cfg, &faults);

    let report = expect_fault(sw.run(&trace).collect(), "late report");
    assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
    assert_eq!(report.failures[0].shard, victim);
    assert!(
        matches!(
            report.failures[0].cause,
            FaultCause::Stall { watchdog_ms: 100 }
        ),
        "{:?}",
        report.failures[0].cause
    );
    assert!(report.accounting.conserved(), "{}", report.accounting);
    assert_eq!(report.accounting.offered, trace.len() as u64);
}

/// A worker that panics while the feeder waits on its full ring, under
/// `Block`: the outcome that comes home is the shard's last word. The
/// report names the panic and its packet, promptly — the feeder never
/// waits the long watchdog out on a ring nobody drains, nor lets a stall
/// overwrite what the worker reported. The window between the outcome
/// coming home and the worker hanging up its ring is narrow, so the
/// scenario runs many times.
#[test]
fn a_worker_that_panics_behind_its_full_ring_is_reported_by_its_panic() {
    const ROUNDS: usize = 40;
    const LOCAL_K: u64 = 3;
    let (ingress, egress) = counter_pipelines();
    let trace = trace(400, 16);
    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
    let victim = probe.plan().steer(0, &trace[0]);
    let at = (0..trace.len())
        .filter(|&i| probe.plan().steer(i, &trace[i]) == victim)
        .nth(LOCAL_K as usize)
        .unwrap() as u64;

    for round in 0..ROUNDS {
        let ctx = format!("round {round}");
        // A slow first packet lets the feeder fill the one-batch ring and
        // wait on it; the panic comes while it waits.
        let mut faults = FaultPlan::none(4);
        faults.push(victim, FaultSpec::stall_at(0, 2));
        faults.push(victim, FaultSpec::panic_at(LOCAL_K));
        let cfg = ShardConfig::new(4)
            .with_batch(4)
            .with_ring(1)
            .with_watchdog_ms(10_000)
            .with_backpressure(Backpressure::Block);
        let mut sw = armed(&ingress, &egress, cfg, &faults);

        let started = std::time::Instant::now();
        let report = expect_fault(sw.run(&trace).collect(), &ctx);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "{ctx}: the feeder waited on a dead ring: {:?}",
            started.elapsed()
        );
        assert_eq!(report.failures.len(), 1, "{ctx}: {:?}", report.failures);
        let failure = &report.failures[0];
        assert_eq!(failure.shard, victim, "{ctx}");
        assert!(
            matches!(&failure.cause, FaultCause::Panic(p) if p.contains(INJECTED_PANIC_MARKER)),
            "{ctx}: {:?}",
            failure.cause
        );
        assert_eq!(failure.packet, Some(at), "{ctx}");
        assert!(
            report.accounting.conserved(),
            "{ctx}: {}",
            report.accounting
        );
    }
}

/// A slow but live worker under `Block` costs time, never packets: each
/// of its stalls fills its one-batch ring, and the feeder waits — waking
/// on whatever comes home from the other shards, and trying again — until
/// the victim frees a slot, far inside the watchdog. The run is the
/// unarmed run, bit for bit.
#[test]
fn a_slow_worker_behind_a_full_ring_is_waited_for_not_cut_off() {
    let (ingress, egress) = counter_pipelines();
    let trace = trace(400, 16);
    let cfg = ShardConfig::new(4)
        .with_batch(4)
        .with_ring(1)
        .with_watchdog_ms(2_000)
        .with_backpressure(Backpressure::Block);
    let mut clean = armed(&ingress, &egress, cfg.clone(), &FaultPlan::none(4));
    let expected = clean.run(&trace).collect().unwrap();

    let victim = clean.plan().steer(0, &trace[0]);
    let mut faults = FaultPlan::none(4);
    for at in [0, 8, 16, 24] {
        faults.push(victim, FaultSpec::stall_at(at, 20));
    }
    let mut sw = armed(&ingress, &egress, cfg, &faults);
    let out = sw
        .run(&trace)
        .collect()
        .expect("a slow worker is not a fault");
    assert_eq!(out, expected, "a slow worker changed the output");
    assert_eq!(sw.drop_counters().backpressure(), 0);
    assert_eq!(sw.transmitted(), trace.len() as u64);
}

/// Under `Backpressure::Shed`, a slow (but not dead) worker costs
/// counted sheds, not a fault: the run succeeds and every packet is
/// either transmitted or in the backpressure counter.
#[test]
fn shed_policy_counts_overload_and_conserves() {
    let (ingress, egress) = counter_pipelines();
    let trace = trace(400, 16);
    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
    let victim = probe.plan().steer(0, &trace[0]);

    // One slow first packet: the feeder outruns the worker and must shed.
    let mut faults = FaultPlan::none(4);
    faults.push(victim, FaultSpec::stall_at(0, 300));
    let cfg = ShardConfig::new(4)
        .with_batch(4)
        .with_ring(1)
        .with_watchdog_ms(5_000)
        .with_backpressure(Backpressure::Shed);
    let mut sw = armed(&ingress, &egress, cfg, &faults);
    assert_eq!(sw.backpressure(), Backpressure::Shed);

    let out = sw.run(&trace).collect().expect("shedding is not a fault");
    let shed = sw.drop_counters().backpressure();
    assert!(
        shed > 0,
        "feeder never shed despite a 300ms stall and a 1-batch ring"
    );
    assert_eq!(
        out.len() as u64 + sw.drops(),
        trace.len() as u64,
        "shed run must conserve: {} out + {} dropped != {} offered",
        out.len(),
        sw.drops(),
        trace.len()
    );
    assert_eq!(sw.transmitted(), out.len() as u64);
}

/// Silent data corruption (a bit flip) is *not* a fault: the run
/// completes and conserves, but the output diverges from the clean run —
/// exactly what a supervisor can and cannot see.
#[test]
fn bit_flip_diverges_output_but_conserves() {
    let (ingress, egress) = counter_pipelines();
    let trace = trace(200, 8);
    let cfg = ShardConfig::new(4).with_batch(8);

    let mut clean = armed(&ingress, &egress, cfg.clone(), &FaultPlan::none(4));
    let clean_out = clean.run(&trace).collect().unwrap();

    let victim = clean.plan().steer(0, &trace[0]);
    let mut faults = FaultPlan::none(4);
    // Flip bit 2 of the flow id: flows stay in 0..12, inside the table.
    faults.push(victim, FaultSpec::bit_flip_at(3, "flow", 2));
    let mut flipped = armed(&ingress, &egress, cfg, &faults);
    let flipped_out = flipped.run(&trace).collect().unwrap();

    assert_eq!(flipped_out.len(), clean_out.len());
    assert_ne!(flipped_out, clean_out, "corruption must be observable");
    assert_eq!(flipped.transmitted(), trace.len() as u64);
    assert_eq!(flipped.drops(), 0);
}

/// Killing the worker on its first packet leaves the feeder talking to a
/// dead ring for the rest of the trace: the feed path must report the
/// *panic*, not die on the send (`shard worker hung up`).
#[test]
fn feeding_a_dead_worker_reports_the_panic_not_the_send() {
    let (ingress, egress) = counter_pipelines();
    let trace = trace(300, 16);
    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
    let victim = probe.plan().steer(0, &trace[0]);

    // batch 1 + ring 1: the feeder is guaranteed to hit the closed
    // channel long after the worker died on packet 0.
    let cfg = ShardConfig::new(4).with_batch(1).with_ring(1);
    let mut sw = armed(&ingress, &egress, cfg, &FaultPlan::kill(4, victim, 0));
    let report = expect_fault(sw.run(&trace).collect(), "dead worker");

    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].shard, victim);
    assert!(
        matches!(&report.failures[0].cause, FaultCause::Panic(p) if p.contains(INJECTED_PANIC_MARKER)),
        "dead-ring sends must not mask the original panic: {:?}",
        report.failures[0].cause
    );
    let salvage = report.shard(victim).unwrap();
    assert!(salvage.output.is_empty());
    assert_eq!(salvage.lost(), salvage.offered);
    assert!(report.accounting.conserved(), "{}", report.accounting);
}

/// After a fault the failed shard is rebuilt with a fresh, fault-free
/// engine: the same switch runs the same trace cleanly, and the
/// cumulative counters keep conserving across the fault boundary.
#[test]
fn switch_is_rebuilt_and_usable_after_a_fault() {
    let (ingress, egress) = counter_pipelines();
    let trace = trace(160, 16);
    let cfg = ShardConfig::new(4).with_batch(8);
    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
    let victim = probe.plan().steer(0, &trace[0]);

    let mut sw = armed(&ingress, &egress, cfg, &FaultPlan::kill(4, victim, 3));
    let report = expect_fault(sw.run(&trace).collect(), "first run");
    let salvaged_tx = report.accounting.transmitted;

    // Second run: the rebuilt shard carries no fault schedule.
    let out = sw
        .run(&trace)
        .collect()
        .expect("rebuilt switch must run clean");
    assert_eq!(out.len(), trace.len());

    // Cumulative counters: both runs' transmissions are accounted.
    assert_eq!(sw.transmitted(), salvaged_tx + trace.len() as u64);
}

/// A shard that dies on its *second* run takes its first run's books
/// with it unless its replacement inherits them: the rebuilt shard must
/// carry on the dead one's transmit count from before the run (nothing
/// else remembers it), and the report must still book only this run.
#[test]
fn a_shard_that_dies_on_its_second_run_keeps_its_first_runs_books() {
    let (ingress, egress) = counter_pipelines();
    let trace = trace(160, 16);
    let cfg = ShardConfig::new(4).with_batch(8);
    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
    let victim = probe.plan().steer(0, &trace[0]);
    let share = (trace.iter().enumerate())
        .filter(|&(i, p)| probe.plan().steer(i, p) == victim)
        .count() as u64;

    // Armed past its first run's share: it survives run 1, dies on run 2.
    let faults = FaultPlan::kill(4, victim, share + 3);
    let mut sw = armed(&ingress, &egress, cfg, &faults);
    let first = sw.run(&trace).collect().expect("the victim survives run 1");
    let report = expect_fault(sw.run(&trace).collect(), "second run");
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].shard, victim);

    // `collect()` streams nothing: all this run transmitted is salvaged.
    let kept: u64 = report.salvage.iter().map(|s| s.output.len() as u64).sum();
    assert_eq!(report.accounting.transmitted, kept, "{}", report.accounting);
    assert!(report.accounting.conserved(), "{}", report.accounting);
    assert_eq!(sw.transmitted(), first.len() as u64 + kept);
    assert_eq!(sw.drops(), report.accounting.dropped);
}

/// Scheduling-path fault coverage: a shard killed mid-trace during a
/// PIFO run ([`ShardedRun::scheduled`](banzai::ShardedRun::scheduled),
/// [`ShardedSchedRun::collect`](banzai::ShardedSchedRun::collect))
/// salvages its queue contents **in rank order** — what the shard's lane
/// holds lives outside the per-batch unwind boundary, so the panic loses
/// only the packets from the failing one onward, never the queue — and
/// the report's [`Accounting`](banzai::Accounting) closes the books
/// exactly.
#[test]
fn killed_shard_mid_sched_trace_salvages_pifo_in_rank_order() {
    const SHARDS: usize = 4;
    const LOCAL_K: u64 = 17;
    let (ingress, egress) = counter_pipelines();
    // Hashed flows: with flow `i % 48` every flow's running count — the
    // rank — grows with arrival on every shard, and an unsorted salvage
    // would pass for a sorted one.
    let flow = |i: u64| ((i.wrapping_mul(0x9E37_79B9) >> 8) % 48) as i32;
    let trace: Vec<Packet> = (0..480)
        .map(|i| Packet::new().with("flow", flow(i)).with("c", 0))
        .collect();
    // Rank = the flow's running count: dense cross-flow ties, so the
    // rank order the salvage must exhibit is not the arrival order.
    let spec = banzai::SchedSpec::Pifo { rank: "c".into() };

    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(SHARDS)).unwrap();
    let assignment: Vec<usize> = trace
        .iter()
        .enumerate()
        .map(|(i, p)| probe.plan().steer(i, p))
        .collect();
    // Each shard's ranks in arrival order; the first `LOCAL_K` (what a
    // victim holds when it dies) are already out of order on every one.
    let mut counts = [0; 48];
    let mut ranks = vec![Vec::new(); SHARDS];
    for (p, &s) in trace.iter().zip(&assignment) {
        counts[p.expect("flow") as usize] += 1;
        ranks[s].push(counts[p.expect("flow") as usize]);
    }
    for (s, ranks) in ranks.iter().enumerate() {
        assert!(
            ranks[..LOCAL_K as usize].windows(2).any(|w| w[0] > w[1]),
            "shard {s}: ranks already in arrival order"
        );
    }

    for victim in 0..SHARDS {
        let ctx = format!("sched victim {victim}");
        let victim_positions: Vec<u64> = assignment
            .iter()
            .enumerate()
            .filter(|&(_, &sh)| sh == victim)
            .map(|(i, _)| i as u64)
            .collect();
        assert!(victim_positions.len() as u64 > LOCAL_K, "{ctx}: starved");

        let cfg = ShardConfig::new(SHARDS)
            .with_batch(8)
            .with_scheduler(spec.clone());
        let faults = FaultPlan::kill(SHARDS, victim, LOCAL_K);
        let mut sw = armed(&ingress, &egress, cfg, &faults);
        let report = expect_fault(sw.run(&trace).scheduled().collect(), &ctx);

        // Typed failure at the exact global packet index.
        assert_eq!(report.failures.len(), 1, "{ctx}");
        assert_eq!(report.failures[0].shard, victim, "{ctx}");
        assert_eq!(
            report.failures[0].packet,
            Some(victim_positions[LOCAL_K as usize]),
            "{ctx}"
        );

        // The victim's salvage: every packet ingress-processed before
        // the failing one — finer than batch granularity, because the
        // lane survives the unwind — in rank order.
        let victim_salvage = report.shard(victim).unwrap();
        assert!(victim_salvage.failed, "{ctx}");
        assert_eq!(victim_salvage.output.len(), LOCAL_K as usize, "{ctx}");
        assert_eq!(
            victim_salvage.lost(),
            victim_positions.len() as u64 - LOCAL_K,
            "{ctx}"
        );
        for salvage in &report.salvage {
            let keys: Vec<_> = salvage.output.iter().map(|p| spec.key_of(p)).collect();
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "{ctx}: shard {} salvage not in rank order: {keys:?}",
                salvage.shard
            );
            if !salvage.failed {
                assert_eq!(salvage.output.len() as u64, salvage.offered, "{ctx}");
                assert_eq!(salvage.lost(), 0, "{ctx}");
            }
        }

        // The books close exactly: nothing was dropped (capacity 512 >
        // trace), so offered == salvaged + lost-with-the-fault.
        assert_eq!(report.accounting.offered, trace.len() as u64, "{ctx}");
        assert_eq!(report.accounting.dropped, 0, "{ctx}");
        assert_eq!(
            report.accounting.lost_in_fault,
            victim_positions.len() as u64 - LOCAL_K,
            "{ctx}"
        );
        assert!(
            report.accounting.conserved(),
            "{ctx}: {}",
            report.accounting
        );

        // The rebuilt switch schedules cleanly on the next trace.
        let deps = sw
            .run(&trace)
            .scheduled()
            .collect()
            .expect("rebuilt switch must run clean");
        assert_eq!(deps.len(), trace.len(), "{ctx}: rerun lost packets");
    }
}

/// A source that fails part-way through a sharded PIFO burst salvages
/// like a killed worker: no shard is blamed, and every shard's salvage —
/// what its lane held when the feeder stopped — comes out in the burst's
/// `(key, arrival)` order, the order the drain's sort gives a clean run.
/// Flows are hashed, so the ranks (each flow's running count) are not in
/// arrival order on any shard and a salvage left unsorted shows; a
/// worker killed on the same burst is held to the same order.
#[test]
fn a_faulted_sched_burst_salvages_every_shard_in_rank_order() {
    use banzai::{FailAfter, SliceSource};
    const SHARDS: usize = 4;
    const DIES_AT: u64 = 300;
    const LOCAL_K: usize = 17;
    let (ingress, egress) = counter_pipelines();
    let spec = banzai::SchedSpec::Pifo { rank: "c".into() };
    let flow = |i: u64| ((i.wrapping_mul(0x9E37_79B9) >> 8) % 48) as i32;
    let trace: Vec<Packet> = (0..480)
        .map(|i| Packet::new().with("flow", flow(i)).with("c", 0))
        .collect();

    // Each shard's arrivals as `(arrival, flow, c)`, `c` the flow's
    // running count — what its lane holds, in the order it holds it.
    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(SHARDS)).unwrap();
    let mut arrivals: Vec<Vec<(u64, i32, i32)>> = vec![Vec::new(); SHARDS];
    let mut counts = [0; 48];
    for (i, p) in trace.iter().enumerate() {
        let f = p.expect("flow");
        counts[f as usize] += 1;
        arrivals[probe.plan().steer(i, p)].push((i as u64, f, counts[f as usize]));
    }
    // Every shard's first `LOCAL_K` arrivals (all before `DIES_AT`) are
    // already out of rank order, so both faults below hold unsorted lanes.
    for (s, held) in arrivals.iter().enumerate() {
        assert!(held[LOCAL_K - 1].0 < DIES_AT, "shard {s}: starved");
        assert!(
            held[..LOCAL_K].windows(2).any(|w| w[0].2 > w[1].2),
            "shard {s}: ranks already in arrival order"
        );
    }
    // A shard's salvage: what it held, as the serial burst orders it.
    let burst_order = |mut held: Vec<(u64, i32, i32)>| {
        held.sort_by_key(|&(i, _, c)| (c, i));
        held.iter().map(|&(_, f, c)| (f, c)).collect::<Vec<_>>()
    };
    let check = |report: &banzai::FaultReport, want: &[Vec<(i32, i32)>], ctx: &str| {
        assert_eq!(report.salvage.len(), SHARDS, "{ctx}");
        for salvage in &report.salvage {
            let s = salvage.shard;
            let keys: Vec<_> = salvage.output.iter().map(|p| spec.key_of(p)).collect();
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "{ctx}: shard {s} salvage not in rank order: {keys:?}"
            );
            let got: Vec<(i32, i32)> = (salvage.output.iter())
                .map(|p| (p.expect("flow"), p.expect("c")))
                .collect();
            assert_eq!(
                got, want[s],
                "{ctx}: shard {s}'s salvage is its burst order"
            );
        }
        assert_eq!(report.accounting.dropped, 0, "{ctx}");
        assert!(
            report.accounting.conserved(),
            "{ctx}: {}",
            report.accounting
        );
    };
    let cfg = ShardConfig::new(SHARDS)
        .with_batch(8)
        .with_scheduler(spec.clone());

    // The source fails: every shard holds its arrivals before the failure
    // (capacity 512 > 300, so nothing is dropped), none is lost.
    let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
    let source = FailAfter::new(SliceSource::new(&trace), DIES_AT, "link reset");
    let report = expect_fault(sw.run(source).scheduled().collect(), "source error");
    let want: Vec<_> = (arrivals.iter())
        .map(|held| burst_order(held.iter().copied().filter(|a| a.0 < DIES_AT).collect()))
        .collect();
    check(&report, &want, "source error");
    assert_eq!(report.source.as_ref().expect("a SourceFault").at, DIES_AT);
    assert!(
        report.failures.is_empty(),
        "no worker failed — the source did"
    );
    assert!(report.salvage.iter().all(|s| !s.failed && s.lost() == 0));
    assert_eq!(report.accounting.offered, DIES_AT);
    assert_eq!(report.accounting.lost_in_fault, 0);
    // No engine died: the same switch schedules the next burst cleanly.
    let deps = sw.run(&trace).scheduled().collect().unwrap();
    assert_eq!(deps.len(), trace.len());

    // Worker 1 dies at its local packet `LOCAL_K`: it holds the ones
    // before, every other shard all of its own.
    let mut sw = armed(
        &ingress,
        &egress,
        cfg,
        &FaultPlan::kill(SHARDS, 1, LOCAL_K as u64),
    );
    let report = expect_fault(sw.run(&trace).scheduled().collect(), "worker kill");
    let want: Vec<_> = (arrivals.iter().enumerate())
        .map(|(s, held)| burst_order(held[..if s == 1 { LOCAL_K } else { held.len() }].to_vec()))
        .collect();
    check(&report, &want, "worker kill");
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].shard, 1);
}

/// Replica-tier fault coverage: killing a shard of a replicated sketch
/// (heavy_hitters' count-min) loses only that shard's replica. Merging
/// the survivors' `ShardSalvage` snapshots through the replica spec
/// yields a sketch that is bit-exact to replaying the surviving
/// packets, conserves their mass, and still honors the (ε, δ) bound
/// over the surviving sub-trace.
#[test]
fn killed_replica_shard_salvage_merges_into_a_bound_respecting_sketch() {
    const SHARDS: usize = 4;
    const SEED: u64 = 0x000D_0771_2016;
    let a = algorithms::by_name("heavy_hitters").unwrap();
    let ingress = domino_compiler::compile(a.source, &Target::banzai(AtomKind::Raw)).unwrap();
    let egress = AtomPipeline::passthrough("egress");
    let trace = a.trace(600, SEED);

    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(SHARDS)).unwrap();
    assert_eq!(
        probe.plan().tier(),
        banzai::ShardTier::Replicable,
        "{}",
        probe.plan()
    );
    let spec = probe.plan().ingress_replica().unwrap().clone();
    let assignment: Vec<usize> = trace
        .iter()
        .enumerate()
        .map(|(i, p)| probe.plan().steer(i, p))
        .collect();

    for victim in 0..SHARDS {
        let ctx = format!("victim {victim}");
        let cfg = ShardConfig::new(SHARDS).with_batch(8);
        let mut sw = armed(&ingress, &egress, cfg, &FaultPlan::kill(SHARDS, victim, 5));
        let report = expect_fault(sw.run(&trace).collect(), &ctx);
        assert!(
            report.accounting.conserved(),
            "{ctx}: {}",
            report.accounting
        );

        // Survivors drained cleanly, so their snapshots are present and
        // complete; the victim's replica is gone with it.
        assert!(report.shard(victim).unwrap().state.is_none(), "{ctx}");
        let snaps: Vec<domino_ir::StateStore> = report
            .salvage
            .iter()
            .filter(|s| !s.failed)
            .map(|s| {
                s.state
                    .as_ref()
                    .expect("survivors snapshot state")
                    .0
                    .clone()
            })
            .collect();
        assert_eq!(snaps.len(), SHARDS - 1, "{ctx}");
        let merged = spec.merge_states(&snaps);

        // The surviving sub-trace is exactly the packets steered away
        // from the victim — the merged sketch must satisfy the full
        // contract (replay, overestimate, conservation, (ε, δ)) on it.
        let survivor_trace: Vec<Packet> = trace
            .iter()
            .zip(&assignment)
            .filter(|&(_, &s)| s != victim)
            .map(|(p, _)| p.clone())
            .collect();
        assert!(
            !survivor_trace.is_empty(),
            "{ctx}: steering starved survivors"
        );
        bench::sketch::verify_sketch(&spec, &survivor_trace, &merged, &ctx);
    }
}

/// A source that errors mid-stream is a **source** fault, not a worker
/// fault: the run returns a typed [`SwitchError::Fault`] whose report
/// carries a [`banzai::SourceFault`] (which packet the source died at,
/// and why), an **empty** worker-failure list, and exactly balanced
/// books — everything the source delivered before dying was drained
/// through the shards and accounted. The switch survives: no engine
/// panicked, so a follow-up run on the same instance works.
#[test]
fn source_error_mid_stream_lands_in_the_fault_report_with_closed_books() {
    use banzai::{FailAfter, GenSource};
    const SHARDS: usize = 4;
    const DIES_AT: u64 = 200;
    let (ingress, egress) = counter_pipelines();
    let cfg = ShardConfig::new(SHARDS)
        .with_capacity(CAPACITY)
        .with_batch(16);
    let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();

    let gen = GenSource::new(|i| Some(Packet::new().with("flow", (i % 48) as i32).with("c", 0)));
    let report = expect_fault(
        sw.run(FailAfter::new(gen, DIES_AT, "link reset")).collect(),
        "source error",
    );

    let src = report.source.as_ref().expect("a SourceFault is attached");
    assert_eq!(src.at, DIES_AT, "fault names the packet the source died at");
    assert!(src.error.message().contains("link reset"), "{}", src.error);
    assert!(
        src.to_string()
            .contains("source failed after 200 packet(s)"),
        "{src}"
    );
    assert!(
        report.failures.is_empty(),
        "no worker failed — the *source* did"
    );

    // Books: everything delivered pre-death was offered, drained, and
    // accounted; nothing is attributed to a worker fault.
    assert_eq!(report.accounting.offered, DIES_AT);
    assert!(report.accounting.conserved(), "{}", report.accounting);
    assert_eq!(report.accounting.lost_in_fault, 0);
    let offered_per_shard: u64 = report.salvage.iter().map(|s| s.offered).sum();
    assert_eq!(offered_per_shard, DIES_AT);
    let kept: usize = report.salvage.iter().map(|s| s.output.len()).sum();
    assert_eq!(
        kept as u64, report.accounting.transmitted,
        "the salvaged outputs are the transmitted stream"
    );

    // No engine died, so the same switch instance keeps working.
    let follow_up = trace(100, 48);
    let out = sw
        .run(&follow_up)
        .collect()
        .expect("switch must remain usable after a source fault");
    assert_eq!(out.len(), 100);
}

/// The serial switch speaks the same failure model: a mid-stream source
/// error surfaces as the same typed report — `SourceFault` attached,
/// no shard failures, books closed over what was actually pulled.
#[test]
fn serial_source_error_is_typed_and_conserved() {
    use banzai::{FailAfter, GenSource};
    let (ingress, egress) = counter_pipelines();
    let mut sw = Switch::new_slot(&ingress, &egress, CAPACITY).unwrap();

    let gen = GenSource::new(|i| Some(Packet::new().with("flow", (i % 7) as i32).with("c", 0)));
    let report = expect_fault(
        sw.run(FailAfter::new(gen, 33, "fiber cut")).collect(),
        "serial source error",
    );
    let src = report.source.as_ref().expect("a SourceFault is attached");
    assert_eq!(src.at, 33);
    assert!(src.error.message().contains("fiber cut"), "{}", src.error);
    assert!(report.failures.is_empty());
    assert_eq!(report.accounting.offered, 33);
    assert!(report.accounting.conserved(), "{}", report.accounting);
}

/// Every terminal closes its books through the one report constructor
/// when its source fails at packet *k*: the fault names *k*, no worker
/// is blamed, everything pulled before the failure was drained and
/// accounted (`lost_in_fault == 0`), and there is one salvage entry per
/// shard — a serial switch being shard 0 of itself — each a survivor
/// carrying its state snapshot. Every packet-born terminal runs twice:
/// on a generator, whose packets are owned, and on a slice, which lends
/// them.
#[test]
fn every_terminal_closes_the_books_when_its_source_fails_at_packet_k() {
    use banzai::wire::{self, FrameSpec, WireConfig};
    use banzai::{FailAfter, GenSource, SliceSource};
    const SHARDS: usize = 4;
    const K: u64 = 150;

    let (ingress, egress) = counter_pipelines();
    let pkt = |i: u64| Packet::new().with("flow", (i % 48) as i32).with("c", 0);
    let packets = || FailAfter::new(GenSource::new(|i| Some(pkt(i))), K, "torn");
    let trace: Vec<Packet> = (0..2 * K).map(pkt).collect();
    let lent = || FailAfter::new(SliceSource::new(&trace), K, "torn");
    let wire_cfg = WireConfig::with_meta_fields(["flow", "c"]).unwrap();
    let frames = || {
        let frame = |i| wire::encode(&pkt(i), &wire_cfg, &FrameSpec::default());
        FailAfter::new(GenSource::new(move |i| Some(frame(i))), K, "torn")
    };
    let serial = || Switch::new_slot(&ingress, &egress, CAPACITY).unwrap();
    let sharded = || {
        let cfg = ShardConfig::new(SHARDS)
            .with_capacity(CAPACITY)
            .with_batch(16);
        ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap()
    };
    fn fault<T>(name: &'static str, shards: usize, res: Result<T, SwitchError>) -> Row {
        (name, shards, expect_fault(res, name))
    }
    type Row = (&'static str, usize, banzai::FaultReport);
    /// Every packet-born terminal, over the sources `$source` makes.
    macro_rules! packet_rows {
        ($source:ident, $arm:literal) => {
            vec![
                fault(
                    concat!("serial collect", $arm),
                    1,
                    serial().run($source()).collect(),
                ),
                fault(
                    concat!("serial for_each", $arm),
                    1,
                    serial().run($source()).for_each(|_| {}),
                ),
                fault(
                    concat!("serial scheduled", $arm),
                    1,
                    serial().run($source()).scheduled().collect(),
                ),
                fault(
                    concat!("sharded collect", $arm),
                    SHARDS,
                    sharded().run($source()).collect(),
                ),
                fault(
                    concat!("sharded for_each", $arm),
                    SHARDS,
                    sharded().run($source()).for_each(|_| {}),
                ),
                fault(
                    concat!("sharded partitioned", $arm),
                    SHARDS,
                    sharded().run($source()).partitioned(),
                ),
                fault(
                    concat!("sharded instrumented", $arm),
                    SHARDS,
                    sharded().run($source()).instrumented(),
                ),
                fault(
                    concat!("sharded scheduled", $arm),
                    SHARDS,
                    sharded().run($source()).scheduled().collect(),
                ),
            ]
        };
    }

    let mut table: Vec<Row> = packet_rows!(packets, "");
    table.extend(packet_rows!(lent, ", lent"));
    table.extend([
        fault(
            "serial frames collect",
            1,
            serial().run_frames(frames(), &wire_cfg).collect(),
        ),
        fault(
            "serial frames for_each",
            1,
            serial().run_frames(frames(), &wire_cfg).for_each(|_| {}),
        ),
        fault(
            "sharded frames partitioned",
            SHARDS,
            sharded().run_frames(frames(), &wire_cfg).partitioned(),
        ),
    ]);

    for (name, shards, report) in table {
        let src = report.source.as_ref().expect(name);
        assert_eq!(src.at, K, "{name}");
        assert!(src.error.message().contains("torn"), "{name}: {src}");
        assert!(report.failures.is_empty(), "{name}: no worker failed");

        let acc = report.accounting;
        assert_eq!(acc.offered, K, "{name}");
        assert!(acc.conserved(), "{name}: {acc}");
        assert_eq!(acc.lost_in_fault, 0, "{name}: {acc}");
        assert_eq!(acc.dropped, 0, "{name}: line rate, roomy queue");

        assert_eq!(report.salvage.len(), shards, "{name}");
        assert_eq!(report.survivors().len(), shards, "{name}");
        for (s, salvage) in report.salvage.iter().enumerate() {
            assert_eq!(salvage.shard, s, "{name}");
            assert!(salvage.state.is_some(), "{name}: shard {s} carries state");
        }
        let steered: u64 = report.salvage.iter().map(|s| s.offered).sum();
        assert_eq!(steered, K, "{name}: every pulled packet was steered");
    }
}

/// A *reused* switch closes its books over **this run**, on every sharded
/// terminal: after a scheduling burst over capacity has booked `SchedFull`
/// drops, a run that then meets a failing source (or, threaded, a
/// panicking engine) reports only the drops it made itself — in the
/// accounting and shard by shard — so the books still balance, while the
/// switch's own lifetime counters keep both runs.
#[test]
fn a_reused_switch_reports_only_this_runs_drops_on_every_terminal() {
    use banzai::wire::{self, FrameSpec, WireConfig};
    use banzai::{FailAfter, FaultReport, GenSource, PipelineEngine, SchedSpec};
    const SHARDS: usize = 4;
    const CAP: usize = 32;
    const BURST: u64 = 100;
    const K: u64 = 40;

    let (ingress, egress) = counter_pipelines();
    let pkt = |i: u64| Packet::new().with("flow", (i % 48) as i32).with("c", 0);
    let cfg = || {
        ShardConfig::new(SHARDS)
            .with_capacity(CAP)
            .with_batch(8)
            .with_scheduler(SchedSpec::Pifo { rank: "c".into() })
    };
    let packets = || FailAfter::new(GenSource::new(|i| Some(pkt(i))), K, "torn");

    /// The first run: a burst `BURST - CAP` packets over capacity.
    fn overload<E: PipelineEngine + Send + 'static>(sw: &mut ShardedSwitch<E>, burst: &[Packet]) {
        let out = sw.run(burst).scheduled().collect().unwrap();
        assert_eq!(out.len(), CAP);
        assert_eq!(sw.drop_counters().sched_full(), BURST - CAP as u64);
    }
    let burst: Vec<Packet> = (0..BURST).map(pkt).collect();
    let used = || {
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg()).unwrap();
        overload(&mut sw, &burst);
        sw
    };
    /// The second run's report against the drops it should have made,
    /// per shard; and the switch's lifetime counters against both runs.
    fn check<E: PipelineEngine>(
        name: &str,
        sw: &ShardedSwitch<E>,
        report: &FaultReport,
        run_drops: [u64; SHARDS],
    ) {
        let acc = report.accounting;
        assert!(acc.conserved(), "{name}: {acc}");
        assert_eq!(acc.dropped, run_drops.iter().sum::<u64>(), "{name}: {acc}");
        for (s, salvage) in report.salvage.iter().enumerate() {
            assert_eq!(salvage.drops.total(), run_drops[s], "{name}: shard {s}");
        }
        assert_eq!(sw.drops(), BURST - CAP as u64 + acc.dropped, "{name}");
        assert_eq!(sw.transmitted(), CAP as u64 + acc.transmitted, "{name}");
    }
    let lossless = |name: &str, sw: &ShardedSwitch, report: &FaultReport| {
        assert_eq!(report.accounting.offered, K, "{name}");
        assert_eq!(report.accounting.lost_in_fault, 0, "{name}");
        check(name, sw, report, [0; SHARDS]);
    };

    let mut sw = used();
    let report = expect_fault(sw.run(packets()).collect(), "collect");
    lossless("collect", &sw, &report);

    let mut sw = used();
    let report = expect_fault(sw.run(packets()).partitioned(), "partitioned");
    lossless("partitioned", &sw, &report);

    // Everything transmitted has reached the sink before the error returns.
    let mut sw = used();
    let mut sunk = 0;
    let report = expect_fault(sw.run(packets()).for_each(|_| sunk += 1), "for_each");
    lossless("for_each", &sw, &report);
    assert_eq!(report.accounting.transmitted, sunk);

    // A second burst: the arrivals past capacity are this run's drops,
    // each booked on the shard it steered to.
    let mut sw = used();
    let report = expect_fault(sw.run(packets()).scheduled().collect(), "scheduled");
    let mut refused = [0; SHARDS];
    for i in CAP as u64..K {
        refused[sw.plan().steer(i as usize, &pkt(i))] += 1;
    }
    check("scheduled", &sw, &report, refused);

    // Every fifth frame is a runt: dealt by index, booked under its verdict.
    let wire_cfg = WireConfig::with_meta_fields(["flow", "c"]).unwrap();
    let frame = |i: u64| {
        let mut frame = wire::encode(&pkt(i), &wire_cfg, &FrameSpec::default());
        frame.truncate(if i % 5 == 2 { 9 } else { frame.len() });
        frame
    };
    let frames = FailAfter::new(GenSource::new(|i| Some(frame(i))), K, "torn");
    let mut sw = used();
    let report = expect_fault(sw.run_frames(frames, &wire_cfg).partitioned(), "frames");
    let mut runts = [0; SHARDS];
    for i in (0..K).filter(|i| i % 5 == 2) {
        runts[i as usize % SHARDS] += 1;
    }
    check("frames partitioned", &sw, &report, runts);

    // A worker panic, three packets into the victim's share of run two.
    let victim = 1;
    let share = |upto: u64| (0..upto).filter(|&i| sw.plan().steer(i as usize, &pkt(i)) == victim);
    let faults = FaultPlan::kill(SHARDS, victim, share(BURST).count() as u64 + 3);
    let mut sw = armed(&ingress, &egress, cfg(), &faults);
    overload(&mut sw, &burst);
    let trace: Vec<Packet> = (0..4 * K).map(pkt).collect();
    let report = expect_fault(sw.run(&trace).collect(), "panic");
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].shard, victim);
    assert!(report.accounting.lost_in_fault > 0, "{}", report.accounting);
    check("collect, worker panic", &sw, &report, [0; SHARDS]);
}
