//! Deterministic fault injection for the execution stack.
//!
//! Chaos testing a supervised switch needs faults that are (a) *inside*
//! the pipeline engine — so the supervisor sees exactly what a real
//! engine bug or hardware fault would look like — and (b) *deterministic*
//! — so a failing run replays bit-identically under a seed. This module
//! provides both: [`FaultyEngine`] wraps any [`PipelineEngine`] and fires
//! scheduled [`FaultSpec`]s (panic, stall, bit-flip) at exact per-engine
//! packet counts, and [`FaultPlan`] derives those schedules from a seed.
//!
//! Injection is strictly constructor-driven (no globals, no thread-locals,
//! no environment variables): an engine built through the ordinary
//! [`PipelineEngine::build`] hook is **fault-free**, which is exactly what
//! the sharded supervisor relies on when it rebuilds a dead shard — the
//! replacement engine must not re-fire the fault that killed its
//! predecessor.

use crate::error::SwitchError;
use crate::machine::AtomPipeline;
use crate::switch::PipelineEngine;
use domino_ir::partition::mix64;
use domino_ir::{FieldId, FieldTable, FlatPacket, StateStore};
use std::sync::Arc;
use std::time::Duration;

/// Marker string carried by every injected panic payload, so supervisors
/// and tests can distinguish scheduled faults from genuine engine bugs.
pub const INJECTED_PANIC_MARKER: &str = "injected fault";

/// What a scheduled fault does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic (unwinds out of `process`), simulating an engine crash
    /// mid-packet. The payload names the packet count and contains
    /// [`INJECTED_PANIC_MARKER`].
    Panic,
    /// Sleep this many milliseconds before processing the packet,
    /// simulating a wedged worker (drive it past the supervisor's
    /// watchdog) or a slow one (drive ring backpressure below it).
    Stall {
        /// How long to stall, in milliseconds.
        ms: u64,
    },
    /// Flip one bit of a packet field before the inner engine sees it,
    /// simulating silent data corruption (absent fields read as 0, so the
    /// flip materializes the field).
    BitFlip {
        /// The packet field to corrupt.
        field: String,
        /// Which bit (0-based, masked to 0..32) to flip.
        bit: u32,
    },
}

/// One scheduled fault: fires when this engine instance has processed
/// exactly `at_packet` packets (0-based — `at_packet: 0` fires on the
/// first packet).
///
/// The count is **per engine instance**, not global: wrapped around a
/// shard's ingress engine, `at_packet: N` means the `N`-th packet steered
/// to that shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The engine-local processed-packet count at which the fault fires.
    pub at_packet: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// A panic at the given engine-local packet count.
    pub fn panic_at(at_packet: u64) -> FaultSpec {
        FaultSpec {
            at_packet,
            kind: FaultKind::Panic,
        }
    }

    /// A stall of `ms` milliseconds at the given packet count.
    pub fn stall_at(at_packet: u64, ms: u64) -> FaultSpec {
        FaultSpec {
            at_packet,
            kind: FaultKind::Stall { ms },
        }
    }

    /// A single-bit corruption of `field` at the given packet count.
    pub fn bit_flip_at(at_packet: u64, field: &str, bit: u32) -> FaultSpec {
        FaultSpec {
            at_packet,
            kind: FaultKind::BitFlip {
                field: field.to_string(),
                bit,
            },
        }
    }
}

/// A per-shard fault schedule, the unit the chaos harness hands to
/// [`ShardedSwitch::new_with`](crate::shard::ShardedSwitch::new_with),
/// whose factory arms each shard's ingress engine (egress engines are
/// built plain).
///
/// Plans are plain data: build one manually ([`FaultPlan::kill`],
/// [`FaultPlan::push`]) or derive one from a seed
/// ([`FaultPlan::seeded`]) so a whole chaos campaign replays from a
/// single number.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    per_shard: Vec<Vec<FaultSpec>>,
}

impl FaultPlan {
    /// A plan with no faults for any of `shards` shards.
    pub fn none(shards: usize) -> FaultPlan {
        FaultPlan {
            per_shard: vec![Vec::new(); shards],
        }
    }

    /// Kill exactly one victim shard: panic when it has processed
    /// `at_packet` packets.
    pub fn kill(shards: usize, victim: usize, at_packet: u64) -> FaultPlan {
        let mut plan = FaultPlan::none(shards);
        plan.push(victim, FaultSpec::panic_at(at_packet));
        plan
    }

    /// Derives a one-victim panic schedule from a seed: the victim shard
    /// and its fault index are hashed from `seed` (victim in
    /// `0..shards`, packet count in `0..horizon`). The same seed always
    /// produces the same schedule.
    pub fn seeded(seed: u64, shards: usize, horizon: u64) -> FaultPlan {
        let shards = shards.max(1);
        let horizon = horizon.max(1);
        let victim = (mix64(seed ^ 0x5eed_fa17_0001) % shards as u64) as usize;
        let at_packet = mix64(seed.wrapping_add(0x9e37_79b9)) % horizon;
        FaultPlan::kill(shards, victim, at_packet)
    }

    /// Adds a fault to one shard's schedule (growing the plan if needed).
    pub fn push(&mut self, shard: usize, fault: FaultSpec) {
        if shard >= self.per_shard.len() {
            self.per_shard.resize_with(shard + 1, Vec::new);
        }
        self.per_shard[shard].push(fault);
    }

    /// The schedule for one shard (empty if the plan never mentions it).
    pub fn faults_for(&self, shard: usize) -> &[FaultSpec] {
        self.per_shard.get(shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of shards this plan covers.
    pub fn shards(&self) -> usize {
        self.per_shard.len()
    }
}

/// A [`PipelineEngine`] wrapper that injects scheduled faults, otherwise
/// delegating every call to the wrapped engine.
///
/// Built through the ordinary [`PipelineEngine::build`] hook it carries
/// **no** faults (so supervisor rebuilds are clean); faults are attached
/// only via [`FaultyEngine::with_faults`].
#[derive(Debug, Clone)]
pub struct FaultyEngine<E: PipelineEngine> {
    inner: E,
    faults: Vec<FaultSpec>,
    /// Per fault, the slot a [`FaultKind::BitFlip`] lands on.
    flips: Vec<Option<FieldId>>,
    processed: u64,
}

impl<E: PipelineEngine> FaultyEngine<E> {
    /// Builds the inner engine for `pipeline` on `table` and attaches a
    /// fault schedule to it — the `make` a fault-injecting factory hands
    /// [`Switch::build_with`](crate::Switch::build_with) (either engine) or
    /// [`ShardedSwitch::new_with`](crate::shard::ShardedSwitch::new_with)
    /// (each shard's ingress engine: a sharded switch builds egress plain,
    /// since a scheduled burst runs it on the caller's thread).
    /// Every field a [`FaultKind::BitFlip`] names is interned into the
    /// table here and flipped by that slot (tables are append-only, so
    /// the id is final), even when the pipeline never mentions the field.
    pub fn with_faults(
        pipeline: &AtomPipeline,
        faults: Vec<FaultSpec>,
        table: &mut FieldTable,
    ) -> Result<FaultyEngine<E>, SwitchError> {
        let flips = (faults.iter())
            .map(|f| match &f.kind {
                FaultKind::BitFlip { field, .. } => Some(table.intern(field)),
                _ => None,
            })
            .collect();
        Ok(FaultyEngine {
            inner: E::build(pipeline, table)?,
            faults,
            flips,
            processed: 0,
        })
    }
}

impl<E: PipelineEngine> PipelineEngine for FaultyEngine<E> {
    /// Fault-free: engines built through the generic hook carry no
    /// schedule. The sharded supervisor rebuilds dead shards through this
    /// path, so a replacement engine never re-fires its predecessor's
    /// fault.
    fn build(
        pipeline: &AtomPipeline,
        table: &mut FieldTable,
    ) -> Result<FaultyEngine<E>, SwitchError> {
        FaultyEngine::with_faults(pipeline, Vec::new(), table)
    }

    fn bind(&mut self, table: &Arc<FieldTable>) {
        self.inner.bind(table);
    }

    fn process(&mut self, pkt: &mut FlatPacket) {
        let n = self.processed;
        // Non-panic faults apply in schedule order; a panic ends the
        // packet (and, under supervision, the worker).
        for (f, flip) in self.faults.iter().zip(&self.flips) {
            if f.at_packet != n {
                continue;
            }
            match &f.kind {
                FaultKind::Stall { ms } => std::thread::sleep(Duration::from_millis(*ms)),
                FaultKind::BitFlip { bit, .. } => {
                    if let Some(slot) = *flip {
                        pkt.set(slot, pkt.get_or_zero(slot) ^ (1i32 << (bit % 32)));
                    }
                }
                FaultKind::Panic => {
                    panic!("{INJECTED_PANIC_MARKER}: scheduled panic at engine packet {n}")
                }
            }
        }
        self.processed = n + 1;
        self.inner.process(pkt);
    }

    fn export_state(&self) -> StateStore {
        self.inner.export_state()
    }

    fn import_state(&mut self, snapshot: &StateStore) {
        self.inner.import_state(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use domino_ir::Packet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn passthrough() -> AtomPipeline {
        AtomPipeline::passthrough("p")
    }

    /// A standalone engine armed with `faults`, on a table of its own.
    fn armed(faults: Vec<FaultSpec>) -> (FaultyEngine<Machine>, Arc<FieldTable>) {
        let mut table = FieldTable::new();
        let mut eng = FaultyEngine::with_faults(&passthrough(), faults, &mut table).unwrap();
        let table = Arc::new(table);
        eng.bind(&table);
        (eng, table)
    }

    /// One packet through the engine the way a switch drives it.
    fn process(eng: &mut FaultyEngine<Machine>, table: &Arc<FieldTable>, pkt: Packet) -> Packet {
        let (mut flat, residual) = FlatPacket::admit(&pkt, table);
        eng.process(&mut flat);
        flat.emit(&table.by_name(), &residual)
    }

    /// Judged by what the engine does: well past every packet index the
    /// suites arm a fault at, nothing panics, stalls or flips a bit.
    #[test]
    fn build_hook_is_fault_free() {
        let mut table = FieldTable::new();
        let mut eng: FaultyEngine<Machine> =
            FaultyEngine::build(&passthrough(), &mut table).unwrap();
        let table = Arc::new(table);
        eng.bind(&table);
        for i in 0..2_000 {
            let out = process(&mut eng, &table, Packet::new().with("x", i));
            assert_eq!(out.get("x"), Some(i), "packet {i}");
        }
    }

    #[test]
    fn panic_fires_at_exact_packet_count_with_marker() {
        let (mut eng, table) = armed(vec![FaultSpec::panic_at(2)]);
        process(&mut eng, &table, Packet::new());
        process(&mut eng, &table, Packet::new());
        let err = catch_unwind(AssertUnwindSafe(|| {
            process(&mut eng, &table, Packet::new())
        }))
        .unwrap_err();
        let payload = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string>".into());
        assert!(payload.contains(INJECTED_PANIC_MARKER), "{payload}");
        assert!(payload.contains("packet 2"), "{payload}");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_packet() {
        // `x` is a field the (pass-through) pipeline never names: the
        // schedule itself puts it on the table.
        let (mut eng, table) = armed(vec![FaultSpec::bit_flip_at(1, "x", 3)]);
        let a = process(&mut eng, &table, Packet::new().with("x", 0));
        let b = process(&mut eng, &table, Packet::new().with("x", 0));
        let c = process(&mut eng, &table, Packet::new().with("x", 0));
        assert_eq!(a.get("x"), Some(0));
        assert_eq!(b.get("x"), Some(8)); // bit 3 flipped
        assert_eq!(c.get("x"), Some(0));
    }

    #[test]
    fn stall_delays_but_preserves_output() {
        let (mut eng, table) = armed(vec![FaultSpec::stall_at(0, 1)]);
        let out = process(&mut eng, &table, Packet::new().with("x", 7));
        assert_eq!(out.get("x"), Some(7));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded(seed, 4, 100);
            let b = FaultPlan::seeded(seed, 4, 100);
            assert_eq!(a, b);
            let victims: Vec<usize> = (0..4).filter(|&s| !a.faults_for(s).is_empty()).collect();
            assert_eq!(victims.len(), 1, "seed {seed}: exactly one victim");
            let spec = &a.faults_for(victims[0])[0];
            assert!(spec.at_packet < 100);
            assert_eq!(spec.kind, FaultKind::Panic);
        }
        // Different seeds do spread across shards.
        let distinct: std::collections::HashSet<usize> = (0..32u64)
            .map(|seed| {
                let p = FaultPlan::seeded(seed, 4, 100);
                (0..4).find(|&s| !p.faults_for(s).is_empty()).unwrap()
            })
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn plan_push_grows_and_faults_for_is_total() {
        let mut p = FaultPlan::none(1);
        p.push(3, FaultSpec::stall_at(5, 10));
        assert_eq!(p.shards(), 4);
        assert!(p.faults_for(0).is_empty());
        assert!(p.faults_for(99).is_empty());
        assert_eq!(p.faults_for(3).len(), 1);
    }
}
