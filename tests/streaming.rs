//! Property suite for the streaming run API: a switch fed one packet at
//! a time from a packet or frame [`Source`](banzai::Source) must be
//! **bit-identical** to the same switch fed a materialized slice — same
//! outputs, same drop counters, same exported state — across every
//! geometry the sharded runtime supports. The bounded-memory path is not
//! allowed to buy its memory profile with even one bit of divergence.
//!
//! * `GenSource` (pull-based generator) through the inline `for_each` vs
//!   `&[Packet]` (slice) through the threaded `collect()` of
//!   [`ShardedSwitch`], across shard counts 1..=8, queue capacities
//!   (including 0), and batch/ring geometries under
//!   `Backpressure::Block`. Under `Shed`, *which* packets drop is
//!   pacing-dependent by design, so that policy holds conservation
//!   instead of bit-identity, on both terminals fed by the generator —
//!   only the threaded one meets full rings, so only it can shed;
//! * the same equivalence through the scheduler for all three
//!   disciplines (PIFO, strict priority, shaping), departures compared
//!   as full `SchedDeparture` records;
//! * the wire path: a frame `GenSource` yielding valid, truncated, and
//!   garbage frames vs the equivalent frame slice;
//! * `for_each` vs `collect`: the sink-based terminal sees the same
//!   stream and reports [`RunStats`] that balance with the counters;
//! * every mappable Table 4 algorithm, streamed vs materialized on the
//!   serial and 4-way sharded switches.

use banzai::wire::{self, FrameSpec, WireConfig};
use banzai::{
    AtomKind, AtomPipeline, Backpressure, GenSource, SchedSpec, ShardConfig, ShardedSwitch, Switch,
    Target,
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

/// A generator source that replays `trace` one packet at a time — the
/// streamed twin of passing `&trace` directly.
fn gen_of(trace: &[Packet]) -> GenSource<impl FnMut(u64) -> Option<Packet>> {
    let owned: Vec<Packet> = trace.to_vec();
    GenSource::with_len(owned.len() as u64, move |i| Some(owned[i as usize].clone()))
}

fn capacity_of(sel: usize) -> usize {
    [0, 1, 4, 512][sel]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streamed == materialized on the threaded sharded switch, for every
    /// blocking geometry: outputs, drop counters, merged ingress state,
    /// and the `RunStats` books all agree. (Under `Backpressure::Shed`
    /// drops depend on live ring occupancy — source pacing is allowed to
    /// change *which* packets shed, so bit-identity is a `Block`-only
    /// contract; `sharded_streamed_conserves_under_shed` covers the other
    /// policy.)
    #[test]
    fn sharded_streamed_equals_materialized(
        flows in proptest::collection::vec(0..64i32, 0..400),
        shards in 1..=8usize,
        cap in 0..=3usize,
        batch in 1..=64usize,
        ring in 1..=8usize,
    ) {
        let ingress = counter_pipeline();
        let egress = AtomPipeline::passthrough("egress");
        let cfg = ShardConfig::new(shards)
            .with_capacity(capacity_of(cap))
            .with_batch(batch)
            .with_ring(ring)
            .with_backpressure(Backpressure::Block);
        let trace = to_trace(&flows);

        let mut materialized = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let expect = materialized.run(&trace).collect().expect("no faults armed");

        let mut streamed = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let mut got = Vec::new();
        let stats = streamed
            .run(gen_of(&trace))
            .for_each(|p| got.push(p))
            .expect("generator source cannot fail");

        prop_assert_eq!(got, expect, "streamed outputs diverged from materialized");
        prop_assert_eq!(stats.offered, trace.len() as u64);
        prop_assert_eq!(stats.transmitted, streamed.transmitted());
        prop_assert_eq!(streamed.transmitted(), materialized.transmitted());
        prop_assert_eq!(
            streamed.drop_counters(),
            materialized.drop_counters(),
            "drop counters diverged"
        );
        prop_assert_eq!(
            streamed.export_merged_ingress_state(),
            materialized.export_merged_ingress_state(),
            "merged ingress state diverged"
        );
    }

    /// Under `Backpressure::Shed` the streamed run still keeps perfect
    /// books — offered == transmitted + drops, outputs match the
    /// transmitted counter — even though *which* packets shed is pacing-
    /// dependent and may differ from a slice-fed run. Both terminals: the
    /// inline `for_each` steps every batch where it fills and never sheds;
    /// the threaded `collect()` sheds when a ring is full.
    #[test]
    fn sharded_streamed_conserves_under_shed(
        flows in proptest::collection::vec(0..64i32, 0..400),
        shards in 1..=8usize,
        cap in 0..=3usize,
        batch in 1..=64usize,
        ring in 1..=8usize,
    ) {
        let ingress = counter_pipeline();
        let egress = AtomPipeline::passthrough("egress");
        let cfg = ShardConfig::new(shards)
            .with_capacity(capacity_of(cap))
            .with_batch(batch)
            .with_ring(ring)
            .with_backpressure(Backpressure::Shed);
        let trace = to_trace(&flows);

        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let mut got = Vec::new();
        let stats = sw
            .run(gen_of(&trace))
            .for_each(|p| got.push(p))
            .expect("generator source cannot fail");
        prop_assert_eq!(stats.offered, trace.len() as u64);
        prop_assert_eq!(sw.drop_counters().backpressure(), 0, "an inline step never sheds");

        let mut threaded = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let collected = threaded
            .run(gen_of(&trace))
            .collect()
            .expect("shedding is not a fault");

        for (sw, out) in [(&sw, got.len()), (&threaded, collected.len())] {
            prop_assert_eq!(out as u64, sw.transmitted());
            prop_assert_eq!(
                sw.transmitted() + sw.drops(),
                trace.len() as u64,
                "offered {} != transmitted {} + dropped {}",
                trace.len(), sw.transmitted(), sw.drops()
            );
            if capacity_of(cap) == 0 {
                prop_assert_eq!(sw.transmitted(), 0);
            }
        }
    }
}

fn spec_of(sel: usize) -> SchedSpec {
    match sel {
        0 => SchedSpec::Pifo { rank: "c".into() },
        1 => SchedSpec::Priority {
            class: "flow".into(),
            rank: "c".into(),
        },
        _ => SchedSpec::Shaping { rank: "c".into() },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same equivalence through the scheduler: for each of the three
    /// disciplines, a streamed sched run departs identically to the
    /// materialized one — full departure records, including the
    /// `sched_full` overflow pattern at tight capacities.
    #[test]
    fn scheduled_streamed_equals_materialized_for_every_discipline(
        flows in proptest::collection::vec(0..8i32, 0..200),
        discipline in 0..3usize,
        cap in 0..=3usize,
    ) {
        let ingress = counter_pipeline();
        let egress = AtomPipeline::passthrough("egress");
        let capacity = capacity_of(cap);
        let trace = to_trace(&flows);

        let mut materialized = Switch::new_slot(&ingress, &egress, capacity)
            .unwrap()
            .with_scheduler(spec_of(discipline));
        let expect = materialized
            .run(&trace)
            .scheduled()
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");

        let mut streamed = Switch::new_slot(&ingress, &egress, capacity)
            .unwrap()
            .with_scheduler(spec_of(discipline));
        let got = streamed
            .run(gen_of(&trace))
            .scheduled()
            .collect()
            .expect("generator source cannot fail");

        prop_assert_eq!(got, expect, "streamed departures diverged");
        prop_assert_eq!(
            streamed.drop_counters().clone(),
            materialized.drop_counters().clone()
        );
    }
}

/// A byte buffer that is sometimes a valid frame, sometimes a truncated
/// one, sometimes garbage — the streamed wire path must agree with the
/// materialized one on all of them.
fn any_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        2 => (0..60_000i32).prop_map(|sport| {
            wire::encode(
                &Packet::new().with("sport", sport),
                &WireConfig::new(),
                &FrameSpec::default(),
            )
        }),
        2 => (0..60_000i32, 0..70usize).prop_map(|(sport, cut)| {
            let f = wire::encode(
                &Packet::new().with("sport", sport),
                &WireConfig::new(),
                &FrameSpec::default(),
            );
            let keep = cut.min(f.len());
            f[..keep].to_vec()
        }),
        1 => proptest::collection::vec(any::<u8>(), 0..80),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Wire-path equivalence: a frame `GenSource` lending frames one at a
    /// time produces the same egress bytes and the same per-verdict parse
    /// counters as the frame slice.
    #[test]
    fn wire_streamed_equals_materialized(
        frames in proptest::collection::vec(any_frame(), 0..40),
        cap in 0..=2usize,
    ) {
        let capacity = [0, 1, 256][cap];
        let cfg = WireConfig::new();

        let mut materialized = Switch::new(
            AtomPipeline::passthrough("in"),
            AtomPipeline::passthrough("out"),
            capacity,
        );
        let expect = materialized
            .run_frames(&frames, &cfg)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");

        let mut streamed = Switch::new(
            AtomPipeline::passthrough("in"),
            AtomPipeline::passthrough("out"),
            capacity,
        );
        let owned = frames.clone();
        let src = banzai::GenSource::new(move |i| owned.get(i as usize).cloned());
        let mut got = Vec::new();
        let stats = streamed
            .run_frames(src, &cfg)
            .for_each(|f| got.push(f.to_vec()))
            .expect("generator source cannot fail");

        prop_assert_eq!(got, expect, "streamed egress frames diverged");
        prop_assert_eq!(stats.offered, frames.len() as u64);
        prop_assert_eq!(stats.transmitted, streamed.transmitted());
        prop_assert_eq!(
            streamed.drop_counters().clone(),
            materialized.drop_counters().clone(),
            "parse/drop counters diverged"
        );
    }
}

/// `for_each` and `collect` are the same stream with different
/// terminals: the sink sees exactly the collected packets, in order, and
/// the returned stats balance against the switch counters.
#[test]
fn for_each_and_collect_see_the_same_stream() {
    let ingress = counter_pipeline();
    let egress = AtomPipeline::passthrough("egress");
    let trace = to_trace(&(0..500).map(|i| i % 7).collect::<Vec<_>>());

    let mut a = Switch::new_slot(&ingress, &egress, 32).unwrap();
    let collected = a
        .run(&trace)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");

    let mut b = Switch::new_slot(&ingress, &egress, 32).unwrap();
    let mut sunk = Vec::new();
    let stats = b
        .run(&trace)
        .for_each(|p| sunk.push(p))
        .expect("slice-backed sources cannot fail mid-stream");

    assert_eq!(sunk, collected);
    assert_eq!(stats.offered, trace.len() as u64);
    assert_eq!(stats.transmitted, collected.len() as u64);
    assert_eq!(
        stats.offered,
        stats.transmitted + b.drops(),
        "stats must balance with the drop counters"
    );
}

/// Source-independence across the whole algorithm suite: for every
/// Table 4 program that maps to an atom, a streamed run produces the
/// same outputs and exported state as the materialized one — on the
/// serial switch and 4-way sharded.
#[test]
fn streamed_equals_materialized_for_every_table4_algorithm() {
    for a in algorithms::TABLE4
        .iter()
        .filter(|a| a.paper.least_atom.is_some())
    {
        let ingress =
            domino_compiler::compile(a.source, &Target::banzai(a.paper.least_atom.unwrap()))
                .unwrap();
        let egress = AtomPipeline::passthrough("egress");
        let trace = a.trace(500, 0xE14 ^ 0x51CA);

        let mut serial_mat = Switch::new_slot(&ingress, &egress, trace.len()).unwrap();
        let expect = serial_mat
            .run(&trace)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");
        let mut serial_str = Switch::new_slot(&ingress, &egress, trace.len()).unwrap();
        let got = serial_str
            .run(gen_of(&trace))
            .collect()
            .expect("generator source cannot fail");
        assert_eq!(got, expect, "{}: serial streamed diverged", a.name);
        assert_eq!(
            serial_str.export_ingress_state(),
            serial_mat.export_ingress_state(),
            "{}: serial state diverged",
            a.name
        );

        let cfg = ShardConfig::new(4).with_capacity(trace.len());
        let mut sh_mat = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let sh_expect = sh_mat.run(&trace).collect().expect("no faults armed");
        let mut sh_str = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let sh_got = sh_str
            .run(gen_of(&trace))
            .collect()
            .expect("generator source cannot fail");
        assert_eq!(sh_got, sh_expect, "{}: sharded streamed diverged", a.name);
        assert_eq!(
            sh_str.export_merged_ingress_state(),
            sh_mat.export_merged_ingress_state(),
            "{}: sharded merged state diverged",
            a.name
        );
    }
}
