//! Sharded-switch differential suite: flow-steered multi-core execution
//! must be observably equivalent to the serial switch for **every**
//! Table 4 algorithm, at every shard count — with the oracle chosen by
//! the plan's partitioning tier.
//!
//! The contract under test (see `banzai::shard`):
//!
//! * **Exact** tier (keyed steering): each shard's output stream equals
//!   the serial switch's outputs at exactly the positions steered to
//!   that shard — full packets, queue metadata included (per-flow order
//!   preservation follows);
//! * **Replicable** tier (full sketch replica per shard): per-packet
//!   in-stream estimates are shard-local by design, so positional
//!   bit-identity is not asserted; instead the sketch's own contract
//!   holds (`bench::sketch::verify_sketch` — spec replay, overestimate,
//!   mass conservation, the (ε, δ) bound) on both the serial and the
//!   merged state;
//! * in **both** tiers the merged exported state is bit-identical to
//!   the serial state (sum/max merges are exact on final state) and
//!   the threaded run reproduces the sequential merge bit-for-bit
//!   (scheduling cannot leak into outputs);
//! * algorithms whose state partitions under *neither* tier fall back
//!   to a single shard with a two-tier diagnostic — and still match
//!   serial exactly.

use banzai::{AtomPipeline, ShardConfig, ShardTier, ShardedSwitch, Switch, Target};
use domino_ir::Packet;

const TRACE_LEN: usize = 600;
const SEED: u64 = 0x000D_0771_2016;
const CAPACITY: usize = 512;

/// Compiles an algorithm on its least-expressive paper target.
fn compile_least(a: &algorithms::Algorithm) -> AtomPipeline {
    let target = a.least_target().expect("algorithm must map");
    domino_compiler::compile(a.source, &target).unwrap_or_else(|e| panic!("{}: {e}", a.name))
}

/// Asserts a sharded ingress/egress pair is observably equivalent to the
/// serial switch at `shards` shards on `trace`, with the oracle routed
/// by the plan's tier: per-shard output subsequences for `Exact` and
/// `Fallback`, the sketch contract for `Replicable`; merged state and
/// counters in every tier.
fn sharded_pair_differential(
    label: &str,
    ingress: &AtomPipeline,
    egress: &AtomPipeline,
    trace: &[Packet],
    shards: usize,
) {
    let mut serial = Switch::new_slot(ingress, egress, CAPACITY).unwrap();
    let serial_out = serial
        .run(trace)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");

    let mut sharded = ShardedSwitch::new_slot(ingress, egress, ShardConfig::new(shards)).unwrap();
    let parts = sharded.run(trace).partitioned().unwrap();

    let assignment: Vec<usize> = trace
        .iter()
        .enumerate()
        .map(|(i, p)| sharded.plan().steer(i, p))
        .collect();
    match sharded.plan().tier() {
        ShardTier::Exact | ShardTier::Fallback => {
            for (s, part) in parts.iter().enumerate() {
                let expected: Vec<&Packet> = assignment
                    .iter()
                    .enumerate()
                    .filter(|(_, &shard)| shard == s)
                    .map(|(i, _)| &serial_out[i])
                    .collect();
                let got: Vec<&Packet> = part.iter().collect();
                assert_eq!(
                    got, expected,
                    "{label} @ {shards} shards: shard {s} diverged from serial"
                );
            }
        }
        ShardTier::Replicable => {
            // Replica shards see only their slice of the trace, so
            // in-stream sketch reads differ positionally; packet
            // conservation per shard plus the statistical contract on
            // the merged state are the oracle.
            for (s, part) in parts.iter().enumerate() {
                let offered = assignment.iter().filter(|&&shard| shard == s).count();
                assert_eq!(
                    part.len(),
                    offered,
                    "{label} @ {shards} shards: shard {s} lost packets"
                );
            }
            let spec = sharded
                .plan()
                .ingress_replica()
                .expect("replicable tier carries an ingress replica spec")
                .clone();
            bench::sketch::verify_sketch(
                &spec,
                trace,
                &serial.export_ingress_state(),
                &format!("{label} serial"),
            );
            bench::sketch::verify_sketch(
                &spec,
                trace,
                &sharded.export_merged_ingress_state(),
                &format!("{label} @ {shards} merged"),
            );
        }
    }
    assert_eq!(
        sharded.export_merged_ingress_state(),
        serial.export_ingress_state(),
        "{label} @ {shards} shards: merged ingress state diverged"
    );
    assert_eq!(
        sharded.export_merged_egress_state(),
        serial.export_egress_state(),
        "{label} @ {shards} shards: merged egress state diverged"
    );
    assert_eq!(sharded.transmitted(), serial.transmitted(), "{label}");
    assert_eq!(sharded.drops(), serial.drops(), "{label}");
}

/// Every mapping Table 4 algorithm, at 1/2/4/8 shards: partitionable
/// algorithms fan out, the rest exercise the single-shard fallback — the
/// serial equivalence must hold either way.
#[test]
fn all_table4_algorithms_shard_safely() {
    for a in algorithms::TABLE4
        .iter()
        .filter(|a| a.paper.least_atom.is_some())
    {
        let ingress = compile_least(a);
        let egress = AtomPipeline::passthrough("egress");
        let trace = a.trace(TRACE_LEN, SEED);
        for shards in [1, 2, 4, 8] {
            sharded_pair_differential(a.name, &ingress, &egress, &trace, shards);
        }
    }
}

/// The partitionability split is exactly the paper's locality argument,
/// now three-tiered: per-flow keyed state shards exactly; multi-hash
/// sketches with commutative updates shard by replication; global
/// scalar registers do not shard at all.
#[test]
fn partitionability_matches_state_indexing_structure() {
    let keyed = [
        "flowlet",
        "conga",
        "dns_ttl_change",
        "sampled_netflow",
        "stfq",
    ];
    let replicable = ["bloom_filter", "heavy_hitters"];
    let fallback = ["rcp", "hull", "avq", "codel_lut"];
    for name in keyed {
        let a = algorithms::by_name(name).unwrap();
        let sw = ShardedSwitch::new_slot(
            &compile_least(&a),
            &AtomPipeline::passthrough("egress"),
            ShardConfig::new(4),
        )
        .unwrap();
        assert_eq!(sw.plan().effective(), 4, "{name} should shard");
        assert_eq!(sw.plan().tier(), ShardTier::Exact, "{name}");
        assert!(
            sw.plan().fallback().is_none(),
            "{name} should not fall back"
        );
        assert!(sw.plan().flow_key().is_some(), "{name} should be keyed");
    }
    for name in replicable {
        let a = algorithms::by_name(name).unwrap();
        let sw = ShardedSwitch::new_slot(
            &compile_least(&a),
            &AtomPipeline::passthrough("egress"),
            ShardConfig::new(4),
        )
        .unwrap();
        assert_eq!(sw.plan().effective(), 4, "{name} should replicate");
        assert_eq!(sw.plan().tier(), ShardTier::Replicable, "{name}");
        assert!(
            sw.plan().fallback().is_none(),
            "{name} should not fall back"
        );
        assert!(
            sw.plan().ingress_replica().is_some(),
            "{name} should carry a replica spec"
        );
    }
    for name in fallback {
        let a = algorithms::by_name(name).unwrap();
        let sw = ShardedSwitch::new_slot(
            &compile_least(&a),
            &AtomPipeline::passthrough("egress"),
            ShardConfig::new(4),
        )
        .unwrap();
        assert_eq!(sw.plan().effective(), 1, "{name} should fall back");
        assert_eq!(sw.plan().tier(), ShardTier::Fallback, "{name}");
        let why = sw
            .plan()
            .fallback()
            .unwrap_or_else(|| panic!("{name}: no diagnostic"));
        // The diagnostic records the full tier decision: why the exact
        // tier said no AND why the replica tier said no.
        assert!(why.contains("not Exact-partitionable"), "{name}: `{why}`");
        assert!(why.contains("not Replicable"), "{name}: `{why}`");
        assert!(
            why.contains("scalar state") || why.contains("distinct fields"),
            "{name}: unexpected diagnostic `{why}`"
        );
    }
}

/// rcp's diagnostic names the offending global register — the message a
/// user sees when asking for shards they cannot have.
#[test]
fn rcp_fallback_diagnostic_names_the_global_register() {
    let a = algorithms::by_name("rcp").unwrap();
    let sw = ShardedSwitch::new_slot(
        &compile_least(&a),
        &AtomPipeline::passthrough("egress"),
        ShardConfig::new(8),
    )
    .unwrap();
    let why = sw.plan().fallback().unwrap();
    assert!(why.contains("`input_traffic_bytes`"), "{why}");
    assert_eq!(sw.plan().requested(), 8);
    assert_eq!(sw.shard_count(), 1);
}

/// Flowlet at ingress *and* egress: the two pipelines extract the same
/// flow key, so the pair shards (the ingress/egress compatibility rule).
#[test]
fn flowlet_both_sides_shares_one_flow_key() {
    let a = algorithms::by_name("flowlet").unwrap();
    let pipeline = compile_least(&a);
    let trace = a.trace(TRACE_LEN, SEED);

    let sharded = ShardedSwitch::new_slot(&pipeline, &pipeline, ShardConfig::new(4)).unwrap();
    assert_eq!(sharded.plan().effective(), 4, "{}", sharded.plan());
    sharded_pair_differential("flowlet/flowlet", &pipeline, &pipeline, &trace, 4);
}

/// Thread scheduling cannot leak into outputs: the threaded run equals
/// the sequential merge bit-for-bit, across repeated runs and batch
/// sizes.
#[test]
fn threaded_run_is_deterministic_for_flowlet() {
    let a = algorithms::by_name("flowlet").unwrap();
    let ingress = compile_least(&a);
    let egress = AtomPipeline::passthrough("egress");
    let trace = a.trace(2_000, SEED);

    let mut reference: Option<Vec<Packet>> = None;
    for batch in [7, 64, 1024] {
        let cfg = ShardConfig::new(4).with_batch(batch);
        let mut threaded = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let got = threaded.run(&trace).collect().unwrap();
        let mut sequential = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let run = sequential.run(&trace).instrumented().unwrap();
        assert_eq!(got, run.merged, "batch {batch}: threaded vs sequential");
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "batch {batch}: batch size leaked into output"),
        }
    }
}

/// The facade helper wires the whole stack together.
#[test]
fn facade_sharded_switch_runs_flowlet_end_to_end() {
    let a = algorithms::by_name("flowlet").unwrap();
    let mut sw = domino::sharded_switch(
        a.source,
        a.source,
        &Target::banzai(banzai::AtomKind::Pairs),
        banzai::ShardConfig::new(4),
    )
    .unwrap();
    assert_eq!(sw.plan().effective(), 4);
    let out = sw.run(&a.trace(500, SEED)).collect().unwrap();
    assert_eq!(out.len(), 500);
    assert_eq!(sw.transmitted(), 500);
}

/// Line-rate sharding composes only while no shard holds a standing
/// queue. A shaping discipline gates its head on the clock, so it holds
/// one exactly as an oversubscribed link does — the serial switch below
/// stamps `now = 20..27`, where independent per-shard queues (which a
/// 1-shard `ShardedSwitch` used to run, stamping `1..8`) cannot know to
/// wait. Every forwarding terminal rejects it with a typed error before
/// pulling a packet; `.scheduled()`, which models shaping, is untouched;
/// and the ungated disciplines still equal serial shard by shard.
#[test]
fn line_rate_sharding_rejects_shaping_and_equals_serial_otherwise() {
    use banzai::pifo::SchedSpec;
    use banzai::wire::{self, FrameSpec, WireConfig};
    use banzai::SwitchError;

    let (ingress, egress) = (
        AtomPipeline::passthrough("in"),
        AtomPipeline::passthrough("out"),
    );
    let trace: Vec<Packet> = (0..8)
        .map(|i| {
            Packet::new()
                .with("seq", i)
                .with("class", i % 2)
                .with("edt", 20)
        })
        .collect();
    let shaping = SchedSpec::Shaping { rank: "edt".into() };
    let serial = |spec: &SchedSpec| {
        Switch::new_slot(&ingress, &egress, CAPACITY)
            .unwrap()
            .with_scheduler(spec.clone())
    };
    let sharded = |spec: &SchedSpec, shards: usize| {
        let cfg = ShardConfig::new(shards).with_scheduler(spec.clone());
        ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap()
    };

    let gated = serial(&shaping).run(&trace).collect().unwrap();
    let nows: Vec<i32> = gated.iter().map(|p| p.get("now").unwrap()).collect();
    assert_eq!(
        nows,
        (20..28).collect::<Vec<i32>>(),
        "serial waits for the EDT"
    );

    let wire_cfg = WireConfig::new();
    let frames = vec![wire::encode(&Packet::new(), &wire_cfg, &FrameSpec::default()); 8];
    for shards in [1usize, 4] {
        let rejected = |what: &str, err: SwitchError| {
            assert!(
                matches!(&err, SwitchError::Unsupported(msg) if msg.contains("shaping")),
                "{what}@{shards}: {err}"
            );
        };
        let mut sw = sharded(&shaping, shards);
        rejected("collect", sw.run(&trace).collect().unwrap_err());
        rejected("for_each", sw.run(&trace).for_each(|_| {}).unwrap_err());
        rejected("partitioned", sw.run(&trace).partitioned().unwrap_err());
        rejected("instrumented", sw.run(&trace).instrumented().unwrap_err());
        rejected(
            "run_frames.partitioned",
            sw.run_frames(&frames, &wire_cfg).partitioned().unwrap_err(),
        );
        assert_eq!(
            sw.transmitted() + sw.drops(),
            0,
            "rejected before any packet"
        );

        let deps = sw.run(&trace).scheduled().collect().unwrap();
        assert_eq!(
            deps,
            serial(&shaping).run(&trace).scheduled().collect().unwrap(),
            "scheduled@{shards}"
        );
    }

    for spec in [
        SchedSpec::Fifo,
        SchedSpec::Pifo { rank: "edt".into() },
        SchedSpec::Priority {
            class: "class".into(),
            rank: "edt".into(),
        },
    ] {
        let serial_out = serial(&spec).run(&trace).collect().unwrap();
        for shards in [1usize, 4] {
            let mut sw = sharded(&spec, shards);
            let parts = sw.run(&trace).partitioned().unwrap();
            for (s, part) in parts.iter().enumerate() {
                let expected: Vec<Packet> = (trace.iter().zip(&serial_out))
                    .enumerate()
                    .filter(|(i, (p, _))| sw.plan().steer(*i, p) == s)
                    .map(|(_, (_, out))| out.clone())
                    .collect();
                assert_eq!(part, &expected, "{spec:?}@{shards}: shard {s}");
            }
            let merged = sw.merge(parts);
            assert_eq!(
                sharded(&spec, shards).run(&trace).collect().unwrap(),
                merged,
                "{spec:?}@{shards}"
            );
        }
    }
}

/// Slot steering ≡ map steering. The dispatcher admits every packet onto
/// the switch's one field table and evaluates the steering rule over the
/// slab's **slots**; [`banzai::ShardPlan::steer`] evaluates the same
/// rule **by name** on the map packet — the reference. The two must pick
/// the same shard for every packet: under every rule the planner
/// resolves for a Table 4 program (keyed, replica, single-shard) and
/// for a stateless pair (dealt by index) — over traces whose packets carry fields
/// off the table (a residual either side of the table's names) and omit
/// declared ones, at 1–8 shards.
///
/// A packet's shard is read off the run itself: the residual `zz_tag`
/// rides every packet through its shard untouched.
#[test]
fn slot_steering_equals_map_steering_for_every_rule() {
    let flowlet = algorithms::by_name("flowlet").unwrap();
    let mut cases: Vec<(String, AtomPipeline, Vec<Packet>)> = algorithms::TABLE4
        .iter()
        .filter(|a| a.paper.least_atom.is_some())
        .map(|a| (a.name.to_string(), compile_least(a), a.trace(160, SEED)))
        .collect();
    cases.push((
        "whole packet".to_string(),
        AtomPipeline::passthrough("in"),
        flowlet.trace(160, SEED),
    ));

    let mut rules = std::collections::BTreeSet::new();
    for (what, ingress, trace) in cases {
        // Residual fields sorting before and after every table name, a
        // unique tag, and every fifth packet short of its first field.
        let trace: Vec<Packet> = (trace.iter().enumerate())
            .map(|(i, p)| {
                let kept = p.iter().skip(usize::from(i % 5 == 0));
                let mut p: Packet = kept.map(|(f, v)| (f.to_string(), v)).collect();
                p.set("aa_extra", (i % 3) as i32);
                p.set("zz_tag", i as i32);
                p
            })
            .collect();
        let egress = AtomPipeline::passthrough("egress");
        for shards in 1..=8 {
            let mut sw =
                ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(shards)).unwrap();
            rules.insert(
                sw.plan()
                    .to_string()
                    .split(", ")
                    .nth(1)
                    .map(|r| r.split([' ', ':']).next().unwrap().to_string()),
            );
            let parts = sw.run(&trace).partitioned().unwrap();
            for (s, part) in parts.iter().enumerate() {
                let got: Vec<i32> = part.iter().map(|p| p.expect("zz_tag")).collect();
                let want: Vec<i32> = (0..trace.len())
                    .filter(|&i| sw.plan().steer(i, &trace[i]) == s)
                    .map(|i| i as i32)
                    .collect();
                assert_eq!(got, want, "{what} @ {shards} shards: shard {s}");
            }
        }
    }
    // Every steering rule was exercised: keyed, replicated (dealt),
    // single-shard fallback and stateless (dealt).
    let rules: Vec<String> = rules.into_iter().flatten().collect();
    assert_eq!(rules, ["keyed", "replicated", "single-shard", "stateless"]);
}

/// The sharded byte path's contract: `run_frames(..).partitioned()` is
/// the serial `run_frames` output split by the plan's by-name steering of
/// each frame's reference-tier parse — the dispatcher parses once on the
/// bound tier and steers by slots, and must land every frame where its
/// packet-born twin would go — with every malformed frame booked under
/// its parse verdict; for a keyed, a stateless and a replica plan,
/// over frames with VLAN tags, IPv4 options and payloads.
#[test]
fn sharded_frame_run_is_the_serial_frame_run_split_by_the_plan() {
    use banzai::wire;
    use bench::wiregen::{self, GenOptions};

    let flowlet = compile_least(&algorithms::by_name("flowlet").unwrap());
    let sketch = compile_least(&algorithms::by_name("heavy_hitters").unwrap());
    for (what, ingress, workload, tier) in [
        ("keyed", flowlet, "flowlet", ShardTier::Exact),
        (
            "whole packet",
            AtomPipeline::passthrough("in"),
            "flowlet",
            ShardTier::Exact,
        ),
        ("replica", sketch, "heavy_hitters", ShardTier::Replicable),
    ] {
        let opts = GenOptions {
            malform_rate: 0.1,
            // Flowlet's outputs get a wire slot, so they are compared too.
            extra_meta: vec!["next_hop".into(), "new_hop".into()],
            ..GenOptions::default()
        };
        let mut wt = wiregen::wire_trace_for(workload, 240, SEED, &opts);
        for (i, frame) in wt.frames.iter_mut().enumerate() {
            let l3 = if frame.get(12..14) == Some(&[0x81, 0x00]) {
                18
            } else {
                14
            };
            if i % 3 == 0 && frame.len() > l3 + 20 && frame[l3] == 0x45 {
                frame[l3] = 0x46; // IHL 6: one word of IPv4 options
                frame.splice(l3 + 20..l3 + 20, [1; 4]);
            }
            frame.extend((0..i % 7 * 13).map(|b| b as u8)); // payload
        }
        let (accepted, _) = wiregen::expected_verdicts(&wt.frames, &wt.cfg);
        assert!(accepted > 150 && accepted < 240, "{what}: {accepted}");
        assert!(wt
            .frames
            .iter()
            .any(|f| f.get(12..14) == Some(&[0x81, 0x00])));

        let egress = AtomPipeline::passthrough("egress");
        let mut serial = Switch::new_slot(&ingress, &egress, CAPACITY).unwrap();
        let serial_out = serial.run_frames(&wt.frames, &wt.cfg).collect().unwrap();
        assert_eq!(serial_out.len() as u64, accepted);

        for shards in [1, 2, 3, 8] {
            let mut sw =
                ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(shards)).unwrap();
            assert_eq!(sw.plan().tier(), tier, "{what}");
            let parts = sw.run_frames(&wt.frames, &wt.cfg).partitioned().unwrap();
            let mut want = vec![Vec::new(); shards];
            let mut departures = serial_out.iter();
            for (i, frame) in wt.frames.iter().enumerate() {
                if let Ok(parsed) = wire::parse(frame, &wt.cfg) {
                    want[sw.plan().steer(i, &parsed.pkt)].push(departures.next().unwrap().clone());
                }
            }
            assert_eq!(parts, want, "{what} @ {shards} shards");
            assert_eq!(
                sw.drop_counters(),
                *serial.drop_counters(),
                "{what} @ {shards}"
            );
            assert_eq!(sw.transmitted(), accepted, "{what} @ {shards}");
        }
    }
}

/// The dispatcher admits through its switch's memoised edges and every
/// worker emits through its own, so packet *shape* must not show in the
/// result: a trace alternating between the generator's shape, one that
/// omits a key root, and one naming a field off the table runs threaded
/// == `partitioned` == serial — twice on the same switches, the second
/// run continuing the first's state. A worker moves a departing record's
/// row into the packet it emits, but an off-table `vlan_tag` packet
/// leaves through the by-name path and its record keeps its row, so
/// records with and without a row share the dispatcher's one pool.
#[test]
fn alternating_packet_shapes_shard_like_serial() {
    let a = algorithms::by_name("flowlet").unwrap();
    let ingress = compile_least(&a);
    let egress = AtomPipeline::passthrough("egress");
    let reshape = |(i, p): (usize, Packet)| match (i / 3) % 4 {
        1 => (p.iter().filter(|(name, _)| *name != "dport"))
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        3 => p.with("vlan_tag", i as i32 % 5),
        _ => p,
    };
    let trace: Vec<Packet> = (a.trace(TRACE_LEN, SEED).into_iter().enumerate())
        .map(reshape)
        .collect();
    for shards in [2, 4] {
        sharded_pair_differential("alternating shapes", &ingress, &egress, &trace, shards);
        let cfg = ShardConfig::new(shards).with_batch(16);
        let mut threaded = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let mut sequential = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        for run in ["first", "second"] {
            let merged = threaded.run(&trace).collect().unwrap();
            let parts = sequential.run(&trace).partitioned().unwrap();
            assert_eq!(
                merged,
                sequential.merge(parts),
                "{shards} shards, {run} run"
            );
        }
        assert_eq!(
            threaded.export_merged_ingress_state(),
            sequential.export_merged_ingress_state(),
            "{shards} shards"
        );
    }
}

/// Round-robin from shard 0 over per-shard streams: the merge order.
fn interleave<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let mut streams: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    while !streams.is_empty() {
        for s in &mut streams {
            out.extend(s.next());
        }
        streams.retain(|s| !s.as_slice().is_empty());
    }
    out
}

/// A plan without a flow key deals arrival `i` to shard `i % n`, and the
/// merge starts at shard 0, so a keyless sharded run transmits in the
/// serial order. Stateless pipelines: `collect()` and `for_each` equal
/// the serial run bit for bit (queue metadata included; the second run
/// continues the first's clock on both switches), and so do well-formed
/// frames' `partitioned()` streams interleaved from shard 0. Replica
/// plans, whose in-stream sketch reads are shard-local: the same arrival
/// order and the same stamps. At 1–8 shards and batch sizes 1, 7, 256.
#[test]
fn keyless_plans_transmit_in_serial_order() {
    use bench::wiregen::{self, GenOptions};

    let flowlet = algorithms::by_name("flowlet").unwrap();
    let sketch = algorithms::by_name("heavy_hitters").unwrap();
    let tagged = |trace: Vec<Packet>| -> Vec<Packet> {
        (trace.into_iter().enumerate())
            .map(|(i, p)| p.with("zz_tag", i as i32))
            .collect()
    };
    let egress = AtomPipeline::passthrough("egress");
    let wt = wiregen::wire_trace_for("flowlet", 240, SEED, &GenOptions::default());
    for (ingress, trace, tier) in [
        (
            AtomPipeline::passthrough("in"),
            tagged(flowlet.trace(300, SEED)),
            ShardTier::Exact,
        ),
        (
            compile_least(&sketch),
            tagged(sketch.trace(300, SEED)),
            ShardTier::Replicable,
        ),
    ] {
        let mut serial = Switch::new_slot(&ingress, &egress, CAPACITY).unwrap();
        let first = serial.run(&trace).collect().unwrap();
        let mut second = Vec::new();
        serial.run(&trace).for_each(|p| second.push(p)).unwrap();
        let frames = serial.run_frames(&wt.frames, &wt.cfg).collect().unwrap();
        // What a replica plan must still reproduce: arrival order and
        // the queue's stamps.
        let order = |out: &[Packet]| -> Vec<[Option<i32>; 3]> {
            (out.iter())
                .map(|p| ["zz_tag", "enq_ts", "now"].map(|f| p.get(f)))
                .collect()
        };
        for shards in 1..=8 {
            for batch in [1, 7, 256] {
                let cfg = ShardConfig::new(shards).with_batch(batch);
                let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
                let what = format!("{tier} @ {shards} shards, batch {batch}");
                assert_eq!(sw.plan().tier(), tier, "{what}");
                assert!(sw.plan().flow_key().is_none(), "{what}");
                let collected = sw.run(&trace).collect().unwrap();
                let mut streamed = Vec::new();
                sw.run(&trace).for_each(|p| streamed.push(p)).unwrap();
                if tier == ShardTier::Exact {
                    assert_eq!(collected, first, "{what}: collect");
                    assert_eq!(streamed, second, "{what}: for_each");
                    let parts = sw.run_frames(&wt.frames, &wt.cfg).partitioned().unwrap();
                    assert_eq!(interleave(parts), frames, "{what}: frames");
                } else {
                    assert_eq!(order(&collected), order(&first), "{what}: collect");
                    assert_eq!(order(&streamed), order(&second), "{what}: for_each");
                }
            }
        }
    }
}

/// The sharded switch's line-rate clock continues across runs as the
/// serial switch's does — a second run's first packet arrives where the
/// first run's clock stopped, not at cycle 0 (an egress program that
/// keeps `now` in state would see time run backwards) — and a
/// `.scheduled()` burst, whose clock is run-local, leaves it where the
/// serial burst leaves it. Four runs on one switch each side, under a
/// PIFO, at 1–3 shards.
#[test]
fn a_sharded_switch_clock_continues_across_runs_like_serial() {
    use banzai::pifo::SchedSpec;

    let (ingress, egress) = (
        AtomPipeline::passthrough("in"),
        AtomPipeline::passthrough("out"),
    );
    let trace: Vec<Packet> = (0..100)
        .map(|i| Packet::new().with("seq", i).with("rank", i * 37 % 11))
        .collect();
    let spec = SchedSpec::Pifo {
        rank: "rank".into(),
    };
    let mut serial = Switch::new_slot(&ingress, &egress, CAPACITY)
        .unwrap()
        .with_scheduler(spec.clone());
    let first = serial.run(&trace).collect().unwrap();
    let mut second = Vec::new();
    serial.run(&trace).for_each(|p| second.push(p)).unwrap();
    let burst = serial.run(&trace).scheduled().collect().unwrap();
    let fourth = serial.run(&trace).collect().unwrap();
    assert_eq!(second[0].get("enq_ts"), Some(100));
    assert_eq!(second[0].get("now"), Some(101));

    for shards in 1..=3 {
        let cfg = ShardConfig::new(shards).with_scheduler(spec.clone());
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        assert_eq!(
            sw.run(&trace).collect().unwrap(),
            first,
            "{shards}: collect"
        );
        let mut streamed = Vec::new();
        sw.run(&trace).for_each(|p| streamed.push(p)).unwrap();
        assert_eq!(streamed, second, "{shards}: for_each");
        let deps = sw.run(&trace).scheduled().collect().unwrap();
        assert_eq!(deps, burst, "{shards}: scheduled");
        assert_eq!(
            sw.run(&trace).collect().unwrap(),
            fourth,
            "{shards}: after the burst"
        );
    }
}
