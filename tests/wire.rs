//! The **fifth leg** of the differential harness: the wire roundtrip.
//!
//! `tests/differential.rs` pins four implementations against each other
//! (map engine, slot engine, AST interpreter, Rust reference) on
//! *map-born* packets. This suite adds the byte-born path: every Table 4
//! algorithm's seeded trace is encoded as raw wire frames
//! (`bench::wiregen`), driven through parse → pipeline → deparse on
//! **both** engines, and must agree with the map-born run field-for-field
//! and state-for-state — plus byte-for-byte between the engines.
//!
//! The second half is the malformed-traffic golden suite: a canonical
//! frame truncated at *every* byte boundary must produce the pinned
//! [`ParseVerdict`] for that region and bump exactly the matching
//! per-reason drop counter on the switch.

use banzai::wire::{self, BoundParser, FrameSpec, ParseVerdict, WireConfig};
use banzai::{AtomPipeline, DropReason, Machine, SlotMachine, Switch, Target};
use bench::wiregen::{self, GenOptions};
use domino_ir::Packet;

const TRACE_LEN: usize = 600;
const SEED: u64 = 0x000D_0771_2016;

/// Compiles an algorithm on its least-expressive paper target (mirrors
/// `tests/differential.rs`).
fn pipeline_for(a: &algorithms::Algorithm) -> AtomPipeline {
    let kind = a.paper.least_atom.expect("algorithm must map");
    let target = if a.name == "codel_lut" {
        Target::banzai_with_lut(kind)
    } else {
        Target::banzai(kind)
    };
    domino_compiler::compile(a.source, &target).unwrap_or_else(|e| panic!("{}: {e}", a.name))
}

/// The wire-roundtrip differential for one algorithm:
///
/// 1. the **map-born** baseline (`Machine::run_trace` on the raw trace);
/// 2. the **byte-born map path**: `wire::parse` → `Machine::process` →
///    `wire::deparse` per frame;
/// 3. the **byte-born slot path**: `BoundParser::parse_flat` →
///    `SlotMachine::process_flat` → `BoundParser::deparse_flat`.
///
/// Checks: (a) byte-born ≡ map-born on every declared packet field,
/// (b) all three final states bit-identical, (c) both byte paths emit
/// identical frames, (d) re-parsing an emitted frame recovers the
/// pipeline's output fields.
fn wire_differential(a: &algorithms::Algorithm) {
    let trace = a.trace(TRACE_LEN, SEED);
    // Output fields get trailer slots so pipeline-written results survive
    // deparsing (check d) — the INT idiom of carrying results in-band.
    let opts = GenOptions {
        extra_meta: a.output_fields.iter().map(|f| f.to_string()).collect(),
        ..GenOptions::default()
    };
    let wt = wiregen::wire_trace(&trace, SEED, &opts);
    let checked = domino_ast::parse_and_check(a.source).unwrap();
    let pipeline = pipeline_for(a);

    // 1. Map-born baseline.
    let mut born = Machine::new(pipeline.clone());
    let born_out = born.run_trace(&trace);

    // 2. Byte-born, map engine.
    let mut wire_machine = Machine::new(pipeline.clone());
    let mut wire_pkts = Vec::with_capacity(trace.len());
    let mut wire_bytes = Vec::with_capacity(trace.len());
    for frame in &wt.frames {
        let wp = wire::parse(frame, &wt.cfg)
            .unwrap_or_else(|v| panic!("{}: well-formed frame rejected: {v}", a.name));
        let processed = wire_machine.process(wp.pkt);
        wire_bytes.push(wire::deparse(&processed, &wp.layout));
        wire_pkts.push(processed);
    }

    // 3. Byte-born, slot engine.
    let mut slot = SlotMachine::compile(&pipeline)
        .unwrap_or_else(|e| panic!("{}: slot lowering failed: {e}", a.name));
    let parser = BoundParser::bind(wt.cfg.clone(), slot.field_table().clone());
    let slot_bytes: Vec<Vec<u8>> = wt
        .frames
        .iter()
        .map(|frame| {
            let (mut flat, layout) = parser
                .parse_flat(frame)
                .expect("same frames, same verdicts");
            slot.process_flat(&mut flat);
            parser.deparse_flat(&flat, &layout)
        })
        .collect();

    // (a) Byte-born ≡ map-born on every field the program declares —
    // parsing through real headers must be invisible to the algorithm.
    let fields = checked.packet_fields.clone();
    for (i, (w, b)) in wire_pkts.iter().zip(&born_out).enumerate() {
        assert_eq!(
            w.project(&fields),
            b.project(&fields),
            "{}: wire path diverges from map-born path at packet {i}",
            a.name
        );
    }

    // (b) Bit-identical state across all three runs.
    assert_eq!(
        born.state(),
        wire_machine.state(),
        "{}: wire ingestion changed pipeline state",
        a.name
    );
    assert_eq!(
        *born.state(),
        slot.export_state(),
        "{}: slot wire path state diverged",
        a.name
    );

    // (c) Both engines emit the same bytes.
    for (i, (m, s)) in wire_bytes.iter().zip(&slot_bytes).enumerate() {
        assert_eq!(
            m, s,
            "{}: engines deparsed different bytes at frame {i}",
            a.name
        );
    }

    // (d) Emitted frames re-parse to the pipeline's outputs (the trailer
    // and headers carry every declared field at full fidelity).
    for (i, (bytes, pkt)) in wire_bytes.iter().zip(&wire_pkts).enumerate() {
        let reparsed = wire::parse(bytes, &wt.cfg)
            .unwrap_or_else(|v| panic!("{}: deparsed frame rejected: {v}", a.name));
        for f in a.output_fields {
            assert_eq!(
                reparsed.pkt.get_or_zero(f),
                pkt.get_or_zero(f),
                "{}: output `{f}` lost in deparse at frame {i}",
                a.name
            );
        }
    }
}

macro_rules! wire_differential_test {
    ($name:ident) => {
        #[test]
        fn $name() {
            wire_differential(&algorithms::by_name(stringify!($name)).unwrap());
        }
    };
}

wire_differential_test!(bloom_filter);
wire_differential_test!(heavy_hitters);
wire_differential_test!(flowlet);
wire_differential_test!(rcp);
wire_differential_test!(sampled_netflow);
wire_differential_test!(hull);
wire_differential_test!(avq);
wire_differential_test!(stfq);
wire_differential_test!(dns_ttl_change);
wire_differential_test!(conga);
wire_differential_test!(codel_lut);

// ---------------------------------------------------------------------------
// Malformed-frame goldens: truncation at every boundary
// ---------------------------------------------------------------------------

/// The pinned verdict for a canonical **untagged TCP** frame (IHL 5,
/// data offset 5, `meta_words` trailer words) truncated to `len` bytes.
fn expected_tcp_verdict(len: usize, meta_words: usize) -> Option<ParseVerdict> {
    let meta_end = 54 + 4 * meta_words; // 14 eth + 20 ip + 20 tcp + trailer
    match len {
        0..=13 => Some(ParseVerdict::TruncatedEthernet),
        14..=33 => Some(ParseVerdict::TruncatedIpv4),
        34..=53 => Some(ParseVerdict::TruncatedTcp),
        n if n < meta_end => Some(ParseVerdict::TruncatedMetadata),
        _ => None,
    }
}

#[test]
fn truncation_at_every_boundary_pins_the_verdict() {
    let cfg = WireConfig::with_meta_fields(["arrival", "next_hop"]).unwrap();
    let pkt = Packet::new().with("sport", 7).with("arrival", 3);
    let frame = wire::encode(&pkt, &cfg, &FrameSpec::default());
    assert_eq!(frame.len(), 54 + 8, "canonical frame layout changed");
    for len in 0..=frame.len() {
        let got = wire::parse(&frame[..len], &cfg).err();
        assert_eq!(
            got,
            expected_tcp_verdict(len, 2),
            "wrong verdict for a {len}-byte truncation"
        );
    }
}

#[test]
fn truncation_goldens_for_vlan_and_udp_frames() {
    // Tagged frame: bytes 14..18 are the VLAN tag; cutting inside it is
    // its own verdict, distinct from a short Ethernet header.
    let cfg = WireConfig::new();
    let tagged = wire::encode(
        &Packet::new(),
        &cfg,
        &FrameSpec {
            vlan_tci: Some(5),
            ..FrameSpec::default()
        },
    );
    for len in 14..18 {
        assert_eq!(
            wire::parse(&tagged[..len], &cfg).unwrap_err(),
            ParseVerdict::TruncatedVlan,
            "tagged frame cut at {len}"
        );
    }
    // UDP: its 8-byte header has one truncation region (18..26 on an
    // untagged frame is 14 + 20 = 34 .. 42).
    let udp = wire::encode(
        &Packet::new(),
        &cfg,
        &FrameSpec {
            ip_proto: wire::IPPROTO_UDP,
            ..FrameSpec::default()
        },
    );
    for len in 34..42 {
        assert_eq!(
            wire::parse(&udp[..len], &cfg).unwrap_err(),
            ParseVerdict::TruncatedUdp,
            "udp frame cut at {len}"
        );
    }
    assert!(wire::parse(&udp, &cfg).is_ok());
}

#[test]
fn every_truncation_increments_exactly_its_drop_counter() {
    let cfg = WireConfig::with_meta_fields(["arrival", "next_hop"]).unwrap();
    let frame = wire::encode(
        &Packet::new().with("sport", 7).with("arrival", 3),
        &cfg,
        &FrameSpec::default(),
    );

    // Offer every strict truncation of the canonical frame to one switch.
    let cuts: Vec<Vec<u8>> = (0..frame.len()).map(|len| frame[..len].to_vec()).collect();
    let mut sw = Switch::new(
        AtomPipeline::passthrough("in"),
        AtomPipeline::passthrough("out"),
        256,
    );
    let out = sw
        .run_frames(&cuts, &cfg)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");
    assert!(out.is_empty(), "no truncated frame may be transmitted");

    // The counters must match the per-length goldens exactly.
    let counters = sw.drop_counters();
    for v in ParseVerdict::ALL {
        let expected = (0..frame.len())
            .filter(|&len| expected_tcp_verdict(len, 2) == Some(v))
            .count() as u64;
        assert_eq!(
            counters.get(DropReason::Parse(v)),
            expected,
            "counter for `{v}`"
        );
    }
    assert_eq!(counters.queue_full(), 0);
    assert_eq!(counters.total(), frame.len() as u64);
    assert_eq!(sw.drops(), frame.len() as u64);
}

#[test]
fn garbage_ethertype_bad_ihl_and_bad_offset_goldens() {
    let cfg = WireConfig::new();
    let good = wire::encode(&Packet::new(), &cfg, &FrameSpec::default());

    let mut ipv6 = good.clone();
    ipv6[12] = 0x86;
    ipv6[13] = 0xdd;
    let mut bad_version = good.clone();
    bad_version[14] = 0x65; // version 6, IHL 5
    let mut bad_ihl = good.clone();
    bad_ihl[14] = 0x42;
    let mut bad_doff = good.clone();
    bad_doff[14 + 20 + 12] = 0x30;
    let mut gre = good.clone();
    gre[14 + 9] = 47;

    let frames = [
        (ipv6, ParseVerdict::UnsupportedEthertype),
        (bad_version, ParseVerdict::BadIpVersion),
        (bad_ihl, ParseVerdict::BadIhl),
        (bad_doff, ParseVerdict::BadTcpOffset),
        (gre, ParseVerdict::UnsupportedIpProto),
    ];
    let mut sw = Switch::new(
        AtomPipeline::passthrough("in"),
        AtomPipeline::passthrough("out"),
        256,
    );
    let all: Vec<Vec<u8>> = frames.iter().map(|(f, _)| f.clone()).collect();
    let out = sw
        .run_frames(&all, &cfg)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");
    assert!(out.is_empty());
    for (frame, verdict) in &frames {
        assert_eq!(wire::parse(frame, &cfg).unwrap_err(), *verdict);
        assert_eq!(
            sw.drop_counters().get(DropReason::Parse(*verdict)),
            1,
            "counter for `{verdict}`"
        );
    }
}

/// A wire switch driven by the map engine and one driven by the slot
/// engine must agree on transmitted bytes *and* per-reason counters under
/// heavily malformed traffic — the parser-stress scenario the bench
/// harness also runs at scale.
#[test]
fn stressed_wire_switches_agree_across_engines() {
    let ingress = pipeline_for(&algorithms::by_name("flowlet").unwrap());
    let egress = AtomPipeline::passthrough("egress");
    let wt = wiregen::wire_trace_for(
        "flowlet",
        2_000,
        SEED,
        &GenOptions {
            malform_rate: 0.25,
            ..GenOptions::default()
        },
    );

    let mut map_sw = Switch::new(ingress.clone(), egress.clone(), 128).with_drain_period(2);
    let map_out = map_sw
        .run_frames(&wt.frames, &wt.cfg)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");
    let mut slot_sw = Switch::new_slot(&ingress, &egress, 128)
        .unwrap()
        .with_drain_period(2);
    let slot_out = slot_sw
        .run_frames(&wt.frames, &wt.cfg)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");

    assert_eq!(map_out, slot_out, "transmitted bytes diverged");
    assert_eq!(map_sw.drop_counters(), slot_sw.drop_counters());
    assert_eq!(map_sw.transmitted(), slot_sw.transmitted());

    // And the counters agree with the frame-level oracle.
    let (accepted, expected) = wiregen::expected_verdicts(&wt.frames, &wt.cfg);
    for v in ParseVerdict::ALL {
        assert_eq!(
            map_sw.drop_counters().get(DropReason::Parse(v)),
            expected[v.index()]
        );
    }
    assert_eq!(
        map_sw.transmitted() + map_sw.drop_counters().queue_full(),
        accepted
    );
}

/// `run_frames` is the same run as `run`, with a parser in front and a
/// deparser behind: byte-born packets ride the switch's own queue, so
/// the configured discipline orders them and books their overflow exactly
/// as it does for packet-born traffic. (They used to ride a run-local
/// FIFO that ignored the `SchedSpec` and always dropped as `QueueFull`.)
#[test]
fn byte_born_packets_ride_the_configured_discipline() {
    use banzai::pifo::SchedSpec;

    let cfg = WireConfig::new();
    let frames: Vec<Vec<u8>> = [30u16, 10, 20, 5, 40, 1]
        .iter()
        .map(|&sport| {
            let spec = FrameSpec {
                sport,
                ..FrameSpec::default()
            };
            wire::encode(&Packet::new(), &cfg, &spec)
        })
        .collect();
    let packets: Vec<Packet> = frames
        .iter()
        .map(|f| wire::parse(f, &cfg).expect("well-formed").pkt)
        .collect();
    let sport = |p: &Packet| p.get("sport").expect("sport is a wire field");

    // Roomy: nothing drops, a standing queue builds behind the slow link
    // and the PIFO releases it in rank order. Tight: the same run
    // overflows, and the overflow is the scheduler's.
    for (capacity, pinned) in [(64, Some([10, 1, 5, 20, 30, 40])), (2, None)] {
        let mk = || {
            Switch::new(
                AtomPipeline::passthrough("in"),
                AtomPipeline::passthrough("out"),
                capacity,
            )
            .with_scheduler(SchedSpec::Pifo {
                rank: "sport".into(),
            })
            .with_drain_period(3)
        };
        let mut by_packet = mk();
        let packet_order: Vec<i32> = by_packet
            .run(&packets)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream")
            .iter()
            .map(sport)
            .collect();
        let mut by_frame = mk();
        let frame_order: Vec<i32> = by_frame
            .run_frames(&frames, &cfg)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream")
            .iter()
            .map(|f| sport(&wire::parse(f, &cfg).expect("deparsed frames reparse").pkt))
            .collect();

        assert_eq!(frame_order, packet_order, "capacity {capacity}");
        if let Some(order) = pinned {
            assert_eq!(frame_order, order, "rank order, not arrival order");
        }
        assert_eq!(by_frame.drop_counters(), by_packet.drop_counters());
        let drops = by_frame.drop_counters();
        assert_eq!(drops.queue_full(), 0, "a PIFO never books QueueFull");
        assert_eq!(drops.sched_full() > 0, pinned.is_none());
        assert_eq!(by_frame.transmitted() + drops.total(), frames.len() as u64);
    }
}
