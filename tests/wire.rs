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
//! The second part is the **switch-level tier differential**:
//! [`Switch::run_frames`] (the bound tier on the switch's slab) against the
//! composition it replaced — `wire::parse` → `run(&packets)` →
//! `wire::deparse` on the map tier — bytes, counters and state.
//!
//! The last part is the malformed-traffic suite: a canonical frame
//! truncated at *every* byte boundary must produce the pinned
//! [`ParseVerdict`] for that region and bump exactly the matching
//! per-reason drop counter on the switch; and the parse graph's whole
//! decision space, enumerated, must match an independent verdict model on
//! both tiers and on the switch.

use banzai::pifo::SchedSpec;
use banzai::wire::{self, BoundParser, FrameSpec, ParseVerdict, WireConfig, WireLayout};
use banzai::{
    AtomKind, AtomPipeline, DropReason, Machine, PipelineEngine, SlotMachine, Switch, Target,
};
use bench::wiregen::{self, GenOptions, WireTrace};
use domino_ir::{FieldTable, Packet};
use std::collections::HashMap;
use std::sync::Arc;

const TRACE_LEN: usize = 600;
const SEED: u64 = 0x000D_0771_2016;

/// Compiles an algorithm on its least-expressive paper target.
fn pipeline_for(a: &algorithms::Algorithm) -> AtomPipeline {
    let target = a.least_target().expect("algorithm must map");
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
// The switch-level tier differential: run_frames ≡ parse → run → deparse
// ---------------------------------------------------------------------------

/// Gives frame `i` of a well-formed `wiregen` trace what the generator
/// never emits — TCP options on every fifth frame, IPv4 options on every
/// third, a payload on most — and a per-frame unique `ip_id`, the tag the
/// reference composition matches a departure to its layout by.
fn decorate(frame: &mut Vec<u8>, i: usize) {
    let l3 = if frame[12..14] == [0x81, 0x00] {
        18
    } else {
        14
    };
    frame[l3 + 4..l3 + 6].copy_from_slice(&(i as u16).to_be_bytes());
    if frame[l3 + 9] == wire::IPPROTO_TCP && i.is_multiple_of(5) {
        frame[l3 + 32] = 0x70; // data offset 7: two words of options
        frame.splice(l3 + 40..l3 + 40, [1; 8]);
    }
    if i.is_multiple_of(3) {
        frame[l3] = 0x46; // IHL 6: one word of options
        frame.splice(l3 + 20..l3 + 20, [1; 4]);
    }
    frame.extend((0..i % 7 * 13).map(|b| b as u8));
}

/// Turns a well-formed (decorated) frame into one the parse graph
/// rejects, by the `k`-th of its eleven verdicts' mutators; one that does
/// not apply to the frame's shape — a tag cut on an untagged frame, a TCP
/// fault on UDP — falls back to the runt.
fn spoil(frame: &mut Vec<u8>, k: usize) {
    use ParseVerdict::*;
    let tagged = frame[12..14] == [0x81, 0x00];
    let l3 = if tagged { 18 } else { 14 };
    let l4 = l3 + 4 * (frame[l3] & 0x0f) as usize;
    let tcp = frame[l3 + 9] == wire::IPPROTO_TCP;
    let l4_len = if tcp { 4 * (frame[l4 + 12] >> 4) } else { 8 } as usize;
    match ParseVerdict::ALL[k % ParseVerdict::COUNT] {
        TruncatedVlan if tagged => frame.truncate(16),
        UnsupportedEthertype => frame[l3 - 2..l3].copy_from_slice(&[0x86, 0xdd]),
        BadIpVersion => frame[l3] = 0x60 | frame[l3] & 0x0f,
        BadIhl => frame[l3] = 0x43,
        TruncatedIpv4 => frame.truncate(l3 + 11),
        UnsupportedIpProto => frame[l3 + 9] = 47,
        BadTcpOffset if tcp => frame[l4 + 12] = 0x20,
        TruncatedTcp if tcp => frame.truncate(l4 + 13),
        TruncatedUdp if !tcp => frame.truncate(l4 + 5),
        TruncatedMetadata => frame.truncate(l4 + l4_len + 1),
        _ => frame.truncate(9),
    }
}

/// `run_frames` as the composition of public calls it stands for, on the
/// map tier: parse every frame, run the packets, deparse each departure
/// over the layout of the frame it was born from. A frame the map tier
/// rejects still takes its arrival cycle and its drop counter, which no
/// packet source can spend: the packets before it run first, then the
/// frame alone goes to the switch (a rejected frame meets no record and
/// no queue). Runs compose at line rate, where the queue is empty at
/// every run's end — the only regime the callers put rejects in.
fn parse_run_deparse<E: PipelineEngine>(sw: &mut Switch<E>, wt: &WireTrace) -> Vec<Vec<u8>> {
    let ip_id = |p: &Packet| p.get("ip_id").expect("ip_id is a wire field");
    let parsed: Vec<Result<wire::WirePacket, &Vec<u8>>> = wt
        .frames
        .iter()
        .map(|f| wire::parse(f, &wt.cfg).map_err(|_| f))
        .collect();
    let layouts: HashMap<i32, &WireLayout> = parsed
        .iter()
        .flatten()
        .map(|wp| (ip_id(&wp.pkt), &wp.layout))
        .collect();
    assert_eq!(
        layouts.len(),
        parsed.iter().flatten().count(),
        "ip_id must be unique per frame"
    );
    let mut out = Vec::new();
    for segment in parsed.split_inclusive(Result::is_err) {
        let packets: Vec<Packet> = segment.iter().flatten().map(|wp| wp.pkt.clone()).collect();
        out.extend(sw.run(&packets).collect().expect("slices cannot fail"));
        if let Some(Err(rejected)) = segment.last() {
            let none = sw.run_frames(std::slice::from_ref(*rejected), &wt.cfg);
            assert!(none.collect().expect("slices cannot fail").is_empty());
        }
    }
    out.iter()
        .map(|p| wire::deparse(p, layouts[&ip_id(p)]))
        .collect()
}

/// One switch configuration, both ways, on one engine, over `runs` back
/// to back on the same switches (state, clock and counters carry over;
/// the schema may change between runs): transmitted bytes, per-reason
/// drop counters and both exported states must be equal after each — and
/// the frames `for_each` lends its sink must be the ones `collect` keeps.
fn assert_tiers_agree<E: PipelineEngine>(
    what: &str,
    mk: impl Fn() -> Switch<E>,
    runs: &[&WireTrace],
) {
    let (mut by_frame, mut lent, mut by_packet) = (mk(), mk(), mk());
    for (run, wt) in runs.iter().enumerate() {
        let what = format!("{what}, run {run}");
        let got = by_frame
            .run_frames(&wt.frames, &wt.cfg)
            .collect()
            .expect("slices cannot fail");
        let mut copied = Vec::new();
        lent.run_frames(&wt.frames, &wt.cfg)
            .for_each(|f| copied.push(f.to_vec()))
            .expect("slices cannot fail");
        assert_eq!(copied, got, "{what}: for_each ≡ collect");
        let want = parse_run_deparse(&mut by_packet, wt);
        assert_eq!(got.len(), want.len(), "{what}: departure count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{what}: bytes of departure {i}");
        }
        assert_eq!(
            by_frame.drop_counters(),
            by_packet.drop_counters(),
            "{what}"
        );
        assert_eq!(by_frame.transmitted(), by_packet.transmitted(), "{what}");
        assert_eq!(
            by_frame.export_ingress_state(),
            by_packet.export_ingress_state(),
            "{what}: ingress state"
        );
        assert_eq!(
            by_frame.export_egress_state(),
            by_packet.export_egress_state(),
            "{what}: egress state"
        );
    }
    let roomy = runs.iter().all(|wt| by_frame.capacity() >= wt.frames.len());
    let lossless = roomy && by_frame.drop_counters().parse_total() == 0;
    assert_eq!(by_frame.drops() == 0, lossless, "{what}: drops");
}

/// `trace` encoded under `cfg`'s schema plus one more trailer word, as
/// the worst neighbours a recycled record can meet: a long tagged TCP
/// frame (1,200-B payload) then a short untagged UDP one, alternating —
/// a slot, a presence bit, a `vlan_tci`/`tcp_*` region or a tail byte
/// left over from the frame before would show in the one after.
fn zebra(trace: &[Packet], cfg: &WireConfig) -> WireTrace {
    let schema = cfg.meta_fields().iter().map(String::as_str);
    let cfg = WireConfig::with_meta_fields(schema.chain(["zebra_spare"])).unwrap();
    let encode = |(i, pkt): (usize, &Packet)| {
        let long = i % 2 == 0;
        let spec = FrameSpec {
            vlan_tci: long.then_some(0x2000 | i as u16 & 0x0fff),
            ip_proto: [wire::IPPROTO_UDP, wire::IPPROTO_TCP][long as usize],
            payload: vec![0x5a; if long { 1200 } else { 0 }],
            ..FrameSpec::default()
        };
        let mut frame = wire::encode(pkt, &cfg, &spec);
        decorate(&mut frame, i);
        frame
    };
    let frames = trace.iter().enumerate().map(encode).collect();
    WireTrace { cfg, frames }
}

/// The differential for one ingress program over `codel_lut` at egress
/// (so the queue-metadata stamps are read, and — riding the trailer —
/// compared): lossless at line rate, then oversubscribed 3:1 into a small
/// queue, on both engines.
fn tier_differential(
    name: &str,
    ingress: &AtomPipeline,
    spec: &SchedSpec,
    trace: &[Packet],
    outputs: &[&str],
) {
    let egress = pipeline_for(&algorithms::CODEL_LUT);
    let opts = GenOptions {
        extra_meta: outputs
            .iter()
            .chain(&banzai::switch::QUEUE_METADATA_FIELDS)
            .chain(algorithms::CODEL_LUT.output_fields)
            .map(|f| f.to_string())
            .collect(),
        ..GenOptions::default()
    };
    let mut wt = wiregen::wire_trace(trace, SEED, &opts);
    for (i, frame) in wt.frames.iter_mut().enumerate() {
        decorate(frame, i);
    }
    fn tuned<E: PipelineEngine>(sw: Switch<E>, spec: &SchedSpec, drain_period: u64) -> Switch<E> {
        sw.with_scheduler(spec.clone())
            .with_drain_period(drain_period)
    }
    // What a recycled record must not carry over. Every switch runs the
    // trace, then — same switch, a longer trailer — its zebra; at line
    // rate, where a departure's record is the next arrival's, a third run
    // has every seventh frame spoiled, so rejects fall between good frames.
    // The tight queue's refusals hand records back too.
    let zebra = zebra(trace, &wt.cfg);
    let mut spoiled = wt.clone();
    for (i, frame) in spoiled.frames.iter_mut().enumerate().skip(6).step_by(7) {
        spoil(frame, i / 7);
        assert!(wire::parse(frame, &wt.cfg).is_err(), "{name}: frame {i}");
    }
    for (capacity, drain_period) in [(trace.len(), 1), (8, 3)] {
        let what = format!("{name}, capacity {capacity}, drain {drain_period}");
        let runs = [&wt, &zebra, &spoiled];
        let runs = &runs[..if drain_period == 1 { 3 } else { 2 }];
        assert_tiers_agree(
            &format!("{what}, map engine"),
            || {
                let sw = Switch::new(ingress.clone(), egress.clone(), capacity);
                tuned(sw, spec, drain_period)
            },
            runs,
        );
        assert_tiers_agree(
            &format!("{what}, slot engine"),
            || {
                let sw = Switch::new_slot(ingress, &egress, capacity).expect("slot-lowerable");
                tuned(sw, spec, drain_period)
            },
            runs,
        );
    }
}

#[test]
fn run_frames_equals_parse_run_deparse_for_every_algorithm() {
    let mappable = algorithms::TABLE4
        .iter()
        .chain([&algorithms::CODEL_LUT])
        .filter(|a| a.paper.least_atom.is_some());
    for a in mappable {
        tier_differential(
            a.name,
            &pipeline_for(a),
            &SchedSpec::Fifo,
            &a.trace(TRACE_LEN, SEED),
            a.output_fields,
        );
    }
}

/// The two things a slab can hold that a frame cannot: a header field the
/// frame has no bytes for (`tcp_win` written on UDP frames must vanish at
/// deparse, on TCP frames land in the header; read, it is 0), and a rank
/// field that is in neither the headers nor the trailer (the PIFO reads it
/// off the slab).
#[test]
fn tiers_agree_on_fields_the_frame_does_not_carry() {
    let source = "struct Packet { int sport; int tcp_win; int prio; };\n\
                  void mark(struct Packet pkt) {\n\
                    pkt.tcp_win = pkt.sport + 1;\n\
                    pkt.prio = 70000 - pkt.sport;\n\
                  }";
    let ingress = domino_compiler::compile(source, &Target::banzai(AtomKind::Write)).unwrap();
    let by_prio = SchedSpec::Pifo {
        rank: "prio".into(),
    };
    let trace = algorithms::by_name("flowlet")
        .unwrap()
        .trace(TRACE_LEN, SEED);
    tier_differential("mark", &ingress, &by_prio, &trace, &[]);
    // And the other way round: headers a frame does not carry read 0, not
    // what the record's last frame — tagged, or the other L4 — left there.
    let source = "struct Packet { int tcp_win; int vlan_tci; int udp_len; int seen; };\n\
                  void probe(struct Packet pkt) {\n\
                    pkt.seen = pkt.tcp_win + pkt.vlan_tci + pkt.udp_len;\n\
                  }";
    let ingress = domino_compiler::compile(source, &Target::banzai(AtomKind::Write)).unwrap();
    tier_differential("probe", &ingress, &SchedSpec::Fifo, &trace, &["seen"]);
}

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

// ---------------------------------------------------------------------------
// Parser totality, by enumeration
// ---------------------------------------------------------------------------

/// Every byte the parse graph branches on, and the trailer it is asked
/// for: one point of its (finite) decision space.
#[derive(Debug, Clone, Copy)]
struct Shape {
    outer: u16,
    inner: u16,
    version: u8,
    ihl: u8,
    proto: u8,
    doff: u8,
    words: usize,
}

impl Shape {
    fn tagged(&self) -> bool {
        self.outer == wire::ETHERTYPE_VLAN
    }

    /// A frame of this shape, complete by its own length fields (a header
    /// too short to be legal still gets its minimum), three payload bytes
    /// behind it, every other byte filler.
    fn frame(&self) -> Vec<u8> {
        let l3 = if self.tagged() { 18 } else { 14 };
        let l4 = l3 + 4 * self.ihl.max(5) as usize;
        let l4_len = match self.proto {
            wire::IPPROTO_TCP => 4 * self.doff.max(5) as usize,
            _ => 8,
        };
        let mut f: Vec<u8> = (0..l4 + l4_len + 4 * self.words + 3)
            .map(|i| 0xA0 | i as u8 & 0x0f)
            .collect();
        f[12..14].copy_from_slice(&self.outer.to_be_bytes());
        if self.tagged() {
            f[16..18].copy_from_slice(&self.inner.to_be_bytes());
        }
        f[l3] = self.version << 4 | self.ihl;
        f[l3 + 9] = self.proto;
        if self.proto == wire::IPPROTO_TCP {
            f[l4 + 12] = self.doff << 4 | 0x0a;
        }
        f
    }

    /// The verdict model, independent of the parser's control flow: the
    /// graph is a fixed sequence of steps, each needing the frame to reach
    /// some length or a field to hold a legal value, and the verdict is
    /// the first step the `len`-byte truncation fails.
    fn verdict(&self, len: usize) -> Option<ParseVerdict> {
        use ParseVerdict::*;
        let tcp = self.proto == wire::IPPROTO_TCP;
        let l3 = if self.tagged() { 18 } else { 14 };
        let l4 = l3 + 4 * self.ihl as usize;
        let ethertype = if self.tagged() {
            self.inner
        } else {
            self.outer
        };
        let l4_min = if tcp { 20 } else { 8 };
        let l4_len = if tcp { 4 * self.doff as usize } else { 8 };
        let steps = [
            (len >= 14, TruncatedEthernet),
            (len >= l3, TruncatedVlan),
            (ethertype == wire::ETHERTYPE_IPV4, UnsupportedEthertype),
            (len > l3, TruncatedIpv4),
            (self.version == 4, BadIpVersion),
            (self.ihl >= 5, BadIhl),
            (len >= l4, TruncatedIpv4),
            (tcp || self.proto == wire::IPPROTO_UDP, UnsupportedIpProto),
            (
                len >= l4 + l4_min,
                if tcp { TruncatedTcp } else { TruncatedUdp },
            ),
            (!tcp || self.doff >= 5, BadTcpOffset),
            (len >= l4 + l4_len, TruncatedTcp),
            (len >= l4 + l4_len + 4 * self.words, TruncatedMetadata),
        ];
        steps.iter().find(|(ok, _)| !ok).map(|&(_, v)| v)
    }
}

/// The parse graph's whole decision space — both ethertypes, the version
/// nibble, every IHL, the protocol, every TCP data offset, with and
/// without a trailer — at **every** truncation length: the map tier, the
/// bound tier and the switch's per-reason counters must all give the
/// model's verdict, and every accepted frame must deparse to itself.
#[test]
fn every_shape_at_every_truncation_gets_the_models_verdict() {
    const GRE: u8 = 47;
    let ethertypes = [wire::ETHERTYPE_IPV4, wire::ETHERTYPE_VLAN, 0x86dd];
    let mut shapes = Vec::new();
    for outer in ethertypes {
        // An inner ethertype exists only behind a tag, a data offset only
        // in a TCP header.
        let inners = if outer == wire::ETHERTYPE_VLAN { 3 } else { 1 };
        for &inner in &ethertypes[..inners] {
            for version in [4, 6] {
                for ihl in 0..16 {
                    for proto in [wire::IPPROTO_TCP, wire::IPPROTO_UDP, GRE] {
                        let tcp = proto == wire::IPPROTO_TCP;
                        for doff in if tcp { 0..16 } else { 5..6 } {
                            for words in [0, 2] {
                                shapes.push(Shape {
                                    outer,
                                    inner,
                                    version,
                                    ihl,
                                    proto,
                                    doff,
                                    words,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(shapes.len(), 5 * 2 * 16 * 18 * 2);

    // The fullest bound layout: every header field and the trailer.
    let parsers = [vec![], vec!["arrival", "next_hop"]].map(|meta| {
        let mut table = FieldTable::new();
        domino_ir::wire::intern_header_fields(&mut table);
        for f in &meta {
            table.intern(f);
        }
        BoundParser::bind(WireConfig::with_meta_fields(meta).unwrap(), Arc::new(table))
    });
    let mut sw = Switch::new(
        AtomPipeline::passthrough("in"),
        AtomPipeline::passthrough("out"),
        4,
    );
    let mut rejected = [0u64; ParseVerdict::COUNT];
    for shape in shapes {
        let frame = shape.frame();
        let parser = &parsers[shape.words / 2];
        let cfg = parser.config();
        let cuts: Vec<&[u8]> = (0..=frame.len()).map(|len| &frame[..len]).collect();
        let mut accepted: Vec<&[u8]> = Vec::new();
        for &cut in &cuts {
            let want = shape.verdict(cut.len());
            let what = format!("{shape:?} cut to {} of {} bytes", cut.len(), frame.len());
            let map = wire::parse(cut, cfg);
            let bound = parser.parse_flat(cut);
            assert_eq!(map.as_ref().err(), want.as_ref(), "map tier, {what}");
            assert_eq!(bound.as_ref().err(), want.as_ref(), "bound tier, {what}");
            match want {
                Some(v) => rejected[v.index()] += 1,
                None => accepted.push(cut),
            }
            if let (Ok(wp), Ok((flat, layout))) = (map, bound) {
                assert_eq!(wire::deparse(&wp.pkt, &wp.layout), cut, "map tier, {what}");
                assert_eq!(
                    parser.deparse_flat(&flat, &layout),
                    cut,
                    "bound tier, {what}"
                );
            }
        }
        // Only the payload may be cut from a frame that still parses.
        assert_eq!(
            accepted.len(),
            if shape.verdict(frame.len()).is_none() {
                4
            } else {
                0
            }
        );
        let out = sw
            .run_frames(&cuts, cfg)
            .collect()
            .expect("slices cannot fail");
        assert_eq!(
            out, accepted,
            "{shape:?}: the switch transmits the accepted cuts, unchanged"
        );
        for v in ParseVerdict::ALL {
            let got = sw.drop_counters().get(DropReason::Parse(v));
            assert_eq!(got, rejected[v.index()], "{shape:?}: counter for `{v}`");
        }
    }
    assert!(
        rejected.iter().all(|&n| n > 0),
        "every verdict is reachable"
    );
    assert_eq!(sw.drop_counters().parse_total(), sw.drops());
}

/// A wire switch driven by the map engine and one driven by the slot
/// engine must agree on transmitted bytes, per-reason counters *and*
/// final state under heavily malformed traffic — E11's parser-stress
/// scenario.
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
    assert_eq!(
        map_sw.export_ingress_state(),
        slot_sw.export_ingress_state()
    );

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
