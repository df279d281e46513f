//! Wire-format trace synthesis: turns the seeded map-packet workloads of
//! `algorithms::trace` into raw byte frames for the `banzai::wire`
//! front-end — per-flow 5-tuples, an optional 802.1Q tag, and a
//! controllable malformation rate for parser-stress runs.
//!
//! The encoding contract mirrors the parser's: every **canonical header
//! field** a trace packet carries (`sport`, `dport`, …) lands in its real
//! header position; every other field rides the metadata trailer, whose
//! schema ([`banzai::wire::WireConfig`]) is the sorted union of the
//! trace's non-header fields — so `parse(encode(pkt))` recovers the trace
//! packet exactly and a wire-born replay is field-for-field comparable to
//! the map-born one. Header positions the trace doesn't mention (MACs,
//! addresses, the 5-tuple remainder) are synthesized per *flow* from the
//! generator seed, deterministic like every other workload.

use banzai::wire::{
    encode, parse, FrameSpec, ParseVerdict, WireConfig, ETHERTYPE_VLAN, IPPROTO_TCP, IPPROTO_UDP,
};
use domino_ir::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Knobs for frame synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct GenOptions {
    /// Distinct synthetic flows (5-tuple variety beyond what the trace's
    /// own `sport`/`dport` fields provide).
    pub flows: u32,
    /// Fraction of frames carrying an 802.1Q tag.
    pub vlan_rate: f64,
    /// Fraction of frames corrupted by a random mutator (truncations,
    /// garbage ethertype, bad version/IHL/offset, unknown protocol).
    pub malform_rate: f64,
    /// Extra trailer fields beyond the trace's own (typically an
    /// algorithm's *output* fields, so results written by the pipeline
    /// get a wire slot and survive deparsing — the INT idiom). Header
    /// names are ignored: those already travel in the headers.
    pub extra_meta: Vec<String>,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            flows: 64,
            vlan_rate: 0.25,
            malform_rate: 0.0,
            extra_meta: Vec::new(),
        }
    }
}

/// A synthesized wire trace: the trailer schema the frames were encoded
/// with, and the frames themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTrace {
    /// The metadata-trailer schema (parser-side contract).
    pub cfg: WireConfig,
    /// One frame per trace packet, in order.
    pub frames: Vec<Vec<u8>>,
}

/// The trailer schema for a map-packet trace: the sorted union of every
/// non-header field any packet carries.
pub fn schema_for(trace: &[Packet]) -> WireConfig {
    schema(trace, &[])
}

/// [`schema_for`]'s union widened by the non-header names of `extra`.
fn schema(trace: &[Packet], extra: &[String]) -> WireConfig {
    let fields = trace
        .iter()
        .flat_map(|pkt| pkt.iter().map(|(name, _)| name));
    let meta: BTreeSet<&str> = fields
        .chain(extra.iter().map(String::as_str))
        .filter(|name| !domino_ir::wire::is_header_field(name))
        .collect();
    WireConfig::with_meta_fields(meta).expect("non-header fields cannot shadow headers")
}

/// Encodes a map-packet trace as wire frames (see the module docs for the
/// header-vs-trailer contract). Deterministic given `seed`.
pub fn wire_trace(trace: &[Packet], seed: u64, opts: &GenOptions) -> WireTrace {
    let cfg = schema(trace, &opts.extra_meta);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F8A3);
    let flows = opts.flows.max(1);
    let frames = trace
        .iter()
        .map(|pkt| {
            let flow = rng.gen_range(0..flows);
            let spec = FrameSpec {
                eth_dst: 0x0200_0000_0000 | ((flow as u64) << 8) | 0x01,
                eth_src: 0x0200_0000_0000 | ((flow as u64) << 8) | 0x02,
                vlan_tci: rng
                    .gen_bool(opts.vlan_rate)
                    .then_some(0x2000 | (flow as u16 & 0x0fff)),
                ip_src: u32::from_be_bytes([10, 0, 0, 0]) | flow,
                ip_dst: u32::from_be_bytes([10, 1, 0, 0]) | (flow.rotate_left(16) & 0xff),
                ip_proto: if flow % 4 == 3 {
                    IPPROTO_UDP
                } else {
                    IPPROTO_TCP
                },
                sport: 1024 + (flow as u16 % 4096),
                dport: if flow % 2 == 0 { 80 } else { 443 },
                ..FrameSpec::default()
            };
            let mut frame = encode(pkt, &cfg, &spec);
            if rng.gen_bool(opts.malform_rate) {
                malform(&mut frame, &mut rng);
            }
            frame
        })
        .collect();
    WireTrace { cfg, frames }
}

/// Synthesizes the wire trace for one named algorithm workload: the
/// seeded map trace from `algorithms`, encoded per `opts`.
pub fn wire_trace_for(name: &str, n: usize, seed: u64, opts: &GenOptions) -> WireTrace {
    let algo = algorithms::by_name(name).unwrap_or_else(|| panic!("unknown algorithm `{name}`"));
    wire_trace(&algo.trace(n, seed), seed, opts)
}

/// The L3 offset of an encoded frame (18 when 802.1Q-tagged, else 14).
fn l3_off(frame: &[u8]) -> usize {
    if frame.len() >= 14 && u16::from_be_bytes([frame[12], frame[13]]) == ETHERTYPE_VLAN {
        18
    } else {
        14
    }
}

/// Corrupts one well-formed frame in place with a randomly chosen
/// mutator. Every mutator produces a frame the parser must *reject* —
/// none of them leaves the frame accepted, so malformed counts are exact.
fn malform(frame: &mut Vec<u8>, rng: &mut StdRng) {
    let l3 = l3_off(frame);
    match rng.gen_range(0u8..6) {
        // Runt: cut inside the Ethernet (or VLAN) header.
        0 => frame.truncate(rng.gen_range(0..l3.min(frame.len()))),
        // Cut anywhere past the Ethernet header: lands inside IPv4, L4,
        // or the metadata trailer depending on where the knife falls.
        1 => {
            let cut = rng.gen_range(l3..frame.len().max(l3 + 1)).min(frame.len());
            frame.truncate(cut.max(l3));
        }
        // Garbage ethertype (IPv6) in the innermost type position.
        2 => {
            frame[l3 - 2] = 0x86;
            frame[l3 - 1] = 0xdd;
        }
        // Bad IP version nibble.
        3 => frame[l3] = 0x60 | (frame[l3] & 0x0f),
        // IHL below 5.
        4 => frame[l3] = (frame[l3] & 0xf0) | 0x3,
        // Unknown L4 protocol (GRE).
        _ => frame[l3 + 9] = 47,
    }
}

/// Tallies what the parser says about a frame set: `(accepted, one count
/// per [`ParseVerdict`] in `ALL` order)`. The expected-counter oracle for
/// stress differentials.
pub fn expected_verdicts(
    frames: &[Vec<u8>],
    cfg: &WireConfig,
) -> (u64, [u64; ParseVerdict::COUNT]) {
    let mut accepted = 0u64;
    let mut counts = [0u64; ParseVerdict::COUNT];
    for f in frames {
        match parse(f, cfg) {
            Ok(_) => accepted += 1,
            Err(v) => counts[v.index()] += 1,
        }
    }
    (accepted, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_is_sorted_union_of_non_header_fields() {
        let trace = vec![
            Packet::new().with("arrival", 1).with("sport", 2),
            Packet::new().with("next_hop", 3).with("arrival", 4),
        ];
        let cfg = schema_for(&trace);
        assert_eq!(cfg.meta_fields(), ["arrival", "next_hop"]);
    }

    #[test]
    fn wire_trace_encodes_with_the_schema_plus_extra_meta() {
        let trace = algorithms::by_name("flowlet").unwrap().trace(50, 5);
        let plain = wire_trace(&trace, 5, &GenOptions::default());
        assert_eq!(plain.cfg, schema_for(&trace));
        // `dport` is a header field: it stays out of the trailer.
        let opts = GenOptions {
            extra_meta: vec!["zz_out".into(), "dport".into(), "aa_out".into()],
            ..GenOptions::default()
        };
        let widened = wire_trace(&trace, 5, &opts);
        let mut want: BTreeSet<&str> = plain.cfg.meta_fields().iter().map(String::as_str).collect();
        want.extend(["aa_out", "zz_out"]);
        assert_eq!(
            widened.cfg.meta_fields(),
            want.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn well_formed_frames_roundtrip_to_the_trace() {
        let opts = GenOptions::default();
        let algo = algorithms::by_name("flowlet").unwrap();
        let trace = algo.trace(200, 7);
        let wt = wire_trace(&trace, 7, &opts);
        assert_eq!(wt.frames.len(), trace.len());
        let mut vlans = 0;
        for (frame, orig) in wt.frames.iter().zip(&trace) {
            let wire = parse(frame, &wt.cfg).expect("malform_rate 0 frames all parse");
            for (name, v) in orig.iter() {
                assert_eq!(wire.pkt.get(name), Some(v), "field `{name}`");
            }
            vlans += wire.layout.has_vlan() as usize;
        }
        // The tag rate is stochastic but seeded: some of each.
        assert!(vlans > 0 && vlans < trace.len(), "vlans = {vlans}");
    }

    #[test]
    fn generation_is_deterministic() {
        let opts = GenOptions {
            malform_rate: 0.3,
            ..GenOptions::default()
        };
        let a = wire_trace_for("heavy_hitters", 300, 42, &opts);
        let b = wire_trace_for("heavy_hitters", 300, 42, &opts);
        assert_eq!(a, b);
        let c = wire_trace_for("heavy_hitters", 300, 43, &opts);
        assert_ne!(a.frames, c.frames);
    }

    #[test]
    fn malformed_frames_are_all_rejected_and_diverse() {
        let opts = GenOptions {
            malform_rate: 1.0,
            ..GenOptions::default()
        };
        let wt = wire_trace_for("flowlet", 500, 11, &opts);
        let (accepted, counts) = expected_verdicts(&wt.frames, &wt.cfg);
        assert_eq!(accepted, 0, "every mutator must produce a reject");
        assert_eq!(counts.iter().sum::<u64>(), 500);
        // The mutator set covers several distinct verdicts.
        assert!(
            counts.iter().filter(|&&c| c > 0).count() >= 4,
            "verdict spread too narrow: {counts:?}"
        );
    }
}
