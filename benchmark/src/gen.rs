//! Load generators and output hashes, owned by the benchmark.
//!
//! Every load is a pure function of `--seed` through the splitmix64
//! generator below — deliberately *not* `algorithms::workload` or
//! `crates/bench`, so a later change to those cannot move the load this
//! benchmark offers.

use banzai::wire::{encode, FrameSpec, ParseVerdict, WireConfig, IPPROTO_TCP, IPPROTO_UDP};
use domino_ir::Packet;

/// The splitmix64 finaliser: a full-avalanche 64-bit mixer. The benchmark's
/// private copy — generators, hashes and the calibration kernel all use it.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, domain-separated by `tag` so two loads built
    /// from one seed do not share a sequence.
    pub fn new(seed: u64, tag: u64) -> SplitMix64 {
        SplitMix64(mix64(seed ^ mix64(tag)))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at these
    /// ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `i`-th packet of the bursty flowlet load: 256 flows arriving in
/// bursts of eight consecutive packets, ≈15% of packets opening a gap past
/// flowlet's `THRESHOLD`. A pure function of `(i, seed)`, so the streamed
/// workload regenerates any packet without storing the trace.
pub fn flowlet_packet(i: u64, seed: u64) -> Packet {
    let flow = mix64(seed ^ (i >> 3)) % 256;
    let z = mix64(seed.rotate_left(17) ^ i);
    let gap = if z % 100 < 15 { 20 } else { (z >> 40) % 3 };
    Packet::new()
        .with("sport", 1024 + (flow % 64) as i32)
        .with("dport", 80 + (flow / 64) as i32)
        .with("arrival", (3 * i + gap) as i32)
        .with("new_hop", 0)
        .with("next_hop", 0)
        .with("id", 0)
}

/// `n` flowlet packets, materialised.
pub fn flowlet_trace(n: usize, seed: u64) -> Vec<Packet> {
    (0..n as u64).map(|i| flowlet_packet(i, seed)).collect()
}

/// A flow-major backlogged burst for STFQ: `flows` flows of `per_flow`
/// packets each, lengths uniform in 64..1500, all at virtual time 0 — the
/// maximally unfair arrival order a fair scheduler must undo.
///
/// Returns the trace and, per packet, the rank an independent reading of
/// STFQ assigns it (the flow's cumulative bytes before the packet).
pub fn wfq_burst(flows: usize, per_flow: usize, seed: u64) -> (Vec<Packet>, Vec<i64>) {
    let mut rng = SplitMix64::new(seed, 0x57f9);
    let mut trace = Vec::with_capacity(flows * per_flow);
    let mut ranks = Vec::with_capacity(flows * per_flow);
    for flow in 0..flows {
        let mut finish = 0i64;
        for _ in 0..per_flow {
            let length = 64 + rng.below(1436) as i64;
            trace.push(
                Packet::new()
                    .with("flow", flow as i32)
                    .with("length", length as i32)
                    .with("vt", 0)
                    .with("start", 0),
            );
            ranks.push(finish);
            finish += length;
        }
    }
    (trace, ranks)
}

/// A wire load: frames, the trailer schema they were encoded with, and the
/// verdict the generator expects the parser to reach on each (`None` =
/// accepted).
#[derive(Debug, Clone)]
pub struct WireLoad {
    /// Metadata-trailer schema shared by encoder and parser.
    pub cfg: WireConfig,
    /// One frame per arrival cycle.
    pub frames: Vec<Vec<u8>>,
    /// The generator's expected verdict per frame.
    pub expected: Vec<Option<ParseVerdict>>,
}

/// Encodes the flowlet load as frames: a quarter VLAN-tagged, a quarter
/// UDP, half minimum-size and half carrying a 1,200-byte payload, and
/// exactly one frame in fifty corrupted by one of the eleven reject
/// mutators (fixed count, so every seed offers the same amount of parser
/// work).
pub fn wire_load(n: usize, seed: u64) -> WireLoad {
    let cfg = WireConfig::with_meta_fields(["arrival", "id", "new_hop", "next_hop"])
        .expect("flowlet's non-header fields are a valid trailer schema");
    let mut rng = SplitMix64::new(seed, 0x317e);
    let payload: Vec<u8> = (0..1200u32).map(|b| (b * 31 + 7) as u8).collect();
    let mut frames = Vec::with_capacity(n);
    let mut expected = Vec::with_capacity(n);
    for i in 0..n {
        let pkt = flowlet_packet(i as u64, seed);
        let flow = pkt.get_or_zero("sport") as u32;
        let vlan = rng.below(4) == 0;
        let udp = rng.below(4) == 0;
        let spec = FrameSpec {
            vlan_tci: vlan.then_some(0x2000 | (flow as u16 & 0x0fff)),
            ip_src: u32::from_be_bytes([10, 0, 0, 0]) | (flow & 0xff),
            ip_proto: if udp { IPPROTO_UDP } else { IPPROTO_TCP },
            payload: if rng.below(2) == 0 {
                Vec::new()
            } else {
                payload.clone()
            },
            ..FrameSpec::default()
        };
        let mut frame = encode(&pkt, &cfg, &spec);
        let verdict = (i % 50 == 49).then(|| {
            let m = ParseVerdict::ALL[rng.below(ParseVerdict::COUNT as u64) as usize];
            malform(&mut frame, m, vlan, udp, cfg.meta_len(), &mut rng)
        });
        frames.push(frame);
        expected.push(verdict);
    }
    WireLoad {
        cfg,
        frames,
        expected,
    }
}

/// Corrupts one well-formed frame so the parser must reach `want`, and
/// returns the verdict actually arranged (a mutator that does not apply to
/// this frame's shape — a VLAN cut on an untagged frame, a TCP fault on a
/// UDP frame — falls back to its nearest applicable sibling).
fn malform(
    frame: &mut Vec<u8>,
    want: ParseVerdict,
    vlan: bool,
    udp: bool,
    meta_len: usize,
    rng: &mut SplitMix64,
) -> ParseVerdict {
    let l3 = if vlan { 18 } else { 14 };
    let l4 = l3 + 20;
    let l4_len = if udp { 8 } else { 20 };
    let mut cut = |frame: &mut Vec<u8>, from: usize, span: usize| {
        frame.truncate(from + rng.below(span as u64) as usize);
    };
    match want {
        ParseVerdict::TruncatedEthernet => cut(frame, 0, 14),
        ParseVerdict::TruncatedVlan if vlan => cut(frame, 14, 4),
        ParseVerdict::TruncatedVlan => {
            cut(frame, 0, 14);
            return ParseVerdict::TruncatedEthernet;
        }
        ParseVerdict::UnsupportedEthertype => {
            frame[l3 - 2] = 0x86;
            frame[l3 - 1] = 0xdd;
        }
        ParseVerdict::BadIpVersion => frame[l3] = 0x65,
        ParseVerdict::BadIhl => frame[l3] = 0x43,
        ParseVerdict::TruncatedIpv4 => cut(frame, l3, 20),
        ParseVerdict::UnsupportedIpProto => frame[l3 + 9] = 47,
        ParseVerdict::BadTcpOffset if !udp => frame[l4 + 12] = 0x30,
        ParseVerdict::TruncatedTcp if !udp => cut(frame, l4, 20),
        ParseVerdict::BadTcpOffset | ParseVerdict::TruncatedTcp | ParseVerdict::TruncatedUdp
            if udp =>
        {
            cut(frame, l4, 8);
            return ParseVerdict::TruncatedUdp;
        }
        ParseVerdict::BadTcpOffset | ParseVerdict::TruncatedTcp | ParseVerdict::TruncatedUdp => {
            cut(frame, l4, 20);
            return ParseVerdict::TruncatedTcp;
        }
        ParseVerdict::TruncatedMetadata => cut(frame, l4 + l4_len, meta_len),
    }
    want
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Full content hash of one output packet: every field name and value.
/// The verification pass compares these across the timed path, the staged
/// replica and the map reference engine.
pub fn hash_packet(pkt: &Packet) -> u64 {
    let mut h = FNV_OFFSET;
    for (name, value) in pkt.iter() {
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        h = mix64(h ^ value as u32 as u64);
    }
    h
}

/// Full content hash of one output frame, eight bytes at a time.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    for b in words.remainder() {
        h = (h ^ *b as u64).wrapping_mul(FNV_PRIME);
    }
    mix64(h)
}

/// Where a run's outputs go.
///
/// Timed runs fold a cheap order-sensitive checksum (values only — the
/// sink must not dominate what it measures); the verification pass
/// additionally records one full hash per output.
#[derive(Debug, Default)]
pub struct Sink {
    /// Order-sensitive checksum over everything seen.
    pub checksum: u64,
    /// Outputs seen.
    pub count: u64,
    /// Sum of the outputs' field counts (packets only).
    pub fields: u64,
    /// Per-output full hashes, recorded only by [`Sink::recording`] sinks.
    pub hashes: Option<Vec<u64>>,
}

impl Sink {
    /// A checksum-only sink (what timed runs use).
    pub fn folding() -> Sink {
        Sink::default()
    }

    /// A sink that also records one full hash per output.
    pub fn recording(capacity: usize) -> Sink {
        Sink {
            hashes: Some(Vec::with_capacity(capacity)),
            ..Sink::default()
        }
    }

    /// Consumes one output packet.
    #[inline]
    pub fn packet(&mut self, pkt: &Packet) {
        self.count += 1;
        for (_, v) in pkt.iter() {
            self.checksum = (self.checksum ^ v as u32 as u64).wrapping_mul(FNV_PRIME);
        }
        if let Some(h) = &mut self.hashes {
            self.fields += pkt.len() as u64;
            h.push(hash_packet(pkt));
        }
    }

    /// Consumes one flat packet in place (the `engine_flat` output): the
    /// checksum folds the raw slots; a recording sink also hashes the map
    /// view, which is what the map reference engine is compared on.
    #[inline]
    pub fn flat(&mut self, flat: &domino_ir::FlatPacket) {
        self.count += 1;
        for v in flat.slots() {
            self.checksum = (self.checksum ^ *v as u32 as u64).wrapping_mul(FNV_PRIME);
        }
        if let Some(h) = &mut self.hashes {
            let pkt = flat.to_packet();
            self.fields += pkt.len() as u64;
            h.push(hash_packet(&pkt));
        }
    }

    /// Consumes one output frame.
    #[inline]
    pub fn frame(&mut self, frame: &[u8]) {
        self.count += 1;
        let full = hash_bytes(frame);
        self.checksum = mix64(self.checksum ^ full);
        if let Some(h) = &mut self.hashes {
            h.push(full);
        }
    }

    /// Consumes one scheduled departure: the packet plus the scheduling
    /// observables (arrival, rank, departure cycle).
    pub fn departure(&mut self, d: &banzai::SchedDeparture) {
        let stamp = mix64(d.arrival as u64 ^ mix64(d.departure as u64 ^ mix64(d.key.rank as u64)));
        self.count += 1;
        self.fields += d.pkt.len() as u64;
        let full = mix64(hash_packet(&d.pkt) ^ stamp);
        self.checksum = mix64(self.checksum ^ full);
        if let Some(h) = &mut self.hashes {
            h.push(full);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_are_deterministic_per_seed_and_differ_across_seeds() {
        assert_eq!(flowlet_trace(500, 7), flowlet_trace(500, 7));
        assert_ne!(flowlet_trace(500, 7), flowlet_trace(500, 8));
        assert_eq!(wfq_burst(4, 50, 7), wfq_burst(4, 50, 7));
        assert_ne!(wfq_burst(4, 50, 7).0, wfq_burst(4, 50, 8).0);
        let (a, b, c) = (wire_load(500, 7), wire_load(500, 7), wire_load(500, 8));
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.frames, c.frames);
    }

    #[test]
    fn every_generated_verdict_is_the_parsers_verdict() {
        let load = wire_load(5_000, 11);
        let mut seen = std::collections::BTreeSet::new();
        for (frame, want) in load.frames.iter().zip(&load.expected) {
            let got = banzai::wire::parse(frame, &load.cfg).err();
            assert_eq!(got, *want);
            seen.extend(got.map(|v| v.index()));
        }
        assert_eq!(load.expected.iter().flatten().count(), 100);
        assert!(seen.len() >= 8, "mutators cover {} verdicts", seen.len());
    }

    #[test]
    fn wfq_ranks_are_per_flow_prefix_sums() {
        let (trace, ranks) = wfq_burst(3, 4, 5);
        for flow in 0..3 {
            let mut sum = 0i64;
            for k in 0..4 {
                let i = flow * 4 + k;
                assert_eq!(trace[i].expect("flow"), flow as i32);
                assert_eq!(ranks[i], sum);
                sum += trace[i].expect("length") as i64;
            }
        }
    }
}
