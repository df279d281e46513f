//! The byte-level wire front-end: a parse graph decoding raw frames into
//! packet fields, and a deparser re-serializing them — so the full path is
//! **bytes → parse → pipeline → deparse → bytes**.
//!
//! Banzai proper assumes packets arrive parsed (§2.2); production traffic
//! is bytes. This module supplies the missing front-end as a fixed parse
//! graph:
//!
//! ```text
//! Ethernet ──(0x8100)──► 802.1Q VLAN ──┐
//!     │                                │
//!     └──────────(0x0800)──────────────┴──► IPv4 ──(6)──► TCP ──► [meta] ──► payload
//!                                             │
//!                                             └───(17)──► UDP ──► [meta] ──► payload
//! ```
//!
//! Every multi-byte field is **big-endian on the wire** and a host-order
//! `i32` in the packet slot; the parser is the only place byte order is
//! handled (the canonical slot names live in [`domino_ir::wire`]). The
//! optional *metadata trailer* carries named non-header fields (workload
//! metadata like `arrival`, algorithm outputs like `next_hop`) as
//! big-endian 32-bit words in [`WireConfig`] schema order — the in-band
//! telemetry idiom, which is what lets the Table 4 programs run from real
//! frames even though their inputs are not all IP headers.
//!
//! ## One frame record, two tiers
//!
//! Walking the parse graph fixes the few things that differ from frame to
//! frame (tag or no tag, where L4 starts, which L4, where the trailer and
//! the payload start); the one record of a parsed frame, the
//! [`WireLayout`], is those plus the frame's bytes in a buffer of its own.
//! Every decoded field's region — its *dense wire index* (position in
//! [`HEADER_FIELDS`], then position in the trailer schema), frame offset
//! and width — follows from them, so nothing is stored or allocated per
//! field: one internal-iteration walk visits the regions, a constant index
//! range per header, and two thin routers on each tier read and write
//! them:
//!
//! * the **bound tier** — [`BoundParser`] — is **production**: it routes
//!   a wire index to the slot a field table gave it at bind time, filling
//!   and reading a [`FlatPacket`] slab. It is what `Switch::run_frames`
//!   (on records it recycles, see below) and the sharded dispatcher run;
//!   fields the table does not name simply stay in the frame bytes.
//!   [`BoundParser::parse_flat`] / [`BoundParser::deparse_flat`] are the
//!   same routers for a caller that keeps what it parses: a new record
//!   per frame in, a new frame out;
//! * the **map tier** — [`parse`] / [`deparse`] — is the **reference**:
//!   it routes a wire index to its name, building and reading a map
//!   [`Packet`]. Nothing in the crate runs on it; the differential suites
//!   compare against it.
//!
//! ## Deparsing: the frame's bytes + patches
//!
//! Deparsing re-writes every decoded region ([`WireLayout::patches`]
//! lists them) of the frame's bytes from the packet's current field
//! values, so:
//!
//! * an **unmodified** packet deparses to the *identical* byte frame —
//!   IPv4 options, TCP options, payloads, and unparsed bits survive
//!   untouched (the fuzz suite pins this);
//! * a **modified** field (a pipeline writing `pkt.sport` or a trailer
//!   field) lands back in its wire position, masked to its width.
//!
//! Inside the switch a frame is copied **once** — into its record's
//! buffer at parse, the packet-buffer write any queueing switch owes —
//! and deparsed **in place**: the bound tier patches the record's own
//! bytes and the sink is lent them, after which the record (slab, layout,
//! buffer) goes to the next arrival, which overwrites all of it. Hardware
//! does not allocate per packet and in the steady state neither does this
//! path. [`deparse`] and [`BoundParser::deparse_flat`] patch a *copy*
//! instead and leave the layout as parsed: what the owned API, the
//! suites' oracles and the benchmark's per-tier timings call.
//!
//! Checksums are carried opaque: the parser exposes `ip_csum`/`tcp_csum`
//! as ordinary fields and the deparser writes them back verbatim, so a
//! pipeline that rewrites headers is responsible for fixing them up (the
//! encoder computes a valid IPv4 checksum for synthesized traffic).
//!
//! ## Malformed traffic
//!
//! Parse failures never panic: every way a frame can go wrong maps to a
//! typed [`ParseVerdict`] in strict parse order (first failure wins), and
//! the switch's wire ingress turns each verdict into a per-reason drop
//! counter (see `crate::switch::DropCounters`).

use domino_ir::wire::{fields as wf, HEADER_FIELDS};
use domino_ir::{FieldId, FieldTable, FlatPacket, Packet};
use std::borrow::BorrowMut;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for an 802.1Q VLAN tag.
pub const ETHERTYPE_VLAN: u16 = 0x8100;
/// IPv4 protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;
/// IPv4 protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// Why a frame failed to parse, in strict parse order: the verdict is the
/// *first* failure the parse graph hits walking Ethernet → VLAN → IPv4 →
/// L4 → metadata trailer. Each verdict backs one drop-reason counter on
/// the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParseVerdict {
    /// Frame shorter than the 14-byte Ethernet header.
    TruncatedEthernet,
    /// EtherType 0x8100 but the frame ends inside the 4-byte VLAN tag.
    TruncatedVlan,
    /// EtherType (outer or inner) is not IPv4 — including double-tagged
    /// frames, whose inner type is 0x8100 again.
    UnsupportedEthertype,
    /// IPv4 version nibble is not 4.
    BadIpVersion,
    /// IPv4 IHL below the minimum of 5 words.
    BadIhl,
    /// Frame ends inside the IPv4 header (before `IHL * 4` bytes).
    TruncatedIpv4,
    /// IPv4 protocol is neither TCP nor UDP.
    UnsupportedIpProto,
    /// TCP data offset below the minimum of 5 words.
    BadTcpOffset,
    /// Frame ends inside the TCP header (base 20 bytes, or options).
    TruncatedTcp,
    /// Frame ends inside the 8-byte UDP header.
    TruncatedUdp,
    /// Frame ends inside the configured metadata trailer.
    TruncatedMetadata,
}

impl ParseVerdict {
    /// Every verdict, in parse order (the dense index space for drop
    /// counters).
    pub const ALL: [ParseVerdict; 11] = [
        ParseVerdict::TruncatedEthernet,
        ParseVerdict::TruncatedVlan,
        ParseVerdict::UnsupportedEthertype,
        ParseVerdict::BadIpVersion,
        ParseVerdict::BadIhl,
        ParseVerdict::TruncatedIpv4,
        ParseVerdict::UnsupportedIpProto,
        ParseVerdict::BadTcpOffset,
        ParseVerdict::TruncatedTcp,
        ParseVerdict::TruncatedUdp,
        ParseVerdict::TruncatedMetadata,
    ];

    /// Number of distinct verdicts.
    pub const COUNT: usize = ParseVerdict::ALL.len();

    /// Dense index of this verdict in [`ParseVerdict::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label (used in counters and bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            ParseVerdict::TruncatedEthernet => "truncated_ethernet",
            ParseVerdict::TruncatedVlan => "truncated_vlan",
            ParseVerdict::UnsupportedEthertype => "unsupported_ethertype",
            ParseVerdict::BadIpVersion => "bad_ip_version",
            ParseVerdict::BadIhl => "bad_ihl",
            ParseVerdict::TruncatedIpv4 => "truncated_ipv4",
            ParseVerdict::UnsupportedIpProto => "unsupported_ip_proto",
            ParseVerdict::BadTcpOffset => "bad_tcp_offset",
            ParseVerdict::TruncatedTcp => "truncated_tcp",
            ParseVerdict::TruncatedUdp => "truncated_udp",
            ParseVerdict::TruncatedMetadata => "truncated_metadata",
        }
    }
}

impl fmt::Display for ParseVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Wire front-end configuration: the metadata-trailer schema.
///
/// The trailer is a fixed-layout custom header after the L4 header: one
/// big-endian 32-bit word per schema field, in schema order. Encoder and
/// parser must agree on the schema, exactly like any P4 header type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireConfig {
    /// Shared with the [`WireLayout`] of every frame parsed under it.
    meta: Arc<[String]>,
}

impl WireConfig {
    /// A config with no metadata trailer (pure Ethernet/IPv4/L4 parsing).
    pub fn new() -> Self {
        WireConfig::default()
    }

    /// Sets the metadata-trailer schema.
    ///
    /// Rejects duplicate fields and fields that shadow a canonical wire
    /// header name (those travel in the real headers, never the trailer).
    pub fn with_meta_fields<I, S>(fields: I) -> Result<WireConfig, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut meta: Vec<String> = Vec::new();
        for f in fields {
            let f = f.into();
            if domino_ir::wire::is_header_field(&f) {
                return Err(format!(
                    "metadata field `{f}` shadows a wire header field; it travels \
                     in the header, not the trailer"
                ));
            }
            if meta.contains(&f) {
                return Err(format!("duplicate metadata field `{f}`"));
            }
            meta.push(f);
        }
        Ok(WireConfig { meta: meta.into() })
    }

    /// The trailer schema, in wire order.
    pub fn meta_fields(&self) -> &[String] {
        &self.meta
    }

    /// Trailer length in bytes (4 per field).
    pub fn meta_len(&self) -> usize {
        self.meta.len() * 4
    }
}

/// Which L4 header a frame carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L4 {
    /// TCP (protocol 6).
    Tcp,
    /// UDP (protocol 17).
    Udp,
}

/// One patchable region of a frame: a decoded field's wire position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Patch {
    /// The packet field this region decodes to.
    pub field: String,
    /// Byte offset into the frame.
    pub offset: usize,
    /// Width in bytes (1, 2, or 4); values are masked to this width on
    /// write-back.
    pub width: u8,
}

/// Where every [`HEADER_FIELDS`] entry sits inside its header, as
/// `(byte offset, width)` in `HEADER_FIELDS` order — so a field's position
/// in either array is its **dense wire index**, the key every decoded
/// region is routed by (to a name by the map tier, to a slot by the bound
/// tier).
const REGIONS: [(usize, u8); HEADER_FIELDS.len()] = [
    // Ethernet addresses, from frame byte 0: dst hi/lo, src hi/lo.
    (0, 2),
    (2, 4),
    (6, 2),
    (8, 4),
    // The four bytes before L3: `eth_type`, and on a tagged frame
    // `vlan_tci` ahead of it.
    (2, 2),
    (0, 2),
    // IPv4: tos, len, id, frag, ttl, proto, csum, src, dst.
    (1, 1),
    (2, 2),
    (4, 2),
    (6, 2),
    (8, 1),
    (9, 1),
    (10, 2),
    (12, 4),
    (16, 4),
    // L4 ports, shared by TCP and UDP.
    (0, 2),
    (2, 2),
    // TCP past the ports: seq, ack, flags, win, csum, urg.
    (4, 4),
    (8, 4),
    (13, 1),
    (14, 2),
    (16, 2),
    (18, 2),
    // UDP past the ports: len, csum.
    (4, 2),
    (6, 2),
];

// The wire-index range each header owns in `REGIONS`.
const ETH_ADDRS: Range<usize> = 0..4;
const ETH_TYPE: usize = 4;
const VLAN_TCI: usize = 5;
const IPV4: Range<usize> = 6..15;
const PORTS: Range<usize> = 15..17;
const TCP_REST: Range<usize> = 17..23;
const UDP_REST: Range<usize> = 23..25;

/// What the parse graph's walk fixed about a frame: tag or no tag, which
/// L4 and where it starts, where the trailer and the payload start. Every
/// decoded field's region follows from these and `REGIONS`, so nothing is
/// stored — or allocated — per field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Walk {
    has_vlan: bool,
    l4: L4,
    l4_off: usize,
    /// Trailer word `i` sits at `meta_off + 4 * i`, has wire index
    /// `HEADER_FIELDS.len() + i` and ends the headers, before the payload.
    meta_off: usize,
    payload_off: usize,
}

impl Walk {
    /// Walks the parse graph over `frame`. First failure (in parse order)
    /// is the verdict; the walk itself can never panic on any byte input.
    fn of(frame: &[u8], cfg: &WireConfig) -> Result<Walk, ParseVerdict> {
        let n = frame.len();

        // --- Ethernet, 802.1Q VLAN --------------------------------------
        if n < 14 {
            return Err(ParseVerdict::TruncatedEthernet);
        }
        let has_vlan = be16(frame, 12) == ETHERTYPE_VLAN;
        let l3_off = if has_vlan { 18 } else { 14 };
        // Only a tag puts L3 past the 14 bytes already checked.
        if n < l3_off {
            return Err(ParseVerdict::TruncatedVlan);
        }
        if be16(frame, l3_off - 2) != ETHERTYPE_IPV4 {
            return Err(ParseVerdict::UnsupportedEthertype);
        }

        // --- IPv4 -------------------------------------------------------
        if n < l3_off + 1 {
            return Err(ParseVerdict::TruncatedIpv4);
        }
        let vihl = frame[l3_off];
        if vihl >> 4 != 4 {
            return Err(ParseVerdict::BadIpVersion);
        }
        let ihl = (vihl & 0x0f) as usize;
        if ihl < 5 {
            return Err(ParseVerdict::BadIhl);
        }
        // IPv4 options (ihl > 5) are carried verbatim, never decoded.
        let l4_off = l3_off + ihl * 4;
        if n < l4_off {
            return Err(ParseVerdict::TruncatedIpv4);
        }

        // --- L4 ---------------------------------------------------------
        let (l4, l4_len) = match frame[l3_off + 9] {
            IPPROTO_TCP => {
                if n < l4_off + 20 {
                    return Err(ParseVerdict::TruncatedTcp);
                }
                let doff = (frame[l4_off + 12] >> 4) as usize;
                if doff < 5 {
                    return Err(ParseVerdict::BadTcpOffset);
                }
                // TCP options are carried verbatim, never decoded.
                if n < l4_off + doff * 4 {
                    return Err(ParseVerdict::TruncatedTcp);
                }
                (L4::Tcp, doff * 4)
            }
            IPPROTO_UDP => {
                if n < l4_off + 8 {
                    return Err(ParseVerdict::TruncatedUdp);
                }
                (L4::Udp, 8)
            }
            _ => return Err(ParseVerdict::UnsupportedIpProto),
        };

        // --- metadata trailer -------------------------------------------
        let meta_off = l4_off + l4_len;
        let payload_off = meta_off + cfg.meta_len();
        if n < payload_off {
            return Err(ParseVerdict::TruncatedMetadata);
        }
        Ok(Walk {
            has_vlan,
            l4,
            l4_off,
            meta_off,
            payload_off,
        })
    }

    /// **The one region walk**: visits every decoded field as `(dense wire
    /// index, frame offset, width)`, in wire-index order — what all four
    /// routers, [`WireLayout::patches`] and the field view iterate. Each
    /// header is a constant index range, so its loop unrolls with offsets
    /// and widths folded in. All regions end at or before `payload_off`,
    /// which the walk checked against the frame's length.
    #[inline]
    fn for_each_region(self, mut visit: impl FnMut(usize, usize, u8)) {
        let mut header = |fields: Range<usize>, base: usize| {
            fields.for_each(|f| visit(f, base + REGIONS[f].0, REGIONS[f].1));
        };
        let l3_off = if self.has_vlan { 18 } else { 14 };
        header(ETH_ADDRS, 0);
        header(ETH_TYPE..VLAN_TCI + usize::from(self.has_vlan), l3_off - 4); // TCI only if tagged
        header(IPV4, l3_off);
        header(PORTS, self.l4_off);
        match self.l4 {
            L4::Tcp => header(TCP_REST, self.l4_off),
            L4::Udp => header(UDP_REST, self.l4_off),
        }
        for (i, offset) in (self.meta_off..self.payload_off).step_by(4).enumerate() {
            visit(REGIONS.len() + i, offset, 4);
        }
    }
}

/// The one record of a parsed frame, shared by both tiers: the frame's
/// bytes in a buffer of its own, what the parse graph's walk fixed
/// about them, and the trailer schema they were parsed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLayout {
    bytes: Vec<u8>,
    /// Shared with the [`WireConfig`]; names the trailer words.
    meta: Arc<[String]>,
    walk: Walk,
}

impl WireLayout {
    /// True if the frame carried an 802.1Q tag.
    pub fn has_vlan(&self) -> bool {
        self.walk.has_vlan
    }

    /// Which L4 header the frame carried.
    pub fn l4(&self) -> L4 {
        self.walk.l4
    }

    /// The frame: verbatim as parsed, until the switch's sink patches the
    /// pipeline's writes into it on the way out.
    pub fn frame(&self) -> &[u8] {
        &self.bytes
    }

    /// Bytes after every parsed header (and the metadata trailer).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[self.walk.payload_off..]
    }

    /// The decoded-field patch list, in wire-index order (built on
    /// demand; neither tier's parse or deparse goes through it).
    pub fn patches(&self) -> impl Iterator<Item = Patch> + '_ {
        let mut regions = Vec::new();
        (self.walk).for_each_region(|field, offset, width| regions.push((field, offset, width)));
        regions.into_iter().map(|(field, offset, width)| Patch {
            field: self.name(field).to_string(),
            offset,
            width,
        })
    }

    /// The field name behind a dense wire index the region walk yielded.
    fn name(&self, field: usize) -> &str {
        match HEADER_FIELDS.get(field) {
            Some(name) => name,
            None => &self.meta[field - HEADER_FIELDS.len()],
        }
    }

    /// The record of a frame walked under `cfg`, its buffer still empty:
    /// the one place a layout is built, before the frame's one copy.
    fn new(walk: Walk, cfg: &WireConfig) -> WireLayout {
        WireLayout {
            bytes: Vec::new(),
            meta: Arc::clone(&cfg.meta),
            walk,
        }
    }
}

/// A successfully parsed frame: the field view plus the structural layout
/// needed to deparse it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePacket {
    /// The decoded fields (headers and metadata trailer).
    pub pkt: Packet,
    /// The structural layout for the deparser.
    pub layout: WireLayout,
}

#[inline]
fn be16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

/// Reads the big-endian `width`-byte region at `offset` as a host-order
/// slot value (zero-extended below 32 bits).
#[inline]
fn read_be(b: &[u8], offset: usize, width: u8) -> i32 {
    match width {
        1 => b[offset] as i32,
        2 => be16(b, offset) as i32,
        _ => u32::from_be_bytes([b[offset], b[offset + 1], b[offset + 2], b[offset + 3]]) as i32,
    }
}

/// Writes `value` big-endian into `out[offset..offset + width]`, masked to
/// the region's width.
#[inline]
fn patch_be(out: &mut [u8], offset: usize, width: u8, value: i32) {
    let v = value as u32;
    match width {
        1 => out[offset] = v as u8,
        2 => out[offset..offset + 2].copy_from_slice(&(v as u16).to_be_bytes()),
        _ => out[offset..offset + 4].copy_from_slice(&v.to_be_bytes()),
    }
}

// ---------------------------------------------------------------------------
// The map tier (the reference: names in, names out)
// ---------------------------------------------------------------------------

/// Parses a byte frame into a [`WirePacket`] (map-packet view plus
/// deparse layout).
///
/// Never panics: malformed input is a typed [`ParseVerdict`].
pub fn parse(frame: &[u8], cfg: &WireConfig) -> Result<WirePacket, ParseVerdict> {
    let mut layout = WireLayout::new(Walk::of(frame, cfg)?, cfg);
    layout.bytes.extend_from_slice(frame);
    let mut pkt = Packet::new();
    (layout.walk).for_each_region(|field, offset, width| {
        pkt.set(layout.name(field), read_be(&layout.bytes, offset, width));
    });
    Ok(WirePacket { pkt, layout })
}

/// Re-serializes a (possibly pipeline-modified) packet over its parse
/// layout: a copy of the layout's bytes with every decoded field patched
/// back from the packet's current value, masked to its wire width.
///
/// A packet whose patched fields are unmodified deparses to the identical
/// frame. Fields the packet no longer carries (impossible through the
/// pipeline, which only writes) keep their original bytes.
pub fn deparse(pkt: &Packet, layout: &WireLayout) -> Vec<u8> {
    let mut out = layout.bytes.clone();
    layout.walk.for_each_region(|field, offset, width| {
        if let Some(v) = pkt.get(layout.name(field)) {
            patch_be(&mut out, offset, width, v);
        }
    });
    out
}

// ---------------------------------------------------------------------------
// The bound tier (production: slots in, slots out)
// ---------------------------------------------------------------------------

/// A wire parser bound to a pipeline's field layout: every canonical
/// header name and metadata field is resolved to its [`FieldId`] (or
/// dropped, if the pipeline never mentions it) once at bind time, so
/// per-frame parsing does zero hashing — the streaming-parser shape.
///
/// Fields the pipeline's table does not intern are *not* lost: they keep
/// their original bytes in the layout and re-appear verbatim on deparse.
/// Only fields the pipeline can actually read or write get slots, and
/// only those are patched.
#[derive(Debug, Clone)]
pub struct BoundParser {
    cfg: WireConfig,
    table: Arc<FieldTable>,
    /// The slot of each dense wire index: the header fields, then the
    /// config's trailer words.
    slots: Vec<Option<FieldId>>,
}

impl BoundParser {
    /// Binds a config to a field table (typically
    /// `SlotMachine::field_table`).
    pub fn bind(cfg: WireConfig, table: Arc<FieldTable>) -> BoundParser {
        let names = HEADER_FIELDS.iter().copied();
        let slots = names
            .chain(cfg.meta.iter().map(String::as_str))
            .map(|name| table.lookup(name))
            .collect();
        BoundParser { cfg, table, slots }
    }

    /// The schema this parser was bound with.
    pub fn config(&self) -> &WireConfig {
        &self.cfg
    }

    /// The field table this parser fills.
    pub fn table(&self) -> &Arc<FieldTable> {
        &self.table
    }

    /// Parses a frame straight onto the bound layout: a [`FlatPacket`]
    /// with every table-known field filled (big-endian decoded, marked
    /// present) plus the deparse layout — the switch's own parse, with a
    /// new record per frame, for callers that keep what they parse.
    pub fn parse_flat(&self, frame: &[u8]) -> Result<(FlatPacket, WireLayout), ParseVerdict> {
        self.parse_into(frame, || None)
    }

    /// Walks the parse graph over `frame` and lands an accepted frame on
    /// the record `spent` supplies — asked only then, so a rejected frame
    /// costs no record — or, given none, on a new one. Whatever a spent
    /// record (one this parser made) held is overwritten: the slab is
    /// cleared and every table-known field filled from its region, the
    /// layout's own buffer takes the frame's bytes — the one copy of a
    /// frame's life in the switch, its packet-buffer write. `L` is how the
    /// caller holds a layout: by value, or boxed beside a queued slab.
    pub(crate) fn parse_into<L: From<WireLayout> + BorrowMut<WireLayout>>(
        &self,
        frame: &[u8],
        spent: impl FnOnce() -> Option<(FlatPacket, L)>,
    ) -> Result<(FlatPacket, L), ParseVerdict> {
        let walk = Walk::of(frame, &self.cfg)?;
        let (mut flat, mut held) = spent().unwrap_or_else(|| {
            let flat = FlatPacket::new(Arc::clone(&self.table));
            (flat, WireLayout::new(walk, &self.cfg).into())
        });
        let layout: &mut WireLayout = held.borrow_mut();
        debug_assert!(Arc::ptr_eq(flat.table(), &self.table));
        debug_assert!(Arc::ptr_eq(&layout.meta, &self.cfg.meta));
        flat.clear();
        frame.clone_into(&mut layout.bytes);
        layout.walk = walk;
        // Called at six sites of the walk. Left to the inliner, this
        // closure was outlined in some builds — a call per field — and
        // the ledger's `wire_flowlet` read 0.95× (EXPERIMENTS.md E15).
        walk.for_each_region(
            #[inline(always)]
            |field, offset, width| {
                if let Some(id) = self.slots[field] {
                    flat.set(id, read_be(frame, offset, width));
                }
            },
        );
        Ok((flat, held))
    }

    /// Re-serializes a flat packet over its layout (the slot-keyed mirror
    /// of [`deparse`]) into a frame of its own, leaving the layout as it
    /// was: the switch's in-place patch, on a copy. For callers that keep
    /// both; the switch patches the record it is about to recycle.
    pub fn deparse_flat(&self, flat: &FlatPacket, layout: &WireLayout) -> Vec<u8> {
        std::mem::take(self.deparse_in_place(flat, &mut layout.clone()))
    }

    /// Patches every decoded field the table names back from its slot
    /// into the layout's own bytes and lends them: no copy, and the
    /// layout now holds the departing frame, not the arriving one.
    pub(crate) fn deparse_in_place<'l>(
        &self,
        flat: &FlatPacket,
        layout: &'l mut WireLayout,
    ) -> &'l mut Vec<u8> {
        layout.walk.for_each_region(|field, offset, width| {
            // `get`: a layout parsed under a longer trailer schema than
            // this parser's has words this parser has no slot for.
            if let Some(id) = self.slots.get(field).copied().flatten() {
                patch_be(&mut layout.bytes, offset, width, flat.get_or_zero(id));
            }
        });
        &mut layout.bytes
    }
}

// ---------------------------------------------------------------------------
// Encoder (the synthesis-side deparser)
// ---------------------------------------------------------------------------

/// Header defaults for encoding a map packet onto the wire: every header
/// field the packet does not carry takes its value from here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSpec {
    /// Destination MAC (low 48 bits used).
    pub eth_dst: u64,
    /// Source MAC (low 48 bits used).
    pub eth_src: u64,
    /// 802.1Q tag control information; `Some` emits a tagged frame.
    pub vlan_tci: Option<u16>,
    /// IPv4 source address.
    pub ip_src: u32,
    /// IPv4 destination address.
    pub ip_dst: u32,
    /// IPv4 TTL.
    pub ip_ttl: u8,
    /// L4 protocol: [`IPPROTO_TCP`] or [`IPPROTO_UDP`].
    pub ip_proto: u8,
    /// L4 source port.
    pub sport: u16,
    /// L4 destination port.
    pub dport: u16,
    /// Payload bytes after the headers (and metadata trailer).
    pub payload: Vec<u8>,
}

impl Default for FrameSpec {
    fn default() -> Self {
        FrameSpec {
            eth_dst: 0x0200_0000_0001,
            eth_src: 0x0200_0000_0002,
            vlan_tci: None,
            ip_src: u32::from_be_bytes([10, 0, 0, 1]),
            ip_dst: u32::from_be_bytes([10, 0, 0, 2]),
            ip_ttl: 64,
            ip_proto: IPPROTO_TCP,
            sport: 10_000,
            dport: 80,
            payload: Vec::new(),
        }
    }
}

/// The RFC 1071 one's-complement sum over an IPv4 header (checksum field
/// zeroed by the caller).
pub fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = header.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Encodes a map packet as a wire frame: canonical header fields the
/// packet carries land in their header positions (masked to width),
/// everything else comes from `spec`; the packet's schema fields ride the
/// metadata trailer. Lengths and the IPv4 header checksum are computed,
/// so `parse(encode(pkt)) == pkt` on every encoded field — the property
/// the roundtrip differential pins.
///
/// The frame is untagged unless `spec.vlan_tci` is set or the packet
/// carries `vlan_tci`.
pub fn encode(pkt: &Packet, cfg: &WireConfig, spec: &FrameSpec) -> Vec<u8> {
    let f16 = |name: &str, default: u16| pkt.get(name).map(|v| v as u16).unwrap_or(default);
    let f8 = |name: &str, default: u8| pkt.get(name).map(|v| v as u8).unwrap_or(default);
    let f32v = |name: &str, default: u32| pkt.get(name).map(|v| v as u32).unwrap_or(default);

    let vlan_tci = pkt.get(wf::VLAN_TCI).map(|v| v as u16).or(spec.vlan_tci);

    let proto = f8(wf::IP_PROTO, spec.ip_proto);
    let l4_len = if proto == IPPROTO_UDP { 8 } else { 20 };
    let ip_total = 20 + l4_len + cfg.meta_len() + spec.payload.len();
    let mut out = Vec::with_capacity(14 + 4 + ip_total);

    // Ethernet.
    let dst_hi = f16(wf::ETH_DST_HI, (spec.eth_dst >> 32) as u16);
    let dst_lo = f32v(wf::ETH_DST_LO, spec.eth_dst as u32);
    let src_hi = f16(wf::ETH_SRC_HI, (spec.eth_src >> 32) as u16);
    let src_lo = f32v(wf::ETH_SRC_LO, spec.eth_src as u32);
    out.extend_from_slice(&dst_hi.to_be_bytes());
    out.extend_from_slice(&dst_lo.to_be_bytes());
    out.extend_from_slice(&src_hi.to_be_bytes());
    out.extend_from_slice(&src_lo.to_be_bytes());
    if let Some(tci) = vlan_tci {
        out.extend_from_slice(&ETHERTYPE_VLAN.to_be_bytes());
        out.extend_from_slice(&tci.to_be_bytes());
    }
    out.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());

    // IPv4 (IHL fixed at 5: synthesized traffic carries no IP options;
    // the parser still accepts them from foreign frames).
    let ip_off = out.len();
    out.push(0x45);
    out.push(f8(wf::IP_TOS, 0));
    out.extend_from_slice(&f16(wf::IP_LEN, ip_total as u16).to_be_bytes());
    out.extend_from_slice(&f16(wf::IP_ID, 0).to_be_bytes());
    out.extend_from_slice(&f16(wf::IP_FRAG, 0x4000).to_be_bytes()); // DF
    out.push(f8(wf::IP_TTL, spec.ip_ttl));
    out.push(proto);
    out.extend_from_slice(&[0, 0]); // checksum, fixed up below
    out.extend_from_slice(&f32v(wf::IP_SRC, spec.ip_src).to_be_bytes());
    out.extend_from_slice(&f32v(wf::IP_DST, spec.ip_dst).to_be_bytes());
    let csum = pkt
        .get(wf::IP_CSUM)
        .map(|v| v as u16)
        .unwrap_or_else(|| ipv4_checksum(&out[ip_off..ip_off + 20]));
    out[ip_off + 10..ip_off + 12].copy_from_slice(&csum.to_be_bytes());

    // L4.
    let sport = f16(wf::SPORT, spec.sport);
    let dport = f16(wf::DPORT, spec.dport);
    out.extend_from_slice(&sport.to_be_bytes());
    out.extend_from_slice(&dport.to_be_bytes());
    if proto == IPPROTO_UDP {
        let udp_len = f16(
            wf::UDP_LEN,
            (8 + cfg.meta_len() + spec.payload.len()) as u16,
        );
        out.extend_from_slice(&udp_len.to_be_bytes());
        out.extend_from_slice(&f16(wf::UDP_CSUM, 0).to_be_bytes());
    } else {
        out.extend_from_slice(&f32v(wf::TCP_SEQ, 0).to_be_bytes());
        out.extend_from_slice(&f32v(wf::TCP_ACK, 0).to_be_bytes());
        out.push(0x50); // data offset 5, no options
        out.push(f8(wf::TCP_FLAGS, 0x10)); // ACK
        out.extend_from_slice(&f16(wf::TCP_WIN, 0xffff).to_be_bytes());
        out.extend_from_slice(&f16(wf::TCP_CSUM, 0).to_be_bytes());
        out.extend_from_slice(&f16(wf::TCP_URG, 0).to_be_bytes());
    }

    // Metadata trailer + payload.
    for name in cfg.meta.iter() {
        out.extend_from_slice(&pkt.get_or_zero(name).to_be_bytes());
    }
    out.extend_from_slice(&spec.payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_cfg() -> WireConfig {
        WireConfig::with_meta_fields(["arrival", "next_hop"]).unwrap()
    }

    fn sample_packet() -> Packet {
        Packet::new()
            .with("sport", 443)
            .with("dport", 80)
            .with("arrival", 123_456)
            .with("next_hop", -7)
    }

    #[test]
    fn encode_parse_roundtrips_every_field() {
        let cfg = tcp_cfg();
        let pkt = sample_packet();
        let frame = encode(&pkt, &cfg, &FrameSpec::default());
        let wire = parse(&frame, &cfg).unwrap();
        for (name, v) in pkt.iter() {
            assert_eq!(wire.pkt.get(name), Some(v), "field `{name}`");
        }
        assert_eq!(wire.pkt.get(wf::IP_PROTO), Some(IPPROTO_TCP as i32));
        assert_eq!(wire.layout.l4(), L4::Tcp);
        assert!(!wire.layout.has_vlan());
    }

    #[test]
    fn deparse_of_unmodified_packet_is_identity() {
        let cfg = tcp_cfg();
        let frame = encode(&sample_packet(), &cfg, &FrameSpec::default());
        let wire = parse(&frame, &cfg).unwrap();
        assert_eq!(deparse(&wire.pkt, &wire.layout), frame);
    }

    #[test]
    fn deparse_patches_modified_fields_in_place() {
        let cfg = tcp_cfg();
        let frame = encode(&sample_packet(), &cfg, &FrameSpec::default());
        let mut wire = parse(&frame, &cfg).unwrap();
        wire.pkt.set("sport", 9999);
        wire.pkt.set("next_hop", 3);
        let out = deparse(&wire.pkt, &wire.layout);
        assert_ne!(out, frame);
        let reparsed = parse(&out, &cfg).unwrap();
        assert_eq!(reparsed.pkt.get("sport"), Some(9999));
        assert_eq!(reparsed.pkt.get("next_hop"), Some(3));
        // Unmodified regions survive byte-for-byte.
        assert_eq!(reparsed.pkt.get("dport"), Some(80));
        assert_eq!(reparsed.pkt.get("arrival"), Some(123_456));
    }

    #[test]
    fn vlan_and_udp_paths_roundtrip() {
        let cfg = WireConfig::new();
        let spec = FrameSpec {
            vlan_tci: Some(0x2005),
            ip_proto: IPPROTO_UDP,
            payload: vec![0xAA, 0xBB],
            ..FrameSpec::default()
        };
        let frame = encode(&Packet::new().with("sport", 53), &cfg, &spec);
        let wire = parse(&frame, &cfg).unwrap();
        assert!(wire.layout.has_vlan());
        assert_eq!(wire.layout.l4(), L4::Udp);
        assert_eq!(wire.pkt.get(wf::VLAN_TCI), Some(0x2005));
        assert_eq!(wire.pkt.get("sport"), Some(53));
        assert_eq!(wire.pkt.get(wf::UDP_LEN), Some(10)); // 8 + payload 2
        assert_eq!(wire.layout.payload(), &[0xAA, 0xBB]);
        assert_eq!(deparse(&wire.pkt, &wire.layout), frame);
    }

    #[test]
    fn every_header_field_decodes_from_its_own_bytes() {
        // The encoder places fields by name, `REGIONS` by wire index: a
        // distinct value per field pins the two orders to each other.
        for (proto, decoded) in [(IPPROTO_TCP, 23), (IPPROTO_UDP, 19)] {
            let mut pkt = Packet::new();
            for (i, name) in HEADER_FIELDS.iter().enumerate() {
                pkt.set(name, 0x11 + i as i32);
            }
            pkt.set(wf::ETH_TYPE, ETHERTYPE_IPV4 as i32);
            pkt.set(wf::IP_PROTO, proto as i32);
            let frame = encode(&pkt, &WireConfig::new(), &FrameSpec::default());
            let wire = parse(&frame, &WireConfig::new()).unwrap();
            assert_eq!(wire.pkt.len(), decoded);
            for (name, v) in wire.pkt.iter() {
                assert_eq!(Some(v), pkt.get(name), "field `{name}`");
            }
            let mut patched: Vec<String> = wire.layout.patches().map(|p| p.field).collect();
            patched.sort();
            assert_eq!(patched, wire.pkt.iter().map(|(n, _)| n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn encoder_emits_a_valid_ipv4_checksum() {
        let frame = encode(&Packet::new(), &WireConfig::new(), &FrameSpec::default());
        // Re-summing the header with its checksum in place yields 0.
        let mut hdr = frame[14..34].to_vec();
        let stored = u16::from_be_bytes([hdr[10], hdr[11]]);
        hdr[10] = 0;
        hdr[11] = 0;
        assert_eq!(ipv4_checksum(&hdr), stored);
    }

    #[test]
    fn parse_order_pins_first_failure() {
        let cfg = WireConfig::new();
        let good = encode(&Packet::new(), &cfg, &FrameSpec::default());
        assert_eq!(
            parse(&[], &cfg).unwrap_err(),
            ParseVerdict::TruncatedEthernet
        );
        assert_eq!(
            parse(&good[..13], &cfg).unwrap_err(),
            ParseVerdict::TruncatedEthernet
        );
        // Garbage ethertype.
        let mut bad = good.clone();
        bad[12] = 0x86;
        bad[13] = 0xdd; // IPv6
        assert_eq!(
            parse(&bad, &cfg).unwrap_err(),
            ParseVerdict::UnsupportedEthertype
        );
        // Version nibble.
        let mut bad = good.clone();
        bad[14] = 0x65;
        assert_eq!(parse(&bad, &cfg).unwrap_err(), ParseVerdict::BadIpVersion);
        // IHL below 5.
        let mut bad = good.clone();
        bad[14] = 0x43;
        assert_eq!(parse(&bad, &cfg).unwrap_err(), ParseVerdict::BadIhl);
        // Truncated inside IPv4.
        assert_eq!(
            parse(&good[..20], &cfg).unwrap_err(),
            ParseVerdict::TruncatedIpv4
        );
        // Unsupported protocol (re-checksum not needed; proto precedes it).
        let mut bad = good.clone();
        bad[14 + 9] = 47; // GRE
        assert_eq!(
            parse(&bad, &cfg).unwrap_err(),
            ParseVerdict::UnsupportedIpProto
        );
        // Short TCP.
        assert_eq!(
            parse(&good[..40], &cfg).unwrap_err(),
            ParseVerdict::TruncatedTcp
        );
        // Bad TCP data offset.
        let mut bad = good.clone();
        bad[14 + 20 + 12] = 0x20; // doff 2
        assert_eq!(parse(&bad, &cfg).unwrap_err(), ParseVerdict::BadTcpOffset);
        // Truncated metadata trailer.
        let cfg_meta = tcp_cfg();
        let with_meta = encode(&sample_packet(), &cfg_meta, &FrameSpec::default());
        assert_eq!(
            parse(&with_meta[..with_meta.len() - 1], &cfg_meta).unwrap_err(),
            ParseVerdict::TruncatedMetadata
        );
    }

    #[test]
    fn ipv4_options_survive_parse_and_deparse() {
        // Hand-build an IHL=6 header (4 bytes of NOP options).
        let cfg = WireConfig::new();
        let base = encode(&Packet::new(), &cfg, &FrameSpec::default());
        let mut frame = Vec::new();
        frame.extend_from_slice(&base[..14]);
        let mut ip = base[14..34].to_vec();
        ip[0] = 0x46; // IHL 6
        frame.extend_from_slice(&ip);
        frame.extend_from_slice(&[0x01, 0x01, 0x01, 0x01]); // options
        frame.extend_from_slice(&base[34..]); // TCP onwards
        let wire = parse(&frame, &cfg).unwrap();
        assert_eq!(wire.pkt.get("sport"), Some(10_000));
        assert_eq!(deparse(&wire.pkt, &wire.layout), frame);
    }

    #[test]
    fn bound_parser_fills_only_table_known_slots() {
        let cfg = tcp_cfg();
        let mut table = FieldTable::new();
        let sport = table.intern("sport");
        let arrival = table.intern("arrival");
        let table = Arc::new(table);
        let parser = BoundParser::bind(cfg.clone(), Arc::clone(&table));
        let frame = encode(&sample_packet(), &cfg, &FrameSpec::default());
        let (flat, layout) = parser.parse_flat(&frame).unwrap();
        assert_eq!(flat.get(sport), Some(443));
        assert_eq!(flat.get(arrival), Some(123_456));
        // Identity deparse, even though most fields have no slot.
        assert_eq!(parser.deparse_flat(&flat, &layout), frame);
        // A modified slot lands back on the wire.
        let mut flat2 = flat.clone();
        flat2.set(sport, 8080);
        let out = parser.deparse_flat(&flat2, &layout);
        let reparsed = parse(&out, &cfg).unwrap();
        assert_eq!(reparsed.pkt.get("sport"), Some(8080));
        assert_eq!(reparsed.pkt.get("dport"), Some(80));
    }

    #[test]
    fn flat_and_map_parses_agree() {
        let cfg = tcp_cfg();
        let mut table = FieldTable::new();
        domino_ir::wire::intern_header_fields(&mut table);
        for f in cfg.meta_fields() {
            table.intern(f);
        }
        let parser = BoundParser::bind(cfg.clone(), Arc::new(table));
        let frame = encode(&sample_packet(), &cfg, &FrameSpec::default());
        let wire = parse(&frame, &cfg).unwrap();
        let (flat, _) = parser.parse_flat(&frame).unwrap();
        assert_eq!(flat.to_packet(), wire.pkt);
    }

    #[test]
    fn config_rejects_header_shadowing_and_duplicates() {
        assert!(WireConfig::with_meta_fields(["sport"]).is_err());
        assert!(WireConfig::with_meta_fields(["a", "a"]).is_err());
        let cfg = WireConfig::with_meta_fields(["a", "b"]).unwrap();
        assert_eq!(cfg.meta_len(), 8);
    }

    #[test]
    fn verdict_indices_are_dense_and_stable() {
        for (i, v) in ParseVerdict::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
            assert_eq!(*v as usize, i, "the enum is declared in `ALL` order");
        }
        assert_eq!(ParseVerdict::COUNT, 11);
        assert_eq!(
            ParseVerdict::TruncatedEthernet.to_string(),
            "truncated_ethernet"
        );
    }
}
