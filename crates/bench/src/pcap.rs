//! Hand-rolled pcap and pcapng capture I/O — no external dependencies.
//!
//! The reader ([`PcapReader`]) understands both on-disk capture formats
//! in both byte orders and exposes the frames as a streaming
//! frame [`Source`], so a capture file can drive `Switch::run_frames` /
//! `ShardedSwitch::run_frames` directly — the replay path of the E14
//! streaming-ingestion experiment. The writers emit deterministic
//! fixtures (synthetic timestamps derived from the frame index) for the
//! golden and round-trip suites, typically fed from
//! [`wiregen`](crate::wiregen) traces.
//!
//! Robustness contract:
//!
//! * **Truncation never panics.** A capture cut at *any* byte boundary
//!   yields the frames that fit, then either a clean end-of-stream (cut
//!   exactly between records) or a typed [`SourceError`] naming what was
//!   cut short — which the switch's fault machinery turns into a
//!   [`banzai::FaultReport`] with closed books.
//! * **Structural corruption is a typed error**, not UB: unknown magics,
//!   impossible block lengths, and mismatched pcapng trailers all surface
//!   as [`SourceError`]s.
//! * **pcapng endianness is per-section**: a new Section Header Block
//!   mid-file may switch byte order, and the reader follows it.
//!
//! Format notes (classic pcap): a 24-byte global header whose magic
//! (`0xa1b2c3d4` µs / `0xa1b23c4d` ns, either byte order) fixes the file
//! endianness and timestamp unit, then per-record 16-byte headers
//! (`ts_sec`, `ts_frac`, `incl_len`, `orig_len`). pcapng: 4-byte-aligned
//! blocks carrying their total length twice (head and trailer); frames
//! live in Enhanced (0x6) and Simple (0x3) Packet Blocks, interfaces in
//! IDBs (0x1); unknown block types are skipped.

use banzai::{Source, SourceError};
use std::borrow::Cow;

/// Classic pcap magic, microsecond timestamps (native byte order).
pub const MAGIC_USEC: u32 = 0xa1b2_c3d4;
/// Classic pcap magic, nanosecond timestamps.
pub const MAGIC_NSEC: u32 = 0xa1b2_3c4d;
/// pcapng Section Header Block type (a byte-order palindrome).
pub const SHB_TYPE: u32 = 0x0a0d_0d0a;
/// pcapng byte-order magic, written in the section's endianness.
pub const BOM: u32 = 0x1a2b_3c4d;
/// pcapng Interface Description Block type.
pub const IDB_TYPE: u32 = 0x0000_0001;
/// pcapng Simple Packet Block type.
pub const SPB_TYPE: u32 = 0x0000_0003;
/// pcapng Enhanced Packet Block type.
pub const EPB_TYPE: u32 = 0x0000_0006;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// How a classic pcap fixture is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PcapOptions {
    /// Emit big-endian headers (the reader handles either).
    pub big_endian: bool,
    /// Use the nanosecond-timestamp magic.
    pub nanos: bool,
}

/// How a pcapng fixture is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PcapNgOptions {
    /// Emit big-endian sections.
    pub big_endian: bool,
    /// Carry frames in Simple Packet Blocks instead of Enhanced ones.
    pub simple_blocks: bool,
}

fn put_u32(out: &mut Vec<u8>, v: u32, big: bool) {
    out.extend_from_slice(&if big {
        v.to_be_bytes()
    } else {
        v.to_le_bytes()
    });
}

fn put_u16(out: &mut Vec<u8>, v: u16, big: bool) {
    out.extend_from_slice(&if big {
        v.to_be_bytes()
    } else {
        v.to_le_bytes()
    });
}

/// Serializes frames as a classic pcap capture (LINKTYPE_ETHERNET,
/// snaplen 65535). Timestamps are synthetic and deterministic: frame `i`
/// is stamped `i` timestamp units after epoch.
pub fn write_pcap<F: AsRef<[u8]>>(frames: &[F], opts: PcapOptions) -> Vec<u8> {
    let big = opts.big_endian;
    let unit: u64 = if opts.nanos { 1_000_000_000 } else { 1_000_000 };
    let mut out =
        Vec::with_capacity(24 + frames.iter().map(|f| 16 + f.as_ref().len()).sum::<usize>());
    put_u32(
        &mut out,
        if opts.nanos { MAGIC_NSEC } else { MAGIC_USEC },
        big,
    );
    put_u16(&mut out, 2, big); // version major
    put_u16(&mut out, 4, big); // version minor
    put_u32(&mut out, 0, big); // thiszone
    put_u32(&mut out, 0, big); // sigfigs
    put_u32(&mut out, 65_535, big); // snaplen
    put_u32(&mut out, LINKTYPE_ETHERNET, big);
    for (i, frame) in frames.iter().enumerate() {
        let frame = frame.as_ref();
        let ts = i as u64;
        put_u32(&mut out, (ts / unit) as u32, big);
        put_u32(&mut out, (ts % unit) as u32, big);
        put_u32(&mut out, frame.len() as u32, big); // incl_len
        put_u32(&mut out, frame.len() as u32, big); // orig_len
        out.extend_from_slice(frame);
    }
    out
}

/// Serializes frames as a pcapng capture: one section (SHB + Ethernet
/// IDB) holding one packet block per frame, 4-byte-aligned with trailing
/// lengths per the spec. Timestamps (EPB only) are the frame index.
pub fn write_pcapng<F: AsRef<[u8]>>(frames: &[F], opts: PcapNgOptions) -> Vec<u8> {
    let big = opts.big_endian;
    let mut out = Vec::new();

    // Section Header Block: type, length, BOM, version 1.0, section
    // length unknown (-1), trailing length.
    put_u32(&mut out, SHB_TYPE, big);
    put_u32(&mut out, 28, big);
    put_u32(&mut out, BOM, big);
    put_u16(&mut out, 1, big);
    put_u16(&mut out, 0, big);
    out.extend_from_slice(&[0xff; 8]);
    put_u32(&mut out, 28, big);

    // Interface Description Block: linktype, reserved, snaplen.
    put_u32(&mut out, IDB_TYPE, big);
    put_u32(&mut out, 20, big);
    put_u16(&mut out, LINKTYPE_ETHERNET as u16, big);
    put_u16(&mut out, 0, big);
    put_u32(&mut out, 0, big);
    put_u32(&mut out, 20, big);

    for (i, frame) in frames.iter().enumerate() {
        let frame = frame.as_ref();
        let pad = (4 - frame.len() % 4) % 4;
        if opts.simple_blocks {
            let total = (16 + frame.len() + pad) as u32;
            put_u32(&mut out, SPB_TYPE, big);
            put_u32(&mut out, total, big);
            put_u32(&mut out, frame.len() as u32, big); // orig_len
            out.extend_from_slice(frame);
            out.extend_from_slice(&vec![0u8; pad]);
            put_u32(&mut out, total, big);
        } else {
            let total = (32 + frame.len() + pad) as u32;
            put_u32(&mut out, EPB_TYPE, big);
            put_u32(&mut out, total, big);
            put_u32(&mut out, 0, big); // interface id
            put_u32(&mut out, 0, big); // ts high
            put_u32(&mut out, i as u32, big); // ts low
            put_u32(&mut out, frame.len() as u32, big); // captured len
            put_u32(&mut out, frame.len() as u32, big); // original len
            out.extend_from_slice(frame);
            out.extend_from_slice(&vec![0u8; pad]);
            put_u32(&mut out, total, big);
        }
    }
    out
}

/// Which capture format the reader detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Classic pcap with the probed timestamp unit.
    Classic { nanos: bool },
    /// pcapng; endianness is per-section, tracked while iterating.
    Ng,
}

/// A streaming reader over an in-memory pcap or pcapng capture,
/// implementing `Source<[u8]>` so it plugs straight into
/// `run_frames(..)` on either switch.
///
/// ```
/// use banzai::Source;
/// use bench::pcap::{write_pcap, PcapOptions, PcapReader};
///
/// let frames: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![4, 5]];
/// let capture = write_pcap(&frames, PcapOptions::default());
/// let mut rd = PcapReader::new(capture).unwrap();
/// assert_eq!(rd.lend().unwrap().as_deref(), Some(&[1u8, 2, 3][..]));
/// assert_eq!(rd.lend().unwrap().as_deref(), Some(&[4u8, 5][..]));
/// assert_eq!(rd.lend().unwrap(), None);
/// ```
#[derive(Debug, Clone)]
pub struct PcapReader<B: AsRef<[u8]>> {
    data: B,
    cursor: usize,
    format: Format,
    /// Current section endianness (pcapng; fixed for classic).
    big: bool,
}

impl<B: AsRef<[u8]>> PcapReader<B> {
    /// Probes the capture's format and prepares to stream its frames.
    /// Errors on unknown magics or a classic header too short to hold
    /// its fixed fields.
    pub fn new(data: B) -> Result<PcapReader<B>, SourceError> {
        let bytes = data.as_ref();
        let Some(magic) = bytes.get(..4) else {
            return Err(SourceError::new(
                "capture too short to hold a pcap or pcapng magic",
            ));
        };
        let (format, big) = match *magic {
            [0x0a, 0x0d, 0x0d, 0x0a] => (Format::Ng, false),
            [0xa1, 0xb2, 0xc3, 0xd4] => (Format::Classic { nanos: false }, true),
            [0xd4, 0xc3, 0xb2, 0xa1] => (Format::Classic { nanos: false }, false),
            [0xa1, 0xb2, 0x3c, 0x4d] => (Format::Classic { nanos: true }, true),
            [0x4d, 0x3c, 0xb2, 0xa1] => (Format::Classic { nanos: true }, false),
            _ => {
                return Err(SourceError::new(format!(
                    "unrecognized capture magic {:02x}{:02x}{:02x}{:02x}",
                    magic[0], magic[1], magic[2], magic[3]
                )))
            }
        };
        if matches!(format, Format::Classic { .. }) && bytes.len() < 24 {
            return Err(SourceError::new(format!(
                "classic pcap global header truncated: {} of 24 bytes",
                bytes.len()
            )));
        }
        Ok(PcapReader {
            data,
            cursor: match format {
                Format::Classic { .. } => 24,
                Format::Ng => 0,
            },
            format,
            big,
        })
    }

    /// Whether the capture (or its current pcapng section) is big-endian.
    pub fn big_endian(&self) -> bool {
        self.big
    }

    /// Whether a classic capture carries nanosecond timestamps (always
    /// `false` for pcapng, whose EPB resolution is per-interface).
    pub fn nanos(&self) -> bool {
        matches!(self.format, Format::Classic { nanos: true, .. })
    }

    fn u32_at(&self, off: usize) -> u32 {
        let b: [u8; 4] = self.data.as_ref()[off..off + 4]
            .try_into()
            .expect("bounds checked");
        if self.big {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        }
    }

    fn next_classic(&mut self) -> Result<Option<&[u8]>, SourceError> {
        let len = self.data.as_ref().len();
        if self.cursor >= len {
            return Ok(None);
        }
        let remaining = len - self.cursor;
        if remaining < 16 {
            return Err(SourceError::new(format!(
                "pcap record header truncated at offset {}: {remaining} of 16 bytes",
                self.cursor
            )));
        }
        let incl_len = self.u32_at(self.cursor + 8) as usize;
        if incl_len > remaining - 16 {
            return Err(SourceError::new(format!(
                "pcap record at offset {} claims {incl_len} bytes but only {} remain",
                self.cursor,
                remaining - 16
            )));
        }
        let start = self.cursor + 16;
        self.cursor = start + incl_len;
        Ok(Some(&self.data.as_ref()[start..start + incl_len]))
    }

    fn next_ng(&mut self) -> Result<Option<&[u8]>, SourceError> {
        loop {
            let len = self.data.as_ref().len();
            if self.cursor >= len {
                return Ok(None);
            }
            let remaining = len - self.cursor;
            if remaining < 12 {
                return Err(SourceError::new(format!(
                    "pcapng block header truncated at offset {}: {remaining} of 12 bytes",
                    self.cursor
                )));
            }
            // The SHB type is a byte-order palindrome, so it is
            // recognizable before the section endianness is known — and
            // it is what *sets* the endianness, possibly mid-file.
            let type_bytes: [u8; 4] = self.data.as_ref()[self.cursor..self.cursor + 4]
                .try_into()
                .expect("bounds checked");
            if type_bytes == [0x0a, 0x0d, 0x0d, 0x0a] {
                let bom: [u8; 4] = self.data.as_ref()[self.cursor + 8..self.cursor + 12]
                    .try_into()
                    .expect("bounds checked");
                self.big = match bom {
                    [0x1a, 0x2b, 0x3c, 0x4d] => true,
                    [0x4d, 0x3c, 0x2b, 0x1a] => false,
                    _ => {
                        return Err(SourceError::new(format!(
                            "pcapng section header at offset {} has invalid byte-order magic",
                            self.cursor
                        )))
                    }
                };
            }
            let block_type = self.u32_at(self.cursor);
            let total = self.u32_at(self.cursor + 4) as usize;
            if total < 12 || !total.is_multiple_of(4) {
                return Err(SourceError::new(format!(
                    "pcapng block at offset {} has impossible length {total}",
                    self.cursor
                )));
            }
            if total > remaining {
                return Err(SourceError::new(format!(
                    "pcapng block at offset {} claims {total} bytes but only {remaining} remain",
                    self.cursor
                )));
            }
            let trailer = self.u32_at(self.cursor + total - 4) as usize;
            if trailer != total {
                return Err(SourceError::new(format!(
                    "pcapng block at offset {} has mismatched trailing length ({trailer} != {total})",
                    self.cursor
                )));
            }
            let block = self.cursor;
            self.cursor += total;
            match block_type {
                EPB_TYPE => {
                    if total < 32 {
                        return Err(SourceError::new(format!(
                            "pcapng enhanced packet block at offset {block} too short ({total} bytes)"
                        )));
                    }
                    let cap_len = self.u32_at(block + 20) as usize;
                    if 28 + cap_len + 4 > total {
                        return Err(SourceError::new(format!(
                            "pcapng enhanced packet block at offset {block} claims {cap_len} \
                             captured bytes that do not fit its {total}-byte block"
                        )));
                    }
                    return Ok(Some(&self.data.as_ref()[block + 28..block + 28 + cap_len]));
                }
                SPB_TYPE => {
                    if total < 16 {
                        return Err(SourceError::new(format!(
                            "pcapng simple packet block at offset {block} too short ({total} bytes)"
                        )));
                    }
                    // A SPB records only the original length; the stored
                    // data is capped by the block size (snaplen applies).
                    let orig_len = self.u32_at(block + 8) as usize;
                    let stored = orig_len.min(total - 16);
                    return Ok(Some(&self.data.as_ref()[block + 12..block + 12 + stored]));
                }
                // Section headers, interface descriptions, statistics,
                // name resolution, anything future: skipped.
                _ => {}
            }
        }
    }
}

/// Lends each frame as a view into the reader's one buffer.
impl<B: AsRef<[u8]>> Source<[u8]> for PcapReader<B> {
    fn lend(&mut self) -> Result<Option<Cow<'_, [u8]>>, SourceError> {
        let frame = match self.format {
            Format::Classic { .. } => self.next_classic()?,
            Format::Ng => self.next_ng()?,
        };
        Ok(frame.map(Cow::Borrowed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Vec<u8>> {
        // Deliberately varied lengths so pcapng padding paths all fire.
        (0..7u8)
            .map(|i| {
                (0..(10 + i as usize * 3 + i as usize % 4))
                    .map(|b| b as u8 ^ i)
                    .collect()
            })
            .collect()
    }

    fn drain<B: AsRef<[u8]>>(rd: &mut PcapReader<B>) -> Result<Vec<Vec<u8>>, SourceError> {
        let mut out = Vec::new();
        while let Some(f) = rd.lend()? {
            out.push(f.into_owned());
        }
        Ok(out)
    }

    #[test]
    fn classic_roundtrips_both_endiannesses_and_units() {
        let frames = sample_frames();
        for big_endian in [false, true] {
            for nanos in [false, true] {
                let opts = PcapOptions { big_endian, nanos };
                let capture = write_pcap(&frames, opts);
                let mut rd = PcapReader::new(&capture[..]).unwrap();
                assert_eq!(rd.big_endian(), big_endian);
                assert_eq!(rd.nanos(), nanos);
                assert_eq!(drain(&mut rd).unwrap(), frames, "{opts:?}");
            }
        }
    }

    #[test]
    fn pcapng_roundtrips_epb_and_spb_both_endiannesses() {
        let frames = sample_frames();
        for big_endian in [false, true] {
            for simple_blocks in [false, true] {
                let opts = PcapNgOptions {
                    big_endian,
                    simple_blocks,
                };
                let capture = write_pcapng(&frames, opts);
                let mut rd = PcapReader::new(&capture[..]).unwrap();
                assert_eq!(drain(&mut rd).unwrap(), frames, "{opts:?}");
            }
        }
    }

    #[test]
    fn pcapng_sections_may_switch_endianness_mid_file() {
        let frames = sample_frames();
        let mut capture = write_pcapng(&frames[..3], PcapNgOptions::default());
        capture.extend_from_slice(&write_pcapng(
            &frames[3..],
            PcapNgOptions {
                big_endian: true,
                ..PcapNgOptions::default()
            },
        ));
        let mut rd = PcapReader::new(&capture[..]).unwrap();
        assert_eq!(drain(&mut rd).unwrap(), frames);
    }

    #[test]
    fn pcapng_unknown_blocks_are_skipped() {
        let frames = sample_frames();
        let mut capture = write_pcapng(&frames[..2], PcapNgOptions::default());
        // Splice in an unknown block (type 0x0bad) and a statistics-ish
        // block, then two more frames.
        for fake_type in [0x0000_0badu32, 0x0000_0005] {
            put_u32(&mut capture, fake_type, false);
            put_u32(&mut capture, 20, false);
            capture.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0]);
            put_u32(&mut capture, 20, false);
        }
        let tail = write_pcapng(&frames[2..4], PcapNgOptions::default());
        capture.extend_from_slice(&tail[28 + 20..]); // skip SHB + IDB
        let mut rd = PcapReader::new(&capture[..]).unwrap();
        assert_eq!(drain(&mut rd).unwrap(), frames[..4].to_vec());
    }

    #[test]
    fn truncation_at_every_byte_boundary_never_panics() {
        let frames = sample_frames();
        let captures = [
            write_pcap(&frames, PcapOptions::default()),
            write_pcap(
                &frames,
                PcapOptions {
                    big_endian: true,
                    nanos: true,
                },
            ),
            write_pcapng(&frames, PcapNgOptions::default()),
            write_pcapng(
                &frames,
                PcapNgOptions {
                    big_endian: true,
                    simple_blocks: true,
                },
            ),
        ];
        for capture in &captures {
            for cut in 0..=capture.len() {
                match PcapReader::new(&capture[..cut]) {
                    Ok(mut rd) => {
                        // Drain to completion: frames that fit, then a
                        // clean end or a typed truncation error.
                        let drained = drain(&mut rd);
                        if cut == capture.len() {
                            assert_eq!(drained.unwrap(), frames);
                        } else if let Ok(got) = drained {
                            assert!(got.len() <= frames.len());
                            assert_eq!(got, frames[..got.len()].to_vec());
                        }
                    }
                    Err(_) => assert!(cut < 24, "probe failed only on tiny prefixes"),
                }
            }
        }
    }

    #[test]
    fn structural_corruption_is_a_typed_error() {
        assert!(PcapReader::new(&b"not a capture"[..]).is_err());

        // Classic record claiming more bytes than remain.
        let mut capture = write_pcap(&sample_frames()[..1], PcapOptions::default());
        let incl_off = 24 + 8;
        capture[incl_off..incl_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut rd = PcapReader::new(&capture[..]).unwrap();
        let err = rd.lend().unwrap_err();
        assert!(err.message().contains("remain"), "{err}");

        // pcapng block with a mismatched trailing length.
        let mut capture = write_pcapng(&sample_frames()[..1], PcapNgOptions::default());
        let last = capture.len() - 4;
        capture[last..].copy_from_slice(&77u32.to_le_bytes());
        let mut rd = PcapReader::new(&capture[..]).unwrap();
        let err = drain(&mut rd).unwrap_err();
        assert!(err.message().contains("mismatched"), "{err}");
    }

    #[test]
    fn wiregen_fixture_replays_through_the_reader_byte_identical() {
        let opts = crate::wiregen::GenOptions {
            malform_rate: 0.2,
            ..crate::wiregen::GenOptions::default()
        };
        let wt = crate::wiregen::wire_trace_for("flowlet", 120, 9, &opts);
        for capture in [
            write_pcap(&wt.frames, PcapOptions::default()),
            write_pcapng(&wt.frames, PcapNgOptions::default()),
        ] {
            let mut rd = PcapReader::new(capture).unwrap();
            assert_eq!(drain(&mut rd).unwrap(), wt.frames);
        }
    }
}
