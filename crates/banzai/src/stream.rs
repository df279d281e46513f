//! Streaming ingestion: pull-based packet and frame sources.
//!
//! Every run entry point used to take a fully materialized `&[Packet]`
//! slice, capping runs at whatever trace fits in memory. This module is
//! the bounded-memory replacement: a [`PacketSource`] is a fallible,
//! pull-based iterator of packets (with a byte-level [`FrameSource`]
//! twin), and the switch entry points ([`Switch::run`],
//! [`ShardedSwitch::run`]) pull from a source through the existing
//! bounded batch machinery instead of indexing a slice — memory stays
//! O(batch × shards) for arbitrarily long runs, with outputs optionally
//! streamed to a sink rather than collected.
//!
//! The layering:
//!
//! * [`PacketSource`] / [`FrameSource`] — the pull traits. A packet is
//!   lent where the source holds it ([`PacketSource::lend`]: a slice's
//!   own element, a generator's fresh packet) and admitted from that
//!   borrow; a frame is lent the same way (see [`FrameSource`]). `next_*`
//!   returns `Ok(Some(..))` per item, `Ok(None)` at end of stream, and
//!   `Err(SourceError)` when ingestion itself fails (a torn capture
//!   file, a dead NIC ring). A source failure is a first-class fault:
//!   the run drains everything already admitted and returns
//!   [`SwitchError::Fault`](crate::error::SwitchError::Fault) with
//!   closed [`Accounting`](crate::error::Accounting) books.
//! * [`IntoPacketSource`] / [`IntoFrameSource`] — conversions so the
//!   run builders accept `&[Packet]` / `&Vec<Packet>` slices (the
//!   migration path for every old call site) as well as any source.
//! * Concrete sources — [`SliceSource`]/[`FrameSliceSource`] (borrowed
//!   slices, exact size hints), [`GenSource`]/[`FrameGenSource`]
//!   (closure generators: O(1) memory for multi-million-packet runs),
//!   and [`FailAfter`] (a fault-injection wrapper that errors
//!   mid-stream, for the chaos suite).
//!
//! The pcap/pcapng replay reader in `bench::pcap` implements
//! [`FrameSource`] on top of this layer, so real capture files drive
//! the wire path end-to-end.
//!
//! [`Switch::run`]: crate::switch::Switch::run
//! [`ShardedSwitch::run`]: crate::shard::ShardedSwitch::run

use domino_ir::Packet;
use std::borrow::Cow;
use std::fmt;

/// An ingestion failure: the source could not produce its next item.
///
/// Distinct from [`SwitchError`](crate::error::SwitchError) — a source
/// error happens *upstream* of the switch, and the run machinery
/// converts it into a fault report with exact packet accounting rather
/// than propagating it raw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError {
    msg: String,
}

impl SourceError {
    /// A source error carrying a human-readable cause.
    pub fn new(msg: impl Into<String>) -> SourceError {
        SourceError { msg: msg.into() }
    }

    /// The failure description.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for SourceError {}

/// Statistics of one streamed run: what was pulled and what was
/// delivered. Drop counters live on the switch itself
/// ([`Switch::drop_counters`](crate::switch::Switch::drop_counters)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Packets (or frames) successfully pulled from the source.
    pub offered: u64,
    /// Packets (or frames) delivered to the caller's sink.
    pub transmitted: u64,
}

/// A pull-based source of packets — the streaming replacement for
/// `&[Packet]` traces.
///
/// The contract mirrors a fused iterator, with errors: `lend` (and
/// `next_packet`, built on it) yields `Ok(Some(..))` per packet in arrival order, `Ok(None)` once at
/// end of stream (the run machinery never calls it again afterwards),
/// and `Err` if ingestion fails mid-stream. Sources are pulled one
/// packet per simulated arrival cycle, so a source *is* the arrival
/// process.
pub trait PacketSource {
    /// Pulls the next packet as the source holds it: borrowed where it
    /// already lies (a slice's element), owned where it is made for the
    /// pull. The run machinery pulls this way — admission only reads the
    /// packet — so a source that holds its packets lends them instead of
    /// cloning each one.
    fn lend(&mut self) -> Result<Option<Cow<'_, Packet>>, SourceError>;

    /// Pulls the next packet, owned (a lent one cloned), `Ok(None)` at
    /// end of stream.
    fn next_packet(&mut self) -> Result<Option<Packet>, SourceError> {
        Ok(self.lend()?.map(Cow::into_owned))
    }

    /// `(lower, upper)` bounds on the packets remaining, iterator-style.
    /// Used only for pre-allocation; `(0, None)` is always correct.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// A pull-based source of raw byte frames — the wire-path twin of
/// [`PacketSource`], feeding `parse → pipeline → deparse` runs.
///
/// Frames are **lent in**: `next_frame` returns a borrow of the source's
/// internal buffer, so a file reader (the pcap replay in `bench::pcap`)
/// re-uses one buffer for the whole run instead of allocating per frame;
/// the switch copies the frame once, into the record it queues. They are
/// **lent out** the same way:
/// [`FrameRun::for_each`](crate::switch::FrameRun::for_each) hands its
/// sink a borrow of that record's buffer, valid until the sink returns —
/// a sink that keeps a frame copies it, as
/// [`FrameRun::collect`](crate::switch::FrameRun::collect) does.
pub trait FrameSource {
    /// Pulls the next frame, `Ok(None)` at end of stream. The returned
    /// slice is valid until the next call.
    fn next_frame(&mut self) -> Result<Option<&[u8]>, SourceError>;

    /// `(lower, upper)` bounds on the frames remaining.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// A [`PacketSource`] over a borrowed slice, with an exact size hint. It
/// **lends** each packet: [`PacketSource::lend`] borrows the slice's own
/// element, so a run admits it with no copy. [`PacketSource::next_packet`]
/// still clones, for a caller that keeps the packet — one allocation, the
/// value row; the names stay shared with the slice's packet.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    items: &'a [Packet],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Wraps a slice.
    pub fn new(items: &'a [Packet]) -> SliceSource<'a> {
        SliceSource { items, pos: 0 }
    }
}

impl PacketSource for SliceSource<'_> {
    fn lend(&mut self) -> Result<Option<Cow<'_, Packet>>, SourceError> {
        let item = self.items.get(self.pos);
        self.pos += usize::from(item.is_some());
        Ok(item.map(Cow::Borrowed))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.items.len() - self.pos;
        (left, Some(left))
    }
}

/// A [`PacketSource`] generating packets from a closure of the arrival
/// index — O(1) memory however long the run: the 10M-packet streaming
/// workload (EXPERIMENTS.md E14) is a `GenSource`.
///
/// The closure returns `None` to end the stream (or never, for an
/// unbounded source the run bounds by other means).
#[derive(Debug, Clone)]
pub struct GenSource<F> {
    f: F,
    next: u64,
    len: Option<u64>,
}

impl<F: FnMut(u64) -> Option<Packet>> GenSource<F> {
    /// A generator with no length hint (ends when `f` returns `None`).
    pub fn new(f: F) -> GenSource<F> {
        GenSource {
            f,
            next: 0,
            len: None,
        }
    }

    /// A generator that ends after `len` packets (whichever of the cap
    /// and the closure's own `None` comes first), hinting at most what is
    /// left of the cap — and at least nothing, as the closure may end first.
    pub fn with_len(len: u64, f: F) -> GenSource<F> {
        GenSource {
            f,
            next: 0,
            len: Some(len),
        }
    }
}

impl<F: FnMut(u64) -> Option<Packet>> PacketSource for GenSource<F> {
    fn lend(&mut self) -> Result<Option<Cow<'_, Packet>>, SourceError> {
        if self.len.is_some_and(|n| self.next >= n) {
            return Ok(None);
        }
        match (self.f)(self.next) {
            Some(p) => {
                self.next += 1;
                Ok(Some(Cow::Owned(p)))
            }
            None => Ok(None),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.len.map(|n| n.saturating_sub(self.next) as usize))
    }
}

/// A [`FrameSource`] over a borrowed slice of frames.
#[derive(Debug, Clone)]
pub struct FrameSliceSource<'a, F: AsRef<[u8]>> {
    items: &'a [F],
    pos: usize,
}

impl<'a, F: AsRef<[u8]>> FrameSliceSource<'a, F> {
    /// Wraps a slice of frames.
    pub fn new(items: &'a [F]) -> FrameSliceSource<'a, F> {
        FrameSliceSource { items, pos: 0 }
    }
}

impl<F: AsRef<[u8]>> FrameSource for FrameSliceSource<'_, F> {
    fn next_frame(&mut self) -> Result<Option<&[u8]>, SourceError> {
        match self.items.get(self.pos) {
            Some(f) => {
                self.pos += 1;
                Ok(Some(f.as_ref()))
            }
            None => Ok(None),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.items.len() - self.pos;
        (left, Some(left))
    }
}

/// A [`FrameSource`] generating frames from a closure of the arrival
/// index, buffer-reusing like a capture reader.
#[derive(Debug, Clone)]
pub struct FrameGenSource<F> {
    f: F,
    next: u64,
    buf: Vec<u8>,
}

impl<F: FnMut(u64) -> Option<Vec<u8>>> FrameGenSource<F> {
    /// A frame generator (ends when `f` returns `None`).
    pub fn new(f: F) -> FrameGenSource<F> {
        FrameGenSource {
            f,
            next: 0,
            buf: Vec::new(),
        }
    }
}

impl<F: FnMut(u64) -> Option<Vec<u8>>> FrameSource for FrameGenSource<F> {
    fn next_frame(&mut self) -> Result<Option<&[u8]>, SourceError> {
        match (self.f)(self.next) {
            Some(frame) => {
                self.next += 1;
                self.buf = frame;
                Ok(Some(&self.buf))
            }
            None => Ok(None),
        }
    }
}

/// A fault-injection wrapper: yields the inner source's first `fail_at`
/// items, then fails with a [`SourceError`] — the chaos suite's model of
/// an ingestion path that dies mid-stream (torn capture file, dead NIC
/// ring).
///
/// Wraps packet and frame sources alike.
#[derive(Debug, Clone)]
pub struct FailAfter<S> {
    inner: S,
    yielded: u64,
    fail_at: u64,
    msg: String,
}

impl<S> FailAfter<S> {
    /// Fails after `fail_at` successful pulls, with `msg` as the cause.
    pub fn new(inner: S, fail_at: u64, msg: impl Into<String>) -> FailAfter<S> {
        FailAfter {
            inner,
            yielded: 0,
            fail_at,
            msg: msg.into(),
        }
    }

    /// The inner source's hint, both bounds capped at the pulls left
    /// before the failure.
    fn capped(&self, (lo, hi): (usize, Option<usize>)) -> (usize, Option<usize>) {
        let left = usize::try_from(self.fail_at - self.yielded).unwrap_or(usize::MAX);
        (lo.min(left), Some(hi.map_or(left, |hi| hi.min(left))))
    }
}

impl<S: PacketSource> PacketSource for FailAfter<S> {
    fn lend(&mut self) -> Result<Option<Cow<'_, Packet>>, SourceError> {
        if self.yielded >= self.fail_at {
            return Err(SourceError::new(self.msg.clone()));
        }
        let item = self.inner.lend()?;
        if item.is_some() {
            self.yielded += 1;
        }
        Ok(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.capped(self.inner.size_hint())
    }
}

impl<S: FrameSource> FrameSource for FailAfter<S> {
    fn next_frame(&mut self) -> Result<Option<&[u8]>, SourceError> {
        if self.yielded >= self.fail_at {
            return Err(SourceError::new(self.msg.clone()));
        }
        let item = self.inner.next_frame()?;
        if item.is_some() {
            self.yielded += 1;
        }
        Ok(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.capped(self.inner.size_hint())
    }
}

/// Conversion into a [`PacketSource`] — what the run builders accept.
///
/// Implemented by every source (identity) and by `&[Packet]` /
/// `&Vec<Packet>` (wrapped in a [`SliceSource`]), so
/// `switch.run(&trace)` keeps working on materialized traces.
pub trait IntoPacketSource {
    /// The source this converts into.
    type Source: PacketSource;

    /// Performs the conversion.
    fn into_packet_source(self) -> Self::Source;
}

impl<S: PacketSource> IntoPacketSource for S {
    type Source = S;

    fn into_packet_source(self) -> S {
        self
    }
}

impl<'a> IntoPacketSource for &'a [Packet] {
    type Source = SliceSource<'a>;

    fn into_packet_source(self) -> SliceSource<'a> {
        SliceSource::new(self)
    }
}

impl<'a> IntoPacketSource for &'a Vec<Packet> {
    type Source = SliceSource<'a>;

    fn into_packet_source(self) -> SliceSource<'a> {
        SliceSource::new(self)
    }
}

/// Conversion into a [`FrameSource`] — the byte-level twin of
/// [`IntoPacketSource`].
pub trait IntoFrameSource {
    /// The source this converts into.
    type Source: FrameSource;

    /// Performs the conversion.
    fn into_frame_source(self) -> Self::Source;
}

impl<S: FrameSource> IntoFrameSource for S {
    type Source = S;

    fn into_frame_source(self) -> S {
        self
    }
}

impl<'a, F: AsRef<[u8]>> IntoFrameSource for &'a [F] {
    type Source = FrameSliceSource<'a, F>;

    fn into_frame_source(self) -> FrameSliceSource<'a, F> {
        FrameSliceSource::new(self)
    }
}

impl<'a, F: AsRef<[u8]>> IntoFrameSource for &'a Vec<F> {
    type Source = FrameSliceSource<'a, F>;

    fn into_frame_source(self) -> FrameSliceSource<'a, F> {
        FrameSliceSource::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_yields_in_order_with_exact_hint() {
        let trace: Vec<Packet> = (0..5).map(|i| Packet::new().with("seq", i)).collect();
        let mut src = SliceSource::new(&trace);
        assert_eq!(src.size_hint(), (5, Some(5)));
        let mut got = Vec::new();
        while let Some(p) = src.next_packet().unwrap() {
            got.push(p);
        }
        assert_eq!(got, trace);
        assert_eq!(src.size_hint(), (0, Some(0)));
        // Fused: keeps returning None.
        assert_eq!(src.next_packet().unwrap(), None);
    }

    #[test]
    fn gen_source_is_bounded() {
        let mut src = GenSource::with_len(3, |i| Some(Packet::new().with("i", i as i32)));
        assert_eq!(src.size_hint(), (0, Some(3)));
        let mut n = 0;
        while src.next_packet().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(src.size_hint(), (0, Some(0)));
    }

    #[test]
    fn gen_source_hint_survives_a_closure_that_ends_first() {
        // The cap promises at most 10; the closure stops at 2, so any
        // lower bound above 0 would have been a lie.
        let mut src = GenSource::with_len(10, |i| (i < 2).then(Packet::new));
        let (lo, hi) = src.size_hint();
        let mut n = 0;
        while src.next_packet().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
        assert!(lo <= n && hi.is_some_and(|hi| n <= hi), "({lo}, {hi:?})");
    }

    #[test]
    fn fail_after_caps_its_hint_at_the_pulls_left() {
        let trace: Vec<Packet> = (0..10).map(|i| Packet::new().with("seq", i)).collect();
        let mut src = FailAfter::new(SliceSource::new(&trace), 4, "ring died");
        assert_eq!(src.size_hint(), (4, Some(4)));
        src.next_packet().unwrap();
        assert_eq!(src.size_hint(), (3, Some(3)));
        // Past the inner source's end the inner hint is the tighter one.
        let mut short = FailAfter::new(SliceSource::new(&trace[..2]), 4, "ring died");
        assert_eq!(short.size_hint(), (2, Some(2)));
        short.next_packet().unwrap();
        assert_eq!(short.size_hint(), (1, Some(1)));
        // An unbounded inner source gains the failure as its upper bound.
        let endless = FailAfter::new(GenSource::new(|_| Some(Packet::new())), 5, "flap");
        assert_eq!(endless.size_hint(), (0, Some(5)));
        // Frames too.
        let frames: Vec<Vec<u8>> = vec![vec![0; 4]; 10];
        let mut frames = FailAfter::new(FrameSliceSource::new(&frames), 3, "torn");
        assert_eq!(frames.size_hint(), (3, Some(3)));
        while frames.next_frame().is_ok() {}
        assert_eq!(frames.size_hint(), (0, Some(0)));
    }

    #[test]
    fn a_long_source_failing_early_hints_what_it_will_yield() {
        // `Run::collect` reserves from this hint: a ten-million-packet
        // source failing after 5 used to reserve 2^20 packets (32 MiB) to
        // keep 5.
        let long = GenSource::with_len(10_000_000, |_| Some(Packet::new()));
        assert_eq!(FailAfter::new(long, 5, "flap").size_hint(), (0, Some(5)));
    }

    #[test]
    fn fail_after_errors_midstream() {
        let trace: Vec<Packet> = (0..10).map(|i| Packet::new().with("seq", i)).collect();
        let mut src = FailAfter::new(SliceSource::new(&trace), 4, "ring died");
        for _ in 0..4 {
            assert!(src.next_packet().unwrap().is_some());
        }
        let err = src.next_packet().unwrap_err();
        assert_eq!(err.message(), "ring died");
        assert!(err.to_string().contains("ring died"));
    }

    #[test]
    fn a_slice_lends_its_own_packets() {
        let trace: Vec<Packet> = (0..3).map(|i| Packet::new().with("seq", i)).collect();
        let mut src = SliceSource::new(&trace);
        for (i, want) in trace.iter().enumerate() {
            match src.lend().unwrap() {
                Some(Cow::Borrowed(p)) => assert!(std::ptr::eq(p, want)),
                other => panic!("packet {i}: {other:?}"),
            }
            assert_eq!(src.size_hint(), (2 - i, Some(2 - i)));
        }
        assert!(src.lend().unwrap().is_none());
    }

    #[test]
    fn a_generator_lends_what_it_makes() {
        let mut src = GenSource::with_len(2, |i| Some(Packet::new().with("i", i as i32)));
        for i in 0..2 {
            match src.lend().unwrap() {
                Some(Cow::Owned(p)) => assert_eq!(p.get("i"), Some(i)),
                other => panic!("packet {i}: {other:?}"),
            }
        }
        assert!(src.lend().unwrap().is_none());
    }

    #[test]
    fn a_failing_slice_lends_then_fails_at_exactly_k() {
        let trace: Vec<Packet> = (0..10).map(|i| Packet::new().with("seq", i)).collect();
        let mut src = FailAfter::new(SliceSource::new(&trace), 4, "ring died");
        for want in &trace[..4] {
            let lent = src.lend().unwrap();
            assert!(matches!(lent, Some(Cow::Borrowed(p)) if std::ptr::eq(p, want)));
        }
        assert_eq!(src.lend().unwrap_err().message(), "ring died");
    }

    #[test]
    fn a_dyn_source_lends() {
        let trace: Vec<Packet> = (0..2).map(|i| Packet::new().with("seq", i)).collect();
        let mut slice = SliceSource::new(&trace);
        let mut gen = GenSource::with_len(1, |_| Some(Packet::new()));
        let sources: [&mut dyn PacketSource; 2] = [&mut slice, &mut gen];
        let lent: Vec<bool> = sources
            .into_iter()
            .map(|src| matches!(src.lend().unwrap(), Some(Cow::Borrowed(_))))
            .collect();
        assert_eq!(lent, [true, false]);
    }

    #[test]
    fn frame_sources_yield_borrowed_frames() {
        let frames: Vec<Vec<u8>> = vec![vec![1, 2], vec![3]];
        let mut src = FrameSliceSource::new(&frames);
        assert_eq!(src.next_frame().unwrap(), Some(&[1u8, 2][..]));
        assert_eq!(src.next_frame().unwrap(), Some(&[3u8][..]));
        assert_eq!(src.next_frame().unwrap(), None);

        let mut gen = FrameGenSource::new(|i| if i < 2 { Some(vec![i as u8; 3]) } else { None });
        assert_eq!(gen.next_frame().unwrap(), Some(&[0u8, 0, 0][..]));
        assert_eq!(gen.next_frame().unwrap(), Some(&[1u8, 1, 1][..]));
        assert_eq!(gen.next_frame().unwrap(), None);
    }
}
