//! Streaming ingestion: pull-based sources of packets and frames.
//!
//! Every run entry point used to take a fully materialized `&[Packet]`
//! slice, capping runs at whatever trace fits in memory. This module is
//! the bounded-memory replacement: a [`Source`] is a fallible,
//! pull-based iterator of arrivals — parsed packets (`Source<Packet>`)
//! or raw byte frames (`Source<[u8]>`) — and the switch entry points
//! ([`Switch::run`], [`ShardedSwitch::run`] and their `run_frames`
//! twins) pull from a source through the existing bounded batch
//! machinery instead of indexing a slice — memory stays O(batch ×
//! shards) for arbitrarily long runs, with outputs optionally streamed
//! to a sink rather than collected.
//!
//! A run has one arrival process whatever shape it arrives in; only the
//! adapter that admits a packet or parses a frame differs. So the
//! layering is one of each:
//!
//! * [`Source`] — the one pull trait. An arrival is lent where the
//!   source holds it ([`Source::lend`]: a slice's own element, a capture
//!   reader's buffer, a generator's fresh item) and admitted or parsed
//!   from that borrow. `lend` returns `Ok(Some(..))` per item, `Ok(None)`
//!   at end of stream, and `Err(SourceError)` when ingestion itself fails
//!   (a torn capture file, a dead NIC ring). A source failure is a
//!   first-class fault: the run drains everything already admitted and
//!   returns [`SwitchError::Fault`](crate::error::SwitchError::Fault)
//!   with closed [`Accounting`](crate::error::Accounting) books.
//!   [`PacketSource`] is the name of `Source<Packet>`, with an owning
//!   [`PacketSource::next_packet`] beside the loan.
//! * One concrete source per shape, each serving packets and frames:
//!   [`SliceSource`] (a borrowed slice, exact size hint), [`GenSource`]
//!   (a closure generator: O(1) memory for multi-million-packet runs)
//!   and [`FailAfter`] (a fault-injection wrapper that errors
//!   mid-stream, for the chaos suite).
//! * [`IntoSource`] — the one conversion, so the run builders accept
//!   `&[Packet]` / `&Vec<Packet>` and slices of frames as well as any
//!   source.
//!
//! The pcap/pcapng replay reader in `bench::pcap` implements
//! `Source<[u8]>` on top of this layer, so real capture files drive the
//! wire path end-to-end.
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

/// A pull-based source of arrivals, each a `T`: a parsed [`Packet`] or
/// a raw byte frame (`[u8]`) — the streaming replacement for
/// materialized traces.
///
/// The contract mirrors a fused iterator, with errors: `lend` yields
/// `Ok(Some(..))` per item in arrival order, `Ok(None)` once at end of
/// stream (the run machinery never calls it again afterwards), and `Err`
/// if ingestion fails mid-stream. Sources are pulled one item per
/// simulated arrival cycle, so a source *is* the arrival process.
///
/// Items are **lent in**: borrowed where the source already holds them
/// (a slice's element, a capture reader's one buffer), owned where they
/// are made for the pull (a generator's). Admission and parsing only
/// read the item, so a source that holds its items is never copied
/// before the switch copies the item once, into the record it queues.
/// A frame run lends its frames **out** the same way:
/// [`FrameRun::for_each`](crate::switch::FrameRun::for_each) hands its
/// sink a borrow of that record's buffer, valid until the sink returns —
/// a sink that keeps a frame copies it, as
/// [`FrameRun::collect`](crate::switch::FrameRun::collect) does.
pub trait Source<T: ToOwned + ?Sized> {
    /// Pulls the next item as the source holds it, `Ok(None)` at end of
    /// stream. A borrowed item is valid until the next call.
    fn lend(&mut self) -> Result<Option<Cow<'_, T>>, SourceError>;

    /// `(lower, upper)` bounds on the items remaining, iterator-style.
    /// Used only for pre-allocation; `(0, None)` is always correct.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// A source of parsed packets: every [`Source<Packet>`] is one. The name
/// carries [`next_packet`](PacketSource::next_packet), for a caller that
/// keeps what it pulls, and a `dyn PacketSource` pulls either way.
pub trait PacketSource: Source<Packet> {
    /// Pulls the next packet, owned (a lent one cloned), `Ok(None)` at
    /// end of stream.
    fn next_packet(&mut self) -> Result<Option<Packet>, SourceError> {
        Ok(self.lend()?.map(Cow::into_owned))
    }
}

impl<S: Source<Packet>> PacketSource for S {}

/// A [`Source`] over a borrowed slice — of packets, or of frames (any
/// `AsRef<[u8]>`) — with an exact size hint. It **lends** each item: a
/// packet is the slice's own element, a frame its bytes, so a run admits
/// or parses it with no copy. [`PacketSource::next_packet`] still
/// clones, for a caller that keeps the packet — one allocation, the
/// value row; the names stay shared with the slice's packet.
#[derive(Debug, Clone)]
pub struct SliceSource<'a, I> {
    items: &'a [I],
    pos: usize,
}

impl<'a, I> SliceSource<'a, I> {
    /// Wraps a slice.
    pub fn new(items: &'a [I]) -> SliceSource<'a, I> {
        SliceSource { items, pos: 0 }
    }

    fn pull(&mut self) -> Option<&'a I> {
        let item = self.items.get(self.pos);
        self.pos += usize::from(item.is_some());
        item
    }

    fn left(&self) -> (usize, Option<usize>) {
        let left = self.items.len() - self.pos;
        (left, Some(left))
    }
}

impl Source<Packet> for SliceSource<'_, Packet> {
    fn lend(&mut self) -> Result<Option<Cow<'_, Packet>>, SourceError> {
        Ok(self.pull().map(Cow::Borrowed))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.left()
    }
}

impl<F: AsRef<[u8]>> Source<[u8]> for SliceSource<'_, F> {
    fn lend(&mut self) -> Result<Option<Cow<'_, [u8]>>, SourceError> {
        Ok(self.pull().map(|f| Cow::Borrowed(f.as_ref())))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.left()
    }
}

/// A [`Source`] generating items — packets, or frames as `Vec<u8>` —
/// from a closure of the arrival index, lending each one owned: O(1)
/// memory however long the run. The 10M-packet streaming workload
/// (EXPERIMENTS.md E14) is a `GenSource`.
///
/// The closure returns `None` to end the stream (or never, for an
/// unbounded source the run bounds by other means).
#[derive(Debug, Clone)]
pub struct GenSource<F> {
    f: F,
    next: u64,
    len: Option<u64>,
}

impl<F> GenSource<F> {
    /// A generator with no length hint (ends when `f` returns `None`).
    pub fn new<O>(f: F) -> GenSource<F>
    where
        F: FnMut(u64) -> Option<O>,
    {
        GenSource {
            f,
            next: 0,
            len: None,
        }
    }

    /// A generator that ends after `len` items (whichever of the cap and
    /// the closure's own `None` comes first), hinting at most what is
    /// left of the cap — and at least nothing, as the closure may end first.
    pub fn with_len<O>(len: u64, f: F) -> GenSource<F>
    where
        F: FnMut(u64) -> Option<O>,
    {
        GenSource {
            f,
            next: 0,
            len: Some(len),
        }
    }

    fn pull<O>(&mut self) -> Option<O>
    where
        F: FnMut(u64) -> Option<O>,
    {
        if self.len.is_some_and(|n| self.next >= n) {
            return None;
        }
        let item = (self.f)(self.next)?;
        self.next += 1;
        Some(item)
    }

    fn left(&self) -> (usize, Option<usize>) {
        (0, self.len.map(|n| n.saturating_sub(self.next) as usize))
    }
}

impl<F: FnMut(u64) -> Option<Packet>> Source<Packet> for GenSource<F> {
    fn lend(&mut self) -> Result<Option<Cow<'_, Packet>>, SourceError> {
        Ok(self.pull().map(Cow::Owned))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.left()
    }
}

impl<F: FnMut(u64) -> Option<Vec<u8>>> Source<[u8]> for GenSource<F> {
    fn lend(&mut self) -> Result<Option<Cow<'_, [u8]>>, SourceError> {
        Ok(self.pull().map(Cow::Owned))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.left()
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
}

impl<T: ToOwned + ?Sized, S: Source<T>> Source<T> for FailAfter<S> {
    fn lend(&mut self) -> Result<Option<Cow<'_, T>>, SourceError> {
        if self.yielded >= self.fail_at {
            return Err(SourceError::new(self.msg.clone()));
        }
        let item = self.inner.lend()?;
        self.yielded += u64::from(item.is_some());
        Ok(item)
    }

    /// The inner source's hint, both bounds capped at the pulls left
    /// before the failure.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.inner.size_hint();
        let left = usize::try_from(self.fail_at - self.yielded).unwrap_or(usize::MAX);
        (lo.min(left), Some(hi.map_or(left, |hi| hi.min(left))))
    }
}

/// Conversion into a [`Source`] — what the run builders accept.
///
/// Implemented by every source (identity), by `&[Packet]` /
/// `&Vec<Packet>` and by slices of frames (each wrapped in a
/// [`SliceSource`]), so `switch.run(&trace)` and
/// `switch.run_frames(&frames, &cfg)` keep working on materialized
/// traces.
pub trait IntoSource<T: ToOwned + ?Sized> {
    /// The source this converts into.
    type Source: Source<T>;

    /// Performs the conversion.
    fn into_source(self) -> Self::Source;
}

impl<T: ToOwned + ?Sized, S: Source<T>> IntoSource<T> for S {
    type Source = S;

    fn into_source(self) -> S {
        self
    }
}

impl<'a> IntoSource<Packet> for &'a [Packet] {
    type Source = SliceSource<'a, Packet>;

    fn into_source(self) -> Self::Source {
        SliceSource::new(self)
    }
}

impl<'a> IntoSource<Packet> for &'a Vec<Packet> {
    type Source = SliceSource<'a, Packet>;

    fn into_source(self) -> Self::Source {
        SliceSource::new(self)
    }
}

impl<'a, F: AsRef<[u8]>> IntoSource<[u8]> for &'a [F] {
    type Source = SliceSource<'a, F>;

    fn into_source(self) -> Self::Source {
        SliceSource::new(self)
    }
}

impl<'a, F: AsRef<[u8]>> IntoSource<[u8]> for &'a Vec<F> {
    type Source = SliceSource<'a, F>;

    fn into_source(self) -> Self::Source {
        SliceSource::new(self)
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
        let mut frames = FailAfter::new(SliceSource::new(&frames), 3, "torn");
        assert_eq!(Source::<[u8]>::size_hint(&frames), (3, Some(3)));
        while Source::<[u8]>::lend(&mut frames).is_ok() {}
        assert_eq!(Source::<[u8]>::size_hint(&frames), (0, Some(0)));
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
        let mut slice = SliceSource::new(&frames);
        let src: &mut dyn Source<[u8]> = &mut slice;
        assert_eq!(src.lend().unwrap().as_deref(), Some(&[1u8, 2][..]));
        assert_eq!(src.lend().unwrap().as_deref(), Some(&[3u8][..]));
        assert_eq!(src.lend().unwrap(), None);

        let mut gen = GenSource::new(|i| if i < 2 { Some(vec![i as u8; 3]) } else { None });
        let gen: &mut dyn Source<[u8]> = &mut gen;
        assert_eq!(gen.lend().unwrap().as_deref(), Some(&[0u8, 0, 0][..]));
        assert_eq!(gen.lend().unwrap().as_deref(), Some(&[1u8, 1, 1][..]));
        assert_eq!(gen.lend().unwrap(), None);
    }

    #[test]
    fn a_frame_generator_is_capped_hinted_and_lends_owned_frames() {
        let mut gen = GenSource::with_len(3, |i| Some(vec![i as u8; 2]));
        let src: &mut dyn Source<[u8]> = &mut gen;
        assert_eq!(src.size_hint(), (0, Some(3)));
        for i in 0..3u8 {
            match src.lend().unwrap() {
                Some(Cow::Owned(f)) => assert_eq!(f, [i, i]),
                other => panic!("frame {i}: {other:?}"),
            }
        }
        assert!(src.lend().unwrap().is_none());

        // Capped by a failure: the hint is the pulls left, and the
        // failure comes at exactly `k`.
        let gen = GenSource::with_len(10, |i| Some(vec![i as u8; 2]));
        let mut src = FailAfter::new(gen, 2, "torn");
        let src: &mut dyn Source<[u8]> = &mut src;
        assert_eq!(src.size_hint(), (0, Some(2)));
        for _ in 0..2 {
            assert!(matches!(src.lend().unwrap(), Some(Cow::Owned(_))));
        }
        assert_eq!(src.size_hint(), (0, Some(0)));
        assert_eq!(src.lend().unwrap_err().message(), "torn");

        // The frame twin of `a_dyn_source_lends`.
        let frames: Vec<Vec<u8>> = vec![vec![7; 4]];
        let mut slice = SliceSource::new(&frames);
        let mut gen = GenSource::with_len(1, |_| Some(vec![7; 4]));
        let sources: [&mut dyn Source<[u8]>; 2] = [&mut slice, &mut gen];
        let lent: Vec<&str> = sources
            .into_iter()
            .map(|src| match src.lend().unwrap() {
                Some(Cow::Borrowed(_)) => "borrowed",
                Some(Cow::Owned(_)) => "owned",
                None => "none",
            })
            .collect();
        assert_eq!(lent, ["borrowed", "owned"]);
    }
}
