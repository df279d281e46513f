//! The staged replica: each switch path re-composed from the public layer
//! calls it is built from, one stage at a time over small chunks of
//! packets, so every stage can be timed from outside with one span per
//! chunk.
//!
//! The real run cores interleave all stages per packet; the replica runs
//! pull → (parse) → flatten → engine → merge-back → key → queue loop →
//! stamp → flatten → engine → merge-back → (deparse) → sink over a whole
//! chunk each. That reordering is legal because the only coupling between
//! stages is the queue, whose behaviour (admission, drops, depth, enqueue
//! and dequeue cycles) depends on cycle count and occupancy alone — the
//! queue loop below replays the real per-cycle order exactly. Legality is
//! not assumed: the verification pass rejects the decomposition unless the
//! replica's per-packet output hashes equal the real path's.

use crate::gen::Sink;
use crate::trace::{SpanId, Tracer, NO_PARENT};
use banzai::switch::QUEUE_METADATA_FIELDS;
use banzai::wire::{self, WireConfig, WirePacket};
use banzai::{
    PacketSource, SchedDeparture, SchedKey, SchedQueue, SchedSpec, Scheduler, ShardedSwitch,
    SlotMachine,
};
use domino_ir::{FlatPacket, Packet};
use std::time::Instant;

/// Packets per chunk on the switch paths. Small on purpose: the real
/// cores keep one packet in flight, so its 61-field map is built, read and
/// freed while hot. At 4,096 packets per chunk the replica's 20 MB of live
/// maps fell out of cache and the stages summed to 1.6× the real path; at
/// 16 they sum to within a few percent of it, and the ≈14 spans a chunk
/// records still cost under 3%.
pub const CHUNK: usize = 16;
/// Packets per chunk of the `engine_flat` replica, whose 56-byte flat
/// packets stay cached at any size while a span would cost as much as
/// processing two of them.
pub const ENGINE_CHUNK: usize = 4096;

/// The queue metadata one departure is stamped with.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    enq_ts: i64,
    now: i64,
    depth: usize,
}

/// Span names of one pipeline crossing: flatten, engine, merge-back.
type Crossing = [&'static str; 3];
const INGRESS: Crossing = [
    "layout.ingress_flatten",
    "slot.ingress",
    "layout.ingress_merge_back",
];
const EGRESS: Crossing = [
    "layout.egress_flatten",
    "slot.egress",
    "layout.egress_merge_back",
];

/// Runs `op`, adding its duration to `acc` when the tracer is recording:
/// the per-operation clock of the queue's interleaved pushes and pops.
#[inline]
fn clocked<T>(recording: bool, acc: &mut u64, op: impl FnOnce() -> T) -> T {
    let started = recording.then(Instant::now);
    let out = op();
    if let Some(t) = started {
        *acc += t.elapsed().as_nanos() as u64;
    }
    out
}

/// What the replica counted while running.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaCounts {
    /// Packets pulled from the source.
    pub pulled: u64,
    /// Packets the queue rejected because it was full.
    pub dropped: u64,
    /// Frames the parser rejected.
    pub rejected: u64,
    /// Highest queue occupancy seen.
    pub depth_max: usize,
}

/// A switch re-composed from its layers.
pub struct Replica {
    ingress: SlotMachine,
    egress: SlotMachine,
    spec: SchedSpec,
    capacity: usize,
    drain_period: u64,
    flats: Vec<FlatPacket>,
    /// Counters of the last run.
    pub counts: ReplicaCounts,
}

impl Replica {
    /// A replica of `Switch::new_slot(ingress, egress, capacity)` with the
    /// given scheduler and drain period.
    pub fn new(
        ingress: SlotMachine,
        egress: SlotMachine,
        spec: SchedSpec,
        capacity: usize,
        drain_period: u64,
    ) -> Replica {
        Replica {
            ingress,
            egress,
            spec,
            capacity,
            drain_period,
            flats: Vec::with_capacity(CHUNK),
            counts: ReplicaCounts::default(),
        }
    }

    /// One pipeline crossing over a chunk, as `SlotMachine::process` does
    /// it per packet: `FlatPacket::from_packet` → `process_flat` →
    /// `merge_back`, one span each. `pkt` picks the packet out of an item
    /// (`None` skips the item: a rejected frame's empty arrival slot).
    fn crossing<T>(
        machine: &mut SlotMachine,
        flats: &mut Vec<FlatPacket>,
        tr: &mut Tracer,
        (parent, chunk): (SpanId, u32),
        names: &Crossing,
        items: &mut [T],
        pkt: impl Fn(&mut T) -> Option<&mut Packet>,
    ) {
        let s = tr.begin(names[0], parent, chunk);
        for item in items.iter_mut() {
            if let Some(p) = pkt(item) {
                flats.push(FlatPacket::from_packet(p, machine.field_table()));
            }
        }
        tr.end(s);
        let s = tr.begin(names[1], parent, chunk);
        for flat in flats.iter_mut() {
            machine.process_flat(flat);
        }
        tr.end(s);
        let s = tr.begin(names[2], parent, chunk);
        let mut done = flats.drain(..);
        for item in items.iter_mut() {
            if let Some(p) = pkt(item) {
                let flat = done.next().expect("one flat packet per present item");
                machine.merge_back(&flat, p);
            }
        }
        drop(done);
        tr.end(s);
    }

    /// The queue loop of `Switch::run`'s line-rate core for one chunk of
    /// arrival cycles: per cycle, a departure on drain cycles, then the
    /// cycle's admission. After the source has `ended`, keeps cycling
    /// until the queue is empty. Push and pop are timed per operation and
    /// recorded as aggregated children of the loop's span.
    #[allow(clippy::too_many_arguments)]
    fn cycle_loop<T>(
        &mut self,
        tr: &mut Tracer,
        (parent, chunk): (SpanId, u32),
        queue: &mut SchedQueue<(i64, T)>,
        now: &mut i64,
        ended: bool,
        arrivals: &mut Vec<Option<(SchedKey, T)>>,
        departing: &mut Vec<(Stamp, T)>,
    ) {
        let timed = tr.enabled();
        let (mut push_ns, mut pop_ns) = (0u64, 0u64);
        let s = tr.begin("switch.queue_loop", parent, chunk);
        let mut arrivals = arrivals.drain(..);
        loop {
            let arrival = arrivals.next();
            if arrival.is_none() && !ended {
                break;
            }
            if (*now as u64).is_multiple_of(self.drain_period) {
                let popped = clocked(timed, &mut pop_ns, || queue.pop());
                if let Some((_, (enq_ts, item))) = popped {
                    let stamp = Stamp {
                        enq_ts,
                        now: *now,
                        depth: queue.len(),
                    };
                    departing.push((stamp, item));
                }
            }
            match arrival {
                Some(Some((key, item))) => {
                    let full = clocked(timed, &mut push_ns, || {
                        queue.push(key, (*now, item)).is_err()
                    });
                    self.counts.dropped += full as u64;
                    self.counts.depth_max = self.counts.depth_max.max(queue.len());
                }
                // A rejected frame: its arrival cycle passes unused.
                Some(None) => {}
                // The source has ended: cycle on until the queue is empty.
                None if queue.is_empty() => break,
                None => {}
            }
            *now += 1;
        }
        drop(arrivals);
        tr.end(s);
        tr.aggregate("pifo.push", s, chunk, push_ns);
        tr.aggregate("pifo.pop", s, chunk, pop_ns);
    }

    /// Stamps the queue metadata on every departure (three by-name
    /// `Packet::set`s, as the run cores do) and crosses the egress
    /// pipeline.
    fn depart<T>(
        &mut self,
        tr: &mut Tracer,
        at: (SpanId, u32),
        departing: &mut [(Stamp, T)],
        pkt: impl Fn(&mut T) -> &mut Packet,
    ) {
        let s = tr.begin("switch.stamp", at.0, at.1);
        for (stamp, item) in departing.iter_mut() {
            let p = pkt(item);
            p.set(QUEUE_METADATA_FIELDS[0], stamp.enq_ts as i32);
            p.set(QUEUE_METADATA_FIELDS[1], stamp.now as i32);
            p.set(QUEUE_METADATA_FIELDS[2], stamp.depth as i32);
        }
        tr.end(s);
        Replica::crossing(
            &mut self.egress,
            &mut self.flats,
            tr,
            at,
            &EGRESS,
            departing,
            |(_, item)| Some(pkt(item)),
        );
    }

    /// Pulls up to one chunk from `source`; returns whether it ended.
    fn pull(
        &mut self,
        tr: &mut Tracer,
        at: (SpanId, u32),
        source: &mut dyn PacketSource,
        pkts: &mut Vec<Packet>,
    ) -> bool {
        let s = tr.begin("stream.pull", at.0, at.1);
        let mut ended = false;
        while pkts.len() < CHUNK {
            match source.next_packet().expect("in-memory sources cannot fail") {
                Some(p) => pkts.push(p),
                None => {
                    ended = true;
                    break;
                }
            }
        }
        self.counts.pulled += pkts.len() as u64;
        tr.end(s);
        ended
    }

    /// Ingress crossing and `SchedSpec::key_of` for one chunk of pulled
    /// packets; the keyed packets land in `arrivals`.
    fn admit(
        &mut self,
        tr: &mut Tracer,
        at: (SpanId, u32),
        pkts: &mut Vec<Packet>,
        arrivals: &mut Vec<Option<(SchedKey, Packet)>>,
    ) {
        Replica::crossing(
            &mut self.ingress,
            &mut self.flats,
            tr,
            at,
            &INGRESS,
            pkts,
            |p| Some(p),
        );
        let s = tr.begin("pifo.key_of", at.0, at.1);
        let spec = &self.spec;
        arrivals.extend(pkts.drain(..).map(|p| Some((spec.key_of(&p), p))));
        tr.end(s);
    }

    /// The replica of `switch.run(source).for_each(sink)`.
    pub fn run_packets(&mut self, tr: &mut Tracer, source: &mut dyn PacketSource, sink: &mut Sink) {
        self.counts = ReplicaCounts::default();
        let run = tr.begin("run", NO_PARENT, 0);
        let mut queue = self.spec.build_queue(self.capacity);
        let mut now = 0i64;
        let mut pkts = Vec::with_capacity(CHUNK);
        let mut arrivals = Vec::with_capacity(CHUNK);
        let mut departing = Vec::with_capacity(CHUNK);
        for chunk in 0.. {
            let at = (tr.begin("chunk", run, chunk), chunk);
            let ended = self.pull(tr, at, source, &mut pkts);
            self.admit(tr, at, &mut pkts, &mut arrivals);
            self.cycle_loop(
                tr,
                at,
                &mut queue,
                &mut now,
                ended,
                &mut arrivals,
                &mut departing,
            );
            self.depart(tr, at, &mut departing, |p| p);
            let s = tr.begin("switch.sink", at.0, chunk);
            for (_, p) in departing.drain(..) {
                sink.packet(&p);
            }
            tr.end(s);
            tr.end(at.0);
            if ended {
                break;
            }
        }
        tr.end(run);
    }

    /// The replica of `switch.run(source).scheduled().collect()`: the
    /// whole burst is admitted (all pushes), then the queue drains in rank
    /// order (all pops) — so push and pop get plain spans here.
    pub fn run_sched(
        &mut self,
        tr: &mut Tracer,
        source: &mut dyn PacketSource,
    ) -> Vec<SchedDeparture> {
        self.counts = ReplicaCounts::default();
        let run = tr.begin("run", NO_PARENT, 0);
        let mut queue: SchedQueue<(i64, Packet)> = self.spec.build_queue(self.capacity);
        let mut pkts = Vec::with_capacity(CHUNK);
        let mut arrivals = Vec::with_capacity(CHUNK);
        let mut next_arrival = 0i64;
        let mut chunk = 0u32;
        loop {
            let at = (tr.begin("chunk", run, chunk), chunk);
            let ended = self.pull(tr, at, source, &mut pkts);
            self.admit(tr, at, &mut pkts, &mut arrivals);
            let s = tr.begin("pifo.push", at.0, chunk);
            for (key, p) in arrivals.drain(..).flatten() {
                self.counts.dropped += queue.push(key, (next_arrival, p)).is_err() as u64;
                next_arrival += 1;
            }
            self.counts.depth_max = self.counts.depth_max.max(queue.len());
            tr.end(s);
            tr.end(at.0);
            chunk += 1;
            if ended {
                break;
            }
        }
        let mut next_free = next_arrival;
        let mut out = Vec::with_capacity(queue.len());
        let mut departing: Vec<(Stamp, (SchedKey, Packet))> = Vec::with_capacity(CHUNK);
        while !queue.is_empty() {
            let at = (tr.begin("chunk", run, chunk), chunk);
            let s = tr.begin("pifo.pop", at.0, chunk);
            while departing.len() < CHUNK && queue.peek_key().is_some() {
                let (key, (arrival, p)) = queue.pop().expect("peek_key said non-empty");
                let stamp = Stamp {
                    enq_ts: arrival,
                    now: next_free,
                    depth: queue.len(),
                };
                departing.push((stamp, (key, p)));
                next_free += 1;
            }
            tr.end(s);
            self.depart(tr, at, &mut departing, |(_, p)| p);
            let s = tr.begin("switch.sink", at.0, chunk);
            out.extend(
                departing
                    .drain(..)
                    .map(|(stamp, (key, pkt))| SchedDeparture {
                        arrival: stamp.enq_ts,
                        key,
                        departure: stamp.now,
                        pkt,
                    }),
            );
            tr.end(s);
            tr.end(at.0);
            chunk += 1;
        }
        tr.end(run);
        out
    }

    /// The replica of `switch.run_frames(frames, cfg).for_each(sink)`:
    /// map-tier `wire::parse` in front, `wire::deparse` behind, the
    /// parsed packet carrying its layout through the queue.
    pub fn run_frames(
        &mut self,
        tr: &mut Tracer,
        frames: &[Vec<u8>],
        cfg: &WireConfig,
        sink: &mut Sink,
    ) {
        self.counts = ReplicaCounts::default();
        let run = tr.begin("run", NO_PARENT, 0);
        let mut queue = SchedSpec::Fifo.build_queue(self.capacity);
        let mut now = 0i64;
        let mut arrivals: Vec<Option<(SchedKey, WirePacket)>> = Vec::with_capacity(CHUNK);
        let mut departing = Vec::with_capacity(CHUNK);
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(CHUNK);
        let chunks = frames.chunks(CHUNK).count();
        for (chunk, batch) in frames.chunks(CHUNK).enumerate() {
            let chunk = chunk as u32;
            let at = (tr.begin("chunk", run, chunk), chunk);
            let ended = chunk as usize + 1 == chunks;
            self.counts.pulled += batch.len() as u64;
            let s = tr.begin("wire.parse", at.0, chunk);
            for frame in batch {
                let parsed = wire::parse(frame, cfg).ok();
                self.counts.rejected += parsed.is_none() as u64;
                arrivals.push(parsed.map(|wp| (SchedKey::rank(0), wp)));
            }
            tr.end(s);
            Replica::crossing(
                &mut self.ingress,
                &mut self.flats,
                tr,
                at,
                &INGRESS,
                &mut arrivals,
                |a| a.as_mut().map(|(_, wp)| &mut wp.pkt),
            );
            self.cycle_loop(
                tr,
                at,
                &mut queue,
                &mut now,
                ended,
                &mut arrivals,
                &mut departing,
            );
            self.depart(tr, at, &mut departing, |wp| &mut wp.pkt);
            let s = tr.begin("wire.deparse", at.0, chunk);
            for (_, wp) in departing.drain(..) {
                out.push(wire::deparse(&wp.pkt, &wp.layout));
            }
            tr.end(s);
            let s = tr.begin("switch.sink", at.0, chunk);
            for frame in out.drain(..) {
                sink.frame(&frame);
            }
            tr.end(s);
            tr.end(at.0);
        }
        tr.end(run);
    }

    /// One shard's worth of `ShardedSwitch::run`: packets stamped with
    /// their global arrival index cross ingress, the queue (admitted and
    /// drained in the same cycle — the line-rate regime sharding
    /// requires), the stamp and egress. Returns the shard's output.
    fn run_shard(
        &mut self,
        tr: &mut Tracer,
        run: SpanId,
        chunk: &mut u32,
        stream: Vec<(i64, Packet)>,
    ) -> Vec<Packet> {
        let mut queue: SchedQueue<(i64, Packet)> = self.spec.build_queue(self.capacity);
        let mut out = Vec::with_capacity(stream.len());
        let mut pkts = Vec::with_capacity(CHUNK);
        let mut ts = Vec::with_capacity(CHUNK);
        let mut arrivals = Vec::with_capacity(CHUNK);
        let mut departing = Vec::with_capacity(CHUNK);
        let mut stream = stream.into_iter().peekable();
        while stream.peek().is_some() {
            let at = (tr.begin("chunk", run, *chunk), *chunk);
            for (t, p) in stream.by_ref().take(CHUNK) {
                ts.push(t);
                pkts.push(p);
            }
            self.admit(tr, at, &mut pkts, &mut arrivals);
            let timed = tr.enabled();
            let (mut push_ns, mut pop_ns) = (0u64, 0u64);
            let s = tr.begin("switch.queue_loop", at.0, at.1);
            for (t, (key, p)) in ts.drain(..).zip(arrivals.drain(..).flatten()) {
                let full = clocked(timed, &mut push_ns, || queue.push(key, (t, p)).is_err());
                self.counts.dropped += full as u64;
                self.counts.depth_max = self.counts.depth_max.max(queue.len());
                let popped = clocked(timed, &mut pop_ns, || queue.pop());
                if let Some((_, (enq_ts, p))) = popped {
                    let stamp = Stamp {
                        enq_ts,
                        now: t + 1,
                        depth: queue.len(),
                    };
                    departing.push((stamp, p));
                }
            }
            tr.end(s);
            tr.aggregate("pifo.push", s, at.1, push_ns);
            tr.aggregate("pifo.pop", s, at.1, pop_ns);
            self.depart(tr, at, &mut departing, |p| p);
            let s = tr.begin("switch.sink", at.0, at.1);
            out.extend(departing.drain(..).map(|(_, p)| p));
            tr.end(s);
            tr.end(at.0);
            *chunk += 1;
        }
        out
    }
}

/// The replica of `sharded.run(&trace).collect()`, lanes run one after
/// another on this thread: pull and `ShardPlan::steer` into per-shard
/// streams, each shard's stream through its own [`Replica`], then
/// `ShardedSwitch::merge`. Returns the merged output, as `collect()` does.
pub fn run_sharded(
    shards: &mut [Replica],
    sharded: &ShardedSwitch<SlotMachine>,
    tr: &mut Tracer,
    trace: &[Packet],
) -> Vec<Packet> {
    for replica in shards.iter_mut() {
        replica.counts = ReplicaCounts::default();
    }
    shards[0].counts.pulled = trace.len() as u64;
    let run = tr.begin("run", NO_PARENT, 0);
    let mut streams: Vec<Vec<(i64, Packet)>> = vec![Vec::new(); shards.len()];
    let mut pkts: Vec<Packet> = Vec::with_capacity(CHUNK);
    let mut chunk = 0u32;
    for (c, batch) in trace.chunks(CHUNK).enumerate() {
        let at = tr.begin("chunk", run, chunk);
        let s = tr.begin("stream.pull", at, chunk);
        pkts.extend(batch.iter().cloned());
        tr.end(s);
        let s = tr.begin("shard.steer", at, chunk);
        for (i, p) in pkts.drain(..).enumerate() {
            let i = c * CHUNK + i;
            streams[sharded.plan().steer(i, &p)].push((i as i64, p));
        }
        tr.end(s);
        tr.end(at);
        chunk += 1;
    }
    let mut parts = Vec::with_capacity(shards.len());
    for (replica, stream) in shards.iter_mut().zip(streams) {
        parts.push(replica.run_shard(tr, run, &mut chunk, stream));
    }
    let at = tr.begin("chunk", run, chunk);
    let s = tr.begin("shard.merge", at, chunk);
    let merged = sharded.merge(parts);
    tr.end(s);
    tr.end(at);
    tr.end(run);
    merged
}

/// The replica of the `engine_flat` loop: `process_flat` in place, one
/// span per chunk per pass.
pub fn run_engine(
    machine: &mut SlotMachine,
    tr: &mut Tracer,
    flats: &mut [FlatPacket],
    passes: usize,
) {
    let run = tr.begin("run", NO_PARENT, 0);
    let mut chunk = 0u32;
    for _ in 0..passes {
        for batch in flats.chunks_mut(ENGINE_CHUNK) {
            let at = tr.begin("chunk", run, chunk);
            let s = tr.begin("slot.ingress", at, chunk);
            for flat in batch.iter_mut() {
                machine.process_flat(flat);
            }
            tr.end(s);
            tr.end(at);
            chunk += 1;
        }
    }
    tr.end(run);
}
