//! The six workloads: their loads, their set-up, the user-callable path
//! each one times, and the staged replica of that path.

use crate::gen::{flowlet_packet, flowlet_trace, wfq_burst, wire_load, Sink, WireLoad};
use crate::replica::{self, Replica, ReplicaCounts};
use crate::trace::Tracer;
use banzai::{
    AtomKind, AtomPipeline, DropCounters, GenSource, Machine, PipelineEngine, SchedDeparture,
    SchedSpec, ShardConfig, ShardTimings, ShardedSwitch, SlotMachine, Switch, Target,
};
use domino_ir::{FlatPacket, Packet};
use std::time::Instant;

/// Egress of the scheduling workload: per-departure sojourn time and its
/// running sum, so any divergence in departure order or timing corrupts
/// every later packet's output.
const SOJOURN_EGRESS: &str = "struct P { int enq_ts; int now; int qdepth; int soj; int sum; };\n\
                              int total_sojourn = 0;\n\
                              void sojourn(struct P pkt) {\n\
                                pkt.soj = pkt.now - pkt.enq_ts;\n\
                                total_sojourn = total_sojourn + pkt.soj;\n\
                                pkt.sum = total_sojourn;\n\
                              }";

/// Times `engine_flat` replays its packets through the engine.
pub const ENGINE_PASSES: usize = 20;
/// Queue capacity of the FIFO workloads.
const FIFO_CAPACITY: usize = 512;

/// One workload. `BENCHMARK.json` records why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Switch::run(&trace).for_each`, lossless, line rate.
    SerialFlowlet,
    /// The same switch oversubscribed 3:1, fed by a generator.
    StreamCongested,
    /// STFQ ranks into a PIFO at depth 2¹⁶, `.scheduled().collect()`.
    SchedWfq,
    /// `run_frames`: bytes in, bytes out.
    WireFlowlet,
    /// Two worker threads, `ShardedSwitch::run(&trace).collect()`.
    ShardedFlowlet,
    /// `SlotMachine::process_flat` alone — the floor and the control.
    EngineFlat,
}

impl Kind {
    /// Every workload, in ledger order.
    pub const ALL: [Kind; 6] = [
        Kind::SerialFlowlet,
        Kind::StreamCongested,
        Kind::SchedWfq,
        Kind::WireFlowlet,
        Kind::ShardedFlowlet,
        Kind::EngineFlat,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SerialFlowlet => "serial_flowlet",
            Kind::StreamCongested => "stream_congested",
            Kind::SchedWfq => "sched_wfq",
            Kind::WireFlowlet => "wire_flowlet",
            Kind::ShardedFlowlet => "sharded_flowlet",
            Kind::EngineFlat => "engine_flat",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Packets (for `engine_flat`: distinct packets) in one full-size rep.
    fn full_size(self) -> usize {
        match self {
            // One rep must stay well under half a second: the host's clock
            // steps every few hundred milliseconds and a rep that straddles
            // several steps cannot be normalised by its bracket.
            Kind::SerialFlowlet | Kind::StreamCongested | Kind::SchedWfq | Kind::ShardedFlowlet => {
                65_536
            }
            Kind::WireFlowlet => 16_384,
            Kind::EngineFlat => 200_000,
        }
    }

    /// The `(ingress, egress)` Domino programs, by name; `None` is a
    /// pass-through pipeline.
    fn programs(self) -> (&'static str, Option<&'static str>) {
        match self {
            Kind::SerialFlowlet | Kind::StreamCongested | Kind::WireFlowlet => {
                ("flowlet", Some("codel_lut"))
            }
            Kind::SchedWfq => ("stfq", Some("sojourn")),
            // `codel_lut` keeps global scalar state, which forces a
            // single-shard fallback; a pass-through egress keeps the plan
            // on the Exact tier so steer, rings and merge really run.
            Kind::ShardedFlowlet | Kind::EngineFlat => ("flowlet", None),
        }
    }

    fn sched(self) -> SchedSpec {
        match self {
            Kind::SchedWfq => SchedSpec::Pifo {
                rank: "start".into(),
            },
            _ => SchedSpec::Fifo,
        }
    }

    fn drain_period(self) -> u64 {
        match self {
            Kind::StreamCongested => 3,
            _ => 1,
        }
    }
}

/// Compiles one program on the least expressive target that takes it.
fn compile(name: &str) -> AtomPipeline {
    if name == "sojourn" {
        return domino_compiler::compile(SOJOURN_EGRESS, &Target::banzai(AtomKind::Raw))
            .expect("the sojourn egress compiles on Raw");
    }
    let algo = algorithms::by_name(name).expect("a Table 4 algorithm");
    let kind = algo.paper.least_atom.expect("the algorithm maps");
    let target = if name == "codel_lut" {
        Target::banzai_with_lut(kind)
    } else {
        Target::banzai(kind)
    };
    domino_compiler::compile(algo.source, &target).expect("Table 4 programs compile")
}

/// A workload's compiled programs.
pub struct Programs {
    /// Ingress pipeline.
    pub ingress: AtomPipeline,
    /// Egress pipeline.
    pub egress: AtomPipeline,
}

impl Programs {
    /// Compiles the workload's programs.
    pub fn compile(kind: Kind) -> Programs {
        let (ingress, egress) = kind.programs();
        Programs {
            ingress: compile(ingress),
            egress: egress.map_or_else(|| AtomPipeline::passthrough("egress"), compile),
        }
    }
}

/// The inputs of one workload, generated from the seed.
pub struct Load {
    /// Which workload.
    pub kind: Kind,
    /// The seed everything was generated from.
    pub seed: u64,
    /// Packets offered per rep.
    pub offered: u64,
    /// Queue capacity the switch is built with.
    pub capacity: usize,
    trace: Vec<Packet>,
    ranks: Vec<i64>,
    wire: Option<WireLoad>,
    flats: Vec<FlatPacket>,
}

impl Load {
    /// Generates the workload's load; `shrink` divides its size (the
    /// `--quick` smoke mode and the tests use a fraction).
    pub fn generate(kind: Kind, seed: u64, shrink: usize) -> Load {
        let n = kind.full_size() / shrink;
        let mut load = Load {
            kind,
            seed,
            offered: n as u64,
            capacity: FIFO_CAPACITY,
            trace: Vec::new(),
            ranks: Vec::new(),
            wire: None,
            flats: Vec::new(),
        };
        match kind {
            Kind::SerialFlowlet | Kind::ShardedFlowlet => load.trace = flowlet_trace(n, seed),
            Kind::StreamCongested => {}
            Kind::SchedWfq => {
                (load.trace, load.ranks) = wfq_burst(32, n / 32, seed);
                load.capacity = n;
            }
            Kind::WireFlowlet => load.wire = Some(wire_load(n, seed)),
            Kind::EngineFlat => {
                let table = SlotMachine::compile(&Programs::compile(kind).ingress)
                    .expect("compiled pipelines are slot-executable");
                load.flats = (0..n as u64)
                    .map(|i| FlatPacket::from_packet(&flowlet_packet(i, seed), table.field_table()))
                    .collect();
                load.offered = (n * ENGINE_PASSES) as u64;
            }
        }
        load
    }

    fn wire(&self) -> &WireLoad {
        self.wire.as_ref().expect("a wire workload")
    }

    /// Mean field count of the packets offered.
    pub fn fields_in_mean(&self) -> f64 {
        match self.kind {
            Kind::StreamCongested | Kind::EngineFlat | Kind::WireFlowlet => {
                flowlet_packet(0, self.seed).len() as f64
            }
            _ => self.trace.iter().map(Packet::len).sum::<usize>() as f64 / self.trace.len() as f64,
        }
    }

    /// Mean frame length, for the wire workload.
    pub fn bytes_per_pkt(&self) -> f64 {
        self.wire.as_ref().map_or(0.0, |w| {
            w.frames.iter().map(Vec::len).sum::<usize>() as f64 / w.frames.len() as f64
        })
    }
}

/// What a workload's set-up builds.
pub enum Built {
    /// A serial switch on the slot engine.
    Switch(Box<Switch<SlotMachine>>),
    /// A sharded switch on the slot engine.
    Sharded(Box<ShardedSwitch<SlotMachine>>),
    /// A bare slot engine.
    Engine(Box<SlotMachine>),
}

fn configure<E: PipelineEngine>(kind: Kind, sw: Switch<E>) -> Switch<E> {
    sw.with_drain_period(kind.drain_period())
        .with_scheduler(kind.sched())
}

/// The workload's whole set-up, as a user performs it: Domino source →
/// compiled pipelines → the object the path runs on. This is what
/// `setup_s` times.
pub fn setup(load: &Load) -> Built {
    let kind = load.kind;
    let programs = Programs::compile(kind);
    match kind {
        Kind::ShardedFlowlet => Built::Sharded(Box::new(
            ShardedSwitch::new_slot(&programs.ingress, &programs.egress, ShardConfig::new(2))
                .expect("compiled pipelines are slot-executable"),
        )),
        Kind::EngineFlat => Built::Engine(Box::new(
            SlotMachine::compile(&programs.ingress)
                .expect("compiled pipelines are slot-executable"),
        )),
        _ => Built::Switch(Box::new(configure(
            kind,
            Switch::new_slot(&programs.ingress, &programs.egress, load.capacity)
                .expect("compiled pipelines are slot-executable"),
        ))),
    }
}

/// The same switch on the map reference engine (`Switch::new`).
fn reference_switch(load: &Load) -> Switch<Machine> {
    let programs = Programs::compile(load.kind);
    configure(
        load.kind,
        Switch::new(programs.ingress, programs.egress, load.capacity),
    )
}

/// A run's packet accounting.
#[derive(Debug, Clone, Default)]
pub struct Books {
    /// Packets pulled from the source.
    pub offered: u64,
    /// Packets that left the switch.
    pub transmitted: u64,
    /// Drops, by reason.
    pub drops: DropCounters,
}

impl Books {
    /// Packets missing from `offered == transmitted + dropped`.
    pub fn missing(&self) -> u64 {
        self.offered.abs_diff(self.transmitted + self.drops.total())
    }
}

/// Drives a serial switch down the workload's user-callable path and
/// returns the timed region's nanoseconds. Generic over the engine so the
/// map reference runs the identical call chain.
fn drive_switch<E: PipelineEngine>(
    load: &Load,
    sw: &mut Switch<E>,
    sink: &mut Sink,
    departures: Option<&mut Vec<SchedDeparture>>,
) -> (f64, Books) {
    const INFALLIBLE: &str = "in-memory sources cannot fail mid-stream";
    let t = Instant::now();
    let (ns, offered) = match load.kind {
        Kind::SerialFlowlet => {
            let stats = sw
                .run(&load.trace)
                .for_each(|p| sink.packet(&p))
                .expect(INFALLIBLE);
            (t.elapsed().as_nanos(), stats.offered)
        }
        Kind::StreamCongested => {
            let seed = load.seed;
            let source = GenSource::with_len(load.offered, move |i| Some(flowlet_packet(i, seed)));
            let stats = sw
                .run(source)
                .for_each(|p| sink.packet(&p))
                .expect(INFALLIBLE);
            (t.elapsed().as_nanos(), stats.offered)
        }
        Kind::SchedWfq => {
            let out = sw.run(&load.trace).scheduled().collect().expect(INFALLIBLE);
            let ns = t.elapsed().as_nanos();
            out.iter().for_each(|d| sink.departure(d));
            if let Some(keep) = departures {
                *keep = out;
            }
            (ns, load.offered)
        }
        Kind::WireFlowlet => {
            let wire = load.wire();
            let stats = sw
                .run_frames(&wire.frames, &wire.cfg)
                .for_each(|f| sink.frame(&f))
                .expect(INFALLIBLE);
            (t.elapsed().as_nanos(), stats.offered)
        }
        Kind::ShardedFlowlet | Kind::EngineFlat => unreachable!("not a serial-switch workload"),
    };
    let books = Books {
        offered,
        transmitted: sw.transmitted(),
        drops: sw.drop_counters().clone(),
    };
    (ns as f64, books)
}

/// Runs the workload's timed path once on a freshly built object.
/// Returns the timed region's nanoseconds and the run's books.
pub fn run_real(load: &Load, built: &mut Built, sink: &mut Sink) -> (f64, Books) {
    match built {
        Built::Switch(sw) => drive_switch(load, sw, sink, None),
        Built::Sharded(sw) => {
            let t = Instant::now();
            let out = sw.run(&load.trace).collect().expect("no faults are armed");
            let ns = t.elapsed().as_nanos() as f64;
            out.iter().for_each(|p| sink.packet(p));
            let books = Books {
                offered: load.offered,
                transmitted: sw.transmitted(),
                drops: sw.drop_counters(),
            };
            (ns, books)
        }
        Built::Engine(machine) => {
            let mut flats = load.flats.clone();
            let t = Instant::now();
            for _ in 0..ENGINE_PASSES {
                for flat in flats.iter_mut() {
                    machine.process_flat(flat);
                }
            }
            let ns = t.elapsed().as_nanos() as f64;
            flats.iter().for_each(|flat| sink.flat(flat));
            let books = Books {
                offered: load.offered,
                transmitted: load.offered,
                drops: DropCounters::new(),
            };
            (ns, books)
        }
    }
}

/// The staged replica of one workload, built from its layers.
pub enum Staged {
    /// One re-composed serial switch.
    Serial(Box<Replica>),
    /// One re-composed switch per shard, and the sharded switch whose plan
    /// steers and whose `merge` merges.
    Sharded(Vec<Replica>, Box<ShardedSwitch<SlotMachine>>),
    /// The bare engine.
    Engine(Box<SlotMachine>),
}

impl Staged {
    /// Builds the replica's layers (fresh state).
    pub fn build(load: &Load) -> Staged {
        let kind = load.kind;
        let programs = Programs::compile(kind);
        let lower = |p: &AtomPipeline| {
            SlotMachine::compile(p).expect("compiled pipelines are slot-executable")
        };
        let one = || {
            Replica::new(
                lower(&programs.ingress),
                lower(&programs.egress),
                kind.sched(),
                load.capacity,
                kind.drain_period(),
            )
        };
        match setup(load) {
            Built::Engine(machine) => Staged::Engine(machine),
            Built::Sharded(sw) => {
                Staged::Sharded((0..sw.shard_count()).map(|_| one()).collect(), sw)
            }
            Built::Switch(_) => Staged::Serial(Box::new(one())),
        }
    }

    /// Runs the replica once; returns the nanoseconds of the region the
    /// real path times.
    pub fn run(&mut self, load: &Load, tr: &mut Tracer, sink: &mut Sink) -> f64 {
        let t = Instant::now();
        match self {
            Staged::Serial(replica) => match load.kind {
                Kind::SerialFlowlet => {
                    let mut source = banzai::SliceSource::new(&load.trace);
                    replica.run_packets(tr, &mut source, sink);
                    t.elapsed().as_nanos() as f64
                }
                Kind::StreamCongested => {
                    let seed = load.seed;
                    let mut source =
                        GenSource::with_len(load.offered, move |i| Some(flowlet_packet(i, seed)));
                    replica.run_packets(tr, &mut source, sink);
                    t.elapsed().as_nanos() as f64
                }
                Kind::SchedWfq => {
                    let mut source = banzai::SliceSource::new(&load.trace);
                    let out = replica.run_sched(tr, &mut source);
                    let ns = t.elapsed().as_nanos() as f64;
                    out.iter().for_each(|d| sink.departure(d));
                    ns
                }
                Kind::WireFlowlet => {
                    let wire = load.wire();
                    replica.run_frames(tr, &wire.frames, &wire.cfg, sink);
                    t.elapsed().as_nanos() as f64
                }
                Kind::ShardedFlowlet | Kind::EngineFlat => {
                    unreachable!("not a serial-switch workload")
                }
            },
            Staged::Sharded(shards, sharded) => {
                let out = replica::run_sharded(shards, sharded, tr, &load.trace);
                let ns = t.elapsed().as_nanos() as f64;
                out.iter().for_each(|p| sink.packet(p));
                ns
            }
            Staged::Engine(machine) => {
                let mut flats = load.flats.clone();
                let t = Instant::now();
                replica::run_engine(machine, tr, &mut flats, ENGINE_PASSES);
                let ns = t.elapsed().as_nanos() as f64;
                flats.iter().for_each(|flat| sink.flat(flat));
                ns
            }
        }
    }

    /// Spans one traced run records, to size the tracer's vector up front.
    pub fn spans_per_run(&self, load: &Load) -> usize {
        match self {
            Staged::Engine(_) => {
                2 * ENGINE_PASSES * (load.flats.len() / replica::ENGINE_CHUNK + 1) + 1
            }
            _ => 16 * (load.offered as usize / replica::CHUNK + 64),
        }
    }

    /// Counters of the last run, summed over shards.
    pub fn counts(&self) -> ReplicaCounts {
        let replicas: &[Replica] = match self {
            Staged::Serial(replica) => std::slice::from_ref(replica),
            Staged::Sharded(shards, _) => shards,
            Staged::Engine(_) => &[],
        };
        let mut total = ReplicaCounts::default();
        for r in replicas {
            total.pulled += r.counts.pulled;
            total.dropped += r.counts.dropped;
            total.rejected += r.counts.rejected;
            total.depth_max = total.depth_max.max(r.counts.depth_max);
        }
        total
    }
}

/// What the verification pass found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Packets offered to the timed path.
    pub attempted: u64,
    /// Packets whose output disagrees with an oracle, plus packets
    /// missing from the books, plus counter mismatches.
    pub failed: u64,
    /// One line per failed check.
    pub findings: Vec<String>,
    /// The checksum every timed rep must reproduce.
    pub checksum: u64,
    /// The timed path's books.
    pub books: Books,
    /// Mean field count of the packets transmitted.
    pub fields_out_mean: f64,
}

impl Verdict {
    fn check(&mut self, what: &str, mismatches: u64) {
        if mismatches > 0 {
            self.failed += mismatches;
            self.findings
                .push(format!("{what}: {mismatches} mismatches"));
        }
    }
}

/// Positions at which two hash sequences differ (length difference
/// included).
fn mismatches(a: &[u64], b: &[u64]) -> u64 {
    a.iter().zip(b).filter(|(x, y)| x != y).count() as u64 + a.len().abs_diff(b.len()) as u64
}

/// The oracle pass (untimed; doubles as warm-up): the timed path's
/// per-packet output hashes must equal the map reference engine's, the
/// books must close, and each workload's own invariant must hold; with
/// `with_replica` the staged replica's hashes must match too, or its
/// decomposition means nothing. (Untraced runs leave the replica out so
/// that `peak_rss_mb` holds the system's buffers and not the replica's.)
/// Nothing is compared against a stored constant — every expectation is
/// recomputed from the seed.
pub fn verify(load: &Load, with_replica: bool) -> Verdict {
    let n = load.offered as usize;
    let mut v = Verdict {
        attempted: load.offered,
        ..Verdict::default()
    };

    let mut real = Sink::recording(n);
    let mut built = setup(load);
    let mut departures = Vec::new();
    (_, v.books) = match &mut built {
        Built::Switch(sw) => drive_switch(load, sw, &mut real, Some(&mut departures)),
        _ => run_real(load, &mut built, &mut real),
    };
    v.checksum = real.checksum;
    v.fields_out_mean = real.fields as f64 / real.count.max(1) as f64;
    let real_hashes = real.hashes.take().expect("a recording sink");
    v.check(
        "books (offered == transmitted + dropped)",
        v.books.missing(),
    );
    v.check(
        "outputs delivered vs transmitted counter",
        real.count.abs_diff(match load.kind {
            Kind::EngineFlat => load.flats.len() as u64,
            _ => v.books.transmitted,
        }),
    );

    // `engine_flat` always checks against its replica (which holds no
    // buffers of its own): the map engine below covers one pass only.
    if with_replica || load.kind == Kind::EngineFlat {
        let mut staged = Sink::recording(n);
        Staged::build(load).run(load, &mut Tracer::off(), &mut staged);
        v.check(
            "staged replica vs timed path",
            mismatches(&real_hashes, staged.hashes.as_ref().expect("recording")),
        );
    }

    let mut reference = Sink::recording(n);
    match load.kind {
        Kind::EngineFlat => {
            // The map engine is ~50× slower than the flat loop, so it
            // checks the first pass only.
            let mut slot = SlotMachine::compile(&Programs::compile(load.kind).ingress)
                .expect("compiled pipelines are slot-executable");
            let mut map = Machine::new(Programs::compile(load.kind).ingress);
            let mut first_pass = Sink::recording(load.flats.len());
            for flat in &load.flats {
                let mut flat = flat.clone();
                reference.packet(&map.process(flat.to_packet()));
                slot.process_flat(&mut flat);
                first_pass.flat(&flat);
            }
            v.check(
                "map reference engine vs process_flat (first pass)",
                mismatches(
                    first_pass.hashes.as_ref().expect("recording"),
                    reference.hashes.as_ref().expect("recording"),
                ),
            );
        }
        Kind::ShardedFlowlet => {
            // Serial on the map engine, partitioned by the plan's own
            // steering and merged by the switch's own merge, is what the
            // threaded run must return.
            let Built::Sharded(sharded) = &built else {
                unreachable!("sharded set-up builds a sharded switch")
            };
            let programs = Programs::compile(load.kind);
            let mut serial = Switch::new(programs.ingress, programs.egress, load.capacity);
            let out = serial
                .run(&load.trace)
                .collect()
                .expect("slices cannot fail");
            let mut parts = vec![Vec::new(); sharded.shard_count()];
            for (i, (input, output)) in load.trace.iter().zip(out).enumerate() {
                parts[sharded.plan().steer(i, input)].push(output);
            }
            for p in sharded.merge(parts) {
                reference.packet(&p);
            }
            v.check(
                "serial map-engine switch (steered + merged) vs sharded run",
                mismatches(&real_hashes, reference.hashes.as_ref().expect("recording")),
            );
        }
        _ => {
            let (_, books) = drive_switch(load, &mut reference_switch(load), &mut reference, None);
            v.check(
                "map reference engine vs timed path",
                mismatches(&real_hashes, reference.hashes.as_ref().expect("recording")),
            );
            v.check(
                "map reference engine drop counters",
                (books.drops != v.books.drops) as u64,
            );
        }
    }

    match load.kind {
        Kind::WireFlowlet => {
            for verdict in banzai::ParseVerdict::ALL {
                let want = load
                    .wire()
                    .expected
                    .iter()
                    .filter(|e| **e == Some(verdict))
                    .count() as u64;
                let got = v.books.drops.get(banzai::DropReason::Parse(verdict));
                v.check(&format!("parse counter `{verdict}`"), want.abs_diff(got));
            }
        }
        Kind::SchedWfq => {
            // Independent oracle: a stable sort of the arrivals by the
            // generator's own STFQ ranks.
            let mut order: Vec<usize> = (0..load.ranks.len()).collect();
            order.sort_by_key(|&i| load.ranks[i]);
            let wrong = departures
                .iter()
                .zip(&order)
                .enumerate()
                .filter(|(k, (d, &i))| {
                    d.arrival != i as i64
                        || d.key.rank != load.ranks[i]
                        || d.departure != (load.ranks.len() + k) as i64
                })
                .count();
            v.check(
                "departure order vs stable sort by (rank, arrival)",
                (wrong + departures.len().abs_diff(order.len())) as u64,
            );
        }
        _ => {}
    }
    v
}

/// The sharded workload's lanes as the system itself reports them
/// (`ShardedRun::instrumented()`), plus the plan's balance on this load.
pub struct ShardLanes {
    /// Steer, per-shard busy and merge time, timed inside the system.
    pub inside: ShardTimings,
    /// Largest shard's share of the packets over the mean share.
    pub imbalance: f64,
    /// Shards the plan actually uses.
    pub effective: usize,
}

/// Runs `instrumented()` once on a fresh sharded switch.
pub fn shard_lanes(load: &Load) -> ShardLanes {
    let Built::Sharded(mut sw) = setup(load) else {
        unreachable!("sharded set-up builds a sharded switch")
    };
    let mut per_shard = vec![0u64; sw.shard_count()];
    for (i, p) in load.trace.iter().enumerate() {
        per_shard[sw.plan().steer(i, p)] += 1;
    }
    let run = sw
        .run(&load.trace)
        .instrumented()
        .expect("no faults are armed");
    let mean = load.offered as f64 / per_shard.len() as f64;
    ShardLanes {
        inside: run.timings,
        imbalance: per_shard.iter().copied().max().unwrap_or(0) as f64 / mean,
        effective: sw.plan().effective(),
    }
}

/// The same trace through the serial switch (`run(&trace).collect()`):
/// the base of `shard.overhead_vs_serial`.
pub fn serial_base_ns(load: &Load) -> f64 {
    let programs = Programs::compile(load.kind);
    let mut sw = Switch::new_slot(&programs.ingress, &programs.egress, load.capacity)
        .expect("compiled pipelines are slot-executable");
    let t = Instant::now();
    let out = sw.run(&load.trace).collect().expect("slices cannot fail");
    let ns = t.elapsed().as_nanos() as f64;
    drop(out);
    ns
}

/// The wire front-end's flat tier (`BoundParser`), which `run_frames`
/// does not use yet: the floor its map tier could reach. Timed in
/// isolation over the load's frames, a chunk at a time like the replica's
/// own `wire.parse` / `wire.deparse` stages.
pub struct FlatTier {
    /// `BoundParser::bind`, once.
    pub bind_ns: f64,
    /// `BoundParser::parse_flat` over every frame.
    pub parse_ns: f64,
    /// `BoundParser::deparse_flat` over every accepted frame.
    pub deparse_ns: f64,
}

/// Measures the flat wire tier once.
pub fn wire_flat_tier(load: &Load) -> FlatTier {
    let wire = load.wire();
    let machine = SlotMachine::compile(&Programs::compile(load.kind).ingress)
        .expect("compiled pipelines are slot-executable");
    let t = Instant::now();
    let bound = banzai::BoundParser::bind(wire.cfg.clone(), machine.field_table().clone());
    let mut tier = FlatTier {
        bind_ns: t.elapsed().as_nanos() as f64,
        parse_ns: 0.0,
        deparse_ns: 0.0,
    };
    let mut bytes = 0usize;
    for batch in wire.frames.chunks(replica::CHUNK) {
        let t = Instant::now();
        let parsed: Vec<_> = batch
            .iter()
            .filter_map(|f| bound.parse_flat(f).ok())
            .collect();
        tier.parse_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for (flat, layout) in parsed {
            bytes += bound.deparse_flat(&flat, &layout).len();
        }
        tier.deparse_ns += t.elapsed().as_nanos() as f64;
    }
    std::hint::black_box(bytes);
    tier
}

/// The set-up's stages, each timed on its own (nanoseconds): compiling
/// both programs, lowering both pipelines, building the switch from the
/// compiled pipelines (which lowers again inside), and — for the sharded
/// workload — resolving the shard plan.
pub struct SetupStages {
    /// `domino_compiler::compile`, both programs.
    pub compile_ns: f64,
    /// `SlotPipeline::lower`, both pipelines.
    pub lower_ns: f64,
    /// `Switch::new_slot` / `ShardedSwitch::new_slot` / `SlotMachine::compile`.
    pub build_ns: f64,
    /// `ShardPlan::plan` (sharded workload only).
    pub plan_ns: f64,
}

/// Times the set-up stage by stage, once.
pub fn setup_stages(load: &Load) -> SetupStages {
    use std::hint::black_box;
    let kind = load.kind;
    let t = Instant::now();
    let programs = Programs::compile(kind);
    let compile_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    black_box(banzai::SlotPipeline::lower(&programs.ingress).expect("lowers"));
    black_box(banzai::SlotPipeline::lower(&programs.egress).expect("lowers"));
    let lower_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    match kind {
        Kind::ShardedFlowlet => drop(black_box(ShardedSwitch::new_slot(
            &programs.ingress,
            &programs.egress,
            ShardConfig::new(2),
        ))),
        Kind::EngineFlat => drop(black_box(SlotMachine::compile(&programs.ingress))),
        _ => drop(black_box(Switch::new_slot(
            &programs.ingress,
            &programs.egress,
            load.capacity,
        ))),
    }
    let build_ns = t.elapsed().as_nanos() as f64;
    let mut plan_ns = 0.0;
    if kind == Kind::ShardedFlowlet {
        let t = Instant::now();
        black_box(banzai::ShardPlan::plan(
            &programs.ingress,
            &programs.egress,
            2,
            &banzai::SteerMode::Auto,
        ));
        plan_ns = t.elapsed().as_nanos() as f64;
    }
    SetupStages {
        compile_ns,
        lower_ns,
        build_ns,
        plan_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite's "replica == real path on 2k packets for each
    /// workload", and with it every other oracle of the verification
    /// pass, on a load small enough for `cargo test`.
    #[test]
    fn every_workload_verifies_on_a_small_load() {
        for kind in Kind::ALL {
            let shrink = kind.full_size() / 2048;
            let load = Load::generate(kind, 0xfeed, shrink);
            let v = verify(&load, true);
            assert_eq!(v.failed, 0, "{}: {:?}", kind.name(), v.findings);
            assert!(v.attempted >= 2048, "{}", kind.name());
            assert_eq!(v.books.missing(), 0, "{}", kind.name());
        }
    }

    #[test]
    fn the_seed_changes_the_load_and_the_expected_outputs() {
        for kind in Kind::ALL {
            let shrink = kind.full_size() / 2048;
            let a = verify(&Load::generate(kind, 1, shrink), false);
            let b = verify(&Load::generate(kind, 1, shrink), false);
            let c = verify(&Load::generate(kind, 2, shrink), false);
            assert_eq!(a.checksum, b.checksum, "{}", kind.name());
            assert_ne!(a.checksum, c.checksum, "{}", kind.name());
        }
    }

    #[test]
    fn the_replica_exercises_drops_rejects_and_deep_queues() {
        let counts = |kind: Kind| {
            let load = Load::generate(kind, 3, kind.full_size() / 4096);
            let mut staged = Staged::build(&load);
            staged.run(&load, &mut Tracer::off(), &mut Sink::folding());
            staged.counts()
        };
        assert_eq!(counts(Kind::SerialFlowlet).depth_max, 1);
        let congested = counts(Kind::StreamCongested);
        assert_eq!(congested.depth_max, FIFO_CAPACITY);
        assert!(congested.dropped > 2048, "{congested:?}");
        assert_eq!(counts(Kind::SchedWfq).depth_max, 4096);
        assert_eq!(counts(Kind::WireFlowlet).rejected, 4096 / 50);
    }
}
