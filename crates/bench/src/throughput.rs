//! The differential throughput harness (E8–E11, E13, E14): every
//! experiment replays seeded traffic through two implementations that must
//! agree — the map-based reference engine and the slot-compiled fast path,
//! or the serial switch and its sharded twin — panics on any divergence,
//! and returns what it measured as [`Row`]s. A recorded row is therefore
//! always a correctness witness too, and the harness asserts nothing it
//! does not time: fault injection (E12), the malformed-frame parser stress
//! and the scheduling invariants are `tests/chaos.rs`, `tests/wire.rs` and
//! `tests/scheduling.rs`.
//!
//! **One row.** A [`Row`] is a section name plus ordered `(key, value)`
//! cells, and it is the only currency between the experiments, the JSON
//! document ([`render_json`]) and the text tables ([`table`]).
//! [`SECTIONS`] names the five sections of `BENCH_throughput.json` and the
//! cells each one's table prints.
//!
//! **One scaffold.** The four engine comparisons — [`machine_workload`]
//! (E9, one Table 4 algorithm, parsing hoisted out of the timed region),
//! [`switch_workload`] (E9, the Figure-1 switch through
//! `switch.run(trace).collect()`), [`wire_workload`] (E11, the same traces
//! born as byte frames, parse and deparse inside the timed region) and
//! [`sched_workload`] (E13, a rank transaction driving the PIFO) — are
//! instantiations of one `differential` scaffold: build each side
//! fresh, keep the minimum time over `REPS` runs, assert outputs,
//! counters and state equal, emit the row. [`shard_sweep`] (E10) takes
//! its lane-wise minimum, and [`compile_workload`] (E8, §5.3's
//! compilation times) its per-program minimum, through the same rep
//! helper. [`stream_workload`] (E14) is a single verified run.
//!
//! **No gate.** The harness measures; it compares nothing with a previous
//! run. What a PR's speed is held to is the frozen ledger (`benchmark/`,
//! absolute host-calibrated cost at the bounds `BENCHMARK.json` states).
//! What this harness holds is exact and asserted inside the run:
//! `identical` by the experiments themselves, the granted shard count by
//! [`shards_granted`], the E14 memory ceiling by the binary.

use crate::wiregen::{self, GenOptions};
use banzai::wire::{self, BoundParser};
use banzai::{
    AtomKind, AtomPipeline, Machine, PipelineEngine, SchedSpec, ShardConfig, ShardPlan, ShardTier,
    ShardTimings, ShardedSwitch, SlotMachine, Switch, Target,
};
use domino_ir::Packet;
use std::fmt;
use std::time::Instant;

/// One value of a [`Row`], in the shapes the JSON document uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count or a nanosecond total.
    Int(u128),
    /// A speedup, held (and written) at two decimals so that a row read
    /// back from the document equals the row that was written.
    Ratio(f64),
    /// A name or a diagnostic; any text survives the document unaltered.
    Text(String),
    /// A verified property (`identical`).
    Flag(bool),
    /// Per-lane nanosecond totals.
    List(Vec<u128>),
    /// Not applicable to this row, or unreadable on this host.
    Null,
}

impl Cell {
    /// A count; every counter type the switch reports fits.
    pub fn int<T: TryInto<u128>>(v: T) -> Cell {
        Cell::Int(
            v.try_into()
                .unwrap_or_else(|_| panic!("row counts are never negative")),
        )
    }

    /// `num / den`, rounded to the two decimals the document records.
    pub fn ratio(num: u128, den: u128) -> Cell {
        Cell::Ratio((num as f64 / den.max(1) as f64 * 100.0).round() / 100.0)
    }

    /// Packets per second, to the whole packet.
    pub fn rate(packets: usize, ns: u128) -> Cell {
        Cell::Int((packets as f64 / (ns.max(1) as f64 / 1e9)).round() as u128)
    }

    /// Anything printable, as text.
    pub fn text(v: impl ToString) -> Cell {
        Cell::Text(v.to_string())
    }

    /// `some(v)`, or [`Cell::Null`] when there is no `v`.
    pub fn opt<T>(v: Option<T>, some: impl FnOnce(T) -> Cell) -> Cell {
        v.map_or(Cell::Null, some)
    }

    /// How a table shows the cell: text unquoted,
    /// ratios with their `x`, absent values as `-`.
    fn shown(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Ratio(v) => format!("{v:.2}x"),
            Cell::Flag(b) => if *b { "yes" } else { "no" }.to_string(),
            Cell::Null => "-".to_string(),
            other => other.to_string(),
        }
    }
}

/// The cell as a JSON value.
impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Ratio(v) => write!(f, "{v:.2}"),
            Cell::Text(s) => f.write_str(&json_string(s)),
            Cell::Flag(b) => write!(f, "{b}"),
            Cell::List(v) => {
                let lanes: Vec<String> = v.iter().map(u128::to_string).collect();
                write!(f, "[{}]", lanes.join(", "))
            }
            Cell::Null => f.write_str("null"),
        }
    }
}

/// One measured, verified result: the section of `BENCH_throughput.json`
/// it belongs to and its cells in document order. Every experiment
/// returns these and the document is made of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The [`SECTIONS`] entry the row is recorded under.
    pub section: &'static str,
    /// `(key, value)` in the order the document lists them.
    pub cells: Vec<(String, Cell)>,
}

impl Row {
    /// An empty row of `section`.
    pub fn new(section: &'static str) -> Row {
        Row {
            section,
            cells: Vec::new(),
        }
    }

    /// The row with `key: cell` appended.
    pub fn with(mut self, key: &str, cell: Cell) -> Row {
        self.cells.push((key.to_string(), cell));
        self
    }

    /// The cell recorded under `key`.
    pub fn get(&self, key: &str) -> Option<&Cell> {
        self.cells.iter().find(|(k, _)| k == key).map(|(_, c)| c)
    }

    /// Replaces the cell recorded under `key`.
    fn set(&mut self, key: &str, cell: Cell) {
        let slot = self.cells.iter_mut().find(|(k, _)| k == key);
        slot.unwrap_or_else(|| panic!("row has no `{key}` cell")).1 = cell;
    }
}

/// One section of the document: its name and its table's columns.
#[derive(Debug)]
pub struct Section {
    /// The document key the section's rows are listed under.
    pub name: &'static str,
    /// The cells [`table`] prints.
    pub columns: &'static [&'static str],
}

/// The five sections of `BENCH_throughput.json`, in document order.
pub const SECTIONS: [Section; 5] = [
    Section {
        name: "workloads",
        columns: &[
            "name",
            "packets",
            "map_pkts_per_sec",
            "slot_pkts_per_sec",
            "speedup",
            "identical",
        ],
    },
    Section {
        name: "scaling",
        columns: &[
            "workload",
            "packets",
            "shards",
            "effective_shards",
            "tier",
            "modeled_pkts_per_sec",
            "wall_pkts_per_sec",
            "modeled_speedup_vs_1shard",
            "identical",
            "fallback",
        ],
    },
    Section {
        name: "sched",
        columns: &[
            "sched",
            "packets",
            "map_pkts_per_sec",
            "slot_pkts_per_sec",
            "speedup",
            "identical",
        ],
    },
    Section {
        name: "stream",
        columns: &[
            "mode",
            "packets",
            "transmitted",
            "dropped",
            "pkts_per_sec",
            "rss_growth_kb",
        ],
    },
    Section {
        name: "compile",
        columns: &["step", "program", "target", "compile_ns", "stages", "atoms"],
    },
];

/// Escapes a string as a JSON string literal (the same rules as `domc
/// --emit json`), so a panic payload or a path survives the document.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the rows as the machine-readable `BENCH_throughput.json`
/// document (hand-rolled: the build environment is offline, no serde):
/// three header keys — `host_cores` lets a reader judge whether the
/// `scaling` wall clock or its modeled critical path is the meaningful
/// number on the recording machine — then every [`SECTIONS`] entry as a
/// list of its rows, one cell per line.
pub fn render_json(rows: &[Row], host_cores: usize) -> String {
    let mut doc = format!(
        "{{\n  \"suite\": \"throughput\",\n  \"engines\": [\"map\", \"slot\"],\n  \
         \"host_cores\": {host_cores}"
    );
    for section in &SECTIONS {
        let objects: Vec<String> = rows
            .iter()
            .filter(|r| r.section == section.name)
            .map(|r| {
                let cells: Vec<String> = r
                    .cells
                    .iter()
                    .map(|(key, cell)| format!("      {}: {cell}", json_string(key)))
                    .collect();
                format!("    {{\n{}\n    }}", cells.join(",\n"))
            })
            .collect();
        doc.push_str(&format!(
            ",\n  {}: [\n{}\n  ]",
            json_string(section.name),
            objects.join(",\n")
        ));
    }
    doc.push_str("\n}\n");
    doc
}

/// The rows of one section as an aligned text table of its
/// [`Section::columns`]. Long diagnostics are cut to 48 characters of their
/// first clause.
pub fn table(rows: &[Row]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let section = SECTIONS.iter().find(|s| s.name == first.section);
    let columns = section.expect("every row names a section").columns;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let cell = |k: &&str| {
                let shown = r.get(k).map_or_else(|| "-".to_string(), Cell::shown);
                let clause = shown.split(';').next().unwrap_or_default();
                clause.chars().take(48).collect()
            };
            columns.iter().map(cell).collect()
        })
        .collect();
    crate::render_table(columns, &body)
}

/// Independent repetitions of every timed region; each keeps its minimum.
///
/// Host interference (virtualization steal, frequency excursions) only
/// ever inflates a measurement — a single lane can read 2–4x high — so
/// under purely additive noise the minimum is the consistent estimator
/// of true cost, and taking it on both sides of a ratio keeps the
/// ratio stable run to run. The runs are deterministic, so every
/// repetition does identical work and the last one's outputs stand for
/// all of them.
const REPS: usize = 3;

/// Runs `once` [`REPS`] times; returns the last run's result and the
/// `min` of every run's cost.
fn min_of_reps<T, C>(mut once: impl FnMut() -> (T, C), min: impl Fn(C, C) -> C) -> (T, C) {
    let mut kept: Option<(T, C)> = None;
    for _ in 0..REPS {
        let (last, cost) = once();
        kept = Some(match kept.take() {
            None => (last, cost),
            Some((_, best)) => (last, min(best, cost)),
        });
    }
    kept.expect("REPS >= 1")
}

/// `run`'s result and its wall-clock nanoseconds.
fn timed<T>(run: impl FnOnce() -> T) -> (T, u128) {
    let t = Instant::now();
    let out = run();
    (out, t.elapsed().as_nanos())
}

/// `run`'s last result and its minimum wall-clock nanoseconds over
/// [`REPS`] runs.
fn timed_min<T>(run: impl Fn() -> T) -> (T, u128) {
    min_of_reps(|| timed(&run), u128::min)
}

/// One side of a [`differential`]: `run` on a fresh `build` each rep.
fn fresh_min<E, O>(build: impl Fn() -> E, run: impl Fn(&mut E) -> O) -> ((E, O), u128) {
    let once = || {
        let mut engine = build();
        let (out, ns) = timed(|| run(&mut engine));
        ((engine, out), ns)
    };
    min_of_reps(once, u128::min)
}

/// The engine-comparison scaffold: builds the map side and the slot side
/// fresh for each of [`REPS`] runs, keeps each side's minimum time, hands
/// both engines and both outputs to `verify` — which panics on any
/// divergence and returns the cells to record after `packets` — and
/// returns the row (`id` is the section's identity key and this row's
/// name).
fn differential<M, MO, S, SO>(
    section: &'static str,
    id: (&str, &str),
    packets: usize,
    map: (impl Fn() -> M, impl Fn(&mut M) -> MO),
    slot: (impl Fn() -> S, impl Fn(&mut S) -> SO),
    verify: impl FnOnce(&M, &MO, &S, &SO) -> Vec<(&'static str, Cell)>,
) -> Row {
    let ((map, map_out), map_ns) = fresh_min(map.0, map.1);
    let ((slot, slot_out), slot_ns) = fresh_min(slot.0, slot.1);
    let verified = verify(&map, &map_out, &slot, &slot_out);
    let head = Row::new(section)
        .with(id.0, Cell::text(id.1))
        .with("packets", Cell::int(packets));
    let row = verified.into_iter().fold(head, |r, (k, c)| r.with(k, c));
    row.with("map_ns", Cell::int(map_ns))
        .with("slot_ns", Cell::int(slot_ns))
        .with("map_pkts_per_sec", Cell::rate(packets, map_ns))
        .with("slot_pkts_per_sec", Cell::rate(packets, slot_ns))
        .with("speedup", Cell::ratio(map_ns, slot_ns))
        .with("identical", Cell::Flag(true))
}

/// Asserts two switches that ran the same traffic on different engines
/// ended with the same counters and the same pipeline state.
fn assert_switches_agree<A: PipelineEngine, B: PipelineEngine>(
    what: &str,
    map: &Switch<A>,
    slot: &Switch<B>,
) {
    assert_eq!(
        map.transmitted(),
        slot.transmitted(),
        "{what}: transmit counts diverged"
    );
    assert_eq!(
        map.drop_counters(),
        slot.drop_counters(),
        "{what}: drop counters diverged"
    );
    assert_eq!(
        map.export_ingress_state(),
        slot.export_ingress_state(),
        "{what}: ingress state diverged"
    );
    assert_eq!(
        map.export_egress_state(),
        slot.export_egress_state(),
        "{what}: egress state diverged"
    );
}

/// Compiles `name` on its least-expressive paper target
/// ([`algorithms::Algorithm::least_target`]).
fn compile_least(name: &str) -> AtomPipeline {
    let a = algorithms::by_name(name).unwrap_or_else(|| panic!("unknown algorithm `{name}`"));
    let target = a.least_target().expect("algorithm must map");
    domino_compiler::compile(a.source, &target).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The slot-compiled engine for `pipeline`.
fn compile_slot(pipeline: &AtomPipeline) -> SlotMachine {
    SlotMachine::compile(pipeline).expect("compiled pipelines are slot-executable")
}

/// A serial switch on slot-compiled engines.
fn slot_switch(
    ingress: &AtomPipeline,
    egress: &AtomPipeline,
    capacity: usize,
) -> Switch<SlotMachine> {
    Switch::new_slot(ingress, egress, capacity).expect("compiled pipelines are slot-executable")
}

/// A sharded switch on slot-compiled engines.
fn slot_shards(ingress: &AtomPipeline, egress: &AtomPipeline, cfg: ShardConfig) -> ShardedSwitch {
    ShardedSwitch::new_slot(ingress, egress, cfg).expect("compiled pipelines are slot-executable")
}

/// E9 — replays `n` seeded packets of algorithm `name` through
/// [`Machine::run_trace`] and a pre-flattened
/// [`SlotMachine::run_trace_flat`] (the line-rate story: a real parser
/// fills the PHV exactly once, so the timed region is pure slot-indexed
/// execution) and returns the `workloads` row.
///
/// # Panics
///
/// Panics if the two paths diverge on any output packet or on final state —
/// the measurement doubles as a differential test.
pub fn machine_workload(name: &str, n: usize, seed: u64) -> Row {
    let pipeline = compile_least(name);
    let trace = algorithms::by_name(name).unwrap().trace(n, seed);
    let flat = compile_slot(&pipeline).flatten_trace(&trace);
    differential(
        "workloads",
        ("name", name),
        n,
        (
            || Machine::new(pipeline.clone()),
            |m: &mut Machine| m.run_trace(&trace),
        ),
        (
            || compile_slot(&pipeline),
            |s: &mut SlotMachine| s.run_trace_flat(&flat),
        ),
        |map, map_out, slot, flat_out| {
            // Bit-identical or bust: state…
            assert_eq!(
                *map.state(),
                slot.export_state(),
                "{name}: engines diverged on final state"
            );
            // …and every output packet, realized through the deparser.
            for (i, (m, f)) in map_out.iter().zip(flat_out).enumerate() {
                let mut realized = trace[i].clone();
                slot.merge_back(f, &mut realized);
                assert_eq!(*m, realized, "{name}: engines diverged at packet {i}");
            }
            Vec::new()
        },
    )
}

/// E9 — drives the Figure-1 switch (flowlet ingress, CoDel-LUT egress,
/// bounded queue at 1/3 line rate) through `switch.run(trace).collect()`
/// on each engine, map-packet edges included on both sides, and returns
/// the `workloads` row.
///
/// # Panics
///
/// Panics if outputs, drop counters, transmit counts, or final pipeline
/// state differ between the engines.
pub fn switch_workload(n: usize, seed: u64) -> Row {
    let ingress = compile_least("flowlet");
    let egress = compile_least("codel_lut");
    let trace: Vec<Packet> = algorithms::by_name("flowlet").unwrap().trace(n, seed);
    const UNFAILING: &str = "slice-backed sources cannot fail mid-stream";
    differential(
        "workloads",
        ("name", "figure1_switch"),
        n,
        (
            || Switch::new(ingress.clone(), egress.clone(), 512).with_drain_period(3),
            |sw: &mut Switch| sw.run(&trace).collect().expect(UNFAILING),
        ),
        (
            || slot_switch(&ingress, &egress, 512).with_drain_period(3),
            |sw: &mut Switch<SlotMachine>| sw.run(&trace).collect().expect(UNFAILING),
        ),
        |map, map_out, slot, slot_out| {
            assert_eq!(map_out, slot_out, "switch engines diverged on outputs");
            assert_switches_agree("figure1_switch", map, slot);
            Vec::new()
        },
    )
}

/// E11 — the byte-level roundtrip workload: the same seeded trace as the
/// E9 machine workload, but **born as wire frames** (`bench::wiregen`)
/// and driven through the full parse → pipeline → deparse path on both
/// engines:
///
/// * the reference path parses each frame with the map-level
///   [`wire::parse`], processes the map packet, and deparses it;
/// * the fast path binds a [`BoundParser`] to the slot pipeline's field
///   table and runs [`BoundParser::parse_flat`] →
///   [`SlotMachine::process_flat`] → [`BoundParser::deparse_flat`].
///
/// Unlike [`machine_workload`] (where parsing is deliberately hoisted out
/// of the timed region), the timed region here **includes** the parser
/// and deparser on both sides — that's the number E11 exists to record:
/// what the byte front-end costs around each engine.
///
/// # Panics
///
/// Panics if the two paths disagree on any output **byte** or on final
/// state — stricter than field equality, since deparsing also covers
/// patch placement and untouched-byte preservation.
pub fn wire_workload(name: &str, n: usize, seed: u64) -> Row {
    let pipeline = compile_least(name);
    let algo = algorithms::by_name(name).unwrap();
    let wt = wiregen::wire_trace(&algo.trace(n, seed), seed, &GenOptions::default());
    let parser = BoundParser::bind(
        wt.cfg.clone(),
        compile_slot(&pipeline).field_table().clone(),
    );
    let roundtrip_map = |m: &mut Machine| -> Vec<Vec<u8>> {
        let frames = wt.frames.iter().map(|frame| {
            let wp = wire::parse(frame, &wt.cfg).expect("wiregen default frames are well-formed");
            wire::deparse(&m.process(wp.pkt), &wp.layout)
        });
        frames.collect()
    };
    let roundtrip_slot = |s: &mut SlotMachine| -> Vec<Vec<u8>> {
        let frames = wt.frames.iter().map(|frame| {
            let (mut flat, layout) = parser
                .parse_flat(frame)
                .expect("same frames, same verdicts");
            s.process_flat(&mut flat);
            parser.deparse_flat(&flat, &layout)
        });
        frames.collect()
    };
    differential(
        "workloads",
        ("name", &format!("wire_{name}")),
        n,
        (|| Machine::new(pipeline.clone()), roundtrip_map),
        (|| compile_slot(&pipeline), roundtrip_slot),
        |map, map_out, slot, slot_out| {
            assert_eq!(
                *map.state(),
                slot.export_state(),
                "wire_{name}: engines diverged on final state"
            );
            for (i, (m, s)) in map_out.iter().zip(slot_out).enumerate() {
                assert_eq!(m, s, "wire_{name}: deparsed frames diverged at packet {i}");
            }
            Vec::new()
        },
    )
}

/// Where the plan steers each packet of `trace`, by input position.
fn steer_all(plan: &ShardPlan, trace: &[Packet]) -> Vec<usize> {
    let steer = |(i, p)| plan.steer(i, p);
    trace.iter().enumerate().map(steer).collect()
}

/// The Exact-tier oracle: shard `s`'s output must be the serial switch's
/// output at exactly the input positions steered to `s` — full packets,
/// queue metadata included.
fn assert_shard_is_serial_slice(
    what: &str,
    s: usize,
    part: &[Packet],
    assignment: &[usize],
    serial_out: &[Packet],
) {
    let mut cursor = 0usize;
    for (i, &shard) in assignment.iter().enumerate() {
        if shard != s {
            continue;
        }
        assert_eq!(
            part[cursor], serial_out[i],
            "{what}: shard {s} diverged at input {i}"
        );
        cursor += 1;
    }
    assert_eq!(part.len(), cursor, "{what}: shard {s} length");
}

/// Each lane's minimum of two instrumented runs of the same plan.
fn lanewise_min(a: ShardTimings, b: ShardTimings) -> ShardTimings {
    let shards = a.shard_ns.iter().zip(&b.shard_ns);
    ShardTimings {
        steer_ns: a.steer_ns.min(b.steer_ns),
        shard_ns: shards.map(|(&a, &b)| a.min(b)).collect(),
        merge_ns: a.merge_ns.min(b.merge_ns),
    }
}

/// E10 — replays an algorithm's seeded trace through a [`ShardedSwitch`]
/// (slot-compiled shards, pass-through egress, line-rate queue) at each
/// requested shard count and returns one `scaling` row per count.
///
/// Every configuration is a differential test against the serial slot
/// switch, with the oracle chosen by the plan's tier:
///
/// * **Exact** (keyed steering, e.g. flowlet): each shard's outputs
///   must equal the serial outputs at exactly the positions steered to
///   it (full packets, queue metadata included), and the merged
///   exported state must equal the serial state bit-for-bit.
/// * **Replicable** (full sketch replica per shard, e.g.
///   heavy_hitters): the merged exported state must *still* equal the
///   serial state bit-for-bit (sum/max merges are exact on final
///   state), and both the serial and merged states must satisfy the
///   sketch's own contract — spec replay, overestimate, mass
///   conservation, and the (ε, δ) bound
///   ([`crate::sketch::verify_sketch`]). Per-packet in-stream estimates
///   are shard-local by design, so positional bit-identity is not
///   asserted; output counts and drop counters still must agree.
///
/// In every tier the threaded run must reproduce the sequential merge
/// bit-for-bit, and drop/transmit counters must agree with serial.
///
/// Each row records the threaded wall clock (`wall_ns`) *and* the lane
/// breakdown of a sequential instrumented run (`steer_ns`, `shard_ns`,
/// `merge_ns`, free of scheduler interference) with its busiest lane as
/// `critical_ns` — the modeled steady-state completion time on an
/// RX-core / worker-cores / TX-core pipeline. On an N-core host wall
/// clock approaches the critical path; on the single-core CI runner only
/// the critical-path number can show scaling, which is why both are
/// recorded, clearly labeled. `modeled_speedup_vs_1shard` is the 1-shard
/// row's critical path over this row's (`null` when the sweep has no
/// 1-shard row).
///
/// # Panics
///
/// Panics on any divergence — a recorded measurement is a correctness
/// witness.
pub fn shard_sweep(name: &str, n: usize, seed: u64, shard_counts: &[usize]) -> Vec<Row> {
    const CAPACITY: usize = 512;
    const STAMPED: &str = "line-rate shard switches support stamped runs";
    let ingress = compile_least(name);
    let egress = AtomPipeline::passthrough("egress");
    let trace = algorithms::by_name(name).unwrap().trace(n, seed);

    let mut serial = slot_switch(&ingress, &egress, CAPACITY);
    let serial_out = serial
        .run(&trace)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");
    let serial_state = serial.export_ingress_state();

    // One discarded instrumented pass: the partition/replay allocation
    // pattern differs from the serial run's, and its first execution pays
    // allocator/page-cache costs that would otherwise skew whichever
    // shard count happens to run first.
    let warmup = ShardConfig::new(1).with_capacity(CAPACITY);
    slot_shards(&ingress, &egress, warmup)
        .run(&trace)
        .instrumented()
        .expect(STAMPED);

    let sweep = shard_counts.iter().map(|&count| {
        let cfg = ShardConfig::new(count).with_capacity(CAPACITY);

        // Pass 1 — verification (untimed): per-shard outputs must be
        // the serial outputs at exactly the steered positions, state
        // must merge back bit-identical, counters must agree. All of
        // its allocations are freed before anything is timed — at
        // millions of map packets, live copies push the allocator
        // into a page-churn regime that poisons measurements.
        let mut verify_sw = slot_shards(&ingress, &egress, cfg.clone());
        let parts = verify_sw.run(&trace).partitioned().expect(STAMPED);
        let tier = verify_sw.plan().tier();
        let assignment = steer_all(verify_sw.plan(), &trace);
        match tier {
            ShardTier::Exact | ShardTier::Fallback => {
                let what = format!("{name}@{count}");
                for (s, part) in parts.iter().enumerate() {
                    assert_shard_is_serial_slice(&what, s, part, &assignment, &serial_out);
                }
            }
            ShardTier::Replicable => {
                // Replica shards see only their slice of the trace, so
                // in-stream estimates are not positionally comparable;
                // the statistical tier below is the oracle. Packet
                // conservation still holds shard by shard.
                for (s, part) in parts.iter().enumerate() {
                    let offered = assignment.iter().filter(|&&shard| shard == s).count();
                    assert_eq!(
                        part.len(),
                        offered,
                        "{name}@{count}: shard {s} transmitted {} of {offered} offered",
                        part.len()
                    );
                }
                let spec = verify_sw
                    .plan()
                    .ingress_replica()
                    .expect("replicable tier has an ingress replica spec")
                    .clone();
                let merged = verify_sw.export_merged_ingress_state();
                let serial_label = format!("{name} serial");
                crate::sketch::verify_sketch(&spec, &trace, &serial_state, &serial_label);
                let merged_label = format!("{name}@{count} merged");
                crate::sketch::verify_sketch(&spec, &trace, &merged, &merged_label);
            }
        }
        assert_eq!(
            verify_sw.export_merged_ingress_state(),
            serial_state,
            "{name}@{count}: merged state diverged"
        );
        assert_eq!(verify_sw.transmitted(), serial.transmitted());
        assert_eq!(verify_sw.drops(), serial.drops());
        let effective = verify_sw.plan().effective();
        let fallback = verify_sw.plan().fallback().map(str::to_string);
        let merged_len: usize = parts.iter().map(|p| p.len()).sum();
        drop(parts);
        drop(verify_sw);

        // Pass 2 — sequential timing: per-shard busy times measured
        // one after another on this thread (scheduler-free), with
        // only the run's own working set live; each lane keeps its
        // minimum over the repetitions (see [`REPS`]).
        let instrumented = || {
            let run = slot_shards(&ingress, &egress, cfg.clone())
                .run(&trace)
                .instrumented()
                .expect(STAMPED);
            (run.merged, run.timings)
        };
        let (merged, timings) = min_of_reps(instrumented, lanewise_min);
        assert_eq!(
            merged.len(),
            merged_len,
            "{name}@{count}: merge lost packets"
        );

        // Pass 3 — threaded wall clock, asserted bit-identical to the
        // sequential merge (scheduling cannot leak into outputs).
        let mut threaded_sw = slot_shards(&ingress, &egress, cfg);
        let (threaded, wall_ns) = timed(|| threaded_sw.run(&trace).collect());
        assert_eq!(
            threaded.expect("no faults injected in the scaling sweep"),
            merged,
            "{name}@{count}: threaded run diverged from sequential merge"
        );

        let critical_ns = timings.critical_ns();
        Row::new("scaling")
            .with("workload", Cell::text(name))
            .with("packets", Cell::int(n))
            .with("shards", Cell::int(count))
            .with("effective_shards", Cell::int(effective))
            .with("tier", Cell::text(tier))
            .with("wall_ns", Cell::int(wall_ns))
            .with("steer_ns", Cell::int(timings.steer_ns))
            .with("merge_ns", Cell::int(timings.merge_ns))
            .with("shard_ns", Cell::List(timings.shard_ns))
            .with("critical_ns", Cell::int(critical_ns))
            .with("modeled_pkts_per_sec", Cell::rate(n, critical_ns))
            .with("wall_pkts_per_sec", Cell::rate(n, wall_ns))
            .with("modeled_speedup_vs_1shard", Cell::Null)
            .with("fallback", Cell::opt(fallback, Cell::text))
            .with("identical", Cell::Flag(true))
    });
    let mut rows: Vec<Row> = sweep.collect();

    let critical = |r: &Row| match r.get("critical_ns") {
        Some(Cell::Int(ns)) => *ns,
        _ => unreachable!("every scaling row records its critical path"),
    };
    let anchor = rows.iter().find(|r| r.get("shards") == Some(&Cell::Int(1)));
    if let Some(anchor_ns) = anchor.map(critical) {
        for row in &mut rows {
            let speedup = Cell::ratio(anchor_ns, critical(row));
            row.set("modeled_speedup_vs_1shard", speedup);
        }
    }
    rows
}

/// The one exact thing a sweep's rows are held to beyond the assertions
/// inside the run: every `scaling` row was granted the shards it asked
/// for. A plan that grants fewer has lost a partition tier, however fast
/// the coarser run happens to be; the error names each such row with its
/// tier and the plan's own diagnostic.
pub fn shards_granted(rows: &[Row]) -> Result<(), String> {
    let fell_back =
        |r: &&Row| r.section == "scaling" && r.get("effective_shards") != r.get("shards");
    let describe = |r: &Row| {
        let cell = |k| r.get(k).map_or("?".to_string(), Cell::shown);
        format!(
            "{} asked for {} shards and was granted {} — the workload regressed to a \
             coarser partition tier ({}: {})",
            cell("workload"),
            cell("shards"),
            cell("effective_shards"),
            cell("tier"),
            cell("fallback")
        )
    };
    let failures: Vec<String> = rows.iter().filter(fell_back).map(describe).collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// The E13 scheduling disciplines, in emission order.
pub const SCHED_DISCIPLINES: [&str; 3] = ["wfq", "strict_priority", "shaping"];

/// Stateful egress for the scheduling runs: prefix sums over the
/// departure sequence, so any order or timing divergence between engines
/// corrupts `sum` and the exported `total_sojourn` register — the
/// departure-order-sensitive witness.
const SCHED_EGRESS: &str = "struct P { int enq_ts; int now; int qdepth; int soj; int sum; };\n\
                            int total_sojourn = 0;\n\
                            void sojourn(struct P pkt) {\n\
                              pkt.soj = pkt.now - pkt.enq_ts;\n\
                              total_sojourn = total_sojourn + pkt.soj;\n\
                              pkt.sum = total_sojourn;\n\
                            }";

/// Rank transaction, scheduler spec, and trace for one E13 discipline.
fn sched_setup(discipline: &str, n: usize, seed: u64) -> (AtomPipeline, SchedSpec, Vec<Packet>) {
    match discipline {
        "wfq" => {
            // Flow-major burst: the most unfair arrival order; stfq's
            // `start` ranks must drain it byte-by-byte fair.
            const FLOWS: usize = 32;
            (
                compile_least("stfq"),
                SchedSpec::Pifo {
                    rank: "start".into(),
                },
                algorithms::sched::backlogged_burst(FLOWS, n.div_ceil(FLOWS), seed),
            )
        }
        "strict_priority" => (
            compile_least("stfq"),
            SchedSpec::Priority {
                class: "class".into(),
                rank: "start".into(),
            },
            algorithms::sched::classed_stfq_trace(n, 4, seed),
        ),
        "shaping" => (
            domino_compiler::compile(
                algorithms::sched::PACER_SOURCE,
                &Target::banzai(AtomKind::Nested),
            )
            .expect("pacer compiles on Nested"),
            SchedSpec::Shaping { rank: "dl".into() },
            algorithms::sched::pacer_trace(n, seed),
        ),
        other => panic!("unknown scheduling discipline `{other}`"),
    }
}

/// E13 — drives one scheduling discipline (rank transaction + PIFO)
/// through `switch.run(trace).scheduled().collect()` on both engines and
/// returns the `sched` row. The three disciplines are WFQ via `stfq`'s
/// `start` ranks, strict priority over per-class WFQ, and token-bucket
/// shaping via the pacer's earliest-departure ranks. The queue capacity
/// equals the trace length, so the run is lossless and the whole burst is
/// co-resident — scheduling order is fully observable.
///
/// # Panics
///
/// Panics if the engines diverge on any departure (packet, key, arrival,
/// or departure cycle), counter, or exported state, or if the run loses a
/// packet — the measurement doubles as a differential test. What the
/// departure order must *be* (the fairness bound, priority exactness,
/// pacing) and sharded == serial are `tests/scheduling.rs`.
pub fn sched_workload(discipline: &str, n: usize, seed: u64) -> Row {
    let (ingress, spec, trace) = sched_setup(discipline, n, seed);
    let egress = domino_compiler::compile(SCHED_EGRESS, &Target::banzai(AtomKind::Raw))
        .expect("sojourn egress compiles on Raw");
    let capacity = trace.len();
    const UNFAILING: &str = "slice-backed sources cannot fail mid-stream";
    differential(
        "sched",
        ("sched", discipline),
        trace.len(),
        (
            || Switch::new(ingress.clone(), egress.clone(), capacity).with_scheduler(spec.clone()),
            |sw: &mut Switch| sw.run(&trace).scheduled().collect().expect(UNFAILING),
        ),
        (
            || slot_switch(&ingress, &egress, capacity).with_scheduler(spec.clone()),
            |sw: &mut Switch<SlotMachine>| sw.run(&trace).scheduled().collect().expect(UNFAILING),
        ),
        |map, map_out, slot, slot_out| {
            assert_eq!(
                map_out, slot_out,
                "{discipline}: engines diverged on departures"
            );
            assert_switches_agree(discipline, map, slot);
            assert_eq!(
                slot_out.len(),
                trace.len(),
                "{discipline}: lossless at full capacity"
            );
            vec![("transmitted", Cell::int(slot.transmitted()))]
        },
    )
}

/// The process's peak resident set size (`VmHWM`) in KiB, read from
/// `/proc/self/status`. `None` on platforms without procfs — callers
/// treat an unreadable high-water mark as "cannot assert", not a failure.
fn max_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// E14 — streams `n` generator-born flowlet packets through the
/// slot-compiled Figure-1 switch via `run(source).for_each(sink)`: no
/// input trace and no output vector ever exist, so memory stays flat at
/// any `n`. The sink folds a checksum so the compiler cannot elide the
/// packets; conservation (`offered == transmitted + dropped`) is asserted
/// before the `stream` row is returned.
///
/// The point of the row is the memory bound: the process's peak RSS is
/// sampled before and after, and `rss_growth_kb` staying flat no matter
/// how large `n` is is the witness that the unified run API actually
/// streams (`null` where `/proc/self/status` is unavailable).
///
/// The generator produces the same bursty flowlet mix as
/// `algorithms::workload::flowlet_trace`, but derives each packet
/// arithmetically from its index (splitmix-style), so it needs no
/// materialized trace and no RNG state proportional to `n`.
///
/// # Panics
///
/// Panics if the books do not balance or the source under-delivers.
pub fn stream_workload(n: usize, seed: u64) -> Row {
    let ingress = compile_least("flowlet");
    let egress = AtomPipeline::passthrough("egress");
    let mut sw = slot_switch(&ingress, &egress, 512).with_drain_period(3);

    let rss_before_kb = max_rss_kb();
    let mut checksum = 0u64;
    let source =
        banzai::GenSource::with_len(n as u64, move |i| Some(flowlet_stream_packet(i, seed)));
    let sink = |pkt: Packet| checksum ^= pkt.get("arrival").unwrap_or(0) as u64;
    let (stats, wall_ns) = timed(|| sw.run(source).for_each(sink));
    let stats = stats.expect("generator sources cannot fail mid-stream");
    let rss_after_kb = max_rss_kb();

    assert_eq!(stats.offered, n as u64, "stream: source under-delivered");
    assert_eq!(
        stats.transmitted + sw.drops(),
        n as u64,
        "stream: books out of balance"
    );

    let growth = rss_before_kb.zip(rss_after_kb);
    let growth = growth.map(|(before, after)| after.saturating_sub(before));
    Row::new("stream")
        .with("mode", Cell::text("generator"))
        .with("packets", Cell::int(n))
        .with("transmitted", Cell::int(stats.transmitted))
        .with("dropped", Cell::int(sw.drops()))
        .with("wall_ns", Cell::int(wall_ns))
        .with("pkts_per_sec", Cell::rate(n, wall_ns))
        .with("rss_before_kb", Cell::opt(rss_before_kb, Cell::int))
        .with("rss_after_kb", Cell::opt(rss_after_kb, Cell::int))
        .with("rss_growth_kb", Cell::opt(growth, Cell::int))
}

/// The `i`-th packet of the E14 streaming workload: the flowlet-trace
/// field mix (bursty arrivals over a small flow space) derived purely
/// from the packet index, so any suffix of the stream can be regenerated
/// without storing anything.
fn flowlet_stream_packet(i: u64, seed: u64) -> Packet {
    // splitmix64: a full-avalanche index hash, the standard trick for
    // stateless deterministic streams.
    let mut z = i.wrapping_add(seed).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // ~15% of packets open a gap past the flowlet threshold; the clock is
    // index-derived (mean inter-arrival ≈ 4.5) so it needs no state.
    let gap = if z % 100 < 15 { 20 } else { 2 };
    Packet::new()
        .with("sport", (z % 16) as i32)
        .with("dport", 80 + ((z >> 8) % 4) as i32)
        .with("arrival", (i / 2) as i32 * 9 / 2 + gap)
        .with("new_hop", 0)
        .with("next_hop", 0)
        .with("id", 0)
}

/// One `compile` row: `step` on `program` for `target` took `ns`; `shape`
/// is the `(stages, most atoms in a stage)` of the pipeline a successful
/// compilation produced — Table 4's "stages, atoms" column.
fn compile_row(
    step: &str,
    program: &str,
    target: &Target,
    ns: u128,
    shape: Option<(usize, usize)>,
) -> Row {
    Row::new("compile")
        .with("step", Cell::text(step))
        .with("program", Cell::text(program))
        .with("target", Cell::text(&target.name))
        .with("compile_ns", Cell::int(ns))
        .with("stages", Cell::opt(shape, |(stages, _)| Cell::int(stages)))
        .with("atoms", Cell::opt(shape, |(_, atoms)| Cell::int(atoms)))
}

/// E8 — §5.3's compilation-time experiment, as `compile` rows: the
/// end-to-end compilation of every Table 4 program that maps, on its
/// least expressive target (`compile`); the paper's worst case, proving
/// CoDel unmappable on the most expressive target (`reject`); and
/// codelet → atom mapping alone, flowlet's `saved_hop` on PRAW
/// (`synthesize`). The paper's times are SKETCH-dominated (up to 10 s for
/// CoDel); these time the synthesis search that stands in for it, each
/// the minimum of `REPS` runs, and cost milliseconds at any size of
/// run.
///
/// # Panics
///
/// Panics if a program does not map at exactly its `paper.least_atom`, if
/// Pairs accepts CoDel, or if `saved_hop` needs anything but PRAW — a row
/// is verified before it is recorded.
pub fn compile_workload() -> Vec<Row> {
    let mut rows: Vec<Row> = algorithms::TABLE4
        .iter()
        .filter_map(|a| Some((a, a.least_target()?)))
        .map(|(a, target)| {
            let (compiled, ns) = timed_min(|| domino_compiler::compile(a.source, &target));
            let pipeline = compiled.unwrap_or_else(|e| panic!("{}: {e}", a.name));
            assert_eq!(
                pipeline.max_stateful_kind(),
                a.paper.least_atom,
                "{}: maps, but not at the paper's least atom",
                a.name
            );
            let shape = (pipeline.depth(), pipeline.max_atoms_per_stage());
            compile_row("compile", a.name, &target, ns, Some(shape))
        })
        .collect();

    let codel = algorithms::by_name("codel").expect("Table 4 lists CoDel");
    let pairs = Target::banzai(AtomKind::Pairs);
    let (rejected, ns) = timed_min(|| domino_compiler::compile(codel.source, &pairs));
    assert!(
        rejected.is_err(),
        "codel: Table 4 rejects it, Pairs did not"
    );
    rows.push(compile_row("reject", codel.name, &pairs, ns, None));

    let flowlet = algorithms::by_name("flowlet").expect("Table 4 lists flowlet");
    let flowlet = domino_compiler::normalize(flowlet.source).expect("flowlet normalizes");
    let mut codelets = flowlet.pvsm.iter_codelets().map(|(_, codelet)| codelet);
    let saved_hop = codelets
        .find(|codelet| codelet.state_vars().contains("saved_hop"))
        .expect("flowlet keeps `saved_hop`");
    let (synthesis, ns) = timed_min(|| atom_synth::map_to_kind(saved_hop, AtomKind::Praw));
    let synthesis = synthesis.unwrap_or_else(|e| panic!("saved_hop: {e}"));
    assert_eq!(synthesis.minimal_kind, AtomKind::Praw, "saved_hop");
    let praw = Target::banzai(AtomKind::Praw);
    rows.push(compile_row("synthesize", "saved_hop", &praw, ns, None));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(row: &Row, key: &str) -> u128 {
        match row.get(key) {
            Some(Cell::Int(v)) => *v,
            other => panic!("`{key}` is not a count: {other:?}"),
        }
    }

    fn text<'r>(row: &'r Row, key: &str) -> &'r str {
        match row.get(key) {
            Some(Cell::Text(s)) => s,
            other => panic!("`{key}` is not text: {other:?}"),
        }
    }

    #[test]
    fn machine_workload_verifies_and_measures() {
        let m = machine_workload("flowlet", 2_000, 0xBEEF);
        assert_eq!(m.section, "workloads");
        assert_eq!(text(&m, "name"), "flowlet");
        assert_eq!(int(&m, "packets"), 2_000);
        assert!(int(&m, "map_ns") > 0 && int(&m, "slot_ns") > 0);
    }

    #[test]
    fn switch_workload_verifies_and_measures() {
        let m = switch_workload(1_500, 0xF00D);
        assert_eq!(text(&m, "name"), "figure1_switch");
        assert!(int(&m, "map_ns") > 0 && int(&m, "slot_ns") > 0);
    }

    #[test]
    fn wire_workload_verifies_and_measures() {
        let m = wire_workload("flowlet", 1_500, 0xBEEF);
        assert_eq!(text(&m, "name"), "wire_flowlet");
        assert_eq!(int(&m, "packets"), 1_500);
        assert!(int(&m, "map_ns") > 0 && int(&m, "slot_ns") > 0);
    }

    #[test]
    fn stream_workload_balances_and_stays_bounded() {
        let m = stream_workload(50_000, 0xE14);
        assert_eq!(int(&m, "packets"), 50_000);
        assert_eq!(int(&m, "transmitted") + int(&m, "dropped"), 50_000);
        assert!(int(&m, "wall_ns") > 0);
        // procfs is available on every host this suite targets; if it
        // ever is not, the binary's RSS gate degrades to unasserted.
        if let Some(Cell::Int(growth)) = m.get("rss_growth_kb") {
            // 50k packets materialized twice (trace + outputs) would be
            // several MB; the streamed run must stay far under that.
            assert!(*growth < 512 * 1024, "streamed run grew {growth} KiB");
        }
    }

    #[test]
    fn stream_generator_is_deterministic() {
        let a: Vec<Packet> = (0..64).map(|i| flowlet_stream_packet(i, 7)).collect();
        let b: Vec<Packet> = (0..64).map(|i| flowlet_stream_packet(i, 7)).collect();
        assert_eq!(a, b);
        let c: Vec<Packet> = (0..64).map(|i| flowlet_stream_packet(i, 8)).collect();
        assert_ne!(a, c, "seed must matter");
    }

    fn lanes(row: &Row) -> usize {
        match row.get("shard_ns") {
            Some(Cell::List(ns)) => ns.len(),
            other => panic!("`shard_ns` is not a lane list: {other:?}"),
        }
    }

    #[test]
    fn shard_sweep_verifies_and_scales_bookkeeping() {
        let rows = shard_sweep("flowlet", 3_000, 0xF10, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(int(&rows[0], "effective_shards"), 1);
        assert_eq!(int(&rows[1], "effective_shards"), 2);
        assert_eq!(text(&rows[1], "tier"), "Exact");
        assert_eq!(rows[1].get("fallback"), Some(&Cell::Null));
        assert_eq!(lanes(&rows[1]), 2);
        let speedup = rows[1].get("modeled_speedup_vs_1shard");
        assert!(matches!(speedup, Some(Cell::Ratio(_))), "{speedup:?}");
        assert_eq!(
            rows[0].get("modeled_speedup_vs_1shard"),
            Some(&Cell::Ratio(1.0))
        );
    }

    #[test]
    fn shard_sweep_replicates_sketch_workloads() {
        // heavy_hitters carries a count-min sketch indexed by per-row
        // hashes: the exact tier rejects it, the replica tier shards it.
        let rows = shard_sweep("heavy_hitters", 2_000, 0xF12, &[1, 4]);
        assert_eq!(int(&rows[1], "effective_shards"), 4, "{:?}", rows[1]);
        assert_eq!(text(&rows[1], "tier"), "Replicable");
        assert_eq!(rows[1].get("fallback"), Some(&Cell::Null));
        assert_eq!(lanes(&rows[1]), 4);
    }

    #[test]
    fn shard_sweep_records_fallback_for_unpartitionable_state() {
        let rows = shard_sweep("rcp", 1_000, 0xF11, &[4]);
        assert_eq!(int(&rows[0], "effective_shards"), 1);
        assert_eq!(text(&rows[0], "tier"), "Fallback");
        // A sweep without its 1-shard anchor records no speedup.
        assert_eq!(rows[0].get("modeled_speedup_vs_1shard"), Some(&Cell::Null));
        // The diagnostic must name the tier decision: why the exact
        // tier rejected it AND why the replica tier rejected it.
        let why = text(&rows[0], "fallback");
        assert!(why.contains("not Exact-partitionable"), "{why}");
        assert!(why.contains("not Replicable"), "{why}");
        assert!(why.contains("scalar state"), "{why}");
    }

    #[test]
    fn sched_workloads_verify_and_measure() {
        // Small but real: each discipline runs both engines.
        for discipline in SCHED_DISCIPLINES {
            let m = sched_workload(discipline, 800, 0xE13);
            assert_eq!(m.section, "sched");
            assert_eq!(text(&m, "sched"), discipline);
            assert!(int(&m, "packets") >= 800, "{discipline}");
            assert_eq!(
                int(&m, "transmitted"),
                int(&m, "packets"),
                "{discipline}: lossless"
            );
            assert!(
                int(&m, "map_ns") > 0 && int(&m, "slot_ns") > 0,
                "{discipline}"
            );
        }
    }

    #[test]
    fn compile_workload_verifies_and_measures() {
        let rows = compile_workload();
        let steps: Vec<&str> = rows.iter().map(|r| text(r, "step")).collect();
        let mapping = algorithms::TABLE4
            .iter()
            .filter(|a| a.paper.least_atom.is_some());
        let mut expected = vec!["compile"; mapping.clone().count()];
        expected.extend(["reject", "synthesize"]);
        assert_eq!(steps, expected);
        for (row, a) in rows.iter().zip(mapping) {
            assert_eq!(row.section, "compile");
            assert_eq!(text(row, "program"), a.name);
            let kind = a.paper.least_atom.unwrap().short_name();
            assert_eq!(text(row, "target"), format!("banzai-{kind}"));
            assert!(int(row, "compile_ns") > 0 && int(row, "stages") > 0 && int(row, "atoms") > 0);
        }
        let [.., reject, synthesize] = &rows[..] else {
            panic!("{rows:?}")
        };
        assert_eq!(text(reject, "program"), "codel");
        assert_eq!(text(reject, "target"), "banzai-pairs");
        assert_eq!(reject.get("stages"), Some(&Cell::Null));
        assert_eq!(text(synthesize, "program"), "saved_hop");
        assert_eq!(text(synthesize, "target"), "banzai-praw");
        assert!(int(reject, "compile_ns") > 0 && int(synthesize, "compile_ns") > 0);
    }

    /// An engine-comparison row as [`differential`] shapes it, with a
    /// chosen speedup.
    fn engine_row(section: &'static str, key: &str, name: &str, speedup: f64) -> Row {
        Row::new(section)
            .with(key, Cell::text(name))
            .with("packets", Cell::int(10))
            .with("speedup", Cell::Ratio(speedup))
            .with("identical", Cell::Flag(true))
    }

    /// A `scaling` row as [`shard_sweep`] shapes it.
    fn scaling_row(shards: usize, effective: usize, speedup: Cell, tier: ShardTier) -> Row {
        Row::new("scaling")
            .with("workload", Cell::text("heavy_hitters"))
            .with("shards", Cell::int(shards))
            .with("effective_shards", Cell::int(effective))
            .with("tier", Cell::text(tier))
            .with("shard_ns", Cell::List(vec![25; effective]))
            .with("modeled_speedup_vs_1shard", speedup)
            .with("fallback", Cell::Null)
    }

    /// One row of each section, covering every cell shape the document
    /// holds: a `null` speedup anchor, a lane list, an unreadable-RSS
    /// `null`, a shapeless `reject`.
    fn fixture() -> Vec<Row> {
        let pairs = Target::banzai(AtomKind::Pairs);
        vec![
            engine_row("workloads", "name", "flowlet", 10.0),
            engine_row("workloads", "name", "figure1_switch", 1.5),
            scaling_row(2, 2, Cell::Null, ShardTier::Exact),
            scaling_row(4, 4, Cell::Ratio(4.0), ShardTier::Replicable),
            engine_row("sched", "sched", "wfq", 3.0),
            Row::new("stream")
                .with("mode", Cell::text("generator"))
                .with("packets", Cell::int(10))
                .with("rss_before_kb", Cell::Null)
                .with("rss_growth_kb", Cell::Null),
            compile_row("compile", "conga", &pairs, 900, Some((2, 1))),
            compile_row("reject", "codel", &pairs, 70, None),
        ]
    }

    #[test]
    fn a_sweep_that_fell_back_is_refused_and_one_that_did_not_passes() {
        let granted = fixture();
        assert_eq!(shards_granted(&granted), Ok(()));
        // Rows of other sections carry no shard counts and are not read.
        assert_eq!(shards_granted(&granted[..2]), Ok(()));

        // Falling back to one shard is refused however fast the run was,
        // and the refusal carries the plan's own diagnostic.
        let mut fell_back = scaling_row(4, 1, Cell::Ratio(40.0), ShardTier::Fallback);
        let why = "not Exact-partitionable: global register; not Replicable: scalar state";
        fell_back.set("fallback", Cell::text(why));
        let mut rows = granted;
        rows.push(fell_back);
        let refusal = shards_granted(&rows).unwrap_err();
        assert_eq!(refusal.lines().count(), 1, "{refusal}");
        assert!(refusal.contains("heavy_hitters asked for 4"), "{refusal}");
        assert!(refusal.contains("granted 1"), "{refusal}");
        assert!(refusal.contains("Fallback"), "{refusal}");
        assert!(refusal.contains("not Replicable"), "{refusal}");
    }

    /// A strict structural JSON reader (RFC 8259 grammar, no extensions):
    /// returns what follows one value.
    fn json_value(s: &str) -> Result<&str, String> {
        let s = s.trim_start();
        match s.chars().next() {
            Some('{') => json_members(&s[1..], '}', true),
            Some('[') => json_members(&s[1..], ']', false),
            Some('"') => Ok(take_strict_string(s)?.1),
            _ => {
                let end = s.find([',', '}', ']', '\n', ' ']).unwrap_or(s.len());
                let literal = &s[..end];
                let number = !literal.is_empty()
                    && literal.parse::<f64>().is_ok()
                    && !literal.starts_with(['+', '.'])
                    && !literal.ends_with('.');
                if number || ["true", "false", "null"].contains(&literal) {
                    Ok(&s[end..])
                } else {
                    Err(format!("bad literal `{literal}`"))
                }
            }
        }
    }

    /// The comma-separated members of an object (`keyed`) or an array,
    /// up to and including `close`.
    fn json_members(mut rest: &str, close: char, keyed: bool) -> Result<&str, String> {
        if let Some(after) = rest.trim_start().strip_prefix(close) {
            return Ok(after);
        }
        loop {
            if keyed {
                rest = take_strict_string(rest.trim_start())?.1.trim_start();
                rest = rest.strip_prefix(':').ok_or("expected `:`")?;
            }
            rest = json_value(rest)?.trim_start();
            match rest.strip_prefix(',') {
                Some(more) => rest = more,
                None => {
                    return rest
                        .strip_prefix(close)
                        .ok_or(format!("expected `{close}`"))
                }
            }
        }
    }

    /// Decodes the JSON string `s` starts with — only the escapes the
    /// grammar allows, no raw control characters — and returns its text
    /// and what follows the closing quote.
    fn take_strict_string(s: &str) -> Result<(String, &str), String> {
        let body = s.strip_prefix('"').ok_or("expected a string")?;
        let mut text = String::new();
        let mut chars = body.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((text, &body[i + 1..])),
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some(e @ ('"' | '\\' | '/')) => text.push(e),
                    Some('b') => text.push('\u{8}'),
                    Some('f') => text.push('\u{c}'),
                    Some('n') => text.push('\n'),
                    Some('r') => text.push('\r'),
                    Some('t') => text.push('\t'),
                    Some('u') => {
                        let hex = body.get(i + 2..i + 6).ok_or("short \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        text.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                        chars.nth(3);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                c if (c as u32) < 0x20 => return Err(format!("raw control {:?}", c)),
                c => text.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    fn assert_strict_json(doc: &str) {
        match json_value(doc) {
            Ok(rest) => assert_eq!(rest.trim(), "", "trailing text after the document"),
            Err(why) => panic!("not JSON ({why}):\n{doc}"),
        }
    }

    /// The text recorded under `key`, decoded from the rendered document.
    fn text_in(doc: &str, key: &str) -> String {
        let field = format!("{}: ", json_string(key));
        let at = doc
            .find(&field)
            .unwrap_or_else(|| panic!("no {field}in\n{doc}"));
        take_strict_string(&doc[at + field.len()..]).unwrap().0
    }

    #[test]
    fn every_section_renders_as_strict_json() {
        let rows = fixture();
        let sections: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
        for section in &sections {
            assert!(rows.iter().any(|r| r.section == *section), "{section}");
        }
        let doc = render_json(&rows, 1);
        assert_strict_json(&doc);
        // Every section is a key of the document, in `SECTIONS` order.
        let keys = sections
            .iter()
            .map(|s| doc.find(&format!("\n  \"{s}\": [\n")));
        let keys: Vec<usize> = keys.map(|at| at.expect("section key")).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        // Spot checks of the document itself: header, the two-decimal
        // ratios, the lane list, the nulls.
        assert!(doc.contains("\"host_cores\": 1"), "{doc}");
        assert!(doc.contains("\"name\": \"flowlet\""), "{doc}");
        assert!(doc.contains("\"speedup\": 10.00"), "{doc}");
        assert!(doc.contains("\"sched\": \"wfq\""), "{doc}");
        assert!(doc.contains("\"tier\": \"Exact\""), "{doc}");
        assert!(doc.contains("\"shard_ns\": [25, 25, 25, 25]"), "{doc}");
        assert!(doc.contains("\"modeled_speedup_vs_1shard\": null"), "{doc}");
        assert!(doc.contains("\"mode\": \"generator\""), "{doc}");
        assert!(doc.contains("\"rss_growth_kb\": null"), "{doc}");
        assert!(doc.contains("\"target\": \"banzai-pairs\""), "{doc}");
        assert!(doc.contains("\"compile_ns\": 900"), "{doc}");
        assert!(doc.contains("\"stages\": null"), "{doc}");
        // A document with empty sections is still a document.
        assert_strict_json(&render_json(&[], 2));
    }

    #[test]
    fn hostile_text_survives_the_document_unaltered() {
        // A diagnostic with a quote, a backslash (any Windows path), a
        // newline, a tab and a raw control character.
        let why = "a\"b\\c\n\td\u{1}";
        let row = Row::new("scaling")
            .with("workload", Cell::text("C:\\traces\\flow\"let"))
            .with("fallback", Cell::text(why));
        let doc = render_json(std::slice::from_ref(&row), 1);
        assert_strict_json(&doc);
        assert_eq!(text_in(&doc, "workload"), "C:\\traces\\flow\"let", "{doc}");
        assert_eq!(text_in(&doc, "fallback"), why, "{doc}");
    }

    /// A section cannot outlive its producer, nor a producer emit rows the
    /// document drops: every public workload, run small.
    #[test]
    fn sections_are_exactly_what_the_workloads_emit() {
        use std::collections::BTreeSet;
        let mut rows = vec![
            machine_workload("flowlet", 200, 1),
            switch_workload(200, 1),
            wire_workload("flowlet", 200, 1),
            stream_workload(200, 1),
        ];
        rows.extend(shard_sweep("flowlet", 200, 1, &[1]));
        rows.extend(SCHED_DISCIPLINES.map(|d| sched_workload(d, 200, 1)));
        rows.extend(compile_workload());
        let emitted: BTreeSet<&str> = rows.iter().map(|r| r.section).collect();
        let named: BTreeSet<&str> = SECTIONS.iter().map(|s| s.name).collect();
        assert_eq!(emitted, named);
    }

    /// The committed `BENCH_throughput.json` is a whole run of this
    /// harness: its sections are exactly `SECTIONS`, in document order — a
    /// section dropped or added since it was recorded means it is stale.
    #[test]
    fn the_committed_document_has_exactly_the_sections() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        let doc = std::fs::read_to_string(path).expect("the committed document");
        assert_strict_json(&doc);
        let keys: Vec<&str> = doc
            .lines()
            .filter_map(|line| line.strip_prefix("  \"")?.strip_suffix("\": ["))
            .collect();
        let named: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
        assert_eq!(keys, named);
    }
}
