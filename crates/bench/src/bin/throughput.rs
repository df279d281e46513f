//! E8–E11, E13, E14 — the differential throughput harness (see
//! [`bench::throughput`]): every experiment, every run, bit-identical
//! outputs asserted throughout; results emitted as
//! `BENCH_throughput.json`. An instrument, not a gate: it compares
//! nothing with an earlier run (the frozen ledger under `benchmark/` is
//! what a PR's speed is held to) and exits nonzero only on what is exact
//! — a divergence, a sweep workload granted fewer shards than it asked
//! for, or the E14 memory ceiling.
//!
//! ```text
//! throughput [--smoke] [--out <path>]
//!
//!   --smoke          small traces for E9–E13 (CI: exercises both engines,
//!                    the wire path, the sharded switch, the scheduler and
//!                    the JSON emission in seconds). E14 runs full-size
//!                    regardless — its assertion is about memory, not
//!                    speed — and so does E8, which costs milliseconds
//!   --out <path>     where to write the JSON (default BENCH_throughput.json)
//! ```
//!
//! The run, in order: **E14** first (10M generator-born packets through
//! `run(source).for_each(sink)`; every later section materializes
//! million-packet traces, so only a fresh process keeps the peak-RSS
//! growth honest — more than 256 MiB of growth exits nonzero), then
//! **E9** engine throughput and **E11** wire roundtrip rows, **E10** shard
//! scaling at 1/2/4/8 shards, **E13** programmable scheduling, **E8**
//! compilation time.

use bench::throughput::{
    compile_workload, machine_workload, render_json, sched_workload, shard_sweep, shards_granted,
    stream_workload, switch_workload, table, wire_workload, Cell, Row, SCHED_DISCIPLINES,
};
use std::process::ExitCode;

const SEED: u64 = 0x000D_0771_2016;

/// Packets in the E14 stream, at every size of run.
const STREAM_PACKETS: usize = 10_000_000;

/// Peak-RSS growth ceiling for the E14 stream in KiB (256 MiB) — an order
/// of magnitude under what materializing the stream would take.
const RSS_LIMIT_KB: u128 = 262_144;

const USAGE: &str = "throughput [--smoke] [--out <path>]";

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut smoke = false;
    let mut out_path = "BENCH_throughput.json".to_string();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().ok_or("--out needs a value")?.clone(),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}` (usage: {USAGE})")),
        }
    }
    let size = |smoke_n: usize, full_n: usize| if smoke { smoke_n } else { full_n };
    let (large, medium) = (size(20_000, 1_000_000), size(10_000, 300_000));

    let mut rows: Vec<Row> = Vec::new();
    let mut record = |title: &str, section: Vec<Row>| {
        println!("{title}\n\n{}", table(&section));
        rows.extend(section);
    };

    let stream = stream_workload(STREAM_PACKETS, SEED);
    let growth = stream.get("rss_growth_kb").cloned();
    record(
        "E14 — bounded-memory streaming ingestion: generator-born packets through \
         run(source).for_each(sink), no trace and no output vector ever materialized",
        vec![stream],
    );
    // Unreadable (no procfs) is "cannot assert", not a failure.
    if let Some(Cell::Int(growth)) = growth {
        if growth > RSS_LIMIT_KB {
            return Err(format!(
                "E14: streamed run grew peak RSS by {growth} KiB, over the \
                 {RSS_LIMIT_KB} KiB limit — the run API is buffering somewhere"
            ));
        }
    }

    record(
        "E9 + E11 — execution-engine throughput, and the same traces born as wire \
         frames (every row is a verified map-vs-slot differential run)",
        vec![
            machine_workload("flowlet", large, SEED),
            machine_workload("heavy_hitters", medium, SEED),
            machine_workload("codel_lut", medium, SEED),
            switch_workload(size(5_000, 200_000), SEED),
            wire_workload("flowlet", large.min(200_000), SEED),
            wire_workload("heavy_hitters", medium, SEED),
            wire_workload("codel_lut", medium, SEED),
        ],
    );
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep = ["flowlet", "heavy_hitters", "bloom_filter"];
    let sweep = sweep
        .iter()
        .flat_map(|w| shard_sweep(w, large, SEED, &[1, 2, 4, 8]))
        .collect::<Vec<Row>>();
    let granted = shards_granted(&sweep);
    record(
        &format!(
            "E10 — shard scaling, flow-steered sharded switch (host has {host_cores} \
             core(s); `modeled` is the per-shard critical path, `wall` is this \
             host's threaded clock)"
        ),
        sweep,
    );
    granted.map_err(|fell_back| format!("E10: {fell_back}"))?;

    let sched = SCHED_DISCIPLINES.iter();
    let sched = sched.map(|d| sched_workload(d, large, SEED));
    record(
        "E13 — programmable scheduling, rank transactions driving the PIFO (each \
         row is a verified map-vs-slot differential on the lossless scheduling run)",
        sched.collect(),
    );

    record(
        "E8 — compilation time (§5.3): every mapping Table 4 program on its least \
         target, CoDel's rejection on Pairs, and one codelet-to-atom synthesis \
         (each verified against Table 4 before it is recorded)",
        compile_workload(),
    );

    let doc = render_json(&rows, host_cores);
    std::fs::write(&out_path, &doc).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}
