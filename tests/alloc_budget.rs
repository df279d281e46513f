//! An allocation budget for the switch's run paths, packet-born and
//! byte-born, counted — not timed.
//!
//! ROADMAP item 4 wants a steady state that does not allocate; this is the
//! ledger it is held to. A counting `#[global_allocator]` reads how many
//! heap allocations, and how many bytes, one *offered* packet costs on the
//! shapes the cost ledger (`benchmark/`) times: a lossless
//! `run(&trace).for_each`, a congested `run(GenSource).for_each`, a
//! scheduled `collect()`, `run_frames(&frames)` under both terminals, the
//! sharded switch stepped inline (`for_each`) and on two worker threads
//! (`collect()`) — and the lossless run once more through a PIFO at line
//! rate and the burst once more on two sharded worker threads, which the
//! ledger does not time, and a `collect()` whose source fails at its
//! midpoint against a clean one. It also reads the bytes live
//! before and after every run: both switches recycle their in-flight
//! records in a pool that must die with the run. The counts are exact and
//! repeat from run to run, which a timing on a shared host never does —
//! all but the threaded ones, whose counts depend on how far the
//! dispatcher runs ahead of the workers, and are bounded instead.
//!
//! One `#[test]`, one process-wide counter: nothing else may run beside it,
//! so nothing else lives in this binary.

use banzai::stream::{FailAfter, GenSource, SliceSource};
use banzai::wire::{encode, FrameSpec, WireConfig};
use banzai::{
    AtomKind, AtomPipeline, SchedSpec, ShardConfig, ShardedSwitch, Switch, SwitchError, Target,
};
use domino_ir::Packet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls (`alloc` and `realloc`), the bytes they asked for, and
/// the bytes asked for and not yet given back (`dealloc` counted too).
/// `Relaxed`: plain statistics, read while no other thread runs.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting.
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Packets offered per measured run.
const N: u64 = 6_144;

/// `(allocations, bytes)` made while `run` runs — which must give back
/// every byte it takes: `run` drops its outputs, so whatever stays live
/// is something the switch kept (a pool that outlived its run).
fn count(what: &str, run: &mut impl FnMut()) -> (u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
        LIVE.load(Ordering::Relaxed),
    );
    run();
    let live = LIVE.load(Ordering::Relaxed);
    assert_eq!(live, before.2, "{what}: live bytes after the run");
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

/// Runs `run`, which offers `n` packets, once to warm up (memos made,
/// queue and buffers at their high-water marks), then counted — twice
/// where the count is `exact`, and the two counts must agree — within
/// `allocs_x100 / 100` allocations and `bytes` bytes per offered packet.
fn budget(what: &str, n: u64, exact: bool, allocs_x100: u64, bytes: u64, mut run: impl FnMut()) {
    run();
    let counted = count(what, &mut run);
    if exact {
        assert_eq!(counted, count(what, &mut run), "{what}: the count repeats");
    }
    let (allocs, total) = counted;
    println!(
        "{what}: {:.2} allocations, {:.0} B per offered packet ({allocs} and {total} in all)",
        allocs as f64 / n as f64,
        total as f64 / n as f64
    );
    assert!(
        allocs * 100 <= allocs_x100 * n,
        "{what}: {allocs} allocations over {n} packets"
    );
    assert!(total <= bytes * n, "{what}: {total} B over {n} packets");
}

fn compile(name: &str) -> AtomPipeline {
    let a = algorithms::by_name(name).unwrap();
    let target = a.least_target().expect("algorithm must map");
    domino_compiler::compile(a.source, &target).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The ledger's `sched_wfq` egress: reads every stamp, keeps a register.
const SOJOURN: &str = "struct P { int enq_ts; int now; int qdepth; int soj; int sum; };\n\
                       int total = 0;\n\
                       void sojourn(struct P pkt) {\n\
                         pkt.soj = pkt.now - pkt.enq_ts;\n\
                         total = total + pkt.soj;\n\
                         pkt.sum = total;\n\
                       }";

#[test]
fn steady_state_allocations_per_offered_packet() {
    let (flowlet, codel_lut) = (compile("flowlet"), compile("codel_lut"));
    let trace = algorithms::by_name("flowlet")
        .unwrap()
        .trace(N as usize, 0xA110C);
    let mut folded = 0i64;

    // `serial_flowlet`: every packet is admitted where the slice lends it
    // and emitted (its row, the one allocation left); the record it
    // crosses the switch in is a recycled one. With each packet cloned off
    // the slice this read 2.00 allocations and 268 B, with a slab made per
    // packet 4.00 and 544 B, on the tree `Packet` before that 11.00 and
    // 3,788 B.
    let mut sw = Switch::new_slot(&flowlet, &codel_lut, 512).unwrap();
    budget("run(&trace).for_each", N, true, 101, 245, || {
        let sink = |p: Packet| folded += p.get_or_zero("next_hop") as i64;
        let stats = sw.run(&trace).for_each(sink).unwrap();
        assert_eq!((stats.offered, stats.transmitted), (N, N));
    });
    // `collect()` against a source that dies at its midpoint: the fault
    // report carries what the run kept, moved there, so each transmitted
    // packet exists once. Both runs transmit `N / 2` packets — the clean
    // one offers no more — and each is read above the same run
    // transmitting none, which is what a report costs whatever it carries
    // (the state export): the faulted run must read no more bytes per
    // transmitted packet than the clean one. With the output copied into
    // the report it read 552 B against 276 B.
    let mut sw = Switch::new_slot(&flowlet, &codel_lut, 512).unwrap();
    let mut collect = |offered: usize, fail_at: u64| {
        let mut sent = 0;
        let mut run = || {
            let source = FailAfter::new(SliceSource::new(&trace[..offered]), fail_at, "link reset");
            sent = match sw.run(source).collect() {
                Ok(out) => out.len(),
                Err(SwitchError::Fault(report)) => report.salvage[0].output.len(),
                Err(e) => panic!("{e}"),
            } as u64;
        };
        run();
        let (_, bytes) = count("run(&trace).collect()", &mut run);
        (sent, bytes)
    };
    let half = N / 2;
    let clean = (collect(half as usize, u64::MAX), collect(0, u64::MAX));
    let faulted = (collect(N as usize, half), collect(N as usize, 0));
    assert_eq!(
        (clean.0 .0, clean.1 .0, faulted.0 .0, faulted.1 .0),
        (half, 0, half, 0)
    );
    let (clean, faulted) = (clean.0 .1 - clean.1 .1, faulted.0 .1 - faulted.1 .1);
    println!(
        "run(&trace).collect(), clean | faulted: {:.0} | {:.0} B per transmitted packet",
        clean as f64 / half as f64,
        faulted as f64 / half as f64
    );
    assert!(
        faulted <= clean,
        "a faulted collect() kept {faulted} B, a clean one {clean} B"
    );

    // The same run through a PIFO: at line rate it holds at most one
    // packet, a one-entry heap whose buffer, once grown, is reused. It
    // costs what the FIFO costs.
    let mut sw = Switch::new_slot(&flowlet, &codel_lut, 512)
        .unwrap()
        .with_scheduler(SchedSpec::Pifo {
            rank: "arrival".into(),
        });
    budget("run(&trace).for_each, PIFO", N, true, 101, 245, || {
        let sink = |p: Packet| folded += p.get_or_zero("next_hop") as i64;
        let stats = sw.run(&trace).for_each(sink).unwrap();
        assert_eq!((stats.offered, stats.transmitted), (N, N));
    });

    // `stream_congested`: the generator builds each packet field by field,
    // by the shape turns the warm-up left in this thread's table — one
    // interned shape, so the names cost nothing and the packet is its row
    // alone; two thirds are refused at the full queue and hand their
    // record to the next arrival. Recorded as measured; with a shape and
    // names made per packet this read 11.58 allocations and 549 B, a slab
    // per packet 13.42 and 802 B, the tree 12.33 and 2,018 B.
    let mut sw = Switch::new_slot(&flowlet, &codel_lut, 512)
        .unwrap()
        .with_drain_period(3);
    budget(
        "run(GenSource).for_each, drain 3",
        N,
        true,
        159,
        160,
        || {
            let source = GenSource::with_len(N, |i| {
                let fields = trace[i as usize].iter();
                Some(fields.fold(Packet::new(), |p, (name, v)| p.with(name, v)))
            });
            let sink = |p: Packet| folded += p.get_or_zero("next_hop") as i64;
            let stats = sw.run(source).for_each(sink).unwrap();
            assert_eq!(stats.offered, N);
        },
    );

    // `sched_wfq`: the whole burst held, every departure kept — nothing
    // departs while the source is live, so there is nothing to recycle.
    // Each packet makes its record's slab, a value row and a presence
    // mask; the drain moves the row into the departing packet, and the
    // buffer the burst is held in is the switch's, kept between runs.
    // Recorded as measured; with the row copied out through a PIFO this
    // read 3.00 allocations and 348 B, with each packet cloned off the
    // slice 4.00 and 364 B, the tree 8.00 and 2,300 B.
    let sojourn = domino_compiler::compile(SOJOURN, &Target::banzai(AtomKind::Raw)).unwrap();
    let burst = algorithms::by_name("stfq")
        .unwrap()
        .trace(N as usize, 0xA110C);
    let mut sw = Switch::new_slot(&compile("stfq"), &sojourn, N as usize)
        .unwrap()
        .with_scheduler(SchedSpec::Pifo {
            rank: "start".into(),
        });
    budget(
        "run(&burst).scheduled().collect()",
        N,
        true,
        201,
        213,
        || {
            let departures = sw.run(&burst).scheduled().collect().unwrap();
            assert_eq!(departures.len() as u64, N);
            folded += departures[0].departure;
        },
    );

    // `wire_flowlet`: the flowlet load as frames, a quarter tagged, half
    // carrying a 1,200-B payload. A frame is copied into a recycled
    // record, patched there and lent to the sink: what is left is per run
    // (the bound parser, the first records, the pool), not per frame. With
    // a record, a layout and an output frame made per frame this read 5.00
    // allocations and 1,682 B.
    let cfg = WireConfig::with_meta_fields(["arrival", "id", "new_hop", "next_hop"]).unwrap();
    let payload = vec![0x5a; 1200];
    let frame = |(i, pkt): (usize, &Packet)| {
        let spec = FrameSpec {
            vlan_tci: (i % 4 == 0).then_some(0x2000 | i as u16 & 0x0fff),
            payload: payload[..(i / 4 % 2) * 1200].to_vec(),
            ..FrameSpec::default()
        };
        encode(pkt, &cfg, &spec)
    };
    let frames: Vec<Vec<u8>> = trace.iter().enumerate().map(frame).collect();
    let mut sw = Switch::new_slot(&flowlet, &codel_lut, 512).unwrap();
    budget("run_frames(&frames).for_each", N, true, 1, 1, || {
        let sink = |f: &[u8]| folded += f.len() as i64;
        let stats = sw.run_frames(&frames, &cfg).for_each(sink).unwrap();
        assert_eq!((stats.offered, stats.transmitted), (N, N));
    });
    // `collect()` is the sink that keeps every frame: one `Vec<u8>` each
    // (the outer `Vec` is sized once, from the source's hint).
    budget("run_frames(&frames).collect()", N, true, 101, 720, || {
        let out = sw.run_frames(&frames, &cfg).collect().unwrap();
        assert_eq!(out.len() as u64, N);
        folded += out[0].len() as i64;
    });

    // `sharded_flowlet`: two shards behind the one dispatcher, flowlet and
    // a pass-through egress (the Exact tier), on a longer trace: the
    // records a run makes before the first come home — about a batch per
    // shard — are a cost per run, not per packet. The dispatcher admits
    // each packet, where the slice lends it, into a record a shard has
    // spent; the shard emits by moving the record's value row into the
    // packet, and admission gives the record a new one. Left: that row.
    // The inline executor hands spent records straight back, so the count
    // repeats. With each packet cloned off the slice this read 2.01
    // allocations and 104 B; with a record made per packet and the row
    // copied out, 4.01 and 212 B.
    let n = 16 * N;
    let long = algorithms::by_name("flowlet").unwrap().trace(n as usize, 7);
    let passthrough = AtomPipeline::passthrough("egress");
    let mut sw = ShardedSwitch::new_slot(&flowlet, &passthrough, ShardConfig::new(2)).unwrap();
    budget(
        "sharded run(&trace).for_each, 2 shards",
        n,
        true,
        101,
        81,
        || {
            let sink = |p: Packet| folded += p.get_or_zero("next_hop") as i64;
            let stats = sw.run(&long).for_each(sink).unwrap();
            assert_eq!((stats.offered, stats.transmitted), (n, n));
        },
    );
    // Threaded, records and batch buffers come home over the return
    // channel a batch at a time; how many records the dispatcher makes
    // before the first come home is the scheduler's business, so this
    // count is bounded, not exact: 1.03–1.05 allocations and 197–204 B.
    // With each packet cloned off the slice it read 2.04 and 221 B, and
    // before records were recycled 4.01 and 391 B, two of them freed on
    // the other side of a thread from the one that made them; the output
    // `collect()` keeps is most of the bytes.
    //
    // The first time a thread blocks on a channel, the standard library
    // caches a context for it in that thread's locals for good (48 B).
    // `collect()` blocks only when its workers are slower than it, so the
    // warm-up run may not have; block this thread once first, so that the
    // cache is not read as something the run kept.
    let (_keep, never) = std::sync::mpsc::channel::<()>();
    let _ = never.recv_timeout(std::time::Duration::from_millis(1));
    budget(
        "sharded run(&trace).collect(), 2 threads",
        n,
        false,
        110,
        240,
        || {
            let out = sw.run(&long).collect().unwrap();
            assert_eq!(out.len() as u64, n);
            folded += out[0].get_or_zero("next_hop") as i64;
        },
    );
    // The `sched_wfq` burst on two worker threads (a pass-through egress,
    // so the plan keeps both shards): each lane holds its slabs in arrival
    // order in its shard's own burst buffer, the other lanes are appended
    // onto the first lane's, the union is sorted once, in the drain, in
    // place, and every buffer goes back to its shard emptied — so after
    // the warm-up no held buffer grows. Bounded like the threaded run
    // above: 2.01–2.02 allocations and 222–302 B; the 80 B spread is
    // whether the batch buffers come home in time to be reused. With each
    // lane growing a buffer of its own from empty on every run it read
    // 545–625 B; collecting the union into a fresh vector besides,
    // 585–665 B; with each lane also stable-sorting what it held — a
    // scratch buffer of one held record per slab — 678–753 B.
    let cfg = ShardConfig::new(2)
        .with_capacity(N as usize)
        .with_scheduler(SchedSpec::Pifo {
            rank: "start".into(),
        });
    let mut sw = ShardedSwitch::new_slot(&compile("stfq"), &passthrough, cfg).unwrap();
    assert_eq!(sw.plan().effective(), 2);
    budget(
        "sharded run(&burst).scheduled().collect(), 2 threads",
        N,
        false,
        210,
        360,
        || {
            let departures = sw.run(&burst).scheduled().collect().unwrap();
            assert_eq!(departures.len() as u64, N);
            folded += departures[0].departure;
        },
    );
    assert_ne!(folded, 0);
}
