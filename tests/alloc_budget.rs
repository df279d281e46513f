//! An allocation budget for the packet-born paths, counted — not timed.
//!
//! ROADMAP item 4 wants a steady state that does not allocate; this is the
//! ledger it starts from. A counting `#[global_allocator]` reads how many
//! heap allocations, and how many bytes, one *offered* packet costs on the
//! three packet-born shapes the cost ledger (`benchmark/`) times: a
//! lossless `run(&trace).for_each`, a congested `run(GenSource).for_each`,
//! and a scheduled `collect()`. The counts are exact and repeat from run to
//! run, which a timing on a shared host never does.
//!
//! One `#[test]`, one process-wide counter: nothing else may run beside it,
//! so nothing else lives in this binary.

use banzai::stream::GenSource;
use banzai::{AtomKind, AtomPipeline, SchedSpec, Switch, Target};
use domino_ir::Packet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls (`alloc` and `realloc`) and the bytes they asked for.
/// `Relaxed`: plain statistics, read while no other thread runs.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting.
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Packets offered per measured run.
const N: u64 = 6_144;

/// `(allocations, bytes)` made while `run` runs.
fn count(run: &mut impl FnMut()) -> (u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    run();
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

/// Runs `run` once to warm up (memos made, queue and buffers at their
/// high-water marks), then twice counted: the two counts must agree
/// exactly, and stay within `allocs_x100 / 100` allocations and `bytes`
/// bytes per offered packet.
fn budget(what: &str, allocs_x100: u64, bytes: u64, mut run: impl FnMut()) {
    run();
    let counted = count(&mut run);
    assert_eq!(counted, count(&mut run), "{what}: the count repeats");
    let (allocs, total) = counted;
    println!(
        "{what}: {:.2} allocations, {:.0} B per offered packet",
        allocs as f64 / N as f64,
        total as f64 / N as f64
    );
    assert!(
        allocs * 100 <= allocs_x100 * N,
        "{what}: {allocs} allocations over {N} packets"
    );
    assert!(total <= bytes * N, "{what}: {total} B over {N} packets");
}

fn compile(name: &str) -> AtomPipeline {
    let a = algorithms::by_name(name).unwrap();
    let kind = a.paper.least_atom.expect("algorithm must map");
    let target = match name {
        "codel_lut" => Target::banzai_with_lut(kind),
        _ => Target::banzai(kind),
    };
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

    // `serial_flowlet`: every packet is cloned off the slice (its row),
    // admitted (slab and presence mask) and emitted (its row). The tree
    // `Packet` this replaced read 11.00 allocations and 3,788 B here.
    let mut sw = Switch::new_slot(&flowlet, &codel_lut, 512).unwrap();
    budget("run(&trace).for_each", 400, 600, || {
        let sink = |p: Packet| folded += p.get_or_zero("next_hop") as i64;
        let stats = sw.run(&trace).for_each(sink).unwrap();
        assert_eq!((stats.offered, stats.transmitted), (N, N));
    });

    // `stream_congested`: the generator builds each packet field by field
    // (names and all — 11 of the allocations below, 7 on the tree), two
    // thirds are refused at the full queue. Recorded as measured; the tree
    // read 12.33 allocations and 2,018 B.
    let mut sw = Switch::new_slot(&flowlet, &codel_lut, 512)
        .unwrap()
        .with_drain_period(3);
    budget("run(GenSource).for_each, drain 3", 1342, 802, || {
        let source = GenSource::with_len(N, |i| {
            let fields = trace[i as usize].iter();
            Some(fields.fold(Packet::new(), |p, (name, v)| p.with(name, v)))
        });
        let sink = |p: Packet| folded += p.get_or_zero("next_hop") as i64;
        let stats = sw.run(source).for_each(sink).unwrap();
        assert_eq!(stats.offered, N);
    });

    // `sched_wfq`: the whole burst queued, every departure kept. Recorded
    // as measured; the tree read 8.00 allocations and 2,300 B.
    let sojourn = domino_compiler::compile(SOJOURN, &Target::banzai(AtomKind::Raw)).unwrap();
    let burst = algorithms::by_name("stfq")
        .unwrap()
        .trace(N as usize, 0xA110C);
    let mut sw = Switch::new_slot(&compile("stfq"), &sojourn, N as usize)
        .unwrap()
        .with_scheduler(SchedSpec::Pifo {
            rank: "start".into(),
        });
    budget("run(&burst).scheduled().collect()", 401, 365, || {
        let departures = sw.run(&burst).scheduled().collect().unwrap();
        assert_eq!(departures.len() as u64, N);
        folded += departures[0].departure;
    });
    assert_ne!(folded, 0);
}
