//! `Packet` against a map model.
//!
//! A [`Packet`] is a shared, sorted shape plus a row of values, but what
//! callers may rely on is an ordered map from name to value: byte-wise
//! name order, last write wins, equality by content. The properties here
//! drive random operation sequences through a packet and through a
//! `BTreeMap<String, i32>` and compare everything observable after every
//! step — with names that sort before, between and after the ones already
//! there, the empty name, and non-ASCII names. The shape sharing itself is
//! observed the only way the public API shows it: by counting allocations.

use domino_ir::Packet;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

thread_local! {
    /// Heap allocations made by this thread (the tests of one binary run
    /// on parallel threads; a `Cell<u64>` needs neither lazy set-up nor a
    /// destructor, so the allocator may touch it at any time).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread.
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Byte order is not alphabetical order: upper case sorts before lower,
/// `~` after every letter, and any non-ASCII name after all of ASCII.
const NAMES: [&str; 16] = [
    "", "0", "A", "Zz", "_", "a", "aa", "ab", "b", "m", "z", "zz", "~", "ß", "é", "日本",
];

fn render(model: &BTreeMap<String, i32>) -> String {
    let fields: Vec<String> = model.iter().map(|(k, v)| format!("{k}: {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

/// Everything a caller can observe of `pkt`, against `model`.
fn assert_same(pkt: &Packet, model: &BTreeMap<String, i32>) -> Result<(), TestCaseError> {
    prop_assert_eq!(pkt.len(), model.len());
    prop_assert_eq!(pkt.is_empty(), model.is_empty());
    let fields: Vec<(&str, i32)> = pkt.iter().collect();
    let want: Vec<(&str, i32)> = model.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    prop_assert_eq!(&fields, &want);
    let names: Vec<&str> = pkt.field_names().collect();
    prop_assert_eq!(names, model.keys().map(String::as_str).collect::<Vec<_>>());
    prop_assert_eq!(pkt.to_string(), render(model));
    for name in NAMES {
        prop_assert_eq!(pkt.get(name), model.get(name).copied(), "get `{}`", name);
        prop_assert_eq!(pkt.has(name), model.contains_key(name), "has `{}`", name);
        let or_zero = model.get(name).copied().unwrap_or(0);
        prop_assert_eq!(pkt.get_or_zero(name), or_zero, "get_or_zero `{}`", name);
    }
    // Equality is by content: a packet built another way, in another
    // order, around other allocations, is the same packet.
    let rebuilt: Packet = model.iter().rev().map(|(k, v)| (k.clone(), *v)).collect();
    prop_assert_eq!(pkt, &rebuilt);
    if let Some((name, v)) = model.iter().next() {
        prop_assert_ne!(pkt, &rebuilt.with(name, v.wrapping_add(1)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn any_operation_sequence_matches_the_map_model(
        ops in proptest::collection::vec((0u8..7, 0usize..NAMES.len(), -4i32..5), 0..48),
    ) {
        let mut pkt = Packet::new();
        let mut model: BTreeMap<String, i32> = BTreeMap::new();
        // Every write so far, in order: what a twin replays with `.with`.
        let mut writes: Vec<(&str, i32)> = Vec::new();
        for (op, at, v) in ops {
            let name = NAMES[at];
            match op {
                0 | 1 => {
                    pkt.set(name, v);
                    model.insert(name.to_string(), v);
                    writes.push((name, v));
                }
                2 => {
                    pkt = pkt.with(name, v);
                    model.insert(name.to_string(), v);
                    writes.push((name, v));
                }
                // Two packets built by the same `.with` chain, the second
                // by the turns the first left; one of them then grows by
                // `set` — a copy of the tabled shape, which the other
                // keeps.
                6 => {
                    let twin = || writes.iter().fold(Packet::new(), |p, &(k, v)| p.with(k, v));
                    let (first, mut second) = (twin(), twin());
                    assert_same(&first, &model)?;
                    assert_same(&second, &model)?;
                    let fresh = NAMES.iter().find(|n| !model.contains_key(**n)).unwrap_or(&name);
                    second.set(fresh, v.wrapping_mul(5));
                    let mut grown = model.clone();
                    grown.insert(fresh.to_string(), v.wrapping_mul(5));
                    assert_same(&second, &grown)?;
                    assert_same(&first, &model)?;
                    assert_same(&twin(), &model)?;
                }
                // A clone that then diverges leaves the original alone —
                // whether the name is new (the clone takes the grown shape) or
                // not (only the clone's row changes).
                3 => {
                    let mut other = pkt.clone();
                    other.set(name, v.wrapping_mul(7));
                    let mut other_model = model.clone();
                    other_model.insert(name.to_string(), v.wrapping_mul(7));
                    assert_same(&other, &other_model)?;
                }
                4 => {
                    let wanted: Vec<String> =
                        (0..=at).step_by(3).map(|i| NAMES[i].to_string()).collect();
                    let projected: BTreeMap<String, i32> = wanted
                        .iter()
                        .map(|f| (f.clone(), model.get(f).copied().unwrap_or(0)))
                        .collect();
                    assert_same(&pkt.project(&wanted), &projected)?;
                }
                _ => {
                    let expected = model.get(name).copied();
                    prop_assert_eq!(pkt.get(name), expected);
                    if let Some(v) = expected {
                        prop_assert_eq!(pkt.expect(name), v);
                    }
                }
            }
            assert_same(&pkt, &model)?;
        }
    }

    #[test]
    fn from_iterator_sorts_and_keeps_the_last_write(
        pairs in proptest::collection::vec((0usize..NAMES.len(), any::<i32>()), 0..32),
    ) {
        let model: BTreeMap<String, i32> =
            pairs.iter().map(|&(at, v)| (NAMES[at].to_string(), v)).collect();
        let owned: Packet = pairs.iter().map(|&(at, v)| (NAMES[at].to_string(), v)).collect();
        assert_same(&owned, &model)?;
        let interned: Packet =
            pairs.iter().map(|&(at, v)| (Arc::<str>::from(NAMES[at]), v)).collect();
        assert_same(&interned, &model)?;
        prop_assert_eq!(owned, interned);
    }
}

#[test]
fn a_diverging_clone_copies_the_shape_and_the_original_keeps_sharing_it() {
    let p = Packet::new().with("b", 2).with("d", 4);
    let mut q = p.clone();
    q.set("c", 3);
    assert_eq!(p.to_string(), "{b: 2, d: 4}");
    assert_eq!(q.to_string(), "{b: 2, c: 3, d: 4}");
    // A third clone still shares `p`'s shape: it allocates its value row
    // and nothing else, and overwriting a field it has allocates nothing.
    let (cloning, mut r) = allocations(|| p.clone());
    assert_eq!(cloning, 1, "a clone copies the row, not the names");
    let (overwriting, ()) = allocations(|| r.set("d", 40));
    assert_eq!(overwriting, 0);
    assert_eq!(
        (p.get("d"), q.get("d"), r.get("d")),
        (Some(4), Some(4), Some(40))
    );
    assert_eq!(p, Packet::new().with("d", 4).with("b", 2));
}

#[test]
fn an_empty_packet_allocates_nothing_after_the_first() {
    drop(Packet::new());
    let (n, (a, b)) = allocations(|| (Packet::new(), Packet::default()));
    assert_eq!(n, 0);
    assert_eq!(a, b);
    assert!(a.is_empty() && a.iter().next().is_none() && a.to_string() == "{}");
    // Cloning one allocates nothing either.
    assert_eq!(allocations(|| a.clone()).0, 0);
}

/// The ledger generator's chain: six fields, none in sorted order.
fn six_field_chain(i: i32) -> Packet {
    Packet::new()
        .with("sport", i)
        .with("dport", 80)
        .with("arrival", 3 * i)
        .with("new_hop", 0)
        .with("next_hop", 0)
        .with("id", 0)
}

#[test]
fn a_rebuilt_chain_allocates_only_its_row() {
    let first = six_field_chain(1);
    let (n, again) = allocations(|| six_field_chain(2));
    assert_eq!(n, 1, "the turns are remembered: only the row is new");
    let model: BTreeMap<String, i32> = [
        ("arrival", 6),
        ("dport", 80),
        ("id", 0),
        ("new_hop", 0),
        ("next_hop", 0),
        ("sport", 2),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    assert_same(&again, &model).unwrap();
    assert!(first.field_names().eq(again.field_names()));
    // Overwriting by `.with` is no turn, and allocates nothing.
    let (n, again) = allocations(|| again.with("dport", 443));
    assert_eq!((n, again.get("dport")), (0, Some(443)));
}

#[test]
fn more_turns_than_the_table_holds_still_match_the_model_after_eviction() {
    // 96 chains of 4 fresh names each: 384 distinct turns, six times what
    // a thread's table holds, so every chain's turns are evicted before it
    // is built again.
    let chain = |c: usize| (0..4).map(move |d| (format!("c{c}.f{}", 3 - d), (c * 4 + d) as i32));
    let build = |c: usize| chain(c).fold(Packet::new(), |p, (k, v)| p.with(&k, v));
    let model = |c: usize| chain(c).collect::<BTreeMap<String, i32>>();
    let kept: Vec<Packet> = (0..96).map(build).collect();
    for (c, kept) in kept.iter().enumerate() {
        let mut again = build(c);
        assert_same(&again, &model(c)).unwrap();
        assert_same(kept, &model(c)).unwrap();
        // Grown in place or copied, the kept packet does not see it.
        again.set("zz", -1);
        assert_same(kept, &model(c)).unwrap();
        assert_eq!(again.get("zz"), Some(-1));
    }
}

#[test]
fn a_packet_built_on_one_thread_extends_on_another() {
    let here = six_field_chain(7);
    let sent = here.clone();
    let there = std::thread::spawn(move || {
        // The other thread's table has never seen this shape: a miss, then
        // remembered there, then a hit.
        let a = sent.clone().with("queue", 1).with("hop", 2);
        let b = sent.with("queue", 1).with("hop", 2);
        (a, b)
    })
    .join()
    .unwrap();
    let mut model: BTreeMap<String, i32> = here.iter().map(|(k, v)| (k.to_string(), v)).collect();
    assert_same(&here, &model).unwrap();
    model.insert("queue".into(), 1);
    model.insert("hop".into(), 2);
    assert_same(&there.0, &model).unwrap();
    assert_same(&there.1, &model).unwrap();
    // And back on this thread, the same chain by this thread's turns.
    assert_same(&here.with("queue", 1).with("hop", 2), &model).unwrap();
}

#[test]
fn four_threads_building_one_chain_at_once_share_one_shape() {
    // Names no other test uses, so the four threads race to intern every
    // shape of the chain; a fresh chain per round makes that race again.
    for round in 0..16 {
        let chain = move || {
            let name = |f: &str| format!("race{round}.{f}");
            ["sport", "dport", "arrival", "new_hop", "next_hop", "id"]
                .into_iter()
                .fold(Packet::new(), |p, f| p.with(&name(f), 1))
        };
        let start = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    chain()
                })
            })
            .collect();
        let built: Vec<Packet> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        // Equal packets share a shape pointer: one shape, whoever won.
        assert!(built.iter().all(|p| *p == built[0]), "round {round}");
        assert_eq!(built[0], chain());
    }
}

#[test]
#[should_panic(expected = "packet field `ghost` read before any write; fields present: [A, é]")]
fn expect_names_the_missing_field_and_the_present_ones_in_order() {
    Packet::new().with("é", 1).with("A", 2).expect("ghost");
}
