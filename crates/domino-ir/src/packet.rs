//! Packets as seen by the data plane: a bag of named 32-bit fields.
//!
//! Banzai does not model parsing (§2.2) — packets arrive already parsed,
//! as a header vector whose layout the *program* fixed. So the field names
//! belong to the program, not to the packet: a packet here is a **shape**
//! — its names, sorted — plus a **row** of values in shape order. Fields
//! cover both real headers (`sport`, `dport`) and per-packet
//! metadata/temporaries introduced by the programmer (`id`) or by the
//! compiler (SSA temps).
//!
//! A shape is **interned**: the process keeps one name list per distinct
//! name set, for as long as it runs, so two packets carry the same names
//! exactly when they share a shape pointer, and a packet holds its shape
//! as a plain `&'static` reference — copying, comparing or dropping it is
//! no atomic operation. The interner is one per process, not one per
//! thread, because the sharded switch's workers are new threads on every
//! run: interners of their own would each learn the program's shapes anew
//! and keep them all, growing without bound.
//!
//! A packet grows field by field by **turns**, as SELF's maps and V8's
//! hidden classes do: the interner keeps every `(shape, field) → grown
//! shape` transition it has made, keyed by the shape's address, and each
//! thread keeps a small table of the turns it took last, with the field's
//! position in the grown shape, so every packet built by the same chain
//! ends on the one shape the first such packet made and pays for its
//! value row alone. Only a turn the thread's table misses takes the
//! interner's lock, as does a packet collected from `(name, value)`
//! pairs, whose names are looked up whole. A set of that table is chosen
//! by hashing the shape's *length* and the field, never the address, so
//! which lookups hit does not depend on where the allocator put a shape;
//! it holds 64 turns (16 sets of 4 ways).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

/// The byte-wise sorted, duplicate-free names of a packet's fields,
/// interned: one list per distinct name set, shared by every packet that
/// carries it and never freed.
pub(crate) type Shape = &'static Vec<Arc<str>>;

/// The shape of every empty packet, which needs no lock to find.
static EMPTY: Vec<Arc<str>> = Vec::new();

/// The process's shapes, but for the empty one, and the turns between
/// them.
#[derive(Default)]
struct Interner {
    /// Every shape, by its names.
    shapes: HashMap<&'static [Arc<str>], Shape>,
    /// Every turn taken: the grown shape, by the address of the shape it
    /// grew from and the name it grew by.
    turns: HashMap<(usize, &'static str), Shape>,
}

static INTERNER: LazyLock<Mutex<Interner>> = LazyLock::new(Default::default);

impl Interner {
    /// The process's lock on its shapes. Nothing panics while the lock is
    /// held with the maps half updated, so a poisoned lock is taken as is.
    fn lock() -> std::sync::MutexGuard<'static, Interner> {
        INTERNER.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shape of `names` (sorted, duplicate-free), made if it is new —
    /// no wider than its names, as it is kept for good.
    fn intern(&mut self, mut names: Vec<Arc<str>>) -> Shape {
        if let Some(&shape) = self.shapes.get(names.as_slice()) {
            return shape;
        }
        names.shrink_to_fit();
        let shape: Shape = Box::leak(Box::new(names));
        self.shapes.insert(shape.as_slice(), shape);
        shape
    }

    /// `from` grown by `field`, which it lacks and would take at `at`.
    fn turn(&mut self, from: Shape, field: &str, at: usize) -> Shape {
        let from_at = std::ptr::from_ref(from) as usize;
        if let Some(&to) = self.turns.get(&(from_at, field)) {
            return to;
        }
        let to = self.intern([&from[..at], &[Arc::from(field)], &from[at..]].concat());
        self.turns.insert((from_at, &to[at]), to);
        to
    }
}

/// The shape of `names` (sorted, duplicate-free): the one every packet of
/// that name set carries.
pub(crate) fn intern(names: Vec<Arc<str>>) -> Shape {
    if names.is_empty() {
        return &EMPTY;
    }
    Interner::lock().intern(names)
}

/// A turn this thread remembers: `from` grown by the name at `to[at]`.
#[derive(Clone, Copy)]
struct Turn {
    from: Shape,
    to: Shape,
    at: usize,
}

/// The turn table's geometry: `SETS` sets of `WAYS` turns, the newest first.
const SETS: usize = 16;
const WAYS: usize = 4;

/// The capacity a row built by [`Packet::with`] reserves on its first
/// insert: a header vector this wide grows no further.
const ROW: usize = 8;

thread_local! {
    static TURNS: RefCell<[[Option<Turn>; WAYS]; SETS]> =
        const { RefCell::new([[None; WAYS]; SETS]) };
}

/// The set a turn from a shape of `depth` names by `field` lives in
/// (FxHash over the two, its top bits).
fn set_of(depth: usize, field: &str) -> usize {
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    let h = field
        .bytes()
        .fold(mix(0, depth as u64), |h, b| mix(h, b.into()));
    (h >> (64 - SETS.trailing_zeros())) as usize
}

/// The turn from `from` by `field` this thread remembers: the grown shape
/// and the field's position in it.
fn tabled(from: Shape, field: &str) -> Option<(Shape, usize)> {
    let set = set_of(from.len(), field);
    let turn = TURNS.try_with(|turns| {
        let ways = &turns.borrow()[set];
        let mut taken = ways.iter().flatten();
        let hit = taken.find(|t| std::ptr::eq(t.from, from) && *t.to[t.at] == *field);
        hit.map(|t| (t.to, t.at))
    });
    turn.ok().flatten()
}

/// `from` grown by `field`, which it lacks and would take at `at`: by this
/// thread's turn, or else by the process's — taken under the interner's
/// lock — and remembered in this thread's table, evicting the oldest turn
/// of its set.
fn grown(from: Shape, field: &str, at: usize) -> Shape {
    if let Some((to, _)) = tabled(from, field) {
        return to;
    }
    let to = Interner::lock().turn(from, field, at);
    let _ = TURNS.try_with(|turns| {
        let ways = &mut turns.borrow_mut()[set_of(from.len(), field)];
        ways.rotate_right(1);
        ways[0] = Some(Turn { from, to, at });
    });
    to
}

/// A parsed packet: named 32-bit fields.
///
/// Observably an ordered map from name to value. Iteration is in
/// byte-wise name order — the shape is kept sorted — which keeps
/// simulation output and golden tests reproducible, and two packets are
/// equal iff they carry the same names and values, however each was
/// built (one name set is one interned shape, so shapes compare by
/// pointer). What the representation buys is that names are stored once
/// per *shape*, not once per packet: cloning a packet, or materialising
/// one off a switch's layout (`PacketEdges::emit`), copies a pointer and
/// the value row. Setting a field the packet does not carry yet takes the
/// grown shape by a turn (the module docs).
#[derive(Debug, Clone)]
pub struct Packet {
    names: Shape,
    /// One value per name, in shape order.
    vals: Vec<i32>,
}

impl Default for Packet {
    /// An empty packet, on the process's one empty shape: it allocates
    /// nothing.
    fn default() -> Self {
        Packet {
            names: &EMPTY,
            vals: Vec::new(),
        }
    }
}

impl PartialEq for Packet {
    /// The same names are the same shape, so the names compare by pointer.
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.names, other.names) && self.vals == other.vals
    }
}

impl Eq for Packet {}

impl Packet {
    /// An empty packet.
    pub fn new() -> Self {
        Packet::default()
    }

    /// A packet of `vals` over an existing shape — the layout module's
    /// emission edge.
    pub(crate) fn from_shape(names: Shape, vals: Vec<i32>) -> Self {
        debug_assert_eq!(names.len(), vals.len());
        debug_assert!(names.is_sorted_by(|a, b| a < b));
        Packet { names, vals }
    }

    /// The shape, for the layout module's admission edge to recognise.
    pub(crate) fn shape(&self) -> Shape {
        self.names
    }

    /// The value row, in shape order.
    pub(crate) fn vals(&self) -> &[i32] {
        &self.vals
    }

    /// Where `field` sits in the shape — or, if the packet does not carry
    /// it, where it would have to be inserted.
    ///
    /// An equality scan (length first, then bytes), not a binary search:
    /// the atom synthesiser's inner loops read and write 1–3-field packets
    /// by name, where a binary search doubled `codel_lut`'s compile time,
    /// and on the widest packets here (its 61 fields on the map engine)
    /// the scan still beat both the search and the tree this type once was.
    fn find(&self, field: &str) -> Result<usize, usize> {
        let found = self.names.iter().position(|name| **name == *field);
        found.ok_or_else(|| self.names.partition_point(|name| **name < *field))
    }

    /// Builder-style field setter: [`Packet::set`], by a remembered turn.
    ///
    /// A new name first looks the packet's shape up in this thread's turn
    /// table (the module docs). On a hit the packet takes the grown shape an
    /// earlier packet made the same way — no scan, no lock, no name or
    /// shape allocated — and only its row grows, reserved once on the first
    /// insert; so rebuilding a chain of up to eight fields allocates once.
    /// A miss falls back to `set`'s overwrite or insert.
    ///
    /// ```
    /// use domino_ir::Packet;
    /// let p = Packet::new().with("sport", 80).with("dport", 443);
    /// assert_eq!(p.get("sport"), Some(80));
    /// ```
    pub fn with(mut self, field: &str, value: i32) -> Self {
        let at = match tabled(self.names, field) {
            Some((to, at)) => {
                self.names = to;
                at
            }
            None => match self.find(field) {
                Ok(at) => {
                    self.vals[at] = value;
                    return self;
                }
                Err(at) => {
                    self.names = grown(self.names, field, at);
                    at
                }
            },
        };
        if self.vals.capacity() == 0 {
            self.vals.reserve(ROW);
        }
        self.vals.insert(at, value);
        self
    }

    /// Sets a field (creating it if absent).
    pub fn set(&mut self, field: &str, value: i32) {
        // Overwrites are the common case in the execution hot path; they
        // touch neither the shape nor the allocator. An insert takes the
        // grown shape by a turn, as `with` does, after the scan.
        match self.find(field) {
            Ok(at) => self.vals[at] = value,
            Err(at) => {
                self.names = grown(self.names, field, at);
                self.vals.insert(at, value);
            }
        }
    }

    /// Reads a field, `None` if the packet does not carry it.
    pub fn get(&self, field: &str) -> Option<i32> {
        self.find(field).ok().map(|at| self.vals[at])
    }

    /// Reads a field that the execution model guarantees to exist.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if the field is missing — this
    /// always indicates a compiler bug (a stage consuming a field no earlier
    /// stage produced), never a user error, so failing loudly is correct.
    pub fn expect(&self, field: &str) -> i32 {
        match self.get(field) {
            Some(v) => v,
            None => panic!(
                "internal error: packet field `{field}` read before any write; \
                 fields present: [{}]",
                self.field_names().collect::<Vec<_>>().join(", ")
            ),
        }
    }

    /// Reads a field, defaulting to 0 (uninitialized packet metadata reads
    /// as zero, like uninitialized PHV containers in real switch pipelines).
    pub fn get_or_zero(&self, field: &str) -> i32 {
        self.get(field).unwrap_or(0)
    }

    /// True if the packet carries `field`.
    pub fn has(&self, field: &str) -> bool {
        self.find(field).is_ok()
    }

    /// Iterates field names in deterministic (sorted) order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|s| &**s)
    }

    /// Iterates `(name, value)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i32)> {
        self.field_names().zip(self.vals.iter().copied())
    }

    /// `(name, value)` pairs with the interned names themselves, for the
    /// layout module's by-name admission.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&Arc<str>, i32)> {
        self.names.iter().zip(self.vals.iter().copied())
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True if the packet has no fields.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Restricts the packet to the given fields (missing ones read as 0).
    ///
    /// Used when comparing pipeline output against the reference
    /// interpreter: compiler-introduced temporaries (SSA renames, flank
    /// reads) are not part of the observable result.
    pub fn project(&self, fields: &[String]) -> Packet {
        let mut out = Packet::new();
        for f in fields {
            out.set(f, self.get_or_zero(f));
        }
        out
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, i32)> for Packet {
    fn from_iter<T: IntoIterator<Item = (String, i32)>>(iter: T) -> Self {
        iter.into_iter().map(|(k, v)| (Arc::from(k), v)).collect()
    }
}

impl FromIterator<(Arc<str>, i32)> for Packet {
    /// Builds a packet around already-interned names, in any order; the
    /// last value given for a name wins. An iterator that is sorted by
    /// name (as the flat packet's emission is) is taken as it comes.
    fn from_iter<T: IntoIterator<Item = (Arc<str>, i32)>>(iter: T) -> Self {
        let mut fields: Vec<(Arc<str>, i32)> = iter.into_iter().collect();
        if !fields.is_sorted_by(|a, b| a.0 < b.0) {
            // Stable, so equal names stay in input order; of each run the
            // later entry is swapped into the kept place before it goes.
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            fields.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
        }
        let (names, vals) = fields.into_iter().unzip();
        Packet {
            names: intern(names),
            vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut p = Packet::new();
        p.set("a", 5);
        assert_eq!(p.get("a"), Some(5));
        assert_eq!(p.get("b"), None);
        assert_eq!(p.get_or_zero("b"), 0);
    }

    #[test]
    fn builder_chains() {
        let p = Packet::new().with("x", 1).with("y", -2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get("y"), Some(-2));
    }

    #[test]
    #[should_panic(expected = "read before any write")]
    fn expect_panics_on_missing_field() {
        Packet::new().expect("ghost");
    }

    #[test]
    fn project_restricts_and_zero_fills() {
        let p = Packet::new().with("a", 1).with("b", 2);
        let q = p.project(&["a".into(), "c".into()]);
        assert_eq!(q.get("a"), Some(1));
        assert_eq!(q.get("c"), Some(0));
        assert!(!q.has("b"));
    }

    #[test]
    fn display_is_deterministic() {
        let p = Packet::new().with("z", 3).with("a", 1);
        assert_eq!(p.to_string(), "{a: 1, z: 3}");
    }

    #[test]
    fn equality_ignores_which_allocation_a_name_lives_in() {
        let shared: Arc<str> = Arc::from("a");
        let p: Packet = [(Arc::clone(&shared), 1)].into_iter().collect();
        let q: Packet = [(shared, 1)].into_iter().collect();
        assert_eq!(p, Packet::new().with("a", 1));
        assert_eq!(p, q);
        assert_ne!(p, Packet::new().with("a", 2));
    }

    #[test]
    fn one_name_set_is_one_shape_however_the_packet_was_built() {
        use crate::layout::{FieldTable, FlatPacket, PacketEdges};
        let forward = Packet::new().with("a", 1).with("b", 2).with("c", 3);
        let backward = Packet::new().with("c", 3).with("b", 2).with("a", 1);
        let mut set = Packet::new();
        ["b", "c", "a"].into_iter().for_each(|f| set.set(f, 0));
        let pairs = [("c".to_string(), 3), ("a".into(), 1), ("b".into(), 2)];
        let collected: Packet = pairs.into_iter().collect();
        let mut table = FieldTable::new();
        ["c", "a", "b", "off"]
            .into_iter()
            .for_each(|f| _ = table.intern(f));
        let table = Arc::new(table);
        let mut flat = FlatPacket::from_packet(&forward, &table);
        let mut edges = PacketEdges::new(&table);
        let emitted = edges.emit(&flat, &[]);
        let moved = edges.emit_row(&mut flat, &[]);
        for p in [&backward, &set, &collected, &emitted, &moved] {
            assert!(std::ptr::eq(p.shape(), forward.shape()), "{p}");
        }
        assert_eq!((forward, emitted), (backward, moved));
    }

    #[test]
    fn shapes_grow_with_the_distinct_name_sets_not_with_the_packets() {
        // `codel_lut` on the map engine: a packet's header fields, then 61
        // temporaries set one by one, in program order (not name order).
        let temps: Vec<String> = (0..61).map(|i| format!("lut.t{}", (i * 37) % 61)).collect();
        // This test's shapes, counted in the process's interner (the other
        // tests, on other threads, intern names of their own).
        let interned = || {
            let interner = Interner::lock();
            let ours = |names: &&&[Arc<str>]| names.iter().any(|n| n.starts_with("lut."));
            interner.shapes.keys().filter(ours).count()
        };
        let pass = |shapes: &mut Vec<Shape>| {
            let mut p = Packet::new().with("sport", 1).with("dport", 2);
            for t in &temps {
                p.set(t, 7);
                shapes.push(p.shape());
            }
            p
        };
        let mut first = Vec::new();
        let p = pass(&mut first);
        assert_eq!(interned(), 61);
        let mut again = Vec::new();
        for _ in 0..10 {
            assert_eq!(pass(&mut again), p);
        }
        // Ten more packets took the first pass's 61 turns: every shape they
        // ended on is one the first made, so none was interned anew.
        assert_eq!(again.len(), 10 * first.len());
        for (i, shape) in again.iter().enumerate() {
            assert!(std::ptr::eq(*shape, first[i % first.len()]), "turn {i}");
        }
        assert_eq!(interned(), 61);
    }

    #[test]
    fn overwriting_a_field_keeps_latest() {
        let mut p = Packet::new();
        p.set("a", 1);
        p.set("a", 7);
        assert_eq!(p.get("a"), Some(7));
        assert_eq!(p.len(), 1);
    }
}
