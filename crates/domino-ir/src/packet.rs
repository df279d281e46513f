//! Packets as seen by the data plane: a bag of named 32-bit fields.
//!
//! Banzai does not model parsing (§2.2) — packets arrive already parsed,
//! as a header vector whose layout the *program* fixed. So the field names
//! belong to the program, not to the packet: a packet here is a **shape**
//! — its names, sorted, behind an `Arc` shared by every packet with the
//! same fields — plus a **row** of values in shape order. Fields cover
//! both real headers (`sport`, `dport`) and per-packet metadata/temporaries
//! introduced by the programmer (`id`) or by the compiler (SSA temps).
//!
//! A packet built field by field ([`Packet::with`]) takes **remembered
//! turns**, as SELF's maps and V8's hidden classes do: each thread keeps a
//! small table of shape transitions `(from shape, field) → (grown shape,
//! position)`, so every packet built by the same chain ends on the one
//! shape the first such packet made, and pays for its value row alone.
//! The table holds both shapes of every turn, so a tabled shape is always
//! shared and never grown in place — `Arc::make_mut` copies it — which
//! makes its address a sound key for as long as the turn is tabled. A set
//! is chosen by hashing the shape's *length* and the field, never the
//! address, so which lookups hit does not depend on where the allocator
//! put a shape. A thread holds at most 64 turns (16 sets of 4 ways), so
//! what the table alone keeps alive is at most 128 shapes, none wider than
//! a packet that was built on it.
//!
//! [`Packet::set`] does not consult the table: it is the execution hot
//! path, where the field is nearly always there already, and the packets
//! it grows are a program's temporaries, not a generator's repeated chain
//! (routing its inserts through the table read the scheduled-burst cost
//! ledger row 14% slower, most of it in page faults).

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The byte-wise sorted, duplicate-free names of a packet's fields, shared
/// between packets.
pub(crate) type Shape = Arc<Vec<Arc<str>>>;

/// A remembered turn: `from` grown by the name at `to[at]`.
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
        const { RefCell::new([const { [const { None }; WAYS] }; SETS]) };
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

/// A parsed packet: named 32-bit fields.
///
/// Observably an ordered map from name to value. Iteration is in
/// byte-wise name order — the shape is kept sorted — which keeps
/// simulation output and golden tests reproducible, and two packets are
/// equal iff they carry the same names and values, whichever allocation a
/// name or a shape lives in (shapes compare by pointer first, then by
/// content). What the representation buys is that names are stored once
/// per *shape*, not once per packet: cloning a packet, or materialising
/// one off a switch's layout (`PacketEdges::emit`), is one reference-count
/// bump plus one copy of the value row. Setting a field the packet does
/// not carry yet copies a shared shape first and grows an unshared one in
/// place; [`Packet::with`] takes the grown shape from a table instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    names: Shape,
    /// One value per name, in shape order.
    vals: Vec<i32>,
}

impl Default for Packet {
    /// An empty packet. Every one shares the process's one empty shape, so
    /// none after the first allocates.
    fn default() -> Self {
        static EMPTY: OnceLock<Shape> = OnceLock::new();
        Packet {
            names: Arc::clone(EMPTY.get_or_init(Shape::default)),
            vals: Vec::new(),
        }
    }
}

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
    pub(crate) fn shape(&self) -> &Shape {
        &self.names
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
    /// earlier packet made the same way — no scan, no name or shape
    /// allocated — and only its row grows, reserved once on the first
    /// insert; so rebuilding a chain of up to eight fields allocates once.
    /// A miss falls back to `set`'s overwrite or insert, and remembers an
    /// insert as a turn, evicting the oldest of its set.
    ///
    /// ```
    /// use domino_ir::Packet;
    /// let p = Packet::new().with("sport", 80).with("dport", 443);
    /// assert_eq!(p.get("sport"), Some(80));
    /// ```
    pub fn with(mut self, field: &str, value: i32) -> Self {
        let set = set_of(self.names.len(), field);
        let turn = TURNS.try_with(|turns| {
            let ways = &turns.borrow()[set];
            let mut taken = ways.iter().flatten();
            let hit = taken.find(|t| Arc::ptr_eq(&t.from, &self.names) && *t.to[t.at] == *field);
            hit.map(|t| (Arc::clone(&t.to), t.at))
        });
        let at = match turn.ok().flatten() {
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
                    // The kept `from` makes `make_mut` copy even a shape
                    // no other packet shares: a tabled shape is never grown.
                    let from = Arc::clone(&self.names);
                    Arc::make_mut(&mut self.names).insert(at, Arc::from(field));
                    let to = Arc::clone(&self.names);
                    let _ = TURNS.try_with(|turns| {
                        let ways = &mut turns.borrow_mut()[set];
                        ways.rotate_right(1);
                        ways[0] = Some(Turn { from, to, at });
                    });
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
        // touch neither the shape nor the allocator.
        match self.find(field) {
            Ok(at) => self.vals[at] = value,
            Err(at) => {
                Arc::make_mut(&mut self.names).insert(at, Arc::from(field));
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
            names: Arc::new(names),
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
    fn overwriting_a_field_keeps_latest() {
        let mut p = Packet::new();
        p.set("a", 1);
        p.set("a", 7);
        assert_eq!(p.get("a"), Some(7));
        assert_eq!(p.len(), 1);
    }
}
