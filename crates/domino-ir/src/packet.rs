//! Packets as seen by the data plane: a bag of named 32-bit fields.
//!
//! Banzai does not model parsing (§2.2) — packets arrive already parsed, so
//! a packet here is simply a map from field name to value. Fields cover
//! both real headers (`sport`, `dport`) and per-packet metadata/temporaries
//! introduced by the programmer (`id`) or by the compiler (SSA temps).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A parsed packet: named 32-bit fields.
///
/// A `BTreeMap` keeps iteration deterministic, which matters for
/// reproducible simulation output and golden tests. Names are interned
/// `Arc<str>`s: cloning a packet, or materialising one from a flat packet
/// (`FlatPacket::emit`), shares the keys instead of allocating one string
/// per field. Two packets are equal iff they carry the same names and
/// values, whichever allocation each name lives in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Packet {
    fields: BTreeMap<Arc<str>, i32>,
}

impl Packet {
    /// An empty packet.
    pub fn new() -> Self {
        Packet::default()
    }

    /// Builder-style field setter.
    ///
    /// ```
    /// use domino_ir::Packet;
    /// let p = Packet::new().with("sport", 80).with("dport", 443);
    /// assert_eq!(p.get("sport"), Some(80));
    /// ```
    pub fn with(mut self, field: &str, value: i32) -> Self {
        self.set(field, value);
        self
    }

    /// Sets a field (creating it if absent).
    pub fn set(&mut self, field: &str, value: i32) {
        // Overwrites are the common case in the execution hot path; avoid
        // allocating a fresh key for them.
        if let Some(slot) = self.fields.get_mut(field) {
            *slot = value;
        } else {
            self.fields.insert(Arc::from(field), value);
        }
    }

    /// Reads a field, `None` if the packet does not carry it.
    pub fn get(&self, field: &str) -> Option<i32> {
        self.fields.get(field).copied()
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
        self.fields.contains_key(field)
    }

    /// Iterates field names in deterministic (sorted) order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.keys().map(|s| &**s)
    }

    /// Iterates `(name, value)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i32)> {
        self.fields.iter().map(|(k, v)| (&**k, *v))
    }

    /// `(name, value)` pairs with the interned names themselves, for the
    /// layout module's admission edge.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&Arc<str>, i32)> {
        self.fields.iter().map(|(k, v)| (k, *v))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the packet has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
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
    /// Builds a packet around already-interned names. An iterator that is
    /// sorted by name (as the flat packet's emission is) takes the map's
    /// bulk-build path: no per-field tree search.
    fn from_iter<T: IntoIterator<Item = (Arc<str>, i32)>>(iter: T) -> Self {
        Packet {
            fields: iter.into_iter().collect(),
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
