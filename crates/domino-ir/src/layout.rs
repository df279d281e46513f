//! Compile-time field layout: interned fields, flat packets, flat state.
//!
//! The map-based [`Packet`] is the *semantic reference*: an ordered map
//! from field name to value, convenient and order-deterministic but
//! string-keyed on every access. Real switch pipelines resolve header
//! layouts at compile time — a PHV container is a fixed offset, not a
//! dictionary lookup. This module provides that layout-resolution step:
//!
//! * [`FieldTable`] — an interner assigning every packet field a dense
//!   [`FieldId`] (its PHV slot), keeping reverse names for diagnostics;
//! * [`FlatPacket`] — a fixed `i32` slab keyed by [`FieldId`], with a
//!   presence bitmask replicating the map packet's has/absent semantics;
//! * [`PacketEdges`] — the two crossings between those packet forms on
//!   one table, each memoised on the shape of the traffic it has seen;
//! * [`StateLayout`] / [`FlatState`] — every state variable resolved to a
//!   base offset into one flat register file (scalars take one slot,
//!   arrays `size` slots).
//!
//! The slot-compiled execution engine in `banzai` lowers atom pipelines
//! onto these layouts once, then executes packets with pure integer
//! indexing — no per-packet string hashing or tree walks. Differential
//! tests assert the fast path is bit-identical to the map path.
//!
//! Which shard owns which state is decided on these layouts too, in
//! [`crate::partition`].

use crate::packet::{Packet, Shape};
use crate::state::{StateStore, StateValue};
use domino_ast::{StateKind, StateVar};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A dense identifier for an interned packet field — the field's slot in a
/// [`FlatPacket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(u32);

impl FieldId {
    /// The slot index this id addresses.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw slot number.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot#{}", self.0)
    }
}

/// An interner mapping packet field names to dense [`FieldId`]s.
///
/// Slots are assigned in first-intern order, so a table built by walking a
/// pipeline deterministically is itself deterministic. The table keeps the
/// reverse mapping (`id → name`) so fast-path diagnostics can still name
/// the field — matching [`Packet::expect`]'s contract. Names are interned
/// `Arc<str>`s, shared with the shape of every map packet materialised off
/// the table ([`PacketEdges::emit`], [`FlatPacket::emit`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldTable {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl FieldTable {
    /// An empty table.
    pub fn new() -> Self {
        FieldTable::default()
    }

    /// Interns `name`, returning its (new or existing) [`FieldId`].
    pub fn intern(&mut self, name: &str) -> FieldId {
        if let Some(&id) = self.index.get(name) {
            return FieldId(id);
        }
        let id = self.names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.index.insert(name, id);
        FieldId(id)
    }

    /// Looks up an already-interned field.
    pub fn lookup(&self, name: &str) -> Option<FieldId> {
        self.index.get(name).copied().map(FieldId)
    }

    /// The name behind a [`FieldId`] (reverse mapping, for diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn name(&self, id: FieldId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned fields (== the slot count of a [`FlatPacket`]).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no field has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (FieldId(i as u32), &**n))
    }

    /// Every slot in **name order** — the order a map [`Packet`] iterates
    /// in. Computed once per table ([`PacketEdges`] keeps it) so that
    /// emission walks the fields already sorted.
    pub fn by_name(&self) -> Vec<FieldId> {
        let mut ids: Vec<FieldId> = (0..self.names.len() as u32).map(FieldId).collect();
        ids.sort_unstable_by(|a, b| self.names[a.index()].cmp(&self.names[b.index()]));
        ids
    }
}

impl fmt::Display for FieldTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, name) in self.iter() {
            writeln!(f, "{id} = pkt.{name}")?;
        }
        Ok(())
    }
}

/// The fields of an admitted packet its table does not name, in name order
/// (see [`FlatPacket::admit`]). Normally empty.
pub type Residual = Vec<(Arc<str>, i32)>;

/// Number of 64-bit words needed for a presence bitmask over `slots` slots.
fn mask_words(slots: usize) -> usize {
    slots.div_ceil(64)
}

/// A packet laid out flat: one `i32` per interned field plus a presence
/// bitmask.
///
/// Invariant: an absent slot always holds 0, so the hot path may read raw
/// slot values directly — `get_or_zero` semantics for free. Presence only
/// matters at the edges ([`FlatPacket::has`], [`FlatPacket::expect`],
/// [`FlatPacket::to_packet`]), exactly like uninitialized PHV containers in
/// a real pipeline reading as zero.
#[derive(Debug, Clone)]
pub struct FlatPacket {
    table: Arc<FieldTable>,
    vals: Box<[i32]>,
    present: Box<[u64]>,
}

impl FlatPacket {
    /// An empty packet over `table`'s layout (all slots absent).
    pub fn new(table: Arc<FieldTable>) -> Self {
        let slots = table.len();
        FlatPacket {
            table,
            vals: vec![0; slots].into_boxed_slice(),
            present: vec![0; mask_words(slots)].into_boxed_slice(),
        }
    }

    /// Converts a map packet onto `table`'s layout.
    ///
    /// Fields of `pkt` not present in the table are *not* representable and
    /// are skipped; callers that must preserve pass-through fields keep the
    /// original packet and merge written slots back (see the slot engine),
    /// or flatten with [`FlatPacket::admit`], which hands them back.
    pub fn from_packet(pkt: &Packet, table: &Arc<FieldTable>) -> Self {
        let mut flat = FlatPacket::new(Arc::clone(table));
        for (name, value) in pkt.iter() {
            if let Some(id) = table.lookup(name) {
                flat.set(id, value);
            }
        }
        flat
    }

    /// Flattens a map packet **without losing anything**: fields `table`
    /// names land in their slots, the rest come back as the [`Residual`]
    /// (name-sorted, sharing the packet's interned names) for
    /// [`FlatPacket::emit`] to put back. One [`FieldTable::lookup`] per
    /// field: the by-name reference of [`PacketEdges::admit_into`].
    pub fn admit(pkt: &Packet, table: &Arc<FieldTable>) -> (FlatPacket, Residual) {
        let mut admitted = (FlatPacket::new(Arc::clone(table)), Residual::new());
        admitted.0.refill(pkt, &mut admitted.1);
        admitted
    }

    /// [`FlatPacket::admit`] into this packet and `residual`, whatever they
    /// held before.
    fn refill(&mut self, pkt: &Packet, residual: &mut Residual) {
        self.clear();
        residual.clear();
        for (name, value) in pkt.entries() {
            match self.table.lookup(name) {
                Some(id) => self.set(id, value),
                None => residual.push((Arc::clone(name), value)),
            }
        }
    }

    /// Empties the packet so its allocation can carry another: every slot
    /// absent and — the invariant — zero.
    pub fn clear(&mut self) {
        self.vals.fill(0);
        self.present.fill(0);
    }

    /// Materialises the map packet: every present slot plus `residual`,
    /// merged into one run in **name order** (the order a map [`Packet`]
    /// iterates in), a fresh shape around the table's interned names — the
    /// by-name reference of [`PacketEdges::emit`], and the way out of a
    /// slab with a residual.
    ///
    /// `by_name` must be this table's [`FieldTable::by_name`] and
    /// `residual` name-sorted (as [`FlatPacket::admit`] returns it).
    pub fn emit(&self, by_name: &[FieldId], residual: &[(Arc<str>, i32)]) -> Packet {
        debug_assert_eq!(by_name.len(), self.vals.len());
        let mut fields = Vec::with_capacity(by_name.len() + residual.len());
        let mut rest = residual.iter().cloned().peekable();
        for &id in by_name {
            if !self.has(id) {
                continue;
            }
            let name = &self.table.names[id.index()];
            while let Some(r) = rest.next_if(|(r, _)| r < name) {
                fields.push(r);
            }
            fields.push((Arc::clone(name), self.vals[id.index()]));
        }
        fields.extend(rest);
        fields.into_iter().collect()
    }

    /// The layout this packet is keyed by.
    pub fn table(&self) -> &Arc<FieldTable> {
        &self.table
    }

    /// Reads a slot, `None` if no write has marked it present.
    pub fn get(&self, id: FieldId) -> Option<i32> {
        if self.has(id) {
            Some(self.vals[id.index()])
        } else {
            None
        }
    }

    /// Reads a slot, absent slots read as 0 (the hot-path read).
    #[inline]
    pub fn get_or_zero(&self, id: FieldId) -> i32 {
        self.vals[id.index()]
    }

    /// Reads a slot that the execution model guarantees was written.
    ///
    /// # Panics
    ///
    /// Panics with the *field name* (via the table's reverse mapping), not
    /// a bare slot index — same contract as [`Packet::expect`]: a missing
    /// field is a compiler bug and the diagnostic must name it.
    pub fn expect(&self, id: FieldId) -> i32 {
        match self.get(id) {
            Some(v) => v,
            None => panic!(
                "internal error: packet field `{}` ({id}) read before any write; \
                 fields present: [{}]",
                self.table.name(id),
                self.field_names().collect::<Vec<_>>().join(", ")
            ),
        }
    }

    /// True if the slot has been written.
    #[inline]
    pub fn has(&self, id: FieldId) -> bool {
        let i = id.index();
        self.present[i / 64] >> (i % 64) & 1 == 1
    }

    /// Writes a slot and marks it present.
    #[inline]
    pub fn set(&mut self, id: FieldId, value: i32) {
        let i = id.index();
        self.vals[i] = value;
        self.present[i / 64] |= 1 << (i % 64);
    }

    /// Raw value slab (hot-path accessor for the slot engine). Writes via
    /// this slice do *not* update presence; the engine restores the
    /// invariant by OR-ing its static written-slot mask afterwards.
    #[inline]
    pub fn slots_mut(&mut self) -> &mut [i32] {
        &mut self.vals
    }

    /// Raw value slab (read side).
    #[inline]
    pub fn slots(&self) -> &[i32] {
        &self.vals
    }

    /// OR-s a precomputed presence mask into this packet (the engine's
    /// static set of written slots; statements are straight-line, so the
    /// written set per pipeline is a compile-time constant).
    #[inline]
    pub fn mark_present(&mut self, mask: &[u64]) {
        debug_assert_eq!(mask.len(), self.present.len());
        for (word, m) in self.present.iter_mut().zip(mask) {
            *word |= m;
        }
    }

    /// Names of present fields, in slot order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.table
            .iter()
            .filter(|(id, _)| self.has(*id))
            .map(|(_, n)| n)
    }

    /// Converts back to a map packet (present fields only).
    pub fn to_packet(&self) -> Packet {
        self.table
            .iter()
            .filter(|(id, _)| self.has(*id))
            .map(|(id, _)| {
                let name = Arc::clone(&self.table.names[id.index()]);
                (name, self.vals[id.index()])
            })
            .collect()
    }
}

impl PartialEq for FlatPacket {
    /// Two flat packets are equal when they agree on layout, presence, and
    /// every present value (tables compare by content, so packets from two
    /// identical lowerings compare equal).
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.table, &other.table) || self.table == other.table)
            && self.present == other.present
            && self.vals == other.vals
    }
}

impl Eq for FlatPacket {}

/// One memoised crossing between the two packet forms: map packets of
/// `shape` ↔ slabs whose presence mask is `present`, the row's `i`-th value
/// living in slot `slots[i]`. An emission memo also keeps that gather as
/// swaps within the row, for [`PacketEdges::emit_row`] to move it.
#[derive(Debug, Clone)]
struct Crossing {
    shape: Shape,
    slots: Vec<FieldId>,
    present: Box<[u64]>,
    swaps: Vec<usize>,
}

/// Both map ↔ slab edges of one field table: **admission** (a map
/// [`Packet`] lands on a slab) and **emission** (a slab leaves as a map
/// packet), each remembering the last crossing it made. There is one
/// admission, into a record the caller hands over (new or spent), and one
/// emission memo, read by both emissions: [`PacketEdges::emit`] copies the
/// row out, [`PacketEdges::emit_row`] moves it.
///
/// A program fixes its packets' layout, so the traffic of one switch has
/// — as a rule — one input name set and one departure presence mask. The
/// by-name merges ([`FlatPacket::admit`], [`FlatPacket::emit`]) re-derive
/// the same slot list from the names of every packet; the edges derive it
/// once. Admission keeps `shape → (slots, presence)` and scatters the
/// value row of any packet whose names match (the same allocation, or
/// equal content) with no [`FieldTable::lookup`] per field; emission
/// keeps `presence → (shape, slots)` and gathers a row behind the shared
/// shape. What a memo cannot describe takes the by-name path, which is
/// also the reference the memo is tested against: a packet naming a field
/// off the table, a slab with a residual. Which path runs is decided by
/// the packet in hand alone.
#[derive(Debug, Clone)]
pub struct PacketEdges {
    table: Arc<FieldTable>,
    by_name: Vec<FieldId>,
    admitted: Option<Crossing>,
    emitted: Option<Crossing>,
}

impl PacketEdges {
    /// The edges of `table`, nothing remembered yet. A table that grows
    /// needs new edges: slabs, masks and slot lists are sized by it.
    pub fn new(table: &Arc<FieldTable>) -> Self {
        PacketEdges {
            table: Arc::clone(table),
            by_name: table.by_name(),
            admitted: None,
            emitted: None,
        }
    }

    /// The table whose edges these are.
    pub fn table(&self) -> &Arc<FieldTable> {
        &self.table
    }

    /// The remembered crossing for packets of `pkt`'s shape, re-derived if
    /// the last packet had another; `None` if `pkt` names a field off the
    /// table, which no memo describes.
    fn admitting(&mut self, pkt: &Packet) -> Option<&Crossing> {
        match &mut self.admitted {
            Some(memo) if memo.shape == *pkt.shape() => {}
            miss => {
                let table = &self.table;
                let slots = pkt.field_names().map(|name| table.lookup(name));
                let slots = slots.collect::<Option<Vec<FieldId>>>()?;
                let mut marked = FlatPacket::new(Arc::clone(table));
                slots.iter().for_each(|id| marked.set(*id, 0));
                *miss = Some(Crossing {
                    shape: Arc::clone(pkt.shape()),
                    slots,
                    present: marked.present,
                    swaps: Vec::new(),
                });
            }
        }
        self.admitted.as_ref()
    }

    /// **Admission** — [`FlatPacket::admit`]'s result, by the remembered
    /// scatter whenever every name of `pkt` is on the table, written
    /// **into** a record of this table: `flat` and `residual` are
    /// overwritten where they lie, whatever they held and whichever path
    /// runs, and keep their allocations — but for a row
    /// [`PacketEdges::emit_row`] moved out, which is made anew. A new
    /// record is [`FlatPacket::new`] and an empty [`Residual`].
    pub fn admit_into(&mut self, pkt: &Packet, flat: &mut FlatPacket, residual: &mut Residual) {
        if flat.vals.len() != self.by_name.len() {
            flat.vals = vec![0; self.by_name.len()].into_boxed_slice();
        }
        let Some(memo) = self.admitting(pkt) else {
            return flat.refill(pkt, residual);
        };
        flat.vals.fill(0);
        for (id, value) in memo.slots.iter().zip(pkt.vals()) {
            flat.vals[id.index()] = *value;
        }
        flat.present.copy_from_slice(&memo.present);
        residual.clear();
    }

    /// **Emission** — [`FlatPacket::emit`]'s result, by the remembered
    /// gather whenever `residual` is empty. `flat` lies on this table.
    pub fn emit(&mut self, flat: &FlatPacket, residual: &[(Arc<str>, i32)]) -> Packet {
        if !residual.is_empty() {
            return flat.emit(&self.by_name, residual);
        }
        let memo = self.emitting(flat);
        let vals = memo.slots.iter().map(|id| flat.vals[id.index()]);
        Packet::from_shape(Arc::clone(&memo.shape), vals.collect())
    }

    /// [`PacketEdges::emit`], **moving** the slab's value row into the
    /// packet instead of copying it: the row is gathered in place into
    /// name order and handed over, and `flat` is left without one — only
    /// [`PacketEdges::admit_into`] may take it again, and gives it a new
    /// row. A slab with a residual takes the by-name path and keeps its row.
    pub fn emit_row(&mut self, flat: &mut FlatPacket, residual: &[(Arc<str>, i32)]) -> Packet {
        if !residual.is_empty() {
            return flat.emit(&self.by_name, residual);
        }
        let memo = self.emitting(flat);
        for (i, &j) in memo.swaps.iter().enumerate() {
            flat.vals.swap(i, j);
        }
        let mut row = std::mem::take(&mut flat.vals).into_vec();
        row.truncate(memo.slots.len());
        Packet::from_shape(Arc::clone(&memo.shape), row)
    }

    /// The remembered crossing for slabs of `flat`'s presence mask,
    /// re-derived if the last slab had another: one memo for both
    /// emissions, whose swaps only [`PacketEdges::emit_row`] reads.
    fn emitting(&mut self, flat: &FlatPacket) -> &Crossing {
        debug_assert_eq!(flat.vals.len(), self.by_name.len());
        let stale = |memo: &Crossing| memo.present != flat.present;
        if self.emitted.as_ref().is_some_and(stale) {
            self.emitted = None;
        }
        self.emitted.get_or_insert_with(|| {
            let present = |id: &FieldId| flat.has(*id);
            let slots: Vec<FieldId> = self.by_name.iter().copied().filter(present).collect();
            let names = slots.iter().map(|id| &self.table.names[id.index()]);
            // Place `i` takes slot `slots[i]` — or, where an earlier swap
            // moved that value out, wherever the swaps sent it.
            let chase = |i: usize| {
                let mut j = slots[i].index();
                while j < i {
                    j = slots[j].index();
                }
                j
            };
            Crossing {
                shape: Arc::new(names.cloned().collect()),
                swaps: (0..slots.len()).map(chase).collect(),
                slots,
                present: flat.present.clone(),
            }
        })
    }
}

/// Where one state variable lives in the flat register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSlot {
    /// The variable's name (kept for diagnostics and state export).
    pub name: String,
    /// First slot of the variable in the register file.
    pub base: u32,
    /// Number of slots (1 for a scalar, the array size otherwise).
    pub len: u32,
    /// True if the variable is a register array.
    pub is_array: bool,
    /// Initial value of every slot.
    pub init: i32,
}

/// The compile-time layout of all state variables: each resolved to a base
/// offset into one flat `i32` register file, in declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateLayout {
    entries: Vec<StateSlot>,
    total: u32,
}

impl StateLayout {
    /// Builds the layout from checked state declarations.
    pub fn from_decls(decls: &[StateVar]) -> Self {
        let mut entries = Vec::with_capacity(decls.len());
        let mut total = 0u32;
        for d in decls {
            let (len, is_array) = match d.kind {
                StateKind::Scalar => (1, false),
                StateKind::Array { size } => (size, true),
            };
            entries.push(StateSlot {
                name: d.name.clone(),
                base: total,
                len,
                is_array,
                init: d.init,
            });
            total += len;
        }
        StateLayout { entries, total }
    }

    /// The layout entry for a variable, if declared.
    pub fn slot(&self, name: &str) -> Option<&StateSlot> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Total register-file slots.
    pub fn total_slots(&self) -> usize {
        self.total as usize
    }

    /// All entries in declaration (base-offset) order.
    pub fn entries(&self) -> &[StateSlot] {
        &self.entries
    }
}

impl fmt::Display for StateLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            if e.is_array {
                writeln!(
                    f,
                    "state[{}..{}] = {}[{}]",
                    e.base,
                    e.base + e.len,
                    e.name,
                    e.len
                )?;
            } else {
                writeln!(f, "state[{}] = {}", e.base, e.name)?;
            }
        }
        Ok(())
    }
}

/// All state variables of a program as one flat register file.
///
/// Array indexing wraps modulo the array size with the same `rem_euclid`
/// rule as [`StateStore`] — the two representations are observably
/// identical, which [`FlatState::export`] lets tests assert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatState {
    layout: StateLayout,
    slots: Box<[i32]>,
}

impl FlatState {
    /// Initializes the register file from a layout (every slot of a
    /// variable starts at the variable's initializer).
    pub fn new(layout: StateLayout) -> Self {
        let mut slots = vec![0; layout.total_slots()].into_boxed_slice();
        for e in layout.entries() {
            for s in &mut slots[e.base as usize..(e.base + e.len) as usize] {
                *s = e.init;
            }
        }
        FlatState { layout, slots }
    }

    /// The layout this register file was built from.
    pub fn layout(&self) -> &StateLayout {
        &self.layout
    }

    /// Reads the scalar at `base`.
    #[inline]
    pub fn read(&self, base: u32) -> i32 {
        self.slots[base as usize]
    }

    /// Writes the scalar at `base`.
    #[inline]
    pub fn write(&mut self, base: u32, value: i32) {
        self.slots[base as usize] = value;
    }

    /// Reads an array element (index reduced modulo `len`, like a hardware
    /// address decoder — identical to [`StateStore`]'s rule).
    #[inline]
    pub fn read_array(&self, base: u32, len: u32, index: i32) -> i32 {
        self.slots[base as usize + Self::wrap(index, len)]
    }

    /// Writes an array element (index reduced modulo `len`).
    #[inline]
    pub fn write_array(&mut self, base: u32, len: u32, index: i32, value: i32) {
        self.slots[base as usize + Self::wrap(index, len)] = value;
    }

    /// An index already inside the window — every index a program reduced
    /// with `% N` itself — is taken without dividing.
    #[inline]
    fn wrap(index: i32, len: u32) -> usize {
        if index >= 0 && (index as u32) < len {
            index as usize
        } else {
            (index as i64).rem_euclid(len as i64) as usize
        }
    }

    /// Imports variables from a map snapshot — the inverse of
    /// [`FlatState::export`], used to warm-start a partition from a serial
    /// checkpoint.
    ///
    /// Variables of the snapshot missing from this layout, or arrays whose
    /// sizes disagree, indicate a partitioning bug upstream.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot variable is unknown to the layout or has the
    /// wrong kind/size.
    pub fn import(&mut self, snapshot: &StateStore) {
        for (name, value) in snapshot.iter() {
            let (base, len, is_array) = {
                let e = self
                    .layout
                    .slot(name)
                    .unwrap_or_else(|| panic!("internal error: unknown state variable `{name}`"));
                (e.base as usize, e.len as usize, e.is_array)
            };
            match value {
                StateValue::Scalar(v) if !is_array => self.slots[base] = *v,
                StateValue::Array(vs) if is_array && vs.len() == len => {
                    self.slots[base..base + len].copy_from_slice(vs);
                }
                _ => panic!("internal error: state variable `{name}` has the wrong shape"),
            }
        }
    }

    /// Exports the register file as a map-based [`StateStore`] for
    /// comparison against the reference path.
    pub fn export(&self) -> StateStore {
        let mut store = StateStore::new();
        for e in self.layout.entries() {
            let window = &self.slots[e.base as usize..(e.base + e.len) as usize];
            if e.is_array {
                store.insert_array(&e.name, e.len as usize, 0);
                // insert_array fills with one init value; overwrite with
                // the live contents.
                for (i, v) in window.iter().enumerate() {
                    store.write_array(&e.name, i as i32, *v);
                }
            } else {
                store.insert_scalar(&e.name, window[0]);
            }
        }
        store
    }
}

impl fmt::Display for FlatState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.export())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::mix64;

    fn table_abc() -> Arc<FieldTable> {
        let mut t = FieldTable::new();
        t.intern("a");
        t.intern("b");
        t.intern("c");
        Arc::new(t)
    }

    /// [`PacketEdges::admit_into`] a new record.
    fn admit(edges: &mut PacketEdges, pkt: &Packet) -> (FlatPacket, Residual) {
        let mut record = (FlatPacket::new(Arc::clone(edges.table())), Residual::new());
        edges.admit_into(pkt, &mut record.0, &mut record.1);
        record
    }

    #[test]
    fn interning_is_dense_and_idempotent() {
        let mut t = FieldTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(t.intern("a"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a), "a");
        assert_eq!(t.lookup("b"), Some(b));
        assert_eq!(t.lookup("ghost"), None);
    }

    #[test]
    fn flat_packet_roundtrips_through_map_packet() {
        let table = table_abc();
        let pkt = Packet::new().with("a", 5).with("c", -2);
        let flat = FlatPacket::from_packet(&pkt, &table);
        assert_eq!(flat.get(table.lookup("a").unwrap()), Some(5));
        assert_eq!(flat.get(table.lookup("b").unwrap()), None);
        assert_eq!(flat.get_or_zero(table.lookup("b").unwrap()), 0);
        assert_eq!(flat.to_packet(), pkt);
    }

    #[test]
    fn admit_then_emit_loses_nothing_and_keeps_name_order() {
        // Slot order (c, a) differs from name order, and the residual
        // straddles the table's names on both sides and in the middle.
        let mut t = FieldTable::new();
        t.intern("c");
        t.intern("a");
        t.intern("unset");
        let table = Arc::new(t);
        let pkt = Packet::new()
            .with("0early", 1)
            .with("a", 2)
            .with("b", 3)
            .with("c", 4)
            .with("z", 5);
        let (mut flat, residual) = FlatPacket::admit(&pkt, &table);
        let names: Vec<&str> = residual.iter().map(|(n, _)| &**n).collect();
        assert_eq!(names, ["0early", "b", "z"]);
        assert_eq!(flat.emit(&table.by_name(), &residual), pkt);
        // A slot written in flight shows up in its sorted position; an
        // absent one stays out.
        flat.set(table.lookup("a").unwrap(), 9);
        let out = flat.emit(&table.by_name(), &residual);
        assert_eq!(out.to_string(), "{0early: 1, a: 9, b: 3, c: 4, z: 5}");
        assert!(!out.has("unset"));
    }

    /// The in-place gather is a permutation problem: every slot order of
    /// five names, every presence subset, against the copying emission —
    /// and the rowless record it leaves is admitted into like any other.
    #[test]
    fn emit_row_gathers_in_place_for_every_slot_order_and_presence() {
        fn orders(names: Vec<&'static str>) -> Vec<Vec<&'static str>> {
            if names.len() <= 1 {
                return vec![names];
            }
            let mut all = Vec::new();
            for i in 0..names.len() {
                let mut rest = names.clone();
                let first = rest.remove(i);
                for mut tail in orders(rest) {
                    tail.insert(0, first);
                    all.push(tail);
                }
            }
            all
        }
        for order in orders(vec!["a", "b", "c", "d", "e"]) {
            let mut t = FieldTable::new();
            for name in &order {
                t.intern(name);
            }
            let table = Arc::new(t);
            let mut edges = PacketEdges::new(&table);
            for subset in 0..32u32 {
                let pkt = (order.iter().enumerate())
                    .filter(|(i, _)| subset >> i & 1 == 1)
                    .fold(Packet::new(), |p, (i, name)| p.with(name, 10 + i as i32));
                let (mut flat, residual) = admit(&mut edges, &pkt);
                // Either emission may meet a mask first and make its memo.
                let copied = if subset % 2 == 0 {
                    edges.emit(&flat, &residual)
                } else {
                    edges.emit_row(&mut flat.clone(), &residual)
                };
                assert_eq!(copied, pkt, "{order:?} {subset:#b}");
                assert_eq!(edges.emit_row(&mut flat, &residual), copied);
                assert!(flat.slots().is_empty(), "the row left with the packet");
                let fresh = admit(&mut edges, &pkt).0;
                assert_eq!(edges.emit(&fresh, &residual), copied, "after a move");
                let mut rest = Residual::new();
                edges.admit_into(&pkt, &mut flat, &mut rest);
                assert_eq!((flat, rest), FlatPacket::admit(&pkt, &table));
            }
        }
        // A residual keeps the row where it is: the by-name path copies.
        let table = table_abc();
        let mut edges = PacketEdges::new(&table);
        let (mut flat, residual) = admit(&mut edges, &Packet::new().with("a", 1).with("off", 2));
        assert_eq!(edges.emit_row(&mut flat, &residual).get("off"), Some(2));
        assert_eq!(flat.slots().len(), 3);
    }

    #[test]
    fn absent_slots_read_zero_until_masked_present() {
        let table = table_abc();
        let mut flat = FlatPacket::new(Arc::clone(&table));
        let b = table.lookup("b").unwrap();
        flat.slots_mut()[b.index()] = 7; // raw engine write, no presence
        assert!(!flat.has(b));
        assert_eq!(flat.get_or_zero(b), 7);
        let mut mask = vec![0u64; 1];
        mask[0] |= 1 << b.index();
        flat.mark_present(&mask);
        assert!(flat.has(b));
        assert_eq!(flat.to_packet().get("b"), Some(7));
    }

    #[test]
    #[should_panic(expected = "packet field `b` (slot#1) read before any write")]
    fn expect_panics_with_field_name_not_bare_index() {
        let table = table_abc();
        let mut flat = FlatPacket::new(Arc::clone(&table));
        flat.set(table.lookup("a").unwrap(), 1);
        flat.expect(table.lookup("b").unwrap());
    }

    #[test]
    fn state_layout_assigns_contiguous_bases() {
        let decls = vec![
            StateVar {
                name: "c".into(),
                kind: StateKind::Scalar,
                init: 7,
            },
            StateVar {
                name: "arr".into(),
                kind: StateKind::Array { size: 4 },
                init: -1,
            },
            StateVar {
                name: "d".into(),
                kind: StateKind::Scalar,
                init: 0,
            },
        ];
        let layout = StateLayout::from_decls(&decls);
        assert_eq!(layout.total_slots(), 6);
        assert_eq!(layout.slot("c").unwrap().base, 0);
        assert_eq!(layout.slot("arr").unwrap().base, 1);
        assert_eq!(layout.slot("arr").unwrap().len, 4);
        assert_eq!(layout.slot("d").unwrap().base, 5);
        assert!(layout.slot("ghost").is_none());
    }

    #[test]
    fn flat_state_matches_state_store_semantics() {
        let decls = vec![
            StateVar {
                name: "c".into(),
                kind: StateKind::Scalar,
                init: 7,
            },
            StateVar {
                name: "arr".into(),
                kind: StateKind::Array { size: 4 },
                init: -1,
            },
        ];
        let mut flat = FlatState::new(StateLayout::from_decls(&decls));
        let mut store = StateStore::from_decls(&decls);

        let arr = flat.layout().slot("arr").unwrap().clone();
        let c = flat.layout().slot("c").unwrap().clone();
        assert_eq!(flat.read(c.base), 7);
        flat.write(c.base, 42);
        store.write_scalar("c", 42);
        // Wrapping behaviour must match rem_euclid on both sides.
        for idx in [0, 2, 6, -1] {
            flat.write_array(arr.base, arr.len, idx, 10 + idx);
            store.write_array("arr", idx, 10 + idx);
        }
        assert_eq!(flat.export(), store);
    }

    #[test]
    fn wrap_equals_rem_euclid_on_the_corner_grid_and_at_random() {
        const CORNERS: [i32; 9] = [
            i32::MIN,
            i32::MIN + 1,
            -2,
            -1,
            0,
            1,
            2,
            i32::MAX - 1,
            i32::MAX,
        ];
        const LENS: [u32; 9] = [
            1,
            2,
            3,
            10,
            8000,
            1 << 16,
            1 << 30,
            i32::MAX as u32,
            1 << 31,
        ];
        let check = |index: i32, len: u32| {
            let want = (index as i64).rem_euclid(len as i64) as usize;
            assert_eq!(FlatState::wrap(index, len), want, "wrap({index}, {len})");
        };
        for index in CORNERS {
            for len in LENS {
                check(index, len);
                check(len as i32, len); // one past the window, and 2³¹ as i32::MIN
                check((len - 1) as i32, len);
            }
        }
        // Seeded pairs of every magnitude: both sides shifted by a drawn amount.
        for seed in 0..100_000u64 {
            let (a, b) = (mix64(seed), mix64(!seed));
            check(
                a as i32 >> (b & 31),
                ((b >> 32) as u32 >> (b >> 5 & 31)).max(1),
            );
        }
    }

    #[test]
    fn flat_state_import_roundtrips_export() {
        let decls = vec![
            StateVar {
                name: "c".into(),
                kind: StateKind::Scalar,
                init: 7,
            },
            StateVar {
                name: "arr".into(),
                kind: StateKind::Array { size: 4 },
                init: -1,
            },
        ];
        let mut a = FlatState::new(StateLayout::from_decls(&decls));
        a.write(0, 42);
        a.write_array(1, 4, 3, 9);
        let mut b = FlatState::new(StateLayout::from_decls(&decls));
        b.import(&a.export());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unknown state variable `ghost`")]
    fn flat_state_import_rejects_unknown_variables() {
        let mut flat = FlatState::new(StateLayout::from_decls(&[]));
        let mut snap = StateStore::new();
        snap.insert_scalar("ghost", 1);
        flat.import(&snap);
    }

    #[test]
    fn flat_packet_equality_compares_layout_and_contents() {
        let table = table_abc();
        let p1 = FlatPacket::from_packet(&Packet::new().with("a", 1), &table);
        let p2 = FlatPacket::from_packet(&Packet::new().with("a", 1), &table);
        let p3 = FlatPacket::from_packet(&Packet::new().with("a", 2), &table);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        // Same content, different (but equal) table instances.
        let other = Arc::new((*table).clone());
        let p4 = FlatPacket::from_packet(&Packet::new().with("a", 1), &other);
        assert_eq!(p1, p4);
    }
}
