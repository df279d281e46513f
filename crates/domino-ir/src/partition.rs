//! Shard-partitionability: how a program's state splits across parallel
//! shards, decided on its [`StateLayout`].
//!
//! [`StateLayout::flow_key`] inspects how a program indexes its state and,
//! when every access goes through one packet-derived index field, extracts
//! a [`FlowKeySpec`] — the RSS-style steering rule under which per-shard
//! execution is bit-identical to serial execution (see `banzai::shard`).
//! Failing that, when every update is a commutative fold, it extracts a
//! [`ReplicaSpec`]: full per-shard replicas that merge back elementwise.

use crate::layout::StateLayout;
use crate::packet::Packet;
use crate::state::StateStore;
use crate::tac::{Operand, StateRef, TacRhs, TacStmt};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// How a program's state indexing partitions across parallel shards.
///
/// Extracted by [`StateLayout::flow_key`]. `Keyed` is the software
/// analogue of the paper's stateful-atom locality argument: all persistent
/// state is per-flow (indexed by one packet-derived key), so flows can be
/// steered to independent shards with no cross-shard coordination — the
/// same partitioning RSS NICs and multi-pipeline P4 targets rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitionability {
    /// The program touches no persistent state: any flow-consistent
    /// steering reproduces serial execution.
    Stateless,
    /// Every state access is an array access through one common index
    /// field; the extracted spec steers packets so that packets that can
    /// touch the same state slot always land on the same shard.
    Keyed(FlowKeySpec),
    /// State is not exactly partitionable, but every update is a
    /// commutative fold (increments / constant stores into hashed
    /// arrays): each shard runs a full replica and the replicas merge
    /// elementwise — serial state is reproduced bit for bit, per-packet
    /// sketch reads keep only the sketch's own (ε, δ) contract.
    Replicable(ReplicaSpec),
}

impl fmt::Display for Partitionability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partitionability::Stateless => {
                writeln!(
                    f,
                    "stateless: no persistent state, any flow steering is sound"
                )
            }
            Partitionability::Keyed(spec) => write!(f, "{spec}"),
            Partitionability::Replicable(spec) => write!(f, "{spec}"),
        }
    }
}

/// The flow key a shard-partitionable program steers by.
///
/// Invariant (established by [`StateLayout::flow_key`]): two packets that
/// can read or write a common state slot have equal keys. The key is the
/// program's own array-index value reduced modulo the gcd of every
/// accessed array's size — equal slots imply congruent indices, congruent
/// indices imply equal keys — and it is computed by a *stateless*
/// straight-line slice of the program, so a dispatcher can evaluate it
/// before any pipeline runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowKeySpec {
    /// Stateless slice computing `key_field` from input fields, in
    /// program order.
    stmts: Vec<TacStmt>,
    /// The common index field whose value (mod `modulus`) is the key.
    key_field: String,
    /// gcd of the sizes of every array the program indexes.
    modulus: u32,
    /// Input fields the key depends on (the slice's free variables).
    roots: Vec<String>,
}

impl FlowKeySpec {
    /// The field whose value the key is derived from.
    pub fn key_field(&self) -> &str {
        &self.key_field
    }

    /// Number of key classes (gcd of all accessed array sizes).
    pub fn modulus(&self) -> u32 {
        self.modulus
    }

    /// The input fields the key depends on.
    pub fn roots(&self) -> &[String] {
        &self.roots
    }

    /// The stateless slice that computes the key field.
    pub fn stmts(&self) -> &[TacStmt] {
        &self.stmts
    }

    /// Evaluates the key of an input packet by running the stateless slice
    /// and reducing the key field modulo [`FlowKeySpec::modulus`].
    ///
    /// This is the **by-name reference**: only the root fields are copied
    /// into a fresh scratch map packet, and the slice is interpreted on
    /// it. `banzai`'s sharded dispatcher does not call it per packet — it
    /// lowers the slice onto its switch's slot layout, like an execution
    /// engine's program, and evaluates it on the admitted slab — and the
    /// sharding suites hold the two to the same key on every packet.
    pub fn key_of(&self, pkt: &Packet) -> u32 {
        let key = slice_value(&self.stmts, &self.roots, &self.key_field, pkt);
        (key as i64).rem_euclid(self.modulus as i64) as u32
    }

    /// The shard an input packet steers to.
    pub fn shard_of(&self, pkt: &Packet, shards: usize) -> usize {
        FlowKeySpec::shard_of_class(self.key_of(pkt), shards)
    }

    /// The shard that owns a key class. Array slot `k` of any accessed
    /// array belongs to class `k % modulus`, so this is also the state
    /// partition: only the owning shard ever touches that slot.
    pub fn shard_of_class(class: u32, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        (mix64(class as u64) % shards as u64) as usize
    }
}

impl fmt::Display for FlowKeySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "flow key = pkt.{} mod {}", self.key_field, self.modulus)?;
        writeln!(f, "roots: {}", self.roots.join(", "))?;
        if !self.stmts.is_empty() {
            writeln!(f, "slice:")?;
            for s in &self.stmts {
                writeln!(f, "  {s}")?;
            }
        }
        Ok(())
    }
}

/// What a stateless slice leaves in `field` for an input packet: a fresh
/// scratch packet is seeded with the `roots` the input carries and the
/// slice interpreted on it.
fn slice_value(stmts: &[TacStmt], roots: &[String], field: &str, pkt: &Packet) -> i32 {
    let mut scratch = Packet::new();
    for root in roots {
        if let Some(v) = pkt.get(root) {
            scratch.set(root, v);
        }
    }
    // The slice is stateless by construction; the store is never read.
    let mut no_state = StateStore::new();
    for stmt in stmts {
        crate::interp::exec_tac_stmt(stmt, &mut no_state, &mut scratch);
    }
    scratch.get_or_zero(field)
}

/// The elementwise fold that reconciles per-shard replicas of one state
/// array back into the serial array (see [`ReplicaSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// `merged[k] = init + Σ_shard (replica[k] − init)`, wrapping like the
    /// interpreter's `+`. Sound when every write is `slot = slot + δ` with
    /// a state-independent δ: addition commutes and associates, so
    /// splitting the trace across replicas and summing the per-replica
    /// displacements reproduces the serial array bit for bit.
    Sum,
    /// `merged[k] = max over shards of replica[k]`. Sound when every write
    /// stores one constant `c ≥ init` (membership bits): a slot holds `c`
    /// exactly when some shard stored it, on any split of the trace.
    Max,
}

impl fmt::Display for MergeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeOp::Sum => write!(f, "sum"),
            MergeOp::Max => write!(f, "max"),
        }
    }
}

/// One mergeable state array of a [`ReplicaSpec`]: its geometry, merge
/// op, and the stateless slices recovering the per-packet slot index and
/// update value — what the statistical differential harness replays to
/// compute exact per-key masses without re-running the program.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaArray {
    name: String,
    len: u32,
    init: i32,
    merge: MergeOp,
    /// Stateless slice computing the index operand (empty when the index
    /// is a constant or a raw input field).
    index_stmts: Vec<TacStmt>,
    index: Operand,
    index_roots: Vec<String>,
    /// For [`MergeOp::Sum`], the per-packet increment; for
    /// [`MergeOp::Max`], the stored constant.
    value_stmts: Vec<TacStmt>,
    value: Operand,
    value_roots: Vec<String>,
}

impl ReplicaArray {
    /// The declared array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Array length (the sketch row width `w`; ε = e/w for `Sum` rows).
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the array has zero slots (never true for declared state).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The declared initializer every replica starts from.
    pub fn init(&self) -> i32 {
        self.init
    }

    /// How per-shard replicas of this array fold back together.
    pub fn merge(&self) -> MergeOp {
        self.merge
    }

    /// Input fields the slot index depends on.
    pub fn index_roots(&self) -> &[String] {
        &self.index_roots
    }

    /// The operand's value on `pkt`: a constant, or a field of the slice.
    fn eval(stmts: &[TacStmt], roots: &[String], op: &Operand, pkt: &Packet) -> i32 {
        match op {
            Operand::Const(c) => *c,
            Operand::Field(f) => slice_value(stmts, roots, f, pkt),
        }
    }

    /// The slot an input packet's update lands in (the program's own index
    /// arithmetic, reduced like the state store reduces indices).
    pub fn slot_of(&self, pkt: &Packet) -> usize {
        (Self::eval(&self.index_stmts, &self.index_roots, &self.index, pkt) as i64)
            .rem_euclid(self.len as i64) as usize
    }

    /// The per-packet update value: the increment added ([`MergeOp::Sum`])
    /// or the constant stored ([`MergeOp::Max`]).
    pub fn update_of(&self, pkt: &Packet) -> i32 {
        Self::eval(&self.value_stmts, &self.value_roots, &self.value, pkt)
    }
}

impl fmt::Display for ReplicaArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] init {}: merge {}, update {}",
            self.name, self.len, self.init, self.merge, self.value
        )
    }
}

/// Witness that a program's state is **replicable**: every state update
/// commutes and associates, so each shard may run a *full copy* of the
/// state under any packet steering, and the per-shard copies fold back
/// into the serial state elementwise ([`ReplicaSpec::merge_states`]).
///
/// This is the tier below [`FlowKeySpec`]'s exact partitioning. The
/// merged *state* is still bit-identical to serial execution, but
/// per-packet *outputs* that read sketch state (post-increment estimates)
/// are not — they obey the sketch's own approximation contract instead,
/// which the statistical differential harness checks as overestimate,
/// mass-conservation, and (ε, δ) error-bound invariants (the count-min
/// guarantees the source algorithm already lives with).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSpec {
    arrays: Vec<ReplicaArray>,
    steer_roots: Vec<String>,
}

impl ReplicaSpec {
    /// The mergeable (written) arrays, in declaration-independent
    /// name order.
    pub fn arrays(&self) -> &[ReplicaArray] {
        &self.arrays
    }

    /// Looks up one mergeable array by name.
    pub fn array(&self, name: &str) -> Option<&ReplicaArray> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// The input fields the sketch indexes by: the union of every index
    /// slice's roots. A diagnostic only — replica shards are dealt
    /// packets round-robin by arrival index, and the merge is correct
    /// however they are dealt (updates commute). Empty for
    /// constant-indexed sketches.
    pub fn steer_roots(&self) -> &[String] {
        &self.steer_roots
    }

    /// Count-min depth `d`: the number of `Sum`-merged rows.
    pub fn sum_rows(&self) -> usize {
        self.arrays
            .iter()
            .filter(|a| a.merge == MergeOp::Sum)
            .count()
    }

    /// ε of the sketch's (ε, δ) contract — `e / w` for the narrowest
    /// `Sum` row — or `None` when the sketch has no `Sum` rows.
    pub fn epsilon(&self) -> Option<f64> {
        self.arrays
            .iter()
            .filter(|a| a.merge == MergeOp::Sum)
            .map(|a| a.len)
            .min()
            .map(|w| std::f64::consts::E / w as f64)
    }

    /// δ of the (ε, δ) contract: the probability that the min-over-rows
    /// estimate of any key exceeds `exact + ε·N`, bounded by `e^(−d)`.
    pub fn delta(&self) -> Option<f64> {
        let d = self.sum_rows();
        (d > 0).then(|| (-(d as f64)).exp())
    }

    /// Folds per-shard exported snapshots into one state **bit-identical**
    /// to the serial run's: `Sum` arrays by summed displacement from the
    /// initializer (wrapping, like the interpreter), `Max` arrays by
    /// elementwise max. Everything else — read-only arrays, declared but
    /// untouched state — is identical in every replica and is taken from
    /// the first snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `snaps` is empty or a snapshot is missing one of the
    /// spec's arrays.
    pub fn merge_states(&self, snaps: &[StateStore]) -> StateStore {
        assert!(
            !snaps.is_empty(),
            "merge_states needs at least one snapshot"
        );
        let mut merged = snaps[0].clone();
        for arr in &self.arrays {
            for k in 0..arr.len as i32 {
                let folded = match arr.merge {
                    MergeOp::Sum => snaps.iter().fold(arr.init, |acc, s| {
                        acc.wrapping_add(s.read_array(&arr.name, k).wrapping_sub(arr.init))
                    }),
                    MergeOp::Max => snaps
                        .iter()
                        .map(|s| s.read_array(&arr.name, k))
                        .max()
                        .expect("snaps is non-empty"),
                };
                merged.write_array(&arr.name, k, folded);
            }
        }
        merged
    }
}

impl fmt::Display for ReplicaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "replicable: full sketch replica per shard, elementwise merge"
        )?;
        if self.steer_roots.is_empty() {
            writeln!(f, "steer roots: (none; any deterministic steering)")?;
        } else {
            writeln!(f, "steer roots: {}", self.steer_roots.join(", "))?;
        }
        for a in &self.arrays {
            writeln!(f, "  {a}")?;
        }
        if let (Some(eps), Some(delta)) = (self.epsilon(), self.delta()) {
            writeln!(
                f,
                "(ε, δ) bound: ε = {eps:.3e} ({} sum rows), δ = {delta:.3e}",
                self.sum_rows()
            )?;
        }
        Ok(())
    }
}

/// SplitMix64 finalizer: spreads key classes uniformly over shards so
/// steering stays balanced even when keys cluster. Deterministic across
/// runs and platforms (steering must be reproducible).
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Backward slice of `targets` over stateless, singly-assigned defs,
/// walking `stmts` in reverse. Returns the slice (in program order) and
/// its free input fields. Errors — named after `what`, e.g. "the flow
/// key" or "array `cms1`'s index" — if the slice passes through state or
/// a multiply-assigned field.
fn stateless_slice(
    stmts: &[TacStmt],
    defs: &HashMap<&str, usize>,
    targets: &[&str],
    what: &str,
) -> Result<(Vec<TacStmt>, Vec<String>), String> {
    let mut need: BTreeSet<String> = targets.iter().map(|t| t.to_string()).collect();
    let mut slice: Vec<TacStmt> = Vec::new();
    for stmt in stmts.iter().rev() {
        match stmt {
            TacStmt::Assign { dst, rhs } if need.contains(dst.as_str()) => {
                if defs.get(dst.as_str()).copied().unwrap_or(0) > 1 {
                    return Err(format!(
                        "field `{dst}` feeding {what} is assigned more \
                         than once; the key has no unique pre-execution value"
                    ));
                }
                need.remove(dst.as_str());
                for op in rhs.operands() {
                    if let Operand::Field(f) = op {
                        need.insert(f.clone());
                    }
                }
                slice.push(stmt.clone());
            }
            TacStmt::ReadState { dst, state } if need.contains(dst.as_str()) => {
                return Err(format!(
                    "{what} depends on state `{}` (via field `{dst}`); \
                     it cannot be computed before execution",
                    state.name()
                ));
            }
            _ => {}
        }
    }
    slice.reverse();
    Ok((slice, need.into_iter().collect()))
}

/// Per-`dst` definition counts (assignments and state-read destinations)
/// — the single-assignment witness both tiers' slices rely on.
fn def_counts(stmts: &[TacStmt]) -> HashMap<&str, usize> {
    let mut defs: HashMap<&str, usize> = HashMap::new();
    for stmt in stmts {
        match stmt {
            TacStmt::Assign { dst, .. } | TacStmt::ReadState { dst, .. } => {
                *defs.entry(dst.as_str()).or_insert(0) += 1;
            }
            TacStmt::WriteState { .. } => {}
        }
    }
    defs
}

/// Rejects programs that access state through `field` *before* its
/// assignment: the access would index by the field's input value while
/// the extracted slice computes the assigned value — two different index
/// values in one pipeline. (Compiler-emitted TAC is SSA, so this only
/// bites hand-built pipelines — but those reach this API too.)
fn index_defined_before_access(stmts: &[TacStmt], field: &str) -> Result<(), String> {
    if let Some(def_pos) = stmts
        .iter()
        .position(|s| matches!(s, TacStmt::Assign { dst, .. } if dst == field))
    {
        let early_access = stmts[..def_pos].iter().any(|s| {
            matches!(s,
                TacStmt::ReadState { state, .. } | TacStmt::WriteState { state, .. }
                    if matches!(state, StateRef::Array { index: Operand::Field(f), .. }
                        if f == field))
        });
        if early_access {
            return Err(format!(
                "state is accessed through `{field}` before that field is \
                 assigned; the flow key has no single pre-execution value"
            ));
        }
    }
    Ok(())
}

impl StateLayout {
    /// Decides how a program's state indexing partitions across shards,
    /// trying the strongest tier first:
    ///
    /// 1. **Exact** ([`Partitionability::Keyed`] / `Stateless`) — one
    ///    common index field keys every access; steering by it reproduces
    ///    serial execution bit for bit.
    /// 2. **Replicable** ([`Partitionability::Replicable`]) — every state
    ///    update is a commutative fold into an array slot, so full
    ///    per-shard replicas merge back into the serial state.
    ///
    /// When both tiers reject, the error names the tier decision and the
    /// specific analysis step each tier failed on — the single-shard
    /// fallback diagnostic `banzai`'s sharded switch surfaces.
    pub fn flow_key(&self, stmts: &[TacStmt]) -> Result<Partitionability, String> {
        let exact_why = match self.exact_flow_key(stmts) {
            Ok(part) => return Ok(part),
            Err(why) => why,
        };
        match self.replica_spec(stmts) {
            Ok(spec) => Ok(Partitionability::Replicable(spec)),
            Err(replica_why) => Err(format!(
                "not Exact-partitionable: {exact_why}; \
                 not Replicable: {replica_why}"
            )),
        }
    }

    /// The **exact** tier: extracts the [`FlowKeySpec`] witnessing that
    /// flow steering reproduces serial execution bit for bit.
    ///
    /// `stmts` is the program's straight-line TAC in execution order (for
    /// a compiled pipeline: every atom's codelet, stage by stage). The
    /// rule:
    ///
    /// * **scalar state** is a global register every packet read-modify-
    ///   writes — not partitionable (e.g. `rcp.domino`);
    /// * **array state** must be indexed by *one* common packet field
    ///   across all accesses (e.g. `flowlet.domino`'s `pkt.id`); arrays
    ///   indexed by distinct hash fields couple packets through slot
    ///   collisions (e.g. `heavy_hitters.domino`'s three sketch rows —
    ///   which the [`StateLayout::replica_spec`] tier covers instead);
    /// * the index field's computation must be a **stateless** slice of
    ///   the program (a dispatcher steers *before* execution);
    /// * the key is the index reduced modulo the **gcd of the array
    ///   sizes**, so congruent indices — the only ones that can alias a
    ///   slot — share a key class.
    fn exact_flow_key(&self, stmts: &[TacStmt]) -> Result<Partitionability, String> {
        let mut index_fields: BTreeSet<&str> = BTreeSet::new();
        let mut modulus = 0u32;
        for stmt in stmts {
            let sref = match stmt {
                TacStmt::ReadState { state, .. } | TacStmt::WriteState { state, .. } => state,
                TacStmt::Assign { .. } => continue,
            };
            let entry = self
                .slot(sref.name())
                .ok_or_else(|| format!("state variable `{}` is not declared", sref.name()))?;
            match sref {
                StateRef::Scalar(name) => {
                    return Err(format!(
                        "scalar state `{name}` is a global register (every packet \
                         read-modify-writes it); no flow steering preserves serial \
                         semantics"
                    ));
                }
                StateRef::Array { name, index } => match index {
                    Operand::Const(c) => {
                        return Err(format!(
                            "array `{name}` is indexed by the constant {c}; every \
                             packet touches the same slot"
                        ));
                    }
                    Operand::Field(f) => {
                        index_fields.insert(f);
                        modulus = gcd(modulus, entry.len);
                    }
                },
            }
        }

        if index_fields.is_empty() {
            return Ok(Partitionability::Stateless);
        }
        if index_fields.len() > 1 {
            let fields: Vec<&str> = index_fields.into_iter().collect();
            return Err(format!(
                "state arrays are indexed by {} distinct fields (`{}`); packets \
                 couple through slot collisions, so no single flow key covers them",
                fields.len(),
                fields.join("`, `")
            ));
        }
        if modulus <= 1 {
            return Err(
                "the accessed arrays' sizes share no common factor; the flow key \
                 has a single class"
                    .to_string(),
            );
        }
        let key_field = index_fields.into_iter().next().unwrap().to_string();

        // The key field must be defined before any state access indexes
        // by it, and its computation must be a stateless, singly-assigned
        // slice — the dispatcher evaluates it before any pipeline runs.
        index_defined_before_access(stmts, &key_field)?;
        let defs = def_counts(stmts);
        let (slice, roots) = stateless_slice(stmts, &defs, &[&key_field], "the flow key")?;
        Ok(Partitionability::Keyed(FlowKeySpec {
            stmts: slice,
            key_field,
            modulus,
            roots,
        }))
    }

    /// The **replicable** tier: proves every state update is a
    /// commutative, associative, state-independent fold into one array
    /// slot, and builds the [`ReplicaSpec`] naming each mergeable array
    /// and its merge op.
    ///
    /// Accepted update grammar, per written array (one write site; the
    /// resolution follows unique copy chains):
    ///
    /// * `arr[i] = c` with constant `c ≥ init` → merge [`MergeOp::Max`]
    ///   (membership bits, e.g. `bloom_filter.domino`);
    /// * `arr[i] = arr[i] + δ`, optionally guarded
    ///   (`cond ? arr[i] + δ : arr[i]`), where δ's and `cond`'s backward
    ///   slices are stateless → merge [`MergeOp::Sum`] (count-min rows,
    ///   e.g. `heavy_hitters.domino`'s three differently-hashed sketches);
    /// * a bare copy-back `arr[i] = arr[i]` → `Sum` with δ = 0.
    ///
    /// Everything else is rejected with the specific failing step: scalar
    /// accesses (replicas of a global register diverge), reads and writes
    /// of one array at different slots (cross-slot moves do not commute),
    /// packet-dependent overwrites (last-writer-wins depends on the
    /// split), updates whose δ or index reads *any* state (read-modify-
    /// write coupling across arrays). Reads that feed only packet outputs
    /// are unconstrained — those are the per-packet sketch estimates the
    /// statistical harness covers.
    fn replica_spec(&self, stmts: &[TacStmt]) -> Result<ReplicaSpec, String> {
        let defs = def_counts(stmts);

        // Group accesses per array; scalars cannot be replicated.
        #[derive(Default)]
        struct Accesses {
            reads: Vec<(String, Operand)>,
            writes: Vec<(Operand, Operand)>,
        }
        let mut access: BTreeMap<String, Accesses> = BTreeMap::new();
        for stmt in stmts {
            let sref = match stmt {
                TacStmt::ReadState { state, .. } | TacStmt::WriteState { state, .. } => state,
                TacStmt::Assign { .. } => continue,
            };
            self.slot(sref.name())
                .ok_or_else(|| format!("state variable `{}` is not declared", sref.name()))?;
            if let StateRef::Scalar(name) = sref {
                return Err(format!(
                    "scalar state `{name}` is a global register; per-shard \
                     replicas of it diverge and no elementwise merge recovers \
                     the serial value"
                ));
            }
            let StateRef::Array { name, index } = sref else {
                unreachable!("scalars returned above")
            };
            let entry = access.entry(name.clone()).or_default();
            match stmt {
                TacStmt::ReadState { dst, .. } => entry.reads.push((dst.clone(), index.clone())),
                TacStmt::WriteState { src, .. } => entry.writes.push((src.clone(), index.clone())),
                TacStmt::Assign { .. } => unreachable!("assigns were skipped above"),
            }
        }

        // Resolves an operand through unique single-assignment copy
        // chains to its terminal operand.
        let resolve = |op: &Operand| -> Operand {
            let mut op = op.clone();
            loop {
                let Operand::Field(ref f) = op else { return op };
                if defs.get(f.as_str()).copied().unwrap_or(0) != 1 {
                    return op;
                }
                let copied = stmts.iter().find_map(|s| match s {
                    TacStmt::Assign {
                        dst,
                        rhs: TacRhs::Copy(inner),
                    } if dst == f => Some(inner.clone()),
                    _ => None,
                });
                match copied {
                    Some(inner) => op = inner,
                    None => return op,
                }
            }
        };
        // The unique non-copy Assign rhs ultimately defining `op`, if any.
        let rhs_of = |op: &Operand| -> Option<TacRhs> {
            let Operand::Field(f) = resolve(op) else {
                return None;
            };
            if defs.get(f.as_str()).copied().unwrap_or(0) != 1 {
                return None;
            }
            stmts.iter().find_map(|s| match s {
                TacStmt::Assign { dst, rhs } if *dst == f => Some(rhs.clone()),
                _ => None,
            })
        };

        /// A classified commutative update.
        enum Update {
            /// `arr[i] = c` — constant store, max-merge.
            Store(i32),
            /// `arr[i] = arr[i] + δ`, `guard ? … : arr[i]` — sum-merge.
            /// `negated` marks the `guard ? arr[i] : arr[i] + δ` arm order.
            Increment {
                delta: Operand,
                guard: Option<(Operand, bool)>,
            },
        }

        let mut arrays: Vec<ReplicaArray> = Vec::new();
        let mut steer_roots: BTreeSet<String> = BTreeSet::new();
        for (name, acc) in &access {
            if acc.writes.is_empty() {
                continue; // read-only: every replica stays bit-identical
            }
            if acc.writes.len() > 1 {
                return Err(format!(
                    "array `{name}` is written at {} sites; a replica needs a \
                     single commutative update per packet",
                    acc.writes.len()
                ));
            }
            let (src, widx) = acc.writes[0].clone();
            let entry = self.slot(name).expect("declared above");

            // Is `op` this array's own read value? A read feeding the
            // write must use the write's own index — a cross-slot move
            // (`arr[i] = arr[j] + δ`) does not commute.
            let own_read = |op: &Operand| -> Result<bool, String> {
                let Operand::Field(f) = resolve(op) else {
                    return Ok(false);
                };
                let Some((_, ridx)) = acc.reads.iter().find(|(dst, _)| *dst == f) else {
                    return Ok(false);
                };
                if *ridx != widx {
                    return Err(format!(
                        "array `{name}` is read at index `{ridx}` but written \
                         at index `{widx}`; cross-slot moves do not commute"
                    ));
                }
                Ok(true)
            };
            // `arr[i] + δ` (either operand order) → δ.
            let increment_of = |op: &Operand| -> Result<Option<Operand>, String> {
                match rhs_of(op) {
                    Some(TacRhs::Binary(domino_ast::BinOp::Add, a, b)) => {
                        if own_read(&a)? {
                            Ok(Some(b))
                        } else if own_read(&b)? {
                            Ok(Some(a))
                        } else {
                            Ok(None)
                        }
                    }
                    _ => Ok(None),
                }
            };
            // The taken arm of a guarded update: the slot kept (δ = 0) or
            // incremented.
            let arm_of = |op: &Operand| -> Result<Option<Operand>, String> {
                if own_read(op)? {
                    Ok(Some(Operand::Const(0)))
                } else {
                    increment_of(op)
                }
            };

            let update = if let Operand::Const(c) = resolve(&src) {
                Update::Store(c)
            } else if own_read(&src)? {
                Update::Increment {
                    delta: Operand::Const(0),
                    guard: None,
                }
            } else if let Some(delta) = increment_of(&src)? {
                Update::Increment { delta, guard: None }
            } else if let Some(TacRhs::Ternary(cond, then_, else_)) = rhs_of(&src) {
                // Guarded increment: one arm keeps the slot, the other
                // increments it — `cond ? arr[i] + δ : arr[i]` or mirrored.
                let taken = if own_read(&else_)? {
                    arm_of(&then_)?.map(|delta| (delta, false))
                } else if own_read(&then_)? {
                    arm_of(&else_)?.map(|delta| (delta, true))
                } else {
                    None
                };
                match taken {
                    Some((delta, negated)) => Update::Increment {
                        delta,
                        guard: Some((cond, negated)),
                    },
                    None => {
                        return Err(format!(
                            "array `{name}` is overwritten with a \
                             packet-dependent value; last-writer-wins depends \
                             on the trace split, so replicas cannot be merged"
                        ))
                    }
                }
            } else {
                return Err(format!(
                    "array `{name}` is overwritten with a packet-dependent \
                     value; last-writer-wins depends on the trace split, so \
                     replicas cannot be merged"
                ));
            };

            // The slot index must be a pre-execution value: stateless,
            // singly assigned, never accessed before its definition.
            let (index_stmts, index_roots) = match &widx {
                Operand::Const(_) => (Vec::new(), Vec::new()),
                Operand::Field(f) => {
                    index_defined_before_access(stmts, f)?;
                    stateless_slice(stmts, &defs, &[f], &format!("array `{name}`'s index"))?
                }
            };

            let arr = match update {
                Update::Store(c) => {
                    if c < entry.init {
                        return Err(format!(
                            "array `{name}` stores the constant {c} below its \
                             initializer {}; max-merge cannot reproduce it",
                            entry.init
                        ));
                    }
                    ReplicaArray {
                        name: name.clone(),
                        len: entry.len,
                        init: entry.init,
                        merge: MergeOp::Max,
                        index_stmts,
                        index: widx.clone(),
                        index_roots,
                        value_stmts: Vec::new(),
                        value: Operand::Const(c),
                        value_roots: Vec::new(),
                    }
                }
                Update::Increment { delta, guard } => {
                    // δ and the guard must be stateless: a δ read from
                    // another array would couple the sketches' evolution
                    // across the split (read-modify-write coupling).
                    let mut targets: Vec<&str> = Vec::new();
                    if let Operand::Field(f) = &delta {
                        targets.push(f);
                    }
                    if let Some((Operand::Field(f), _)) = &guard {
                        targets.push(f);
                    }
                    let (mut value_stmts, value_roots) = stateless_slice(
                        stmts,
                        &defs,
                        &targets,
                        &format!("array `{name}`'s update value"),
                    )?;
                    let value = match guard {
                        None => delta,
                        Some((cond, negated)) => {
                            // Synthesize `cond ? δ : 0` (arms swapped for
                            // the negated form) so `update_of` evaluates
                            // the guard exactly as the program does.
                            let dst = format!("__replica_update_{name}");
                            let (then_, else_) = if negated {
                                (Operand::Const(0), delta)
                            } else {
                                (delta, Operand::Const(0))
                            };
                            value_stmts.push(TacStmt::Assign {
                                dst: dst.clone(),
                                rhs: TacRhs::Ternary(cond, then_, else_),
                            });
                            Operand::Field(dst)
                        }
                    };
                    ReplicaArray {
                        name: name.clone(),
                        len: entry.len,
                        init: entry.init,
                        merge: MergeOp::Sum,
                        index_stmts,
                        index: widx.clone(),
                        index_roots,
                        value_stmts,
                        value,
                        value_roots,
                    }
                }
            };
            steer_roots.extend(arr.index_roots.iter().cloned());
            arrays.push(arr);
        }

        Ok(ReplicaSpec {
            arrays,
            steer_roots: steer_roots.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_ast::{StateKind, StateVar};

    use crate::tac::{Operand, StateRef, TacRhs, TacStmt};

    fn arr_decl(name: &str, size: u32) -> StateVar {
        StateVar {
            name: name.into(),
            kind: StateKind::Array { size },
            init: 0,
        }
    }

    /// `pkt.idx = pkt.sport % 8; a[pkt.idx] read+write` — partitionable.
    fn keyed_stmts() -> Vec<TacStmt> {
        vec![
            TacStmt::Assign {
                dst: "idx".into(),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Mod,
                    Operand::Field("sport".into()),
                    Operand::Const(8),
                ),
            },
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
                src: Operand::Field("old".into()),
            },
        ]
    }

    #[test]
    fn flow_key_extracts_single_index_field() {
        let layout = StateLayout::from_decls(&[arr_decl("a", 8)]);
        let part = layout.flow_key(&keyed_stmts()).unwrap();
        let Partitionability::Keyed(spec) = part else {
            panic!("expected Keyed, got {part:?}");
        };
        assert_eq!(spec.key_field(), "idx");
        assert_eq!(spec.modulus(), 8);
        assert_eq!(spec.roots(), ["sport".to_string()]);
        assert_eq!(spec.stmts().len(), 1); // just the idx assignment
                                           // Keys follow the program's own index arithmetic.
        let k = spec.key_of(&Packet::new().with("sport", 13));
        assert_eq!(k, 5);
        // Equal keys steer to equal shards; classes cover all shards' ids.
        assert_eq!(
            spec.shard_of(&Packet::new().with("sport", 13), 4),
            FlowKeySpec::shard_of_class(5, 4)
        );
        assert!(spec.to_string().contains("flow key = pkt.idx mod 8"));
    }

    #[test]
    fn flow_key_modulus_is_gcd_of_array_sizes() {
        let layout = StateLayout::from_decls(&[arr_decl("a", 8), arr_decl("b", 12)]);
        let mut stmts = keyed_stmts();
        stmts.push(TacStmt::WriteState {
            state: StateRef::Array {
                name: "b".into(),
                index: Operand::Field("idx".into()),
            },
            src: Operand::Const(1),
        });
        let Partitionability::Keyed(spec) = layout.flow_key(&stmts).unwrap() else {
            panic!("expected Keyed");
        };
        assert_eq!(spec.modulus(), 4); // gcd(8, 12)
    }

    #[test]
    fn flow_key_rejects_scalars_with_two_tier_diagnostic() {
        let layout = StateLayout::from_decls(&[
            arr_decl("a", 8),
            StateVar {
                name: "s".into(),
                kind: StateKind::Scalar,
                init: 0,
            },
        ]);
        // Scalar access: a global register fails both tiers, and the
        // diagnostic names each tier's rejection.
        let err = layout
            .flow_key(&[TacStmt::WriteState {
                state: StateRef::Scalar("s".into()),
                src: Operand::Const(1),
            }])
            .unwrap_err();
        assert!(err.contains("not Exact-partitionable:"), "{err}");
        assert!(err.contains("not Replicable:"), "{err}");
        assert!(err.contains("scalar state `s`"), "{err}");
    }

    #[test]
    fn multi_field_indexing_demotes_to_replicable() {
        // Two arrays indexed by different fields: not exactly
        // partitionable (slot-collision coupling), but both updates
        // commute, so the program lands in the replica tier.
        let layout = StateLayout::from_decls(&[arr_decl("a", 8), arr_decl("b", 8)]);
        let mut stmts = keyed_stmts();
        stmts.push(TacStmt::WriteState {
            state: StateRef::Array {
                name: "b".into(),
                index: Operand::Field("other".into()),
            },
            src: Operand::Const(1),
        });
        let Partitionability::Replicable(spec) = layout.flow_key(&stmts).unwrap() else {
            panic!("expected Replicable");
        };
        // `a` keeps its own read value (δ = 0); `b` stores a constant.
        assert_eq!(spec.array("a").unwrap().merge(), MergeOp::Sum);
        assert_eq!(spec.array("b").unwrap().merge(), MergeOp::Max);
        assert_eq!(spec.steer_roots(), ["other".to_string(), "sport".into()]);
        let rendered = spec.to_string();
        assert!(
            rendered.contains("full sketch replica per shard"),
            "{rendered}"
        );
    }

    #[test]
    fn constant_index_store_is_replicable_via_max_merge() {
        // Everyone writes 1 into slot 3: max-merge reproduces the serial
        // slot on any trace split, so this is Replicable, not a fallback.
        let layout = StateLayout::from_decls(&[arr_decl("a", 8)]);
        let part = layout
            .flow_key(&[TacStmt::WriteState {
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Const(3),
                },
                src: Operand::Const(1),
            }])
            .unwrap();
        let Partitionability::Replicable(spec) = part else {
            panic!("expected Replicable, got {part:?}");
        };
        let arr = spec.array("a").unwrap();
        assert_eq!(arr.merge(), MergeOp::Max);
        assert!(spec.steer_roots().is_empty());
        assert_eq!(arr.slot_of(&Packet::new()), 3);
        assert_eq!(arr.update_of(&Packet::new()), 1);
        // No Sum rows → no (ε, δ) contract to state.
        assert_eq!(spec.epsilon(), None);
        assert_eq!(spec.delta(), None);
    }

    /// Count-min-style row: idx = sport % 8; row[idx] = row[idx] + 1.
    fn sketch_row(arr: &str, idx_field: &str, root: &str) -> Vec<TacStmt> {
        vec![
            TacStmt::Assign {
                dst: idx_field.into(),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Mod,
                    Operand::Field(root.into()),
                    Operand::Const(8),
                ),
            },
            TacStmt::ReadState {
                dst: format!("{arr}_old"),
                state: StateRef::Array {
                    name: arr.into(),
                    index: Operand::Field(idx_field.into()),
                },
            },
            TacStmt::Assign {
                dst: format!("{arr}_new"),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Add,
                    Operand::Field(format!("{arr}_old")),
                    Operand::Const(1),
                ),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: arr.into(),
                    index: Operand::Field(idx_field.into()),
                },
                src: Operand::Field(format!("{arr}_new")),
            },
        ]
    }

    #[test]
    fn replica_spec_classifies_count_min_rows_as_sum() {
        let layout = StateLayout::from_decls(&[arr_decl("r1", 8), arr_decl("r2", 16)]);
        let mut stmts = sketch_row("r1", "i1", "sport");
        stmts.extend(sketch_row("r2", "i2", "dport"));
        let Partitionability::Replicable(spec) = layout.flow_key(&stmts).unwrap() else {
            panic!("expected Replicable");
        };
        assert_eq!(spec.sum_rows(), 2);
        // ε from the narrowest Sum row, δ from the row count.
        assert!((spec.epsilon().unwrap() - std::f64::consts::E / 8.0).abs() < 1e-12);
        assert!((spec.delta().unwrap() - (-2.0f64).exp()).abs() < 1e-12);
        // slot_of follows the program's own index arithmetic (incl. the
        // store's rem_euclid wrap) and update_of yields the increment.
        let pkt = Packet::new().with("sport", 13).with("dport", -3);
        let r1 = spec.array("r1").unwrap();
        let r2 = spec.array("r2").unwrap();
        assert_eq!(r1.slot_of(&pkt), 5);
        assert_eq!(r2.slot_of(&pkt), (-3i64).rem_euclid(16) as usize);
        assert_eq!(r1.update_of(&pkt), 1);
        assert_eq!(spec.steer_roots(), ["dport".to_string(), "sport".into()]);
    }

    #[test]
    fn replica_merge_is_bit_identical_to_serial_state() {
        // Split a trace across 3 replicas; the sum/max folds must land
        // exactly on the serial state, including wrapping adds.
        let decls = [arr_decl("r1", 8), arr_decl("r2", 16), arr_decl("b", 8)];
        let layout = StateLayout::from_decls(&decls);
        let mut stmts = sketch_row("r1", "i1", "sport");
        stmts.extend(sketch_row("r2", "i2", "dport"));
        stmts.push(TacStmt::WriteState {
            state: StateRef::Array {
                name: "b".into(),
                index: Operand::Field("i1".into()),
            },
            src: Operand::Const(1),
        });
        let Partitionability::Replicable(spec) = layout.flow_key(&stmts).unwrap() else {
            panic!("expected Replicable");
        };

        let trace: Vec<Packet> = (0..50)
            .map(|i| Packet::new().with("sport", i * 7 + 3).with("dport", i * 11))
            .collect();
        let run = |pkts: &[&Packet]| -> StateStore {
            let mut st = StateStore::from_decls(&decls);
            for pkt in pkts {
                let mut p = (*pkt).clone();
                for s in &stmts {
                    crate::interp::exec_tac_stmt(s, &mut st, &mut p);
                }
            }
            st
        };
        let serial = run(&trace.iter().collect::<Vec<_>>());
        let snaps: Vec<StateStore> = (0..3)
            .map(|shard| {
                run(&trace
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 == shard)
                    .map(|(_, p)| p)
                    .collect::<Vec<_>>())
            })
            .collect();
        assert_eq!(spec.merge_states(&snaps), serial);
        // Merging a single full-trace snapshot is the identity.
        assert_eq!(spec.merge_states(std::slice::from_ref(&serial)), serial);
    }

    #[test]
    fn replica_spec_accepts_guarded_increments() {
        // r[idx] = pkt.cond ? r[idx] + 2 : r[idx]  (and the mirrored arm
        // order) — a guarded increment still commutes. A second array on
        // a different field keeps the exact tier from claiming this.
        let layout = StateLayout::from_decls(&[arr_decl("r", 8), arr_decl("b", 8)]);
        let stmts = |negated: bool| {
            let (then_, else_) = if negated {
                (
                    Operand::Field("r_old".into()),
                    Operand::Field("r_new".into()),
                )
            } else {
                (
                    Operand::Field("r_new".into()),
                    Operand::Field("r_old".into()),
                )
            };
            vec![
                TacStmt::ReadState {
                    dst: "r_old".into(),
                    state: StateRef::Array {
                        name: "r".into(),
                        index: Operand::Field("sport".into()),
                    },
                },
                TacStmt::Assign {
                    dst: "r_new".into(),
                    rhs: TacRhs::Binary(
                        domino_ast::BinOp::Add,
                        Operand::Field("r_old".into()),
                        Operand::Const(2),
                    ),
                },
                TacStmt::Assign {
                    dst: "picked".into(),
                    rhs: TacRhs::Ternary(Operand::Field("cond".into()), then_, else_),
                },
                TacStmt::WriteState {
                    state: StateRef::Array {
                        name: "r".into(),
                        index: Operand::Field("sport".into()),
                    },
                    src: Operand::Field("picked".into()),
                },
                TacStmt::WriteState {
                    state: StateRef::Array {
                        name: "b".into(),
                        index: Operand::Field("dport".into()),
                    },
                    src: Operand::Const(1),
                },
            ]
        };
        for negated in [false, true] {
            let Partitionability::Replicable(spec) = layout.flow_key(&stmts(negated)).unwrap()
            else {
                panic!("expected Replicable (negated = {negated})");
            };
            let arr = spec.array("r").unwrap();
            assert_eq!(arr.merge(), MergeOp::Sum);
            // When the guard takes the increment arm δ = 2, else δ = 0 —
            // regardless of which ternary arm held the update.
            let hit = Packet::new()
                .with("sport", 1)
                .with("cond", if negated { 0 } else { 1 });
            let miss = Packet::new()
                .with("sport", 1)
                .with("cond", if negated { 1 } else { 0 });
            assert_eq!(arr.update_of(&hit), 2, "negated = {negated}");
            assert_eq!(arr.update_of(&miss), 0, "negated = {negated}");
        }
    }

    #[test]
    fn replica_spec_rejects_non_commutative_updates() {
        let layout = StateLayout::from_decls(&[arr_decl("r", 8), arr_decl("q", 8)]);
        // Cross-slot move: read at the input index, write at another.
        let cross = vec![
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Array {
                    name: "r".into(),
                    index: Operand::Field("src_idx".into()),
                },
            },
            TacStmt::Assign {
                dst: "bump".into(),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Add,
                    Operand::Field("old".into()),
                    Operand::Const(1),
                ),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "r".into(),
                    index: Operand::Field("dst_idx".into()),
                },
                src: Operand::Field("bump".into()),
            },
        ];
        let err = layout.flow_key(&cross).unwrap_err();
        assert!(err.contains("not Replicable:"), "{err}");
        assert!(err.contains("cross-slot moves do not commute"), "{err}");

        // Packet-dependent overwrite: last-writer-wins. (The `q` write on
        // a second field keeps the exact tier from claiming the program.)
        let overwrite = vec![
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "q".into(),
                    index: Operand::Field("j".into()),
                },
                src: Operand::Const(1),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "r".into(),
                    index: Operand::Field("idx".into()),
                },
                src: Operand::Field("payload".into()),
            },
        ];
        let err = layout.flow_key(&overwrite).unwrap_err();
        assert!(err.contains("last-writer-wins"), "{err}");

        // Read-modify-write coupling across arrays: δ for `r` is read
        // from `q` at an unrelated index, so the sketches' evolutions
        // are entangled across any trace split.
        let coupled = vec![
            TacStmt::ReadState {
                dst: "qv".into(),
                state: StateRef::Array {
                    name: "q".into(),
                    index: Operand::Field("j".into()),
                },
            },
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Array {
                    name: "r".into(),
                    index: Operand::Field("idx".into()),
                },
            },
            TacStmt::Assign {
                dst: "bump".into(),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Add,
                    Operand::Field("old".into()),
                    Operand::Field("qv".into()),
                ),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "r".into(),
                    index: Operand::Field("idx".into()),
                },
                src: Operand::Field("bump".into()),
            },
        ];
        let err = layout.flow_key(&coupled).unwrap_err();
        assert!(err.contains("depends on state `q`"), "{err}");

        // A constant store below the initializer: max-merge cannot
        // reproduce a downward write.
        let layout_hi = StateLayout::from_decls(&[StateVar {
            name: "r".into(),
            kind: StateKind::Array { size: 8 },
            init: 5,
        }]);
        let down = vec![TacStmt::WriteState {
            state: StateRef::Array {
                name: "r".into(),
                index: Operand::Const(0),
            },
            src: Operand::Const(1),
        }];
        let err = layout_hi.flow_key(&down).unwrap_err();
        assert!(err.contains("below its initializer"), "{err}");
    }

    #[test]
    fn flow_key_rejects_state_dependent_index() {
        let layout = StateLayout::from_decls(&[arr_decl("a", 8)]);
        let stmts = vec![
            TacStmt::ReadState {
                dst: "idx".into(),
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
                src: Operand::Const(1),
            },
        ];
        let err = layout.flow_key(&stmts).unwrap_err();
        assert!(err.contains("depends on state"), "{err}");
    }

    #[test]
    fn flow_key_rejects_state_access_before_key_definition() {
        // a[idx] is read while `idx` still holds its input value; the
        // assignment below would give the slice a different key.
        let layout = StateLayout::from_decls(&[arr_decl("a", 8)]);
        let stmts = vec![
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
            },
            TacStmt::Assign {
                dst: "idx".into(),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Mod,
                    Operand::Field("sport".into()),
                    Operand::Const(8),
                ),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
                src: Operand::Field("old".into()),
            },
        ];
        let err = layout.flow_key(&stmts).unwrap_err();
        assert!(err.contains("before that field is assigned"), "{err}");
    }

    #[test]
    fn flow_key_stateless_when_no_state_touched() {
        let layout = StateLayout::from_decls(&[arr_decl("a", 8)]);
        let part = layout
            .flow_key(&[TacStmt::Assign {
                dst: "x".into(),
                rhs: TacRhs::Copy(Operand::Const(1)),
            }])
            .unwrap();
        assert_eq!(part, Partitionability::Stateless);
    }

    #[test]
    fn mix64_spreads_consecutive_classes() {
        // Consecutive keys should not all collapse onto one shard.
        let shards: BTreeSet<usize> = (0..16u32)
            .map(|k| FlowKeySpec::shard_of_class(k, 4))
            .collect();
        assert!(shards.len() > 1, "{shards:?}");
    }
}
