//! Equivalence verification between a codelet specification and a
//! synthesized atom configuration.
//!
//! SKETCH proves candidate configurations equivalent to the specification
//! over all inputs of a bounded bit-width. We use the testing analogue:
//! a deterministic suite of *corner-case* vectors (zeros, ±1, extreme
//! values, every constant appearing in either side ± 1 — the values where
//! wrapping/boundary bugs live) plus a large batch of seeded random
//! vectors. A configuration produced by an *unsound* rewrite is caught
//! here, keeping the all-or-nothing guarantee honest.

use crate::sym::{CodeletSpec, Sym};
use banzai::atom::{GuardOperand, RelOp, StatefulConfig, Tree, Update};
use domino_ast::{BinOp, UnOp};
use domino_ir::{Operand, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// Number of random vectors checked in addition to the corner-case grid.
const RANDOM_VECTORS: usize = 512;

/// A failed verification: the input vector and the two disagreeing values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// State variable index that disagreed.
    pub var: usize,
    /// Pre-update state values used.
    pub olds: Vec<i32>,
    /// Packet fields used.
    pub packet: Packet,
    /// Value computed by the specification (the codelet).
    pub expected: i32,
    /// Value computed by the configuration (the atom).
    pub got: i32,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "configuration diverges from codelet on state[{}]: \
             olds={:?}, packet={}, codelet says {}, atom says {}",
            self.var, self.olds, self.packet, self.expected, self.got
        )
    }
}

/// Verifies that `config` computes the same state updates as `spec` on the
/// corner-case grid and `RANDOM_VECTORS` seeded random vectors.
///
/// Both sides are lowered once onto one frame of lane-wide columns, each
/// field resolved to its column once, and the vectors are evaluated 64 at
/// a time, every node as one loop over the lanes; the
/// first vector, and in it the first variable, that disagrees is the
/// counterexample — the one a vector-at-a-time walk of [`Sym::eval`] and
/// [`Tree::eval`](banzai::atom::Tree::eval) would report first.
///
/// [`Sym::eval`]: crate::sym::Sym::eval
pub fn verify(spec: &CodeletSpec, config: &StatefulConfig) -> Result<(), Counterexample> {
    verify_counted(spec, config).0
}

/// [`verify`], and how many vectors it evaluated: every one, or up to and
/// including the first that disagrees.
fn verify_counted(
    spec: &CodeletSpec,
    config: &StatefulConfig,
) -> (Result<(), Counterexample>, usize) {
    let fields = collect_fields(spec, config);
    let interesting = interesting_values(spec, config);
    let mut lanes = Lanes::lower(spec, config, &fields);
    let verdict = vectors(spec.num_vars(), fields.len(), &interesting, |v| {
        lanes.push(v)
    })
    .and_then(|()| lanes.flush());
    (verdict, lanes.evaluated)
}

/// Hands every test vector to `visit`, in order, in one reused buffer:
/// the `n_vars` old state values, then the `n_fields` fields' values (in
/// [`collect_fields`] order). Stops at the first error `visit` returns.
fn vectors<E>(
    n_vars: usize,
    n_fields: usize,
    interesting: &[i32],
    mut visit: impl FnMut(&[i32]) -> Result<(), E>,
) -> Result<(), E> {
    let slots = n_vars + n_fields;
    let mut rng = StdRng::seed_from_u64(0x5eed_ca11);
    let mut v = vec![0; slots];

    // Diagonal corner sweep: every interesting value in every slot while
    // others cycle through the list too (bounded work, hits boundaries).
    for (k, &x) in interesting.iter().enumerate() {
        for slot in 0..slots {
            for (s, val) in v.iter_mut().enumerate() {
                *val = interesting[(k + s) % interesting.len()];
            }
            v[slot] = x;
            visit(&v)?;
        }
    }

    // Correlated corners: guards and updates often misbehave only when
    // *several* operands take boundary values together (e.g. two guard
    // fields both zero), which no per-slot sweep hits. Enumerate the full
    // cartesian grid over the small-magnitude corner values when feasible,
    // otherwise sample corner combinations.
    let mut small: Vec<i32> = interesting.to_vec();
    small.sort_by_key(|v| v.unsigned_abs());
    small.truncate(8);
    let grid_size = (small.len() as u64).checked_pow(slots as u32);
    if let Some(size) = grid_size.filter(|&s| s <= 65_536) {
        // Vector `i` reads `i`'s base-`small.len()` digits, the first slot
        // the lowest: an odometer, turned once per vector.
        let mut digits = vec![0; slots];
        for _ in 0..size {
            for (val, &d) in v.iter_mut().zip(&digits) {
                *val = small[d];
            }
            visit(&v)?;
            for d in &mut digits {
                *d += 1;
                if *d < small.len() {
                    break;
                }
                *d = 0;
            }
        }
    } else {
        for _ in 0..4096 {
            for val in &mut v {
                *val = small[rng.gen_range(0..small.len())];
            }
            visit(&v)?;
        }
    }

    // Random vectors.
    for _ in 0..RANDOM_VECTORS {
        v.iter_mut().for_each(|val| *val = rng.gen());
        visit(&v)?;
        // Also small-magnitude vectors, where most algorithm behaviour
        // (thresholds, counters) lives.
        v.iter_mut().for_each(|val| *val = rng.gen_range(-64..64));
        visit(&v)?;
    }
    Ok(())
}

/// Vectors evaluated per pass: every node of the lowered program runs as
/// one loop over this many lanes.
const LANES: usize = 64;

/// One value per lane.
type Column = [i32; LANES];

/// A column computed lane by lane from columns before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// Filled once, when lowered.
    Const(i32),
    Un(UnOp, usize),
    Bin(BinOp, usize, usize),
    /// `c != 0 ? t : e`. Both arms are computed: every operator is total
    /// ([`BinOp::eval`] defines division by zero).
    Sel(usize, usize, usize),
}

/// A spec's updates and a configuration's trees lowered onto one frame of
/// columns: the old state values first, then the fields, then constants
/// and computed nodes in the order the lowering first needs them, each
/// name resolved to its column once and each distinct node computed once.
struct Lanes<'a> {
    frame: Vec<Column>,
    /// The computed columns, in evaluation order.
    nodes: Vec<(usize, Node)>,
    memo: HashMap<Node, usize>,
    /// Per state variable: the column the spec computes and the one the
    /// configuration computes.
    outs: Vec<(usize, usize)>,
    n_vars: usize,
    fields: &'a [String],
    /// Lanes gathered and not yet evaluated.
    filled: usize,
    /// Vectors evaluated so far.
    evaluated: usize,
}

impl<'a> Lanes<'a> {
    fn lower(spec: &CodeletSpec, config: &StatefulConfig, fields: &'a [String]) -> Lanes<'a> {
        let n_vars = spec.num_vars();
        let mut lanes = Lanes {
            frame: vec![[0; LANES]; n_vars + fields.len()],
            nodes: Vec::new(),
            memo: HashMap::new(),
            outs: Vec::with_capacity(n_vars),
            n_vars,
            fields,
            filled: 0,
            evaluated: 0,
        };
        for (var, (update, tree)) in spec.updates.iter().zip(&config.trees).enumerate() {
            let out = (lanes.sym(update), lanes.tree(var, tree));
            lanes.outs.push(out);
        }
        lanes
    }

    fn column(&mut self, node: Node) -> usize {
        if let Some(&col) = self.memo.get(&node) {
            return col;
        }
        let col = self.frame.len();
        match node {
            Node::Const(c) => self.frame.push([c; LANES]),
            _ => {
                self.frame.push([0; LANES]);
                self.nodes.push((col, node));
            }
        }
        self.memo.insert(node, col);
        col
    }

    fn field(&self, name: &str) -> usize {
        let at = self.fields.binary_search_by(|f| f.as_str().cmp(name));
        self.n_vars + at.expect("every field either side reads is collected")
    }

    fn operand(&mut self, o: &Operand) -> usize {
        match o {
            Operand::Field(f) => self.field(f),
            Operand::Const(c) => self.column(Node::Const(*c)),
        }
    }

    fn sym(&mut self, e: &Sym) -> usize {
        match e {
            Sym::Field(f) => self.field(f),
            Sym::Const(c) => self.column(Node::Const(*c)),
            Sym::StateOld(i) => *i,
            Sym::Unary(op, a) => {
                let a = self.sym(a);
                self.column(Node::Un(*op, a))
            }
            Sym::Binary(op, a, b) => {
                let (a, b) = (self.sym(a), self.sym(b));
                self.column(Node::Bin(*op, a, b))
            }
            Sym::Ternary(c, t, e) => {
                let (c, t, e) = (self.sym(c), self.sym(t), self.sym(e));
                self.column(Node::Sel(c, t, e))
            }
        }
    }

    fn tree(&mut self, var: usize, tree: &Tree) -> usize {
        match tree {
            Tree::Leaf(Update::Keep) => var,
            Tree::Leaf(Update::Write(o)) => self.operand(o),
            Tree::Leaf(Update::Add(o)) => {
                let o = self.operand(o);
                self.column(Node::Bin(BinOp::Add, var, o))
            }
            Tree::Leaf(Update::Sub(o)) => {
                let o = self.operand(o);
                self.column(Node::Bin(BinOp::Sub, var, o))
            }
            Tree::Branch { guard, then, els } => {
                let [lhs, rhs] = [&guard.lhs, &guard.rhs].map(|o| match o {
                    GuardOperand::Field(f) => self.field(f),
                    GuardOperand::Const(c) => self.column(Node::Const(*c)),
                    GuardOperand::State(i) => *i,
                });
                let rel = match guard.op {
                    RelOp::Lt => BinOp::Lt,
                    RelOp::Gt => BinOp::Gt,
                    RelOp::Le => BinOp::Le,
                    RelOp::Ge => BinOp::Ge,
                    RelOp::Eq => BinOp::Eq,
                    RelOp::Ne => BinOp::Ne,
                };
                let g = self.column(Node::Bin(rel, lhs, rhs));
                let (t, e) = (self.tree(var, then), self.tree(var, els));
                self.column(Node::Sel(g, t, e))
            }
        }
    }

    /// Gathers one vector into the next lane; evaluates a full frame.
    fn push(&mut self, vector: &[i32]) -> Result<(), Counterexample> {
        for (col, &v) in self.frame.iter_mut().zip(vector) {
            col[self.filled] = v;
        }
        self.filled += 1;
        if self.filled == LANES {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Evaluates the gathered lanes and compares the two sides lane by
    /// lane in vector order, variable by variable.
    fn flush(&mut self) -> Result<(), Counterexample> {
        self.eval();
        let filled = std::mem::take(&mut self.filled);
        for lane in 0..filled {
            for (var, &(want, got)) in self.outs.iter().enumerate() {
                let (expected, got) = (self.frame[want][lane], self.frame[got][lane]);
                if expected != got {
                    self.evaluated += lane + 1;
                    return Err(self.counterexample(var, lane, expected, got));
                }
            }
        }
        self.evaluated += filled;
        Ok(())
    }

    /// Computes every node, in order, over every lane.
    fn eval(&mut self) {
        for &(out, node) in &self.nodes {
            let (ins, rest) = self.frame.split_at_mut(out);
            let out = &mut rest[0];
            match node {
                Node::Const(_) => {}
                Node::Un(op, a) => {
                    for (o, &x) in out.iter_mut().zip(&ins[a]) {
                        *o = op.eval(x);
                    }
                }
                Node::Bin(op, a, b) => {
                    let (a, b) = (&ins[a], &ins[b]);
                    // The operators updates and guards are made of, each
                    // as its own loop; the rest through `BinOp::eval`.
                    match op {
                        BinOp::Add => each(out, a, b, i32::wrapping_add),
                        BinOp::Sub => each(out, a, b, i32::wrapping_sub),
                        BinOp::Lt => each(out, a, b, |x, y| (x < y) as i32),
                        BinOp::Gt => each(out, a, b, |x, y| (x > y) as i32),
                        BinOp::Le => each(out, a, b, |x, y| (x <= y) as i32),
                        BinOp::Ge => each(out, a, b, |x, y| (x >= y) as i32),
                        BinOp::Eq => each(out, a, b, |x, y| (x == y) as i32),
                        BinOp::Ne => each(out, a, b, |x, y| (x != y) as i32),
                        _ => each(out, a, b, |x, y| op.eval(x, y)),
                    }
                }
                Node::Sel(c, t, e) => {
                    let (c, t, e) = (&ins[c], &ins[t], &ins[e]);
                    for (l, o) in out.iter_mut().enumerate() {
                        *o = if c[l] != 0 { t[l] } else { e[l] };
                    }
                }
            }
        }
    }

    fn counterexample(&self, var: usize, lane: usize, expected: i32, got: i32) -> Counterexample {
        let mut packet = Packet::new();
        for (j, f) in self.fields.iter().enumerate() {
            packet.set(f, self.frame[self.n_vars + j][lane]);
        }
        Counterexample {
            var,
            olds: (0..self.n_vars).map(|i| self.frame[i][lane]).collect(),
            packet,
            expected,
            got,
        }
    }
}

/// `out[l] = f(a[l], b[l])` for every lane.
#[inline]
fn each(out: &mut Column, a: &Column, b: &Column, f: impl Fn(i32, i32) -> i32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

fn collect_fields(spec: &CodeletSpec, config: &StatefulConfig) -> Vec<String> {
    let mut fields: BTreeSet<String> = BTreeSet::new();
    for u in &spec.updates {
        for f in u.fields() {
            fields.insert(f.to_string());
        }
    }
    for tree in &config.trees {
        collect_tree_fields(tree, &mut fields);
    }
    fields.into_iter().collect()
}

fn collect_tree_fields(tree: &Tree, out: &mut BTreeSet<String>) {
    match tree {
        Tree::Leaf(u) => {
            if let Update::Write(Operand::Field(f))
            | Update::Add(Operand::Field(f))
            | Update::Sub(Operand::Field(f)) = u
            {
                out.insert(f.clone());
            }
        }
        Tree::Branch { guard, then, els } => {
            for o in [&guard.lhs, &guard.rhs] {
                if let GuardOperand::Field(f) = o {
                    out.insert(f.clone());
                }
            }
            collect_tree_fields(then, out);
            collect_tree_fields(els, out);
        }
    }
}

fn interesting_values(spec: &CodeletSpec, config: &StatefulConfig) -> Vec<i32> {
    let mut vals: BTreeSet<i32> = [
        0,
        1,
        -1,
        2,
        -2,
        i32::MAX,
        i32::MIN,
        i32::MAX - 1,
        i32::MIN + 1,
    ]
    .into_iter()
    .collect();
    let mut add_const = |c: i32| {
        vals.insert(c);
        vals.insert(c.wrapping_add(1));
        vals.insert(c.wrapping_sub(1));
        vals.insert(c.wrapping_neg());
    };
    for u in &spec.updates {
        for c in u.constants() {
            add_const(c);
        }
    }
    for tree in &config.trees {
        for g in tree.guards() {
            for o in [&g.lhs, &g.rhs] {
                if let GuardOperand::Const(c) = o {
                    add_const(*c);
                }
            }
        }
        for u in tree.leaves() {
            if let Update::Write(Operand::Const(c))
            | Update::Add(Operand::Const(c))
            | Update::Sub(Operand::Const(c)) = u
            {
                add_const(*c);
            }
        }
    }
    vals.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use banzai::atom::Guard;
    use banzai::AtomRole;
    use domino_ir::StateRef;

    fn simple_spec(update: Sym) -> CodeletSpec {
        CodeletSpec {
            state_refs: vec![StateRef::Scalar("x".into())],
            updates: vec![update],
            outputs: vec![],
        }
    }

    fn config_with_tree(tree: Tree) -> StatefulConfig {
        StatefulConfig {
            state_refs: vec![StateRef::Scalar("x".into())],
            trees: vec![tree],
            outputs: vec![],
        }
    }

    #[test]
    fn correct_increment_verifies() {
        let spec = simple_spec(Sym::Binary(
            BinOp::Add,
            Box::new(Sym::StateOld(0)),
            Box::new(Sym::Const(1)),
        ));
        let config = config_with_tree(Tree::Leaf(Update::Add(Operand::Const(1))));
        verify(&spec, &config).unwrap();
    }

    #[test]
    fn wrong_constant_is_caught() {
        let spec = simple_spec(Sym::Binary(
            BinOp::Add,
            Box::new(Sym::StateOld(0)),
            Box::new(Sym::Const(1)),
        ));
        let config = config_with_tree(Tree::Leaf(Update::Add(Operand::Const(2))));
        let cex = verify(&spec, &config).unwrap_err();
        assert_eq!(cex.expected, cex.got - 1);
    }

    #[test]
    fn unsound_ordered_rewrite_is_caught_at_boundary() {
        // Spec: (old + 1 > 30) ? 0 : old   — wrapping makes old = i32::MAX
        // take the FALSE branch (old+1 wraps to MIN).
        // Bogus config: old > 29 ? 0 : keep — takes TRUE at old = MAX.
        let spec = simple_spec(Sym::Ternary(
            Box::new(Sym::Binary(
                BinOp::Gt,
                Box::new(Sym::Binary(
                    BinOp::Add,
                    Box::new(Sym::StateOld(0)),
                    Box::new(Sym::Const(1)),
                )),
                Box::new(Sym::Const(30)),
            )),
            Box::new(Sym::Const(0)),
            Box::new(Sym::StateOld(0)),
        ));
        let config = config_with_tree(Tree::Branch {
            guard: Guard {
                op: RelOp::Gt,
                lhs: GuardOperand::State(0),
                rhs: GuardOperand::Const(29),
            },
            then: Box::new(Tree::Leaf(Update::Write(Operand::Const(0)))),
            els: Box::new(Tree::Leaf(Update::Keep)),
        });
        let cex = verify(&spec, &config).unwrap_err();
        // The counterexample must be at the wrap boundary.
        assert_eq!(cex.olds[0], i32::MAX);
    }

    #[test]
    fn guard_field_mismatch_caught() {
        // Spec guards on pkt.a, config guards on pkt.b.
        let spec = simple_spec(Sym::Ternary(
            Box::new(Sym::Field("a".into())),
            Box::new(Sym::Const(1)),
            Box::new(Sym::StateOld(0)),
        ));
        let config = config_with_tree(Tree::Branch {
            guard: Guard {
                op: RelOp::Ne,
                lhs: GuardOperand::Field("b".into()),
                rhs: GuardOperand::Const(0),
            },
            then: Box::new(Tree::Leaf(Update::Write(Operand::Const(1)))),
            els: Box::new(Tree::Leaf(Update::Keep)),
        });
        assert!(verify(&spec, &config).is_err());
    }

    /// Every stateful codelet of every program that maps (Table 4's and
    /// `codel_lut`), with the configuration it compiles to at its least
    /// atom: `(program, the codelet's state variables, spec, config)`.
    fn table4_codelets() -> Vec<(&'static str, String, CodeletSpec, StatefulConfig)> {
        let programs = algorithms::TABLE4.iter().chain([&algorithms::CODEL_LUT]);
        let mut out = Vec::new();
        for a in programs {
            let Some(target) = a.least_target() else {
                continue;
            };
            let pipeline = domino_compiler::compile(a.source, &target)
                .unwrap_or_else(|e| panic!("{}: {e}", a.name));
            for atom in pipeline.stages.iter().flatten() {
                if let AtomRole::Stateful { config, .. } = &atom.role {
                    let spec = crate::sym::collapse(&atom.codelet).unwrap();
                    let vars: Vec<&str> = spec.state_refs.iter().map(|r| r.name()).collect();
                    out.push((a.name, vars.join("+"), spec, config.clone()));
                }
            }
        }
        out
    }

    /// FNV-1a over every value of every vector, in order.
    fn fingerprint(spec: &CodeletSpec, config: &StatefulConfig) -> u64 {
        let fields = collect_fields(spec, config);
        let interesting = interesting_values(spec, config);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let n_vars = spec.num_vars();
        vectors::<()>(n_vars, fields.len(), &interesting, |v| {
            for &x in v {
                h = (h ^ x as u32 as u64).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        })
        .unwrap();
        h
    }

    /// The vector-at-a-time reference: [`Sym::eval`] and [`Tree::eval`]
    /// over map packets, on the same vectors in the same order.
    fn reference(
        spec: &CodeletSpec,
        config: &StatefulConfig,
    ) -> (Result<(), Counterexample>, usize) {
        let fields = collect_fields(spec, config);
        let interesting = interesting_values(spec, config);
        let n_vars = spec.num_vars();
        let mut n = 0;
        let verdict = vectors(n_vars, fields.len(), &interesting, |v| {
            n += 1;
            let (olds, vals) = v.split_at(n_vars);
            let mut packet = Packet::new();
            for (f, &x) in fields.iter().zip(vals) {
                packet.set(f, x);
            }
            for (var, update) in spec.updates.iter().enumerate() {
                let (expected, got) = (
                    update.eval(olds, &packet),
                    config.trees[var].eval(var, olds, &packet),
                );
                if expected != got {
                    return Err(Counterexample {
                        var,
                        olds: olds.to_vec(),
                        packet,
                        expected,
                        got,
                    });
                }
            }
            Ok(())
        });
        (verdict, n)
    }

    #[test]
    fn every_table4_codelet_is_checked_on_the_vectors_it_always_was() {
        // `(program, variables, vectors evaluated, fingerprint of the
        // vector sequence)`, as the vector-at-a-time verifier this one
        // replaced read them.
        const PINNED: &[(&str, &str, usize, u64)] = &[
            ("bloom_filter", "filter1", 1041, 0xd7aab84f29eeb998),
            ("bloom_filter", "filter2", 1041, 0xd7aab84f29eeb998),
            ("bloom_filter", "filter3", 1041, 0xd7aab84f29eeb998),
            ("heavy_hitters", "cms1", 1041, 0xd7aab84f29eeb998),
            ("heavy_hitters", "cms2", 1041, 0xd7aab84f29eeb998),
            ("heavy_hitters", "cms3", 1041, 0xd7aab84f29eeb998),
            ("flowlet", "last_time", 1106, 0x443c774fd4f3cda7),
            ("flowlet", "saved_hop", 1563, 0x8e716a97d9fb3c44),
            ("rcp", "input_traffic_bytes", 1106, 0x443c774fd4f3cda7),
            ("rcp", "sum_rtt_tr", 1563, 0x8e716a97d9fb3c44),
            ("rcp", "num_pkts_with_rtt", 1106, 0x443c774fd4f3cda7),
            ("sampled_netflow", "count", 1045, 0xcae614ffe1d0c818),
            ("hull", "last_update", 1106, 0x443c774fd4f3cda7),
            ("hull", "vq", 5156, 0x99b2f1b7259d99a8),
            ("avq", "last_update", 1106, 0x443c774fd4f3cda7),
            ("avq", "vcap", 1114, 0x43399ea92d8f6ae7),
            ("avq", "vq", 5174, 0x204245f58a390a63),
            ("stfq", "last_finish", 33837, 0xe55ed0d08942d2ab),
            ("dns_ttl_change", "last_ttl", 1106, 0x443c774fd4f3cda7),
            ("dns_ttl_change", "num_changes", 1106, 0x443c774fd4f3cda7),
            ("dns_ttl_change", "ttl_streak", 1563, 0x8e716a97d9fb3c44),
            (
                "conga",
                "best_path_util+best_path",
                33837,
                0xe55ed0d08942d2ab,
            ),
            ("codel_lut", "first_above_time", 5156, 0x99b2f1b7259d99a8),
            ("codel_lut", "dropping", 1106, 0x443c774fd4f3cda7),
            ("codel_lut", "drop_start", 5156, 0x99b2f1b7259d99a8),
            ("codel_lut", "drop_next", 33837, 0xe55ed0d08942d2ab),
        ];
        let mut seen = Vec::new();
        for (program, vars, spec, config) in table4_codelets() {
            let (verdict, n) = verify_counted(&spec, &config);
            assert_eq!(verdict, Ok(()), "{program} {vars}");
            seen.push((program, vars.clone(), n, fingerprint(&spec, &config)));
        }
        let pinned: Vec<_> = (PINNED.iter())
            .map(|&(p, v, n, h)| (p, v.to_string(), n, h))
            .collect();
        assert_eq!(seen, pinned);
    }

    /// One seeded mutation of `tree`: the `site`-th place `kind` applies
    /// to, counted in pre-order, if there is one.
    fn mutate(tree: &Tree, kind: usize, site: &mut usize, field: &Operand) -> Option<Tree> {
        let mut hit = |t: Option<Tree>| {
            let at = t.is_some() && *site == 0;
            if t.is_some() {
                *site = site.wrapping_sub(1);
            }
            t.filter(|_| at)
        };
        match tree {
            Tree::Branch { guard, then, els } => {
                let branch = |guard: Guard, then: &Tree, els: &Tree| Tree::Branch {
                    guard,
                    then: Box::new(then.clone()),
                    els: Box::new(els.clone()),
                };
                let here = match kind {
                    // Flip the relation.
                    0 => Some(branch(
                        Guard {
                            op: guard.op.flipped(),
                            ..guard.clone()
                        },
                        then,
                        els,
                    )),
                    // Swap the arms.
                    1 => Some(branch(guard.clone(), els, then)),
                    // Move a guard constant by one.
                    2 => match (&guard.lhs, &guard.rhs) {
                        (_, GuardOperand::Const(c)) => Some(branch(
                            Guard {
                                rhs: GuardOperand::Const(c.wrapping_add(1)),
                                ..guard.clone()
                            },
                            then,
                            els,
                        )),
                        (GuardOperand::Const(c), _) => Some(branch(
                            Guard {
                                lhs: GuardOperand::Const(c.wrapping_sub(1)),
                                ..guard.clone()
                            },
                            then,
                            els,
                        )),
                        _ => None,
                    },
                    _ => None,
                };
                if let Some(t) = hit(here) {
                    return Some(t);
                }
                if let Some(t) = mutate(then, kind, site, field) {
                    return Some(branch(guard.clone(), &t, els));
                }
                let t = mutate(els, kind, site, field)?;
                Some(branch(guard.clone(), then, &t))
            }
            Tree::Leaf(u) => {
                let moved = |o: &Operand| match o {
                    Operand::Const(c) => Some(Operand::Const(c.wrapping_add(1))),
                    Operand::Field(_) => None,
                };
                let here = match (kind, u) {
                    (2, Update::Write(o)) => moved(o).map(Update::Write),
                    (2, Update::Add(o)) => moved(o).map(Update::Add),
                    (2, Update::Sub(o)) => moved(o).map(Update::Sub),
                    (3, Update::Add(o)) => Some(Update::Sub(o.clone())),
                    (3, Update::Sub(o)) => Some(Update::Add(o.clone())),
                    (4, Update::Write(_)) => Some(Update::Keep),
                    (4, Update::Keep) => Some(Update::Write(field.clone())),
                    _ => None,
                };
                hit(here.map(Tree::Leaf))
            }
        }
    }

    #[test]
    fn mutants_of_every_table4_configuration_get_the_reference_verdict() {
        let mut rng = StdRng::seed_from_u64(36);
        let (mut mutants, mut caught) = (0, 0);
        for (program, vars, spec, config) in table4_codelets() {
            let field = collect_fields(&spec, &config)
                .first()
                .map_or(Operand::Const(7), |f| Operand::Field(f.clone()));
            for kind in 0..5 {
                for (var, tree) in config.trees.iter().enumerate() {
                    // Count the sites, then take a seeded one.
                    let mut sites = usize::MAX;
                    mutate(tree, kind, &mut sites, &field);
                    let sites = usize::MAX - sites;
                    if sites == 0 {
                        continue;
                    }
                    let mut site = rng.gen_range(0..sites);
                    let tree = mutate(tree, kind, &mut site, &field).unwrap();
                    let mut mutant = config.clone();
                    mutant.trees[var] = tree;
                    let got = verify_counted(&spec, &mutant);
                    let want = reference(&spec, &mutant);
                    assert_eq!(got, want, "{program} {vars}: mutation {kind} of {var}");
                    mutants += 1;
                    caught += got.0.is_err() as usize;
                }
            }
        }
        assert!(mutants >= 40, "{mutants} mutants");
        assert!(caught * 4 >= mutants * 3, "{caught} of {mutants} caught");
    }

    #[test]
    fn the_lane_evaluator_equals_sym_eval_on_random_expressions() {
        const BINOPS: [BinOp; 18] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::BitAnd,
            BinOp::BitOr,
            BinOp::BitXor,
            BinOp::And,
            BinOp::Or,
            BinOp::Lt,
            BinOp::Gt,
            BinOp::Le,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ];
        const UNOPS: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::BitNot];
        // Divisors 0 and -1 against `i32::MIN`, shifts of 32 and more.
        const CORNERS: [i32; 12] = [0, 1, -1, 2, 31, 32, 33, 64, -32, i32::MIN, i32::MAX, 7];
        fn leaf(rng: &mut StdRng) -> Sym {
            match rng.gen_range(0..4) {
                0 => Sym::StateOld(rng.gen_range(0..2)),
                1 => Sym::Field(["a", "b"][rng.gen_range(0..2)].into()),
                _ => Sym::Const(CORNERS[rng.gen_range(0..CORNERS.len())]),
            }
        }
        fn expr(rng: &mut StdRng, depth: u32) -> Sym {
            if depth == 0 {
                return leaf(rng);
            }
            let sub = |rng: &mut StdRng| Box::new(expr(rng, depth - 1));
            match rng.gen_range(0..8) {
                0 => Sym::Unary(UNOPS[rng.gen_range(0..3)], sub(rng)),
                1 => Sym::Ternary(sub(rng), sub(rng), sub(rng)),
                2 => leaf(rng),
                _ => {
                    let op = BINOPS[rng.gen_range(0..BINOPS.len())];
                    Sym::Binary(op, sub(rng), sub(rng))
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(0x1a7e5);
        let fields = vec!["a".to_string(), "b".to_string()];
        let state_refs = vec![StateRef::Scalar("x".into()), StateRef::Scalar("y".into())];
        let keep = Tree::Leaf(Update::Keep);
        for case in 0..400 {
            // Every operator at the root at least once, over corner leaves.
            let updates = match case {
                0..=17 => vec![
                    Sym::Binary(
                        BINOPS[case],
                        Box::new(leaf(&mut rng)),
                        Box::new(leaf(&mut rng)),
                    ),
                    Sym::Unary(UNOPS[case % 3], Box::new(leaf(&mut rng))),
                ],
                _ => vec![expr(&mut rng, 4), expr(&mut rng, 3)],
            };
            let spec = CodeletSpec {
                state_refs: state_refs.clone(),
                updates,
                outputs: vec![],
            };
            let config = StatefulConfig {
                state_refs: state_refs.clone(),
                trees: vec![keep.clone(), keep.clone()],
                outputs: vec![],
            };
            let mut lanes = Lanes::lower(&spec, &config, &fields);
            let inputs: Vec<[i32; 4]> = (0..LANES - 1)
                .map(|_| {
                    [(); 4].map(|()| match rng.gen_range(0..3) {
                        0 => rng.gen(),
                        _ => CORNERS[rng.gen_range(0..CORNERS.len())],
                    })
                })
                .collect();
            for v in &inputs {
                lanes.push(v).unwrap();
            }
            lanes.eval();
            for (lane, v) in inputs.iter().enumerate() {
                let packet = Packet::new().with("a", v[2]).with("b", v[3]);
                for (var, update) in spec.updates.iter().enumerate() {
                    let got = lanes.frame[lanes.outs[var].0][lane];
                    assert_eq!(got, update.eval(&v[..2], &packet), "{update} on {v:?}");
                }
            }
        }
    }

    #[test]
    fn counterexample_display_is_informative() {
        let cex = Counterexample {
            var: 0,
            olds: vec![5],
            packet: Packet::new().with("a", 1),
            expected: 6,
            got: 7,
        };
        let text = cex.to_string();
        assert!(text.contains("codelet says 6"), "{text}");
        assert!(text.contains("atom says 7"), "{text}");
    }
}
