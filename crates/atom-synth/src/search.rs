//! Enumerative parameter search — the SKETCH analogue.
//!
//! The paper maps codelets to atoms by asking SKETCH to *search* the atom
//! template's parameter space (mux selectors, opcode choices, constants) for
//! a configuration functionally identical to the codelet (§4.3, Figure 2).
//! This module implements that search directly: enumerate candidate guards
//! and updates drawn from an operand universe, filter against a growing
//! example set (cheap), and verify survivors with the full suite
//! ([`crate::verify`]).
//!
//! The structural normalizer ([`crate::normalize`]) is the fast path; this
//! search is both a fallback (it can discover parameterizations the
//! normalizer's rewrites miss) and an independent oracle used by tests to
//! cross-check the normalizer. Unlike SKETCH we do not enumerate raw
//! constant bit-patterns: candidate constants are harvested from the
//! codelet text (±1), which is why the paper's 5-bit search bound does not
//! apply here.

use crate::sym::CodeletSpec;
use crate::verify;
use banzai::atom::{Guard, GuardOperand, RelOp, StatefulConfig, Tree, Update};
use banzai::kind::AtomKind;
use domino_ir::{Operand, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Hard cap on candidate configurations tried per state variable; beyond
/// this the search reports failure (the codelet is rejected, matching the
/// all-or-nothing model).
const MAX_CANDIDATES: usize = 2_000_000;

/// Searches for a configuration of `kind`'s template implementing `spec`.
///
/// Only single-variable, depth ≤ 1 templates (Write .. Sub) are searched —
/// the spaces for Nested/Pairs are combinatorial and served by the
/// normalizer. Returns `None` if no configuration in the space matches;
/// a configuration it returns has passed [`verify::verify`].
pub fn enumerate(spec: &CodeletSpec, kind: AtomKind) -> Option<StatefulConfig> {
    if spec.num_vars() != 1 {
        return None;
    }
    // Nested/Pairs search the IfElseRAW-shaped space, which is contained
    // in them (hierarchy).
    let caps = kind.caps();

    let universe = operand_universe(spec);
    let guards = guard_candidates(spec, &universe);
    let updates = update_candidates(&universe, caps.allow_add, caps.allow_sub);

    // Example vectors for fast filtering.
    let examples = example_vectors(spec);
    let expected: Vec<i32> = examples
        .iter()
        .map(|(olds, pkt)| spec.updates[0].eval(olds, pkt))
        .collect();

    let mut tried = 0usize;

    // Depth 0: a single unconditional update.
    for u in &updates {
        tried += 1;
        if matches_examples_leaf(u, &examples, &expected) {
            let config = make_config(spec, Tree::Leaf(u.clone()));
            if verify::verify(spec, &config).is_ok() {
                return Some(config);
            }
        }
    }

    if caps.max_tree_depth == 0 {
        return None;
    }

    // Depth 1: guard + two updates (else constrained to Keep for PRAW).
    let else_updates: Vec<Update> = if caps.else_may_update {
        updates.clone()
    } else {
        vec![Update::Keep]
    };
    for g in &guards {
        // Pre-evaluate the guard on all examples.
        let taken: Vec<bool> = examples
            .iter()
            .map(|(olds, pkt)| g.eval(olds, pkt))
            .collect();
        for then_u in &updates {
            // The then-branch must match every example where the guard held.
            if !branch_matches(then_u, &examples, &expected, &taken, true) {
                continue;
            }
            for else_u in &else_updates {
                tried += 1;
                if tried > MAX_CANDIDATES {
                    return None;
                }
                if !branch_matches(else_u, &examples, &expected, &taken, false) {
                    continue;
                }
                let tree = Tree::Branch {
                    guard: g.clone(),
                    then: Box::new(Tree::Leaf(then_u.clone())),
                    els: Box::new(Tree::Leaf(else_u.clone())),
                };
                let config = make_config(spec, tree);
                if verify::verify(spec, &config).is_ok() {
                    return Some(config);
                }
            }
        }
    }
    None
}

fn make_config(spec: &CodeletSpec, tree: Tree) -> StatefulConfig {
    StatefulConfig {
        state_refs: spec.state_refs.clone(),
        trees: vec![tree],
        outputs: spec.outputs.clone(),
    }
}

fn matches_examples_leaf(u: &Update, examples: &[(Vec<i32>, Packet)], expected: &[i32]) -> bool {
    examples
        .iter()
        .zip(expected)
        .all(|((olds, pkt), want)| u.apply(olds[0], pkt) == *want)
}

fn branch_matches(
    u: &Update,
    examples: &[(Vec<i32>, Packet)],
    expected: &[i32],
    taken: &[bool],
    when: bool,
) -> bool {
    examples
        .iter()
        .zip(expected)
        .zip(taken)
        .filter(|(_, t)| **t == when)
        .all(|(((olds, pkt), want), _)| u.apply(olds[0], pkt) == *want)
}

/// Candidate update/guard operands: fields and constants from the codelet,
/// plus 0, 1, and each constant ± 1.
fn operand_universe(spec: &CodeletSpec) -> (Vec<String>, Vec<i32>) {
    let mut fields: BTreeSet<String> = BTreeSet::new();
    let mut consts: BTreeSet<i32> = [0, 1].into_iter().collect();
    for u in &spec.updates {
        for f in u.fields() {
            fields.insert(f.to_string());
        }
        for c in u.constants() {
            consts.insert(c);
            consts.insert(c.wrapping_add(1));
            consts.insert(c.wrapping_sub(1));
        }
    }
    (fields.into_iter().collect(), consts.into_iter().collect())
}

fn guard_candidates(spec: &CodeletSpec, universe: &(Vec<String>, Vec<i32>)) -> Vec<Guard> {
    let (fields, consts) = universe;
    let mut operands: Vec<GuardOperand> = Vec::new();
    for i in 0..spec.num_vars() {
        operands.push(GuardOperand::State(i));
    }
    for f in fields {
        operands.push(GuardOperand::Field(f.clone()));
    }
    for c in consts {
        operands.push(GuardOperand::Const(*c));
    }
    let relops = [
        RelOp::Lt,
        RelOp::Gt,
        RelOp::Le,
        RelOp::Ge,
        RelOp::Eq,
        RelOp::Ne,
    ];
    let mut out = Vec::new();
    for op in relops {
        for l in &operands {
            for r in &operands {
                // Skip vacuous const-const guards.
                if matches!(l, GuardOperand::Const(_)) && matches!(r, GuardOperand::Const(_)) {
                    continue;
                }
                out.push(Guard {
                    op,
                    lhs: l.clone(),
                    rhs: r.clone(),
                });
            }
        }
    }
    out
}

fn update_candidates(
    universe: &(Vec<String>, Vec<i32>),
    allow_add: bool,
    allow_sub: bool,
) -> Vec<Update> {
    let (fields, consts) = universe;
    let mut operands: Vec<Operand> = Vec::new();
    for f in fields {
        operands.push(Operand::Field(f.clone()));
    }
    for c in consts {
        operands.push(Operand::Const(*c));
    }
    let mut out = vec![Update::Keep];
    for o in &operands {
        out.push(Update::Write(o.clone()));
        if allow_add {
            out.push(Update::Add(o.clone()));
        }
        if allow_sub {
            out.push(Update::Sub(o.clone()));
        }
    }
    out
}

/// A deterministic mixed suite of example vectors for candidate filtering.
fn example_vectors(spec: &CodeletSpec) -> Vec<(Vec<i32>, Packet)> {
    let mut fields: BTreeSet<String> = BTreeSet::new();
    for u in &spec.updates {
        for f in u.fields() {
            fields.insert(f.to_string());
        }
    }
    let fields: Vec<String> = fields.into_iter().collect();
    let mut rng = StdRng::seed_from_u64(0xD0_0D1E5);
    let mut out = Vec::new();
    let mut consts: Vec<i32> = vec![0, 1, -1, 30, i32::MAX, i32::MIN];
    for u in &spec.updates {
        for c in u.constants() {
            consts.extend([c, c.wrapping_add(1), c.wrapping_sub(1)]);
        }
    }
    for k in 0..24 {
        let olds: Vec<i32> = (0..spec.num_vars())
            .map(|i| {
                if k < consts.len() {
                    consts[(k + i) % consts.len()]
                } else if k % 2 == 0 {
                    rng.gen_range(-64..64)
                } else {
                    rng.gen()
                }
            })
            .collect();
        let mut pkt = Packet::new();
        for f in &fields {
            let v = if k % 2 == 0 {
                rng.gen_range(-64..64)
            } else {
                rng.gen()
            };
            pkt.set(f, v);
        }
        out.push((olds, pkt));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Sym;
    use domino_ast::BinOp;
    use domino_ir::StateRef;

    fn spec_of(update: Sym) -> CodeletSpec {
        CodeletSpec {
            state_refs: vec![StateRef::Scalar("x".into())],
            updates: vec![update],
            outputs: vec![],
        }
    }

    fn old() -> Sym {
        Sym::StateOld(0)
    }
    fn cst(v: i32) -> Sym {
        Sym::Const(v)
    }
    fn bin(op: BinOp, a: Sym, b: Sym) -> Sym {
        Sym::Binary(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn finds_increment_like_sketch_figure2() {
        // The paper's worked example: map x = x + 1 onto the add/sub
        // template; SKETCH finds choice=0, constant=1. Our search finds
        // Update::Add(1).
        let spec = spec_of(bin(BinOp::Add, old(), cst(1)));
        let config = enumerate(&spec, AtomKind::Raw).expect("x=x+1 must map to RAW");
        assert_eq!(config.trees[0], Tree::Leaf(Update::Add(Operand::Const(1))));
    }

    #[test]
    fn rejects_square_like_sketch_figure2() {
        // x = x * x has no parameterization: SKETCH "returns an error as no
        // parameters exist".
        let spec = spec_of(bin(BinOp::Mul, old(), old()));
        assert!(enumerate(&spec, AtomKind::Pairs).is_none());
    }

    #[test]
    fn write_atom_cannot_increment() {
        let spec = spec_of(bin(BinOp::Add, old(), cst(1)));
        assert!(enumerate(&spec, AtomKind::Write).is_none());
    }

    #[test]
    fn finds_wraparound_counter_on_ifelse_raw() {
        // (old < 99) ? old + 1 : 0
        let spec = spec_of(Sym::Ternary(
            Box::new(bin(BinOp::Lt, old(), cst(99))),
            Box::new(bin(BinOp::Add, old(), cst(1))),
            Box::new(cst(0)),
        ));
        let config = enumerate(&spec, AtomKind::IfElseRaw).expect("must map");
        assert_eq!(config.trees[0].depth(), 1);
        // And PRAW must NOT suffice (else branch writes 0).
        assert!(enumerate(&spec, AtomKind::Praw).is_none());
    }

    #[test]
    fn search_discovers_equality_offset_reparameterization() {
        // (old + 1 == 30) ? 0 : old + 1 — searchable as old == 29.
        let spec = spec_of(Sym::Ternary(
            Box::new(bin(BinOp::Eq, bin(BinOp::Add, old(), cst(1)), cst(30))),
            Box::new(cst(0)),
            Box::new(bin(BinOp::Add, old(), cst(1))),
        ));
        let config = enumerate(&spec, AtomKind::IfElseRaw).expect("must map");
        let Tree::Branch { guard, .. } = &config.trees[0] else {
            panic!()
        };
        // The discovered guard must be semantically old==29 or its mirror.
        let g = guard.to_string();
        assert!(
            g == "state[0] == 29" || g == "29 == state[0]" || g == "state[0] != 29", // with swapped branches — verify
            // would have caught wrong semantics
            "unexpected guard {g}"
        );
    }

    #[test]
    fn subtraction_needs_sub_atom() {
        let spec = spec_of(bin(BinOp::Sub, old(), Sym::Field("dec".into())));
        assert!(enumerate(&spec, AtomKind::IfElseRaw).is_none());
        let config = enumerate(&spec, AtomKind::Sub).expect("must map on Sub");
        assert_eq!(
            config.trees[0],
            Tree::Leaf(Update::Sub(Operand::Field("dec".into())))
        );
    }

    #[test]
    fn guarded_accumulate_fits_praw() {
        // RCP-style: (pkt.ok) ? old + pkt.rtt : old
        let spec = spec_of(Sym::Ternary(
            Box::new(Sym::Field("ok".into())),
            Box::new(bin(BinOp::Add, old(), Sym::Field("rtt".into()))),
            Box::new(old()),
        ));
        let config = enumerate(&spec, AtomKind::Praw).expect("must map on PRAW");
        let Tree::Branch { els, .. } = &config.trees[0] else {
            panic!()
        };
        assert_eq!(**els, Tree::Leaf(Update::Keep));
    }

    #[test]
    fn two_variable_specs_are_not_searched() {
        let spec = CodeletSpec {
            state_refs: vec![StateRef::Scalar("a".into()), StateRef::Scalar("b".into())],
            updates: vec![Sym::StateOld(0), Sym::StateOld(1)],
            outputs: vec![],
        };
        assert!(enumerate(&spec, AtomKind::Pairs).is_none());
    }
}
