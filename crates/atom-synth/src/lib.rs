//! # atom-synth — codelet→atom mapping by program synthesis
//!
//! The Domino compiler's code-generation problem (§4.3): given a stateful
//! codelet (one SCC of the dependency graph) and an atom template, find
//! values for the template's configuration parameters such that the
//! configured atom is functionally identical to the codelet — or prove
//! none exist and reject the program. The paper uses the SKETCH program
//! synthesizer; this crate implements the equivalent search:
//!
//! 1. [`sym::collapse`] — fold the codelet into per-state-variable update
//!    expressions (the codelet *is* the functional specification);
//! 2. [`normalize`] — structural rewriting into guarded-update normal form
//!    (the re-parameterizations SKETCH finds by search, done by rule);
//! 3. [`search::enumerate`] — an enumerative fallback/oracle that explores
//!    the template parameter space directly, SKETCH-style;
//! 4. [`verify`] — counterexample-driven equivalence checking of every
//!    produced configuration against the codelet.
//!
//! The top-level entry points are [`synthesize`] (find *some* configuration
//! and the minimal atom kind that holds it) and [`map_to_kind`] (the
//! all-or-nothing check against a specific target's atom).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod normalize;
pub mod search;
pub mod sym;
pub mod verify;

use banzai::atom::StatefulConfig;
use banzai::kind::AtomKind;
use domino_ir::Codelet;
use std::fmt;

/// A successful synthesis: the configuration and the least expressive atom
/// kind that can hold it.
#[derive(Debug, Clone, PartialEq)]
pub struct Synthesis {
    /// The filled-in template.
    pub config: StatefulConfig,
    /// The least expressive kind of Table 3 able to execute it.
    pub minimal_kind: AtomKind,
}

/// Why a codelet could not be mapped to any atom (or to the requested
/// kind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthError {
    /// Human-readable reason, forwarded into the compiler's rejection
    /// diagnostic.
    pub message: String,
}

impl SynthError {
    fn new(msg: impl Into<String>) -> Self {
        SynthError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SynthError {}

/// Synthesizes an atom configuration for a stateful codelet, using the
/// structural normalizer first and the enumerative search as fallback.
/// Every configuration is verified against the codelet before being
/// returned.
pub fn synthesize(codelet: &Codelet) -> Result<Synthesis, SynthError> {
    let spec = sym::collapse(codelet).map_err(|e| SynthError::new(e.message))?;

    // Fast path: structural normalization.
    let config = match normalize::normalize_spec(&spec) {
        Ok(config) => config,
        Err(norm_err) => {
            // Fallback: enumerative search over the most expressive
            // single-variable space (the hierarchy means a hit here can
            // still be classified minimally afterwards).
            match search::enumerate(&spec, AtomKind::Nested) {
                Some(config) => config,
                None => return Err(SynthError::new(norm_err.message)),
            }
        }
    };

    verify::verify(&spec, &config).map_err(|cex| {
        SynthError::new(format!("internal synthesis error (unsound rewrite): {cex}"))
    })?;

    let minimal_kind = config.minimal_kind().ok_or_else(|| {
        SynthError::new(
            "codelet's configuration exceeds every atom kind (more than two \
             state variables or tree depth beyond 4-way predication)",
        )
    })?;

    Ok(Synthesis {
        config,
        minimal_kind,
    })
}

/// The all-or-nothing mapping check: synthesize and verify a configuration,
/// then require it to fit the target's `kind`.
///
/// When the normalizer's configuration is too expressive for `kind`, the
/// enumerative search is given a chance to find a *different*
/// parameterization within `kind`'s template — just as SKETCH searches each
/// target's own parameter space (a codelet whose natural decision tree is
/// deep may still have a semantically equivalent shallow configuration).
pub fn map_to_kind(codelet: &Codelet, kind: AtomKind) -> Result<Synthesis, SynthError> {
    let synth = synthesize(codelet)?;
    if synth.minimal_kind > kind {
        let spec = sym::collapse(codelet).map_err(|e| SynthError::new(e.message))?;
        // `enumerate` returns only configurations it has verified.
        if let Some(config) = search::enumerate(&spec, kind) {
            if let Some(minimal_kind) = config.minimal_kind() {
                if minimal_kind <= kind {
                    return Ok(Synthesis {
                        config,
                        minimal_kind,
                    });
                }
            }
        }
        return Err(SynthError::new(format!(
            "codelet requires the {} atom but the target provides only {}",
            synth.minimal_kind, kind
        )));
    }
    Ok(synth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_ast::BinOp;
    use domino_ir::{Operand, StateRef, TacRhs, TacStmt};

    fn fld(n: &str) -> Operand {
        Operand::Field(n.into())
    }

    /// Flowlet's saved_hop codelet (Figure 3b stage 4-5 stateful atom).
    fn saved_hop_codelet() -> Codelet {
        Codelet::new(vec![
            TacStmt::ReadState {
                dst: "saved_hop".into(),
                state: StateRef::Array {
                    name: "saved_hop".into(),
                    index: fld("id"),
                },
            },
            TacStmt::Assign {
                dst: "out".into(),
                rhs: TacRhs::Ternary(fld("tmp2"), fld("new_hop"), fld("saved_hop")),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "saved_hop".into(),
                    index: fld("id"),
                },
                src: fld("out"),
            },
        ])
    }

    /// Flowlet's last_time codelet (read + unconditional write).
    fn last_time_codelet() -> Codelet {
        Codelet::new(vec![
            TacStmt::ReadState {
                dst: "last_time".into(),
                state: StateRef::Array {
                    name: "last_time".into(),
                    index: fld("id"),
                },
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "last_time".into(),
                    index: fld("id"),
                },
                src: fld("arrival"),
            },
        ])
    }

    #[test]
    fn saved_hop_needs_praw() {
        // Conditional write with unchanged else: exactly PRAW (Table 4 says
        // flowlets' least expressive atom is PRAW).
        let synth = synthesize(&saved_hop_codelet()).unwrap();
        assert_eq!(synth.minimal_kind, AtomKind::Praw);
    }

    #[test]
    fn last_time_needs_only_write() {
        let synth = synthesize(&last_time_codelet()).unwrap();
        assert_eq!(synth.minimal_kind, AtomKind::Write);
        // The read flank is delivered to the packet.
        assert_eq!(synth.config.outputs, vec![("last_time".into(), 0)]);
    }

    #[test]
    fn map_to_kind_respects_hierarchy() {
        let c = saved_hop_codelet();
        assert!(map_to_kind(&c, AtomKind::Write).is_err());
        assert!(map_to_kind(&c, AtomKind::Raw).is_err());
        assert!(map_to_kind(&c, AtomKind::Praw).is_ok());
        assert!(map_to_kind(&c, AtomKind::Pairs).is_ok()); // containment
    }

    #[test]
    fn mapping_failure_message_names_kinds() {
        let err = map_to_kind(&saved_hop_codelet(), AtomKind::Raw).unwrap_err();
        assert!(err.message.contains("PRAW"), "{err}");
        assert!(err.message.contains("RAW"), "{err}");
    }

    #[test]
    fn conga_pair_maps_to_pairs() {
        // if (util < best_util) { best_util = util; best_path = path }
        // else if (path == best_path) { best_util = util }
        let c = Codelet::new(vec![
            TacStmt::ReadState {
                dst: "bu".into(),
                state: StateRef::Scalar("best_util".into()),
            },
            TacStmt::ReadState {
                dst: "bp".into(),
                state: StateRef::Scalar("best_path".into()),
            },
            TacStmt::Assign {
                dst: "better".into(),
                rhs: TacRhs::Binary(BinOp::Lt, fld("util"), fld("bu")),
            },
            TacStmt::Assign {
                dst: "same".into(),
                rhs: TacRhs::Binary(BinOp::Eq, fld("path_id"), fld("bp")),
            },
            TacStmt::Assign {
                dst: "nbu1".into(),
                rhs: TacRhs::Ternary(fld("same"), fld("util"), fld("bu")),
            },
            TacStmt::Assign {
                dst: "nbu".into(),
                rhs: TacRhs::Ternary(fld("better"), fld("util"), fld("nbu1")),
            },
            TacStmt::Assign {
                dst: "nbp".into(),
                rhs: TacRhs::Ternary(fld("better"), fld("path_id"), fld("bp")),
            },
            TacStmt::WriteState {
                state: StateRef::Scalar("best_util".into()),
                src: fld("nbu"),
            },
            TacStmt::WriteState {
                state: StateRef::Scalar("best_path".into()),
                src: fld("nbp"),
            },
        ]);
        let synth = synthesize(&c).unwrap();
        assert_eq!(synth.minimal_kind, AtomKind::Pairs);
        assert_eq!(synth.config.state_refs.len(), 2);
    }

    #[test]
    fn square_rejected_everywhere() {
        let c = Codelet::new(vec![
            TacStmt::ReadState {
                dst: "x".into(),
                state: StateRef::Scalar("x".into()),
            },
            TacStmt::Assign {
                dst: "sq".into(),
                rhs: TacRhs::Binary(BinOp::Mul, fld("x"), fld("x")),
            },
            TacStmt::WriteState {
                state: StateRef::Scalar("x".into()),
                src: fld("sq"),
            },
        ]);
        let err = synthesize(&c).unwrap_err();
        assert!(err.message.contains("does not fit"), "{err}");
    }

    #[test]
    fn normalizer_and_search_agree_on_praw_example() {
        // Cross-check the two synthesis engines on the same spec.
        let c = saved_hop_codelet();
        let spec = sym::collapse(&c).unwrap();
        let structural = normalize::normalize_spec(&spec).unwrap();
        let searched = search::enumerate(&spec, AtomKind::Praw).unwrap();
        // Both must verify; they may differ syntactically.
        verify::verify(&spec, &structural).unwrap();
        verify::verify(&spec, &searched).unwrap();
    }

    #[test]
    fn stfq_style_max_plus_add() {
        // last_finish = max(virtual_time_field, old) + len, written in the
        // atom-friendly form: precomputed vt_plus_len outside, codelet:
        //   new = (old > vt) ? old + len : vt_plus_len
        let c = Codelet::new(vec![
            TacStmt::ReadState {
                dst: "lf".into(),
                state: StateRef::Scalar("last_finish".into()),
            },
            TacStmt::Assign {
                dst: "ge".into(),
                rhs: TacRhs::Binary(BinOp::Gt, fld("lf"), fld("vt")),
            },
            TacStmt::Assign {
                dst: "a".into(),
                rhs: TacRhs::Binary(BinOp::Add, fld("lf"), fld("len")),
            },
            TacStmt::Assign {
                dst: "nf".into(),
                rhs: TacRhs::Ternary(fld("ge"), fld("a"), fld("vt_plus_len")),
            },
            TacStmt::WriteState {
                state: StateRef::Scalar("last_finish".into()),
                src: fld("nf"),
            },
        ]);
        let synth = synthesize(&c).unwrap();
        // Guard on state, add in one branch, write in the other: IfElseRAW.
        assert_eq!(synth.minimal_kind, AtomKind::IfElseRaw);
    }
}
