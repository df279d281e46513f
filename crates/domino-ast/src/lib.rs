//! # domino-ast — front end of the Domino language
//!
//! Domino (Sivaraman et al., *Packet Transactions: High-Level Programming
//! for Line-Rate Switches*, SIGCOMM 2016) is a C-like DSL for data-plane
//! algorithms. A Domino program declares packet fields, persistent switch
//! state, and exactly one **packet transaction** — a sequential code block
//! with atomic, isolated semantics across packets.
//!
//! This crate provides:
//!
//! * [`lexer`] / [`parser`] — tokenization and recursive-descent parsing,
//!   with targeted diagnostics for the C constructs Domino bans (Table 1),
//! * [`ast`] — the tree shared by the parser and all compiler passes,
//! * [`sema`] — semantic analysis producing a [`sema::CheckedProgram`],
//! * [`intrinsics`] — the hardware-accelerator intrinsic table (`hash2`,
//!   `hash3`, `isqrt`) and their reference implementations,
//! * [`loc`] — comment-stripping line counting for the paper's Table 4.
//!
//! ## Example
//!
//! ```
//! let src = r#"
//!     struct Packet { int sport; int dport; int id; };
//!     int counter = 0;
//!     void count(struct Packet pkt) {
//!         counter = counter + 1;
//!         pkt.id = hash2(pkt.sport, pkt.dport) % 1024;
//!     }
//! "#;
//! let checked = domino_ast::sema::parse_and_check(src).expect("valid program");
//! assert_eq!(checked.name, "count");
//! assert_eq!(checked.state[0].name, "counter");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod intrinsics;
pub mod lexer;
pub mod loc;
pub mod parser;
pub mod sema;
pub mod span;
pub mod token;

pub use ast::{BinOp, Expr, LValue, Program, Stmt, UnOp};
pub use diag::{Diagnostic, Stage};
pub use parser::{parse, parse_expr};
pub use sema::{check, parse_and_check, CheckedProgram, StateKind, StateVar};
pub use span::Span;
