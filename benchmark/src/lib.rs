//! # ledger — the cost ledger
//!
//! One host-calibrated benchmark for every user-callable switch path of
//! the Banzai software switch, decomposed by layer. See `README.md` in
//! this directory for the protocol and how to read the numbers.
//!
//! Everything here sits outside the system it measures: loads come from
//! the benchmark's own generators ([`gen`]), layers are timed from outside
//! through their public functions ([`replica`], [`trace`]), and nothing in
//! the repository depends on this package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod host;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod replica;
pub mod report;
pub mod trace;
pub mod workloads;
