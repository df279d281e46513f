//! # bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§5), printing
//! the paper-reported values next to the values measured from this
//! implementation (see DESIGN.md's experiment index and EXPERIMENTS.md for
//! the recorded comparison):
//!
//! * `table3` — atom areas (E1),
//! * `table4` — the algorithm × target matrix with pipeline shapes and
//!   LOC (E2; `--with-lut` adds the X1 row),
//! * `table5` — programmability vs. performance (E3),
//! * `table6` — circuit structure and minimum delays (E4),
//! * `figure3` — the flowlet pipeline (E5),
//! * `throughput` — the differential harness for E8–E11, E13 and E14
//!   (compilation time, engine comparison, shard scaling, wire roundtrip,
//!   programmable scheduling, bounded-memory streaming), every run
//!   emitting `BENCH_throughput.json`. It measures, and asserts what makes
//!   a measured row meaningful; what only asserts — fault injection (E12)
//!   among it — is a test suite under `tests/`. It compares nothing with
//!   an earlier run — the ledger under `benchmark/` is what a PR's speed
//!   is held to (see [`throughput`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pcap;
pub mod sketch;
pub mod throughput;
pub mod wiregen;

use banzai::{AtomKind, Target};

/// Result of compiling one algorithm against the target ladder.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    /// Algorithm name.
    pub name: &'static str,
    /// Least expressive standard target that accepts the program.
    pub least_atom: Option<AtomKind>,
    /// PVSM pipeline depth (stages).
    pub stages: usize,
    /// Maximum atoms per stage.
    pub max_atoms_per_stage: usize,
    /// Domino LOC of our source.
    pub domino_loc: usize,
    /// LOC of the generated P4 (on the least target, or Pairs+LUT for
    /// `codel_lut`).
    pub p4_loc: Option<usize>,
    /// Rejection reason on the most expressive baseline target, if the
    /// program doesn't map.
    pub reject_reason: Option<String>,
}

/// Compiles `algo` against every standard target (optionally LUT-extended)
/// and gathers the Table 4 row.
pub fn evaluate_algorithm(algo: &algorithms::Algorithm, with_lut: bool) -> AlgoResult {
    let compilation =
        domino_compiler::normalize(algo.source).unwrap_or_else(|e| panic!("{}: {e}", algo.name));

    let mk_target = |kind: AtomKind| {
        if with_lut {
            Target::banzai_with_lut(kind)
        } else {
            Target::banzai(kind)
        }
    };

    let mut least = None;
    let mut p4_loc = None;
    for kind in AtomKind::ALL {
        if let Ok(pipeline) = domino_compiler::lower(&compilation, &mk_target(kind)) {
            least = Some(kind);
            p4_loc = Some(p4_backend::loc(&p4_backend::generate(
                &compilation,
                &pipeline,
            )));
            break;
        }
    }
    let reject_reason = if least.is_none() {
        domino_compiler::lower(&compilation, &mk_target(AtomKind::Pairs))
            .err()
            .map(|e| e.message.lines().last().unwrap_or("").to_string())
    } else {
        None
    };

    AlgoResult {
        name: algo.name,
        least_atom: least,
        stages: compilation.pvsm.depth(),
        max_atoms_per_stage: compilation.pvsm.max_width(),
        domino_loc: algo.domino_loc(),
        p4_loc,
        reject_reason,
    }
}

/// Renders a text table with aligned columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats an optional atom kind like Table 4 ("Doesn't map" when absent).
pub fn kind_cell(kind: Option<AtomKind>) -> String {
    match kind {
        Some(k) => k.short_name().to_string(),
        None => "doesn't map".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_rows_match_paper_least_atoms() {
        // The headline reproduction: every algorithm's least expressive
        // atom equals the paper's Table 4 column.
        for algo in &algorithms::TABLE4 {
            let result = evaluate_algorithm(algo, false);
            assert_eq!(
                result.least_atom, algo.paper.least_atom,
                "{}: measured {:?} vs paper {:?}",
                algo.name, result.least_atom, algo.paper.least_atom
            );
        }
    }

    #[test]
    fn codel_maps_with_lut_only() {
        let lut = evaluate_algorithm(&algorithms::CODEL_LUT, true);
        assert_eq!(lut.least_atom, Some(AtomKind::Nested));
        let base = evaluate_algorithm(&algorithms::CODEL_LUT, false);
        assert_eq!(base.least_atom, None);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["xx".into(), "y".into()],
                vec!["1".into(), "22222".into()],
            ],
        );
        assert!(t.contains("xx  y"), "{t}");
        assert!(t.contains("1   22222"), "{t}");
    }

    #[test]
    fn stage_counts_are_in_paper_ballpark() {
        // Stage counts never differ from the paper's by more than ~4
        // (sources are rewritten, not copied; see EXPERIMENTS.md).
        for algo in &algorithms::TABLE4 {
            let result = evaluate_algorithm(algo, false);
            let diff = (result.stages as i64 - algo.paper.stages as i64).abs();
            assert!(
                diff <= 4,
                "{}: stages {} vs paper {}",
                algo.name,
                result.stages,
                algo.paper.stages
            );
        }
    }
}
