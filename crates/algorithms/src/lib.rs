//! # algorithms — the data-plane algorithm suite of Table 4
//!
//! Every algorithm the paper programs in Domino (§5.1), as Domino source
//! (`src/domino/*.domino`), together with:
//!
//! * the paper's published Table 4 row (least expressive atom, pipeline
//!   shape, LOC counts) for experiment E2's paper-vs-measured comparison,
//! * independent, idiomatic Rust **reference implementations**
//!   ([`mod@reference`]) used for differential testing of compiled pipelines,
//! * **workload generators** ([`workload`]) producing packet traces that
//!   exercise each algorithm's interesting behaviour (flowlet gaps,
//!   heavy-hitter skew, RTT mixes, queue build-ups, TTL churn).
//!
//! The Domino sources are written in the same "atom-friendly" style as the
//! paper's published examples: stateless subexpressions are staged through
//! packet temporaries so that each stateful codelet is a single-ALU update
//! (the compiler performs no algebraic reassociation, and neither did the
//! paper's).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reference;
pub mod sched;
pub mod workload;

use banzai::{AtomKind, Target};

/// The published Table 4 row for an algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperRow {
    /// Least expressive stateful atom (None = "Doesn't map").
    pub least_atom: Option<AtomKind>,
    /// Number of pipeline stages.
    pub stages: usize,
    /// Maximum atoms per stage.
    pub max_atoms_per_stage: usize,
    /// Ingress or egress pipeline.
    pub pipeline: &'static str,
    /// Lines of Domino code reported by the paper.
    pub domino_loc: usize,
    /// Lines of (auto-generated) P4 reported by the paper.
    pub p4_loc: usize,
}

/// One algorithm of the suite.
#[derive(Debug, Clone, Copy)]
pub struct Algorithm {
    /// Short identifier (used by `domc` and the bench harness).
    pub name: &'static str,
    /// Table 4's one-line description.
    pub description: &'static str,
    /// The Domino source text.
    pub source: &'static str,
    /// The paper's Table 4 row.
    pub paper: PaperRow,
    /// Packet fields whose values the reference implementation checks.
    pub output_fields: &'static [&'static str],
}

impl Algorithm {
    /// Builds the independent Rust reference implementation.
    pub fn reference(&self) -> Box<dyn reference::Reference> {
        reference::build(self.name)
    }

    /// Generates a seeded workload trace of `n` packets for this
    /// algorithm.
    pub fn trace(&self, n: usize, seed: u64) -> Vec<domino_ir::Packet> {
        workload::trace_for(self.name, n, seed)
    }

    /// The least expressive paper target the algorithm maps on — its
    /// `paper.least_atom`, LUT-extended for [`CODEL_LUT`] (the one program
    /// that needs the X1 look-up-table unit) — or `None` where Table 4
    /// says "doesn't map".
    pub fn least_target(&self) -> Option<Target> {
        let kind = self.paper.least_atom?;
        Some(if self.name == CODEL_LUT.name {
            Target::banzai_with_lut(kind)
        } else {
            Target::banzai(kind)
        })
    }

    /// Non-comment, non-blank LOC of the Domino source.
    pub fn domino_loc(&self) -> usize {
        domino_ast::loc::count(self.source)
    }
}

macro_rules! algorithm {
    ($name:literal, $desc:literal, $file:literal, $atom:expr, $stages:literal,
     $atoms:literal, $pipe:literal, $dloc:literal, $ploc:literal, $outputs:expr) => {
        Algorithm {
            name: $name,
            description: $desc,
            source: include_str!(concat!("domino/", $file)),
            paper: PaperRow {
                least_atom: $atom,
                stages: $stages,
                max_atoms_per_stage: $atoms,
                pipeline: $pipe,
                domino_loc: $dloc,
                p4_loc: $ploc,
            },
            output_fields: $outputs,
        }
    };
}

/// The eleven algorithms of Table 4, in the paper's order.
pub const TABLE4: [Algorithm; 11] = [
    algorithm!(
        "bloom_filter",
        "Set membership bit on every packet (3 hash functions)",
        "bloom_filter.domino",
        Some(AtomKind::Write),
        4,
        3,
        "Either",
        29,
        104,
        &["member"]
    ),
    algorithm!(
        "heavy_hitters",
        "Increment Count-Min Sketch on every packet (3 hash functions)",
        "heavy_hitters.domino",
        Some(AtomKind::Raw),
        10,
        9,
        "Either",
        35,
        192,
        &["estimate", "is_heavy"]
    ),
    algorithm!(
        "flowlet",
        "Update saved next hop if flowlet threshold is exceeded",
        "flowlet.domino",
        Some(AtomKind::Praw),
        6,
        2,
        "Ingress",
        37,
        107,
        &["next_hop", "id"]
    ),
    algorithm!(
        "rcp",
        "Accumulate RTT sum if RTT is under maximum allowable RTT",
        "rcp.domino",
        Some(AtomKind::Praw),
        3,
        3,
        "Egress",
        23,
        75,
        &[]
    ),
    algorithm!(
        "sampled_netflow",
        "Sample a packet if packet count reaches N; reset count at N",
        "sampled_netflow.domino",
        Some(AtomKind::IfElseRaw),
        4,
        2,
        "Either",
        18,
        70,
        &["sample"]
    ),
    algorithm!(
        "hull",
        "Update counter for virtual queue",
        "hull.domino",
        Some(AtomKind::Sub),
        7,
        1,
        "Egress",
        26,
        95,
        &["mark"]
    ),
    algorithm!(
        "avq",
        "Update virtual queue size and virtual capacity",
        "avq.domino",
        Some(AtomKind::Nested),
        7,
        3,
        "Ingress",
        36,
        147,
        &["mark"]
    ),
    algorithm!(
        "stfq",
        "Compute packet's virtual start time from last finish time (WFQ)",
        "stfq.domino",
        Some(AtomKind::Nested),
        4,
        2,
        "Ingress",
        29,
        87,
        &["start"]
    ),
    algorithm!(
        "dns_ttl_change",
        "Track number of changes in announced TTL for each domain",
        "dns_ttl_change.domino",
        Some(AtomKind::Nested),
        6,
        3,
        "Ingress",
        27,
        119,
        &["changed", "change_count", "streak"]
    ),
    algorithm!(
        "conga",
        "Update best path's utilization/id if we see a better path",
        "conga.domino",
        Some(AtomKind::Pairs),
        4,
        2,
        "Ingress",
        32,
        89,
        &[]
    ),
    algorithm!(
        "codel",
        "CoDel AQM: drop scheduling via interval/sqrt(count)",
        "codel.domino",
        None,
        15,
        3,
        "Egress",
        57,
        271,
        &["ok_to_drop", "drop"]
    ),
];

/// The X1 extension: CoDel restructured for the look-up-table target
/// (§5.3 future work).
pub const CODEL_LUT: Algorithm = algorithm!(
    "codel_lut",
    "CoDel with the control law as a look-up table (X1 extension)",
    "codel_lut.domino",
    Some(AtomKind::Nested),
    0,
    0,
    "Egress",
    0,
    0,
    &["drop"]
);

/// Looks an algorithm up by name (including `codel_lut`).
pub fn by_name(name: &str) -> Option<Algorithm> {
    TABLE4
        .iter()
        .copied()
        .chain(std::iter::once(CODEL_LUT))
        .find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sources_parse_and_check() {
        for a in TABLE4.iter().chain(std::iter::once(&CODEL_LUT)) {
            let checked =
                domino_ast::parse_and_check(a.source).unwrap_or_else(|e| panic!("{}: {e}", a.name));
            assert_eq!(checked.name, a.name, "transaction name matches id");
        }
    }

    #[test]
    fn registry_is_in_paper_order_and_complete() {
        let names: Vec<&str> = TABLE4.iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            vec![
                "bloom_filter",
                "heavy_hitters",
                "flowlet",
                "rcp",
                "sampled_netflow",
                "hull",
                "avq",
                "stfq",
                "dns_ttl_change",
                "conga",
                "codel"
            ]
        );
    }

    #[test]
    fn by_name_finds_all() {
        assert!(by_name("flowlet").is_some());
        assert!(by_name("codel_lut").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn least_target_follows_table4_and_adds_the_lut_for_codel_lut_only() {
        for a in &TABLE4 {
            assert_eq!(
                a.least_target(),
                a.paper.least_atom.map(Target::banzai),
                "{}",
                a.name
            );
        }
        assert_eq!(
            CODEL_LUT.least_target(),
            Some(Target::banzai_with_lut(AtomKind::Nested))
        );
    }

    #[test]
    fn domino_loc_is_in_paper_ballpark() {
        // Our sources are rewritten, not copied, so LOC differs — but the
        // order of magnitude must match (tens of lines, not hundreds).
        for a in &TABLE4 {
            let loc = a.domino_loc();
            assert!(
                (10..=100).contains(&loc),
                "{}: LOC {loc} out of expected range",
                a.name
            );
        }
    }

    #[test]
    fn traces_have_requested_length_and_fields() {
        for a in &TABLE4 {
            let trace = a.trace(16, 7);
            assert_eq!(trace.len(), 16, "{}", a.name);
            assert!(!trace[0].is_empty(), "{}", a.name);
        }
    }
}
