//! Property suite for the **Replicable** partitioning tier: full sketch
//! replica per shard, elementwise merge at collect time.
//!
//! The contract under test (see `domino_ir::partition::ReplicaSpec` and
//! `banzai::shard`):
//!
//! * **merge algebra**: the elementwise merge is commutative and
//!   associative — permuting the shard snapshots, or folding them
//!   pairwise in any grouping, yields a bit-identical merged state;
//! * **serial equivalence**: the merged state equals the serial
//!   switch's state bit-for-bit (sum of wrapping per-shard
//!   displacements, max over constant stores), at every shard count;
//! * **the (ε, δ) bound**: on both the packet-born and the wire path,
//!   the serial *and* the merged states satisfy the sketch's own
//!   contract — spec replay, overestimate, mass conservation, and the
//!   error bound derived from array geometry
//!   (`bench::sketch::verify_sketch`) — across random traces, shard
//!   counts 1..=8, and sketch geometries.

use banzai::{AtomKind, AtomPipeline, ShardConfig, ShardTier, ShardedSwitch, Switch, Target};
use bench::sketch::{parse_wire_trace, verify_sketch};
use bench::wiregen::{self, GenOptions};
use domino_ir::{Packet, ReplicaSpec, StateStore};
use proptest::prelude::*;

const CAPACITY: usize = 512;
const SEED: u64 = 0x000D_0771_2016;

/// Synthesizes a count-min sketch in Domino: one array per row, each
/// indexed by its own salted hash of `(sport, dport)`. Distinct index
/// fields per row keep it out of the Exact tier (no shared flow key),
/// which is precisely what makes it exercise the replica tier.
fn count_min_source(widths: &[usize]) -> String {
    let mut fields = String::from("int sport; int dport;");
    let mut decls = String::new();
    let mut body = String::new();
    for (r, w) in widths.iter().enumerate() {
        fields.push_str(&format!(" int h{r};"));
        decls.push_str(&format!("int cms{r}[{w}] = {{0}};\n"));
        body.push_str(&format!(
            "  pkt.h{r} = hash3(pkt.sport, pkt.dport, {salt}) % {w};\n\
             \x20 cms{r}[pkt.h{r}] = cms{r}[pkt.h{r}] + 1;\n",
            salt = 1000 + 7 * r
        ));
    }
    format!("struct P {{ {fields} }};\n{decls}void sketch(struct P pkt) {{\n{body}}}\n")
}

fn compile_count_min(widths: &[usize]) -> AtomPipeline {
    domino_compiler::compile(&count_min_source(widths), &Target::banzai(AtomKind::Raw))
        .expect("synthesized count-min compiles")
}

fn to_trace(keys: &[(i32, i32)]) -> Vec<Packet> {
    keys.iter()
        .map(|&(s, d)| {
            let mut p = Packet::new().with("sport", s).with("dport", d);
            for r in 0..4 {
                p = p.with(&format!("h{r}"), 0);
            }
            p
        })
        .collect()
}

/// Runs the serial switch and returns `(state, spec)` where the spec is
/// taken from a sharded plan over the same pipelines.
fn serial_state_and_spec(
    ingress: &AtomPipeline,
    trace: &[Packet],
    shards: usize,
) -> (StateStore, ReplicaSpec, ShardedSwitch) {
    let egress = AtomPipeline::passthrough("egress");
    let mut serial = Switch::new_slot(ingress, &egress, CAPACITY).unwrap();
    serial
        .run(trace)
        .for_each(|_| {})
        .expect("slice-backed sources cannot fail mid-stream");
    let sw = ShardedSwitch::new_slot(ingress, &egress, ShardConfig::new(shards)).unwrap();
    assert_eq!(
        sw.plan().tier(),
        ShardTier::Replicable,
        "synthesized sketch must land in the replica tier: {}",
        sw.plan()
    );
    let spec = sw.plan().ingress_replica().unwrap().clone();
    (serial.export_ingress_state(), spec, sw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shard-order and merge-order permutations of the per-shard
    /// snapshots give identical merged state, and that state is the
    /// serial state — across random traces, shard counts, and
    /// geometries.
    #[test]
    fn merge_is_commutative_and_associative(
        keys in proptest::collection::vec((0..9i32, 0..5i32), 50..250),
        shards in 1..=8usize,
        geometry in prop_oneof![
            Just(vec![16usize, 16]),
            Just(vec![16usize, 32]),
            Just(vec![32usize, 16, 32]),
            Just(vec![16usize, 32, 64]),
        ],
    ) {
        let ingress = compile_count_min(&geometry);
        let trace = to_trace(&keys);
        let (serial_state, spec, mut sw) = serial_state_and_spec(&ingress, &trace, shards);
        sw.run(&trace).collect().expect("no faults armed");

        let snaps: Vec<StateStore> = sw
            .export_shard_states()
            .into_iter()
            .map(|(ingress_state, _)| ingress_state)
            .collect();
        let merged = spec.merge_states(&snaps);
        prop_assert_eq!(&merged, &serial_state, "merged state must equal serial");

        // Commutativity: any shard-order permutation merges identically.
        let mut reversed = snaps.clone();
        reversed.reverse();
        prop_assert_eq!(&spec.merge_states(&reversed), &merged);
        let mut rotated = snaps.clone();
        rotated.rotate_left(shards / 2);
        prop_assert_eq!(&spec.merge_states(&rotated), &merged);

        // Associativity: pairwise left fold == pairwise right fold ==
        // one flat merge.
        let left = snaps
            .iter()
            .skip(1)
            .fold(snaps[0].clone(), |acc, s| {
                spec.merge_states(&[acc, s.clone()])
            });
        prop_assert_eq!(&left, &merged);
        let right = snaps
            .iter()
            .rev()
            .skip(1)
            .fold(snaps.last().unwrap().clone(), |acc, s| {
                spec.merge_states(&[s.clone(), acc])
            });
        prop_assert_eq!(&right, &merged);
    }

    /// The statistical tier holds for the serial state and the sharded
    /// merged state alike: spec replay, overestimate, mass
    /// conservation, and the (ε, δ) bound from array geometry.
    #[test]
    fn epsilon_delta_bound_holds_across_shard_counts(
        keys in proptest::collection::vec((0..9i32, 0..5i32), 80..300),
        shards in 1..=8usize,
        geometry in prop_oneof![
            Just(vec![16usize, 16]),
            Just(vec![32usize, 32]),
            Just(vec![16usize, 32, 64]),
        ],
    ) {
        let ingress = compile_count_min(&geometry);
        let trace = to_trace(&keys);
        let (serial_state, spec, mut sw) = serial_state_and_spec(&ingress, &trace, shards);
        prop_assert!(spec.epsilon().unwrap() > 0.0);
        prop_assert!(spec.delta().unwrap() < 1.0);
        verify_sketch(&spec, &trace, &serial_state, "count-min serial");
        sw.run(&trace).collect().expect("no faults armed");
        let merged = sw.export_merged_ingress_state();
        verify_sketch(&spec, &trace, &merged, &format!("count-min@{shards} merged"));
    }
}

/// The acceptance sweep: every Replicable Table 4 program, packet-born
/// and wire, serial and sharded, at 1/2/4/8 shards — the error-bound
/// tier must be green everywhere.
#[test]
fn replicable_programs_honor_their_bound_on_both_paths() {
    for name in ["heavy_hitters", "bloom_filter"] {
        let a = algorithms::by_name(name).unwrap();
        let kind = a.paper.least_atom.unwrap();
        let ingress = domino_compiler::compile(a.source, &Target::banzai(kind)).unwrap();
        let egress = AtomPipeline::passthrough("egress");
        let trace = a.trace(800, SEED);
        let wt = wiregen::wire_trace(&trace, SEED, &GenOptions::default());
        let wire_pkts = parse_wire_trace(&wt.frames, &wt.cfg);
        assert_eq!(wire_pkts.len(), trace.len(), "{name}: no malformed frames");

        // Serial references for both paths.
        let mut serial = Switch::new_slot(&ingress, &egress, CAPACITY).unwrap();
        serial
            .run(&trace)
            .for_each(|_| {})
            .expect("slice-backed sources cannot fail mid-stream");
        let serial_state = serial.export_ingress_state();
        let mut serial_wire = Switch::new_slot(&ingress, &egress, CAPACITY).unwrap();
        serial_wire
            .run_frames(&wt.frames, &wt.cfg)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");
        let serial_wire_state = serial_wire.export_ingress_state();

        for shards in [1usize, 2, 4, 8] {
            let cfg = ShardConfig::new(shards).with_capacity(CAPACITY);
            let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
            assert_eq!(sw.plan().tier(), ShardTier::Replicable, "{name}");
            assert_eq!(sw.plan().effective(), shards, "{name}");
            let spec = sw.plan().ingress_replica().unwrap().clone();

            // Packet-born path.
            sw.run(&trace).collect().expect("no faults armed");
            let merged = sw.export_merged_ingress_state();
            assert_eq!(merged, serial_state, "{name}@{shards}: merged != serial");
            verify_sketch(&spec, &trace, &serial_state, &format!("{name} serial"));
            verify_sketch(&spec, &trace, &merged, &format!("{name}@{shards} merged"));

            // Wire path: same invariants over the parsed-frame trace.
            let mut wsw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
            wsw.run_frames(&wt.frames, &wt.cfg)
                .partitioned()
                .expect("no faults armed");
            let wire_merged = wsw.export_merged_ingress_state();
            assert_eq!(
                wire_merged, serial_wire_state,
                "{name}@{shards}: wire merged != wire serial"
            );
            verify_sketch(
                &spec,
                &wire_pkts,
                &serial_wire_state,
                &format!("{name} wire serial"),
            );
            verify_sketch(
                &spec,
                &wire_pkts,
                &wire_merged,
                &format!("{name}@{shards} wire merged"),
            );
        }
    }
}
