//! The metric registry: every name the benchmark emits, with its unit and
//! direction. `BENCHMARK.json` lists exactly these (a test holds the two
//! together); `README.md` says which end-to-end metric each layer metric
//! should move, and on which workload.

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the switch sees. Emitted with `--trace 0`.
pub const END_TO_END: [MetricDef; 3] = [
    def("norm_pkts_per_s", "1/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Regression bounds of the end-to-end metrics, in [`END_TO_END`] order.
pub const BOUNDS: [f64; 3] = [0.25, 0.25, 0.10];

/// Single layers. Emitted with `--trace 1`; a layer a workload does not
/// cross reads 0. Every `*_ns` with unit `ns/pkt` is host-normalised self
/// time per offered packet.
pub const PER_LAYER: [MetricDef; 53] = [
    def("stream.pull_ns", "ns/pkt", "lower"),
    def("stream.pulled", "count", "higher"),
    def("layout.ingress_flatten_ns", "ns/pkt", "lower"),
    def("layout.ingress_merge_back_ns", "ns/pkt", "lower"),
    def("layout.egress_flatten_ns", "ns/pkt", "lower"),
    def("layout.egress_merge_back_ns", "ns/pkt", "lower"),
    def("layout.fields_in_mean", "count", "lower"),
    def("layout.fields_out_mean", "count", "lower"),
    def("slot.ingress_ns", "ns/pkt", "lower"),
    def("slot.egress_ns", "ns/pkt", "lower"),
    def("slot.ingress_ops", "count", "lower"),
    def("slot.egress_ops", "count", "lower"),
    def("slot.depth", "count", "lower"),
    def("pifo.key_of_ns", "ns/pkt", "lower"),
    def("pifo.push_ns", "ns/pkt", "lower"),
    def("pifo.pop_ns", "ns/pkt", "lower"),
    def("pifo.depth_max", "count", "lower"),
    def("pifo.dropped", "count", "lower"),
    def("switch.stamp_ns", "ns/pkt", "lower"),
    def("switch.queue_loop_ns", "ns/pkt", "lower"),
    def("switch.sink_ns", "ns/pkt", "lower"),
    def("switch.offered", "count", "higher"),
    def("switch.transmitted", "count", "higher"),
    def("switch.dropped", "count", "lower"),
    def("switch.e2e_ns", "ns/pkt", "lower"),
    def("switch.unattributed_ns", "ns/pkt", "lower"),
    def("switch.unattributed_share", "share", "lower"),
    def("wire.parse_ns", "ns/pkt", "lower"),
    def("wire.deparse_ns", "ns/pkt", "lower"),
    def("wire.parse_flat_ns", "ns/pkt", "lower"),
    def("wire.deparse_flat_ns", "ns/pkt", "lower"),
    def("wire.bytes_per_pkt", "B", "higher"),
    def("wire.rejected", "count", "lower"),
    def("wire.fastpath_share", "share", "higher"),
    def("shard.steer_ns", "ns/pkt", "lower"),
    def("shard.merge_ns", "ns/pkt", "lower"),
    def("shard.worker_ns_max", "ns/pkt", "lower"),
    def("shard.worker_ns_sum", "ns/pkt", "lower"),
    def("shard.imbalance", "ratio", "lower"),
    def("shard.effective", "count", "higher"),
    def("shard.overhead_vs_serial", "ratio", "lower"),
    def("compiler.compile_ns", "ns", "lower"),
    def("slot.lower_ns", "ns", "lower"),
    def("switch.build_ns", "ns", "lower"),
    def("shard.plan_ns", "ns", "lower"),
    def("wire.bind_ns", "ns", "lower"),
    def("host.calib_ns_per_iter", "ns", "lower"),
    def("host.calib_spread", "share", "lower"),
    def("host.raw_pkts_per_s", "1/s", "higher"),
    def("host.rep_iqr_share", "share", "lower"),
    def("host.nproc", "count", "higher"),
    def("trace.glue_ns", "ns/pkt", "lower"),
    def("trace.overhead_share", "share", "lower"),
];

/// Span names that are layer stages (each maps to the metric
/// `<name>_ns`); the replica's own `run` and `chunk` spans are glue.
pub const LAYER_SPANS: [&str; 17] = [
    "stream.pull",
    "layout.ingress_flatten",
    "layout.ingress_merge_back",
    "layout.egress_flatten",
    "layout.egress_merge_back",
    "slot.ingress",
    "slot.egress",
    "pifo.key_of",
    "pifo.push",
    "pifo.pop",
    "switch.stamp",
    "switch.queue_loop",
    "switch.sink",
    "wire.parse",
    "wire.deparse",
    "shard.steer",
    "shard.merge",
];
