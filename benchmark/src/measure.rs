//! The measurement protocol: set-up batches, timed reps, and the traced
//! run that decomposes a path into its layers.

use crate::gen::Sink;
use crate::host::{bracketed, first_decile, median, normalise, nproc, peak_rss_mb, Quartiles, Rep};
use crate::metrics::LAYER_SPANS;
use crate::trace::Tracer;
use crate::workloads::{
    run_real, serial_base_ns, setup, setup_stages, shard_lanes, wire_flat_tier, Kind, Load,
    Programs, Staged, Verdict,
};
use banzai::SlotMachine;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// How much to measure.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Wall-clock budget of the timed reps.
    pub budget: Duration,
    /// Reps to take even when the budget is already spent.
    pub min_reps: usize,
}

/// Set-up time: batches of back-to-back complete set-ups, each batch
/// between two calibration readings. One probe picks the batch size so
/// that a batch lasts ≈60 ms whatever the workload compiles; one batch is
/// taken after every timed rep, so the batches sample the whole run and a
/// host phase at its start cannot own the median.
pub struct SetupBatches {
    per_batch: usize,
    seconds: Vec<f64>,
}

impl SetupBatches {
    /// Probes one set-up to size the batches.
    pub fn probe(load: &Load) -> SetupBatches {
        let t = Instant::now();
        black_box(setup(load));
        let probe_ns = t.elapsed().as_nanos().max(1) as f64;
        SetupBatches {
            per_batch: ((60e6 / probe_ns).ceil() as usize).clamp(2, 64),
            seconds: Vec::new(),
        }
    }

    /// Times one batch; records host-normalised seconds per set-up.
    pub fn sample(&mut self, load: &Load) {
        let mut kept = Vec::with_capacity(self.per_batch);
        let (calib, raw_ns) = bracketed(|| {
            let t = Instant::now();
            for _ in 0..self.per_batch {
                kept.push(black_box(setup(load)));
            }
            t.elapsed().as_nanos() as f64
        });
        self.seconds
            .push(normalise(raw_ns, calib) / self.per_batch as f64 / 1e9);
    }

    /// Quartiles over the batches taken.
    pub fn quartiles(&self) -> Quartiles {
        Quartiles::of(&self.seconds)
    }
}

/// One timed rep of the real path on a fresh switch, calibration-bracketed.
/// A rep whose checksum differs from the verified one is a failure.
fn real_rep(load: &Load, verdict: &Verdict, failed_reps: &mut u64) -> Rep {
    let mut built = setup(load);
    let mut sink = Sink::folding();
    let (calib, (raw_ns, _)) = bracketed(|| run_real(load, &mut built, &mut sink));
    *failed_reps += (sink.checksum != verdict.checksum) as u64;
    Rep { raw_ns, calib }
}

/// The timed reps of one workload.
pub struct Timed {
    /// Every kept rep.
    pub reps: Vec<Rep>,
    /// Reps whose output checksum was wrong.
    pub failed_reps: u64,
}

impl Timed {
    /// The rep time throughput is computed from: the first decile of the
    /// normalised reps. Everything the host does to a rep — a neighbour's
    /// burst, a cache-contention phase the calibration kernel only half
    /// sees — adds time, so the quiet end of the sample is the repeatable
    /// one: over ten runs in a noisy half hour the first decile spread
    /// 4%, the median 10–12% (README, "Why the first decile").
    pub fn quiet_norm_ns(&self) -> f64 {
        first_decile(&self.reps.iter().map(Rep::norm_ns).collect::<Vec<_>>())
    }

    /// Quartiles of the reps' normalised nanoseconds.
    pub fn norm_ns(&self) -> Quartiles {
        Quartiles::of(&self.reps.iter().map(Rep::norm_ns).collect::<Vec<_>>())
    }

    /// Quartiles of the reps' raw nanoseconds.
    pub fn raw_ns(&self) -> Quartiles {
        Quartiles::of(&self.reps.iter().map(|r| r.raw_ns).collect::<Vec<_>>())
    }

    /// Quartiles of the calibration readings.
    pub fn calib(&self) -> Quartiles {
        Quartiles::of(&self.reps.iter().map(|r| r.calib).collect::<Vec<_>>())
    }
}

/// Timed reps until the budget is spent (one warm-up rep is discarded;
/// the verification pass before it already ran the path once), a set-up
/// batch after each.
pub fn timed_reps(
    load: &Load,
    verdict: &Verdict,
    effort: Effort,
    setups: &mut SetupBatches,
) -> Timed {
    let mut failed_reps = 0;
    real_rep(load, verdict, &mut failed_reps);
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < effort.min_reps || started.elapsed() < effort.budget {
        reps.push(real_rep(load, verdict, &mut failed_reps));
        setups.sample(load);
    }
    Timed { reps, failed_reps }
}

/// The end-to-end metrics of one workload.
pub fn end_to_end(load: &Load, timed: &Timed, setup: &Quartiles) -> Values {
    let mut values = Values::new();
    values.insert(
        "norm_pkts_per_s",
        load.offered as f64 / (timed.quiet_norm_ns() / 1e9),
    );
    values.insert("setup_s", setup.median);
    values.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    values
}

/// The traced run's products.
pub struct Traced {
    /// Every per-layer metric the workload produces.
    pub values: Values,
    /// The last traced replica run's spans.
    pub tracer: Tracer,
    /// Disagreements worth a reader's attention (printed, not gated).
    pub findings: Vec<String>,
    /// Real-path reps whose checksum was wrong.
    pub failed_reps: u64,
}

/// The traced run. Rounds of (real path, replica untraced, replica
/// traced, workload extras) are interleaved until the budget is spent, so
/// host drift lands on all of them alike; every number is the median over
/// rounds of a calibration-normalised reading.
pub fn traced(load: &Load, verdict: &Verdict, effort: Effort) -> Traced {
    // Normalised nanoseconds per offered packet.
    let per_pkt = |raw_ns: f64, calib: f64| normalise(raw_ns, calib) / load.offered as f64;
    let mut failed_reps = 0;
    let mut real = Vec::new();
    let mut untraced = Vec::new();
    let mut traced_total = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut extras: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut tracer = Tracer::off();
    let mut counts = Default::default();
    let mut findings = Vec::new();

    let started = Instant::now();
    while real.len() < effort.min_reps || started.elapsed() < effort.budget {
        real.push(real_rep(load, verdict, &mut failed_reps));

        let mut staged = Staged::build(load);
        let (calib, ns) = bracketed(|| staged.run(load, &mut Tracer::off(), &mut Sink::folding()));
        untraced.push(per_pkt(ns, calib));

        let mut staged = Staged::build(load);
        tracer = Tracer::on(staged.spans_per_run(load));
        let (calib, ns) = bracketed(|| staged.run(load, &mut tracer, &mut Sink::folding()));
        traced_total.push(per_pkt(ns, calib));
        counts = staged.counts();
        for (name, ns) in tracer.self_times() {
            layers
                .entry(name)
                .or_default()
                .push(per_pkt(ns as f64, calib));
        }

        // Workload extras, each normalised by its own calibration bracket.
        let mut note = |name, value: f64| extras.entry(name).or_default().push(value);
        match load.kind {
            Kind::ShardedFlowlet => {
                let (calib, lanes) = bracketed(|| shard_lanes(load));
                let lane = |ns: u128| per_pkt(ns as f64, calib);
                let busy = &lanes.inside.shard_ns;
                note(
                    "shard.worker_ns_max",
                    lane(busy.iter().copied().max().unwrap_or(0)),
                );
                note("shard.worker_ns_sum", lane(busy.iter().sum()));
                note("inside.steer", lane(lanes.inside.steer_ns));
                note("inside.merge", lane(lanes.inside.merge_ns));
                note("shard.imbalance", lanes.imbalance);
                note("shard.effective", lanes.effective as f64);
                let (calib, ns) = bracketed(|| serial_base_ns(load));
                note("serial_base", per_pkt(ns, calib));
            }
            Kind::WireFlowlet => {
                let (calib, tier) = bracketed(|| wire_flat_tier(load));
                note("wire.parse_flat_ns", per_pkt(tier.parse_ns, calib));
                note("wire.deparse_flat_ns", per_pkt(tier.deparse_ns, calib));
                note("wire.bind_ns", normalise(tier.bind_ns, calib));
            }
            _ => {}
        }
    }

    let mut values = Values::new();
    let mut layer_sum = 0.0;
    for span in LAYER_SPANS {
        let ns = layers.get(span).map_or(0.0, |v| median(v));
        layer_sum += ns;
        values.insert(layer_metric(span), ns);
    }
    let glue: f64 = ["run", "chunk"]
        .iter()
        .map(|g| layers.get(g).map_or(0.0, |v| median(v)))
        .sum();
    values.insert("trace.glue_ns", glue);
    let timed = Timed {
        reps: real,
        failed_reps,
    };
    let e2e = timed.norm_ns().median / load.offered as f64;
    values.insert("switch.e2e_ns", e2e);
    values.insert("switch.unattributed_ns", e2e - layer_sum);
    values.insert("switch.unattributed_share", (e2e - layer_sum) / e2e);
    values.insert(
        "trace.overhead_share",
        (median(&traced_total) - median(&untraced)) / median(&untraced),
    );
    if ((e2e - layer_sum) / e2e).abs() > 0.10 {
        findings.push(format!(
            "layers sum to {layer_sum:.0} ns/pkt against {e2e:.0} ns/pkt end to end: \
             {:+.1}% of the path is not attributed to a layer",
            100.0 * (e2e - layer_sum) / e2e
        ));
    }

    for (name, samples) in &extras {
        values.insert(name, median(samples));
    }
    if load.kind == Kind::ShardedFlowlet {
        for (inside, outside) in [
            (
                "inside.steer",
                values["stream.pull_ns"] + values["shard.steer_ns"],
            ),
            ("inside.merge", values["shard.merge_ns"]),
        ] {
            let inside_ns = values.remove(inside).unwrap_or(0.0);
            // (a lane of a few ns/pkt disagrees by 10% on timer noise alone)
            if (inside_ns - outside).abs() > (0.10 * outside).max(10.0) {
                findings.push(format!(
                    "instrumented() reports {inside_ns:.0} ns/pkt for `{inside}`, timed from \
                     outside it is {outside:.0} ns/pkt"
                ));
            }
        }
        let base = values.remove("serial_base").unwrap_or(f64::NAN);
        values.insert("shard.overhead_vs_serial", e2e / base);
    }

    let programs = Programs::compile(load.kind);
    let lower = |p| SlotMachine::compile(p).expect("compiled pipelines are slot-executable");
    let (ingress, egress) = (lower(&programs.ingress), lower(&programs.egress));
    values.insert("slot.ingress_ops", ingress.program().op_count() as f64);
    values.insert("slot.egress_ops", egress.program().op_count() as f64);
    values.insert(
        "slot.depth",
        (ingress.program().depth() + egress.program().depth()) as f64,
    );
    values.insert("layout.fields_in_mean", load.fields_in_mean());
    values.insert("layout.fields_out_mean", verdict.fields_out_mean);
    values.insert("stream.pulled", counts.pulled as f64);
    values.insert("pifo.depth_max", counts.depth_max as f64);
    values.insert("pifo.dropped", counts.dropped as f64);
    values.insert("switch.offered", verdict.books.offered as f64);
    values.insert("switch.transmitted", verdict.books.transmitted as f64);
    values.insert("switch.dropped", verdict.books.drops.total() as f64);
    if load.kind == Kind::WireFlowlet {
        let rejected = verdict.books.drops.parse_total() as f64;
        values.insert("wire.bytes_per_pkt", load.bytes_per_pkt());
        values.insert("wire.rejected", rejected);
        values.insert("wire.fastpath_share", 1.0 - rejected / load.offered as f64);
    }

    let stages: Vec<_> = (0..5).map(|_| bracketed(|| setup_stages(load))).collect();
    let stage = |pick: fn(&crate::workloads::SetupStages) -> f64| {
        let readings: Vec<f64> = stages
            .iter()
            .map(|(calib, s)| normalise(pick(s), *calib))
            .collect();
        median(&readings)
    };
    values.insert("compiler.compile_ns", stage(|s| s.compile_ns));
    values.insert("slot.lower_ns", stage(|s| s.lower_ns));
    values.insert("switch.build_ns", stage(|s| s.build_ns));
    values.insert("shard.plan_ns", stage(|s| s.plan_ns));

    values.insert("host.calib_ns_per_iter", timed.calib().median);
    values.insert("host.calib_spread", timed.calib().iqr_share());
    values.insert(
        "host.raw_pkts_per_s",
        load.offered as f64 / (timed.raw_ns().median / 1e9),
    );
    values.insert("host.rep_iqr_share", timed.norm_ns().iqr_share());
    values.insert("host.nproc", nproc() as f64);

    Traced {
        values,
        tracer,
        findings,
        failed_reps: timed.failed_reps,
    }
}

/// The metric a layer span's self time is reported under.
fn layer_metric(span: &'static str) -> &'static str {
    crate::metrics::PER_LAYER
        .iter()
        .map(|d| d.name)
        .find(|name| name.strip_suffix("_ns") == Some(span))
        .expect("every layer span has a `<span>_ns` metric")
}
