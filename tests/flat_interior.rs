//! The switch's flat interior against an oracle that shares none of it.
//!
//! `Switch` flattens a packet once at admission, runs ingress, the queue,
//! the metadata stamps and egress on the slab, and materialises one map
//! packet at emission. The [`MapModel`] below is the loop that interior
//! replaced, written out on map packets with by-name stamps and two bare
//! [`Machine`]s: no field table, no slab, no residual, no emission order.
//! Every Table 4 ingress × {pass-through, `codel_lut`} egress must agree
//! with it packet for packet, counter for counter and state for state, on
//! the slot engine *and* on the reference engine behind its flat ↔ map
//! shim — plus the edge cases a single shared table creates.

use banzai::switch::QUEUE_METADATA_FIELDS;
use banzai::{
    AtomKind, AtomPipeline, Machine, PipelineEngine, SchedDeparture, SchedQueue, SchedSpec,
    Scheduler, SlotMachine, Switch, Target,
};
use domino_ir::{FieldTable, FlatPacket, Packet, PacketEdges, StateStore};
use std::sync::Arc;

/// The pre-flat switch loop: pull → `Machine::process` → queue → by-name
/// stamps → `Machine::process`, on map packets throughout.
struct MapModel {
    ingress: Machine,
    egress: Machine,
    spec: SchedSpec,
    capacity: usize,
    drain_period: i64,
    now: i64,
    dropped: u64,
    transmitted: u64,
}

impl MapModel {
    fn new(ingress: &AtomPipeline, egress: &AtomPipeline, capacity: usize) -> MapModel {
        MapModel {
            ingress: Machine::new(ingress.clone()),
            egress: Machine::new(egress.clone()),
            spec: SchedSpec::Fifo,
            capacity,
            drain_period: 1,
            now: 0,
            dropped: 0,
            transmitted: 0,
        }
    }

    fn admit(&mut self, queue: &mut SchedQueue<(i64, Packet)>, t: i64, pkt: &Packet) {
        let processed = self.ingress.process(pkt.clone());
        let key = self.spec.key_of(&processed);
        self.dropped += queue.push(key, (t, processed)).is_err() as u64;
    }

    fn depart(&mut self, enq_ts: i64, now: i64, depth: usize, mut pkt: Packet) -> Packet {
        let stamps = [enq_ts as i32, now as i32, depth as i32];
        for (field, stamp) in QUEUE_METADATA_FIELDS.into_iter().zip(stamps) {
            pkt.set(field, stamp);
        }
        self.transmitted += 1;
        self.egress.process(pkt)
    }

    /// `switch.run(trace).collect()`.
    fn run(&mut self, trace: &[Packet]) -> Vec<Packet> {
        let mut queue = self.spec.build_queue(self.capacity);
        let (mut out, mut input) = (Vec::new(), trace.iter());
        loop {
            let gated =
                self.spec.is_shaping() && queue.peek_key().is_some_and(|k| k.rank > self.now);
            if self.now % self.drain_period == 0 && !gated {
                if let Some((_, (enq_ts, pkt))) = queue.pop() {
                    out.push(self.depart(enq_ts, self.now, queue.len(), pkt));
                }
            }
            let pulled = input.next();
            if let Some(pkt) = pulled {
                self.admit(&mut queue, self.now, pkt);
            }
            if pulled.is_none() && queue.is_empty() {
                return out;
            }
            self.now += 1;
        }
    }

    /// `switch.run(trace).scheduled().collect()`.
    fn run_scheduled(&mut self, trace: &[Packet]) -> Vec<SchedDeparture> {
        let mut queue = self.spec.build_queue(self.capacity);
        for (t, pkt) in trace.iter().enumerate() {
            self.admit(&mut queue, t as i64, pkt);
        }
        let (mut out, mut next_free) = (Vec::new(), trace.len() as i64);
        while let Some((key, (arrival, pkt))) = queue.pop() {
            let departure = match self.spec.is_shaping() {
                true => next_free.max(key.rank),
                false => next_free,
            };
            let pkt = self.depart(arrival, departure, queue.len(), pkt);
            out.push(SchedDeparture {
                arrival,
                key,
                departure,
                pkt,
            });
            next_free = departure + 1;
        }
        self.now = next_free;
        out
    }
}

fn compile(name: &str) -> AtomPipeline {
    let a = algorithms::by_name(name).unwrap();
    let target = a.least_target().expect("algorithm must map");
    domino_compiler::compile(a.source, &target).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The algorithm's own workload, plus three fields no pipeline names: a
/// small class tag, a near-future earliest-departure cycle (a shaper gated
/// on an algorithm output would idle the link for 2³¹ cycles), and a
/// field that sorts before every other name.
fn tagged_trace(name: &str, n: usize) -> Vec<Packet> {
    let trace = algorithms::by_name(name).unwrap().trace(n, 0xF1A7);
    let tag = |(i, p): (usize, Packet)| {
        p.with("tag_class", i as i32 % 3)
            .with("tag_edt", i as i32 + (i as i32 * 7) % 40)
            .with("0_first", -(i as i32))
    };
    trace.into_iter().enumerate().map(tag).collect()
}

/// All four disciplines: the rank is a field of the ingress program's own
/// (a slot — its first checked output, else its first declared field),
/// class and earliest-departure ride pass-through fields.
fn specs(a: &algorithms::Algorithm, ingress: &AtomPipeline) -> [SchedSpec; 4] {
    let rank = match a.output_fields.first() {
        Some(f) => f.to_string(),
        None => ingress.declared_fields[0].clone(),
    };
    [
        SchedSpec::Fifo,
        SchedSpec::Pifo { rank: rank.clone() },
        SchedSpec::Shaping {
            rank: "tag_edt".into(),
        },
        SchedSpec::Priority {
            class: "tag_class".into(),
            rank,
        },
    ]
}

fn assert_books<E: PipelineEngine>(sw: &Switch<E>, model: &MapModel, ctx: &str) {
    assert_eq!(sw.transmitted(), model.transmitted, "{ctx}: transmitted");
    assert_eq!(sw.drops(), model.dropped, "{ctx}: drops");
    let by_reason = sw.drop_counters().get(model.spec.full_drop_reason());
    assert_eq!(by_reason, model.dropped, "{ctx}: drop reason");
    assert_eq!(sw.queue_depth(), 0, "{ctx}: a run drains the queue");
    let states: (StateStore, StateStore) = (sw.export_ingress_state(), sw.export_egress_state());
    assert_eq!(&states.0, model.ingress.state(), "{ctx}: ingress state");
    assert_eq!(&states.1, model.egress.state(), "{ctx}: egress state");
}

/// Runs `trace` twice back to back (state, clock and counters carry over)
/// through the switch and the model, line-rate then scheduled.
fn check<E: PipelineEngine>(mut sw: Switch<E>, mut model: MapModel, trace: &[Packet], ctx: &str) {
    for round in 0..2 {
        let got = sw.run(trace).collect().unwrap();
        let want = model.run(trace);
        assert_eq!(got.len(), want.len(), "{ctx} round {round}: output count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{ctx} round {round}: packet {i}");
            assert!(g.iter().eq(w.iter()), "{ctx}: iteration order, packet {i}");
        }
        assert_books(&sw, &model, ctx);
    }
    let got = sw.run(trace).scheduled().collect().unwrap();
    let want = model.run_scheduled(trace);
    assert_eq!(got, want, "{ctx}: scheduled departures");
    assert_books(&sw, &model, ctx);
}

/// [`check`] on the slot engine and on the reference engine, under one
/// drain period and discipline.
fn check_both(
    ingress: &AtomPipeline,
    egress: &AtomPipeline,
    drain: u64,
    spec: &SchedSpec,
    trace: &[Packet],
) {
    let ctx = format!("{} → {} drain {drain} {spec:?}", ingress.name, egress.name);
    let model = || {
        let mut m = MapModel::new(ingress, egress, 24);
        (m.spec, m.drain_period) = (spec.clone(), drain as i64);
        m
    };
    let slot = Switch::new_slot(ingress, egress, 24).unwrap();
    let slot = slot.with_drain_period(drain).with_scheduler(spec.clone());
    check(slot, model(), trace, &format!("slot: {ctx}"));
    let map = Switch::new(ingress.clone(), egress.clone(), 24);
    let map = map.with_drain_period(drain).with_scheduler(spec.clone());
    check(map, model(), trace, &format!("map: {ctx}"));
}

#[test]
fn every_table4_pairing_matches_the_map_model_on_both_engines() {
    let egresses = [AtomPipeline::passthrough("out"), compile("codel_lut")];
    let mappable = algorithms::TABLE4
        .iter()
        .filter(|a| a.paper.least_atom.is_some());
    for a in mappable {
        let ingress = compile(a.name);
        let trace = tagged_trace(a.name, 160);
        for egress in &egresses {
            for drain in [1u64, 3] {
                for spec in specs(a, &ingress) {
                    check_both(&ingress, egress, drain, &spec, &trace);
                }
            }
        }
    }
}

/// Both engines over the same pipelines and configuration.
fn both(
    ingress: &AtomPipeline,
    egress: &AtomPipeline,
    capacity: usize,
) -> (Switch<SlotMachine>, Switch<Machine>) {
    (
        Switch::new_slot(ingress, egress, capacity).unwrap(),
        Switch::new(ingress.clone(), egress.clone(), capacity),
    )
}

fn stateless(name: &str, body: &str) -> AtomPipeline {
    let src = format!(
        "struct Packet {{ int a; int x; int y; }};\nvoid {name}(struct Packet pkt) {{ {body} }}"
    );
    domino_compiler::compile(&src, &Target::banzai(AtomKind::Write)).unwrap()
}

#[test]
fn fields_the_table_does_not_name_survive_in_sorted_position() {
    let (ingress, egress) = (compile("flowlet"), compile("codel_lut"));
    let (mut slot, mut map) = both(&ingress, &egress, 64);
    let trace = tagged_trace("flowlet", 40)
        .into_iter()
        .map(|p| p.with("mystery", 77).with("zz_last", 5))
        .collect::<Vec<_>>();
    let out = slot.run(&trace).collect().unwrap();
    assert_eq!(out, map.run(&trace).collect().unwrap());
    for (i, p) in out.iter().enumerate() {
        for (name, want) in [("0_first", -(i as i32)), ("mystery", 77), ("zz_last", 5)] {
            assert_eq!(p.get(name), Some(want), "packet {i}: `{name}`");
        }
        let names: Vec<&str> = p.field_names().collect();
        assert!(names.is_sorted(), "packet {i}: {names:?}");
        assert_eq!((names[0], names[names.len() - 1]), ("0_first", "zz_last"));
        assert!(p.has("next_hop") && p.has("drop"), "both pipelines ran");
    }
}

#[test]
fn a_pifo_ranks_by_a_field_no_pipeline_names() {
    // The `with_scheduler` doctest's shape: pass-through pipelines, the
    // rank a field of the packets' own.
    let pass = AtomPipeline::passthrough("p");
    let trace: Vec<Packet> = [30, 10, 20]
        .iter()
        .map(|&r| Packet::new().with("start", r))
        .collect();
    let spec = SchedSpec::Pifo {
        rank: "start".into(),
    };
    let (slot, map) = both(&pass, &pass, 8);
    let mut slot = slot.with_scheduler(spec.clone());
    let mut map = map.with_scheduler(spec);
    let deps = slot.run(&trace).scheduled().collect().unwrap();
    assert_eq!(deps, map.run(&trace).scheduled().collect().unwrap());
    let ranks: Vec<i64> = deps.iter().map(|d| d.key.rank).collect();
    assert_eq!(ranks, [10, 20, 30]);
    assert_eq!(deps[0].pkt.get("start"), Some(10));
    // A rank field nothing carries reads 0 for every packet: FIFO order.
    let mut blind = Switch::new_slot(&pass, &pass, 8)
        .unwrap()
        .with_scheduler(SchedSpec::Pifo {
            rank: "ghost".into(),
        });
    let deps = blind.run(&trace).scheduled().collect().unwrap();
    let arrivals: Vec<i64> = deps.iter().map(|d| d.arrival).collect();
    assert_eq!(arrivals, [0, 1, 2]);
    assert!(deps.iter().all(|d| !d.pkt.has("ghost")));
}

#[test]
fn an_input_that_already_carries_the_metadata_is_overwritten() {
    let (ingress, egress) = (compile("flowlet"), compile("codel_lut"));
    let trace: Vec<Packet> = tagged_trace("flowlet", 80)
        .into_iter()
        .map(|p| p.with("now", -5).with("enq_ts", 1 << 20).with("qdepth", 99))
        .collect();
    let (slot, map) = both(&ingress, &egress, 16);
    let mut model = MapModel::new(&ingress, &egress, 16);
    model.drain_period = 3;
    let want = model.run(&trace);
    assert_eq!(
        slot.with_drain_period(3).run(&trace).collect().unwrap(),
        want
    );
    assert_eq!(
        map.with_drain_period(3).run(&trace).collect().unwrap(),
        want
    );
    assert!(want
        .iter()
        .all(|p| p.get("now") >= p.get("enq_ts") && p.get("enq_ts") >= Some(0)));
}

#[test]
fn egress_overwrites_a_field_ingress_wrote() {
    let ingress = stateless("up", "pkt.x = pkt.a + 1; pkt.y = pkt.x;");
    let egress = stateless("twice", "pkt.x = pkt.x + pkt.x;");
    let trace: Vec<Packet> = (0..20).map(|i| Packet::new().with("a", i)).collect();
    let (mut slot, mut map) = both(&ingress, &egress, 8);
    let want = MapModel::new(&ingress, &egress, 8).run(&trace);
    assert_eq!(slot.run(&trace).collect().unwrap(), want);
    assert_eq!(map.run(&trace).collect().unwrap(), want);
    for (i, p) in want.iter().enumerate() {
        let i = i as i32;
        assert_eq!((p.get("x"), p.get("y")), (Some(2 * (i + 1)), Some(i + 1)));
    }
}

#[test]
fn a_clone_taken_mid_state_continues_exactly_like_the_original() {
    let (ingress, egress) = (compile("flowlet"), compile("codel_lut"));
    let trace = tagged_trace("flowlet", 200);
    let (first, second) = trace.split_at(100);
    let mut original = Switch::new_slot(&ingress, &egress, 32)
        .unwrap()
        .with_drain_period(3);
    original.run(first).collect().unwrap();
    assert_eq!(original.queue_depth(), 0);
    assert!(original.drops() > 0, "capacity 32 at drain 3 tail-drops");
    let mut copy = original.clone();
    assert_eq!(
        original.run(second).collect().unwrap(),
        copy.run(second).collect().unwrap()
    );
    assert_eq!(original.drop_counters(), copy.drop_counters());
    assert_eq!(original.transmitted(), copy.transmitted());
    assert_eq!(original.export_ingress_state(), copy.export_ingress_state());
    assert_eq!(original.export_egress_state(), copy.export_egress_state());
}

#[test]
fn emitted_packets_are_ordinary_packets() {
    // Emission hands out the table's interned names; a packet built by
    // hand owns its own. They must be indistinguishable.
    let pass = AtomPipeline::passthrough("p");
    let mut sw = Switch::new_slot(&pass, &pass, 4).unwrap();
    let input = Packet::new().with("z", 3).with("b", 1);
    let out = sw.run(&vec![input]).collect().unwrap();
    let by_hand = Packet::new()
        .with("z", 3)
        .with("qdepth", 0)
        .with("now", 1)
        .with("enq_ts", 0)
        .with("b", 1);
    assert_eq!(out[0], by_hand);
    assert_eq!(
        out[0].to_string(),
        "{b: 1, enq_ts: 0, now: 1, qdepth: 0, z: 3}"
    );
    assert!(out[0].iter().eq(by_hand.iter()));
    assert_ne!(out[0], by_hand.with("z", 4));
}

/// Flowlet's own workload with the packet *shape* changing every four
/// packets, so the switch's memoised edges meet every way a packet can
/// differ from the one before it: the same names in an allocation per
/// packet (A, as the generator builds it) and in one shared allocation
/// (A again, clones of a template); a declared field omitted (B); A's
/// length with one name swapped for another the table holds (C); a field
/// off the table (D — the residual path, and back off it); and the
/// metadata names already present (E). A recurs between the others.
fn shapeshifting_trace(n: usize) -> Vec<Packet> {
    let template = Packet::new()
        .with("arrival", 0)
        .with("dport", 0)
        .with("id", 0)
        .with("new_hop", 0)
        .with("next_hop", 0)
        .with("sport", 0);
    let without = |p: &Packet, gone: &str| -> Packet {
        let kept = p.iter().filter(|(name, _)| *name != gone);
        kept.map(|(name, v)| (name.to_string(), v)).collect()
    };
    let trace = algorithms::by_name("flowlet").unwrap().trace(n, 0x5AA9E);
    let reshape = |(i, p): (usize, Packet)| match (i / 4) % 8 {
        1 => p
            .iter()
            .fold(template.clone(), |t, (name, v)| t.with(name, v)),
        2 => without(&p, "sport"),
        4 => without(&p, "dport").with("drop", i as i32 % 2),
        5 => p.with("mystery", i as i32),
        6 => p.with("now", -5).with("enq_ts", 1 << 20).with("qdepth", 99),
        _ => p,
    };
    trace.into_iter().enumerate().map(reshape).collect()
}

#[test]
fn traffic_that_changes_shape_mid_run_matches_the_map_model_on_both_engines() {
    let ingress = compile("flowlet");
    let trace = shapeshifting_trace(160);
    // Ranks and classes are fields the pipelines name, so no packet but
    // the `mystery` ones carries a residual.
    let specs = [
        SchedSpec::Fifo,
        SchedSpec::Pifo {
            rank: "next_hop".into(),
        },
        SchedSpec::Shaping {
            rank: "arrival".into(),
        },
        SchedSpec::Priority {
            class: "dport".into(),
            rank: "next_hop".into(),
        },
    ];
    for egress in [AtomPipeline::passthrough("out"), compile("codel_lut")] {
        for drain in [1u64, 3] {
            for spec in &specs {
                check_both(&ingress, &egress, drain, spec, &trace);
            }
        }
        // A queue of 8 behind a link three times too slow refuses two
        // arrivals in three, so nearly every packet lands in a record
        // another just left — of another shape every fourth packet, with
        // a residual (`mystery`) it must take on and then lose again.
        let (slot, map) = both(&ingress, &egress, 8);
        let model = || {
            let mut m = MapModel::new(&ingress, &egress, 8);
            m.drain_period = 3;
            m
        };
        check(slot.with_drain_period(3), model(), &trace, "slot: tight");
        check(map.with_drain_period(3), model(), &trace, "map: tight");
    }
}

#[test]
fn a_table_that_grows_between_runs_remakes_the_edges() {
    // The first run memoises both edges on the table as built; naming a
    // field no pipeline knows then grows the table, and the second run
    // must admit and emit on the new layout — the new field in a slot.
    fn grows<E: PipelineEngine>(mut sw: Switch<E>, mut model: MapModel, trace: &[Packet]) {
        assert_eq!(sw.run(trace).collect().unwrap(), model.run(trace));
        let spec = SchedSpec::Pifo {
            rank: "late_rank".into(),
        };
        model.spec = spec.clone();
        let ranked: Vec<Packet> = (trace.iter().enumerate())
            .map(|(i, p)| p.clone().with("late_rank", (i as i32 * 5) % 13))
            .collect();
        check(sw.with_scheduler(spec), model, &ranked, "grown table");
    }
    let (ingress, egress) = (compile("flowlet"), compile("codel_lut"));
    let trace = shapeshifting_trace(96);
    // At line rate every departure's record is the next arrival's, so the
    // first run's records are recycled ones — and none may reach the
    // second run: they are a slot short of the grown table.
    let (slot, map) = both(&ingress, &egress, 24);
    grows(slot, MapModel::new(&ingress, &egress, 24), &trace);
    grows(map, MapModel::new(&ingress, &egress, 24), &trace);
}

#[test]
fn memoised_edges_equal_the_by_name_merges_through_every_shape_change() {
    // Slot order differs from name order, and `unset` stays absent.
    let mut table = FieldTable::new();
    for field in [
        "next_hop", "sport", "unset", "qdepth", "dport", "arrival", "now", "new_hop", "id",
        "enq_ts", "drop",
    ] {
        table.intern(field);
    }
    let table = Arc::new(table);
    let stamped = ["enq_ts", "next_hop", "now"].map(|f| table.lookup(f).unwrap());
    let mut edges = PacketEdges::new(&table);
    // One record recycled through the whole trace, as the switch does:
    // every admission into it overwrites the last packet's slots, stamps
    // and residual, and must equal the admission that makes a new record.
    let mut spent = (FlatPacket::new(Arc::clone(&table)), Vec::new());
    for (i, pkt) in shapeshifting_trace(200).iter().enumerate() {
        let (mut flat, residual) = edges.admit(pkt);
        let reference = FlatPacket::admit(pkt, &table);
        assert_eq!((&flat, &residual), (&reference.0, &reference.1), "{i}");
        edges.admit_into(pkt, &mut spent.0, &mut spent.1);
        assert_eq!(spent, reference, "packet {i}: into a spent record");
        assert_eq!(residual.is_empty(), !pkt.has("mystery"), "packet {i}");
        // What a switch does in between: stamps and engine writes.
        for id in stamped {
            flat.set(id, i as i32);
        }
        let out = edges.emit(&flat, &residual);
        let want = flat.emit(&table.by_name(), &residual);
        assert_eq!(out, want, "packet {i}: emission");
        assert!(out.iter().eq(want.iter()), "packet {i}: iteration order");
        assert!(!out.has("unset"));
        // Leave the stamps behind for the next admission to clear.
        for id in stamped {
            spent.0.set(id, -1);
        }
    }
}
