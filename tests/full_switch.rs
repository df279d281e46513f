//! The Figure 1 architecture end to end: a switch running **flowlet
//! switching at ingress** and **CoDel (LUT variant) at egress**, with a
//! real queue between the pipelines — exactly the placement Table 4
//! prescribes for the two algorithms.

use banzai::Switch;
use domino_ir::Packet;

fn build_switch(capacity: usize, drain_period: u64) -> Switch {
    let compile = |name| {
        let a = algorithms::by_name(name).unwrap();
        domino_compiler::compile(a.source, &a.least_target().unwrap()).unwrap()
    };
    Switch::new(compile("flowlet"), compile("codel_lut"), capacity).with_drain_period(drain_period)
}

fn trace(n: usize) -> Vec<Packet> {
    // Flowlet inputs; CoDel's inputs (now/enq_ts) are stamped by the
    // queue itself.
    algorithms::by_name("flowlet").unwrap().trace(n, 0xF00D)
}

#[test]
fn uncongested_switch_forwards_without_drops_or_codel_drops() {
    let mut sw = build_switch(256, 1);
    let out = sw
        .run(&trace(2000))
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");
    assert_eq!(out.len(), 2000);
    assert_eq!(sw.drops(), 0);
    // Line-rate drain ⇒ no standing queue ⇒ CoDel never enters dropping.
    let marked = out.iter().filter(|p| p.get("drop") == Some(1)).count();
    assert_eq!(marked, 0, "CoDel marked packets without congestion");
    // Ingress still did its job: every packet got a next hop.
    assert!(out
        .iter()
        .all(|p| (0..10).contains(&p.get("next_hop").unwrap())));
}

#[test]
fn congested_switch_builds_queue_and_codel_reacts() {
    // Egress link at 1/3 line rate: a standing queue must form and CoDel
    // must start signalling.
    let mut sw = build_switch(512, 3);
    let out = sw
        .run(&trace(3000))
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");
    assert!(out.len() > 500);
    let max_sojourn = out
        .iter()
        .map(|p| p.get("now").unwrap() - p.get("enq_ts").unwrap())
        .max()
        .unwrap();
    assert!(
        max_sojourn > 5,
        "no standing queue formed (max sojourn {max_sojourn})"
    );
    let marked = out.iter().filter(|p| p.get("drop") == Some(1)).count();
    assert!(marked > 0, "CoDel never reacted to a standing queue");
    // And it must not be marking everything — the control law paces drops.
    assert!(
        marked < out.len() / 2,
        "CoDel marked {marked}/{} — control law not pacing",
        out.len()
    );
}

#[test]
fn ingress_flowlet_state_and_egress_codel_state_both_live() {
    let mut sw = build_switch(128, 2);
    sw.run(&trace(1500))
        .for_each(|_| {})
        .expect("slice-backed sources cannot fail mid-stream");
    // Ingress owns the flowlet tables...
    assert!(sw.export_ingress_state().get("saved_hop").is_some());
    assert!(sw.export_ingress_state().get("last_time").is_some());
    // ...egress owns the CoDel control state; they are disjoint machines.
    assert!(sw.export_egress_state().get("first_above_time").is_some());
    assert!(sw.export_ingress_state().get("first_above_time").is_none());
    assert!(sw.export_egress_state().get("saved_hop").is_none());
}
