//! Optimistic vs eager parity: both protocols must deliver semantically
//! identical objects; they differ only in traffic (experiment F1's
//! correctness precondition).

use pti_core::prelude::*;
use pti_core::samples;

fn fixture() -> (Swarm, PeerId, PeerId) {
    let mut swarm = Swarm::new(NetConfig::default());
    let pub_ = swarm.add_peer(ConformanceConfig::pragmatic());
    let sub = swarm.add_peer(ConformanceConfig::pragmatic());
    let a = samples::person_vendor_a();
    swarm.publish(pub_, samples::person_assembly(&a)).unwrap();
    let b = samples::person_vendor_b();
    swarm.peer_mut(sub).subscribe(TypeDescription::from_def(&b));
    (swarm, pub_, sub)
}

fn delivered_names(swarm: &mut Swarm, sub: PeerId) -> Vec<String> {
    let handles: Vec<_> = swarm
        .peer_mut(sub)
        .take_deliveries()
        .into_iter()
        .filter_map(|d| match d {
            Delivery::Accepted { value, .. } => value.as_obj().ok(),
            Delivery::Rejected { .. } => None,
        })
        .collect();
    handles
        .into_iter()
        .map(|h| {
            swarm
                .peer_mut(sub)
                .runtime
                .get_field(h, "name")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn both_protocols_deliver_identical_objects() {
    let names = ["ada", "grace", "edsger"];
    let mut results = Vec::new();
    for eager in [false, true] {
        let (mut swarm, pub_, sub) = fixture();
        for n in names {
            let v = samples::make_person(&mut swarm.peer_mut(pub_).runtime, n);
            if eager {
                swarm
                    .send_object_eager(pub_, sub, &v, PayloadFormat::Binary)
                    .unwrap();
            } else {
                swarm
                    .send_object(pub_, sub, &v, PayloadFormat::Binary)
                    .unwrap();
            }
            swarm.run().unwrap();
        }
        results.push(delivered_names(&mut swarm, sub));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(
        results[0],
        names.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn optimistic_wins_bytes_when_types_repeat() {
    let runs = 20usize;
    let mut bytes = Vec::new();
    for eager in [false, true] {
        let (mut swarm, pub_, sub) = fixture();
        for i in 0..runs {
            let v = samples::make_person(&mut swarm.peer_mut(pub_).runtime, &format!("p{i}"));
            if eager {
                swarm
                    .send_object_eager(pub_, sub, &v, PayloadFormat::Binary)
                    .unwrap();
            } else {
                swarm
                    .send_object(pub_, sub, &v, PayloadFormat::Binary)
                    .unwrap();
            }
            swarm.run().unwrap();
        }
        bytes.push(swarm.metrics().bytes);
    }
    let (optimistic, eager) = (bytes[0], bytes[1]);
    assert!(
        optimistic * 2 < eager,
        "with {runs} repeats optimistic ({optimistic} B) should be far below eager ({eager} B)"
    );
}

#[test]
fn eager_wastes_code_on_rejected_types() {
    // Subscriber wants nothing the publisher sends.
    let mk = |eager: bool| {
        let mut swarm = Swarm::new(NetConfig::default());
        let pub_ = swarm.add_peer(ConformanceConfig::pragmatic());
        let sub = swarm.add_peer(ConformanceConfig::pragmatic());
        for v in samples::generate_population(3, 8, 0.0) {
            swarm.publish(pub_, v.assembly.clone()).unwrap();
            let h = swarm
                .peer_mut(pub_)
                .runtime
                .instantiate_def(&v.def, &[])
                .unwrap();
            if eager {
                swarm
                    .send_object_eager(pub_, sub, &Value::Obj(h), PayloadFormat::Binary)
                    .unwrap();
            } else {
                swarm
                    .send_object(pub_, sub, &Value::Obj(h), PayloadFormat::Binary)
                    .unwrap();
            }
        }
        swarm.run().unwrap();
        swarm.metrics().bytes
    };
    let optimistic = mk(false);
    let eager = mk(true);
    assert!(
        optimistic * 2 < eager,
        "all-rejected workload: optimistic {optimistic} B, eager {eager} B"
    );
}

#[test]
fn single_cold_transfer_overhead_is_bounded() {
    // For exactly one novel conformant object the optimistic protocol
    // pays extra round trips; its *byte* total should still be in the
    // same ballpark (the description + code dominate both).
    let (mut swarm, pub_, sub) = fixture();
    let v = samples::make_person(&mut swarm.peer_mut(pub_).runtime, "solo");
    swarm
        .send_object(pub_, sub, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let optimistic = swarm.metrics().bytes;

    let (mut swarm, pub_, sub) = fixture();
    let v = samples::make_person(&mut swarm.peer_mut(pub_).runtime, "solo");
    swarm
        .send_object_eager(pub_, sub, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let eager = swarm.metrics().bytes;

    let ratio = optimistic as f64 / eager as f64;
    assert!(
        (0.5..=1.5).contains(&ratio),
        "cold-transfer ratio optimistic/eager = {ratio:.2} (opt {optimistic} B, eager {eager} B)"
    );
}

#[test]
fn round_trips_cost_virtual_time_on_cold_start() {
    let (mut swarm, pub_, sub) = fixture();
    let v = samples::make_person(&mut swarm.peer_mut(pub_).runtime, "t");
    swarm
        .send_object(pub_, sub, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let optimistic_cold = swarm.net().now_us();

    let (mut swarm, pub_, sub) = fixture();
    let v = samples::make_person(&mut swarm.peer_mut(pub_).runtime, "t");
    swarm
        .send_object_eager(pub_, sub, &v, PayloadFormat::Binary)
        .unwrap();
    swarm.run().unwrap();
    let eager_cold = swarm.net().now_us();

    assert!(
        optimistic_cold > eager_cold,
        "optimistic cold start ({optimistic_cold} µs) pays round trips vs eager ({eager_cold} µs)"
    );
}
