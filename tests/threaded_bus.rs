//! Concurrency integration: real threads running the *shared* optimistic
//! protocol over the crossbeam-free [`LiveBus`] fabric.
//!
//! Each thread owns a `Swarm<LiveBus>` — the exact state machine the
//! virtual-time experiments run — wired to a clone of one bus handle and
//! a shared [`CodeRegistry`]. No hand-built envelopes, no re-implemented
//! description dance: the protocol code is identical to the
//! virtual-time `ReactorNet` path, only the fabric differs.

use std::thread;
use std::time::{Duration, Instant};

use pti_core::prelude::*;
use pti_core::samples;

/// How long a serving loop tolerates silence before deciding the
/// exchange is over (generous: CI machines stall).
const IDLE: Duration = Duration::from_secs(5);

#[test]
fn two_threads_exchange_conformant_objects() {
    let bus = LiveBus::new();
    let code = CodeRegistry::new();
    const N: usize = 50;

    let producer_id = PeerId(1);
    let consumer_id = PeerId(2);

    // Register both inboxes on their threads' handles *before* spawning
    // so neither side can send into a not-yet-registered peer.
    let mut producer_bus = bus.clone();
    producer_bus.register(producer_id);
    let mut consumer_bus = bus.clone();
    consumer_bus.register(consumer_id);

    // Producer thread: publishes vendor-a Person, sends N objects, then
    // serves description/assembly fetches until the consumer says done.
    let producer_code = code.clone();
    // pti-allow(thread-confinement): LiveBus integration test — one swarm per OS thread is the workload under test
    let producer = thread::spawn(move || {
        let mut swarm: Swarm<LiveBus> = Swarm::with_code_registry(producer_bus, producer_code);
        swarm.add_peer_as(producer_id, ConformanceConfig::pragmatic());
        let a_def = samples::person_vendor_a();
        swarm
            .publish(producer_id, samples::person_assembly(&a_def))
            .unwrap();

        for i in 0..N {
            let v =
                samples::make_person(&mut swarm.peer_mut(producer_id).runtime, &format!("p{i}"));
            swarm
                .send_object(producer_id, consumer_id, &v, PayloadFormat::Binary)
                .unwrap();
        }
        // Serve protocol requests until the consumer's `done` arrives.
        loop {
            let Some((at, msg)) = swarm.poll_deadline(Instant::now() + IDLE).unwrap() else {
                panic!("producer idled out before the consumer finished");
            };
            if msg.kind == "done" {
                break;
            }
            assert!(
                swarm.dispatch(at, msg).unwrap(),
                "only protocol traffic expected"
            );
        }
    });

    // Consumer thread: vendor-b interest; the swarm's protocol engine
    // fetches the description, checks conformance, downloads the code
    // from the shared registry, and delivers proxied events.
    let consumer_code = code.clone();
    // pti-allow(thread-confinement): LiveBus integration test — one swarm per OS thread is the workload under test
    let consumer = thread::spawn(move || {
        let mut swarm: Swarm<LiveBus> = Swarm::with_code_registry(consumer_bus, consumer_code);
        swarm.add_peer_as(consumer_id, ConformanceConfig::pragmatic());
        let b_def = samples::person_vendor_b();
        swarm
            .peer_mut(consumer_id)
            .subscribe(TypeDescription::from_def(&b_def));

        let mut deliveries = Vec::new();
        while deliveries.len() < N {
            let Some((at, msg)) = swarm.poll_deadline(Instant::now() + IDLE).unwrap() else {
                panic!(
                    "consumer idled out with {}/{N} deliveries",
                    deliveries.len()
                );
            };
            assert!(
                swarm.dispatch(at, msg).unwrap(),
                "only protocol traffic expected"
            );
            deliveries.extend(swarm.peer_mut(consumer_id).take_deliveries());
        }
        swarm
            .send_raw(consumer_id, producer_id, "done", vec![])
            .unwrap();

        // Read every event through the consumer's own contract.
        let mut names = Vec::new();
        for d in deliveries {
            let Delivery::Accepted {
                proxy: Some(proxy), ..
            } = d
            else {
                panic!("expected accepted proxied deliveries, got {d:?}");
            };
            names.push(
                proxy
                    .invoke(
                        &mut swarm.peer_mut(consumer_id).runtime,
                        "getPersonName",
                        &[],
                    )
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string(),
            );
        }
        let stats = swarm.peer(consumer_id).stats;
        (names, stats)
    });

    producer.join().unwrap();
    let (names, stats) = consumer.join().unwrap();
    assert_eq!(names.len(), N);
    // Per-link FIFO on the bus: names arrive in publication order.
    for (i, n) in names.iter().enumerate() {
        assert_eq!(n, &format!("p{i}"));
    }
    // The optimistic protocol paid for description and code exactly once.
    assert_eq!(stats.desc_requests, 1);
    assert_eq!(stats.asm_requests, 1);
    assert_eq!(stats.accepted as usize, N);
    let m = bus.metrics();
    assert_eq!(m.kind("object").messages as usize, N);
    assert_eq!(m.kind("desc-request").messages, 1);
    assert_eq!(m.kind("desc-response").messages, 1);
    assert_eq!(m.kind("asm-request").messages, 1);
    assert_eq!(m.kind("asm-response").messages, 1);
}

#[test]
fn many_concurrent_publishers_fan_into_one_consumer() {
    let bus = LiveBus::new();
    let code = CodeRegistry::new();
    const PUBS: usize = 4;
    const PER_PUB: usize = 25;

    let consumer_id = PeerId(100);

    // The consumer's inbox must exist before any publisher sends.
    let mut consumer_bus = bus.clone();
    consumer_bus.register(consumer_id);

    let mut handles = Vec::new();
    for p in 0..PUBS {
        let pub_bus = bus.clone();
        let pub_code = code.clone();
        // pti-allow(thread-confinement): LiveBus integration test — one swarm per OS thread is the workload under test
        handles.push(thread::spawn(move || {
            let id = PeerId(p as u32 + 1);
            let mut swarm: Swarm<LiveBus> = Swarm::with_code_registry(pub_bus, pub_code);
            swarm.add_peer_as(id, ConformanceConfig::pragmatic());
            let def = samples::person_vendor_a();
            swarm.publish(id, samples::person_assembly(&def)).unwrap();
            for i in 0..PER_PUB {
                let v =
                    samples::make_person(&mut swarm.peer_mut(id).runtime, &format!("pub{p}-{i}"));
                swarm
                    .send_object(id, consumer_id, &v, PayloadFormat::Binary)
                    .unwrap();
            }
            // Serve desc/asm fetches until the consumer broadcasts done.
            loop {
                let Some((at, msg)) = swarm.poll_deadline(Instant::now() + IDLE).unwrap() else {
                    panic!("publisher {p} idled out");
                };
                if msg.kind == "done" {
                    break;
                }
                assert!(swarm.dispatch(at, msg).unwrap());
            }
        }));
    }

    // Consumer on the main thread, same protocol engine.
    let mut swarm: Swarm<LiveBus> = Swarm::with_code_registry(consumer_bus, code);
    swarm.add_peer_as(consumer_id, ConformanceConfig::pragmatic());
    let b_def = samples::person_vendor_b();
    swarm
        .peer_mut(consumer_id)
        .subscribe(TypeDescription::from_def(&b_def));

    let mut accepted = Vec::new();
    while accepted.len() < PUBS * PER_PUB {
        let Some((at, msg)) = swarm.poll_deadline(Instant::now() + IDLE).unwrap() else {
            panic!(
                "consumer idled out with {}/{} events",
                accepted.len(),
                PUBS * PER_PUB
            );
        };
        assert!(swarm.dispatch(at, msg).unwrap());
        accepted.extend(swarm.peer_mut(consumer_id).take_deliveries());
    }
    for p in 0..PUBS {
        swarm
            .send_raw(consumer_id, PeerId(p as u32 + 1), "done", vec![])
            .unwrap();
    }
    for h in handles {
        h.join().unwrap();
    }

    // Every publisher's full stream arrived and materialized.
    let mut per_pub = vec![0usize; PUBS];
    for d in accepted {
        let Delivery::Accepted { value, .. } = d else {
            panic!("{d:?}")
        };
        let h = value.as_obj().unwrap();
        let name = swarm
            .peer_mut(consumer_id)
            .runtime
            .get_field(h, "name")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let pub_idx: usize = name[3..name.find('-').unwrap()].parse().unwrap();
        per_pub[pub_idx] += 1;
    }
    assert!(per_pub.iter().all(|&c| c == PER_PUB), "{per_pub:?}");
    assert_eq!(
        bus.metrics().kind("object").messages as usize,
        PUBS * PER_PUB
    );
    // The same logical assembly is fetched at most once per distinct
    // download path (timing decides how many paths are in flight before
    // content-hash identity starts deduplicating).
    let stats = swarm.peer(consumer_id).stats;
    assert!((1..=PUBS as u64).contains(&stats.asm_requests), "{stats:?}");
    assert!(
        (1..=PUBS as u64).contains(&stats.desc_requests),
        "{stats:?}"
    );
}
