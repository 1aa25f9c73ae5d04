//! The steady-state delivery budget: once a subscriber has seen a type,
//! every further object of it costs one cached conformance verdict and
//! a bounded number of heap allocations end to end (publish, batch and
//! envelope codecs, conformance, materialize, proxy, delivery record).
//!
//! The binary installs a counting global allocator, so it holds a
//! single test: nothing else allocates while the burst is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pti_core::prelude::*;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// statistic and never influences the returned pointers.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System`; the caller's guarantees pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

const PUBLISHER: PeerId = PeerId(1);
const SUBSCRIBERS: u32 = 16;
const BURST: usize = 8;
/// Allocations per steady-state delivery, publisher share included.
const MAX_ALLOCS_PER_DELIVERY: u64 = 30;

fn tick(salt: &str) -> TypeDef {
    TypeDef::class("Tick", salt)
        .field("value", primitives::FLOAT64)
        .ctor(vec![])
        .build()
}

fn publish_burst(host: &mut ReactorHost, pub_slot: usize, def: &TypeDef, n: usize) {
    let def = def.clone();
    host.with_swarm(pub_slot, move |s| {
        for i in 0..n {
            let rt = &mut s.peer_mut(PUBLISHER).runtime;
            let h = rt.instantiate_def(&def, &[]).unwrap();
            rt.set_field(h, "value", Value::F64(i as f64)).unwrap();
            let routed = s
                .route_object(PUBLISHER, &Value::Obj(h), PayloadFormat::Binary)
                .unwrap();
            assert_eq!(routed, SUBSCRIBERS as usize);
        }
    });
    host.run_until_quiescent().unwrap();
}

/// Drains every subscriber, checking each accepted exactly `n` objects
/// matched to its interest with a proxy; returns the deliveries.
fn drain(host: &mut ReactorHost, slots: &[(usize, PeerId)], n: usize) -> Vec<Delivery> {
    let mut all = Vec::new();
    for &(slot, peer) in slots {
        let got = host.with_swarm(slot, move |s| s.peer_mut(peer).take_deliveries());
        assert_eq!(got.len(), n, "{peer} deliveries");
        for d in &got {
            let Delivery::Accepted {
                interest, proxy, ..
            } = d
            else {
                panic!("{peer} rejected a conforming object: {d:?}");
            };
            assert_eq!(interest.as_ref().map(|t| t.full()), Some("Tick"));
            assert!(proxy.is_some(), "{peer} got no proxy");
        }
        all.extend(got);
    }
    all
}

/// `(conformance checks, checker cache hits)` summed over subscribers.
fn checker_counts(host: &mut ReactorHost, slots: &[(usize, PeerId)]) -> (u64, u64) {
    slots.iter().fold((0, 0), |(checks, hits), &(slot, peer)| {
        let (c, h) = host.with_swarm(slot, move |s| {
            let p = s.peer(peer);
            (p.stats.conformance_checks, p.checker().stats().hits)
        });
        (checks + c, hits + h)
    })
}

#[test]
fn a_warm_delivery_costs_one_cached_verdict_and_a_bounded_allocation_budget() {
    let published = tick("pub");
    let interest = TypeDescription::from_def(&tick("sub"));
    let guid = published.guid;
    let assembly = Assembly::builder("ticks")
        .ty(published.clone())
        .ctor_body(guid, 0, bodies::ctor_assign(&[]))
        .build();

    let mut host = ReactorHost::new();
    let code = CodeRegistry::new();
    let pub_slot = {
        let code = code.clone();
        host.mount(move |net| Swarm::with_code_registry(net, code))
    };
    host.with_swarm(pub_slot, move |s| {
        s.add_peer_as(PUBLISHER, ConformanceConfig::pragmatic());
        s.publish(PUBLISHER, assembly).unwrap();
    });
    let slots: Vec<(usize, PeerId)> = (0..SUBSCRIBERS)
        .map(|i| {
            let code = code.clone();
            let slot = host.mount(move |net| Swarm::with_code_registry(net, code));
            let peer = PeerId(2 + i);
            let interest = interest.clone();
            host.with_swarm(slot, move |s| {
                s.add_peer_as(peer, ConformanceConfig::pragmatic());
                s.add_contact(PUBLISHER);
                s.subscribe(peer, interest);
            });
            (slot, peer)
        })
        .collect();
    host.run_until_quiescent().unwrap();

    // Warm-up: the first object is a first contact (description and
    // code fetch, uncached check); the second burst lets every queue and
    // table reach its steady capacity.
    publish_burst(&mut host, pub_slot, &published, 1);
    drain(&mut host, &slots, 1);
    publish_burst(&mut host, pub_slot, &published, BURST);
    drain(&mut host, &slots, BURST);

    let (checks_before, hits_before) = checker_counts(&mut host, &slots);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    publish_burst(&mut host, pub_slot, &published, BURST);
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let (checks_after, hits_after) = checker_counts(&mut host, &slots);
    let deliveries = drain(&mut host, &slots, BURST);

    let n = deliveries.len() as u64;
    assert_eq!(n, u64::from(SUBSCRIBERS) * BURST as u64);
    assert_eq!(
        checks_after - checks_before,
        n,
        "one conformance check per delivery"
    );
    assert_eq!(
        hits_after - hits_before,
        n,
        "the check is answered by the verdict cache exactly once per delivery"
    );
    assert!(
        allocs <= MAX_ALLOCS_PER_DELIVERY * n,
        "{allocs} allocations for {n} deliveries ({:.1} each, budget {MAX_ALLOCS_PER_DELIVERY})",
        allocs as f64 / n as f64
    );

    // Deliveries of one (type, interest) pair share one contract and one
    // binding.
    let proxies: Vec<&DynamicProxy> = deliveries
        .iter()
        .filter_map(|d| match d {
            Delivery::Accepted { proxy, .. } => proxy.as_ref(),
            Delivery::Rejected { .. } => None,
        })
        .collect();
    let (first, second) = (proxies[0], proxies[1]);
    assert!(std::ptr::eq(first.expected(), second.expected()));
    assert!(std::ptr::eq(first.binding(), second.binding()));
}
