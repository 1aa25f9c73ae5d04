//! `durable-loss`: `QoS::AtLeastOnce` with credit window 16 on one
//! `ReactorHost`; 64 subscribers on one topic. After a lossless warm-up
//! a seeded `FaultPlan` drops 5% of fabric sends. Each event is
//! published and then driven with `run_for(50 ms)` of virtual time —
//! `run_until_quiescent` services no timers, so a lost frame would stall
//! its link. The operation is one event.

use std::collections::VecDeque;
use std::time::Instant;

use pti_core::conformance::ConformanceConfig;
use pti_core::metamodel::{ObjHandle, TypeDef, TypeDescription, Value};
use pti_core::net::{FaultPlan, Transport};
use pti_core::samples::{topic_event_assembly, topic_event_def};
use pti_core::serialize::PayloadFormat;
use pti_core::transport::{CodeRegistry, QoS, ReactorHost, Swarm};

use crate::common::{
    drain_swarm, free_objects, nanos, pump_summary, Counts, Got, OpOut, Rng, Tracer, Workload,
    LONG_RUN_BUDGET,
};
use crate::fanout::{member_id, route_entries, PUBLISHER, TOPICS};
use crate::layers::LayerInputs;

pub const SUBSCRIBERS: usize = 64;
pub const WINDOW: usize = 16;
pub const LOSS_PERMILLE: u16 = 50;
pub const DRIVE_US: u64 = 50_000;
/// Extra `run_for` windows `finish` may spend settling the tail.
const SETTLE_WINDOWS: usize = 200;

struct InFlight {
    id: u64,
    start: Instant,
    value: f64,
}

pub struct Durable {
    host: ReactorHost,
    pub_slot: usize,
    sub_slots: Vec<usize>,
    def: TypeDef,
    interest: TypeDescription,
    rng: Rng,
    /// Events not yet delivered to every subscriber, oldest first.
    in_flight: VecDeque<InFlight>,
    next_id: u64,
    /// Per subscriber: id of the next event it must deliver.
    next_due: Vec<u64>,
    /// Publisher objects whose events are routed, freed after the drive.
    handles: Vec<ObjHandle>,
}

fn set_reliable(s: &mut Swarm<pti_core::net::ReactorNet>) {
    s.set_qos(QoS::AtLeastOnce);
    s.set_credit_window(WINDOW);
}

impl Durable {
    pub fn setup(seed: u64) -> Result<Durable, String> {
        let mut rng = Rng::new(seed);
        let topic = rng.below(TOPICS);
        let mut host = ReactorHost::new();
        let code = CodeRegistry::new();
        let c = code.clone();
        let pub_slot = host.mount(move |net| Swarm::with_code_registry(net, c));
        host.with_swarm(pub_slot, |s| {
            set_reliable(s);
            s.set_message_budget(LONG_RUN_BUDGET);
            s.add_peer_as(PUBLISHER, ConformanceConfig::pragmatic());
            s.publish(PUBLISHER, topic_event_assembly(topic))
                .map_err(|e| e.to_string())
        })?;
        let interest = TypeDescription::from_def(&topic_event_def(topic, "sub"));
        let mut sub_slots = Vec::with_capacity(SUBSCRIBERS);
        for i in 0..SUBSCRIBERS {
            let c = code.clone();
            let slot = host.mount(move |net| Swarm::with_code_registry(net, c));
            let sub = interest.clone();
            host.with_swarm(slot, |s| {
                set_reliable(s);
                s.set_message_budget(LONG_RUN_BUDGET);
                let p = s.add_peer_as(member_id(i), ConformanceConfig::pragmatic());
                s.add_contact(PUBLISHER);
                s.subscribe(p, sub);
            });
            sub_slots.push(slot);
        }
        host.run_until_quiescent().map_err(|e| e.to_string())?;
        let mut d = Durable {
            host,
            pub_slot,
            sub_slots,
            def: topic_event_def(topic, "pub"),
            interest,
            rng,
            in_flight: VecDeque::new(),
            next_id: 0,
            next_due: vec![0; SUBSCRIBERS],
            handles: Vec::new(),
        };
        // Lossless warm-up settles the description and code exchange;
        // only then does the fault plan start dropping frames.
        let mut tr = Tracer::new();
        let warm = d.op(&mut tr)?;
        let settled = d.finish(&mut tr)?;
        if warm.failures + settled.failures > 0 || !d.in_flight.is_empty() {
            return Err(format!(
                "warm-up failed: {:?} {:?}",
                warm.notes, settled.notes
            ));
        }
        let mut hub = d.host.reactor();
        hub.install_fault_plan(FaultPlan::new(seed ^ 0xfa17).with_loss(LOSS_PERMILLE));
        Ok(d)
    }

    fn drive(&mut self) -> Result<(), String> {
        self.host.run_for(DRIVE_US).map_err(|e| e.to_string())
    }

    /// Drains every subscriber and retires events all of them delivered,
    /// recording their latency against `end`.
    fn observe(&mut self, end: Instant, out: &mut OpOut) {
        let handles = std::mem::take(&mut self.handles);
        self.host
            .with_swarm(self.pub_slot, |s| free_objects(s, PUBLISHER, &handles));
        for e in self.host.with_swarm(self.pub_slot, drain_swarm) {
            out.fail((e.got.len() + e.errors.len()) as u64, || {
                format!("publisher got {:?} {:?}", e.got, e.errors)
            });
        }
        let first_id = self.in_flight.front().map_or(self.next_id, |f| f.id);
        for (k, &slot) in self.sub_slots.iter().enumerate() {
            for d in self.host.with_swarm(slot, drain_swarm) {
                for e in &d.errors {
                    out.fail(1, || e.clone());
                }
                for g in d.got {
                    let due = self.next_due[k];
                    let want = due
                        .checked_sub(first_id)
                        .and_then(|i| self.in_flight.get(i as usize))
                        .map(|f| Got::Accepted {
                            from: PUBLISHER,
                            value: Some(f.value),
                            interest: Some(self.interest.guid),
                        });
                    if want.as_ref() == Some(&g) {
                        self.next_due[k] += 1;
                        out.accepted += 1;
                    } else {
                        out.fail(1, || {
                            format!("subscriber {k} got {g:?} when event {due} was due")
                        });
                    }
                }
            }
        }
        let done = self.next_due.iter().copied().min().unwrap_or(self.next_id);
        while self.in_flight.front().is_some_and(|f| f.id < done) {
            if let Some(f) = self.in_flight.pop_front() {
                out.latencies_us.push(nanos(f.start, end) as f64 / 1e3);
            }
        }
    }
}

impl Workload for Durable {
    fn op(&mut self, tr: &mut Tracer) -> Result<OpOut, String> {
        let start = Instant::now();
        let value = self.next_id as f64 + self.rng.unit();
        let def = &self.def;
        let (h, route_ns) = self.host.with_swarm(self.pub_slot, |s| {
            let rt = &mut s.peer_mut(PUBLISHER).runtime;
            let h = rt.instantiate_def(def, &[]).map_err(|e| e.to_string())?;
            rt.set_field(h, "value", Value::F64(value))
                .map_err(|e| e.to_string())?;
            let r0 = Instant::now();
            s.route_object(PUBLISHER, &Value::Obj(h), PayloadFormat::Binary)
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((h, nanos(r0, Instant::now())))
        })?;
        self.handles.push(h);
        self.in_flight.push_back(InFlight {
            id: self.next_id,
            start,
            value,
        });
        self.next_id += 1;
        let d0 = Instant::now();
        self.drive()?;
        let end = Instant::now();
        tr.span("publish", start, d0);
        tr.span("host.drive", d0, end);
        let mut out = OpOut {
            events: 1,
            expected: SUBSCRIBERS as u64,
            op_ns: nanos(start, end),
            drive_ns: nanos(d0, end),
            ..OpOut::default()
        };
        if tr.on {
            out.route_ns = route_ns;
            out.route_calls = 1;
        }
        self.observe(end, &mut out);
        Ok(out)
    }

    fn counts(&mut self) -> Counts {
        let hub = self.host.reactor();
        let mut c = Counts::default();
        c.add_reactor(hub.stats());
        c.add_net(&Transport::metrics(&hub));
        c.route_generation = self
            .host
            .with_swarm(self.pub_slot, |s| s.routes().generation());
        let slots: Vec<usize> = std::iter::once(self.pub_slot)
            .chain(self.sub_slots.iter().copied())
            .collect();
        for slot in slots {
            self.host.with_swarm(slot, |s| c.add_swarm(s));
        }
        c
    }

    /// Keeps driving (timed like an operation) until every published
    /// event reached every subscriber; whatever is still missing after
    /// `SETTLE_WINDOWS` windows is a failure.
    fn finish(&mut self, tr: &mut Tracer) -> Result<OpOut, String> {
        let mut out = OpOut::default();
        for _ in 0..SETTLE_WINDOWS {
            if self.in_flight.is_empty() {
                break;
            }
            let d0 = Instant::now();
            self.drive()?;
            let end = Instant::now();
            tr.span("host.drive", d0, end);
            out.op_ns += nanos(d0, end);
            out.drive_ns += nanos(d0, end);
            self.observe(end, &mut out);
        }
        let missing: u64 = self
            .next_due
            .iter()
            .map(|&due| self.next_id.saturating_sub(due))
            .sum();
        out.fail(missing, || format!("{missing} deliveries never arrived"));
        Ok(out)
    }

    fn set_pump_trace(&mut self, on: bool) {
        self.host.set_pump_trace(on);
    }

    fn take_pumps(&mut self) -> (u64, u64) {
        pump_summary(&self.host.take_pump_trace())
    }

    fn layer_inputs(&mut self) -> LayerInputs {
        let routes = self.host.with_swarm(self.pub_slot, |s| route_entries(s));
        LayerInputs {
            event_def: self.def.clone(),
            vendor: |i| topic_event_def(0, &format!("vendor-{i}")),
            interest: self.interest.clone(),
            config: ConformanceConfig::pragmatic(),
            routes,
            frames_per_batch: 1,
        }
    }

    fn probe_ops(&self) -> usize {
        64
    }
}
