//! `fanout` and `sharded-fanout`: 1024 single-peer subscriber swarms and
//! one publisher; 64 topics with fan-out 16; warmed types; bursts of 256
//! `FireAndForget` binary events (4 per topic, so every subscriber link
//! carries a 4-frame batch). The operation is one event.
//!
//! `fanout` runs on one `ReactorHost` on the calling thread;
//! `sharded-fanout` runs the same population on a `ShardedHost` with
//! autonomous workers, members hash-pinned and the publisher on shard 0.

use std::sync::Arc;
use std::time::Instant;

use pti_core::conformance::{ConformanceChecker, ConformanceConfig};
use pti_core::metamodel::{Guid, ObjHandle, TypeDef, TypeDescription, TypeRegistry, Value};
use pti_core::net::{PeerId, ReactorNet, Transport};
use pti_core::samples::{topic_event_assembly, topic_event_def};
use pti_core::serialize::PayloadFormat;
use pti_core::transport::{CodeRegistry, ReactorHost, ShardedHost, Signature, Swarm};

use crate::common::{
    drain_swarm, free_objects, nanos, pump_summary, Counts, Drained, Got, OpOut, Rng, Tracer,
    Workload, LONG_RUN_BUDGET,
};
use crate::layers::LayerInputs;

pub const MEMBERS: usize = 1024;
pub const TOPICS: usize = 64;
pub const PER_TOPIC: usize = 4;
pub const BURST: usize = TOPICS * PER_TOPIC;
pub const PUBLISHER: PeerId = PeerId(1);

/// The subscriber population and its oracle: which topic each member
/// follows and what each burst must deliver to it.
pub struct Population {
    /// Publisher-side event definitions, by topic.
    pub defs: Arc<Vec<TypeDef>>,
    /// Subscriber interests, by topic.
    pub interests: Vec<TypeDescription>,
    rng: Rng,
    next_value: u64,
}

/// Member `i` (peer id `2 + i`) follows topic `i % TOPICS`.
pub fn member_id(i: usize) -> PeerId {
    PeerId(2 + i as u32)
}

fn member_index(p: PeerId) -> Option<usize> {
    (p.0 as usize).checked_sub(2).filter(|&i| i < MEMBERS)
}

impl Population {
    pub fn new(seed: u64) -> Population {
        Population {
            defs: Arc::new((0..TOPICS).map(|t| topic_event_def(t, "pub")).collect()),
            interests: (0..TOPICS)
                .map(|t| TypeDescription::from_def(&topic_event_def(t, "sub")))
                .collect(),
            rng: Rng::new(seed),
            next_value: 0,
        }
    }

    /// The interest map's expectation, checked by an uncached checker:
    /// each topic's event type conforms to that topic's interest and to
    /// no other topic's.
    pub fn verify(&self) -> Result<(), String> {
        let checker = ConformanceChecker::uncached(ConformanceConfig::pragmatic());
        let provider = TypeRegistry::with_builtins();
        for (t, def) in self.defs.iter().enumerate() {
            let event = TypeDescription::from_def(def);
            for (k, interest) in self.interests.iter().enumerate() {
                if checker.conforms(&event, interest, &provider, &provider) != (t == k) {
                    return Err(format!("oracle: topic {t} event vs topic {k} interest"));
                }
            }
        }
        Ok(())
    }

    pub fn interest_guid(&self, topic: usize) -> Guid {
        self.interests[topic].guid
    }

    /// The next burst: a seeded topic order repeated `PER_TOPIC` times,
    /// each event carrying a distinct value.
    pub fn plan(&mut self) -> Vec<(usize, f64)> {
        let mut order: Vec<usize> = (0..TOPICS).collect();
        self.rng.shuffle(&mut order);
        let mut plan = Vec::with_capacity(BURST);
        for _ in 0..PER_TOPIC {
            for &t in &order {
                self.next_value += 1;
                plan.push((t, self.next_value as f64 + self.rng.unit()));
            }
        }
        plan
    }

    /// Checks one drained burst: every member must have accepted exactly
    /// its topic's events, in publish order, with the values intact.
    pub fn check(&self, plan: &[(usize, f64)], drained: &[Drained], out: &mut OpOut) {
        let mut per_topic: Vec<Vec<f64>> = vec![Vec::new(); TOPICS];
        for &(t, v) in plan {
            per_topic[t].push(v);
        }
        let mut seen = vec![false; MEMBERS];
        for d in drained {
            for e in &d.errors {
                out.fail(1, || e.clone());
            }
            let Some(i) = member_index(d.peer) else {
                out.fail(d.got.len() as u64, || {
                    format!("{} non-members got deliveries", d.got.len())
                });
                continue;
            };
            seen[i] = true;
            let topic = i % TOPICS;
            let want = &per_topic[topic];
            let guid = self.interest_guid(topic);
            let matched = d
                .got
                .iter()
                .zip(want)
                .filter(|(g, v)| {
                    **g == Got::Accepted {
                        from: PUBLISHER,
                        value: Some(**v),
                        interest: Some(guid),
                    }
                })
                .count();
            out.expected += want.len() as u64;
            out.accepted += matched as u64;
            let bad = want.len().max(d.got.len()) - matched;
            out.fail(bad as u64, || {
                format!(
                    "member {} got {:?}, expected values {want:?}",
                    d.peer, d.got
                )
            });
        }
        let missing = seen.iter().filter(|s| !**s).count() * PER_TOPIC;
        out.expected += missing as u64;
        out.fail(missing as u64, || "members missing from the drain".into());
    }

    pub fn layer_inputs(&self, routes: Vec<(PeerId, Guid, Signature)>) -> LayerInputs {
        LayerInputs {
            event_def: self.defs[0].clone(),
            vendor: |i| topic_event_def(0, &format!("vendor-{i}")),
            interest: self.interests[0].clone(),
            config: ConformanceConfig::pragmatic(),
            routes,
            frames_per_batch: PER_TOPIC,
        }
    }
}

/// Publishes one burst from the publisher swarm, returning each event's
/// start instant, its object handle and the time inside `route_object`.
fn publish_burst(
    s: &mut Swarm<ReactorNet>,
    defs: &[TypeDef],
    plan: &[(usize, f64)],
    traced: bool,
) -> Result<(Vec<Instant>, Vec<ObjHandle>, u64), String> {
    let mut starts = Vec::with_capacity(plan.len());
    let mut handles = Vec::with_capacity(plan.len());
    let mut route_ns = 0;
    for &(t, v) in plan {
        let start = Instant::now();
        let rt = &mut s.peer_mut(PUBLISHER).runtime;
        let h = rt
            .instantiate_def(&defs[t], &[])
            .map_err(|e| e.to_string())?;
        rt.set_field(h, "value", Value::F64(v))
            .map_err(|e| e.to_string())?;
        let r0 = traced.then(Instant::now);
        s.route_object(PUBLISHER, &Value::Obj(h), PayloadFormat::Binary)
            .map_err(|e| e.to_string())?;
        if let Some(r0) = r0 {
            route_ns += r0.elapsed().as_nanos() as u64;
        }
        starts.push(start);
        handles.push(h);
    }
    Ok((starts, handles, route_ns))
}

fn configure_member(s: &mut Swarm<ReactorNet>, i: usize, interest: TypeDescription) {
    s.set_message_budget(LONG_RUN_BUDGET);
    let p = s.add_peer_as(member_id(i), ConformanceConfig::pragmatic());
    s.add_contact(PUBLISHER);
    s.subscribe(p, interest);
}

fn configure_publisher(s: &mut Swarm<ReactorNet>) -> Result<(), String> {
    s.set_message_budget(LONG_RUN_BUDGET);
    s.add_peer_as(PUBLISHER, ConformanceConfig::pragmatic());
    for t in 0..TOPICS {
        s.publish(PUBLISHER, topic_event_assembly(t))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn finish_op(
    out: &mut OpOut,
    starts: &[Instant],
    end: Instant,
    drive_start: Instant,
    route_ns: u64,
    traced: bool,
) {
    out.events = starts.len() as u64;
    out.latencies_us = starts.iter().map(|&s| nanos(s, end) as f64 / 1e3).collect();
    out.op_ns = starts.first().map_or(0, |&s| nanos(s, end));
    out.drive_ns = nanos(drive_start, end);
    if traced {
        out.route_ns = route_ns;
        out.route_calls = starts.len() as u64;
    }
}

/// `fanout`: the population on one `ReactorHost`.
pub struct Fanout {
    host: ReactorHost,
    pop: Population,
    pub_slot: usize,
    member_slots: Vec<usize>,
}

impl Fanout {
    pub fn setup(seed: u64) -> Result<Fanout, String> {
        let mut host = ReactorHost::new();
        let code = CodeRegistry::new();
        let pop = Population::new(seed);
        let c = code.clone();
        let pub_slot = host.mount(move |net| Swarm::with_code_registry(net, c));
        host.with_swarm(pub_slot, configure_publisher)?;
        let mut member_slots = Vec::with_capacity(MEMBERS);
        for i in 0..MEMBERS {
            let c = code.clone();
            let slot = host.mount(move |net| Swarm::with_code_registry(net, c));
            let interest = pop.interests[i % TOPICS].clone();
            host.with_swarm(slot, |s| configure_member(s, i, interest));
            member_slots.push(slot);
        }
        host.run_until_quiescent().map_err(|e| e.to_string())?;
        let mut f = Fanout {
            host,
            pop,
            pub_slot,
            member_slots,
        };
        f.warm()?;
        Ok(f)
    }

    /// One event per topic settles every member's description and code
    /// fetch, so measured bursts run the steady-state path.
    fn warm(&mut self) -> Result<(), String> {
        let plan: Vec<(usize, f64)> = (0..TOPICS).map(|t| (t, -(t as f64) - 0.5)).collect();
        let defs = Arc::clone(&self.pop.defs);
        let (_, handles, _) = self
            .host
            .with_swarm(self.pub_slot, |s| publish_burst(s, &defs, &plan, false))?;
        self.host.run_until_quiescent().map_err(|e| e.to_string())?;
        let mut out = OpOut::default();
        let drained = self.drain(&handles);
        self.pop.check(&plan, &drained, &mut out);
        if out.failures > 0 {
            return Err(format!("warm-up failed: {:?}", out.notes));
        }
        Ok(())
    }

    fn drain(&mut self, handles: &[ObjHandle]) -> Vec<Drained> {
        let mut drained = self.host.with_swarm(self.pub_slot, |s| {
            free_objects(s, PUBLISHER, handles);
            drain_swarm(s)
        });
        for &slot in &self.member_slots {
            drained.extend(self.host.with_swarm(slot, drain_swarm));
        }
        drained
    }
}

impl Workload for Fanout {
    fn op(&mut self, tr: &mut Tracer) -> Result<OpOut, String> {
        let plan = self.pop.plan();
        let defs = Arc::clone(&self.pop.defs);
        let traced = tr.on;
        let (starts, handles, route_ns) = self
            .host
            .with_swarm(self.pub_slot, |s| publish_burst(s, &defs, &plan, traced))?;
        let drive_start = Instant::now();
        self.host.run_until_quiescent().map_err(|e| e.to_string())?;
        let end = Instant::now();
        tr.span("publish", starts[0], drive_start);
        tr.span("host.drive", drive_start, end);
        let mut out = OpOut::default();
        finish_op(&mut out, &starts, end, drive_start, route_ns, traced);
        let drained = self.drain(&handles);
        self.pop.check(&plan, &drained, &mut out);
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
        for slot in std::iter::once(self.pub_slot).chain(self.member_slots.iter().copied()) {
            self.host.with_swarm(slot, |s| c.add_swarm(s));
        }
        c
    }

    fn finish(&mut self, _tr: &mut Tracer) -> Result<OpOut, String> {
        let mut out = OpOut::default();
        let drained = self.drain(&[]);
        self.pop.check(&[], &drained, &mut out);
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
        self.pop.layer_inputs(routes)
    }

    fn probe_ops(&self) -> usize {
        2
    }
}

/// The publisher's routing-table entries, owned.
pub fn route_entries(s: &Swarm<ReactorNet>) -> Vec<(PeerId, Guid, Signature)> {
    s.routes()
        .entries()
        .map(|(p, g, sig)| (p, g, sig.clone()))
        .collect()
}

/// `sharded-fanout`: the population on a `ShardedHost` with autonomous
/// workers. Closures cross to the worker threads, so everything they
/// capture is owned.
pub struct ShardedFanout {
    host: ShardedHost,
    pop: Population,
    pub_slot: usize,
    mount_us: Vec<f64>,
}

impl ShardedFanout {
    pub fn setup(seed: u64, shards: usize) -> Result<ShardedFanout, String> {
        let mut host = ShardedHost::new(shards);
        host.set_autonomous(true);
        let code = CodeRegistry::new();
        let pop = Population::new(seed);
        let c = code.clone();
        let pub_slot = host.mount_pinned(0, move |net| Swarm::with_code_registry(net, c));
        host.with_swarm(pub_slot, configure_publisher)?;
        // Mount cost: one member mounted and wired (mount + its first
        // `with_swarm`), which is where the directory sync runs.
        let mut mount_us = Vec::with_capacity(MEMBERS);
        for i in 0..MEMBERS {
            let t = Instant::now();
            let c = code.clone();
            let slot = host.mount(member_id(i), move |net| Swarm::with_code_registry(net, c));
            let interest = pop.interests[i % TOPICS].clone();
            host.with_swarm(slot, move |s| configure_member(s, i, interest));
            mount_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        host.run_until_quiescent().map_err(|e| e.to_string())?;
        let mut f = ShardedFanout {
            host,
            pop,
            pub_slot,
            mount_us,
        };
        let plan: Vec<(usize, f64)> = (0..TOPICS).map(|t| (t, -(t as f64) - 0.5)).collect();
        let (_, handles, _) = f.publish(plan.clone(), false)?;
        f.host.run_until_quiescent().map_err(|e| e.to_string())?;
        let mut out = OpOut::default();
        let drained = f.drain(handles);
        f.pop.check(&plan, &drained, &mut out);
        if out.failures > 0 {
            return Err(format!("warm-up failed: {:?}", out.notes));
        }
        Ok(f)
    }

    fn publish(
        &mut self,
        plan: Vec<(usize, f64)>,
        traced: bool,
    ) -> Result<(Vec<Instant>, Vec<ObjHandle>, u64), String> {
        let defs = Arc::clone(&self.pop.defs);
        self.host.with_swarm(self.pub_slot, move |s| {
            publish_burst(s, &defs, &plan, traced)
        })
    }

    /// Drains every swarm on every shard with one command per shard (no
    /// directory sync), freeing the publisher's routed objects.
    fn drain(&mut self, handles: Vec<ObjHandle>) -> Vec<Drained> {
        let mut drained = Vec::new();
        for shard in 0..self.host.shards() {
            let handles = handles.clone();
            drained.extend(self.host.exec(shard, move |h| {
                let mut out = Vec::new();
                for local in 0..h.len() {
                    out.extend(h.with_swarm(local, |s| {
                        if s.has_peer(PUBLISHER) {
                            free_objects(s, PUBLISHER, &handles);
                        }
                        drain_swarm(s)
                    }));
                }
                out
            }));
        }
        drained
    }
}

impl Workload for ShardedFanout {
    fn op(&mut self, tr: &mut Tracer) -> Result<OpOut, String> {
        let plan = self.pop.plan();
        let traced = tr.on;
        let (starts, handles, route_ns) = self.publish(plan.clone(), traced)?;
        let drive_start = Instant::now();
        self.host.run_until_quiescent().map_err(|e| e.to_string())?;
        let end = Instant::now();
        tr.span("publish", starts[0], drive_start);
        tr.span("sharded.drive", drive_start, end);
        let mut out = OpOut::default();
        finish_op(&mut out, &starts, end, drive_start, route_ns, traced);
        let drained = self.drain(handles);
        self.pop.check(&plan, &drained, &mut out);
        Ok(out)
    }

    fn counts(&mut self) -> Counts {
        let mut c = Counts::default();
        for shard in 0..self.host.shards() {
            let part = self.host.exec(shard, |h| {
                let mut c = Counts::default();
                c.add_reactor(h.reactor().stats());
                for local in 0..h.len() {
                    h.with_swarm(local, |s| c.add_swarm(s));
                }
                c
            });
            c.merge_part(&part);
        }
        c.add_net(&self.host.metrics());
        c.route_generation = self
            .host
            .exec(0, |h| h.with_swarm(0, |s| s.routes().generation()));
        c.busy_ns = self.host.busy_ns();
        c
    }

    fn finish(&mut self, _tr: &mut Tracer) -> Result<OpOut, String> {
        let mut out = OpOut::default();
        let drained = self.drain(Vec::new());
        self.pop.check(&[], &drained, &mut out);
        Ok(out)
    }

    fn set_pump_trace(&mut self, on: bool) {
        for shard in 0..self.host.shards() {
            self.host.exec(shard, move |h| h.set_pump_trace(on));
        }
    }

    fn take_pumps(&mut self) -> (u64, u64) {
        let mut total = (0, 0);
        for shard in 0..self.host.shards() {
            let (p, e) = self
                .host
                .exec(shard, |h| pump_summary(&h.take_pump_trace()));
            total.0 += p;
            total.1 += e;
        }
        total
    }

    fn layer_inputs(&mut self) -> LayerInputs {
        let routes = self.host.exec(0, |h| h.with_swarm(0, |s| route_entries(s)));
        self.pop.layer_inputs(routes)
    }

    fn mount_us(&self) -> &[f64] {
        &self.mount_us
    }

    fn probe_ops(&self) -> usize {
        2
    }
}
