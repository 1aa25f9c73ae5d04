//! `type-churn`: the fan-out population plus 16 subscribers whose type
//! names match by Levenshtein(1) (catch-all routes). Each round moves
//! one subscriber's interest to the next topic, publishes a new vendor's
//! version of one topic (fresh GUID, same name) and routes one event of
//! it. Every eighth vendor type is a decoy whose `value` is a string.
//! The operation is one round; every delivery is a first contact.

use std::collections::BTreeMap;
use std::time::Instant;

use pti_core::conformance::{ConformanceChecker, ConformanceConfig, NameMatcher};
use pti_core::metamodel::{primitives, Guid, TypeDef, TypeDescription, TypeRegistry, Value};
use pti_core::net::{PeerId, Transport};
use pti_core::samples::{topic_event_assembly, topic_event_def};
use pti_core::serialize::PayloadFormat;
use pti_core::transport::{CodeRegistry, ReactorHost, Signature, Swarm};

use crate::common::{
    drain_swarm, free_objects, nanos, pump_summary, Counts, Got, OpOut, Rng, Tracer, Workload,
    LONG_RUN_BUDGET,
};
use crate::fanout::{member_id, route_entries, MEMBERS, PUBLISHER, TOPICS};
use crate::layers::{assembly_for, LayerInputs};

pub const FUZZY: usize = 16;
pub const DECOY_EVERY: u64 = 8;

/// A vendor's version of topic `t`: the same name, a fresh GUID, and a
/// `value` field that is a string for decoys.
pub fn vendor_def(t: usize, salt: &str, decoy: bool) -> TypeDef {
    let ty = if decoy {
        primitives::STRING
    } else {
        primitives::FLOAT64
    };
    TypeDef::class(format!("Topic{t}Event"), salt)
        .field("value", ty)
        .ctor(vec![])
        .build()
}

fn fuzzy_config() -> ConformanceConfig {
    ConformanceConfig::pragmatic().with_type_names(NameMatcher::Levenshtein(1))
}

/// One member's current interest and how it routes and conforms.
struct Member {
    peer: PeerId,
    slot: usize,
    interest: TypeDescription,
    signature: Signature,
    fuzzy: bool,
    asm_requests: u64,
}

pub struct Churn {
    host: ReactorHost,
    pub_slot: usize,
    members: Vec<Member>,
    /// Current topic of each regular member.
    topic_of: Vec<usize>,
    interests: Vec<TypeDescription>,
    order: Vec<usize>,
    /// Topic the first fuzzy subscriber follows (unit-cost inputs).
    fuzzy_topic: usize,
    decoy_phase: u64,
    rng: Rng,
    seed: u64,
    round: u64,
    oracle_exact: ConformanceChecker,
    oracle_fuzzy: ConformanceChecker,
    provider: TypeRegistry,
}

impl Churn {
    pub fn setup(seed: u64) -> Result<Churn, String> {
        let mut rng = Rng::new(seed);
        let mut order: Vec<usize> = (0..TOPICS).collect();
        rng.shuffle(&mut order);
        let decoy_phase = rng.next_u64() % DECOY_EVERY;
        let mut fuzzy_topics: Vec<usize> = (0..TOPICS).collect();
        rng.shuffle(&mut fuzzy_topics);

        let mut host = ReactorHost::new();
        let code = CodeRegistry::new();
        let c = code.clone();
        let pub_slot = host.mount(move |net| Swarm::with_code_registry(net, c));
        host.with_swarm(pub_slot, |s| -> Result<(), String> {
            s.set_message_budget(LONG_RUN_BUDGET);
            s.add_peer_as(PUBLISHER, ConformanceConfig::pragmatic());
            for t in 0..TOPICS {
                s.publish(PUBLISHER, topic_event_assembly(t))
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let interests: Vec<TypeDescription> = (0..TOPICS)
            .map(|t| TypeDescription::from_def(&topic_event_def(t, "sub")))
            .collect();
        let mut members = Vec::with_capacity(MEMBERS + FUZZY);
        for i in 0..MEMBERS + FUZZY {
            let fuzzy = i >= MEMBERS;
            let (config, interest) = if fuzzy {
                let t = fuzzy_topics[i - MEMBERS];
                let def = TypeDef::class(format!("Topic{t}Events"), "fuzzy")
                    .field("value", primitives::FLOAT64)
                    .ctor(vec![])
                    .build();
                (fuzzy_config(), TypeDescription::from_def(&def))
            } else {
                (
                    ConformanceConfig::pragmatic(),
                    interests[i % TOPICS].clone(),
                )
            };
            let c = code.clone();
            let slot = host.mount(move |net| Swarm::with_code_registry(net, c));
            let peer = member_id(i);
            let sub = interest.clone();
            host.with_swarm(slot, |s| {
                s.set_message_budget(LONG_RUN_BUDGET);
                let p = s.add_peer_as(peer, config);
                s.add_contact(PUBLISHER);
                s.subscribe(p, sub);
            });
            let signature = if fuzzy {
                Signature::catch_all()
            } else {
                Signature::of_description(&interest)
            };
            members.push(Member {
                peer,
                slot,
                interest,
                signature,
                fuzzy,
                asm_requests: 0,
            });
        }
        host.run_until_quiescent().map_err(|e| e.to_string())?;
        Ok(Churn {
            host,
            pub_slot,
            members,
            topic_of: (0..MEMBERS).map(|i| i % TOPICS).collect(),
            interests,
            order,
            fuzzy_topic: fuzzy_topics[0],
            decoy_phase,
            rng,
            seed,
            round: 0,
            oracle_exact: ConformanceChecker::uncached(ConformanceConfig::pragmatic()),
            oracle_fuzzy: ConformanceChecker::uncached(fuzzy_config()),
            provider: TypeRegistry::with_builtins(),
        })
    }

    /// Expected outcome per member index: `Some(true)` accept,
    /// `Some(false)` reject, `None` nothing. A member whose interest
    /// conforms but whose route does not match expects an accept the
    /// router will never deliver: that is a router miss.
    fn expect(&self, event: &TypeDescription) -> BTreeMap<usize, bool> {
        let event_sig = Signature::of_description(event);
        let mut verdicts: BTreeMap<(bool, Guid), bool> = BTreeMap::new();
        let mut out = BTreeMap::new();
        for (i, m) in self.members.iter().enumerate() {
            let checker = if m.fuzzy {
                &self.oracle_fuzzy
            } else {
                &self.oracle_exact
            };
            let conforms = *verdicts
                .entry((m.fuzzy, m.interest.guid))
                .or_insert_with(|| {
                    checker.conforms(event, &m.interest, &self.provider, &self.provider)
                });
            let routed = event_sig.matches(&m.signature);
            if conforms || routed {
                out.insert(i, conforms);
            }
        }
        out
    }
}

impl Workload for Churn {
    fn op(&mut self, tr: &mut Tracer) -> Result<OpOut, String> {
        let r = self.round;
        self.round += 1;
        let start = Instant::now();

        // 1. One subscriber moves its interest to the next topic.
        let mover = self.rng.below(MEMBERS);
        let old = self.topic_of[mover];
        let new = (old + 1) % TOPICS;
        let old_guid = self.interests[old].guid;
        let new_interest = self.interests[new].clone();
        let peer = self.members[mover].peer;
        self.host.with_swarm(self.members[mover].slot, |s| {
            s.unsubscribe(peer, old_guid);
            s.subscribe(peer, new_interest.clone());
        });
        self.topic_of[mover] = new;
        self.members[mover].signature = Signature::of_description(&new_interest);
        self.members[mover].interest = new_interest;
        let d0 = Instant::now();
        self.host.run_until_quiescent().map_err(|e| e.to_string())?;
        let d1 = Instant::now();

        // 2. A new vendor's version of one topic, and 3. one event of it.
        let topic = self.order[(r % TOPICS as u64) as usize];
        let decoy = r % DECOY_EVERY == self.decoy_phase;
        let def = vendor_def(topic, &format!("vendor-{}-{r}", self.seed), decoy);
        let asm = assembly_for(&def, format!("topic-{topic}-vendor-{r}"));
        let value = r as f64 + self.rng.unit();
        let traced = tr.on;
        let (handle, route_ns) = self.host.with_swarm(self.pub_slot, |s| {
            s.publish(PUBLISHER, asm).map_err(|e| e.to_string())?;
            let rt = &mut s.peer_mut(PUBLISHER).runtime;
            let h = rt.instantiate_def(&def, &[]).map_err(|e| e.to_string())?;
            let v = if decoy {
                Value::Str(format!("{value}"))
            } else {
                Value::F64(value)
            };
            rt.set_field(h, "value", v).map_err(|e| e.to_string())?;
            let r0 = Instant::now();
            s.route_object(PUBLISHER, &Value::Obj(h), PayloadFormat::Binary)
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((h, nanos(r0, Instant::now())))
        })?;
        let d2 = Instant::now();
        self.host.run_until_quiescent().map_err(|e| e.to_string())?;
        let end = Instant::now();
        tr.span("host.drive", d0, d1);
        tr.span("publish", d1, d2);
        tr.span("host.drive", d2, end);

        let mut out = OpOut {
            events: 1,
            latencies_us: vec![nanos(start, end) as f64 / 1e3],
            op_ns: nanos(start, end),
            drive_ns: nanos(d0, d1) + nanos(d2, end),
            ..OpOut::default()
        };
        if traced {
            out.route_ns = route_ns;
            out.route_calls = 1;
        }

        // Oracle: accept/reject sets from the interest map, checked by an
        // uncached checker; then drain exactly those members.
        self.host
            .with_swarm(self.pub_slot, |s| free_objects(s, PUBLISHER, &[handle]));
        let expected = self.expect(&TypeDescription::from_def(&def));
        if decoy {
            let accepts = expected.values().filter(|a| **a).count();
            out.fail(accepts as u64, || {
                format!("round {r}: the oracle accepts a decoy")
            });
        }
        for (&i, &accept) in &expected {
            out.expected += 1;
            let m = &mut self.members[i];
            let drained = self.host.with_swarm(m.slot, drain_swarm);
            let mut got = Vec::new();
            for d in drained {
                for e in &d.errors {
                    out.fail(1, || e.clone());
                }
                got.extend(d.got);
                if decoy && d.asm_requests != m.asm_requests {
                    out.fail(1, || {
                        format!("round {r}: decoy caused a code fetch at {}", m.peer)
                    });
                }
                m.asm_requests = d.asm_requests;
            }
            let m = &self.members[i];
            let want = if accept {
                Got::Accepted {
                    from: PUBLISHER,
                    value: Some(value),
                    interest: Some(m.interest.guid),
                }
            } else {
                Got::Rejected { from: PUBLISHER }
            };
            if got.len() == 1 && got[0] == want {
                out.accepted += u64::from(accept);
            } else {
                out.fail(1, || {
                    format!(
                        "round {r}: member {} got {got:?}, expected {want:?}",
                        m.peer
                    )
                });
            }
        }
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
            .chain(self.members.iter().map(|m| m.slot))
            .collect();
        for slot in slots {
            self.host.with_swarm(slot, |s| c.add_swarm(s));
        }
        c
    }

    /// Sweeps every member: anything still undrained was delivered where
    /// the oracle expected nothing.
    fn finish(&mut self, _tr: &mut Tracer) -> Result<OpOut, String> {
        let mut out = OpOut::default();
        let slots: Vec<usize> = std::iter::once(self.pub_slot)
            .chain(self.members.iter().map(|m| m.slot))
            .collect();
        for slot in slots {
            for d in self.host.with_swarm(slot, drain_swarm) {
                out.fail((d.got.len() + d.errors.len()) as u64, || {
                    format!("stray deliveries at {}: {:?} {:?}", d.peer, d.got, d.errors)
                });
            }
        }
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
        let fuzzy = self.members[MEMBERS].interest.clone();
        LayerInputs {
            event_def: vendor_def(self.fuzzy_topic, "unit-cost", false),
            vendor: |i| vendor_def(0, &format!("unit-cost-{i}"), false),
            interest: fuzzy,
            config: fuzzy_config(),
            routes,
            frames_per_batch: 1,
        }
    }

    fn probe_ops(&self) -> usize {
        32
    }
}
