//! Per-layer unit costs: each layer's public function timed on the
//! inputs of the workload being measured (its event types, interests,
//! envelopes and routing table). Calls shorter than the clock's
//! resolution are timed in batches; every figure is a median per call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use pti_core::conformance::{ConformanceChecker, ConformanceConfig};
use pti_core::metamodel::{
    bodies, Assembly, Guid, Runtime, TypeDef, TypeDescription, TypeRegistry, Value,
};
use pti_core::net::{FrameBatch, PeerId};
use pti_core::serialize::{
    description_from_string, description_to_string, EnvelopeWireFormat, ObjectEnvelope,
    Payload as EnvPayload, PayloadFormat,
};
use pti_core::transport::{kinds, Peer, RoutingTable, Signature};

use crate::common::median;

/// What the unit costs are measured on.
pub struct LayerInputs {
    /// The event type the workload publishes most.
    pub event_def: TypeDef,
    /// Builds a fresh vendor version of the event type (a new GUID per
    /// index), as installed on first contact.
    pub vendor: fn(usize) -> TypeDef,
    /// A receiving interest and the checker configuration it uses.
    pub interest: TypeDescription,
    pub config: ConformanceConfig,
    /// The publisher's routing table entries and the event name.
    pub routes: Vec<(PeerId, Guid, Signature)>,
    /// Frames per wire batch on this workload's subscriber links.
    pub frames_per_batch: usize,
}

const BATCH: usize = 32;
const SAMPLES: usize = 64;

/// Median nanoseconds per call of `f`, timed in batches of `BATCH`.
fn per_call(mut f: impl FnMut()) -> f64 {
    for _ in 0..BATCH {
        f();
    }
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&samples)
}

/// An installable assembly for a topic-style event definition.
pub fn assembly_for(def: &TypeDef, name: String) -> Assembly {
    Assembly::builder(name)
        .ty(def.clone())
        .ctor_body(def.guid, 0, bodies::ctor_assign(&[]))
        .build()
}

pub fn unit_costs(inp: &LayerInputs) -> Result<BTreeMap<&'static str, f64>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut out = BTreeMap::new();
    let asm = assembly_for(&inp.event_def, "unit-cost".into());

    // An envelope exactly as the publisher builds it.
    let mut publisher = Peer::new(PeerId(1), ConformanceConfig::pragmatic());
    publisher.publish(asm.clone()).map_err(|e| err(&e))?;
    let h = publisher
        .runtime
        .instantiate_def(&inp.event_def, &[])
        .map_err(|e| err(&e))?;
    publisher
        .runtime
        .set_field(h, "value", Value::F64(1.5))
        .map_err(|e| err(&e))?;
    let envelope = publisher
        .make_envelope(&Value::Obj(h), PayloadFormat::Binary)
        .map_err(|e| err(&e))?;
    let wire = envelope.encode_wire(EnvelopeWireFormat::Ptib);
    out.insert(
        "envelope.encode_ns",
        per_call(|| {
            black_box(black_box(&envelope).encode_wire(EnvelopeWireFormat::Ptib));
        }),
    );
    out.insert(
        "envelope.decode_ns",
        per_call(|| {
            black_box(ObjectEnvelope::decode_wire(black_box(&wire)).ok());
        }),
    );

    // The batch codec on a batch of this workload's size.
    let mut batch = FrameBatch::new();
    for _ in 0..inp.frames_per_batch.max(1) {
        batch.push(kinds::OBJECT, wire.clone());
    }
    let encoded = batch.encode();
    out.insert(
        "frame.encode_ns",
        per_call(|| {
            black_box(black_box(&batch).encode());
        }),
    );
    out.insert(
        "frame.decode_ns",
        per_call(|| {
            black_box(FrameBatch::decode_interned(black_box(&encoded), kinds::intern).ok());
        }),
    );

    // Receiver side: deserialize and instantiate into a runtime that has
    // the type installed; objects are freed outside the timed batches.
    let mut rt = Runtime::new();
    asm.install(&mut rt).map_err(|e| err(&e))?;
    let EnvPayload::Binary(bytes) = &envelope.payload else {
        return Err("workload envelope is not binary".into());
    };
    let mut made = Vec::new();
    out.insert(
        "binary.decode_ns",
        per_call(|| {
            if let Ok(Value::Obj(h)) = pti_core::serialize::from_binary(&mut rt, bytes) {
                made.push(h);
            }
        }),
    );
    out.insert(
        "metamodel.instantiate_ns",
        per_call(|| {
            if let Ok(h) = rt.instantiate_def(&inp.event_def, &[]) {
                made.push(h);
            }
        }),
    );
    for h in made {
        let _ = rt.heap.free(h);
    }

    // First contact: a description document parsed, an assembly installed.
    let doc = description_to_string(&TypeDescription::from_def(&inp.event_def));
    out.insert(
        "typedesc.decode_ns",
        per_call(|| {
            black_box(description_from_string(black_box(&doc)).ok());
        }),
    );
    let fresh: Vec<Assembly> = (0..BATCH * SAMPLES)
        .map(|i| assembly_for(&(inp.vendor)(i), format!("unit-cost-{i}")))
        .collect();
    let mut installer = Runtime::new();
    let mut install_ns = Vec::with_capacity(fresh.len());
    for a in &fresh {
        let t = Instant::now();
        let ok = a.install(&mut installer).is_ok();
        install_ns.push(t.elapsed().as_nanos() as f64);
        if !ok {
            return Err("vendor assembly failed to install".into());
        }
    }
    out.insert("metamodel.install_ns", median(&install_ns));

    // Conformance: a fresh pair from scratch, then the cached verdict.
    let provider = TypeRegistry::with_builtins();
    let event_desc = TypeDescription::from_def(&inp.event_def);
    let cold = ConformanceChecker::uncached(inp.config.clone());
    out.insert(
        "conformance.check_cold_ns",
        per_call(|| {
            black_box(cold.conforms(&event_desc, &inp.interest, &provider, &provider));
        }),
    );
    let warm = ConformanceChecker::new(inp.config.clone());
    out.insert(
        "conformance.check_warm_ns",
        per_call(|| {
            black_box(warm.conforms(&event_desc, &inp.interest, &provider, &provider));
        }),
    );

    // Routing: the memoized lookup, and the lookup right after a table
    // mutation invalidated the memo (the mutation itself is not timed).
    let mut table = RoutingTable::new();
    for (peer, guid, sig) in &inp.routes {
        table.insert(*peer, *guid, sig.clone());
    }
    let name = inp.event_def.name.simple().to_string();
    out.insert(
        "routing.resolve_warm_ns",
        per_call(|| {
            black_box(table.resolve_name(black_box(&name)));
        }),
    );
    let dummy = (PeerId(u32::MAX), Guid::derive("Unrouted", "perfbench"));
    let mut cold_ns = Vec::with_capacity(SAMPLES * 4);
    for _ in 0..SAMPLES * 4 {
        table.insert(dummy.0, dummy.1, Signature::of_name("Unrouted"));
        table.remove(dummy.0, dummy.1);
        let t = Instant::now();
        black_box(table.resolve_name(black_box(&name)));
        cold_ns.push(t.elapsed().as_nanos() as f64);
    }
    out.insert("routing.resolve_cold_ns", median(&cold_ns));
    Ok(out)
}
