//! A message-by-message trace of Figure 1's optimistic protocol.
//!
//! Sends three objects — a novel conformant type, a repeat of it, and a
//! non-conformant type — and prints every message the protocol put on the
//! wire, annotated with the step of Figure 1 it corresponds to.
//!
//! Run with: `cargo run --example figure1_trace`

use pti_core::prelude::*;
use pti_core::samples;

fn step_of(kind: &str) -> &'static str {
    match kind {
        "object" => "1. Receiving an object",
        "desc-request" => "2. Asking for the new object type information",
        "desc-response" => "3. Receiving type information, rules check",
        "asm-request" => "4. Types conform, asking for the code",
        "asm-response" => "5. Receiving the code, object usable",
        _ => "",
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut swarm = Swarm::new(NetConfig::default());
    let alice = swarm.add_peer(ConformanceConfig::pragmatic());
    let bob = swarm.add_peer(ConformanceConfig::pragmatic());

    let a = samples::person_vendor_a();
    swarm.publish(alice, samples::person_assembly(&a))?;
    let spaceship = TypeDef::class("Spaceship", "alice")
        .field("fuel", primitives::INT64)
        .ctor(vec![])
        .build();
    let sg = spaceship.guid;
    swarm.publish(
        alice,
        Assembly::builder("ship")
            .ty(spaceship)
            .ctor_body(sg, 0, bodies::ctor_assign(&[]))
            .build(),
    )?;
    let b = samples::person_vendor_b();
    swarm.peer_mut(bob).subscribe(TypeDescription::from_def(&b));

    let scenarios: Vec<(&str, Value)> = vec![
        ("novel conformant type (full handshake)", {
            samples::make_person(&mut swarm.peer_mut(alice).runtime, "first")
        }),
        ("same type again (no fetches)", {
            samples::make_person(&mut swarm.peer_mut(alice).runtime, "second")
        }),
        ("non-conformant type (no code download)", {
            let rt = &mut swarm.peer_mut(alice).runtime;
            Value::Obj(rt.instantiate(&"Spaceship".into(), &[])?)
        }),
    ];

    for (label, v) in scenarios {
        println!("\n=== {label} ===");
        swarm.send_object(alice, bob, &v, PayloadFormat::Binary)?;
        // Drive the protocol one message at a time so we can narrate.
        while let Some((at, msg)) = swarm.poll_message()? {
            println!(
                "  {} -> {}  {:<14} {:>6} B   {}",
                msg.from,
                at,
                msg.kind,
                msg.payload.len(),
                step_of(msg.kind),
            );
            swarm.dispatch(at, msg)?;
        }
        for d in swarm.peer_mut(bob).take_deliveries() {
            match d {
                Delivery::Accepted { interest, .. } => {
                    println!(
                        "  => accepted (interest: {:?})",
                        interest.map(|i| i.full().to_string())
                    )
                }
                Delivery::Rejected { type_name, .. } => {
                    println!("  => rejected `{type_name}` — assembly never requested")
                }
            }
        }
    }

    let m = swarm.metrics();
    println!(
        "\ntotals: {} messages, {} bytes; code fetched {} time(s) for 3 objects",
        m.messages,
        m.bytes,
        m.kind("asm-request").messages
    );
    assert_eq!(m.kind("asm-request").messages, 1);
    Ok(())
}
