//! # pti-net — simulated peers and network
//!
//! The paper evaluates its protocol on a physical 2002 testbed; this
//! crate replaces that hardware with two fabrics:
//!
//! * [`ReactorNet`] — the single-threaded, deterministic
//!   **virtual-time** fabric: inbound rings, a readiness wakeup queue
//!   and a timer wheel that let one thread drive thousands of swarms
//!   (see the [`reactor`] module docs). Built with
//!   [`ReactorNet::with_link`] it also prices every message with
//!   explicit latency and bandwidth, which is what the protocol
//!   experiments (optimistic vs eager, Figure 1) run on, so their
//!   results are reproducible and expressed in bytes + virtual
//!   microseconds. Reactors on separate threads link up through
//!   [`BridgeLink`] channel pairs (see the [`bridge`] module docs).
//! * [`LiveBus`] — a std-channel bus for **actually concurrent** peers
//!   on the wall clock, used by stress tests and examples that want
//!   real threads.
//!
//! Both implement the [`Transport`] trait — the seam the protocol
//! engine (`pti-transport`'s `Swarm<T: Transport>`) is generic over, so
//! the same optimistic protocol drives either fabric — and share the
//! [`NetMetrics`] accounting shape.
//!
//! ## Lint conventions
//!
//! This crate is deny-tier for the `pti-lint` fabric rules (see
//! `crates/analyze` and the "Static analysis" section of
//! ARCHITECTURE.md): no wall-clock reads outside `bus`/`bridge`, no
//! thread primitives outside `bus`/`bridge`, and every
//! `unwrap`/`expect`/`panic!` must state its invariant in a
//! `pti-allow(panic-policy): reason` comment on or directly above the
//! line. The reason is the documentation — write the invariant that
//! makes the panic unreachable, not a restatement of the code.
//!
//! ## Example
//!
//! ```
//! use pti_net::{NetConfig, PeerId, ReactorNet, Transport};
//!
//! let mut net = ReactorNet::with_link(NetConfig::default());
//! net.register(PeerId(1));
//! net.register(PeerId(2));
//! net.send(PeerId(1), PeerId(2), "object", vec![0u8; 1024].into()).unwrap();
//! let msg = net.try_recv(PeerId(2)).unwrap();
//! assert_eq!(msg.kind, "object");
//! assert!(net.now_us() > 0, "virtual time advanced");
//! assert_eq!(net.metrics().bytes, 1024);
//! ```

#![warn(missing_docs)]

pub mod bridge;
mod bus;
mod fault;
mod frame;
mod metrics;
mod payload;
pub mod reactor;
mod transport;

pub use bridge::{BridgeLink, BridgeRx, BridgeStats, BridgeTx};
pub use bus::{BusMessage, Endpoint, LiveBus};
pub use fault::{FaultDecision, FaultPlan, Partition};
pub use frame::{kinds, Frame, FrameBatch, FrameDecodeError};
pub use metrics::{KindMetrics, LinkBatchMetrics, NetMetrics};
pub use payload::Payload;
pub use reactor::{NetConfig, ReactorNet, ReactorStats, Registration, SessionId};
pub use transport::{NetError, PeerId, Transport};
