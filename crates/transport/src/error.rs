//! Errors of the transport protocol.

use std::fmt;

use pti_metamodel::{MetamodelError, TypeName};
use pti_net::{NetError, PeerId};
use pti_serialize::SerializeError;

/// Errors raised by the optimistic transport protocol engine.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The fabric rejected an operation.
    Net(NetError),
    /// A payload failed to (de)serialize.
    Serialize(SerializeError),
    /// The local runtime rejected an operation.
    Metamodel(MetamodelError),
    /// Referenced peer does not exist in the swarm.
    UnknownPeer(PeerId),
    /// An object of this type cannot be sent because the type was never
    /// published (no assembly/download-path provenance).
    NoProvenance(TypeName),
    /// A download path does not resolve to any published artifact.
    UnknownPath(String),
    /// Only objects (not bare primitives containing objects) may carry
    /// assembly provenance; malformed protocol payloads land here too.
    Protocol(String),
    /// A reliable (at-least-once) link exhausted its retransmit budget:
    /// the peer never acknowledged within `max_retries` exponential
    /// backoff rounds and is presumed gone.
    Unreachable(PeerId),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Net(e) => write!(f, "net: {e}"),
            Self::Serialize(e) => write!(f, "serialize: {e}"),
            Self::Metamodel(e) => write!(f, "runtime: {e}"),
            Self::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            Self::NoProvenance(t) => {
                write!(
                    f,
                    "type `{t}` has no published assembly (publish it before sending)"
                )
            }
            Self::UnknownPath(p) => write!(f, "no artifact published at `{p}`"),
            Self::Protocol(m) => write!(f, "protocol violation: {m}"),
            Self::Unreachable(p) => {
                write!(f, "peer {p} unreachable (retransmit retries exhausted)")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<NetError> for TransportError {
    fn from(e: NetError) -> Self {
        Self::Net(e)
    }
}
impl From<SerializeError> for TransportError {
    fn from(e: SerializeError) -> Self {
        Self::Serialize(e)
    }
}
impl From<MetamodelError> for TransportError {
    fn from(e: MetamodelError) -> Self {
        Self::Metamodel(e)
    }
}

/// Result alias for transport operations.
pub type Result<T> = std::result::Result<T, TransportError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = TransportError::NoProvenance(TypeName::new("Person"));
        assert!(e.to_string().contains("publish it before sending"));
        let e2: TransportError = NetError::UnknownPeer(PeerId(3)).into();
        assert!(e2.to_string().contains("peer-3"));
    }
}
