//! Cross-shard bridges: the only multi-thread surface of the reactor
//! world.
//!
//! A [`ReactorNet`](crate::ReactorNet) is `Rc`-based and must never
//! cross a thread. When several reactors run on separate threads (one
//! shard per core — the `ShardedHost` in `pti-transport`), traffic for a
//! peer owned by *another* shard rides a [`BridgeLink`]: an mpsc channel
//! pair in the `LiveBus` idiom, registered on the sending shard as a
//! **local peer proxy**. A `Transport::send` that resolves to a proxy
//! enqueues the message on the bridge and *wakes* the owning shard's
//! thread through a cross-thread wake handle (`std::thread::unpark`), so
//! a parked shard notices inbound traffic without polling.
//!
//! Senders are stamped with the shard they send from
//! ([`BridgeTx::from_shard`]), and every message crosses with that
//! origin. The owning shard uses it as a *return route*: a reply to a
//! peer whose proxy has not been announced yet still finds its way back
//! (see `ReactorNet::inject`).
//!
//! The bridge keeps its own atomic counters — crossings, payload bytes,
//! wake signals, drains — because cross-shard traffic is exactly what a
//! placement experiment wants to measure, and because the *drain barrier*
//! needs them: a sharded host is only quiescent when every shard is idle
//! **and** every bridge reports `pending() == 0` (messages can be in
//! flight between two shards that both look idle).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::Thread;

use crate::bus::BusMessage;
use crate::transport::NetError;

/// Counters shared by both endpoints of one bridge.
#[derive(Debug, Default)]
struct BridgeCounters {
    /// Messages enqueued by senders.
    crossings: AtomicU64,
    /// Payload bytes those messages carried.
    bytes: AtomicU64,
    /// Unpark signals actually delivered to a bound receiver thread.
    wake_signals: AtomicU64,
    /// Messages drained by the receiving shard.
    drained: AtomicU64,
}

/// A point-in-time copy of one bridge's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Messages enqueued by senders.
    pub crossings: u64,
    /// Payload bytes those messages carried.
    pub bytes: u64,
    /// Wake signals sent to the owning shard's thread.
    pub wake_signals: u64,
    /// Messages the owning shard has drained.
    pub drained: u64,
}

/// What crosses a bridge: the origin shard of a stamped sender, and the
/// message.
type Crossing = (Option<usize>, BusMessage);

/// Constructor namespace for bridge endpoint pairs.
#[derive(Debug)]
pub struct BridgeLink;

impl BridgeLink {
    /// Creates a connected sender/receiver endpoint pair. The receiver
    /// belongs to the shard that owns the bridged peers (its host drains
    /// it as an injector queue); clones of the sender are registered as
    /// peer proxies on every other shard.
    pub fn pair() -> (BridgeTx, BridgeRx) {
        let (tx, rx) = channel();
        let counters = Arc::new(BridgeCounters::default());
        let waker = Arc::new(Mutex::new(None));
        (
            BridgeTx {
                tx,
                counters: Arc::clone(&counters),
                waker: Arc::clone(&waker),
                origin: None,
            },
            BridgeRx {
                rx,
                counters,
                waker,
            },
        )
    }
}

/// The sending half of a bridge: cheap to clone, `Send`, and safe to
/// share — the receiving shard's single-threaded core is never touched,
/// only its channel and wake handle.
#[derive(Debug, Clone)]
pub struct BridgeTx {
    tx: Sender<Crossing>,
    counters: Arc<BridgeCounters>,
    waker: Arc<Mutex<Option<Thread>>>,
    /// The shard this sender is installed on, if stamped.
    origin: Option<usize>,
}

impl BridgeTx {
    /// A clone of this sender whose messages cross tagged as sent from
    /// shard `origin` — the form registered as a proxy on that shard.
    pub fn from_shard(&self, origin: usize) -> BridgeTx {
        BridgeTx {
            origin: Some(origin),
            ..self.clone()
        }
    }

    /// Enqueues one message for the owning shard and wakes its thread if
    /// one is bound. Returns whether a wake signal was sent.
    ///
    /// # Errors
    /// [`NetError::UnknownPeer`] when the receiving endpoint is gone
    /// (its shard shut down) — the same error a vanished local peer
    /// produces, so senders prune the route identically.
    pub fn send(&self, msg: BusMessage) -> Result<bool, NetError> {
        let to = msg.to;
        let bytes = msg.payload.len() as u64;
        self.tx
            .send((self.origin, msg))
            .map_err(|_| NetError::UnknownPeer(to))?;
        self.counters.crossings.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes.fetch_add(bytes, Ordering::Relaxed);
        let woke = {
            // pti-allow(panic-policy): waker lock is poisoned only if a holder panicked; propagating keeps the fabric fail-fast
            let waker = self.waker.lock().expect("bridge waker lock");
            if let Some(thread) = waker.as_ref() {
                thread.unpark();
                true
            } else {
                false
            }
        };
        if woke {
            self.counters.wake_signals.fetch_add(1, Ordering::Relaxed);
        }
        Ok(woke)
    }

    /// Messages enqueued but not yet drained by the owning shard. Zero
    /// is only trustworthy from a vantage point that synchronises with
    /// both sides (the sharded host's barrier does — it reads between
    /// serialized pump rounds).
    pub fn pending(&self) -> u64 {
        let crossed = self.counters.crossings.load(Ordering::Acquire);
        let drained = self.counters.drained.load(Ordering::Acquire);
        crossed.saturating_sub(drained)
    }

    /// A snapshot of the bridge's counters.
    pub fn stats(&self) -> BridgeStats {
        BridgeStats {
            crossings: self.counters.crossings.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            wake_signals: self.counters.wake_signals.load(Ordering::Relaxed),
            drained: self.counters.drained.load(Ordering::Relaxed),
        }
    }
}

/// The receiving half of a bridge: owned by the shard thread, drained
/// into its reactor's inbound rings as an injector queue.
#[derive(Debug)]
pub struct BridgeRx {
    rx: Receiver<Crossing>,
    counters: Arc<BridgeCounters>,
    waker: Arc<Mutex<Option<Thread>>>,
}

impl BridgeRx {
    /// Binds the calling thread as the bridge's wake target: senders
    /// `unpark` it on every enqueue. Call once from the shard thread's
    /// run loop before it first parks.
    pub fn bind_current_thread(&self) {
        // pti-allow(panic-policy): waker lock is poisoned only if a holder panicked; propagating keeps the fabric fail-fast
        *self.waker.lock().expect("bridge waker lock") = Some(std::thread::current());
    }

    /// Pops the next bridged message, if any, with the origin shard of
    /// the sender that enqueued it (`None` for an unstamped sender).
    /// Never blocks.
    pub fn try_drain(&self) -> Option<(Option<usize>, BusMessage)> {
        match self.rx.try_recv() {
            Ok(crossing) => {
                self.counters.drained.fetch_add(1, Ordering::Release);
                Some(crossing)
            }
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Messages enqueued but not yet drained.
    pub fn pending(&self) -> u64 {
        let crossed = self.counters.crossings.load(Ordering::Acquire);
        let drained = self.counters.drained.load(Ordering::Acquire);
        crossed.saturating_sub(drained)
    }

    /// A snapshot of the bridge's counters.
    pub fn stats(&self) -> BridgeStats {
        BridgeStats {
            crossings: self.counters.crossings.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            wake_signals: self.counters.wake_signals.load(Ordering::Relaxed),
            drained: self.counters.drained.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::PeerId;

    fn msg(n: u8) -> BusMessage {
        BusMessage {
            from: PeerId(1),
            to: PeerId(2),
            kind: "k",
            payload: vec![n; n as usize].into(),
        }
    }

    #[test]
    fn messages_cross_in_order_with_counted_bytes() {
        let (tx, rx) = BridgeLink::pair();
        assert!(!tx.send(msg(3)).unwrap(), "no thread bound, no wake");
        assert!(!tx.send(msg(5)).unwrap());
        assert_eq!(tx.pending(), 2);
        assert_eq!(rx.try_drain().unwrap().1.payload.len(), 3);
        assert_eq!(rx.try_drain().unwrap().1.payload.len(), 5);
        assert!(rx.try_drain().is_none());
        let stats = rx.stats();
        assert_eq!(stats.crossings, 2);
        assert_eq!(stats.bytes, 8);
        assert_eq!(stats.drained, 2);
        assert_eq!(stats.wake_signals, 0);
        assert_eq!(tx.pending(), 0);
    }

    #[test]
    fn stamped_senders_tag_their_crossings_with_the_origin_shard() {
        let (tx, rx) = BridgeLink::pair();
        tx.send(msg(1)).unwrap();
        tx.from_shard(3).send(msg(2)).unwrap();
        assert_eq!(
            rx.try_drain().map(|(o, m)| (o, m.payload.len())),
            Some((None, 1))
        );
        assert_eq!(
            rx.try_drain().map(|(o, m)| (o, m.payload.len())),
            Some((Some(3), 2))
        );
        assert_eq!(rx.stats().crossings, 2, "stamped clones share the counters");
    }

    #[test]
    fn a_dropped_receiver_reports_unknown_peer() {
        let (tx, rx) = BridgeLink::pair();
        drop(rx);
        assert_eq!(tx.send(msg(1)), Err(NetError::UnknownPeer(PeerId(2))));
    }

    #[test]
    fn sends_wake_the_bound_receiver_thread() {
        let (tx, rx) = BridgeLink::pair();
        let (ready_tx, ready_rx) = channel();
        let handle = std::thread::spawn(move || {
            rx.bind_current_thread();
            ready_tx.send(()).unwrap();
            // Park until the sender's wake arrives; unpark tokens are
            // sticky, so a send racing the park still gets through.
            loop {
                if let Some((_, m)) = rx.try_drain() {
                    return m.payload.len();
                }
                std::thread::park();
            }
        });
        ready_rx.recv().unwrap();
        assert!(tx.send(msg(7)).unwrap(), "bound thread receives a wake");
        assert_eq!(handle.join().unwrap(), 7);
        assert_eq!(tx.stats().wake_signals, 1);
    }
}
