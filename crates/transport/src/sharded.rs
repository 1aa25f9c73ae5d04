//! The sharded host: M reactor threads, hash-pinned swarms, bridged
//! cross-shard links.
//!
//! A [`ShardedHost`] runs one [`ReactorHost`] per **shard**, each on its
//! own worker thread. The reactor world is `Rc`-based and must never
//! cross threads, so the control thread never touches a shard's host
//! directly: every operation ships as a boxed `FnOnce(&mut ReactorHost)`
//! command over the shard's mpsc channel and runs **on** the owning
//! thread (the run-to-completion sharding idiom — one event loop per
//! core, explicit message passing between them).
//!
//! **Ownership rules.** A peer id lives on exactly one shard: the shard
//! its ring was registered on. [`mount`](ShardedHost::mount) pins a
//! swarm by hashing the caller-chosen primary peer id;
//! [`mount_pinned`](ShardedHost::mount_pinned) overrides the hash for
//! placement experiments. A shard's fabric keeps a **registration
//! journal** — every local endpoint added or removed, in program order —
//! which the fabric records only because the shard's host has an
//! injector (a standalone [`ReactorHost`] keeps none). Every member
//! access (`mount`, `unmount`, `with_swarm`, `with_mounted`) runs the
//! caller's closure and drains that journal in the same command, so it
//! costs one round trip to the worker; the control thread then applies
//! the deltas in journal order: a peer with a new owner becomes a
//! [`BridgeTx`] **proxy** on every other shard, a removed peer has its
//! proxies revoked. A send to a remote peer therefore resolves locally
//! (metrics recorded on the origin shard), crosses the owning shard's
//! bridge, and wakes its thread — no shard ever blocks on another.
//!
//! **Quiescence is a two-phase barrier.** One shard looking idle means
//! nothing: a message can be in flight on a bridge between two shards
//! that both report empty queues. [`run_until_quiescent`](ShardedHost::run_until_quiescent)
//! repeats rounds of per-shard drains and only stops when a full round
//! does zero work **and** every bridge reports `pending() == 0` — and,
//! while workers pump autonomously between commands, when no shard's
//! work counter moved since the previous round read it.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pti_net::bridge::{BridgeRx, BridgeStats, BridgeTx};
use pti_net::{BridgeLink, NetMetrics, PeerId, ReactorNet, ReactorStats, Registration, Transport};

use crate::error::Result;
use crate::reactor_host::{MountedSwarm, ReactorHost};
use crate::swarm::Swarm;

/// A command executed on a shard's worker thread, with exclusive access
/// to its `ReactorHost`.
type Cmd = Box<dyn FnOnce(&mut ReactorHost) + Send>;

struct ShardHandle {
    /// Command channel into the worker; dropping it shuts the worker
    /// down (after it drains what's queued).
    cmds: Option<Sender<Cmd>>,
    join: Option<JoinHandle<()>>,
    /// Send half of the shard's injector bridge — cloned into every
    /// other shard as the proxy route for this shard's peers.
    bridge: BridgeTx,
    /// Nanoseconds the worker spent executing commands and autonomous
    /// pumps — the per-shard busy time R5's critical-path metric uses.
    busy_ns: Arc<AtomicU64>,
}

/// M single-threaded reactor shards behind one control-side facade.
///
/// See the [module docs](self) for the ownership rules and the drain
/// barrier. Mounted swarms are addressed by a *global* slot index; the
/// host maps it to `(shard, local slot)` internally.
pub struct ShardedHost {
    shards: Vec<ShardHandle>,
    /// Which shard owns each registered peer id, kept current by the
    /// shards' registration journals. Only point lookups touch it (proxy
    /// broadcasts follow journal order, which is deterministic); it is
    /// ordered anyway so no walk over it can depend on hash order
    /// (`pti-lint`'s unordered-iter rule covers this file).
    directory: BTreeMap<PeerId, usize>,
    /// Global slot → (shard, local slot); tombstoned like the per-shard
    /// tables so indices survive unmounts.
    slots: Vec<Option<(usize, usize)>>,
    /// When set, idle workers pump their own injector backlog without
    /// waiting for the control thread (wake → drain → quiesce). Cleared
    /// for experiments that want strictly serialized rounds.
    autonomous: Arc<AtomicBool>,
}

impl std::fmt::Debug for ShardedHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHost")
            .field("shards", &self.shards.len())
            .field("swarms", &self.slots.iter().filter(|s| s.is_some()).count())
            .finish()
    }
}

/// The work a shard has performed, as a monotone counter: fabric sends +
/// ring pops + bridged messages drained. A drain round that moves this
/// by zero on every shard did nothing.
fn work_of(host: &ReactorHost) -> u64 {
    let stats = host.reactor().stats();
    stats.sends + stats.recvs + host.injected_total()
}

fn worker(
    cmds: Receiver<Cmd>,
    injector: BridgeRx,
    return_routes: Vec<BridgeTx>,
    autonomous: Arc<AtomicBool>,
    busy_ns: Arc<AtomicU64>,
) {
    let mut host = ReactorHost::new();
    injector.bind_current_thread();
    host.set_injector(injector, return_routes);
    loop {
        match cmds.try_recv() {
            Ok(cmd) => {
                // pti-allow(reactor-blocking): busy-ns accounting only — the timings feed ShardStats, never protocol decisions
                let start = Instant::now();
                cmd(&mut host);
                busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                continue;
            }
            Err(TryRecvError::Disconnected) => return,
            Err(TryRecvError::Empty) => {}
        }
        if autonomous.load(Ordering::Relaxed) {
            // pti-allow(reactor-blocking): busy-ns accounting only — the timings feed ShardStats, never protocol decisions
            let start = Instant::now();
            let before = work_of(&host);
            host.run_until_quiescent()
                // pti-allow(panic-policy): a failed autonomous pump means a poisoned shard; the panic resurfaces on the owner via exec
                .expect("autonomous shard pump failed");
            let worked = work_of(&host) != before;
            busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if worked {
                continue;
            }
        }
        // Nothing queued, nothing to pump: sleep until a command send or
        // a bridge crossing unparks us. Unpark tokens are sticky, so a
        // signal racing this park is not lost.
        std::thread::park();
    }
}

impl ShardedHost {
    /// Spins up `shards` worker threads (at least one), each owning a
    /// private reactor fabric plus the receive half of its bridge.
    pub fn new(shards: usize) -> ShardedHost {
        let autonomous = Arc::new(AtomicBool::new(true));
        let (bridges, injectors): (Vec<BridgeTx>, Vec<BridgeRx>) =
            (0..shards.max(1)).map(|_| BridgeLink::pair()).unzip();
        let shards = injectors
            .into_iter()
            .enumerate()
            .map(|(i, bridge_rx)| {
                let (cmd_tx, cmd_rx) = channel();
                let bridge_tx = bridges[i].clone();
                let routes = bridges.iter().map(|b| b.from_shard(i)).collect();
                let busy_ns = Arc::new(AtomicU64::new(0));
                let auto = Arc::clone(&autonomous);
                let busy = Arc::clone(&busy_ns);
                let join = std::thread::Builder::new()
                    .name(format!("pti-shard-{i}"))
                    .spawn(move || worker(cmd_rx, bridge_rx, routes, auto, busy))
                    // pti-allow(panic-policy): thread spawn fails only on resource exhaustion at host construction, before any traffic
                    .expect("spawn shard thread");
                ShardHandle {
                    cmds: Some(cmd_tx),
                    join: Some(join),
                    bridge: bridge_tx,
                    busy_ns,
                }
            })
            .collect();
        ShardedHost {
            shards,
            directory: BTreeMap::new(),
            slots: Vec::new(),
            autonomous,
        }
    }

    /// Number of shards (== worker threads).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Mounted swarm count (tombstoned slots excluded).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no swarm is mounted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Toggles autonomous pumping. On (the default), an idle worker
    /// drains bridged traffic the moment a crossing wakes it. Off, a
    /// shard only works inside explicit commands — what the determinism
    /// tests and the R5 barrier rounds use, because it makes cross-shard
    /// arrival interleaving a function of the (serialized) round order
    /// alone.
    pub fn set_autonomous(&self, on: bool) {
        self.autonomous.store(on, Ordering::Relaxed);
        for shard in &self.shards {
            if let Some(join) = shard.join.as_ref() {
                join.thread().unpark();
            }
        }
    }

    /// The shard a peer id hash-pins to: `FxHash`-free, allocation-free
    /// multiplicative hashing — stable across runs and platforms, which
    /// the determinism tests rely on.
    pub fn shard_for(&self, peer: PeerId) -> usize {
        let h = (u64::from(peer.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Runs `f` on `shard`'s worker thread with its `ReactorHost`, and
    /// waits for the result. A panic inside `f` resurfaces here.
    pub fn exec<R: Send + 'static>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut ReactorHost) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = channel();
        self.post(shard, move |host| {
            let result = catch_unwind(AssertUnwindSafe(|| f(host)));
            let _ = tx.send(result);
        });
        // pti-allow(panic-policy): the worker loop only exits when this host drops its sender, so a dead shard here is unrecoverable
        match rx.recv().expect("shard thread alive") {
            Ok(r) => r,
            Err(panic) => resume_unwind(panic),
        }
    }

    /// Fire-and-forget command: queued in FIFO order with everything
    /// else on the shard, no reply. Proxy broadcasts use this.
    fn post(&self, shard: usize, f: impl FnOnce(&mut ReactorHost) + Send + 'static) {
        let handle = &self.shards[shard];
        handle
            .cmds
            .as_ref()
            // pti-allow(panic-policy): cmds is only taken in shutdown(); posting after that is a stated API misuse
            .expect("host not shut down")
            .send(Box::new(f))
            // pti-allow(panic-policy): the worker loop only exits when this host drops its sender, so a dead shard here is unrecoverable
            .expect("shard thread alive");
        if let Some(join) = handle.join.as_ref() {
            join.thread().unpark();
        }
    }

    /// Runs `f` on `shard`'s worker like [`exec`](Self::exec), drains the
    /// shard fabric's registration journal in the same command, and
    /// applies it to the directory — one round trip per member access.
    fn exec_journaled<R: Send + 'static>(
        &mut self,
        shard: usize,
        f: impl FnOnce(&mut ReactorHost) -> R + Send + 'static,
    ) -> R {
        let (out, journal) = self.exec(shard, move |host| {
            let out = f(host);
            (out, host.reactor().take_registrations())
        });
        self.apply_registrations(shard, journal);
        out
    }

    /// Applies `shard`'s registration deltas in journal order: a peer
    /// with a new owner is proxied onto every other shard; a removal
    /// whose directory entry still names `shard` revokes the peer's
    /// proxies everywhere else.
    ///
    /// The proxies land after the command that registered the peer has
    /// returned, while the peer's first messages may already be crossing.
    /// Those carry their origin shard, and the receiving fabric installs
    /// the route back on arrival, so a reply never races this broadcast.
    /// A revocation drains the receiving shard's bridge before removing
    /// the proxy, so a message the peer sent before leaving cannot
    /// re-install a route to it afterwards.
    fn apply_registrations(&mut self, shard: usize, journal: Vec<(PeerId, Registration)>) {
        for (peer, change) in journal {
            let owner = self.directory.get(&peer).copied();
            match change {
                Registration::Added if owner != Some(shard) => {
                    self.directory.insert(peer, shard);
                    let bridge = &self.shards[shard].bridge;
                    for other in (0..self.shards.len()).filter(|&o| o != shard) {
                        let b = bridge.from_shard(other);
                        self.post(other, move |host| host.reactor().register_proxy(peer, b));
                    }
                }
                Registration::Removed if owner == Some(shard) => {
                    self.directory.remove(&peer);
                    for other in (0..self.shards.len()).filter(|&o| o != shard) {
                        self.post(other, move |host| host.revoke_proxy(peer));
                    }
                }
                _ => {}
            }
        }
    }

    /// Mounts a member on the shard `primary` hash-pins to. The builder
    /// runs on the worker thread; the member never leaves it. Returns
    /// the global slot index.
    pub fn mount<M: MountedSwarm + 'static>(
        &mut self,
        primary: PeerId,
        build: impl FnOnce(ReactorNet) -> M + Send + 'static,
    ) -> usize {
        self.mount_pinned(self.shard_for(primary), build)
    }

    /// Mounts a member on an explicitly chosen shard — the placement
    /// override for experiments that want to control cross-shard edges.
    pub fn mount_pinned<M: MountedSwarm + 'static>(
        &mut self,
        shard: usize,
        build: impl FnOnce(ReactorNet) -> M + Send + 'static,
    ) -> usize {
        let local = self.exec_journaled(shard, move |host| host.mount(build));
        self.slots.push(Some((shard, local)));
        self.slots.len() - 1
    }

    /// Unmounts the member at global `slot` (see
    /// [`ReactorHost::unmount`]); its peers' proxies are revoked on
    /// every other shard. Returns the undelivered messages dropped.
    pub fn unmount(&mut self, slot: usize) -> usize {
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        let (shard, local) = self.slots[slot].take().expect("slot is already unmounted");
        self.exec_journaled(shard, move |host| host.unmount(local))
    }

    /// The shard that owns global `slot`.
    ///
    /// # Panics
    /// If `slot` is out of range or unmounted.
    pub fn shard_of(&self, slot: usize) -> usize {
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        self.slots[slot].expect("slot is unmounted").0
    }

    /// The shard that owns `peer`, if it is mounted anywhere.
    pub fn owner_of(&self, peer: PeerId) -> Option<usize> {
        self.directory.get(&peer).copied()
    }

    /// Runs `f` with the swarm at global `slot`, on its owning shard's
    /// thread. Membership changes `f` makes (peers added or removed)
    /// propagate to every other shard's proxy table before this returns.
    pub fn with_swarm<R: Send + 'static>(
        &mut self,
        slot: usize,
        f: impl FnOnce(&mut Swarm<ReactorNet>) -> R + Send + 'static,
    ) -> R {
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        let (shard, local) = self.slots[slot].expect("slot is unmounted");
        self.exec_journaled(shard, move |host| host.with_swarm(local, f))
    }

    /// Runs `f` with the concretely-typed member at global `slot` on its
    /// owning shard's thread (see [`ReactorHost::with_mounted`]); peers
    /// it adds or removes reach the directory like
    /// [`with_swarm`](Self::with_swarm)'s.
    pub fn with_mounted<M: 'static, R: Send + 'static>(
        &mut self,
        slot: usize,
        f: impl FnOnce(&mut M) -> R + Send + 'static,
    ) -> R {
        // pti-allow(panic-policy): documented `# Panics` contract — slot handles are caller-owned
        let (shard, local) = self.slots[slot].expect("slot is unmounted");
        self.exec_journaled(shard, move |host| host.with_mounted::<M, R>(local, f))
    }

    /// Drains every shard and every bridge: rounds of serialized
    /// per-shard `run_until_quiescent` commands, stopping only when a
    /// full round performs zero work **and** all bridges report zero
    /// pending — the two-phase barrier (a message in flight between two
    /// idle-looking shards keeps the loop alive).
    ///
    /// Autonomous workers also work *between* the rounds' commands: a
    /// shard can drain its bridge (so it reports zero pending) and be
    /// mid-exchange while the round looks idle. With autonomy on, a
    /// round is therefore conclusive only if no shard's monotone work
    /// counter moved since the previous round last read it, so the
    /// barrier always takes at least two rounds.
    ///
    /// # Errors
    /// The first protocol error any shard's swarm raises.
    pub fn run_until_quiescent(&mut self) -> Result<()> {
        // Each shard's work counter as the previous round left it.
        let mut last_seen: Option<Vec<u64>> = None;
        loop {
            let mut work = 0u64;
            // Whether some shard worked outside this barrier's commands
            // since the previous round (unknown, so assumed, in the first).
            let mut moved_between = false;
            let mut seen = Vec::with_capacity(self.shards.len());
            for shard in 0..self.shards.len() {
                let (before, after) = self.exec(shard, |host| -> Result<(u64, u64)> {
                    let before = work_of(host);
                    host.run_until_quiescent()?;
                    Ok((before, work_of(host)))
                })?;
                work += after - before;
                moved_between |= last_seen.as_ref().is_none_or(|prev| prev[shard] != before);
                seen.push(after);
            }
            let in_flight: u64 = self.shards.iter().map(|s| s.bridge.pending()).sum();
            let unobserved = moved_between && self.autonomous.load(Ordering::Relaxed);
            if work == 0 && in_flight == 0 && !unobserved {
                return Ok(());
            }
            last_seen = Some(seen);
        }
    }

    /// Per-shard reactor scheduling stats, indexed by shard.
    pub fn shard_stats(&self) -> Vec<ReactorStats> {
        (0..self.shards.len())
            .map(|shard| self.exec(shard, |host| host.reactor().stats()))
            .collect()
    }

    /// Per-shard injector-bridge counters, indexed by owning shard.
    pub fn bridge_stats(&self) -> Vec<BridgeStats> {
        self.shards.iter().map(|s| s.bridge.stats()).collect()
    }

    /// Fabric-wide traffic metrics: every shard's [`NetMetrics`] merged,
    /// bridge crossings included.
    pub fn metrics(&self) -> NetMetrics {
        let mut total = NetMetrics::default();
        for shard in 0..self.shards.len() {
            let m = self.exec(shard, |host| Transport::metrics(&host.reactor()));
            total.merge(&m);
        }
        total
    }

    /// Resets every shard's traffic metrics (scheduling stats and bridge
    /// counters are monotone and stay).
    pub fn reset_metrics(&mut self) {
        for shard in 0..self.shards.len() {
            self.exec(shard, |host| host.reactor().reset_metrics());
        }
    }

    /// Per-shard busy nanoseconds: time the workers spent executing
    /// commands and autonomous pumps. Under serialized barrier rounds
    /// the per-shard maximum is the critical path of the round sequence.
    pub fn busy_ns(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.busy_ns.load(Ordering::Relaxed))
            .collect()
    }

    /// Zeroes the busy-time counters (e.g. after setup, before the
    /// measured phase of an experiment).
    pub fn reset_busy(&self) {
        for shard in &self.shards {
            shard.busy_ns.store(0, Ordering::Relaxed);
        }
    }
}

impl Drop for ShardedHost {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            shard.cmds = None;
        }
        for shard in &mut self.shards {
            if let Some(join) = shard.join.take() {
                join.thread().unpark();
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swarm::kinds;
    use pti_conformance::ConformanceConfig;

    #[test]
    fn hash_pinning_is_stable_and_in_range() {
        let host = ShardedHost::new(4);
        for id in 0..256 {
            let s = host.shard_for(PeerId(id));
            assert!(s < 4);
            assert_eq!(s, host.shard_for(PeerId(id)), "same id, same shard");
        }
        // The multiplicative hash actually spreads ids around.
        let hit: std::collections::HashSet<usize> =
            (0..256).map(|id| host.shard_for(PeerId(id))).collect();
        assert_eq!(hit.len(), 4, "all shards receive some ids");
    }

    #[test]
    fn exec_runs_on_the_owning_worker_thread() {
        let host = ShardedHost::new(2);
        let name0 = host.exec(0, |_| std::thread::current().name().map(String::from));
        let name1 = host.exec(1, |_| std::thread::current().name().map(String::from));
        assert_eq!(name0.as_deref(), Some("pti-shard-0"));
        assert_eq!(name1.as_deref(), Some("pti-shard-1"));
    }

    #[test]
    fn exec_resurfaces_worker_panics_on_the_control_thread() {
        let host = ShardedHost::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            host.exec(0, |_| panic!("boom from the shard"));
        }));
        let payload = caught.unwrap_err();
        let text = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(text, "boom from the shard");
        // The worker survives a panicking command.
        assert_eq!(host.exec(0, |host| host.len()), 0);
    }

    #[test]
    fn cross_shard_sends_resolve_through_proxies_and_arrive() {
        let mut host = ShardedHost::new(2);
        host.set_autonomous(false);
        let a = host.mount_pinned(0, Swarm::over);
        let b = host.mount_pinned(1, Swarm::over);
        let pa = host.with_swarm(a, |s| {
            s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
        });
        let pb = host.with_swarm(b, |s| {
            s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic())
        });
        assert_eq!(host.owner_of(pa), Some(0));
        assert_eq!(host.owner_of(pb), Some(1));

        // A raw fabric send from shard 0 to shard 1 crosses the bridge...
        host.with_swarm(a, move |s| {
            s.net_mut()
                .send(pa, pb, kinds::OBJECT, vec![9u8, 9, 9].into())
                .unwrap();
        });
        assert_eq!(host.bridge_stats()[1].crossings, 1);
        // ...and lands in the remote ring once shard 1 drains its
        // injector (poll_message reads the raw ring — the payload here
        // is not a real protocol envelope, so we bypass the pump).
        assert_eq!(host.exec(1, |h| h.drain_injector()), 1);
        assert_eq!(host.bridge_stats()[1].drained, 1);
        let got = host.with_swarm(b, move |s| s.poll_message().unwrap());
        assert_eq!(got.map(|(at, m)| (at, m.from)), Some((pb, pa)));
        let m = host.metrics();
        assert_eq!(m.bridge_crossings, 1, "merged metrics count the crossing");
        assert_eq!(m.bridge_bytes, 3);
        assert_eq!(m.kind(kinds::OBJECT).messages, 1, "no double count");
    }

    #[test]
    fn unmount_revokes_proxies_everywhere() {
        let mut host = ShardedHost::new(2);
        host.set_autonomous(false);
        let a = host.mount_pinned(0, Swarm::over);
        let b = host.mount_pinned(1, Swarm::over);
        let pa = host.with_swarm(a, |s| {
            s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
        });
        let pb = host.with_swarm(b, |s| {
            s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic())
        });
        assert_eq!(host.len(), 2);
        assert_eq!(host.unmount(b), 0);
        assert_eq!(host.len(), 1);
        assert_eq!(host.owner_of(pb), None);
        // The proxy on shard 0 is gone: the send now fails like any
        // vanished peer, so swarms prune the route.
        let err = host.with_swarm(a, move |s| {
            s.net_mut().send(pa, pb, kinds::OBJECT, vec![1u8].into())
        });
        assert!(err.is_err(), "no proxy, no local ring: unknown peer");
        // Remount reuses the fabric and re-announces the peer.
        let b2 = host.mount_pinned(1, Swarm::over);
        let pb2 = host.with_swarm(b2, |s| {
            s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic())
        });
        assert_eq!(host.owner_of(pb2), Some(1));
        host.with_swarm(a, move |s| {
            s.net_mut()
                .send(pa, pb2, kinds::OBJECT, vec![2u8].into())
                .unwrap();
        });
        assert_eq!(host.exec(1, |h| h.drain_injector()), 1);
        let got = host.with_swarm(b2, move |s| s.poll_message().unwrap());
        assert_eq!(got.map(|(_, m)| m.payload[0]), Some(2));
    }

    /// Two shards, autonomy off, one single-peer swarm on each: slot and
    /// peer of shard 0's member, then shard 1's.
    fn two_shard_pair() -> (ShardedHost, (usize, PeerId), (usize, PeerId)) {
        let mut host = ShardedHost::new(2);
        host.set_autonomous(false);
        let a = host.mount_pinned(0, Swarm::over);
        let b = host.mount_pinned(1, Swarm::over);
        let pa = host.with_swarm(a, |s| {
            s.add_peer_as(PeerId(1), ConformanceConfig::pragmatic())
        });
        let pb = host.with_swarm(b, |s| {
            s.add_peer_as(PeerId(2), ConformanceConfig::pragmatic())
        });
        (host, (a, pa), (b, pb))
    }

    fn is_proxy_on(host: &ShardedHost, shard: usize, peer: PeerId) -> bool {
        host.exec(shard, move |h| h.reactor().is_proxy(peer))
    }

    #[test]
    fn a_peer_added_by_a_later_access_is_proxied_before_it_returns() {
        let (mut host, (a, pa), (b, _)) = two_shard_pair();
        let pc = host.with_swarm(b, |s| {
            s.add_peer_as(PeerId(3), ConformanceConfig::pragmatic())
        });
        assert_eq!(host.owner_of(pc), Some(1));
        assert!(is_proxy_on(&host, 0, pc), "proxied on the other shard");
        assert!(!is_proxy_on(&host, 1, pc), "never a proxy at home");
        host.with_swarm(a, move |s| {
            s.net_mut()
                .send(pa, pc, kinds::OBJECT, vec![3u8].into())
                .unwrap();
        });
        assert_eq!(host.bridge_stats()[1].crossings, 1);
    }

    #[test]
    fn a_peer_removed_inside_with_swarm_is_revoked_everywhere() {
        let (mut host, (a, pa), (b, pb)) = two_shard_pair();
        assert!(is_proxy_on(&host, 0, pb));
        // The fabric registration goes first; `remove_peer` is how the
        // swarm then drops the peer's protocol state.
        let removed = host.with_swarm(b, move |s| {
            s.net_mut().unregister(pb);
            s.remove_peer(pb).is_some()
        });
        assert!(removed);
        assert_eq!(host.owner_of(pb), None);
        assert!(!is_proxy_on(&host, 0, pb));
        let err = host.with_swarm(a, move |s| {
            s.net_mut().send(pa, pb, kinds::OBJECT, vec![1u8].into())
        });
        assert!(err.is_err(), "no proxy, no local ring: unknown peer");
    }

    #[test]
    fn a_peer_added_and_removed_in_one_closure_leaves_no_trace() {
        let (mut host, (_, pa), (b, _)) = two_shard_pair();
        let brief = host.with_swarm(b, |s| {
            let p = s.add_peer_as(PeerId(5), ConformanceConfig::pragmatic());
            s.net_mut().unregister(p);
            s.remove_peer(p);
            p
        });
        assert_eq!(host.owner_of(brief), None);
        assert_eq!(host.owner_of(pa), Some(0), "other entries untouched");
        assert!(!is_proxy_on(&host, 0, brief));
        assert!(!is_proxy_on(&host, 1, brief));
    }

    #[test]
    fn a_peer_remounted_on_another_shard_becomes_a_proxy_at_home() {
        let (mut host, (a, pa), _) = two_shard_pair();
        let c = host.mount_pinned(0, Swarm::over);
        let pc = host.with_swarm(c, |s| {
            s.add_peer_as(PeerId(3), ConformanceConfig::pragmatic())
        });
        assert_eq!(host.owner_of(pc), Some(0));
        assert!(is_proxy_on(&host, 1, pc));
        host.unmount(c);
        assert_eq!(host.owner_of(pc), None);
        // Same id, other shard: shard 1 must have dropped its proxy
        // before the new ring registers, or the registration panics.
        let c2 = host.mount_pinned(1, Swarm::over);
        host.with_swarm(c2, move |s| {
            s.add_peer_as(pc, ConformanceConfig::pragmatic());
        });
        assert_eq!(host.owner_of(pc), Some(1));
        assert!(is_proxy_on(&host, 0, pc), "the old home now proxies it");
        assert!(!is_proxy_on(&host, 1, pc));
        host.with_swarm(a, move |s| {
            s.net_mut()
                .send(pa, pc, kinds::OBJECT, vec![7u8].into())
                .unwrap();
        });
        assert_eq!(host.exec(1, |h| h.drain_injector()), 1);
        let got = host.with_swarm(c2, move |s| s.poll_message().unwrap());
        assert_eq!(
            got.map(|(at, m)| (at, m.from, m.payload[0])),
            Some((pc, pa, 7))
        );
    }

    #[test]
    fn a_reply_to_a_peer_not_yet_announced_rides_the_return_route() {
        let (host, (_, pa), _) = two_shard_pair();
        // Peer 3 registers on shard 1 and sends at once, in a command
        // that does not drain the journal: its message crosses before
        // the directory has proxied it on shard 0.
        host.exec(1, move |h| {
            let mut hub = h.reactor();
            hub.register(PeerId(3));
            hub.send(PeerId(3), pa, kinds::OBJECT, vec![1u8].into())
                .unwrap();
        });
        assert!(!is_proxy_on(&host, 0, PeerId(3)));
        assert_eq!(host.exec(0, |h| h.drain_injector()), 1);
        assert!(
            is_proxy_on(&host, 0, PeerId(3)),
            "arrival installed the route back"
        );
        host.exec(0, move |h| {
            h.reactor()
                .session()
                .send(pa, PeerId(3), kinds::OBJECT, vec![2u8].into())
                .unwrap();
        });
        assert_eq!(host.exec(1, |h| h.drain_injector()), 1);
        let got = host.exec(1, |h| h.reactor().try_recv(PeerId(3)));
        assert_eq!(got.map(|m| (m.from, m.payload[0])), Some((pa, 2)));
    }

    #[test]
    fn a_revocation_outlasts_the_peers_last_crossing() {
        let (mut host, (_, pa), (b, pb)) = two_shard_pair();
        // `pb` sends, then leaves, in one command; its message is still
        // on shard 0's bridge when the revocation is posted.
        host.with_swarm(b, move |s| {
            s.net_mut()
                .send(pb, pa, kinds::OBJECT, vec![1u8].into())
                .unwrap();
            s.net_mut().unregister(pb);
            s.remove_peer(pb);
        });
        // Draining it only after the revocation would install a route
        // back to a peer that is gone; the revocation drained it first.
        assert_eq!(host.exec(0, |h| h.drain_injector()), 0);
        assert_eq!(host.bridge_stats()[0].drained, 1);
        assert!(
            !is_proxy_on(&host, 0, pb),
            "no stale route back to a departed peer"
        );
        // The id is free on shard 0: a stale proxy would make this panic.
        let c = host.mount_pinned(0, Swarm::over);
        host.with_swarm(c, move |s| {
            s.add_peer_as(pb, ConformanceConfig::pragmatic());
        });
        assert_eq!(host.owner_of(pb), Some(0));
    }

    #[test]
    fn autonomous_workers_drain_bridged_traffic_without_the_barrier() {
        let host = ShardedHost::new(2);
        // Bare fabric endpoints (no mounted swarm): shard 1 owns peer 2,
        // shard 0 routes to it through a hand-registered proxy.
        host.exec(1, |h| {
            let mut hub = h.reactor();
            hub.register(PeerId(2));
        });
        let bridge = host.shards[1].bridge.clone();
        host.exec(0, move |h| {
            let mut hub = h.reactor();
            hub.register(PeerId(1));
            hub.register_proxy(PeerId(2), bridge);
            hub.send(PeerId(1), PeerId(2), kinds::OBJECT, vec![5u8].into())
                .unwrap();
        });
        // No barrier ran: shard 1's worker is woken by the crossing
        // itself and drains the injector on its own. Poll until the
        // drain shows up (the worker runs concurrently).
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while host.bridge_stats()[1].drained != 1 {
            assert!(Instant::now() < deadline, "worker never drained");
            std::thread::yield_now();
        }
        let got = host.exec(1, |h| h.reactor().try_recv(PeerId(2)));
        assert_eq!(got.map(|m| (m.from, m.payload[0])), Some((PeerId(1), 5)));
    }
}
