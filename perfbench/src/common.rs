//! Pieces every workload shares: the seeded generator, counter
//! snapshots, the delivery drain the oracle reads, the per-operation
//! record and the in-memory span recorder.

use std::time::Instant;

use pti_core::metamodel::{Guid, ObjHandle, Value};
use pti_core::net::{NetMetrics, PeerId, ReactorNet, ReactorStats};
use pti_core::transport::{kinds, Delivery, Swarm};

/// SplitMix64: every seeded choice the benchmark makes comes from here.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// A snapshot of every monotone counter the stack exposes. Nothing is
/// ever reset: a phase's work is the difference of two snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    // Reactor scheduling (`ReactorStats`, summed over shards).
    pub sends: u64,
    pub recvs: u64,
    pub wakeups: u64,
    pub timer_fires: u64,
    pub idle_advances: u64,
    // Fabric traffic (`NetMetrics`).
    pub net_messages: u64,
    pub net_bytes: u64,
    pub batches: u64,
    pub batched_frames: u64,
    pub payload_encodes: u64,
    pub object_bytes: u64,
    pub object_frames: u64,
    pub faults_dropped: u64,
    pub bridge_crossings: u64,
    // The typed exchange (`ProtocolStats`, summed over peers).
    pub objects_received: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub desc_requests: u64,
    pub asm_requests: u64,
    pub conformance_checks: u64,
    // Delivery engine (`DeliveryStats`, summed over swarms).
    pub retransmits: u64,
    pub acks_sent: u64,
    pub dups_suppressed: u64,
    /// High-water mark, not a sum: the largest in-flight window seen.
    pub max_inflight: u64,
    /// Routing-table generation of the publisher (one step per mutation).
    pub route_generation: u64,
    // Host pumps, read off the pump trace while it is on.
    pub pumps: u64,
    pub empty_pumps: u64,
    /// Per-shard busy nanoseconds (sharded host only).
    pub busy_ns: Vec<u64>,
}

impl Counts {
    /// The work done between `before` and `self`.
    pub fn since(&self, before: &Counts) -> Counts {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counts {
            sends: d(self.sends, before.sends),
            recvs: d(self.recvs, before.recvs),
            wakeups: d(self.wakeups, before.wakeups),
            timer_fires: d(self.timer_fires, before.timer_fires),
            idle_advances: d(self.idle_advances, before.idle_advances),
            net_messages: d(self.net_messages, before.net_messages),
            net_bytes: d(self.net_bytes, before.net_bytes),
            batches: d(self.batches, before.batches),
            batched_frames: d(self.batched_frames, before.batched_frames),
            payload_encodes: d(self.payload_encodes, before.payload_encodes),
            object_bytes: d(self.object_bytes, before.object_bytes),
            object_frames: d(self.object_frames, before.object_frames),
            faults_dropped: d(self.faults_dropped, before.faults_dropped),
            bridge_crossings: d(self.bridge_crossings, before.bridge_crossings),
            objects_received: d(self.objects_received, before.objects_received),
            accepted: d(self.accepted, before.accepted),
            rejected: d(self.rejected, before.rejected),
            desc_requests: d(self.desc_requests, before.desc_requests),
            asm_requests: d(self.asm_requests, before.asm_requests),
            conformance_checks: d(self.conformance_checks, before.conformance_checks),
            retransmits: d(self.retransmits, before.retransmits),
            acks_sent: d(self.acks_sent, before.acks_sent),
            dups_suppressed: d(self.dups_suppressed, before.dups_suppressed),
            max_inflight: self.max_inflight,
            route_generation: d(self.route_generation, before.route_generation),
            pumps: d(self.pumps, before.pumps),
            empty_pumps: d(self.empty_pumps, before.empty_pumps),
            busy_ns: self
                .busy_ns
                .iter()
                .zip(before.busy_ns.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| d(*a, *b))
                .collect(),
        }
    }

    pub fn add_reactor(&mut self, s: ReactorStats) {
        self.sends += s.sends;
        self.recvs += s.recvs;
        self.wakeups += s.wakeups;
        self.timer_fires += s.timer_fires;
        self.idle_advances += s.idle_advances;
    }

    pub fn add_net(&mut self, m: &NetMetrics) {
        self.net_messages += m.messages;
        self.net_bytes += m.bytes;
        for link in m.per_link.values() {
            self.batches += link.batches;
            self.batched_frames += link.frames;
        }
        self.payload_encodes += m.payload_encodes;
        for kind in [kinds::OBJECT, kinds::OBJECT_R] {
            for map in [&m.per_kind, &m.per_batched_kind] {
                if let Some(k) = map.get(kind) {
                    self.object_bytes += k.bytes;
                    self.object_frames += k.messages;
                }
            }
        }
        self.faults_dropped += m.faults_dropped;
        self.bridge_crossings += m.bridge_crossings;
    }

    /// Adds one swarm's protocol and delivery-engine counters.
    pub fn add_swarm(&mut self, s: &Swarm<ReactorNet>) {
        for id in s.peer_ids() {
            let p = s.peer(id).stats;
            self.objects_received += p.objects_received;
            self.accepted += p.accepted;
            self.rejected += p.rejected;
            self.desc_requests += p.desc_requests;
            self.asm_requests += p.asm_requests;
            self.conformance_checks += p.conformance_checks;
        }
        let d = s.delivery_stats();
        self.retransmits += d.retransmits;
        self.acks_sent += d.acks_sent;
        self.dups_suppressed += d.duplicates_suppressed;
        self.max_inflight = self.max_inflight.max(d.max_inflight as u64);
    }

    /// Adds a shard's partial snapshot (its reactor and swarm counters).
    pub fn merge_part(&mut self, o: &Counts) {
        self.sends += o.sends;
        self.recvs += o.recvs;
        self.wakeups += o.wakeups;
        self.timer_fires += o.timer_fires;
        self.idle_advances += o.idle_advances;
        self.objects_received += o.objects_received;
        self.accepted += o.accepted;
        self.rejected += o.rejected;
        self.desc_requests += o.desc_requests;
        self.asm_requests += o.asm_requests;
        self.conformance_checks += o.conformance_checks;
        self.retransmits += o.retransmits;
        self.acks_sent += o.acks_sent;
        self.dups_suppressed += o.dups_suppressed;
        self.max_inflight = self.max_inflight.max(o.max_inflight);
    }

    /// The counts that must repeat exactly for a repeated seed. On the
    /// sharded host, scheduling counts (wakeups, pumps) depend on when
    /// autonomous workers wake and are left out; the traffic is exact.
    pub fn exact(&self, sharded: bool) -> Vec<(&'static str, u64)> {
        let mut v = vec![
            ("sends", self.sends),
            ("recvs", self.recvs),
            ("timer_fires", self.timer_fires),
            ("net_messages", self.net_messages),
            ("net_bytes", self.net_bytes),
            ("batches", self.batches),
            ("batched_frames", self.batched_frames),
            ("payload_encodes", self.payload_encodes),
            ("faults_dropped", self.faults_dropped),
            ("bridge_crossings", self.bridge_crossings),
            ("objects_received", self.objects_received),
            ("accepted", self.accepted),
            ("rejected", self.rejected),
            ("desc_requests", self.desc_requests),
            ("asm_requests", self.asm_requests),
            ("conformance_checks", self.conformance_checks),
            ("retransmits", self.retransmits),
            ("acks_sent", self.acks_sent),
            ("dups_suppressed", self.dups_suppressed),
            ("route_generation", self.route_generation),
        ];
        if !sharded {
            v.push(("wakeups", self.wakeups));
            v.push(("idle_advances", self.idle_advances));
            v.push(("pumps", self.pumps));
            v.push(("empty_pumps", self.empty_pumps));
        }
        v
    }
}

/// Pump-trace summary: `(pumps, pumps that handled nothing)`.
pub fn pump_summary(trace: &[(usize, usize)]) -> (u64, u64) {
    let empty = trace.iter().filter(|(_, handled)| *handled == 0).count();
    (trace.len() as u64, empty as u64)
}

/// One finished delivery, as the oracle sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum Got {
    /// Accepted: sender, the round-tripped `value` field (if it was a
    /// float) and the matched interest.
    Accepted {
        from: PeerId,
        value: Option<f64>,
        interest: Option<Guid>,
    },
    Rejected {
        from: PeerId,
    },
}

/// Everything one peer finished since the last drain.
#[derive(Debug, Clone)]
pub struct Drained {
    pub peer: PeerId,
    pub got: Vec<Got>,
    pub asm_requests: u64,
    pub errors: Vec<String>,
}

/// Takes every finished delivery and dispatch error from every peer of
/// `s`, reading each accepted object's `value` field and then freeing
/// the object, so the heaps do not grow with run length.
pub fn drain_swarm(s: &mut Swarm<ReactorNet>) -> Vec<Drained> {
    let mut errors: Vec<String> = s
        .take_dispatch_errors()
        .into_iter()
        .map(|(at, e)| format!("dispatch error at {at}: {e}"))
        .collect();
    let mut out = Vec::new();
    for id in s.peer_ids() {
        let peer = s.peer_mut(id);
        let mut got = Vec::new();
        for d in peer.take_deliveries() {
            match d {
                Delivery::Accepted {
                    from,
                    value,
                    interest_guid,
                    ..
                } => {
                    let read = match value {
                        Value::Obj(h) => {
                            let v = peer.runtime.get_field(h, "value").ok();
                            let _ = peer.runtime.heap.free(h);
                            match v {
                                Some(Value::F64(x)) => Some(x),
                                _ => None,
                            }
                        }
                        _ => None,
                    };
                    got.push(Got::Accepted {
                        from,
                        value: read,
                        interest: interest_guid,
                    });
                }
                Delivery::Rejected { from, .. } => got.push(Got::Rejected { from }),
            }
        }
        out.push(Drained {
            peer: id,
            got,
            asm_requests: peer.stats.asm_requests,
            errors: std::mem::take(&mut errors),
        });
    }
    out
}

/// Frees objects the publisher instantiated for already-routed events.
pub fn free_objects(s: &mut Swarm<ReactorNet>, publisher: PeerId, handles: &[ObjHandle]) {
    let rt = &mut s.peer_mut(publisher).runtime;
    for &h in handles {
        let _ = rt.heap.free(h);
    }
}

/// What one operation did and what the oracle found.
#[derive(Debug, Default)]
pub struct OpOut {
    /// Events published.
    pub events: u64,
    /// Latency of every event whose deliveries all became observable
    /// during this operation, in microseconds.
    pub latencies_us: Vec<f64>,
    /// Correct accepted deliveries.
    pub accepted: u64,
    /// Deliveries (accepts and rejects) the oracle expected.
    pub expected: u64,
    /// Oracle misses, wrong accepts or rejects, surfaced duplicates and
    /// dispatch errors.
    pub failures: u64,
    /// First failure messages, for the log.
    pub notes: Vec<String>,
    /// Wall time from the first publish call to the last drive return.
    pub op_ns: u64,
    /// Wall time inside the host's drive calls.
    pub drive_ns: u64,
    /// Wall time inside `Swarm::route_object` (traced blocks only).
    pub route_ns: u64,
    pub route_calls: u64,
}

impl OpOut {
    pub fn fail(&mut self, n: u64, note: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failures += n;
        if self.notes.len() < 4 {
            self.notes.push(note());
        }
    }
}

/// One recorded span: a layer call made by the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Spans are kept only while `on`, capped so a
/// long run cannot grow without bound, and written out at exit.
pub struct Tracer {
    pub on: bool,
    pub op: u64,
    origin: Instant,
    pub spans: Vec<Span>,
}

pub const MAX_SPANS: usize = 1 << 20;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            op: 0,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on && self.spans.len() < MAX_SPANS {
            let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                op: self.op,
                name,
                start_ns: at(start),
                end_ns: at(end),
            });
        }
    }
}

pub fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// A workload: a warmed host plus its oracle.
pub trait Workload {
    /// Runs one closed-loop operation and checks its deliveries.
    fn op(&mut self, tr: &mut Tracer) -> Result<OpOut, String>;
    /// Snapshot of every counter (sweeps every mounted swarm).
    fn counts(&mut self) -> Counts;
    /// Settles what is still in flight and sweeps every member for
    /// stray deliveries; anything found is a failure.
    fn finish(&mut self, tr: &mut Tracer) -> Result<OpOut, String>;
    /// Turns the host's pump trace on or off.
    fn set_pump_trace(&mut self, on: bool);
    /// `(pumps, empty pumps)` since the last call.
    fn take_pumps(&mut self) -> (u64, u64);
    /// Inputs for the per-layer unit costs, taken from this workload.
    fn layer_inputs(&mut self) -> crate::layers::LayerInputs;
    /// Per-member mount cost in microseconds, in mount order.
    fn mount_us(&self) -> &[f64] {
        &[]
    }
    /// Operations the count probe runs after each set-up.
    fn probe_ops(&self) -> usize;
}

/// Number of threads this process runs right now.
pub fn thread_count() -> Result<usize, String> {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .map_err(|e| format!("cannot count threads: {e}"))
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Message budget for every swarm. `Swarm`'s default (1,000,000 handled
/// messages) is a livelock guard sized for finite runs; a benchmark run
/// is a long-lived serving loop — the durable publisher alone handles 64
/// ACKs per event — so the guard is lifted.
pub const LONG_RUN_BUDGET: usize = usize::MAX;
