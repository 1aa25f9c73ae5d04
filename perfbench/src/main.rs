//! perfbench — the repository benchmark: four closed-loop pub/sub
//! workloads over the public API of the PTI stack, each checked against
//! an oracle, with end-to-end metrics (untraced run) or per-layer
//! metrics (traced run).
//!
//! ```text
//! perfbench --workload <fanout|type-churn|durable-loss|sharded-fanout>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 0 only when every delivery matched the oracle, repeated
//! set-ups gave identical counts and the thread budget held. See
//! `perfbench/README.md` for the workloads and the metric table.

mod alloc;
mod churn;
mod common;
mod durable;
mod fanout;
mod layers;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use common::{median, percentile, ratio, Counts, OpOut, Tracer, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["fanout", "type-churn", "durable-loss", "sharded-fanout"];

/// In a traced run, untraced and traced blocks of this length alternate,
/// so the tracing overhead is measured under the same drift.
const BLOCK: Duration = Duration::from_millis(500);

/// Set-up repeats: at least `MIN_SETUPS`, more while they add up to
/// under `SETUP_BUDGET_S`, at most `MAX_SETUPS`. The first `PROBES` of
/// them each run the same seeded count probe.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 3.0;

/// Window timings are reported at their conservative quartile: the third
/// quartile of window latencies, the first quartile of window throughput. On a shared host whose speed switches between a
/// fast and a slow mode for seconds at a time, the quartile lands on the
/// dominant slow mode unless the fast one fills three quarters of the
/// run, where a median flips whenever either mode passes one half.
const SLOW_Q: f64 = 0.75;
const PROBES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn build(name: &str, seed: u64, shards: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fanout" => Box::new(fanout::Fanout::setup(seed)?),
        "type-churn" => Box::new(churn::Churn::setup(seed)?),
        "durable-loss" => Box::new(durable::Durable::setup(seed)?),
        _ => Box::new(fanout::ShardedFanout::setup(seed, shards)?),
    })
}

/// Totals over a set of operations.
#[derive(Default)]
struct Tally {
    ops: u64,
    events: u64,
    accepted: u64,
    expected: u64,
    failures: u64,
    op_ns: u64,
    drive_ns: u64,
    route_ns: u64,
    route_calls: u64,
    /// Event latencies in completion order.
    latencies_us: Vec<f64>,
    notes: Vec<String>,
    /// Closed windows, and the open one: (accepted, operation ns, index
    /// of its first latency).
    windows: Vec<Window>,
    open: (u64, u64, usize),
}

/// A stretch of at least `WINDOW_NS` of operation time holding at least
/// `WINDOW_SAMPLES` latencies, so its p99 has ten samples beyond it.
struct Window {
    rate: f64,
    p50: f64,
    p99: f64,
}

const WINDOW_NS: u64 = 500_000_000;
const WINDOW_SAMPLES: usize = 1000;

impl Tally {
    fn add(&mut self, o: OpOut, is_op: bool) {
        self.ops += u64::from(is_op);
        self.events += o.events;
        self.accepted += o.accepted;
        self.expected += o.expected;
        self.failures += o.failures;
        self.op_ns += o.op_ns;
        self.drive_ns += o.drive_ns;
        self.route_ns += o.route_ns;
        self.route_calls += o.route_calls;
        self.latencies_us.extend(o.latencies_us);
        if self.notes.len() < 8 {
            self.notes.extend(o.notes);
        }
        self.open.0 += o.accepted;
        self.open.1 += o.op_ns;
        let lat = &self.latencies_us[self.open.2..];
        if self.open.1 >= WINDOW_NS && lat.len() >= WINDOW_SAMPLES {
            let mut sorted = lat.to_vec();
            sorted.sort_by(f64::total_cmp);
            self.windows.push(Window {
                rate: self.open.0 as f64 / (self.open.1 as f64 / 1e9),
                p50: percentile(&sorted, 0.50),
                p99: percentile(&sorted, 0.99),
            });
            self.open = (0, 0, self.latencies_us.len());
        }
    }

    /// The `q` quantile over the closed windows of one window statistic,
    /// or the statistic of the whole tally when no window closed.
    fn windowed(&self, q: f64, stat: impl Fn(&Window) -> f64) -> f64 {
        if self.windows.is_empty() {
            let mut sorted = self.latencies_us.clone();
            sorted.sort_by(f64::total_cmp);
            return stat(&Window {
                rate: ratio(self.accepted as f64, self.op_ns as f64 / 1e9),
                p50: percentile(&sorted, 0.50),
                p99: percentile(&sorted, 0.99),
            });
        }
        let mut v: Vec<f64> = self.windows.iter().map(stat).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, q)
    }

    /// The conservative quartile of window throughput (see `SLOW_Q`).
    fn deliveries_per_s(&self) -> f64 {
        self.windowed(1.0 - SLOW_Q, |w| w.rate)
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sharded = args.workload == "sharded-fanout";
    let shards = if sharded { nproc.min(2) } else { 0 };
    // The control thread of a sharded host only blocks on its shards.
    let thread_limit = nproc + usize::from(sharded);
    let mut problems: Vec<String> = Vec::new();
    let mut max_threads = 0;
    let mut check_threads = |problems: &mut Vec<String>| -> Result<(), String> {
        let n = common::thread_count()?;
        max_threads = max_threads.max(n);
        if n > thread_limit {
            problems.push(format!("{n} threads running, budget {thread_limit}"));
        }
        Ok(())
    };

    // The fixed interest maps (every workload but type-churn, whose
    // oracle runs the uncached checker on every round) are checked once.
    if args.workload != "type-churn" {
        fanout::Population::new(args.seed).verify()?;
    }

    // Set-up, repeated: each repetition builds the host from empty to
    // the warmed steady state; cheap set-ups repeat more, so their
    // quartile is steady too.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut probes: Vec<Vec<(&'static str, u64)>> = Vec::new();
    let mut total = Tally::default();
    let mut off = Tracer::new();
    let mut bench: Option<Box<dyn Workload>> = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        drop(bench.take());
        let t = Instant::now();
        let mut w = build(&args.workload, args.seed, shards)?;
        setup_s.push(t.elapsed().as_secs_f64());
        check_threads(&mut problems)?;
        if probes.len() == PROBES {
            bench = Some(w);
            continue;
        }
        w.set_pump_trace(true);
        w.take_pumps();
        let before = w.counts();
        for _ in 0..w.probe_ops() {
            total.add(w.op(&mut off)?, false);
        }
        let (pumps, empty) = w.take_pumps();
        w.set_pump_trace(false);
        let mut delta = w.counts().since(&before);
        delta.pumps = pumps;
        delta.empty_pumps = empty;
        probes.push(delta.exact(sharded));
        bench = Some(w);
    }
    let mut w = bench.ok_or("no set-up ran")?;
    for (k, p) in probes.iter().enumerate().skip(1) {
        for ((name, a), (_, b)) in probes[0].iter().zip(p) {
            if a != b {
                problems.push(format!(
                    "count `{name}` differs between set-ups with the same seed: {a} vs {b} (repetition {k})"
                ));
            }
        }
    }
    // Probe operations are checked but not measured.
    let mut untraced = Tally {
        failures: total.failures,
        notes: total.notes,
        ..Tally::default()
    };
    let mut traced = Tally::default();

    // Measured phase.
    let mut tracer = Tracer::new();
    let start_counts = w.counts();
    let mut traced_pumps = (0u64, 0u64);
    let mut traced_allocs = (0u64, 0u64);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut block = 0u32;
    let mut block_end = started + BLOCK;
    let mut block_allocs = alloc::totals();
    let mut op_index = 0u64;
    while Instant::now() < deadline {
        if args.trace && Instant::now() >= block_end {
            if tracer.on {
                close_block(
                    w.as_mut(),
                    block_allocs,
                    &mut traced_pumps,
                    &mut traced_allocs,
                );
            }
            block += 1;
            tracer.on = block % 2 == 1;
            alloc::set_counting(tracer.on);
            w.set_pump_trace(tracer.on);
            block_allocs = alloc::totals();
            block_end = Instant::now() + BLOCK;
        }
        tracer.op = op_index;
        op_index += 1;
        let out = w.op(&mut tracer)?;
        if tracer.on {
            traced.add(out, true);
        } else {
            untraced.add(out, true);
        }
        if op_index == 1 {
            check_threads(&mut problems)?;
        }
    }
    if tracer.on {
        close_block(
            w.as_mut(),
            block_allocs,
            &mut traced_pumps,
            &mut traced_allocs,
        );
        alloc::set_counting(false);
        w.set_pump_trace(false);
        tracer.on = false;
    }
    let measured_s = started.elapsed().as_secs_f64();
    untraced.add(w.finish(&mut tracer)?, false);
    check_threads(&mut problems)?;
    let d = w.counts().since(&start_counts);

    let unit = if args.trace {
        layers::unit_costs(&w.layer_inputs())?
    } else {
        BTreeMap::new()
    };
    let mount_us = w.mount_us().to_vec();
    // Joins shard threads before anything is printed.
    drop(w);
    let peak_rss_mb = common::peak_rss_mb()?;

    // Whole-run totals over both kinds of block.
    let all_ops = untraced.ops + traced.ops;
    let all_events = untraced.events + traced.events;
    let accepted = untraced.accepted + traced.accepted;
    let attempted = untraced.expected + traced.expected + total.expected;
    let failed = untraced.failures + traced.failures;

    // Invariants the workloads promise.
    if d.payload_encodes != all_events {
        problems.push(format!(
            "{} envelope encodes for {all_events} published events",
            d.payload_encodes
        ));
    }
    if args.workload == "durable-loss" {
        if d.max_inflight > durable::WINDOW as u64 {
            problems.push(format!("in-flight window reached {}", d.max_inflight));
        }
        let drop_frac = ratio(d.faults_dropped as f64, d.net_messages as f64);
        if !(0.02..=0.08).contains(&drop_frac) {
            problems.push(format!(
                "fault plan dropped {drop_frac:.4} of sends, not ~0.05"
            ));
        }
    }
    if accepted == 0 {
        problems.push("no delivery was accepted".into());
    }

    let correct = failed == 0 && problems.is_empty();
    println!(
        "perfbench workload={} seed={} trace={} measured_s={measured_s:.3} ops={all_ops} events={all_events} \
         available_parallelism={nproc} shards={shards} max_threads={max_threads}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "oracle: attempted={attempted} failed={failed} failed_frac={}",
        ratio(failed as f64, attempted as f64)
    );
    for note in untraced.notes.iter().chain(&traced.notes) {
        println!("failure: {note}");
    }
    for p in &problems {
        println!("problem: {p}");
    }
    let mut metrics: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str, note: String| {
        metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    };
    if !args.trace {
        let windows = format!(
            "quartile over {} windows; n={} events, {accepted} deliveries in {:.3} s of operations",
            untraced.windows.len(),
            untraced.latencies_us.len(),
            untraced.op_ns as f64 / 1e9
        );
        put(
            "deliveries_per_s",
            untraced.deliveries_per_s(),
            "1/s",
            windows.clone(),
        );
        put(
            "latency_p50_us",
            untraced.windowed(SLOW_Q, |w| w.p50),
            "us",
            windows.clone(),
        );
        // Printed, not gated: its run-to-run spread on a noisy host
        // exceeds the largest bound a gate may use (see README). The
        // traced run reports it as a per-layer metric.
        println!(
            "latency_p99_us {} us ({windows}; not gated)",
            untraced.windowed(SLOW_Q, |w| w.p99)
        );
        let series = |f: fn(&Window) -> f64| {
            let v: Vec<String> = untraced
                .windows
                .iter()
                .map(|w| format!("{:.0}", f(w)))
                .collect();
            v.join(" ")
        };
        println!("windows rate: {}", series(|w| w.rate));
        println!("windows p50: {}", series(|w| w.p50));
        println!("windows p99: {}", series(|w| w.p99));
        put(
            "setup_s",
            median(&setup_s),
            "s",
            format!("median of n={} set-ups: {setup_s:.4?}", setup_s.len()),
        );
        put(
            "wire_bytes_per_delivery",
            ratio(d.net_bytes as f64, accepted as f64),
            "B",
            format!("{} bytes in {} messages", d.net_bytes, d.net_messages),
        );
        put("peak_rss_mb", peak_rss_mb, "MiB", "VmHWM".into());
    } else {
        per_layer(
            &mut put,
            PerLayerInputs {
                d: &d,
                unit: &unit,
                untraced: &untraced,
                traced: &traced,
                events: all_events,
                accepted,
                failed,
                attempted,
                pumps: traced_pumps,
                allocs: traced_allocs,
                mount_us: &mount_us,
                shards,
            },
        );
        write_spans(&args, &tracer)?;
    }

    let mut json = String::new();
    for m in &metrics {
        println!("{} {} {} ({})", m.name, m.value, m.unit, m.note);
        if !json.is_empty() {
            json.push_str(", ");
        }
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        attempted.max(1)
    );
    Ok(if correct { 0 } else { 1 })
}

/// Ends a traced block: adds its pumps and allocations to the totals.
fn close_block(
    w: &mut dyn Workload,
    allocs_at_start: (u64, u64),
    pumps: &mut (u64, u64),
    allocs: &mut (u64, u64),
) {
    let (p, e) = w.take_pumps();
    pumps.0 += p;
    pumps.1 += e;
    let now = alloc::totals();
    allocs.0 += now.0 - allocs_at_start.0;
    allocs.1 += now.1 - allocs_at_start.1;
}

struct PerLayerInputs<'a> {
    d: &'a Counts,
    unit: &'a BTreeMap<&'static str, f64>,
    untraced: &'a Tally,
    traced: &'a Tally,
    events: u64,
    accepted: u64,
    failed: u64,
    attempted: u64,
    pumps: (u64, u64),
    allocs: (u64, u64),
    mount_us: &'a [f64],
    shards: usize,
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

fn per_layer(put: &mut impl FnMut(&'static str, f64, &'static str, String), p: PerLayerInputs<'_>) {
    let d = p.d;
    let u = |k: &str| p.unit.get(k).copied().unwrap_or(0.0);
    // Per-operation figures are per event: a fan-out operation is one
    // event of a burst, a churn round publishes exactly one event.
    let ops = p.events as f64;
    let events = p.events as f64;
    let acc = p.accepted as f64;
    let n = |x: u64| format!("n={x}");
    let t_ops = p.traced.events;

    put(
        "reactor.sends_per_delivery",
        ratio(d.sends as f64, acc),
        "count",
        n(p.accepted),
    );
    put(
        "reactor.wakeups_per_op",
        ratio(d.wakeups as f64, ops),
        "count",
        n(p.events),
    );
    put(
        "reactor.timer_fires_per_op",
        ratio(d.timer_fires as f64, ops),
        "count",
        n(p.events),
    );

    put(
        "frame.frames_per_batch",
        ratio(d.batched_frames as f64, d.batches as f64),
        "count",
        n(d.batches),
    );
    put(
        "frame.encode_ns",
        u("frame.encode_ns"),
        "ns",
        "per batch".into(),
    );
    put(
        "frame.decode_ns",
        u("frame.decode_ns"),
        "ns",
        "per batch".into(),
    );
    put(
        "fault.drop_frac",
        ratio(d.faults_dropped as f64, d.net_messages as f64),
        "ratio",
        n(d.net_messages),
    );
    put(
        "bridge.crossings_per_delivery",
        ratio(d.bridge_crossings as f64, acc),
        "count",
        n(p.accepted),
    );

    put(
        "envelope.encodes_per_event",
        ratio(d.payload_encodes as f64, events),
        "count",
        n(p.events),
    );
    put(
        "envelope.bytes",
        ratio(d.object_bytes as f64, d.object_frames as f64),
        "B",
        n(d.object_frames),
    );
    for k in [
        "envelope.encode_ns",
        "envelope.decode_ns",
        "binary.decode_ns",
        "typedesc.decode_ns",
        "metamodel.install_ns",
        "metamodel.instantiate_ns",
    ] {
        put(k, u(k), "ns", "unit cost".into());
    }

    let checks = d.conformance_checks as f64;
    put(
        "conformance.checks_per_delivery",
        ratio(checks, acc),
        "count",
        n(p.accepted),
    );
    put(
        "conformance.check_cold_ns",
        u("conformance.check_cold_ns"),
        "ns",
        "unit cost".into(),
    );
    put(
        "conformance.check_warm_ns",
        u("conformance.check_warm_ns"),
        "ns",
        "unit cost".into(),
    );

    put(
        "routing.precision",
        ratio(d.accepted as f64, d.objects_received as f64),
        "ratio",
        n(d.objects_received),
    );
    put(
        "routing.invalidations_per_op",
        ratio(d.route_generation as f64, ops),
        "count",
        n(p.events),
    );
    put(
        "routing.resolve_cold_ns",
        u("routing.resolve_cold_ns"),
        "ns",
        "unit cost".into(),
    );
    put(
        "routing.resolve_warm_ns",
        u("routing.resolve_warm_ns"),
        "ns",
        "unit cost".into(),
    );

    put(
        "swarm.route_object_ns",
        ratio(p.traced.route_ns as f64, p.traced.route_calls as f64),
        "ns",
        n(p.traced.route_calls),
    );
    put(
        "swarm.desc_fetches_per_op",
        ratio(d.desc_requests as f64, ops),
        "count",
        n(p.events),
    );
    put(
        "swarm.asm_fetches_per_op",
        ratio(d.asm_requests as f64, ops),
        "count",
        n(p.events),
    );

    put(
        "delivery.retransmits_per_event",
        ratio(d.retransmits as f64, events),
        "count",
        n(p.events),
    );
    put(
        "delivery.acks_per_event",
        ratio(d.acks_sent as f64, events),
        "count",
        n(p.events),
    );
    put(
        "delivery.max_inflight",
        d.max_inflight as f64,
        "count",
        "high-water".into(),
    );
    put(
        "delivery.dups_suppressed",
        d.dups_suppressed as f64,
        "count",
        "total".into(),
    );

    // Drive spans, and how much of them the unit costs account for.
    let drive_per_op = ratio(p.traced.drive_ns as f64, t_ops as f64);
    put("host.drive_ns", drive_per_op, "ns", n(t_ops));
    put(
        "host.pumps_per_op",
        ratio(p.pumps.0 as f64, t_ops as f64),
        "count",
        n(t_ops),
    );
    put(
        "host.empty_pump_frac",
        ratio(p.pumps.1 as f64, p.pumps.0 as f64),
        "ratio",
        n(p.pumps.0),
    );
    let cold_checks = checks.min(d.desc_requests as f64);
    // Estimated self time inside the drive, per operation: each layer's
    // unit cost times its count.
    let layers = [
        (
            "frame",
            (u("frame.encode_ns") + u("frame.decode_ns")) * d.batches as f64,
        ),
        (
            "envelope",
            u("envelope.decode_ns") * d.objects_received as f64,
        ),
        ("binary", u("binary.decode_ns") * d.accepted as f64),
        ("typedesc", u("typedesc.decode_ns") * d.desc_requests as f64),
        (
            "metamodel",
            u("metamodel.install_ns") * d.asm_requests as f64,
        ),
        (
            "conformance",
            u("conformance.check_cold_ns") * cold_checks
                + u("conformance.check_warm_ns") * (checks - cold_checks),
        ),
    ];
    let mut attributed = 0.0;
    for (layer, ns) in layers {
        attributed += ns;
        println!("self_time {layer} {} ns/op (estimate)", ratio(ns, ops));
    }
    put(
        "host.unattributed_frac",
        1.0 - ratio(ratio(attributed, ops), drive_per_op),
        "ratio",
        "1 - (unit cost x count) / drive".into(),
    );

    let sharded = p.shards > 0;
    let mount = if sharded { p.mount_us } else { &[] };
    let decile = (mount.len() / 10).max(1);
    put("sharded.mount_us", mean(mount), "us", n(mount.len() as u64));
    put(
        "sharded.mount_growth",
        if mount.is_empty() {
            0.0
        } else {
            ratio(mean(&mount[mount.len() - decile..]), mean(&mount[..decile]))
        },
        "ratio",
        "last decile / first decile".into(),
    );
    put(
        "sharded.drive_ns",
        if sharded { drive_per_op } else { 0.0 },
        "ns",
        n(t_ops),
    );
    let busy: Vec<f64> = d.busy_ns.iter().map(|&b| b as f64).collect();
    put(
        "sharded.busy_imbalance",
        ratio(busy.iter().copied().fold(0.0, f64::max), mean(&busy)),
        "ratio",
        "max / mean busy ns".into(),
    );

    let t_acc = p.traced.accepted as f64;
    put(
        "alloc.per_delivery",
        ratio(p.allocs.0 as f64, t_acc),
        "count",
        n(p.traced.accepted),
    );
    put(
        "alloc.bytes_per_delivery",
        ratio(p.allocs.1 as f64, t_acc),
        "B",
        n(p.traced.accepted),
    );

    put(
        "latency_p99_us",
        p.untraced.windowed(SLOW_Q, |w| w.p99),
        "us",
        format!("untraced blocks, {} windows", p.untraced.windows.len()),
    );
    // Drift: within-run latency trend, untraced blocks only.
    let seq = &p.untraced.latencies_us;
    let tenth = seq.len() / 10;
    put(
        "drift_ratio",
        if tenth == 0 {
            0.0
        } else {
            ratio(median(&seq[seq.len() - tenth..]), median(&seq[..tenth]))
        },
        "ratio",
        n(seq.len() as u64),
    );
    put(
        "trace_overhead_frac",
        1.0 - ratio(p.traced.deliveries_per_s(), p.untraced.deliveries_per_s()),
        "ratio",
        format!(
            "{:.0}/s traced vs {:.0}/s untraced",
            p.traced.deliveries_per_s(),
            p.untraced.deliveries_per_s()
        ),
    );
    put(
        "failed_frac",
        ratio(p.failed as f64, p.attempted as f64),
        "ratio",
        n(p.attempted),
    );
}

/// Writes the traced blocks' spans, one per line, next to the benchmark.
fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let mut text = String::from("op\tname\tstart_ns\tend_ns\n");
    for s in &tracer.spans {
        let _ = writeln!(text, "{}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns);
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
