//! The wall-clock workloads: `live_mem` on the sharded runtime and
//! `live_udp` on the epoll reactor, both closed loops over the same
//! Figure-4 stack; `live_udp` also switches protocols live.
//!
//! The closed loop runs inside the host: a [`Pacer`] module on every
//! stack issues the stack's next broadcast from the ADELIVER of one of
//! its own, so the host thread never waits on the benchmark's thread.
//! That thread only reaps the delivery records every [`REAP`] and
//! requests the switches.

use super::{fit, record, repl_seq_opts, settle, SETUP_REPS};
use crate::ledger::Build;
use crate::procfs::{cpu_s, rss_bytes};
use crate::{alloc, median, pct, window, Outcome, Raw, RunCfg};
use bytes::Bytes;
use dpu_core::abcast_check::MsgId;
use dpu_core::probe::{DeliveryRecord, Probe};
use dpu_core::telemetry::TelemetryReport;
use dpu_core::time::{Dur, Time};
use dpu_core::{
    Call, Module, ModuleCtx, ModuleId, ModuleSpec, Response, ServiceId, Stack, StackConfig,
    StackId, TimerId, TransportStats,
};
use dpu_protocols::abcast::ops::{ABCAST, ADELIVER};
use dpu_reactor::{Reactor, ReactorConfig, ReactorStats};
use dpu_repl::builder::{specs, GroupStackOpts};
use dpu_runtime::{Runtime, RuntimeConfig};
use std::time::{Duration, Instant};

/// Group size of both live workloads (the paper's n = 7).
const N: u32 = 7;
/// Probe padding: 64-byte application payloads.
const PAD: usize = 64;
/// Completed broadcasts before the measured window. A count, not a
/// time, so that the memory the benchmark's own delivery log holds when
/// `rss_bytes_per_stack` is read does not vary with throughput.
const WARM_OPS: u64 = 10_000;
/// How long undelivered broadcasts may take after the load stops.
const DRAIN: Duration = Duration::from_secs(3);
/// How often the benchmark's thread collects the delivery records.
const REAP: Duration = Duration::from_millis(50);
/// Throughput, CPU and latency percentiles are taken per sub-window of
/// this and reported as medians over the sub-windows; `live_udp`
/// requests one switch in the middle of each. At one second a switch's
/// stalled broadcasts sat on p99 itself; at two they stay below it.
const SUBWINDOW: Duration = Duration::from_secs(2);
/// Broadcasts each stack may have outstanding beyond its share of the
/// group's deliveries (see [`Pacer`]), on the runtime. rp2p's 20 ms
/// scan resends every frame unacknowledged at that instant, so the
/// resends per broadcast grow with the latency that the window itself
/// sets: at 8 they were 1.2–1.5 per broadcast and throughput jumped
/// between two levels about 40 % apart within a run; at 2 they are
/// about 0.26 and the shard is still saturated.
const WINDOW_MEM: u64 = 2;
/// The same on the reactor (about 0.9 resends per broadcast at 2).
const WINDOW_UDP: u64 = 2;

fn ids() -> Vec<StackId> {
    (0..N).map(StackId).collect()
}

fn us(from: Time, to: Time) -> f64 {
    to.as_nanos().saturating_sub(from.as_nanos()) as f64 / 1e3
}

/// The closed-loop load generator (`gen`), one per stack. A stack may
/// have issued at most `window` broadcasts more than its share (1/n) of
/// all the broadcasts it has delivered: issuing is clocked by the
/// group's deliveries, not by the stack's own. (Gated by its own
/// deliveries only, the sequencer's stack, whose broadcasts come back
/// without a network hop, would issue nearly all of the load.) Every
/// delivery is recorded through the [`Probe`] the pacer holds, which
/// also stamps the payloads and feeds the telemetry's latency
/// histogram, as the builder's probe would.
pub struct Pacer {
    me: StackId,
    n: u64,
    probe: Probe,
    service: ServiceId,
    window: u64,
    issued: u64,
    delivered: u64,
    running: bool,
    /// A top-up timer is pending.
    armed: bool,
}

impl Pacer {
    fn new(me: StackId, n: u32, service: ServiceId, window: u64) -> Pacer {
        Pacer {
            me,
            n: u64::from(n),
            probe: Probe::new(service.clone(), ABCAST, ADELIVER, PAD),
            service,
            window,
            issued: 0,
            delivered: 0,
            running: false,
            armed: false,
        }
    }

    fn may_issue(&self) -> bool {
        self.running && self.issued < self.delivered / self.n + self.window
    }

    fn next_payload(&mut self, now: Time) -> Bytes {
        self.issued += 1;
        self.probe.next_payload(self.me, now)
    }

    /// Start the loop: the payloads to issue now, for the caller to
    /// issue on the pacer's behalf.
    fn start(&mut self, now: Time) -> Vec<Bytes> {
        self.running = true;
        let mut first = Vec::new();
        while self.may_issue() {
            first.push(self.next_payload(now));
        }
        first
    }
}

impl Module for Pacer {
    fn kind(&self) -> &str {
        "gen"
    }

    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.service.clone()]
    }

    fn on_call(&mut self, _ctx: &mut ModuleCtx<'_>, _call: Call) {}

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        let seen = self.probe.delivered().len();
        self.probe.on_response(ctx, resp);
        if self.probe.delivered().len() > seen {
            self.delivered += 1;
            // Issue from a zero-delay timer, not from inside this
            // cascade: on the sequencer's stack a broadcast is delivered
            // within the cascade that issued it.
            if !self.armed && self.may_issue() {
                self.armed = true;
                ctx.set_timer(Dur::ZERO, 0);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _timer: TimerId, _tag: u64) {
        self.armed = false;
        while self.may_issue() {
            let payload = self.next_payload(ctx.now());
            ctx.call(&self.service, ABCAST, payload);
        }
    }
}

/// What the benchmark's thread needs from a live host.
trait Live {
    /// Span names of the host entries.
    const SPAWN: &'static str;
    const WITH_STACK: &'static str;
    const SHUTDOWN: &'static str;
    fn now(&self) -> Time;
    fn with_stack<R: Send + 'static>(
        &self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R;
    fn transport_stats(&self) -> TransportStats;
    fn packets_sent(&self) -> u64;
    fn telemetry_report(&self) -> TelemetryReport;
    /// Socket counters, on the real-socket host.
    fn sockets(&self) -> Option<ReactorStats>;
    fn shutdown(self) -> Vec<Stack>;
}

impl Live for Runtime {
    const SPAWN: &'static str = "runtime.spawn";
    const WITH_STACK: &'static str = "runtime.with_stack";
    const SHUTDOWN: &'static str = "runtime.shutdown";
    fn now(&self) -> Time {
        Runtime::now(self)
    }
    fn with_stack<R: Send + 'static>(
        &self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        Runtime::with_stack(self, id, f)
    }
    fn transport_stats(&self) -> TransportStats {
        Runtime::transport_stats(self)
    }
    fn packets_sent(&self) -> u64 {
        self.stats().packets_sent
    }
    fn telemetry_report(&self) -> TelemetryReport {
        Runtime::telemetry_report(self)
    }
    fn sockets(&self) -> Option<ReactorStats> {
        None
    }
    fn shutdown(self) -> Vec<Stack> {
        Runtime::shutdown(self)
    }
}

impl Live for Reactor {
    const SPAWN: &'static str = "reactor.spawn";
    const WITH_STACK: &'static str = "reactor.with_stack";
    const SHUTDOWN: &'static str = "reactor.shutdown";
    fn now(&self) -> Time {
        Reactor::now(self)
    }
    fn with_stack<R: Send + 'static>(
        &self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        Reactor::with_stack(self, id, f)
    }
    fn transport_stats(&self) -> TransportStats {
        Reactor::transport_stats(self)
    }
    fn packets_sent(&self) -> u64 {
        self.stats().packets_sent
    }
    fn telemetry_report(&self) -> TelemetryReport {
        Reactor::telemetry_report(self)
    }
    fn sockets(&self) -> Option<ReactorStats> {
        Some(self.stats())
    }
    fn shutdown(self) -> Vec<Stack> {
        Reactor::shutdown(self)
    }
}

/// A live group: the host, the service the pacers broadcast on, and the
/// pacer's module id (the same on every stack).
struct Group<H> {
    host: H,
    top: ServiceId,
    pacer: ModuleId,
}

/// Build a live group on one host: the builder's Figure-4 stack (no
/// probe of its own) plus a [`Pacer`] keeping `window` outstanding.
/// `spawn` is the host's constructor, handed the per-stack builder.
fn live_group<H>(
    b: &Build,
    window: u64,
    spawn: impl FnOnce(&mut dyn FnMut(StackConfig) -> Stack) -> H,
) -> Group<H> {
    let opts = GroupStackOpts { probe_pad: None, ..repl_seq_opts(PAD) };
    let mut ids = None;
    let host = spawn(&mut |sc| {
        let me = sc.id;
        let built = b.stack(sc, &opts);
        let top = built.handles.top_service;
        let mut stack = built.stack;
        let pacer = stack.add_module(Box::new(Pacer::new(me, N, top.clone(), window)));
        ids.get_or_insert((top, pacer));
        stack
    });
    let (top, pacer) = ids.expect("at least one stack");
    Group { host, top, pacer }
}

/// Delivery records collected so far.
struct Reaped {
    /// `(sent, delivered)` of every broadcast delivered back at its
    /// issuing stack.
    own: Vec<(Time, Time)>,
    /// Every stack's delivery order.
    deliveries: Vec<Vec<MsgId>>,
    /// Deliveries per stack.
    delivered: Vec<u64>,
}

/// Collect every stack's new delivery records.
fn reap<H: Live>(g: &Group<H>, b: &Build, st: &mut Reaped) {
    let pacer = g.pacer;
    for id in ids() {
        let recs: Vec<DeliveryRecord> = b.host(H::WITH_STACK, || {
            g.host.with_stack(id, move |s| {
                s.with_module::<Pacer, _>(pacer, |p| p.probe.take_delivered()).expect("pacer")
            })
        });
        st.delivered[id.idx()] += recs.len() as u64;
        st.own.extend(recs.iter().filter(|r| r.msg.0 == id).map(|r| (r.sent_at, r.delivered_at)));
        record(&mut st.deliveries, id, &recs);
    }
}

/// Ask every stack's pacer to start (or stop) its loop.
fn set_running<H: Live>(g: &Group<H>, b: &Build, running: bool) {
    let (pacer, top) = (g.pacer, g.top.clone());
    for id in ids() {
        let now = g.host.now();
        let top = top.clone();
        b.host(H::WITH_STACK, || {
            g.host.with_stack(id, move |s| {
                let first = s
                    .with_module::<Pacer, _>(pacer, |p| {
                        if running {
                            p.start(now)
                        } else {
                            p.running = false;
                            Vec::new()
                        }
                    })
                    .expect("pacer");
                for payload in first {
                    s.call_as(pacer, &top, ABCAST, payload);
                }
            })
        });
    }
}

/// Request a live switch of the abcast protocol from stack `from`.
fn request_change<H: Live>(g: &Group<H>, b: &Build, from: StackId, spec: &ModuleSpec) {
    let (pacer, top) = (g.pacer, g.top.clone());
    let data = dpu_core::wire::to_bytes(spec);
    b.host("request_change", || {
        g.host.with_stack(from, move |s| s.call_as(pacer, &top, dpu_repl::CHANGE_OP, data))
    });
}

/// The closed loop on one live host: build (timed), warm up, measure
/// `cfg.seconds` in [`SUBWINDOW`]s (with a live switch in the middle of
/// each when `switching`), stop, drain, check, and time the other
/// constructions of `setup_s` last.
fn closed_loop<H: Live>(
    cfg: &RunCfg,
    b: &Build,
    spawn: impl Fn() -> Group<H>,
    switching: bool,
) -> Outcome {
    let rss0 = rss_bytes();
    let t0 = Instant::now();
    let g = b.host(H::SPAWN, &spawn);
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let mut st = Reaped {
        own: Vec::new(),
        deliveries: vec![Vec::new(); N as usize],
        delivered: vec![0; N as usize],
    };
    set_running(&g, b, true);
    while (st.own.len() as u64) < WARM_OPS {
        std::thread::sleep(REAP);
        reap(&g, b, &mut st);
    }
    let rss = rss_bytes().saturating_sub(rss0);

    let transport = |g: &Group<H>| b.host("transport_stats", || g.host.transport_stats());
    let before = b.ledger().map(|l| l.snapshot());
    let (tr0, net0, calls0) = (transport(&g), g.host.packets_sent(), alloc::calls());
    let t0 = Instant::now();
    // Sub-window boundaries: host time and process CPU seconds.
    let mut bounds = vec![(g.host.now(), cpu_s())];
    let mut k = 0u64;
    while t0.elapsed().as_secs_f64() < cfg.seconds {
        let w0 = Instant::now();
        let mut switched = !switching;
        while w0.elapsed() < SUBWINDOW && t0.elapsed().as_secs_f64() < cfg.seconds {
            std::thread::sleep(REAP.min(SUBWINDOW.saturating_sub(w0.elapsed())));
            // Mid-window, so that every sub-window spends equal time on
            // each protocol and the per-window figures are alike.
            if !switched && w0.elapsed() >= SUBWINDOW / 2 {
                // Alternate abcast.ct and abcast.seq, each a fresh
                // incarnation, requested from a different stack each time.
                let spec = if k.is_multiple_of(2) { specs::ct(k + 1) } else { specs::seq(k + 1) };
                request_change(&g, b, StackId((k % u64::from(N)) as u32), &spec);
                switched = true;
                k += 1;
            }
            reap(&g, b, &mut st);
        }
        bounds.push((g.host.now(), cpu_s()));
    }
    let (tr1, net1, calls1) = (transport(&g), g.host.packets_sent(), alloc::calls());
    let window_kinds = match (b.ledger(), &before) {
        (Some(l), Some(bf)) => window(l, bf),
        _ => Default::default(),
    };

    set_running(&g, b, false);
    let drain_end = Instant::now() + DRAIN;
    let issued = |g: &Group<H>| -> Vec<(MsgId, StackId, Time)> {
        let pacer = g.pacer;
        let mut all = Vec::new();
        for id in ids() {
            let sent = b.host(H::WITH_STACK, || {
                g.host.with_stack(id, move |s| {
                    s.with_module::<Pacer, _>(pacer, |p| p.probe.sent().to_vec()).expect("pacer")
                })
            });
            all.extend(sent.into_iter().map(|(m, t)| (m, id, t)));
        }
        all
    };
    let total = issued(&g).len() as u64;
    loop {
        reap(&g, b, &mut st);
        if st.delivered.iter().all(|&d| d >= total) || Instant::now() >= drain_end {
            break;
        }
        std::thread::sleep(REAP);
    }
    let deadline = g.host.now();
    let broadcasts = issued(&g);
    let report = b.host("telemetry_report", || g.host.telemetry_report());
    let sockets = g.host.sockets();
    drop(b.host(H::SHUTDOWN, || g.host.shutdown()));
    // The other constructions come after the measured group, so that
    // their freed memory does not blur its resident-set growth.
    while setups.len() < SETUP_REPS {
        let t0 = Instant::now();
        let g = b.host(H::SPAWN, &spawn);
        setups.push(t0.elapsed().as_secs_f64());
        drop(b.host(H::SHUTDOWN, || g.host.shutdown()));
    }

    // Per sub-window: own deliveries by delivery time (throughput, CPU)
    // and latencies by send time (failed ops included, see `settle`).
    let (start, end) = (bounds[0].0, bounds[bounds.len() - 1].0);
    let mut lat: Vec<(Time, f64)> = st
        .own
        .iter()
        .filter(|(s, _)| *s >= start && *s < end)
        .map(|&(s, d)| (s, us(s, d)))
        .collect();
    let mut out = Outcome::default();
    settle(&mut out, &ids(), &broadcasts, &st.deliveries, ((start, end), deadline), &mut lat);
    let (mut rates, mut cpu_per_op, mut p50, mut p99) = (vec![], vec![], vec![], vec![]);
    let mut completed = 0u64;
    for w in bounds.windows(2) {
        let ((a, cpu_a), (z, cpu_z)) = (w[0], w[1]);
        let ops = st.own.iter().filter(|(_, d)| *d >= a && *d < z).count() as u64;
        completed += ops;
        let ops = ops.max(1) as f64;
        rates.push(ops / (us(a, z) / 1e6));
        cpu_per_op.push((cpu_z - cpu_a) * 1e6 / ops);
        let mut l: Vec<f64> =
            lat.iter().filter(|(s, _)| *s >= a && *s < z).map(|(_, l)| *l).collect();
        p50.push(pct(&mut l, 0.5));
        p99.push(pct(&mut l, 0.99));
    }
    out.e2e = vec![
        median(setups),
        median(rates),
        median(cpu_per_op),
        median(p50),
        median(p99),
        rss as f64 / f64::from(N),
    ];
    let mut all: Vec<f64> = lat.iter().map(|(_, l)| *l).collect();
    out.info.push(("lat_p99_run_us".into(), "us", pct(&mut all, 0.99)));
    out.info.push(("failed_frac".into(), "ratio", out.failed as f64 / out.attempted.max(1) as f64));
    let blackout_ms = report.switches.blackout_ns.p50 as f64 / 1e6;
    if switching {
        out.info.push(("blackout_p50_ms".into(), "ms", blackout_ms));
        out.info.push(("switches_completed".into(), "count", report.switches.completed as f64));
        if report.switches.completed == 0 {
            out.violations.push("no switch completed".into());
        }
    }
    out.info.push(("window_ops".into(), "count", completed as f64));
    let (socket_sent, socket_received) = match sockets {
        Some(s) => {
            if s.malformed_dropped != 0 {
                out.violations
                    .push(format!("reactor dropped {} malformed datagrams", s.malformed_dropped));
            }
            (s.packets_sent - s.packets_dropped, s.packets_received)
        }
        None => (0, 0),
    };
    out.raw = Raw {
        ops: completed,
        cpu_s: bounds[bounds.len() - 1].1 - bounds[0].1,
        packets: net1 - net0,
        retransmissions: tr1.retransmissions - tr0.retransmissions,
        wire_allocs: report.wire.allocations,
        allocs: calls1 - calls0,
        socket_sent,
        socket_received,
        blackout_ms: if switching { blackout_ms } else { 0.0 },
        window_kinds,
        ..Default::default()
    };
    out
}

/// `live_mem`: closed loop on the sharded runtime (`nproc − 1` shards;
/// the benchmark's thread sleeps between reaps but counts as one),
/// no switch.
pub fn live_mem(cfg: &RunCfg, b: &Build) -> Result<Outcome, String> {
    let shards = cfg.nproc.saturating_sub(1).max(1);
    fit(shards + 1, cfg.nproc)?;
    let rcfg = RuntimeConfig { seed: cfg.seed, ..RuntimeConfig::new(N).with_shards(shards as u32) };
    let spawn = || live_group(b, WINDOW_MEM, |mk| Runtime::spawn(rcfg.clone(), mk));
    let mut out = closed_loop(cfg, b, spawn, false);
    out.info.push(("shards".into(), "count", shards as f64));
    Ok(out)
}

/// `live_udp`: closed loop on the reactor over loopback UDP (the loop
/// thread plus the benchmark's), a live `abcast.ct` ↔ `abcast.seq`
/// switch every [`SUBWINDOW`].
pub fn live_udp(cfg: &RunCfg, b: &Build) -> Result<Outcome, String> {
    fit(2, cfg.nproc)?;
    let rcfg = ReactorConfig { seed: cfg.seed, ..ReactorConfig::new(N, ids()) };
    let spawn = || {
        let g = live_group(b, WINDOW_UDP, |mk| Reactor::spawn(rcfg.clone(), mk));
        Group { host: g.host.expect("bind loopback UDP sockets"), top: g.top, pacer: g.pacer }
    };
    Ok(closed_loop(cfg, b, spawn, true))
}
