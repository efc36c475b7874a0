//! The virtual-time workloads on the deterministic simulator:
//! `sim_switch` (protocol- and switch-heavy, 1024 stacks) and
//! `sim_capacity` (scheduler and memory at 65536 stacks).

use super::{fit, group, record, repl_seq_opts, settle, SETUP_REPS};
use crate::ledger::Build;
use crate::procfs::{cpu_s, rss_bytes};
use crate::{alloc, median, pct, window, Outcome, Raw, RunCfg};
use bytes::Bytes;
use dpu_bench::synth::{datagram_soak_sim, LoadGen};
use dpu_core::abcast_check::MsgId;
use dpu_core::probe::Probe;
use dpu_core::stack::{net_ops, ModuleCtx};
use dpu_core::time::{Dur, Time};
use dpu_core::{wire, Call, Module, ModuleSpec, Response, ServiceId, StackId};
use dpu_protocols::abcast::hier::{HierAbcastParams, KIND as HIER_KIND};
use dpu_repl::builder::{self, specs, GroupStackOpts, Handles};
use dpu_sim::{CpuConfig, NetConfig, Sim, SimConfig, SimStats};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Shape of a `sim_switch` run; [`SimSwitchShape::BENCH`] is the
/// benchmark's, smaller ones serve the tests.
#[derive(Clone, Copy, Debug)]
pub struct SimSwitchShape {
    /// Stacks.
    pub n: u32,
    /// Stacks per datacenter cluster.
    pub cluster: u32,
    /// Aggregate Poisson broadcast rate, per virtual second.
    pub rate: f64,
    /// Virtual seconds of load (switches at one and two thirds of it).
    pub load_s: f64,
    /// Injected loss on every link.
    pub loss: f64,
}

impl SimSwitchShape {
    /// 1024 stacks in 16 clusters, 25 broadcasts/s for two virtual
    /// seconds with two switches in them. At 100/s rp2p's retransmit scan
    /// already tips some seeds into a retransmission storm (p99 of
    /// seconds), and `BENCH_par.json`'s 480/s is far past saturation. At
    /// 50/s for one second (the same broadcasts per scenario) the
    /// sequencer's queue set a long tail: pooled p99 spread 0.18 (IQR ÷
    /// median over twelve seeds) against 0.14 at 25/s over eight.
    /// No injected loss: with any, a switch to or from `abcast.hier`
    /// leaves some stacks stalled for good on a share of the seeds
    /// (see `tests/known_defects.rs`).
    pub const BENCH: SimSwitchShape =
        SimSwitchShape { n: 1024, cluster: 64, rate: 25.0, load_s: 2.0, loss: 0.0 };
}

/// Virtual warm-up before the load starts.
const WARM: Dur = Dur::millis(200);
/// Virtual drain after the load stops.
const DRAIN: Dur = Dur::secs(3);
/// `run_until` slice: queue depth is sampled between slices.
const SLICE: Dur = Dur::millis(100);

fn ms(t: Dur) -> Time {
    Time::ZERO + t
}

fn hash<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

fn stats_key(s: &SimStats) -> String {
    format!(
        "sent={} lost={} cut={} delivered={} bytes={} steps={} events={}",
        s.packets_sent,
        s.dropped_loss,
        s.dropped_partition,
        s.packets_delivered,
        s.bytes_sent,
        s.steps,
        s.events
    )
}

fn group_sim(cfg: SimConfig, opts: &GroupStackOpts, b: &Build) -> (Sim, Handles) {
    group(b, opts, |mk| Sim::new(cfg, mk))
}

/// One repetition of the `sim_switch` scenario.
pub struct SwitchRep {
    /// Construction wall seconds.
    pub setup_s: f64,
    /// Wall seconds of the virtual horizon.
    pub run_s: f64,
    /// Resident-set growth over construction and run.
    pub rss: u64,
    /// Outcome with the virtual metrics filled (`e2e` left empty).
    pub out: Outcome,
    /// Issuer-side virtual latencies, µs (failed ops included).
    pub lat_us: Vec<f64>,
    /// Virtual switch blackout p50, ms.
    pub blackout_ms: f64,
}

/// Run the `sim_switch` scenario once: build, load, switch seq→hier and
/// back, drain, check. Every virtual result goes into the fingerprint.
pub fn sim_switch_scenario(
    shape: SimSwitchShape,
    seed: u64,
    workers: usize,
    b: &Build,
) -> SwitchRep {
    let (cfg, opts) = switch_config(shape, seed, workers);
    let hier = ModuleSpec::with_params(
        HIER_KIND,
        &HierAbcastParams { namespace: 1, resend: Dur::secs(30), ..HierAbcastParams::default() },
    );
    let rss0 = rss_bytes();
    let t0 = Instant::now();
    let (mut sim, h) = b.host("sim.build", || group_sim(cfg, &opts, b));
    let setup_s = t0.elapsed().as_secs_f64();
    sim.set_loss(shape.loss);
    let load = Dur::secs_f64(shape.load_s);
    let load_end = ms(WARM) + load;
    let end = load_end + DRAIN;
    let before = b.ledger().map(|l| l.snapshot());
    let (t1, cpu0, calls0) = (Instant::now(), cpu_s(), alloc::calls());
    b.host("sim.run_until", || sim.run_until(ms(WARM)));
    builder::drive_poisson(&mut sim, &h, shape.rate, load_end);
    for (k, target) in [(1u64, hier), (2, specs::seq(2))] {
        let at = ms(WARM) + Dur::secs_f64(shape.load_s * k as f64 / 3.0);
        let hh = h.clone();
        let from = StackId((7 * k as u32) % shape.n);
        sim.schedule(at, move |sim| builder::request_change(sim, from, &hh, &target));
    }
    let mut queued_peak = 0u64;
    while sim.now() < end {
        let next = (sim.now() + SLICE).min(end);
        b.host("sim.run_until", || sim.run_until(next));
        queued_peak = queued_peak.max(sim.queued_events() as u64);
    }
    let (run_s, cpu, allocs) =
        (t1.elapsed().as_secs_f64(), cpu_s() - cpu0, alloc::calls() - calls0);
    let window_kinds = match (b.ledger(), &before) {
        (Some(l), Some(bf)) => window(l, bf),
        _ => Default::default(),
    };
    let rss = rss_bytes().saturating_sub(rss0);

    let probe = h.probe.expect("probe");
    let ids = sim.stack_ids();
    let mut deliveries = vec![Vec::new(); shape.n as usize];
    let mut broadcasts: Vec<(MsgId, StackId, Time)> = Vec::new();
    let mut lat_us = Vec::new();
    for &id in &ids {
        let (sent, recs) = b.host("sim.with_stack", || {
            sim.with_stack(id, |s| {
                s.with_module::<Probe, _>(probe, |p| (p.sent().to_vec(), p.take_delivered()))
                    .expect("probe present")
            })
        });
        broadcasts.extend(sent.into_iter().map(|(m, t)| (m, id, t)));
        for r in recs.iter().filter(|r| r.msg.0 == id) {
            lat_us.push((r.sent_at, r.latency().as_nanos() as f64 / 1e3));
        }
        record(&mut deliveries, id, &recs);
    }
    let stats = sim.stats();
    let report = b.host("sim.telemetry_report", || sim.telemetry_report());
    let struct_bytes = sim.mem_stats().bytes_per_stack as f64;
    drop(sim);

    let mut out = Outcome::default();
    settle(&mut out, &ids, &broadcasts, &deliveries, ((Time::ZERO, end), end), &mut lat_us);
    let lat_us: Vec<f64> = lat_us.into_iter().map(|(_, l)| l).collect();
    let blackout_ms = report.switches.blackout_ns.p50 as f64 / 1e6;
    let mut lat_sorted = lat_us.clone();
    lat_sorted.sort_by(f64::total_cmp);
    let lat_bits: Vec<u64> = lat_sorted.iter().map(|v| v.to_bits()).collect();
    out.fingerprint = Some(format!(
        "{} switches={} blackout={:?} deliveries={:x} lat={:x} failed={}",
        stats_key(&stats),
        report.switches.completed,
        report.switches.blackout_ns,
        hash(&deliveries),
        hash(&lat_bits),
        out.failed
    ));
    if report.switches.completed == 0 {
        out.violations.push("no switch completed".into());
    }
    out.raw = Raw {
        ops: out.attempted - out.failed,
        cpu_s: cpu,
        packets: stats.packets_sent,
        bytes: stats.bytes_sent,
        retransmissions: report.transport.retransmissions,
        steps: stats.steps,
        events: stats.events,
        shard_events: stats.per_shard.iter().map(|s| s.events).collect(),
        queued_peak,
        struct_bytes_per_stack: struct_bytes,
        wire_allocs: report.wire.allocations,
        allocs,
        blackout_ms,
        window_kinds,
        ..Default::default()
    };
    SwitchRep { setup_s, run_s, rss, out, lat_us, blackout_ms }
}

fn switch_config(shape: SimSwitchShape, seed: u64, workers: usize) -> (SimConfig, GroupStackOpts) {
    let mut cfg = SimConfig::clustered(
        shape.n,
        seed,
        shape.cluster,
        NetConfig::datacenter(),
        NetConfig::lan(),
    );
    cfg.trace = false;
    cfg.cpu = CpuConfig::fast();
    cfg.workers = workers;
    // As bench_telemetry: a 1024-way fan-out takes milliseconds of
    // modeled sequencer CPU, so rp2p's scan must sit above it.
    let rp2p = ModuleSpec::with_params(
        "rp2p",
        &dpu_net::rp2p::Rp2pConfig {
            retransmit: Dur::millis(100),
            lower: dpu_net::UDP_SVC.to_string(),
            max_retransmits: 0,
        },
    );
    let opts = GroupStackOpts {
        extra_defaults: vec![(dpu_net::RP2P_SVC.to_string(), rp2p)],
        ..repl_seq_opts(0)
    };
    (cfg, opts)
}

/// Worker threads for the simulator: with more than one, the
/// coordinating thread spins at every epoch barrier, so it counts as a
/// host thread next to them.
fn sim_workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// Threads a simulation with `workers` keeps busy.
fn sim_threads(workers: usize) -> usize {
    if workers == 1 {
        1
    } else {
        workers + 1
    }
}

/// Independent scenarios per second of `--seconds`, on seeds derived
/// from the run's: pooling them (24 at 20 s) puts 48 switches and about
/// 1200 broadcasts behind each percentile. One scenario takes about a
/// second on a 2-core Xeon VM.
const SCENARIOS_PER_S: f64 = 1.2;

/// The seed of sub-scenario `k` of a run with seed `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut x = seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407);
    dpu_bench::synth::splitmix(&mut x)
}

/// `sim_switch`: scenarios on derived seeds ([`SCENARIOS_PER_S`]), their
/// latency samples pooled and their wall and CPU time summed.
pub fn sim_switch(cfg: &RunCfg, b: &Build) -> Result<Outcome, String> {
    let workers = sim_workers(cfg.nproc);
    fit(sim_threads(workers), cfg.nproc)?;
    let shape = SimSwitchShape::BENCH;
    let scenarios = (cfg.seconds * SCENARIOS_PER_S).round().max(1.0) as u64;
    let reps: Vec<SwitchRep> = (0..scenarios)
        .map(|k| sim_switch_scenario(shape, sub_seed(cfg.seed, k), workers, b))
        .collect();
    let mut out = Outcome::default();
    let mut lat_us = Vec::new();
    let mut fingerprints = Vec::new();
    for r in reps.iter() {
        let o = &r.out;
        out.attempted += o.attempted;
        out.failed += o.failed;
        out.violations.extend(o.violations.iter().cloned());
        fingerprints.push(o.fingerprint.clone().unwrap_or_default());
        lat_us.extend_from_slice(&r.lat_us);
        let (a, x) = (&mut out.raw, &o.raw);
        a.ops += x.ops;
        a.cpu_s += x.cpu_s;
        a.packets += x.packets;
        a.bytes += x.bytes;
        a.retransmissions += x.retransmissions;
        a.steps += x.steps;
        a.events += x.events;
        a.shard_events.resize(x.shard_events.len(), 0);
        a.shard_events.iter_mut().zip(&x.shard_events).for_each(|(s, e)| *s += e);
        a.queued_peak = a.queued_peak.max(x.queued_peak);
        a.struct_bytes_per_stack = a.struct_bytes_per_stack.max(x.struct_bytes_per_stack);
        a.wire_allocs += x.wire_allocs;
        a.allocs += x.allocs;
        for (kind, hs) in &x.window_kinds {
            let acc = a.window_kinds.entry(kind.clone()).or_default();
            acc.iter_mut().zip(hs).for_each(|(s, h)| s.add(h));
        }
    }
    out.fingerprint = Some(fingerprints.join(" | "));
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < SETUP_REPS {
        let t0 = Instant::now();
        let (cfg, opts) = switch_config(shape, cfg.seed, workers);
        drop(b.host("sim.build", || group_sim(cfg, &opts, b)));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let run_s: f64 = reps.iter().map(|r| r.run_s).sum();
    let blackout = median(reps.iter().map(|r| r.blackout_ms).collect());
    out.raw.blackout_ms = blackout;
    let ops = out.raw.ops.max(1) as f64;
    out.e2e = vec![
        median(setups),
        ops / run_s,
        out.raw.cpu_s * 1e6 / ops,
        pct(&mut lat_us, 0.5),
        pct(&mut lat_us, 0.99),
        // Later scenarios reuse the first one's freed heap.
        reps[0].rss as f64 / f64::from(shape.n),
    ];
    out.info.push(("run_s".into(), "s", run_s));
    out.info.push(("vlat_p50_ms".into(), "ms", pct(&mut lat_us, 0.5) / 1e3));
    out.info.push(("vlat_p99_ms".into(), "ms", pct(&mut lat_us, 0.99) / 1e3));
    out.info.push(("vblackout_p50_ms".into(), "ms", blackout));
    out.info.push(("failed_frac".into(), "ratio", out.failed as f64 / out.attempted.max(1) as f64));
    out.info.push(("workers".into(), "count", workers as f64));
    Ok(out)
}

/// `sim_capacity`: stacks.
const CAP_N: u32 = 65536;
/// Virtual warm-up: one `LoadGen` period, so every stack is sending.
const CAP_WARM: Dur = Dur::millis(5);
/// Virtual milliseconds simulated per second of `--seconds`.
const CAP_MS_PER_S: f64 = 3.0;
/// Slices of the virtual window, each timed on its own.
const SLICES: u64 = 10;
/// One latency tap per this many stacks.
const TAP_STRIDE: u32 = 512;

/// A passive module on a sample of stacks: it sees every datagram the
/// stack's `LoadGen` receives and records its virtual delivery latency
/// from the send stamp `LoadGen` puts in the payload — the soak itself
/// runs with telemetry off, so this is the only latency probe.
#[derive(Default)]
struct Tap {
    lat_ns: Vec<u64>,
}

impl Module for Tap {
    fn kind(&self) -> &str {
        "tap"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(dpu_core::svc::NET)]
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op != net_ops::RECV {
            return;
        }
        if let Ok((_src, payload)) = resp.decode::<(StackId, Bytes)>() {
            if let Ok((send_ns, _pad)) = wire::from_bytes::<(u64, Bytes)>(&payload) {
                self.lat_ns.push(ctx.now().as_nanos().saturating_sub(send_ns));
            }
        }
    }
}

/// `sim_capacity`: the 65536-stack datagram soak of `BENCH_scale.json`
/// (telemetry off, one worker) over a fixed virtual window of
/// [`CAP_MS_PER_S`] per second of `--seconds`.
pub fn sim_capacity(cfg: &RunCfg, b: &Build) -> Result<Outcome, String> {
    fit(1, cfg.nproc)?;
    Ok(capacity_run(CAP_N, Dur::secs_f64(CAP_MS_PER_S * cfg.seconds / 1e3), cfg.seed, b))
}

/// The `sim_capacity` measurement at any size (the tests run it small).
pub fn capacity_run(n: u32, horizon: Dur, seed: u64, b: &Build) -> Outcome {
    alloc::enable();
    let rss0 = rss_bytes();
    let live0 = alloc::live_bytes();
    let t0 = Instant::now();
    let mut sim = b.host("sim.build", || datagram_soak_sim(n, seed, 1));
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let taps: Vec<StackId> = (0..n).step_by(TAP_STRIDE as usize).map(StackId).collect();
    let tap_ids: Vec<_> = taps
        .iter()
        .map(|&id| sim.with_stack(id, |s| s.add_module(Box::new(Tap::default()))))
        .collect();
    b.host("sim.run_until", || sim.run_until(ms(CAP_WARM)));

    let s0 = sim.stats();
    let calls0 = alloc::calls();
    let before = b.ledger().map(|l| l.snapshot());
    let (t0, cpu0) = (Instant::now(), cpu_s());
    let mut queued_peak = 0u64;
    // Per-slice rates, reported as medians: a slice the machine stole
    // time from shows up as one outlier, not as a shifted mean.
    let (mut rates, mut cpu_per_op) = (Vec::new(), Vec::new());
    for k in 1..=SLICES {
        let (w0, c0, d0) = (Instant::now(), cpu_s(), sim.stats().packets_delivered);
        let next = ms(CAP_WARM) + Dur::nanos(horizon.as_nanos() * k / SLICES);
        b.host("sim.run_until", || sim.run_until(next));
        queued_peak = queued_peak.max(sim.queued_events() as u64);
        let ops = (sim.stats().packets_delivered - d0).max(1) as f64;
        rates.push(ops / w0.elapsed().as_secs_f64());
        cpu_per_op.push((cpu_s() - c0) * 1e6 / ops);
    }
    let (run_s, cpu) = (t0.elapsed().as_secs_f64(), cpu_s() - cpu0);
    let calls = alloc::calls() - calls0;
    let window_kinds = match (b.ledger(), &before) {
        (Some(l), Some(bf)) => window(l, bf),
        _ => Default::default(),
    };
    let s1 = sim.stats();
    let rss = rss_bytes().saturating_sub(rss0);
    let heap = alloc::live_bytes() - live0;
    let struct_bytes = sim.mem_stats().bytes_per_stack as f64;

    let mut out = Outcome::default();
    // Datagram conservation: everything sent is delivered, dropped, or
    // still in flight (a subset of the queued events); and every
    // delivered datagram reached its LoadGen.
    let dropped = s1.dropped_loss + s1.dropped_partition;
    let accounted = s1.packets_delivered + dropped;
    if accounted > s1.packets_sent || s1.packets_sent - accounted > sim.queued_events() as u64 {
        out.violations.push(format!("datagram conservation broken: {}", stats_key(&s1)));
    }
    // A delivered datagram reaches LoadGen once its stack dispatches
    // the arrival; the rest are still queued in their stacks.
    let pending: u64 = (0..n).map(|i| sim.stack(StackId(i)).pending() as u64).sum();
    let received: u64 = (0..n)
        .map(|i| {
            sim.with_stack(StackId(i), |s| {
                s.modules()
                    .map(|(m, _)| m)
                    .collect::<Vec<_>>()
                    .into_iter()
                    .find_map(|m| s.with_module::<LoadGen, _>(m, |g| g.received()))
                    .unwrap_or(0)
            })
        })
        .sum();
    if received > s1.packets_delivered || s1.packets_delivered - received > pending {
        out.violations.push(format!(
            "LoadGen received {received} datagrams, the host delivered {} ({pending} pending)",
            s1.packets_delivered
        ));
    }
    let mut lat_us: Vec<f64> = Vec::new();
    for (&id, &tap) in taps.iter().zip(&tap_ids) {
        let l = sim.with_stack(id, |s| {
            s.with_module::<Tap, _>(tap, |t| std::mem::take(&mut t.lat_ns)).expect("tap present")
        });
        lat_us.extend(l.into_iter().map(|ns| ns as f64 / 1e3));
    }
    drop(sim);
    let leaked = alloc::live_bytes() - live0;
    if leaked > 1 << 20 {
        out.violations.push(format!("{leaked} bytes still live after dropping the simulation"));
    }
    while setups.len() < SETUP_REPS {
        let t0 = Instant::now();
        let sim = b.host("sim.build", || datagram_soak_sim(n, seed, 1));
        setups.push(t0.elapsed().as_secs_f64());
        drop(sim);
    }

    let ops = s1.packets_delivered - s0.packets_delivered;
    out.attempted = ops.max(1);
    let lat_bits: Vec<u64> = lat_us.iter().map(|v| v.to_bits()).collect();
    out.fingerprint = Some(format!("{} lat={:x}", stats_key(&s1), hash(&lat_bits)));
    out.e2e = vec![
        median(setups),
        median(rates),
        median(cpu_per_op),
        pct(&mut lat_us, 0.5),
        pct(&mut lat_us, 0.99),
        rss as f64 / f64::from(n),
    ];
    out.info.push(("run_s".into(), "s", run_s));
    out.info.push(("virtual_ms".into(), "ms", horizon.as_nanos() as f64 / 1e6));
    out.info.push(("dropped".into(), "count", dropped as f64));
    out.info.push(("latency_samples".into(), "count", lat_us.len() as f64));
    out.raw = Raw {
        ops,
        cpu_s: cpu,
        packets: s1.packets_sent - s0.packets_sent,
        bytes: s1.bytes_sent - s0.bytes_sent,
        steps: s1.steps - s0.steps,
        events: s1.events - s0.events,
        shard_events: s1
            .per_shard
            .iter()
            .zip(&s0.per_shard)
            .map(|(a, b)| a.events - b.events)
            .collect(),
        queued_peak,
        heap_bytes_per_stack: heap as f64 / f64::from(n),
        struct_bytes_per_stack: struct_bytes,
        allocs: calls,
        window_kinds,
        ..Default::default()
    };
    out
}
