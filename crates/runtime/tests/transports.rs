//! The live host's behaviour suite, run on both transports: every test
//! below is instantiated once over [`Memory`] (two shards) and once
//! over [`Udp`] (one reactor shard, real loopback sockets).

use bytes::Bytes;
use dpu_core::stack::{net_ops, FactoryRegistry, ModuleCtx};
use dpu_core::telemetry::TelemetryAggregate;
use dpu_core::time::Dur;
use dpu_core::wire::{Encode, ScratchStats};
use dpu_core::{
    Call, Module, ModuleId, Response, ServiceId, Stack, StackConfig, StackId, TimerId,
    TransportStats,
};
use dpu_runtime::{
    LiveHost, Memory, Reactor, ReactorConfig, Runtime, RuntimeConfig, Transport, Udp,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How a test spawns `n` stacks with send-side `loss` on a transport.
trait Spawn: Transport {
    fn group(n: u32, loss: f64, mk: fn(StackConfig) -> Stack) -> LiveHost<Self>;
}

impl Spawn for Memory {
    fn group(n: u32, loss: f64, mk: fn(StackConfig) -> Stack) -> Runtime {
        Runtime::spawn(RuntimeConfig { loss, ..RuntimeConfig::new(n).with_shards(2) }, mk)
    }
}

impl Spawn for Udp {
    fn group(n: u32, loss: f64, mk: fn(StackConfig) -> Stack) -> Reactor {
        let cfg = ReactorConfig { loss, ..ReactorConfig::new(n, (0..n).map(StackId).collect()) };
        Reactor::spawn(cfg, mk).expect("bind loopback sockets")
    }
}

/// Counts datagrams; replies "pong" to any "ping".
struct PingPong {
    got: Vec<(StackId, Bytes)>,
}

impl Module for PingPong {
    fn kind(&self) -> &str {
        "pingpong"
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
        let (src, data): (StackId, Bytes) = resp.decode().unwrap();
        if data.as_ref() == b"ping" {
            let reply = (src, Bytes::from_static(b"pong")).to_bytes();
            ctx.call(&ServiceId::new(dpu_core::svc::NET), net_ops::SEND, reply);
        }
        self.got.push((src, data));
    }
}

/// Beats five times on a 10 ms timer.
struct TimerBeat {
    beats: u32,
}

impl Module for TimerBeat {
    fn kind(&self) -> &str {
        "beat"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.set_timer(Dur::millis(10), 1);
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
        self.beats += 1;
        if self.beats < 5 {
            ctx.set_timer(Dur::millis(10), 1);
        }
    }
}

/// In every test stack here: net bridge is module 1, the test module
/// is module 2.
const M: ModuleId = ModuleId(2);

fn mk(sc: StackConfig) -> Stack {
    let mut s = Stack::new(sc, FactoryRegistry::new());
    s.add_module(Box::new(PingPong { got: vec![] }));
    s
}

fn mk_beat(sc: StackConfig) -> Stack {
    let mut s = Stack::new(sc, FactoryRegistry::new());
    s.add_module(Box::new(TimerBeat { beats: 0 }));
    s
}

fn ping<T: Transport>(host: &LiveHost<T>, from: u32, to: u32) {
    let data = (StackId(to), Bytes::from_static(b"ping")).to_bytes();
    host.with_stack(StackId(from), move |s| {
        s.call_as(M, &ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data)
    });
}

fn got<T: Transport>(host: &LiveHost<T>, node: u32) -> Vec<(StackId, Bytes)> {
    host.with_stack(StackId(node), |s| s.with_module::<PingPong, _>(M, |p| p.got.clone()).unwrap())
}

fn has_pong(got: &[(StackId, Bytes)]) -> bool {
    got.iter().any(|(_, d)| d.as_ref() == b"pong")
}

fn wait_until(what: &str, limit: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !done() {
        assert!(Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn ping_pong_roundtrip<T: Spawn>() {
    let host = T::group(2, 0.0, mk);
    ping(&host, 0, 1);
    wait_until("pong", Duration::from_secs(5), || {
        got(&host, 0).iter().any(|(src, d)| *src == StackId(1) && d.as_ref() == b"pong")
    });
    assert!(host.stats().packets_sent >= 2);
    host.shutdown();
}

fn many_stacks_multiplex<T: Spawn>() {
    let n = 32u32;
    let host = T::group(n, 0.0, mk);
    // Every stack pings its successor; every stack must see a pong.
    for i in 0..n {
        ping(&host, i, (i + 1) % n);
    }
    wait_until("a 32-stack ping ring", Duration::from_secs(10), || {
        (0..n).all(|i| has_pong(&got(&host, i)))
    });
    assert_eq!(host.shutdown().len(), n as usize);
}

fn timers_fire_in_real_time<T: Spawn>() {
    let host = T::group(1, 0.0, mk_beat);
    wait_until("five timer beats", Duration::from_secs(5), || {
        host.with_stack(StackId(0), |s| s.with_module::<TimerBeat, _>(M, |b| b.beats).unwrap()) >= 5
    });
    host.shutdown();
}

fn loss_model_drops_packets<T: Spawn>() {
    let host = T::group(2, 1.0, mk);
    ping(&host, 0, 1);
    std::thread::sleep(Duration::from_millis(100));
    assert!(got(&host, 1).is_empty());
    let stats = host.stats();
    assert!(stats.packets_sent > 0);
    assert_eq!(stats.packets_dropped, stats.packets_sent);
    host.shutdown();
}

fn drop_without_shutdown_stops_threads<T: Spawn>() {
    let host = T::group(8, 0.0, mk);
    ping(&host, 0, 1);
    // Drop joins the shard threads; completing (not hanging) is the
    // assertion.
    drop(host);
}

fn shutdown_returns_final_stacks_in_id_order<T: Spawn>() {
    let stacks = T::group(5, 0.0, mk).shutdown();
    assert_eq!(stacks.len(), 5);
    for (i, s) in stacks.iter().enumerate() {
        assert_eq!(s.id(), StackId(i as u32));
    }
}

fn bad_id_panics_in_the_caller_and_the_host_survives<T: Spawn>() {
    let host = T::group(2, 0.0, mk);
    let err = catch_unwind(AssertUnwindSafe(|| host.with_stack(StackId(7), |s| s.id())))
        .expect_err("a stack the host does not host must panic");
    let msg = err.downcast_ref::<String>().expect("formatted panic message");
    assert!(msg.contains("stack 7"), "panic names the id: {msg}");
    for i in 0..2 {
        assert_eq!(host.with_stack(StackId(i), |s| s.id()), StackId(i));
    }
    host.shutdown();
}

fn reports_fold_the_per_stack_readings<T: Spawn>() {
    let n = 6u32;
    let host = T::group(n, 0.0, mk);
    for i in 0..n {
        ping(&host, i, (i + 1) % n);
    }
    wait_until("every pong", Duration::from_secs(10), || (0..n).all(|i| has_pong(&got(&host, i))));
    // Quiesced: no timers, every ping answered. Read each stack through
    // `with_stack`, then the per-shard folds.
    let mut transport = TransportStats::default();
    let mut telemetry = TelemetryAggregate::new();
    let mut wire = ScratchStats::default();
    for i in 0..n {
        let (t, part, w) = host.with_stack(StackId(i), |s| {
            let mut part = TelemetryAggregate::new();
            part.absorb(s.telemetry());
            (s.transport_stats(), part, s.wire_stats())
        });
        transport.absorb(t);
        telemetry.merge(&part);
        // `with_stack` loans the shard's encode pool to the stack, so
        // this reads the pool; count it once per shard (stacks 0 and 1
        // live on different memory shards, and on the one reactor
        // shard only stack 0 counts).
        if i < host.shards() {
            wire.absorb(w);
        }
    }
    assert!(wire.emitted >= 2 * u64::from(n), "every ping and pong was encoded: {wire:?}");
    assert_eq!(host.transport_stats(), transport);
    assert_eq!(host.wire_stats(), wire);
    let report = host.telemetry_report();
    let mut expected = telemetry.report(T::HOST, n, report.now_ns);
    expected.wire = wire.into();
    expected.transport = transport.into();
    expected.sockets = T::SOCKETS.then(|| host.stats());
    assert_eq!(report, expected);
    // One flight recorder per stack, in id order.
    let dump = host.dump_flight_recorders();
    let at = |i: u32| dump.find(&format!("[stack {i}]")).expect("every stack's recorder");
    assert!((1..n).all(|i| at(i - 1) < at(i)), "{dump}");
    host.shutdown();
}

macro_rules! on_both_transports {
    ($($test:ident),* $(,)?) => {
        mod memory {
            $( #[test] fn $test() { super::$test::<dpu_runtime::Memory>() } )*
        }
        mod udp {
            $( #[test] fn $test() { super::$test::<dpu_runtime::Udp>() } )*
        }
    };
}

on_both_transports!(
    ping_pong_roundtrip,
    many_stacks_multiplex,
    timers_fire_in_real_time,
    loss_model_drops_packets,
    drop_without_shutdown_stops_threads,
    shutdown_returns_final_stacks_in_id_order,
    bad_id_panics_in_the_caller_and_the_host_survives,
    reports_fold_the_per_stack_readings,
);

#[test]
fn delay_is_a_delivery_timestamp_not_a_sleep() {
    // The packet waits on the receiving shard's wheel, not in a
    // sleeping thread: a control round-trip through the same (single)
    // shard must complete in a fraction of the delay. Generous margins
    // (2 s delay, 1 s bound) so a preempted CI runner does not flake
    // the property.
    let mut cfg = RuntimeConfig::new(2).with_shards(1);
    cfg.delay = Dur::secs(2);
    let rt = Runtime::spawn(cfg, mk);
    ping(&rt, 0, 1);
    let t0 = Instant::now();
    let got_now = got(&rt, 1).len();
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "shard stalled on packet delay: control round-trip took {:?}",
        t0.elapsed()
    );
    // Only meaningful if we actually read back before the delivery
    // time (a preempted runner could legitimately deliver by now).
    if t0.elapsed() < Duration::from_secs(2) {
        assert_eq!(got_now, 0, "packet must not arrive before its delivery time");
    }
    // The packet still arrives once its timestamp is due.
    wait_until("the delayed packet", Duration::from_secs(15), || !got(&rt, 1).is_empty());
    rt.shutdown();
}
