//! Live-runtime integration tests: the same stacks the simulator proves
//! correct run on OS threads with the wall clock, and the dynamic
//! protocol update works there too (the paper's cluster experiment in
//! miniature). Wall-clock tests are kept short and generous with
//! deadlines to stay robust on loaded CI machines.

use dpu::repl::builder::{group, request_change, send_probe, specs, GroupStackOpts, SwitchLayer};
use dpu::runtime::{Runtime, RuntimeConfig};
use dpu_core::abcast_check::AbcastChecker;
use dpu_core::probe::Probe;
use dpu_core::{ModuleId, StackId};
use dpu_repl::abcast_repl::ReplAbcastModule;
use std::time::{Duration, Instant};

fn opts() -> GroupStackOpts {
    GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(8),
        with_gm: false,
        extra_defaults: Vec::new(),
    }
}

fn wait_for_deliveries(rt: &Runtime, probe: ModuleId, n: u32, count: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let done = (0..n).all(|node| {
            rt.with_stack(StackId(node), move |s| {
                s.with_module::<Probe, _>(probe, |p| p.delivered().len()).expect("probe")
            }) >= count
        });
        if done {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {count} deliveries");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn live_switch_preserves_total_order_across_shards() {
    // 3 full Figure-4 stacks multiplexed on 2 shard threads.
    let (rt, h) = group(&opts(), |mk| Runtime::spawn(RuntimeConfig::new(3).with_shards(2), mk));
    let probe = h.probe.unwrap();
    let layer = h.layer.unwrap();

    std::thread::sleep(Duration::from_millis(200));
    for node in 0..3 {
        send_probe(&rt, StackId(node), &h);
    }
    wait_for_deliveries(&rt, probe, 3, 3);

    // Live switch, with messages racing it.
    request_change(&rt, StackId(1), &h, &specs::seq(1));
    for node in 0..3 {
        send_probe(&rt, StackId(node), &h);
    }
    wait_for_deliveries(&rt, probe, 3, 6);

    // Every stack switched exactly once and the four ABcast properties
    // hold on the recorded probe logs.
    let mut checker = AbcastChecker::new((0..3).map(StackId));
    for node in 0..3 {
        let sn = rt.with_stack(StackId(node), move |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| m.seq_number()).expect("repl")
        });
        assert_eq!(sn, 1, "stack {node}");
        let (sent, delivered) = rt.with_stack(StackId(node), move |s| {
            s.with_module::<Probe, _>(probe, |p| (p.sent().to_vec(), p.delivered().to_vec()))
                .expect("probe")
        });
        for (msg, t) in sent {
            checker.record_broadcast(msg, StackId(node), t);
        }
        for rec in delivered {
            checker.record_delivery(rec.msg, StackId(node), rec.delivered_at);
        }
    }
    checker.assert_ok();
    rt.shutdown();
}

#[test]
fn live_stack_survives_lossy_network() {
    let mut cfg = RuntimeConfig::new(3);
    cfg.loss = 0.10;
    let (rt, h) = group(&opts(), |mk| Runtime::spawn(cfg, mk));
    let probe = h.probe.unwrap();

    std::thread::sleep(Duration::from_millis(200));
    for round in 0..4 {
        for node in 0..3 {
            send_probe(&rt, StackId(node), &h);
        }
        wait_for_deliveries(&rt, probe, 3, (round + 1) * 3);
    }
    let stats = rt.stats();
    assert!(stats.packets_dropped > 0, "loss model must have fired");
    rt.shutdown();
}
