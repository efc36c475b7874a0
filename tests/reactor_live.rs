//! Live protocol switch across *two reactors* — the in-process version
//! of the two-OS-process demo (`cross_switch_net`). Eight full
//! group-communication stacks are split 4/4 between two epoll-backed
//! reactors; every inter-stack message crosses a real loopback UDP
//! socket (even stack-to-stack traffic inside one reactor is sent
//! through its socket). Mid-traffic, a non-sequencer stack requests
//! `changeABcast(seq(1))`; afterwards every stack must have switched
//! exactly once, drained, and delivered the same messages in the same
//! order — the paper's Figure-4 scenario over a real transport.

use dpu::reactor::{Reactor, ReactorConfig};
use dpu::repl::builder::{
    group, request_change, send_probe, specs, GroupStackOpts, Handles, SwitchLayer,
};
use dpu_core::probe::Probe;
use dpu_core::StackId;
use dpu_repl::abcast_repl::ReplAbcastModule;
use std::time::{Duration, Instant};

const N: u32 = 8;

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let limit = Instant::now() + deadline;
    loop {
        if done() {
            return;
        }
        assert!(Instant::now() < limit, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn live_switch_across_two_reactors_over_loopback_udp() {
    let opts = GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    // Reactor A hosts stacks 0..4, reactor B hosts 4..8. A injects 2%
    // send-side loss so the switch also rides rp2p recovery.
    let mut cfg_a = ReactorConfig::new(N, (0..N / 2).map(StackId).collect());
    cfg_a.loss = 0.02;
    cfg_a.seed = 11;
    let (ra, h) = group(&opts, |mk| Reactor::spawn(cfg_a, mk));
    let ra = ra.expect("spawn reactor a");
    let cfg_b = ReactorConfig::new(N, (N / 2..N).map(StackId).collect());
    let (rb, hb) = group(&opts, |mk| Reactor::spawn(cfg_b, mk));
    let rb = rb.expect("spawn reactor b");
    // Construction is deterministic: both halves get identical handles.
    assert_eq!(h.probe, hb.probe);
    assert_eq!(h.layer, hb.layer);

    // The rendezvous two OS processes would do over a file: exchange
    // bound addresses and install them in each other's peer tables.
    for &na in ra.local_addrs() {
        rb.set_peer(na);
    }
    for &na in rb.local_addrs() {
        ra.set_peer(na);
    }

    let probe = h.probe.expect("probe");
    let layer = h.layer.expect("repl layer");
    let host = |node: u32| if node < N / 2 { &ra } else { &rb };
    let delivered = |node: u32| {
        host(node).with_stack(StackId(node), move |s| {
            s.with_module::<Probe, _>(probe, |p| p.delivered().len()).expect("probe")
        })
    };
    let all_delivered = |count: usize| (0..N).all(|node| delivered(node) >= count);

    // Phase 1: probes from both reactors, totally ordered everywhere.
    for node in [1, 6] {
        send_probe(host(node), StackId(node), &h);
    }
    wait_until("phase-1 deliveries on all 8 stacks", Duration::from_secs(60), || all_delivered(2));

    // The live switch, requested from a non-sequencer stack on reactor
    // B — the request itself crosses the loopback socket to reach the
    // sequencer on reactor A.
    request_change(&rb, StackId(5), &h, &specs::seq(1));
    for node in [2, 7] {
        send_probe(host(node), StackId(node), &h);
    }
    wait_until("post-switch deliveries on all 8 stacks", Duration::from_secs(60), || {
        all_delivered(4)
    });

    // Every stack applied exactly one switch and drained.
    for node in 0..N {
        let (sn, undelivered) = host(node).with_stack(StackId(node), move |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| (m.seq_number(), m.undelivered_len()))
                .expect("repl layer")
        });
        let side = if node < N / 2 { "a" } else { "b" };
        assert_eq!(sn, 1, "stack {node} (reactor {side}) must have switched exactly once");
        assert_eq!(undelivered, 0, "stack {node} (reactor {side}) must have no stuck messages");
    }

    // Uniform total order across both reactors.
    let log = |node: u32, h: &Handles| {
        let probe = h.probe.expect("probe");
        host(node).with_stack(StackId(node), move |s| {
            s.with_module::<Probe, _>(probe, |p| {
                p.delivered().iter().map(|r| r.msg).collect::<Vec<dpu_core::abcast_check::MsgId>>()
            })
            .expect("probe")
        })
    };
    let reference = log(0, &h);
    assert_eq!(reference.len(), 4);
    for node in 1..N {
        assert_eq!(log(node, &h), reference, "stack {node} diverged from the total order");
    }

    // The loss model fired and rp2p recovered through the real socket.
    assert!(ra.stats().packets_sent > 0 && rb.stats().packets_sent > 0);
    let a_stacks = ra.shutdown();
    let b_stacks = rb.shutdown();
    assert_eq!(a_stacks.len() + b_stacks.len(), N as usize);
}
