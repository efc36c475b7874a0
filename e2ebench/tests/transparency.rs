//! The traced run must measure the system it traces: wrapping every
//! module changes no observable result. Run with `cargo test --release`
//! (debug builds are slow at these sizes).

use dpu_core::time::Dur;
use dpu_core::{ModuleSpec, ServiceId, StackConfig};
use dpu_e2ebench::ledger::{traced_build, Build, Ledger};
use dpu_e2ebench::workloads::{capacity_run, sim_switch_scenario, SimSwitchShape};
use dpu_repl::builder::{self, specs, GroupStackOpts, SwitchLayer};

const SMALL: SimSwitchShape =
    SimSwitchShape { n: 64, cluster: 16, rate: 50.0, load_s: 1.5, loss: 0.0 };

fn opts(abcast: ModuleSpec, extra: Vec<(String, ModuleSpec)>) -> GroupStackOpts {
    GroupStackOpts {
        abcast,
        layer: SwitchLayer::Repl,
        probe_pad: Some(64),
        with_gm: false,
        extra_defaults: extra,
    }
}

#[test]
fn traced_stack_has_the_builders_kinds_ids_and_bindings() {
    let rp2p = ModuleSpec::with_params(
        "rp2p",
        &dpu_net::rp2p::Rp2pConfig { retransmit: Dur::millis(100), ..Default::default() },
    );
    let services = [
        "net",
        dpu_net::UDP_SVC,
        dpu_net::RP2P_SVC,
        dpu_protocols::FD_SVC,
        dpu_protocols::CONSENSUS_SVC,
        dpu_protocols::ABCAST_SVC,
    ];
    for o in [
        opts(specs::seq(0), Vec::new()),
        opts(specs::ct(0), Vec::new()),
        opts(specs::hier(0), vec![(dpu_net::RP2P_SVC.to_string(), rp2p)]),
    ] {
        let plain = builder::build(StackConfig::nth(3, 7, 1), &o);
        let traced = traced_build(StackConfig::nth(3, 7, 1), &o, &Ledger::new());
        let kinds = |s: &dpu_core::Stack| {
            s.modules().map(|(id, k)| (id, k.to_string())).collect::<Vec<_>>()
        };
        assert_eq!(kinds(&plain.stack), kinds(&traced.stack), "{:?}", o.abcast.kind);
        for svc in services.iter().map(ServiceId::new).chain([ServiceId::new("abcast").replaced()])
        {
            assert_eq!(plain.stack.bound(&svc), traced.stack.bound(&svc), "binding of {svc}");
        }
        let (p, t) = (&plain.handles, &traced.handles);
        assert_eq!(
            (&p.top_service, p.probe, p.layer, p.gm, p.abcast),
            (&t.top_service, t.probe, t.layer, t.gm, t.abcast)
        );
    }
}

#[test]
fn traced_sim_switch_is_bit_identical_to_untraced() {
    let ledger = Ledger::new();
    let plain = sim_switch_scenario(SMALL, 5, 1, &Build::Plain);
    let traced = sim_switch_scenario(SMALL, 5, 1, &Build::Traced(ledger.clone()));
    assert!(plain.out.violations.is_empty(), "{:?}", plain.out.violations);
    assert!(plain.out.attempted > 20);
    // Counters, latencies, blackout and per-stack delivery order.
    assert_eq!(plain.out.fingerprint, traced.out.fingerprint);
    let kinds = ledger.snapshot();
    for k in ["udp", "rp2p", "abcast.seq", "abcast.hier", "repl.abcast"] {
        let calls: u64 = kinds.get(k).map_or(0, |hs| hs.iter().map(|h| h.calls).sum());
        assert!(calls > 0, "{k} was not traced");
    }
}

#[test]
fn sim_workloads_repeat_at_a_seed_and_change_with_it() {
    let a = sim_switch_scenario(SMALL, 9, 1, &Build::Plain).out.fingerprint;
    let b = sim_switch_scenario(SMALL, 9, 1, &Build::Plain).out.fingerprint;
    let c = sim_switch_scenario(SMALL, 10, 1, &Build::Plain).out.fingerprint;
    assert_eq!(a, b);
    assert_ne!(a, c);

    let horizon = Dur::millis(2);
    let a = capacity_run(4096, horizon, 9, &Build::Plain);
    let b = capacity_run(4096, horizon, 9, &Build::Plain);
    let c = capacity_run(4096, horizon, 10, &Build::Plain);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_ne!(a.fingerprint, c.fingerprint);
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let named = |n: &str| json.contains(&format!("\"name\": \"{n}\""));
    for w in dpu_e2ebench::workloads::NAMES {
        assert!(named(w), "workload {w}");
    }
    for (m, u) in dpu_e2ebench::E2E {
        assert!(named(m) && json.contains(&format!("\"unit\": \"{u}\"")), "metric {m}");
    }
    for (m, _) in dpu_e2ebench::per_layer_names() {
        assert!(named(&m), "per-layer metric {m}");
    }
}
