//! The DPU end-to-end benchmark: four workloads across the three hosts
//! (`sim`, `runtime`, `reactor`), one result shape, and a traced mode
//! that breaks a run down per protocol module. See `README.md` for the
//! workloads, the metrics and how they map onto the layers.

pub mod alloc;
pub mod check;
pub mod ledger;
pub mod procfs;
pub mod workloads;

use ledger::{Ledger, Stat};
use std::collections::BTreeMap;

/// What a run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured window, wall seconds.
    pub seconds: f64,
    /// Usable cores (`available_parallelism`).
    pub nproc: usize,
}

/// The end-to-end metrics every workload reports, `(name, unit)`, in
/// output order. Their per-workload definitions are in `README.md`.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("rss_bytes_per_stack", "B"),
];

/// The module kinds the per-layer ledger breaks out.
pub const KINDS: [&str; 8] =
    ["udp", "rp2p", "fd", "consensus.ct", "abcast.ct", "abcast.seq", "abcast.hier", "repl.abcast"];

/// The per-layer metrics of a traced run, `(name, unit)`, in output
/// order; a layer a workload does not instantiate reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for k in KINDS {
        v.push((format!("{k}.ns_per_op"), "ns"));
        v.push((format!("{k}.calls_per_op"), "count"));
        v.push((format!("{k}.allocs_per_op"), "count"));
    }
    for (n, u) in [
        ("rp2p.retransmit_ratio", "ratio"),
        ("kernel.ns_per_op", "ns"),
        ("kernel.steps_per_op", "count"),
        ("alloc.per_op", "count"),
        ("wire.allocs_per_op", "count"),
        ("net.packets_per_op", "count"),
        ("net.bytes_per_op", "B"),
        ("sim.events_per_op", "count"),
        ("sim.available_parallelism", "ratio"),
        ("sim.ns_per_event", "ns"),
        ("sim.queued_events_peak", "count"),
        ("sim.heap_bytes_per_stack", "B"),
        ("sim.struct_bytes_per_stack", "B"),
        ("runtime.ctl_rtt_p50_us", "us"),
        ("runtime.ctl_rtt_p99_us", "us"),
        ("reactor.ctl_rtt_p50_us", "us"),
        ("reactor.ctl_rtt_p99_us", "us"),
        ("reactor.socket_loss_ratio", "ratio"),
        ("repl.blackout_p50_ms", "ms"),
        ("trace.overhead", "ratio"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Counters one run hands to the per-layer ledger (zero where the host
/// has no such counter).
#[derive(Clone, Debug, Default)]
pub struct Raw {
    /// Completed ops in the measured window (the per-op divisor).
    pub ops: u64,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    /// Packets the host sent over the window.
    pub packets: u64,
    /// Bytes the host sent over the window (sim only).
    pub bytes: u64,
    /// rp2p retransmissions over the run.
    pub retransmissions: u64,
    /// Stack steps over the window (sim only).
    pub steps: u64,
    /// Simulator events over the window, and per shard.
    pub events: u64,
    /// Per-shard simulator events over the window.
    pub shard_events: Vec<u64>,
    /// Largest `Sim::queued_events` seen between `run_until` slices.
    pub queued_peak: u64,
    /// Allocator-measured heap growth per stack (counting runs only).
    pub heap_bytes_per_stack: f64,
    /// `Sim::mem_stats` bytes per stack.
    pub struct_bytes_per_stack: f64,
    /// Wire scratch-pool allocations over the run.
    pub wire_allocs: u64,
    /// Process allocation calls over the window (counting runs only).
    pub allocs: u64,
    /// Socket datagrams handed to the kernel (reactor only).
    pub socket_sent: u64,
    /// Socket datagrams received (reactor only).
    pub socket_received: u64,
    /// Switch blackout p50, ms (wall or virtual per host).
    pub blackout_ms: f64,
    /// Per-kind handler totals over the window (traced runs only).
    pub window_kinds: BTreeMap<String, [Stat; 5]>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed (not delivered everywhere by the drain deadline,
    /// or never issued).
    pub failed: u64,
    /// The [`E2E`] values, in order.
    pub e2e: Vec<f64>,
    /// Workload-specific figures printed next to the end-to-end ones
    /// (`name`, unit, value).
    pub info: Vec<(String, &'static str, f64)>,
    /// Counters for the per-layer ledger.
    pub raw: Raw,
    /// Correctness violations; any makes the run exit non-zero.
    pub violations: Vec<String>,
    /// Sims only: every virtual-time result and counter, for the
    /// determinism and wrapper-transparency comparisons.
    pub fingerprint: Option<String>,
}

/// Per-kind handler totals since the ledger snapshot `before`.
pub fn window(
    ledger: &Ledger,
    before: &BTreeMap<String, [Stat; 5]>,
) -> BTreeMap<String, [Stat; 5]> {
    ledger
        .snapshot()
        .into_iter()
        .map(|(k, hs)| {
            let b = before.get(&k).copied().unwrap_or_default();
            let d = std::array::from_fn(|h| Stat {
                calls: hs[h].calls - b[h].calls,
                ns: hs[h].ns - b[h].ns,
                allocs: hs[h].allocs - b[h].allocs,
            });
            (k, d)
        })
        .collect()
}

/// Percentile (nearest rank) of unsorted samples; 0 when empty.
pub fn pct(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of a few repeated measurements.
pub fn median(mut v: Vec<f64>) -> f64 {
    pct(&mut v, 0.5)
}

/// The per-layer metrics of a traced run `t`, against the untraced run
/// `plain` of the same workload and seed; `sim` says whether the host
/// counts stack steps itself.
pub fn per_layer(
    plain: &Outcome,
    t: &Outcome,
    ledger: &Ledger,
    sim: bool,
) -> Vec<(String, &'static str, f64)> {
    let r = &t.raw;
    let ops = r.ops.max(1) as f64;
    let kinds: BTreeMap<&str, Stat> = r
        .window_kinds
        .iter()
        .map(|(k, hs)| {
            let mut s = Stat::default();
            hs.iter().for_each(|h| s.add(h));
            (k.as_str(), s)
        })
        .collect();
    let handler_ns: u64 = kinds.values().map(|s| s.ns).sum();
    let handler_calls: u64 = kinds.values().map(|s| s.calls).sum();
    let ctl = |name: &str, q: f64| ledger.host_stat(name).1.percentile(q) as f64 / 1e3;
    let mut vals: BTreeMap<String, f64> = BTreeMap::new();
    for k in KINDS {
        let s = kinds.get(k).copied().unwrap_or_default();
        vals.insert(format!("{k}.ns_per_op"), s.ns as f64 / ops);
        vals.insert(format!("{k}.calls_per_op"), s.calls as f64 / ops);
        vals.insert(format!("{k}.allocs_per_op"), s.allocs as f64 / ops);
    }
    let data_packets = r.packets.max(1) as f64;
    vals.insert("rp2p.retransmit_ratio".into(), r.retransmissions as f64 / data_packets);
    vals.insert("kernel.ns_per_op".into(), (r.cpu_s * 1e9 - handler_ns as f64).max(0.0) / ops);
    let steps = if sim { r.steps } else { handler_calls };
    vals.insert("kernel.steps_per_op".into(), steps as f64 / ops);
    vals.insert("alloc.per_op".into(), r.allocs as f64 / ops);
    vals.insert("wire.allocs_per_op".into(), r.wire_allocs as f64 / ops);
    vals.insert("net.packets_per_op".into(), r.packets as f64 / ops);
    vals.insert("net.bytes_per_op".into(), r.bytes as f64 / ops);
    vals.insert("sim.events_per_op".into(), r.events as f64 / ops);
    let max_shard = r.shard_events.iter().copied().max().unwrap_or(0);
    let par = if max_shard == 0 {
        0.0
    } else {
        r.shard_events.iter().sum::<u64>() as f64 / max_shard as f64
    };
    vals.insert("sim.available_parallelism".into(), par);
    vals.insert(
        "sim.ns_per_event".into(),
        if r.events == 0 { 0.0 } else { r.cpu_s * 1e9 / r.events as f64 },
    );
    vals.insert("sim.queued_events_peak".into(), r.queued_peak as f64);
    vals.insert("sim.heap_bytes_per_stack".into(), r.heap_bytes_per_stack);
    vals.insert("sim.struct_bytes_per_stack".into(), r.struct_bytes_per_stack);
    vals.insert("runtime.ctl_rtt_p50_us".into(), ctl("runtime.with_stack", 0.5));
    vals.insert("runtime.ctl_rtt_p99_us".into(), ctl("runtime.with_stack", 0.99));
    vals.insert("reactor.ctl_rtt_p50_us".into(), ctl("reactor.with_stack", 0.5));
    vals.insert("reactor.ctl_rtt_p99_us".into(), ctl("reactor.with_stack", 0.99));
    let lost = r.socket_sent.saturating_sub(r.socket_received) as f64;
    vals.insert(
        "reactor.socket_loss_ratio".into(),
        if r.socket_sent == 0 { 0.0 } else { lost / r.socket_sent as f64 },
    );
    vals.insert("repl.blackout_p50_ms".into(), r.blackout_ms);
    let cpu_op = |o: &Outcome| o.raw.cpu_s / o.raw.ops.max(1) as f64;
    vals.insert("trace.overhead".into(), cpu_op(t) / cpu_op(plain) - 1.0);
    per_layer_names()
        .into_iter()
        .map(|(n, u)| {
            let v = vals.remove(&n).expect("every per-layer metric computed");
            (n, u, v)
        })
        .collect()
}
