//! The four workloads. Each takes the run configuration and how to
//! build stacks (plain or traced) and returns an [`Outcome`].

mod live;
mod sim;

pub use live::{live_mem, live_udp};
pub use sim::{
    capacity_run, sim_capacity, sim_switch, sim_switch_scenario, sub_seed, SimSwitchShape,
};

use crate::ledger::Build;
use crate::{Outcome, RunCfg};
use dpu_core::abcast_check::MsgId;
use dpu_core::probe::DeliveryRecord;
use dpu_core::time::Time;
use dpu_core::{Stack, StackConfig, StackId};
use dpu_repl::builder::{specs, GroupStackOpts, Handles, SwitchLayer};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["live_mem", "live_udp", "sim_switch", "sim_capacity"];

/// Group constructions timed per run for `setup_s` (median reported):
/// a live group builds in well under a millisecond, so one sample is
/// mostly scheduler noise.
pub const SETUP_REPS: usize = 25;

/// Run workload `name`. `Err` for an unknown name or a run the host
/// cannot fit (more generator + host threads than cores).
pub fn run(name: &str, cfg: &RunCfg, b: &Build) -> Result<Outcome, String> {
    match name {
        "live_mem" => live_mem(cfg, b),
        "live_udp" => live_udp(cfg, b),
        "sim_switch" => sim_switch(cfg, b),
        "sim_capacity" => sim_capacity(cfg, b),
        other => Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
    }
}

/// The host-fit guard: refuse a run whose generator plus host threads
/// would outnumber the cores, where the threads would time-slice and
/// the figures would measure the scheduler instead of the system.
fn fit(threads: usize, nproc: usize) -> Result<(), String> {
    if threads > nproc {
        return Err(format!(
            "host-fit: this workload needs {threads} threads (generator + host) but only \
             {nproc} cores are available"
        ));
    }
    Ok(())
}

/// The Figure-4 stack with the paper's replacement layer over
/// `abcast.seq`, and a probe padding each broadcast by `pad` bytes.
fn repl_seq_opts(pad: usize) -> GroupStackOpts {
    GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(pad),
        with_gm: false,
        extra_defaults: Vec::new(),
    }
}

/// Build a group on one host: `spawn` is the host's constructor
/// (`Sim::new`, `Runtime::spawn`, `Reactor::spawn`), handed the per-stack
/// builder. Returns what `spawn` returned and the stacks' handles, which
/// are identical on every stack.
fn group<H>(
    b: &Build,
    opts: &GroupStackOpts,
    spawn: impl FnOnce(&mut dyn FnMut(StackConfig) -> Stack) -> H,
) -> (H, Handles) {
    let mut handles = None;
    let host = spawn(&mut |sc| {
        let built = b.stack(sc, opts);
        handles.get_or_insert(built.handles);
        built.stack
    });
    (host, handles.expect("at least one stack"))
}

/// Append a stack's delivery records to its delivery order.
fn record(deliveries: &mut [Vec<MsgId>], id: StackId, recs: &[DeliveryRecord]) {
    deliveries[id.idx()].extend(recs.iter().map(|r| r.msg));
}

/// Check a finished abcast run and fold the verdict into `out`. Failed
/// ops count as beyond every latency limit: each one sent inside the
/// measured `window` adds a sample `(sent, deadline − sent)` to `lat_us`.
fn settle(
    out: &mut Outcome,
    stacks: &[StackId],
    broadcasts: &[(MsgId, StackId, Time)],
    deliveries: &[Vec<MsgId>],
    (window, deadline): ((Time, Time), Time),
    lat_us: &mut Vec<(Time, f64)>,
) {
    let verdict = crate::check::check(stacks, broadcasts, deliveries);
    out.attempted = verdict.attempted;
    out.failed = verdict.failed.len() as u64;
    for (m, _, sent) in broadcasts {
        if verdict.failed.contains(m) && *sent >= window.0 && *sent < window.1 {
            lat_us.push((*sent, deadline.as_nanos().saturating_sub(sent.as_nanos()) as f64 / 1e3));
        }
    }
    out.violations.extend(verdict.violations);
}
