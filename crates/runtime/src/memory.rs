//! The in-memory transport: stacks of one process, spread round-robin
//! over shard threads, with the shards' mailboxes as the network.

use crate::{stack_configs, Counters, Egress, LiveHost, Mailbox, Msg, Route, Shard, Transport};
use bytes::Bytes;
use dpu_core::host::ActionSink;
use dpu_core::telemetry::SocketCounters;
use dpu_core::time::{Dur, Time};
use dpu_core::{Stack, StackConfig, StackId, TelemetryConfig};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// The sharded in-process host: [`LiveHost`] over [`Memory`].
pub type Runtime = LiveHost<Memory>;

/// [`Runtime::stats`]' counters (the socket-edge fields stay zero).
pub type RuntimeStats = SocketCounters;

/// Configuration of the sharded runtime.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of stacks.
    pub n: u32,
    /// Number of shard (worker) threads multiplexing the stacks.
    /// `0` (the default) picks `min(n, available_parallelism)`; an
    /// explicit count is capped to `n` (a shard with no stacks would
    /// just idle).
    pub shards: u32,
    /// Seed mixed into each stack's deterministic RNG stream.
    pub seed: u64,
    /// Probability of dropping an in-flight packet (fault injection for
    /// soak tests; uses an internal xorshift generator).
    pub loss: f64,
    /// Artificial per-packet delivery delay. Applied as a delivery
    /// *timestamp* on the receiving shard's deadline wheel — no thread
    /// sleeps, so delay on one packet never stalls other stacks.
    pub delay: Dur,
    /// Record stack traces.
    pub trace: bool,
    /// Per-stack observability (histograms, switch timeline, flight
    /// recorder). On by default like under the simulator.
    pub telemetry: TelemetryConfig,
}

impl RuntimeConfig {
    /// `n` stacks with no fault injection, shard count picked
    /// automatically.
    pub fn new(n: u32) -> RuntimeConfig {
        RuntimeConfig {
            n,
            shards: 0,
            seed: 0,
            loss: 0.0,
            delay: Dur::ZERO,
            trace: false,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Set the shard-thread count (builder style). Capped to `n` at
    /// spawn time; see [`RuntimeConfig::shards`].
    pub fn with_shards(mut self, shards: u32) -> RuntimeConfig {
        self.shards = shards;
        self
    }

    fn effective_shards(&self) -> u32 {
        let auto = || {
            let cores =
                std::thread::available_parallelism().map(|p| p.get() as u32).unwrap_or(4).max(1);
            self.n.clamp(1, cores)
        };
        match self.shards {
            0 => auto(),
            s => s.min(self.n.max(1)),
        }
    }
}

/// Upper bound on mailbox messages handled between wheel checks, so a
/// flood of packets cannot starve due timers or delivery-timestamp
/// ordering.
const DRAIN_BATCH: usize = 128;

/// The in-memory transport: executes a driver's `NetSend`s by routing
/// each packet to the destination stack's shard, stamped with its
/// delivery time `now + delay` — per-packet latency costs no thread any
/// sleep, so one slow link never stalls the other stacks of a shard.
pub struct Memory {
    route: Arc<[Route]>,
    mailboxes: Vec<Sender<Msg>>,
    delay: Dur,
    egress: Egress,
}

impl ActionSink for Memory {
    fn net_send(&mut self, at: Time, src: StackId, dst: StackId, payload: Bytes) {
        if !self.egress.admit() {
            return;
        }
        let Some(&Some((shard, local))) = self.route.get(dst.idx()) else {
            crate::bump(&self.egress.stats.unroutable);
            return;
        };
        // Ignore send errors: the destination shard may have shut down.
        let _ = self.mailboxes[shard as usize].send(Msg::Deliver {
            local: local as usize,
            src,
            payload,
            at: at + self.delay,
        });
    }
}

impl Transport for Memory {
    const HOST: &'static str = "runtime";
    const SOCKETS: bool = false;

    fn wait(shard: &mut Shard<Memory>, timeout: Option<Duration>) -> bool {
        // Park on the mailbox: every wakeup other than a wheel deadline
        // arrives as a message.
        let msg = match timeout {
            Some(t) => match shard.mailbox.recv_timeout(t) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => return true,
                Err(RecvTimeoutError::Disconnected) => return false,
            },
            None => match shard.mailbox.recv() {
                Ok(msg) => msg,
                Err(_) => return false,
            },
        };
        shard.handle(msg) && shard.drain_mailbox(DRAIN_BATCH)
    }
}

impl LiveHost<Memory> {
    /// Spawn `cfg.n` stacks multiplexed over `cfg.shards` worker
    /// threads, stack `i` on shard `i % shards`. `mk_stack` builds each
    /// stack from its [`StackConfig`] (called on the spawning thread,
    /// in stack-id order).
    pub fn spawn(cfg: RuntimeConfig, mut mk_stack: impl FnMut(StackConfig) -> Stack) -> Runtime {
        let k = cfg.effective_shards();
        let route: Arc<[Route]> = (0..cfg.n).map(|i| Some((i % k, i / k))).collect();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..k).map(|_| mpsc::channel()).unzip();
        let mut stacks: Vec<Vec<Stack>> = (0..k).map(|_| Vec::new()).collect();
        let config = stack_configs(cfg.n, cfg.seed, cfg.trace, cfg.telemetry);
        for i in 0..cfg.n {
            stacks[(i % k) as usize].push(mk_stack(config(StackId(i))));
        }
        let stats = Arc::new(Counters::default());
        let shards = stacks
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(s, (stacks, rx))| {
                let link = Memory {
                    route: Arc::clone(&route),
                    mailboxes: txs.clone(),
                    delay: cfg.delay,
                    egress: Egress::new(&stats, cfg.loss, cfg.seed, s),
                };
                (stacks, rx, link)
            })
            .collect();
        let mailboxes = txs.into_iter().map(|tx| Mailbox { tx, waker: None }).collect();
        LiveHost::launch(shards, mailboxes, route, stats, Vec::new()).expect("spawn shard thread")
    }
}
