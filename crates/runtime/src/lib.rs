//! # dpu-runtime — the live host for DPU stacks
//!
//! Runs the same [`Stack`]s as the deterministic simulator under the
//! wall clock, driving each exclusively through [`dpu_core::host`], so
//! protocol modules cannot tell which host — or which transport — runs
//! them. One host handle, [`LiveHost`], over two [`Transport`]s:
//!
//! * [`Runtime`] = `LiveHost<`[`Memory`]`>`: a few shard threads
//!   multiplex any number of in-process stacks; a send is a post to the
//!   destination shard's mailbox, stamped `now + delay`.
//! * [`Reactor`] = `LiveHost<`[`Udp`]`>`: one shard thread whose stacks
//!   each own a nonblocking UDP socket, so a group can span OS
//!   processes; it waits in `epoll_wait` (see [`sys`]).
//!
//! ```no_run
//! use dpu_core::{Stack, StackConfig, FactoryRegistry};
//! use dpu_runtime::{Runtime, RuntimeConfig};
//!
//! let rt = Runtime::spawn(RuntimeConfig::new(256).with_shards(4), |sc| {
//!     Stack::new(sc, FactoryRegistry::new())
//! });
//! // interact via rt.with_stack(...), then:
//! rt.shutdown();
//! ```
//!
//! Each [`Shard`] owns its stacks' [`StackDriver`]s, a `std::sync::mpsc`
//! mailbox (control closures, report folds, shutdown and — on the memory
//! transport — packets), a deadline wheel of driver wakes and
//! delivery-timestamped packets, and the encode pool and dispatch
//! buffer loaned to whichever driver runs (see
//! [`Stack::swap_scratch`](dpu_core::stack::Stack::swap_scratch)), so
//! retained memory scales with shards, not stacks. Its loop fires due
//! wheel entries, then lets the transport wait until the next deadline.
//! Reports post one fold per shard: O(shards) messages.
//!
//! Since real threads race, runs are *not* reproducible — use `dpu-sim`
//! for experiments, this host for live demos, soaks and groups that
//! span processes.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod memory;
pub mod sys;
mod udp;

pub use memory::{Memory, Runtime, RuntimeConfig, RuntimeStats};
pub use udp::{NodeAddr, Reactor, ReactorConfig, ReactorStats, Udp};

use bytes::Bytes;
use dpu_core::host::{ActionSink, ControlFn, HostEvent, StackDriver, Wakeup};
use dpu_core::stack::DispatchBuf;
use dpu_core::telemetry::{SocketCounters, TelemetryAggregate, TelemetryReport};
use dpu_core::time::Time;
use dpu_core::wire::{ScratchStats, WireScratch};
use dpu_core::{Stack, StackConfig, StackId, TelemetryConfig, TransportStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a [`LiveHost`] needs from its network: the send path (the
/// drivers' [`ActionSink`]) and the wait for input.
pub trait Transport: ActionSink + Send + Sized + 'static {
    /// The host label of [`LiveHost::telemetry_report`].
    const HOST: &'static str;
    /// Whether the report carries the socket counters block.
    const SOCKETS: bool;

    /// Block until input arrives or `timeout` passes (`None`: no
    /// deadline), and feed the input to `shard`. Returns `false` when
    /// the shard must stop.
    fn wait(shard: &mut Shard<Self>, timeout: Option<Duration>) -> bool;

    /// Insert or replace a peer-table row (a no-op without sockets).
    fn set_peer(&mut self, _peer: NodeAddr) {}
}

/// Where a stack of the group runs: `(shard, index within the shard)`,
/// or `None` when another process hosts it.
type Route = Option<(u32, u32)>;

/// A shard to start: its stacks, its mailbox and its transport.
type ShardParts<T> = (Vec<Stack>, Receiver<Msg>, T);

/// Reports fold one closure per shard over its drivers and pool.
type FoldFn = Box<dyn FnOnce(&[StackDriver], &WireScratch) + Send>;

enum Msg {
    /// Deliver `payload` from `src` to local driver `local` once the
    /// wall clock reaches `at` (the sender already applied the loss
    /// model). Memory transport only.
    Deliver { local: usize, src: StackId, payload: Bytes, at: Time },
    /// Run a closure against a local driver (by index); the closure
    /// sends its own reply.
    Ctl(usize, ControlFn),
    /// Fold the shard's drivers and pool into a report part.
    Fold(FoldFn),
    /// Insert/replace a peer-table row.
    SetPeer(NodeAddr),
    /// Stop the shard and return its stacks.
    Stop,
}

/// The posting half of a shard's mailbox, with the waker of a shard
/// that parks in `epoll_wait` instead of on the channel.
#[derive(Clone)]
struct Mailbox {
    tx: Sender<Msg>,
    waker: Option<sys::Waker>,
}

impl Mailbox {
    /// Returns `false` if the shard has stopped.
    fn post(&self, msg: Msg) -> bool {
        let sent = self.tx.send(msg).is_ok();
        if let Some(w) = &self.waker {
            w.wake();
        }
        sent
    }
}

/// The network counters of a live host: [`SocketCounters`], updated
/// from every shard.
#[derive(Default)]
struct Counters {
    packets_sent: AtomicU64,
    packets_dropped: AtomicU64,
    unroutable: AtomicU64,
    send_errors: AtomicU64,
    malformed_dropped: AtomicU64,
    misdirected: AtomicU64,
    packets_received: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, SeqCst);
}

/// The send-side half every transport shares: counting and the
/// injected loss model.
struct Egress {
    stats: Arc<Counters>,
    loss: f64,
    rng: u64,
}

impl Egress {
    /// Shard `shard`'s egress, on its own xorshift stream.
    fn new(stats: &Arc<Counters>, loss: f64, seed: u64, shard: usize) -> Egress {
        let rng = seed ^ (shard as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Egress { stats: Arc::clone(stats), loss, rng }
    }

    /// Count one send and sample the loss model: `false` drops it.
    fn admit(&mut self) -> bool {
        // SeqCst, and every drop counted after its send, pairs with the
        // dropped-before-sent load order of `LiveHost::stats` to keep
        // its snapshot monotonic.
        bump(&self.stats.packets_sent);
        if self.loss > 0.0 && self.next_rand() < self.loss {
            bump(&self.stats.packets_dropped);
            return false;
        }
        true
    }

    fn next_rand(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An entry on a shard's deadline wheel: `(time, seq, item)` in a
/// min-heap, FIFO among equal times (like the simulator's heap). The
/// sequence number is unique, so items are never compared.
type WheelEntry = Reverse<(Time, u64, WheelItem)>;

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum WheelItem {
    /// Poll local driver `usize`; stale if its stamp moved (see
    /// [`Shard::next_wake`]).
    Wake(usize),
    /// A packet whose modeled delivery time had not arrived when it
    /// reached the shard.
    Deliver { local: usize, src: StackId, payload: Bytes },
}

/// One shard thread: a set of drivers, a mailbox, a deadline wheel and
/// a transport. Opaque outside this crate; [`Transport::wait`] receives
/// it to feed its input in.
pub struct Shard<T> {
    drivers: Vec<StackDriver>,
    /// Scheduled wheel wake time per local driver. A wheel `Wake` whose
    /// time differs from the stamp is stale and is skipped; the stamp
    /// moves whenever a nearer deadline is scheduled, so cancelled and
    /// superseded wakeups purge themselves on pop.
    next_wake: Vec<Option<Time>>,
    wheel: BinaryHeap<WheelEntry>,
    wheel_seq: u64,
    mailbox: Receiver<Msg>,
    link: T,
    start: Instant,
    /// The shard-level encode-buffer pool, loaned to whichever driver
    /// runs.
    pool: WireScratch,
    /// The shard-level dispatch-queue buffer, loaned alongside the
    /// encode pool: cascade burst capacity scales with shards too.
    qpool: DispatchBuf,
}

impl<T: Transport> Shard<T> {
    fn now(&self) -> Time {
        Time(self.start.elapsed().as_nanos() as u64)
    }

    fn run(mut self) -> Vec<Stack> {
        // Service the stacks' start-up work (on_start handlers).
        for i in 0..self.drivers.len() {
            self.poll_driver(i);
        }
        loop {
            self.fire_wheel(self.now());
            // Wait until the earliest wheel deadline — or indefinitely
            // when the wheel is empty, so an idle shard burns no CPU.
            // Shutdown never relies on a timeout: `LiveHost::shutdown`
            // and its `Drop` both post an explicit `Stop`.
            let timeout =
                self.wheel.peek().map(|Reverse((at, _, _))| at.since(self.now()).to_std());
            if !T::wait(&mut self, timeout) {
                break;
            }
        }
        self.drivers.into_iter().map(StackDriver::into_stack).collect()
    }

    /// Handle up to `limit` queued mailbox messages without blocking.
    /// Returns `false` on `Stop` or when every sender is gone.
    fn drain_mailbox(&mut self, limit: usize) -> bool {
        for _ in 0..limit {
            match self.mailbox.try_recv() {
                Ok(msg) => {
                    if !self.handle(msg) {
                        return false;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
        true
    }

    /// Returns `false` on `Stop`.
    fn handle(&mut self, msg: Msg) -> bool {
        match msg {
            Msg::Deliver { local, src, payload, at } => {
                // Always through the wheel, even when already due: the
                // wheel pops by (stamp, arrival seq), so a due packet
                // cannot overtake an earlier-stamped one still parked
                // there (per-sender FIFO survives `delay`).
                self.push_wheel(at, WheelItem::Deliver { local, src, payload });
            }
            // The closure runs at the start of the poll, under the loan
            // (it may encode), and any work it queues runs right after.
            Msg::Ctl(local, f) => self.inject(local, HostEvent::Control(f)),
            Msg::Fold(f) => f(&self.drivers, &self.pool),
            Msg::SetPeer(p) => self.link.set_peer(p),
            Msg::Stop => return false,
        }
        true
    }

    fn fire_wheel(&mut self, now: Time) {
        while self.wheel.peek().is_some_and(|Reverse((at, _, _))| *at <= now) {
            let Reverse((at, _, item)) = self.wheel.pop().expect("peeked");
            match item {
                WheelItem::Wake(local) => {
                    if self.next_wake[local] != Some(at) {
                        continue; // stale: superseded by a nearer wake
                    }
                    self.next_wake[local] = None;
                    self.poll_driver(local);
                }
                WheelItem::Deliver { local, src, payload } => {
                    self.inject(local, HostEvent::Packet { src, payload })
                }
            }
        }
    }

    /// Hand an event to a local driver and run its dispatch cascade.
    fn inject(&mut self, local: usize, ev: HostEvent) {
        self.drivers[local].inject(ev);
        self.poll_driver(local);
    }

    /// Run one driver's canonical drive loop and keep a wheel wake
    /// scheduled at its next deadline.
    fn poll_driver(&mut self, local: usize) {
        let now = self.now();
        // The drive loop dispatches module handlers, which encode.
        if let Wakeup::At(at) = self.loaned(local, |d, link| d.poll(now, link)) {
            if self.next_wake[local].is_none_or(|w| at < w) {
                self.next_wake[local] = Some(at);
                self.push_wheel(at, WheelItem::Wake(local));
            }
        }
    }

    /// Run `f` on a local driver with the shard's encode pool and
    /// dispatch buffer loaned to its stack.
    fn loaned<R>(&mut self, local: usize, f: impl FnOnce(&mut StackDriver, &mut T) -> R) -> R {
        let d = &mut self.drivers[local];
        d.swap_scratch(&mut self.pool);
        d.swap_queue(&mut self.qpool);
        let r = f(d, &mut self.link);
        d.swap_scratch(&mut self.pool);
        d.swap_queue(&mut self.qpool);
        r
    }

    fn push_wheel(&mut self, at: Time, item: WheelItem) {
        let seq = self.wheel_seq;
        self.wheel_seq += 1;
        self.wheel.push(Reverse((at, seq, item)));
    }
}

/// One shard's share of the host-wide reports.
#[derive(Default)]
struct Reading {
    telemetry: TelemetryAggregate,
    wire: ScratchStats,
    transport: TransportStats,
}

impl Reading {
    fn of(drivers: &[StackDriver], pool: &WireScratch) -> Reading {
        let mut r = Reading { wire: pool.stats(), ..Reading::default() };
        for d in drivers {
            let s = d.stack();
            r.telemetry.absorb(s.telemetry());
            // Each stack's resident scratch is a residual: zero under
            // the loan discipline, kept so an encode outside a loan
            // still counts.
            r.wire.absorb(s.wire_stats());
            r.transport.absorb(s.transport_stats());
        }
        r
    }
}

/// The live host: a handle on the shard threads of one transport. See
/// the crate docs; [`Runtime`] and [`Reactor`] are its instantiations.
pub struct LiveHost<T> {
    mailboxes: Vec<Mailbox>,
    route: Arc<[Route]>,
    threads: Vec<JoinHandle<Vec<Stack>>>,
    start: Instant,
    stats: Arc<Counters>,
    /// The sockets of the hosted stacks (empty on the memory
    /// transport).
    local: Vec<NodeAddr>,
    transport: PhantomData<fn() -> T>,
}

/// The [`StackConfig`]s of an `n`-stack group on a live host, by id.
fn stack_configs(
    n: u32,
    seed: u64,
    trace: bool,
    telemetry: TelemetryConfig,
) -> impl Fn(StackId) -> StackConfig {
    let peers = StackConfig::peer_table(n);
    // No topology model: one flat cluster, which locality-aware
    // protocols degenerate to.
    move |id| StackConfig {
        id,
        peers: Arc::clone(&peers),
        seed,
        trace,
        cluster_size: None,
        telemetry,
    }
}

impl<T: Transport> LiveHost<T> {
    /// Start one thread per entry of `shards` (its stacks, mailbox and
    /// transport); `mailboxes` and `route` address them.
    fn launch(
        shards: Vec<ShardParts<T>>,
        mailboxes: Vec<Mailbox>,
        route: Arc<[Route]>,
        stats: Arc<Counters>,
        local: Vec<NodeAddr>,
    ) -> io::Result<LiveHost<T>> {
        let start = Instant::now();
        let mut host = LiveHost {
            mailboxes,
            route,
            threads: Vec::with_capacity(shards.len()),
            start,
            stats,
            local,
            transport: PhantomData,
        };
        for (s, (stacks, mailbox, link)) in shards.into_iter().enumerate() {
            let shard = Shard {
                next_wake: vec![None; stacks.len()],
                drivers: stacks.into_iter().map(StackDriver::new).collect(),
                wheel: BinaryHeap::new(),
                wheel_seq: 0,
                mailbox,
                link,
                start,
                pool: WireScratch::shard_pool(),
                qpool: DispatchBuf::new(),
            };
            // On error the partial host drops, stopping the shards
            // already started.
            let t = std::thread::Builder::new()
                .name(format!("dpu-{}-{s}", T::HOST))
                .spawn(move || shard.run())?;
            host.threads.push(t);
        }
        Ok(host)
    }

    /// Total group size (stacks hosted here or elsewhere).
    pub fn n(&self) -> u32 {
        self.route.len() as u32
    }

    /// Number of shard threads.
    pub fn shards(&self) -> u32 {
        self.mailboxes.len() as u32
    }

    /// Wall-clock time since the host started, as virtual [`Time`] (the
    /// same clock the shards stamp events with).
    pub fn now(&self) -> Time {
        Time(self.start.elapsed().as_nanos() as u64)
    }

    /// Aggregate network counters. The socket-edge fields stay zero on
    /// the memory transport. The snapshot is monotonic
    /// (`packets_dropped <= packets_sent` always holds): `dropped` is
    /// loaded first and every drop increment is sequenced after its
    /// send increment, all SeqCst.
    pub fn stats(&self) -> SocketCounters {
        let c = &self.stats;
        let packets_dropped = c.packets_dropped.load(SeqCst);
        SocketCounters {
            packets_sent: c.packets_sent.load(SeqCst),
            packets_dropped,
            unroutable: c.unroutable.load(SeqCst),
            send_errors: c.send_errors.load(SeqCst),
            malformed_dropped: c.malformed_dropped.load(SeqCst),
            misdirected: c.misdirected.load(SeqCst),
            packets_received: c.packets_received.load(SeqCst),
        }
    }

    /// Run a closure against the stack of node `id` (on its owning
    /// shard) and return the result. Blocks until the shard services
    /// the request.
    ///
    /// Panics, in the caller, if this host does not host `id`.
    ///
    /// Must be called from *outside* the host's shard threads. A call
    /// issued from code already running on a shard (e.g. inside another
    /// `with_stack` closure) targeting a stack of that same shard would
    /// wait on the very thread that is executing it — a self-deadlock.
    pub fn with_stack<R: Send + 'static>(
        &self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        let Some(&Some((shard, local))) = self.route.get(id.idx()) else {
            panic!("stack {} is not hosted by this {}", id.0, T::HOST);
        };
        let (tx, rx) = mpsc::sync_channel(1);
        let ctl: ControlFn = Box::new(move |s| {
            let _ = tx.send(f(s));
        });
        assert!(self.mailboxes[shard as usize].post(Msg::Ctl(local as usize, ctl)), "shard alive");
        rx.recv().expect("shard replies")
    }

    /// Fold every shard's drivers and pool with `f`: one message per
    /// shard, all posted before the first reply is awaited.
    fn fold<A: Send + 'static>(
        &self,
        f: fn(&[StackDriver], &WireScratch) -> A,
    ) -> impl Iterator<Item = A> {
        let replies: Vec<_> = self
            .mailboxes
            .iter()
            .map(|mb| {
                let (tx, rx) = mpsc::sync_channel(1);
                let fold: FoldFn = Box::new(move |drivers, pool| {
                    let _ = tx.send(f(drivers, pool));
                });
                assert!(mb.post(Msg::Fold(fold)), "shard alive");
                rx
            })
            .collect();
        replies.into_iter().map(|rx| rx.recv().expect("shard replies"))
    }

    fn reading(&self) -> Reading {
        self.fold(Reading::of).fold(Reading::default(), |mut total, part| {
            total.telemetry.merge(&part.telemetry);
            total.wire.absorb(part.wire);
            total.transport.absorb(part.transport);
            total
        })
    }

    /// Aggregate [`ScratchStats`] over the host: the shard-level pools,
    /// where every encode lands under the loan discipline, plus each
    /// stack's resident scratch as a residual. The steady-state
    /// allocation oracle of the live message path.
    ///
    /// Like [`LiveHost::with_stack`], must be called from outside the
    /// shard threads.
    pub fn wire_stats(&self) -> ScratchStats {
        self.reading().wire
    }

    /// Aggregate [`TransportStats`] over the hosted stacks — the health
    /// of the reliable transport under the live loss model (rp2p
    /// retransmissions, frames given up after the retransmit cap,
    /// current unacked backlog).
    ///
    /// Like [`LiveHost::with_stack`], must be called from outside the
    /// shard threads.
    pub fn transport_stats(&self) -> TransportStats {
        self.reading().transport
    }

    /// Unified telemetry snapshot across the hosted stacks: the
    /// histogram families and switch-phase timeline plus wire and
    /// transport counters, and on the socket transport the
    /// [`SocketCounters`] as its `sockets` block. Shape-identical to
    /// `Sim::telemetry_report`.
    ///
    /// Like [`LiveHost::with_stack`], must be called from outside the
    /// shard threads.
    pub fn telemetry_report(&self) -> TelemetryReport {
        let r = self.reading();
        let hosted = self.route.iter().flatten().count() as u32;
        let mut report = r.telemetry.report(T::HOST, hosted, self.now().as_nanos());
        report.wire = r.wire.into();
        report.transport = r.transport.into();
        report.sockets = T::SOCKETS.then(|| self.stats());
        report
    }

    /// Dump every hosted stack's flight recorder (most recent events,
    /// oldest first, with drop counts), in stack-id order — the
    /// postmortem a failing soak or crashed child process prints.
    ///
    /// Like [`LiveHost::with_stack`], must be called from outside the
    /// shard threads.
    pub fn dump_flight_recorders(&self) -> String {
        let mut chunks: Vec<(StackId, String)> = self
            .fold(|drivers, _| {
                let dump = |d: &StackDriver| {
                    let s = d.stack();
                    let mut buf = String::new();
                    s.telemetry().dump_flight(&format!("stack {}", s.id().0), &mut buf);
                    (s.id(), buf)
                };
                drivers.iter().map(dump).collect::<Vec<_>>()
            })
            .flatten()
            .collect();
        chunks.sort_by_key(|(id, _)| *id);
        chunks.into_iter().map(|(_, chunk)| chunk).collect()
    }

    /// Stop all shard threads and return the hosted stacks in id order
    /// (for post-hoc trace inspection).
    pub fn shutdown(mut self) -> Vec<Stack> {
        for mb in &self.mailboxes {
            mb.post(Msg::Stop);
        }
        let mut stacks: Vec<Stack> = std::mem::take(&mut self.threads)
            .into_iter()
            .flat_map(|t| t.join().expect("shard thread"))
            .collect();
        stacks.sort_by_key(Stack::id);
        stacks
    }
}

impl<T> Drop for LiveHost<T> {
    fn drop(&mut self) {
        // Every memory shard's router holds senders to every mailbox, so
        // shards never observe disconnection on their own; stop them
        // explicitly so dropping a host without `shutdown()` (e.g. on a
        // test panic) does not leak the shard threads. After
        // `shutdown()` the receivers are gone and these posts fail
        // harmlessly.
        for mb in &self.mailboxes {
            mb.post(Msg::Stop);
        }
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
    }
}
