//! The socket transport: one shard whose stacks each own a nonblocking
//! UDP socket, with a [`NodeAddr`] peer table spanning the whole group.
//! **All** sends go through a real `send_to`, even stack-to-stack within
//! one reactor, so the loopback path is exercised end to end.

use crate::{stack_configs, sys, Counters, Egress, LiveHost, Mailbox, Route, Shard, Transport};
use bytes::Bytes;
use dpu_core::host::{ActionSink, HostEvent};
use dpu_core::telemetry::SocketCounters;
use dpu_core::time::Time;
use dpu_core::{Stack, StackConfig, StackId, TelemetryConfig};
use dpu_net::sockframe::FrameCodec;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The real-socket host: [`LiveHost`] over [`Udp`], one shard thread.
pub type Reactor = LiveHost<Udp>;

/// [`Reactor::stats`]' counters.
pub type ReactorStats = SocketCounters;

/// One row of the peer table: where a stack of the group lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeAddr {
    /// The stack.
    pub id: StackId,
    /// Its socket address (loopback in the demos, but any address
    /// works).
    pub addr: SocketAddr,
}

/// Configuration of a reactor: which slice of an `n`-stack group this
/// process hosts.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Total group size. Peer lists of the hosted stacks span the full
    /// group, exactly as under the other hosts.
    pub n: u32,
    /// The stacks hosted by *this* reactor (any subset of `0..n`).
    /// Each gets its own UDP socket on `bind_addr`.
    pub local: Vec<StackId>,
    /// Bind address for the local sockets; port 0 (the default via
    /// [`ReactorConfig::new`]) lets the OS pick. Actual addresses are
    /// reported by [`Reactor::local_addrs`].
    pub bind_addr: SocketAddr,
    /// Seed mixed into each stack's deterministic RNG stream.
    pub seed: u64,
    /// Probability of dropping an outbound datagram before `send_to`
    /// (fault injection; the wire itself is loopback-reliable, so this
    /// is how the demos exercise rp2p recovery).
    pub loss: f64,
    /// Record stack traces.
    pub trace: bool,
    /// Per-stack observability (histograms, switch timeline, flight
    /// recorder). On by default like under the other hosts.
    pub telemetry: TelemetryConfig,
}

impl ReactorConfig {
    /// Host `local` of an `n`-stack group on OS-assigned loopback
    /// ports, no fault injection.
    pub fn new(n: u32, local: Vec<StackId>) -> ReactorConfig {
        ReactorConfig {
            n,
            local,
            bind_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            seed: 0,
            loss: 0.0,
            trace: false,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Largest datagram the reactor accepts (the UDP maximum; the frag
/// module keeps real traffic far below this).
const RECV_BUF: usize = 64 * 1024;

/// The socket transport: executes drivers' `NetSend`s as real
/// [`SockFrame`](dpu_net::sockframe::SockFrame) datagrams and waits in
/// `epoll_wait`.
pub struct Udp {
    /// One socket per local stack, in local-index order.
    sockets: Vec<UdpSocket>,
    route: Arc<[Route]>,
    /// `StackId::idx() → SocketAddr` for the whole group.
    peers: Vec<Option<SocketAddr>>,
    codec: FrameCodec,
    egress: Egress,
    poller: sys::Poller,
    ready: Vec<u64>,
    buf: Vec<u8>,
}

impl ActionSink for Udp {
    fn net_send(&mut self, _at: Time, src: StackId, dst: StackId, payload: Bytes) {
        if !self.egress.admit() {
            return;
        }
        let Some(&Some(addr)) = self.peers.get(dst.idx()) else {
            crate::bump(&self.egress.stats.unroutable);
            return;
        };
        let frame = self.codec.encode(src, dst, &payload);
        // Sends leave the sender's own socket.
        let sock = self.route[src.idx()].map_or(0, |(_, local)| local as usize);
        // A full socket buffer or transient OS error is just packet
        // loss to the protocols above — counted, not escalated.
        if self.sockets[sock].send_to(&frame, addr).is_err() {
            crate::bump(&self.egress.stats.send_errors);
        }
    }
}

impl Transport for Udp {
    const HOST: &'static str = "reactor";
    const SOCKETS: bool = true;

    fn wait(shard: &mut Shard<Udp>, timeout: Option<Duration>) -> bool {
        let mut ready = std::mem::take(&mut shard.link.ready);
        if shard.link.poller.wait(&mut ready, timeout).is_err() {
            // An epoll failure is unrecoverable for the loop; stopping
            // (instead of looping on the error) at least lets shutdown
            // proceed.
            return false;
        }
        // One eventfd wake may stand for many posts: drain them all.
        if !shard.drain_mailbox(usize::MAX) {
            return false;
        }
        for &token in &ready {
            Udp::drain_socket(shard, token as usize);
        }
        shard.link.ready = ready;
        true
    }

    fn set_peer(&mut self, peer: NodeAddr) {
        if let Some(row) = self.peers.get_mut(peer.id.idx()) {
            *row = Some(peer.addr);
        }
    }
}

impl Udp {
    /// Read every queued datagram off one socket, decode, and run it
    /// through its destination driver.
    fn drain_socket(shard: &mut Shard<Udp>, sock: usize) {
        if shard.link.buf.is_empty() {
            // Allocated on the loop thread, off the path of `spawn`.
            shard.link.buf = vec![0; RECV_BUF];
        }
        loop {
            let link = &mut shard.link;
            let len = match link.sockets[sock].recv_from(&mut link.buf) {
                Ok((len, _from)) => len,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient receive errors (e.g. ICMP-reflected
                // ECONNREFUSED on loopback) are loss, not failure.
                Err(_) => continue,
            };
            // Socket input is untrusted: junk, truncation, corruption
            // and frames for stacks not hosted here are counted drops,
            // never panics.
            let Some(frame) = link.codec.decode(&link.buf[..len]) else {
                crate::bump(&link.egress.stats.malformed_dropped);
                continue;
            };
            let Some(&Some((_, local))) = link.route.get(frame.dst.idx()) else {
                crate::bump(&link.egress.stats.misdirected);
                continue;
            };
            crate::bump(&link.egress.stats.packets_received);
            // One packet, one full dispatch cascade — matching the sim
            // and the memory transport. Injecting a whole epoll batch
            // before polling would interleave the cascades of
            // consecutive packets in the stack's breadth-first queue,
            // letting a packet overtake the module-creation reactions
            // of the packet before it (fatal across a protocol switch).
            let packet = HostEvent::Packet { src: frame.src, payload: frame.payload };
            shard.inject(local as usize, packet);
        }
    }
}

impl LiveHost<Udp> {
    /// Bind one UDP socket per local stack, build the stacks with
    /// `mk_stack` (called on the spawning thread, in the order of
    /// `cfg.local`), and start the event-loop thread.
    ///
    /// The peer table starts with the local stacks' own (just-bound)
    /// addresses; remote peers are added with [`Reactor::set_peer`]
    /// after the processes exchange their [`Reactor::local_addrs`].
    pub fn spawn(
        cfg: ReactorConfig,
        mut mk_stack: impl FnMut(StackConfig) -> Stack,
    ) -> io::Result<Reactor> {
        let poller = sys::Poller::new()?;
        let mut route: Vec<Route> = vec![None; cfg.n as usize];
        let mut peers: Vec<Option<SocketAddr>> = vec![None; cfg.n as usize];
        let mut sockets = Vec::with_capacity(cfg.local.len());
        let mut local = Vec::with_capacity(cfg.local.len());
        let mut stacks = Vec::with_capacity(cfg.local.len());
        let config = stack_configs(cfg.n, cfg.seed, cfg.trace, cfg.telemetry);
        for (i, &id) in cfg.local.iter().enumerate() {
            let sock = UdpSocket::bind(cfg.bind_addr)?;
            sock.set_nonblocking(true)?;
            poller.register(sock.as_raw_fd(), i as u64)?;
            let addr = sock.local_addr()?;
            route[id.idx()] = Some((0, i as u32));
            peers[id.idx()] = Some(addr);
            local.push(NodeAddr { id, addr });
            sockets.push(sock);
            stacks.push(mk_stack(config(id)));
        }
        let route: Arc<[Route]> = route.into();
        let stats = Arc::new(Counters::default());
        let (tx, rx) = mpsc::channel();
        let mailbox = Mailbox { tx, waker: Some(poller.waker()) };
        let link = Udp {
            sockets,
            route: Arc::clone(&route),
            peers,
            codec: FrameCodec::new(),
            egress: Egress::new(&stats, cfg.loss, cfg.seed, 0),
            poller,
            ready: Vec::new(),
            buf: Vec::new(),
        };
        LiveHost::launch(vec![(stacks, rx, link)], vec![mailbox], route, stats, local)
    }

    /// The hosted stacks and the addresses their sockets actually
    /// bound (ports resolved), for exchanging with other processes.
    pub fn local_addrs(&self) -> &[NodeAddr] {
        &self.local
    }

    /// Insert or replace a peer-table row. Frames to unknown peers are
    /// counted as [`SocketCounters::unroutable`] and dropped, so peers
    /// may be added while traffic is already flowing.
    pub fn set_peer(&self, peer: NodeAddr) {
        self.mailboxes[0].post(crate::Msg::SetPeer(peer));
    }
}
