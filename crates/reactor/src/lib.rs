//! # dpu-reactor — the live host on real UDP sockets
//!
//! The socket half of `dpu-runtime`'s one live host:
//! [`Reactor`] = `LiveHost<Udp>`, one epoll-driven shard thread whose
//! stacks each own a nonblocking UDP socket, so a protocol group can
//! span OS processes. The same shard loop, reports and control plane
//! serve the in-memory [`dpu_runtime::Runtime`]; only the transport
//! differs. See `dpu_runtime`'s crate docs.
//!
//! The raw `epoll`/`eventfd` FFI is [`sys`], which holds all the
//! `unsafe` of the live host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dpu_runtime::{sys, NodeAddr, Reactor, ReactorConfig, ReactorStats};
