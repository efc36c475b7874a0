//! The traced run's instruments: a transparent [`Module`] wrapper that
//! times every handler of a protocol module from the outside, spans
//! around the host entries the benchmark calls, and a Chrome trace-event
//! export of both.
//!
//! Aggregates count every call. Raw spans are sampled (every
//! [`SAMPLE_EVERY`]-th handler call per module, at most [`MAX_SPANS`]
//! overall) and written when the run ends.

use crate::alloc;
use dpu_bench::JsonWriter;
use dpu_core::probe::Probe;
use dpu_core::stack::ModuleCtx;
use dpu_core::telemetry::Histogram;
use dpu_core::{
    Call, FactoryRegistry, Module, ServiceId, Stack, StackConfig, TimerId, TransportStats,
};
use dpu_protocols::abcast::ops as ab_ops;
use dpu_repl::abcast_repl::{ReplAbcastModule, ReplParams};
use dpu_repl::builder::{self, BuiltStack, GroupStackOpts, Handles, SwitchLayer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Handler names, indexed as in [`Stat`] arrays.
pub const HANDLERS: [&str; 5] = ["start", "call", "response", "timer", "stop"];
/// One raw span is kept per this many handler calls of a module.
pub const SAMPLE_EVERY: u64 = 64;
/// Cap on raw spans kept in memory.
pub const MAX_SPANS: i64 = 200_000;

/// Every module kind `repl::builder::registry()` registers; each factory
/// is wrapped in the traced registry.
pub const REGISTRY_KINDS: [&str; 16] = [
    "udp",
    "frag",
    "rp2p",
    "fd",
    "consensus.ct",
    "consensus.offset",
    "abcast.ct",
    "abcast.seq",
    "abcast.ring",
    "abcast.hier",
    "repl.abcast",
    "maestro",
    "graceful",
    "gm",
    "rb",
    "omega",
];

/// Count, time and allocations of one handler (or host entry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stat {
    /// Invocations.
    pub calls: u64,
    /// Wall nanoseconds inside them.
    pub ns: u64,
    /// Allocation calls made inside them (counting allocator).
    pub allocs: u64,
}

impl Stat {
    /// Add another figure to this one.
    pub fn add(&mut self, o: &Stat) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.allocs += o.allocs;
    }
}

struct Span {
    name: String,
    cat: &'static str,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Live counters of one module kind: `[calls, ns, allocs]` per handler.
type KindSlot = [[AtomicU64; 3]; 5];

#[derive(Default)]
struct Book {
    kinds: BTreeMap<String, Arc<KindSlot>>,
    hosts: BTreeMap<&'static str, (Stat, Histogram)>,
    spans: Vec<Span>,
}

/// Shared sink of one traced run.
pub struct Ledger {
    epoch: Instant,
    span_budget: AtomicI64,
    book: Mutex<Book>,
}

fn thread_tag() -> u64 {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! { static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed); }
    TAG.with(|t| *t)
}

impl Ledger {
    /// A fresh ledger; span timestamps count from now.
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger {
            epoch: Instant::now(),
            span_budget: AtomicI64::new(MAX_SPANS),
            book: Mutex::new(Book::default()),
        })
    }

    fn book(&self) -> std::sync::MutexGuard<'_, Book> {
        self.book.lock().expect("ledger lock poisoned by a panicking handler")
    }

    fn take_span_slot(&self) -> bool {
        self.span_budget.fetch_sub(1, Ordering::Relaxed) > 0
    }

    /// Time one host entry (`with_stack`, `run_until`, ...) the
    /// benchmark makes.
    pub fn host<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::thread_allocs();
        let t0 = Instant::now();
        let r = f();
        let dur = t0.elapsed().as_nanos() as u64;
        let allocs = alloc::thread_allocs() - a0;
        let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
        let span = self.take_span_slot().then(|| Span {
            name: name.to_string(),
            cat: "host",
            tid: thread_tag(),
            start_ns,
            dur_ns: dur,
        });
        let mut book = self.book();
        let (stat, hist) = book.hosts.entry(name).or_default();
        stat.add(&Stat { calls: 1, ns: dur, allocs });
        hist.record(dur);
        book.spans.extend(span);
        r
    }

    fn slot(&self, kind: &str) -> Arc<KindSlot> {
        Arc::clone(self.book().kinds.entry(kind.to_string()).or_default())
    }

    /// Per-kind, per-handler totals so far (workloads difference two
    /// snapshots around their measured window).
    pub fn snapshot(&self) -> BTreeMap<String, [Stat; 5]> {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        self.book()
            .kinds
            .iter()
            .map(|(k, slot)| {
                let hs = std::array::from_fn(|h| Stat {
                    calls: ld(&slot[h][0]),
                    ns: ld(&slot[h][1]),
                    allocs: ld(&slot[h][2]),
                });
                (k.clone(), hs)
            })
            .collect()
    }

    /// One host entry's aggregate and duration histogram (ns).
    pub fn host_stat(&self, name: &str) -> (Stat, Histogram) {
        self.book().hosts.get(name).cloned().unwrap_or_default()
    }

    /// Write a window's per-handler figures and the host entries as a
    /// human-readable table (stderr).
    pub fn print_table(&self, window: &BTreeMap<String, [Stat; 5]>, ops: u64) {
        let ops = ops.max(1) as f64;
        eprintln!(
            "{:<28} {:>12} {:>12} {:>12}",
            "module.handler", "calls/op", "ns/op", "allocs/op"
        );
        for (kind, hs) in window {
            for (h, s) in HANDLERS.iter().zip(hs) {
                if s.calls > 0 {
                    eprintln!(
                        "{:<28} {:>12.3} {:>12.1} {:>12.3}",
                        format!("{kind}.{h}"),
                        s.calls as f64 / ops,
                        s.ns as f64 / ops,
                        s.allocs as f64 / ops
                    );
                }
            }
        }
        for (name, (s, hist)) in &self.book().hosts {
            eprintln!(
                "host {:<23} {:>12} calls {:>10.1} us/call p50 {:>8.1} us p99 {:>8.1} us",
                name,
                s.calls,
                s.ns as f64 / s.calls.max(1) as f64 / 1e3,
                hist.percentile(0.5) as f64 / 1e3,
                hist.percentile(0.99) as f64 / 1e3
            );
        }
    }

    /// Write every kept span as Chrome trace-event JSON (open it in
    /// Perfetto or `chrome://tracing`).
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let book = self.book();
        let mut w = JsonWriter::new();
        w.begin_obj().key("traceEvents").begin_arr();
        for s in &book.spans {
            w.elem()
                .begin_obj()
                .field_str("name", &s.name)
                .field_str("cat", s.cat)
                .field_str("ph", "X")
                .field_f64("ts", s.start_ns as f64 / 1e3, 3)
                .field_f64("dur", s.dur_ns as f64 / 1e3, 3)
                .field_u64("pid", 1)
                .field_u64("tid", s.tid)
                .end_obj();
        }
        w.end_arr().field_str("displayTimeUnit", "ns").end_obj();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, w.finish())
    }
}

/// A protocol module behind a timing shim. Every trait method delegates
/// to the wrapped module unchanged; the handlers are timed and their
/// allocations counted, and the totals go to the [`Ledger`]'s shared
/// per-kind counters as they happen.
pub struct Traced {
    inner: Box<dyn Module>,
    kind: String,
    slot: Arc<KindSlot>,
    calls: u64,
    ledger: Arc<Ledger>,
}

impl Traced {
    /// Wrap `inner`, reporting to `ledger`.
    pub fn new(inner: Box<dyn Module>, ledger: &Arc<Ledger>) -> Traced {
        let kind = inner.kind().to_string();
        Traced { slot: ledger.slot(&kind), inner, kind, calls: 0, ledger: Arc::clone(ledger) }
    }

    fn timed(&mut self, h: usize, f: impl FnOnce(&mut dyn Module)) {
        let a0 = alloc::thread_allocs();
        let t0 = Instant::now();
        f(&mut *self.inner);
        let dur = t0.elapsed().as_nanos() as u64;
        let allocs = alloc::thread_allocs() - a0;
        let [calls, ns, allocd] = &self.slot[h];
        calls.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add(dur, Ordering::Relaxed);
        allocd.fetch_add(allocs, Ordering::Relaxed);
        self.calls += 1;
        if self.calls % SAMPLE_EVERY == 1 && self.ledger.take_span_slot() {
            self.ledger.book().spans.push(Span {
                name: format!("{}.{}", self.kind, HANDLERS[h]),
                cat: "module",
                tid: thread_tag(),
                start_ns: t0.duration_since(self.ledger.epoch).as_nanos() as u64,
                dur_ns: dur,
            });
        }
    }
}

impl Module for Traced {
    fn kind(&self) -> &str {
        self.inner.kind()
    }
    fn provides(&self) -> Vec<ServiceId> {
        self.inner.provides()
    }
    fn requires(&self) -> Vec<ServiceId> {
        self.inner.requires()
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.timed(0, |m| m.on_start(ctx));
    }
    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        self.timed(1, |m| m.on_call(ctx, call));
    }
    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: dpu_core::Response) {
        self.timed(2, |m| m.on_response(ctx, resp));
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, timer: TimerId, tag: u64) {
        self.timed(3, |m| m.on_timer(ctx, timer, tag));
    }
    fn on_stop(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.timed(4, |m| m.on_stop(ctx));
    }
    fn transport_stats(&self) -> Option<TransportStats> {
        self.inner.transport_stats()
    }
}

/// `repl::builder::registry()` with every factory wrapped in [`Traced`],
/// so modules created later (a live switch's new abcast and its
/// default providers) are traced too.
pub fn traced_registry(ledger: &Arc<Ledger>) -> FactoryRegistry {
    let inner = Arc::new(Mutex::new(builder::registry()));
    let mut reg = FactoryRegistry::new();
    for kind in REGISTRY_KINDS {
        assert!(
            inner.lock().expect("registry lock").contains(kind),
            "builder registry lost kind {kind}"
        );
        let inner = Arc::clone(&inner);
        let ledger = Arc::clone(ledger);
        reg.register(kind, move |spec| {
            let m = inner.lock().expect("registry lock").build(spec).expect("registered kind");
            Box::new(Traced::new(m, &ledger)) as Box<dyn Module>
        });
    }
    reg
}

/// The Figure-4 stack of [`builder::build`], assembled from the traced
/// registry, with the switch layer wrapped too and the probe left bare
/// (the benchmark downcasts it). Supports the options the benchmark
/// uses: the Repl layer, with or without a probe, no GM.
pub fn traced_build(sc: StackConfig, opts: &GroupStackOpts, ledger: &Arc<Ledger>) -> BuiltStack {
    assert!(opts.layer == SwitchLayer::Repl && !opts.with_gm, "unsupported traced options");
    let mut stack = Stack::new(sc, traced_registry(ledger));
    stack.set_default_provider(ServiceId::new(dpu_net::UDP_SVC), dpu_core::ModuleSpec::new("udp"));
    stack
        .set_default_provider(ServiceId::new(dpu_net::RP2P_SVC), dpu_core::ModuleSpec::new("rp2p"));
    stack.set_default_provider(
        ServiceId::new(dpu_protocols::FD_SVC),
        dpu_core::ModuleSpec::new("fd"),
    );
    stack.set_default_provider(
        ServiceId::new(dpu_protocols::CONSENSUS_SVC),
        dpu_core::ModuleSpec::new(dpu_protocols::consensus::KIND_CT),
    );
    for (svc, spec) in &opts.extra_defaults {
        stack.set_default_provider(ServiceId::new(svc), spec.clone());
    }
    let abcast_svc = ServiceId::new(dpu_protocols::ABCAST_SVC);
    let abcast = stack.install(&opts.abcast).expect("install abcast");
    let repl = Traced::new(Box::new(ReplAbcastModule::new(ReplParams::default())), ledger);
    let layer = stack.add_module(Box::new(repl));
    stack.bind(&abcast_svc.replaced(), layer);
    let top_service = abcast_svc.replaced();
    let probe = opts.probe_pad.map(|pad| {
        stack.add_module(Box::new(Probe::new(
            top_service.clone(),
            ab_ops::ABCAST,
            ab_ops::ADELIVER,
            pad,
        )))
    });
    BuiltStack {
        stack,
        handles: Handles { top_service, probe, layer: Some(layer), gm: None, abcast },
    }
}

/// How a workload builds its stacks: plainly through
/// [`builder::build`], or traced.
#[derive(Clone)]
pub enum Build {
    /// The public builder, untouched.
    Plain,
    /// [`traced_build`] reporting to the ledger.
    Traced(Arc<Ledger>),
}

impl Build {
    /// Build one stack.
    pub fn stack(&self, sc: StackConfig, opts: &GroupStackOpts) -> BuiltStack {
        match self {
            Build::Plain => builder::build(sc, opts),
            Build::Traced(l) => traced_build(sc, opts, l),
        }
    }

    /// Time a host entry when tracing; run it bare otherwise.
    pub fn host<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self {
            Build::Plain => f(),
            Build::Traced(l) => l.host(name, f),
        }
    }

    /// The ledger, when tracing.
    pub fn ledger(&self) -> Option<&Arc<Ledger>> {
        match self {
            Build::Plain => None,
            Build::Traced(l) => Some(l),
        }
    }
}
