//! The provenance flight recorder: an always-on, bounded, lock-free,
//! per-thread log of structured trace events.
//!
//! Every estimation-path subsystem emits typed events here — span
//! open/close, estimation-cache probes (shard + epoch), ladder rung
//! choices, histogram class/spec consultations, WAL appends and
//! checkpoints, daemon sweeps and breaker transitions, and Q-error
//! drift crossings. Each event carries:
//!
//! * a **global sequence number** (one atomic counter), so events from
//!   different threads merge into one deterministic total order;
//! * a **causal span id** and its parent — allocated when a span opens,
//!   threaded through every instant event recorded inside it — so a
//!   cache miss can be traced to the exact `est_compute` span (and
//!   query) that caused it;
//! * a timestamp in nanoseconds relative to process start.
//!
//! # Recording discipline
//!
//! Each thread owns one bounded [`ArrayQueue`]; producers `force_push`,
//! so a hot thread can only ever evict *its own* oldest events and
//! recording never blocks or allocates a lock. Evictions are counted in
//! `trace_events_dropped_total`. When a thread exits, its ring is
//! drained into a bounded global retired buffer so short-lived worker
//! threads (bench workers, server connections) don't lose their tail or
//! leak their ring. A fork-join worker (`relstore::par_map`) instead
//! [`capture`]s each item's events, unnumbered, and the joining thread
//! [`publish`]es them in item order, so a parallel ANALYZE traces in
//! one deterministic order.
//!
//! Tracing rides on the same process-wide master switch as the rest of
//! `obs` — with [`crate::set_enabled`]`(false)` every emission is one
//! relaxed load and a branch — plus the emitting [`Recorder`]'s own trace
//! gate (on by default: this is a flight recorder, not a debugger). The
//! free helpers and [`set_trace_enabled`] use the process-global
//! recorder; the estimation-path helpers are [`Recorder`] methods, so an
//! engine on a private recorder is gated by that recorder alone. Events
//! of every recorder land in the emitting thread's ring:
//! [`drain`] takes every thread's, [`drain_thread`] only the caller's.
//!
//! Only this module constructs [`TraceKind`] values: other crates call
//! the typed helpers ([`Recorder::cache_probe`], [`Recorder::rung_chosen`],
//! [`wal_append`], …), which keeps the event schema in one place. CI greps for
//! `TraceKind::` outside `crates/obs` to hold that line.
//!
//! Exporters: [`jsonl`] (the `histctl-trace-v1` schema, one event per
//! line after a header) and [`chrome`] (the Chrome `trace_event` JSON
//! that `chrome://tracing` / Perfetto load directly).

use crate::export::JsonWriter;
use crate::Recorder;
use crossbeam::queue::ArrayQueue;
use parking_lot::Mutex;
use serde::ser::Serializer;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Events buffered per thread before the oldest are evicted.
pub const THREAD_RING_CAPACITY: usize = 32_768;

/// Events kept from exited threads before the oldest are evicted.
pub const RETIRED_CAPACITY: usize = 65_536;

/// What happened. Constructed only inside `crates/obs` (enforced by a
/// CI grep guard); other crates emit through the typed helper
/// functions in this module.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A span opened.
    SpanOpen {
        /// Dotted span path, e.g. `estimate.est_compute` (interned).
        path: &'static str,
    },
    /// A span closed.
    SpanClose {
        /// Dotted span path (interned).
        path: &'static str,
        /// Span wall time in nanoseconds.
        elapsed_ns: u64,
    },
    /// The estimation cache was probed.
    CacheProbe {
        /// Whether the probe hit.
        hit: bool,
        /// Cache shard index the fingerprint selected.
        shard: u64,
        /// Catalog snapshot epoch the probe was keyed by.
        epoch: u64,
    },
    /// A degradation-ladder rung answered a statistics lookup that
    /// contributes to a returned estimate.
    Rung {
        /// The lookup target (`t.a`, or `t.a = s.b` for a join), shared
        /// with the trail entry it came from.
        target: Arc<str>,
        /// Rung name (`spec`, `end_biased`, `trivial`, `uniform`).
        rung: &'static str,
    },
    /// The estimator resolved a column's stored statistics (histogram
    /// class, rung, staleness). Emitted per resolution, including the
    /// plan search's discarded candidates — this is a flight recorder,
    /// not the rung accounting (`estimate_rung_total` counts only
    /// lookups that contribute to a returned estimate).
    StatsResolved {
        /// Catalog key display (`rel.col`).
        key: String,
        /// Histogram class name, or `none` when no histogram is stored.
        class: String,
        /// Rung the resolution supports.
        rung: &'static str,
        /// Updates since the histogram was built (`u64::MAX` unknown).
        staleness: u64,
    },
    /// The WAL appended journal records.
    WalAppend {
        /// Records appended.
        records: u64,
        /// Journal bytes after the append.
        bytes: u64,
    },
    /// The WAL checkpointed the journal into a snapshot generation.
    WalCheckpoint {
        /// The new snapshot generation.
        generation: u64,
    },
    /// The maintenance daemon started a sweep.
    DaemonSweep {
        /// Virtual tick of the sweep.
        tick: u64,
    },
    /// A maintenance circuit breaker changed state.
    Breaker {
        /// Column key display (`rel(col)`).
        column: String,
        /// New state (`open`, `half_open`, `closed`).
        state: &'static str,
    },
    /// The statistics server finished handling one wire request.
    NetRequest {
        /// Tenant namespace the request addressed (empty for
        /// tenant-less operations such as PING or METRICS).
        tenant: String,
        /// Wire operation name (`ping`, `estimate`, `analyze`, ...).
        op: &'static str,
        /// How it ended (`ok`, `error`, `overloaded`).
        outcome: &'static str,
    },
    /// The durable catalog entered or left read-only degraded mode
    /// after a durable-write failure (or a successful restore probe).
    CatalogReadonly {
        /// Whether the catalog is now read-only.
        readonly: bool,
        /// What triggered the transition: the failing write's error,
        /// or `probe` for a successful checkpoint probe.
        reason: String,
    },
    /// A retrying client is about to re-send (or re-connect) after a
    /// transport failure.
    ClientRetry {
        /// Wire operation being retried (`connect` for the dial phase).
        op: &'static str,
        /// 1-based retry attempt number.
        attempt: u64,
    },
    /// A per-scope EWMA Q-error crossed the drift threshold upward.
    Drift {
        /// Quality-monitor scope.
        scope: String,
        /// EWMA Q-error at the crossing.
        ewma_q: f64,
        /// The configured threshold.
        threshold: f64,
    },
    /// A feedback tune step was journaled and applied to a histogram.
    TuneApplied {
        /// Catalog key display (`rel(col)`).
        key: String,
        /// Q-error of the triggering observation before the step.
        qerror_pre: f64,
        /// Q-error the tuned bucket predicts for the same observation.
        qerror_post: f64,
    },
    /// A feedback tune step was evaluated but changed nothing.
    TuneSkipped {
        /// Catalog key display (`rel(col)`).
        key: String,
        /// Stable skip reason (`negligible_error`, `zero_mass`, ...).
        reason: &'static str,
    },
}

/// One recorded event with its merge ordering and causal context.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Globally unique, strictly increasing sequence number.
    pub seq: u64,
    /// Nanoseconds since process start.
    pub ts_ns: u64,
    /// Recorder-assigned id of the emitting thread.
    pub thread: u64,
    /// Id of the innermost open span (0 when none; for span events,
    /// the span's own id).
    pub span: u64,
    /// Id of the enclosing span (0 when none).
    pub parent: u64,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Stable lowercase event name used in exports.
    pub fn name(&self) -> &'static str {
        match &self.kind {
            TraceKind::SpanOpen { .. } => "span_open",
            TraceKind::SpanClose { .. } => "span_close",
            TraceKind::CacheProbe { hit: true, .. } => "cache_hit",
            TraceKind::CacheProbe { hit: false, .. } => "cache_miss",
            TraceKind::Rung { .. } => "rung",
            TraceKind::StatsResolved { .. } => "stats_resolved",
            TraceKind::WalAppend { .. } => "wal_append",
            TraceKind::WalCheckpoint { .. } => "wal_checkpoint",
            TraceKind::DaemonSweep { .. } => "daemon_sweep",
            TraceKind::Breaker { .. } => "breaker",
            TraceKind::NetRequest { .. } => "net_request",
            TraceKind::CatalogReadonly { readonly: true, .. } => "catalog_readonly_enter",
            TraceKind::CatalogReadonly {
                readonly: false, ..
            } => "catalog_readonly_exit",
            TraceKind::ClientRetry { .. } => "client_retry",
            TraceKind::Drift { .. } => "drift",
            TraceKind::TuneApplied { .. } => "tune_applied",
            TraceKind::TuneSkipped { .. } => "tune_skipped",
        }
    }
}

/// Opens or closes the process-global recorder's trace gate without
/// touching the rest of `obs` or any private [`Recorder`].
pub fn set_trace_enabled(on: bool) {
    Recorder::global().set_trace_enabled(on);
}

/// Whether an emission through the process-global recorder would record
/// right now: the obs master switch AND its trace gate. Callers with
/// non-trivial argument preparation (snapshot lookups, formatting)
/// should check this first.
#[inline(always)]
pub fn active() -> bool {
    crate::enabled() && Recorder::global().trace_enabled()
}

/// Global event sequence; `fetch_add` hands every event a unique,
/// strictly increasing number regardless of which thread records it.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Span ids start at 1 so 0 can mean "no span" / "not traced".
static SPAN_ID_SEQ: AtomicU64 = AtomicU64::new(1);

static THREAD_SEQ: AtomicU64 = AtomicU64::new(1);

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from process start to `at`.
fn ns_since_start(at: Instant) -> u64 {
    at.saturating_duration_since(process_epoch())
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

fn dropped_total() -> &'static Arc<crate::Counter> {
    static C: OnceLock<Arc<crate::Counter>> = OnceLock::new();
    C.get_or_init(|| crate::counter("trace_events_dropped_total"))
}

/// Events evicted so far (ring overflow or retired-buffer overflow).
/// Exports embed this so a consumer knows whether span opens/closes
/// can be assumed balanced.
pub fn dropped() -> u64 {
    dropped_total().get()
}

struct ThreadRing {
    thread: u64,
    ring: ArrayQueue<TraceEvent>,
}

fn live_rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static LIVE: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(Vec::new()))
}

fn retired() -> &'static Mutex<Vec<TraceEvent>> {
    static RETIRED: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    RETIRED.get_or_init(|| Mutex::new(Vec::new()))
}

/// This thread's recording state. The drop glue retires the ring's
/// contents so scoped workers keep their events.
struct ThreadTrace {
    ring: Arc<ThreadRing>,
    /// Ids of the spans open on this thread, outermost first, so
    /// instant events can name their enclosing span.
    span_ids: Vec<u64>,
    /// While [`capture`] runs: the events held back, without sequence
    /// numbers.
    captured: Option<Vec<TraceEvent>>,
}

impl ThreadTrace {
    fn new() -> Self {
        let ring = Arc::new(ThreadRing {
            thread: THREAD_SEQ.fetch_add(1, Ordering::Relaxed),
            ring: ArrayQueue::new(THREAD_RING_CAPACITY),
        });
        live_rings().lock().push(Arc::clone(&ring));
        Self {
            ring,
            span_ids: Vec::new(),
            captured: None,
        }
    }

    /// The innermost open span and its parent (0 when none).
    fn span_and_parent(&self) -> (u64, u64) {
        let mut ids = self.span_ids.iter().rev().copied();
        (ids.next().unwrap_or(0), ids.next().unwrap_or(0))
    }

    fn event(&self, span: u64, parent: u64, ts_ns: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            seq: 0,
            ts_ns,
            thread: self.ring.thread,
            span,
            parent,
            kind,
        }
    }

    /// Holds `event` back while capturing; otherwise gives it the next
    /// global sequence number and pushes it onto this thread's ring.
    fn deliver(&mut self, mut event: TraceEvent) {
        if let Some(held) = &mut self.captured {
            held.push(event);
            return;
        }
        event.seq = SEQ.fetch_add(1, Ordering::Relaxed) + 1;
        if self.ring.ring.force_push(event).is_some() {
            dropped_total().inc();
        }
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        let ring = &self.ring;
        // Moved under the retired lock, which `drain` holds throughout:
        // a drain sees each event in the ring or in the retired buffer.
        let mut buf = retired().lock();
        while let Some(e) = ring.ring.pop() {
            buf.push(e);
        }
        let excess = buf.len().saturating_sub(RETIRED_CAPACITY);
        if excess > 0 {
            buf.drain(..excess);
            dropped_total().add(excess as u64);
        }
        drop(buf);
        live_rings().lock().retain(|r| r.thread != ring.thread);
    }
}

thread_local! {
    static LOCAL: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::new());
}

/// Records an instant event under the innermost open traced span.
fn record(kind: TraceKind) {
    let ts_ns = ns_since_start(Instant::now());
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (span, parent) = l.span_and_parent();
        let event = l.event(span, parent, ts_ns, kind);
        l.deliver(event);
    });
}

/// Opens a traced span at `at`: allocates its id, records the open
/// event, and returns the id for [`close_span`]. Returns 0 (and records
/// nothing) when tracing is off. Called by [`crate::span`]'s open path.
pub(crate) fn open_span(path: &'static str, at: Instant) -> u64 {
    if !active() {
        return 0;
    }
    let id = SPAN_ID_SEQ.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (parent, _) = l.span_and_parent();
        l.span_ids.push(id);
        let event = l.event(id, parent, ns_since_start(at), TraceKind::SpanOpen { path });
        l.deliver(event);
    });
    id
}

/// Closes, at `at`, a traced span opened by [`open_span`]. Always
/// records the close when the open was recorded (`id != 0`), even if
/// tracing was switched off in between — every recorded open gets its
/// close.
pub(crate) fn close_span(id: u64, path: &'static str, elapsed_ns: u64, at: Instant) {
    if id == 0 {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Some(pos) = l.span_ids.iter().rposition(|&x| x == id) {
            l.span_ids.remove(pos);
        }
        let (parent, _) = l.span_and_parent();
        let kind = TraceKind::SpanClose { path, elapsed_ns };
        let event = l.event(id, parent, ns_since_start(at), kind);
        l.deliver(event);
    });
}

/// Trace events one [`capture`] held back, to be [`publish`]ed.
#[must_use = "captured events are lost unless published"]
#[derive(Debug)]
pub struct Captured(Vec<TraceEvent>);

/// Runs `f`, holding back every trace event it records on this thread
/// instead of numbering it. A fork-join worker captures each item's
/// events so that the joining thread can [`publish`] them in item
/// order: the merged sequence then follows the input, not which worker
/// won the race for the global counter.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Captured) {
    let outer = LOCAL.with(|l| l.borrow_mut().captured.replace(Vec::new()));
    let out = f();
    let held = LOCAL.with(|l| std::mem::replace(&mut l.borrow_mut().captured, outer));
    (out, Captured(held.unwrap_or_default()))
}

/// Publishes captured events from the calling thread, oldest first,
/// numbering them now. Each keeps the id of the thread that recorded
/// it. Inside another [`capture`], they are held back again instead.
pub fn publish(captured: Captured) {
    if captured.0.is_empty() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        for event in captured.0 {
            l.deliver(event);
        }
    });
}

/// The estimation-path emissions, gated by the emitting recorder's own
/// trace gate (and the obs master switch): an engine emits through the
/// recorder it holds.
impl Recorder {
    /// Records an estimation-cache probe (hit or miss) with the shard the
    /// fingerprint selected and the snapshot epoch the probe was keyed by.
    pub fn cache_probe(&self, hit: bool, shard: u64, epoch: u64) {
        if !self.trace_active() {
            return;
        }
        record(TraceKind::CacheProbe { hit, shard, epoch });
    }

    /// Records which ladder rung answered a statistics lookup that
    /// contributes to a returned estimate.
    pub fn rung_chosen(&self, target: &Arc<str>, rung: &'static str) {
        if !self.trace_active() {
            return;
        }
        record(TraceKind::Rung {
            target: Arc::clone(target),
            rung,
        });
    }

    /// Records one statistics resolution: the histogram class consulted
    /// (or `None` when the column has no stored histogram), the rung the
    /// surviving metadata supports, and the column's staleness.
    pub fn stats_resolved(
        &self,
        key: &str,
        class: Option<&str>,
        rung: &'static str,
        staleness: Option<u64>,
    ) {
        if !self.trace_active() {
            return;
        }
        record(TraceKind::StatsResolved {
            key: key.to_string(),
            class: class.unwrap_or("none").to_string(),
            rung,
            staleness: staleness.unwrap_or(u64::MAX),
        });
    }
}

/// Records a WAL journal append.
pub fn wal_append(records: u64, bytes: u64) {
    if !active() {
        return;
    }
    record(TraceKind::WalAppend { records, bytes });
}

/// Records a WAL checkpoint into snapshot `generation`.
pub fn wal_checkpoint(generation: u64) {
    if !active() {
        return;
    }
    record(TraceKind::WalCheckpoint { generation });
}

/// Records the start of a maintenance-daemon sweep.
pub fn daemon_sweep(tick: u64) {
    if !active() {
        return;
    }
    record(TraceKind::DaemonSweep { tick });
}

/// Records a maintenance circuit-breaker transition.
pub fn breaker(column: &str, state: &'static str) {
    if !active() {
        return;
    }
    record(TraceKind::Breaker {
        column: column.to_string(),
        state,
    });
}

/// Records the completion of one statistics-server wire request.
pub fn net_request(tenant: &str, op: &'static str, outcome: &'static str) {
    if !active() {
        return;
    }
    record(TraceKind::NetRequest {
        tenant: tenant.to_string(),
        op,
        outcome,
    });
}

/// Records a read-only degraded-mode transition of the durable
/// catalog.
pub fn catalog_readonly(readonly: bool, reason: &str) {
    if !active() {
        return;
    }
    record(TraceKind::CatalogReadonly {
        readonly,
        reason: reason.to_string(),
    });
}

/// Records one client retry attempt (re-send or re-connect).
pub fn client_retry(op: &'static str, attempt: u64) {
    if !active() {
        return;
    }
    record(TraceKind::ClientRetry { op, attempt });
}

/// Records an upward drift-threshold crossing of a scope's EWMA
/// Q-error.
pub fn drift(scope: &str, ewma_q: f64, threshold: f64) {
    if !active() {
        return;
    }
    record(TraceKind::Drift {
        scope: scope.to_string(),
        ewma_q,
        threshold,
    });
}

/// Records a feedback tune step that was journaled and applied.
pub fn tune_applied(key: &str, qerror_pre: f64, qerror_post: f64) {
    if !active() {
        return;
    }
    record(TraceKind::TuneApplied {
        key: key.to_string(),
        qerror_pre,
        qerror_post,
    });
}

/// Records a feedback tune step that was evaluated but skipped.
pub fn tune_skipped(key: &str, reason: &'static str) {
    if !active() {
        return;
    }
    record(TraceKind::TuneSkipped {
        key: key.to_string(),
        reason,
    });
}

/// Drains every buffered event — the retired buffer plus all live
/// per-thread rings — merged into one sequence-ordered stream. Events
/// recorded concurrently with the drain may land in the next drain.
pub fn drain() -> Vec<TraceEvent> {
    let mut retired = retired().lock();
    let mut out: Vec<TraceEvent> = std::mem::take(&mut *retired);
    let rings: Vec<Arc<ThreadRing>> = live_rings().lock().clone();
    for r in rings {
        // Bounded pop: a concurrent producer force-pushing while we
        // drain must not extend this loop forever.
        for _ in 0..THREAD_RING_CAPACITY {
            match r.ring.pop() {
                Some(e) => out.push(e),
                None => break,
            }
        }
    }
    drop(retired);
    out.sort_by_key(|e| e.seq);
    out
}

/// Drains the calling thread's ring only, oldest first: the events this
/// thread recorded or [`publish`]ed. It neither sees nor takes another
/// thread's, so a caller whose emissions all happen on its own thread
/// reads back exactly those.
pub fn drain_thread() -> Vec<TraceEvent> {
    LOCAL.with(|l| {
        let ring = &l.borrow().ring.ring;
        let mut out = Vec::with_capacity(ring.len());
        while let Some(e) = ring.pop() {
            out.push(e);
        }
        out
    })
}

// --- Exporters --------------------------------------------------------

impl TraceEvent {
    fn serialize_into(&self, w: &mut JsonWriter) {
        w.begin_map(7);
        w.map_key("seq");
        w.serialize_u64(self.seq);
        w.map_key("ts_ns");
        w.serialize_u64(self.ts_ns);
        w.map_key("thread");
        w.serialize_u64(self.thread);
        w.map_key("span");
        w.serialize_u64(self.span);
        w.map_key("parent");
        w.serialize_u64(self.parent);
        w.map_key("event");
        w.serialize_str(self.name());
        match &self.kind {
            TraceKind::SpanOpen { path } => {
                w.map_key("path");
                w.serialize_str(path);
            }
            TraceKind::SpanClose { path, elapsed_ns } => {
                w.map_key("path");
                w.serialize_str(path);
                w.map_key("elapsed_ns");
                w.serialize_u64(*elapsed_ns);
            }
            TraceKind::CacheProbe { shard, epoch, .. } => {
                w.map_key("shard");
                w.serialize_u64(*shard);
                w.map_key("epoch");
                w.serialize_u64(*epoch);
            }
            TraceKind::Rung { target, rung } => {
                w.map_key("target");
                w.serialize_str(target);
                w.map_key("rung");
                w.serialize_str(rung);
            }
            TraceKind::StatsResolved {
                key,
                class,
                rung,
                staleness,
            } => {
                w.map_key("key");
                w.serialize_str(key);
                w.map_key("class");
                w.serialize_str(class);
                w.map_key("rung");
                w.serialize_str(rung);
                w.map_key("staleness");
                w.serialize_u64(*staleness);
            }
            TraceKind::WalAppend { records, bytes } => {
                w.map_key("records");
                w.serialize_u64(*records);
                w.map_key("bytes");
                w.serialize_u64(*bytes);
            }
            TraceKind::WalCheckpoint { generation } => {
                w.map_key("generation");
                w.serialize_u64(*generation);
            }
            TraceKind::DaemonSweep { tick } => {
                w.map_key("tick");
                w.serialize_u64(*tick);
            }
            TraceKind::Breaker { column, state } => {
                w.map_key("column");
                w.serialize_str(column);
                w.map_key("state");
                w.serialize_str(state);
            }
            TraceKind::NetRequest {
                tenant,
                op,
                outcome,
            } => {
                w.map_key("tenant");
                w.serialize_str(tenant);
                w.map_key("op");
                w.serialize_str(op);
                w.map_key("outcome");
                w.serialize_str(outcome);
            }
            TraceKind::CatalogReadonly { readonly, reason } => {
                w.map_key("readonly");
                w.serialize_u64(u64::from(*readonly));
                w.map_key("reason");
                w.serialize_str(reason);
            }
            TraceKind::ClientRetry { op, attempt } => {
                w.map_key("op");
                w.serialize_str(op);
                w.map_key("attempt");
                w.serialize_u64(*attempt);
            }
            TraceKind::Drift {
                scope,
                ewma_q,
                threshold,
            } => {
                w.map_key("scope");
                w.serialize_str(scope);
                w.map_key("ewma_q");
                w.serialize_f64(*ewma_q);
                w.map_key("threshold");
                w.serialize_f64(*threshold);
            }
            TraceKind::TuneApplied {
                key,
                qerror_pre,
                qerror_post,
            } => {
                w.map_key("key");
                w.serialize_str(key);
                w.map_key("qerror_pre");
                w.serialize_f64(*qerror_pre);
                w.map_key("qerror_post");
                w.serialize_f64(*qerror_post);
            }
            TraceKind::TuneSkipped { key, reason } => {
                w.map_key("key");
                w.serialize_str(key);
                w.map_key("reason");
                w.serialize_str(reason);
            }
        }
        w.end_map();
    }
}

/// Renders events as `histctl-trace-v1` JSON lines: a header object
/// (`schema`, `events`, `dropped`), then one object per event with
/// `seq`/`ts_ns`/`thread`/`span`/`parent`/`event` plus the event
/// kind's own fields. When `dropped` is 0, span opens and closes are
/// balanced per thread.
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    let mut header = JsonWriter::new();
    header.begin_map(3);
    header.map_key("schema");
    header.serialize_str("histctl-trace-v1");
    header.map_key("events");
    header.serialize_u64(events.len() as u64);
    header.map_key("dropped");
    header.serialize_u64(dropped());
    header.end_map();
    out.push_str(&header.into_string());
    out.push('\n');
    for e in events {
        let mut w = JsonWriter::new();
        e.serialize_into(&mut w);
        out.push_str(&w.into_string());
        out.push('\n');
    }
    out
}

/// Renders events in the Chrome `trace_event` JSON format (load in
/// `chrome://tracing` or Perfetto). Span closes become complete (`X`)
/// events spanning their measured duration; span opens are implied by
/// them; everything else becomes a thread-scoped instant (`i`) event.
pub fn chrome(events: &[TraceEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_map(1);
    w.map_key("traceEvents");
    w.begin_seq(events.len());
    for e in events {
        match &e.kind {
            TraceKind::SpanOpen { .. } => continue,
            TraceKind::SpanClose { path, elapsed_ns } => {
                w.seq_element();
                w.begin_map(8);
                w.map_key("name");
                w.serialize_str(path);
                w.map_key("ph");
                w.serialize_str("X");
                w.map_key("ts");
                w.serialize_f64(e.ts_ns.saturating_sub(*elapsed_ns) as f64 / 1e3);
                w.map_key("dur");
                w.serialize_f64(*elapsed_ns as f64 / 1e3);
            }
            _ => {
                w.seq_element();
                w.begin_map(8);
                w.map_key("name");
                w.serialize_str(e.name());
                w.map_key("ph");
                w.serialize_str("i");
                w.map_key("s");
                w.serialize_str("t");
                w.map_key("ts");
                w.serialize_f64(e.ts_ns as f64 / 1e3);
            }
        }
        w.map_key("pid");
        w.serialize_u64(1);
        w.map_key("tid");
        w.serialize_u64(e.thread);
        w.map_key("args");
        w.begin_map(3);
        w.map_key("seq");
        w.serialize_u64(e.seq);
        w.map_key("span");
        w.serialize_u64(e.span);
        w.map_key("detail");
        w.serialize_str(&format!("{:?}", e.kind));
        w.end_map();
        w.end_map();
    }
    w.end_seq();
    w.end_map();
    w.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_a_strictly_increasing_global_sequence() {
        let _guard = crate::test_lock();
        drain();
        Recorder::global().cache_probe(true, 3, 7);
        Recorder::global().rung_chosen(&"t.a".into(), "spec");
        wal_append(2, 128);
        let events = drain();
        assert!(events.len() >= 3);
        assert!(
            events.windows(2).all(|w| w[0].seq < w[1].seq),
            "merged drain must be strictly seq-ordered"
        );
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            TraceKind::CacheProbe {
                hit: true,
                shard: 3,
                epoch: 7
            }
        )));
        assert!(events.iter().any(
            |e| matches!(&e.kind, TraceKind::Rung { target, rung: "spec" } if &**target == "t.a")
        ));
    }

    #[test]
    fn span_ids_nest_causally_and_tag_instant_events() {
        let _guard = crate::test_lock();
        drain();
        let outer = crate::span("trace_outer");
        {
            let inner = crate::span("trace_inner");
            Recorder::global().cache_probe(false, 0, 1);
            drop(inner);
        }
        drop(outer);
        let events = drain();
        let open_outer = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::SpanOpen { path } if path == "trace_outer"))
            .expect("outer open recorded");
        let open_inner = events
            .iter()
            .find(|e| {
                matches!(e.kind, TraceKind::SpanOpen { path } if path == "trace_outer.trace_inner")
            })
            .expect("inner open recorded");
        assert_ne!(open_outer.span, 0);
        assert_eq!(open_outer.parent, 0);
        assert_eq!(open_inner.parent, open_outer.span);
        let probe = events
            .iter()
            .find(|e| matches!(&e.kind, TraceKind::CacheProbe { .. }))
            .expect("probe recorded");
        assert_eq!(
            probe.span, open_inner.span,
            "instant tagged with inner span"
        );
        assert_eq!(probe.parent, open_outer.span);
        // Both spans closed, innermost first.
        let closes: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(&e.kind, TraceKind::SpanClose { .. }))
            .collect();
        assert_eq!(closes.len(), 2);
        assert_eq!(closes[0].span, open_inner.span);
        assert_eq!(closes[1].span, open_outer.span);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = crate::test_lock();
        drain();
        set_trace_enabled(false);
        Recorder::global().cache_probe(true, 0, 0);
        let sp = crate::span("trace_disabled_span");
        drop(sp);
        set_trace_enabled(true);
        let events = drain();
        assert!(
            !events.iter().any(|e| matches!(&e.kind, TraceKind::CacheProbe { .. })
                || matches!(e.kind, TraceKind::SpanOpen { path } if path == "trace_disabled_span")),
            "trace-off emissions must vanish: {events:?}"
        );
    }

    #[test]
    fn worker_thread_events_survive_thread_exit() {
        let _guard = crate::test_lock();
        drain();
        std::thread::spawn(|| {
            breaker("t(c)", "open");
            daemon_sweep(9);
        })
        .join()
        .unwrap();
        let events = drain();
        assert!(events
            .iter()
            .any(|e| matches!(&e.kind, TraceKind::Breaker { state: "open", .. })));
        assert!(events
            .iter()
            .any(|e| matches!(&e.kind, TraceKind::DaemonSweep { tick: 9 })));
    }

    #[test]
    fn thread_drain_takes_only_the_calling_threads_events() {
        let _guard = crate::test_lock();
        drain();
        let recorded = std::sync::Barrier::new(2);
        let drained = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                daemon_sweep(77);
                recorded.wait();
                drained.wait();
            });
            daemon_sweep(88);
            recorded.wait();
            let mine = drain_thread();
            drained.wait();
            assert!(mine
                .iter()
                .any(|e| matches!(&e.kind, TraceKind::DaemonSweep { tick: 88 })));
            assert!(
                !mine
                    .iter()
                    .any(|e| matches!(&e.kind, TraceKind::DaemonSweep { tick: 77 })),
                "another thread's event leaked into the thread drain"
            );
        });
        // The sibling's event was left in place for the global drain.
        assert!(drain()
            .iter()
            .any(|e| matches!(&e.kind, TraceKind::DaemonSweep { tick: 77 })));
    }

    #[test]
    fn a_private_recorder_is_gated_by_its_own_flag_only() {
        let _guard = crate::test_lock();
        drain_thread();
        let private = Recorder::new();
        private.set_trace_enabled(false);
        private.cache_probe(true, 1, 1);
        Recorder::global().cache_probe(false, 2, 2);
        set_trace_enabled(false);
        private.set_trace_enabled(true);
        private.rung_chosen(&"t.private".into(), "trivial");
        Recorder::global().stats_resolved("t.global", None, "uniform", None);
        set_trace_enabled(true);
        let kinds: Vec<TraceKind> = drain_thread().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::CacheProbe {
                    hit: false,
                    shard: 2,
                    epoch: 2
                },
                TraceKind::Rung {
                    target: "t.private".into(),
                    rung: "trivial"
                },
            ]
        );
    }

    #[test]
    fn jsonl_has_header_then_one_object_per_line() {
        let _guard = crate::test_lock();
        drain();
        Recorder::global().stats_resolved("t.a", Some("v_opt_end_biased"), "spec", Some(0));
        drift("col:t.a", 3.5, 2.0);
        let events = drain();
        let text = jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len() + 1);
        assert!(lines[0].contains(r#""schema":"histctl-trace-v1""#));
        assert!(lines[0].contains(r#""events":"#));
        assert!(lines[0].contains(r#""dropped":"#));
        for line in &lines[1..] {
            assert!(line.starts_with('{') && line.ends_with('}'));
            for field in ["\"seq\":", "\"ts_ns\":", "\"thread\":", "\"event\":"] {
                assert!(line.contains(field), "missing {field} in {line}");
            }
        }
        assert!(text.contains(r#""event":"stats_resolved""#));
        assert!(text.contains(r#""class":"v_opt_end_biased""#));
        assert!(text.contains(r#""event":"drift""#));
    }

    #[test]
    fn chrome_export_pairs_spans_into_complete_events() {
        let _guard = crate::test_lock();
        drain();
        let sp = crate::span("trace_chrome_span");
        Recorder::global().cache_probe(false, 1, 2);
        drop(sp);
        let events = drain();
        let text = chrome(&events);
        assert!(text.starts_with(r#"{"traceEvents":["#));
        assert!(text.contains(r#""ph":"X""#), "span close becomes X: {text}");
        assert!(text.contains(r#""name":"trace_chrome_span""#));
        assert!(text.contains(r#""ph":"i""#), "instants become i: {text}");
        assert!(!text.contains("span_open"), "opens are implied by X events");
    }

    #[test]
    fn ring_overflow_counts_drops_and_keeps_newest() {
        let _guard = crate::test_lock();
        drain();
        let before = dropped();
        for i in 0..(THREAD_RING_CAPACITY + 50) {
            daemon_sweep(i as u64);
        }
        assert!(dropped() >= before + 50, "evictions must be counted");
        let events = drain();
        assert!(events.len() <= THREAD_RING_CAPACITY);
        // The newest event survives overflow.
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            TraceKind::DaemonSweep { tick } if *tick == (THREAD_RING_CAPACITY + 49) as u64
        )));
    }
}
