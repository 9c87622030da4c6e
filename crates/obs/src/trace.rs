//! The provenance flight recorder: an always-on, bounded, per-thread
//! log of structured trace events.
//!
//! Every estimation-path subsystem emits typed events here — span
//! open/close, estimation-cache probes (shard + epoch), ladder rung
//! choices, histogram class/spec consultations, WAL appends and
//! checkpoints, daemon sweeps and breaker transitions, and Q-error
//! drift crossings. Each event carries:
//!
//! * a **global sequence number** (one atomic counter), so events from
//!   different threads merge into one total order that keeps each
//!   thread's recording order;
//! * a **causal span id** and its parent — allocated when a span opens,
//!   threaded through every instant event recorded inside it — so a
//!   cache miss can be traced to the exact `est_compute` span (and
//!   query) that caused it;
//! * a timestamp in nanoseconds relative to process start, taken when
//!   the event is recorded.
//!
//! # Recording discipline
//!
//! A thread holds the events of its outermost open traced span in a
//! reused local batch and delivers them together. The batch is flushed
//! when that span closes, when it reaches [`BATCH_CAPACITY`] events,
//! when the thread calls [`drain_thread`], and when the thread exits;
//! an event recorded outside any span is flushed at once.
//! A flush numbers the batch with one `fetch_add` on the global
//! sequence, so an event gets its sequence number at its flush, not at
//! the moment it is recorded, and writes it into the thread's own
//! bounded overwrite ring under that ring's lock, which only the owner
//! and a drain ever take. A full ring evicts its oldest events; each
//! flush adds its evictions to `trace_events_dropped_total` once.
//!
//! So sequence numbers are unique and follow recording order on each
//! thread, and a span tree's events are numbered consecutively. Across
//! threads they follow flush order: an event of a long span tree can be
//! numbered after a later event of another thread. A [`drain`] does
//! not see the events of a span tree still open on any thread, up to
//! [`BATCH_CAPACITY`]` - 1` of them per thread; it sees them after the
//! tree closes.
//!
//! When a thread exits, its ring is drained into a bounded global
//! retired buffer so short-lived worker threads (bench workers, server
//! connections) don't lose their tail or leak their ring. A fork-join
//! worker (`relstore::par_map`) instead [`capture`]s each item's events,
//! unnumbered, and the joining thread [`publish`]es them in item order,
//! the same deferred numbering, so a parallel ANALYZE traces in one
//! deterministic order.
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
//! Only this crate constructs [`TraceKind`] values: every variant is
//! `#[non_exhaustive]`, so other crates call the typed helpers
//! ([`Recorder::cache_probe`], [`Recorder::rung_chosen`], [`wal_append`],
//! …), which keeps the event schema in one place. They may still match
//! on events they read back.
//!
//! Exporters: [`jsonl`] (the `histctl-trace-v1` schema, one event per
//! line after a header) and [`chrome`] (the Chrome `trace_event` JSON
//! that `chrome://tracing` / Perfetto load directly).

use crate::export::JsonWriter;
use crate::Recorder;
use parking_lot::Mutex;
use serde::ser::Serializer;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Events buffered per thread before the oldest are evicted.
pub const THREAD_RING_CAPACITY: usize = 32_768;

/// Bytes of one thread's ring buffer, allocated when the ring is
/// created: 120 per event slot, more than [`THREAD_RING_CAPACITY`]
/// events need. glibc raises its mmap and trim thresholds to the
/// largest mmapped block freed, and rings are freed whenever a thread
/// exits. With a 3.4 MB buffer, the minor page faults of eight 1.6 MB
/// `LOAD_RELATION`s in a row (perfbench's `wire` set-up) rose from
/// about 4k to 15k, and the loads took about 40 ms longer.
const RING_BYTES: usize = THREAD_RING_CAPACITY * 120;

/// Events a thread holds back before it flushes them to its ring even
/// though their outermost span is still open.
pub const BATCH_CAPACITY: usize = 256;

/// Events kept from exited threads before the oldest are evicted.
pub const RETIRED_CAPACITY: usize = 65_536;

/// What happened. Every variant is `#[non_exhaustive]`, so only this
/// crate can construct one; other crates emit through the typed helper
/// functions in this module and may only read events back.
///
/// ```compile_fail,E0639
/// let _ = obs::trace::TraceKind::DaemonSweep { tick: 1 };
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A span opened.
    #[non_exhaustive]
    SpanOpen {
        /// Dotted span path, e.g. `estimate.est_compute` (interned).
        path: &'static str,
    },
    /// A span closed.
    #[non_exhaustive]
    SpanClose {
        /// Dotted span path (interned).
        path: &'static str,
        /// Span wall time in nanoseconds.
        elapsed_ns: u64,
    },
    /// The estimation cache was probed.
    #[non_exhaustive]
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
    #[non_exhaustive]
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
    #[non_exhaustive]
    StatsResolved {
        /// Catalog key display (`rel.col`), shared with the column's
        /// statistics record.
        key: Arc<str>,
        /// Histogram class name, or `none` when no histogram is stored.
        class: &'static str,
        /// Rung the resolution supports.
        rung: &'static str,
        /// Updates since the histogram was built (`u64::MAX` unknown).
        staleness: u64,
    },
    /// The WAL appended journal records.
    #[non_exhaustive]
    WalAppend {
        /// Records appended.
        records: u64,
        /// Journal bytes after the append.
        bytes: u64,
    },
    /// The WAL checkpointed the journal into a snapshot generation.
    #[non_exhaustive]
    WalCheckpoint {
        /// The new snapshot generation.
        generation: u64,
    },
    /// The maintenance daemon started a sweep.
    #[non_exhaustive]
    DaemonSweep {
        /// Virtual tick of the sweep.
        tick: u64,
    },
    /// A maintenance circuit breaker changed state.
    #[non_exhaustive]
    Breaker {
        /// Column key display (`rel(col)`).
        column: String,
        /// New state (`open`, `half_open`, `closed`).
        state: &'static str,
    },
    /// The statistics server finished handling one wire request.
    #[non_exhaustive]
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
    #[non_exhaustive]
    CatalogReadonly {
        /// Whether the catalog is now read-only.
        readonly: bool,
        /// What triggered the transition: the failing write's error,
        /// or `probe` for a successful checkpoint probe.
        reason: String,
    },
    /// A retrying client is about to re-send (or re-connect) after a
    /// transport failure.
    #[non_exhaustive]
    ClientRetry {
        /// Wire operation being retried (`connect` for the dial phase).
        op: &'static str,
        /// 1-based retry attempt number.
        attempt: u64,
    },
    /// A per-scope EWMA Q-error crossed the drift threshold upward.
    #[non_exhaustive]
    Drift {
        /// Quality-monitor scope.
        scope: String,
        /// EWMA Q-error at the crossing.
        ewma_q: f64,
        /// The configured threshold.
        threshold: f64,
    },
    /// A feedback tune step was journaled and applied to a histogram.
    #[non_exhaustive]
    TuneApplied {
        /// Catalog key display (`rel(col)`).
        key: String,
        /// Q-error of the triggering observation before the step.
        qerror_pre: f64,
        /// Q-error the tuned bucket predicts for the same observation.
        qerror_post: f64,
    },
    /// A feedback tune step was evaluated but changed nothing.
    #[non_exhaustive]
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
    /// Globally unique sequence number, given when the event's batch is
    /// flushed; increasing in recording order on each thread.
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

/// Global event sequence; one `fetch_add` per flush hands every event
/// of the batch a unique number, increasing in recording order.
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
    /// Written only by the owning thread's flushes; a drain is the only
    /// other locker. Its buffer is allocated once, at creation.
    ring: Mutex<Ring>,
}

/// A single-writer overwrite ring holding the newest
/// [`THREAD_RING_CAPACITY`] events in a buffer of [`RING_BYTES`]
/// allocated once; the slots past that capacity are never written. A
/// full ring overwrites its oldest event in place, so each event a
/// flush writes touches one cold slot. A deque cycling through the
/// whole buffer would evict at its head and write at its tail, two
/// cold slots per event.
struct Ring {
    slots: Vec<TraceEvent>,
    /// Once the ring is full, the slot holding the oldest event.
    head: usize,
}

impl Ring {
    fn new() -> Self {
        let slots = RING_BYTES
            .div_ceil(std::mem::size_of::<TraceEvent>())
            .max(THREAD_RING_CAPACITY);
        Self {
            slots: Vec::with_capacity(slots),
            head: 0,
        }
    }

    /// Appends `event`, overwriting the oldest one when the ring is
    /// full; returns whether an event was evicted.
    fn push(&mut self, event: TraceEvent) -> bool {
        if self.slots.len() < THREAD_RING_CAPACITY {
            self.slots.push(event);
            return false;
        }
        self.slots[self.head] = event;
        self.head = (self.head + 1) % THREAD_RING_CAPACITY;
        true
    }

    /// Moves every event into `out`, oldest first, keeping the buffer.
    fn drain_into(&mut self, out: &mut Vec<TraceEvent>) {
        let head = std::mem::take(&mut self.head);
        out.extend(self.slots.drain(head..));
        out.append(&mut self.slots);
    }
}

fn live_rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static LIVE: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(Vec::new()))
}

fn retired() -> &'static Mutex<Vec<TraceEvent>> {
    static RETIRED: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    RETIRED.get_or_init(|| Mutex::new(Vec::new()))
}

/// This thread's recording state. The drop glue flushes the batch and
/// retires the ring's contents so scoped workers keep their events.
struct ThreadTrace {
    ring: Arc<ThreadRing>,
    /// Ids of the spans open on this thread, outermost first, so
    /// instant events can name their enclosing span.
    span_ids: Vec<u64>,
    /// Events recorded since the last flush, without sequence numbers.
    batch: Vec<TraceEvent>,
    /// While [`capture`] runs: the events held back, without sequence
    /// numbers.
    captured: Option<Vec<TraceEvent>>,
}

impl ThreadTrace {
    fn new() -> Self {
        let ring = Arc::new(ThreadRing {
            thread: THREAD_SEQ.fetch_add(1, Ordering::Relaxed),
            ring: Mutex::new(Ring::new()),
        });
        live_rings().lock().push(Arc::clone(&ring));
        Self {
            ring,
            span_ids: Vec::new(),
            batch: Vec::with_capacity(BATCH_CAPACITY),
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

    /// Holds `event` back while capturing; otherwise adds it to the
    /// batch, which is flushed once no traced span is open or it is
    /// full.
    fn deliver(&mut self, event: TraceEvent) {
        if let Some(held) = &mut self.captured {
            held.push(event);
            return;
        }
        self.batch.push(event);
        if self.span_ids.is_empty() || self.batch.len() >= BATCH_CAPACITY {
            self.flush();
        }
    }

    /// Numbers the batch with one `fetch_add` and moves it into the
    /// ring, evicting the oldest events past [`THREAD_RING_CAPACITY`].
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let first = SEQ.fetch_add(self.batch.len() as u64, Ordering::Relaxed) + 1;
        let mut ring = self.ring.ring.lock();
        let mut evicted = 0;
        for (seq, mut event) in (first..).zip(self.batch.drain(..)) {
            event.seq = seq;
            evicted += usize::from(ring.push(event));
        }
        drop(ring);
        if evicted > 0 {
            dropped_total().add(evicted as u64);
        }
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        self.flush();
        let ring = &self.ring;
        // Moved under the retired lock, which `drain` holds throughout:
        // a drain sees each event in the ring or in the retired buffer.
        let mut buf = retired().lock();
        ring.ring.lock().drain_into(&mut buf);
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

/// Records the event `kind` builds under the innermost open traced
/// span, when `on` (the emitting recorder's gate is open); otherwise
/// the event is not even built.
fn record(on: bool, kind: impl FnOnce() -> TraceKind) {
    if !on {
        return;
    }
    let kind = kind();
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
        record(self.trace_active(), || TraceKind::CacheProbe {
            hit,
            shard,
            epoch,
        });
    }

    /// Records which ladder rung answered a statistics lookup that
    /// contributes to a returned estimate.
    pub fn rung_chosen(&self, target: &Arc<str>, rung: &'static str) {
        record(self.trace_active(), || TraceKind::Rung {
            target: Arc::clone(target),
            rung,
        });
    }

    /// Records one statistics resolution: the histogram class consulted
    /// (or `None` when the column has no stored histogram), the rung the
    /// surviving metadata supports, and the column's staleness.
    pub fn stats_resolved(
        &self,
        key: &Arc<str>,
        class: Option<&'static str>,
        rung: &'static str,
        staleness: Option<u64>,
    ) {
        record(self.trace_active(), || TraceKind::StatsResolved {
            key: Arc::clone(key),
            class: class.unwrap_or("none"),
            rung,
            staleness: staleness.unwrap_or(u64::MAX),
        });
    }
}

/// Records a WAL journal append.
pub fn wal_append(records: u64, bytes: u64) {
    record(active(), || TraceKind::WalAppend { records, bytes });
}

/// Records a WAL checkpoint into snapshot `generation`.
pub fn wal_checkpoint(generation: u64) {
    record(active(), || TraceKind::WalCheckpoint { generation });
}

/// Records the start of a maintenance-daemon sweep.
pub fn daemon_sweep(tick: u64) {
    record(active(), || TraceKind::DaemonSweep { tick });
}

/// Records a maintenance circuit-breaker transition.
pub fn breaker(column: &str, state: &'static str) {
    record(active(), || TraceKind::Breaker {
        column: column.to_string(),
        state,
    });
}

/// Records the completion of one statistics-server wire request.
pub fn net_request(tenant: &str, op: &'static str, outcome: &'static str) {
    record(active(), || TraceKind::NetRequest {
        tenant: tenant.to_string(),
        op,
        outcome,
    });
}

/// Records a read-only degraded-mode transition of the durable
/// catalog.
pub fn catalog_readonly(readonly: bool, reason: &str) {
    record(active(), || TraceKind::CatalogReadonly {
        readonly,
        reason: reason.to_string(),
    });
}

/// Records one client retry attempt (re-send or re-connect).
pub fn client_retry(op: &'static str, attempt: u64) {
    record(active(), || TraceKind::ClientRetry { op, attempt });
}

/// Records an upward drift-threshold crossing of a scope's EWMA
/// Q-error.
pub fn drift(scope: &str, ewma_q: f64, threshold: f64) {
    record(active(), || TraceKind::Drift {
        scope: scope.to_string(),
        ewma_q,
        threshold,
    });
}

/// Records a feedback tune step that was journaled and applied.
pub fn tune_applied(key: &str, qerror_pre: f64, qerror_post: f64) {
    record(active(), || TraceKind::TuneApplied {
        key: key.to_string(),
        qerror_pre,
        qerror_post,
    });
}

/// Records a feedback tune step that was evaluated but skipped.
pub fn tune_skipped(key: &str, reason: &'static str) {
    record(active(), || TraceKind::TuneSkipped {
        key: key.to_string(),
        reason,
    });
}

/// Drains every flushed event — the retired buffer plus all live
/// per-thread rings — merged into one sequence-ordered stream. A batch
/// still held by an open span tree is not seen, nor are events recorded
/// concurrently with the drain: they land in a later drain.
pub fn drain() -> Vec<TraceEvent> {
    let mut retired = retired().lock();
    let mut out: Vec<TraceEvent> = std::mem::take(&mut *retired);
    let rings: Vec<Arc<ThreadRing>> = live_rings().lock().clone();
    for r in rings {
        r.ring.lock().drain_into(&mut out);
    }
    drop(retired);
    out.sort_by_key(|e| e.seq);
    out
}

/// Drains the calling thread's ring only, oldest first, after flushing
/// its batch: the events this thread recorded or [`publish`]ed. It
/// neither sees nor takes another thread's, so a caller whose emissions
/// all happen on its own thread reads back exactly those.
pub fn drain_thread() -> Vec<TraceEvent> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.flush();
        let mut out = Vec::new();
        l.ring.ring.lock().drain_into(&mut out);
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
        Recorder::global().stats_resolved(&"t.global".into(), None, "uniform", None);
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
        Recorder::global().stats_resolved(&"t.a".into(), Some("v_opt_end_biased"), "spec", Some(0));
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
    fn a_span_trees_events_get_consecutive_sequence_numbers() {
        let _guard = crate::test_lock();
        drain();
        let outer = crate::span("trace_tree_outer");
        Recorder::global().cache_probe(false, 1, 1);
        // Recorded outside any span on another thread, while this
        // thread's tree is open: numbered first.
        std::thread::scope(|s| {
            s.spawn(|| daemon_sweep(501));
        });
        {
            let _inner = crate::span("trace_tree_inner");
            Recorder::global().rung_chosen(&"t.a".into(), "spec");
        }
        drop(outer);
        let events = drain();
        let me = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::SpanOpen { path } if path == "trace_tree_outer"))
            .expect("outer open recorded")
            .thread;
        let tree: Vec<&TraceEvent> = events.iter().filter(|e| e.thread == me).collect();
        let names: Vec<&str> = tree.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "span_open",
                "cache_miss",
                "span_open",
                "rung",
                "span_close",
                "span_close"
            ]
        );
        assert!(
            tree.windows(2).all(|w| w[1].seq == w[0].seq + 1),
            "a span tree is numbered consecutively: {tree:?}"
        );
        let sweep = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::DaemonSweep { tick: 501 }))
            .expect("the other thread's event was recorded");
        assert!(
            sweep.seq < tree[0].seq,
            "numbered when flushed, not when recorded"
        );
    }

    #[test]
    fn a_full_batch_is_visible_before_its_span_closes() {
        let _guard = crate::test_lock();
        drain();
        let drain_elsewhere = || std::thread::scope(|s| s.spawn(drain).join().unwrap());
        let sp = crate::span("trace_batch_full");
        daemon_sweep(0);
        let me = LOCAL.with(|l| l.borrow().ring.thread);
        let mine = |events: Vec<TraceEvent>| -> Vec<TraceEvent> {
            events.into_iter().filter(|e| e.thread == me).collect()
        };
        assert!(
            mine(drain_elsewhere()).is_empty(),
            "an open span tree's events are held back"
        );
        // With the open and the first sweep, BATCH_CAPACITY + 10 events.
        for tick in 1..BATCH_CAPACITY as u64 + 9 {
            daemon_sweep(tick);
        }
        let flushed = mine(drain_elsewhere());
        assert_eq!(flushed.len(), BATCH_CAPACITY, "one full batch is flushed");
        assert!(matches!(flushed[0].kind, TraceKind::SpanOpen { .. }));
        drop(sp);
        let rest = mine(drain_elsewhere());
        assert_eq!(rest.len(), 11, "the rest is flushed when the span closes");
        assert!(matches!(rest[10].kind, TraceKind::SpanClose { .. }));
        assert_eq!(rest[0].seq, flushed[BATCH_CAPACITY - 1].seq + 1);
    }

    #[test]
    fn an_event_outside_any_span_is_visible_at_once() {
        let _guard = crate::test_lock();
        drain();
        daemon_sweep(4242);
        let seen = std::thread::scope(|s| s.spawn(drain).join().unwrap());
        assert!(seen
            .iter()
            .any(|e| matches!(e.kind, TraceKind::DaemonSweep { tick: 4242 })));
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
