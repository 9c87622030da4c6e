//! Thread-local hierarchical spans with monotonic timers.
//!
//! [`span("engine.query")`](span) opens a span; dropping (or
//! [`finish`](SpanGuard::finish)ing) it records the wall time into the
//! per-path latency histogram `span_seconds{span="<path>"}` and, while
//! tracing, emits the span's open and close events to [`crate::trace`],
//! the one event sink. Nesting is tracked per thread: a span opened
//! while another is active gets the dotted concatenation of its
//! ancestors' names as its path, so `engine.query` containing
//! `estimate` records as `engine.query.estimate`. Another thread can
//! open spans under this thread's innermost one by running
//! [`within`] the handle [`current`] returns, as fork-join workers do.
//!
//! # Interned paths
//!
//! The first open of a path interns it: (parent node, name) maps to a
//! leaked `&'static` node holding the dotted path and its
//! resolved `span_seconds` histogram. A per-thread cache answers repeat
//! opens by address, a global interner keyed by content answers the
//! rest, so a warm span open and close neither allocates nor probes the
//! metrics registry. Nodes are never freed; their number is bounded by
//! the number of distinct span paths, the same bound the registry has
//! on `span_seconds` series. Each span edge reads the clock once, and
//! that reading also stamps the edge's trace event.
//!
//! With recording disabled, opening a span is one relaxed atomic load;
//! no clock is read and no thread-local is touched.

use crate::metrics::LatencyHistogram;
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One interned span path: its dotted path, its parent, and its
/// `span_seconds{span="<path>"}` histogram.
struct SpanNode {
    path: &'static str,
    parent: Option<&'static SpanNode>,
    histogram: Arc<LatencyHistogram>,
}

/// Word-at-a-time hasher for the per-thread cache, whose keys are
/// addresses and lengths, never input from outside the program.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_usize(b.into()));
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// (parent node address, name address, name length): equal keys name
/// the same bytes under the same parent.
type AddrKey = (usize, usize, usize);

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<Option<&'static SpanNode>> = const { Cell::new(None) };
    static NODE_CACHE: RefCell<HashMap<AddrKey, &'static SpanNode, BuildHasherDefault<AddrHasher>>> =
        RefCell::new(HashMap::default());
}

fn addr(node: Option<&'static SpanNode>) -> usize {
    node.map_or(0, |n| n as *const SpanNode as usize)
}

/// The node for `name` under `parent`, interned on first use.
fn child(parent: Option<&'static SpanNode>, name: &'static str) -> &'static SpanNode {
    let key = (addr(parent), name.as_ptr() as usize, name.len());
    NODE_CACHE.with(|c| {
        *c.borrow_mut()
            .entry(key)
            .or_insert_with(|| intern(parent, name))
    })
}

fn intern(parent: Option<&'static SpanNode>, name: &'static str) -> &'static SpanNode {
    type Interner = Mutex<HashMap<(usize, &'static str), &'static SpanNode>>;
    static NODES: OnceLock<Interner> = OnceLock::new();
    let mut nodes = NODES.get_or_init(Default::default).lock();
    nodes.entry((addr(parent), name)).or_insert_with(|| {
        let path = match parent {
            Some(p) => format!("{}.{name}", p.path),
            None => name.to_string(),
        };
        let histogram =
            crate::metrics::histogram(&crate::metrics::labeled("span_seconds", "span", &path));
        Box::leak(Box::new(SpanNode {
            path: Box::leak(path.into_boxed_str()),
            parent,
            histogram,
        }))
    })
}

/// The dotted path of the currently open spans (empty when none).
pub fn current_path() -> &'static str {
    CURRENT.get().map_or("", |n| n.path)
}

/// A thread's innermost open span, as a handle another thread can run
/// [`within`]. Span nodes live forever, so the handle is `Copy` and
/// `Send`.
#[derive(Clone, Copy)]
pub struct SpanParent(Option<&'static SpanNode>);

/// The innermost open span on this thread (none when no span is open).
pub fn current() -> SpanParent {
    SpanParent(CURRENT.get())
}

/// Runs `f` with `parent` as this thread's innermost open span, so the
/// spans `f` opens get the paths they would get on `parent`'s own
/// thread. A fork-join worker runs its items within the caller's span,
/// so a span's path does not depend on which thread ran it.
pub fn within<R>(parent: SpanParent, f: impl FnOnce() -> R) -> R {
    /// Puts the thread's own span back, even if `f` panics.
    struct Restore(Option<&'static SpanNode>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.set(self.0);
        }
    }
    let _restore = Restore(CURRENT.replace(parent.0));
    f()
}

/// RAII guard for an open span. Recording happens on drop or
/// [`finish`](SpanGuard::finish).
#[must_use = "a span measures until it is dropped or finished"]
pub struct SpanGuard {
    /// `None` when recording was disabled at open time (no-op guard) or
    /// the span already finished.
    armed: Option<Armed>,
}

struct Armed {
    start: Instant,
    node: &'static SpanNode,
    /// Flight-recorder span id (0 when tracing was off at open time).
    trace_id: u64,
}

/// Opens a span named `name` (a static, dot-free component).
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { armed: None };
    }
    let node = child(CURRENT.get(), name);
    CURRENT.set(Some(node));
    let start = Instant::now();
    let trace_id = crate::trace::open_span(node.path, start);
    SpanGuard {
        armed: Some(Armed {
            start,
            node,
            trace_id,
        }),
    }
}

impl SpanGuard {
    /// Closes the span now, recording and returning its wall time.
    /// Returns zero for a guard opened while recording was disabled.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    /// The span's dotted path (empty for a disabled guard).
    pub fn path(&self) -> &'static str {
        self.armed.as_ref().map_or("", |a| a.node.path)
    }

    fn close(&mut self) -> Duration {
        let Some(armed) = self.armed.take() else {
            return Duration::ZERO;
        };
        let end = Instant::now();
        let elapsed = end.saturating_duration_since(armed.start);
        CURRENT.set(armed.node.parent);
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        armed.node.histogram.observe_ns(ns);
        crate::trace::close_span(armed.trace_id, armed.node.path, ns, end);
        elapsed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_dotted_paths() {
        let _guard = crate::test_lock();
        let outer = span("outer");
        assert_eq!(outer.path(), "outer");
        {
            let inner = span("inner");
            assert_eq!(inner.path(), "outer.inner");
            assert_eq!(current_path(), "outer.inner");
        }
        assert_eq!(current_path(), "outer");
        drop(outer);
        assert_eq!(current_path(), "");
    }

    #[test]
    fn finish_records_into_histogram_and_ring() {
        let _guard = crate::test_lock();
        crate::trace::drain_thread();
        let before = crate::metrics::histogram(&crate::metrics::labeled(
            "span_seconds",
            "span",
            "span_test_unit",
        ))
        .count();
        let elapsed = span("span_test_unit").finish();
        assert!(elapsed.as_nanos() > 0);
        let after = crate::metrics::histogram(&crate::metrics::labeled(
            "span_seconds",
            "span",
            "span_test_unit",
        ))
        .count();
        assert_eq!(after, before + 1);
        let events = crate::trace::drain_thread();
        assert!(events.iter().any(|e| matches!(
            e.kind,
            crate::trace::TraceKind::SpanClose { path: "span_test_unit", elapsed_ns }
                if elapsed_ns == elapsed.as_nanos() as u64
        )));
    }

    #[test]
    fn equal_names_at_different_addresses_share_one_node() {
        let _guard = crate::test_lock();
        let name: &'static str = Box::leak(String::from("outer").into_boxed_str());
        let a = span("outer");
        let a_node = CURRENT.get().expect("open span");
        drop(a);
        let b = span(name);
        assert!(std::ptr::eq(a_node, CURRENT.get().expect("open span")));
        drop(b);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        let sp = span("span_disabled_test");
        assert_eq!(sp.path(), "");
        assert_eq!(current_path(), "");
        assert_eq!(sp.finish(), Duration::ZERO);
        crate::set_enabled(true);
    }
}
