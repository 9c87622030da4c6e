//! Recorder handles: who owns a metric or a trace gate.
//!
//! A [`Recorder`] owns one metrics [`Registry`] and one trace gate. The
//! process-global recorder ([`Recorder::global`]) is the default owner:
//! the free functions ([`crate::counter`], [`crate::trace::set_trace_enabled`],
//! [`crate::trace::wal_append`], …) and the exporters act on it, so
//! `histctl metrics`/`trace` see everything recorded through them.
//!
//! A component that must be observed in isolation is handed a private
//! recorder from [`Recorder::new`] instead (`engine::Engine::with_recorder`).
//! Its counters live in the private registry, and toggling its trace gate
//! changes nothing for any other recorder. Trace events of every recorder
//! land in the emitting thread's ring; [`crate::trace::drain_thread`] reads
//! them back without seeing or taking another thread's events.
//!
//! The obs master switch ([`crate::enabled`]) stays process-wide: it is the
//! one switch the overhead contract gates every instrumentation point on,
//! so a recorder records only while it is on.

use crate::metrics::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// A metrics registry plus a trace gate, shared by every component
/// recording through one handle.
pub struct Recorder {
    registry: Registry,
    /// Tracing is ON by default: the whole point of a flight recorder is
    /// that it was running when the interesting thing happened.
    trace_on: AtomicBool,
}

impl Recorder {
    /// A private recorder: an empty registry, tracing on.
    pub fn new() -> Self {
        Self {
            registry: Registry::default(),
            trace_on: AtomicBool::new(true),
        }
    }

    /// The process-global recorder, the default for every component.
    pub fn global() -> &'static Arc<Recorder> {
        static GLOBAL: OnceLock<Arc<Recorder>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Recorder::new()))
    }

    /// This recorder's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Whether this recorder's trace gate is open (emission additionally
    /// requires [`crate::enabled`], the obs master switch).
    pub fn trace_enabled(&self) -> bool {
        self.trace_on.load(Ordering::Relaxed)
    }

    /// Opens or closes this recorder's trace gate without touching its
    /// metrics or any other recorder.
    pub fn set_trace_enabled(&self, on: bool) {
        self.trace_on.store(on, Ordering::Relaxed);
    }

    /// Whether a trace emission through this recorder would record right
    /// now: the obs master switch AND this recorder's gate. Callers with
    /// non-trivial argument preparation should check this first.
    #[inline(always)]
    pub fn trace_active(&self) -> bool {
        crate::enabled() && self.trace_on.load(Ordering::Relaxed)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("trace_on", &self.trace_enabled())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_recorders_own_their_counters_and_gate() {
        let _guard = crate::test_lock();
        let a = Recorder::new();
        let b = Recorder::new();
        a.registry().counter("test_recorder_private_total").add(3);
        assert_eq!(a.registry().counter("test_recorder_private_total").get(), 3);
        assert_eq!(b.registry().counter("test_recorder_private_total").get(), 0);
        assert_eq!(crate::counter("test_recorder_private_total").get(), 0);
        a.set_trace_enabled(false);
        assert!(!a.trace_enabled());
        assert!(b.trace_enabled());
    }

    #[test]
    fn global_recorder_backs_the_free_functions() {
        let _guard = crate::test_lock();
        let c = crate::counter("test_recorder_global_total");
        c.inc();
        assert_eq!(
            Recorder::global()
                .registry()
                .counter("test_recorder_global_total")
                .get(),
            c.get()
        );
        crate::trace::set_trace_enabled(false);
        assert!(!Recorder::global().trace_enabled());
        crate::trace::set_trace_enabled(true);
        assert!(Recorder::global().trace_enabled());
    }
}
