//! The background statistics-maintenance daemon.
//!
//! §2.3 of the paper defers "appropriate schedules of database update
//! propagation to histograms"; [`crate::maintenance::RefreshPolicy`] is
//! the threshold rule such a schedule applies, and this module is the
//! schedule itself: an always-on loop that sweeps registered columns,
//! re-ANALYZEs the stale ones through a [`DurableCatalog`] (so every
//! refresh is journaled), and keeps itself healthy when refreshes fail:
//!
//! * **Retry with exponential backoff + jitter** — a failed refresh
//!   parks the column for `base · 2^(failures−1)` ticks (capped) plus a
//!   seeded-random jitter tick, so a flapping column cannot hot-loop.
//!   The jitter RNG is a deterministic [`StdRng`]: the same seed and
//!   the same failure schedule replay the exact same trace, which the
//!   determinism test pins.
//! * **Circuit breaker** — after `breaker_threshold` *consecutive*
//!   failures the column's breaker opens: the sweep skips it entirely
//!   for `breaker_cooldown_ticks`, then lets one half-open probe
//!   through. A successful probe closes the breaker; a failed one
//!   reopens it. One poisoned column can therefore never starve the
//!   rest of the sweep.
//! * **Journal compaction** — when the store's journal exceeds
//!   `compaction_bytes`, the sweep checkpoints it into a fresh
//!   snapshot generation ([`DurableCatalog::checkpoint`]).
//! * **Refresh prioritization** — an optional [`RefreshPrioritizer`]
//!   reorders each sweep so the most urgent columns refresh first.
//!   [`DriftPrioritizer`] feeds the estimation-quality drift watchdog's
//!   per-column crossing counts back into the schedule: columns whose
//!   estimates are drifting get re-ANALYZEd ahead of the rest. Only the
//!   visit *order* is wired here — what "urgent" means is the
//!   prioritizer's policy, the seam a future self-tuning layer plugs
//!   into. With no prioritizer set, sweeps visit registration order
//!   exactly as before.
//!
//! [`DaemonCore`] is the pure, single-threaded state machine on a
//! virtual tick clock — fully deterministic and driven directly by
//! tests and the oracle. [`Daemon`] wraps it in a thread fed by a
//! `crossbeam` channel: each tick is one `recv_timeout` interval, and
//! [`Daemon::sweep_now`] / [`Daemon::stop`] are just messages.

use crate::catalog::StatKey;
use crate::maintenance::{MaintenanceOutcome, RefreshPolicy};
use crate::relation::Relation;
use crate::wal::DurableCatalog;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use vopt_hist::feedback::TuneConfig;
use vopt_hist::BuilderSpec;

/// Tuning knobs for the maintenance daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// When a column's statistics are due for a rebuild.
    pub policy: RefreshPolicy,
    /// First-retry delay in ticks after a failure (doubles per
    /// consecutive failure).
    pub base_backoff_ticks: u64,
    /// Backoff cap in ticks (before jitter).
    pub max_backoff_ticks: u64,
    /// Seed of the jitter RNG; same seed + same failure schedule →
    /// identical trace.
    pub jitter_seed: u64,
    /// Consecutive failures that open a column's circuit breaker.
    pub breaker_threshold: u64,
    /// Ticks an open breaker waits before letting a half-open probe
    /// through.
    pub breaker_cooldown_ticks: u64,
    /// Journal size (bytes) above which a sweep checkpoints the store.
    pub compaction_bytes: u64,
    /// Whether sweeps run the feedback tune pass: after the refresh
    /// pass, each registered column's latest per-column (estimate,
    /// actual) quality observation is fed through
    /// [`DurableCatalog::tune_column`]. Off by default — with tuning
    /// disabled, sweeps are bit-for-bit the pre-feedback behaviour
    /// (identical traces, identical journals).
    pub self_tune: bool,
    /// Tuner parameters for the feedback pass.
    pub tune: TuneConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            policy: RefreshPolicy::default(),
            base_backoff_ticks: 1,
            max_backoff_ticks: 64,
            jitter_seed: 0,
            breaker_threshold: 3,
            breaker_cooldown_ticks: 8,
            compaction_bytes: 1 << 20,
            self_tune: false,
            tune: TuneConfig::default(),
        }
    }
}

/// Circuit-breaker state of one maintained column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Refreshes flow normally.
    Closed,
    /// Too many consecutive failures; the sweep skips the column until
    /// the stored tick, then probes.
    Open {
        /// First tick at which a half-open probe is allowed.
        until: u64,
    },
    /// Cooldown elapsed; exactly one probe refresh is allowed through.
    HalfOpen,
}

/// One entry in the daemon's deterministic event trace. The trace is
/// the daemon's observable behaviour — the determinism test asserts
/// trace equality across replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaemonEvent {
    /// A refresh ran and stored a new histogram.
    Refreshed {
        /// Column key display (`rel(col)`).
        column: String,
        /// Virtual tick of the sweep.
        tick: u64,
    },
    /// A refresh failed; the column backs off.
    RefreshFailed {
        /// Column key display.
        column: String,
        /// Virtual tick of the sweep.
        tick: u64,
        /// The error string.
        error: String,
        /// Next tick at which a retry is allowed.
        retry_at: u64,
    },
    /// The column's breaker opened (threshold reached, or a half-open
    /// probe failed).
    BreakerOpened {
        /// Column key display.
        column: String,
        /// Virtual tick of the sweep.
        tick: u64,
        /// First tick at which a probe is allowed.
        until: u64,
    },
    /// Cooldown elapsed; the next refresh of this column is a probe.
    BreakerHalfOpen {
        /// Column key display.
        column: String,
        /// Virtual tick of the sweep.
        tick: u64,
    },
    /// A half-open probe succeeded; normal service resumed.
    BreakerClosed {
        /// Column key display.
        column: String,
        /// Virtual tick of the sweep.
        tick: u64,
    },
    /// The journal crossed the compaction threshold and was
    /// checkpointed into a new snapshot generation.
    Compacted {
        /// Virtual tick of the sweep.
        tick: u64,
        /// Journal bytes at the moment the threshold fired.
        journal_bytes: u64,
    },
    /// A threshold-triggered checkpoint failed (e.g. a kill point).
    CompactionFailed {
        /// Virtual tick of the sweep.
        tick: u64,
        /// The error string.
        error: String,
    },
    /// The feedback pass journaled and applied a tune step.
    Tuned {
        /// Column key display (`rel(col)`).
        column: String,
        /// Virtual tick of the sweep.
        tick: u64,
    },
    /// The feedback pass evaluated a column's latest observation but
    /// changed nothing.
    TuneSkipped {
        /// Column key display.
        column: String,
        /// Virtual tick of the sweep.
        tick: u64,
        /// Stable skip reason (`negligible_error`, `zero_mass`, ...).
        reason: String,
    },
    /// The feedback pass tried to tune but the store refused (e.g.
    /// read-only degraded mode or a journal fault).
    TuneFailed {
        /// Column key display.
        column: String,
        /// Virtual tick of the sweep.
        tick: u64,
        /// The error string.
        error: String,
    },
}

/// A column the daemon maintains.
#[derive(Clone)]
pub struct ColumnTask {
    /// The relation to rescan (immutable snapshot shared with callers).
    pub relation: Arc<Relation>,
    /// The column to maintain.
    pub column: String,
    /// Histogram class to build when the column has no recorded spec.
    pub spec: BuilderSpec,
}

impl ColumnTask {
    fn key(&self) -> StatKey {
        StatKey::new(self.relation.name(), &[self.column.as_str()])
    }

    fn display(&self) -> String {
        format!("{}({})", self.relation.name(), self.column)
    }
}

struct ColumnState {
    /// Earliest tick at which a refresh may be attempted (backoff).
    retry_at: u64,
    /// Consecutive failures since the last success.
    failures: u64,
    breaker: BreakerState,
    /// Quality-scope observation count already consumed by the feedback
    /// pass. Each recorded (estimate, actual) pair is fed to the tuner
    /// at most once — a sweep over an idle workload tunes nothing, and
    /// one observation can never drive more than one bounded step.
    tuned_at_count: u64,
}

/// Ranks maintained columns for sweep order: higher priority refreshes
/// earlier within a sweep. Ties (and everything, with no prioritizer
/// set) keep registration order — the sort is stable, so an all-zero
/// prioritizer is behaviourally identical to none.
pub trait RefreshPrioritizer: Send + Sync {
    /// Priority of `relation.column`; higher sweeps earlier.
    fn priority(&self, relation: &str, column: &str) -> u64;
}

/// A [`RefreshPrioritizer`] driven by the estimation-quality drift
/// watchdog: a column's priority is how many times its per-column
/// `col:<relation>.<column>` EWMA Q-error has crossed the drift
/// threshold. Columns nobody has flagged rank 0 and keep registration
/// order.
#[derive(Debug, Default, Clone, Copy)]
pub struct DriftPrioritizer;

impl RefreshPrioritizer for DriftPrioritizer {
    fn priority(&self, relation: &str, column: &str) -> u64 {
        obs::quality::scope_snapshot(&format!("col:{relation}.{column}"))
            .map_or(0, |s| s.drift_events)
    }
}

/// The deterministic sweep state machine. Drive it directly (tests,
/// oracle) via [`DaemonCore::tick_injected`], or against a real store
/// via [`DaemonCore::tick`]; wrap it in [`Daemon`] for the always-on
/// thread.
pub struct DaemonCore {
    config: DaemonConfig,
    rng: StdRng,
    tasks: Vec<ColumnTask>,
    states: Vec<ColumnState>,
    trace: Vec<DaemonEvent>,
    tick: u64,
    prioritizer: Option<Arc<dyn RefreshPrioritizer>>,
}

impl DaemonCore {
    /// A core with no registered columns at virtual tick 0.
    pub fn new(config: DaemonConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.jitter_seed);
        Self {
            config,
            rng,
            tasks: Vec::new(),
            states: Vec::new(),
            trace: Vec::new(),
            tick: 0,
            prioritizer: None,
        }
    }

    /// Installs (replacing any previous) the sweep-order prioritizer.
    pub fn set_prioritizer(&mut self, prioritizer: Arc<dyn RefreshPrioritizer>) {
        self.prioritizer = Some(prioritizer);
    }

    /// Registers a column; sweeps visit columns in registration order.
    pub fn register(&mut self, relation: Arc<Relation>, column: impl Into<String>) {
        self.register_with_spec(relation, column, BuilderSpec::VOptEndBiased(8));
    }

    /// [`DaemonCore::register`] with an explicit fallback spec.
    pub fn register_with_spec(
        &mut self,
        relation: Arc<Relation>,
        column: impl Into<String>,
        spec: BuilderSpec,
    ) {
        self.tasks.push(ColumnTask {
            relation,
            column: column.into(),
            spec,
        });
        self.states.push(ColumnState {
            retry_at: 0,
            failures: 0,
            breaker: BreakerState::Closed,
            tuned_at_count: 0,
        });
    }

    /// The event trace so far (append-only).
    pub fn trace(&self) -> &[DaemonEvent] {
        &self.trace
    }

    /// Current virtual tick (number of sweeps run).
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// How many breakers are currently in each state:
    /// `(closed, open, half_open)`.
    pub fn breaker_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for s in &self.states {
            match s.breaker {
                BreakerState::Closed => counts.0 += 1,
                BreakerState::Open { .. } => counts.1 += 1,
                BreakerState::HalfOpen => counts.2 += 1,
            }
        }
        counts
    }

    fn backoff_ticks(&mut self, failures: u64) -> u64 {
        let base = self.config.base_backoff_ticks.max(1);
        let exp = failures.saturating_sub(1).min(63) as u32;
        let raw = base.saturating_mul(1u64 << exp.min(62));
        let capped = raw.min(self.config.max_backoff_ticks.max(base));
        // Jitter desynchronises columns that failed on the same tick.
        capped + self.rng.random_range(0..=base)
    }

    /// One sweep with an injected refresher — the deterministic test
    /// and oracle entry point. `refresh` is called once per column that
    /// is neither backing off nor breaker-skipped, in registration
    /// order (or prioritizer order when one is set).
    pub fn tick_injected(
        &mut self,
        refresh: &mut dyn FnMut(&ColumnTask) -> crate::error::Result<MaintenanceOutcome>,
    ) {
        self.tick += 1;
        let now = self.tick;
        obs::trace::daemon_sweep(now);
        // Visit order: registration order, unless a prioritizer ranks
        // some columns hotter. The sort is stable, so equal priorities
        // (and the no-prioritizer case) never disturb the baseline
        // order — the determinism test's traces stay byte-identical.
        let mut order: Vec<usize> = (0..self.tasks.len()).collect();
        if let Some(prioritizer) = &self.prioritizer {
            order.sort_by_key(|&i| {
                std::cmp::Reverse(
                    prioritizer.priority(self.tasks[i].relation.name(), &self.tasks[i].column),
                )
            });
        }
        for i in order {
            let column = self.tasks[i].display();
            // Breaker gate: skip while open, arm a probe once cooled.
            match self.states[i].breaker {
                BreakerState::Open { until } if now < until => continue,
                BreakerState::Open { .. } => {
                    self.states[i].breaker = BreakerState::HalfOpen;
                    obs::trace::breaker(&column, "half_open");
                    self.trace.push(DaemonEvent::BreakerHalfOpen {
                        column: column.clone(),
                        tick: now,
                    });
                }
                _ => {}
            }
            // Backoff gate.
            if now < self.states[i].retry_at {
                continue;
            }
            let probing = self.states[i].breaker == BreakerState::HalfOpen;
            match refresh(&self.tasks[i]) {
                Ok(outcome) => {
                    self.states[i].failures = 0;
                    self.states[i].retry_at = 0;
                    if probing {
                        self.states[i].breaker = BreakerState::Closed;
                        obs::trace::breaker(&column, "closed");
                        self.trace.push(DaemonEvent::BreakerClosed {
                            column: column.clone(),
                            tick: now,
                        });
                    }
                    if outcome == MaintenanceOutcome::Refreshed {
                        obs::counter("daemon_refresh_total").inc();
                        self.trace
                            .push(DaemonEvent::Refreshed { column, tick: now });
                    }
                }
                Err(e) => {
                    obs::counter("daemon_refresh_failure_total").inc();
                    self.states[i].failures += 1;
                    let failures = self.states[i].failures;
                    let retry_at = now + self.backoff_ticks(failures);
                    self.states[i].retry_at = retry_at;
                    self.trace.push(DaemonEvent::RefreshFailed {
                        column: column.clone(),
                        tick: now,
                        error: e.to_string(),
                        retry_at,
                    });
                    if probing || failures >= self.config.breaker_threshold {
                        let until = now + self.config.breaker_cooldown_ticks;
                        self.states[i].breaker = BreakerState::Open { until };
                        obs::trace::breaker(&column, "open");
                        self.trace.push(DaemonEvent::BreakerOpened {
                            column,
                            tick: now,
                            until,
                        });
                    }
                }
            }
        }
        let (closed, open, half_open) = self.breaker_counts();
        obs::gauge("daemon_breaker_closed").set(closed as f64);
        obs::gauge("daemon_breaker_open").set(open as f64);
        obs::gauge("daemon_breaker_half_open").set(half_open as f64);
    }

    /// One production sweep against a durable store: refreshes go
    /// through [`DurableCatalog::maintain_column`] (journaled, failure
    /// streaks recorded), then the journal is compacted if it crossed
    /// the configured threshold. When the store has degraded to
    /// read-only (a durable write failed), the sweep first probes it
    /// with a checkpoint via [`DurableCatalog::probe_restore`]: a
    /// success restores read-write before any refresh runs, so one
    /// clean sweep is enough to recover from a transient disk fault.
    pub fn tick(&mut self, store: &DurableCatalog) {
        let _span = obs::span("daemon_sweep");
        let started = std::time::Instant::now();
        store.probe_restore();
        let policy = self.config.policy;
        self.tick_injected(&mut |task| {
            store.maintain_column(&task.relation, &task.column, task.spec, &policy)
        });
        if self.config.self_tune {
            self.tune_pass(store);
        }
        let journal_bytes = store.journal_bytes();
        if journal_bytes >= self.config.compaction_bytes {
            match store.checkpoint() {
                Ok(()) => self.trace.push(DaemonEvent::Compacted {
                    tick: self.tick,
                    journal_bytes,
                }),
                Err(e) => self.trace.push(DaemonEvent::CompactionFailed {
                    tick: self.tick,
                    error: e.to_string(),
                }),
            }
        }
        obs::histogram("daemon_sweep_seconds").observe(started.elapsed());
    }

    /// The feedback pass of one sweep (only with
    /// [`DaemonConfig::self_tune`] on): each registered column's
    /// *newest unconsumed* per-column quality observation — the
    /// `col:<relation>.<column>` scope the estimator's Q-error monitor
    /// feeds — is run through [`DurableCatalog::tune_column`], which
    /// journals and applies a bounded, mass-conserving histogram
    /// adjustment. Runs after the refresh pass so a column that was
    /// just fully re-ANALYZEd skips on the dead zone rather than
    /// tuning a fresh build against a pre-refresh observation.
    fn tune_pass(&mut self, store: &DurableCatalog) {
        let now = self.tick;
        for (task, state) in self.tasks.iter().zip(self.states.iter_mut()) {
            let column = task.display();
            let scope = format!("col:{}.{}", task.relation.name(), task.column);
            let Some(snap) = obs::quality::scope_snapshot(&scope) else {
                continue;
            };
            if snap.count <= state.tuned_at_count {
                continue;
            }
            state.tuned_at_count = snap.count;
            match store.tune_column(
                &task.key(),
                snap.last_estimate,
                snap.last_actual,
                &self.config.tune,
            ) {
                Ok(Ok(_)) => self.trace.push(DaemonEvent::Tuned { column, tick: now }),
                Ok(Err(skip)) => self.trace.push(DaemonEvent::TuneSkipped {
                    column,
                    tick: now,
                    reason: skip.reason().to_string(),
                }),
                Err(e) => self.trace.push(DaemonEvent::TuneFailed {
                    column,
                    tick: now,
                    error: e.to_string(),
                }),
            }
        }
    }
}

/// A control message for the daemon thread.
enum Command {
    SweepNow,
    Stop,
}

/// The always-on maintenance thread: a [`DaemonCore`] swept once per
/// `tick_interval` (or on demand), fed through a `crossbeam` channel.
///
/// Dropping the handle stops the thread; prefer [`Daemon::stop`] to
/// also get the core (and its trace) back.
pub struct Daemon {
    sender: crossbeam::channel::Sender<Command>,
    handle: Option<std::thread::JoinHandle<DaemonCore>>,
}

impl Daemon {
    /// Spawns the sweep thread over `store`.
    pub fn spawn(
        mut core: DaemonCore,
        store: Arc<DurableCatalog>,
        tick_interval: Duration,
    ) -> Daemon {
        let (sender, receiver) = crossbeam::channel::unbounded();
        let handle = std::thread::Builder::new()
            .name("stats-maintenance".into())
            .spawn(move || {
                use crossbeam::channel::RecvTimeoutError;
                // Stop (or a disconnected channel) ends the loop; an
                // explicit sweep request or the tick timeout runs one.
                while let Ok(Command::SweepNow) | Err(RecvTimeoutError::Timeout) =
                    receiver.recv_timeout(tick_interval)
                {
                    core.tick(&store);
                }
                core
            })
            .expect("spawn maintenance daemon thread");
        Daemon {
            sender,
            handle: Some(handle),
        }
    }

    /// Requests an immediate sweep (non-blocking). Returns `false` if
    /// the thread has already exited.
    pub fn sweep_now(&self) -> bool {
        self.sender.send(Command::SweepNow).is_ok()
    }

    /// Stops the thread and returns the core with its final trace.
    pub fn stop(mut self) -> DaemonCore {
        let _ = self.sender.send(Command::Stop);
        self.handle
            .take()
            .expect("daemon thread handle")
            .join()
            .expect("maintenance daemon thread panicked")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.sender.send(Command::Stop);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use crate::generate::relation_from_frequency_set;
    use freqdist::FrequencySet;

    const SPEC: BuilderSpec = BuilderSpec::VOptEndBiased(3);

    fn relation() -> Arc<Relation> {
        let freqs = FrequencySet::new(vec![50, 30, 10, 5, 5]);
        Arc::new(relation_from_frequency_set("t", "c", &freqs, 3).unwrap())
    }

    fn core_with_one_column(config: DaemonConfig) -> DaemonCore {
        let mut core = DaemonCore::new(config);
        core.register_with_spec(relation(), "c", SPEC);
        core
    }

    /// Runs `ticks` sweeps where the refresher fails whenever the
    /// schedule says so (schedule indexed by tick-1).
    fn run_schedule(core: &mut DaemonCore, schedule: &[bool]) {
        for &fail in schedule {
            core.tick_injected(&mut |_| {
                if fail {
                    Err(StoreError::Io("injected failure".into()))
                } else {
                    Ok(MaintenanceOutcome::Refreshed)
                }
            });
        }
    }

    #[test]
    fn same_seed_and_schedule_produce_identical_traces() {
        let config = DaemonConfig {
            jitter_seed: 42,
            base_backoff_ticks: 2,
            ..DaemonConfig::default()
        };
        let schedule: Vec<bool> = (0..40).map(|i| i % 3 != 2).collect();
        let mut a = core_with_one_column(config.clone());
        let mut b = core_with_one_column(config.clone());
        run_schedule(&mut a, &schedule);
        run_schedule(&mut b, &schedule);
        assert!(!a.trace().is_empty());
        assert_eq!(a.trace(), b.trace());
        // A different jitter seed diverges (backoff ticks differ), which
        // proves the jitter is real and the determinism is seed-scoped.
        let mut c = core_with_one_column(DaemonConfig {
            jitter_seed: 43,
            ..config
        });
        run_schedule(&mut c, &schedule);
        assert_ne!(a.trace(), c.trace());
    }

    #[test]
    fn breaker_opens_after_threshold_probes_and_closes() {
        let config = DaemonConfig {
            breaker_threshold: 2,
            breaker_cooldown_ticks: 3,
            base_backoff_ticks: 1,
            max_backoff_ticks: 1,
            ..DaemonConfig::default()
        };
        let mut core = core_with_one_column(config);
        let mut calls = 0u64;
        // Fail until the breaker opens.
        for _ in 0..8 {
            core.tick_injected(&mut |_| {
                calls += 1;
                Err(StoreError::Io("down".into()))
            });
            if core.breaker_counts().1 == 1 {
                break;
            }
        }
        let (_, open, _) = core.breaker_counts();
        assert_eq!(open, 1, "breaker should be open; trace: {:?}", core.trace());
        let calls_when_opened = calls;
        // While open, sweeps skip the column entirely.
        core.tick_injected(&mut |_| {
            calls += 1;
            Err(StoreError::Io("down".into()))
        });
        assert_eq!(calls, calls_when_opened);
        // After the cooldown, a half-open probe goes through; let it
        // succeed and the breaker closes.
        for _ in 0..6 {
            core.tick_injected(&mut |_| {
                calls += 1;
                Ok(MaintenanceOutcome::Refreshed)
            });
            if core.breaker_counts().0 == 1 {
                break;
            }
        }
        assert_eq!(core.breaker_counts(), (1, 0, 0));
        assert!(core
            .trace()
            .iter()
            .any(|e| matches!(e, DaemonEvent::BreakerHalfOpen { .. })));
        assert!(core
            .trace()
            .iter()
            .any(|e| matches!(e, DaemonEvent::BreakerClosed { .. })));
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let config = DaemonConfig {
            breaker_threshold: 1,
            breaker_cooldown_ticks: 2,
            base_backoff_ticks: 1,
            max_backoff_ticks: 1,
            ..DaemonConfig::default()
        };
        let mut core = core_with_one_column(config);
        for _ in 0..8 {
            core.tick_injected(&mut |_| Err(StoreError::Io("down".into())));
        }
        let opens = core
            .trace()
            .iter()
            .filter(|e| matches!(e, DaemonEvent::BreakerOpened { .. }))
            .count();
        assert!(
            opens >= 2,
            "probe failures must reopen; trace: {:?}",
            core.trace()
        );
        assert_eq!(core.breaker_counts().1, 1);
    }

    #[test]
    fn backoff_parks_failing_column_between_retries() {
        let config = DaemonConfig {
            base_backoff_ticks: 4,
            max_backoff_ticks: 4,
            breaker_threshold: u64::MAX, // isolate backoff from breaker
            ..DaemonConfig::default()
        };
        let mut core = core_with_one_column(config);
        let mut calls = 0u64;
        for _ in 0..6 {
            core.tick_injected(&mut |_| {
                calls += 1;
                Err(StoreError::Io("down".into()))
            });
        }
        // First sweep attempts; backoff ≥ 4 ticks parks the next
        // several sweeps, so 6 sweeps can attempt at most twice.
        assert!(calls <= 2, "expected ≤ 2 attempts in 6 ticks, got {calls}");
    }

    #[test]
    fn prioritizer_reorders_the_sweep_stably() {
        struct Fixed(Vec<(&'static str, u64)>);
        impl RefreshPrioritizer for Fixed {
            fn priority(&self, _relation: &str, column: &str) -> u64 {
                self.0
                    .iter()
                    .find(|(c, _)| *c == column)
                    .map_or(0, |&(_, p)| p)
            }
        }
        let visit_order = |prioritizer: Option<Arc<dyn RefreshPrioritizer>>| {
            let mut core = DaemonCore::new(DaemonConfig::default());
            for col in ["c0", "c1", "c2"] {
                core.register_with_spec(relation(), col, SPEC);
            }
            if let Some(p) = prioritizer {
                core.set_prioritizer(p);
            }
            let mut visited = Vec::new();
            core.tick_injected(&mut |task| {
                visited.push(task.column.clone());
                Ok(MaintenanceOutcome::Refreshed)
            });
            visited
        };
        // No prioritizer: registration order.
        assert_eq!(visit_order(None), ["c0", "c1", "c2"]);
        // An all-zero prioritizer is behaviourally identical to none.
        assert_eq!(
            visit_order(Some(Arc::new(Fixed(vec![])))),
            ["c0", "c1", "c2"]
        );
        // A hot column jumps the queue; ties keep registration order.
        assert_eq!(
            visit_order(Some(Arc::new(Fixed(vec![("c2", 5)])))),
            ["c2", "c0", "c1"]
        );
    }

    #[test]
    fn drift_prioritizer_promotes_flagged_columns() {
        // Drive the quality monitor's drift watchdog for t.c (the scope
        // DriftPrioritizer reads for relation "t", column "c").
        let p = DriftPrioritizer;
        let before = p.priority("t", "c");
        obs::quality::set_drift_config(obs::quality::DriftConfig {
            alpha: 1.0,
            threshold_q: 2.0,
            min_samples: 1,
        });
        obs::record_quality("col:t.c", 100.0, 1.0);
        obs::quality::set_drift_config(obs::quality::DriftConfig::default());
        assert_eq!(p.priority("t", "c"), before + 1);
        assert_eq!(p.priority("t", "never_recorded"), 0);
    }

    #[test]
    fn daemon_thread_sweeps_and_stops_via_channel() {
        let scratch =
            std::env::temp_dir().join(format!("relstore-daemon-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let store = Arc::new(DurableCatalog::open(&scratch).unwrap());
        let rel = relation();
        let mut core = DaemonCore::new(DaemonConfig::default());
        core.register_with_spec(Arc::clone(&rel), "c", SPEC);
        // A long interval so only the explicit sweep_now drives ticks —
        // keeps the test fast and the tick count predictable.
        let daemon = Daemon::spawn(core, Arc::clone(&store), Duration::from_secs(3600));
        assert!(daemon.sweep_now());
        let key = StatKey::new("t", &["c"]);
        // The first sweep ANALYZEs the never-built column.
        for _ in 0..200 {
            if store.catalog().get(&key).is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(store.catalog().get(&key).is_ok());
        let core = daemon.stop();
        assert!(core
            .trace()
            .iter()
            .any(|e| matches!(e, DaemonEvent::Refreshed { .. })));
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn sweep_compacts_oversized_journal() {
        let scratch =
            std::env::temp_dir().join(format!("relstore-daemon-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let store = DurableCatalog::open(&scratch).unwrap();
        let rel = relation();
        let mut core = DaemonCore::new(DaemonConfig {
            compaction_bytes: 1, // any journaled byte triggers
            ..DaemonConfig::default()
        });
        core.register_with_spec(Arc::clone(&rel), "c", SPEC);
        core.tick(&store); // first ANALYZE journals a put → compaction
        assert!(core
            .trace()
            .iter()
            .any(|e| matches!(e, DaemonEvent::Compacted { .. })));
        assert_eq!(store.generation(), 1);
        assert_eq!(store.journal_bytes(), 0);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
