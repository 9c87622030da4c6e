//! An engine records its rung counters and estimation trace events to
//! the recorder it was built with. This file holds a single test so that
//! nothing else in its process moves the global counters it compares.

use engine::Engine;
use freqdist::zipf::zipf_frequencies;
use obs::Recorder;
use relstore::generate::relation_from_frequency_set;
use std::sync::Arc;

const RUNGS: [&str; 4] = ["spec", "end_biased", "trivial", "uniform"];

fn rung_totals(recorder: &Recorder) -> [u64; 4] {
    RUNGS.map(|r| {
        recorder
            .registry()
            .counter(&obs::labeled("estimate_rung_total", "rung", r))
            .get()
    })
}

/// `t` is analyzed (its lookups answer from `spec`); `u` is not (its
/// lookups fall to `uniform`).
fn engine_on(engine: &mut Engine) {
    let freqs = zipf_frequencies(200, 10, 1.0).unwrap();
    engine.register(relation_from_frequency_set("t", "a", &freqs, 1).unwrap());
    engine.analyze_all(4).unwrap();
    engine.register(relation_from_frequency_set("u", "a", &freqs, 2).unwrap());
}

/// Events the estimation path emits, by their exported names.
fn estimation_events(events: &[obs::trace::TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.name(),
                "cache_hit" | "cache_miss" | "rung" | "stats_resolved"
            )
        })
        .count()
}

#[test]
fn rung_counters_and_events_go_to_the_engines_recorder() {
    let global = Recorder::global();

    // A private recorder: its counters move, the global ones never do.
    let private = Arc::new(Recorder::new());
    let mut engine = Engine::with_recorder(Arc::clone(&private));
    engine_on(&mut engine);
    let on_t = engine
        .parse("SELECT COUNT(*) FROM t WHERE t.a = 0")
        .unwrap();
    let on_u = engine
        .parse("SELECT COUNT(*) FROM u WHERE u.a = 0")
        .unwrap();
    let global_before = rung_totals(global);
    obs::trace::drain_thread();
    engine.estimate(&on_t).unwrap(); // miss
    engine.estimate(&on_t).unwrap(); // hit, replayed through the counters
    engine.estimate(&on_u).unwrap();
    assert_eq!(rung_totals(&private), [2, 0, 0, 1]);
    assert_eq!(rung_totals(global), global_before);
    assert!(estimation_events(&obs::trace::drain_thread()) > 0);

    // Its trace gate is its own: closed, it silences the engine even
    // with the global gate open; open, it records with the global one
    // closed.
    private.set_trace_enabled(false);
    engine.estimate(&on_t).unwrap();
    assert_eq!(estimation_events(&obs::trace::drain_thread()), 0);
    private.set_trace_enabled(true);
    obs::trace::set_trace_enabled(false);
    engine.estimate(&on_t).unwrap();
    obs::trace::set_trace_enabled(true);
    assert!(estimation_events(&obs::trace::drain_thread()) > 0);
    assert_eq!(rung_totals(global), global_before);

    // A default engine still records to the process-global recorder: its
    // counters move and its events reach the global drain.
    let mut engine = Engine::new();
    engine_on(&mut engine);
    let on_t = engine
        .parse("SELECT COUNT(*) FROM t WHERE t.a = 0")
        .unwrap();
    obs::trace::drain();
    engine.estimate(&on_t).unwrap();
    engine.estimate(&on_t).unwrap();
    let after = rung_totals(global);
    assert_eq!(after[0], global_before[0] + 2, "spec counter");
    assert_eq!(after[1..], global_before[1..]);
    let events = obs::trace::jsonl(&obs::trace::drain());
    assert!(events.contains(r#""event":"cache_miss""#), "{events}");
    assert!(events.contains(r#""event":"cache_hit""#), "{events}");
    assert!(
        events.contains(r#""event":"rung","target":"t.a","rung":"spec""#),
        "{events}"
    );
    assert!(
        events.contains(r#""event":"stats_resolved","key":"t.a""#),
        "{events}"
    );
}
