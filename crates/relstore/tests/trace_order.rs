//! Span paths and trace order across `par_map`: nested spans keep their
//! dotted paths in the registry and the trace, a worker's spans nest
//! under the caller's span exactly as the one-thread path's do, and the
//! caller publishes the workers' events in item order whichever worker
//! ran first.

use relstore::par_map;
use std::sync::Barrier;

const ITEMS: [&str; 8] = [
    "item0", "item1", "item2", "item3", "item4", "item5", "item6", "item7",
];

/// The `path` of every `span_open` line of a JSONL trace, in order.
fn open_paths(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .filter(|line| line.contains(r#""event":"span_open""#))
        .filter_map(|line| line.split(r#""path":""#).nth(1)?.split('"').next())
        .map(str::to_string)
        .collect()
}

/// Runs every item under the open span `a` on `threads` threads, each
/// item opening `itemN` and a nested `b`, and returns the `span_open`
/// paths the calling thread's trace holds afterwards.
fn traced_paths(threads: usize) -> Vec<String> {
    obs::trace::drain_thread();
    // Item 0 runs on the first worker and item 6 on the last; with more
    // than one thread, item 0 waits until item 6 has recorded, so the
    // last worker's events are always recorded first.
    let item6_recorded = Barrier::new(2);
    {
        let _a = obs::span("a");
        drop(obs::span("b"));
        let out = par_map((0..ITEMS.len()).collect(), threads, |&i| {
            if threads > 1 && i == 0 {
                item6_recorded.wait();
            }
            {
                let _item = obs::span(ITEMS[i]);
                drop(obs::span("b"));
            }
            if threads > 1 && i == 6 {
                item6_recorded.wait();
            }
            i
        });
        assert_eq!(out, (0..ITEMS.len()).collect::<Vec<_>>());
    }
    let events = obs::trace::drain_thread();
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "published events are numbered in publish order"
    );
    open_paths(&obs::trace::jsonl(&events))
}

#[test]
fn worker_spans_keep_their_paths_and_publish_in_item_order() {
    obs::set_enabled(true);
    obs::trace::set_trace_enabled(true);
    let mut expected = vec!["a".to_string(), "a.b".to_string()];
    for name in ITEMS {
        expected.push(format!("a.{name}"));
        expected.push(format!("a.{name}.b"));
    }
    // Workers nest items under the caller's span, as one thread does in
    // place, so the paths do not depend on the thread count.
    assert_eq!(traced_paths(4), expected, "four threads");
    assert_eq!(traced_paths(1), expected, "one thread");
    let keys: Vec<String> = obs::metrics::registry()
        .histogram_handles()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for path in &expected {
        let key = obs::labeled("span_seconds", "span", path);
        assert!(keys.contains(&key), "{key} missing from the registry");
    }
}
