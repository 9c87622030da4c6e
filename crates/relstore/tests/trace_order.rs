//! Span paths and trace order across `par_map`: nested spans keep their
//! dotted paths in the registry and the trace, a worker's spans are
//! rooted on the worker as they always were, and the caller publishes
//! the workers' events in item order whichever worker ran first.

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

#[test]
fn worker_spans_keep_their_paths_and_publish_in_item_order() {
    obs::set_enabled(true);
    obs::trace::set_trace_enabled(true);
    obs::trace::drain_thread();
    // Four workers over eight items: item 0 runs on the first worker,
    // item 6 on the last. Item 0 waits until item 6 has recorded, so
    // the last worker's events are always recorded first.
    let item6_recorded = Barrier::new(2);
    {
        let _a = obs::span("a");
        drop(obs::span("b"));
        let out = par_map((0..ITEMS.len()).collect(), 4, |&i| {
            if i == 0 {
                item6_recorded.wait();
            }
            {
                let _item = obs::span(ITEMS[i]);
                drop(obs::span("b"));
            }
            if i == 6 {
                item6_recorded.wait();
            }
            i
        });
        assert_eq!(out, (0..ITEMS.len()).collect::<Vec<_>>());
        par_map(vec![0], 1, |&i| drop(obs::span(ITEMS[i])));
    }
    let events = obs::trace::drain_thread();
    let mut expected = vec!["a".to_string(), "a.b".to_string()];
    for name in ITEMS {
        expected.push(name.to_string());
        expected.push(format!("{name}.b"));
    }
    // One thread runs its items in place, under the caller's span.
    expected.push("a.item0".to_string());
    let text = obs::trace::jsonl(&events);
    assert_eq!(open_paths(&text), expected);
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "published events are numbered in publish order"
    );
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
