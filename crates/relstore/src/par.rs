//! Minimal fork-join parallel map built on crossbeam's scoped threads.
//!
//! Originally an experiments-local helper for the figure sweeps, now
//! shared here so catalog-wide ANALYZE ([`crate::catalog`] consumers
//! such as the engine) can build every column's histogram in parallel.
//! Work is fanned out in contiguous chunks to at most `max_threads`
//! scoped workers while preserving input order, so a parallel ANALYZE
//! stores exactly what the sequential one would. Timing experiments
//! (Table 1, ablations) stay sequential on purpose — wall-clock numbers
//! should not fight for cores.

/// Applies `f` to every item, in parallel, preserving order.
///
/// Spawns at most `max_threads` scoped workers (clamped to the item
/// count). Panics in workers propagate. Workers run their items within
/// the caller's span, so a span opened by `f` has the same path at
/// every thread count. They capture each item's trace events and the
/// calling thread publishes them in item order after the join, so the
/// trace's global sequence does not depend on which worker ran first.
pub fn par_map<T, R, F>(items: Vec<T>, max_threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = max_threads.max(1).min(n);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let mut out: Vec<Option<(R, obs::trace::Captured)>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    let parent = obs::span::current();
    crossbeam::thread::scope(|scope| {
        let f = &f;
        for (item_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move |_| {
                obs::span::within(parent, || {
                    for (item, slot) in item_chunk.iter().zip(out_chunk.iter_mut()) {
                        *slot = Some(obs::trace::capture(|| f(item)));
                    }
                })
            });
        }
    })
    .expect("worker panicked");
    out.into_iter()
        .map(|slot| {
            let (r, events) = slot.expect("every slot was filled by its chunk's worker");
            obs::trace::publish(events);
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items.clone(), 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn preserves_order_at_every_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in 1..=12 {
            assert_eq!(
                par_map(items.clone(), threads, |&x| x * x + 1),
                expected,
                "order broken at {threads} threads"
            );
        }
    }

    #[test]
    fn single_thread_path() {
        let out = par_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = par_map(Vec::<u64>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(vec![7], 16, |&x| x);
        assert_eq!(out, vec![7]);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let _ = par_map((0u64..32).collect(), 4, |&x| {
            if x == 17 {
                panic!("boom at {x}");
            }
            x
        });
    }

    #[test]
    #[should_panic]
    fn panic_on_single_thread_path_propagates_too() {
        let _ = par_map(vec![1u64], 1, |_| -> u64 { panic!("boom") });
    }
}
