//! Allocation guard for the SQL front end: tokens borrow from the query
//! text, so lexing allocates once (the token `Vec`), and parsing
//! allocates only what the returned `Query` owns (its `Vec`s and names)
//! plus that one. The counting allocator is this test binary's alone and
//! counts per thread, so nothing else running in the process can move
//! the count.

use engine::ast::{FilterOp, Query};
use engine::parser::parse;
use engine::token::tokenize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: both methods forward to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the count
// is a const-initialised thread-local without a destructor, which never
// allocates. The default `realloc` goes through `alloc`, so it counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One query of each shape the benchmark sends: equality, `<`,
/// `BETWEEN`, an equi-join with a filter and a band join with a filter.
const QUERIES: [&str; 5] = [
    "SELECT COUNT(*) FROM t3 WHERE t3.v = 17",
    "SELECT COUNT(*) FROM t5 WHERE t5.v < 400",
    "SELECT COUNT(*) FROM t1 WHERE t1.v BETWEEN 10 AND 90",
    "SELECT COUNT(*) FROM t2, t6 WHERE t2.v = t6.v AND t2.v < 300",
    "SELECT COUNT(*) FROM t0, t7 WHERE abs(t0.v - t7.v) <= 4 AND t0.v < 512",
];

/// Heap blocks a parsed query owns: each non-empty `Vec` and each name.
fn owned_blocks(q: &Query) -> u64 {
    let vecs = [
        q.tables.is_empty(),
        q.joins.is_empty(),
        q.filters.is_empty(),
    ]
    .iter()
    .filter(|&&empty| !empty)
    .count();
    let in_lists = q
        .filters
        .iter()
        .filter(|f| matches!(f.op, FilterOp::In(_)))
        .count();
    // A column reference owns two names: its table's and its column's.
    let names = q.tables.len() + 4 * q.joins.len() + 2 * q.filters.len();
    (vecs + in_lists + names) as u64
}

#[test]
fn lexing_allocates_only_the_token_vec() {
    for sql in QUERIES {
        let before = allocations();
        let tokens = tokenize(sql).expect("benchmark queries lex");
        let made = allocations() - before;
        assert!(!tokens.is_empty());
        assert_eq!(made, 1, "tokenize({sql:?}) allocated {made} times");
    }
}

#[test]
fn parsing_allocates_only_what_the_query_owns() {
    for sql in QUERIES {
        let before = allocations();
        let query = parse(sql).expect("benchmark queries parse");
        let made = allocations() - before;
        let bound = owned_blocks(&query) + 1;
        assert!(
            made <= bound,
            "parse({sql:?}) allocated {made} times; the query owns {} blocks",
            bound - 1
        );
    }
}
