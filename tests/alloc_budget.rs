//! Allocation budgets for the placement search's inner loop (DESIGN.md
//! §13.7).
//!
//! A counting global allocator measures heap allocations (every `alloc`,
//! `alloc_zeroed` and `realloc` call) made by
//!
//! 1. one SSS pass (`sss_inner`) on a 4×4 instance whose evaluation
//!    tables are already built, and
//! 2. one exhaustive 4×4 placement search (`co_optimize` + `sss_inner`,
//!    4 controllers), divided by its inner solves,
//!
//! and holds each to a committed budget. The pass keeps one scratch block
//! (sorted/remaining tiles, per-application lists, one SAM workspace), so
//! its count does not grow with applications or threads; a change that
//! brings per-solve or per-row buffers back fails here.
//!
//! The counter is process-wide, so everything runs in one test, and each
//! measurement takes the minimum over a few repetitions: a stray
//! allocation on another thread can only raise a count.

use obm::mapping::{co_optimize, sss_inner, ObmInstance, PlacementOptions, SearchMode};
use obm::model::{Mesh, TileLatencies};
use obm::workload::{PaperConfig, WorkloadBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` implementation upholds the trait's contract; the counter
// is a relaxed atomic add that touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one SSS pass on a 4×4, 4-application instance
/// (151 before the pass kept one scratch block). Debug builds add the
/// pass's `debug_assert!` validity checks.
const SSS_PASS_BUDGET: usize = if cfg!(debug_assertions) { 23 } else { 21 };

/// Allocations per inner solve of an exhaustive 4×4 placement search,
/// candidate set-up (layout, latencies, memo entry) included (181 before
/// the search moved one instance across layouts in place).
const PER_CANDIDATE_BUDGET: usize = if cfg!(debug_assertions) { 30 } else { 28 };

/// Repetitions per measurement; the minimum is reported.
const ROUNDS: usize = 3;

/// Minimum allocation count of `f` over [`ROUNDS`] runs.
fn min_allocations(mut f: impl FnMut()) -> usize {
    (0..ROUNDS)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            f();
            ALLOCATIONS.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap_or(0)
}

/// A 4×4 chip running paper configuration C1's four applications, one
/// thread per tile, on the corner-controller layout.
fn c1_4x4() -> ObmInstance {
    let cfg = PaperConfig::C1;
    let (cache, mem) = cfg.targets();
    let (w, _traces) = WorkloadBuilder::custom(cfg.profiles().to_vec(), 4, cache, mem)
        .seed(7)
        .epochs(64)
        .build();
    let (c, m) = w.rate_vectors();
    ObmInstance::new(
        TileLatencies::paper_default(&Mesh::square(4)),
        w.boundaries(),
        c,
        m,
    )
}

#[test]
fn sss_pass_and_placement_candidates_stay_within_allocation_budgets() {
    let inst = c1_4x4();
    // Build the instance's evaluation tables outside the measurement.
    let _ = inst.eval_tables();
    let pass = min_allocations(|| {
        std::hint::black_box(sss_inner(&inst, 1));
    });

    let mesh = Mesh::square(4);
    let mut opts = PlacementOptions::new(4);
    opts.mode = SearchMode::Exhaustive;
    let mut solves = 0usize;
    let search = min_allocations(|| {
        let out = co_optimize(&inst, &mesh, &opts, sss_inner).expect("valid search");
        solves = out.evaluated;
        std::hint::black_box(out);
    });
    assert!(
        solves > 200,
        "exhaustive 4×4 search solved {solves} layouts"
    );
    let per_candidate = search.div_ceil(solves);
    println!(
        "SSS pass: {pass} allocations; placement search: {search} allocations \
         over {solves} inner solves = {per_candidate} per candidate"
    );
    assert!(
        pass <= SSS_PASS_BUDGET,
        "one SSS pass made {pass} allocations (budget {SSS_PASS_BUDGET})"
    );
    assert!(
        per_candidate <= PER_CANDIDATE_BUDGET,
        "placement search made {per_candidate} allocations per candidate \
         (budget {PER_CANDIDATE_BUDGET})"
    );
}
