//! A counting `#[global_allocator]` with a per-thread tag.
//!
//! Counting allocations is off until [`set_counting`] turns it on, so
//! the untraced runs pay one relaxed load per allocation for it. The
//! bytes live on the heap and their peak are tracked always, for the
//! end-to-end heap metric: exact, where the resident set also counts
//! memory glibc keeps after a free, which varies from run to run. Each thread carries a tag:
//! the benchmark tags its own threads (main, load, reactor), and the
//! wrapper engine tags the executor thread [`Tag::Engine`] for the
//! duration of each engine call and [`Tag::Executor`] between calls.
//! Threads the engine spawns per batch start untagged; their
//! allocations are engine work too, so "engine" means `Engine` or
//! `None`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};

/// Who is allocating on the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// A thread the benchmark did not tag: the engine's per-batch workers.
    None,
    /// Inside a call into the served engine.
    Engine,
    /// A server executor between engine calls (response encoding).
    Executor,
    /// The reactor thread.
    Reactor,
    /// A load-generating client thread.
    Client,
    /// The benchmark's main thread.
    Main,
}

thread_local! {
    static TAG: Cell<Tag> = const { Cell::new(Tag::None) };
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ENGINE_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, their peak, and the base the
/// reported peak is measured from.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static BASE: AtomicIsize = AtomicIsize::new(0);

#[inline]
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

#[inline]
fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
}

/// `System` plus the counters above.
pub struct CountingAlloc;

#[inline]
fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // `try_with`: the tag may already be gone while a thread exits.
        let tag = TAG.try_with(Cell::get).unwrap_or(Tag::None);
        if matches!(tag, Tag::Engine | Tag::None) {
            ENGINE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call defers to `System` with the caller's arguments
// unchanged; the counters are plain atomics and the tag a `Cell` in a
// const-initialised thread local, none of which allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Tags the current thread.
pub fn set_tag(tag: Tag) {
    TAG.with(|t| t.set(tag));
}

/// Starts or stops counting.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(all, engine)` allocations counted so far.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ENGINE_ALLOCS.load(Ordering::Relaxed),
    )
}

/// Marks the bytes live now as the base the figures below subtract.
pub fn set_heap_base() {
    BASE.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Restarts the heap peak from the bytes live now.
pub fn restart_heap_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn above_base_mb(bytes: &AtomicIsize) -> f64 {
    let above = bytes.load(Ordering::Relaxed) - BASE.load(Ordering::Relaxed);
    above.max(0) as f64 / (1024.0 * 1024.0)
}

/// The bytes live now, above the base, in MiB.
pub fn heap_live_mb() -> f64 {
    above_base_mb(&LIVE)
}

/// The heap's peak since [`restart_heap_peak`], above the base, in MiB.
pub fn heap_peak_mb() -> f64 {
    above_base_mb(&PEAK)
}
