//! Allocation accounting for the benchmark's traced run: a counting
//! global allocator and region-scoped measurement.
//!
//! The zero-copy payload path (PR 10) claims the merge hot path performs
//! ~no per-event heap traffic: block decode decompresses once into a
//! shared block and hands out `Payload` range handles, the merger recycles
//! its batch scratch, and jframe construction clones handles. This module
//! makes that claim a *recorded number* instead of an assertion:
//! `jigtrace` (`benchmark/`) installs [`CountingAlloc`] as its
//! `#[global_allocator]` and brackets each traced layer in an
//! [`AllocRegion`]; the resulting allocs/event land in its
//! `*_allocs_per_event` metrics next to the layer times they explain. The
//! allocator lives here, not there, because this file is the tree's one
//! audited `unsafe` site; nothing else in the workspace installs it — the
//! `repro` binary in particular runs on the system allocator, uncounted.
//!
//! Counting costs three relaxed atomic ops per allocator call — noise
//! next to the allocation itself — so the counted runs are the timed
//! runs; no separate instrumented pass. When the counting allocator is
//! *not* installed (this library's own tests, `repro`), the counters
//! never move and every report reads zero; [`counting_installed`] lets
//! callers tell "zero allocations" apart from "not counting".

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Total successful allocator calls (alloc + alloc_zeroed + realloc).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes right now (as the allocator sees them).
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`CURRENT`] since the last [`AllocRegion::begin`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed global allocator that counts calls and tracks the
/// live-byte high-water mark. Install in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: jigsaw_bench::alloc::CountingAlloc = CountingAlloc;
/// ```
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = CURRENT.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

fn on_dealloc(size: usize) {
    CURRENT.fetch_sub(size, Relaxed);
}

// Safety: every method delegates verbatim to `System` and only updates
// monitoring counters on the side — layout handling, pointer validity,
// and aliasing are exactly `System`'s. This file is the one audited entry
// in tidy's `no-unsafe` allowlist; `GlobalAlloc` cannot be implemented
// without an `unsafe impl`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A grow/shrink is one allocator round-trip: count it once and
            // move the live total from the old size to the new.
            on_alloc(new_size);
            on_dealloc(layout.size());
        }
        p
    }
}

/// True when [`CountingAlloc`] is actually the process's global allocator
/// (probed by making one throwaway allocation and watching the counter).
/// Reports from an uninstrumented process are all zeros, not small.
pub fn counting_installed() -> bool {
    let before = ALLOCS.load(Relaxed);
    drop(std::hint::black_box(Vec::<u8>::with_capacity(1)));
    ALLOCS.load(Relaxed) != before
}

/// Allocation counters over one bracketed region of execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocReport {
    /// Allocator calls (alloc/alloc_zeroed/realloc) inside the region.
    pub allocs: u64,
    /// Peak live heap bytes observed during the region, process-wide —
    /// pre-existing live bytes included, so this is the number an RSS
    /// budget cares about.
    pub peak_bytes: u64,
}

impl AllocReport {
    /// Allocations per event, the headline hot-path metric. Zero when the
    /// counting allocator is not installed (see [`counting_installed`]).
    pub fn per_event(&self, events: u64) -> f64 {
        self.allocs as f64 / events.max(1) as f64
    }
}

/// An open measurement region. `begin` resets the peak high-water mark to
/// the current live-byte level and snapshots the call counter; `end`
/// reads both. Regions are process-global (the counters are), so nested
/// or concurrent regions would double-count — the traced run brackets one
/// layer at a time.
#[derive(Debug)]
pub struct AllocRegion {
    allocs_at_begin: u64,
}

impl AllocRegion {
    /// Opens a region at the current allocator state.
    pub fn begin() -> Self {
        PEAK.store(CURRENT.load(Relaxed), Relaxed);
        AllocRegion {
            allocs_at_begin: ALLOCS.load(Relaxed),
        }
    }

    /// Closes the region and reports what happened inside it.
    pub fn end(self) -> AllocReport {
        AllocReport {
            allocs: ALLOCS.load(Relaxed).saturating_sub(self.allocs_at_begin),
            peak_bytes: PEAK.load(Relaxed) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The library's own test binary does NOT install the allocator, so
    // counters stay at zero: exactly the "not counting" story the docs
    // promise. The installed case is jigtrace's: its `*_allocs_per_event`
    // metrics are nonzero.
    #[test]
    fn uninstalled_process_reads_zero() {
        let region = AllocRegion::begin();
        let v: Vec<u8> = vec![0; 4096];
        std::hint::black_box(&v);
        let report = region.end();
        assert!(!counting_installed());
        assert_eq!(report.allocs, 0);
        assert_eq!(report.per_event(1000), 0.0);
    }

    #[test]
    fn per_event_guards_zero_events() {
        let r = AllocReport {
            allocs: 10,
            peak_bytes: 0,
        };
        assert_eq!(r.per_event(0), 10.0);
        assert_eq!(r.per_event(10), 1.0);
    }
}
