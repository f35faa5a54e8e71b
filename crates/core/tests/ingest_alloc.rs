//! The incremental column cache ingests without touching the heap once
//! warm: on an idle stream, whose ring is trimmed every sample,
//! `ColumnCache::on_sample` plus `trim_to` allocate nothing.
//!
//! A counting global allocator (per thread, so the harness's other
//! threads cannot leak into the count) tallies every allocation made
//! between the two calls' entry and exit.

use rim_array::{ArrayGeometry, HALF_WAVELENGTH};
use rim_core::trrs::NormSnapshot;
use rim_core::{ColumnCache, Precision};
use rim_csi::frame::CsiSnapshot;
use rim_dsp::complex::Complex64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: allocations during thread teardown are not measured.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn snapshot(tag: u64, n_tx: usize, n_sub: usize) -> NormSnapshot {
    NormSnapshot::from_snapshot(&CsiSnapshot {
        per_tx: (0..n_tx as u64)
            .map(|tx| {
                (0..n_sub as u64)
                    .map(|k| {
                        let x = (mix(tag ^ (tx << 40) ^ k.wrapping_mul(0x9E3779B9)) >> 11) as f64
                            / (1u64 << 53) as f64;
                        Complex64::from_polar(0.5 + x, x * 6.0)
                    })
                    .collect()
            })
            .collect(),
    })
}

/// Drives `samples` idle samples through a cache over `geometry`, keeping
/// the ring at `keep` samples like an idle stream does, and returns the
/// allocations `on_sample` + `trim_to` made after the first `warm`.
fn allocations_after_warmup(geometry: &ArrayGeometry, precision: Precision) -> u64 {
    let (window, keep, warm, samples) = (14usize, 48usize, 200usize, 400usize);
    let n_ant = geometry.n_antennas();
    let mut cache = ColumnCache::new(geometry, window, precision);
    // Every snapshot is built up front and moved into the ring, so the
    // ring's own traffic stays outside the measured calls.
    let mut feed: Vec<_> = (0..n_ant as u64)
        .map(|a| {
            (0..samples as u64)
                .map(|t| snapshot(a * 1_000_003 + t, 3, 56))
                .collect::<Vec<_>>()
                .into_iter()
        })
        .collect();
    let mut ring: Vec<VecDeque<NormSnapshot>> = (0..n_ant)
        .map(|_| VecDeque::with_capacity(keep + 1))
        .collect();
    let mut base = 0usize;
    let mut counted = 0u64;
    for t in 0..samples {
        for (r, f) in ring.iter_mut().zip(&mut feed) {
            r.push_back(f.next().expect("one snapshot per sample"));
        }
        let before = ALLOCS.with(Cell::get);
        cache.on_sample(&ring, base);
        let new_base = (t + 1).saturating_sub(keep);
        cache.trim_to(new_base);
        let made = ALLOCS.with(Cell::get) - before;
        while base < new_base {
            for r in &mut ring {
                r.pop_front();
            }
            base += 1;
        }
        if t >= warm {
            counted += made;
        }
    }
    assert!(base > warm, "the ring was trimmed throughout");
    counted
}

#[test]
fn warm_idle_ingest_makes_no_allocation() {
    for geometry in [
        ArrayGeometry::linear(3, HALF_WAVELENGTH),
        ArrayGeometry::square(HALF_WAVELENGTH),
    ] {
        for precision in [Precision::F64Reference, Precision::F32Fast] {
            let n = allocations_after_warmup(&geometry, precision);
            assert_eq!(
                n,
                0,
                "{precision:?} on {} antennas: {n} allocations in warm ingest",
                geometry.n_antennas()
            );
        }
    }
}
