//! # rim-par
//!
//! A dependency-free, `std::thread`-based work-stealing chunk scheduler
//! for the RIM hot paths (following the `shims/` precedent of vendoring
//! minimal in-repo substitutes: this crate plays the role rayon would,
//! sized to exactly what the pipeline needs).
//!
//! ## Model
//!
//! Work is a range of `n` items (time columns, lag rows, pair matrices,
//! sessions) cut into contiguous *tiles*. Each worker starts with an even
//! contiguous share of the tiles; a worker that drains its share steals
//! the back half of the richest remaining share (classic range splitting,
//! one CAS per steal). Parallel regions run under [`std::thread::scope`],
//! so tile closures borrow the caller's stack directly — no `'static`
//! bounds, no channels, no arcs.
//!
//! ## Determinism
//!
//! Results are keyed by tile index and recombined in tile order on the
//! calling thread, so the output of [`Pool::run_tiles`] is a pure
//! function of the tile closure — scheduling, thread count, and steal
//! order never influence it. As long as the per-tile computation matches
//! the serial loop (every RIM use tiles loops whose iterations are
//! independent), parallel results are **bit-identical** to serial ones.
//!
//! ## Observability
//!
//! The pool accumulates per-worker tile/steal/busy-time statistics
//! ([`PoolStats`]); callers drain them ([`Pool::drain_stats`]) into
//! whatever reporting they use (rim-core feeds them to the `rim-obs`
//! probe under the `parallel_pool` stage). This crate stays
//! dependency-free, so it only exposes the numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Hard cap on worker threads (a guard against typo'd configs; far above
/// any real machine this targets).
pub const MAX_THREADS: usize = 256;

/// Cumulative scheduler statistics, merged across runs until drained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Parallel regions executed (serial fast-path runs included).
    pub runs: u64,
    /// Regions that actually fanned out to more than one worker.
    pub parallel_runs: u64,
    /// Tiles executed in total.
    pub tiles: u64,
    /// Successful steals (a worker refilled from a victim's share).
    pub steals: u64,
    /// Steal attempts, successful or not.
    pub steal_attempts: u64,
    /// Per-worker busy time (nanoseconds inside tile closures), indexed
    /// by worker slot. Slot 0 is the calling thread.
    pub busy_ns: Vec<u64>,
}

impl PoolStats {
    /// Total busy nanoseconds across workers.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    fn merge_run(&mut self, run: &RunStats) {
        self.runs += 1;
        if run.workers > 1 {
            self.parallel_runs += 1;
        }
        if self.busy_ns.len() < run.per_worker.len() {
            self.busy_ns.resize(run.per_worker.len(), 0);
        }
        for (slot, w) in run.per_worker.iter().enumerate() {
            self.tiles += w.tiles;
            self.steals += w.steals;
            self.steal_attempts += w.steal_attempts;
            self.busy_ns[slot] += w.busy_ns;
        }
    }
}

/// Per-worker counters for one run.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    tiles: u64,
    steals: u64,
    steal_attempts: u64,
    busy_ns: u64,
}

/// Aggregate of one parallel region.
#[derive(Debug, Default)]
struct RunStats {
    workers: usize,
    per_worker: Vec<WorkerStats>,
}

/// A worker's pending share of tile indices, packed `lo:hi` into one
/// atomic so owner pops (front) and thief takes (back) coordinate with a
/// single CAS.
struct TileQueue {
    range: AtomicU64,
}

fn pack(lo: u32, hi: u32) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

impl TileQueue {
    fn new(lo: u32, hi: u32) -> Self {
        Self {
            range: AtomicU64::new(pack(lo, hi)),
        }
    }

    /// Owner takes the next tile from the front.
    fn pop_front(&self) -> Option<u32> {
        let mut cur = self.range.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            match self.range.compare_exchange_weak(
                cur,
                pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo),
                Err(seen) => cur = seen,
            }
        }
    }

    /// A thief takes the back half (rounded up) of the remaining share.
    fn steal_back_half(&self) -> Option<Range<u32>> {
        let mut cur = self.range.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let take = (hi - lo).div_ceil(2);
            let new_hi = hi - take;
            match self.range.compare_exchange_weak(
                cur,
                pack(lo, new_hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(new_hi..hi),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Pending tiles (a racy snapshot, used only to pick a victim).
    fn remaining(&self) -> u32 {
        let (lo, hi) = unpack(self.range.load(Ordering::Relaxed));
        hi.saturating_sub(lo)
    }

    /// Owner refills its own (empty) share with stolen tiles. Only the
    /// owner stores, and only while the share is empty, so thieves — who
    /// skip empty shares — cannot race the store.
    fn refill(&self, r: Range<u32>) {
        self.range.store(pack(r.start, r.end), Ordering::Release);
    }
}

/// The scheduler: a worker count, a tile-size hint, and accumulated
/// statistics. Cheap to construct; threads are scoped per region, so an
/// idle pool holds no OS resources.
#[derive(Debug)]
pub struct Pool {
    threads: usize,
    tile_hint: usize,
    stats: Mutex<PoolStats>,
}

impl Default for Pool {
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl Pool {
    /// Creates a pool. `threads == 0` resolves automatically (the
    /// `RIM_THREADS` environment variable if set, else the machine's
    /// available parallelism); `tile_hint == 0` sizes tiles per run.
    pub fn new(threads: usize, tile_hint: usize) -> Self {
        Self {
            threads: Self::resolve_threads(threads),
            tile_hint,
            stats: Mutex::new(PoolStats::default()),
        }
    }

    /// A single-threaded pool (the serial fast path, zero scheduling).
    pub fn serial() -> Self {
        Self::new(1, 0)
    }

    /// Resolves a requested worker count: explicit values win, then the
    /// `RIM_THREADS` environment variable, then available parallelism.
    pub fn resolve_threads(requested: usize) -> usize {
        let n = if requested > 0 {
            requested
        } else if let Some(n) = std::env::var("RIM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            n
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        n.clamp(1, MAX_THREADS)
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Tile size for a run over `n` items: the hint when set, otherwise
    /// eight tiles per worker (enough slack for stealing to rebalance
    /// without shredding cache locality).
    pub fn tile_for(&self, n: usize) -> usize {
        if self.tile_hint > 0 {
            self.tile_hint
        } else {
            n.div_ceil(self.threads * 8).max(1)
        }
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Takes and resets the accumulated statistics.
    pub fn drain_stats(&self) -> PoolStats {
        std::mem::take(&mut *self.stats.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Runs `f` over `0..n` cut into tiles (see [`Pool::tile_for`]),
    /// returning the per-tile results **in tile order**. `f` receives
    /// `(tile_index, item_range)`.
    pub fn run_tiles<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        self.run_tiles_sized(n, self.tile_for(n), f)
    }

    /// [`Pool::run_tiles`] with an explicit tile size.
    pub fn run_tiles_sized<R, F>(&self, n: usize, tile: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let tile = tile.max(1);
        let n_tiles = n.div_ceil(tile);
        let workers = self.threads.min(n_tiles);
        let mut run = RunStats {
            workers,
            per_worker: vec![WorkerStats::default(); workers],
        };
        let out = if workers <= 1 {
            let t0 = Instant::now();
            let out: Vec<R> = (0..n_tiles)
                .map(|t| f(t, t * tile..((t + 1) * tile).min(n)))
                .collect();
            let w = &mut run.per_worker[0];
            w.tiles = n_tiles as u64;
            w.busy_ns = t0.elapsed().as_nanos() as u64;
            out
        } else {
            self.run_stealing(n, tile, n_tiles, workers, &f, &mut run)
        };
        self.stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge_run(&run);
        out
    }

    /// Maps `f` over a slice on the pool, preserving order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // Tile size 1: items like whole analysis sessions are coarse
        // enough that per-item scheduling is the right granularity.
        let tiles = self.run_tiles_sized(items.len(), 1, |_, range| {
            range.map(|i| f(&items[i])).collect::<Vec<R>>()
        });
        tiles.into_iter().flatten().collect()
    }

    fn run_stealing<R, F>(
        &self,
        n: usize,
        tile: usize,
        n_tiles: usize,
        workers: usize,
        f: &F,
        run: &mut RunStats,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        // Even contiguous initial shares.
        let queues: Vec<TileQueue> = (0..workers)
            .map(|w| {
                let lo = (w * n_tiles / workers) as u32;
                let hi = ((w + 1) * n_tiles / workers) as u32;
                TileQueue::new(lo, hi)
            })
            .collect();
        let queues = &queues;
        let mut parts: Vec<(Vec<(u32, R)>, WorkerStats)> = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut stats = WorkerStats::default();
                        worker_loop(w, queues, n, tile, f, &mut out, &mut stats);
                        (out, stats)
                    })
                })
                .collect();
            let mut out0 = Vec::new();
            let mut stats0 = WorkerStats::default();
            worker_loop(0, queues, n, tile, f, &mut out0, &mut stats0);
            parts.push((out0, stats0));
            for h in handles {
                // A panic inside a tile closure propagates to the caller.
                parts.push(h.join().expect("pool worker panicked"));
            }
        });
        // Deterministic recombination: place results by tile index.
        let mut slots: Vec<Option<R>> = (0..n_tiles).map(|_| None).collect();
        for (w, (part, stats)) in parts.into_iter().enumerate() {
            run.per_worker[w] = stats;
            for (t, r) in part {
                slots[t as usize] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every tile ran exactly once"))
            .collect()
    }
}

/// One worker: drain the own share, then steal from the richest victim
/// until every share is empty.
fn worker_loop<R, F>(
    me: usize,
    queues: &[TileQueue],
    n: usize,
    tile: usize,
    f: &F,
    out: &mut Vec<(u32, R)>,
    stats: &mut WorkerStats,
) where
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    loop {
        while let Some(t) = queues[me].pop_front() {
            let start = t as usize * tile;
            let end = (start + tile).min(n);
            let t0 = Instant::now();
            let r = f(t as usize, start..end);
            stats.busy_ns += t0.elapsed().as_nanos() as u64;
            stats.tiles += 1;
            out.push((t, r));
        }
        // Pick the victim with the most pending tiles.
        let victim = queues
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != me)
            .map(|(w, q)| (q.remaining(), w))
            .max()
            .filter(|&(rem, _)| rem > 0);
        let Some((_, victim)) = victim else {
            // Every other share looked empty; remaining tiles are already
            // executing on their owners. Done.
            break;
        };
        stats.steal_attempts += 1;
        if let Some(r) = queues[victim].steal_back_half() {
            stats.steals += 1;
            queues[me].refill(r);
        }
        // A failed steal (lost the race) re-enters the sweep.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_range_in_order() {
        let pool = Pool::new(4, 3);
        let tiles = pool.run_tiles(10, |idx, range| (idx, range));
        assert_eq!(
            tiles,
            vec![(0, 0..3), (1, 3..6), (2, 6..9), (3, 9..10)],
            "tile order and coverage"
        );
    }

    #[test]
    fn parallel_matches_serial_results() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = Pool::serial().map(&items, |&x| x * x + 1);
        for threads in [2, 4, 8] {
            let par = Pool::new(threads, 0).map(&items, |&x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = Pool::new(8, 0);
        assert!(pool.run_tiles(0, |_, _| 0).is_empty());
        assert_eq!(pool.run_tiles(1, |_, r| r.len()), vec![1]);
        assert_eq!(pool.map(&[3u8], |&x| x + 1), vec![4]);
    }

    #[test]
    fn stats_accumulate_and_drain() {
        let pool = Pool::new(2, 1);
        let _ = pool.run_tiles(8, |_, _| ());
        let stats = pool.stats();
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.tiles, 8);
        assert!(stats.busy_ns.len() <= 2 && !stats.busy_ns.is_empty());
        let drained = pool.drain_stats();
        assert_eq!(drained.tiles, 8);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn serial_pool_never_spawns() {
        let pool = Pool::serial();
        let out = pool.run_tiles(100, |_, range| range.sum::<usize>());
        assert_eq!(out.iter().sum::<usize>(), (0..100).sum());
        let stats = pool.stats();
        assert_eq!(stats.parallel_runs, 0);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // Worker 0's initial share carries all the heavy tiles; with
        // per-tile stealing the others must take some of them.
        let pool = Pool::new(4, 1);
        let out = pool.run_tiles(64, |idx, _| {
            if idx < 16 {
                // Heavy: spin a little.
                let mut acc = 0u64;
                for i in 0..200_000 {
                    acc = acc.wrapping_mul(31).wrapping_add(i);
                }
                acc as usize % 2 + idx
            } else {
                idx
            }
        });
        assert_eq!(out.len(), 64);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i || v == i + 1));
    }

    #[test]
    fn explicit_threads_win_over_env() {
        assert_eq!(Pool::resolve_threads(3), 3);
        assert_eq!(Pool::resolve_threads(MAX_THREADS + 9), MAX_THREADS);
        assert!(Pool::resolve_threads(0) >= 1);
    }

    #[test]
    fn queue_pop_and_steal_are_disjoint() {
        let q = TileQueue::new(0, 10);
        assert_eq!(q.pop_front(), Some(0));
        let stolen = q.steal_back_half().unwrap();
        assert_eq!(stolen, 5..10, "half of the 9 remaining, rounded up");
        assert_eq!(q.remaining(), 4);
        let mut seen = Vec::new();
        while let Some(t) = q.pop_front() {
            seen.push(t);
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(q.steal_back_half(), None);
    }
}
