//! Deterministic parallel execution of per-machine / per-player work.
//!
//! Both substrates simulate "every machine computes locally" steps. This
//! module runs those closures on real OS threads while keeping results
//! **byte-identical to sequential execution**, so the regression pins and
//! the paper's seeded reproducibility survive any thread count:
//!
//! * the caller fixes the task decomposition (one task per machine, or
//!   fixed-size index chunks via [`ExecutorConfig::run_chunked`]) —
//!   task boundaries never depend on the thread count;
//! * each task writes its result into its own indexed slot, and results
//!   are returned in task order;
//! * tasks must be pure functions of their index and captured shared
//!   state (the paper's algorithms already split their randomness per
//!   vertex/machine up front via stateless hashing, so there is no
//!   cross-task RNG to race on).
//!
//! Under those rules, `Sequential` and `Threaded` with *any* thread count
//! produce the same output vector, and any order-independent reduction
//! (integer sums/counts, `min`/`max`, concatenation in task order) of
//! that vector is schedule-independent too. Floating-point *sums* are the
//! one reduction that is order-sensitive; callers keep those in a fixed
//! order (the algorithms accumulate `f64` totals sequentially over the
//! returned per-task values).
//!
//! The thread count is resolved **once**, when the config is built —
//! never per round — and tiny rounds degrade to the sequential path
//! instead of spawning threads.
//!
//! ```
//! use mmvc_substrate::ExecutorConfig;
//!
//! let exec = ExecutorConfig::threaded(); // resolved thread count
//! let squares = exec.run(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Identical results on the sequential path.
//! assert_eq!(ExecutorConfig::sequential().run(8, |i| i * i), squares);
//! ```

use crate::{ScratchPool, Telemetry};

/// Task counts below this run sequentially by default — spawning a thread
/// costs more than a trivial round saves.
const DEFAULT_SEQUENTIAL_BELOW: usize = 2;

/// How per-machine / per-player closures execute within a round: on the
/// calling thread, or fanned out over a fixed pool of scoped OS threads.
///
/// Results are deterministic and schedule-independent by construction —
/// see the module-level docs for the rules that guarantee it. The config
/// is `Clone` and cheap to pass around (cloning shares the attached
/// scratch arena, it never copies buffers); build it once at the top of
/// a run (it resolves [`std::thread::available_parallelism`] at
/// construction, not per round) and thread it through algorithm configs.
///
/// An optional [`ScratchPool`] rides along
/// ([`with_scratch`](Self::with_scratch)): the builder, generators and
/// per-round scans draw their working buffers from it via
/// [`take_u32`](Self::take_u32) / [`take_u64`](Self::take_u64), so
/// repeated builds stop re-allocating. Configs without a pool fall back
/// to plain allocation — behaviour, and therefore every byte of output,
/// is identical either way. A [`Telemetry`] sink rides along the same
/// way ([`with_telemetry`](Self::with_telemetry)): chunked/slab rounds
/// emit batch spans when it is enabled, and a disabled sink costs one
/// load per round. Equality ignores both the pool and the sink: two
/// configs are equal iff they execute identically.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    threads: usize,
    sequential_below: usize,
    scratch: Option<ScratchPool>,
    telemetry: Telemetry,
}

impl PartialEq for ExecutorConfig {
    /// Pool- and telemetry-blind: equality compares the execution
    /// parameters only — observers never change what a config computes.
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads && self.sequential_below == other.sequential_below
    }
}

impl Eq for ExecutorConfig {}

impl ExecutorConfig {
    /// Runs every task on the calling thread.
    pub fn sequential() -> Self {
        ExecutorConfig {
            threads: 1,
            sequential_below: DEFAULT_SEQUENTIAL_BELOW,
            scratch: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Threaded execution with the machine's available parallelism,
    /// resolved now (once), not per round.
    pub fn threaded() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// Threaded execution with an explicit thread count (clamped to at
    /// least 1; `with_threads(1)` is equivalent to
    /// [`sequential`](Self::sequential)).
    pub fn with_threads(threads: usize) -> Self {
        ExecutorConfig {
            threads: threads.max(1),
            sequential_below: DEFAULT_SEQUENTIAL_BELOW,
            scratch: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink; chunked/slab rounds threaded over
    /// this config emit batch spans into it when it is enabled. The
    /// sink is an observer only — outputs are byte-identical with any
    /// sink attached or none.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// The attached telemetry sink (the default is a disabled,
    /// sinkless handle).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attaches a scratch arena; buffer-hungry passes threaded over this
    /// config will draw from (and recycle into) `pool`.
    #[must_use]
    pub fn with_scratch(mut self, pool: &ScratchPool) -> Self {
        self.scratch = Some(pool.clone());
        self
    }

    /// Ensures a scratch arena is attached, creating a fresh one if
    /// needed. The run driver calls this once per run so every round
    /// shares one arena.
    #[must_use]
    pub fn ensure_scratch(mut self) -> Self {
        if self.scratch.is_none() {
            self.scratch = Some(ScratchPool::new());
        }
        self
    }

    /// The attached scratch arena, if any.
    pub fn scratch(&self) -> Option<&ScratchPool> {
        self.scratch.as_ref()
    }

    /// Takes an empty `Vec<u32>` with at least `min_cap` capacity from
    /// the attached arena, or allocates fresh when no pool is attached.
    pub fn take_u32(&self, min_cap: usize) -> Vec<u32> {
        match &self.scratch {
            Some(p) => p.take_u32(min_cap),
            None => Vec::with_capacity(min_cap),
        }
    }

    /// Returns a `u32` buffer to the attached arena (dropped when no
    /// pool is attached).
    pub fn recycle_u32(&self, buf: Vec<u32>) {
        if let Some(p) = &self.scratch {
            p.recycle_u32(buf);
        }
    }

    /// Takes an empty `Vec<u64>` with at least `min_cap` capacity from
    /// the attached arena, or allocates fresh when no pool is attached.
    pub fn take_u64(&self, min_cap: usize) -> Vec<u64> {
        match &self.scratch {
            Some(p) => p.take_u64(min_cap),
            None => Vec::with_capacity(min_cap),
        }
    }

    /// Returns a `u64` buffer to the attached arena (dropped when no
    /// pool is attached).
    pub fn recycle_u64(&self, buf: Vec<u64>) {
        if let Some(p) = &self.scratch {
            p.recycle_u64(buf);
        }
    }

    /// Sets the task count below which a round short-circuits to the
    /// sequential path (default: 2, i.e. single-task rounds never spawn).
    #[must_use]
    pub fn sequential_below(mut self, tasks: usize) -> Self {
        self.sequential_below = tasks;
        self
    }

    /// The resolved thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this config always takes the sequential path.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Runs `tasks` closure invocations (task index `0..tasks`) and
    /// returns their results in task order.
    ///
    /// Tasks run concurrently when the config is threaded and the round
    /// is large enough; the output is identical either way. Each task's
    /// result is written to its own indexed slot — no locks, no
    /// reordering.
    pub fn run<T, F>(&self, tasks: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let threads = self.threads.min(tasks);
        if threads <= 1 || tasks < self.sequential_below {
            return (0..tasks).map(work).collect();
        }
        let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        let chunk = tasks.div_ceil(threads);
        std::thread::scope(|scope| {
            for (ci, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
                let work = &work;
                scope.spawn(move || {
                    let base = ci * chunk;
                    for (offset, slot) in slot_chunk.iter_mut().enumerate() {
                        *slot = Some(work(base + offset));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every task slot filled"))
            .collect()
    }

    /// Splits `0..items` into fixed-size chunks of `chunk_size` indices,
    /// runs `work` on each chunk range, and returns the per-chunk results
    /// in chunk order.
    ///
    /// Chunk boundaries depend only on `items` and `chunk_size` — never
    /// on the thread count — so reducing the returned vector in order is
    /// schedule-independent. This is the workhorse for "scan all
    /// vertices/edges in parallel" steps.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn run_chunked<T, F>(&self, items: usize, chunk_size: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(std::ops::Range<usize>) -> T + Sync,
    {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let tasks = items.div_ceil(chunk_size);
        let _span = self
            .telemetry
            .span("exec.run_chunked")
            .with_arg("items", items as u64)
            .with_arg("tasks", tasks as u64)
            .with_arg("threads", self.threads.min(tasks.max(1)) as u64);
        self.run(tasks, |t| {
            let start = t * chunk_size;
            work(start..(start + chunk_size).min(items))
        })
    }

    /// Splits `data` at the caller-fixed `bounds` (ascending offsets,
    /// `bounds[0] == 0`, `bounds[last] == data.len()`) into one disjoint
    /// mutable slab per task and runs `work(task_index, slab)` on each,
    /// returning the per-task results in task order.
    ///
    /// This is the primitive that lets the counting-sort graph builder
    /// scatter into a **single** flat (pooled) buffer from many tasks at
    /// once without locks or unsafe: the borrow is split up front, the
    /// slab boundaries depend only on the input, and each task owns its
    /// slab exclusively — so the buffer contents are byte-identical for
    /// any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not an ascending cover of `data`.
    pub fn run_slabs<T, R, F>(&self, data: &mut [T], bounds: &[usize], work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        assert!(
            !bounds.is_empty() && bounds[0] == 0 && bounds[bounds.len() - 1] == data.len(),
            "bounds must cover data exactly"
        );
        let tasks = bounds.len() - 1;
        if tasks == 0 {
            return Vec::new();
        }
        let _span = self
            .telemetry
            .span("exec.run_slabs")
            .with_arg("tasks", tasks as u64)
            .with_arg("len", data.len() as u64);
        // Split the single borrow into per-task slabs up front.
        let mut slabs: Vec<&mut [T]> = Vec::with_capacity(tasks);
        let mut rest = data;
        for w in bounds.windows(2) {
            assert!(w[0] <= w[1], "bounds must be ascending");
            let (slab, tail) = rest.split_at_mut(w[1] - w[0]);
            slabs.push(slab);
            rest = tail;
        }
        let threads = self.threads.min(tasks);
        if threads <= 1 || tasks < self.sequential_below {
            return slabs
                .iter_mut()
                .enumerate()
                .map(|(i, slab)| work(i, slab))
                .collect();
        }
        let mut slots: Vec<Option<R>> = (0..tasks).map(|_| None).collect();
        let chunk = tasks.div_ceil(threads);
        std::thread::scope(|scope| {
            for (ci, (slab_chunk, slot_chunk)) in slabs
                .chunks_mut(chunk)
                .zip(slots.chunks_mut(chunk))
                .enumerate()
            {
                let work = &work;
                scope.spawn(move || {
                    let base = ci * chunk;
                    for (off, (slab, slot)) in
                        slab_chunk.iter_mut().zip(slot_chunk.iter_mut()).enumerate()
                    {
                        *slot = Some(work(base + off, slab));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every slab slot filled"))
            .collect()
    }
}

impl Default for ExecutorConfig {
    /// The default is [`threaded`](ExecutorConfig::threaded): every
    /// algorithm is multicore by construction, and determinism is
    /// guaranteed by the execution rules rather than by staying
    /// single-threaded.
    fn default() -> Self {
        Self::threaded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_and_threaded_agree() {
        let work = |i: usize| i.wrapping_mul(0x9E37_79B9) ^ (i << 3);
        let expect: Vec<usize> = (0..1000).map(work).collect();
        for exec in [
            ExecutorConfig::sequential(),
            ExecutorConfig::with_threads(1),
            ExecutorConfig::with_threads(2),
            ExecutorConfig::with_threads(3),
            ExecutorConfig::with_threads(8),
            ExecutorConfig::threaded(),
        ] {
            assert_eq!(exec.run(1000, work), expect);
        }
    }

    #[test]
    fn zero_and_one_task() {
        let exec = ExecutorConfig::with_threads(4);
        assert!(exec.run(0, |i| i).is_empty());
        assert_eq!(exec.run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let exec = ExecutorConfig::with_threads(4).sequential_below(0);
        let out = exec.run(37, |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(counter.load(Ordering::SeqCst), 37);
        assert_eq!(out, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_rounds_degrade_to_sequential() {
        // With the threshold above the task count the work runs on the
        // calling thread; observable via thread id equality.
        let exec = ExecutorConfig::with_threads(8).sequential_below(100);
        let main_id = std::thread::current().id();
        let ids = exec.run(10, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == main_id));
    }

    #[test]
    fn run_chunked_covers_every_index_once() {
        let exec = ExecutorConfig::with_threads(3);
        for items in [0usize, 1, 9, 10, 11, 100] {
            let chunks = exec.run_chunked(items, 10, |r| r.collect::<Vec<_>>());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..items).collect::<Vec<_>>(), "items={items}");
        }
    }

    #[test]
    fn chunk_boundaries_independent_of_threads() {
        // The per-chunk results must be identical across thread counts —
        // the property every deterministic reduction relies on.
        let sums =
            |exec: ExecutorConfig| exec.run_chunked(1000, 64, |r| r.map(|i| i * i).sum::<usize>());
        let base = sums(ExecutorConfig::sequential());
        for t in [2, 3, 8, 16] {
            assert_eq!(sums(ExecutorConfig::with_threads(t)), base);
        }
    }

    #[test]
    #[should_panic(expected = "chunk_size")]
    fn zero_chunk_size_panics() {
        ExecutorConfig::sequential().run_chunked(10, 0, |_| ());
    }

    #[test]
    fn run_slabs_writes_disjoint_slabs_identically_across_threads() {
        let bounds = [0usize, 3, 3, 10, 16];
        let expect: Vec<u32> = {
            let mut d = vec![0u32; 16];
            let mut b = ExecutorConfig::sequential();
            b = b.sequential_below(0);
            let lens = b.run_slabs(&mut d, &bounds, |i, slab| {
                for (k, x) in slab.iter_mut().enumerate() {
                    *x = (i as u32) * 100 + k as u32;
                }
                slab.len()
            });
            assert_eq!(lens, vec![3, 0, 7, 6]);
            d
        };
        for t in [2, 3, 8] {
            let mut d = vec![0u32; 16];
            let lens = ExecutorConfig::with_threads(t)
                .sequential_below(0)
                .run_slabs(&mut d, &bounds, |i, slab| {
                    for (k, x) in slab.iter_mut().enumerate() {
                        *x = (i as u32) * 100 + k as u32;
                    }
                    slab.len()
                });
            assert_eq!(lens, vec![3, 0, 7, 6], "{t} threads");
            assert_eq!(d, expect, "{t} threads");
        }
    }

    #[test]
    #[should_panic(expected = "cover data exactly")]
    fn run_slabs_rejects_partial_cover() {
        let mut d = vec![0u32; 4];
        ExecutorConfig::sequential().run_slabs(&mut d, &[0, 2], |_, _| ());
    }

    #[test]
    fn scratch_helpers_fall_back_without_a_pool() {
        let exec = ExecutorConfig::sequential();
        assert!(exec.scratch().is_none());
        let b = exec.take_u32(10);
        assert!(b.capacity() >= 10);
        exec.recycle_u32(b); // dropped, no pool

        let pooled = exec.clone().ensure_scratch();
        assert!(pooled.scratch().is_some());
        pooled.recycle_u64(Vec::with_capacity(8));
        let b = pooled.take_u64(4);
        assert_eq!(pooled.scratch().unwrap().stats().reuses, 1);
        pooled.recycle_u64(b);
        // ensure_scratch is idempotent: the arena is preserved.
        let again = pooled.clone().ensure_scratch();
        assert_eq!(again.scratch().unwrap().stats().reuses, 1);
    }

    #[test]
    fn equality_is_pool_blind() {
        let a = ExecutorConfig::with_threads(4);
        let b = ExecutorConfig::with_threads(4).ensure_scratch();
        assert_eq!(a, b);
        assert_ne!(a, ExecutorConfig::with_threads(2));
    }

    #[test]
    fn telemetry_is_an_observer() {
        let tel = Telemetry::recording();
        let plain = ExecutorConfig::with_threads(3);
        let traced = ExecutorConfig::with_threads(3).with_telemetry(&tel);
        assert_eq!(plain, traced, "equality is telemetry-blind");
        let work = |r: std::ops::Range<usize>| r.sum::<usize>();
        assert_eq!(
            traced.run_chunked(100, 8, work),
            plain.run_chunked(100, 8, work),
            "outputs identical with a sink attached"
        );
        let events = tel.drain();
        let batch = events
            .iter()
            .find(|e| e.name == "exec.run_chunked")
            .expect("chunked rounds emit a batch span");
        assert!(batch.args.contains(&("items", 100)));
        assert!(batch.args.contains(&("tasks", 13)));
        assert!(!plain.telemetry().is_enabled());
    }

    #[test]
    fn accessors() {
        assert!(ExecutorConfig::sequential().is_sequential());
        assert_eq!(ExecutorConfig::with_threads(0).threads(), 1);
        assert_eq!(ExecutorConfig::with_threads(5).threads(), 5);
        assert!(!ExecutorConfig::with_threads(5).is_sequential());
        assert!(ExecutorConfig::default().threads() >= 1);
    }
}
