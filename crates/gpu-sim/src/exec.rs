//! The persistent kernel executor: a worker pool spawned at most once per
//! device.
//!
//! The original engine spawned and joined fresh OS threads via
//! `std::thread::scope` on **every** kernel launch.  The paper's algorithms
//! are launch-heavy — a single solve issues hundreds to thousands of
//! launches, one per BFS level or push-relabel sweep — so in the launch-bound
//! regime the cost model is calibrated for, host thread churn dominated the
//! kernel work itself.  This module replaces that with:
//!
//! * **A long-lived pool.** Worker threads are spawned once (lazily, on the
//!   first launch large enough to go parallel) and parked on a [`Condvar`]
//!   between launches.  Dropping the pool signals shutdown and joins every
//!   worker.
//! * **Dynamic chunk scheduling.** Instead of statically splitting the grid
//!   into one equal range per worker, workers claim fixed-size chunks of grid
//!   indices from a shared atomic cursor.  Divergent kernels — the very
//!   reason `G-PR-SHRKRNL` exists — no longer leave most workers idle behind
//!   the one that drew the expensive range.
//! * **Lock-free work accounting.** Each worker accumulates its work counters
//!   locally and folds them into the launch's atomics once at the end; the
//!   launch barrier is the only synchronization on the hot path.
//! * **Panic containment.** A panicking kernel thread poisons the launch (the
//!   other workers stop claiming chunks), and the payload is re-raised on the
//!   launcher thread after the barrier.  The pool itself survives: the next
//!   launch on the same device runs normally.
//!
//! ## Why there is `unsafe` here (and why it is sound)
//!
//! Kernels borrow their captures (`&DeviceBuffer`, `&BipartiteCsr`, …) from
//! the launcher's stack, so the closure is not `'static` — but persistent
//! workers are `'static` threads.  `std::thread::scope` solves exactly this
//! problem with `unsafe` internally; a persistent pool has no safe standard
//! building block, so this module erases the kernel's lifetime behind a raw
//! trait-object pointer ([`KernelPtr`]).  Soundness rests on the launch
//! barrier: [`WorkerPool::run`] does not return until every worker has
//! finished the epoch and the dispatch slot holding the pointer has been
//! cleared, so no worker can observe the pointer after the borrow it was
//! created from ends.  This is the only `unsafe` in the crate; everything
//! else remains `#![deny(unsafe_code)]`-clean.

#![allow(unsafe_code)]

use crate::barrier::GlobalBarrier;
use crate::engine::{LaunchTotals, ThreadCtx};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Executor chunks are aligned to this many grid indices: 8 `u64` words,
/// one modelled 64-byte cache line.  The alignment is kept because the
/// chunk count feeds the engine's chunk-cursor cost accounting, so changing
/// it would move every modelled cost under the pooled executor.
const CHUNK_ALIGN: usize = 8;

/// The per-launch chunk size the pool actually schedules with.
///
/// Two constraints on top of the configured [`chunk_size`]:
///
/// * every worker participating in the launch barrier should get a share of
///   mid-sized grids, so the chunk is capped at `grid / workers` (rounded
///   up);
/// * chunks are aligned up to a multiple of [`CHUNK_ALIGN`] (one modelled
///   cache line).
///
/// Shared by [`WorkerPool::run`] and the engine's deterministic
/// chunk-cursor cost accounting, which must agree on the claim count.
///
/// [`chunk_size`]: crate::ExecutorConfig::chunk_size
pub(crate) fn effective_chunk(chunk: usize, grid: usize, workers: usize) -> usize {
    let chunk = chunk.max(1).min(grid.div_ceil(workers.max(1)).max(1));
    chunk.div_ceil(CHUNK_ALIGN) * CHUNK_ALIGN
}

/// Locks a `std::sync` mutex, ignoring poison: a kernel panic is contained
/// by `catch_unwind` and re-raised on the launcher, so a poisoned lock only
/// ever means "a previous launch failed", never "this data is torn".
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A kernel reference with its lifetime erased so the long-lived workers can
/// hold it for the duration of one launch.  See the module docs for the
/// soundness argument.
#[derive(Clone, Copy)]
struct KernelPtr(*const (dyn Fn(&ThreadCtx) + Sync));

impl KernelPtr {
    /// Erases the borrow's lifetime.  Callers must guarantee the pointer is
    /// never dereferenced after the borrow ends; `WorkerPool::run` does so
    /// with its end-of-launch barrier.
    fn erase(kernel: &(dyn Fn(&ThreadCtx) + Sync)) -> Self {
        // SAFETY: a reference-to-reference transmute that only widens the
        // lifetime; layout is identical, and the barrier argument above
        // bounds every actual use to the original lifetime.
        let kernel: &'static (dyn Fn(&ThreadCtx) + Sync) = unsafe { std::mem::transmute(kernel) };
        Self(kernel)
    }
}

// SAFETY: the pointee is `Sync` (shared calls from many threads are allowed),
// and the launch barrier in `WorkerPool::run` guarantees the pointer is never
// dereferenced outside the lifetime of the borrow it was created from.
unsafe impl Send for KernelPtr {}
// SAFETY: as above; `&KernelPtr` only ever exposes the `Sync` pointee.
unsafe impl Sync for KernelPtr {}

/// Shared per-launch state: the chunk cursor and the lock-free aggregation
/// targets the workers fold their local counters into.
struct LaunchBody {
    /// Total logical threads in the launch.
    grid: usize,
    /// Grid indices claimed per cursor increment.
    chunk: usize,
    /// Next unclaimed grid index.
    cursor: AtomicUsize,
    /// Work and atomic counters, folded in once per worker at launch end.
    totals: Mutex<LaunchTotals>,
    /// Set by the first panicking worker; stops further chunk claims.
    poisoned: AtomicBool,
    /// The first panic payload, re-raised on the launcher after the barrier.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// One dispatched launch: the erased kernel plus its shared state.
#[derive(Clone)]
struct Job {
    kernel: KernelPtr,
    body: Arc<LaunchBody>,
}

/// What one dispatch epoch asks the workers to do.
#[derive(Clone)]
enum Work {
    /// One ordinary launch: claim chunks, aggregate, hit the end barrier.
    Launch(Job),
    /// Enter a resident (persistent) loop: stay in
    /// [`resident_worker_loop`] executing barrier-separated rounds until
    /// the session signals exit.  One dispatch epoch covers the whole
    /// persistent launch, however many rounds it runs.
    Resident(Arc<ResidentBody>),
}

/// Dispatch slot the workers wait on.
struct Dispatch {
    /// Bumped once per launch; workers run each epoch exactly once.
    epoch: u64,
    /// The current launch, present while `remaining > 0`.
    job: Option<Work>,
    /// Workers that have not yet finished the current epoch.
    remaining: usize,
    /// Set by `Drop`; workers exit instead of waiting for the next epoch.
    shutdown: bool,
}

struct PoolShared {
    dispatch: Mutex<Dispatch>,
    /// Signalled when a new epoch is posted (or shutdown begins).
    go: Condvar,
    /// Signalled by the last worker to finish an epoch.
    done: Condvar,
}

/// The persistent worker pool owned by a `VirtualGpu` with a parallel
/// backend.  Spawned at most once per device; dropped with the device.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Serializes launches on one device, like CUDA's default stream.
    gate: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` host threads, parked until the first launch.
    ///
    /// `tag` is baked into the host thread names so pools belonging to
    /// different owners (e.g. service shards) are distinguishable in thread
    /// dumps.  Tag 0 keeps the historical `gpm-gpu-worker-<i>` names.
    pub(crate) fn spawn_tagged(workers: usize, tag: usize) -> Self {
        debug_assert!(workers >= 1, "a pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            dispatch: Mutex::new(Dispatch { epoch: 0, job: None, remaining: 0, shutdown: false }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let name = if tag == 0 {
                    format!("gpm-gpu-worker-{index}")
                } else {
                    format!("gpm-gpu-t{tag}-worker-{index}")
                };
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn virtual GPU worker")
            })
            .collect();
        Self { shared, gate: Mutex::new(()), handles, workers }
    }

    /// Number of host threads this pool owns.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one launch over the pool and blocks until every worker reached
    /// the end-of-launch barrier (the implicit device-wide barrier of a CUDA
    /// launch).  Returns the launch's aggregated [`LaunchTotals`].
    ///
    /// Re-raises the payload of the first panicking kernel thread, after the
    /// barrier, leaving the pool intact for the next launch.
    pub(crate) fn run(
        &self,
        grid: usize,
        chunk: usize,
        kernel: &(dyn Fn(&ThreadCtx) + Sync),
    ) -> LaunchTotals {
        let _gate = lock(&self.gate);
        // Every worker participates in the barrier (that is what makes the
        // erased kernel pointer sound); `effective_chunk` hands each woken
        // worker a share of mid-sized grids and keeps chunks aligned to the
        // modelled cache line.
        let chunk = effective_chunk(chunk, grid, self.workers);
        let body = Arc::new(LaunchBody {
            grid,
            chunk,
            cursor: AtomicUsize::new(0),
            totals: Mutex::new(LaunchTotals::default()),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        self.dispatch_epoch(Work::Launch(Job {
            kernel: KernelPtr::erase(kernel),
            body: Arc::clone(&body),
        }));
        self.await_epoch();
        body.reap()
    }

    /// Starts a **resident launch**: every worker enters a persistent loop
    /// executing barrier-separated rounds ([`ResidentBody::round`]) instead
    /// of returning to the dispatch slot after one kernel.  The launch gate
    /// is held for the whole session — the resident grid monopolizes the
    /// device, exactly like a real megakernel occupying every SM — and is
    /// released when the returned session drops, which also exits the
    /// workers' loops and completes the dispatch epoch.
    pub(crate) fn begin_resident(&self) -> ResidentSession<'_> {
        let gate = lock(&self.gate);
        let body = Arc::new(ResidentBody {
            barrier: GlobalBarrier::new(self.workers),
            exit: AtomicBool::new(false),
            round: Mutex::new(None),
        });
        self.dispatch_epoch(Work::Resident(Arc::clone(&body)));
        ResidentSession { pool: self, body, _gate: gate }
    }

    /// Posts one dispatch epoch and wakes the workers.
    fn dispatch_epoch(&self, work: Work) {
        let mut dispatch = lock(&self.shared.dispatch);
        dispatch.job = Some(work);
        dispatch.epoch += 1;
        dispatch.remaining = self.workers;
        drop(dispatch);
        self.shared.go.notify_all();
    }

    /// Blocks until every worker has finished the current epoch, then clears
    /// the dispatch slot (for [`Work::Launch`], this is what lets the erased
    /// kernel borrow end safely).
    fn await_epoch(&self) {
        let mut dispatch = lock(&self.shared.dispatch);
        while dispatch.remaining > 0 {
            dispatch = self.shared.done.wait(dispatch).unwrap_or_else(PoisonError::into_inner);
        }
        // Clear the erased pointer before returning: after this, no
        // worker can reach it, so the kernel borrow may safely end.
        dispatch.job = None;
    }
}

impl LaunchBody {
    /// Consumes the launch outcome: re-raises the first panic, or returns
    /// the aggregated totals.
    fn reap(&self) -> LaunchTotals {
        if self.poisoned.load(Ordering::Relaxed) {
            let payload =
                lock(&self.panic).take().unwrap_or_else(|| Box::new("virtual GPU kernel panicked"));
            resume_unwind(payload);
        }
        std::mem::take(&mut *lock(&self.totals))
    }
}

/// Shared state of one resident (persistent) launch: the software global
/// barrier the rounds synchronize through and the per-round job slot the
/// leader re-arms between crossings.
///
/// The leader is the *launcher* thread (it never claims chunks itself —
/// it plays the role CUDA's host code would play if it could talk to a
/// running grid): per round it arms the job slot, crosses the barrier
/// twice ([`GlobalBarrier::release`] to open the round,
/// [`GlobalBarrier::await_full`] to close it), and harvests the totals.
/// Workers only ever [`GlobalBarrier::wait_past`], execute, and
/// [`GlobalBarrier::arrive`].
pub(crate) struct ResidentBody {
    barrier: GlobalBarrier,
    /// Set by the session's `Drop`; workers exit the loop at the next
    /// release instead of running another round.
    exit: AtomicBool,
    /// The current round's launch, present between `release` and the
    /// post-`await_full` clear.
    round: Mutex<Option<Job>>,
}

impl ResidentBody {
    /// Runs one device-resident round over the persistent workers and
    /// blocks until every worker has crossed the end-of-round barrier.
    /// Returns the round's aggregated totals; re-raises the payload of the
    /// first panicking worker (after the crossing, so the loop stays
    /// deadlock-free and the pool survives).
    pub(crate) fn round(
        &self,
        grid: usize,
        chunk: usize,
        kernel: &(dyn Fn(&ThreadCtx) + Sync),
    ) -> LaunchTotals {
        let chunk = effective_chunk(chunk, grid, self.barrier.participants());
        let body = Arc::new(LaunchBody {
            grid,
            chunk,
            cursor: AtomicUsize::new(0),
            totals: Mutex::new(LaunchTotals::default()),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        *lock(&self.round) =
            Some(Job { kernel: KernelPtr::erase(kernel), body: Arc::clone(&body) });
        self.barrier.release();
        let full = self.barrier.await_full();
        assert!(full, "resident barrier poisoned mid-round");
        self.barrier.depart_all();
        // Every worker has arrived, i.e. finished executing; clearing the
        // slot ends the erased pointer's reachable life, so the kernel
        // borrow may safely end when this returns (same argument as
        // `WorkerPool::run`).
        *lock(&self.round) = None;
        body.reap()
    }
}

/// RAII handle of one resident launch on a [`WorkerPool`].  Rounds run via
/// [`ResidentBody::round`]; dropping the session exits the workers' loops
/// (even during unwind, so a panicking round cannot wedge the pool) and
/// releases the device's launch gate.
pub(crate) struct ResidentSession<'pool> {
    pool: &'pool WorkerPool,
    body: Arc<ResidentBody>,
    _gate: MutexGuard<'pool, ()>,
}

impl ResidentSession<'_> {
    /// The shared round-loop state, for the engine's ambient resident scope.
    pub(crate) fn body(&self) -> Arc<ResidentBody> {
        Arc::clone(&self.body)
    }

    /// Number of pool workers participating in each round.
    pub(crate) fn workers(&self) -> usize {
        self.body.barrier.participants()
    }
}

impl Drop for ResidentSession<'_> {
    fn drop(&mut self) {
        self.body.exit.store(true, Ordering::Release);
        // Wake the workers parked at the round barrier; they observe `exit`
        // and leave the resident loop, finishing the dispatch epoch.
        self.body.barrier.release();
        self.pool.await_epoch();
    }
}

/// The worker half of the resident protocol: wait for the leader to open
/// round `epoch`, run it, arrive, repeat — until the session exits.  Panics
/// inside a round are contained by [`run_chunks`] (the worker still
/// arrives), so a failing kernel surfaces on the launcher without ever
/// leaving the barrier short of participants.
fn resident_worker_loop(body: &ResidentBody) {
    let mut epoch = 0u64;
    loop {
        if !body.barrier.wait_past(epoch) {
            return; // poisoned: bail rather than spin forever
        }
        epoch += 1;
        if body.exit.load(Ordering::Acquire) {
            return;
        }
        let job = lock(&body.round).clone().expect("a released round carries a job");
        run_chunks(&job);
        body.barrier.arrive();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut dispatch = lock(&self.shared.dispatch);
            dispatch.shutdown = true;
        }
        self.shared.go.notify_all();
        for handle in self.handles.drain(..) {
            // Workers never panic outside `catch_unwind`, but a failed join
            // must not abort the program from Drop.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let work = {
            let mut dispatch = lock(&shared.dispatch);
            loop {
                if dispatch.shutdown {
                    return;
                }
                if dispatch.epoch != seen_epoch {
                    seen_epoch = dispatch.epoch;
                    break dispatch.job.clone().expect("a dispatched epoch carries a job");
                }
                dispatch = shared.go.wait(dispatch).unwrap_or_else(PoisonError::into_inner);
            }
        };
        match work {
            Work::Launch(job) => run_chunks(&job),
            Work::Resident(body) => resident_worker_loop(&body),
        }
        let mut dispatch = lock(&shared.dispatch);
        dispatch.remaining -= 1;
        if dispatch.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// Claims chunks from the shared cursor until the grid is exhausted (or the
/// launch was poisoned by a panic elsewhere), accumulating work counters
/// locally and folding them into the launch atomics once.
fn run_chunks(job: &Job) {
    // SAFETY: `WorkerPool::run` blocks until this worker has decremented
    // `remaining`, which happens only after this function returns, so the
    // kernel borrow behind the erased pointer is live for the whole call.
    let kernel = unsafe { &*job.kernel.0 };
    let body = &*job.body;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut totals = LaunchTotals::default();
        while !body.poisoned.load(Ordering::Relaxed) {
            let start = body.cursor.fetch_add(body.chunk, Ordering::Relaxed);
            if start >= body.grid {
                break;
            }
            let end = (start + body.chunk).min(body.grid);
            for id in start..end {
                let ctx = ThreadCtx::new(id, body.grid);
                kernel(&ctx);
                totals.absorb_thread(&ctx);
            }
        }
        totals
    }));
    match outcome {
        Ok(totals) => {
            lock(&body.totals).merge(&totals);
        }
        Err(payload) => {
            body.poisoned.store(true, Ordering::Relaxed);
            let mut slot = lock(&body.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DeviceBuffer;

    #[test]
    fn pool_covers_the_grid_with_dynamic_chunks() {
        let pool = WorkerPool::spawn_tagged(3, 0);
        let grid = 10_007; // not a multiple of any chunk size
        let out = DeviceBuffer::<u32>::new(grid, 0);
        for chunk in [1usize, 7, 64, 1024, 20_000] {
            out.fill(0);
            let kernel = |ctx: &ThreadCtx| out.set(ctx.global_id, out.get(ctx.global_id) + 1);
            pool.run(grid, chunk, &kernel);
            assert!(out.to_vec().iter().all(|&v| v == 1), "chunk = {chunk}");
        }
    }

    #[test]
    fn work_counters_aggregate_across_workers() {
        let pool = WorkerPool::spawn_tagged(4, 0);
        let kernel = |ctx: &ThreadCtx| ctx.add_work(ctx.global_id as u64);
        let totals = pool.run(1000, 16, &kernel);
        assert_eq!(totals.work, (0..1000u64).sum());
        assert_eq!(totals.max_thread_work, 999);
    }

    #[test]
    fn atomic_counters_aggregate_per_word_across_workers() {
        let pool = WorkerPool::spawn_tagged(3, 0);
        let hot = DeviceBuffer::<u64>::new(1, 0);
        let spread = DeviceBuffer::<u64>::new(1000, 0);
        let kernel = |ctx: &ThreadCtx| {
            // Every thread hits the shared word; even threads also hit a
            // private word, so the totals must separate "all RMWs" from
            // "RMWs on the hottest word".
            hot.fetch_add(0, 1);
            ctx.add_atomic(hot.word_id(0));
            if ctx.global_id.is_multiple_of(2) {
                spread.fetch_add(ctx.global_id, 1);
                ctx.add_atomic(spread.word_id(ctx.global_id));
            }
        };
        let totals = pool.run(1000, 16, &kernel);
        assert_eq!(totals.atomics, 1500);
        assert_eq!(totals.hot_word_atomics(), 1000);
    }

    #[test]
    fn effective_chunk_is_cache_line_aligned_and_capped() {
        // Alignment: every effective chunk is a whole number of modelled
        // cache lines.
        for (chunk, grid, workers) in [(1, 10_007, 3), (7, 64, 2), (1024, 100_000, 4)] {
            let eff = effective_chunk(chunk, grid, workers);
            assert_eq!(eff % CHUNK_ALIGN, 0, "chunk {chunk} grid {grid} workers {workers}");
            assert!(eff >= 1);
        }
        // The per-worker cap still engages before alignment.
        assert_eq!(effective_chunk(1024, 64, 4), CHUNK_ALIGN * 2);
        // Degenerate inputs stay sane.
        assert_eq!(effective_chunk(0, 0, 0), CHUNK_ALIGN);
    }

    #[test]
    fn panic_poisons_the_launch_but_not_the_pool() {
        let pool = WorkerPool::spawn_tagged(2, 0);
        let boom = |ctx: &ThreadCtx| {
            if ctx.global_id == 123 {
                panic!("injected");
            }
        };
        let err = catch_unwind(AssertUnwindSafe(|| pool.run(1000, 8, &boom))).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"injected"));
        // The same pool still runs the next launch to completion.
        let out = DeviceBuffer::<u32>::new(500, 0);
        let kernel = |ctx: &ThreadCtx| out.set(ctx.global_id, 1);
        pool.run(500, 8, &kernel);
        assert_eq!(out.to_vec().iter().map(|&v| u64::from(v)).sum::<u64>(), 500);
    }

    #[test]
    fn tagged_pool_names_threads_after_the_tag() {
        let pool = WorkerPool::spawn_tagged(2, 7);
        let seen = Mutex::new(Vec::new());
        let kernel = |_ctx: &ThreadCtx| {
            let name = std::thread::current().name().unwrap_or("").to_string();
            lock(&seen).push(name);
        };
        pool.run(2, 1, &kernel);
        for name in lock(&seen).iter() {
            assert!(name.starts_with("gpm-gpu-t7-worker-"), "unexpected thread name {name}");
        }
    }

    #[test]
    fn zero_grid_run_returns_immediately() {
        let pool = WorkerPool::spawn_tagged(2, 0);
        let kernel = |_ctx: &ThreadCtx| panic!("no threads should run");
        let totals = pool.run(0, 8, &kernel);
        assert_eq!(totals.work, 0);
        assert_eq!(totals.atomics, 0);
    }

    #[test]
    fn resident_rounds_cover_the_grid_and_aggregate_totals() {
        let pool = WorkerPool::spawn_tagged(3, 0);
        let grid = 10_007;
        let out = DeviceBuffer::<u32>::new(grid, 0);
        {
            let session = pool.begin_resident();
            for round in 1..=5u32 {
                let kernel =
                    |ctx: &ThreadCtx| out.set(ctx.global_id, out.get(ctx.global_id) + round);
                let totals = session.body().round(grid, 64, &kernel);
                assert_eq!(totals.atomics, 0);
            }
            let counting = |ctx: &ThreadCtx| ctx.add_work(ctx.global_id as u64);
            let totals = session.body().round(1000, 16, &counting);
            assert_eq!(totals.work, (0..1000u64).sum());
            assert_eq!(totals.max_thread_work, 999);
        }
        assert!(out.to_vec().iter().all(|&v| v == 1 + 2 + 3 + 4 + 5));
        // The session released the gate and completed the epoch: ordinary
        // launches work again afterwards.
        out.fill(0);
        pool.run(grid, 64, &|ctx: &ThreadCtx| out.set(ctx.global_id, 1));
        assert!(out.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn one_resident_session_is_one_dispatch_epoch() {
        // However many rounds run, the pool dispatches exactly once — the
        // point of persistent execution.
        let pool = WorkerPool::spawn_tagged(2, 0);
        let epoch_before = lock(&pool.shared.dispatch).epoch;
        {
            let session = pool.begin_resident();
            for _ in 0..100 {
                session.body().round(64, 8, &|_ctx: &ThreadCtx| {});
            }
        }
        let epoch_after = lock(&pool.shared.dispatch).epoch;
        assert_eq!(epoch_after, epoch_before + 1);
    }

    #[test]
    fn panic_in_a_resident_round_does_not_deadlock_the_pool() {
        let pool = WorkerPool::spawn_tagged(3, 0);
        {
            let session = pool.begin_resident();
            session.body().round(500, 8, &|_ctx: &ThreadCtx| {});
            let boom = |ctx: &ThreadCtx| {
                if ctx.global_id == 123 {
                    panic!("resident boom");
                }
            };
            let err = catch_unwind(AssertUnwindSafe(|| session.body().round(1000, 8, &boom)))
                .unwrap_err();
            assert_eq!(err.downcast_ref::<&str>(), Some(&"resident boom"));
            // The same session still runs later rounds: the barrier crossed
            // despite the panic, and only the round body was poisoned.
            let out = DeviceBuffer::<u32>::new(256, 0);
            session.body().round(256, 8, &|ctx: &ThreadCtx| out.set(ctx.global_id, 1));
            assert_eq!(out.to_vec().iter().map(|&v| u64::from(v)).sum::<u64>(), 256);
        }
        // And the pool itself survives the session.
        let out = DeviceBuffer::<u32>::new(500, 0);
        pool.run(500, 8, &|ctx: &ThreadCtx| out.set(ctx.global_id, 1));
        assert_eq!(out.to_vec().iter().map(|&v| u64::from(v)).sum::<u64>(), 500);
    }

    #[test]
    fn dropping_a_session_mid_unwind_cleans_up() {
        // Simulates an engine panicking on host code between rounds: the
        // session drops during unwind and the workers exit cleanly.
        let pool = WorkerPool::spawn_tagged(2, 0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            let session = pool.begin_resident();
            session.body().round(64, 8, &|_ctx: &ThreadCtx| {});
            panic!("host-side failure");
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"host-side failure"));
        let out = DeviceBuffer::<u32>::new(100, 0);
        pool.run(100, 8, &|ctx: &ThreadCtx| out.set(ctx.global_id, 1));
        assert_eq!(out.to_vec().iter().map(|&v| u64::from(v)).sum::<u64>(), 100);
    }
}
