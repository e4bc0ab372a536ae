//! The device worklist: one API over the active-set representations.
//!
//! Every frontier-driven engine in the workspace — the paper's G-PR
//! push-relabel kernels, the G-GR global-relabeling BFS, and the G-HK /
//! G-HKDW phase BFS — iterates a set of *active* vertices in rounds, adds
//! vertices for the next round while processing the current one, and
//! periodically rebuilds the set.  How that set is **represented on the
//! device** is the performance knob the paper's Section III-C is about, so
//! this module factors it out as a [`Worklist`] with three
//! [`WorklistMode`]s:
//!
//! * [`WorklistMode::DenseStamp`] — membership is a per-vertex stamp (the
//!   paper's `iA` array); iteration scans the whole slot list (or domain)
//!   every round.  Zero bookkeeping between rounds, full-width launches.
//!   This is the representation behind `G-PR-NoShr` and the paper's
//!   full-grid level-synchronous BFS kernels.
//! * [`WorklistMode::Compacted`] — the same stamps, but the slot list is
//!   rebuilt by the paper's `G-PR-SHRKRNL` pattern (a count pass, a device
//!   [exclusive prefix sum](crate::primitives::exclusive_prefix_sum), and a
//!   scatter into private regions) when the push loop asks for it, so later
//!   launches cover only live entries.  This is `G-PR-Shr`'s push loop
//!   (Algorithm 7, line 11).  Compaction belongs to the slot protocol only:
//!   a frontier in this mode runs exactly as the atomic-append list.
//! * [`WorklistMode::AtomicQueue`] — vertices for the next round are
//!   **appended device-side** with an atomic fetch-add
//!   ([`DeviceQueue`]), the worklist-centric design of the GPU BFS
//!   literature.  No scan of any kind runs between rounds: the next launch
//!   is exactly as wide as the number of appended items, which makes this
//!   the representation of choice for launch-bound instances whose active
//!   set collapses quickly.  Every push, however, funnels through the one
//!   queue-tail word, and the device model charges same-address atomics a
//!   serialization cost — the single-tail bottleneck.
//!
//! # Protocols
//!
//! Two engine shapes are supported over the same storage:
//!
//! * the **slot protocol** ([`Worklist::begin_round`] /
//!   [`Worklist::for_each_active`] / [`Worklist::end_round`]) reproduces the
//!   paper's two-array `A_c`/`A_p` scheme: each slot remembers the item it
//!   processed so a push rolled back by a benign race is retried
//!   (`G-PR-INITKRNL`), and each thread reports one [`SlotAction`] per slot;
//! * the **frontier protocol** ([`Worklist::for_each_frontier`] /
//!   [`Worklist::advance_frontier`]) is the level-synchronous BFS shape:
//!   threads push any number of discovered vertices, and advancing moves the
//!   epoch to the next level.  A frontier is either the full grid
//!   ([`WorklistMode::DenseStamp`]) or the atomic-append list (every other
//!   mode).
//!
//! # Epochs and stamps
//!
//! The worklist owns a domain-sized stamp array.  A vertex is *in the
//! current round* iff its stamp equals the current epoch — this is exactly
//! the paper's `iA` duplicate-processing guard (Algorithm 9 line 13),
//! exposed as [`ActiveView::in_current_round`].  Epochs increase
//! monotonically across rounds **and across re-seeds**, so a recycled
//! worklist never needs its stamps cleared.
//!
//! # AtomicQueue memory model
//!
//! A queue push is `fetch_add(tail)` + relaxed store of the item, with a
//! same-epoch stamp check in front to drop most duplicates.  Three races are
//! possible and all are handled:
//!
//! 1. *Duplicate appends* — two threads can pass the stamp check
//!    simultaneously; the item is processed twice next round, which every
//!    engine built on this module tolerates (the same benign-race argument
//!    the paper makes for its kernels).
//! 2. *Unordered claim/store* — a claimed slot's store has no ordering
//!    guarantee within the launch.  The queue is therefore only read
//!    **after** the launch barrier: under the pooled executor the
//!    end-of-launch join synchronizes the workers (a happens-before edge),
//!    so every store is visible to the host and to the next launch — the
//!    same publication a real GPU gets from the implicit barrier between
//!    kernels on the default stream.
//! 3. *Overflow / lost items* — capacity is the domain size, so overflow
//!    can only come from duplicate races; the stamp array still holds full
//!    membership, and the round rebuilds from it (and a push-relabel loop
//!    whose queue runs dry re-scans by predicate before concluding it is
//!    done, so an item lost to a rolled-back push can never end the solve
//!    early).

use crate::buffer::DeviceBuffer;
use crate::engine::{ThreadCtx, VirtualGpu};
use crate::primitives::{self, DeviceQueue};
use crate::scratch::ScratchBuffer;
use std::cell::OnceCell;
use std::fmt;

/// Sentinel for an empty worklist slot.
pub const WL_EMPTY: u64 = u64::MAX;

/// How a [`Worklist`] represents its active set on the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorklistMode {
    /// Stamp-guarded slots scanned in full every round (the paper's
    /// `iA`-array scheme; no compaction ever runs).
    DenseStamp,
    /// Slots compacted with the count / prefix-sum / scatter pattern of
    /// `G-PR-SHRKRNL` when the engine asks for it.  A frontier in this mode
    /// is the atomic-append list of [`WorklistMode::AtomicQueue`].
    Compacted,
    /// Device-side atomic-append queue: each round launches over exactly
    /// the items pushed by the previous round, with no scan in between.
    AtomicQueue,
}

impl WorklistMode {
    /// All three representations, in ablation order.
    pub fn all() -> [WorklistMode; 3] {
        [WorklistMode::DenseStamp, WorklistMode::Compacted, WorklistMode::AtomicQueue]
    }

    /// The label of the representation (`dense`, `compacted`, `queue`), as
    /// benchmark cells and `Algorithm` spec suffixes print it.
    pub fn label(&self) -> &'static str {
        match self {
            WorklistMode::DenseStamp => "dense",
            WorklistMode::Compacted => "compacted",
            WorklistMode::AtomicQueue => "queue",
        }
    }

    /// `true` for the append-driven representation, which swaps in the
    /// appended queue instead of rebuilding a slot list between rounds.
    pub fn is_queue(&self) -> bool {
        *self == WorklistMode::AtomicQueue
    }
}

impl fmt::Display for WorklistMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Kernel names a worklist charges its maintenance launches to, so each
/// engine's device statistics keep their paper-faithful labels
/// (`G-PR-INITKRNL`, `G-PR-SHRKRNL_count`, …).
#[derive(Clone, Copy, Debug)]
pub struct WorklistKernels {
    /// Queue rebuild passes (predicate re-scan on a drained queue, stamp
    /// re-scan after an overflow) and device-side seeding.  Also the name
    /// the **fused** drained-queue refill is charged to: with
    /// [`Worklist::for_each_active_refill`] the refill stops appearing as
    /// launches and shows up as
    /// [`fused_tails`](crate::KernelStats::fused_tails) instead.
    pub refill: &'static str,
    /// The slot protocol's passes; `None` for a worklist driven only
    /// through the frontier protocol, which never launches them.
    pub slots: Option<SlotKernels>,
}

/// Kernel names of the slot protocol's maintenance passes.
#[derive(Clone, Copy, Debug)]
pub struct SlotKernels {
    /// Slot-resolve / stamp pass (the paper's `G-PR-INITKRNL`).
    pub init: &'static str,
    /// Compaction count pass (`G-PR-SHRKRNL` pass 1).
    pub compact_count: &'static str,
    /// Compaction scatter pass (`G-PR-SHRKRNL` pass 3; pass 2 is the shared
    /// device prefix sum).
    pub compact_scatter: &'static str,
}

/// What a slot-protocol thread decided about its item; applied by the
/// worklist so every representation keeps its invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotAction {
    /// The item succeeded and displaced another item, which must be
    /// processed in a later round (the paper's double push).
    Push(usize),
    /// The item could not be processed this round and must be retried
    /// (Algorithm 9's deferral when the target's mate is active).
    Defer,
    /// The item was processed; it only returns if the engine's predicate
    /// reports it live again (a push rolled back by a benign race).
    Finish,
    /// The item is permanently done (e.g. proven unmatchable): drop it and
    /// its retry memory.
    Retire,
}

/// In-kernel view handed to slot-protocol threads.
pub struct ActiveView<'a> {
    stamp: &'a DeviceBuffer<u64>,
    epoch: u64,
    /// Present only in the queue representation.
    queue: Option<DeviceQueue<'a>>,
}

impl ActiveView<'_> {
    /// `true` iff `v` is being processed in the current round — the paper's
    /// `iA(µ(u)) = i` guard against displacing a concurrently active column.
    #[inline]
    pub fn in_current_round(&self, v: usize) -> bool {
        self.stamp.get(v) == self.epoch
    }

    /// Queue-mode append for the next round, deduplicated by stamp.
    #[inline]
    fn queue_push(&self, ctx: &ThreadCtx, v: usize) {
        let next = self.epoch + 1;
        if self.stamp.get(v) != next {
            self.stamp.set(v, next);
            self.queue.as_ref().expect("queue present in queue mode").push(ctx, v as u64);
        }
    }
}

/// In-kernel view handed to frontier-protocol threads.
pub struct FrontierView<'a> {
    stamp: &'a DeviceBuffer<u64>,
    epoch: u64,
    nonempty: &'a DeviceBuffer<u64>,
    /// The append list; `None` on the full grid.
    queue: Option<DeviceQueue<'a>>,
}

impl FrontierView<'_> {
    /// Schedules `v` for the next round (the next BFS level).  Racy
    /// duplicate pushes of the same vertex are benign in every mode.
    #[inline]
    pub fn push(&self, ctx: &ThreadCtx, v: usize) {
        let next = self.epoch + 1;
        match &self.queue {
            None => {
                self.stamp.set(v, next);
                self.nonempty.set(0, 1);
            }
            Some(queue) => {
                if self.stamp.get(v) != next {
                    self.stamp.set(v, next);
                    queue.push(ctx, v as u64);
                }
            }
        }
    }
}

/// In-kernel view handed to [`Worklist::scan_domain`] threads.
pub struct DomainMarker<'a> {
    nonempty: &'a DeviceBuffer<u64>,
}

impl DomainMarker<'_> {
    /// Records that at least one domain element was active this scan.
    #[inline]
    pub fn mark_active(&self) {
        self.nonempty.set(0, 1);
    }
}

/// A device worklist over the vertex domain `0..domain`, in one of three
/// [`WorklistMode`] representations.  All device storage (slot arrays,
/// stamps, queue tail, flags) is drawn from the owning device's
/// [`ScratchArena`](crate::scratch::ScratchArena), so a warm solver session
/// that builds one worklist per solve stops allocating after the first.
/// The domain-sized buffers are acquired lazily, on first use by the
/// protocol actually driven: a pure [`Worklist::scan_domain`] user pays for
/// nothing but the one-word flag, and a dense frontier never materializes
/// the pending array.
pub struct Worklist<'gpu> {
    gpu: &'gpu VirtualGpu,
    mode: WorklistMode,
    names: WorklistKernels,
    domain: usize,
    epoch: u64,
    len: usize,
    current: OnceCell<ScratchBuffer<'gpu>>,
    pending: OnceCell<ScratchBuffer<'gpu>>,
    stamp: OnceCell<ScratchBuffer<'gpu>>,
    tail: ScratchBuffer<'gpu>,
    nonempty: ScratchBuffer<'gpu>,
    overflow: ScratchBuffer<'gpu>,
    compacted: bool,
    refilled: bool,
    fresh_seed: bool,
    /// Set when a drained-queue predicate refill already ran **fused** into
    /// the tail of the round's processing kernel
    /// ([`Worklist::for_each_active_refill`]): the next
    /// [`Worklist::begin_round`] must not launch a second refill — either
    /// the fused sweep appended survivors (the queue is non-empty) or it
    /// proved the set empty.
    fused_refill_done: bool,
    /// `true` between a [`Worklist::begin_round`] and its
    /// [`Worklist::end_round`]; lets [`Worklist::round_transition`] close
    /// the previous round exactly when one is open.
    round_open: bool,
}

impl<'gpu> Worklist<'gpu> {
    /// Creates a worklist for items in `0..domain`, drawing every device
    /// buffer from `gpu`'s scratch arena.
    pub fn new(
        gpu: &'gpu VirtualGpu,
        mode: WorklistMode,
        domain: usize,
        names: WorklistKernels,
    ) -> Self {
        Self {
            current: OnceCell::new(),
            pending: OnceCell::new(),
            stamp: OnceCell::new(),
            tail: gpu.scratch().acquire(1, 0),
            nonempty: gpu.scratch().acquire(1, 0),
            overflow: gpu.scratch().acquire(1, 0),
            gpu,
            mode,
            names,
            domain,
            epoch: 0,
            len: 0,
            compacted: false,
            refilled: false,
            fresh_seed: false,
            fused_refill_done: false,
            round_open: false,
        }
    }

    /// A queue view over the pending/tail/overflow buffers.
    fn queue_view(&self) -> DeviceQueue<'_> {
        DeviceQueue::new(self.pending_buf(), &self.tail, &self.overflow)
    }

    /// The current item list, acquired (EMPTY-filled) on first use.
    fn current_buf(&self) -> &DeviceBuffer<u64> {
        self.current.get_or_init(|| self.gpu.scratch().acquire(self.domain, WL_EMPTY))
    }

    /// The partner slot array / queue target, acquired on first use.
    fn pending_buf(&self) -> &DeviceBuffer<u64> {
        self.pending.get_or_init(|| self.gpu.scratch().acquire(self.domain, WL_EMPTY))
    }

    /// The per-domain stamp (`iA`) array, acquired (zero-filled) on first
    /// use; epochs start at 1, so a zeroed stamp never matches.
    fn stamp_buf(&self) -> &DeviceBuffer<u64> {
        self.stamp.get_or_init(|| self.gpu.scratch().acquire(self.domain, 0))
    }

    /// The representation this worklist runs with.
    pub fn mode(&self) -> WorklistMode {
        self.mode
    }

    /// Size of the item domain (`0..domain`).
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Length of the current slot/queue list.  For [`WorklistMode::DenseStamp`]
    /// frontiers this is the seeded length (dense rounds scan the domain).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the current list holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current round stamp.  Monotonically increasing; stamps written in
    /// earlier rounds or before a re-seed never collide with it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` iff the last [`Worklist::begin_round`] ran a compaction
    /// (feeds the engine's shrink counters).
    pub fn compacted_last_round(&self) -> bool {
        self.compacted
    }

    /// `true` iff the last [`Worklist::begin_round`] had to rebuild a
    /// drained or overflowed queue from scratch.
    pub fn refilled_last_round(&self) -> bool {
        self.refilled
    }

    /// (Re-)seeds the worklist from host-side items, host staging included —
    /// the analogue of uploading the initial active list to the device.
    /// Moves to a fresh epoch, so stale stamps from earlier use are inert.
    pub fn seed(&mut self, items: impl IntoIterator<Item = usize>) {
        // +2, not +1: a round's pushes stamp `epoch + 1`, and a caller may
        // re-seed after a round whose pushes were never consumed (e.g. a BFS
        // that broke out early).  Jumping two epochs guarantees no stamp
        // ever written so far can masquerade as a freshly seeded item.
        self.epoch += 2;
        let epoch = self.epoch;
        let mut k = 0usize;
        {
            let current = self.current_buf();
            let stamp = self.stamp_buf();
            // The partner array only needs refreshing if it already exists;
            // an untouched pending array is EMPTY-filled on first use, and a
            // round-one resolve of an EMPTY slot memory is a no-op —
            // identical behavior, one less domain-sized fill for protocols
            // that never read it.
            let pending =
                if self.mode.is_queue() { None } else { self.pending.get().map(|buf| &**buf) };
            for v in items {
                debug_assert!(v < self.domain, "worklist item {v} outside domain {}", self.domain);
                current.set(k, v as u64);
                stamp.set(v, epoch);
                if let Some(pending) = pending {
                    pending.set(k, v as u64);
                }
                k += 1;
            }
        }
        self.len = k;
        self.tail.set(0, 0);
        self.nonempty.set(0, 0);
        self.overflow.set(0, 0);
        self.fresh_seed = true;
        self.compacted = false;
        self.refilled = false;
        self.fused_refill_done = false;
        self.round_open = false;
    }

    /// Device-side seeding: stamps (and, for list frontiers, gathers) every
    /// domain element satisfying `predicate`, without any
    /// host-side scan.  Launches are charged to the worklist's `refill`
    /// kernel name, so the seeding cost shows up in the device model like
    /// any other kernel.  Same epoch semantics as [`Worklist::seed`].
    pub fn seed_by_predicate(&mut self, predicate: impl Fn(usize) -> bool + Sync) {
        self.epoch += 2;
        self.tail.set(0, 0);
        self.nonempty.set(0, 0);
        self.overflow.set(0, 0);
        if self.is_grid_frontier() {
            // Membership is the stamps alone; one domain pass suffices and
            // no list is materialized.
            let epoch = self.epoch;
            let stamp = self.stamp_buf();
            self.gpu.launch(self.names.refill, self.domain, |ctx| {
                let v = ctx.global_id;
                ctx.add_work(1);
                if predicate(v) {
                    stamp.set(v, epoch);
                }
            });
            self.len = 0;
        } else {
            self.len = self.gather_into_current(&predicate, true);
        }
        self.fresh_seed = true;
        self.compacted = false;
        self.refilled = false;
        self.fused_refill_done = false;
        self.round_open = false;
    }

    // ------------------------------------------------------------------
    // Slot protocol (push-relabel shape)
    // ------------------------------------------------------------------

    /// Starts a slot-protocol round: advances the epoch, re-establishes the
    /// active list, and returns `true` iff any item is active.
    ///
    /// * list modes run the resolve/stamp pass (the paper's `G-PR-INITKRNL`),
    ///   or — in [`WorklistMode::Compacted`] with `compact` requested — the
    ///   `G-PR-SHRKRNL` count / prefix-sum / scatter rebuild instead;
    /// * [`WorklistMode::AtomicQueue`] swaps in the queue appended by the
    ///   previous round (no kernel launch at all), rebuilding it from
    ///   `predicate` only when it drained or overflowed.
    ///
    /// `predicate(v)` must report whether item `v` is still live; it is the
    /// activity test of `G-PR-INITKRNL` and the safety net that keeps the
    /// queue representation exact under rolled-back racy pushes.
    pub fn begin_round(&mut self, predicate: impl Fn(usize) -> bool + Sync, compact: bool) -> bool {
        self.compacted = false;
        self.refilled = false;
        self.round_open = true;
        match self.mode {
            WorklistMode::DenseStamp | WorklistMode::Compacted => {
                self.fresh_seed = false;
                self.epoch += 1;
                self.nonempty.set(0, 0);
                if self.mode == WorklistMode::Compacted && compact {
                    self.compact_slots(&predicate);
                    self.compacted = true;
                } else {
                    self.init_slots(&predicate);
                }
                self.nonempty.get(0) != 0
            }
            WorklistMode::AtomicQueue => {
                if self.fresh_seed {
                    // The seed already stamped and listed this round's items.
                    self.fresh_seed = false;
                } else {
                    self.epoch += 1;
                    self.take_appended_queue();
                }
                if self.len == 0 && !self.fused_refill_done {
                    // Drained queue: re-scan by predicate before concluding
                    // the set is empty, so items lost to rolled-back racy
                    // pushes are recovered instead of silently dropped.
                    // (When the previous round already swept the predicate
                    // fused into its kernel tail — `fused_refill_done` — an
                    // empty queue IS the verdict, launch-free.)
                    self.refill_from_predicate(&predicate);
                    self.refilled = true;
                }
                self.fused_refill_done = false;
                self.len > 0
            }
        }
    }

    /// Launches `f` over the active slots of the current round.  The
    /// wrapper skips empty slots (charging them one work unit, like the
    /// paper's kernels) and applies the returned [`SlotAction`] in the
    /// representation's terms; `f` may consult
    /// [`ActiveView::in_current_round`] for the duplicate-processing guard.
    pub fn for_each_active(
        &self,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &ActiveView<'_>) -> SlotAction + Sync,
    ) {
        let current = self.current_buf();
        let pending = self.pending_buf();
        let view = ActiveView {
            stamp: self.stamp_buf(),
            epoch: self.epoch,
            queue: self.mode.is_queue().then(|| self.queue_view()),
        };
        match self.mode {
            WorklistMode::DenseStamp | WorklistMode::Compacted => {
                self.gpu.launch(name, self.len, |ctx| {
                    let i = ctx.global_id;
                    ctx.add_work(1);
                    let v = current.get(i);
                    if v == WL_EMPTY {
                        pending.set(i, WL_EMPTY);
                        return;
                    }
                    match f(ctx, v as usize, &view) {
                        SlotAction::Push(w) => pending.set(i, w as u64),
                        SlotAction::Defer | SlotAction::Finish => pending.set(i, WL_EMPTY),
                        SlotAction::Retire => {
                            current.set(i, WL_EMPTY);
                            pending.set(i, WL_EMPTY);
                        }
                    }
                });
            }
            WorklistMode::AtomicQueue => {
                self.gpu.launch(name, self.len, |ctx| {
                    let i = ctx.global_id;
                    ctx.add_work(1);
                    let v = current.get(i);
                    if v == WL_EMPTY {
                        return;
                    }
                    match f(ctx, v as usize, &view) {
                        SlotAction::Push(w) => view.queue_push(ctx, w),
                        SlotAction::Defer => view.queue_push(ctx, v as usize),
                        SlotAction::Finish | SlotAction::Retire => {}
                    }
                });
            }
        }
    }

    /// [`Worklist::for_each_active`] with the drained-queue refill **fused
    /// into the kernel tail**: when the round's launch ends with an empty
    /// append queue, the predicate sweep that [`Worklist::begin_round`]
    /// would otherwise run as separate launches executes as a fused tail of
    /// this round instead (the CUDA last-block-done idiom —
    /// [`VirtualGpu::launch_fused`]), so the drained round pays no extra
    /// launch overhead and non-drained rounds pay nothing at all.
    ///
    /// `predicate` must be the same liveness test the caller passes to
    /// [`Worklist::begin_round`].  A round whose queue is non-empty never
    /// evaluates it.  Non-queue modes ignore it and behave exactly like
    /// [`Worklist::for_each_active`].
    pub fn for_each_active_refill(
        &mut self,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &ActiveView<'_>) -> SlotAction + Sync,
        predicate: impl Fn(usize) -> bool + Sync,
    ) {
        self.for_each_active(name, f);
        if self.mode.is_queue() && self.tail.get(0) == 0 {
            self.fused_refill(&predicate);
        }
    }

    /// The fused drained-queue sweep: stamps and appends every live item for
    /// the next round, charged to the `refill` kernel name as a fused tail
    /// (no launch count, no launch overhead).  Racing pushes are harmless —
    /// the stamp dedupe makes a double append idempotent — so running the
    /// sweep when a push lands concurrently is merely redundant, never
    /// wrong.
    fn fused_refill(&mut self, predicate: &(impl Fn(usize) -> bool + Sync)) {
        let next = self.epoch + 1;
        let stamp = self.stamp_buf();
        let queue = self.queue_view();
        self.gpu.launch_fused(self.names.refill, self.domain, |ctx| {
            let v = ctx.global_id;
            ctx.add_work(1);
            if predicate(v) && stamp.get(v) != next {
                stamp.set(v, next);
                queue.push(ctx, v as u64);
            }
        });
        self.fused_refill_done = true;
    }

    /// Ends a slot-protocol round.  List modes swap the slot arrays (the
    /// paper's `A_c`/`A_p` exchange); the queue representation has nothing
    /// to do — the next round's queue was built during processing.
    pub fn end_round(&mut self) {
        self.round_open = false;
        if !self.mode.is_queue() {
            std::mem::swap(&mut self.current, &mut self.pending);
        }
    }

    /// The **in-loop round transition**: closes the previous round (when one
    /// is open) and opens the next in a single call — the `A_c`/`A_p` swap,
    /// the epoch bump, the resolve/stamp or compaction pass, the
    /// appended-queue takeover, and the drained/overflowed-queue rebuild
    /// fallback, per the representation.  Returns [`Worklist::begin_round`]'s
    /// verdict: `true` iff any item is active.
    ///
    /// This is the form a persistent round loop needs: under
    /// [`ExecMode::Persistent`](crate::ExecMode) the leader executes the
    /// whole transition between two barrier crossings (inside the
    /// [`VirtualGpu::resident`] scope), so its kernels are charged as
    /// resident rounds; the host-mediated paths — the queue-overflow rebuild
    /// and the host-staged parts of compaction — still run on the leader
    /// exactly as they would between launches.  Launch-per-round loops may
    /// use it too; it is equivalent to `end_round()` + `begin_round(..)`.
    pub fn round_transition(
        &mut self,
        predicate: impl Fn(usize) -> bool + Sync,
        compact: bool,
    ) -> bool {
        if self.round_open {
            self.end_round();
        }
        self.begin_round(predicate, compact)
    }

    // ------------------------------------------------------------------
    // Frontier protocol (level-synchronous BFS shape)
    // ------------------------------------------------------------------

    /// `true` when the frontier protocol runs on the full grid: only
    /// [`WorklistMode::DenseStamp`] does; every other mode runs its
    /// frontier as the atomic-append list.
    fn is_grid_frontier(&self) -> bool {
        self.mode == WorklistMode::DenseStamp
    }

    /// Launches `f` over the current frontier.  On the grid
    /// ([`WorklistMode::DenseStamp`]) the launch covers the whole domain and
    /// the stamp array decides membership (the paper's dense BFS kernels);
    /// the list launches over the appended frontier.  `f` pushes next-level
    /// vertices through the [`FrontierView`].
    pub fn for_each_frontier(
        &self,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &FrontierView<'_>) + Sync,
    ) {
        let stamp = self.stamp_buf();
        let epoch = self.epoch;
        let view = FrontierView {
            stamp,
            epoch,
            nonempty: &self.nonempty,
            queue: (!self.is_grid_frontier()).then(|| self.queue_view()),
        };
        if self.is_grid_frontier() {
            self.gpu.launch(name, self.domain, |ctx| {
                let v = ctx.global_id;
                ctx.add_work(1);
                if stamp.get(v) == epoch {
                    f(ctx, v, &view);
                }
            });
        } else {
            let current = self.current_buf();
            self.gpu.launch(name, self.len, |ctx| {
                ctx.add_work(1);
                f(ctx, current.get(ctx.global_id) as usize, &view);
            });
        }
    }

    /// Moves the frontier to the next level, returning `true` iff it is
    /// non-empty.  The list swaps in the appended queue (rebuilding from
    /// stamps after an overflow).
    pub fn advance_frontier(&mut self) -> bool {
        self.fresh_seed = false;
        self.fused_refill_done = false;
        self.epoch += 1;
        if self.is_grid_frontier() {
            let any = self.nonempty.get(0) != 0;
            self.nonempty.set(0, 0);
            any
        } else {
            self.take_appended_queue();
            self.len > 0
        }
    }

    /// Swaps in the queue appended by the previous round (shared by both
    /// protocols): reads and resets the tail, and rebuilds the list from the
    /// current epoch's stamps when appends were dropped on overflow.  The
    /// caller has already advanced the epoch.
    fn take_appended_queue(&mut self) {
        std::mem::swap(&mut self.current, &mut self.pending);
        let appended = self.tail.get(0) as usize;
        self.tail.set(0, 0);
        if self.overflow.get(0) != 0 {
            self.overflow.set(0, 0);
            // Dropped appends: the stamps still hold the full membership —
            // rebuild the list from them.
            self.compact_from_stamps();
            self.refilled = true;
        } else {
            self.len = appended.min(self.domain);
        }
    }

    // ------------------------------------------------------------------
    // Domain scan (the stampless G-PR-First shape)
    // ------------------------------------------------------------------

    /// One full-domain scan: every element gets a thread, `f` decides
    /// activity itself and calls [`DomainMarker::mark_active`] when it found
    /// work.  Returns `true` iff anything was marked.  This is the
    /// representation-independent shape of `G-PR-KRNL` (Algorithm 6), kept
    /// on the worklist so no engine owns a raw activity flag.
    pub fn scan_domain(
        &mut self,
        name: &'static str,
        f: impl Fn(&ThreadCtx, usize, &DomainMarker<'_>) + Sync,
    ) -> bool {
        self.nonempty.set(0, 0);
        let marker = DomainMarker { nonempty: &self.nonempty };
        self.gpu.launch(name, self.domain, |ctx| {
            ctx.add_work(1);
            f(ctx, ctx.global_id, &marker);
        });
        self.nonempty.get(0) != 0
    }

    // ------------------------------------------------------------------
    // Internal passes
    // ------------------------------------------------------------------

    /// The slot protocol's kernel names.
    fn slot_kernels(&self) -> SlotKernels {
        self.names.slots.expect("the slot protocol needs slot kernel names")
    }

    /// `G-PR-INITKRNL` (Algorithm 8): resolve each slot's retry memory,
    /// stamp the live items with the current epoch, raise the activity flag.
    fn init_slots(&self, predicate: &(impl Fn(usize) -> bool + Sync)) {
        let current = self.current_buf();
        let pending = self.pending_buf();
        let stamp = self.stamp_buf();
        let nonempty = &*self.nonempty;
        let epoch = self.epoch;
        self.gpu.launch(self.slot_kernels().init, self.len, |ctx| {
            let i = ctx.global_id;
            ctx.add_work(1);
            let prev = pending.get(i);
            if prev != WL_EMPTY && predicate(prev as usize) {
                // The processing recorded in this slot was rolled back by a
                // benign race (or never happened): retry it.
                current.set(i, prev);
            }
            let v = current.get(i);
            if v != WL_EMPTY {
                stamp.set(v as usize, epoch);
                nonempty.set(0, 1);
            }
        });
    }

    /// `G-PR-SHRKRNL`: resolve (count) pass, device prefix sum, scatter into
    /// private regions.  Rebuilds the slot list to its live entries.
    fn compact_slots(&mut self, predicate: &(impl Fn(usize) -> bool + Sync)) {
        let len = self.len;
        let resolved = self.gpu.scratch().acquire(len, WL_EMPTY);
        let counts = self.gpu.scratch().acquire(len, 0);
        {
            let current = self.current_buf();
            let pending = self.pending_buf();
            self.gpu.launch(self.slot_kernels().compact_count, len, |ctx| {
                let i = ctx.global_id;
                ctx.add_work(1);
                let prev = pending.get(i);
                let mut v = current.get(i);
                if prev != WL_EMPTY && predicate(prev as usize) {
                    v = prev;
                }
                // Only genuinely live items survive the compaction.
                if v != WL_EMPTY && predicate(v as usize) {
                    resolved.set(i, v);
                    counts.set(i, 1);
                }
            });
        }
        let (offsets, total) = primitives::exclusive_prefix_sum(self.gpu, &counts);
        let total = total as usize;
        if total > 0 {
            let current = self.current_buf();
            let stamp = self.stamp_buf();
            let nonempty = &*self.nonempty;
            let epoch = self.epoch;
            self.gpu.launch(self.slot_kernels().compact_scatter, len, |ctx| {
                let i = ctx.global_id;
                ctx.add_work(1);
                let v = resolved.get(i);
                if v != WL_EMPTY {
                    // offsets[i] < i for every surviving slot, so the
                    // scatter never overwrites a slot it still has to read —
                    // `resolved` is the only input.
                    current.set(offsets.get(i) as usize, v);
                    stamp.set(v as usize, epoch);
                    nonempty.set(0, 1);
                }
            });
        }
        // Both arrays hold the compacted list, exactly as after a seed
        // (device-to-device copy, staged through the host like any D2D in
        // this simulator).
        for i in 0..total {
            self.pending_buf().set(i, self.current_buf().get(i));
        }
        self.len = total;
    }

    /// Rebuilds the current list from the stamp array (`stamp == epoch`)
    /// after a queue overflow.
    fn compact_from_stamps(&mut self) {
        let epoch = self.epoch;
        let stamp = self.stamp_buf();
        self.len = self.gather_into_current(move |v| stamp.get(v) == epoch, false);
    }

    /// Rebuilds the current list from the engine predicate, re-stamping the
    /// survivors (queue-drain recovery / termination check).
    fn refill_from_predicate(&mut self, predicate: &(impl Fn(usize) -> bool + Sync)) {
        self.len = self.gather_into_current(predicate, true);
    }

    /// Count / prefix-sum / scatter over the whole domain into `current`;
    /// returns the number of gathered items.
    fn gather_into_current(&self, select: impl Fn(usize) -> bool + Sync, restamp: bool) -> usize {
        let counts = self.gpu.scratch().acquire(self.domain, 0);
        self.gpu.launch(self.names.refill, self.domain, |ctx| {
            let v = ctx.global_id;
            ctx.add_work(1);
            if select(v) {
                counts.set(v, 1);
            }
        });
        let (offsets, total) = primitives::exclusive_prefix_sum(self.gpu, &counts);
        let total = total as usize;
        if total > 0 {
            let current = self.current_buf();
            let stamp = self.stamp_buf();
            let epoch = self.epoch;
            self.gpu.launch(self.names.refill, self.domain, |ctx| {
                let v = ctx.global_id;
                ctx.add_work(1);
                if counts.get(v) == 1 {
                    current.set(offsets.get(v) as usize, v as u64);
                    if restamp {
                        stamp.set(v, epoch);
                    }
                }
            });
        }
        total
    }
}

impl fmt::Debug for Worklist<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worklist")
            .field("mode", &self.mode)
            .field("domain", &self.domain)
            .field("len", &self.len)
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::VirtualGpu;

    const NAMES: WorklistKernels = WorklistKernels {
        refill: "wl_refill",
        slots: Some(SlotKernels {
            init: "wl_init",
            compact_count: "wl_count",
            compact_scatter: "wl_scatter",
        }),
    };

    fn gpus() -> Vec<VirtualGpu> {
        vec![VirtualGpu::sequential(), VirtualGpu::parallel()]
    }

    /// Reference model: items 0..n start live; processing item v kills it
    /// and, if v is even, schedules v/2 + n/2 … here we use a simple chain:
    /// processing v schedules v-1 while v > 0 (push), so the worklist must
    /// walk every chain down to 0 regardless of representation.
    fn run_chain(mode: WorklistMode, gpu: &VirtualGpu, n: usize) -> u64 {
        let live = DeviceBuffer::<u64>::new(n, 1);
        let processed = DeviceBuffer::<u64>::new(1, 0);
        let mut wl = Worklist::new(gpu, mode, n, NAMES);
        wl.seed([n - 1]);
        let mut rounds = 0;
        while wl.begin_round(|v| live.get(v) != 0, rounds % 3 == 0) {
            wl.for_each_active("wl_process", |_ctx, v, _view| {
                live.set(v, 0);
                processed.fetch_add(0, 1);
                if v > 0 {
                    SlotAction::Push(v - 1)
                } else {
                    SlotAction::Retire
                }
            });
            wl.end_round();
            rounds += 1;
            assert!(rounds < 10 * n as u64 + 16, "worklist failed to converge");
        }
        processed.get(0)
    }

    #[test]
    fn slot_protocol_drains_chains_in_every_mode() {
        for gpu in gpus() {
            for mode in WorklistMode::all() {
                assert_eq!(run_chain(mode, &gpu, 64), 64, "{mode}");
            }
        }
    }

    /// `run_chain` restructured on the in-loop transition: one
    /// `round_transition` at the top of the loop instead of split
    /// `begin_round`/`end_round` calls.
    fn run_chain_transition(mode: WorklistMode, gpu: &VirtualGpu, n: usize) -> (u64, u64) {
        let live = DeviceBuffer::<u64>::new(n, 1);
        let processed = DeviceBuffer::<u64>::new(1, 0);
        let mut wl = Worklist::new(gpu, mode, n, NAMES);
        wl.seed([n - 1]);
        let mut rounds = 0;
        while wl.round_transition(|v| live.get(v) != 0, rounds % 3 == 0) {
            wl.for_each_active("wl_process", |_ctx, v, _view| {
                live.set(v, 0);
                processed.fetch_add(0, 1);
                if v > 0 {
                    SlotAction::Push(v - 1)
                } else {
                    SlotAction::Retire
                }
            });
            rounds += 1;
            assert!(rounds < 10 * n as u64 + 16, "worklist failed to converge");
        }
        (processed.get(0), rounds)
    }

    #[test]
    fn round_transition_is_equivalent_to_split_begin_end() {
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let (processed, rounds) = run_chain_transition(mode, &gpu, 64);
            assert_eq!(processed, 64, "{mode}");
            // Same rounds as the split protocol walking the same chain.
            let split_gpu = VirtualGpu::sequential();
            assert_eq!(run_chain(mode, &split_gpu, 64), 64, "{mode}");
            let split_rounds = split_gpu.stats().launches_of("wl_process");
            assert_eq!(rounds, split_rounds, "{mode}");
        }
    }

    #[test]
    fn deferred_items_are_retried() {
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let tries = DeviceBuffer::<u64>::new(4, 0);
            let mut wl = Worklist::new(&gpu, mode, 4, NAMES);
            wl.seed([0, 1, 2, 3]);
            let mut rounds = 0u64;
            while wl.begin_round(|v| tries.get(v) < 3, false) {
                wl.for_each_active("wl_defer", |_ctx, v, _view| {
                    tries.set(v, tries.get(v) + 1);
                    if tries.get(v) < 3 {
                        SlotAction::Defer
                    } else {
                        SlotAction::Retire
                    }
                });
                wl.end_round();
                rounds += 1;
                assert!(rounds < 64);
            }
            assert_eq!(tries.to_vec(), vec![3; 4], "{mode}");
        }
    }

    #[test]
    fn finish_respects_the_predicate_retry_memory() {
        // An item that Finishes but stays live by the predicate must be
        // retried (the rolled-back-push case of G-PR-INITKRNL).
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let hits = DeviceBuffer::<u64>::new(1, 0);
            let mut wl = Worklist::new(&gpu, mode, 2, NAMES);
            wl.seed([1]);
            let mut rounds = 0;
            while wl.begin_round(|v| v == 1 && hits.get(0) < 4, false) {
                wl.for_each_active("wl_finish", |_ctx, _v, _view| {
                    hits.fetch_add(0, 1);
                    SlotAction::Finish
                });
                wl.end_round();
                rounds += 1;
                assert!(rounds < 32);
            }
            assert_eq!(hits.get(0), 4, "{mode}");
        }
    }

    #[test]
    fn compaction_shrinks_the_list_and_counts() {
        let gpu = VirtualGpu::sequential();
        let n = 1024;
        let live = DeviceBuffer::<u64>::new(n, 1);
        // Kill three quarters of the items up front.
        for v in 0..n {
            if v % 4 != 0 {
                live.set(v, 0);
            }
        }
        let mut wl = Worklist::new(&gpu, WorklistMode::Compacted, n, NAMES);
        wl.seed(0..n);
        assert_eq!(wl.len(), n);
        assert!(wl.begin_round(|v| live.get(v) != 0, true));
        assert!(wl.compacted_last_round());
        assert_eq!(wl.len(), n / 4);
        assert!(gpu.stats().launches_of("wl_count") >= 1);
        assert!(gpu.stats().launches_of("wl_scatter") >= 1);
        // The surviving items are exactly the live ones.
        let seen = DeviceBuffer::<u64>::new(n, 0);
        wl.for_each_active("wl_collect", |_ctx, v, _view| {
            assert_eq!(v % 4, 0);
            seen.set(v, 1);
            SlotAction::Retire
        });
        wl.end_round();
        let expected: Vec<u64> = (0..n).map(|v| u64::from(v % 4 == 0)).collect();
        assert_eq!(seen.to_vec(), expected);
    }

    #[test]
    fn dense_mode_never_compacts() {
        let gpu = VirtualGpu::sequential();
        let mut wl = Worklist::new(&gpu, WorklistMode::DenseStamp, 64, NAMES);
        wl.seed(0..64);
        assert!(wl.begin_round(|_| true, true));
        assert!(!wl.compacted_last_round());
        assert_eq!(wl.len(), 64);
        assert_eq!(gpu.stats().launches_of("wl_count"), 0);
    }

    #[test]
    fn queue_modes_launch_no_init_kernel() {
        let gpu = VirtualGpu::sequential();
        assert_eq!(run_chain(WorklistMode::AtomicQueue, &gpu, 128), 128);
        let stats = gpu.stats();
        assert_eq!(stats.launches_of("wl_init"), 0);
        assert_eq!(stats.launches_of("wl_count"), 0);
        // The termination check ran at least once.
        assert!(stats.launches_of("wl_refill") >= 1);
    }

    /// Chain drain driven through the fused-refill entry point.
    fn run_chain_fused(mode: WorklistMode, gpu: &VirtualGpu, n: usize) -> u64 {
        let live = DeviceBuffer::<u64>::new(n, 1);
        let processed = DeviceBuffer::<u64>::new(1, 0);
        let mut wl = Worklist::new(gpu, mode, n, NAMES);
        wl.seed([n - 1]);
        let mut rounds = 0;
        while wl.begin_round(|v| live.get(v) != 0, false) {
            wl.for_each_active_refill(
                "wl_process",
                |_ctx, v, _view| {
                    live.set(v, 0);
                    processed.fetch_add(0, 1);
                    if v > 0 {
                        SlotAction::Push(v - 1)
                    } else {
                        SlotAction::Retire
                    }
                },
                |v| live.get(v) != 0,
            );
            wl.end_round();
            rounds += 1;
            assert!(rounds < 10 * n as u64 + 16, "worklist failed to converge");
        }
        processed.get(0)
    }

    #[test]
    fn fused_refill_removes_the_drained_round_launch() {
        for gpu in gpus() {
            assert_eq!(run_chain_fused(WorklistMode::AtomicQueue, &gpu, 128), 128);
            let stats = gpu.stats();
            // The drained-queue predicate sweep ran fused into the final
            // round's kernel tail: zero refill launches, at least one fused
            // tail.
            assert_eq!(stats.launches_of("wl_refill"), 0);
            assert!(stats.fused_tails_of("wl_refill") >= 1);
        }
    }

    #[test]
    fn fused_refill_recovers_items_like_the_launched_refill() {
        // The rescue scenario of `queue_refill_recovers_items_the_queue_lost`
        // driven through the fused path: a drained queue with a live
        // predicate item must still find it, without a refill launch.
        let gpu = VirtualGpu::sequential();
        let found = DeviceBuffer::<u64>::new(1, 0);
        let mut wl = Worklist::new(&gpu, WorklistMode::AtomicQueue, 16, NAMES);
        wl.seed([3]);
        let mut rounds = 0;
        while wl.begin_round(|v| v == 7 && found.get(0) == 0, false) {
            wl.for_each_active_refill(
                "wl_rescue",
                |_ctx, v, _view| {
                    if v == 7 {
                        found.set(0, 1);
                    }
                    SlotAction::Finish
                },
                |v| v == 7 && found.get(0) == 0,
            );
            rounds += 1;
            assert!(rounds < 16);
        }
        assert_eq!(found.get(0), 1);
        assert_eq!(gpu.stats().launches_of("wl_refill"), 0);
    }

    #[test]
    fn queue_refill_recovers_items_the_queue_lost() {
        // Simulate a lost racy push: the queue drains while the predicate
        // still reports an item live — begin_round must refill and find it.
        let gpu = VirtualGpu::sequential();
        let rescue_rounds = DeviceBuffer::<u64>::new(1, 0);
        let mut wl = Worklist::new(&gpu, WorklistMode::AtomicQueue, 16, NAMES);
        wl.seed([3]);
        let mut processed = Vec::new();
        while wl.begin_round(|v| v == 7 && rescue_rounds.get(0) == 0, false) {
            if wl.refilled_last_round() {
                rescue_rounds.set(0, 1);
            }
            wl.for_each_active("wl_rescue", |_ctx, v, _view| {
                let _ = v;
                SlotAction::Finish
            });
            processed.push(wl.len());
        }
        // Item 3 (seeded) ran once; item 7 was only reachable through the
        // predicate refill.
        assert_eq!(rescue_rounds.get(0), 1);
        assert_eq!(processed, vec![1, 1]);
    }

    #[test]
    fn queue_overflow_rebuilds_from_stamps() {
        let gpu = VirtualGpu::sequential();
        let mut wl = Worklist::new(&gpu, WorklistMode::AtomicQueue, 8, NAMES);
        wl.seed([0]);
        assert!(wl.begin_round(|_| true, false));
        // Push the full next frontier through the slot action, then corrupt
        // the tail to look overflowed: the stamps must reconstruct it.
        wl.for_each_active("wl_push", |ctx, _v, view| {
            for w in 1..5usize {
                view.queue_push(ctx, w);
            }
            SlotAction::Push(5)
        });
        wl.overflow.set(0, 1);
        assert!(wl.begin_round(|_| false, false));
        assert!(wl.refilled_last_round());
        assert_eq!(wl.len(), 5);
        let got = DeviceBuffer::<u64>::new(8, 0);
        wl.for_each_active("wl_collect", |_ctx, v, _view| {
            got.set(v, 1);
            SlotAction::Retire
        });
        assert_eq!(got.to_vec(), vec![0, 1, 1, 1, 1, 1, 0, 0]);
    }

    /// BFS over a path graph 0-1-2-…-(n-1): every mode must visit each
    /// vertex exactly once, level by level.
    fn run_bfs(mode: WorklistMode, gpu: &VirtualGpu, n: usize) -> Vec<u64> {
        let dist = DeviceBuffer::<u64>::new(n, u64::MAX);
        dist.set(0, 0);
        let mut wl = Worklist::new(gpu, mode, n, NAMES);
        wl.seed([0]);
        let mut level = 0u64;
        loop {
            wl.for_each_frontier("wl_bfs", |ctx, v, frontier| {
                ctx.add_work(1);
                for w in [v.wrapping_sub(1), v + 1] {
                    if w < n && dist.get(w) == u64::MAX {
                        dist.set(w, level + 1);
                        frontier.push(ctx, w);
                    }
                }
            });
            if !wl.advance_frontier() {
                break;
            }
            level += 1;
        }
        dist.to_vec()
    }

    #[test]
    fn frontier_protocol_levels_agree_across_modes() {
        let expected: Vec<u64> = (0..200u64).collect();
        for gpu in gpus() {
            for mode in WorklistMode::all() {
                assert_eq!(run_bfs(mode, &gpu, 200), expected, "{mode}");
            }
        }
    }

    #[test]
    fn dense_frontier_scans_domain_but_compacted_and_queue_do_not() {
        let n = 512;
        let per_mode: Vec<u64> = WorklistMode::all()
            .into_iter()
            .map(|mode| {
                let gpu = VirtualGpu::sequential();
                run_bfs(mode, &gpu, n);
                gpu.stats().kernels["wl_bfs"].total_threads
            })
            .collect();
        // Dense launches n threads per level; the materialized frontiers
        // launch exactly one thread per frontier vertex.
        assert!(per_mode[0] > per_mode[1], "dense {} vs compacted {}", per_mode[0], per_mode[1]);
        assert!(per_mode[0] > per_mode[2], "dense {} vs queue {}", per_mode[0], per_mode[2]);
        assert_eq!(per_mode[2], n as u64, "queue launches one thread per visit");
    }

    #[test]
    fn compacted_frontier_runs_exactly_as_the_queue() {
        // Compaction belongs to the slot protocol: a Compacted worklist's
        // frontier is the atomic-append list, with the same launches, work,
        // atomics and modelled time, and no rebuild between levels.
        let [compacted, queue] = [WorklistMode::Compacted, WorklistMode::AtomicQueue].map(|mode| {
            let gpu = VirtualGpu::sequential();
            run_bfs(mode, &gpu, 300);
            let mut stats = gpu.stats();
            stats.kernels.values_mut().for_each(|k| k.wall_time_ns = 0.0);
            stats
        });
        assert_eq!(compacted, queue);
        assert_eq!(compacted.launches_of("wl_refill"), 0);
    }

    #[test]
    fn reseeding_never_collides_with_stale_stamps() {
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let mut wl = Worklist::new(&gpu, mode, 32, NAMES);
            for _round in 0..3 {
                let visited = DeviceBuffer::<u64>::new(32, 0);
                wl.seed([4]);
                loop {
                    wl.for_each_frontier("wl_bfs", |ctx, v, frontier| {
                        visited.set(v, visited.get(v) + 1);
                        if v + 1 < 8 {
                            frontier.push(ctx, v + 1);
                        }
                    });
                    if !wl.advance_frontier() {
                        break;
                    }
                }
                let host = visited.to_vec();
                for (v, &count) in host.iter().enumerate() {
                    let expected = u64::from((4..8).contains(&v));
                    assert_eq!(count, expected, "{mode}: vertex {v} visited {count}x");
                }
            }
        }
    }

    #[test]
    fn reseed_ignores_pushes_that_were_never_consumed() {
        // A BFS that breaks out early (e.g. G-HK finding a free row) leaves
        // `epoch + 1` stamps behind without ever advancing; the next seed
        // must not mistake them for freshly seeded items.
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let mut wl = Worklist::new(&gpu, mode, 16, NAMES);
            wl.seed([0]);
            wl.for_each_frontier("wl_bfs", |ctx, _v, frontier| frontier.push(ctx, 5));
            // No advance_frontier: the push to 5 is abandoned by the re-seed.
            wl.seed([1]);
            let visited = DeviceBuffer::<u64>::new(16, 0);
            wl.for_each_frontier("wl_bfs", |_ctx, v, _frontier| visited.set(v, 1));
            let host = visited.to_vec();
            for (v, &count) in host.iter().enumerate() {
                assert_eq!(count, u64::from(v == 1), "{mode}: vertex {v} visited {count}x");
            }
        }
    }

    #[test]
    fn seed_by_predicate_selects_the_same_frontier_as_host_seeding() {
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let n = 300;
            let live = DeviceBuffer::<u64>::new(n, 0);
            for v in (0..n).step_by(7) {
                live.set(v, 1);
            }
            let mut wl = Worklist::new(&gpu, mode, n, NAMES);
            wl.seed_by_predicate(|v| live.get(v) != 0);
            let visited = DeviceBuffer::<u64>::new(n, 0);
            wl.for_each_frontier("wl_bfs", |_ctx, v, _frontier| visited.set(v, 1));
            let host = visited.to_vec();
            for (v, &count) in host.iter().enumerate() {
                assert_eq!(count, u64::from(v % 7 == 0), "{mode}: vertex {v}");
            }
            // The gather was charged to the device model, not done host-side.
            assert!(gpu.stats().launches_of("wl_refill") >= 1, "{mode}");
        }
    }

    #[test]
    fn scan_domain_only_touches_the_flag_word() {
        // The First-variant shape: no stamps, no lists — a worklist used
        // purely for domain scans must not materialize the domain buffers.
        let gpu = VirtualGpu::sequential();
        let before = gpu.scratch().stats();
        let mut wl = Worklist::new(&gpu, WorklistMode::DenseStamp, 1 << 20, NAMES);
        for _ in 0..3 {
            wl.scan_domain("wl_scan", |_ctx, _v, _marker| {});
        }
        drop(wl);
        let after = gpu.scratch().stats();
        // Only the three one-word buffers (tail, nonempty, overflow) were
        // acquired; the megaword domain arrays never were.
        assert_eq!(after.retained_words - before.retained_words, 3);
    }

    #[test]
    fn scan_domain_reports_activity() {
        let gpu = VirtualGpu::sequential();
        let mut wl = Worklist::new(&gpu, WorklistMode::DenseStamp, 100, NAMES);
        let hits = DeviceBuffer::<u64>::new(100, 0);
        let any = wl.scan_domain("wl_scan", |_ctx, v, marker| {
            hits.set(v, 1);
            if v == 42 {
                marker.mark_active();
            }
        });
        assert!(any);
        assert_eq!(hits.to_vec(), vec![1; 100]);
        let none = wl.scan_domain("wl_scan", |_ctx, _v, _marker| {});
        assert!(!none);
    }

    #[test]
    fn worklists_draw_storage_from_the_scratch_arena() {
        let gpu = VirtualGpu::sequential();
        run_chain(WorklistMode::Compacted, &gpu, 256);
        let primed = gpu.scratch().stats();
        run_chain(WorklistMode::Compacted, &gpu, 256);
        let after = gpu.scratch().stats();
        // A warm repeat allocates nothing new.
        assert_eq!(after.allocations, primed.allocations);
        assert!(after.reuses > primed.reuses);
    }

    #[test]
    fn empty_domain_and_empty_seed_are_fine() {
        for mode in WorklistMode::all() {
            let gpu = VirtualGpu::sequential();
            let mut wl = Worklist::new(&gpu, mode, 0, NAMES);
            wl.seed(std::iter::empty());
            assert!(!wl.begin_round(|_| true, true), "{mode}");
            let mut wl = Worklist::new(&gpu, mode, 8, NAMES);
            wl.seed(std::iter::empty());
            assert!(!wl.begin_round(|_| false, false), "{mode}");
        }
    }

    #[test]
    fn mode_labels_match_display() {
        let labels: Vec<String> = WorklistMode::all().iter().map(ToString::to_string).collect();
        assert_eq!(labels, ["dense", "compacted", "queue"]);
        for mode in WorklistMode::all() {
            assert_eq!(mode.to_string(), mode.label());
        }
    }
}
