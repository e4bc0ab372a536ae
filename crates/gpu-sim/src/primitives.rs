//! Device-wide primitives implemented as kernels.
//!
//! The dynamic compression of active-column lists (`G-PR-SHRKRNL`,
//! Section III-C2 of the paper) performs a per-thread count, a prefix sum
//! over the counts, and a scatter into private regions.  These primitives
//! reproduce the prefix-sum and reduction steps as multi-pass kernel
//! launches on the virtual GPU, so the kernel-launch statistics of the
//! shrink path match the structure of the CUDA implementation.
//!
//! All working buffers come from the device's [`ScratchArena`]: the first
//! pass reads the caller's input buffer in place (no staging copy), and the
//! block-partial buffers of the reduction ladder / scan recursion are
//! recycled allocations, so a solve loop that reduces or scans every
//! iteration stops paying an allocation per call after the first.
//!
//! [`ScratchArena`]: crate::scratch::ScratchArena

use crate::buffer::DeviceBuffer;
use crate::engine::{ThreadCtx, VirtualGpu};
use crate::scratch::ScratchBuffer;

/// Number of logical threads per block used by the block-wise passes.
const BLOCK: usize = 256;

/// One block-reduction pass: thread `b` combines the `BLOCK` entries of its
/// block in `src` into `dst[b]`.
fn reduce_pass(
    gpu: &VirtualGpu,
    name: &'static str,
    src: &DeviceBuffer<u64>,
    dst: &DeviceBuffer<u64>,
    combine: impl Fn(u64, u64) -> u64 + Sync,
) {
    let n = src.len();
    gpu.launch(name, dst.len(), |ctx| {
        let b = ctx.global_id;
        let start = b * BLOCK;
        let end = ((b + 1) * BLOCK).min(n);
        let mut acc = src.get(start);
        ctx.add_work(1);
        for i in start + 1..end {
            acc = combine(acc, src.get(i));
            ctx.add_work(1);
        }
        dst.set(b, acc);
    });
}

/// Shared ladder of block-reduction launches until one value remains.
fn reduce(
    gpu: &VirtualGpu,
    input: &DeviceBuffer<u64>,
    name: &'static str,
    identity: u64,
    combine: impl Fn(u64, u64) -> u64 + Sync + Copy,
) -> u64 {
    if input.is_empty() {
        return identity;
    }
    if input.len() == 1 {
        return input.get(0);
    }
    // Pass 1 reads the input buffer directly; only the (much smaller) block
    // partials live in scratch.
    let mut current = gpu.scratch().acquire(input.len().div_ceil(BLOCK), identity);
    reduce_pass(gpu, name, input, &current, combine);
    while current.len() > 1 {
        let next = gpu.scratch().acquire(current.len().div_ceil(BLOCK), identity);
        reduce_pass(gpu, name, &current, &next, combine);
        current = next;
    }
    current.get(0)
}

/// Device-wide sum reduction of a `u64` buffer.
///
/// Implemented as repeated block-reduction kernels until a single value
/// remains, mimicking the standard CUDA reduction pattern.
pub fn reduce_sum(gpu: &VirtualGpu, input: &DeviceBuffer<u64>) -> u64 {
    reduce(gpu, input, "reduce_sum", 0, |a, b| a + b)
}

/// Device-wide maximum reduction of a `u64` buffer (0 for an empty buffer).
pub fn reduce_max(gpu: &VirtualGpu, input: &DeviceBuffer<u64>) -> u64 {
    reduce(gpu, input, "reduce_max", 0, u64::max)
}

/// Exclusive prefix sum (scan) of a `u64` buffer, returning an arena-backed
/// device buffer of the same length plus the total sum.
///
/// `output[i] = input[0] + … + input[i-1]`, `output[0] = 0`.
///
/// Implemented as the classic three-phase GPU scan: block-local scan,
/// scan of block totals (recursively), then a uniform add pass.  The
/// returned buffer goes back to the device's scratch arena when dropped.
pub fn exclusive_prefix_sum<'gpu>(
    gpu: &'gpu VirtualGpu,
    input: &DeviceBuffer<u64>,
) -> (ScratchBuffer<'gpu>, u64) {
    let n = input.len();
    let output = gpu.scratch().acquire(n, 0);
    if n == 0 {
        return (output, 0);
    }
    let blocks = n.div_ceil(BLOCK);
    let block_totals = gpu.scratch().acquire(blocks, 0);

    // Phase 1: per-block exclusive scan.
    gpu.launch("scan_block", blocks, |ctx| {
        let b = ctx.global_id;
        let start = b * BLOCK;
        let end = ((b + 1) * BLOCK).min(n);
        let mut acc = 0u64;
        for i in start..end {
            output.set(i, acc);
            acc += input.get(i);
            ctx.add_work(2);
        }
        block_totals.set(b, acc);
    });

    if blocks == 1 {
        let total = block_totals.get(0);
        return (output, total);
    }

    // Phase 2: scan of block totals (host-side recursion over device passes).
    let (block_offsets, total) = exclusive_prefix_sum(gpu, &block_totals);

    // Phase 3: uniform add of each block's offset.
    gpu.launch("scan_uniform_add", blocks, |ctx| {
        let b = ctx.global_id;
        let offset = block_offsets.get(b);
        if offset != 0 {
            let start = b * BLOCK;
            let end = ((b + 1) * BLOCK).min(n);
            for i in start..end {
                output.set(i, output.get(i) + offset);
                ctx.add_work(2);
            }
        }
    });
    (output, total)
}

/// A device-side append-only queue over caller-provided buffers: `items`
/// (the payload array, whose length is the queue's capacity), a one-word
/// `tail` counter, and a one-word `overflow` flag.
///
/// [`DeviceQueue::push`] claims a slot with an atomic fetch-add on `tail`
/// (the CUDA `atomicAdd` idiom of worklist-based BFS kernels) and stores the
/// value with a plain relaxed write.  There is **no ordering** between the
/// claim and the store becoming visible to other threads of the same launch
/// — exactly like on a real GPU.  The contract is therefore that queue
/// contents are only *read* after the launch that filled them has completed:
/// the end-of-launch barrier (the executor's join, or the implicit barrier
/// of CUDA's default stream) is what publishes every store.
///
/// A push beyond capacity raises `overflow` (word 0 set to 1) and drops the
/// value; the caller is expected to rebuild the queue from its stamp array
/// (see [`crate::worklist`]) when that happens.
pub struct DeviceQueue<'a> {
    items: &'a DeviceBuffer<u64>,
    tail: &'a DeviceBuffer<u64>,
    overflow: &'a DeviceBuffer<u64>,
}

impl<'a> DeviceQueue<'a> {
    /// Wraps the three device buffers as a queue view.  `tail` and
    /// `overflow` must hold at least one word each.
    pub fn new(
        items: &'a DeviceBuffer<u64>,
        tail: &'a DeviceBuffer<u64>,
        overflow: &'a DeviceBuffer<u64>,
    ) -> Self {
        Self { items, tail, overflow }
    }

    /// Appends `value`, returning `true` on success and `false` (with the
    /// overflow flag raised) when the queue is full.  Callable from any
    /// kernel thread; `ctx` receives the modelled atomic traffic (one RMW on
    /// the tail word per item).
    #[inline]
    pub fn push(&self, ctx: &ThreadCtx, value: u64) -> bool {
        ctx.add_atomic(self.tail.word_id(0));
        let pos = self.tail.fetch_add(0, 1) as usize;
        if pos < self.items.len() {
            self.items.set(pos, value);
            true
        } else {
            self.overflow.set(0, 1);
            false
        }
    }

    /// Number of appended items, tail clamped to capacity.  Only meaningful
    /// after the filling launch has completed.
    pub fn len(&self) -> usize {
        (self.tail.get(0) as usize).min(self.items.len())
    }

    /// `true` when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.tail.get(0) == 0
    }

    /// Maximum number of items the queue can hold.
    pub fn capacity(&self) -> usize {
        self.items.len()
    }

    /// `true` when at least one push was dropped for lack of capacity.
    pub fn overflowed(&self) -> bool {
        self.overflow.get(0) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::VirtualGpu;

    fn gpus() -> Vec<VirtualGpu> {
        vec![VirtualGpu::sequential(), VirtualGpu::parallel()]
    }

    #[test]
    fn reduce_sum_matches_host() {
        for gpu in gpus() {
            for n in [0usize, 1, 7, 256, 257, 10_000] {
                let host: Vec<u64> = (0..n as u64).map(|i| i % 13).collect();
                let buf = DeviceBuffer::from_slice(&host);
                assert_eq!(reduce_sum(&gpu, &buf), host.iter().sum::<u64>(), "n = {n}");
            }
        }
    }

    #[test]
    fn reduce_max_matches_host() {
        for gpu in gpus() {
            for n in [0usize, 1, 255, 256, 1000, 5000] {
                let host: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 101).collect();
                let buf = DeviceBuffer::from_slice(&host);
                assert_eq!(
                    reduce_max(&gpu, &buf),
                    host.iter().copied().max().unwrap_or(0),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn prefix_sum_matches_host() {
        for gpu in gpus() {
            for n in [0usize, 1, 2, 255, 256, 257, 4096, 70_001] {
                let host: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % 5).collect();
                let buf = DeviceBuffer::from_slice(&host);
                let (scan, total) = exclusive_prefix_sum(&gpu, &buf);
                let mut expected = Vec::with_capacity(n);
                let mut acc = 0u64;
                for &v in &host {
                    expected.push(acc);
                    acc += v;
                }
                assert_eq!(scan.to_vec(), expected, "n = {n}");
                assert_eq!(total, acc, "n = {n}");
            }
        }
    }

    #[test]
    fn primitives_record_kernel_launches() {
        let gpu = VirtualGpu::sequential();
        let buf = DeviceBuffer::from_slice(&vec![1u64; 1000]);
        let _ = reduce_sum(&gpu, &buf);
        let _ = exclusive_prefix_sum(&gpu, &buf);
        let stats = gpu.stats();
        assert!(stats.launches_of("reduce_sum") >= 1);
        assert!(stats.launches_of("scan_block") >= 1);
    }

    #[test]
    fn device_queue_appends_every_pushed_value_exactly_once() {
        for gpu in gpus() {
            let items = DeviceBuffer::<u64>::new(10_000, u64::MAX);
            let tail = DeviceBuffer::<u64>::new(1, 0);
            let overflow = DeviceBuffer::<u64>::new(1, 0);
            let queue = DeviceQueue::new(&items, &tail, &overflow);
            let rec = gpu.launch("queue_fill", 10_000, |ctx| {
                ctx.add_work(1);
                assert!(queue.push(ctx, ctx.global_id as u64));
            });
            assert_eq!(queue.len(), 10_000);
            assert!(!queue.overflowed());
            // Per-item append: every push is one RMW on the shared tail
            // word (the pooled executor may add chunk-cursor claims on top,
            // but the tail stays the hottest word by far).
            assert!(rec.atomics >= 10_000);
            assert_eq!(rec.hot_word_atomics, 10_000);
            // Every id landed exactly once (order is unspecified).
            let mut got = items.to_vec();
            got.sort_unstable();
            let expected: Vec<u64> = (0..10_000).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn device_queue_overflow_drops_and_flags() {
        let gpu = VirtualGpu::parallel();
        let items = DeviceBuffer::<u64>::new(16, u64::MAX);
        let tail = DeviceBuffer::<u64>::new(1, 0);
        let overflow = DeviceBuffer::<u64>::new(1, 0);
        let queue = DeviceQueue::new(&items, &tail, &overflow);
        let accepted = DeviceBuffer::<u64>::new(1, 0);
        gpu.launch("queue_overflow", 100, |ctx| {
            if queue.push(ctx, ctx.global_id as u64) {
                accepted.fetch_add(0, 1);
            }
        });
        assert_eq!(accepted.get(0), 16);
        assert_eq!(queue.len(), 16);
        assert!(queue.overflowed());
        // The 16 retained values are all valid pushes.
        for v in items.to_vec() {
            assert!(v < 100);
        }
    }

    #[test]
    fn primitives_never_copy_the_input_and_recycle_scratch() {
        let gpu = VirtualGpu::sequential();
        let buf = DeviceBuffer::from_slice(&(0..20_000u64).collect::<Vec<_>>());
        let _ = reduce_sum(&gpu, &buf);
        let after_first = gpu.scratch().stats();
        // The reduction ladder never allocates a full-input-sized buffer.
        assert!(
            after_first.retained_words < buf.len(),
            "scratch holds {} words for a {}-word input",
            after_first.retained_words,
            buf.len()
        );
        // A second identical call reuses every ladder buffer: zero fresh
        // allocations.
        let _ = reduce_sum(&gpu, &buf);
        let after_second = gpu.scratch().stats();
        assert_eq!(after_second.allocations, after_first.allocations);
        assert!(after_second.reuses > after_first.reuses);

        // Same for the scan, once its first call has primed the arena.
        let (scan, _) = exclusive_prefix_sum(&gpu, &buf);
        drop(scan);
        let primed = gpu.scratch().stats();
        let (scan, _) = exclusive_prefix_sum(&gpu, &buf);
        drop(scan);
        assert_eq!(gpu.scratch().stats().allocations, primed.allocations);
    }
}
