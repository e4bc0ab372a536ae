//! Property-based tests for the virtual GPU: launch coverage, buffer
//! round-trips, and device primitives vs host references, on both backends.

use gpm_gpu::{primitives, Backend, DeviceBuffer, ExecutorConfig, GpuConfig, VirtualGpu};
use gpm_testutil::arb_bipartite;
use proptest::prelude::*;

fn gpus() -> Vec<VirtualGpu> {
    vec![
        VirtualGpu::sequential(),
        VirtualGpu::new(
            GpuConfig::tesla_c2050(Backend::Parallel { workers: 3 })
                .with_executor(ExecutorConfig::default().with_parallel_threshold(16)),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_thread_runs_exactly_once(grid in 0usize..5000) {
        for gpu in gpus() {
            let hits = DeviceBuffer::<u32>::new(grid, 0);
            gpu.launch("prop_cover", grid, |ctx| {
                hits.set(ctx.global_id, hits.get(ctx.global_id) + 1);
            });
            prop_assert!(hits.to_vec().iter().all(|&h| h == 1));
        }
    }

    #[test]
    fn buffer_round_trips_arbitrary_contents(data in proptest::collection::vec(any::<i64>(), 0..500)) {
        let buf = DeviceBuffer::from_slice(&data);
        prop_assert_eq!(buf.to_vec(), data);
    }

    #[test]
    fn prefix_sum_matches_host_reference(data in proptest::collection::vec(0u64..1000, 0..2000)) {
        for gpu in gpus() {
            let buf = DeviceBuffer::from_slice(&data);
            let (scan, total) = primitives::exclusive_prefix_sum(&gpu, &buf);
            let mut expected = Vec::with_capacity(data.len());
            let mut acc = 0u64;
            for &v in &data {
                expected.push(acc);
                acc += v;
            }
            prop_assert_eq!(scan.to_vec(), expected);
            prop_assert_eq!(total, acc);
        }
    }

    #[test]
    fn reductions_match_host_reference(data in proptest::collection::vec(0u64..10_000, 0..1500)) {
        for gpu in gpus() {
            let buf = DeviceBuffer::from_slice(&data);
            prop_assert_eq!(primitives::reduce_sum(&gpu, &buf), data.iter().sum::<u64>());
            prop_assert_eq!(
                primitives::reduce_max(&gpu, &buf),
                data.iter().copied().max().unwrap_or(0)
            );
        }
    }

    #[test]
    fn degree_scatter_and_scan_reconstruct_csr_offsets(g in arb_bipartite()) {
        // The shrink kernel's core pattern: scatter per-column work counts
        // into a device buffer, prefix-sum them on the device, and check the
        // offsets against the CSR the graph crate built on the host.
        for gpu in gpus() {
            let degrees = DeviceBuffer::<u64>::new(g.num_rows(), 0);
            gpu.launch("prop_degree_scatter", g.num_rows(), |ctx| {
                let r = ctx.global_id as gpm_graph::VertexId;
                degrees.set(ctx.global_id, g.row_degree(r) as u64);
            });
            let (offsets, total) = primitives::exclusive_prefix_sum(&gpu, &degrees);
            prop_assert_eq!(total as usize, g.num_edges());
            let mut acc = 0u64;
            for (r, &offset) in offsets.to_vec().iter().enumerate() {
                prop_assert_eq!(offset, acc);
                acc += g.row_degree(r as gpm_graph::VertexId) as u64;
            }
        }
    }

    #[test]
    fn modelled_cost_is_monotone_in_work(threads in 1usize..100_000, work in 0u64..1_000_000) {
        let model = gpm_gpu::PerfModel::tesla_c2050();
        let base = model.launch_cost_ns(threads, work, work / threads.max(1) as u64 + 1);
        let more = model.launch_cost_ns(threads, work * 2 + 1, work / threads.max(1) as u64 + 1);
        prop_assert!(more >= base);
    }

    /// The atomic terms of the cost model are monotone too: more RMWs cost
    /// more, and shifting RMWs onto a single hot word costs strictly more
    /// than spreading the same count (serialization beats throughput).
    #[test]
    fn modelled_cost_is_monotone_in_atomics(
        threads in 1usize..100_000,
        work in 0u64..1_000_000,
        atomics in 0u64..100_000,
    ) {
        let model = gpm_gpu::PerfModel::tesla_c2050();
        let max_work = work / threads.max(1) as u64 + 1;
        let spread = model.launch_cost_with_atomics_ns(threads, work, max_work, atomics, 0);
        let more = model.launch_cost_with_atomics_ns(threads, work, max_work, atomics * 2 + 1, 0);
        prop_assert!(more > spread);
        let hot = model.launch_cost_with_atomics_ns(threads, work, max_work, atomics, atomics);
        prop_assert!(hot >= spread);
        if atomics > 0 {
            prop_assert!(hot > spread, "hot-word serialization must cost extra");
        }
        // And with no atomics at all, the extended form collapses to the
        // plain launch cost.
        let plain = model.launch_cost_ns(threads, work, max_work);
        let zero = model.launch_cost_with_atomics_ns(threads, work, max_work, 0, 0);
        prop_assert_eq!(plain, zero);
    }

    /// Overflow-forcing capacities: a queue whose capacity cannot hold
    /// every push must raise the overflow flag rather than corrupt memory —
    /// every slot under the clamped tail holds a genuinely pushed value,
    /// never garbage, and exactly the pushes past capacity are dropped.
    #[test]
    fn queue_overflow_is_flagged_and_items_stay_valid(
        pushes in 1usize..600,
        cap in 0usize..700,
        chunk in 1usize..128,
        workers in 2usize..5,
    ) {
        use gpm_gpu::primitives::DeviceQueue;
        for gpu in [
            VirtualGpu::sequential(),
            VirtualGpu::new(
                GpuConfig::tesla_c2050(Backend::Parallel { workers }).with_executor(
                    ExecutorConfig {
                        parallel_threshold: 4,
                        chunk_size: chunk,
                        ..Default::default()
                    },
                ),
            ),
        ] {
            let items = DeviceBuffer::<u64>::new(cap, u64::MAX);
            let tail = DeviceBuffer::<u64>::new(1, 0);
            let overflow = DeviceBuffer::<u64>::new(1, 0);
            let queue = DeviceQueue::new(&items, &tail, &overflow);
            gpu.launch("prop_queue_overflow", pushes, |ctx| {
                // The value encodes its producer, so corruption is
                // detectable: anything outside 1000..1000+pushes is junk.
                queue.push(ctx, 1_000 + ctx.global_id as u64);
            });
            let stored = items.to_vec()[..queue.len()].to_vec();
            for &v in &stored {
                prop_assert!(
                    (1_000..1_000 + pushes as u64).contains(&v),
                    "corrupt slot value {v}"
                );
            }
            // No duplicates: each claimed slot is exclusively owned.
            let mut sorted = stored.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), stored.len(), "duplicated slot values");
            prop_assert_eq!(stored.len(), pushes.min(cap));
            prop_assert_eq!(queue.overflowed(), pushes > cap);
        }
    }
}
