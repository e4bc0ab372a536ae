//! G-HK and G-HKDW — the GPU augmenting-path baselines.
//!
//! The paper compares G-PR against the authors' earlier GPU implementations
//! of Hopcroft–Karp (G-HK) and its Duff–Wiberg variant (G-HKDW).  Those
//! codes locate shortest augmenting paths with level-synchronous BFS kernels
//! and then augment along a maximal set of vertex-disjoint paths with
//! DFS-based searches restricted to the BFS layers.
//!
//! The reproduction keeps the same kernel structure on the virtual GPU:
//!
//! * `G-HK-BFS-KRNL` — one launch per BFS level, one thread per column,
//!   labelling columns with their layer (like `G-GR-KRNL` but rooted at the
//!   unmatched *columns*);
//! * `G-HK-DFS-KRNL` — one thread per unmatched column builds a tentative
//!   level-respecting augmenting path into its private slice of a path
//!   buffer (no races: each thread writes only its own region);
//! * a commit pass applies the tentative paths, skipping any path that
//!   conflicts with one already committed in this phase (those columns are
//!   simply retried in the next phase).  The commit is executed on the host
//!   because it is inherently sequential, but it is charged to the cost model
//!   as a kernel (`G-HK-COMMIT`) whose work is the total committed path
//!   length, so modelled device time accounts for it.
//! * G-HKDW adds an extra sweep (`G-HKDW-DW-KRNL`) that builds unrestricted
//!   augmenting paths from the remaining unmatched *rows* before the next
//!   BFS, mirroring HKDW's extra DFS set.
//!
//! The host-side commit is a deviation from the original codes; the paper's
//! own G-HK/G-HKDW resolve conflicts with re-traversals whose cost is of the
//! same order.

use crate::device::{DeviceState, MU_UNMATCHED};
use crate::roundloop::{drive_rounds, resident_scope, subtract_device_stats, RoundOutcome};
use gpm_gpu::{
    DeviceBuffer, DeviceStats, ExecMode, StopCheck, VirtualGpu, Worklist, WorklistKernels,
    WorklistMode,
};
use gpm_graph::{BipartiteCsr, Matching, VertexId};

const INF: u32 = u32::MAX;

/// Kernel names the G-HK BFS frontier worklist charges its maintenance to.
const GHK_WORKLIST_KERNELS: WorklistKernels = WorklistKernels {
    init: "G-HK-WL-INIT",
    compact_count: "G-HK-WL-COMPACT",
    compact_scatter: "G-HK-WL-SCATTER",
    refill: "G-HK-WL-REFILL",
};

/// Which GPU augmenting-path baseline to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhkVariant {
    /// Plain Hopcroft–Karp phases.
    Hk,
    /// HK plus the Duff–Wiberg extra sweep from unmatched rows.
    Hkdw,
}

impl GhkVariant {
    /// Name used in figures and reports.
    pub fn label(&self) -> &'static str {
        match self {
            GhkVariant::Hk => "G-HK",
            GhkVariant::Hkdw => "G-HKDW",
        }
    }

    /// The BFS-frontier representation the original codes hand-rolled: a
    /// dense per-level scan.  Used when no explicit mode is configured.
    pub fn default_worklist(&self) -> WorklistMode {
        WorklistMode::DenseStamp
    }
}

/// Configuration of a G-HK / G-HKDW run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GhkConfig {
    /// Which variant to run.
    pub variant: GhkVariant,
    /// How the BFS frontier is represented on the device; all
    /// representations locate the same shortest augmenting paths.
    pub worklist: WorklistMode,
    /// How the phase loop executes.  Under [`ExecMode::Persistent`] the
    /// whole loop — BFS levels, DFS kernels, commit charges, and the
    /// Duff–Wiberg sweep — runs inside one
    /// [`gpm_gpu::VirtualGpu::resident`] scope, so every per-phase kernel
    /// crosses the software global barrier instead of paying a launch.
    pub exec: ExecMode,
}

impl GhkConfig {
    /// The original codes' configuration of `variant`: the dense BFS
    /// frontier and one launch per round.
    pub fn with_variant(variant: GhkVariant) -> Self {
        Self { variant, worklist: variant.default_worklist(), exec: ExecMode::LaunchPerRound }
    }

    /// Same configuration but with an explicit frontier representation.
    pub fn with_worklist(mut self, worklist: WorklistMode) -> Self {
        self.worklist = worklist;
        self
    }

    /// Same configuration but with an explicit execution mode.
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }
}

/// Counters and outcome of a G-HK / G-HKDW run.
#[derive(Clone, Debug, Default)]
pub struct GhkRunStats {
    /// Variant label.
    pub variant: &'static str,
    /// Number of BFS phases executed.
    pub phases: u64,
    /// Number of augmenting paths applied.
    pub augmentations: u64,
    /// Number of tentative paths discarded because of conflicts.
    pub conflicts: u64,
    /// Total atomic read-modify-write operations charged during this run
    /// (queue-tail claims plus the executor's chunk-cursor claims).
    pub atomics: u64,
    /// Device statistics for this run.
    pub device: DeviceStats,
    /// Host wall-clock time, seconds.
    pub seconds: f64,
    /// `true` when the run was stopped early by its
    /// [`gpm_gpu::StopCheck`] (cancellation or deadline): the matching is a
    /// consistent partial matching, not necessarily maximum.
    pub stopped: bool,
}

/// Result of a G-HK / G-HKDW run.
#[derive(Clone, Debug)]
pub struct GhkResult {
    /// The maximum matching.
    pub matching: Matching,
    /// Run statistics.
    pub stats: GhkRunStats,
}

/// Reusable G-HK/G-HKDW working memory: the device matching/label state and
/// the per-phase BFS level array.  Warm solver sessions reuse it across
/// solves on same-shaped graphs.
#[derive(Debug, Default)]
pub struct GhkWorkspace {
    state: Option<DeviceState>,
    dist_col: Option<DeviceBuffer<u32>>,
}

impl GhkWorkspace {
    /// A fresh (cold) workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when the workspace holds buffers for a graph of this shape.
    pub fn is_warm_for(&self, graph: &BipartiteCsr) -> bool {
        self.state
            .as_ref()
            .is_some_and(|s| s.num_rows() == graph.num_rows() && s.num_cols() == graph.num_cols())
    }
}

/// Runs G-HK or G-HKDW on the virtual GPU, starting from `initial`.
///
/// `workspace` buffers from previous solves are reused wherever the graph
/// shape allows.  `stop` is polled at every phase and between BFS levels.
/// G-HK keeps µ consistent at all times, so a stopped run simply downloads
/// the matching as it stands and returns with [`GhkRunStats::stopped`] set.
pub fn run(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    initial: &Matching,
    config: GhkConfig,
    workspace: &mut GhkWorkspace,
    stop: &StopCheck,
) -> GhkResult {
    let GhkConfig { variant, worklist: mode, exec } = config;
    let start = std::time::Instant::now();
    let base_stats = gpu.stats();
    let GhkWorkspace { state: state_slot, dist_col: dist_slot } = workspace;
    let state = DeviceState::upload_into(state_slot, graph, initial);
    let mut stats = GhkRunStats { variant: variant.label(), ..Default::default() };

    let n = graph.num_cols();
    let m = graph.num_rows();
    let dist_col = DeviceBuffer::recycle(dist_slot, n, INF);
    let found_free_row = DeviceBuffer::<bool>::new(1, false);
    // The BFS frontier (columns at the current layer) is worklist-managed;
    // the layer array itself stays algorithm state, feeding the DFS.
    let mut frontier = Worklist::new(gpu, mode, n, GHK_WORKLIST_KERNELS);

    let resident = resident_scope(exec, "G-HK-RESIDENT", n.max(m));
    stats.stopped = drive_rounds(gpu, resident, stop, || {
        // ---- BFS phase (level-synchronous kernels over columns) ----
        gpu.launch("G-HK-BFS-INIT", n, |ctx| {
            let v = ctx.global_id;
            ctx.add_work(1);
            let level = if state.mu_col.get(v) == MU_UNMATCHED { 0 } else { INF };
            dist_col.set(v, level);
        });
        let free_cols: Vec<i64> =
            (0..n).filter(|&v| state.mu_col.get(v) == MU_UNMATCHED).map(|v| v as i64).collect();
        frontier.seed(free_cols.iter().map(|&v| v as usize));
        found_free_row.set(0, false);
        let mut level = 0u32;
        // The inner level loop shares the driver (and under a persistent
        // launch, the ambient resident scope — hence no scope of its own).
        let bfs_stopped = drive_rounds(gpu, None, stop, || {
            frontier.for_each_frontier("G-HK-BFS-KRNL", |ctx, v, frontier| {
                for &u in graph.col_neighbors(v as u32) {
                    ctx.add_work(1);
                    let mate = state.mu_row.get(u as usize);
                    if mate == MU_UNMATCHED {
                        found_free_row.set(0, true);
                    } else {
                        let w = mate as usize;
                        if dist_col.get(w) == INF {
                            dist_col.set(w, level + 1);
                            frontier.push(ctx, w);
                        }
                    }
                }
            });
            if found_free_row.get(0) || !frontier.advance_frontier() {
                return RoundOutcome::Done;
            }
            level += 1;
            RoundOutcome::Continue
        });
        if bfs_stopped {
            return RoundOutcome::Stopped;
        }
        if !found_free_row.get(0) {
            return RoundOutcome::Done; // no augmenting path: maximum reached
        }
        stats.phases += 1;

        // ---- DFS kernel: tentative level-respecting paths ----
        let max_path = (level as usize + 2).max(2);
        let paths = build_paths_kernel(gpu, graph, state, dist_col, &free_cols, max_path);

        // ---- Commit pass ----
        let (applied, conflicts, committed_work) = commit_paths(state, &paths, m, n);
        gpu.launch("G-HK-COMMIT", applied.max(1), |ctx| {
            // The commit's cost is proportional to the total committed path
            // length; charge it to the thread representing each applied path.
            if ctx.global_id == 0 {
                ctx.add_work(committed_work);
            }
        });
        stats.augmentations += applied as u64;
        stats.conflicts += conflicts as u64;

        // ---- Optional Duff–Wiberg extra sweep from unmatched rows ----
        let mut progress = applied as u64;
        if variant == GhkVariant::Hkdw {
            let extra = dw_sweep(gpu, graph, state);
            stats.augmentations += extra;
            progress += extra;
        }

        if progress == 0 {
            // Every tentative path conflicted (which should be impossible for
            // a non-empty phase, but is guarded against so that a bug cannot
            // turn into a hang): apply a single host-side augmentation or
            // stop if none exists.
            if host_augment_one(graph, state) {
                stats.augmentations += 1;
            } else {
                return RoundOutcome::Done;
            }
        }
        RoundOutcome::Continue
    });

    // G-HK/G-HKDW keep µ consistent; download directly.
    let matching = state.download_matching();
    let mut run_device = gpu.stats();
    subtract_device_stats(&mut run_device, &base_stats);
    stats.atomics = run_device.total_atomics();
    stats.device = run_device;
    stats.seconds = start.elapsed().as_secs_f64();
    GhkResult { matching, stats }
}

/// Runs the DFS kernel: one thread per free column builds a tentative
/// level-respecting augmenting path into its private region of `paths`.
/// A path is stored as a sequence of `(row, col)` pairs, terminated by `-1`.
fn build_paths_kernel(
    gpu: &VirtualGpu,
    graph: &BipartiteCsr,
    state: &DeviceState,
    dist_col: &DeviceBuffer<u32>,
    free_cols: &[i64],
    max_path: usize,
) -> Vec<Vec<(VertexId, VertexId)>> {
    let k = free_cols.len();
    let stride = 2 * max_path + 2;
    let path_buf = DeviceBuffer::<i64>::new(k * stride, -1);
    let free_cols_dev = DeviceBuffer::from_slice(free_cols);
    // Dead-end marker shared by all threads.  Whether a column can reach a
    // free row through level-increasing edges depends only on (ψ levels, µ),
    // which are constant during this kernel, so the flag is thread-agnostic
    // and the racy (unordered, same-value) writes are benign — the same
    // argument the paper makes for its own kernels.  Without it a DFS on a
    // grid-like layered graph revisits columns exponentially often.
    let dead = DeviceBuffer::<bool>::new(graph.num_cols(), false);

    gpu.launch("G-HK-DFS-KRNL", k, |ctx| {
        let i = ctx.global_id;
        let root = free_cols_dev.get(i);
        if root < 0 {
            return;
        }
        // Iterative level-respecting DFS over (column, next-neighbor-index)
        // frames.  Levels strictly increase along the stack, so no cycle
        // check is needed.
        let mut stack: Vec<(usize, usize)> = vec![(root as usize, 0)];
        let mut chosen_rows: Vec<i64> = vec![-1];
        let mut out: Vec<(i64, i64)> = Vec::new();
        while let Some(&(c, idx)) = stack.last() {
            let nbrs = graph.col_neighbors(c as u32);
            if idx >= nbrs.len() {
                dead.set(c, true);
                stack.pop();
                chosen_rows.pop();
                continue;
            }
            stack.last_mut().expect("non-empty stack").1 += 1;
            let u = nbrs[idx] as usize;
            ctx.add_work(1);
            let mate = state.mu_row.get(u);
            if mate == MU_UNMATCHED {
                // Found a free row: record the full path.
                let depth = stack.len() - 1;
                chosen_rows[depth] = u as i64;
                for (d, &(col, _)) in stack.iter().enumerate() {
                    out.push((chosen_rows[d], col as i64));
                }
                break;
            }
            let w = mate as usize;
            let level_c = dist_col.get(c);
            if !dead.get(w) && dist_col.get(w) == level_c.saturating_add(1) {
                let depth = stack.len() - 1;
                chosen_rows[depth] = u as i64;
                stack.push((w, 0));
                chosen_rows.push(-1);
            }
        }
        // Write the tentative path to the private region.
        let base = i * stride;
        for (j, &(u, c)) in out.iter().enumerate() {
            path_buf.set(base + 2 * j, u);
            path_buf.set(base + 2 * j + 1, c);
        }
    });

    // Host-side decode of the private regions.
    let raw = path_buf.to_vec();
    (0..k)
        .map(|i| {
            let base = i * stride;
            let mut path = Vec::new();
            let mut j = 0;
            while 2 * j + 1 < stride {
                let u = raw[base + 2 * j];
                let c = raw[base + 2 * j + 1];
                if u < 0 || c < 0 {
                    break;
                }
                path.push((u as VertexId, c as VertexId));
                j += 1;
            }
            path
        })
        .collect()
}

/// Applies non-conflicting tentative paths to the device matching.  Returns
/// (paths applied, paths discarded, total committed pairs).
///
/// The tentative paths were built against the matching as it stood at the
/// start of the phase; the only writers since then are earlier iterations of
/// this very loop, so tracking the rows/columns they touched is sufficient to
/// detect every conflict.
fn commit_paths(
    state: &DeviceState,
    paths: &[Vec<(VertexId, VertexId)>],
    num_rows: usize,
    num_cols: usize,
) -> (usize, usize, u64) {
    let mut used_row = vec![false; num_rows];
    let mut used_col = vec![false; num_cols];
    let mut applied = 0usize;
    let mut conflicts = 0usize;
    let mut committed_pairs = 0u64;
    for path in paths {
        if path.is_empty() {
            continue;
        }
        let clash = path.iter().any(|&(u, c)| used_row[u as usize] || used_col[c as usize]);
        if clash {
            conflicts += 1;
            continue;
        }
        for &(u, c) in path {
            state.mu_row.set(u as usize, c as i64);
            state.mu_col.set(c as usize, u as i64);
            used_row[u as usize] = true;
            used_col[c as usize] = true;
            committed_pairs += 1;
        }
        applied += 1;
    }
    (applied, conflicts, committed_pairs)
}

/// The Duff–Wiberg extra sweep: one thread per unmatched row builds an
/// unrestricted alternating path toward a free column; paths are committed
/// host-side like the HK phase.  Returns the number of augmentations.
fn dw_sweep(gpu: &VirtualGpu, graph: &BipartiteCsr, state: &DeviceState) -> u64 {
    let m = graph.num_rows();
    let free_rows: Vec<i64> =
        (0..m).filter(|&u| state.mu_row.get(u) == MU_UNMATCHED).map(|u| u as i64).collect();
    if free_rows.is_empty() {
        return 0;
    }
    let k = free_rows.len();
    let free_rows_dev = DeviceBuffer::from_slice(&free_rows);
    // Collect tentative paths (row, col) pairs per thread, bounded depth to
    // keep the sweep cheap — longer paths are left for the next BFS phase.
    const MAX_DEPTH: usize = 64;
    let stride = 2 * MAX_DEPTH + 2;
    let path_buf = DeviceBuffer::<i64>::new(k * stride, -1);

    gpu.launch("G-HKDW-DW-KRNL", k, |ctx| {
        let i = ctx.global_id;
        let root = free_rows_dev.get(i) as usize;
        // Iterative alternating DFS row → column → matched row …, depth-bounded.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        let mut chosen_cols: Vec<i64> = vec![-1];
        let mut out: Vec<(i64, i64)> = Vec::new();
        let mut visited_cols: Vec<usize> = Vec::new();
        while let Some(&(r, idx)) = stack.last() {
            if stack.len() > MAX_DEPTH {
                break;
            }
            let nbrs = graph.row_neighbors(r as u32);
            if idx >= nbrs.len() {
                stack.pop();
                chosen_cols.pop();
                continue;
            }
            stack.last_mut().expect("non-empty stack").1 += 1;
            let c = nbrs[idx] as usize;
            ctx.add_work(1);
            if visited_cols.contains(&c) {
                continue;
            }
            visited_cols.push(c);
            let mate = state.mu_col.get(c);
            if mate == MU_UNMATCHED {
                let depth = stack.len() - 1;
                chosen_cols[depth] = c as i64;
                for (d, &(row, _)) in stack.iter().enumerate() {
                    out.push((row as i64, chosen_cols[d]));
                }
                break;
            }
            if mate >= 0 && state.mu_row.get(mate as usize) == c as i64 {
                let depth = stack.len() - 1;
                chosen_cols[depth] = c as i64;
                stack.push((mate as usize, 0));
                chosen_cols.push(-1);
            }
        }
        let base = i * stride;
        for (j, &(u, c)) in out.iter().enumerate() {
            path_buf.set(base + 2 * j, u);
            path_buf.set(base + 2 * j + 1, c);
        }
    });

    let raw = path_buf.to_vec();
    let mut used_row = vec![false; graph.num_rows()];
    let mut used_col = vec![false; graph.num_cols()];
    let mut applied = 0u64;
    for i in 0..k {
        let base = i * stride;
        let mut path = Vec::new();
        let mut j = 0;
        while 2 * j + 1 < stride {
            let u = raw[base + 2 * j];
            let c = raw[base + 2 * j + 1];
            if u < 0 || c < 0 {
                break;
            }
            path.push((u as usize, c as usize));
            j += 1;
        }
        if path.is_empty() {
            continue;
        }
        if path.iter().any(|&(u, c)| used_row[u] || used_col[c]) {
            continue;
        }
        for &(u, c) in &path {
            state.mu_row.set(u, c as i64);
            state.mu_col.set(c, u as i64);
            used_row[u] = true;
            used_col[c] = true;
        }
        applied += 1;
    }
    applied
}

/// Host-side single augmentation fallback used only if every tentative path
/// of a phase conflicted.  Returns `true` if an augmenting path was applied.
fn host_augment_one(graph: &BipartiteCsr, state: &DeviceState) -> bool {
    let n = graph.num_cols();
    for root in 0..n {
        if state.mu_col.get(root) != MU_UNMATCHED {
            continue;
        }
        // Plain alternating BFS with parent tracking.
        let mut parent_col_of_row: Vec<i64> = vec![-2; graph.num_rows()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        let mut seen_cols = vec![false; n];
        seen_cols[root] = true;
        while let Some(v) = queue.pop_front() {
            for &u in graph.col_neighbors(v as u32) {
                let u = u as usize;
                if parent_col_of_row[u] != -2 {
                    continue;
                }
                parent_col_of_row[u] = v as i64;
                let mate = state.mu_row.get(u);
                if mate == MU_UNMATCHED {
                    // augment
                    let mut cur_row = u;
                    loop {
                        let via = parent_col_of_row[cur_row] as usize;
                        let next = state.mu_col.get(via);
                        state.mu_row.set(cur_row, via as i64);
                        state.mu_col.set(via, cur_row as i64);
                        if next == MU_UNMATCHED || via == root {
                            return true;
                        }
                        cur_row = next as usize;
                    }
                }
                let w = mate as usize;
                if !seen_cols[w] {
                    seen_cols[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::heuristics::cheap_matching;
    use gpm_graph::verify::{is_maximum, maximum_matching_cardinality};
    use gpm_graph::{gen, Matching};

    /// A cold run that is never stopped.
    fn solve(gpu: &VirtualGpu, g: &BipartiteCsr, init: &Matching, config: GhkConfig) -> GhkResult {
        run(gpu, g, init, config, &mut GhkWorkspace::new(), &StopCheck::never())
    }

    /// A cold run of `variant` with the given frontier representation.
    fn with_mode(
        gpu: &VirtualGpu,
        g: &BipartiteCsr,
        init: &Matching,
        variant: GhkVariant,
        mode: WorklistMode,
    ) -> GhkResult {
        solve(gpu, g, init, GhkConfig::with_variant(variant).with_worklist(mode))
    }

    fn check(g: &BipartiteCsr, gpu: &VirtualGpu) {
        let opt = maximum_matching_cardinality(g);
        let init = cheap_matching(g);
        for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
            let r = solve(gpu, g, &init, GhkConfig::with_variant(variant));
            assert_eq!(
                r.matching.cardinality(),
                opt,
                "{} found {} instead of {}",
                variant.label(),
                r.matching.cardinality(),
                opt
            );
            assert!(is_maximum(g, &r.matching));
            r.matching.validate_against(g).unwrap();
        }
    }

    #[test]
    fn small_square_both_variants() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        check(&g, &VirtualGpu::sequential());
        check(&g, &VirtualGpu::parallel());
    }

    #[test]
    fn random_graphs_both_backends() {
        for seed in 0..3u64 {
            let g = gen::uniform_random(70, 65, 350, seed + 11).unwrap();
            check(&g, &VirtualGpu::sequential());
            check(&g, &VirtualGpu::parallel());
        }
    }

    #[test]
    fn structured_families() {
        let gpu = VirtualGpu::parallel();
        for g in [
            gen::road_network(18, 18, 0.1, 6).unwrap(),
            gen::rmat(gen::RmatParams::graph500(8, 4), 6).unwrap(),
            gen::delaunay_like(12, 12, 6).unwrap(),
        ] {
            check(&g, &gpu);
        }
    }

    #[test]
    fn planted_perfect_found() {
        let gpu = VirtualGpu::parallel();
        let g = gen::planted_perfect(200, 600, 13).unwrap();
        check(&g, &gpu);
    }

    #[test]
    fn empty_graph_and_perfect_initial() {
        let gpu = VirtualGpu::sequential();
        let g = BipartiteCsr::empty(5, 5);
        let r =
            solve(&gpu, &g, &Matching::empty_for(&g), GhkConfig::with_variant(GhkVariant::Hkdw));
        assert_eq!(r.matching.cardinality(), 0);

        let g = gen::planted_perfect(64, 0, 7).unwrap();
        let init = cheap_matching(&g);
        let r = solve(&gpu, &g, &init, GhkConfig::with_variant(GhkVariant::Hk));
        assert_eq!(r.matching.cardinality(), 64);
        assert_eq!(r.stats.phases, 0);
    }

    #[test]
    fn warm_workspace_matches_cold_runs() {
        let gpu = VirtualGpu::sequential();
        let mut ws = GhkWorkspace::new();
        let g1 = gen::uniform_random(50, 50, 260, 21).unwrap();
        let g2 = gen::uniform_random(50, 50, 280, 22).unwrap();
        for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
            for g in [&g1, &g2] {
                let init = cheap_matching(g);
                let config = GhkConfig::with_variant(variant);
                let warm = run(&gpu, g, &init, config, &mut ws, &StopCheck::never());
                let cold = solve(&gpu, g, &init, config);
                assert_eq!(warm.matching.cardinality(), cold.matching.cardinality());
            }
            assert!(ws.is_warm_for(&g1));
        }
        let g3 = gen::uniform_random(20, 30, 100, 23).unwrap();
        assert!(!ws.is_warm_for(&g3));
        let config = GhkConfig::with_variant(GhkVariant::Hk);
        let r = run(&gpu, &g3, &cheap_matching(&g3), config, &mut ws, &StopCheck::never());
        assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g3));
    }

    #[test]
    fn every_frontier_mode_finds_the_maximum() {
        for gpu in [VirtualGpu::sequential(), VirtualGpu::parallel()] {
            for seed in 0..2u64 {
                let g = gen::uniform_random(60, 55, 300, seed + 41).unwrap();
                let opt = maximum_matching_cardinality(&g);
                let init = cheap_matching(&g);
                for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
                    for mode in WorklistMode::all() {
                        let r = with_mode(&gpu, &g, &init, variant, mode);
                        assert_eq!(
                            r.matching.cardinality(),
                            opt,
                            "{} with {mode} frontier",
                            variant.label()
                        );
                        r.matching.validate_against(&g).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn frontier_modes_run_identical_phase_counts() {
        // The three representations hold the same frontier sets, so on the
        // deterministic sequential backend every phase finds the same
        // augmenting paths and the phase/augmentation counters agree.
        // (Regression test: stale frontier stamps surviving a re-seed once
        // inflated the dense mode's phase count.)
        let gpu = VirtualGpu::sequential();
        for seed in 0..5u64 {
            let g = gen::uniform_random(120, 110, 600, seed).unwrap();
            let init = cheap_matching(&g);
            for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
                let runs: Vec<GhkRunStats> = WorklistMode::all()
                    .into_iter()
                    .map(|mode| with_mode(&gpu, &g, &init, variant, mode).stats)
                    .collect();
                for r in &runs[1..] {
                    assert_eq!(r.phases, runs[0].phases, "seed {seed}, {}", variant.label());
                    assert_eq!(
                        r.augmentations,
                        runs[0].augmentations,
                        "seed {seed}, {}",
                        variant.label()
                    );
                    assert_eq!(r.conflicts, runs[0].conflicts, "seed {seed}, {}", variant.label());
                }
            }
        }
    }

    #[test]
    fn persistent_exec_matches_launch_per_round() {
        let gpu = VirtualGpu::sequential();
        for seed in 0..2u64 {
            let g = gen::uniform_random(70, 65, 340, seed + 70).unwrap();
            let opt = maximum_matching_cardinality(&g);
            let init = cheap_matching(&g);
            for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
                for mode in WorklistMode::all() {
                    let config = GhkConfig::with_variant(variant).with_worklist(mode);
                    let lpr = solve(&gpu, &g, &init, config);
                    let per = solve(&gpu, &g, &init, config.with_exec(ExecMode::Persistent));
                    let tag = format!("{} + {mode}, seed {seed}", variant.label());
                    assert_eq!(per.matching.cardinality(), opt, "{tag}");
                    per.matching.validate_against(&g).unwrap();
                    assert_eq!(per.stats.phases, lpr.stats.phases, "{tag}");
                    assert_eq!(per.stats.augmentations, lpr.stats.augmentations, "{tag}");
                    assert_eq!(per.stats.conflicts, lpr.stats.conflicts, "{tag}");
                    assert!(!per.stats.stopped, "{tag}");
                }
            }
        }
    }

    #[test]
    fn persistent_runs_keep_launches_to_the_entry_kernel() {
        let gpu = VirtualGpu::parallel();
        let g = gen::uniform_random(200, 200, 900, 31).unwrap();
        let init = cheap_matching(&g);
        let config = GhkConfig::with_variant(GhkVariant::Hkdw)
            .with_worklist(WorklistMode::AtomicQueue)
            .with_exec(ExecMode::Persistent);
        let r = solve(&gpu, &g, &init, config);
        assert_eq!(r.matching.cardinality(), maximum_matching_cardinality(&g));
        // One resident entry launch; every per-phase kernel became a round.
        assert_eq!(r.stats.device.total_launches(), 1);
        assert_eq!(r.stats.device.launches_of("G-HK-RESIDENT"), 1);
        assert_eq!(r.stats.device.launches_of("G-HK-BFS-KRNL"), 0);
        assert!(r.stats.device.resident_rounds_of("G-HK-BFS-KRNL") >= r.stats.phases);
        assert!(r.stats.device.total_barriers() > 0);
    }

    #[test]
    fn queue_frontier_launches_fewer_bfs_threads_than_dense() {
        let g = gen::uniform_random(400, 400, 2000, 9).unwrap();
        let init = cheap_matching(&g);
        let dense_gpu = VirtualGpu::sequential();
        let dense = with_mode(&dense_gpu, &g, &init, GhkVariant::Hk, WorklistMode::DenseStamp);
        let queue_gpu = VirtualGpu::sequential();
        let queue = with_mode(&queue_gpu, &g, &init, GhkVariant::Hk, WorklistMode::AtomicQueue);
        assert_eq!(dense.matching.cardinality(), queue.matching.cardinality());
        let dense_threads = dense.stats.device.kernels["G-HK-BFS-KRNL"].total_threads;
        let queue_threads = queue.stats.device.kernels["G-HK-BFS-KRNL"].total_threads;
        assert!(
            queue_threads < dense_threads,
            "queue frontier should launch fewer BFS threads ({queue_threads} vs {dense_threads})"
        );
    }

    #[test]
    fn stop_check_halts_within_one_phase() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let gpu = VirtualGpu::sequential();
        let g = gen::rmat(gen::RmatParams::graph500(10, 4), 8).unwrap();
        let init = cheap_matching(&g);
        for variant in [GhkVariant::Hk, GhkVariant::Hkdw] {
            let polls = Arc::new(AtomicU64::new(0));
            let p = Arc::clone(&polls);
            let stop = StopCheck::from_fn(move || p.fetch_add(1, Ordering::Relaxed) >= 2);
            let config = GhkConfig::with_variant(variant);
            let r = run(&gpu, &g, &init, config, &mut GhkWorkspace::new(), &stop);
            assert!(r.stats.stopped, "{}", variant.label());
            // Every phase polls at least twice (phase head + first BFS
            // level), so a signal tripped at poll 2 stops within phase 1.
            assert!(r.stats.phases <= 1, "{}: {} phases", variant.label(), r.stats.phases);
            // µ stays consistent at all times in G-HK.
            r.matching.validate_against(&g).unwrap();
            assert!(r.matching.cardinality() >= init.cardinality());
        }

        // A pre-tripped stop performs no phase at all.
        let stop = StopCheck::from_fn(|| true);
        let config = GhkConfig::with_variant(GhkVariant::Hk);
        let r = run(&gpu, &g, &init, config, &mut GhkWorkspace::new(), &stop);
        assert!(r.stats.stopped);
        assert_eq!(r.stats.phases, 0);
        assert_eq!(r.matching.cardinality(), init.cardinality());
    }

    #[test]
    fn stats_record_bfs_kernels() {
        let gpu = VirtualGpu::sequential();
        let g = gen::uniform_random(150, 150, 700, 4).unwrap();
        let r = solve(&gpu, &g, &cheap_matching(&g), GhkConfig::with_variant(GhkVariant::Hkdw));
        assert!(r.stats.device.launches_of("G-HK-BFS-KRNL") >= 1);
        assert!(r.stats.device.launches_of("G-HK-DFS-KRNL") >= r.stats.phases);
        assert_eq!(r.stats.variant, "G-HKDW");
        assert!(r.stats.device.modelled_time_secs() > 0.0);
    }
}
