//! The traced run: after each client round trip, the request is replayed
//! through each layer's public entry points, every call timed as a span of
//! that request, and the per-layer metrics are computed from the spans.
//!
//! The replays run outside the server under test: `server.handle` on an
//! in-process `ServerState` loaded with the same corpus, `service.job` on
//! that state's service, and `core.*` on a benchmark-owned sequential
//! `Solver` given the same graph, algorithm and init.

use crate::harness::{service_builder, warm_every_shard, warm_up_graph, RunResult};
use crate::plan::{algorithm, Inputs, Kind, Op, Request, GPR};
use crate::stats::Summary;
use crate::trace::{self_times_ns, Span, Tracer};
use gpm_core::{Algorithm, DevicePolicy, InitHeuristic, SolveCtx, Solver};
use gpm_gpu::DeviceStats;
use gpm_graph::{BipartiteCsr, Matching, VertexId};
use gpm_service::proto::{ok_response, parse_request};
use gpm_service::server::handle_request_line;
use gpm_service::{GraphSource, JobSpec, ServerState};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Every per-layer metric, with its unit, in report order.  The traced
/// run prints all of them on every workload; a layer the workload does not
/// reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.solve_p50_ms", "ms"),
    ("wire.write_p50_ms", "ms"),
    ("wire.stats_p50_ms", "ms"),
    ("server.solve_p50_ms", "ms"),
    ("server.write_p50_ms", "ms"),
    ("server.stats_p50_ms", "ms"),
    ("proto.parse_p50_us", "us"),
    ("proto.parse_mb_s", "MB/s"),
    ("proto.render_p50_us", "us"),
    ("proto.request_kb_p50", "KB"),
    ("proto.response_kb_p50", "KB"),
    ("queue.wait_p50_ms", "ms"),
    ("queue.wait_p90_ms", "ms"),
    ("service.busy_p50_ms", "ms"),
    ("queue.peak_depth", "count"),
    ("shard.job_skew", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("graph.build_p50_ms", "ms"),
    ("graph.fingerprint_p50_us", "us"),
    ("graph.apply_delta_p50_ms", "ms"),
    ("init.cheap_p50_ms", "ms"),
    ("init.matched_share", "ratio"),
    ("engine.gpr.wall_s", "s"),
    ("engine.gpr.modelled_s", "s"),
    ("engine.gpr.wall_per_modelled", "ratio"),
    ("engine.gpr.launches", "count"),
    ("engine.ghkdw.wall_s", "s"),
    ("engine.ghkdw.modelled_s", "s"),
    ("engine.ghkdw.wall_per_modelled", "ratio"),
    ("engine.ghkdw.launches", "count"),
    ("cpu.pdbfs.wall_s", "s"),
    ("cpu.pr.wall_s", "s"),
    ("resolve.warm_share", "ratio"),
    ("resolve.frontier_p50", "count"),
    ("resolve.rounds_p50", "count"),
    ("resolve.wall_p50_ms", "ms"),
    ("resolve.modelled_p50_ms", "ms"),
    ("kernel.G-PR-PUSHKRNL.wall_ms", "ms"),
    ("kernel.G-PR-PUSHKRNL.modelled_ms", "ms"),
    ("kernel.G-PR-PUSHKRNL.wall_per_modelled", "ratio"),
    ("kernel.G-PR-PUSHKRNL.launches", "count"),
    ("kernel.G-PR-INITKRNL.wall_ms", "ms"),
    ("kernel.G-PR-INITKRNL.modelled_ms", "ms"),
    ("kernel.G-PR-INITKRNL.wall_per_modelled", "ratio"),
    ("kernel.G-PR-INITKRNL.launches", "count"),
    ("kernel.G-GR-KRNL.wall_ms", "ms"),
    ("kernel.G-GR-KRNL.modelled_ms", "ms"),
    ("kernel.G-GR-KRNL.wall_per_modelled", "ratio"),
    ("kernel.G-GR-KRNL.launches", "count"),
    ("kernel.G-GR-WL-REFILL.wall_ms", "ms"),
    ("kernel.G-GR-WL-REFILL.modelled_ms", "ms"),
    ("kernel.G-GR-WL-REFILL.wall_per_modelled", "ratio"),
    ("kernel.G-GR-WL-REFILL.launches", "count"),
    ("kernel.scan.wall_ms", "ms"),
    ("kernel.scan.modelled_ms", "ms"),
    ("kernel.scan.wall_per_modelled", "ratio"),
    ("kernel.scan.launches", "count"),
    ("kernel.G-HK-BFS-KRNL.wall_ms", "ms"),
    ("kernel.G-HK-BFS-KRNL.modelled_ms", "ms"),
    ("kernel.G-HK-BFS-KRNL.wall_per_modelled", "ratio"),
    ("kernel.G-HK-BFS-KRNL.launches", "count"),
    ("kernel.G-HK-DFS-KRNL.wall_ms", "ms"),
    ("kernel.G-HK-DFS-KRNL.modelled_ms", "ms"),
    ("kernel.G-HK-DFS-KRNL.wall_per_modelled", "ratio"),
    ("kernel.G-HK-DFS-KRNL.launches", "count"),
    ("kernel.G-HKDW-DW-KRNL.wall_ms", "ms"),
    ("kernel.G-HKDW-DW-KRNL.modelled_ms", "ms"),
    ("kernel.G-HKDW-DW-KRNL.wall_per_modelled", "ratio"),
    ("kernel.G-HKDW-DW-KRNL.launches", "count"),
    ("kernel.other.wall_ms", "ms"),
    ("kernel.other.modelled_ms", "ms"),
    ("kernel.other.wall_per_modelled", "ratio"),
    ("kernel.other.launches", "count"),
    ("kernel.outliers", "count"),
    ("gpu.modelled_device_s", "s"),
    ("trace.solve_p50_overhead_pct", "%"),
    ("trace.throughput_overhead_pct", "%"),
];

/// Kernel groups the per-layer metrics report; everything else is `other`.
const KERNEL_GROUPS: [&str; 8] = [
    "G-PR-PUSHKRNL",
    "G-PR-INITKRNL",
    "G-GR-KRNL",
    "G-GR-WL-REFILL",
    "scan",
    "G-HK-BFS-KRNL",
    "G-HK-DFS-KRNL",
    "G-HKDW-DW-KRNL",
];

fn kernel_group(name: &str) -> &str {
    match name {
        "scan_block" | "scan_uniform_add" => "scan",
        _ => KERNEL_GROUPS.iter().find(|&&g| g == name).copied().unwrap_or("other"),
    }
}

/// What the benchmark-owned solver did for one solve request.
#[derive(Clone, Debug)]
pub struct EngineRecord {
    /// Pass of the client that sent the request.
    pub pass: usize,
    /// Graph index.
    pub graph: usize,
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Initial matching cardinality.
    pub initial: usize,
    /// Final matching cardinality.
    pub cardinality: usize,
    /// Solver wall seconds (excluding the init heuristic).
    pub wall_s: f64,
    /// Modelled device seconds (GPU algorithms).
    pub modelled_s: Option<f64>,
    /// Per-kernel counters (GPU algorithms).
    pub device: Option<DeviceStats>,
    /// Set when the solve went through `resolve_prepared_ctx`:
    /// (fell back to cold, seeded frontier, rounds).
    pub resolve: Option<(bool, usize, u64)>,
}

/// Shared state of a traced run: the shadow server loaded with the corpus.
pub struct Replayer<'a> {
    inputs: &'a Inputs,
    shadow: ServerState,
}

impl<'a> Replayer<'a> {
    /// Builds the shadow server (same configuration as the server under
    /// test), uploads the corpus into it and warms every shard.
    pub fn new(inputs: &'a Inputs) -> Result<Self, String> {
        let shadow = ServerState::new(service_builder().build());
        for &g in &inputs.corpus {
            shadow.service().put_graph(std::sync::Arc::clone(&inputs.graphs[g].csr));
        }
        warm_every_shard(|g| {
            let fp = shadow.service().put_graph(g);
            let spec = JobSpec::new(GraphSource::Cached(fp), algorithm(GPR));
            shadow.service().submit(spec).wait().map(|o| o.shard).map_err(|e| e.to_string())
        })?;
        Ok(Replayer { inputs, shadow })
    }

    /// Per-client replay state.
    pub fn client(&self, epoch: Instant, client: usize) -> ClientTrace<'_> {
        let mut solver = Solver::builder()
            .device_policy(DevicePolicy::Sequential)
            .build()
            .expect("sequential solver configuration is valid");
        // Create the solver's lazy device before timing.
        solver.solve(&warm_up_graph(0), algorithm(GPR)).expect("warm-up solve");
        ClientTrace {
            replayer: self,
            tracer: Tracer::new(epoch, client),
            solver,
            matchings: HashMap::new(),
            last_patch: None,
            engines: Vec::new(),
            kinds: HashMap::new(),
        }
    }
}

/// Merges the clients' traces.
pub fn merge(clients: Vec<ClientTrace<'_>>) -> TraceOutput {
    let mut out = TraceOutput::default();
    for c in clients {
        out.spans.extend(c.tracer.spans);
        out.engines.extend(c.engines);
        out.kinds.extend(c.kinds);
    }
    out
}

/// One client's replay state: its tracer and its own sequential solver.
pub struct ClientTrace<'r> {
    replayer: &'r Replayer<'r>,
    tracer: Tracer,
    solver: Solver,
    /// Last matching the local solver produced per graph (warm-start
    /// source for `core.resolve`).
    matchings: HashMap<usize, Matching>,
    /// The last patch this client sent: (parent, child, delta).
    last_patch: Option<(usize, usize, usize)>,
    engines: Vec<EngineRecord>,
    kinds: HashMap<u64, Kind>,
}

impl ClientTrace<'_> {
    /// Records the client round trip as the `request` span, then replays
    /// the request through the layers, each call a child span.
    pub fn replay(
        &mut self,
        request: &Request,
        pass: usize,
        start_ns: u64,
        end_ns: u64,
    ) -> Result<(), String> {
        let inputs = self.replayer.inputs;
        let shadow = &self.replayer.shadow;
        let line = request.line.as_str();
        let rid = self.tracer.next_id();
        self.kinds.insert(rid, request.op.kind());
        self.tracer.spans.push(Span {
            id: rid,
            request: rid,
            parent: None,
            name: "request",
            start_ns,
            end_ns,
            attrs: vec![("bytes", line.len() as f64)],
        });
        let t = &mut self.tracer;
        let ((response, _), i) =
            t.span(rid, Some(rid), "server.handle", || handle_request_line(shadow, line));
        t.spans[i].attrs.push(("bytes", response.len() as f64));
        let (_, i) = t.span(rid, Some(rid), "proto.parse", || parse_request(line));
        let carries_graph = matches!(request.op, Op::Put { .. } | Op::Solve { inline: true, .. });
        t.spans[i].attrs.push(("bytes", line.len() as f64));
        t.spans[i].attrs.push(("graph", f64::from(u8::from(carries_graph))));
        match request.op {
            Op::Put { graph } => build_and_fingerprint(t, rid, &inputs.graphs[graph].csr)?,
            Op::Patch { parent, child, delta } => {
                let parent_csr = &inputs.graphs[parent].csr;
                let (patched, _) = t.span(rid, Some(rid), "graph.apply_delta", || {
                    parent_csr.apply_delta_lineage(&inputs.deltas[delta])
                });
                let (_, lineage) = patched.map_err(|e| format!("replayed delta: {e}"))?;
                if lineage.child != inputs.graphs[child].fingerprint {
                    return Err("replayed delta produced another child".to_string());
                }
                self.last_patch = Some((parent, child, delta));
            }
            Op::Solve { graph, algorithm, inline, include_matching } => {
                let g = &inputs.graphs[graph];
                let source = if inline {
                    build_and_fingerprint(t, rid, &g.csr)?;
                    GraphSource::Inline(std::sync::Arc::clone(&g.csr))
                } else {
                    GraphSource::Cached(g.fingerprint)
                };
                let spec = JobSpec::new(source, algorithm).with_init(InitHeuristic::Cheap);
                let (outcome, _) =
                    t.span(rid, Some(rid), "service.job", || shadow.service().submit(spec).wait());
                let outcome = outcome.map_err(|e| format!("replayed job: {e}"))?;
                t.span(rid, Some(rid), "proto.render", || {
                    let mut fields = vec![
                        ("op".to_string(), Value::Str("solve".to_string())),
                        ("job_id".to_string(), Value::U64(0)),
                        ("report".to_string(), outcome.report.to_value()),
                        ("shard".to_string(), Value::U64(outcome.shard as u64)),
                        ("worker".to_string(), Value::U64(outcome.worker as u64)),
                        ("cache_hit".to_string(), Value::Bool(outcome.cache_hit)),
                        ("queue_seconds".to_string(), Value::F64(outcome.queue_seconds)),
                        ("service_seconds".to_string(), Value::F64(outcome.service_seconds)),
                    ];
                    if include_matching {
                        let mates = outcome.report.matching.row_mates();
                        let mates = mates.iter().map(|&m| Value::I64(m)).collect();
                        fields.push(("row_mates".to_string(), Value::Seq(mates)));
                    }
                    ok_response(fields)
                });
                self.core(rid, pass, graph, algorithm)?;
            }
            Op::Stats => {}
        }
        Ok(())
    }

    /// `core.init` + `core.solve`, or `core.resolve` when this client just
    /// patched `graph` out of a parent the local solver has a matching for.
    fn core(
        &mut self,
        rid: u64,
        pass: usize,
        graph: usize,
        algorithm: Algorithm,
    ) -> Result<(), String> {
        let inputs = self.replayer.inputs;
        let g = &inputs.graphs[graph];
        let (t, solver) = (&mut self.tracer, &mut self.solver);
        let warm = self
            .last_patch
            .filter(|&(_, child, _)| child == graph)
            .and_then(|(parent, _, delta)| Some((self.matchings.get(&parent)?, delta)));
        let (report, initial, resolve, i) = match warm {
            Some((previous, delta)) => {
                let (out, i) = t.span(rid, Some(rid), "core.resolve", || {
                    solver.resolve_prepared_ctx(
                        &g.csr,
                        previous,
                        &inputs.deltas[delta],
                        algorithm,
                        &SolveCtx::unbounded(),
                    )
                });
                let out = out.map_err(|e| format!("local resolve: {e}"))?;
                let info = (out.fell_back_to_cold, out.seeded_frontier, out.rounds);
                (out.report, out.warm_cardinality, Some(info), i)
            }
            None => {
                let (initial, _) =
                    t.span(rid, Some(rid), "core.init", || InitHeuristic::Cheap.build(&g.csr));
                let (out, i) = t.span(rid, Some(rid), "core.solve", || {
                    solver.solve_with_initial(&g.csr, &initial, algorithm)
                });
                (out.map_err(|e| format!("local solve: {e}"))?, initial.cardinality(), None, i)
            }
        };
        if report.cardinality != g.oracle {
            return Err(format!(
                "local {algorithm} on {}: {} != oracle {}",
                g.name, report.cardinality, g.oracle
            ));
        }
        if let Some(stats) = &report.device_stats {
            t.spans[i].attrs.push(("launches", stats.total_launches() as f64));
            t.spans[i].attrs.push(("modelled_ms", stats.modelled_time_secs() * 1e3));
            t.spans[i].attrs.push(("kernel_wall_ms", stats.wall_time_secs() * 1e3));
        }
        self.engines.push(EngineRecord {
            pass,
            graph,
            algorithm,
            initial,
            cardinality: report.cardinality,
            wall_s: report.wall_seconds,
            modelled_s: report.modelled_device_seconds,
            device: report.device_stats.clone(),
            resolve,
        });
        self.matchings.insert(graph, report.matching);
        Ok(())
    }
}

/// `graph.build` (`BipartiteCsr::from_edges` on the graph's edge list)
/// and `graph.fingerprint`, as the server does for an uploaded or inline
/// graph.
fn build_and_fingerprint(t: &mut Tracer, rid: u64, csr: &BipartiteCsr) -> Result<(), String> {
    let edges: Vec<(VertexId, VertexId)> = csr.edges().collect();
    let (rows, cols) = (csr.num_rows(), csr.num_cols());
    let (built, _) =
        t.span(rid, Some(rid), "graph.build", || BipartiteCsr::from_edges(rows, cols, &edges));
    built.map_err(|e| format!("rebuilding a graph from its edges: {e}"))?;
    t.span(rid, Some(rid), "graph.fingerprint", || csr.fingerprint());
    Ok(())
}

/// Spans and layer records of a traced run.
#[derive(Default)]
pub struct TraceOutput {
    /// Every span of every client.
    pub spans: Vec<Span>,
    /// One record per replayed solve.
    pub engines: Vec<EngineRecord>,
    /// Request id → latency class.
    pub kinds: HashMap<u64, Kind>,
}

impl TraceOutput {
    /// Durations (ms) of the spans named `name`.
    fn ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Self time per span name, summed (ms), largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let mut by: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            let e = by.entry(s.name).or_default();
            e.0 += ns as f64 / 1e6;
            e.1 += 1;
        }
        let mut v: Vec<_> = by.into_iter().map(|(k, (ms, n))| (k, ms, n)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// The span dump: one JSON object per line, with self times.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            out.push_str(
                &serde_json::to_string(&s.to_value(ns)).expect("JSON emission cannot fail"),
            );
            out.push('\n');
        }
        out
    }

    /// Per-kernel (raw name) counters summed over the first pass's solves.
    pub fn first_pass_kernels(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for e in self.engines.iter().filter(|e| e.pass == 0) {
            if let Some(d) = &e.device {
                total.merge(d);
            }
        }
        total
    }
}

/// Sum over one pass of the solves whose algorithm label satisfies `pick`:
/// (wall s, modelled s, launches).
fn engine_sums(engines: &[EngineRecord], pick: impl Fn(&str) -> bool) -> (f64, f64, f64) {
    let mut sums = (0.0, 0.0, 0.0);
    for e in engines.iter().filter(|e| e.pass == 0 && pick(&e.algorithm.to_string())) {
        sums.0 += e.wall_s;
        sums.1 += e.modelled_s.unwrap_or(0.0);
        sums.2 += e.device.as_ref().map_or(0, DeviceStats::total_launches) as f64;
    }
    sums
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Modelled device seconds over the GPU solves of every client's first
/// pass, from the server's responses.
pub fn modelled_device_s(run: &RunResult) -> f64 {
    run.samples.iter().filter(|s| s.pass == 0).filter_map(|s| s.modelled_s).sum()
}

/// The per-layer metrics: span-based ones from `traced`, response- and
/// stats-based ones (queue, shard, cache) from `untraced`, whose arrival
/// pattern the replays do not disturb.
pub fn per_layer_metrics(untraced: &RunResult, traced: &RunResult) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    let empty = TraceOutput::default();
    let t = traced.trace.as_ref().unwrap_or(&empty);
    let p50 = |v: &[f64]| Summary::of(v).p50;

    // Wire vs server, per request kind.
    let mut server_ms: HashMap<u64, f64> = HashMap::new();
    for s in t.spans.iter().filter(|s| s.name == "server.handle") {
        server_ms.insert(s.request, s.duration_ns() as f64 / 1e6);
    }
    for (kind, wire, server) in [
        (Kind::Solve, "wire.solve_p50_ms", "server.solve_p50_ms"),
        (Kind::Write, "wire.write_p50_ms", "server.write_p50_ms"),
        (Kind::Stats, "wire.stats_p50_ms", "server.stats_p50_ms"),
    ] {
        let (mut w, mut sv) = (Vec::new(), Vec::new());
        for s in t.spans.iter().filter(|s| s.name == "request" && t.kinds.get(&s.id) == Some(&kind))
        {
            let handle = server_ms.get(&s.id).copied().unwrap_or(0.0);
            w.push(s.duration_ns() as f64 / 1e6 - handle);
            sv.push(handle);
        }
        m.insert(wire, p50(&w));
        m.insert(server, p50(&sv));
    }

    // Protocol.
    let attr = |s: &Span, key: &str| s.attrs.iter().find(|a| a.0 == key).map_or(0.0, |a| a.1);
    m.insert("proto.parse_p50_us", p50(&t.ms("proto.parse")) * 1e3);
    let graph_parses: Vec<&Span> =
        t.spans.iter().filter(|s| s.name == "proto.parse" && attr(s, "graph") > 0.0).collect();
    let bytes: f64 = graph_parses.iter().map(|s| attr(s, "bytes")).sum();
    let secs: f64 = graph_parses.iter().map(|s| s.duration_ns() as f64 / 1e9).sum();
    m.insert("proto.parse_mb_s", ratio(bytes / 1e6, secs));
    m.insert("proto.render_p50_us", p50(&t.ms("proto.render")) * 1e3);
    let kb = |name: &str| {
        let v: Vec<f64> =
            t.spans.iter().filter(|s| s.name == name).map(|s| attr(s, "bytes") / 1024.0).collect();
        p50(&v)
    };
    m.insert("proto.request_kb_p50", kb("request"));
    m.insert("proto.response_kb_p50", kb("server.handle"));

    // Service, shards, queue and cache, from the untraced run.
    let solves: Vec<_> = untraced.samples.iter().filter(|s| s.kind == Kind::Solve).collect();
    let queue: Vec<f64> = solves.iter().filter_map(|s| s.queue_s).map(|q| q * 1e3).collect();
    let queue = Summary::of(&queue);
    m.insert("queue.wait_p50_ms", queue.p50);
    m.insert("queue.wait_p90_ms", queue.p90);
    let busy: Vec<f64> = solves.iter().filter_map(|s| s.service_s).map(|q| q * 1e3).collect();
    m.insert("service.busy_p50_ms", p50(&busy));
    if let Some(stats) = &untraced.stats {
        let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        m.insert("queue.peak_depth", num(stats, "peak_queue_depth"));
        if let Some(cache) = stats.get("cache") {
            let (hits, misses) = (num(cache, "hits"), num(cache, "misses"));
            m.insert("cache.hit_ratio", ratio(hits, hits + misses));
            m.insert("cache.evictions", num(cache, "evictions"));
        }
    }
    if let Some(shards) = &untraced.shards {
        let done: Vec<f64> = shards
            .iter()
            .map(|s| {
                s.get("stats")
                    .and_then(|v| v.get("completed"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            })
            .collect();
        let mean = done.iter().sum::<f64>() / done.len().max(1) as f64;
        m.insert("shard.job_skew", ratio(done.iter().copied().fold(0.0, f64::max), mean));
    }

    // Graph.
    m.insert("graph.build_p50_ms", p50(&t.ms("graph.build")));
    m.insert("graph.fingerprint_p50_us", p50(&t.ms("graph.fingerprint")) * 1e3);
    m.insert("graph.apply_delta_p50_ms", p50(&t.ms("graph.apply_delta")));

    // Init and engines, summed over one pass.
    m.insert("init.cheap_p50_ms", p50(&t.ms("core.init")));
    let cold: Vec<_> = t.engines.iter().filter(|e| e.pass == 0 && e.resolve.is_none()).collect();
    let initial: usize = cold.iter().map(|e| e.initial).sum();
    let fin: usize = cold.iter().map(|e| e.cardinality).sum();
    m.insert("init.matched_share", ratio(initial as f64, fin as f64));
    for (prefix, pick) in [
        ("engine.gpr", (|l: &str| l.starts_with("G-PR")) as fn(&str) -> bool),
        ("engine.ghkdw", |l: &str| l.starts_with("G-HKDW")),
    ] {
        let (wall, modelled, launches) = engine_sums(&t.engines, pick);
        m.insert(metric_name(format!("{prefix}.wall_s")), wall);
        m.insert(metric_name(format!("{prefix}.modelled_s")), modelled);
        m.insert(metric_name(format!("{prefix}.wall_per_modelled")), ratio(wall, modelled));
        m.insert(metric_name(format!("{prefix}.launches")), launches);
    }
    m.insert("cpu.pdbfs.wall_s", engine_sums(&t.engines, |l| l.starts_with("P-DBFS")).0);
    m.insert("cpu.pr.wall_s", engine_sums(&t.engines, |l| l.starts_with("PR@")).0);

    // Resolve.
    let resolves: Vec<_> = t.engines.iter().filter_map(|e| e.resolve.map(|r| (e, r))).collect();
    let warm = resolves.iter().filter(|(_, r)| !r.0).count();
    m.insert("resolve.warm_share", ratio(warm as f64, resolves.len() as f64));
    m.insert(
        "resolve.frontier_p50",
        p50(&resolves.iter().map(|(_, r)| r.1 as f64).collect::<Vec<_>>()),
    );
    m.insert(
        "resolve.rounds_p50",
        p50(&resolves.iter().map(|(_, r)| r.2 as f64).collect::<Vec<_>>()),
    );
    m.insert("resolve.wall_p50_ms", p50(&t.ms("core.resolve")));
    let modelled: Vec<f64> =
        resolves.iter().filter_map(|(e, _)| e.modelled_s).map(|s| s * 1e3).collect();
    m.insert("resolve.modelled_p50_ms", p50(&modelled));

    // Kernels, summed over one pass.
    let kernels = t.first_pass_kernels();
    let mut groups: BTreeMap<&str, (f64, f64, f64)> = BTreeMap::new();
    for (name, k) in &kernels.kernels {
        let g = groups.entry(kernel_group(name)).or_default();
        g.0 += k.wall_time_ns / 1e6;
        g.1 += k.modelled_time_ns / 1e6;
        g.2 += k.launches as f64;
    }
    for group in KERNEL_GROUPS.iter().copied().chain(["other"]) {
        let (wall, modelled, launches) = groups.get(group).copied().unwrap_or_default();
        m.insert(metric_name(format!("kernel.{group}.wall_ms")), wall);
        m.insert(metric_name(format!("kernel.{group}.modelled_ms")), modelled);
        m.insert(metric_name(format!("kernel.{group}.wall_per_modelled")), ratio(wall, modelled));
        m.insert(metric_name(format!("kernel.{group}.launches")), launches);
    }
    m.insert("kernel.outliers", kernel_outliers(&kernels).len() as f64);
    m.insert("gpu.modelled_device_s", modelled_device_s(untraced));

    // Tracing overhead: the traced run's end-to-end figures against the
    // untraced run's.
    let solve_p50 = |r: &RunResult| {
        Summary::of(
            &r.samples.iter().filter(|s| s.kind == Kind::Solve).map(|s| s.ms).collect::<Vec<_>>(),
        )
        .p50
    };
    let rps = |r: &RunResult| ratio(r.samples.iter().filter(|s| s.ok).count() as f64, r.wall_s);
    m.insert(
        "trace.solve_p50_overhead_pct",
        (ratio(solve_p50(traced), solve_p50(untraced)) - 1.0) * 100.0,
    );
    m.insert("trace.throughput_overhead_pct", (1.0 - ratio(rps(traced), rps(untraced))) * 100.0);
    m
}

/// The `PER_LAYER` entry for a name built at run time.
fn metric_name(name: String) -> &'static str {
    let known = PER_LAYER.iter().find(|(k, _)| *k == name).map(|(k, _)| *k);
    known.unwrap_or_else(|| panic!("metric {name} is not in PER_LAYER"))
}

/// Raw kernel names whose wall/model ratio exceeds 3× the median ratio
/// over all kernels with modelled time.
pub fn kernel_outliers(kernels: &DeviceStats) -> Vec<(String, f64)> {
    let ratios: Vec<(String, f64)> = kernels
        .kernels
        .iter()
        .filter(|(_, k)| k.modelled_time_ns > 0.0)
        .map(|(n, k)| (n.clone(), k.wall_time_ns / k.modelled_time_ns))
        .collect();
    let median = Summary::of(&ratios.iter().map(|r| r.1).collect::<Vec<_>>()).p50;
    ratios.into_iter().filter(|r| r.1 > 3.0 * median).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_name_lands_in_one_group() {
        assert_eq!(kernel_group("scan_block"), "scan");
        assert_eq!(kernel_group("scan_uniform_add"), "scan");
        assert_eq!(kernel_group("G-HKDW-DW-KRNL"), "G-HKDW-DW-KRNL");
        assert_eq!(kernel_group("G-PR-SHRKRNL_count"), "other");
    }

    #[test]
    fn per_layer_names_are_unique_and_all_computed() {
        let mut names: Vec<_> = PER_LAYER.iter().map(|p| p.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        let run = || RunResult {
            samples: Vec::new(),
            wall_s: 1.0,
            failures: Vec::new(),
            stats: None,
            shards: None,
            trace: Some(TraceOutput::default()),
        };
        let m = per_layer_metrics(&run(), &run());
        assert_eq!(m.len(), PER_LAYER.len());
    }
}
