//! The three workloads' inputs and request plans, as pure functions of the
//! seed.
//!
//! A plan is one *pass* per client: the sequence of requests that client
//! sends, which the timed loop repeats until the run ends.  Everything the
//! server receives is rendered here, so the request lines (and their
//! digest) are fixed before any socket is opened.

use gpm_core::Algorithm;
use gpm_graph::instances::{self, Scale};
use gpm_graph::{gen, verify, BipartiteCsr, GraphDelta, VertexId};
use gpm_service::proto::{delta_to_fields, fingerprint_to_hex, graph_to_fields};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// The paper's G-PR configuration: shrinking, adaptive global relabeling
/// with k = 0.7.
pub const GPR: &str = "G-PR-Shr@adaptive:0.7";

/// Delta lineage length: forward steps before the walk turns back.  Each
/// lineage then holds `LINEAGE_STEPS + 1` distinct graphs, which together
/// with the warm-up graphs stays below the default 32-graph cache of one
/// shard, so warm-start state is never evicted and modelled seconds repeat.
pub const LINEAGE_STEPS: usize = 8;

/// Share of a lineage head's edges one delta touches.
pub const DELTA_EDGE_SHARE: f64 = 0.001;

/// Which traffic mix to drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's comparison set over the `Scale::Small` mini suite.
    Suite,
    /// Small control, upload and solve requests from two clients.
    Chatter,
    /// Patch-then-solve lineages: the write path and warm-start resolve.
    Delta,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 3] = [Workload::Suite, Workload::Chatter, Workload::Delta];

    /// Closed-loop client threads (one connection each).
    pub fn clients(self) -> usize {
        match self {
            Workload::Suite => 1,
            Workload::Chatter | Workload::Delta => 2,
        }
    }

    /// Scale of the generated corpus, for the run record.
    pub fn scale(self) -> Scale {
        match self {
            Workload::Suite | Workload::Delta => Scale::Small,
            Workload::Chatter => Scale::Tiny,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::Suite => "suite",
            Workload::Chatter => "chatter",
            Workload::Delta => "delta",
        })
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.to_string() == s)
            .ok_or_else(|| format!("unknown workload '{s}': expected suite, chatter or delta"))
    }
}

/// One graph the harness knows: the server sees it by upload, inline, or
/// as a patched child.
#[derive(Debug)]
pub struct Graph {
    /// Instance name (Table I name, or a generated label).
    pub name: String,
    /// The graph.
    pub csr: Arc<BipartiteCsr>,
    /// `csr.fingerprint()`.
    pub fingerprint: u64,
    /// Maximum matching cardinality from the independent oracle.
    pub oracle: usize,
}

/// What one request does.  Graph and delta fields index [`Inputs`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Solve a graph by fingerprint, or shipped inline.
    Solve {
        /// Index into [`Inputs::graphs`].
        graph: usize,
        /// The algorithm.
        algorithm: Algorithm,
        /// Ship the graph in the request instead of naming it.
        inline: bool,
        /// Ask for `row_mates` (checked against the graph when present).
        include_matching: bool,
    },
    /// Re-upload a graph (`put_graph`).
    Put {
        /// Index into [`Inputs::graphs`].
        graph: usize,
    },
    /// Patch `parent` with a delta; the server must answer `child`.
    Patch {
        /// Index into [`Inputs::graphs`].
        parent: usize,
        /// Index into [`Inputs::graphs`].
        child: usize,
        /// Index into [`Inputs::deltas`].
        delta: usize,
    },
    /// The `stats` control request.
    Stats,
}

/// Kinds the end-to-end latencies are split by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `solve`.
    Solve,
    /// `put_graph` and `patch_graph`.
    Write,
    /// `stats`.
    Stats,
}

impl Op {
    /// The latency class this request belongs to.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Solve { .. } => Kind::Solve,
            Op::Put { .. } | Op::Patch { .. } => Kind::Write,
            Op::Stats => Kind::Stats,
        }
    }
}

/// A request ready to send: what it does, its fields (handed to
/// `Client::request`), and the exact line the client writes for them.
#[derive(Clone, Debug)]
pub struct Request {
    /// What the request does.
    pub op: Op,
    /// The request object.
    pub fields: Vec<(String, Value)>,
    /// `serde_json::to_string` of the fields, as the client sends it.
    pub line: String,
}

/// Everything a workload sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// Every graph requests refer to.
    pub graphs: Vec<Graph>,
    /// Graphs uploaded during set-up (indices into `graphs`).
    pub corpus: Vec<usize>,
    /// Deltas `Op::Patch` refers to.
    pub deltas: Vec<GraphDelta>,
    /// One pass per client.
    pub plans: Vec<Vec<Request>>,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`: graphs, oracles and
    /// per-client plans.  Deterministic.
    pub fn generate(workload: Workload, seed: u64, nproc: usize) -> Inputs {
        let mut b = Builder::default();
        let plans = match workload {
            Workload::Suite => suite(&mut b, seed, nproc),
            Workload::Chatter => chatter(&mut b, seed),
            Workload::Delta => delta(&mut b, seed),
        };
        let plans =
            plans.into_iter().map(|ops| ops.into_iter().map(|op| b.render(op)).collect()).collect();
        Inputs { workload, graphs: b.graphs, corpus: b.corpus, deltas: b.deltas, plans }
    }

    /// FNV-1a digest of every client's pass, line by line.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for (client, plan) in self.plans.iter().enumerate() {
            for byte in format!("client {client}\n")
                .bytes()
                .chain(plan.iter().flat_map(|r| r.line.bytes().chain(std::iter::once(b'\n'))))
            {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }
}

#[derive(Default)]
struct Builder {
    graphs: Vec<Graph>,
    corpus: Vec<usize>,
    deltas: Vec<GraphDelta>,
}

impl Builder {
    fn add(&mut self, name: String, csr: BipartiteCsr) -> usize {
        let oracle = verify::maximum_matching_cardinality(&csr);
        let fingerprint = csr.fingerprint();
        self.graphs.push(Graph { name, csr: Arc::new(csr), fingerprint, oracle });
        self.graphs.len() - 1
    }

    fn upload(&mut self, name: String, csr: BipartiteCsr) -> usize {
        let i = self.add(name, csr);
        self.corpus.push(i);
        i
    }

    fn render(&self, op: Op) -> Request {
        let s = |v: &str| Value::Str(v.to_string());
        let mut fields = Vec::new();
        match op {
            Op::Solve { graph, algorithm, inline, include_matching } => {
                fields.push(("op".to_string(), s("solve")));
                fields.push(("algorithm".to_string(), s(&algorithm.to_string())));
                fields.push(("init".to_string(), s("cheap")));
                if include_matching {
                    fields.push(("include_matching".to_string(), Value::Bool(true)));
                }
                if inline {
                    fields.extend(graph_to_fields(&self.graphs[graph].csr));
                } else {
                    let fp = fingerprint_to_hex(self.graphs[graph].fingerprint);
                    fields.push(("fingerprint".to_string(), s(&fp)));
                }
            }
            Op::Put { graph } => {
                fields.push(("op".to_string(), s("put_graph")));
                fields.extend(graph_to_fields(&self.graphs[graph].csr));
            }
            Op::Patch { parent, delta, .. } => {
                fields.push(("op".to_string(), s("patch_graph")));
                let fp = fingerprint_to_hex(self.graphs[parent].fingerprint);
                fields.push(("parent".to_string(), s(&fp)));
                fields.extend(delta_to_fields(&self.deltas[delta]));
            }
            Op::Stats => fields.push(("op".to_string(), s("stats"))),
        }
        let line =
            serde_json::to_string(&Value::Map(fields.clone())).expect("JSON emission cannot fail");
        Request { op, fields, line }
    }
}

/// Parses one of the benchmark's own algorithm labels.
pub fn algorithm(label: &str) -> Algorithm {
    label.parse().expect("built-in algorithm labels parse")
}

/// In-place Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One pass: every mini-suite instance × the paper's comparison set, in a
/// seeded order.  The corpus itself is the fixed `Scale::Small` mini suite.
fn suite(b: &mut Builder, seed: u64, nproc: usize) -> Vec<Vec<Op>> {
    let set = [GPR.to_string(), "G-HKDW".to_string(), format!("P-DBFS@{nproc}"), "PR@0.5".into()];
    let mut ops = Vec::new();
    for spec in instances::mini_suite() {
        let csr = spec.generate(Scale::Small).expect("mini-suite instances generate");
        let graph = b.upload(spec.name.to_string(), csr);
        for label in &set {
            ops.push(Op::Solve {
                graph,
                algorithm: algorithm(label),
                inline: false,
                include_matching: true,
            });
        }
    }
    shuffle(&mut ops, &mut StdRng::seed_from_u64(seed ^ 0x5017e));
    vec![ops]
}

/// Rows (and columns) of chatter's generated graphs.
const CHATTER_ROWS: usize = 256;

/// Two clients, 40 requests each per pass: 16 solves by fingerprint, 8
/// inline solves, 8 re-uploads, 8 `stats`.  Across both clients a pass
/// solves every corpus graph once with G-PR and once with HK.
fn chatter(b: &mut Builder, seed: u64) -> Vec<Vec<Op>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a7_7e40);
    for spec in instances::mini_suite() {
        let csr = spec.generate(Scale::Tiny).expect("mini-suite instances generate");
        b.upload(spec.name.to_string(), csr);
    }
    for i in 0..8 {
        let csr = gen::uniform_random(CHATTER_ROWS, CHATTER_ROWS, 4 * CHATTER_ROWS, rng.gen())
            .expect("uniform graphs generate");
        b.upload(format!("uniform-{i}"), csr);
    }
    let algorithms = [algorithm(GPR), algorithm("HK")];
    let mut cached: Vec<Op> = b
        .corpus
        .iter()
        .flat_map(|&graph| {
            algorithms.map(|algorithm| Op::Solve {
                graph,
                algorithm,
                inline: false,
                include_matching: false,
            })
        })
        .collect();
    shuffle(&mut cached, &mut rng);
    let corpus = b.corpus.clone();
    (0..2)
        .map(|client| {
            let mut ops = cached[client * 16..(client + 1) * 16].to_vec();
            for i in 0..8 {
                let csr =
                    gen::uniform_random(CHATTER_ROWS, CHATTER_ROWS, 4 * CHATTER_ROWS, rng.gen())
                        .expect("uniform graphs generate");
                let graph = b.add(format!("inline-{client}-{i}"), csr);
                let algorithm = algorithms[i % 2];
                ops.push(Op::Solve { graph, algorithm, inline: true, include_matching: false });
                ops.push(Op::Put { graph: corpus[rng.gen_range(0..corpus.len())] });
                ops.push(Op::Stats);
            }
            shuffle(&mut ops, &mut rng);
            ops
        })
        .collect()
}

/// A seeded delta touching `DELTA_EDGE_SHARE` of `g`'s edges: half
/// removals of existing edges, half insertions of absent ones.
fn random_delta(g: &BipartiteCsr, rng: &mut StdRng) -> GraphDelta {
    let touched = ((g.num_edges() as f64 * DELTA_EDGE_SHARE).round() as usize).max(2);
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut removes = HashSet::new();
    while removes.len() < touched / 2 {
        removes.insert(edges[rng.gen_range(0..edges.len())]);
    }
    let mut inserts = HashSet::new();
    while inserts.len() < touched - touched / 2 {
        let r = rng.gen_range(0..g.num_rows()) as VertexId;
        let c = rng.gen_range(0..g.num_cols()) as VertexId;
        if !g.has_edge(r, c) {
            inserts.insert((r, c));
        }
    }
    // Sorted, so the delta does not depend on the hash sets' order.
    let mut removes: Vec<_> = removes.into_iter().collect();
    let mut inserts: Vec<_> = inserts.into_iter().collect();
    removes.sort_unstable();
    inserts.sort_unstable();
    let mut delta = GraphDelta::new();
    delta.extend_removes(removes).extend_inserts(inserts);
    delta
}

/// The delta that undoes `delta` (which only inserts and removes edges).
fn inverse(delta: &GraphDelta) -> GraphDelta {
    let mut undo = GraphDelta::new();
    undo.extend_removes(delta.inserts().iter().copied())
        .extend_inserts(delta.removes().iter().copied());
    undo
}

/// Lineage roots, one per client: a perfectly matchable mesh and a
/// deficient Kronecker graph.
const DELTA_ROOTS: [&str; 2] = ["delaunay_n20", "kron_g500-logn20"];

/// Two clients, each walking its own lineage: `LINEAGE_STEPS` seeded
/// deltas forward from the root, then their inverses back to it.  Every
/// step patches the head and solves the child by fingerprint.
fn delta(b: &mut Builder, seed: u64) -> Vec<Vec<Op>> {
    let gpr = algorithm(GPR);
    DELTA_ROOTS
        .iter()
        .enumerate()
        .map(|(client, name)| {
            let mut rng = StdRng::seed_from_u64((seed ^ 0xde17a) + client as u64);
            let spec = instances::by_name(name).expect("lineage roots are Table I instances");
            let root = spec.generate(Scale::Small).expect("lineage roots generate");
            let mut chain = vec![b.upload(name.to_string(), root)];
            let mut forward = Vec::new();
            for step in 1..=LINEAGE_STEPS {
                let head = *chain.last().expect("chain starts at the root");
                let delta = random_delta(&b.graphs[head].csr, &mut rng);
                let child = b.graphs[head].csr.apply_delta(&delta).expect("seeded deltas apply");
                b.deltas.push(delta);
                let d = b.deltas.len() - 1;
                chain.push(b.add(format!("{name}+{step}"), child));
                forward.push(d);
            }
            let mut ops = Vec::new();
            let mut step = |parent: usize, child: usize, delta: usize| {
                ops.push(Op::Patch { parent, child, delta });
                ops.push(Op::Solve {
                    graph: child,
                    algorithm: gpr,
                    inline: false,
                    include_matching: false,
                });
            };
            for (k, &d) in forward.iter().enumerate() {
                step(chain[k], chain[k + 1], d);
            }
            let mut undo = Vec::new();
            for (k, &d) in forward.iter().enumerate().rev() {
                undo.push((chain[k + 1], chain[k], inverse(&b.deltas[d])));
            }
            for (parent, child, delta) in undo {
                b.deltas.push(delta);
                step(parent, child, b.deltas.len() - 1);
            }
            ops
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(inputs: &Inputs) -> Vec<Vec<String>> {
        inputs.plans.iter().map(|p| p.iter().map(|r| r.line.clone()).collect()).collect()
    }

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 7, 2);
            let b = Inputs::generate(workload, 7, 2);
            assert_eq!(lines(&a), lines(&b), "{workload}");
            assert_eq!(a.digest(), b.digest(), "{workload}");
            let c = Inputs::generate(workload, 8, 2);
            assert_ne!(a.digest(), c.digest(), "{workload}: another seed, same requests");
            println!("{workload}: seed 7 request digest {:016x}", a.digest());
        }
    }

    #[test]
    fn mixes_have_the_stated_shape() {
        let suite = Inputs::generate(Workload::Suite, 1, 2);
        assert_eq!(suite.plans.len(), 1);
        assert_eq!(suite.plans[0].len(), 32);
        assert!(suite.plans[0].iter().any(|r| r.line.contains("\"P-DBFS@2\"")));

        let chatter = Inputs::generate(Workload::Chatter, 1, 2);
        assert_eq!(chatter.corpus.len(), 16);
        for plan in &chatter.plans {
            assert_eq!(plan.len(), 40);
            let count = |f: &dyn Fn(&Op) -> bool| plan.iter().filter(|r| f(&r.op)).count();
            assert_eq!(count(&|op| matches!(op, Op::Solve { inline: false, .. })), 16);
            assert_eq!(count(&|op| matches!(op, Op::Solve { inline: true, .. })), 8);
            assert_eq!(count(&|op| matches!(op, Op::Put { .. })), 8);
            assert_eq!(count(&|op| matches!(op, Op::Stats)), 8);
        }

        let delta = Inputs::generate(Workload::Delta, 1, 2);
        for plan in &delta.plans {
            assert_eq!(plan.len(), 4 * LINEAGE_STEPS);
            // The walk returns to its root: the last solve is of the first
            // patch's parent.
            let Op::Patch { parent: root, .. } = plan[0].op else { panic!("starts with a patch") };
            let Op::Solve { graph, .. } = plan[plan.len() - 1].op else { panic!("ends solving") };
            assert_eq!(graph, root);
        }
    }

    #[test]
    fn deltas_touch_the_stated_share_and_apply() {
        let delta = Inputs::generate(Workload::Delta, 3, 2);
        for request in delta.plans.iter().flatten() {
            if let Op::Patch { parent, child, delta: d } = request.op {
                let parent = &delta.graphs[parent].csr;
                let d = &delta.deltas[d];
                let touched = d.inserts().len() + d.removes().len();
                let want = (parent.num_edges() as f64 * DELTA_EDGE_SHARE).round() as usize;
                assert_eq!(touched, want.max(2));
                let patched = parent.apply_delta(d).unwrap().fingerprint();
                assert_eq!(patched, delta.graphs[child].fingerprint);
            }
        }
    }
}
