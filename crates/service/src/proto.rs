//! The JSON-lines wire protocol: one JSON object per line, request in,
//! response out.
//!
//! Requests (`op` selects the operation):
//!
//! * `{"op":"put_graph","rows":M,"cols":N,"edges":[[r,c],…]}` — upload a
//!   graph (0-based endpoints) into the cache.  Response carries its
//!   `fingerprint` as a `0x…` hex string (JSON numbers cannot hold all
//!   64-bit values exactly).
//! * `{"op":"solve","algorithm":"G-PR-Shr@adaptive:0.7","init":"cheap",
//!   "fingerprint":"0x…"}` — solve a cached graph; or inline the graph with
//!   `rows`/`cols`/`edges` instead of `fingerprint`.  `init` is optional
//!   (default `cheap`); `"include_matching":true` adds the row-mate array.
//!   Scheduling fields, all optional: `"priority"` (0–255, higher dequeues
//!   first), `"deadline_ms"` (queue + solve budget in milliseconds), and
//!   `"tag"` (a client-chosen label the job can be cancelled by from any
//!   connection).  The response — success or error — carries the
//!   server-assigned `job_id` for correlation.
//! * `{"op":"cancel","job_id":7}` or `{"op":"cancel","tag":"batch-3"}` —
//!   request cancellation of in-flight solves; the response reports how many
//!   jobs were signalled.  Engines stop at worklist-round granularity, so
//!   the cancelled solve fails promptly with a `cancelled` error.
//! * `{"op":"patch_graph","parent":"0x…","insert":[[r,c],…],
//!   "remove":[[r,c],…],"add_rows":n,"add_cols":n,"clear_rows":[r,…],
//!   "clear_cols":[c,…]}` — apply a delta to the cached graph `parent`
//!   without re-uploading it; every delta field is optional.  The response
//!   echoes `parent` and carries the patched child's `fingerprint` — solve
//!   against either.  The child is cached on its chain's home shard
//!   together with the delta, so solving it warm-starts from the parent's
//!   last matching when one is on file.
//! * `{"op":"stats"}` — service counters snapshot (the fold across all
//!   shards).
//! * `{"op":"shards"}` — control plane: one entry per shard with its id,
//!   lifecycle (`draining`), `running` count, and per-shard stats.
//! * `{"op":"drain","shard":2}` — control plane: stop placing jobs on
//!   shard 2, re-home its queued jobs onto active shards, let its in-flight
//!   jobs finish.  Response reports `requeued`/`kept`/`in_flight`.
//! * `{"op":"rebalance"}` — control plane: move every cached graph to its
//!   home shard (`active[fingerprint mod |active|]`); response reports how
//!   many graphs `moved` across how many `active_shards`.
//! * `{"op":"shutdown"}` — acknowledge, then stop the server.
//!
//! Responses always carry `"ok"`: `{"ok":true,…}` or
//! `{"ok":false,"error":"…"}` (plus `job_id` on solve errors).

use gpm_core::{Algorithm, InitHeuristic};
use gpm_graph::{BipartiteCsr, GraphDelta, VertexId};
use serde::Value;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Upload a graph into the cache.
    PutGraph(BipartiteCsr),
    /// Solve a graph (cached or inline).
    Solve {
        /// The algorithm, parsed from its round-trippable label.
        algorithm: Algorithm,
        /// Initialization heuristic (wire default: `cheap`).
        init: InitHeuristic,
        /// Cached fingerprint or inline graph.
        graph: RequestGraph,
        /// Include the row-mate array in the response.
        include_matching: bool,
        /// Scheduling priority (wire default: 0; higher dequeues first).
        priority: u8,
        /// Optional queue + solve budget in milliseconds.
        deadline_ms: Option<u64>,
        /// Optional client-chosen label for cross-connection cancellation.
        tag: Option<String>,
    },
    /// Cancel in-flight solves by server-assigned id or client tag (at
    /// least one is present).
    Cancel {
        /// The `job_id` a solve response reported.
        job_id: Option<u64>,
        /// The `tag` the solve request carried.
        tag: Option<String>,
    },
    /// Apply a delta to a cached graph, caching the patched child.
    PatchGraph {
        /// Fingerprint of the cached graph the delta applies to.
        parent: u64,
        /// The batched mutation.
        delta: GraphDelta,
    },
    /// Snapshot the service counters.
    Stats,
    /// Snapshot every shard (control plane).
    Shards,
    /// Drain one shard (control plane).
    Drain {
        /// The shard id to drain.
        shard: usize,
    },
    /// Move cached graphs to their home shards (control plane).
    Rebalance,
    /// Stop the server after acknowledging.
    Shutdown,
}

/// How a solve request names its graph.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestGraph {
    /// By cache key.
    Fingerprint(u64),
    /// By value.
    Inline(BipartiteCsr),
}

/// Renders a fingerprint the way the protocol ships it: `0x` + 16 hex
/// digits.
pub fn fingerprint_to_hex(fingerprint: u64) -> String {
    format!("{fingerprint:#018x}")
}

/// Parses a `0x…` fingerprint produced by [`fingerprint_to_hex`] (plain
/// hex without the prefix is accepted too).
pub fn fingerprint_from_hex(s: &str) -> Result<u64, String> {
    let digits = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(digits, 16).map_err(|_| format!("bad fingerprint '{s}': expected hex"))
}

/// Parses one request line.  Errors are human-readable strings ready to be
/// wrapped in an error response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field 'op'".to_string())?;
    match op {
        "put_graph" => Ok(Request::PutGraph(parse_graph(&value)?)),
        "solve" => {
            let algorithm_label = value
                .get("algorithm")
                .and_then(Value::as_str)
                .ok_or_else(|| "solve: missing string field 'algorithm'".to_string())?;
            let algorithm: Algorithm =
                algorithm_label.parse().map_err(|e| format!("solve: {e}"))?;
            let init = match value.get("init").and_then(Value::as_str) {
                Some(label) => label.parse().map_err(|e| format!("solve: {e}"))?,
                None => InitHeuristic::default(),
            };
            let graph = match value.get("fingerprint").and_then(Value::as_str) {
                Some(hex) => RequestGraph::Fingerprint(fingerprint_from_hex(hex)?),
                None => RequestGraph::Inline(parse_graph(&value)?),
            };
            let include_matching =
                value.get("include_matching").and_then(Value::as_bool).unwrap_or(false);
            let priority = match value.get("priority") {
                None => 0,
                Some(v) => v
                    .as_u64()
                    .and_then(|n| u8::try_from(n).ok())
                    .ok_or_else(|| "solve: 'priority' must be an integer in 0..=255".to_string())?,
            };
            let deadline_ms = match value.get("deadline_ms") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    "solve: 'deadline_ms' must be a non-negative integer".to_string()
                })?),
            };
            let tag = value.get("tag").and_then(Value::as_str).map(str::to_string);
            Ok(Request::Solve {
                algorithm,
                init,
                graph,
                include_matching,
                priority,
                deadline_ms,
                tag,
            })
        }
        "cancel" => {
            let job_id = match value.get("job_id") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    "cancel: 'job_id' must be a non-negative integer".to_string()
                })?),
            };
            let tag = value.get("tag").and_then(Value::as_str).map(str::to_string);
            if job_id.is_none() && tag.is_none() {
                return Err("cancel: provide 'job_id' and/or 'tag'".to_string());
            }
            Ok(Request::Cancel { job_id, tag })
        }
        "patch_graph" => {
            let parent = value
                .get("parent")
                .and_then(Value::as_str)
                .ok_or_else(|| "patch_graph: missing string field 'parent'".to_string())?;
            Ok(Request::PatchGraph {
                parent: fingerprint_from_hex(parent)?,
                delta: parse_delta(&value)?,
            })
        }
        "stats" => Ok(Request::Stats),
        "shards" => Ok(Request::Shards),
        "drain" => {
            let shard = value
                .get("shard")
                .and_then(Value::as_u64)
                .ok_or_else(|| "drain: missing non-negative integer field 'shard'".to_string())?;
            Ok(Request::Drain { shard: shard as usize })
        }
        "rebalance" => Ok(Request::Rebalance),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op '{other}': expected put_graph, patch_graph, solve, cancel, stats, shards, \
             drain, rebalance, or shutdown"
        )),
    }
}

/// Extracts `rows`/`cols`/`edges` fields into a validated graph.
fn parse_graph(value: &Value) -> Result<BipartiteCsr, String> {
    let dim = |field: &str| -> Result<usize, String> {
        value
            .get(field)
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("missing non-negative integer field '{field}'"))
    };
    let rows = dim("rows")?;
    let cols = dim("cols")?;
    let edges_value = value
        .get("edges")
        .and_then(Value::as_seq)
        .ok_or_else(|| "missing array field 'edges'".to_string())?;
    let mut edges = Vec::with_capacity(edges_value.len());
    for (i, pair) in edges_value.iter().enumerate() {
        let pair = pair.as_seq().filter(|p| p.len() == 2).ok_or_else(|| {
            format!("edges[{i}]: expected a [row, col] pair of non-negative integers")
        })?;
        let endpoint = |v: &Value, which: &str| -> Result<VertexId, String> {
            v.as_u64()
                .and_then(|n| VertexId::try_from(n).ok())
                .ok_or_else(|| format!("edges[{i}]: bad {which} endpoint"))
        };
        edges.push((endpoint(&pair[0], "row")?, endpoint(&pair[1], "column")?));
    }
    BipartiteCsr::from_edges(rows, cols, &edges).map_err(|e| format!("bad graph: {e}"))
}

/// Extracts the (all-optional) delta fields of a `patch_graph` request:
/// `insert`/`remove` (arrays of `[row, col]` pairs), `add_rows`/`add_cols`
/// (non-negative integers), `clear_rows`/`clear_cols` (arrays of vertex
/// ids).
fn parse_delta(value: &Value) -> Result<GraphDelta, String> {
    let id = |v: &Value, what: &str| -> Result<VertexId, String> {
        v.as_u64()
            .and_then(|n| VertexId::try_from(n).ok())
            .ok_or_else(|| format!("{what}: expected a non-negative vertex id"))
    };
    let pairs = |field: &str| -> Result<Vec<(VertexId, VertexId)>, String> {
        let Some(seq) = value.get(field) else { return Ok(Vec::new()) };
        let seq = seq
            .as_seq()
            .ok_or_else(|| format!("patch_graph: '{field}' must be an array of [row, col]"))?;
        seq.iter()
            .enumerate()
            .map(|(i, pair)| {
                let pair = pair.as_seq().filter(|p| p.len() == 2).ok_or_else(|| {
                    format!("{field}[{i}]: expected a [row, col] pair of non-negative integers")
                })?;
                Ok((
                    id(&pair[0], &format!("{field}[{i}] row"))?,
                    id(&pair[1], &format!("{field}[{i}] column"))?,
                ))
            })
            .collect()
    };
    let ids = |field: &str| -> Result<Vec<VertexId>, String> {
        let Some(seq) = value.get(field) else { return Ok(Vec::new()) };
        let seq = seq
            .as_seq()
            .ok_or_else(|| format!("patch_graph: '{field}' must be an array of vertex ids"))?;
        seq.iter().enumerate().map(|(i, v)| id(v, &format!("{field}[{i}]"))).collect()
    };
    let count = |field: &str| -> Result<usize, String> {
        match value.get(field) {
            None => Ok(0),
            Some(v) => v
                .as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| format!("patch_graph: '{field}' must be a non-negative integer")),
        }
    };
    let mut delta = GraphDelta::new();
    delta.add_rows(count("add_rows")?).add_cols(count("add_cols")?);
    delta.extend_inserts(pairs("insert")?);
    delta.extend_removes(pairs("remove")?);
    for r in ids("clear_rows")? {
        delta.clear_row(r);
    }
    for c in ids("clear_cols")? {
        delta.clear_col(c);
    }
    Ok(delta)
}

/// Serializes a delta the way `patch_graph` requests carry it (used by the
/// client).  Empty lists and zero counts are omitted — every field is
/// optional on the wire.
pub fn delta_to_fields(delta: &GraphDelta) -> Vec<(String, Value)> {
    let pair_seq = |edges: &[(VertexId, VertexId)]| {
        Value::Seq(
            edges
                .iter()
                .map(|&(r, c)| Value::Seq(vec![Value::U64(u64::from(r)), Value::U64(u64::from(c))]))
                .collect(),
        )
    };
    let id_seq =
        |ids: &[VertexId]| Value::Seq(ids.iter().map(|&v| Value::U64(u64::from(v))).collect());
    let mut fields = Vec::new();
    if !delta.inserts().is_empty() {
        fields.push(("insert".to_string(), pair_seq(delta.inserts())));
    }
    if !delta.removes().is_empty() {
        fields.push(("remove".to_string(), pair_seq(delta.removes())));
    }
    if delta.added_rows() > 0 {
        fields.push(("add_rows".to_string(), Value::U64(delta.added_rows() as u64)));
    }
    if delta.added_cols() > 0 {
        fields.push(("add_cols".to_string(), Value::U64(delta.added_cols() as u64)));
    }
    if !delta.cleared_rows().is_empty() {
        fields.push(("clear_rows".to_string(), id_seq(delta.cleared_rows())));
    }
    if !delta.cleared_cols().is_empty() {
        fields.push(("clear_cols".to_string(), id_seq(delta.cleared_cols())));
    }
    fields
}

/// Serializes a graph the way requests inline it (used by the client).
pub fn graph_to_fields(graph: &BipartiteCsr) -> Vec<(String, Value)> {
    vec![
        ("rows".to_string(), Value::U64(graph.num_rows() as u64)),
        ("cols".to_string(), Value::U64(graph.num_cols() as u64)),
        (
            "edges".to_string(),
            Value::Seq(
                graph
                    .edges()
                    .map(|(r, c)| {
                        Value::Seq(vec![Value::U64(u64::from(r)), Value::U64(u64::from(c))])
                    })
                    .collect(),
            ),
        ),
    ]
}

/// Builds a `{"ok":true, …}` response line (no trailing newline).
pub fn ok_response(fields: Vec<(String, Value)>) -> String {
    let mut entries = vec![("ok".to_string(), Value::Bool(true))];
    entries.extend(fields);
    render(Value::Map(entries))
}

/// Builds a `{"ok":false,"error":…}` response line (no trailing newline).
pub fn error_response(message: &str) -> String {
    error_response_with(message, Vec::new())
}

/// Builds a `{"ok":false,"error":…, …}` response line carrying extra
/// fields (e.g. the `job_id` of a failed solve, so a client can correlate
/// the error with what it cancelled).
pub fn error_response_with(message: &str, fields: Vec<(String, Value)>) -> String {
    let mut entries = vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(message.to_string())),
    ];
    entries.extend(fields);
    render(Value::Map(entries))
}

fn render(value: Value) -> String {
    serde_json::to_string(&value).expect("JSON emission cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;

    #[test]
    fn fingerprints_round_trip_through_hex() {
        for fp in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(fingerprint_from_hex(&fingerprint_to_hex(fp)).unwrap(), fp);
        }
        assert_eq!(fingerprint_from_hex("ff").unwrap(), 255);
        assert!(fingerprint_from_hex("xyz").is_err());
    }

    #[test]
    fn parses_put_graph_and_round_trips_inline_graphs() {
        let g = gen::uniform_random(6, 7, 20, 3).unwrap();
        let mut fields = vec![("op".to_string(), Value::Str("put_graph".to_string()))];
        fields.extend(graph_to_fields(&g));
        let line = serde_json::to_string(&Value::Map(fields)).unwrap();
        match parse_request(&line).unwrap() {
            Request::PutGraph(parsed) => assert_eq!(parsed, g),
            other => panic!("expected PutGraph, got {other:?}"),
        }
    }

    #[test]
    fn parses_solve_with_defaults_and_options() {
        let r = parse_request(r#"{"op":"solve","algorithm":"HK","fingerprint":"0xff"}"#).unwrap();
        match r {
            Request::Solve {
                algorithm,
                init,
                graph,
                include_matching,
                priority,
                deadline_ms,
                tag,
            } => {
                assert_eq!(algorithm, Algorithm::HopcroftKarp);
                assert_eq!(init, InitHeuristic::Cheap);
                assert_eq!(graph, RequestGraph::Fingerprint(255));
                assert!(!include_matching);
                assert_eq!(priority, 0);
                assert_eq!(deadline_ms, None);
                assert_eq!(tag, None);
            }
            other => panic!("{other:?}"),
        }
        let r = parse_request(
            r#"{"op":"solve","algorithm":"PFP","init":"karp-sipser","rows":2,"cols":2,
               "edges":[[0,0],[1,1]],"include_matching":true}"#,
        )
        .unwrap();
        match r {
            Request::Solve { init, graph, include_matching, .. } => {
                assert_eq!(init, InitHeuristic::KarpSipser);
                assert!(matches!(graph, RequestGraph::Inline(g) if g.num_edges() == 2));
                assert!(include_matching);
            }
            other => panic!("{other:?}"),
        }
        // Wire labels carry the whole algorithm grammar, including the
        // persistent execution-mode suffix.
        let r = parse_request(
            r#"{"op":"solve","algorithm":"G-PR-Shr@adaptive:0.7+queue@resident","fingerprint":"0x1"}"#,
        )
        .unwrap();
        match r {
            Request::Solve { algorithm, .. } => {
                assert_eq!(
                    algorithm,
                    Algorithm::gpr_default()
                        .with_worklist(gpm_core::WorklistMode::AtomicQueue)
                        .with_exec(gpm_core::ExecMode::Persistent)
                );
                assert_eq!(algorithm.to_string(), "G-PR-Shr@adaptive:0.7+queue@resident");
            }
            other => panic!("{other:?}"),
        }
        // CPU algorithms reject the suffix at the wire boundary.
        assert!(parse_request(r#"{"op":"solve","algorithm":"HK@resident","fingerprint":"0x1"}"#)
            .unwrap_err()
            .contains("execution mode"));
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(parse_request(r#"{"op":"shards"}"#).unwrap(), Request::Shards);
        assert_eq!(parse_request(r#"{"op":"rebalance"}"#).unwrap(), Request::Rebalance);
        assert_eq!(
            parse_request(r#"{"op":"drain","shard":2}"#).unwrap(),
            Request::Drain { shard: 2 }
        );
        assert!(parse_request(r#"{"op":"drain"}"#).unwrap_err().contains("'shard'"));
    }

    #[test]
    fn parses_patch_graph_and_round_trips_deltas() {
        let mut delta = GraphDelta::new();
        delta.insert_edge(3, 4).remove_edge(0, 1).add_rows(2).clear_col(5);
        let mut fields = vec![
            ("op".to_string(), Value::Str("patch_graph".to_string())),
            ("parent".to_string(), Value::Str(fingerprint_to_hex(0xabcd))),
        ];
        fields.extend(delta_to_fields(&delta));
        let line = serde_json::to_string(&Value::Map(fields)).unwrap();
        match parse_request(&line).unwrap() {
            Request::PatchGraph { parent, delta: parsed } => {
                assert_eq!(parent, 0xabcd);
                assert_eq!(parsed, delta);
            }
            other => panic!("expected PatchGraph, got {other:?}"),
        }
        // Every delta field is optional: a bare patch is the empty delta.
        match parse_request(r#"{"op":"patch_graph","parent":"0x1"}"#).unwrap() {
            Request::PatchGraph { parent, delta } => {
                assert_eq!(parent, 1);
                assert!(delta.is_empty());
            }
            other => panic!("{other:?}"),
        }
        for (line, want) in [
            (r#"{"op":"patch_graph"}"#, "'parent'"),
            (r#"{"op":"patch_graph","parent":"xyz"}"#, "bad fingerprint"),
            (r#"{"op":"patch_graph","parent":"0x1","insert":[[0]]}"#, "insert[0]"),
            (r#"{"op":"patch_graph","parent":"0x1","clear_rows":[-1]}"#, "clear_rows[0]"),
            (r#"{"op":"patch_graph","parent":"0x1","add_rows":-2}"#, "add_rows"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(want), "{line} → {err}");
        }
    }

    #[test]
    fn parses_scheduling_fields_and_cancel() {
        let r = parse_request(
            r#"{"op":"solve","algorithm":"HK","fingerprint":"0x1",
               "priority":9,"deadline_ms":2500,"tag":"batch-3"}"#,
        )
        .unwrap();
        match r {
            Request::Solve { priority, deadline_ms, tag, .. } => {
                assert_eq!(priority, 9);
                assert_eq!(deadline_ms, Some(2500));
                assert_eq!(tag.as_deref(), Some("batch-3"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op":"cancel","job_id":7}"#).unwrap(),
            Request::Cancel { job_id: Some(7), tag: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"cancel","tag":"batch-3"}"#).unwrap(),
            Request::Cancel { job_id: None, tag: Some("batch-3".to_string()) }
        );
        for (line, want) in [
            (r#"{"op":"solve","algorithm":"HK","fingerprint":"0x1","priority":256}"#, "0..=255"),
            (
                r#"{"op":"solve","algorithm":"HK","fingerprint":"0x1","deadline_ms":-3}"#,
                "deadline_ms",
            ),
            (r#"{"op":"cancel"}"#, "'job_id' and/or 'tag'"),
            (r#"{"op":"cancel","job_id":"seven"}"#, "job_id"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(want), "{line} → {err}");
        }
    }

    #[test]
    fn error_responses_can_carry_extra_fields() {
        let e = error_response_with(
            "job cancelled after 3 rounds",
            vec![("job_id".to_string(), Value::U64(12))],
        );
        assert!(e.starts_with(r#"{"ok":false"#), "{e}");
        assert!(e.contains(r#""job_id":12"#), "{e}");
    }

    #[test]
    fn rejects_malformed_requests_with_explanations() {
        let cases = [
            ("not json", "bad JSON"),
            (r#"{"no_op":1}"#, "missing string field 'op'"),
            (r#"{"op":"fly"}"#, "unknown op 'fly'"),
            (r#"{"op":"solve","algorithm":"G-XX","fingerprint":"0x1"}"#, "cannot parse"),
            // The retired `blocked` worklist mode is no longer a label.
            (
                r#"{"op":"solve","algorithm":"G-PR-Shr@adaptive:0.7+blocked","fingerprint":"0x1"}"#,
                "cannot parse",
            ),
            (
                r#"{"op":"solve","algorithm":"G-HK+blocked@resident","fingerprint":"0x1"}"#,
                "cannot parse",
            ),
            // A compacted BFS frontier runs as the queue: one spelling per
            // program.
            (r#"{"op":"solve","algorithm":"G-HKDW+compacted","fingerprint":"0x1"}"#, "+queue"),
            (r#"{"op":"solve","algorithm":"HK","init":"magic","fingerprint":"0x1"}"#, "magic"),
            (r#"{"op":"solve","algorithm":"HK"}"#, "missing non-negative integer field 'rows'"),
            (r#"{"op":"put_graph","rows":2,"cols":2,"edges":[[0]]}"#, "edges[0]"),
            (r#"{"op":"put_graph","rows":2,"cols":2,"edges":[[0,9]]}"#, "bad graph"),
        ];
        for (line, want) in cases {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(want), "{line} → {err}");
        }
    }

    #[test]
    fn responses_have_the_ok_envelope() {
        let ok = ok_response(vec![("op".to_string(), Value::Str("stats".to_string()))]);
        assert!(ok.starts_with(r#"{"ok":true"#), "{ok}");
        let err = error_response("boom \"quoted\"");
        assert!(err.starts_with(r#"{"ok":false"#), "{err}");
        assert!(err.contains(r#"\"quoted\""#), "{err}");
        // Response lines must be single-line (JSON-lines framing).
        assert!(!ok.contains('\n'));
        assert!(!err.contains('\n'));
    }
}
