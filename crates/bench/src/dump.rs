//! The canonical benchmark dump (`BENCH_<n>.json`) and its regression diff.
//!
//! A dump holds the repo's modelled-seconds trajectory in three sections:
//!
//! * **cells** — the canonical sweep: every Table I family (one
//!   representative instance each, [`mini_suite`]) × G-PR-NoShr and the
//!   paper's comparison algorithms, each GPU one expanded over its
//!   accepted worklists ([`Algorithm::worklists`]) and both execution
//!   modes (launch-per-round and the persistent `@resident` megakernel
//!   loop, keyed apart by the label suffix), plus the delta-vs-cold cells
//!   of the three G-PR programs among them.  GPU cells report
//!   *modelled device seconds* — a deterministic function of the engine's
//!   round/work counters, independent of the host — and are marked
//!   `pinned: true`: CI diffs them strictly across dumps and fails on a
//!   regression over 15 %.  CPU cells report host wall-clock and are
//!   informational only.  Every cell goes through [`measure`]'s (or the
//!   delta sweep's) oracle assert, so a dump is also a correctness sweep.
//! * **deltas** — the warm-resolve vs cold-solve speedups behind the
//!   delta cells.
//! * **retired** — the (algorithm, worklist) pairs whose pinned cells
//!   earlier dumps carry but no sweep produces any more, each with the
//!   reason ([`RETIRED`]).
//!
//! Host wall clock from socket to response is not measured here; the
//! `perfbench/` package owns that clock.  Dumps up to BENCH_10 also carry
//! an in-process `service` section; [`diff`] reads only `cells`, so old
//! dumps stay comparable.
//!
//! Produce a dump with `gpm-bench --dump-bench BENCH_<n>.json`; gate a PR
//! with `gpm-bench --diff BENCH_<a>.json BENCH_<b>.json`.  A pinned cell of
//! the old dump that is missing from the new one is *retired* when it
//! matches a [`RETIRED`] pair; any other missing pinned cell only warns by
//! default (renamed sweeps should not hard-fail a lenient local run) and
//! fails the gate under `--require-pinned`, which CI passes.

use crate::runner::{measure, prepare_instance};
use gpm_core::solver::{self, Algorithm, DevicePolicy, Solver};
use gpm_core::{ExecMode, GprVariant, GrStrategy, SolveCtx};
use gpm_graph::heuristics::cheap_matching;
use gpm_graph::instances::{mini_suite, InstanceSpec, Scale};
use gpm_graph::GraphDelta;
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Dump format version, bumped on breaking shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// One measured cell of the canonical sweep.
#[derive(Clone, Debug, Serialize)]
pub struct BenchCell {
    /// Instance name (the Table I matrix the stand-in represents).
    pub instance: String,
    /// Structural family of the instance.
    pub family: String,
    /// Round-trippable algorithm spec (without the worklist suffix, but
    /// *with* the `@resident` execution-mode suffix when the cell ran the
    /// persistent megakernel loop — persistent cells are distinct keys in
    /// the regression diff).
    pub algorithm: String,
    /// Worklist mode (`dense` / `compacted` / `queue`) or
    /// `host` for CPU algorithms.
    pub worklist: String,
    /// Comparable seconds: modelled device time for GPU cells, host
    /// wall-clock for CPU cells.
    pub seconds: f64,
    /// Host wall-clock seconds (informational).
    pub wall_seconds: f64,
    /// `true` iff `seconds` is deterministic (modelled) and therefore
    /// diffed strictly by the CI regression gate.
    pub pinned: bool,
}

/// One delta-vs-cold comparison: the same patched graph solved cold (from
/// the cheap initial matching) and warm (the parent's matching repaired
/// through the delta by [`Solver::resolve`]), by one G-PR program (its
/// worklist names it: `dense` is G-PR-NoShr, the others G-PR-Shr).
#[derive(Clone, Debug, Serialize)]
pub struct DeltaComparison {
    /// Parent instance name (a Table I family representative).
    pub instance: String,
    /// Structural family of the instance.
    pub family: String,
    /// Worklist mode of both measurements.
    pub worklist: String,
    /// Churn as a fraction of the parent's edges (`0.0001` = 0.01 %).
    pub churn_fraction: f64,
    /// Edges the delta actually touched.
    pub touched_edges: usize,
    /// Modelled device seconds of the cold solve of the patched graph.
    pub cold_seconds: f64,
    /// Modelled device seconds of the warm resolve.
    pub warm_seconds: f64,
    /// `cold_seconds / warm_seconds`, the headline ratio (>1 means the warm
    /// resolve won).  A zero-cost warm resolve divides by a small epsilon so
    /// the JSON stays finite.
    pub speedup: f64,
    /// `true` when the churn bound tripped the fallback and the "warm"
    /// measurement is really a cold solve under the resolve API.
    pub fell_back_to_cold: bool,
}

/// A retired (algorithm, worklist) pair: the pinned cells of earlier dumps
/// that no sweep produces any more.  A cell matches when its `algorithm`,
/// stripped of a `cold(…)` / `resolve(…)` wrapper and of the `@resident`
/// suffix, equals `algorithm`, and its worklist equals `worklist`.
#[derive(Clone, Debug, Serialize)]
pub struct RetiredPair {
    /// Algorithm spec without worklist or execution-mode suffix.
    pub algorithm: &'static str,
    /// Worklist mode of the retired cells.
    pub worklist: &'static str,
    /// Why no sweep produces these cells any more.
    pub reason: &'static str,
}

/// Every retired pair, written to each dump's `retired` section.
pub const RETIRED: [RetiredPair; 4] = [
    RetiredPair { algorithm: "G-PR-Shr@adaptive:0.7", worklist: "blocked", reason: BLOCKED },
    RetiredPair { algorithm: "G-HKDW", worklist: "blocked", reason: BLOCKED },
    RetiredPair {
        algorithm: "G-HKDW",
        worklist: "compacted",
        reason: "a compacted BFS frontier runs as the atomic-append list, so these cells \
                 equal G-HKDW + queue",
    },
    RetiredPair {
        algorithm: "G-PR-Shr@adaptive:0.7",
        worklist: "dense",
        reason: "G-PR-Shr on the dense worklist never shrinks, so it is G-PR-NoShr: the \
                 G-PR-NoShr@adaptive:0.7 + dense cells carry these values",
    },
];

const BLOCKED: &str = "the blocked worklist mode was deleted; BENCH_10 is its last dump";

/// A complete dump.
#[derive(Clone, Debug, Serialize)]
pub struct BenchDump {
    /// Dump format version ([`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Instance scale the sweep ran at.
    pub scale: String,
    /// The canonical sweep (plus, from BENCH_8 on, the delta-vs-cold cells;
    /// both halves of every comparison are pinned — modelled seconds).
    pub cells: Vec<BenchCell>,
    /// The delta-vs-cold summary: speedups and fallback flags per
    /// (family × churn × G-PR program), backing the cells.
    pub deltas: Vec<DeltaComparison>,
    /// The retired pairs ([`RETIRED`]) with their reasons.
    pub retired: Vec<RetiredPair>,
}

/// A cell's key fields: the algorithm spec without its worklist suffix, and
/// the worklist label (`host` for CPU algorithms).
fn cell_key(algorithm: Algorithm) -> (String, &'static str) {
    match algorithm.worklist() {
        Some(mode) => (algorithm.with_worklist(algorithm.worklists()[0]).to_string(), mode.label()),
        None => (algorithm.to_string(), "host"),
    }
}

/// Runs the canonical sweep over `specs`: G-PR-NoShr and the paper's
/// comparison algorithms, the GPU ones × their accepted worklists × both
/// execution modes (pinned, modelled seconds), the CPU ones once
/// (unpinned, wall-clock).
///
/// Launch-per-round cells keep their historical keys (the exec mode never
/// appears in a default-mode label); persistent cells carry the `@resident`
/// suffix in their `algorithm` field.
pub fn sweep_cells(specs: &[InstanceSpec], scale: Scale) -> Vec<BenchCell> {
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let noshr = Algorithm::gpr(GprVariant::ActiveList, GrStrategy::paper_default());
    let algorithms = [vec![noshr], solver::paper_comparison_set()].concat();
    let mut cells = Vec::new();
    for spec in specs {
        let instance = prepare_instance(spec, scale);
        for program in algorithms.iter().flat_map(|a| a.with_each_worklist()) {
            let variants: Vec<Algorithm> = if program.is_gpu() {
                ExecMode::all().into_iter().map(|exec| program.with_exec(exec)).collect()
            } else {
                vec![program]
            };
            for variant in variants {
                let m = measure(&instance, variant, &mut solver)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", variant, spec.name));
                let (algorithm, worklist) = cell_key(variant);
                cells.push(BenchCell {
                    instance: spec.name.to_string(),
                    family: format!("{:?}", spec.family),
                    algorithm,
                    worklist: worklist.to_string(),
                    seconds: m.seconds,
                    wall_seconds: m.wall_seconds,
                    pinned: variant.is_gpu(),
                });
            }
        }
    }
    cells
}

/// The churn fractions of the delta sweep: 0.01 % to 10 % of the parent's
/// edges, the range the issue sweeps (a live-service patch is almost always
/// at the small end).
const DELTA_FRACTIONS: [(f64, &str); 4] =
    [(0.0001, "0.01%"), (0.001, "0.1%"), (0.01, "1%"), (0.1, "10%")];

/// Runs the delta-vs-cold sweep over `specs`: per family × churn fraction ×
/// G-PR program (`G-PR-NoShr`, `G-PR-Shr`, `G-PR-Shr+queue`), solve the
/// patched graph cold and warm-resolve it from the parent's matching, both
/// measured in modelled device seconds (pinned).
///
/// The delta removes `fraction × E` edges spaced evenly through the edge
/// list — deterministic, so the modelled seconds of both halves are exactly
/// reproducible across runs and machines.
pub fn sweep_delta(specs: &[InstanceSpec], scale: Scale) -> (Vec<BenchCell>, Vec<DeltaComparison>) {
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let algorithm_base = Algorithm::gpr_default();
    let noshr = Algorithm::gpr(GprVariant::ActiveList, GrStrategy::paper_default());
    let programs: Vec<Algorithm> =
        [noshr, algorithm_base].into_iter().flat_map(Algorithm::with_each_worklist).collect();
    let mut cells = Vec::new();
    let mut comparisons = Vec::new();
    for spec in specs {
        let parent =
            spec.generate(scale).unwrap_or_else(|e| panic!("generating {} failed: {e}", spec.name));
        // The state a live service holds: the parent's last (maximum)
        // matching, computed once with the same engine family.
        let base = solver
            .solve(&parent, algorithm_base)
            .unwrap_or_else(|e| panic!("base solve on {}: {e}", spec.name));
        let edges: Vec<(u32, u32)> = parent.edges().collect();
        for (fraction, churn_label) in DELTA_FRACTIONS {
            let k = ((edges.len() as f64 * fraction).round() as usize).clamp(1, edges.len());
            let stride = (edges.len() / k).max(1);
            let mut delta = GraphDelta::new();
            delta.extend_removes(edges.iter().step_by(stride).take(k).copied());
            let (child, _) = parent
                .apply_delta_lineage(&delta)
                .unwrap_or_else(|e| panic!("delta on {}: {e}", spec.name));
            let touched = delta.touched_edge_bound(&child);
            let child_initial = cheap_matching(&child);
            let child_max = gpm_cpu::hopcroft_karp(&child, &child_initial).matching.cardinality();
            let instance = format!("{}+d{churn_label}", spec.name);
            for &algorithm in &programs {
                let (label, worklist) = cell_key(algorithm);
                let cold = solver
                    .solve_with_initial(&child, &child_initial, algorithm)
                    .unwrap_or_else(|e| panic!("cold {} on {instance}: {e}", algorithm));
                assert_eq!(cold.cardinality, child_max, "cold solve wrong on {instance}");
                let warm = solver
                    .resolve_prepared_ctx(
                        &child,
                        &base.matching,
                        &delta,
                        algorithm,
                        &SolveCtx::unbounded(),
                    )
                    .unwrap_or_else(|e| panic!("resolve {} on {instance}: {e}", algorithm));
                assert_eq!(warm.report.cardinality, child_max, "warm resolve wrong on {instance}");
                let cold_seconds = cold.modelled_device_seconds.expect("GPU cell is modelled");
                let warm_seconds =
                    warm.report.modelled_device_seconds.expect("GPU cell is modelled");
                for (tag, seconds, wall) in [
                    ("cold", cold_seconds, cold.wall_seconds),
                    ("resolve", warm_seconds, warm.report.wall_seconds),
                ] {
                    cells.push(BenchCell {
                        instance: instance.clone(),
                        family: format!("{:?}", spec.family),
                        algorithm: format!("{tag}({label})"),
                        worklist: worklist.to_string(),
                        seconds,
                        wall_seconds: wall,
                        pinned: true,
                    });
                }
                comparisons.push(DeltaComparison {
                    instance: spec.name.to_string(),
                    family: format!("{:?}", spec.family),
                    worklist: worklist.to_string(),
                    churn_fraction: fraction,
                    touched_edges: touched,
                    cold_seconds,
                    warm_seconds,
                    speedup: cold_seconds / warm_seconds.max(1e-12),
                    fell_back_to_cold: warm.fell_back_to_cold,
                });
            }
        }
    }
    (cells, comparisons)
}

/// Produces the full dump at `scale`.
pub fn produce(scale: Scale) -> BenchDump {
    let mut cells = sweep_cells(&mini_suite(), scale);
    let (delta_cells, deltas) = sweep_delta(&mini_suite(), scale);
    cells.extend(delta_cells);
    BenchDump {
        schema: SCHEMA_VERSION,
        scale: format!("{scale:?}").to_lowercase(),
        cells,
        deltas,
        retired: RETIRED.to_vec(),
    }
}

/// The outcome of diffing two dumps' pinned cells.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Pinned cells present in both dumps.
    pub compared: usize,
    /// `(cell key, old seconds, new seconds)` for cells slower by more
    /// than the allowed factor.
    pub regressions: Vec<(String, f64, f64)>,
    /// Pinned cells of the old dump missing from the new one that match a
    /// [`RETIRED`] pair.  They never fail the gate.
    pub retired: Vec<String>,
    /// Every other pinned cell of the old dump missing from the new one.
    /// Whether these fail the gate is decided by `require_pinned`.
    pub missing: Vec<String>,
    /// `true` when missing pinned cells fail the gate (CI's
    /// `--require-pinned`); `false` degrades them to warnings.
    pub require_pinned: bool,
    /// `(cell key, old seconds, new seconds)` for cells that got faster.
    pub improvements: Vec<(String, f64, f64)>,
    /// Cells that exist only in the newer dump.  Informational — a new cell
    /// has no baseline, so it cannot regress; it is reported (rather than
    /// silently ignored) so freshly added sweeps are visible in the gate
    /// output, and becomes pinned against the *next* dump.
    pub new_cells: Vec<String>,
}

impl DiffReport {
    /// `true` iff the new dump passes the gate: no regression, and — under
    /// `require_pinned` — no pinned cell of the old dump missing from the
    /// new one.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && (!self.require_pinned || self.missing.is_empty())
    }
}

/// `true` when a cell of `algorithm` on `worklist` matches a [`RETIRED`]
/// pair, once a delta-sweep `cold(…)` / `resolve(…)` wrapper and the
/// `@resident` suffix are stripped from `algorithm`.
fn is_retired(algorithm: &str, worklist: &str) -> bool {
    let program = ["cold(", "resolve("]
        .into_iter()
        .find_map(|tag| algorithm.strip_prefix(tag)?.strip_suffix(')'))
        .unwrap_or(algorithm);
    let program = program.strip_suffix("@resident").unwrap_or(program);
    RETIRED.iter().any(|pair| pair.algorithm == program && pair.worklist == worklist)
}

/// The pinned cells of a parsed dump as `(key, seconds, retired)`.
fn pinned_cells(dump: &Value) -> Result<Vec<(String, f64, bool)>, String> {
    let cells = dump
        .get("cells")
        .and_then(Value::as_seq)
        .ok_or_else(|| "dump has no 'cells' array".to_string())?;
    let mut out = Vec::new();
    for cell in cells {
        if cell.get("pinned").and_then(Value::as_bool) != Some(true) {
            continue;
        }
        let field = |name: &str| {
            cell.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("pinned cell missing '{name}'"))
        };
        let (algorithm, worklist) = (field("algorithm")?, field("worklist")?);
        let key = format!("{} / {algorithm} + {worklist}", field("instance")?);
        let seconds = cell
            .get("seconds")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("cell '{key}' has no numeric 'seconds'"))?;
        out.push((key, seconds, is_retired(&algorithm, &worklist)));
    }
    Ok(out)
}

/// Diffs two parsed dumps: every pinned cell of `old` present in `new`
/// must be no more than `max_regression` (fractional, e.g. `0.15`) slower.
/// A pinned `old` cell absent from `new` is retired when it matches a
/// [`RETIRED`] pair, and missing otherwise; with `require_pinned` a missing
/// cell fails the gate, without it it only warns.
pub fn diff(
    old: &Value,
    new: &Value,
    max_regression: f64,
    require_pinned: bool,
) -> Result<DiffReport, String> {
    let old_cells = pinned_cells(old)?;
    let new_cells: BTreeMap<String, f64> =
        pinned_cells(new)?.into_iter().map(|(key, seconds, _)| (key, seconds)).collect();
    let mut report = DiffReport { require_pinned, ..DiffReport::default() };
    let old_keys: BTreeSet<&str> = old_cells.iter().map(|(key, ..)| key.as_str()).collect();
    report.new_cells =
        new_cells.keys().filter(|key| !old_keys.contains(key.as_str())).cloned().collect();
    for (key, old_seconds, retired) in old_cells {
        let Some(&new_seconds) = new_cells.get(&key) else {
            if retired {
                report.retired.push(key);
            } else {
                report.missing.push(key);
            }
            continue;
        };
        report.compared += 1;
        // A zero-cost old cell can only regress by becoming non-zero.
        let regressed = if old_seconds > 0.0 {
            (new_seconds - old_seconds) / old_seconds > max_regression
        } else {
            new_seconds > 0.0
        };
        if regressed {
            report.regressions.push((key, old_seconds, new_seconds));
        } else if new_seconds < old_seconds {
            report.improvements.push((key, old_seconds, new_seconds));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::instances;

    fn dump_with(cells: &[(&str, f64, bool)]) -> Value {
        serde_json::from_str(
            &serde_json::to_string(&Value::Map(vec![(
                "cells".to_string(),
                Value::Seq(
                    cells
                        .iter()
                        .map(|(name, seconds, pinned)| {
                            Value::Map(vec![
                                ("instance".to_string(), Value::Str(name.to_string())),
                                ("algorithm".to_string(), Value::Str("G-PR-Shr".to_string())),
                                ("worklist".to_string(), Value::Str("dense".to_string())),
                                ("seconds".to_string(), Value::F64(*seconds)),
                                ("pinned".to_string(), Value::Bool(*pinned)),
                            ])
                        })
                        .collect(),
                ),
            )]))
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn diff_flags_regressions_missing_cells_and_improvements() {
        let old = dump_with(&[("a", 1.0, true), ("b", 2.0, true), ("c", 9.0, false)]);
        let new = dump_with(&[("a", 1.2, true), ("d", 1.0, true)]);
        let report = diff(&old, &new, 0.15, true).unwrap();
        assert_eq!(report.compared, 1);
        assert_eq!(report.regressions.len(), 1, "a regressed 20% > 15%");
        assert_eq!(report.missing.len(), 1, "pinned cell b vanished");
        assert!(!report.passed());
        // Newer-only cells are reported, not silently ignored — and they
        // never fail the gate (no baseline to regress against).
        assert_eq!(report.new_cells.len(), 1, "cell d is new");
        assert!(report.new_cells[0].starts_with("d /"), "{:?}", report.new_cells);

        let ok = diff(&old, &dump_with(&[("a", 1.1, true), ("b", 1.5, true)]), 0.15, true).unwrap();
        assert_eq!(ok.compared, 2);
        assert!(ok.passed());
        assert_eq!(ok.improvements.len(), 1, "b sped up");
        // Unpinned cells are never part of the gate.
        assert!(ok.missing.is_empty());
        assert!(ok.new_cells.is_empty());

        // Dumps up to BENCH_10 also carry an in-process `service` section
        // that the sweep no longer writes: diff ignores it and still
        // compares every pinned cell, with the same verdicts.
        let Value::Map(mut legacy) = old.clone() else { panic!("dump is a JSON object") };
        legacy.push((
            "service".to_string(),
            serde_json::from_str(
                r#"{"baseline": {"shards": 1, "workers_per_shard": 4, "cache_hit_rate": 0.109},
                    "sharded": {"shards": 4, "workers_per_shard": 1, "cache_hit_rate": 1.0}}"#,
            )
            .unwrap(),
        ));
        let legacy = Value::Map(legacy);
        for new in [&new, &dump_with(&[("a", 1.1, true), ("b", 1.5, true)])] {
            let plain = diff(&old, new, 0.15, true).unwrap();
            let with_service = diff(&legacy, new, 0.15, true).unwrap();
            assert_eq!(with_service.compared, plain.compared);
            assert_eq!(with_service.regressions, plain.regressions);
            assert_eq!(with_service.missing, plain.missing);
            assert_eq!(with_service.improvements, plain.improvements);
            assert_eq!(with_service.new_cells, plain.new_cells);
            assert_eq!(with_service.passed(), plain.passed());
        }
    }

    #[test]
    fn missing_pinned_cells_fail_only_under_require_pinned() {
        let old = dump_with(&[("a", 1.0, true), ("b", 2.0, true)]);
        let new = dump_with(&[("a", 1.0, true)]);
        // Lenient default: the vanished cell is reported but only warns.
        let lenient = diff(&old, &new, 0.15, false).unwrap();
        assert_eq!(lenient.missing.len(), 1);
        assert!(lenient.passed(), "lenient diff warns on missing cells");
        // CI's strict mode: the same diff fails.
        let strict = diff(&old, &new, 0.15, true).unwrap();
        assert_eq!(strict.missing.len(), 1);
        assert!(!strict.passed(), "--require-pinned fails on missing cells");
        // Regressions fail either way.
        let regressed =
            diff(&old, &dump_with(&[("a", 2.0, true), ("b", 2.0, true)]), 0.15, false).unwrap();
        assert!(!regressed.passed());
    }

    #[test]
    fn cells_matching_a_retired_pair_are_retired_not_missing() {
        let old: Value = serde_json::from_str(
            r#"{"cells": [
                {"instance": "a", "algorithm": "G-HKDW@resident", "worklist": "compacted",
                 "seconds": 1.0, "pinned": true},
                {"instance": "a+d1%", "algorithm": "resolve(G-PR-Shr@adaptive:0.7)",
                 "worklist": "dense", "seconds": 1.0, "pinned": true},
                {"instance": "a", "algorithm": "G-HKDW", "worklist": "queue",
                 "seconds": 1.0, "pinned": true}
            ]}"#,
        )
        .unwrap();
        let report = diff(&old, &dump_with(&[]), 0.15, true).unwrap();
        assert_eq!(report.retired.len(), 2, "{:?}", report.retired);
        assert_eq!(report.missing, ["a / G-HKDW + queue"]);
        assert!(!report.passed(), "a cell no pair names is still missing");
    }

    #[test]
    fn diff_rejects_malformed_dumps() {
        let bad: Value = serde_json::from_str("{\"cells\": 3}").unwrap();
        assert!(diff(&bad, &bad, 0.15, true).is_err());
    }

    #[test]
    fn sweep_emits_pinned_gpu_cells_for_every_worklist_and_exec_mode() {
        let specs = vec![instances::by_name("amazon0505").unwrap()];
        let cells = sweep_cells(&specs, Scale::Tiny);
        // 5 GPU programs (G-PR-NoShr, G-PR-Shr, G-PR-Shr+queue, G-HKDW,
        // G-HKDW+queue) × 2 exec modes + 2 CPU algorithms.
        assert_eq!(cells.len(), 12);
        assert_eq!(cells.iter().filter(|c| c.pinned).count(), 10);
        for (worklist, count) in [("dense", 4), ("compacted", 2), ("queue", 4)] {
            assert_eq!(
                cells.iter().filter(|c| c.worklist == worklist).count(),
                count,
                "{worklist}"
            );
        }
        let keys: BTreeSet<(&str, &str)> =
            cells.iter().map(|c| (c.algorithm.as_str(), c.worklist.as_str())).collect();
        assert!(keys.contains(&("G-PR-NoShr@adaptive:0.7", "dense")), "{keys:?}");
        assert!(keys.contains(&("G-PR-Shr@adaptive:0.7@resident", "compacted")), "{keys:?}");
        assert!(keys.contains(&("G-HKDW@resident", "queue")), "{keys:?}");
        // No sweep cell is retired.
        assert!(!cells.iter().any(|c| is_retired(&c.algorithm, &c.worklist)));
        // Persistent cells are keyed apart by the `@resident` suffix; the
        // launch-per-round cells keep their historical suffix-free keys.
        assert_eq!(cells.iter().filter(|c| c.algorithm.ends_with("@resident")).count(), 5);
        // The dump round-trips through serde_json and keeps its cell keys.
        let json = serde_json::to_string(&Value::Map(vec![(
            "cells".to_string(),
            Value::Seq(cells.iter().map(Serialize::to_value).collect()),
        )]))
        .unwrap();
        let parsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(pinned_cells(&parsed).unwrap().len(), 10);
    }

    #[test]
    fn delta_sweep_is_deterministic_and_covers_every_fraction_and_mode() {
        let specs = vec![instances::by_name("amazon0505").unwrap()];
        let (cells, comparisons) = sweep_delta(&specs, Scale::Tiny);
        // 4 churn fractions × 3 G-PR programs × {cold, resolve}.
        assert_eq!(cells.len(), 24);
        for key in [
            "cold(G-PR-NoShr@adaptive:0.7) + dense",
            "resolve(G-PR-Shr@adaptive:0.7) + compacted",
            "resolve(G-PR-Shr@adaptive:0.7) + queue",
        ] {
            let n = cells.iter().filter(|c| format!("{} + {}", c.algorithm, c.worklist) == key);
            assert_eq!(n.count(), 4, "{key}");
        }
        assert!(cells.iter().all(|c| c.pinned), "delta cells are all pinned");
        assert_eq!(comparisons.len(), 12);
        for (fraction, label) in DELTA_FRACTIONS {
            assert_eq!(
                comparisons.iter().filter(|c| c.churn_fraction == fraction).count(),
                3,
                "{label}"
            );
            assert_eq!(
                cells.iter().filter(|c| c.instance.ends_with(&format!("+d{label}"))).count(),
                6,
                "{label}"
            );
        }
        // The strided removals are deterministic: a second sweep reproduces
        // the modelled seconds exactly, so the cells are safe to pin.
        let (again, _) = sweep_delta(&specs, Scale::Tiny);
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.seconds, b.seconds, "{} / {} + {}", a.instance, a.algorithm, a.worklist);
        }
    }
}
