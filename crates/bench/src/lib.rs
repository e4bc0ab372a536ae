//! # gpm-bench — benchmark harness for the paper's evaluation
//!
//! One binary per table/figure of the paper (Section IV):
//!
//! | Target | Paper artefact |
//! |---|---|
//! | `fig1_gr_strategies` | Figure 1 — G-PR variants × global-relabeling strategies |
//! | `fig2_speedup_profiles` | Figure 2 — speedup profiles of G-PR, G-HKDW, P-DBFS vs PR |
//! | `fig3_performance_profiles` | Figure 3 — performance profiles of the parallel algorithms |
//! | `fig4_individual_speedups` | Figure 4 — per-instance speedup of G-PR over PR |
//! | `table1_runtimes` | Table I — per-instance runtimes of G-PR, G-HKDW, P-DBFS, PR |
//!
//! plus the `gpm-bench` binary, which produces the canonical `BENCH_<n>.json`
//! modelled-seconds dump (`--dump-bench`) and diffs two dumps as the CI
//! regression gate (`--diff`) — see [`dump`].  Host wall clock from socket
//! to response is the separate `perfbench/` package's job.
//!
//! The library part contains the pieces the binaries share: instance
//! preparation ([`runner`]), profile computations ([`profiles`]), and report
//! formatting ([`report`]).  Every binary drives one warm
//! [`gpm_core::solver::Solver`] session across its whole suite, and accepts
//! `--algorithms` with round-trippable specs (`G-PR-Shr@adaptive:0.7`,
//! `P-DBFS@4`, …) parsed by `Algorithm::from_str`.  All measurements use
//! [`gpm_core::solver::SolveReport::comparable_seconds`]: modelled device
//! time for the GPU algorithms and host wall-clock for the CPU ones — see
//! the README's "Benchmarks and paper figures" for the two clocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod dump;
pub mod figures;
pub mod profiles;
pub mod report;
pub mod runner;

pub use runner::{prepare_instance, InstanceRun, Measurement};
