//! # gpm-core — GPU push-relabel bipartite matching (the paper's contribution)
//!
//! This crate implements the algorithms of Deveci, Kaya, Uçar, Çatalyürek,
//! *"A Push-Relabel-Based Maximum Cardinality Bipartite Matching Algorithm on
//! GPUs"* (ICPP 2013) on the virtual GPU provided by `gpm-gpu`:
//!
//! * [`gpr`] — **G-PR**, the paper's lock- and atomic-free push-relabel
//!   kernels, in all three variants (Figure 1): `G-PR-First`, `G-PR-NoShr`
//!   (active-column lists) and `G-PR-Shr` (dynamic list compression).
//! * [`ggr`] — **G-GR**, the GPU global relabeling (level-synchronous BFS
//!   kernels, Algorithms 4–5).
//! * [`strategy`] — the global-relabeling schedules (`GETITERGR`): fixed
//!   intervals and the adaptive `k × maxLevel` rule the paper introduces.
//! * [`ghk`] — **G-HK / G-HKDW**, the GPU augmenting-path baselines the paper
//!   compares against.
//! * [`engine`] — the uniform, fallible [`engine::Engine`] interface every
//!   algorithm family (GPU and CPU) implements, with warm per-engine
//!   workspaces.
//! * [`solver`] — the session-style front-end: [`solver::Solver`] built via
//!   `Solver::builder()`, used by the examples and the benchmark harness.
//!
//! ## Quick start
//!
//! ```
//! use gpm_core::solver::{Algorithm, Solver};
//! use gpm_graph::gen;
//!
//! // One session, many solves: the solver owns the virtual device and a
//! // warm workspace per algorithm, so repeated solves skip the setup cost.
//! // `build()` validates the configuration, hence the `Result`.
//! let mut solver = Solver::builder().build().unwrap();
//!
//! let graph = gen::planted_perfect(500, 2_000, 7).unwrap();
//! let report = solver.solve(&graph, Algorithm::gpr_default()).unwrap();
//! assert_eq!(report.cardinality, 500);
//! println!("{} matched {} pairs using {:.3} ms of modelled device time",
//!     report.algorithm, report.cardinality,
//!     report.modelled_device_seconds.unwrap() * 1e3);
//!
//! // Batch solving returns one Result per job instead of panicking:
//! let other = gen::planted_perfect(200, 800, 8).unwrap();
//! let results = solver.solve_batch(vec![
//!     (&graph, Algorithm::HopcroftKarp),
//!     (&other, "P-DBFS@4".parse().unwrap()),
//! ]);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```
//!
//! ### Migrating from the pre-session API
//!
//! The free functions `solve` / `solve_with_initial` still exist as shims
//! over a throwaway [`solver::Solver`], but now return
//! `Result<SolveReport, SolveError>` instead of panicking on misuse; append
//! `?` or `.unwrap()` to old call sites, or better, build one `Solver` and
//! reuse it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod device;
pub mod engine;
pub mod error;
pub mod ggr;
pub mod ghk;
pub mod gpr;
pub mod resolve;
pub mod roundloop;
pub mod solver;
pub mod strategy;

pub use cancel::{CancelToken, SolveCtx, StopReason};
pub use engine::{Engine, EngineCtx, EngineOutput};
pub use error::{ParseAlgorithmError, ParseInitHeuristicError, SolveError};
pub use ghk::{GhkConfig, GhkVariant, GhkWorkspace};
pub use gpm_gpu::{ExecMode, ExecutorConfig, WorklistMode};
pub use gpr::{GprConfig, GprResult, GprVariant, GprWorkspace};
pub use resolve::{ResolveOutcome, ResolveReport, WARM_START_CHURN_LIMIT};
pub use roundloop::{drive_rounds, resident_scope, RoundOutcome};
pub use solver::{
    solve, solve_with_initial, Algorithm, DevicePolicy, InitHeuristic, SolveReport, Solver,
};
pub use strategy::GrStrategy;
