//! Tests of the session-style solve API: `Algorithm` label round-tripping
//! (property-based), warm-session vs cold-solve agreement across every
//! algorithm family, batch solving, and the structured error paths.

use gpm_core::solver::{
    paper_comparison_set, solve, Algorithm, DevicePolicy, InitHeuristic, Solver,
};
use gpm_core::{
    CancelToken, ExecMode, ExecutorConfig, GhkVariant, GprConfig, GprVariant, GrStrategy, SolveCtx,
    SolveError,
};
use gpm_gpu::WorklistMode;
use gpm_graph::gen;
use gpm_graph::instances::{mini_suite, Scale};
use gpm_graph::verify::maximum_matching_cardinality;
use gpm_graph::{BipartiteCsr, Matching};
use proptest::prelude::*;

/// Arbitrary valid algorithm covering all seven families with varied
/// parameters, including every worklist representation each GPU family
/// accepts and both execution modes (so the `+queue` and `@resident` label
/// suffixes are exercised by the round-trip property).
fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    (0usize..10, 1u32..100, 1u32..40, 1usize..16, 0usize..2, 0usize..2).prop_map(
        |(which, fix_k, tenths, threads, mode, exec)| {
            let adaptive = GrStrategy::Adaptive(f64::from(tenths) / 10.0);
            let exec = ExecMode::all()[exec];
            // A GPU family in one of the representations it accepts.
            let gpu = |alg: Algorithm| {
                let modes = alg.worklists();
                alg.with_worklist(modes[mode % modes.len()]).with_exec(exec)
            };
            match which {
                0 => gpu(Algorithm::gpr(GprVariant::First, adaptive)),
                1 => gpu(Algorithm::gpr(GprVariant::ActiveList, GrStrategy::Fixed(fix_k))),
                2 => gpu(Algorithm::gpr(GprVariant::Shrink, adaptive)),
                3 => gpu(Algorithm::ghk(GhkVariant::Hk)),
                4 => gpu(Algorithm::ghk(GhkVariant::Hkdw)),
                5 => Algorithm::SequentialPushRelabel(f64::from(tenths) / 10.0),
                6 => Algorithm::PothenFan,
                7 => Algorithm::HopcroftKarp,
                8 => Algorithm::Hkdw,
                _ => Algorithm::Pdbfs(threads),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn algorithm_labels_round_trip_through_display_and_fromstr(alg in arb_algorithm()) {
        prop_assert!(alg.validate().is_ok(), "{}", alg);
        let label = alg.to_string();
        let parsed: Algorithm = label.parse().unwrap_or_else(|e| panic!("{label}: {e}"));
        prop_assert_eq!(parsed, alg, "{}", label);
        // The round-trippable label is also what serde emits.
        let json = serde_json::to_string(&alg).unwrap();
        prop_assert_eq!(json, format!("\"{label}\""));
        // Default representations stay suffix-free (paper-compatible labels);
        // non-default ones carry the '+' suffix.
        if let Some(mode) = alg.worklist() {
            prop_assert_eq!(label.contains("+queue"), mode != alg.worklists()[0], "{}", label);
        }
        // The persistent execution mode always prints (and only it does).
        if let Some(exec) = alg.exec() {
            prop_assert_eq!(
                label.ends_with("@resident"), exec == ExecMode::Persistent, "{}", label);
        }
    }
}

/// Every algorithm in the workspace: the paper's comparison set plus every
/// CPU baseline and the remaining GPU variants.
fn every_algorithm() -> Vec<Algorithm> {
    let mut algorithms = paper_comparison_set();
    algorithms.extend([
        Algorithm::gpr(GprVariant::First, GrStrategy::paper_default()),
        Algorithm::gpr(GprVariant::ActiveList, GrStrategy::Fixed(10)),
        Algorithm::ghk(GhkVariant::Hk),
        Algorithm::PothenFan,
        Algorithm::HopcroftKarp,
        Algorithm::Hkdw,
        Algorithm::Pdbfs(2),
    ]);
    algorithms
}

fn corpus() -> Vec<BipartiteCsr> {
    vec![
        gen::planted_perfect(60, 240, 5).unwrap(),
        gen::uniform_random(80, 80, 400, 6).unwrap(),
        gen::uniform_random(80, 80, 450, 7).unwrap(), // same shape as above: warm path
        gen::power_law(90, 70, 420, 2.2, 8).unwrap(),
        gen::uniform_random(40, 110, 390, 9).unwrap(),
    ]
}

#[test]
fn warm_solver_matches_cold_solves_across_all_algorithms() {
    let mut warm = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    for g in corpus() {
        let opt = maximum_matching_cardinality(&g);
        for alg in every_algorithm() {
            let warm_report = warm.solve(&g, alg).unwrap();
            let cold_report = solve(&g, alg).unwrap();
            assert_eq!(warm_report.cardinality, opt, "warm {alg}");
            assert_eq!(cold_report.cardinality, opt, "cold {alg}");
            assert_eq!(warm_report.initial_cardinality, cold_report.initial_cardinality, "{alg}");
        }
    }
    // The session kept exactly one warm engine per distinct algorithm.
    assert_eq!(warm.warm_engine_count(), every_algorithm().len());
}

#[test]
fn one_session_batch_solves_the_full_comparison_over_a_corpus() {
    // The acceptance scenario: a single Solver runs the paper's comparison
    // set plus all CPU baselines over a multi-graph corpus via solve_batch,
    // returning per-job Results.
    let graphs = corpus();
    let mut solver = Solver::builder().build().expect("valid solver config");
    let jobs: Vec<(&BipartiteCsr, Algorithm)> = graphs
        .iter()
        .flat_map(|g| every_algorithm().into_iter().map(move |alg| (g, alg)))
        .collect();
    let expected_jobs = jobs.len();
    let results = solver.solve_batch(jobs);
    assert_eq!(results.len(), expected_jobs);
    for (i, result) in results.iter().enumerate() {
        let report = result.as_ref().unwrap_or_else(|e| panic!("job {i} failed: {e}"));
        let g = &graphs[i / every_algorithm().len()];
        assert_eq!(report.cardinality, maximum_matching_cardinality(g), "job {i}");
    }
}

#[test]
fn invalid_pr_factor_is_a_structured_error() {
    let g = gen::uniform_random(20, 20, 80, 1).unwrap();
    let mut solver = Solver::new();
    for bad_k in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
        let err = solver.solve(&g, Algorithm::SequentialPushRelabel(bad_k)).unwrap_err();
        match err {
            SolveError::InvalidConfig { algorithm, reason } => {
                assert_eq!(algorithm, "PR");
                assert!(reason.contains("global-relabel factor"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
    // The shim propagates the same error.
    assert!(matches!(
        solve(&g, Algorithm::SequentialPushRelabel(f64::NAN)),
        Err(SolveError::InvalidConfig { .. })
    ));
}

#[test]
fn zero_thread_pdbfs_is_a_structured_error() {
    let g = gen::uniform_random(20, 20, 80, 2).unwrap();
    let mut solver = Solver::new();
    match solver.solve(&g, Algorithm::Pdbfs(0)).unwrap_err() {
        SolveError::InvalidConfig { algorithm, reason } => {
            assert_eq!(algorithm, "P-DBFS");
            assert!(reason.contains("thread count"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // A failed job does not poison the session.
    assert!(solver.solve(&g, Algorithm::Pdbfs(1)).is_ok());
}

#[test]
fn device_required_instead_of_panic_on_cpu_only_sessions() {
    let g = gen::uniform_random(15, 15, 60, 3).unwrap();
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::CpuOnly)
        .init_heuristic(InitHeuristic::KarpSipser)
        .build()
        .expect("valid solver config");
    let results = solver.solve_batch(vec![
        (&g, Algorithm::gpr_default()),
        (&g, Algorithm::ghk(GhkVariant::Hkdw)),
        (&g, Algorithm::HopcroftKarp),
    ]);
    assert!(matches!(results[0], Err(SolveError::DeviceRequired { .. })));
    assert!(matches!(results[1], Err(SolveError::DeviceRequired { .. })));
    assert_eq!(results[2].as_ref().unwrap().cardinality, maximum_matching_cardinality(&g));
    assert!(solver.device().is_none());

    // Parameter validation runs before device resolution: an invalid GPU
    // config on a CPU-only session is InvalidConfig, not DeviceRequired.
    let bad = Algorithm::gpr(GprVariant::Shrink, GrStrategy::Adaptive(f64::NAN));
    assert!(matches!(solver.solve(&g, bad), Err(SolveError::InvalidConfig { .. })));
}

#[test]
fn shape_mismatch_is_reported_with_both_shapes() {
    let g = gen::uniform_random(12, 14, 50, 4).unwrap();
    let wrong = Matching::empty(12, 13);
    let mut solver = Solver::new();
    match solver.solve_with_initial(&g, &wrong, Algorithm::HopcroftKarp).unwrap_err() {
        SolveError::ShapeMismatch { graph, initial } => {
            assert_eq!(graph, (12, 14));
            assert_eq!(initial, (12, 13));
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
}

/// Compile-time `Send` guarantee: the service layer moves `Solver` sessions
/// into worker threads, so a future non-`Send` field (an `Rc`, a raw device
/// handle) must fail this build, not the service at a distance.
#[test]
fn solver_and_components_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Solver>();
    assert_send::<Algorithm>();
    assert_send::<InitHeuristic>();
    assert_send::<gpm_core::SolveReport>();
    assert_send::<SolveError>();
    // A warm session (device + engines populated) must stay movable too.
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let g = gen::uniform_random(10, 10, 40, 3).unwrap();
    solver.solve(&g, Algorithm::gpr_default()).unwrap();
    let report = std::thread::spawn(move || solver.solve(&g, Algorithm::HopcroftKarp).unwrap())
        .join()
        .unwrap();
    assert!(report.cardinality > 0);
}

#[test]
fn worklist_labels_parse_and_reject_junk() {
    // `+queue` on the families where it is a distinct program.
    assert_eq!(
        "G-PR-Shr@adaptive:0.7+queue".parse::<Algorithm>().unwrap(),
        Algorithm::gpr_default().with_worklist(WorklistMode::AtomicQueue)
    );
    assert_eq!(
        "G-PR-First+queue".parse::<Algorithm>().unwrap(),
        Algorithm::gpr(GprVariant::First, GrStrategy::paper_default())
            .with_worklist(WorklistMode::AtomicQueue)
    );
    assert_eq!(
        "G-HK+queue".parse::<Algorithm>().unwrap(),
        Algorithm::ghk(GhkVariant::Hk).with_worklist(WorklistMode::AtomicQueue)
    );
    // Defaults print without the suffix; the queue prints with it.
    assert_eq!(Algorithm::gpr_default().to_string(), "G-PR-Shr@adaptive:0.7");
    assert_eq!(
        Algorithm::gpr_default().with_worklist(WorklistMode::AtomicQueue).to_string(),
        "G-PR-Shr@adaptive:0.7+queue"
    );
    // Every removed spelling is a parse error: the twelve labels that named
    // a duplicate program or one nothing needs, and the alias spellings of
    // defaults.
    for label in [
        "G-PR-First@adaptive:0.7+compacted",
        "G-PR-First@adaptive:0.7+compacted@resident",
        "G-PR-NoShr@adaptive:0.7+compacted",
        "G-PR-NoShr@adaptive:0.7+compacted@resident",
        "G-PR-NoShr@adaptive:0.7+queue",
        "G-PR-NoShr@adaptive:0.7+queue@resident",
        "G-PR-Shr@adaptive:0.7+dense",
        "G-PR-Shr@adaptive:0.7+dense@resident",
        "G-HK+compacted",
        "G-HK+compacted@resident",
        "G-HKDW+compacted",
        "G-HKDW+compacted@resident",
        "G-PR-First+dense",
        "G-PR-NoShr@fix:10+dense",
        "G-HK+dense",
        "G-HKDW+dense@resident",
        "G-PR-Shr+compacted",
        "G-PR-Shr@adaptive:0.7+compacted@resident",
    ] {
        assert!(label.parse::<Algorithm>().is_err(), "{label}");
    }
    // The same values built with `with_worklist` fail validation, and a
    // solve of one is a structured error, not a run.
    let first = Algorithm::gpr(GprVariant::First, GrStrategy::paper_default());
    let noshr = Algorithm::gpr(GprVariant::ActiveList, GrStrategy::paper_default());
    for alg in [
        first.with_worklist(WorklistMode::Compacted),
        noshr.with_worklist(WorklistMode::Compacted),
        noshr.with_worklist(WorklistMode::AtomicQueue),
        Algorithm::gpr_default().with_worklist(WorklistMode::DenseStamp),
        Algorithm::ghk(GhkVariant::Hk).with_worklist(WorklistMode::Compacted),
        Algorithm::ghk(GhkVariant::Hkdw).with_worklist(WorklistMode::Compacted),
    ] {
        for exec in ExecMode::all() {
            let alg = alg.with_exec(exec);
            assert!(matches!(alg.validate(), Err(SolveError::InvalidConfig { .. })), "{alg}");
        }
    }
    let g = gen::uniform_random(10, 10, 40, 3).unwrap();
    let err = solve(&g, noshr.with_worklist(WorklistMode::AtomicQueue)).unwrap_err();
    assert!(err.to_string().contains("no distinct program on the queue worklist"), "{err}");
    // Junk modes, the retired `blocked` mode, and CPU algorithms with modes
    // are rejected.
    assert!("G-PR-Shr+stack".parse::<Algorithm>().is_err());
    assert!("G-PR-Shr@adaptive:0.7+blocked".parse::<Algorithm>().is_err());
    assert!("G-HK+blocked@resident".parse::<Algorithm>().is_err());
    assert!("HK+queue".parse::<Algorithm>().is_err());
    assert!("PR@0.5+dense".parse::<Algorithm>().is_err());
    assert!("P-DBFS+compacted".parse::<Algorithm>().is_err());
    // Plus-signed numeric parameters are not mistaken for worklist modes.
    assert_eq!("PR@+0.5".parse::<Algorithm>().unwrap(), Algorithm::SequentialPushRelabel(0.5));
    assert_eq!("P-DBFS@+8".parse::<Algorithm>().unwrap(), Algorithm::Pdbfs(8));
    assert_eq!(
        "G-PR-Shr@fix:+10+queue".parse::<Algorithm>().unwrap(),
        Algorithm::gpr(GprVariant::Shrink, GrStrategy::Fixed(10))
            .with_worklist(WorklistMode::AtomicQueue)
    );
}

#[test]
fn exec_mode_labels_parse_and_reject_junk() {
    // The full grammar: strategy, worklist, and execution-mode suffixes.
    let full = Algorithm::gpr_default()
        .with_worklist(WorklistMode::AtomicQueue)
        .with_exec(ExecMode::Persistent);
    assert_eq!(full.to_string(), "G-PR-Shr@adaptive:0.7+queue@resident");
    assert_eq!("G-PR-Shr@adaptive:0.7+queue@resident".parse::<Algorithm>().unwrap(), full);
    // Resident without a worklist suffix.
    assert_eq!(
        "G-HK@resident".parse::<Algorithm>().unwrap(),
        Algorithm::ghk(GhkVariant::Hk).with_exec(ExecMode::Persistent)
    );
    assert_eq!(
        Algorithm::ghk(GhkVariant::Hkdw).with_exec(ExecMode::Persistent).to_string(),
        "G-HKDW@resident"
    );
    // The default mode may be spelled out and parses to the suffix-free form.
    assert_eq!(
        "G-PR-Shr@launch".parse::<Algorithm>().unwrap(),
        "G-PR-Shr".parse::<Algorithm>().unwrap()
    );
    assert_eq!(Algorithm::gpr_default().with_exec(ExecMode::LaunchPerRound), {
        let alg: Algorithm = "G-PR-Shr".parse().unwrap();
        alg
    });
    // Launch-per-round is the default, so it never prints.
    assert_eq!(
        Algorithm::gpr_default().with_exec(ExecMode::LaunchPerRound).to_string(),
        "G-PR-Shr@adaptive:0.7"
    );
    // CPU algorithms have no device round loop to make resident.
    assert!("HK@resident".parse::<Algorithm>().is_err());
    assert!("PR@0.5@resident".parse::<Algorithm>().is_err());
    assert!("P-DBFS@8@launch".parse::<Algorithm>().is_err());
    // Junk exec modes fall through to (and fail) ordinary parsing.
    assert!("G-HK@megakernel".parse::<Algorithm>().is_err());
    // Suffix order is fixed: worklist, then exec.
    assert!("G-PR-Shr@resident+queue".parse::<Algorithm>().is_err());
}

/// The cross-representation acceptance test: every G-PR and G-HKDW program
/// (each accepted worklist), under both the sequential and the pooled
/// executor, produces the oracle cardinality on every instance family of
/// the mini suite.
#[test]
fn all_worklist_modes_match_the_oracle_over_the_mini_suite() {
    let instances: Vec<_> = mini_suite()
        .iter()
        .map(|spec| {
            let g = spec.generate(Scale::Tiny).expect("generate mini instance");
            let opt = maximum_matching_cardinality(&g);
            (spec.name, g, opt)
        })
        .collect();
    for policy in [DevicePolicy::Sequential, DevicePolicy::Parallel(3)] {
        let mut solver =
            Solver::builder().device_policy(policy).build().expect("valid solver config");
        for alg in programs() {
            for (name, g, opt) in &instances {
                let report = solver.solve(g, alg).unwrap();
                assert_eq!(report.cardinality, *opt, "{alg} on {name} under {policy:?}");
            }
        }
    }
}

/// G-PR-NoShr, G-PR-Shr and G-HKDW in every worklist each accepts: the
/// benchmark sweep's GPU programs.
fn programs() -> Vec<Algorithm> {
    [
        Algorithm::gpr(GprVariant::ActiveList, GrStrategy::paper_default()),
        Algorithm::gpr_default(),
        Algorithm::ghk(GhkVariant::Hkdw),
    ]
    .into_iter()
    .flat_map(Algorithm::with_each_worklist)
    .collect()
}

/// The persistent-execution acceptance test: on every instance family of
/// the mini suite, every GPU program of [`programs`] solved `@resident`
/// agrees with its launch-per-round twin — same cardinality under both the
/// sequential and the pooled executor, and (sequential executor, where the
/// modelled counters are deterministic) the same number of device rounds,
/// with the whole solve riding on a small constant number of launches.
#[test]
fn persistent_exec_matches_launch_per_round_over_the_mini_suite() {
    let instances: Vec<_> = mini_suite()
        .iter()
        .map(|spec| {
            let g = spec.generate(Scale::Tiny).expect("generate mini instance");
            let opt = maximum_matching_cardinality(&g);
            (spec.name, g, opt)
        })
        .collect();
    for policy in [DevicePolicy::Sequential, DevicePolicy::Parallel(3)] {
        let mut solver =
            Solver::builder().device_policy(policy).build().expect("valid solver config");
        for base in programs() {
            for (name, g, opt) in &instances {
                let launch = solver.solve(g, base).unwrap();
                let resident = solver.solve(g, base.with_exec(ExecMode::Persistent)).unwrap();
                assert_eq!(
                    launch.cardinality, resident.cardinality,
                    "{base} on {name} under {policy:?}"
                );
                assert_eq!(launch.cardinality, *opt, "{base} on {name} under {policy:?}");
                let stats = resident.device_stats.as_ref().expect("GPU solve has stats");
                assert!(
                    stats.total_launches() <= 2,
                    "{base}@resident on {name} under {policy:?}: {} launches",
                    stats.total_launches()
                );
                if policy == DevicePolicy::Sequential {
                    // Same rounds, just resident: the per-round kernel
                    // launches of the one mode reappear one-for-one as
                    // barrier-separated resident rounds of the other.
                    let launch_stats = launch.device_stats.as_ref().unwrap();
                    let lpr_rounds: u64 = launch_stats.kernels.values().map(|k| k.launches).sum();
                    let res_rounds: u64 = stats.kernels.values().map(|k| k.resident_rounds).sum();
                    // Every launch-per-round kernel invocation reappears
                    // either as a resident round or (the out-of-scope
                    // fix-up) as one of the surviving launches; the one
                    // launch that is new is the resident entry kernel.
                    assert_eq!(
                        lpr_rounds,
                        res_rounds + stats.total_launches() - 1,
                        "{base} on {name}: launch-per-round kernel launches should equal \
                         resident rounds plus the non-entry launches"
                    );
                }
            }
        }
    }
}

#[test]
fn pre_cancelled_solves_fail_fast_for_every_algorithm_family() {
    // An already-tripped token never touches an engine: zero rounds, zero
    // partial cardinality, for GPU and CPU families alike.
    let g = gen::uniform_random(50, 50, 250, 12).unwrap();
    let initial = Matching::empty_for(&g);
    let token = CancelToken::new();
    token.cancel();
    let ctx = SolveCtx::with_cancel(token);
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    for alg in every_algorithm() {
        match solver.solve_with_initial_ctx(&g, &initial, alg, &ctx).unwrap_err() {
            SolveError::Cancelled { rounds_completed, partial_cardinality } => {
                assert_eq!(rounds_completed, 0, "{alg}");
                assert_eq!(partial_cardinality, 0, "{alg}");
            }
            other => panic!("{alg}: expected Cancelled, got {other:?}"),
        }
    }
    // The session is not poisoned: the same solver still solves.
    let report = solver.solve(&g, Algorithm::HopcroftKarp).unwrap();
    assert_eq!(report.cardinality, maximum_matching_cardinality(&g));
}

#[test]
fn expired_deadline_is_deadline_exceeded_not_cancelled() {
    let g = gen::uniform_random(40, 40, 200, 13).unwrap();
    let initial = Matching::empty_for(&g);
    let ctx =
        SolveCtx::with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    for alg in [Algorithm::gpr_default(), Algorithm::HopcroftKarp] {
        assert!(
            matches!(
                solver.solve_with_initial_ctx(&g, &initial, alg, &ctx).unwrap_err(),
                SolveError::DeadlineExceeded { rounds_completed: 0, partial_cardinality: 0 }
            ),
            "{alg}"
        );
    }
}

#[test]
fn mid_solve_cancellation_reports_rounds_and_partial_progress() {
    // Cancel from a clone of the token on another thread after the engine
    // has started: the G-PR solve must stop at a round boundary and report
    // how far it got.
    let g = gen::rmat(gen::RmatParams::graph500(11, 4), 21).unwrap();
    let initial = Matching::empty_for(&g);
    let opt = maximum_matching_cardinality(&g);

    let token = CancelToken::new();
    let trip = {
        let token = token.clone();
        std::thread::spawn(move || {
            // Wait until the solve is plausibly inside its round loop.
            std::thread::sleep(std::time::Duration::from_millis(2));
            token.cancel();
        })
    };

    let ctx = SolveCtx::with_cancel(token.clone());
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Sequential)
        .build()
        .expect("valid solver config");
    let result = solver.solve_with_initial_ctx(&g, &initial, Algorithm::gpr_default(), &ctx);
    trip.join().unwrap();
    match result {
        // The usual outcome at this scale: cancelled mid-run with a
        // consistent partial matching no better than the optimum.
        Err(SolveError::Cancelled { partial_cardinality, .. }) => {
            assert!(partial_cardinality <= opt);
        }
        // On a very fast machine the solve may legitimately finish first.
        Ok(report) => assert_eq!(report.cardinality, opt),
        Err(other) => panic!("expected Cancelled or success, got {other:?}"),
    }
    // Either way the session keeps working afterwards.
    let report = solver.solve(&g, Algorithm::gpr_default()).unwrap();
    assert_eq!(report.cardinality, opt);
}

#[test]
fn builder_rejects_zero_chunk_size_and_zero_shrink_threshold() {
    let bad_exec = ExecutorConfig { chunk_size: 0, ..Default::default() };
    match Solver::builder().executor_config(bad_exec).build() {
        Err(SolveError::InvalidConfig { algorithm, reason }) => {
            assert_eq!(algorithm, "device executor");
            assert!(reason.contains("chunk_size"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    let bad_gpr = GprConfig { shrink_threshold: 0, ..GprConfig::paper_default() };
    match Solver::builder().gpr_config(bad_gpr).build() {
        Err(SolveError::InvalidConfig { algorithm, reason }) => {
            assert_eq!(algorithm, "G-PR");
            assert!(reason.contains("shrink_threshold"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    // Valid overrides pass through to the session.
    let tuned = GprConfig { shrink_threshold: 64, ..GprConfig::paper_default() };
    let solver = Solver::builder().gpr_config(tuned).build().expect("valid tuning");
    assert_eq!(solver.gpr_config().shrink_threshold, 64);
}

#[test]
fn executor_config_reaches_the_session_device() {
    // The builder's executor tuning must be applied verbatim to the device
    // the session creates on its first GPU solve — this is the contract the
    // service layer relies on to keep N workers from oversubscribing the
    // host.
    let exec = ExecutorConfig { parallel_threshold: 32, chunk_size: 64, ..Default::default() };
    let mut solver = Solver::builder()
        .device_policy(DevicePolicy::Parallel(2))
        .executor_config(exec)
        .build()
        .expect("valid solver config");
    assert_eq!(solver.executor_config(), exec);
    assert!(solver.device().is_none(), "device is created lazily");

    let g = gen::uniform_random(60, 60, 300, 17).unwrap();
    let report = solver.solve(&g, Algorithm::gpr_default()).unwrap();
    assert_eq!(report.cardinality, maximum_matching_cardinality(&g));

    let device = solver.device().expect("GPU solve created the device");
    assert_eq!(device.config().executor, exec);
    // The pooled executor respects the backend sizing: at most the two
    // configured workers were ever spawned.
    assert!(device.worker_threads_spawned() <= 2);

    // Warm solves on the same session keep the same device (and pool).
    let before = device as *const _;
    solver.solve(&g, Algorithm::gpr_default()).unwrap();
    assert!(std::ptr::eq(solver.device().unwrap(), before));
}
