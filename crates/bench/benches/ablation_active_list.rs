//! Ablation: how the active set is managed on the device.
//!
//! Two sweeps:
//!
//! * `gpr_variants` — G-PR-First vs G-PR-NoShr vs G-PR-Shr, the design
//!   choice behind the 14–84% improvement the paper reports for the
//!   active-list kernels;
//! * `worklist_modes` — the three worklist representations (`dense`,
//!   `compacted`, `queue`) under the paper's best variant, across instance
//!   families from both deficiency regimes.  This doubles as the
//!   atomic-contention ablation: small-deficiency instances (meshes, road
//!   networks) are the launch-bound regime where the atomic-append queue
//!   beats the compacted lists despite the model's hot-word serialization
//!   charge on its tail `fetch_add`.
//!
//! Run with `cargo bench -p gpm-bench --bench ablation_active_list`.
//! Set `GPM_ABLATION_QUICK=1` to restrict the sweep to two instances with
//! few samples (the CI smoke configuration).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm_bench::runner::{measure, prepare_instance};
use gpm_core::solver::{Algorithm, Solver};
use gpm_core::{GprVariant, GrStrategy, WorklistMode};
use gpm_graph::instances::{by_name, Scale};

fn quick() -> bool {
    std::env::var("GPM_ABLATION_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

fn sample_size() -> usize {
    if quick() {
        2
    } else {
        10
    }
}

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpr_variants");
    group.sample_size(sample_size());
    let mut solver = Solver::builder().build().expect("valid solver config");
    let names: &[&str] =
        if quick() { &["kron_g500-logn20"] } else { &["kron_g500-logn20", "amazon0505"] };
    for name in names {
        let spec = by_name(name).expect("known instance");
        let instance = prepare_instance(&spec, Scale::Tiny);
        for variant in [GprVariant::First, GprVariant::ActiveList, GprVariant::Shrink] {
            let alg = Algorithm::gpr(variant, GrStrategy::paper_default());
            group.bench_with_input(BenchmarkId::new(variant.label(), name), &alg, |b, &alg| {
                b.iter(|| measure(&instance, alg, &mut solver).expect("measure").seconds)
            });
        }
    }
    group.finish();
}

fn bench_worklist_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("worklist_modes");
    group.sample_size(sample_size());
    let mut solver = Solver::builder().build().expect("valid solver config");
    // Small-deficiency (launch-bound: mesh, road) and large-deficiency
    // (scan-bound: social, web-like) families from the paper's Table I.
    let names: &[&str] = if quick() {
        &["delaunay_n20", "roadNet-PA"]
    } else {
        &["delaunay_n20", "roadNet-PA", "hugetrace-00000", "kron_g500-logn20", "amazon0505"]
    };
    for name in names {
        let spec = by_name(name).expect("known instance");
        let instance = prepare_instance(&spec, Scale::Tiny);
        for mode in WorklistMode::all() {
            let alg = Algorithm::gpr_default().with_worklist(mode);
            group.bench_with_input(BenchmarkId::new(mode.label(), name), &alg, |b, &alg| {
                b.iter(|| measure(&instance, alg, &mut solver).expect("measure").seconds)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_variants, bench_worklist_modes);
criterion_main!(benches);
