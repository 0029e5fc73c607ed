//! Figure-level benchmarks: every table and figure of the paper's evaluation, exercised at a
//! reduced scale so `cargo bench` regenerates the full set quickly. The full-scale runs live in
//! the `fig*` binaries of this crate.

use criterion::{criterion_group, criterion_main, Criterion};
use p2plab_core::{
    compare_folding, figure7_latency_experiment, interception_overhead, rule_scaling_experiment,
    run_scenario, SwarmExperiment, SwarmResult,
};
use p2plab_os::experiments::{figure1_sweep, figure2_sweep, figure3_fairness};
use p2plab_os::SchedulerKind;
use std::hint::black_box;

fn small_swarm(name: &str, leechers: usize, machines: usize) -> SwarmExperiment {
    let mut cfg = SwarmExperiment::quick();
    cfg.name = name.into();
    cfg.leechers = leechers;
    cfg.machines = machines;
    cfg.file_bytes = 1024 * 1024;
    cfg
}

fn run(cfg: &SwarmExperiment) -> SwarmResult {
    run_scenario(&cfg.to_scenario(), cfg.workload()).expect("swarm runs")
}

fn bench_figure1(c: &mut Criterion) {
    c.bench_function("figure1_cpu_scaling_point", |b| {
        b.iter(|| black_box(figure1_sweep(SchedulerKind::Bsd4, &[200])))
    });
}

fn bench_figure2(c: &mut Criterion) {
    c.bench_function("figure2_memory_scaling_point", |b| {
        b.iter(|| black_box(figure2_sweep(SchedulerKind::Bsd4, &[50])))
    });
}

fn bench_figure3(c: &mut Criterion) {
    c.bench_function("figure3_fairness_cdf", |b| {
        b.iter(|| black_box(figure3_fairness(SchedulerKind::Ule)))
    });
}

fn bench_intercept_table(c: &mut Criterion) {
    c.bench_function("table_interception_overhead", |b| {
        b.iter(|| black_box(interception_overhead()))
    });
}

fn bench_figure6(c: &mut Criterion) {
    c.bench_function("figure6_rule_scaling_sweep", |b| {
        b.iter(|| black_box(rule_scaling_experiment(&[0, 10_000, 30_000], 3)))
    });
}

fn bench_figure7(c: &mut Criterion) {
    c.bench_function("figure7_latency_decomposition", |b| {
        b.iter(|| black_box(figure7_latency_experiment(20, 3)))
    });
}

fn bench_figure8(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure8_swarm");
    group.sample_size(10);
    group.bench_function("12_clients_1MB", |b| {
        let cfg = small_swarm("bench-fig8", 12, 13);
        b.iter(|| black_box(run(&cfg)))
    });
    group.finish();
}

fn bench_figure9(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure9_folding");
    group.sample_size(10);
    group.bench_function("folding_1_vs_15_per_machine", |b| {
        let spread = small_swarm("bench-fig9-spread", 12, 15);
        let folded = small_swarm("bench-fig9-folded", 12, 1);
        b.iter(|| {
            let a = run(&spread);
            let b_ = run(&folded);
            black_box(compare_folding(&a, &[&b_]))
        })
    });
    group.finish();
}

fn bench_figure10_11(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure10_11_large_swarm");
    group.sample_size(10);
    group.bench_function("scaled_0_01", |b| {
        // ~58 clients folded 32:1, the same shape as the paper's 5754-client run.
        let cfg = SwarmExperiment::paper_figure10(0.01);
        b.iter(|| {
            let r = run(&cfg);
            black_box((r.completion_curve.len(), r.completed))
        })
    });
    group.finish();
}

criterion_group!(
    figures,
    bench_figure1,
    bench_figure2,
    bench_figure3,
    bench_intercept_table,
    bench_figure6,
    bench_figure7,
    bench_figure8,
    bench_figure9,
    bench_figure10_11
);
criterion_main!(figures);
