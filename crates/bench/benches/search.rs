//! Search-time benchmarks: the Table II claim that VDQS finishes orders of
//! magnitude faster than RL-style search, measured as actual wall clock of
//! the reproduction's implementations on the same graph.

use criterion::{criterion_group, criterion_main, Criterion};

use quantmcu::models::Model;
use quantmcu::quant::baselines::{haq, hawq, pact, TimeModel};
use quantmcu::tensor::Tensor;
use quantmcu::{Engine, SramBudget};
use quantmcu_bench::{calibration, exec_dataset, exec_graph};

fn searches(c: &mut Criterion) {
    let graph = exec_graph(Model::MobileNetV2);
    let ds = exec_dataset();
    let calib = calibration(&ds);
    let eval: Vec<Tensor> = (100..102).map(|i| ds.sample(i).0).collect();
    let time = TimeModel::paper();

    let mut group = c.benchmark_group("search");
    group.sample_size(10);
    group.bench_function("quantmcu_full_pipeline", |b| {
        let engine = Engine::builder(graph.clone()).sram_budget(SramBudget::kib(256)).build();
        b.iter(|| engine.plan(&calib).expect("plan"))
    });
    group.bench_function("pact_clip_search", |b| {
        b.iter(|| pact::run(&graph, &calib, &time).expect("pact"))
    });
    group.bench_function("hawq_sensitivity", |b| {
        b.iter(|| hawq::run(&graph, &calib, &eval, 0.71, &time).expect("hawq"))
    });
    group.bench_function("haq_episodic", |b| {
        b.iter(|| haq::run(&graph, &calib, &eval, 7, &time).expect("haq"))
    });
    group.finish();
}

criterion_group!(benches, searches);
criterion_main!(benches);
