//! Determinism of the parallel planner: `Engine::plan` (and
//! `plan_uniform`) must produce a **bit-identical** `DeploymentPlan` for
//! every planning worker count (`EngineBuilder::workers`). The parallel calibration prologue merges
//! per-chunk value samples in image order, so nothing downstream — VDPC
//! classification, entropy tables, the VDQS searches, the calibrated
//! ranges — can observe which worker count produced its inputs.

use quantmcu::tensor::{Bitwidth, Shape, Tensor};
use quantmcu::{Engine, SramBudget};

fn graph() -> quantmcu::nn::Graph {
    let spec = quantmcu::nn::GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
        .conv2d(8, 3, 2, 1)
        .relu6()
        .dwconv(3, 1, 1)
        .relu6()
        .pwconv(16)
        .relu6()
        .conv2d(24, 3, 2, 1)
        .relu6()
        .global_avg_pool()
        .dense(10)
        .build()
        .unwrap();
    quantmcu::nn::init::with_structured_weights(spec, 13)
}

fn calib(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|s| {
            Tensor::from_fn(Shape::hwc(16, 16, 3), |i| {
                let base = ((i + 311 * s) as f32 * 0.23).sin() * 0.5;
                let (y, x) = ((i / 3) / 16, (i / 3) % 16);
                if s % 2 == 0 && y < 4 && x < 4 {
                    base + 8.0
                } else {
                    base
                }
            })
        })
        .collect()
}

fn engine(workers: usize) -> Engine {
    Engine::builder(graph()).sram_budget(SramBudget::kib(256)).workers(workers).build()
}

#[test]
fn parallel_plan_is_bit_identical_to_serial_for_any_worker_count() {
    let images = calib(7);
    let serial = engine(1).plan(&images).unwrap().timeless();
    for workers in [2, 3, 4, 7, 16] {
        let parallel = engine(workers).plan(&images).unwrap().timeless();
        assert_eq!(serial, parallel, "worker count {workers} changed the plan");
    }
}

#[test]
fn parallel_plan_uniform_is_bit_identical_to_serial() {
    let images = calib(6);
    let serial = engine(1).plan_uniform(&images, Bitwidth::W8).unwrap().timeless();
    for workers in [2, 4, 6] {
        let parallel = engine(workers).plan_uniform(&images, Bitwidth::W8).unwrap().timeless();
        assert_eq!(serial, parallel, "worker count {workers} changed the uniform plan");
    }
}

#[test]
fn ranges_and_classes_survive_odd_chunkings() {
    // Worker counts that do not divide the calibration set exercise the
    // ragged-final-chunk path of the chunked prologue.
    let images = calib(5);
    let serial = engine(1).plan(&images).unwrap().timeless();
    for workers in [2, 3, 4] {
        let parallel = engine(workers).plan(&images).unwrap().timeless();
        assert_eq!(serial.branch_ranges(), parallel.branch_ranges());
        assert_eq!(serial.patch_classes(), parallel.patch_classes());
        assert_eq!(serial.branch_bits(), parallel.branch_bits());
        assert_eq!(serial.tail_bits(), parallel.tail_bits());
    }
}
