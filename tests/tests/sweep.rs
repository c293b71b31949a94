//! Budget-sweep integrity across the public surfaces: every plan a sweep
//! produces — through `Engine::plan_sweep`, `Engine::plan_sweep_each` or
//! the fleet grid — must be **bit-identical** to the plan an independent
//! single-budget call produces, even when the ladder spans several patch
//! splits, repeats budgets, or mixes in infeasible rungs. The sweep is a
//! caching strategy, never a semantic one.
//!
//! Rungs are compared with the planner's ungated
//! `Planner::plan_with_stats`: at tiny budgets `Engine::plan`'s static
//! analyzer answers before the planner could, and "rung error ==
//! independent error" needs the planner's own error.

use quantmcu::fleet::{plan_fleet, FleetModel};
use quantmcu::mcusim::Device;
use quantmcu::tensor::{Shape, Tensor};
use quantmcu::{DeploymentPlan, Engine, PlanError, Planner, QuantMcuConfig, SramBudget};

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

/// The ungated single-budget reference plan (or the planner's error).
fn independent(
    cfg: QuantMcuConfig,
    g: &quantmcu::nn::Graph,
    images: &[Tensor],
    budget: SramBudget,
) -> Result<DeploymentPlan, PlanError> {
    Planner::new(cfg).plan_with_stats(g, images, budget.bytes()).map(|(plan, _)| plan)
}

fn ladder(bytes: &[usize]) -> Vec<SramBudget> {
    bytes.iter().map(|&b| SramBudget::new(b)).collect()
}

/// A ladder spanning several patch splits, with a duplicate rung: every
/// sweep plan equals the independent plan at its budget, bit for bit.
#[test]
fn planner_sweep_is_bit_identical_across_patch_splits() {
    let g = std::sync::Arc::new(graph());
    let images = calib(5);
    let engine = Engine::builder(g.clone()).build();
    let budgets = ladder(&[1024, 8 * 1024, 32 * 1024, 256 * 1024, 8 * 1024 * 1024, 8 * 1024]);
    let sweep = engine.plan_sweep(&images, &budgets).unwrap();
    assert_eq!(sweep.len(), budgets.len());
    let splits: std::collections::BTreeSet<usize> =
        sweep.iter().map(|p| p.patch_plan().split_at()).collect();
    assert!(splits.len() >= 2, "ladder should span several patch splits, got {splits:?}");
    for (plan, &budget) in sweep.into_iter().zip(&budgets) {
        let independent = independent(QuantMcuConfig::paper(), &g, &images, budget).unwrap();
        assert_eq!(plan.timeless(), independent.timeless(), "diverged at {budget}");
    }
}

/// The sweep's stage sharing must also hold under a parallel planner, and
/// stay bit-identical to the serial sweep *and* the serial independent
/// plans for every worker count.
#[test]
fn parallel_sweep_matches_serial_sweep_and_independent_plans() {
    let g = std::sync::Arc::new(graph());
    let images = calib(6);
    let budgets = ladder(&[16 * 1024, 64 * 1024, 256 * 1024]);
    let sweep_at = |workers| {
        Engine::builder(g.clone()).workers(workers).build().plan_sweep(&images, &budgets).unwrap()
    };
    let reference = sweep_at(1);
    for workers in [2, 3, 7] {
        let sweep = sweep_at(workers);
        for ((plan, refplan), &budget) in sweep.iter().zip(&reference).zip(&budgets) {
            assert_eq!(
                plan.clone().timeless(),
                refplan.clone().timeless(),
                "workers={workers} diverged at {budget}"
            );
        }
    }
    let serial = QuantMcuConfig { workers: 1, ..QuantMcuConfig::paper() };
    for (refplan, &budget) in reference.iter().zip(&budgets) {
        let independent = independent(serial.clone(), &g, &images, budget).unwrap();
        assert_eq!(refplan.clone().timeless(), independent.timeless());
    }
}

/// Infeasible rungs fail in their own slot with exactly the error the
/// independent call raises; feasible rungs are unaffected.
#[test]
fn sweep_each_reports_per_rung_failures_identically() {
    let g = std::sync::Arc::new(graph());
    let images = calib(4);
    let budgets = ladder(&[96, 64 * 1024, 128]);
    let outcomes = Engine::builder(g.clone()).build().plan_sweep_each(&images, &budgets).unwrap();
    assert_eq!(outcomes.len(), budgets.len());
    for (outcome, &budget) in outcomes.iter().zip(&budgets) {
        match (outcome, independent(QuantMcuConfig::paper(), &g, &images, budget)) {
            (Ok(plan), Ok(independent)) => {
                assert_eq!(plan.clone().timeless(), independent.timeless());
            }
            (Err(e), Err(expected)) => assert_eq!(e, &expected, "error diverged at {budget}"),
            (a, b) => panic!(
                "outcome mismatch at {budget}: sweep ok={}, independent ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
    assert!(outcomes[0].is_err() && outcomes[1].is_ok() && outcomes[2].is_err());
}

/// The engine front door: `Engine::plan_sweep` equals one single-budget
/// engine per rung, analyzer verification included.
#[test]
fn engine_sweep_matches_single_budget_engines() {
    let g = std::sync::Arc::new(graph());
    let budgets = [SramBudget::kib(16), SramBudget::kib(256)];
    let engine = Engine::builder(g.clone()).build();
    let sweep = engine.plan_sweep(calib(4), &budgets).unwrap();
    for (plan, &budget) in sweep.into_iter().zip(&budgets) {
        let single = Engine::builder(g.clone()).sram_budget(budget).build().plan(calib(4)).unwrap();
        assert_eq!(plan.timeless(), single.timeless(), "diverged at {budget}");
    }
}

/// The fleet grid reports exactly the metrics of the plans a single-budget
/// engine produces, for every (model, device, budget) point.
#[test]
fn fleet_grid_metrics_match_independent_plans() {
    let models =
        vec![FleetModel::new("a", graph(), calib(3)), FleetModel::new("b", graph(), calib(4))];
    let devices = Device::table1_platforms();
    let budgets = [SramBudget::kib(32), SramBudget::kib(256)];
    let report = plan_fleet(&QuantMcuConfig::paper(), &models, &devices, &budgets).unwrap();
    assert_eq!(report.points.len(), models.len() * devices.len() * budgets.len());
    for point in &report.points {
        let model = models.iter().find(|m| m.name == point.model).unwrap();
        let engine = Engine::builder(model.graph.clone()).sram_budget(point.budget).build();
        let plan = engine.plan(&model.calibration).unwrap();
        let device = devices.iter().find(|d| d.name == point.device).unwrap();
        assert_eq!(point.bitops, plan.bitops());
        assert_eq!(point.peak_bytes, plan.peak_memory_bytes().unwrap());
        assert_eq!(point.latency, plan.latency(device).unwrap());
    }
}
