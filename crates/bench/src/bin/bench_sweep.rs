//! Budget-sweep measurement emitting `BENCH_sweep.json`: how much cheaper
//! is planning a whole SRAM-budget ladder through
//! `Engine::plan_sweep_each` (shared prologue / VDPC / entropy per patch
//! split) than planning each rung independently — and what does the
//! resulting (BitOPs, peak SRAM, latency) operating-point grid look like?
//!
//! Hard tripwire: every sweep outcome must be bit-identical to the
//! independent `Planner::plan_with_stats` outcome at the same budget
//! (plans compare `timeless()`, failures compare by error value). The
//! reference is the planner's ungated call, so a rung the planner
//! rejects is compared with the planner's own error, not with the
//! analyzer's verdict on that budget.
//!
//! Set `QUANTMCU_SMOKE=1` to shrink the ladder and calibration set for CI
//! smoke runs.

use std::time::Instant;

use quantmcu::fleet::{plan_fleet, FleetModel};
use quantmcu::mcusim::Device;
use quantmcu::models::Model;
use quantmcu::tensor::Tensor;
use quantmcu::{Engine, Planner, QuantMcuConfig, SramBudget};
use quantmcu_bench::{exec_dataset, exec_graph, smoke};

fn main() {
    let (images, budgets_kib): (usize, &[usize]) =
        if smoke() { (8, &[8, 16, 32, 64]) } else { (32, &[4, 6, 8, 12, 16, 24, 32, 48, 64]) };
    let budgets: Vec<SramBudget> = budgets_kib.iter().map(|&k| SramBudget::kib(k)).collect();
    let graph = std::sync::Arc::new(exec_graph(Model::MobileNetV2));
    let ds = exec_dataset();
    let calib: Vec<Tensor> = ds.images(images);
    // Serial planning: the sweep-vs-independent ratio should measure
    // prologue/table reuse, not thread-pool effects.
    let cfg = QuantMcuConfig { workers: 1, ..QuantMcuConfig::paper() };
    let engine = Engine::builder(std::sync::Arc::clone(&graph)).config(cfg.clone()).build();
    let planner = Planner::new(cfg.clone());

    println!(
        "Budget sweep: {} budgets ({}..{} KiB), {images}-image calibration set\n",
        budgets.len(),
        budgets_kib.first().unwrap(),
        budgets_kib.last().unwrap()
    );

    let start = Instant::now();
    let sweep = engine.plan_sweep_each(&calib, &budgets).expect("sweep");
    let sweep_time = start.elapsed();

    let start = Instant::now();
    let independent: Vec<_> = budgets
        .iter()
        .map(|b| planner.plan_with_stats(&graph, &calib, b.bytes()).map(|(plan, _)| plan))
        .collect();
    let independent_time = start.elapsed();

    // ---- Bit-identity tripwire: sweep == independent, rung by rung. ----
    let mut splits = Vec::new();
    for ((swept, single), &kib) in sweep.iter().zip(&independent).zip(budgets_kib) {
        match (swept, single) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.clone().timeless(),
                    b.clone().timeless(),
                    "sweep diverged from independent plan at {kib} KiB"
                );
                splits.push(a.patch_plan().split_at());
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "sweep error diverged at {kib} KiB"),
            (a, b) => panic!(
                "sweep/independent outcome mismatch at {kib} KiB: sweep ok={}, independent ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
    let planned = sweep.iter().filter(|r| r.is_ok()).count();
    let mut unique_splits = splits.clone();
    unique_splits.sort_unstable();
    unique_splits.dedup();
    let speedup = independent_time.as_secs_f64() / sweep_time.as_secs_f64();
    println!(
        "  planned {planned}/{} rungs across {} patch split(s)",
        budgets.len(),
        unique_splits.len()
    );
    println!(
        "  sweep:       {:8.1} ms\n  independent: {:8.1} ms\n  speedup:     {speedup:5.2}x  (bit-identical: true)",
        sweep_time.as_secs_f64() * 1e3,
        independent_time.as_secs_f64() * 1e3
    );
    if !smoke() {
        assert!(
            speedup > 1.05,
            "budget sweep should beat independent planning (got {speedup:.2}x)"
        );
    }

    // ---- Operating-point grid + Pareto frontier over the ladder. ----
    let model = FleetModel::new("MobileNetV2 (exec scale)", graph, calib);
    let devices = Device::table1_platforms();
    let report = plan_fleet(&cfg, &[model], &devices, &budgets).expect("fleet grid");

    println!(
        "\n  {:<28} {:>10} {:>12} {:>12} {:>10}  pareto",
        "device", "budget", "bitops", "peak KiB", "lat ms"
    );
    let mut point_rows = Vec::new();
    for p in &report.points {
        println!(
            "  {:<28} {:>10} {:>12} {:>12.1} {:>10.2}  {}",
            p.device,
            p.budget.to_string(),
            p.bitops,
            p.peak_bytes as f64 / 1024.0,
            p.latency.as_secs_f64() * 1e3,
            if p.pareto { "*" } else { "" }
        );
        point_rows.push(format!(
            "    {{\"device\": \"{}\", \"budget_kib\": {:.1}, \"bitops\": {}, \
             \"peak_bytes\": {}, \"latency_ms\": {:.4}, \"deployable\": {}, \"pareto\": {}}}",
            p.device,
            p.budget.bytes() as f64 / 1024.0,
            p.bitops,
            p.peak_bytes,
            p.latency.as_secs_f64() * 1e3,
            p.deployable,
            p.pareto
        ));
    }
    for f in &report.failures {
        println!("  (no plan at {} — {})", f.budget, f.error);
    }

    let budgets_json: Vec<String> = budgets_kib.iter().map(|k| k.to_string()).collect();
    let json = format!(
        "{{\n  \"bench\": \"budget_sweep\",\n  \"model\": \"MobileNetV2 (exec scale)\",\n  \
         \"calibration_images\": {images},\n  \"budgets_kib\": [{}],\n  \
         \"planned_rungs\": {planned},\n  \"patch_splits\": {},\n  \
         \"sweep_seconds\": {:.6},\n  \"independent_seconds\": {:.6},\n  \
         \"speedup\": {speedup:.4},\n  \"bit_identical\": true,\n  \"points\": [\n{}\n  ]\n}}\n",
        budgets_json.join(", "),
        unique_splits.len(),
        sweep_time.as_secs_f64(),
        independent_time.as_secs_f64(),
        point_rows.join(",\n")
    );
    // Smoke runs exist to catch runtime panics; don't let their shrunken
    // measurements clobber the committed full-config snapshot.
    let path = if smoke() { "BENCH_sweep.smoke.json" } else { "BENCH_sweep.json" };
    std::fs::write(path, &json).expect("write sweep benchmark JSON");
    println!("\nwrote {path} ({} bytes)", json.len());
}
