//! Ablations over the reproduction's own design choices (DESIGN.md §3):
//! patch grid size, split policy, and the two readings of Eq. (1).
//!
//! ```text
//! cargo run --release -p quantmcu-bench --bin ablate
//! ```

use quantmcu::mcusim::Device;
use quantmcu::models::Model;
use quantmcu::patch::{redundancy, PatchPlan};
use quantmcu::quant::vdpc::{OutlierRule, VdpcClassifier};
use quantmcu::tensor::stats;
use quantmcu::{Engine, SramBudget};
use quantmcu_bench::{calibration, exec_dataset, exec_graph, header, row, EXEC_SRAM};

fn main() {
    grid_ablation();
    split_policy_ablation();
    outlier_rule_ablation();
}

/// How the patch grid trades redundancy against per-branch memory.
fn grid_ablation() {
    println!("Ablation 1: patch grid size (MCU-scale MobileNetV2, fitted split)\n");
    let device = Device::nano33_ble_sense();
    let spec = Model::MobileNetV2
        .spec(Model::MobileNetV2.mcu_scale(device.sram_bytes / 1024, 1000))
        .expect("spec");
    let widths = [6, 12, 14, 12];
    header(&["Grid", "Split", "Overhead", "Branches"], &widths);
    for grid in [2usize, 3, 4, 5] {
        let Ok(plan) = PatchPlan::fitted(&spec, grid, device.sram_bytes) else {
            println!(
                "{}",
                row(&[format!("{grid}x{grid}"), "-".into(), "-".into(), "-".into()], &widths)
            );
            continue;
        };
        let report = redundancy::analyze(&spec, &plan).expect("report");
        println!(
            "{}",
            row(
                &[
                    format!("{grid}x{grid}"),
                    format!("{}", plan.split_at()),
                    format!("+{:.1}%", (report.overhead_ratio() - 1.0) * 100.0),
                    format!("{}", plan.branch_count()),
                ],
                &widths
            )
        );
    }
}

/// Fitted (patch only what must be patched) vs deep (maximal quantization
/// scope) split policies.
fn split_policy_ablation() {
    println!("\nAblation 2: split policy (exec-scale MobileNetV2, QuantMCU plan)\n");
    let engine = Engine::builder(exec_graph(Model::MobileNetV2))
        .sram_budget(SramBudget::new(EXEC_SRAM))
        .build();
    let graph = engine.graph();
    let calib = calibration(&exec_dataset());
    let widths = [8, 7, 12, 14, 12];
    header(&["Policy", "Split", "BitOPs (M)", "PeakMem (KB)", "MeanBits"], &widths);
    // Fitted policy = the production planner.
    let plan = engine.plan(calib).expect("plan");
    print_plan_row("fitted", &plan, &widths);
    // Deep policy, reconstructed through the public plan API.
    let deep = PatchPlan::deep(graph.spec(), 3).expect("deep plan");
    println!(
        "{}",
        row(
            &[
                "deep".into(),
                format!("{}", deep.split_at()),
                format!(
                    "(8-bit halo +{:.0}%)",
                    (redundancy::analyze(graph.spec(), &deep).expect("report").overhead_ratio()
                        - 1.0)
                        * 100.0
                ),
                "-".into(),
                "-".into(),
            ],
            &widths
        )
    );
    println!("\n(The deep stage maximizes VDQS scope but its halo dominates at");
    println!("small resolutions — why the planner ships with the fitted policy.)");
}

fn print_plan_row(name: &str, plan: &quantmcu::DeploymentPlan, widths: &[usize]) {
    println!(
        "{}",
        row(
            &[
                name.into(),
                format!("{}", plan.patch_plan().split_at()),
                format!("{:.1}", plan.bitops() as f64 / 1e6),
                format!("{:.1}", plan.peak_memory_bytes().expect("mem") as f64 / 1024.0),
                format!("{:.2}", plan.mean_branch_bits()),
            ],
            widths
        )
    );
}

/// The central-mass reading of Eq. (1) vs the literal PDF threshold.
fn outlier_rule_ablation() {
    println!("\nAblation 3: Eq. (1) readings (outlier fraction on calibration data)\n");
    let ds = exec_dataset();
    let values: Vec<f32> = ds.images(8).iter().flat_map(|t| t.data().to_vec()).collect();
    let widths = [30, 18];
    header(&["Rule", "Outlier fraction"], &widths);
    for (label, rule) in [
        ("central-mass phi=0.90", OutlierRule::CentralMass { phi: 0.90 }),
        ("central-mass phi=0.96", OutlierRule::CentralMass { phi: 0.96 }),
        ("central-mass phi=0.995", OutlierRule::CentralMass { phi: 0.995 }),
        ("pdf-threshold (equiv. of 0.96)", {
            let m = stats::moments(&values).expect("moments");
            let z = stats::central_z(0.96);
            OutlierRule::PdfThreshold {
                threshold: stats::normal_pdf(
                    m.mean as f64 + z * m.std as f64,
                    m.mean as f64,
                    m.std as f64,
                ),
            }
        }),
    ] {
        let clf = VdpcClassifier::fit(&values, rule).expect("fit");
        println!(
            "{}",
            row(&[label.into(), format!("{:.3}%", clf.outlier_fraction(&values) * 100.0)], &widths)
        );
    }
}
