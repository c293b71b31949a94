//! Fig. 6 — the bitwidth assignment QuantMCU produces for MobileNetV2 and
//! MCUNet, feature map by feature map along each dataflow branch.
//!
//! Expected shape: a majority of feature maps at sub-byte precision; maps
//! near a branch's end (and the tail's accuracy-critical maps) at 8-bit.

use quantmcu::models::Model;
use quantmcu::quant::vdpc::PatchClass;
use quantmcu::tensor::Bitwidth;
use quantmcu::{DeploymentPlan, Engine, SramBudget};
use quantmcu_bench::{calibration, exec_dataset, exec_graph};

fn main() {
    let ds = exec_dataset();
    let calib = calibration(&ds);
    for model in [Model::MobileNetV2, Model::McuNet] {
        let engine = Engine::builder(exec_graph(model))
            .sram_budget(SramBudget::new(quantmcu_bench::EXEC_SRAM))
            .build();
        let plan = engine.plan(&calib).expect("plan");
        println!("\nFig 6: bitwidth assignment for {model}\n");
        print_assignment(&plan);
    }
}

fn print_assignment(plan: &DeploymentPlan) {
    for (b, (bits, class)) in plan.branch_bits().iter().zip(plan.patch_classes()).enumerate() {
        let cells: Vec<String> = bits
            .iter()
            .enumerate()
            .map(|(l, bw)| format!("B{}L{}={}", b + 1, l, bw.bits()))
            .collect();
        let tag = match class {
            PatchClass::Outlier => " [outlier: pinned 8-bit]",
            PatchClass::NonOutlier => "",
        };
        println!("  branch {}{}: {}", b + 1, tag, cells.join(" "));
    }
    let tail: Vec<String> = plan
        .tail_bits()
        .iter()
        .enumerate()
        .map(|(l, bw)| format!("T{}={}", l, bw.bits()))
        .collect();
    println!("  tail: {}", tail.join(" "));
    let sub_byte = plan
        .branch_bits()
        .iter()
        .flatten()
        .chain(plan.tail_bits().iter())
        .filter(|b| b.is_sub_byte())
        .count();
    let total = plan.branch_bits().iter().map(Vec::len).sum::<usize>() + plan.tail_bits().len();
    println!(
        "  sub-byte feature maps: {sub_byte}/{total} ({:.0}%), mean branch bits {:.2}",
        sub_byte as f64 / total as f64 * 100.0,
        plan.mean_branch_bits()
    );
    let _ = Bitwidth::W8;
}
