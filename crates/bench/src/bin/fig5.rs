//! Fig. 5 — Top-1 and Top-5 accuracy of QuantMCU under different φ values
//! (MobileNetV2, ImageNet proxy).
//!
//! Expected shape: accuracy stays flat for φ below ≈ 0.96 and collapses
//! beyond it (larger φ ⇒ fewer outlier-class patches ⇒ more aggressive
//! quantization).

use quantmcu::data::accuracy::{PaperAnchors, ProjectedAccuracy};
use quantmcu::data::metrics::agreement_top1;
use quantmcu::models::Model;
use quantmcu::nn::exec::FloatExecutor;
use quantmcu::quant::VdpcConfig;
use quantmcu::tensor::Tensor;
use quantmcu::{Engine, QuantMcuConfig, SramBudget};
use quantmcu_bench::{calibration, evaluation, exec_dataset, exec_graph, header, row};

const WIDTHS: [usize; 4] = [8, 9, 9, 10];

fn main() {
    let graph = std::sync::Arc::new(exec_graph(Model::MobileNetV2));
    let ds = exec_dataset();
    let calib = calibration(&ds);
    let eval = evaluation(&ds);
    let mut float_exec = FloatExecutor::new(&graph);
    let float: Vec<Tensor> = eval.iter().map(|t| float_exec.run(t).expect("float")).collect();

    println!("Fig 5: QuantMCU accuracy vs phi (MobileNetV2, ImageNet proxy)\n");
    header(&["phi", "Top-1", "Top-5", "Outliers"], &WIDTHS);
    for phi in [0.90, 0.92, 0.94, 0.96, 0.98, 0.995] {
        let cfg = QuantMcuConfig { vdpc: VdpcConfig::with_phi(phi), ..QuantMcuConfig::paper() };
        let engine = Engine::builder(std::sync::Arc::clone(&graph))
            .config(cfg)
            .sram_budget(SramBudget::new(quantmcu_bench::EXEC_SRAM))
            .build();
        let plan = engine.plan(&calib).expect("plan");
        let outliers = plan.outlier_patch_count();
        let deployment = engine.deploy(plan).expect("deploy");
        let quant = deployment.session().run_batch(&eval).expect("run");
        let top1_fid = agreement_top1(&float, &quant);
        // Top-5 fidelity: the float argmax appears in the quantized top-5.
        let top5_hits = float
            .iter()
            .zip(&quant)
            .filter(|(f, q)| f.argmax(0).map(|c| q.top_k(0, 5).contains(&c)).unwrap_or(false))
            .count();
        let top5_fid = top5_hits as f64 / float.len() as f64;
        let a1 = ProjectedAccuracy::new(PaperAnchors::imagenet_top1(Model::MobileNetV2), top1_fid);
        let a5 = ProjectedAccuracy::new(PaperAnchors::imagenet_top5(Model::MobileNetV2), top5_fid);
        println!(
            "{}",
            row(
                &[
                    format!("{phi:.3}"),
                    format!("{:.1}%", a1.percent()),
                    format!("{:.1}%", a5.percent()),
                    format!("{outliers}/{}", deployment.plan().patch_plan().branch_count()),
                ],
                &WIDTHS
            )
        );
    }
}
