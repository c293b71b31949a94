//! Table III — the λ sweep: accuracy and BitOPs as the quantization score
//! shifts weight from computation (low λ) to accuracy (high λ).
//!
//! Expected shape: both Top-1 and BitOPs increase monotonically (modulo
//! sampling noise) with λ; the paper picks λ = 0.6.

use quantmcu::data::accuracy::{PaperAnchors, ProjectedAccuracy};
use quantmcu::data::metrics::agreement_top1;
use quantmcu::models::Model;
use quantmcu::nn::exec::FloatExecutor;
use quantmcu::quant::VdqsConfig;
use quantmcu::tensor::Tensor;
use quantmcu::{Engine, QuantMcuConfig, SramBudget};
use quantmcu_bench::{calibration, evaluation, exec_dataset, exec_graph, header, row};

const WIDTHS: [usize; 4] = [8, 10, 12, 10];

fn main() {
    let graph = std::sync::Arc::new(exec_graph(Model::MobileNetV2));
    let ds = exec_dataset();
    let calib = calibration(&ds);
    let eval = evaluation(&ds);
    let mut float_exec = FloatExecutor::new(&graph);
    let float: Vec<Tensor> = eval.iter().map(|t| float_exec.run(t).expect("float")).collect();

    println!("Table III: impact of lambda on QuantMCU (MobileNetV2, ImageNet proxy)\n");
    header(&["lambda", "Top-1", "BitOPs (M)", "MeanBits"], &WIDTHS);
    for lambda in [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8] {
        let cfg =
            QuantMcuConfig { vdqs: VdqsConfig::with_lambda(lambda), ..QuantMcuConfig::paper() };
        let engine = Engine::builder(std::sync::Arc::clone(&graph))
            .config(cfg)
            .sram_budget(SramBudget::new(quantmcu_bench::EXEC_SRAM))
            .build();
        let plan = engine.plan(&calib).expect("plan");
        let bitops = plan.bitops();
        let mean_bits = plan.mean_branch_bits();
        let deployment = engine.deploy(plan).expect("deploy");
        let quant = deployment.session().run_batch(&eval).expect("run");
        let fidelity = agreement_top1(&float, &quant);
        let top1 =
            ProjectedAccuracy::new(PaperAnchors::imagenet_top1(Model::MobileNetV2), fidelity);
        println!(
            "{}",
            row(
                &[
                    format!("{lambda:.1}"),
                    format!("{:.1}%", top1.percent()),
                    format!("{:.1}", bitops as f64 / 1e6),
                    format!("{mean_bits:.2}"),
                ],
                &WIDTHS
            )
        );
    }
}
