//! Shared harness for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Each `src/bin/*.rs` binary corresponds to one table or figure (the
//! repository README lists them); this library holds the wiring they
//! share: standard seeds, dataset/graph construction, fidelity
//! measurement and table formatting.

use quantmcu::data::classification::ClassificationDataset;
use quantmcu::data::metrics::agreement_top1;
use quantmcu::models::{Model, ModelConfig};
use quantmcu::nn::exec::FloatExecutor;
use quantmcu::nn::{init, Graph};
use quantmcu::tensor::Tensor;
use quantmcu::{DeploymentPlan, Engine, Error};

/// The seed every experiment derives its weights and data from, so tables
/// are reproducible run to run.
pub const SEED: u64 = 2024;

/// Calibration images used by every planner invocation.
pub const CALIB_IMAGES: usize = 8;

/// Evaluation images used for fidelity measurements.
pub const EVAL_IMAGES: usize = 64;

/// `true` when `QUANTMCU_SMOKE` is set: the reproduction binaries shrink
/// their evaluation sets so CI can execute them end to end (catching
/// runtime panics, not just compile errors) in seconds.
pub fn smoke() -> bool {
    std::env::var_os("QUANTMCU_SMOKE").is_some()
}

/// Evaluation-set size honoring smoke mode.
pub fn eval_images() -> usize {
    if smoke() {
        8
    } else {
        EVAL_IMAGES
    }
}

/// SRAM budget for exec-scale experiments. Exec-scale activations are a
/// few kilobytes, so 16 KiB plays the role 256 KB plays for the real
/// MCU-scale models: it forces a non-trivial patch stage and makes the
/// Eq. (7) repair loop do real work.
pub const EXEC_SRAM: usize = 16 * 1024;

/// Builds a model at exec scale with structured weights.
///
/// # Panics
///
/// Panics when the model cannot be built at exec scale (covered by the
/// model-zoo tests).
pub fn exec_graph(model: Model) -> Graph {
    let spec = model.spec(ModelConfig::exec_scale()).expect("exec-scale models build");
    init::with_structured_weights(spec, SEED ^ model.name().len() as u64)
}

/// The synthetic ImageNet proxy at exec scale.
pub fn exec_dataset() -> ClassificationDataset {
    ClassificationDataset::new(32, 10, SEED)
}

/// Calibration batch for a dataset.
pub fn calibration(ds: &ClassificationDataset) -> Vec<Tensor> {
    ds.images(CALIB_IMAGES)
}

/// Evaluation batch (disjoint from calibration; smaller in smoke mode).
pub fn evaluation(ds: &ClassificationDataset) -> Vec<Tensor> {
    (CALIB_IMAGES..CALIB_IMAGES + eval_images()).map(|i| ds.sample(i).0).collect()
}

/// Top-1 agreement of `plan`, deployed through `engine`, against the
/// engine's float model over `inputs`.
///
/// # Errors
///
/// Propagates deployment and execution errors.
pub fn deployment_fidelity(
    engine: &Engine,
    plan: DeploymentPlan,
    inputs: &[Tensor],
) -> Result<f64, Error> {
    let quant = engine.deploy(plan)?.session().run_batch(inputs)?;
    let mut float_exec = FloatExecutor::new(engine.graph().as_ref());
    let float: Vec<Tensor> = inputs
        .iter()
        .map(|t| float_exec.run(t))
        .collect::<Result<_, quantmcu::nn::GraphError>>()?;
    Ok(agreement_top1(&float, &quant))
}

/// Prints a table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
}

/// Prints a header plus separator.
pub fn header(cells: &[&str], widths: &[usize]) {
    let cells: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
    let line = row(&cells, widths);
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// Formats bytes as kilobytes with one decimal.
pub fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Formats BitOPs in millions.
pub fn mbitops(b: u64) -> String {
    format!("{:.1}", b as f64 / 1e6)
}

/// Formats a duration in milliseconds.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(kb(2048), "2.0");
        assert_eq!(mbitops(1_500_000), "1.5");
        assert_eq!(ms(std::time::Duration::from_millis(250)), "250.0");
    }

    #[test]
    fn calibration_and_evaluation_are_disjoint() {
        let ds = exec_dataset();
        let c = calibration(&ds);
        let e = evaluation(&ds);
        assert_eq!(c.len(), CALIB_IMAGES);
        assert_eq!(e.len(), eval_images());
        assert!(c.iter().all(|ci| e.iter().all(|ei| ci != ei)));
    }
}
