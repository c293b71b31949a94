//! Shared fixtures for the cross-crate integration tests.

use quantmcu::data::classification::ClassificationDataset;
use quantmcu::models::{Model, ModelConfig};
use quantmcu::nn::{init, Graph, GraphSpecBuilder};
use quantmcu::tensor::Tensor;

/// Seed shared by all integration fixtures.
pub const SEED: u64 = 77;

/// An exec-scale model with structured weights.
pub fn graph(model: Model) -> Graph {
    let spec = model.spec(ModelConfig::exec_scale()).expect("exec-scale build");
    init::with_structured_weights(spec, SEED)
}

/// The shared synthetic dataset.
pub fn dataset() -> ClassificationDataset {
    ClassificationDataset::new(32, 10, SEED)
}

/// `n` calibration images.
pub fn calib(n: usize) -> Vec<Tensor> {
    dataset().images(n)
}

/// `n` evaluation images disjoint from any calibration prefix.
pub fn eval(n: usize) -> Vec<Tensor> {
    (1000..1000 + n).map(|i| dataset().sample(i).0).collect()
}

/// Applies one randomized "zoo-like" op against a tracked (h, w), so the
/// resulting builder chain is always constructible. `code` packs the op
/// kind in its low 3 bits and a size selector above them (the shim's
/// proptest has no tuple strategies).
pub fn apply(b: GraphSpecBuilder, h: &mut usize, w: &mut usize, code: u8) -> GraphSpecBuilder {
    let sel = (code >> 3) as usize % 4;
    match code % 8 {
        0 => b.conv2d(2 + sel, 3, 1, 1),
        1 if *h >= 3 && *w >= 3 => {
            *h = (*h - 1) / 2 + 1;
            *w = (*w - 1) / 2 + 1;
            b.conv2d(2 + sel, 3, 2, 1)
        }
        2 => b.dwconv(3, 1, 1),
        3 => b.pwconv(1 + sel),
        4 => b.relu6(),
        5 if *h >= 2 && *w >= 2 => {
            *h = (*h - 2) / 2 + 1;
            *w = (*w - 2) / 2 + 1;
            b.max_pool(2, 2)
        }
        6 => b.inverted_residual(2 + sel, 2, 1),
        _ => b.relu(),
    }
}
