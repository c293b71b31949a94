//! Table I — QuantMCU vs layer-based and patch-based baselines on
//! MobileNetV2, two platforms × two tasks: peak memory, BitOPs, latency.
//!
//! Expected shape: every patch baseline beats layer-based memory but pays
//! in BitOPs/latency; QuantMCU has the lowest memory AND BitOPs/latency
//! below even layer-based (the paper reports 2.2× mean BitOPs reduction
//! and 1.5× mean latency reduction over the patch baselines).

use quantmcu::data::classification::ClassificationDataset;
use quantmcu::mcusim::{Device, LatencyModel};
use quantmcu::models::{detection_head, Model, ModelConfig};
use quantmcu::nn::cost::BitwidthAssignment;
use quantmcu::nn::{init, GraphSpec};
use quantmcu::patch::baselines::{cipolletta, layer_based, mcunetv2, rnnpool};
use quantmcu::tensor::Bitwidth;
use quantmcu::{Engine, SramBudget};
use quantmcu_bench::{header, kb, mbitops, ms, row, SEED};

const WIDTHS: [usize; 4] = [18, 14, 12, 12];

fn main() {
    for device in Device::table1_platforms() {
        for task in ["ImageNet", "PascalVOC"] {
            let cfg = Model::MobileNetV2.mcu_scale(device.sram_bytes / 1024, 1000);
            let spec = if task == "ImageNet" {
                Model::MobileNetV2.spec(cfg).expect("classification spec")
            } else {
                let det_cfg = ModelConfig { classes: 20, ..cfg };
                detection_head(det_cfg, 3).expect("detection spec").0
            };
            println!("\nTable I: MobileNetV2 on {task}, {}\n", device);
            run_block(&spec, &device);
        }
    }
}

fn run_block(spec: &GraphSpec, device: &Device) {
    let latency_model = LatencyModel::new(*device);
    header(&["Method", "PeakMem (KB)", "BitOPs (M)", "Lat. (ms)"], &WIDTHS);
    let print = |name: &str, mem: usize, bitops: u64, lat: std::time::Duration| {
        println!("{}", row(&[name.to_string(), kb(mem), mbitops(bitops), ms(lat)], &WIDTHS));
    };

    // Layer-based int8.
    let layer = layer_based::cost(spec);
    let layer_lat = latency_model.layer_based(
        spec,
        &BitwidthAssignment::uniform(spec, Bitwidth::W8),
        Bitwidth::W8,
    );
    print("Layer-Based", layer.peak_memory_bytes, layer.bitops, layer_lat);

    // MCUNetV2 patch schedule at uniform 8-bit.
    let mc = mcunetv2::schedule(spec, device.sram_bytes).expect("schedulable");
    let (head, tail) = spec.split_at(mc.plan.split_at()).expect("valid split");
    let bb = vec![vec![Bitwidth::W8; head.len() + 1]; mc.plan.branch_count()];
    let tb = vec![Bitwidth::W8; tail.feature_map_count()];
    let mc_lat =
        latency_model.patch_based(spec, &mc.plan, &bb, &tb, Bitwidth::W8).expect("valid plan");
    print("MCUNetV2", mc.cost.peak_memory_bytes, mc.cost.bitops, mc_lat);

    // Cipolletta et al. restructuring.
    let ci = cipolletta::schedule(spec).expect("schedulable");
    let (head, tail) = spec.split_at(ci.plan.split_at()).expect("valid split");
    let bb = vec![vec![Bitwidth::W8; head.len() + 1]; ci.plan.branch_count()];
    let tb = vec![Bitwidth::W8; tail.feature_map_count()];
    let ci_lat =
        latency_model.patch_based(spec, &ci.plan, &bb, &tb, Bitwidth::W8).expect("valid plan");
    print("Cipolletta et al.", ci.cost.peak_memory_bytes, ci.cost.bitops, ci_lat);

    // RNNPool transform, executed layer-based.
    let rp = rnnpool::schedule(spec).expect("transformable");
    let rp_lat = latency_model.layer_based(
        &rp.spec,
        &BitwidthAssignment::uniform(&rp.spec, Bitwidth::W8),
        Bitwidth::W8,
    );
    print("RNNPool", rp.cost.peak_memory_bytes, rp.cost.bitops, rp_lat);

    // QuantMCU.
    let graph = init::with_structured_weights(spec.clone(), SEED);
    let res = spec.input_shape().h;
    let calib = ClassificationDataset::new(res, 10, SEED).images(2);
    let engine = Engine::builder(graph).sram_budget(SramBudget::of_device(device)).build();
    let plan = engine.plan(calib).expect("plannable");
    let q_lat = plan.latency(device).expect("valid plan");
    print("QuantMCU", plan.peak_memory_bytes().expect("valid plan"), plan.bitops(), q_lat);
}
