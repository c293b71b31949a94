//! Cross-build golden pin for the integer executor.
//!
//! Every other bit-identity check compares two runs of the *same* build,
//! so a change made symmetrically to both sides passes unseen. These
//! hashes were computed by an earlier build and are committed here: any
//! change to what `QuantExecutor` produces — a feature map or the output,
//! by a single bit — fails this test.
//!
//! Each case runs an exec-scale zoo model on two dataset images at one
//! activation-width assignment and hashes, with [`fnv1a64`], the `f32`
//! bits of every map `run_with` observes followed by the output of `run`.
//! The models cover the lowered weightless operators: MobileNetV2
//! (Relu6), SqueezeNet (Relu, MaxPool, Concat) and InceptionV3 (Concat,
//! MaxPool).

use quantmcu::models::Model;
use quantmcu::nn::codec::fnv1a64;
use quantmcu::nn::exec::{calibrate_ranges, QuantExecutor};
use quantmcu::nn::OpSpec;
use quantmcu::tensor::{Bitwidth, Tensor};
use quantmcu_integration::{calib, eval, graph};

/// Activation widths per feature map.
#[derive(Clone, Copy, Debug)]
enum Mix {
    /// Every map at W8.
    AllW8,
    /// Map `fm` at W8, W4, W2 for `fm % 3` = 0, 1, 2.
    W8W4W2,
}

impl Mix {
    fn bits(self, fm_count: usize) -> Vec<Bitwidth> {
        (0..fm_count)
            .map(|fm| match self {
                Mix::AllW8 => Bitwidth::W8,
                Mix::W8W4W2 => [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2][fm % 3],
            })
            .collect()
    }
}

fn push_bits(bytes: &mut Vec<u8>, t: &Tensor) {
    for v in t.data() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// The hash of every observed map and the output over two images.
fn integer_hash(model: Model, mix: Mix) -> u64 {
    let g = graph(model);
    let ranges = calibrate_ranges(&g, &calib(4)).unwrap();
    let act_bits = mix.bits(g.spec().feature_map_count());
    let mut exec = QuantExecutor::new(&g, &ranges, &act_bits, Bitwidth::W8).unwrap();
    let mut bytes = Vec::new();
    for image in eval(2) {
        exec.run_with(&image, |fm, t| {
            bytes.extend_from_slice(&(fm.0 as u64).to_le_bytes());
            push_bits(&mut bytes, t);
        })
        .unwrap();
        push_bits(&mut bytes, &exec.run(&image).unwrap());
    }
    fnv1a64(&bytes)
}

fn check(model: Model, mix: Mix, expected: u64) {
    let actual = integer_hash(model, mix);
    assert_eq!(
        actual, expected,
        "{model:?} at {mix:?}: integer outputs moved (got {actual:#018x})"
    );
}

#[test]
fn mobilenetv2_all_w8() {
    check(Model::MobileNetV2, Mix::AllW8, 0xddf8_5e87_8796_700f);
}

#[test]
fn mobilenetv2_w8_w4_w2() {
    check(Model::MobileNetV2, Mix::W8W4W2, 0x4f6c_0e77_1549_1221);
}

#[test]
fn squeezenet_all_w8() {
    check(Model::SqueezeNet, Mix::AllW8, 0x973c_ac94_8bb4_d611);
}

#[test]
fn squeezenet_w8_w4_w2() {
    check(Model::SqueezeNet, Mix::W8W4W2, 0x698f_b265_5423_6dd1);
}

#[test]
fn inceptionv3_all_w8() {
    check(Model::InceptionV3, Mix::AllW8, 0x9f6f_0b37_43af_bd13);
}

#[test]
fn inceptionv3_w8_w4_w2() {
    check(Model::InceptionV3, Mix::W8W4W2, 0x83d2_62b7_7bcd_7af6);
}

#[test]
fn the_models_carry_the_lowered_operators() {
    let has = |model: Model, want: fn(OpSpec) -> bool| {
        graph(model).spec().nodes().iter().any(|n| want(n.op))
    };
    let max_pool = |op| matches!(op, OpSpec::MaxPool { .. });
    assert!(has(Model::MobileNetV2, |op| op == OpSpec::Relu6));
    assert!(has(Model::SqueezeNet, |op| op == OpSpec::Relu));
    assert!(has(Model::SqueezeNet, max_pool));
    assert!(has(Model::SqueezeNet, |op| op == OpSpec::Concat));
    assert!(has(Model::InceptionV3, max_pool));
    assert!(has(Model::InceptionV3, |op| op == OpSpec::Concat));
}
