//! Byte-format pins across builds: a `.qmcu` model and a `.qplan` plan
//! written by an earlier build are committed under `tests/fixtures/`,
//! and this build must decode both, re-encode both byte for byte, and
//! serve the plan.
//!
//! The model is the 16×16×3 conv/dense graph of the artifact unit tests
//! (structured weights, seed 31); the plan was made for it at a 256 KiB
//! SRAM budget on four calibration images.
//!
//! Decoding and re-encoding within one build cannot catch a change made
//! symmetrically to both directions; these fixtures can.

use quantmcu::artifact::{ArtifactError, PlanArtifact};
use quantmcu::nn::codec::FormatError;
use quantmcu::nn::import::{decode, encode, load_model, ImportError};
use quantmcu::tensor::{Shape, Tensor};
use quantmcu::{Engine, SramBudget};

const QMCU: &[u8] = include_bytes!("../fixtures/v1.qmcu");
const QPLAN: &[u8] = include_bytes!("../fixtures/v1.qplan");

fn image(s: usize) -> Tensor {
    Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i + 97 * s) as f32 * 0.19).sin())
}

#[test]
fn committed_model_re_encodes_byte_identically() {
    let ir = decode(QMCU).expect("committed .qmcu decodes");
    assert_eq!(encode(&ir), QMCU);
}

#[test]
fn committed_plan_re_encodes_byte_identically() {
    let artifact = PlanArtifact::decode(QPLAN).expect("committed .qplan decodes");
    assert_eq!(artifact.encode(), QPLAN);
}

#[test]
fn each_format_rejects_the_other_by_magic() {
    let (qmcu, qplan) = (*b"QMCU", *b"QPLN");
    assert_eq!(
        decode(QPLAN).unwrap_err(),
        ImportError::Format(FormatError::BadMagic { found: qplan, expected: qmcu })
    );
    assert_eq!(
        PlanArtifact::decode(QMCU).unwrap_err(),
        ArtifactError::Format(FormatError::BadMagic { found: qmcu, expected: qplan })
    );
}

#[test]
fn committed_plan_serves_like_a_fresh_deployment() {
    let graph = load_model(QMCU).expect("committed .qmcu imports");
    let engine = Engine::builder(graph).sram_budget(SramBudget::kib(256)).build();
    let cold = engine.deploy_from_artifact(QPLAN).expect("cold start from the committed plan");
    let fresh = engine
        .plan((0..4).map(image).collect::<Vec<_>>())
        .and_then(|p| engine.deploy(p))
        .expect("fresh deployment");
    assert_eq!(cold.plan().spec(), fresh.plan().spec());
    let (mut cold, mut fresh) = (cold.session(), fresh.session());
    let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for s in 10..13 {
        let out = cold.run(&image(s)).expect("session runs");
        assert_eq!(bits(out), bits(fresh.run(&image(s)).unwrap()), "image {s}");
    }
}
