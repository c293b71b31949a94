//! Whole-pipeline differential property test: a random zoo-like graph
//! travels through every hand-off of the serving pipeline, and the served
//! outputs must be bit-identical to the calibrated deployment's.
//!
//! `.qmcu` save → `Engine::import` (optimizer + analyzer) → plan →
//! deploy → `.qplan` save → decode and byte-identical re-encode →
//! calibration-free `deploy_from_artifact` → `Server` at 1 and 2
//! workers. A stage may reject a graph only with a typed error; a panic
//! fails the property.

use proptest::prelude::*;

use quantmcu::artifact::PlanArtifact;
use quantmcu::nn::{import, init, GraphSpecBuilder};
use quantmcu::tensor::{Shape, Tensor};
use quantmcu::{Engine, Error, Server, SramBudget};
use quantmcu_integration::apply;

fn image(shape: Shape, s: usize) -> Tensor {
    Tensor::from_fn(shape, |i| ((i + 31 * s) as f32 * 0.23).sin())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs the chain, asserting every hand-off; `Ok` also when planning
/// rejected the graph with a typed error.
fn served_matches_calibrated(graph: quantmcu::nn::Graph) -> Result<(), Error> {
    let shape = graph.spec().input_shape();
    let engine =
        Engine::import(&import::save_model(&graph))?.sram_budget(SramBudget::kib(256)).build();
    let deployment = match engine.plan((0..4).map(|s| image(shape, s)).collect::<Vec<_>>()) {
        Ok(plan) => engine.deploy(plan)?,
        // Planning may reject a graph (e.g. no feasible split); it must
        // say why in a typed error.
        Err(Error::Plan(_) | Error::Patch(_) | Error::Analysis(_)) => return Ok(()),
        Err(e) => return Err(e),
    };
    let bytes = deployment.save()?;
    assert_eq!(PlanArtifact::decode(&bytes)?.encode(), bytes, "re-encode must be byte-identical");

    let inputs: Vec<Tensor> = (10..14).map(|s| image(shape, s)).collect();
    let mut session = deployment.session();
    let expected: Vec<Vec<u32>> =
        inputs.iter().map(|x| session.run(x).map(|t| bits(&t))).collect::<Result<_, _>>()?;
    for workers in [1, 2] {
        let server = Server::builder(engine.deploy_from_artifact(&bytes)?).workers(workers).build();
        let tickets = inputs.iter().map(|x| server.submit(x)).collect::<Result<Vec<_>, _>>()?;
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            assert_eq!(&bits(&ticket.wait()?), want, "{workers} worker(s) diverged");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn served_cold_start_is_bit_identical_to_calibrated_session(
        h in 8usize..20,
        w in 8usize..20,
        c in 1usize..4,
        ops in prop::collection::vec(0u8..32, 1..6),
        seed in 0u64..1000,
    ) {
        let (mut ch, mut cw) = (h, w);
        let mut b = GraphSpecBuilder::new(Shape::hwc(h, w, c));
        for op in ops {
            b = apply(b, &mut ch, &mut cw, op);
        }
        let spec = b.global_avg_pool().dense(10).build().unwrap();
        if let Err(e) = served_matches_calibrated(init::with_structured_weights(spec, seed)) {
            prop_assert!(false, "a stage failed on a valid graph: {e}");
        }
    }
}
