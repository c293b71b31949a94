//! Workspace-surface tests: the `quantmcu::` re-export facade must expose
//! every type a downstream user needs without reaching into the subsystem
//! crates. A failure here means a crate manifest or `pub use` regressed,
//! even if the subsystem crates themselves still pass their own tests.

use quantmcu::data::metrics::agreement_top1;
use quantmcu::mcusim::Device;
use quantmcu::models::{Model, ModelConfig};
use quantmcu::nn::init;
use quantmcu::tensor::Bitwidth;
use quantmcu::{
    CalibrationStream, Deployment, DeploymentPlan, Engine, Error, PlanError, Planner,
    QuantMcuConfig, Session, SramBudget,
};
use quantmcu_integration::{calib, dataset, eval, graph};

/// Every facade path named in the public quickstart resolves and composes:
/// build an `Engine`, plan from a `CalibrationSource`, deploy to an owned
/// `Deployment`, serve through a `Session`, measure with
/// `quantmcu::data::metrics::agreement_top1`.
#[test]
fn facade_exposes_the_full_serving_pipeline() {
    let g = graph(Model::McuNet);
    let engine: Engine = Engine::builder(g.clone())
        .config(QuantMcuConfig::default())
        .sram_budget(SramBudget::kib(16))
        .build();
    let plan: DeploymentPlan = engine.plan(calib(4)).unwrap();
    let deployment: Deployment = engine.deploy(plan).unwrap();
    let mut session: Session<&Deployment> = deployment.session();
    let inputs = eval(4);
    let quant = session.run_batch(&inputs).unwrap();
    let float: Vec<_> =
        inputs.iter().map(|x| quantmcu::nn::exec::FloatExecutor::new(&g).run(x).unwrap()).collect();
    let agreement = agreement_top1(&float, &quant);
    assert!((0.0..=1.0).contains(&agreement));
}

/// Every documented `CalibrationSource` shape produces the same plan: a
/// slice, an owned vector, a lazy `CalibrationStream`, and the dataset
/// itself with an explicit count.
#[test]
fn calibration_sources_are_interchangeable() {
    let engine = Engine::builder(graph(Model::McuNet)).sram_budget(SramBudget::kib(16)).build();
    let images = calib(4);
    let ds = dataset();
    let from_slice = engine.plan(&images[..]).unwrap().timeless();
    let from_vec = engine.plan(images.clone()).unwrap().timeless();
    let from_stream =
        engine.plan(CalibrationStream::new((0..4).map(|i| ds.sample(i).0))).unwrap().timeless();
    let from_dataset = engine.plan((ds, 4)).unwrap().timeless();
    assert_eq!(from_slice, from_vec);
    assert_eq!(from_slice, from_stream);
    assert_eq!(from_slice, from_dataset);
}

/// `Planner`'s one call — the ungated, stats-reporting single-budget
/// plan that benchmarks cross-check the engine with — produces
/// bit-identical plans to the `Engine` front door.
#[test]
fn planner_facade_matches_engine() {
    let g = graph(Model::McuNet);
    let (via_planner, _) =
        Planner::new(QuantMcuConfig::default()).plan_with_stats(&g, &calib(4), 16 * 1024).unwrap();
    let via_planner = via_planner.timeless();
    let engine = Engine::builder(g).sram_budget(SramBudget::kib(16)).build();
    let via_engine = engine.plan(calib(4)).unwrap().timeless();
    assert_eq!(via_planner, via_engine);
}

/// The subsystem re-export modules expose their headline types under the
/// names the documentation promises.
#[test]
fn facade_reexports_subsystem_types() {
    // quantmcu::tensor
    assert_eq!(Bitwidth::W8.bits(), 8);
    assert!(Bitwidth::SEARCH_CANDIDATES.contains(&Bitwidth::W2));
    // quantmcu::mcusim
    let [nano, stm] = Device::table1_platforms();
    assert!(nano.sram_bytes < stm.sram_bytes);
    assert_eq!(SramBudget::of_device(&nano).bytes(), nano.sram_bytes);
    // quantmcu::models
    let spec = Model::MobileNetV2.spec(ModelConfig::exec_scale()).unwrap();
    assert!(!spec.is_empty());
    // quantmcu::nn / quantmcu::patch compose across crate boundaries.
    let plan = quantmcu::patch::PatchPlan::new(&spec, 3, 2, 2).unwrap();
    assert_eq!(plan.branch_count(), 4);
    // quantmcu::quant
    let cfg = quantmcu::quant::VdqsConfig::default();
    assert!(cfg.lambda > 0.0 && cfg.lambda < 1.0);
}

/// Error types unify at the facade: subsystem failures surface as the
/// single `quantmcu::Error` through the engine, so downstream `?` works
/// with one error type.
#[test]
fn facade_unifies_errors() {
    let engine = Engine::builder(graph(Model::MobileNetV2))
        // An absurdly small SRAM budget must fail with an Error, not
        // panic — the static analyzer catches it before planning.
        .sram_budget(SramBudget::new(8))
        .build();
    let result: Result<DeploymentPlan, Error> = engine.plan(calib(2));
    let err = result.unwrap_err();
    assert!(matches!(err, Error::Analysis(_)));
    assert!(!err.to_string().is_empty());
    // Planning failures surface as `Error::Plan` carrying the
    // planner's own `PlanError`.
    let err = Engine::new(graph(Model::MobileNetV2)).plan(Vec::new()).unwrap_err();
    assert!(matches!(err, Error::Plan(PlanError::NoCalibration)));
}

/// `Engine::deploy` rejects a plan made for a different graph spec
/// before compiling anything: here a 32×32 plan deployed on an engine
/// over the same model at 48×48.
#[test]
fn deploy_rejects_a_plan_for_another_spec() {
    let engine =
        Engine::builder(graph(Model::MobileNetV2)).sram_budget(SramBudget::kib(16)).build();
    let plan = engine.plan(calib(2)).unwrap();
    let cfg = ModelConfig { resolution: 48, ..ModelConfig::exec_scale() };
    let spec = Model::MobileNetV2.spec(cfg).unwrap();
    let other = Engine::new(init::with_structured_weights(spec, 0));
    let err = other.deploy(plan).unwrap_err();
    assert!(matches!(err, Error::Plan(PlanError::SpecMismatch)), "{err:?}");
}
