//! **QuantMCU** — value-driven mixed-precision quantization for
//! patch-based inference on microcontrollers (DATE 2024 reproduction).
//!
//! Patch-based inference slashes an MCU deployment's peak SRAM but
//! recomputes patch halos, inflating latency by 8–17%. QuantMCU removes
//! that overhead with mixed precision applied *where it is safe*:
//!
//! 1. **VDPC** classifies each patch by whether it contains outlier
//!    activations (fitted Gaussian, φ threshold). Outlier patches — the
//!    accuracy-critical ones — keep 8-bit branches.
//! 2. **VDQS** searches each non-outlier branch's feature-map bitwidths
//!    with an entropy-based score, no training in the loop, and repairs
//!    the assignment against the SRAM constraint (Algorithm 1).
//!
//! The result is a [`DeploymentPlan`]: per-branch and tail bitwidths plus
//! analytic BitOPs / peak-memory / latency, and an executable
//! [`Deployment`] for numeric fidelity measurements.
//!
//! # Quickstart
//!
//! The front door is [`Engine`]: it owns the network behind an
//! `Arc<Graph>`, plans against a typed [`SramBudget`], accepts any
//! [`CalibrationSource`], and compiles plans into owned, `Send + Sync`
//! [`Deployment`]s served through per-thread [`Session`]s:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use quantmcu::{Engine, SramBudget};
//! use quantmcu::models::{Model, ModelConfig};
//! use quantmcu::nn::init;
//! use quantmcu::data::classification::ClassificationDataset;
//!
//! let spec = Model::MobileNetV2.spec(ModelConfig::exec_scale())?;
//! let graph = init::with_structured_weights(spec, 42);
//! let engine = Engine::builder(graph).sram_budget(SramBudget::kib(256)).build();
//!
//! let data = ClassificationDataset::new(32, 10, 7);
//! let plan = engine.plan((data, 4))?; // any CalibrationSource
//! assert!(plan.bitops() < plan.baseline_patch_bitops());
//!
//! // Deploy once, serve from as many threads as you like: the
//! // deployment is immutable; each thread opens its own Session.
//! let deployment = std::sync::Arc::new(engine.deploy(plan)?);
//! let mut session = deployment.session();
//! let output = session.run(&data.sample(100).0)?;
//! assert!(output.data().iter().all(|v| v.is_finite()));
//! # Ok(())
//! # }
//! ```
//!
//! For long-lived traffic, wrap the deployment in a [`Server`]: a
//! persistent pool of warm [`Session`] workers behind a bounded
//! micro-batching queue, with per-request [`Ticket`]s, backpressure
//! ([`Server::submit`] blocks, [`Server::try_submit`] returns
//! [`ServeError::QueueFull`]) and [`ServerStats`] latency/throughput
//! telemetry — outputs stay bit-identical to a serial [`Session::run`].
//!
//! # Static analysis
//!
//! Before any plan runs, the multi-pass static analyzer
//! ([`quantmcu_nn::analyze`], fronted by [`analyze`]) vets the graph:
//! structural verification (dangling references, cycles, duplicate ids,
//! arity, dead nodes — codes `S001`–`S004`, `D001`), full shape
//! inference (`T001`/`T002`), quantized accumulator-overflow proofs
//! (`Q001`) and SRAM feasibility against the budget (`M001`/`M002`).
//! [`Engine::plan`] and [`Engine::deploy`] run it in strict mode — any
//! error-severity diagnostic aborts with [`Error::Analysis`] before
//! calibration starts:
//!
//! ```
//! use quantmcu::{analyze, AnalysisConfig, SramBudget};
//! use quantmcu::nn::{init, GraphSpecBuilder};
//! use quantmcu::tensor::Shape;
//!
//! let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3)).conv2d(4, 3, 1, 1).build()?;
//! let graph = init::with_structured_weights(spec, 0);
//! let report = analyze(&graph, &AnalysisConfig::default());
//! assert!(!report.has_errors());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Model import & graph optimizer
//!
//! Models need not come from the built-in zoo: [`Engine::import`] /
//! [`Engine::from_model_path`] accept the versioned `.qmcu` serialized
//! format ([`quantmcu_nn::import`]) — decode with typed
//! [`Error::Import`] diagnostics, run the fixed-point graph-optimizer
//! pass pipeline ([`quantmcu_nn::opt`]: bias/activation fusion, constant
//! folding, identity removal, dead-node elimination), validate through
//! the analyzer, and plan/deploy exactly like a zoo model.
//!
//! # Plan artifacts
//!
//! Planning needs calibration data; serving should not. A finished
//! [`Deployment`] persists to the versioned `.qplan` binary format
//! ([`artifact`]) via [`Deployment::save`] — the complete plan plus the
//! packed quantized weights and requantization tables of its integer
//! tail, bound to the model's fingerprint — and
//! [`Engine::deploy_from_artifact`] restores a **bit-identical**
//! deployment from those bytes with no calibration source at all (the
//! calibration-free cold start). Damage, version skew and wrong-model
//! loads surface as typed [`Error::Artifact`] values; loading never
//! panics.
//!
//! [`Engine`] is the only way to plan and deploy. [`Planner`] keeps one
//! call, [`Planner::plan_with_stats`]: an ungated single-budget plan with
//! its per-stage timings ([`PlanStats`]), bit-identical to
//! [`Engine::plan`], for benchmarks that time the pipeline stages.
//! Every fallible call on the serving surface returns the single
//! [`Error`] type, whose `#[non_exhaustive]` variants wrap the subsystem
//! errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod artifact;
mod calibration;
mod config;
mod deploy;
mod engine;
mod error;
pub mod fleet;
mod pipeline;
mod plan;
mod serve;

pub use analysis::{analyze, AnalysisConfig};
pub use artifact::{ArtifactError, PlanArtifact};
pub use calibration::{CalibrationSource, CalibrationStream, DEFAULT_CALIBRATION_IMAGES};
pub use config::{default_workers, QuantMcuConfig};
pub use deploy::{Deployment, Session};
pub use engine::{Engine, EngineBuilder, SramBudget};
pub use error::{Error, PlanError};
pub use fleet::{plan_fleet, FleetModel, FleetPoint, FleetReport};
pub use pipeline::{PlanStats, Planner};
pub use plan::DeploymentPlan;
pub use serve::{ServeError, Server, ServerBuilder, ServerStats, Ticket};

// One-stop re-exports so downstream users need only this crate.
pub use quantmcu_data as data;
pub use quantmcu_mcusim as mcusim;
pub use quantmcu_models as models;
pub use quantmcu_nn as nn;
pub use quantmcu_patch as patch;
pub use quantmcu_quant as quant;
pub use quantmcu_tensor as tensor;
