//! What the benchmark runs and reports: the workloads, the metric
//! registry, and the `BENCHMARK.json` rendered from them.
//!
//! `BENCHMARK.json` at the repository root is this module's output
//! (`--print-spec`); a unit test keeps the two identical.

use quantmcu::models::Model;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("throughput_ips", "img/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("plan_s", "s", Lower, 0.25),
    e2e("coldstart_ms", "ms", Lower, 0.25),
    e2e("mcu_latency_ms", "ms", Lower, 0.05),
    e2e("bitops_ratio", "ratio", Lower, 0.05),
    e2e("top1_agreement", "fraction", Higher, 0.1),
];

/// Per-layer metrics, measured in the traced run. Each names the layer
/// (this repository's module) whose calls it times or counts.
pub const PER_LAYER: &[Metric] = &[
    layer("core.deploy.session_run_us", "us", Lower),
    layer("patch.stage_us", "us", Lower),
    layer("patch.redundant_macs", "count", Lower),
    layer("patch.overhead_ratio", "ratio", Lower),
    layer("nn.exec.run_quant_us", "us", Lower),
    layer("nn.exec.run_float_us", "us", Lower),
    layer("nn.exec.quant_over_float", "ratio", Lower),
    layer("nn.cost.stage_macs", "count", Lower),
    layer("nn.cost.tail_macs", "count", Lower),
    layer("core.serve.queue_wait_us", "us", Lower),
    layer("core.serve.rejected", "count", Lower),
    layer("core.serve.failed", "count", Lower),
    layer("core.serve.queue_depth_max", "count", Lower),
    layer("loadgen.late_max_ms", "ms", Lower),
    layer("quant.entropy_ms", "ms", Lower),
    layer("quant.vdpc_ms", "ms", Lower),
    layer("quant.vdqs_ms", "ms", Lower),
    layer("core.pipeline.prologue_ms", "ms", Lower),
    layer("core.pipeline.vdpc_ms", "ms", Lower),
    layer("core.pipeline.entropy_ms", "ms", Lower),
    layer("core.pipeline.vdqs_ms", "ms", Lower),
    layer("core.engine.plan_ms", "ms", Lower),
    layer("nn.analyze_ms", "ms", Lower),
    layer("nn.import.load_ms", "ms", Lower),
    layer("nn.opt.rewrites", "count", Higher),
    layer("core.engine.deploy_ms", "ms", Lower),
    layer("core.artifact.encode_ms", "ms", Lower),
    layer("core.artifact.decode_ms", "ms", Lower),
    layer("core.artifact.bytes", "bytes", Lower),
    layer("core.engine.deploy_from_artifact_ms", "ms", Lower),
    layer("trace.overhead_throughput_pct", "%", Lower),
    layer("trace.overhead_latency_p50_pct", "%", Lower),
];

/// What `setup_s` times on a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// Building every model graph and exporting its `.qmcu` bytes.
    Export,
    /// `.qplan` bytes to a ready, warmed `Server`.
    Server,
}

/// One (zoo model, SRAM budget) deployment target.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// The zoo model, built at exec scale.
    pub model: Model,
    /// SRAM budget in bytes.
    pub bytes: usize,
}

/// One workload: the deployment targets it runs and how it spends the run.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// The deployment targets, in a fixed order the seed shuffles.
    pub pairs: &'static [Pair],
    /// Open-loop arrival rate per target, requests per second.
    pub rate: f64,
    /// What `setup_s` times.
    pub setup: Setup,
    /// Shares of `--seconds` spent planning, cold-starting, in the closed
    /// loop and in the open loop. Serving time is split evenly over the
    /// targets. A zero share still runs its phase: one planning pass per
    /// round, one cold start per burst.
    pub shares: [f64; 4],
}

const fn pair(model: Model, bytes: usize) -> Pair {
    Pair { model, bytes }
}

const KIB: usize = 1024;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve-tail",
        why: "MobileNetV2 at 64 KiB splits at node 1/99, so the integer tail does most of the \
              work: 2-worker Server from its .qplan, closed loop then open loop at 150 req/s",
        pairs: &[pair(Model::MobileNetV2, 64 * KIB)],
        rate: 150.0,
        setup: Setup::Server,
        shares: [0.0, 0.0, 0.45, 0.55],
    },
    Workload {
        name: "serve-patch",
        why:
            "SqueezeNet at 15.5 KiB splits at node 26/56 with heavy halo recompute, so the \
              float patch stage dominates: 2-worker Server, closed loop then open loop at 120 req/s",
        pairs: &[pair(Model::SqueezeNet, 31 * KIB / 2)],
        rate: 120.0,
        setup: Setup::Server,
        shares: [0.0, 0.0, 0.45, 0.55],
    },
    Workload {
        name: "plan-fleet",
        why: "6 feasible zoo model x SRAM pairs: .qmcu import, plan on 32 images, deploy, \
              .qplan save and cold start; loads quant, analyze, import and artifact layers",
        pairs: &[
            pair(Model::MobileNetV2, 12 * KIB),
            pair(Model::McuNet, 16 * KIB),
            pair(Model::MnasNet, 32 * KIB),
            pair(Model::SqueezeNet, 31 * KIB / 2),
            pair(Model::ResNet18, 8 * KIB),
            pair(Model::InceptionV3, 12 * KIB),
        ],
        rate: 130.0,
        setup: Setup::Export,
        shares: [0.3, 0.05, 0.2, 0.45],
    },
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The command that runs the benchmark from the repository root.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

fn metric_rows(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            let bound = m.bound.map_or_else(String::new, |b| format!(", \"bound\": {b}"));
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// The `BENCHMARK.json` document.
pub fn render() -> String {
    let command = COMMAND.iter().map(|c| format!("\"{c}\"")).collect::<Vec<_>>().join(", ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        metric_rows(END_TO_END),
        metric_rows(PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_is_the_rendered_spec() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            render(),
            "regenerate BENCHMARK.json with `--print-spec`"
        );
    }

    #[test]
    fn every_metric_and_workload_is_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "names are used once");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for w in WORKLOADS {
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(!w.pairs.is_empty() && w.rate > 0.0);
            assert!((w.shares.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{}", w.name);
        }
    }
}
