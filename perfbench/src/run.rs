//! One benchmark run: the phases every workload goes through, and the
//! metrics taken from them.
//!
//! Every workload runs the same phases over its deployment targets —
//! export, plan, cold start, quality, serve — and spends `--seconds` by its
//! own shares: the serving workloads have one target and spend the run
//! serving it, the fleet has several and spends 30 % of the run planning.
//! The traced run adds the per-layer probes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use quantmcu::data::classification::ClassificationDataset;
use quantmcu::data::metrics::agreement_top1;
use quantmcu::mcusim::Device;
use quantmcu::models::ModelConfig;
use quantmcu::nn::exec::{CompiledGraph, ExecState, FloatExecutor};
use quantmcu::nn::{cost, import, init, FeatureMapId, Graph};
use quantmcu::patch::{redundancy, PatchExecutor, PatchState};
use quantmcu::quant::score::ScoreTable;
use quantmcu::quant::vdpc::VdpcClassifier;
use quantmcu::quant::{entropy, vdqs};
use quantmcu::tensor::{Bitwidth, QuantParams, Tensor};
use quantmcu::{
    analyze, AnalysisConfig, Deployment, DeploymentPlan, Engine, PlanArtifact, Planner, Server,
    SramBudget,
};

use crate::serve::{self, Ops};
use crate::spec::{Pair, Setup, Workload};
use crate::stats::{geomean, mean, median, poisson_schedule, quantile, tail_permille, SplitMix64};
use crate::trace::Tracer;

/// Weights are part of the model, not of the input: fixed for every seed.
const WEIGHT_SEED: u64 = 2024;
/// Server worker threads: one per core of the two-core host the bounds in
/// `BENCHMARK.json` were sized on.
const SERVER_WORKERS: usize = 2;
/// Requests a server micro-batches per wakeup (the `Server` default).
const MAX_BATCH: usize = 4;
/// Calibration sets a seed generates. Planning pass `p` uses set
/// `p % CALIB_SETS`: VDPC's outlier verdicts, and with them the planning
/// work, depend on the calibration images, so `plan_s` is a median over
/// several draws rather than the cost of one.
const CALIB_SETS: usize = 4;

/// How much work a run does besides its timed windows.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Calibration images per set.
    pub calib: usize,
    /// Distinct images the servers are sent, cycled.
    pub pool: usize,
    /// Held-out images for the top-1 agreement.
    pub held_out: usize,
    /// Set-ups timed per round; `setup_s` is their median.
    pub setup_reps: usize,
    /// Repeats of each planning-layer call in the traced run.
    pub layer_reps: usize,
}

impl Size {
    /// The size the benchmark runs at.
    pub const FULL: Size = Size { calib: 32, pool: 64, held_out: 64, setup_reps: 3, layer_reps: 3 };

    /// The size the self-tests run at.
    #[cfg(test)]
    pub const TINY: Size = Size { calib: 4, pool: 4, held_out: 4, setup_reps: 1, layer_reps: 1 };
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations per phase.
    pub phases: Vec<(&'static str, Ops)>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts needed to compare runs (rates, sample counts, lateness).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn fact(&mut self, name: impl Into<String>, value: impl ToString) {
        self.facts.push((name.into(), value.to_string()));
    }

    /// The samples behind a timing metric: their count and the highest
    /// percentile with at least ten samples beyond it.
    fn timing(&mut self, metric: &str, samples: &[f64]) {
        self.fact(format!("{metric}.samples"), samples.len());
        match tail_permille(samples.len()) {
            Some(pm) => {
                let name = if pm % 10 == 0 {
                    format!("p{}", pm / 10)
                } else {
                    format!("p{}", pm as f64 / 10.0)
                };
                self.fact(format!("{metric}.{name}"), quantile(samples, pm as f64 / 1000.0));
            }
            None => self.fact(format!("{metric}.tail"), "none: fewer than 20 samples"),
        }
    }

    fn phase(&mut self, name: &'static str, ops: Ops) {
        self.phases.push((name, ops));
    }

    /// Operations over every phase.
    pub fn total(&self) -> Ops {
        let mut t = Ops::default();
        for (_, ops) in &self.phases {
            t.add(*ops);
        }
        t
    }
}

/// A run that could not go on: a typed error from the system under test.
pub type Failure = String;

fn fail<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> Failure + '_ {
    move |e| format!("{what}: {e}")
}

/// The inputs a seed generates; the system receives only these.
pub struct Inputs {
    /// Calibration sets; the served deployments are planned on set 0.
    pub calib: Vec<Vec<Tensor>>,
    /// Images the servers and probes are sent.
    pub pool: Vec<Tensor>,
    /// Held-out images for agreement with the float model.
    pub held_out: Vec<Tensor>,
    /// The workload's targets in seed order.
    pub order: Vec<Pair>,
    /// Generator for arrival schedules.
    pub rng: SplitMix64,
}

impl Inputs {
    /// Generates a workload's inputs from `seed`.
    pub fn generate(w: &Workload, seed: u64, size: &Size) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let ds = ClassificationDataset::new(32, 10, rng.next_u64());
        let images = |from: usize, n: usize| (from..from + n).map(|i| ds.sample(i).0).collect();
        let mut order = w.pairs.to_vec();
        rng.shuffle(&mut order);
        Inputs {
            calib: (0..CALIB_SETS).map(|k| images(k * 1000, size.calib)).collect(),
            held_out: images(10_000, size.held_out),
            pool: images(20_000, size.pool),
            order,
            rng,
        }
    }
}

/// A planned deployment target and its reference outputs.
pub struct Target {
    /// The model's `.qmcu` bytes.
    pub qmcu: Vec<u8>,
    /// The engine imported from `qmcu`.
    pub engine: Engine,
    /// The calibrated deployment.
    pub deployment: Arc<Deployment>,
    /// Its `.qplan` bytes.
    pub artifact: Vec<u8>,
    /// Serial `Session::run` outputs of the calibrated deployment over the
    /// pool: what every served and cold-started output must equal.
    pub reference: Vec<Tensor>,
}

/// Builds every target's graph and exports its `.qmcu` bytes.
pub fn export(order: &[Pair]) -> Result<Vec<Vec<u8>>, Failure> {
    order
        .iter()
        .map(|p| {
            let spec = p.model.spec(ModelConfig::exec_scale()).map_err(fail("build model"))?;
            Ok(import::save_model(&init::with_structured_weights(spec, WEIGHT_SEED)))
        })
        .collect()
}

/// A planned target before its reference outputs exist: the engine, the
/// calibrated deployment and its `.qplan` bytes.
type Planned = (Engine, Deployment, Vec<u8>);

/// `.qmcu` bytes → import → plan → deploy → `.qplan` bytes.
fn plan_target(pair: Pair, qmcu: &[u8], calib: &[Tensor]) -> Result<Planned, Failure> {
    let budget = SramBudget::new(pair.bytes);
    let engine = Engine::import(qmcu).map_err(fail("import"))?.sram_budget(budget).build();
    let plan = engine.plan(calib).map_err(fail("plan"))?;
    let deployment = engine.deploy(plan).map_err(fail("deploy"))?;
    let artifact = deployment.save().map_err(fail("save"))?;
    Ok((engine, deployment, artifact))
}

/// The first plan of each (calibration set, target) pair.
pub type FirstPlans = BTreeMap<(usize, usize), DeploymentPlan>;

/// One planning pass over every target on calibration set `set`. Each plan
/// must fit its budget and equal, bit for bit, the first plan made from the
/// same set (`first`, filled by it).
fn plan_pass(
    inputs: &Inputs,
    exports: &[Vec<u8>],
    set: usize,
    first: &mut FirstPlans,
    ops: &mut Ops,
) -> Result<(Vec<Planned>, Duration), Failure> {
    let start = Instant::now();
    let planned = inputs
        .order
        .iter()
        .zip(exports)
        .map(|(pair, qmcu)| plan_target(*pair, qmcu, &inputs.calib[set]))
        .collect::<Result<Vec<_>, _>>()?;
    let elapsed = start.elapsed();
    for (i, ((_, deployment, _), pair)) in planned.iter().zip(&inputs.order).enumerate() {
        let peak = deployment.plan().peak_memory_bytes().map_err(fail("peak memory"))?;
        let plan = deployment.plan().clone().timeless();
        let expected = first.entry((set, i)).or_insert_with(|| plan.clone());
        ops.sent += 1;
        if peak <= pair.bytes && plan == *expected {
            ops.ok += 1;
        } else {
            ops.failed += 1;
            ops.mismatched += 1;
        }
    }
    Ok((planned, elapsed))
}

/// Plans every target once on calibration set 0 and computes its
/// reference outputs.
pub fn plan_targets(
    inputs: &Inputs,
    exports: &[Vec<u8>],
    first: &mut FirstPlans,
    ops: &mut Ops,
) -> Result<(Vec<Target>, Duration), Failure> {
    let (planned, elapsed) = plan_pass(inputs, exports, 0, first, ops)?;
    let targets = exports
        .iter()
        .zip(planned)
        .map(|(qmcu, (engine, deployment, artifact))| {
            let reference = deployment.session().run_batch(&inputs.pool)?;
            Ok(Target {
                qmcu: qmcu.clone(),
                engine,
                deployment: Arc::new(deployment),
                artifact,
                reference,
            })
        })
        .collect::<Result<_, quantmcu::Error>>()
        .map_err(fail("reference outputs"))?;
    Ok((targets, elapsed))
}

/// `.qplan` bytes → decoded deployment → first output, for every target;
/// returns the sum over targets. Every cold start must reproduce its
/// calibrated deployment's output bit for bit (on the whole pool when
/// `whole_pool`).
pub fn cold_start(
    targets: &[Target],
    pool: &[Tensor],
    whole_pool: bool,
    ops: &mut Ops,
) -> Result<Duration, Failure> {
    let mut sum = Duration::ZERO;
    for t in targets {
        let start = Instant::now();
        let cold = t.engine.deploy_from_artifact(&t.artifact).map_err(fail("cold start"))?;
        let mut session = cold.session();
        let first = session.run(&pool[0]);
        sum += start.elapsed();
        ops.check(first, &t.reference[0]);
        if whole_pool {
            for (x, want) in pool.iter().zip(&t.reference).skip(1) {
                ops.check(session.run(x), want);
            }
        }
    }
    Ok(sum)
}

/// Times cold starts of every target for `budget` (at least once).
fn cold_burst(
    targets: &[Target],
    pool: &[Tensor],
    budget: Duration,
    times: &mut Vec<Duration>,
    ops: &mut Ops,
) -> Result<(), Failure> {
    let until = Instant::now() + budget;
    loop {
        times.push(cold_start(targets, pool, false, ops)?);
        if Instant::now() >= until {
            return Ok(());
        }
    }
}

/// `.qplan` bytes → a ready `Server` whose workers have each served.
pub fn ready_server(
    t: &Target,
    pool: &[Tensor],
    ops: &mut Ops,
) -> Result<(Server, Duration), Failure> {
    let start = Instant::now();
    let cold = t.engine.deploy_from_artifact(&t.artifact).map_err(fail("cold start"))?;
    let server = Server::builder(cold).workers(SERVER_WORKERS).max_batch(MAX_BATCH).build();
    let warm = (SERVER_WORKERS * MAX_BATCH * 2).min(pool.len());
    let outputs = server.run_batch(&pool[..warm]).map_err(fail("warm-up"))?;
    let elapsed = start.elapsed();
    for (out, want) in outputs.into_iter().zip(&t.reference) {
        ops.check(Ok(out), want);
    }
    Ok((server, elapsed))
}

/// Closed- and open-loop serving results over every target.
#[derive(Default)]
struct Served {
    closed: Ops,
    open: Ops,
    /// Closed-loop completions and measured window, summed per target.
    capacity: Vec<(u64, Duration)>,
    /// Closed-loop completion rate of every window, img/s.
    window_rates: Vec<f64>,
    /// Open-loop submissions refused with a full queue, per target.
    queue_full: Vec<u64>,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    queue_depth_max: usize,
}

impl Served {
    fn new(targets: usize) -> Self {
        Served {
            capacity: vec![(0, Duration::ZERO); targets],
            queue_full: vec![0; targets],
            ..Served::default()
        }
    }

    /// Closed-loop completions over every measured window, divided by the
    /// windows' total length.
    fn throughput(&self) -> f64 {
        let (n, w) = self.capacity.iter().fold((0, Duration::ZERO), |(n, w), c| (n + c.0, w + c.1));
        n as f64 / w.as_secs_f64()
    }

    /// Target `i`'s closed-loop completions per second.
    fn capacity(&self, i: usize) -> f64 {
        let (n, w) = self.capacity[i];
        n as f64 / w.as_secs_f64()
    }

    #[allow(clippy::too_many_arguments)]
    fn serve(
        &mut self,
        server: &Server,
        i: usize,
        t: &Target,
        pool: &[Tensor],
        closed: Duration,
        schedule: &[Duration],
        sample_depth: bool,
        tracer: &Tracer,
    ) {
        let c = serve::closed_loop(
            server,
            pool,
            &t.reference,
            SERVER_WORKERS * MAX_BATCH,
            closed,
            tracer,
        );
        self.closed.add(c.ops);
        self.capacity[i].0 += c.completions;
        self.capacity[i].1 += c.window;
        self.window_rates.push(c.completions as f64 / c.window.as_secs_f64());
        let o = serve::open_loop(server, pool, &t.reference, schedule, sample_depth, tracer);
        self.open.add(o.ops);
        self.queue_full[i] += o.queue_full;
        self.latencies_ms.extend(o.latencies_ms);
        self.late_ms.extend(o.late_ms);
        self.queue_depth_max = self.queue_depth_max.max(o.queue_depth_max);
    }
}

/// Rounds a run is cut into. Every round plans, cold-starts, sets up and
/// serves, so that each metric samples the whole run: a shared host's speed
/// drifts over seconds, and one contiguous window per metric would catch
/// one stretch of it.
const ROUNDS: usize = 4;

/// Runs workload `w` for about `seconds`; with a recording `tracer`, the
/// per-layer probes too.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    size: &Size,
    tracer: &Tracer,
) -> Result<Outcome, Failure> {
    let trace = tracer.enabled();
    let mut out = Outcome::default();
    let mut inputs = Inputs::generate(w, seed, size);
    let [plan_share, cold_share, closed_share, open_share] = w.shares;
    let per_round = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);

    let exports = export(&inputs.order)?;
    let mut plan_ops = Ops::default();
    let mut first_plans = FirstPlans::new();
    let (targets, first_pass) = plan_targets(&inputs, &exports, &mut first_plans, &mut plan_ops)?;
    let mut passes = vec![first_pass];
    let mut quality_ops = Ops::default();
    let top1 = agreement(&targets, &inputs.held_out, &mut quality_ops)?;

    let n = targets.len() as u32;
    let windows = (per_round(closed_share) / n, per_round(open_share) / n);
    let off = Tracer::new(false);
    let (mut untraced, mut traced) = (Served::new(targets.len()), Served::new(targets.len()));
    let (mut export_times, mut cold_times, mut setup_times) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cold_ops, mut setup_ops) = (Ops::default(), Ops::default());
    let (mut rejected, mut failed) = (0, 0);
    // Cold starts are short enough to land inside one stretch of the
    // host's drift, so they run in three bursts per round, spread over it.
    let cold_box = per_round(cold_share) / 3;
    cold_start(&targets, &inputs.pool, true, &mut cold_ops)?;
    for round in 0..ROUNDS {
        if !trace {
            cold_burst(&targets, &inputs.pool, cold_box, &mut cold_times, &mut cold_ops)?;
            let until = Instant::now() + per_round(plan_share);
            loop {
                let set = passes.len() % CALIB_SETS;
                passes.push(plan_pass(&inputs, &exports, set, &mut first_plans, &mut plan_ops)?.1);
                if Instant::now() >= until {
                    break;
                }
            }
            if w.setup == Setup::Export {
                for _ in 0..size.setup_reps {
                    let start = Instant::now();
                    export(&inputs.order)?;
                    export_times.push(start.elapsed());
                }
            }
            cold_burst(&targets, &inputs.pool, cold_box, &mut cold_times, &mut cold_ops)?;
        }
        for (i, t) in targets.iter().enumerate() {
            let serving_setup = w.setup == Setup::Server && i == 0 && !trace;
            let mut server = None;
            for _ in 0..if serving_setup { size.setup_reps } else { 1 } {
                let (s, elapsed) = ready_server(t, &inputs.pool, &mut setup_ops)?;
                setup_times.push(elapsed);
                server = Some(s);
            }
            let server = server.expect("at least one set-up");
            // Traced, each window is served in two halves, one untraced
            // and one traced: their difference is the tracing overhead.
            // The traced half comes second and first in turn, so the host's
            // drift lands on both sides.
            let halves: u32 = if trace { 2 } else { 1 };
            for k in 0..halves {
                let traced_half = trace && (k as usize + round + i) % 2 == 1;
                let (served, tracer) =
                    if traced_half { (&mut traced, tracer) } else { (&mut untraced, &off) };
                let schedule = poisson_schedule(&mut inputs.rng, w.rate, windows.1 / halves);
                let (closed, pool) = (windows.0 / halves, &inputs.pool);
                served.serve(&server, i, t, pool, closed, &schedule, trace, tracer);
            }
            let stats = server.shutdown();
            rejected += stats.rejected;
            failed += stats.failed;
        }
        if !trace {
            cold_burst(&targets, &inputs.pool, cold_box, &mut cold_times, &mut cold_ops)?;
        }
    }
    out.phase("plan", plan_ops);
    out.phase("coldstart", cold_ops);
    out.phase("quality", quality_ops);
    out.phase("setup", setup_ops);
    out.phase("closed_loop", untraced.closed);
    out.phase("open_loop", untraced.open);
    out.fact("plan_passes", passes.len());
    out.fact("open_loop_rate_rps", w.rate);
    out.fact("open_loop_samples", untraced.latencies_ms.len());
    // The tail is reported but not gated: from one run to the next on a
    // shared two-core host its spread is wider than any bound a change
    // could be held to.
    let tail = [("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99), ("latency_max_ms", 1.0)];
    for (name, p) in tail {
        out.fact(name, quantile(&untraced.latencies_ms, p));
    }
    out.fact("closed_loop_in_flight", SERVER_WORKERS * MAX_BATCH);
    out.fact("loadgen_late_p50_ms", median(&untraced.late_ms));
    out.fact("loadgen_late_max_ms", quantile(&untraced.late_ms, 1.0));
    out.fact("server_workers", SERVER_WORKERS);
    // Each target's closed-loop capacity, the open-loop rate as a share of
    // it, and the open-loop refusals: a saturated target shows here.
    for (i, p) in inputs.order.iter().enumerate() {
        let label = format!("{}@{}KiB", p.model, p.bytes as f64 / 1024.0);
        let capacity = untraced.capacity(i);
        out.fact(format!("capacity_ips.{label}"), capacity);
        out.fact(format!("utilisation.{label}"), w.rate / capacity);
        out.fact(format!("open_loop_queue_full.{label}"), untraced.queue_full[i]);
    }

    if !trace {
        let secs = |d: &[Duration]| d.iter().map(Duration::as_secs_f64).collect::<Vec<_>>();
        let setup_s = secs(match w.setup {
            Setup::Export => &export_times,
            Setup::Server => &setup_times,
        });
        let plan_s = secs(&passes);
        let cold_ms: Vec<f64> = cold_times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        out.timing("throughput_ips", &untraced.window_rates);
        out.timing("latency_p50_ms", &untraced.latencies_ms);
        out.timing("setup_s", &setup_s);
        out.timing("plan_s", &plan_s);
        out.timing("coldstart_ms", &cold_ms);
        out.metric("throughput_ips", untraced.throughput());
        out.metric("latency_p50_ms", median(&untraced.latencies_ms));
        out.metric("setup_s", median(&setup_s));
        out.metric("plan_s", median(&plan_s));
        // A mean, not a median: on a shared host cold starts switch between
        // two speeds in streaks, and a median jumps between the two.
        out.metric("coldstart_ms", mean(&cold_ms));
        let (mcu_ms, bitops_ratio) = modeled(first_plans.values())?;
        out.metric("mcu_latency_ms", mcu_ms);
        out.metric("bitops_ratio", bitops_ratio);
        out.metric("top1_agreement", top1);
        return Ok(out);
    }

    out.phase("closed_loop_traced", traced.closed);
    out.phase("open_loop_traced", traced.open);
    let mut probe_ops = Ops::default();
    let probes = targets
        .iter()
        .map(|t| probe(t, &inputs.pool, tracer, &mut probe_ops))
        .collect::<Result<Vec<_>, _>>()?;
    out.phase("probe", probe_ops);
    let mut layer_ops = Ops::default();
    let layers = targets
        .iter()
        .map(|t| planning_layers(t, &inputs.calib[0], size.layer_reps, tracer, &mut layer_ops))
        .collect::<Result<Vec<_>, _>>()?;
    out.phase("planning_layers", layer_ops);

    // Per-image times and counts: mean over targets. Per-pass planning
    // times: summed over targets, as `plan_s` sums them.
    let avg = |f: fn(&Probe) -> f64| mean(&probes.iter().map(f).collect::<Vec<_>>());
    let session_us = avg(|p| p.session_us);
    out.metric("core.deploy.session_run_us", session_us);
    out.metric("patch.stage_us", avg(|p| p.stage_us));
    out.metric("patch.redundant_macs", avg(|p| p.redundant_macs));
    out.metric("patch.overhead_ratio", avg(|p| p.overhead_ratio));
    out.metric("nn.exec.run_quant_us", avg(|p| p.quant_us));
    out.metric("nn.exec.run_float_us", avg(|p| p.float_us));
    out.metric("nn.exec.quant_over_float", avg(|p| p.quant_us) / avg(|p| p.float_us));
    out.metric("nn.cost.stage_macs", avg(|p| p.stage_macs));
    out.metric("nn.cost.tail_macs", avg(|p| p.tail_macs));
    out.metric("core.serve.queue_wait_us", median(&traced.latencies_ms) * 1e3 - session_us);
    out.metric("core.serve.rejected", rejected as f64);
    out.metric("core.serve.failed", failed as f64);
    out.metric("core.serve.queue_depth_max", traced.queue_depth_max as f64);
    out.metric("loadgen.late_max_ms", quantile(&traced.late_ms, 1.0));
    for (k, &(name, _)) in layers[0].iter().enumerate() {
        out.metric(name, layers.iter().map(|l| l[k].1).sum());
    }
    let pct = |base: f64, traced: f64| (traced - base) / base * 100.0;
    out.metric("trace.overhead_throughput_pct", -pct(untraced.throughput(), traced.throughput()));
    out.metric(
        "trace.overhead_latency_p50_pct",
        pct(median(&untraced.latencies_ms), median(&traced.latencies_ms)),
    );
    out.fact("traced_throughput_ips", traced.throughput());
    out.fact("untraced_throughput_ips", untraced.throughput());
    out.fact("traced_latency_p50_ms", median(&traced.latencies_ms));
    out.fact("untraced_latency_p50_ms", median(&untraced.latencies_ms));
    out.fact("spans", tracer.len());
    Ok(out)
}

/// Top-1 agreement of each served deployment with its float model on the
/// held-out images, averaged over the targets.
fn agreement(targets: &[Target], held_out: &[Tensor], ops: &mut Ops) -> Result<f64, Failure> {
    let mut top1 = Vec::with_capacity(targets.len());
    for t in targets {
        let mut float = FloatExecutor::new(t.engine.graph());
        let reference: Vec<Tensor> = held_out
            .iter()
            .map(|x| float.run(x))
            .collect::<Result<_, _>>()
            .map_err(fail("float reference"))?;
        let quantized = t.deployment.session().run_batch(held_out).map_err(fail("held-out run"))?;
        ops.sent += held_out.len() as u64;
        ops.ok += held_out.len() as u64;
        top1.push(agreement_top1(&reference, &quantized));
    }
    Ok(mean(&top1))
}

/// Modeled STM32H743 latency (ms) and BitOPs over the 8-bit patch
/// baseline, each a geomean over every plan made from every calibration
/// set.
fn modeled<'a>(plans: impl Iterator<Item = &'a DeploymentPlan>) -> Result<(f64, f64), Failure> {
    let device = Device::stm32h743();
    let (mut mcu, mut ratio) = (Vec::new(), Vec::new());
    for plan in plans {
        mcu.push(plan.latency(&device).map_err(fail("modeled latency"))?.as_secs_f64() * 1e3);
        ratio.push(plan.bitops() as f64 / plan.baseline_patch_bitops() as f64);
    }
    Ok((geomean(&mcu), geomean(&ratio)))
}

/// Per-image medians of one target's layer calls.
struct Probe {
    session_us: f64,
    stage_us: f64,
    quant_us: f64,
    float_us: f64,
    stage_macs: f64,
    tail_macs: f64,
    redundant_macs: f64,
    overhead_ratio: f64,
}

/// Times, on one thread, the deployed path and its two halves as separate
/// calls: `Session::run`; the patch stage through a `PatchExecutor` with
/// branch grids rebuilt from the plan's public ranges and bits; the
/// integer tail through a `CompiledGraph` built from the plan's tail
/// quantization; and the float model. The two halves must reproduce the
/// session output bit for bit.
fn probe(t: &Target, pool: &[Tensor], tracer: &Tracer, ops: &mut Ops) -> Result<Probe, Failure> {
    let graph = Arc::clone(t.engine.graph());
    let plan = t.deployment.plan();
    let split = plan.patch_plan().split_at();
    let stage = PatchExecutor::stage_only(Arc::clone(&graph), plan.patch_plan().clone())
        .map_err(fail("patch executor"))?;
    let branch_quant = plan
        .branch_ranges()
        .iter()
        .zip(plan.branch_bits())
        .map(|(ranges, bits)| {
            ranges
                .iter()
                .zip(bits)
                .map(|(&(lo, hi), &b)| QuantParams::from_min_max(lo, hi, b))
                .collect()
        })
        .collect::<Result<Vec<Vec<QuantParams>>, _>>()
        .map_err(fail("branch grids"))?;
    let (_, tail_spec) = graph.spec().split_at(split).map_err(fail("split"))?;
    let tail_params = (split..graph.spec().len()).map(|i| graph.params(i).clone()).collect();
    let tail = CompiledGraph::with_quantization(
        Graph::new(tail_spec, tail_params),
        plan.tail_ranges(),
        plan.tail_bits(),
        plan.weight_bits(),
    )
    .map_err(fail("integer tail"))?;
    let report = redundancy::analyze(plan.spec(), plan.patch_plan()).map_err(fail("redundancy"))?;

    let mut session = t.deployment.session();
    let mut patch_state = PatchState::new();
    let mut stage_out = stage.make_output();
    let mut tail_state = ExecState::new();
    let mut float = FloatExecutor::new(&graph);
    let (mut session_us, mut stage_us, mut quant_us, mut float_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    // Each path runs in its own loop over the pool, as it would in steady
    // use; pass 0 warms every arena and is not timed into the medians.
    for pass in 0..2 {
        let keep = pass > 0;
        for (i, x) in pool.iter().enumerate() {
            let req = Some(i as u64);
            let (served, d) = tracer.time("core.deploy.session_run", None, req, || session.run(x));
            ops.check(served, &t.reference[i]);
            if keep {
                session_us.push(us(d));
            }
        }
        for (i, x) in pool.iter().enumerate() {
            let req = Some(i as u64);
            let parent = tracer.id();
            let begin = Instant::now();
            let (staged, d_stage) = tracer.time("patch.run_stage_into", Some(parent), req, || {
                stage.run_stage_into(&mut patch_state, x, Some(&branch_quant), &mut stage_out)
            });
            staged.map_err(fail("patch stage"))?;
            let (tailed, d_quant) = tracer.time("nn.exec.run_quant", Some(parent), req, || {
                tail.run_quant(&mut tail_state, &stage_out.stage_output)
            });
            tracer.record(parent, "probe.stage_then_tail", (begin, Instant::now()), None, req);
            ops.check(tailed.map_err(quantmcu::Error::from), &t.reference[i]);
            if keep {
                stage_us.push(us(d_stage));
                quant_us.push(us(d_quant));
            }
        }
        for (i, x) in pool.iter().enumerate() {
            let (floated, d) =
                tracer.time("nn.exec.run_float", None, Some(i as u64), || float.run(x));
            floated.map_err(fail("float run"))?;
            if keep {
                float_us.push(us(d));
            }
        }
    }
    Ok(Probe {
        session_us: median(&session_us),
        stage_us: median(&stage_us),
        quant_us: median(&quant_us),
        float_us: median(&float_us),
        stage_macs: report.head_patch_macs as f64,
        tail_macs: report.tail_macs as f64,
        redundant_macs: report.redundant_macs() as f64,
        overhead_ratio: report.overhead_ratio(),
    })
}

/// Times each planning layer's entry point on one target, `reps` times;
/// returns each per-layer metric's median over the repeats.
fn planning_layers(
    t: &Target,
    calib: &[Tensor],
    reps: usize,
    tracer: &Tracer,
    ops: &mut Ops,
) -> Result<Vec<(&'static str, f64)>, Failure> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::with_capacity(reps);
    let expected = t.deployment.plan().clone().timeless();
    let maps = capture_maps(t, calib)?;
    for _ in 0..reps {
        let root = Some(tracer.id());
        let (loaded, d_import) = tracer
            .time("nn.import.load_model", root, None, || import::load_model_with_stats(&t.qmcu));
        let (graph, stats) = loaded.map_err(fail("import"))?;
        let cfg = AnalysisConfig::for_engine(t.engine.config(), t.engine.sram_budget());
        let (report, d_analyze) = tracer.time("nn.analyze", root, None, || analyze(&graph, &cfg));
        if report.has_errors() {
            return Err(format!("analysis: {report}"));
        }
        let (plan, d_plan) = tracer.time("core.engine.plan", root, None, || t.engine.plan(calib));
        let plan = plan.map_err(fail("plan"))?;
        let planner = Planner::new(t.engine.config().clone());
        let (with_stats, _) = tracer.time("core.pipeline.plan_with_stats", root, None, || {
            planner.plan_with_stats(&graph, calib, t.engine.sram_budget().bytes())
        });
        let (cross, pipeline) = with_stats.map_err(fail("plan_with_stats"))?;
        // Both planning front doors must give the deployed plan.
        ops.sent += 1;
        if cross.timeless() == expected && plan.clone().timeless() == expected {
            ops.ok += 1;
        } else {
            ops.failed += 1;
            ops.mismatched += 1;
        }
        let (deployment, d_deploy) =
            tracer.time("core.engine.deploy", root, None, || t.engine.deploy(plan));
        let deployment = deployment.map_err(fail("deploy"))?;
        let (bytes, d_encode) =
            tracer.time("core.artifact.encode", root, None, || deployment.save());
        let bytes = bytes.map_err(fail("save"))?;
        let (decoded, d_decode) =
            tracer.time("core.artifact.decode", root, None, || PlanArtifact::decode(&bytes));
        decoded.map_err(fail("decode"))?;
        let (cold, d_cold) = tracer.time("core.engine.deploy_from_artifact", root, None, || {
            t.engine.deploy_from_artifact(&bytes)
        });
        cold.map_err(fail("cold start"))?;
        let (entropy_ms, vdpc_ms, vdqs_ms) = quant_layers(t, calib, &maps, tracer, root)?;
        samples.push(vec![
            ("nn.import.load_ms", ms(d_import)),
            ("nn.opt.rewrites", stats.total() as f64),
            ("nn.analyze_ms", ms(d_analyze)),
            ("core.engine.plan_ms", ms(d_plan)),
            ("core.pipeline.prologue_ms", ms(pipeline.prologue)),
            ("core.pipeline.vdpc_ms", ms(pipeline.vdpc)),
            ("core.pipeline.entropy_ms", ms(pipeline.entropy)),
            ("core.pipeline.vdqs_ms", ms(pipeline.vdqs)),
            ("quant.entropy_ms", entropy_ms),
            ("quant.vdpc_ms", vdpc_ms),
            ("quant.vdqs_ms", vdqs_ms),
            ("core.engine.deploy_ms", ms(d_deploy)),
            ("core.artifact.encode_ms", ms(d_encode)),
            ("core.artifact.decode_ms", ms(d_decode)),
            ("core.artifact.bytes", bytes.len() as f64),
            ("core.engine.deploy_from_artifact_ms", ms(d_cold)),
        ]);
    }
    Ok((0..samples[0].len())
        .map(|k| (samples[0][k].0, median(&samples.iter().map(|s| s[k].1).collect::<Vec<_>>())))
        .collect())
}

/// Every feature map of the float model over the calibration images,
/// captured with `FloatExecutor::run_trace`: `maps[i]` holds map `i`'s
/// values from every image.
fn capture_maps(t: &Target, calib: &[Tensor]) -> Result<Vec<Vec<f32>>, Failure> {
    let mut float = FloatExecutor::new(t.engine.graph());
    let mut maps: Vec<Vec<f32>> = Vec::new();
    for x in calib {
        let trace = float.run_trace(x).map_err(fail("float trace"))?;
        maps.resize_with(trace.len(), Vec::new);
        for (values, map) in maps.iter_mut().zip(&trace) {
            values.extend_from_slice(map.data());
        }
    }
    Ok(maps)
}

/// Times the public `quant` functions on the captured maps: the entropy
/// table over every map, the VDPC fit plus the classification of every
/// input tile of every image, and the VDQS search (score table and
/// Algorithm 1) over the whole network against a memory bound half the
/// largest 8-bit adjacent-pair footprint.
fn quant_layers(
    t: &Target,
    calib: &[Tensor],
    maps: &[Vec<f32>],
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(f64, f64, f64), Failure> {
    let cfg = t.engine.config();
    let spec = t.engine.graph().spec();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (table, d_entropy) = tracer.time("quant.entropy.build_table", parent, None, || {
        entropy::build_table(maps, &cfg.vdqs.candidates, cfg.vdqs.hist_bins)
    });
    let table = table.map_err(fail("entropy table"))?;

    let input = spec.input_shape();
    let tiles = t.deployment.plan().patch_plan().input_tiles(input.h, input.w);
    let (classes, d_vdpc) = tracer.time("quant.vdpc.fit_classify", parent, None, || {
        let clf = VdpcClassifier::fit_parts(calib.iter().map(Tensor::data), cfg.vdpc.rule)?;
        let mut outliers = 0usize;
        for image in calib {
            for tile in &tiles {
                if clf.classify_region(image, *tile)? == quantmcu::quant::vdpc::PatchClass::Outlier
                {
                    outliers += 1;
                }
            }
        }
        Ok::<_, quantmcu::quant::QuantError>(outliers)
    });
    classes.map_err(fail("vdpc"))?;

    let wb = cfg.weight_bits;
    let shapes: Vec<_> = spec.feature_map_ids().map(|id| spec.feature_map_shape(id)).collect();
    let mem = |i: usize, b: Bitwidth| cost::feature_map_bytes(shapes[i], b);
    let widest_pair =
        (1..shapes.len()).map(|i| mem(i - 1, Bitwidth::W8) + mem(i, Bitwidth::W8)).max();
    let bound = widest_pair.unwrap_or(0) / 2;
    let total =
        cost::total_bitops(spec, wb, &cost::BitwidthAssignment::uniform(spec, Bitwidth::W8)).max(1);
    let (outcome, d_vdqs) = tracer.time("quant.vdqs.determine_bitwidths", parent, None, || {
        let scores = ScoreTable::build(
            &table,
            |i, b| cost::bitops_reduction(spec, FeatureMapId(i), b, wb),
            total,
            &cfg.vdqs,
        )?;
        vdqs::determine_bitwidths(&scores, mem, bound)
    });
    outcome.map_err(fail("vdqs"))?;
    Ok((ms(d_entropy), ms(d_vdpc), ms(d_vdqs)))
}
