//! Micro-kernel throughput snapshot emitting `BENCH_kernels.json`, so the
//! kernel-speed trajectory is machine-readable across revisions — the
//! kernel-level companion of `bench_plan` / `bench_serve`.
//!
//! For each weighted op's integer path, three strategies run the same
//! workload and are cross-checked **bit-identical** before timing counts:
//!
//! * **naive** — the `kernels::naive::*_q` oracle loop nests;
//! * **blocked** — the cache-blocked kernels with the scalar `IntDot`
//!   strategy over unpacked `i8` weights (the pre-tiling integer path);
//! * **tiled** — the same kernels with `PackedDot` computing dot products
//!   directly on packed W8/W4/W2 words, register-tiled accumulator lanes.
//!
//! The binary asserts the perf-regression tripwire (tiled must not be
//! slower than naive on any integer op) and finishes with end-to-end
//! images/second through the float and quantized executors. Set
//! `QUANTMCU_SMOKE=1` to shrink shapes and repetitions for CI.

use std::time::{Duration, Instant};

use quantmcu::models::Model;
use quantmcu::nn::exec::{calibrate_ranges, FloatExecutor, QuantExecutor};
use quantmcu::nn::kernels::{self, naive, IntDot, PackedDot, Requant, GENERATION};
use quantmcu::tensor::{pack, Bitwidth, Shape, Tensor};
use quantmcu_bench::{exec_dataset, exec_graph, smoke};

/// Best-of-N wall clock per call of `run`.
fn measure<R>(reps: usize, iters: usize, mut run: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(run());
        }
        best = best.min(start.elapsed() / iters as u32);
    }
    best
}

/// Deterministic pseudo-random integers in `lo..=hi`.
fn varied_q(len: usize, seed: u64, lo: i32, hi: i32) -> Vec<i32> {
    let span = (hi - lo) as u64 + 1;
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ 0x9E3779B9);
            lo + ((x >> 24) % span) as i32
        })
        .collect()
}

/// Per-channel requantization constants (identical across strategies, so
/// bit-identity of outputs follows from bit-identity of accumulators).
struct Tables {
    bias_q: Vec<i64>,
    acc_scale: Vec<f64>,
}

impl Tables {
    fn new(channels: usize) -> Self {
        Tables {
            bias_q: varied_q(channels, 0xB1A5, -500, 500).into_iter().map(i64::from).collect(),
            acc_scale: (0..channels).map(|ch| 1e-3 * (1.0 + ch as f64 * 0.31)).collect(),
        }
    }

    fn requant(&self) -> Requant<'_> {
        Requant {
            bias_q: &self.bias_q,
            acc_scale: &self.acc_scale,
            out_scale: 0.037,
            zp_out: 3,
            q_min: -128,
            q_max: 127,
        }
    }
}

/// One timed strategy row for the JSON snapshot.
struct Row {
    op: &'static str,
    strategy: String,
    seconds: f64,
    vs_naive: f64,
    vs_blocked: f64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "    {{\"op\": \"{}\", \"strategy\": \"{}\", \"seconds\": {:.6}, \
             \"speedup_vs_naive\": {:.4}, \"speedup_vs_blocked\": {:.4}}}",
            self.op, self.strategy, self.seconds, self.vs_naive, self.vs_blocked
        )
    }
}

/// One named strategy closure in a [`sweep`].
type Run<'a> = (String, Box<dyn FnMut() -> Vec<i32> + 'a>);

/// Times the naive/blocked/tiled trio for one op. `runs` is
/// `[("naive", f), ("blocked", f), ("tiled_8", f), ...]`; every entry is
/// asserted bit-identical to the first before timing, and every `tiled_*`
/// entry must beat naive (the CI perf-regression tripwire).
fn sweep(op: &'static str, reps: usize, iters: usize, runs: Vec<Run<'_>>, rows: &mut Vec<Row>) {
    let mut runs = runs;
    let reference = (runs[0].1)();
    for (name, run) in runs.iter_mut().skip(1) {
        assert_eq!(run(), reference, "{op}: {name} output diverged from naive");
    }
    let mut naive_t = 0.0;
    let mut blocked_t = 0.0;
    println!("{op}:");
    for (name, mut run) in runs {
        let t = measure(reps, iters, &mut run).as_secs_f64();
        match name.as_str() {
            "naive" => naive_t = t,
            "blocked" => blocked_t = t,
            _ => {}
        }
        let (vs_naive, vs_blocked) = (naive_t / t, blocked_t / t);
        println!(
            "  {name:9} {:9.3} ms  ({vs_naive:.2}x vs naive, {vs_blocked:.2}x vs blocked)",
            t * 1e3
        );
        if name.starts_with("tiled") {
            // Perf-regression tripwire: the packed tiled path must never
            // fall behind the oracle loops it replaced.
            assert!(t <= naive_t, "{op}: {name} ({t:.6}s) slower than naive ({naive_t:.6}s)");
        }
        rows.push(Row { op, strategy: name, seconds: t, vs_naive, vs_blocked });
    }
    println!();
}

fn main() {
    let (reps, iters) = if smoke() { (2, 1) } else { (5, 3) };
    // Conv geometry mirrors the acceptance-layer criterion bench
    // (32×32×32 through 32 3×3 filters); smoke shrinks it.
    let (hw, c, oc) = if smoke() { (12, 16, 16) } else { (32, 32, 32) };
    let (k, stride, pad) = (3usize, 1usize, 1usize);
    let zp_in = 4;
    let mut rows = Vec::new();

    println!(
        "Integer micro-kernels ({GENERATION}), best of {reps}x{iters}; \
         all strategies bit-identical to naive\n"
    );

    let shape = Shape::hwc(hw, hw, c);
    let q_in = varied_q(shape.len(), 1, -100, 100);

    // ---- conv2d (pad > 0: per-element zero-point correction) ----
    // Weights are W8-ranged so every bitwidth's packed decode runs the
    // same arithmetic workload as blocked/naive, clamped per bitwidth.
    {
        let out_shape = Shape::hwc(hw, hw, oc);
        let tables = Tables::new(oc);
        let rq = tables.requant();
        let qw: Vec<i8> =
            varied_q(oc * k * k * c, 2, -128, 127).into_iter().map(|v| v as i8).collect();
        let packed = pack::pack(&qw, Bitwidth::W8);
        let tables_b = Tables::new(oc);
        let tables_t = Tables::new(oc);
        let (qw_ref, q_in_ref) = (&qw, &q_in);
        let runs: Vec<Run<'_>> = vec![
            (
                "naive".into(),
                Box::new(move || {
                    naive::conv2d_q(q_in_ref, shape, qw_ref, zp_in, &rq, oc, k, stride, pad)
                }),
            ),
            (
                "blocked".into(),
                Box::new(|| {
                    let mut out = vec![0i32; out_shape.len()];
                    let dot = IntDot { qw: &qw, zp_in, rq: tables_b.requant() };
                    kernels::conv2d(
                        &dot,
                        &q_in,
                        shape,
                        &mut out,
                        oc,
                        k,
                        stride,
                        pad,
                        out_shape.full_region(),
                    );
                    out
                }),
            ),
            (
                "tiled_8".into(),
                Box::new(|| {
                    let mut out = vec![0i32; out_shape.len()];
                    let dot = PackedDot::new(&packed, Bitwidth::W8, zp_in, tables_t.requant())
                        .assuming_i16_activations();
                    kernels::conv2d(
                        &dot,
                        &q_in,
                        shape,
                        &mut out,
                        oc,
                        k,
                        stride,
                        pad,
                        out_shape.full_region(),
                    );
                    out
                }),
            ),
        ];
        sweep("conv2d_int", reps, iters, runs, &mut rows);

        // Sub-byte decodes run on their own (range-clamped) weights, each
        // checked against its own naive reference, timed on the same
        // geometry so the rows are comparable.
        for bits in [Bitwidth::W4, Bitwidth::W2] {
            let qw_b: Vec<i8> = varied_q(oc * k * k * c, 2, bits.min_value(), bits.max_value())
                .into_iter()
                .map(|v| v as i8)
                .collect();
            let packed_b = pack::pack(&qw_b, bits);
            let tables_s = Tables::new(oc);
            let rq_s = tables_s.requant();
            let naive_ref = naive::conv2d_q(&q_in, shape, &qw_b, zp_in, &rq_s, oc, k, stride, pad);
            let mut run = || {
                let mut out = vec![0i32; out_shape.len()];
                let dot = PackedDot::new(&packed_b, bits, zp_in, tables_s.requant())
                    .assuming_i16_activations();
                kernels::conv2d(
                    &dot,
                    &q_in,
                    shape,
                    &mut out,
                    oc,
                    k,
                    stride,
                    pad,
                    out_shape.full_region(),
                );
                out
            };
            assert_eq!(run(), naive_ref, "conv2d_int: tiled {bits} diverged from naive");
            let t = measure(reps, iters, &mut run).as_secs_f64();
            println!("conv2d_int tiled_{}: {:9.3} ms (sub-byte decode)", bits.bits(), t * 1e3);
            rows.push(Row {
                op: "conv2d_int",
                strategy: format!("tiled_{}", bits.bits()),
                seconds: t,
                vs_naive: 0.0,
                vs_blocked: 0.0,
            });
        }
        println!();
    }

    // ---- dwconv (pad > 0) ----
    {
        let dw_out = Shape::hwc(hw, hw, c);
        let tables = Tables::new(c);
        let rq = tables.requant();
        let qw: Vec<i8> = varied_q(k * k * c, 3, -128, 127).into_iter().map(|v| v as i8).collect();
        let packed = pack::pack(&qw, Bitwidth::W8);
        let (qw_ref, q_in_ref) = (&qw, &q_in);
        let tables_b = Tables::new(c);
        let tables_t = Tables::new(c);
        let runs: Vec<Run<'_>> = vec![
            (
                "naive".into(),
                Box::new(move || {
                    naive::dwconv_q(q_in_ref, shape, qw_ref, zp_in, &rq, k, stride, pad)
                }),
            ),
            (
                "blocked".into(),
                Box::new(|| {
                    let mut out = vec![0i32; dw_out.len()];
                    let dot = IntDot { qw: &qw, zp_in, rq: tables_b.requant() };
                    kernels::dwconv(
                        &dot,
                        &q_in,
                        shape,
                        &mut out,
                        k,
                        stride,
                        pad,
                        dw_out.full_region(),
                    );
                    out
                }),
            ),
            (
                "tiled_8".into(),
                Box::new(|| {
                    let mut out = vec![0i32; dw_out.len()];
                    let dot = PackedDot::new(&packed, Bitwidth::W8, zp_in, tables_t.requant())
                        .assuming_i16_activations();
                    kernels::dwconv(
                        &dot,
                        &q_in,
                        shape,
                        &mut out,
                        k,
                        stride,
                        pad,
                        dw_out.full_region(),
                    );
                    out
                }),
            ),
        ];
        sweep("dwconv_int", reps, iters, runs, &mut rows);
    }

    // ---- dense (folded zero point: every weight touches every output) ----
    {
        let out_f = if smoke() { 32 } else { 64 };
        let fan_in = shape.per_sample();
        let tables = Tables::new(out_f);
        let rq = tables.requant();
        let qw: Vec<i8> =
            varied_q(out_f * fan_in, 5, -128, 127).into_iter().map(|v| v as i8).collect();
        let packed = pack::pack(&qw, Bitwidth::W8);
        let init: Vec<i64> = (0..out_f)
            .map(|o| {
                let sum: i64 = qw[o * fan_in..(o + 1) * fan_in].iter().map(|&w| w as i64).sum();
                -(zp_in as i64) * sum
            })
            .collect();
        let (qw_ref, q_in_ref) = (&qw, &q_in);
        let tables_b = Tables::new(out_f);
        let tables_t = Tables::new(out_f);
        let init_ref = &init;
        let runs: Vec<Run<'_>> = vec![
            (
                "naive".into(),
                Box::new(move || naive::dense_q(q_in_ref, shape, qw_ref, zp_in, &rq, out_f)),
            ),
            (
                "blocked".into(),
                Box::new(|| {
                    let mut out = vec![0i32; out_f];
                    let dot = IntDot { qw: &qw, zp_in, rq: tables_b.requant() };
                    kernels::dense(&dot, &q_in, shape, &mut out, out_f);
                    out
                }),
            ),
            (
                "tiled_8".into(),
                Box::new(|| {
                    let mut out = vec![0i32; out_f];
                    let dot = PackedDot::with_folded_zero_point(
                        &packed,
                        Bitwidth::W8,
                        init_ref,
                        tables_t.requant(),
                    )
                    .assuming_i16_activations();
                    kernels::dense(&dot, &q_in, shape, &mut out, out_f);
                    out
                }),
            ),
        ];
        sweep("dense_int", reps, iters, runs, &mut rows);
    }

    // ---- end-to-end images/second through the executors ----
    let graph = exec_graph(Model::MobileNetV2);
    let ds = exec_dataset();
    let images: Vec<Tensor> = (0..if smoke() { 4 } else { 16 }).map(|i| ds.sample(i).0).collect();
    let ranges = calibrate_ranges(&graph, &images[..2]).expect("calibrate");
    let act = vec![Bitwidth::W8; graph.spec().feature_map_count()];
    let float_t = {
        let mut exec = FloatExecutor::new(&graph);
        measure(reps, 1, || {
            for x in &images {
                std::hint::black_box(exec.run(x).expect("float run"));
            }
        })
    };
    let quant_t = {
        let mut exec =
            QuantExecutor::new(&graph, &ranges, &act, Bitwidth::W8).expect("quant executor");
        measure(reps, 1, || {
            for x in &images {
                std::hint::black_box(exec.run(x).expect("quant run"));
            }
        })
    };
    let float_ips = images.len() as f64 / float_t.as_secs_f64();
    let quant_ips = images.len() as f64 / quant_t.as_secs_f64();
    // Absolute img/s moves with the host; the same-run ratio does not.
    let quant_over_float = quant_ips / float_ips;
    println!("end-to-end (MobileNetV2 exec scale, {} images):", images.len());
    println!("  float  {float_ips:8.1} img/s");
    println!("  quant  {quant_ips:8.1} img/s (W8 activations, packed W8 weights)");
    println!("  quant / float  {quant_over_float:.3}");
    let host_parallelism = quantmcu::default_workers();

    let json = format!(
        "{{\n  \"bench\": \"kernel_throughput\",\n  \"kernel_generation\": \"{GENERATION}\",\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"reps\": {reps},\n  \"iters\": {iters},\n  \"ops\": [\n{}\n  ],\n  \
         \"end_to_end\": {{\"model\": \"MobileNetV2 (exec scale)\", \"images\": {}, \
         \"float_images_per_second\": {float_ips:.2}, \
         \"quant_images_per_second\": {quant_ips:.2}, \
         \"quant_over_float\": {quant_over_float:.4}}}\n}}\n",
        rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n"),
        images.len()
    );
    // Smoke runs exist to catch runtime panics and perf tripwires; don't
    // let their shrunken measurements clobber the committed snapshot.
    let path = if smoke() { "BENCH_kernels.smoke.json" } else { "BENCH_kernels.json" };
    std::fs::write(path, &json).expect("write kernels benchmark JSON");
    println!("\nwrote {path} ({} bytes)", json.len());
}
