use std::borrow::Borrow;

use quantmcu_nn::exec::{dispatch, CompiledGraph, ExecState};
use quantmcu_nn::{Graph, GraphError, GraphSpec};
use quantmcu_tensor::{Arena, QuantParams, Region, Shape, Tensor};

use crate::branch::Branch;
use crate::error::PatchError;
use crate::plan::PatchPlan;

/// The result of one patch-based inference.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchOutput {
    /// The stitched stage output (input of the tail).
    pub stage_output: Tensor,
    /// Each branch's stage-output patch, row-major.
    pub branch_outputs: Vec<Tensor>,
    /// The network's final output after the tail.
    pub final_output: Tensor,
}

/// The per-thread scratch half of a [`PatchExecutor`]: the tail's
/// [`ExecState`], the branch feature-map [`Arena`] and the per-branch map
/// slots. Construction allocates nothing; the buffers warm up over the
/// first inference and every later run on the same executor is
/// allocation-free.
///
/// One immutable executor plus N states executes on N threads at once —
/// the same compile-once / execute-many split as
/// [`CompiledGraph`] / [`ExecState`].
#[derive(Debug, Default)]
pub struct PatchState {
    tail_state: ExecState,
    /// Buffer pool for branch feature maps.
    arena: Arena<f32>,
    /// Per-branch feature-map scratch (drained back to the arena after
    /// each branch; the `Vec` itself keeps its capacity).
    maps: Vec<Tensor>,
}

impl PatchState {
    /// An empty state; allocates nothing until the first run.
    pub fn new() -> Self {
        PatchState::default()
    }
}

/// Executes a [`PatchPlan`] numerically.
///
/// Per branch, the executor computes only the feature-map regions the
/// branch's receptive field requires (halo included), evaluating each
/// head node through the same op dispatch as whole-graph execution
/// ([`quantmcu_nn::exec::dispatch`]) with the branch's region in place of
/// the full one. A kernel's value for an output element does not depend
/// on the region it is asked for, so the stitched stage output is
/// bit-identical to full execution, which the integration property suite
/// asserts for random DAG heads and grids. Passing per-branch
/// quantization parameters fake-quantizes every feature-map region as it
/// is produced, which is how mixed-precision dataflow branches (the heart
/// of QuantMCU) are evaluated numerically; the dense
/// integer path is validated separately in `quantmcu_nn::exec`.
///
/// The executor is the **immutable** half of patch-based inference:
/// generic over `G: Borrow<Graph>`, it can borrow its graph
/// (`PatchExecutor<&Graph>`), own it (`PatchExecutor<Graph>`) or share it
/// (`PatchExecutor<std::sync::Arc<Graph>>`), and it is `Send + Sync`
/// whenever `G` is — one executor serves any number of threads. All
/// mutable scratch lives in a caller-owned [`PatchState`]: the tail is
/// compiled **once** at construction ([`CompiledGraph`] owning the tail
/// graph) and executed through the state's [`ExecState`], and branch
/// feature maps live in the state's [`Arena`]. After a warm-up inference
/// the whole head-branches-tail path performs zero steady-state heap
/// allocations when driven through [`PatchExecutor::run_quantized_into`]
/// with a reused [`PatchState`] and [`PatchOutput`].
#[derive(Debug)]
pub struct PatchExecutor<G: Borrow<Graph> = Graph> {
    graph: G,
    plan: PatchPlan,
    head: GraphSpec,
    /// The float tail, compiled once — no per-inference executor
    /// construction. `None` for stage-only executors
    /// ([`PatchExecutor::stage_only`]), which skip the tail-weight copy
    /// entirely.
    tail: Option<CompiledGraph>,
    branches: Vec<Branch>,
}

impl<G: Borrow<Graph>> PatchExecutor<G> {
    /// Prepares an executor for `plan` over `graph`, compiling the tail.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::Graph`] when the plan's split point does not
    /// match the graph (e.g. a skip edge crosses it).
    pub fn new(graph: G, plan: PatchPlan) -> Result<Self, PatchError> {
        Self::build(graph, plan, true)
    }

    /// Prepares an executor that runs **only** the per-patch stage
    /// ([`PatchExecutor::run_stage_into`]): no float tail is compiled, so
    /// no copy of the tail weights is made or held. This is what a
    /// deployment with its own (integer) tail executor uses. The
    /// full-inference entry points ([`PatchExecutor::run`],
    /// [`PatchExecutor::run_quantized`],
    /// [`PatchExecutor::run_quantized_into`]) return
    /// [`PatchError::MissingTail`] on a stage-only executor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PatchExecutor::new`].
    pub fn stage_only(graph: G, plan: PatchPlan) -> Result<Self, PatchError> {
        Self::build(graph, plan, false)
    }

    fn build(graph: G, plan: PatchPlan, compile_tail: bool) -> Result<Self, PatchError> {
        let spec = graph.borrow().spec();
        let (head, tail_spec) = spec.split_at(plan.split_at())?;
        let branches = Branch::build_all(spec, &plan);
        let tail = if compile_tail {
            let tail_params =
                (plan.split_at()..spec.len()).map(|i| graph.borrow().params(i).clone()).collect();
            Some(CompiledGraph::new(Graph::new(tail_spec, tail_params))?)
        } else {
            None
        };
        Ok(PatchExecutor { graph, plan, head, tail, branches })
    }

    /// The executed graph.
    pub fn graph(&self) -> &Graph {
        self.graph.borrow()
    }

    /// The graph holder itself — e.g. the `Arc<Graph>` of a shared
    /// executor, so callers can clone the handle without re-wrapping.
    pub fn graph_handle(&self) -> &G {
        &self.graph
    }

    /// The plan being executed.
    pub fn plan(&self) -> &PatchPlan {
        &self.plan
    }

    /// The per-patch stage spec.
    pub fn head(&self) -> &GraphSpec {
        &self.head
    }

    /// The branches, row-major.
    pub fn branches(&self) -> &[Branch] {
        &self.branches
    }

    /// A fresh scratch state for this executor (one per thread).
    pub fn make_state(&self) -> PatchState {
        PatchState::new()
    }

    /// A zeroed [`PatchOutput`] with the shapes this executor produces,
    /// for reuse across [`PatchExecutor::run_quantized_into`] calls.
    pub fn make_output(&self) -> PatchOutput {
        let stage_shape = self.head.output_shape();
        PatchOutput {
            stage_output: Tensor::zeros(stage_shape),
            branch_outputs: self
                .branches
                .iter()
                .map(|b| Tensor::zeros(patch_shape(stage_shape, b.output_region())))
                .collect(),
            // Stage-only executors never write the final output (the
            // full-inference entry points error with `MissingTail`), so
            // they get a minimal placeholder instead of a dead
            // output-shaped buffer.
            final_output: if self.tail.is_some() {
                Tensor::zeros(self.graph.borrow().spec().output_shape())
            } else {
                Tensor::zeros(Shape::hwc(1, 1, 1))
            },
        }
    }

    /// Runs full patch-based inference in float precision.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError`] when the input shape mismatches or a region
    /// operation fails.
    pub fn run(&self, state: &mut PatchState, input: &Tensor) -> Result<PatchOutput, PatchError> {
        self.run_quantized(state, input, None)
    }

    /// Runs patch-based inference, optionally fake-quantizing each branch.
    ///
    /// `branch_quant`, when present, provides one `Vec<QuantParams>` per
    /// branch with one entry per head feature map (head length + 1); the
    /// region of feature map `i` computed by that branch is snapped to the
    /// corresponding grid right after it is produced.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::BitwidthLength`] when a parameter vector has
    /// the wrong length, or propagated graph/tensor errors.
    pub fn run_quantized(
        &self,
        state: &mut PatchState,
        input: &Tensor,
        branch_quant: Option<&[Vec<QuantParams>]>,
    ) -> Result<PatchOutput, PatchError> {
        let mut out = self.make_output();
        self.run_quantized_into(state, input, branch_quant, &mut out)?;
        Ok(out)
    }

    /// Runs full patch-based inference into a reused [`PatchOutput`]: the
    /// allocation-free counterpart of [`PatchExecutor::run_quantized`].
    /// `out` should come from [`PatchExecutor::make_output`] (or an
    /// earlier run); buffers with unexpected shapes are reallocated once
    /// and reused thereafter.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PatchExecutor::run_quantized`], plus
    /// [`PatchError::MissingTail`] on a stage-only executor.
    pub fn run_quantized_into(
        &self,
        state: &mut PatchState,
        input: &Tensor,
        branch_quant: Option<&[Vec<QuantParams>]>,
        out: &mut PatchOutput,
    ) -> Result<(), PatchError> {
        let tail = self.tail.as_ref().ok_or(PatchError::MissingTail)?;
        self.run_stage_into(state, input, branch_quant, out)?;
        tail.run_float_into(&mut state.tail_state, &out.stage_output, &mut out.final_output)
            .map_err(PatchError::from)
    }

    /// Runs the per-patch stage only — branches plus stitching — filling
    /// `out.stage_output` and `out.branch_outputs` and leaving
    /// `out.final_output` untouched. This is what a deployment with its
    /// own (integer) tail executor uses, skipping the float tail entirely.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PatchExecutor::run_quantized`].
    pub fn run_stage_into(
        &self,
        state: &mut PatchState,
        input: &Tensor,
        branch_quant: Option<&[Vec<QuantParams>]>,
        out: &mut PatchOutput,
    ) -> Result<(), PatchError> {
        if let Some(q) = branch_quant {
            if q.len() != self.branches.len() {
                return Err(PatchError::BitwidthLength {
                    expected: self.branches.len(),
                    actual: q.len(),
                });
            }
            for params in q {
                if params.len() != self.head.len() + 1 {
                    return Err(PatchError::BitwidthLength {
                        expected: self.head.len() + 1,
                        actual: params.len(),
                    });
                }
            }
        }
        if input.shape() != self.head.input_shape() {
            return Err(PatchError::Graph(GraphError::InputShapeMismatch {
                expected: self.head.input_shape(),
                actual: input.shape(),
            }));
        }
        let stage_shape = self.head.output_shape();
        ensure_shape(&mut out.stage_output, stage_shape);
        if out.branch_outputs.len() != self.branches.len() {
            out.branch_outputs =
                self.branches.iter().map(|_| Tensor::zeros(Shape::hwc(1, 1, 1))).collect();
        }
        let PatchState { arena, maps, .. } = state;
        for (bi, branch) in self.branches.iter().enumerate() {
            let patch = &mut out.branch_outputs[bi];
            ensure_shape(patch, patch_shape(stage_shape, branch.output_region()));
            let quant = branch_quant.map(|q| q[bi].as_slice());
            run_branch_into(
                self.graph.borrow(),
                &self.head,
                branch,
                arena,
                maps,
                input,
                quant,
                patch,
            )?;
            out.stage_output.paste(branch.output_region(), patch)?;
        }
        Ok(())
    }
}

/// Shape of one branch's stage-output patch.
fn patch_shape(stage: Shape, region: Region) -> Shape {
    Shape::new(stage.n, region.h, region.w, stage.c)
}

/// Reallocates `t` as zeros of `shape` unless it already has that shape.
fn ensure_shape(t: &mut Tensor, shape: Shape) {
    if t.shape() != shape {
        *t = Tensor::zeros(shape);
    }
}

/// Computes one branch's stage-output patch via region-restricted
/// execution over the head DAG (residual adds and concats included),
/// writing it into `out_patch`. Each node runs through
/// [`dispatch::float_node`] over the branch's region of its output map,
/// reading its inputs from `maps` ([`quantmcu_nn::FeatureMapId`]
/// numbering); reads outside an input map's bounds behave as zero
/// padding, exactly like full execution. Feature maps come from `arena`
/// and are returned to it before the function exits; map regions outside
/// the branch's computed halo hold unspecified scratch, which the
/// receptive-field algebra guarantees no kernel ever reads.
#[allow(clippy::too_many_arguments)]
fn run_branch_into(
    graph: &Graph,
    head: &GraphSpec,
    branch: &Branch,
    arena: &mut Arena<f32>,
    maps: &mut Vec<Tensor>,
    input: &Tensor,
    quant: Option<&[QuantParams]>,
    out_patch: &mut Tensor,
) -> Result<(), PatchError> {
    let regions = branch.regions();
    let mut m0 = {
        let mut buf = arena.take(input.data().len());
        buf.copy_from_slice(input.data());
        Tensor::from_vec(input.shape(), buf).expect("arena length matches")
    };
    if let Some(q) = quant {
        fake_quant_region(&mut m0, regions[0], &q[0]);
    }
    maps.push(m0);
    for (i, node) in head.nodes().iter().enumerate() {
        let out_shape = head.node_shape(i);
        let mut t =
            Tensor::from_vec(out_shape, arena.take(out_shape.len())).expect("arena length matches");
        let inputs: &[Tensor] = maps;
        dispatch::float_node(
            node,
            graph.params(i),
            |k| &inputs[node.inputs[k].feature_map().0],
            &mut t,
            regions[i + 1],
        );
        if let Some(q) = quant {
            fake_quant_region(&mut t, regions[i + 1], &q[i + 1]);
        }
        maps.push(t);
    }
    let result = maps.last().expect("head output").crop_into(branch.output_region(), out_patch);
    for t in maps.drain(..) {
        arena.give(t.into_vec());
    }
    result?;
    Ok(())
}

/// Quantize-dequantizes the values inside `region` (all channels) in
/// place, leaving the rest of the tensor untouched.
fn fake_quant_region(t: &mut Tensor, region: Region, params: &QuantParams) {
    let shape = t.shape();
    for n in 0..shape.n {
        for y in region.y..region.y_end().min(shape.h) {
            for x in region.x..region.x_end().min(shape.w) {
                for c in 0..shape.c {
                    let v = t.at(n, y, x, c);
                    t.set(n, y, x, c, params.dequantize(params.quantize(v)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_nn::exec::FloatExecutor;
    use quantmcu_nn::{init, GraphSpecBuilder};
    use quantmcu_tensor::{Bitwidth, Shape};

    fn graph() -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .dwconv(3, 1, 1)
            .relu6()
            .pwconv(12)
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap();
        init::with_structured_weights(spec, 21)
    }

    fn input() -> Tensor {
        Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i as f32) * 0.31).sin())
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn executor_is_send_sync_for_shareable_graphs() {
        assert_send_sync::<PatchExecutor<Graph>>();
        assert_send_sync::<PatchExecutor<&Graph>>();
        assert_send_sync::<PatchExecutor<std::sync::Arc<Graph>>>();
        fn assert_send<T: Send>() {}
        assert_send::<PatchState>();
    }

    #[test]
    fn owned_and_borrowed_executors_agree() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let borrowed = PatchExecutor::new(&g, plan.clone()).unwrap();
        let owned = PatchExecutor::new(g.clone(), plan).unwrap();
        let a = borrowed.run(&mut PatchState::new(), &input()).unwrap();
        let b = owned.run(&mut PatchState::new(), &input()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stage_only_matches_full_executor_stage_and_rejects_tail_runs() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let full = PatchExecutor::new(&g, plan.clone()).unwrap();
        let stage = PatchExecutor::stage_only(&g, plan).unwrap();
        let expected = full.run(&mut full.make_state(), &input()).unwrap();
        let mut out = stage.make_output();
        stage.run_stage_into(&mut stage.make_state(), &input(), None, &mut out).unwrap();
        assert_eq!(out.stage_output, expected.stage_output);
        assert_eq!(out.branch_outputs, expected.branch_outputs);
        // Full-inference entry points need the tail.
        assert!(matches!(
            stage.run(&mut stage.make_state(), &input()),
            Err(PatchError::MissingTail)
        ));
    }

    #[test]
    fn stitched_equals_full_execution() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let pe = PatchExecutor::new(&g, plan).unwrap();
        let out = pe.run(&mut pe.make_state(), &input()).unwrap();
        let full = FloatExecutor::new(&g).run_trace(&input()).unwrap();
        // Stage output (feature map 5) must match exactly.
        let full_stage = &full[5];
        assert!(
            out.stage_output.mean_abs_diff(full_stage) < 1e-5,
            "stage mismatch: {}",
            out.stage_output.mean_abs_diff(full_stage)
        );
        // And therefore the final output too.
        assert!(out.final_output.mean_abs_diff(full.last().unwrap()) < 1e-4);
    }

    #[test]
    fn three_by_three_grid_also_exact() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 3, 3).unwrap();
        let pe = PatchExecutor::new(&g, plan).unwrap();
        let out = pe.run(&mut pe.make_state(), &input()).unwrap();
        let full = FloatExecutor::new(&g).run(&input()).unwrap();
        assert!(out.final_output.mean_abs_diff(&full) < 1e-4);
    }

    #[test]
    fn repeated_runs_reuse_buffers_and_agree() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let pe = PatchExecutor::new(&g, plan).unwrap();
        let mut state = pe.make_state();
        let fresh = pe.run(&mut state, &input()).unwrap();
        let mut reused = pe.make_output();
        for _ in 0..3 {
            pe.run_quantized_into(&mut state, &input(), None, &mut reused).unwrap();
            assert_eq!(fresh, reused, "reused-buffer run must be bit-identical");
        }
    }

    #[test]
    fn wrong_input_shape_is_rejected() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let pe = PatchExecutor::new(&g, plan).unwrap();
        assert!(matches!(
            pe.run(&mut pe.make_state(), &Tensor::zeros(Shape::hwc(15, 16, 3))),
            Err(PatchError::Graph(GraphError::InputShapeMismatch { .. }))
        ));
    }

    #[test]
    fn quantized_branches_stay_close_at_8_bit() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let pe = PatchExecutor::new(&g, plan).unwrap();
        let mut state = pe.make_state();
        // Build per-branch 8-bit params from a float trace.
        let trace = FloatExecutor::new(&g).run_trace(&input()).unwrap();
        let params: Vec<QuantParams> =
            trace[..6].iter().map(|t| QuantParams::from_tensor(t, Bitwidth::W8)).collect();
        let per_branch = vec![params; 4];
        let q = pe.run_quantized(&mut state, &input(), Some(&per_branch)).unwrap();
        let f = pe.run(&mut state, &input()).unwrap();
        let denom = f.stage_output.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        assert!(q.stage_output.mean_abs_diff(&f.stage_output) / denom < 0.05);
    }

    #[test]
    fn two_bit_branches_lose_more_than_8_bit() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let pe = PatchExecutor::new(&g, plan).unwrap();
        let mut state = pe.make_state();
        let trace = FloatExecutor::new(&g).run_trace(&input()).unwrap();
        let mk = |b: Bitwidth| -> Vec<Vec<QuantParams>> {
            let p: Vec<QuantParams> =
                trace[..6].iter().map(|t| QuantParams::from_tensor(t, b)).collect();
            vec![p; 4]
        };
        let f = pe.run(&mut state, &input()).unwrap();
        let e8 = pe
            .run_quantized(&mut state, &input(), Some(&mk(Bitwidth::W8)))
            .unwrap()
            .stage_output
            .mean_abs_diff(&f.stage_output);
        let e2 = pe
            .run_quantized(&mut state, &input(), Some(&mk(Bitwidth::W2)))
            .unwrap()
            .stage_output
            .mean_abs_diff(&f.stage_output);
        assert!(e2 > e8, "2-bit error {e2} should exceed 8-bit error {e8}");
    }

    #[test]
    fn mixed_per_branch_bitwidths_accepted() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let pe = PatchExecutor::new(&g, plan).unwrap();
        let trace = FloatExecutor::new(&g).run_trace(&input()).unwrap();
        // Branch 0 at 8-bit (outlier class), others at 2-bit.
        let p8: Vec<QuantParams> =
            trace[..6].iter().map(|t| QuantParams::from_tensor(t, Bitwidth::W8)).collect();
        let p2: Vec<QuantParams> =
            trace[..6].iter().map(|t| QuantParams::from_tensor(t, Bitwidth::W2)).collect();
        let per_branch = vec![p8, p2.clone(), p2.clone(), p2];
        let out = pe.run_quantized(&mut pe.make_state(), &input(), Some(&per_branch)).unwrap();
        assert!(out.final_output.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn wrong_quant_lengths_rejected() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let pe = PatchExecutor::new(&g, plan).unwrap();
        let mut state = pe.make_state();
        let bad: Vec<Vec<QuantParams>> = vec![Vec::new(); 4];
        assert!(matches!(
            pe.run_quantized(&mut state, &input(), Some(&bad)),
            Err(PatchError::BitwidthLength { .. })
        ));
        let bad_count: Vec<Vec<QuantParams>> = Vec::new();
        assert!(pe.run_quantized(&mut state, &input(), Some(&bad_count)).is_err());
    }
}
