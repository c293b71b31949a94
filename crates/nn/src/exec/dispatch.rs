//! The op dispatch: the one place an [`OpSpec`] is matched to the shared
//! kernels in [`crate::kernels`].
//!
//! Every execution path evaluates a node through this module, over a
//! [`Region`] of the node's output map. Whole-graph execution passes the
//! full region ([`Shape::full_region`]); the patch engine passes a
//! branch's halo-expanded region.
//!
//! * `weighted` runs Conv2d, DepthwiseConv2d and Dense, generic over the
//!   [`Dot`] strategy: [`FloatDot`] on the float paths,
//!   [`PackedDot`](crate::kernels::PackedDot) in the integer executor.
//! * `value_preserving` runs the weightless operators on `f32` maps,
//!   resolving the node's `k`-th input through a closure, so callers keep
//!   their own map storage and build no per-node input list. The integer
//!   executor brackets it with a dequantize/requantize pass.
//! * [`float_node`] routes one node to either of them with a [`FloatDot`]
//!   over its parameters; it is the float executor's and the patch
//!   stage's per-node step.

use quantmcu_tensor::{Region, Shape, Tensor};

use crate::graph::OpParams;
use crate::kernels::{self, Dot, FloatDot};
use crate::spec::{NodeSpec, OpSpec};

/// Evaluates the weighted operator `op` into `region` of `out` with the
/// kernel strategy `dot`. Dense layers have no spatial extent and always
/// compute their whole output.
///
/// # Panics
///
/// Panics when `op` carries no weights.
pub(crate) fn weighted<D: Dot>(
    dot: &D,
    op: OpSpec,
    input: &[D::Elem],
    in_shape: Shape,
    out: &mut [D::Elem],
    region: Region,
) {
    match op {
        OpSpec::Conv2d { out_ch, kernel, stride, pad } => {
            kernels::conv2d(dot, input, in_shape, out, out_ch, kernel, stride, pad, region)
        }
        OpSpec::DepthwiseConv2d { kernel, stride, pad } => {
            kernels::dwconv(dot, input, in_shape, out, kernel, stride, pad, region)
        }
        OpSpec::Dense { out: out_f } => kernels::dense(dot, input, in_shape, out, out_f),
        _ => unreachable!("weightless operator {op} routed to the weighted dispatch"),
    }
}

/// Evaluates the weightless operator of `node` into `region` of `out`
/// (shape `out_shape`). `input(k)` resolves the node's `k`-th input map.
/// Global average pooling has no spatial extent and always computes its
/// whole output.
///
/// # Panics
///
/// Panics when the operator carries weights.
pub(crate) fn value_preserving<'m>(
    node: &NodeSpec,
    input: impl Fn(usize) -> &'m Tensor,
    out: &mut [f32],
    out_shape: Shape,
    region: Region,
) {
    let x = input(0);
    match node.op {
        OpSpec::MaxPool { kernel, stride } => {
            kernels::max_pool(x.data(), x.shape(), out, kernel, stride, region)
        }
        OpSpec::AvgPool { kernel, stride } => {
            kernels::avg_pool(x.data(), x.shape(), out, kernel, stride, region)
        }
        OpSpec::GlobalAvgPool => kernels::global_avg_pool(x.data(), x.shape(), out),
        OpSpec::Relu | OpSpec::Relu6 => {
            let hi = if node.op == OpSpec::Relu6 { 6.0 } else { f32::INFINITY };
            kernels::relu(x.data(), x.shape(), out, hi, region)
        }
        OpSpec::Add => kernels::add(x.data(), input(1).data(), out_shape, out, region),
        OpSpec::Concat => kernels::concat(
            (0..node.inputs.len()).map(|k| {
                let t = input(k);
                (t.data(), t.shape())
            }),
            out,
            out_shape,
            region,
        ),
        op => unreachable!("weighted operator {op} routed to the value-preserving dispatch"),
    }
}

/// Evaluates `node` in float precision into `region` of `out`: weighted
/// operators with a [`FloatDot`] over `params`, weightless ones directly.
/// `input(k)` resolves the node's `k`-th input map.
pub fn float_node<'m>(
    node: &NodeSpec,
    params: &OpParams,
    input: impl Fn(usize) -> &'m Tensor,
    out: &mut Tensor,
    region: Region,
) {
    let out_shape = out.shape();
    if node.op.has_weights() {
        let x = input(0);
        let dot = FloatDot { weights: params.weights(), bias: params.bias() };
        weighted(&dot, node.op, x.data(), x.shape(), out.data_mut(), region);
    } else {
        value_preserving(node, input, out.data_mut(), out_shape, region);
    }
}
