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
//!   their own map storage and build no per-node input list.
//! * `code_tables` lowers Relu, Relu6, MaxPool and Concat over grids of at
//!   most 8 bits to one code → code table per input, by running
//!   `value_preserving` on every code once at compile time; `lowered`
//!   then runs those ops on the integer executor's codes directly. The
//!   integer executor brackets the remaining weightless ops (Add, the
//!   average pools, wider grids) with a dequantize/requantize pass.
//! * [`float_node`] routes one node to either of them with a [`FloatDot`]
//!   over its parameters; it is the float executor's and the patch
//!   stage's per-node step.

use quantmcu_tensor::{QuantParams, Region, Shape, Tensor};

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
            kernels::max_pool(x.data(), x.shape(), out, kernel, stride, region, |v| v)
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
                (t.data(), t.shape(), |v| v)
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

/// A code → code table over one ≤ 8-bit input grid. Every code of such a
/// grid is distinct in its low byte, so the table is indexed by that byte
/// with no offset and no bounds check.
#[derive(Debug, Clone)]
pub(crate) struct CodeTable(Box<[i32; 256]>);

impl CodeTable {
    #[inline]
    fn get(&self, q: i32) -> i32 {
        self.0[usize::from(q as u8)]
    }
}

/// Lowers the weightless `node` to one [`CodeTable`] per input when its
/// integer evaluation — dequantize every input, run
/// [`value_preserving`], requantize — depends on one input code per
/// output element: Relu and Relu6 map each code alone, MaxPool takes the
/// maximum code first (`dequantize` is monotone, its scale positive), and
/// Concat moves each part's codes onto the output grid. Every table entry
/// is that bracket evaluated on a probe map holding each code of the
/// input grid once per window position, so the tables agree with the
/// bracket bit for bit by construction.
///
/// `None` for every other operator, and whenever an input or the output
/// grid (`grid(k)` for input `k`, `out` for the output) is wider than 8
/// bits: those keep the bracket.
pub(crate) fn code_tables(
    node: &NodeSpec,
    grid: impl Fn(usize) -> QuantParams,
    out: QuantParams,
) -> Option<Vec<CodeTable>> {
    let window = match node.op {
        OpSpec::MaxPool { kernel, .. } => kernel,
        OpSpec::Relu | OpSpec::Relu6 | OpSpec::Concat => 1,
        _ => return None,
    };
    let grids: Vec<QuantParams> = (0..node.inputs.len()).map(grid).collect();
    if grids.iter().chain([&out]).any(|p| p.bitwidth().bits() > 8) {
        return None;
    }
    // Probe `k` is a window × window map whose channel `j` holds the
    // `j`-th code of grid `k` at every position.
    let probes: Vec<Tensor> = grids
        .iter()
        .map(|p| {
            let (lo, hi) = (p.bitwidth().min_value(), p.bitwidth().max_value());
            let codes = (hi - lo + 1) as usize;
            let shape = Shape::new(1, window, window, codes);
            Tensor::from_fn(shape, |j| p.dequantize(lo + (j % codes) as i32))
        })
        .collect();
    let out_shape = Shape::new(1, 1, 1, probes.iter().map(|t| t.shape().c).sum());
    let mut values = vec![0.0; out_shape.len()];
    value_preserving(node, |k| &probes[k], &mut values, out_shape, out_shape.full_region());
    let mut values = values.into_iter();
    let tables = grids
        .iter()
        .map(|p| {
            let mut table = Box::new([0; 256]);
            for q in p.bitwidth().min_value()..=p.bitwidth().max_value() {
                let v = values.next().expect("one output channel per probe code");
                table[usize::from(q as u8)] = out.quantize(v);
            }
            CodeTable(table)
        })
        .collect();
    Some(tables)
}

/// Evaluates a node lowered by [`code_tables`] on integer codes into
/// `region` of `out` (shape `out_shape`). `input(k)` resolves the node's
/// `k`-th input code map and its shape.
pub(crate) fn lowered<'m>(
    node: &NodeSpec,
    tables: &[CodeTable],
    input: impl Fn(usize) -> (&'m [i32], Shape),
    out: &mut [i32],
    out_shape: Shape,
    region: Region,
) {
    let (x, x_shape) = input(0);
    let t = &tables[0];
    match node.op {
        OpSpec::MaxPool { kernel, stride } => {
            kernels::max_pool(x, x_shape, out, kernel, stride, region, |q| t.get(q))
        }
        OpSpec::Relu | OpSpec::Relu6 => kernels::map(x, x_shape, out, region, |q| t.get(q)),
        OpSpec::Concat => kernels::concat(
            tables.iter().enumerate().map(|(k, t)| {
                let (data, shape) = input(k);
                (data, shape, move |q| t.get(q))
            }),
            out,
            out_shape,
            region,
        ),
        op => unreachable!("operator {op} has no code tables"),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use quantmcu_tensor::Bitwidth;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::spec::Source;

    /// A W2, W4 or W8 grid over a random range that is all-negative,
    /// all-positive or straddles zero.
    fn grid(rng: &mut StdRng) -> QuantParams {
        let bits = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8][rng.gen_range(0usize..3)];
        let a = rng.gen_range(0.01f32..8.0);
        let b = rng.gen_range(0.01f32..8.0);
        let (lo, hi) = match rng.gen_range(0..3) {
            0 => (-a - b, -a),
            1 => (a, a + b),
            _ => (-a, b),
        };
        QuantParams::from_min_max(lo, hi, bits).unwrap()
    }

    /// A random code map of `shape` on grid `p`.
    fn codes(rng: &mut StdRng, shape: Shape, p: QuantParams) -> Vec<i32> {
        let (lo, hi) = (p.bitwidth().min_value(), p.bitwidth().max_value());
        (0..shape.len()).map(|_| rng.gen_range(lo..=hi)).collect()
    }

    /// The integer loop's bracket: dequantize every input, run the float
    /// dispatch, requantize onto `out`.
    fn bracket(
        node: &NodeSpec,
        inputs: &[(Vec<i32>, Shape, QuantParams)],
        out: QuantParams,
        out_shape: Shape,
    ) -> Vec<i32> {
        let maps: Vec<Tensor> = inputs
            .iter()
            .map(|(q, s, p)| Tensor::from_vec(*s, q.iter().map(|&c| p.dequantize(c)).collect()))
            .collect::<Result<_, _>>()
            .unwrap();
        let mut values = vec![0.0; out_shape.len()];
        value_preserving(node, |k| &maps[k], &mut values, out_shape, out_shape.full_region());
        values.iter().map(|&v| out.quantize(v)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lowered_ops_equal_the_bracket_bit_for_bit(op in 0usize..4, seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (h, w, c) = (rng.gen_range(3..9), rng.gen_range(3..9), rng.gen_range(1..6));
            let (kernel, stride) = (rng.gen_range(2..=3), rng.gen_range(1..=2));
            let parts = if op == 3 { rng.gen_range(2..=3) } else { 1 };
            let node = NodeSpec {
                op: [OpSpec::Relu, OpSpec::Relu6, OpSpec::MaxPool { kernel, stride }, OpSpec::Concat]
                    [op],
                inputs: (0..parts).map(Source::Node).collect(),
            };
            let mut inputs = Vec::new();
            for k in 0..parts {
                let p = grid(&mut rng);
                let shape = Shape::new(1, h, w, c + k);
                inputs.push((codes(&mut rng, shape, p), shape, p));
            }
            let out_shape = match node.op {
                OpSpec::MaxPool { .. } => Shape::new(1, (h - kernel) / stride + 1, (w - kernel) / stride + 1, c),
                OpSpec::Concat => Shape::new(1, h, w, inputs.iter().map(|t| t.1.c).sum()),
                _ => inputs[0].1,
            };
            let out = grid(&mut rng);

            let tables = code_tables(&node, |k| inputs[k].2, out).expect("≤ 8-bit grids lower");
            let mut got = vec![i32::MIN; out_shape.len()];
            let input = |k: usize| (&inputs[k].0[..], inputs[k].1);
            lowered(&node, &tables, input, &mut got, out_shape, out_shape.full_region());
            prop_assert_eq!(got, bracket(&node, &inputs, out, out_shape));
        }
    }

    #[test]
    fn wide_grids_and_other_ops_keep_the_bracket() {
        let relu = NodeSpec { op: OpSpec::Relu6, inputs: vec![Source::Input] };
        let w8 = QuantParams::from_min_max(-1.0, 7.0, Bitwidth::W8).unwrap();
        let w16 = QuantParams::from_min_max(-1.0, 7.0, Bitwidth::W16).unwrap();
        assert!(code_tables(&relu, |_| w8, w8).is_some());
        assert!(code_tables(&relu, |_| w16, w8).is_none());
        assert!(code_tables(&relu, |_| w8, w16).is_none());
        let add = NodeSpec { op: OpSpec::Add, inputs: vec![Source::Input, Source::Node(0)] };
        assert!(code_tables(&add, |_| w8, w8).is_none());
        let avg =
            NodeSpec { op: OpSpec::AvgPool { kernel: 2, stride: 2 }, inputs: vec![Source::Input] };
        assert!(code_tables(&avg, |_| w8, w8).is_none());
    }
}
