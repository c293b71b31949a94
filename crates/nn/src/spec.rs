use std::fmt;

use quantmcu_tensor::Shape;

use crate::error::GraphError;

/// Identifies a feature map in a graph.
///
/// Id 0 is the graph input; id `i + 1` is the output of node `i`. A graph
/// with `n` nodes therefore has `n + 1` feature maps, matching the paper's
/// indexing of "the feature maps of a dataflow branch of N layers" as
/// `i = 0..=N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeatureMapId(pub usize);

impl FeatureMapId {
    /// The graph input feature map.
    pub const INPUT: FeatureMapId = FeatureMapId(0);

    /// The feature map produced by node `node`.
    pub fn of_node(node: usize) -> FeatureMapId {
        FeatureMapId(node + 1)
    }

    /// The producing node index, or `None` for the graph input.
    pub fn node(self) -> Option<usize> {
        self.0.checked_sub(1)
    }
}

impl fmt::Display for FeatureMapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            write!(f, "fm#input")
        } else {
            write!(f, "fm#{}", self.0 - 1)
        }
    }
}

/// Where a node reads its input from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// The graph's input tensor.
    Input,
    /// The output of an earlier node.
    Node(usize),
}

impl Source {
    /// The feature map this source denotes.
    pub fn feature_map(self) -> FeatureMapId {
        match self {
            Source::Input => FeatureMapId::INPUT,
            Source::Node(i) => FeatureMapId::of_node(i),
        }
    }
}

/// A shape-level operator specification.
///
/// Only hyperparameters live here; weights are attached by
/// [`crate::Graph`]. All spatial operators use square kernels and symmetric
/// zero padding, which covers every architecture in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpSpec {
    /// Standard 2-D convolution (OHWI weight layout), fused bias.
    Conv2d {
        /// Output channels.
        out_ch: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride in both dimensions.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
    },
    /// Depthwise 2-D convolution (one filter per channel), fused bias.
    DepthwiseConv2d {
        /// Square kernel size.
        kernel: usize,
        /// Stride in both dimensions.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
    },
    /// Fully connected layer over the flattened input.
    Dense {
        /// Output features.
        out: usize,
    },
    /// Max pooling.
    MaxPool {
        /// Square window.
        kernel: usize,
        /// Stride in both dimensions.
        stride: usize,
    },
    /// Average pooling.
    AvgPool {
        /// Square window.
        kernel: usize,
        /// Stride in both dimensions.
        stride: usize,
    },
    /// Global average pooling to 1×1.
    GlobalAvgPool,
    /// Rectified linear unit.
    Relu,
    /// ReLU clamped at 6, the MobileNet activation.
    Relu6,
    /// Elementwise addition of two same-shape inputs (residual join).
    Add,
    /// Channel concatenation of same-spatial-size inputs (fire/inception
    /// style joins).
    Concat,
}

impl OpSpec {
    /// Number of inputs the operator consumes (`usize::MAX` marks variadic).
    pub fn arity(&self) -> usize {
        match self {
            OpSpec::Add => 2,
            OpSpec::Concat => usize::MAX,
            _ => 1,
        }
    }

    /// `true` for operators that carry trainable weights.
    pub fn has_weights(&self) -> bool {
        matches!(
            self,
            OpSpec::Conv2d { .. } | OpSpec::DepthwiseConv2d { .. } | OpSpec::Dense { .. }
        )
    }

    /// A short lowercase operator name for display and reports.
    pub fn name(&self) -> &'static str {
        match self {
            OpSpec::Conv2d { .. } => "conv2d",
            OpSpec::DepthwiseConv2d { .. } => "dwconv",
            OpSpec::Dense { .. } => "dense",
            OpSpec::MaxPool { .. } => "maxpool",
            OpSpec::AvgPool { .. } => "avgpool",
            OpSpec::GlobalAvgPool => "gap",
            OpSpec::Relu => "relu",
            OpSpec::Relu6 => "relu6",
            OpSpec::Add => "add",
            OpSpec::Concat => "concat",
        }
    }

    /// The operator's opcode in the workspace's binary formats (the
    /// `.qmcu` model format and `.qplan` plan artifacts share one
    /// numbering): `1..=10`, in declaration order.
    pub fn opcode(&self) -> u8 {
        match self {
            OpSpec::Conv2d { .. } => 1,
            OpSpec::DepthwiseConv2d { .. } => 2,
            OpSpec::Dense { .. } => 3,
            OpSpec::MaxPool { .. } => 4,
            OpSpec::AvgPool { .. } => 5,
            OpSpec::GlobalAvgPool => 6,
            OpSpec::Relu => 7,
            OpSpec::Relu6 => 8,
            OpSpec::Add => 9,
            OpSpec::Concat => 10,
        }
    }

    /// The operator's `u32` attributes in encoding order, as written after
    /// its [`OpSpec::opcode`].
    pub fn attrs(&self) -> Vec<u32> {
        match *self {
            OpSpec::Conv2d { out_ch, kernel, stride, pad } => {
                vec![out_ch as u32, kernel as u32, stride as u32, pad as u32]
            }
            OpSpec::DepthwiseConv2d { kernel, stride, pad } => {
                vec![kernel as u32, stride as u32, pad as u32]
            }
            OpSpec::Dense { out } => vec![out as u32],
            OpSpec::MaxPool { kernel, stride } | OpSpec::AvgPool { kernel, stride } => {
                vec![kernel as u32, stride as u32]
            }
            _ => Vec::new(),
        }
    }

    /// Number of attributes opcode `code` carries: what a decoder reads
    /// before [`OpSpec::from_code`]. Codes outside the table carry none.
    pub fn attr_count(code: u8) -> usize {
        OpSpec::from_code(code, &[0; 4]).map_or(0, |op| op.attrs().len())
    }

    /// Decodes opcode `code` with its attributes, or `None` for a code
    /// outside the table.
    ///
    /// # Panics
    ///
    /// Panics when `attrs` is shorter than [`OpSpec::attr_count`] of `code`.
    pub fn from_code(code: u8, attrs: &[u32]) -> Option<OpSpec> {
        let u = |i: usize| attrs[i] as usize;
        Some(match code {
            1 => OpSpec::Conv2d { out_ch: u(0), kernel: u(1), stride: u(2), pad: u(3) },
            2 => OpSpec::DepthwiseConv2d { kernel: u(0), stride: u(1), pad: u(2) },
            3 => OpSpec::Dense { out: u(0) },
            4 => OpSpec::MaxPool { kernel: u(0), stride: u(1) },
            5 => OpSpec::AvgPool { kernel: u(0), stride: u(1) },
            6 => OpSpec::GlobalAvgPool,
            7 => OpSpec::Relu,
            8 => OpSpec::Relu6,
            9 => OpSpec::Add,
            10 => OpSpec::Concat,
            _ => return None,
        })
    }

    /// Infers the output shape given the operator's input shapes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] when arity or shapes are incompatible, or the
    /// spatial output would be empty.
    pub fn output_shape(&self, inputs: &[Shape]) -> Result<Shape, GraphError> {
        let one = |inputs: &[Shape]| -> Result<Shape, GraphError> {
            inputs.first().copied().ok_or(GraphError::ArityMismatch {
                op: self.name(),
                expected: 1,
                actual: 0,
            })
        };
        match *self {
            OpSpec::Conv2d { out_ch, kernel, stride, pad } => {
                let i = one(inputs)?;
                let (h, w) = conv_out(i.h, i.w, kernel, stride, pad, self.name())?;
                Ok(Shape::new(i.n, h, w, out_ch))
            }
            OpSpec::DepthwiseConv2d { kernel, stride, pad } => {
                let i = one(inputs)?;
                let (h, w) = conv_out(i.h, i.w, kernel, stride, pad, self.name())?;
                Ok(Shape::new(i.n, h, w, i.c))
            }
            OpSpec::Dense { out } => {
                let i = one(inputs)?;
                Ok(Shape::new(i.n, 1, 1, out))
            }
            OpSpec::MaxPool { kernel, stride } | OpSpec::AvgPool { kernel, stride } => {
                let i = one(inputs)?;
                let (h, w) = conv_out(i.h, i.w, kernel, stride, 0, self.name())?;
                Ok(Shape::new(i.n, h, w, i.c))
            }
            OpSpec::GlobalAvgPool => {
                let i = one(inputs)?;
                Ok(Shape::new(i.n, 1, 1, i.c))
            }
            OpSpec::Relu | OpSpec::Relu6 => one(inputs),
            OpSpec::Add => {
                if inputs.len() != 2 {
                    return Err(GraphError::ArityMismatch {
                        op: "add",
                        expected: 2,
                        actual: inputs.len(),
                    });
                }
                if inputs[0] != inputs[1] {
                    return Err(GraphError::ShapeConflict {
                        op: "add",
                        left: inputs[0],
                        right: inputs[1],
                    });
                }
                Ok(inputs[0])
            }
            OpSpec::Concat => {
                let first = one(inputs)?;
                let mut c = 0;
                for s in inputs {
                    if (s.n, s.h, s.w) != (first.n, first.h, first.w) {
                        return Err(GraphError::ShapeConflict {
                            op: "concat",
                            left: first,
                            right: *s,
                        });
                    }
                    c += s.c;
                }
                Ok(Shape::new(first.n, first.h, first.w, c))
            }
        }
    }
}

fn conv_out(
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    op: &'static str,
) -> Result<(usize, usize), GraphError> {
    if kernel == 0 || stride == 0 {
        return Err(GraphError::InvalidHyperparameter {
            op,
            detail: "kernel and stride must be positive",
        });
    }
    let oh = (h + 2 * pad).checked_sub(kernel).map(|v| v / stride + 1);
    let ow = (w + 2 * pad).checked_sub(kernel).map(|v| v / stride + 1);
    match (oh, ow) {
        (Some(oh), Some(ow)) if oh > 0 && ow > 0 => Ok((oh, ow)),
        _ => {
            Err(GraphError::InvalidHyperparameter { op, detail: "kernel larger than padded input" })
        }
    }
}

impl fmt::Display for OpSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OpSpec::Conv2d { out_ch, kernel, stride, pad } => {
                write!(f, "conv2d({out_ch}, k{kernel}, s{stride}, p{pad})")
            }
            OpSpec::DepthwiseConv2d { kernel, stride, pad } => {
                write!(f, "dwconv(k{kernel}, s{stride}, p{pad})")
            }
            OpSpec::Dense { out } => write!(f, "dense({out})"),
            OpSpec::MaxPool { kernel, stride } => write!(f, "maxpool(k{kernel}, s{stride})"),
            OpSpec::AvgPool { kernel, stride } => write!(f, "avgpool(k{kernel}, s{stride})"),
            _ => f.write_str(self.name()),
        }
    }
}

/// One node of a [`GraphSpec`]: an operator plus where it reads from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// The operator.
    pub op: OpSpec,
    /// Input sources, in operator order.
    pub inputs: Vec<Source>,
}

/// A validated, shape-inferred network specification.
///
/// Nodes are stored in topological (execution) order; every node may only
/// read from the graph input or from strictly earlier nodes. The last node's
/// output is the graph output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    input_shape: Shape,
    nodes: Vec<NodeSpec>,
    /// Output shape of each node, parallel to `nodes`.
    shapes: Vec<Shape>,
}

impl GraphSpec {
    /// Validates a node list against an input shape and infers all shapes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] when a node references a later/undefined node,
    /// an arity is wrong, or shape inference fails.
    pub fn new(input_shape: Shape, nodes: Vec<NodeSpec>) -> Result<Self, GraphError> {
        let mut shapes = Vec::with_capacity(nodes.len());
        for (idx, node) in nodes.iter().enumerate() {
            let arity = node.op.arity();
            if arity != usize::MAX && node.inputs.len() != arity {
                return Err(GraphError::ArityMismatch {
                    op: node.op.name(),
                    expected: arity,
                    actual: node.inputs.len(),
                });
            }
            if node.inputs.is_empty() {
                return Err(GraphError::ArityMismatch {
                    op: node.op.name(),
                    expected: 1,
                    actual: 0,
                });
            }
            let mut in_shapes = Vec::with_capacity(node.inputs.len());
            for src in &node.inputs {
                match *src {
                    Source::Input => in_shapes.push(input_shape),
                    Source::Node(i) => {
                        if i >= idx {
                            return Err(GraphError::ForwardReference { node: idx, target: i });
                        }
                        in_shapes.push(shapes[i]);
                    }
                }
            }
            shapes.push(node.op.output_shape(&in_shapes)?);
        }
        Ok(GraphSpec { input_shape, nodes, shapes })
    }

    /// The graph's input shape.
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// The nodes in execution order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Output shape of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn node_shape(&self, i: usize) -> Shape {
        self.shapes[i]
    }

    /// Shape of a feature map (input or node output).
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn feature_map_shape(&self, id: FeatureMapId) -> Shape {
        match id.node() {
            None => self.input_shape,
            Some(i) => self.shapes[i],
        }
    }

    /// The graph's output shape (input shape for an empty graph).
    pub fn output_shape(&self) -> Shape {
        self.shapes.last().copied().unwrap_or(self.input_shape)
    }

    /// Total number of feature maps (`len() + 1`).
    pub fn feature_map_count(&self) -> usize {
        self.nodes.len() + 1
    }

    /// Iterates over all feature map ids.
    pub fn feature_map_ids(&self) -> impl Iterator<Item = FeatureMapId> {
        (0..self.feature_map_count()).map(FeatureMapId)
    }

    /// For each node, the input shapes it consumes.
    pub fn input_shapes_of(&self, i: usize) -> Vec<Shape> {
        self.nodes[i].inputs.iter().map(|src| self.feature_map_shape(src.feature_map())).collect()
    }

    /// Node indices that read feature map `id` (consumers).
    pub fn consumers_of(&self, id: FeatureMapId) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.iter().any(|s| s.feature_map() == id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Splits the graph at node boundary `at`: the *head* spec contains
    /// nodes `0..at`, the *tail* spec contains nodes `at..`, re-based so the
    /// tail's input is the head's output.
    ///
    /// Used by patch-based inference: the head is the per-patch stage, the
    /// tail runs layer-by-layer after patch outputs are stitched together.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SplitCrossesSkip`] when a node in the tail reads
    /// a feature map other than the head output or earlier tail maps (i.e. a
    /// residual edge crosses the split), and
    /// [`GraphError::ForwardReference`] never occurs for validated specs.
    pub fn split_at(&self, at: usize) -> Result<(GraphSpec, GraphSpec), GraphError> {
        assert!(at <= self.len(), "split point {at} beyond graph length {}", self.len());
        let head = GraphSpec::new(self.input_shape, self.nodes[..at].to_vec())?;
        let boundary = FeatureMapId(at); // head output feature map
        let mut tail_nodes = Vec::with_capacity(self.len() - at);
        for (off, node) in self.nodes[at..].iter().enumerate() {
            let idx = at + off;
            let mut inputs = Vec::with_capacity(node.inputs.len());
            for src in &node.inputs {
                let fm = src.feature_map();
                if fm == boundary {
                    inputs.push(Source::Input);
                } else if fm.0 > at {
                    inputs.push(Source::Node(fm.0 - at - 1));
                } else {
                    return Err(GraphError::SplitCrossesSkip { at, node: idx });
                }
            }
            tail_nodes.push(NodeSpec { op: node.op, inputs });
        }
        let tail = GraphSpec::new(head.output_shape(), tail_nodes)?;
        Ok((head, tail))
    }

    /// `true` when the boundary `at` is a valid per-patch stage cut: every
    /// node in the head is a *spatial* operator (residual adds and concats
    /// included; dense and global pooling excluded), and no tail node
    /// reads a head feature map other than the boundary (no skip edge
    /// crosses the cut).
    ///
    /// Patch-based inference requires the per-patch stage to be
    /// re-runnable on crops; spatial DAGs satisfy that via receptive-field
    /// demand propagation (see `quantmcu_nn::receptive`).
    pub fn splittable_at(&self, at: usize) -> bool {
        if at > self.len() {
            return false;
        }
        // Head nodes must be spatial: their output regions map to input
        // regions. Dense / global pooling collapse space and cannot sit
        // inside a per-patch stage.
        for node in &self.nodes[..at] {
            if matches!(node.op, OpSpec::Dense { .. } | OpSpec::GlobalAvgPool) {
                return false;
            }
        }
        // No tail node reaches into the head except at the boundary.
        for node in &self.nodes[at..] {
            for src in &node.inputs {
                if src.feature_map().0 < at {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(input: Shape, ops: &[OpSpec]) -> GraphSpec {
        let nodes = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| NodeSpec {
                op,
                inputs: vec![if i == 0 { Source::Input } else { Source::Node(i - 1) }],
            })
            .collect();
        GraphSpec::new(input, nodes).unwrap()
    }

    #[test]
    fn opcode_table_round_trips_every_operator() {
        let ops = [
            OpSpec::Conv2d { out_ch: 7, kernel: 3, stride: 2, pad: 1 },
            OpSpec::DepthwiseConv2d { kernel: 5, stride: 1, pad: 2 },
            OpSpec::Dense { out: 10 },
            OpSpec::MaxPool { kernel: 2, stride: 2 },
            OpSpec::AvgPool { kernel: 3, stride: 1 },
            OpSpec::GlobalAvgPool,
            OpSpec::Relu,
            OpSpec::Relu6,
            OpSpec::Add,
            OpSpec::Concat,
        ];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(usize::from(op.opcode()), i + 1, "{op}: codes follow declaration order");
            assert_eq!(OpSpec::from_code(op.opcode(), &op.attrs()), Some(*op));
        }
        assert_eq!((OpSpec::attr_count(0), OpSpec::from_code(11, &[])), (0, None));
    }

    #[test]
    fn conv_shape_inference() {
        let g = chain(
            Shape::hwc(8, 8, 3),
            &[OpSpec::Conv2d { out_ch: 16, kernel: 3, stride: 2, pad: 1 }],
        );
        assert_eq!(g.output_shape(), Shape::hwc(4, 4, 16));
    }

    #[test]
    fn pool_and_dense_shapes() {
        let g = chain(
            Shape::hwc(8, 8, 4),
            &[
                OpSpec::MaxPool { kernel: 2, stride: 2 },
                OpSpec::GlobalAvgPool,
                OpSpec::Dense { out: 10 },
            ],
        );
        assert_eq!(g.node_shape(0), Shape::hwc(4, 4, 4));
        assert_eq!(g.node_shape(1), Shape::hwc(1, 1, 4));
        assert_eq!(g.output_shape(), Shape::hwc(1, 1, 10));
    }

    #[test]
    fn add_requires_matching_shapes() {
        let nodes = vec![
            NodeSpec {
                op: OpSpec::Conv2d { out_ch: 4, kernel: 1, stride: 1, pad: 0 },
                inputs: vec![Source::Input],
            },
            NodeSpec { op: OpSpec::Add, inputs: vec![Source::Node(0), Source::Input] },
        ];
        // Input has 3 channels, conv output 4 → mismatch.
        assert!(matches!(
            GraphSpec::new(Shape::hwc(4, 4, 3), nodes),
            Err(GraphError::ShapeConflict { .. })
        ));
    }

    #[test]
    fn residual_add_works_when_shapes_match() {
        let nodes = vec![
            NodeSpec {
                op: OpSpec::Conv2d { out_ch: 3, kernel: 3, stride: 1, pad: 1 },
                inputs: vec![Source::Input],
            },
            NodeSpec { op: OpSpec::Add, inputs: vec![Source::Node(0), Source::Input] },
        ];
        let g = GraphSpec::new(Shape::hwc(4, 4, 3), nodes).unwrap();
        assert_eq!(g.output_shape(), Shape::hwc(4, 4, 3));
    }

    #[test]
    fn concat_sums_channels() {
        let nodes = vec![
            NodeSpec {
                op: OpSpec::Conv2d { out_ch: 4, kernel: 1, stride: 1, pad: 0 },
                inputs: vec![Source::Input],
            },
            NodeSpec {
                op: OpSpec::Conv2d { out_ch: 6, kernel: 3, stride: 1, pad: 1 },
                inputs: vec![Source::Input],
            },
            NodeSpec { op: OpSpec::Concat, inputs: vec![Source::Node(0), Source::Node(1)] },
        ];
        let g = GraphSpec::new(Shape::hwc(4, 4, 3), nodes).unwrap();
        assert_eq!(g.output_shape(), Shape::hwc(4, 4, 10));
    }

    #[test]
    fn forward_reference_rejected() {
        let nodes = vec![NodeSpec { op: OpSpec::Relu, inputs: vec![Source::Node(0)] }];
        assert!(matches!(
            GraphSpec::new(Shape::hwc(2, 2, 1), nodes),
            Err(GraphError::ForwardReference { .. })
        ));
    }

    #[test]
    fn kernel_too_large_rejected() {
        let nodes = vec![NodeSpec {
            op: OpSpec::Conv2d { out_ch: 1, kernel: 5, stride: 1, pad: 0 },
            inputs: vec![Source::Input],
        }];
        assert!(GraphSpec::new(Shape::hwc(3, 3, 1), nodes).is_err());
    }

    #[test]
    fn feature_map_ids_cover_input_and_nodes() {
        let g = chain(Shape::hwc(4, 4, 1), &[OpSpec::Relu, OpSpec::Relu6]);
        let ids: Vec<_> = g.feature_map_ids().collect();
        assert_eq!(ids.len(), 3);
        assert_eq!(g.feature_map_shape(FeatureMapId::INPUT), Shape::hwc(4, 4, 1));
        assert_eq!(g.feature_map_shape(FeatureMapId(2)), g.output_shape());
    }

    #[test]
    fn consumers_track_residual_edges() {
        let nodes = vec![
            NodeSpec {
                op: OpSpec::Conv2d { out_ch: 3, kernel: 3, stride: 1, pad: 1 },
                inputs: vec![Source::Input],
            },
            NodeSpec { op: OpSpec::Add, inputs: vec![Source::Node(0), Source::Input] },
        ];
        let g = GraphSpec::new(Shape::hwc(4, 4, 3), nodes).unwrap();
        assert_eq!(g.consumers_of(FeatureMapId::INPUT), vec![0, 1]);
        assert_eq!(g.consumers_of(FeatureMapId::of_node(0)), vec![1]);
    }

    #[test]
    fn split_rebases_tail() {
        let g = chain(
            Shape::hwc(8, 8, 3),
            &[
                OpSpec::Conv2d { out_ch: 8, kernel: 3, stride: 2, pad: 1 },
                OpSpec::Relu6,
                OpSpec::Conv2d { out_ch: 16, kernel: 3, stride: 2, pad: 1 },
            ],
        );
        let (head, tail) = g.split_at(2).unwrap();
        assert_eq!(head.len(), 2);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.input_shape(), head.output_shape());
        assert_eq!(tail.output_shape(), g.output_shape());
    }

    #[test]
    fn split_across_residual_fails() {
        let nodes = vec![
            NodeSpec {
                op: OpSpec::Conv2d { out_ch: 3, kernel: 3, stride: 1, pad: 1 },
                inputs: vec![Source::Input],
            },
            NodeSpec { op: OpSpec::Add, inputs: vec![Source::Node(0), Source::Input] },
        ];
        let g = GraphSpec::new(Shape::hwc(4, 4, 3), nodes).unwrap();
        assert!(g.split_at(1).is_err());
        assert!(!g.splittable_at(1));
        assert!(g.splittable_at(0));
    }
}
