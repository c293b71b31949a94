//! Multi-pass static analysis over the graph IR.
//!
//! The analyzer runs *before* compilation and planning and is the gate a
//! model importer lowers through. It makes four passes:
//!
//! 1. **Structural verification** — dangling node references, dependency
//!    cycles, duplicate ids, wrong arity, and unreachable (dead) nodes.
//! 2. **Shape inference** — one typing pass that computes every
//!    intermediate tensor shape (the single source of truth the executors
//!    trust) and reports mismatches naming *both* offending nodes.
//! 3. **Quantized-range / overflow analysis** — statically bounds each
//!    deployed `i32` accumulator from the kernel fan-in and the candidate
//!    activation/weight bitwidths, so the integer kernels never need a
//!    runtime overflow check.
//! 4. **SRAM feasibility** — bounds the peak activation memory from the
//!    liveness schedule (and the best patch split) and checks it against
//!    the device budget before any calibration work runs.
//!
//! Results come back as a [`Report`] of structured [`Diagnostic`]s. Two
//! input forms are supported: a *raw* graph ([`RawGraph`]) with explicit
//! node ids — the form a deserializer produces, where structural defects
//! are representable — and a validated [`GraphSpec`] via
//! [`analyze_spec`], which [`RawGraph::from_spec`] bridges.
//!
//! Diagnostic codes are stable strings (grep-able, CI-pinnable):
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `S001` | error | reference to an undefined node |
//! | `S002` | error | dependency cycle |
//! | `S003` | error | duplicate node id |
//! | `S004` | error | wrong operator arity |
//! | `D001` | warning | node unreachable from the graph output |
//! | `T001` | error | shape mismatch between producers |
//! | `T002` | error | hyperparameter invalid for the input shape |
//! | `Q001` | error | `i32` accumulator can overflow |
//! | `M001` | error | SRAM budget infeasible even with patching |
//! | `M002` | info | layer-at-a-time infeasible; patching required |

use std::fmt;

use quantmcu_tensor::{Bitwidth, Shape};

use crate::error::GraphError;
use crate::spec::{FeatureMapId, GraphSpec, NodeSpec, OpSpec, Source};

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Purely informational (e.g. "patching will be required").
    Info,
    /// Suspicious but not fatal (e.g. a dead node).
    Warning,
    /// The graph must not be compiled or planned.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifier of a diagnostic class (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// `S001`: a node input references an id no node defines.
    DanglingReference,
    /// `S002`: the dependency graph contains a cycle.
    Cycle,
    /// `S003`: two nodes declare the same id.
    DuplicateId,
    /// `S004`: an operator has the wrong number of inputs.
    BadArity,
    /// `D001`: a node cannot reach the graph output (dead code).
    DeadNode,
    /// `T001`: a join operator received incompatible input shapes.
    ShapeMismatch,
    /// `T002`: an operator hyperparameter is invalid for its input shape.
    BadHyperparameter,
    /// `Q001`: a deployed `i32` accumulator can overflow at the analyzed
    /// bitwidths.
    AccumulatorOverflow,
    /// `M001`: peak activation memory exceeds the SRAM budget even under
    /// the most aggressive quantization and the best patch split.
    InfeasibleSram,
    /// `M002`: layer-at-a-time execution exceeds the budget but a patch
    /// split can fit — the planner must patch.
    PatchingRequired,
}

impl Code {
    /// The stable string code (`"S002"`, `"M001"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DanglingReference => "S001",
            Code::Cycle => "S002",
            Code::DuplicateId => "S003",
            Code::BadArity => "S004",
            Code::DeadNode => "D001",
            Code::ShapeMismatch => "T001",
            Code::BadHyperparameter => "T002",
            Code::AccumulatorOverflow => "Q001",
            Code::InfeasibleSram => "M001",
            Code::PatchingRequired => "M002",
        }
    }

    /// The severity this class is reported at.
    pub fn severity(self) -> Severity {
        match self {
            Code::DeadNode => Severity::Warning,
            Code::PatchingRequired => Severity::Info,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The diagnostic class.
    pub code: Code,
    /// Severity (defaults to [`Code::severity`]).
    pub severity: Severity,
    /// The primary node the finding is anchored at, when there is one.
    pub node: Option<usize>,
    /// Other nodes involved (e.g. the second producer of a shape clash).
    pub related: Vec<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic at `code`'s default severity.
    pub fn new(code: Code, node: Option<usize>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            node,
            related: Vec::new(),
            message: message.into(),
        }
    }

    /// Attaches related node ids.
    #[must_use]
    pub fn with_related(mut self, related: Vec<usize>) -> Self {
        self.related = related;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(n) = self.node {
            write!(f, " node {n}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The result of an analysis run: every diagnostic, in pass order.
///
/// A report with no `Error`-severity entries is *clean* — the graph may be
/// compiled and planned. `Report` implements [`std::error::Error`] so it
/// can ride inside `GraphError::Analysis` / `quantmcu::Error::Analysis`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// All diagnostics, in the order the passes emitted them.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Iterates over the `Error`-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// `true` when any diagnostic is an error (strict mode must reject).
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Number of diagnostics of any severity.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// `true` when no diagnostics at all were produced.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when a diagnostic with `code` is present.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Merges another report's diagnostics into this one.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return f.write_str("no diagnostics");
        }
        let errors = self.errors().count();
        writeln!(f, "{} diagnostic(s), {} error(s):", self.diagnostics.len(), errors)?;
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Report {}

// ---------------------------------------------------------------------------
// Raw (pre-validation) graph form
// ---------------------------------------------------------------------------

/// Where a [`RawNode`] reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RawInput {
    /// The graph's input image.
    Image,
    /// The output of the node with this id.
    Node(usize),
}

impl From<Source> for RawInput {
    /// A validated source, with node indices as ids.
    fn from(s: Source) -> Self {
        match s {
            Source::Input => RawInput::Image,
            Source::Node(j) => RawInput::Node(j),
        }
    }
}

/// One node of a [`RawGraph`], identified by an explicit id.
///
/// Unlike [`NodeSpec`], ids are arbitrary and declaration order carries no
/// meaning — exactly what a serialized model yields before validation.
#[derive(Debug, Clone, PartialEq)]
pub struct RawNode {
    /// The node's id (referenced by [`RawInput::Node`]).
    pub id: usize,
    /// The operator.
    pub op: OpSpec,
    /// Input sources, in operator order.
    pub inputs: Vec<RawInput>,
}

/// An unvalidated graph: the analyzer's native input form.
///
/// Every structural defect — dangling references, cycles, duplicate ids —
/// is representable here, unlike in [`GraphSpec`] whose constructor already
/// enforces a topological order. [`RawGraph::from_spec`] bridges validated
/// graphs into this form; a future model importer produces it directly.
#[derive(Debug, Clone, PartialEq)]
pub struct RawGraph {
    /// Shape of the input image.
    pub input_shape: Shape,
    /// The nodes, in declaration (not necessarily execution) order.
    pub nodes: Vec<RawNode>,
    /// Id of the output node; `None` selects the last declared node.
    pub output: Option<usize>,
}

impl RawGraph {
    /// Re-expresses a validated spec in raw form (ids = node indices).
    pub fn from_spec(spec: &GraphSpec) -> Self {
        let nodes = spec
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| RawNode {
                id: i,
                op: n.op,
                inputs: n.inputs.iter().map(|&s| s.into()).collect(),
            })
            .collect();
        RawGraph { input_shape: spec.input_shape(), nodes, output: None }
    }

    /// Lowers a structurally clean raw graph into a validated
    /// [`GraphSpec`]: topologically sorts the nodes, renumbers ids to
    /// execution indices, and runs the spec's own validation.
    ///
    /// # Errors
    ///
    /// Returns the analysis [`Report`] when the graph has structural or
    /// shape errors (the same report [`analyze_raw`] would produce).
    pub fn lower(&self) -> Result<GraphSpec, Report> {
        self.lower_with_order().map(|(spec, _)| spec)
    }

    /// Like [`RawGraph::lower`], but also returns the execution-order
    /// permutation: `order[p]` is the raw declaration index of the node
    /// placed at execution position `p`.
    ///
    /// Importers use the permutation to reorder per-node payloads (weights,
    /// biases) that were recorded in declaration order.
    ///
    /// # Errors
    ///
    /// Same contract as [`RawGraph::lower`].
    pub fn lower_with_order(&self) -> Result<(GraphSpec, Vec<usize>), Report> {
        let mut report = Report::new();
        let structure = check_structure(self, &mut report);
        let _ = infer_shapes_inner(self, structure.as_ref(), &mut report);
        if report.has_errors() {
            return Err(report);
        }
        let structure = structure.expect("clean report implies resolvable structure");
        // Renumber: raw index -> execution position.
        let mut pos = vec![usize::MAX; self.nodes.len()];
        for (p, &idx) in structure.order.iter().enumerate() {
            pos[idx] = p;
        }
        let nodes = structure
            .order
            .iter()
            .map(|&idx| {
                let n = &self.nodes[idx];
                NodeSpec {
                    op: n.op,
                    inputs: n
                        .inputs
                        .iter()
                        .map(|&inp| match inp {
                            RawInput::Image => Source::Input,
                            RawInput::Node(id) => Source::Node(pos[structure.id_to_idx(id)]),
                        })
                        .collect(),
                }
            })
            .collect();
        let spec = GraphSpec::new(self.input_shape, nodes).map_err(|e| {
            let mut r = Report::new();
            r.push(Diagnostic::new(Code::BadHyperparameter, None, e.to_string()));
            r
        })?;
        Ok((spec, structure.order))
    }
}

// ---------------------------------------------------------------------------
// Pass 1: structural verification
// ---------------------------------------------------------------------------

/// Resolved structure of a raw graph, produced by the structural pass.
struct Structure {
    /// Raw node indices in a valid execution order (nodes on cycles are
    /// absent).
    order: Vec<usize>,
    /// id -> first defining raw index, sorted by id for binary search.
    ids: Vec<(usize, usize)>,
}

impl Structure {
    fn id_to_idx(&self, id: usize) -> usize {
        let at = self.ids.binary_search_by_key(&id, |&(i, _)| i).expect("resolved id");
        self.ids[at].1
    }
}

/// Structural verification: duplicate ids (`S003`), dangling references
/// (`S001`), arity (`S004`), cycles (`S002`), dead nodes (`D001`).
///
/// Returns `None` when the structure is too broken for later passes
/// (duplicate ids or cycles).
fn check_structure(raw: &RawGraph, report: &mut Report) -> Option<Structure> {
    let n = raw.nodes.len();
    // Duplicate ids; keep the first definition for resolution.
    let mut ids: Vec<(usize, usize)> = Vec::with_capacity(n);
    for (idx, node) in raw.nodes.iter().enumerate() {
        match ids.binary_search_by_key(&node.id, |&(i, _)| i) {
            Ok(at) => {
                let first = ids[at].1;
                report.push(
                    Diagnostic::new(
                        Code::DuplicateId,
                        Some(node.id),
                        format!(
                            "node id {} is defined more than once (positions {first} and {idx})",
                            node.id
                        ),
                    )
                    .with_related(vec![first]),
                );
            }
            Err(at) => ids.insert(at, (node.id, idx)),
        }
    }
    let resolve = |id: usize| ids.binary_search_by_key(&id, |&(i, _)| i).ok().map(|at| ids[at].1);

    // Arity and dangling references.
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, node) in raw.nodes.iter().enumerate() {
        let arity = node.op.arity();
        if node.inputs.is_empty() || (arity != usize::MAX && node.inputs.len() != arity) {
            let expected = if arity == usize::MAX { 1 } else { arity };
            report.push(Diagnostic::new(
                Code::BadArity,
                Some(node.id),
                format!(
                    "operator {} expects {expected}{} input(s), got {}",
                    node.op.name(),
                    if arity == usize::MAX { "+" } else { "" },
                    node.inputs.len()
                ),
            ));
        }
        for &inp in &node.inputs {
            if let RawInput::Node(target) = inp {
                match resolve(target) {
                    Some(t) => deps[idx].push(t),
                    None => report.push(
                        Diagnostic::new(
                            Code::DanglingReference,
                            Some(node.id),
                            format!("node {} reads undefined node {target}", node.id),
                        )
                        .with_related(vec![target]),
                    ),
                }
            }
        }
    }

    // Cycle detection: iterative DFS over the dependency edges.
    let mut color = vec![0u8; n]; // 0 white, 1 on stack, 2 done
    let mut in_cycle = vec![false; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&(u, ci)) = stack.last() {
            if ci < deps[u].len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let v = deps[u][ci];
                match color[v] {
                    0 => {
                        color[v] = 1;
                        stack.push((v, 0));
                    }
                    1 => {
                        // Back edge: the cycle is the stack suffix from v.
                        let pos = stack
                            .iter()
                            .position(|&(x, _)| x == v)
                            .expect("gray nodes are on the stack");
                        let members: Vec<usize> =
                            stack[pos..].iter().map(|&(x, _)| raw.nodes[x].id).collect();
                        for &(x, _) in &stack[pos..] {
                            in_cycle[x] = true;
                        }
                        let path =
                            members.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(" -> ");
                        report.push(
                            Diagnostic::new(
                                Code::Cycle,
                                Some(raw.nodes[v].id),
                                format!("dependency cycle: {path} -> {}", raw.nodes[v].id),
                            )
                            .with_related(members),
                        );
                    }
                    _ => {}
                }
            } else {
                color[u] = 2;
                stack.pop();
            }
        }
    }

    // Dead nodes: backward reachability from the output.
    let output_idx = match raw.output {
        Some(id) => match resolve(id) {
            Some(idx) => Some(idx),
            None => {
                report.push(Diagnostic::new(
                    Code::DanglingReference,
                    None,
                    format!("graph output references undefined node {id}"),
                ));
                None
            }
        },
        None => n.checked_sub(1),
    };
    if let Some(out) = output_idx {
        let mut live = vec![false; n];
        let mut queue = vec![out];
        live[out] = true;
        while let Some(u) = queue.pop() {
            for &v in &deps[u] {
                if !live[v] {
                    live[v] = true;
                    queue.push(v);
                }
            }
        }
        for (idx, node) in raw.nodes.iter().enumerate() {
            if !live[idx] {
                report.push(Diagnostic::new(
                    Code::DeadNode,
                    Some(node.id),
                    format!(
                        "node {} ({}) does not reach the graph output (dead code)",
                        node.id,
                        node.op.name()
                    ),
                ));
            }
        }
    }

    if report.has_code(Code::DuplicateId) || report.has_code(Code::Cycle) {
        return None;
    }
    // Kahn topological order (cycle-free here by construction). The
    // ready set is a min-heap on declaration index, making the order
    // *stable*: a graph whose declaration order is already topological
    // sorts to the identity permutation, so lowering — and hence the
    // import round trip — preserves the declared node order bit-exactly.
    let mut indeg = vec![0usize; n];
    let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, ds) in deps.iter().enumerate() {
        indeg[u] = ds.len();
        for &v in ds {
            rdeps[v].push(u);
        }
    }
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
        (0..n).filter(|&u| indeg[u] == 0).map(std::cmp::Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(v)) = ready.pop() {
        order.push(v);
        for &u in &rdeps[v] {
            indeg[u] -= 1;
            if indeg[u] == 0 {
                ready.push(std::cmp::Reverse(u));
            }
        }
    }
    Some(Structure { order, ids })
}

// ---------------------------------------------------------------------------
// Pass 2: shape inference
// ---------------------------------------------------------------------------

/// The shapes the analyzer proved: one entry per raw node (by declaration
/// index), `None` where inference could not complete.
///
/// For graphs built via [`RawGraph::from_spec`], node indices coincide
/// with execution order, so [`ShapeTable::feature_map`] mirrors
/// [`GraphSpec::feature_map_shape`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeTable {
    input: Shape,
    shapes: Vec<Option<Shape>>,
}

impl ShapeTable {
    /// The graph input shape.
    pub fn input(&self) -> Shape {
        self.input
    }

    /// The inferred output shape of node `idx` (declaration index).
    pub fn node(&self, idx: usize) -> Option<Shape> {
        self.shapes.get(idx).copied().flatten()
    }

    /// The shape of a feature map in [`FeatureMapId`] numbering (valid
    /// when declaration order is execution order, e.g. via `from_spec`).
    pub fn feature_map(&self, id: FeatureMapId) -> Option<Shape> {
        match id.node() {
            None => Some(self.input),
            Some(i) => self.node(i),
        }
    }

    /// `true` when every node has an inferred shape.
    pub fn is_complete(&self) -> bool {
        self.shapes.iter().all(Option::is_some)
    }
}

/// Runs the structural and shape passes, returning the proved shapes and
/// every diagnostic found so far.
pub fn infer_shapes(raw: &RawGraph) -> (ShapeTable, Report) {
    let mut report = Report::new();
    let structure = check_structure(raw, &mut report);
    let table = infer_shapes_inner(raw, structure.as_ref(), &mut report);
    (table, report)
}

fn infer_shapes_inner(
    raw: &RawGraph,
    structure: Option<&Structure>,
    report: &mut Report,
) -> ShapeTable {
    let mut shapes: Vec<Option<Shape>> = vec![None; raw.nodes.len()];
    let Some(structure) = structure else {
        return ShapeTable { input: raw.input_shape, shapes };
    };
    for &idx in &structure.order {
        let node = &raw.nodes[idx];
        // Gather input shapes; a missing one (dangling ref or an upstream
        // failure) silently skips this node — the root cause is already
        // reported, cascading diagnostics would only add noise.
        let mut in_shapes = Vec::with_capacity(node.inputs.len());
        let mut in_ids = Vec::with_capacity(node.inputs.len());
        let mut complete = true;
        for &inp in &node.inputs {
            match inp {
                RawInput::Image => {
                    in_shapes.push(raw.input_shape);
                    in_ids.push(None);
                }
                RawInput::Node(id) => {
                    let Some(shape) = structure
                        .ids
                        .binary_search_by_key(&id, |&(i, _)| i)
                        .ok()
                        .and_then(|at| shapes[structure.ids[at].1])
                    else {
                        complete = false;
                        break;
                    };
                    in_shapes.push(shape);
                    in_ids.push(Some(id));
                }
            }
        }
        if !complete {
            continue;
        }
        match node.op.output_shape(&in_shapes) {
            Ok(shape) => shapes[idx] = Some(shape),
            Err(GraphError::ShapeConflict { op, left, right }) => {
                // Name both producers: the first input and the first input
                // whose shape actually clashes.
                let clash =
                    in_shapes.iter().position(|&s| s == right).unwrap_or(in_shapes.len() - 1);
                let name = |i: usize| match in_ids[i] {
                    Some(id) => format!("node {id}"),
                    None => "the graph input".to_string(),
                };
                let related: Vec<usize> =
                    [in_ids[0], in_ids[clash]].iter().flatten().copied().collect();
                report.push(
                    Diagnostic::new(
                        Code::ShapeMismatch,
                        Some(node.id),
                        format!(
                            "{op} cannot join {left} (from {}) with {right} (from {})",
                            name(0),
                            name(clash)
                        ),
                    )
                    .with_related(related),
                );
            }
            Err(GraphError::InvalidHyperparameter { op, detail }) => {
                report.push(Diagnostic::new(
                    Code::BadHyperparameter,
                    Some(node.id),
                    format!("{op}: {detail} (input {})", in_shapes[0]),
                ));
            }
            Err(other) => {
                report.push(Diagnostic::new(
                    Code::BadHyperparameter,
                    Some(node.id),
                    other.to_string(),
                ));
            }
        }
    }
    ShapeTable { input: raw.input_shape, shapes }
}

// ---------------------------------------------------------------------------
// Pass 3: quantized-range / overflow analysis
// ---------------------------------------------------------------------------

/// Largest worst-case accumulator magnitude the analyzer accepts: half the
/// `i32` range, the other half being headroom for the (statically unknown)
/// quantized bias term that enters the accumulator before requantization.
pub const ACC_LIMIT: u128 = (i32::MAX / 2) as u128;

/// Worst-case `|accumulator|` bound of a weighted node: MAC fan-in times
/// the largest per-MAC product at the given bitwidths. `None` for
/// weight-free operators.
///
/// The bound models the *deployment* kernels (CMix-NN-style `i32`
/// accumulators); the simulator's own `i64` accumulation is exact, so a
/// graph passing this check behaves identically on device and in
/// simulation.
pub fn accumulator_bound(
    op: OpSpec,
    in_shape: Shape,
    act: Bitwidth,
    weights: Bitwidth,
) -> Option<(u128, usize)> {
    let fan_in = match op {
        OpSpec::Conv2d { kernel, .. } => kernel * kernel * in_shape.c,
        OpSpec::DepthwiseConv2d { kernel, .. } => kernel * kernel,
        OpSpec::Dense { .. } => in_shape.len(),
        _ => return None,
    };
    // Zero-point-corrected activations span the full level range
    // (levels - 1); weights are symmetric, so |w| <= 2^(bits-1).
    let max_act = act.levels().saturating_sub(1) as u128;
    let max_w = 1u128 << (weights.bits() - 1);
    Some((fan_in as u128 * max_act * max_w, fan_in))
}

/// Overflow pass over proved shapes: emits `Q001` for every weighted node
/// whose worst-case accumulator exceeds [`ACC_LIMIT`] at the widest
/// candidate activation/weight bitwidths.
fn check_overflow(
    raw: &RawGraph,
    structure: &Structure,
    table: &ShapeTable,
    act: Bitwidth,
    weights: Bitwidth,
    report: &mut Report,
) {
    for node in &raw.nodes {
        if !node.op.has_weights() {
            continue;
        }
        let in_shape = match node.inputs.first() {
            Some(RawInput::Image) => raw.input_shape,
            Some(&RawInput::Node(id)) => {
                match structure
                    .ids
                    .binary_search_by_key(&id, |&(i, _)| i)
                    .ok()
                    .and_then(|at| table.node(structure.ids[at].1))
                {
                    Some(s) => s,
                    None => continue, // upstream failure already reported
                }
            }
            None => continue,
        };
        if let Some(d) = overflow_diagnostic(node.id, node.op, in_shape, act, weights) {
            report.push(d);
        }
    }
}

/// The `Q001` diagnostic for one node, or `None` when its accumulator is
/// provably in range. Shared by the analyzer pass and the strict check in
/// `CompiledGraph::with_quantization`.
pub(crate) fn overflow_diagnostic(
    id: usize,
    op: OpSpec,
    in_shape: Shape,
    act: Bitwidth,
    weights: Bitwidth,
) -> Option<Diagnostic> {
    let (bound, fan_in) = accumulator_bound(op, in_shape, act, weights)?;
    if bound <= ACC_LIMIT {
        return None;
    }
    Some(Diagnostic::new(
        Code::AccumulatorOverflow,
        Some(id),
        format!(
            "{} accumulator can overflow i32: fan-in {fan_in} at {act} activations x {weights} \
             weights bounds |acc| by {bound} > {ACC_LIMIT}; reduce fan-in or narrow the widths",
            op.name()
        ),
    ))
}

// ---------------------------------------------------------------------------
// Pass 4: SRAM feasibility
// ---------------------------------------------------------------------------

/// Peak activation bytes of layer-at-a-time execution at a uniform
/// bitwidth, with the node where the peak occurs.
fn peak_profile(spec: &GraphSpec, bits: Bitwidth) -> (usize, usize) {
    if spec.is_empty() {
        return (bits.bytes_for(spec.input_shape().len()), 0);
    }
    let mut last_use = vec![0usize; spec.feature_map_count()];
    for (i, node) in spec.nodes().iter().enumerate() {
        for src in &node.inputs {
            last_use[src.feature_map().0] = i;
        }
    }
    let bytes = |fm: usize| bits.bytes_for(spec.feature_map_shape(FeatureMapId(fm)).len());
    let mut peak = 0usize;
    let mut peak_node = 0usize;
    for i in 0..spec.len() {
        let mut live = bytes(i + 1);
        for (fm, &lu) in last_use.iter().enumerate().take(i + 1) {
            if lu >= i {
                live += bytes(fm);
            }
        }
        if live > peak {
            peak = live;
            peak_node = i;
        }
    }
    (peak, peak_node)
}

/// Optimistic lower bound on the peak of a patch split at `at`: the
/// stitched stage output plus the input must coexist during the branch
/// phase, and the tail then runs layer-at-a-time — all at the narrowest
/// candidate width. Real plans can only use more, so a budget below this
/// bound is infeasible for every plan the search could emit.
fn split_lower_bound(spec: &GraphSpec, at: usize, bits: Bitwidth) -> Option<usize> {
    if at == 0 || !spec.splittable_at(at) {
        return None;
    }
    let (head, tail) = spec.split_at(at).ok()?;
    let input = bits.bytes_for(head.input_shape().len());
    let stage = bits.bytes_for(head.output_shape().len());
    let (tail_peak, _) = peak_profile(&tail, bits);
    Some((input + stage).max(tail_peak))
}

/// SRAM feasibility pass: `M001` when no execution strategy can fit the
/// budget even at the narrowest candidate bitwidth, `M002` (info) when
/// layer-at-a-time execution cannot fit but a patch split can.
fn check_sram(spec: &GraphSpec, budget_bytes: usize, narrowest: Bitwidth, report: &mut Report) {
    let (layer_peak, peak_node) = peak_profile(spec, narrowest);
    if layer_peak <= budget_bytes {
        return;
    }
    let best = (1..=spec.len())
        .filter_map(|at| split_lower_bound(spec, at, narrowest).map(|b| (b, at)))
        .min();
    let peak_op = if spec.is_empty() { "input" } else { spec.nodes()[peak_node].op.name() };
    match best {
        Some((bound, at)) if bound <= budget_bytes => {
            report.push(
                Diagnostic::new(
                    Code::PatchingRequired,
                    Some(peak_node),
                    format!(
                        "layer-at-a-time peak {layer_peak} B (at node {peak_node}, {peak_op}) \
                         exceeds the {budget_bytes} B SRAM budget at {narrowest}; patch-based \
                         execution is required (e.g. split at node {at}, bound {bound} B)"
                    ),
                )
                .with_related(vec![at]),
            );
        }
        Some((bound, at)) => {
            report.push(
                Diagnostic::new(
                    Code::InfeasibleSram,
                    Some(peak_node),
                    format!(
                        "peak activation memory {layer_peak} B (at node {peak_node}, {peak_op}) \
                         exceeds the {budget_bytes} B SRAM budget even at {narrowest}; the best \
                         patch split (node {at}) still needs at least {bound} B"
                    ),
                )
                .with_related(vec![at]),
            );
        }
        None => {
            report.push(Diagnostic::new(
                Code::InfeasibleSram,
                Some(peak_node),
                format!(
                    "peak activation memory {layer_peak} B (at node {peak_node}, {peak_op}) \
                     exceeds the {budget_bytes} B SRAM budget even at {narrowest}, and the graph \
                     has no valid patch split point"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// What the analyzer assumes about the quantized deployment.
///
/// The defaults model the paper's search space: activations and weights up
/// to 8-bit, 2-bit as the most aggressive candidate, no SRAM constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Widest activation bitwidth a plan may assign (overflow analysis is
    /// run at this worst case).
    pub act_bits: Bitwidth,
    /// The deployed weight bitwidth.
    pub weight_bits: Bitwidth,
    /// Narrowest candidate bitwidth available to the search (the SRAM
    /// bound is computed at this most-optimistic width).
    pub narrowest_bits: Bitwidth,
    /// Device SRAM budget in bytes; `None` skips the feasibility pass.
    pub sram_budget: Option<usize>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            act_bits: Bitwidth::W8,
            weight_bits: Bitwidth::W8,
            narrowest_bits: *Bitwidth::SEARCH_CANDIDATES.last().expect("nonempty"),
            sram_budget: None,
        }
    }
}

/// Runs every analysis pass over a raw graph.
pub fn analyze_raw(raw: &RawGraph, opts: &AnalyzeOptions) -> Report {
    let mut report = Report::new();
    let structure = check_structure(raw, &mut report);
    let table = infer_shapes_inner(raw, structure.as_ref(), &mut report);
    if let Some(structure) = &structure {
        check_overflow(raw, structure, &table, opts.act_bits, opts.weight_bits, &mut report);
    }
    if let Some(budget) = opts.sram_budget {
        if !report.has_errors() {
            if let Ok(spec) = raw.lower() {
                check_sram(&spec, budget, opts.narrowest_bits, &mut report);
            }
        }
    }
    report
}

/// Runs every analysis pass over a validated spec.
///
/// Structure and shapes re-derive from scratch (the analyzer is the source
/// of truth, not the spec's cached shapes); on a spec this mostly
/// contributes dead-node detection, overflow, and SRAM feasibility.
pub fn analyze_spec(spec: &GraphSpec, opts: &AnalyzeOptions) -> Report {
    let raw = RawGraph::from_spec(spec);
    let mut report = Report::new();
    let structure = check_structure(&raw, &mut report);
    let table = infer_shapes_inner(&raw, structure.as_ref(), &mut report);
    if let Some(structure) = &structure {
        check_overflow(&raw, structure, &table, opts.act_bits, opts.weight_bits, &mut report);
    }
    if let Some(budget) = opts.sram_budget {
        if !report.has_errors() {
            check_sram(spec, budget, opts.narrowest_bits, &mut report);
        }
    }
    report
}

/// Strict structural + shape verification of a spec, the gate
/// `CompiledGraph::new` runs. Quantization- and budget-dependent passes
/// are deferred to [`analyze_spec`] / the engine.
pub fn verify_spec(spec: &GraphSpec) -> Report {
    let raw = RawGraph::from_spec(spec);
    let (table, mut report) = infer_shapes(&raw);
    // Cross-check the inference against the spec's cached shapes: any
    // disagreement means executor bookkeeping drifted from the analyzer.
    for i in 0..spec.len() {
        if let Some(inferred) = table.node(i) {
            if inferred != spec.node_shape(i) {
                report.push(Diagnostic::new(
                    Code::ShapeMismatch,
                    Some(i),
                    format!(
                        "spec caches shape {} for node {i} but inference proves {inferred}",
                        spec.node_shape(i)
                    ),
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphSpecBuilder;

    fn conv(out_ch: usize) -> OpSpec {
        OpSpec::Conv2d { out_ch, kernel: 3, stride: 1, pad: 1 }
    }

    fn small_spec() -> GraphSpec {
        GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(8, 3, 1, 1)
            .relu6()
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap()
    }

    #[test]
    fn clean_spec_produces_empty_report() {
        let r = analyze_spec(&small_spec(), &AnalyzeOptions::default());
        assert!(r.is_empty(), "unexpected diagnostics: {r}");
        assert!(!r.has_errors());
    }

    #[test]
    fn dangling_reference_fires_s001() {
        let raw = RawGraph {
            input_shape: Shape::hwc(4, 4, 3),
            nodes: vec![RawNode { id: 0, op: OpSpec::Relu, inputs: vec![RawInput::Node(7)] }],
            output: None,
        };
        let r = analyze_raw(&raw, &AnalyzeOptions::default());
        assert!(r.has_code(Code::DanglingReference));
        assert!(r.has_errors());
    }

    #[test]
    fn cycle_fires_s002_with_members() {
        let raw = RawGraph {
            input_shape: Shape::hwc(4, 4, 3),
            nodes: vec![
                RawNode { id: 0, op: conv(3), inputs: vec![RawInput::Node(1)] },
                RawNode { id: 1, op: conv(3), inputs: vec![RawInput::Node(0)] },
            ],
            output: None,
        };
        let r = analyze_raw(&raw, &AnalyzeOptions::default());
        let d = r.diagnostics().iter().find(|d| d.code == Code::Cycle).expect("cycle reported");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.related.len(), 2);
    }

    #[test]
    fn duplicate_id_fires_s003() {
        let raw = RawGraph {
            input_shape: Shape::hwc(4, 4, 3),
            nodes: vec![
                RawNode { id: 0, op: conv(3), inputs: vec![RawInput::Image] },
                RawNode { id: 0, op: OpSpec::Relu, inputs: vec![RawInput::Image] },
            ],
            output: None,
        };
        let r = analyze_raw(&raw, &AnalyzeOptions::default());
        assert!(r.has_code(Code::DuplicateId));
    }

    #[test]
    fn bad_arity_fires_s004() {
        let raw = RawGraph {
            input_shape: Shape::hwc(4, 4, 3),
            nodes: vec![RawNode { id: 0, op: OpSpec::Add, inputs: vec![RawInput::Image] }],
            output: None,
        };
        let r = analyze_raw(&raw, &AnalyzeOptions::default());
        assert!(r.has_code(Code::BadArity));
    }

    #[test]
    fn dead_node_warns_d001_but_is_not_an_error() {
        let raw = RawGraph {
            input_shape: Shape::hwc(4, 4, 3),
            nodes: vec![
                RawNode { id: 0, op: conv(3), inputs: vec![RawInput::Image] },
                RawNode { id: 1, op: conv(5), inputs: vec![RawInput::Image] },
            ],
            output: Some(0),
        };
        let r = analyze_raw(&raw, &AnalyzeOptions::default());
        let d = r.diagnostics().iter().find(|d| d.code == Code::DeadNode).expect("dead node");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.node, Some(1));
        assert!(!r.has_errors());
    }

    #[test]
    fn shape_mismatch_names_both_producers() {
        let raw = RawGraph {
            input_shape: Shape::hwc(4, 4, 3),
            nodes: vec![
                RawNode { id: 10, op: conv(4), inputs: vec![RawInput::Image] },
                RawNode { id: 11, op: conv(8), inputs: vec![RawInput::Image] },
                RawNode {
                    id: 12,
                    op: OpSpec::Add,
                    inputs: vec![RawInput::Node(10), RawInput::Node(11)],
                },
            ],
            output: None,
        };
        let r = analyze_raw(&raw, &AnalyzeOptions::default());
        let d = r.diagnostics().iter().find(|d| d.code == Code::ShapeMismatch).expect("mismatch");
        assert_eq!(d.node, Some(12));
        assert_eq!(d.related, vec![10, 11]);
        assert!(d.message.contains("node 10") && d.message.contains("node 11"));
    }

    #[test]
    fn overflowable_dense_fires_q001() {
        // Fan-in 64*64*12 = 49152; at 8x8 bits each MAC contributes up to
        // 255 * 128, so the bound exceeds i32::MAX / 2.
        let spec = GraphSpecBuilder::new(Shape::hwc(64, 64, 12)).dense(10).build().unwrap();
        let r = analyze_spec(&spec, &AnalyzeOptions::default());
        let d = r.errors().next().expect("overflow error");
        assert_eq!(d.code, Code::AccumulatorOverflow);
        // Narrow activations bring the bound back in range.
        let narrow = AnalyzeOptions { act_bits: Bitwidth::W2, ..AnalyzeOptions::default() };
        assert!(analyze_spec(&spec, &narrow).is_empty());
    }

    #[test]
    fn infeasible_budget_fires_m001() {
        let spec = small_spec();
        let opts = AnalyzeOptions { sram_budget: Some(8), ..AnalyzeOptions::default() };
        let r = analyze_spec(&spec, &opts);
        assert!(r.has_code(Code::InfeasibleSram));
        let generous = AnalyzeOptions { sram_budget: Some(1 << 20), ..AnalyzeOptions::default() };
        assert!(analyze_spec(&spec, &generous).is_empty());
    }

    #[test]
    fn tight_budget_with_viable_split_suggests_patching() {
        // Fat early maps, tiny tail: layer-based cannot fit, patching can.
        let spec = GraphSpecBuilder::new(Shape::hwc(32, 32, 8))
            .conv2d(16, 3, 1, 1)
            .conv2d(16, 3, 2, 1)
            .conv2d(8, 3, 2, 1)
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap();
        let layer_peak = peak_profile(&spec, Bitwidth::W2).0;
        let bound = split_lower_bound(&spec, 3, Bitwidth::W2).expect("splittable");
        assert!(bound < layer_peak);
        let opts = AnalyzeOptions {
            sram_budget: Some((bound + layer_peak) / 2),
            ..AnalyzeOptions::default()
        };
        let r = analyze_spec(&spec, &opts);
        let d = r.diagnostics().iter().find(|d| d.code == Code::PatchingRequired).expect("M002");
        assert_eq!(d.severity, Severity::Info);
        assert!(!r.has_errors());
    }

    #[test]
    fn lower_roundtrips_out_of_order_declarations() {
        // Declared backwards: output first.
        let raw = RawGraph {
            input_shape: Shape::hwc(8, 8, 3),
            nodes: vec![
                RawNode { id: 5, op: OpSpec::Relu, inputs: vec![RawInput::Node(2)] },
                RawNode { id: 2, op: conv(4), inputs: vec![RawInput::Image] },
            ],
            output: Some(5),
        };
        let spec = raw.lower().expect("clean graph lowers");
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.output_shape(), Shape::hwc(8, 8, 4));
        assert!(matches!(spec.nodes()[0].op, OpSpec::Conv2d { .. }));
    }

    #[test]
    fn from_spec_matches_stored_shapes() {
        let spec = small_spec();
        let raw = RawGraph::from_spec(&spec);
        let (table, report) = infer_shapes(&raw);
        assert!(report.is_empty());
        assert!(table.is_complete());
        for id in spec.feature_map_ids() {
            assert_eq!(table.feature_map(id), Some(spec.feature_map_shape(id)));
        }
    }

    #[test]
    fn report_display_lists_codes() {
        let mut r = Report::new();
        r.push(Diagnostic::new(Code::Cycle, Some(3), "dependency cycle: 3 -> 3"));
        let s = r.to_string();
        assert!(s.contains("error[S002] node 3"), "got: {s}");
        assert!(Report::new().to_string().contains("no diagnostics"));
    }
}
