//! Serialized model import/export: the `.qmcu` binary format.
//!
//! A dependency-free, versioned, length-prefixed binary container for
//! [`Graph`]s — ONNX-style operator + initializer records lowered through
//! the static analyzer ([`crate::analyze`]) and the optimizer pass
//! pipeline ([`crate::opt`]) before execution. Hand-rolled because the
//! workspace is offline and carries no serde.
//!
//! # Format (version 1)
//!
//! The file is framed by the shared [`crate::codec`] header (magic
//! `"QMCU"`, [`FORMAT_VERSION`], FNV-1a 64 checksum of the body), which
//! also fixes the encoding conventions: little-endian integers, `f32`
//! payloads as IEEE-754 bit patterns (so weights round-trip bit-exactly),
//! checksum before parse, lengths checked before allocation, byte offsets
//! in every error. The body:
//!
//! | offset | field | type |
//! |--------|-------|------|
//! | 16     | input shape `n, h, w, c` | `4 × u32` |
//! | 32     | explicit-output flag + output node id | `u8`, `u32` |
//! | 37     | node count | `u32` |
//! | 41     | node records … | see below |
//!
//! Each node record:
//!
//! | field | type |
//! |-------|------|
//! | node id | `u32` |
//! | opcode | `u8` |
//! | operator attributes | `u32 × OpSpec::attr_count(opcode)` |
//! | input count | `u16` |
//! | inputs: tag (`0` = image, `1` = node) + node id | `(u8, u32)` each |
//! | weight initializer: length + values | `u32`, `u32 × len` |
//! | bias initializer: length + values | `u32`, `u32 × len` |
//!
//! Decode errors are [`ImportError::Format`]; decoding never panics.
//!
//! # Versioning rules
//!
//! The magic is fixed forever. Readers accept exactly the versions they
//! know ([`FORMAT_VERSION`]); any other version is
//! [`FormatError::UnsupportedVersion`], never a best-effort parse. New
//! opcodes or attributes require a version bump.

use std::fmt;
use std::path::Path;

use crate::analyze::Report;
use crate::codec::{FormatError, Reader, Writer};
use crate::opt::{IrNode, IrOp, LowerError, ModelIr, OptStats, PassManager};
use crate::{Graph, OpSpec};

/// The four magic bytes opening every `.qmcu` file.
pub const MAGIC: [u8; 4] = *b"QMCU";

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Opcode of the import-only [`IrOp::BiasAdd`], the one code the `.qmcu`
/// format adds to the core operator table ([`OpSpec::opcode`]).
const BIAS_ADD: u8 = 11;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a serialized model could not be imported.
///
/// Every variant carries enough context (byte offsets, ids, the analyzer
/// report) to locate the defect in the input file.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ImportError {
    /// The bytes are not a well-formed `.qmcu` stream, or the file could
    /// not be read or written.
    Format(FormatError),
    /// The decoded graph failed static analysis (structure or shapes).
    Analysis(Report),
    /// The decoded graph is analyzer-clean but not executable: an
    /// import-only operator survived optimization or an initializer has
    /// the wrong length.
    Model {
        /// Offending node id, when known.
        node: Option<usize>,
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Format(e) => e.fmt(f),
            ImportError::Analysis(report) => write!(f, "imported graph failed analysis: {report}"),
            ImportError::Model { node: Some(id), detail } => write!(f, "node {id}: {detail}"),
            ImportError::Model { node: None, detail } => f.write_str(detail),
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Analysis(report) => Some(report),
            _ => None,
        }
    }
}

impl From<FormatError> for ImportError {
    fn from(e: FormatError) -> Self {
        ImportError::Format(e)
    }
}

impl From<LowerError> for ImportError {
    fn from(e: LowerError) -> Self {
        match e {
            LowerError::Analysis(report) => ImportError::Analysis(report),
            LowerError::Unlowerable { id, .. } => {
                ImportError::Model { node: Some(id), detail: e.to_string() }
            }
            LowerError::ParamLength { id, .. } => {
                ImportError::Model { node: Some(id), detail: e.to_string() }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serializes an importer IR into `.qmcu` bytes.
pub fn encode(ir: &ModelIr) -> Vec<u8> {
    let mut w = Writer::new(MAGIC, FORMAT_VERSION);
    w.shape(ir.input_shape);
    w.u8(u8::from(ir.output.is_some()));
    w.u32(ir.output.unwrap_or(0) as u32);
    w.list(ir.nodes.iter(), |w, n| {
        w.u32(n.id as u32);
        match n.op {
            IrOp::Core(op) => w.op(op.opcode(), &op.attrs()),
            IrOp::BiasAdd => w.op(BIAS_ADD, &[]),
        }
        w.edges(n.inputs.iter().copied());
        for buf in [&n.weights, &n.bias] {
            w.list(buf.iter(), |w, &v| w.f32(v));
        }
    });
    w.finish()
}

/// Serializes an executable graph into `.qmcu` bytes (via
/// [`ModelIr::from_graph`]).
pub fn save_model(graph: &Graph) -> Vec<u8> {
    encode(&ModelIr::from_graph(graph))
}

/// Writes [`save_model`] bytes to `path`.
///
/// # Errors
///
/// [`FormatError::Io`] when the file cannot be written.
pub fn save_model_to_path(graph: &Graph, path: impl AsRef<Path>) -> Result<(), ImportError> {
    let path = path.as_ref();
    std::fs::write(path, save_model(graph)).map_err(|e| FormatError::io(path, &e).into())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Reads a `u32` length prefix followed by that many `f32` bit patterns.
fn f32s(r: &mut Reader<'_>, field: &'static str) -> Result<Vec<f32>, FormatError> {
    r.list(4, field, "initializer length exceeds remaining bytes", |r| r.f32(field))
}

/// Decodes `.qmcu` bytes into the importer IR, without optimizing or
/// lowering. Header, checksum and structural validation happen here;
/// graph-level validation happens in [`ModelIr::lower`].
///
/// # Errors
///
/// [`ImportError::Format`]; never panics, and never allocates more than
/// the input length.
pub fn decode(bytes: &[u8]) -> Result<ModelIr, ImportError> {
    let mut r = Reader::open(bytes, MAGIC, FORMAT_VERSION)?;
    let input_shape = r.shape()?;
    let flag_at = r.offset();
    let flag = r.u8("output flag")?;
    let out_id = r.u32("output id")? as usize;
    let output = match flag {
        0 => None,
        1 => Some(out_id),
        _ => {
            return Err(FormatError::Corrupted { offset: flag_at, detail: "bad output flag" }.into())
        }
    };
    // A node record is at least 15 bytes: id, opcode, input count and the
    // two initializer lengths.
    let nodes = r.list(15, "node count", "node count exceeds remaining bytes", |r| {
        let id = r.u32("node id")? as usize;
        let op_at = r.offset();
        let op = r.op(|code, attrs| match code {
            BIAS_ADD => Some(IrOp::BiasAdd),
            _ => OpSpec::from_code(code, attrs).map(IrOp::Core),
        })?;
        let inputs = r.edges(op_at)?;
        let weights = f32s(r, "weight initializer")?;
        let bias = f32s(r, "bias initializer")?;
        Ok(IrNode { id, op, inputs, weights, bias })
    })?;
    r.finish("trailing bytes after last node record")?;
    Ok(ModelIr { input_shape, nodes, output })
}

/// Imports a serialized model: decode, run the standard optimizer
/// pipeline, validate through the analyzer, and lower to an executable
/// [`Graph`].
///
/// # Errors
///
/// Any [`ImportError`]; decoding and lowering never panic on malformed
/// input.
pub fn load_model(bytes: &[u8]) -> Result<Graph, ImportError> {
    load_model_with_stats(bytes).map(|(g, _)| g)
}

/// [`load_model`], additionally returning the optimizer's [`OptStats`].
///
/// # Errors
///
/// Same contract as [`load_model`].
pub fn load_model_with_stats(bytes: &[u8]) -> Result<(Graph, OptStats), ImportError> {
    let mut ir = decode(bytes)?;
    let stats = PassManager::standard().run(&mut ir);
    Ok((ir.lower()?, stats))
}

/// Imports a serialized model *without* running optimizer passes — the
/// reference path for fused-vs-unfused parity testing.
///
/// # Errors
///
/// Same contract as [`load_model`].
pub fn load_model_unoptimized(bytes: &[u8]) -> Result<Graph, ImportError> {
    Ok(decode(bytes)?.lower()?)
}

/// Reads and imports a model file.
///
/// # Errors
///
/// [`FormatError::Io`] when the file cannot be read, else as
/// [`load_model`].
pub fn load_model_from_path(path: impl AsRef<Path>) -> Result<Graph, ImportError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| FormatError::io(path, &e))?;
    load_model(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::RawInput;
    use crate::builder::GraphSpecBuilder;
    use crate::codec::{fnv1a64, HEADER_LEN};
    use crate::init;
    use quantmcu_tensor::Shape;

    fn sample_graph() -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(8, 3, 1, 1)
            .relu6()
            .dwconv(3, 1, 1)
            .relu6()
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap();
        init::with_structured_weights(spec, 123)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let g = sample_graph();
        let bytes = save_model(&g);
        assert_eq!(&bytes[..4], b"QMCU");
        let back = load_model(&bytes).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = save_model(&sample_graph());
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).expect_err("truncated stream must fail");
            assert!(
                matches!(
                    err,
                    ImportError::Format(
                        FormatError::BadMagic { .. }
                            | FormatError::Truncated { .. }
                            | FormatError::ChecksumMismatch { .. }
                            | FormatError::Corrupted { .. }
                    )
                ),
                "unexpected error at len {len}: {err:?}"
            );
        }
    }

    /// Offset of the opcode in [`patched_relu`]'s one node record: after
    /// the shape (16), output (5), node count (4) and node id (4).
    const RELU_AT: usize = HEADER_LEN + 16 + 5 + 4 + 4;

    /// A one-Relu stream, changed by `patch`, with its checksum re-stamped
    /// so decoding reaches the body.
    fn patched_relu(patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let ir = ModelIr {
            input_shape: Shape::hwc(2, 2, 1),
            nodes: vec![IrNode {
                id: 0,
                op: IrOp::Core(OpSpec::Relu),
                inputs: vec![RawInput::Image],
                weights: vec![],
                bias: vec![],
            }],
            output: None,
        };
        let mut bytes = encode(&ir);
        patch(&mut bytes);
        let sum = fnv1a64(&bytes[HEADER_LEN..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn unknown_opcode_is_typed() {
        let bytes = patched_relu(|b| b[RELU_AT] = 200);
        assert_eq!(
            decode(&bytes).unwrap_err(),
            ImportError::Format(FormatError::UnknownOpcode { offset: RELU_AT, opcode: 200 })
        );
    }

    #[test]
    fn oversized_initializer_length_rejected_before_alloc() {
        // The weight length sits 8 bytes before the end, before the bias's.
        let bytes = patched_relu(|b| {
            let at = b.len() - 8;
            b[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(matches!(decode(&bytes), Err(ImportError::Format(FormatError::Corrupted { .. }))));
    }

    #[test]
    fn oversized_input_count_rejected_before_alloc() {
        // The u16 input count follows the attribute-less Relu opcode.
        let bytes =
            patched_relu(|b| b[RELU_AT + 1..RELU_AT + 3].copy_from_slice(&u16::MAX.to_le_bytes()));
        assert_eq!(
            decode(&bytes).unwrap_err(),
            ImportError::Format(FormatError::Corrupted {
                offset: RELU_AT,
                detail: "input count exceeds payload"
            })
        );
    }

    #[test]
    fn biasadd_stream_fuses_on_load() {
        let ir = ModelIr {
            input_shape: Shape::hwc(4, 4, 3),
            nodes: vec![
                IrNode {
                    id: 10,
                    op: IrOp::Core(OpSpec::Conv2d { out_ch: 2, kernel: 1, stride: 1, pad: 0 }),
                    inputs: vec![RawInput::Image],
                    weights: vec![0.5; 6],
                    bias: vec![],
                },
                IrNode {
                    id: 20,
                    op: IrOp::BiasAdd,
                    inputs: vec![RawInput::Node(10)],
                    weights: vec![],
                    bias: vec![1.0, -2.0],
                },
                IrNode {
                    id: 30,
                    op: IrOp::Core(OpSpec::Relu),
                    inputs: vec![RawInput::Node(20)],
                    weights: vec![],
                    bias: vec![],
                },
            ],
            output: Some(30),
        };
        let (g, stats) = load_model_with_stats(&encode(&ir)).unwrap();
        assert!(stats.total() >= 1);
        assert_eq!(g.spec().len(), 2);
        assert_eq!(g.params(0).bias(), &[1.0, -2.0]);
        // Unoptimized load must reject the import-only operator instead.
        assert!(matches!(
            load_model_unoptimized(&encode(&ir)),
            Err(ImportError::Model { node: Some(20), .. })
        ));
    }

    #[test]
    fn io_error_is_typed() {
        let err = load_model_from_path("/nonexistent/model.qmcu").unwrap_err();
        assert!(matches!(err, ImportError::Format(FormatError::Io { .. })));
    }
}
