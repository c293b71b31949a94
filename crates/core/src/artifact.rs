//! Versioned `.qplan` plan artifacts: a complete [`DeploymentPlan`] plus
//! the packed quantized state of its compiled integer tail, persisted to
//! a dependency-free binary format so a deployment can be restored
//! **bit-identically** with no calibration source at all (see
//! [`crate::Engine::deploy_from_artifact`]).
//!
//! # Format
//!
//! The file is framed by the shared [`quantmcu_nn::codec`] header (magic
//! `QPLN`, [`FORMAT_VERSION`], FNV-1a/64 checksum of the body) and keeps
//! its conventions, as the `.qmcu` model format does: little-endian
//! integers, floats as IEEE-754 bit patterns (so calibrated ranges and
//! quantization grids round-trip bit-exactly), checksum before parse,
//! lengths checked before allocation, byte offsets in every
//! [`ArtifactError::Format`]; decoding never panics. The body:
//!
//! | field | encoding |
//! |---|---|
//! | graph fingerprint | `u64` (FNV-1a/64 of the model's `.qmcu` bytes) |
//! | spec: input shape | `u32 × 4` (`n, h, w, c`) |
//! | spec: node count, then per node | opcode `u8`, attrs `u32 × attr_count`, input count `u16`, inputs `(u8, u32)` each |
//! | patch plan | `split_at, rows, cols` as `u32` |
//! | weight bitwidth | `u8` (bits) |
//! | patch classes | count `u32`, then `u8` each (`0` non-outlier, `1` outlier) |
//! | branch bitwidths | branch count `u32`, per branch: len `u32` + `u8` bits each |
//! | tail bitwidths | len `u32` + `u8` bits each |
//! | branch ranges | branch count `u32`, per branch: len `u32` + `(f32, f32)` bit pairs |
//! | tail ranges | len `u32` + `(f32, f32)` bit pairs |
//! | search time | secs `u64` + subsec nanos `u32` |
//! | tail act params | count `u32`, per entry: scale `f32` bits, zero point `i32`, bitwidth `u8` |
//! | tail node state | count `u32`, per node: packed weights (`u32` len + bytes), bias (`u32` len + `i64` each), acc scales (`u32` len + `f64` bits each), zp folds (`u32` len + `i64` each) |
//! | tail weight bitwidth | `u8` (must equal the plan's) |
//!
//! Dataflow branches are **not** serialized — they are a deterministic
//! function of the spec and the patch plan and are rebuilt on load.
//!
//! # Versioning rules
//!
//! The magic is fixed forever. Readers accept exactly the versions they
//! know ([`FORMAT_VERSION`]); any other version is
//! [`FormatError::UnsupportedVersion`], never a best-effort parse.

use std::fmt;
use std::path::Path;
use std::time::Duration;

use quantmcu_nn::analyze::RawInput;
use quantmcu_nn::codec::{fnv1a64, FormatError, Reader, Writer};
use quantmcu_nn::exec::{NodeQuantState, QuantState};
use quantmcu_nn::{Graph, GraphSpec, NodeSpec, OpSpec, Source};
use quantmcu_patch::{Branch, PatchPlan};
use quantmcu_quant::vdpc::PatchClass;
use quantmcu_tensor::{Bitwidth, QuantParams};

use crate::plan::DeploymentPlan;

/// The four magic bytes opening every `.qplan` file.
pub const MAGIC: [u8; 4] = *b"QPLN";

/// The format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// What [`Reader::count`] reports for a length the body cannot hold.
const TOO_LONG: &str = "length exceeds payload";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a serialized plan artifact could not be loaded.
///
/// Every variant carries enough context (byte offsets, fingerprints, the
/// failing invariant) to locate the defect in the input file.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The bytes are not a well-formed `.qplan` stream, or the file could
    /// not be read or written.
    Format(FormatError),
    /// The artifact was planned for a different model than the one it is
    /// being deployed onto.
    FingerprintMismatch {
        /// Fingerprint of the graph being deployed onto.
        expected: u64,
        /// Fingerprint recorded in the artifact.
        found: u64,
    },
    /// The decoded fields are individually well-formed but do not
    /// assemble into a valid plan (spec validation, patch fit, or a
    /// cross-field length invariant failed).
    Plan {
        /// Human-readable description of the failing invariant.
        detail: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Format(e) => e.fmt(f),
            ArtifactError::FingerprintMismatch { expected, found } => write!(
                f,
                "plan was built for a different model: graph fingerprint {expected:#018x}, \
                 artifact carries {found:#018x}"
            ),
            ArtifactError::Plan { detail } => write!(f, "invalid plan: {detail}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<FormatError> for ArtifactError {
    fn from(e: FormatError) -> Self {
        ArtifactError::Format(e)
    }
}

/// The fingerprint a `.qplan` artifact binds to: the FNV-1a/64 hash of
/// the model's canonical `.qmcu` serialization
/// ([`quantmcu_nn::import::save_model`]), which covers the spec *and*
/// every weight bit-exactly.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    fnv1a64(&quantmcu_nn::import::save_model(graph))
}

// ---------------------------------------------------------------------------
// The artifact
// ---------------------------------------------------------------------------

/// A decoded (or to-be-encoded) `.qplan` artifact: the model fingerprint
/// it binds to, the full [`DeploymentPlan`], and the packed quantized
/// state of the plan's compiled integer tail.
///
/// Produced by [`crate::Deployment::save`] / [`PlanArtifact::decode`] and
/// consumed by [`crate::Engine::deploy_from_artifact`] — the round trip
/// is bit-exact, so a restored deployment computes outputs bit-identical
/// to the calibrated original with **zero** calibration work.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanArtifact {
    fingerprint: u64,
    plan: DeploymentPlan,
    tail: QuantState,
}

impl PlanArtifact {
    /// Assembles an artifact from its parts. The caller is responsible
    /// for internal consistency (use [`crate::Deployment::save`] to
    /// persist a live deployment); [`PlanArtifact::decode`] re-validates
    /// everything on the way back in.
    pub fn new(fingerprint: u64, plan: DeploymentPlan, tail: QuantState) -> Self {
        PlanArtifact { fingerprint, plan, tail }
    }

    /// Fingerprint of the model this plan was built for
    /// (see [`graph_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The deployment plan.
    pub fn plan(&self) -> &DeploymentPlan {
        &self.plan
    }

    /// The packed quantized state of the plan's integer tail.
    pub fn tail_state(&self) -> &QuantState {
        &self.tail
    }

    /// Decomposes the artifact into `(fingerprint, plan, tail state)`.
    pub fn into_parts(self) -> (u64, DeploymentPlan, QuantState) {
        (self.fingerprint, self.plan, self.tail)
    }

    /// Serializes the artifact to `.qplan` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(MAGIC, FORMAT_VERSION);
        w.u64(self.fingerprint);

        let plan = &self.plan;
        w.shape(plan.spec.input_shape());
        w.list(plan.spec.nodes().iter(), |w, node| {
            w.op(node.op.opcode(), &node.op.attrs());
            w.edges(node.inputs.iter().map(|&s| RawInput::from(s)));
        });

        let pp = &plan.patch_plan;
        for v in [pp.split_at(), pp.rows(), pp.cols()] {
            w.u32(v as u32);
        }
        w.u8(plan.weight_bits.bits() as u8);
        w.list(plan.patch_classes.iter(), |w, c| {
            w.u8(match c {
                PatchClass::NonOutlier => 0,
                PatchClass::Outlier => 1,
            });
        });
        let bits = |w: &mut Writer, bits: &Vec<Bitwidth>| {
            w.list(bits.iter(), |w, b| w.u8(b.bits() as u8));
        };
        w.list(plan.branch_bits.iter(), bits);
        bits(&mut w, &plan.tail_bits);
        let ranges = |w: &mut Writer, ranges: &Vec<(f32, f32)>| {
            w.list(ranges.iter(), |w, &(lo, hi)| {
                w.f32(lo);
                w.f32(hi);
            });
        };
        w.list(plan.branch_ranges.iter(), ranges);
        ranges(&mut w, &plan.tail_ranges);
        w.u64(plan.search_time.as_secs());
        w.u32(plan.search_time.subsec_nanos());

        let tail = &self.tail;
        w.list(tail.act_params.iter(), |w, p| {
            w.f32(p.scale());
            w.u32(p.zero_point() as u32);
            w.u8(p.bitwidth().bits() as u8);
        });
        w.list(tail.nodes.iter(), |w, n| {
            w.u32(n.packed_weights.len() as u32);
            w.bytes(&n.packed_weights);
            w.list(n.bias_q.iter(), |w, &v| w.u64(v as u64));
            w.list(n.acc_scale.iter(), |w, &v| w.f64(v));
            w.list(n.zp_fold.iter(), |w, &v| w.u64(v as u64));
        });
        w.u8(tail.weight_bits.bits() as u8);
        w.finish()
    }

    /// Writes the artifact to a `.qplan` file.
    ///
    /// # Errors
    ///
    /// [`FormatError::Io`] when the file cannot be written.
    pub fn encode_to_path(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let path = path.as_ref();
        std::fs::write(path, self.encode()).map_err(|e| FormatError::io(path, &e).into())
    }

    /// Deserializes and validates `.qplan` bytes.
    ///
    /// The checksum is verified before the body is parsed; the decoded
    /// fields are then re-validated end to end — the spec through
    /// [`GraphSpec::new`], the patch schedule through [`PatchPlan::new`],
    /// and every cross-field length invariant the planner established —
    /// so a successfully decoded artifact is structurally sound even when
    /// the input came from an untrusted file.
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`] for every way the bytes can be wrong:
    /// damaged header, checksum mismatch, truncation, unknown opcode,
    /// impossible length, or a semantic invariant that does not hold.
    /// Decoding never panics.
    pub fn decode(bytes: &[u8]) -> Result<PlanArtifact, ArtifactError> {
        let r = &mut Reader::open(bytes, MAGIC, FORMAT_VERSION)?;
        let fingerprint = r.u64("graph fingerprint")?;

        let spec = decode_spec(r)?;
        let split_at = r.u32("split point")? as usize;
        let rows = r.u32("grid rows")? as usize;
        let cols = r.u32("grid cols")? as usize;
        let patch_plan = PatchPlan::new(&spec, split_at, rows, cols)
            .map_err(|e| ArtifactError::Plan { detail: e.to_string() })?;
        let weight_bits = read_bitwidth(r, "weight bitwidth")?;
        let patch_classes = r.list(1, "patch class count", TOO_LONG, |r| {
            let at = r.offset();
            match r.u8("patch class")? {
                0 => Ok(PatchClass::NonOutlier),
                1 => Ok(PatchClass::Outlier),
                _ => Err(FormatError::Corrupted { offset: at, detail: "bad patch class" }),
            }
        })?;
        let branch_bits = r.list(4, "branch count", TOO_LONG, read_bits_vec)?;
        let tail_bits = read_bits_vec(r)?;
        let branch_ranges = r.list(4, "branch range count", TOO_LONG, read_ranges_vec)?;
        let tail_ranges = read_ranges_vec(r)?;

        let secs = r.u64("search time secs")?;
        let at = r.offset();
        let nanos = r.u32("search time nanos")?;
        if nanos >= 1_000_000_000 {
            return Err(
                FormatError::Corrupted { offset: at, detail: "bad nanosecond count" }.into()
            );
        }
        let search_time = Duration::new(secs, nanos);

        let tail = decode_quant_state(r)?;
        r.finish("trailing bytes after artifact body")?;

        // Cross-field invariants: everything Deployment construction (and
        // DeploymentPlan's accessors) assume, checked here with typed
        // errors instead of downstream panics.
        let branch_count = patch_plan.branch_count();
        let split = patch_plan.split_at();
        let invariant = |ok: bool, detail: &str| -> Result<(), ArtifactError> {
            if ok {
                Ok(())
            } else {
                Err(ArtifactError::Plan { detail: detail.to_string() })
            }
        };
        invariant(
            patch_classes.len() == branch_count,
            "patch class count does not match the patch grid",
        )?;
        invariant(
            branch_bits.len() == branch_count && branch_ranges.len() == branch_count,
            "per-branch vectors do not match the patch grid",
        )?;
        for (bits, ranges) in branch_bits.iter().zip(&branch_ranges) {
            invariant(
                bits.len() == split + 1 && ranges.len() == split + 1,
                "branch bitwidths/ranges do not cover the head",
            )?;
        }
        let tail_maps = spec.len() - split + 1;
        invariant(
            tail_bits.len() == tail_maps && tail_ranges.len() == tail_maps,
            "tail bitwidths/ranges do not cover the tail",
        )?;
        invariant(
            tail.act_params.len() == tail_maps,
            "tail activation params do not cover the tail",
        )?;
        invariant(
            tail.nodes.len() == spec.len() - split,
            "tail node state does not cover the tail",
        )?;
        invariant(tail.weight_bits == weight_bits, "tail weight bitwidth disagrees with the plan")?;
        for (p, &b) in tail.act_params.iter().zip(&tail_bits) {
            invariant(
                p.bitwidth() == b,
                "tail activation params disagree with the tail bitwidths",
            )?;
        }

        let branches = Branch::build_all(&spec, &patch_plan);
        let plan = DeploymentPlan {
            spec,
            patch_plan,
            branches,
            patch_classes,
            branch_bits,
            tail_bits,
            weight_bits,
            branch_ranges,
            tail_ranges,
            search_time,
        };
        Ok(PlanArtifact { fingerprint, plan, tail })
    }

    /// Reads and decodes a `.qplan` file.
    ///
    /// # Errors
    ///
    /// [`FormatError::Io`] when the file cannot be read, otherwise the
    /// same errors as [`PlanArtifact::decode`].
    pub fn decode_from_path(path: impl AsRef<Path>) -> Result<PlanArtifact, ArtifactError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| FormatError::io(path, &e))?;
        PlanArtifact::decode(&bytes)
    }
}

fn read_bitwidth(r: &mut Reader<'_>, field: &'static str) -> Result<Bitwidth, FormatError> {
    let at = r.offset();
    let bits = r.u8(field)?;
    Bitwidth::try_from(u32::from(bits))
        .map_err(|_| FormatError::Corrupted { offset: at, detail: "unsupported bitwidth" })
}

fn read_bits_vec(r: &mut Reader<'_>) -> Result<Vec<Bitwidth>, FormatError> {
    r.list(1, "bitwidth vector length", TOO_LONG, |r| read_bitwidth(r, "bitwidth"))
}

fn read_ranges_vec(r: &mut Reader<'_>) -> Result<Vec<(f32, f32)>, FormatError> {
    r.list(8, "range vector length", TOO_LONG, |r| Ok((r.f32("range min")?, r.f32("range max")?)))
}

fn decode_spec(r: &mut Reader<'_>) -> Result<GraphSpec, ArtifactError> {
    let input_shape = r.shape()?;
    // Smallest node record: opcode (1) + input count (2).
    let nodes = r.list(3, "node count", TOO_LONG, |r| {
        let at = r.offset();
        let op = r.op(OpSpec::from_code)?;
        let inputs = r.edges(at)?.into_iter().map(|e| match e {
            RawInput::Image => Source::Input,
            RawInput::Node(id) => Source::Node(id),
        });
        Ok(NodeSpec { op, inputs: inputs.collect() })
    })?;
    GraphSpec::new(input_shape, nodes).map_err(|e| ArtifactError::Plan { detail: e.to_string() })
}

fn decode_quant_state(r: &mut Reader<'_>) -> Result<QuantState, FormatError> {
    // Smallest act-param record: scale (4) + zero point (4) + bitwidth (1).
    let act_params = r.list(9, "activation param count", TOO_LONG, |r| {
        let at = r.offset();
        let scale = r.f32("activation scale")?;
        let zero_point = r.u32("activation zero point")? as i32;
        let bitwidth = read_bitwidth(r, "activation bitwidth")?;
        QuantParams::from_raw_parts(scale, zero_point, bitwidth)
            .map_err(|_| FormatError::Corrupted { offset: at, detail: "bad activation grid" })
    })?;
    // Smallest node record: four empty length fields.
    let nodes = r.list(16, "tail node count", TOO_LONG, |r| {
        let n_packed = r.count(1, "packed weight length", TOO_LONG)?;
        let packed_weights = r.take(n_packed, "packed weights")?.to_vec();
        let signed = |field| move |r: &mut Reader<'_>| r.u64(field).map(|v| v as i64);
        let bias_q = r.list(8, "bias length", TOO_LONG, signed("bias value"))?;
        let acc_scale =
            r.list(8, "accumulator scale length", TOO_LONG, |r| r.f64("accumulator scale"))?;
        let zp_fold = r.list(8, "zero-point fold length", TOO_LONG, signed("zero-point fold"))?;
        Ok(NodeQuantState { packed_weights, bias_q, acc_scale, zp_fold })
    })?;
    let weight_bits = read_bitwidth(r, "tail weight bitwidth")?;
    Ok(QuantState { act_params, nodes, weight_bits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SramBudget};
    use quantmcu_nn::codec::HEADER_LEN;
    use quantmcu_nn::{init, GraphSpecBuilder};
    use quantmcu_tensor::{Shape, Tensor};

    fn graph() -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .pwconv(12)
            .relu6()
            .conv2d(16, 3, 2, 1)
            .relu6()
            .global_avg_pool()
            .dense(6)
            .build()
            .unwrap();
        init::with_structured_weights(spec, 31)
    }

    fn calib(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|s| Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i + 97 * s) as f32 * 0.19).sin()))
            .collect()
    }

    fn artifact() -> PlanArtifact {
        let engine = Engine::builder(graph()).sram_budget(SramBudget::kib(256)).build();
        let dep = engine.deploy(engine.plan(calib(4)).unwrap()).unwrap();
        PlanArtifact::decode(&dep.save().unwrap()).unwrap()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let a = artifact();
        let bytes = a.encode();
        let b = PlanArtifact::decode(&bytes).unwrap();
        assert_eq!(a, b);
        assert_eq!(bytes, b.encode(), "re-encode must be byte-identical");
    }

    #[test]
    fn truncations_are_typed_after_checksum_repair() {
        let bytes = artifact().encode();
        for len in [HEADER_LEN, HEADER_LEN + 9, bytes.len() / 2, bytes.len() - 1] {
            let mut cut = bytes[..len].to_vec();
            let sum = fnv1a64(&cut[HEADER_LEN..]);
            cut[8..16].copy_from_slice(&sum.to_le_bytes());
            let err = PlanArtifact::decode(&cut).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Format(
                        FormatError::Truncated { .. } | FormatError::Corrupted { .. }
                    ) | ArtifactError::Plan { .. }
                ),
                "len {len}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = artifact().encode();
        bytes.push(0);
        let sum = fnv1a64(&bytes[HEADER_LEN..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            PlanArtifact::decode(&bytes),
            Err(ArtifactError::Format(FormatError::Corrupted {
                detail: "trailing bytes after artifact body",
                ..
            }))
        ));
    }

    #[test]
    fn fingerprint_is_weight_sensitive() {
        let a = graph_fingerprint(&graph());
        let spec = graph().spec().clone();
        let b = graph_fingerprint(&init::with_structured_weights(spec, 32));
        assert_ne!(a, b, "different weights must fingerprint differently");
        assert_eq!(a, graph_fingerprint(&graph()), "fingerprint must be deterministic");
    }

    #[test]
    fn io_errors_carry_the_path() {
        let err = PlanArtifact::decode_from_path("/nonexistent/plan.qplan").unwrap_err();
        assert!(matches!(
            &err,
            ArtifactError::Format(FormatError::Io { path, .. }) if path.contains("nonexistent")
        ));
        let err = artifact().encode_to_path("/nonexistent/plan.qplan").unwrap_err();
        assert!(matches!(&err, ArtifactError::Format(FormatError::Io { .. })));
    }
}
