use std::time::Duration;

use quantmcu_mcusim::{Device, LatencyModel};
use quantmcu_nn::cost::{self, BitwidthAssignment};
use quantmcu_nn::GraphSpec;
use quantmcu_patch::{memory, Branch, PatchError, PatchPlan};
use quantmcu_quant::vdpc::PatchClass;
use quantmcu_tensor::Bitwidth;

/// The artifact QuantMCU produces: where to split, how each branch and the
/// tail are quantized, and what that costs.
///
/// A plan is a sealed value: every field is reachable through a read
/// accessor, and the only mutation the API offers is
/// [`DeploymentPlan::timeless`] (strip the wall-clock measurement for
/// bit-for-bit comparisons). The invariants the planner established —
/// bitwidth vectors sized to the split, ranges matching the bitwidths,
/// classes matching the branch count — therefore survive into
/// [`crate::Deployment`] construction unchecked.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    pub(crate) spec: GraphSpec,
    pub(crate) patch_plan: PatchPlan,
    pub(crate) branches: Vec<Branch>,
    pub(crate) patch_classes: Vec<PatchClass>,
    pub(crate) branch_bits: Vec<Vec<Bitwidth>>,
    pub(crate) tail_bits: Vec<Bitwidth>,
    pub(crate) weight_bits: Bitwidth,
    pub(crate) branch_ranges: Vec<Vec<(f32, f32)>>,
    pub(crate) tail_ranges: Vec<(f32, f32)>,
    pub(crate) search_time: Duration,
}

impl DeploymentPlan {
    /// The underlying network spec.
    #[must_use]
    pub fn spec(&self) -> &GraphSpec {
        &self.spec
    }

    /// The patch schedule.
    #[must_use]
    pub fn patch_plan(&self) -> &PatchPlan {
        &self.patch_plan
    }

    /// The dataflow branches (row-major).
    #[must_use]
    pub fn branches(&self) -> &[Branch] {
        &self.branches
    }

    /// VDPC verdict per patch (row-major).
    #[must_use]
    pub fn patch_classes(&self) -> &[PatchClass] {
        &self.patch_classes
    }

    /// Per-branch feature-map bitwidths (head length + 1 each).
    #[must_use]
    pub fn branch_bits(&self) -> &[Vec<Bitwidth>] {
        &self.branch_bits
    }

    /// Tail feature-map bitwidths (tail input first).
    #[must_use]
    pub fn tail_bits(&self) -> &[Bitwidth] {
        &self.tail_bits
    }

    /// Deployed weight bitwidth.
    #[must_use]
    pub fn weight_bits(&self) -> Bitwidth {
        self.weight_bits
    }

    /// Wall-clock of the VDPC classification plus the VDQS searches — the
    /// Table II "Time" measurement. The calibration prologue (streaming
    /// the calibration set through the network) is **excluded**: it is
    /// data preparation every method pays alike, and folding it in made
    /// the reported search cost scale with calibration-set size.
    /// [`crate::Engine::plan_uniform`] performs no search, so uniform
    /// plans report zero.
    #[must_use]
    pub fn search_time(&self) -> Duration {
        self.search_time
    }

    /// This plan with the wall-clock measurement zeroed — the one field
    /// allowed to differ between runs — so plans compare bit-for-bit
    /// (`assert_eq!(a.timeless(), b.timeless())`).
    #[must_use]
    pub fn timeless(mut self) -> Self {
        self.search_time = Duration::ZERO;
        self
    }

    /// Calibrated `(min, max)` per branch feature map (one vector per
    /// branch, head length + 1 entries each).
    #[must_use]
    pub fn branch_ranges(&self) -> &[Vec<(f32, f32)>] {
        &self.branch_ranges
    }

    /// Calibrated `(min, max)` per tail feature map (tail input first).
    #[must_use]
    pub fn tail_ranges(&self) -> &[(f32, f32)] {
        &self.tail_ranges
    }

    /// The per-patch head spec.
    ///
    /// # Panics
    ///
    /// Never panics for plans produced by [`crate::Engine`].
    pub fn head(&self) -> GraphSpec {
        self.spec.split_at(self.patch_plan.split_at()).expect("validated split").0
    }

    /// The post-merge tail spec.
    ///
    /// # Panics
    ///
    /// Never panics for plans produced by [`crate::Engine`].
    pub fn tail(&self) -> GraphSpec {
        self.spec.split_at(self.patch_plan.split_at()).expect("validated split").1
    }

    /// Whole-network BitOPs under this plan: branch-region-exact head
    /// BitOPs plus the tail's assignment BitOPs (the Table I metric).
    pub fn bitops(&self) -> u64 {
        let head = self.head();
        let tail = self.tail();
        let w = self.weight_bits.bits() as u64;
        let mut total = 0u64;
        for (branch, bits) in self.branches.iter().zip(&self.branch_bits) {
            assert!(
                bits.len() > head.len(),
                "branch_bits must cover the head ({} maps, got {})",
                head.len() + 1,
                bits.len()
            );
            for (i, b) in bits.iter().take(head.len()).enumerate() {
                total += branch.layer_macs(&head, i) * w * b.bits() as u64;
            }
        }
        let tail_assignment = BitwidthAssignment::from_vec(&tail, self.tail_bits.clone());
        total + cost::total_bitops(&tail, self.weight_bits, &tail_assignment)
    }

    /// BitOPs of the same patch schedule at uniform 8-bit — the MCUNetV2
    /// baseline this plan is improving on.
    pub fn baseline_patch_bitops(&self) -> u64 {
        let head = self.head();
        let tail = self.tail();
        let w = self.weight_bits.bits() as u64;
        let mut total = 0u64;
        for branch in &self.branches {
            total += branch.total_macs(&head) * w * 8;
        }
        let tail_assignment = BitwidthAssignment::uniform(&tail, Bitwidth::W8);
        total + cost::total_bitops(&tail, self.weight_bits, &tail_assignment)
    }

    /// Peak SRAM under this plan (the Table I metric).
    ///
    /// # Errors
    ///
    /// Returns [`PatchError`] only for internally inconsistent plans.
    pub fn peak_memory_bytes(&self) -> Result<usize, PatchError> {
        memory::patch_peak_bytes(&self.spec, &self.patch_plan, &self.branch_bits, &self.tail_bits)
    }

    /// Modeled inference latency on `device` (the Table I metric).
    ///
    /// # Errors
    ///
    /// Returns [`PatchError`] only for internally inconsistent plans.
    pub fn latency(&self, device: &Device) -> Result<Duration, PatchError> {
        LatencyModel::new(*device).patch_based(
            &self.spec,
            &self.patch_plan,
            &self.branch_bits,
            &self.tail_bits,
            self.weight_bits,
        )
    }

    /// Number of outlier-class patches.
    pub fn outlier_patch_count(&self) -> usize {
        self.patch_classes.iter().filter(|c| **c == PatchClass::Outlier).count()
    }

    /// The average activation bitwidth across all branch feature maps —
    /// the Fig. 6 summary statistic.
    pub fn mean_branch_bits(&self) -> f64 {
        let total: u64 =
            self.branch_bits.iter().flat_map(|b| b.iter()).map(|b| b.bits() as u64).sum();
        let count: usize = self.branch_bits.iter().map(Vec::len).sum();
        if count == 0 {
            return 0.0;
        }
        total as f64 / count as f64
    }
}
