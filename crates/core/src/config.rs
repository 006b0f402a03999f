//! Alignment configuration and the Table II parameter derivation.
//!
//! The paper's generalized paradigm (Sec. IV) is parameterized by:
//! the alignment kind (local = Smith-Waterman, global =
//! Needleman-Wunsch — the presence of the `0` operand in Eq. 2), the
//! gap system (linear: θ = 0, affine: θ < 0), and the substitution
//! matrix γ. From those, Table II derives the concrete expressions
//! the vector code constructs are rewritten with (`GAP_LEFT`,
//! `GAP_UP_EXT`, `INIT_T`, …); here that derivation is
//! [`AlignConfig::table2`].
//!
//! # Sign convention
//! Penalties are **score deltas ≤ 0**: a gap of length `L` contributes
//! `θ + L·β`. `GapModel::affine(-10, -2)` therefore means "opening
//! costs 10, each gapped residue costs another 2" — i.e. a 1-long gap
//! scores −12 (the combined `GAP_OPEN` of the paper's Alg. 1).

use std::sync::Arc;

use aalign_bio::{Sequence, SubstMatrix};

use crate::kernel::AlignError;

/// Local (Smith-Waterman), global (Needleman-Wunsch) or semi-global
/// alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlignKind {
    /// Local alignment: scores clamp at 0; result is the table max.
    Local,
    /// Global alignment: both sequences consumed end to end.
    Global,
    /// Semi-global ("glocal", extension beyond the paper): the query
    /// is consumed end to end, but the subject's prefix and suffix
    /// are free — the read-mapping configuration. In paradigm terms:
    /// no `0` operand, `INIT_T(i) = 0` (free subject prefix), result
    /// read as the maximum over the last query row (free suffix).
    SemiGlobal,
}

impl AlignKind {
    /// Short name (`sw` / `nw` / `sg`) used in reports.
    pub fn short(self) -> &'static str {
        match self {
            AlignKind::Local => "sw",
            AlignKind::Global => "nw",
            AlignKind::SemiGlobal => "sg",
        }
    }
}

/// Gap penalty system of the generalized paradigm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GapModel {
    /// Linear gaps: θ = 0, each gapped residue scores `ext`.
    Linear {
        /// Per-residue gap score (< 0).
        ext: i32,
    },
    /// Affine gaps: opening scores `open` (θ ≤ 0) once, plus `ext`
    /// (β < 0) per gapped residue.
    Affine {
        /// Gap initiation score θ (≤ 0), charged once per gap.
        open: i32,
        /// Gap extension score β (< 0), charged per gapped residue.
        ext: i32,
    },
}

impl GapModel {
    /// Linear gap model.
    ///
    /// # Panics
    /// Panics unless `ext < 0`.
    pub fn linear(ext: i32) -> Self {
        assert!(ext < 0, "gap extension must be negative, got {ext}");
        GapModel::Linear { ext }
    }

    /// Affine gap model.
    ///
    /// # Panics
    /// Panics unless `open ≤ 0` and `ext < 0`.
    pub fn affine(open: i32, ext: i32) -> Self {
        assert!(open <= 0, "gap open must be ≤ 0, got {open}");
        assert!(ext < 0, "gap extension must be negative, got {ext}");
        GapModel::Affine { open, ext }
    }

    /// θ: the initiation-only part (0 for linear).
    pub fn theta(self) -> i32 {
        match self {
            GapModel::Linear { .. } => 0,
            GapModel::Affine { open, .. } => open,
        }
    }

    /// β: the per-residue part.
    pub fn beta(self) -> i32 {
        match self {
            GapModel::Linear { ext } | GapModel::Affine { ext, .. } => ext,
        }
    }

    /// True for the affine variant.
    pub fn is_affine(self) -> bool {
        matches!(self, GapModel::Affine { .. })
    }

    /// Total score of a gap of length `len ≥ 1`.
    pub fn gap_score(self, len: usize) -> i32 {
        self.theta() + self.beta() * len as i32
    }

    /// Short name (`lin` / `aff`) used in reports.
    pub fn short(self) -> &'static str {
        if self.is_affine() {
            "aff"
        } else {
            "lin"
        }
    }
}

/// The Table II expressions: everything a kernel construct needs,
/// derived once from an [`AlignConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableII {
    /// `GAP_LEFT` = θ' + β': score of a fresh 1-gap in the subject
    /// direction (applied to the previous column's `T`).
    pub gap_left: i32,
    /// `GAP_LEFT_EXT` = β'.
    pub gap_left_ext: i32,
    /// `GAP_UP` = θ + β: fresh 1-gap in the query direction.
    pub gap_up: i32,
    /// `GAP_UP_EXT` = β.
    pub gap_up_ext: i32,
    /// Whether the `0` operand participates (`MAX_OPRD` includes zero).
    pub local: bool,
    /// Whether the asterisked (affine-only) statements are kept.
    pub affine: bool,
    /// The alignment kind (drives boundary values and where the
    /// result is read from).
    pub kind: AlignKind,
}

impl TableII {
    /// `INIT_T(i)`: boundary value `T_{i,0}` — 0 for local and
    /// semi-global (free subject prefix); the subject-direction gap
    /// ramp for global.
    #[inline]
    pub fn init_t(&self, i: usize) -> i32 {
        match self.kind {
            AlignKind::Local | AlignKind::SemiGlobal => 0,
            AlignKind::Global => {
                if i == 0 {
                    0
                } else {
                    self.gap_left + (i as i32 - 1) * self.gap_left_ext
                }
            }
        }
    }

    /// Boundary value `T_{0,q+1}` along the query (the initial column
    /// buffer) — 0 for local; the query-direction gap ramp for global
    /// and semi-global (the query must be consumed).
    #[inline]
    pub fn init_col(&self, q: usize) -> i32 {
        match self.kind {
            AlignKind::Local => 0,
            AlignKind::Global | AlignKind::SemiGlobal => self.gap_up + q as i32 * self.gap_up_ext,
        }
    }
}

/// Full alignment configuration: kind × gap model × matrix.
#[derive(Debug, Clone)]
pub struct AlignConfig {
    /// Local or global.
    pub kind: AlignKind,
    /// Gap penalty system.
    pub gap: GapModel,
    /// Substitution matrix (shared).
    pub matrix: Arc<SubstMatrix>,
}

impl AlignConfig {
    /// Configuration from parts.
    pub fn new(kind: AlignKind, gap: GapModel, matrix: &SubstMatrix) -> Self {
        Self {
            kind,
            gap,
            matrix: Arc::new(matrix.clone()),
        }
    }

    /// Local (Smith-Waterman) configuration.
    pub fn local(gap: GapModel, matrix: &SubstMatrix) -> Self {
        Self::new(AlignKind::Local, gap, matrix)
    }

    /// Global (Needleman-Wunsch) configuration.
    pub fn global(gap: GapModel, matrix: &SubstMatrix) -> Self {
        Self::new(AlignKind::Global, gap, matrix)
    }

    /// Semi-global configuration (query consumed fully, subject ends
    /// free) — the read-mapping mode; an extension beyond the paper.
    pub fn semi_global(gap: GapModel, matrix: &SubstMatrix) -> Self {
        Self::new(AlignKind::SemiGlobal, gap, matrix)
    }

    /// Derive the Table II expressions (same gap system in both
    /// directions, as in the paper's evaluation).
    pub fn table2(&self) -> TableII {
        let theta = self.gap.theta();
        let beta = self.gap.beta();
        TableII {
            gap_left: theta + beta,
            gap_left_ext: beta,
            gap_up: theta + beta,
            gap_up_ext: beta,
            local: self.kind == AlignKind::Local,
            affine: self.gap.is_affine(),
            kind: self.kind,
        }
    }

    /// A conservative bound on `|score|` for sequences of the given
    /// lengths — used by the width policy to decide whether a narrow
    /// element type can represent every intermediate value.
    pub fn score_bound(&self, query_len: usize, subject_len: usize) -> i64 {
        let gamma = self
            .matrix
            .max_score()
            .abs()
            .max(self.matrix.min_score().abs()) as i64;
        let gap = (self.gap.theta().abs() + self.gap.beta().abs()) as i64;
        let len = query_len.max(subject_len) as i64;
        (gamma + gap) * (len + 1)
    }

    /// Short label like `sw-aff` used in reports.
    pub fn label(&self) -> String {
        format!("{}-{}", self.kind.short(), self.gap.short())
    }

    /// Verify `s` is encoded over this configuration's matrix
    /// alphabet — the shared precondition of every kernel entry point
    /// ([`Aligner::align`](crate::Aligner::align), the prepared path,
    /// the inter-sequence engine, and the search drivers all call
    /// this).
    pub fn check_seq(&self, s: &Sequence) -> Result<(), AlignError> {
        if core::ptr::eq(s.alphabet(), self.matrix.alphabet()) {
            Ok(())
        } else {
            Err(AlignError::AlphabetMismatch {
                id: s.id().to_string(),
            })
        }
    }

    /// Interval analysis of the recurrences: conservative bounds on
    /// every T/U/L cell for sequences up to the given lengths. See
    /// [`ScoreBounds`].
    pub fn score_bounds(&self, max_query: usize, max_subject: usize) -> ScoreBounds {
        ScoreBounds::analyze(self, max_query, max_subject)
    }
}

/// Conservative per-table value bounds from interval arithmetic over
/// the generalized recurrences (Eq. 2–6), plus the arithmetic headroom
/// the kernels need around them.
///
/// The intervals come from path arguments rather than cell-by-cell
/// iteration, so they are closed forms:
///
/// * `T` is bounded above by a perfect-match path: at most
///   `min(m, n)` diagonal steps each contributing at most γ⁺
///   (`matrix.max_score()`). Local kernels clamp below at 0; global
///   and semi-global cells are bounded below by the worst path, which
///   takes at most `m + n` steps each losing at most
///   `max(|γ⁻|, γ⁺, |β|)` plus two gap openings.
/// * `U`/`L` read `T + θ + β` or themselves `+ β`, so their interval
///   is `T`'s shifted down by `|θ| + |β|` (they never exceed `T`'s
///   maximum: a gap never gains score).
/// * [`headroom`](ScoreBounds::headroom) covers what the kernels add
///   *around* the mathematical values: the `NEG_INF` sentinel has gap
///   penalties added to it before saturation/clamping catches up, and
///   biased unsigned arithmetic shifts by up to γ⁺ + |θ| + |β|.
///
/// [`fits`](ScoreBounds::fits) is the single source of truth for
/// width selection: the runtime `Aligner` consults it per
/// query/subject pair, and `aalign-analyzer range` reports it
/// offline from a `KernelSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreBounds {
    /// Smallest value any `T` cell can take.
    pub t_min: i64,
    /// Largest value any `T` cell can take.
    pub t_max: i64,
    /// Smallest value any `U`/`L` cell can take (gaps are symmetric,
    /// so the two tables share bounds).
    pub ul_min: i64,
    /// Largest value any `U`/`L` cell can take.
    pub ul_max: i64,
    /// Extra representable range the kernels need beyond the value
    /// bounds (sentinel arithmetic, bias shifts, saturation margin).
    pub headroom: i64,
}

impl ScoreBounds {
    /// Run the interval analysis for `cfg` on sequences of length at
    /// most `max_query` × `max_subject`.
    pub fn analyze(cfg: &AlignConfig, max_query: usize, max_subject: usize) -> Self {
        let (m, n) = (max_query as i64, max_subject as i64);
        let gamma_pos = cfg.matrix.max_score().max(1) as i64;
        let gamma_neg = cfg.matrix.min_score().abs() as i64;
        let theta = cfg.gap.theta().abs() as i64;
        let beta = cfg.gap.beta().abs() as i64;

        // Upper bound: a path has at most min(m, n) diagonal steps and
        // gaps only lose score. (+1 absorbs the empty-prefix cell.)
        let t_max = gamma_pos * (m.min(n) + 1);
        let t_min = match cfg.kind {
            // Eq. 2's `0` operand clamps local cells from below.
            AlignKind::Local => 0,
            AlignKind::Global | AlignKind::SemiGlobal => {
                // Worst path: ≤ m+n+2 steps, each losing the worst
                // per-step amount, plus one gap opening per direction.
                let step = gamma_neg.max(gamma_pos).max(beta);
                -((m + n + 2) * step + theta)
            }
        };
        // U/L = max(T + θ + β, self + β): one opening below T at worst,
        // and never above it (Eq. 3–4 only subtract).
        let ul_max = t_max;
        let ul_min = t_min - (theta + beta);
        // Sentinel + bias margin, both directions. The kernel's
        // saturation-detection margin is `|max matrix entry| + 1`
        // (striped/columns.rs) even when every entry is negative —
        // `gamma_pos` alone under-covers an all-negative matrix, so
        // the magnitude of the extreme entry participates too
        // (keeps `fits` at least as strict as the certify prover).
        let gamma_hr = (cfg.matrix.max_score().abs() as i64).max(gamma_pos);
        let headroom = 2 * (gamma_hr + theta + beta + 2);
        Self {
            t_min,
            t_max,
            ul_min,
            ul_max,
            headroom,
        }
    }

    /// Largest magnitude any kernel intermediate can reach, headroom
    /// included.
    pub fn magnitude(&self) -> i64 {
        self.t_max
            .abs()
            .max(self.t_min.abs())
            .max(self.ul_min.abs())
            .max(self.ul_max.abs())
            + self.headroom
    }

    /// Can a `bits`-wide signed element provably represent every
    /// intermediate value? For 8/16-bit elements the cap is the type's
    /// max; 32-bit kernels clamp at `i32::MAX / 4` (the `NEG_INF`
    /// sentinel convention), so even i32 can wrap for astronomically
    /// long inputs — that is the "reject outright" case.
    pub fn fits(&self, bits: u32) -> bool {
        let cap: i64 = match bits {
            8 => i8::MAX as i64,
            16 => i16::MAX as i64,
            32 => (i32::MAX / 4) as i64,
            _ => return true,
        };
        // U/L overshoot below T is ≤ |θ| + |β|, which headroom
        // already double-covers; the T-range test is therefore the
        // same threshold the width policy has always used.
        self.t_max.abs().max(self.t_min.abs()) + self.headroom < cap
    }

    /// Smallest lane width (8, 16 or 32 bits) that provably holds
    /// every intermediate, or `None` when even i32 would wrap — such
    /// a configuration must be rejected, not run.
    pub fn min_lane_bits(&self) -> Option<u32> {
        aalign_vec::WIDTHS.into_iter().find(|&b| self.fits(b))
    }

    /// Bias constant for unsigned-arithmetic lanes: shifting every
    /// value up by this much makes the whole interval non-negative.
    pub fn bias(&self) -> i64 {
        (-self.t_min.min(self.ul_min)).max(0)
    }

    /// Saturation ceiling for a `bits`-wide lane: scores at or above
    /// this trigger the retry-wider path.
    pub fn saturation_ceiling(&self, bits: u32) -> i64 {
        let cap: i64 = match bits {
            8 => i8::MAX as i64,
            16 => i16::MAX as i64,
            _ => (i32::MAX / 4) as i64,
        };
        cap - self.headroom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalign_bio::matrices::BLOSUM62;

    #[test]
    fn table2_affine_matches_paper_alg1() {
        // Alg. 1 uses GAP_OPEN (= θ+β) from T cells and GAP_EXT (= β)
        // from L/U cells.
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let t2 = cfg.table2();
        assert_eq!(t2.gap_left, -12);
        assert_eq!(t2.gap_left_ext, -2);
        assert_eq!(t2.gap_up, -12);
        assert_eq!(t2.gap_up_ext, -2);
        assert!(t2.local);
        assert!(t2.affine);
    }

    #[test]
    fn table2_linear_sets_theta_zero() {
        let cfg = AlignConfig::global(GapModel::linear(-3), &BLOSUM62);
        let t2 = cfg.table2();
        assert_eq!(t2.gap_left, -3);
        assert_eq!(t2.gap_left_ext, -3);
        assert!(!t2.affine);
        assert!(!t2.local);
    }

    #[test]
    fn local_boundaries_are_zero() {
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let t2 = cfg.table2();
        for i in 0..5 {
            assert_eq!(t2.init_t(i), 0);
            assert_eq!(t2.init_col(i), 0);
        }
    }

    #[test]
    fn global_boundaries_are_gap_ramps() {
        let cfg = AlignConfig::global(GapModel::affine(-10, -2), &BLOSUM62);
        let t2 = cfg.table2();
        assert_eq!(t2.init_t(0), 0);
        assert_eq!(t2.init_t(1), -12); // one subject char vs nothing
        assert_eq!(t2.init_t(2), -14);
        assert_eq!(t2.init_col(0), -12); // one query char vs nothing
        assert_eq!(t2.init_col(1), -14);
    }

    #[test]
    fn gap_score_totals() {
        let aff = GapModel::affine(-10, -2);
        assert_eq!(aff.gap_score(1), -12);
        assert_eq!(aff.gap_score(5), -20);
        let lin = GapModel::linear(-4);
        assert_eq!(lin.gap_score(3), -12);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn zero_extension_rejected() {
        let _ = GapModel::linear(0);
    }

    #[test]
    #[should_panic(expected = "≤ 0")]
    fn positive_open_rejected() {
        let _ = GapModel::affine(1, -2);
    }

    #[test]
    fn score_bound_dominates_reality() {
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        // A perfect 100-long W match scores 1100 < bound.
        assert!(cfg.score_bound(100, 100) >= 1100);
    }

    #[test]
    fn headroom_covers_kernel_detection_margin() {
        // The striped kernels reserve `|max matrix entry| + 1` of
        // detection margin (columns.rs). `headroom` must dominate it
        // for every matrix shape, or `fits` could approve a width the
        // kernel immediately rescues out of.
        use aalign_bio::{alphabet::DNA, SubstMatrix};
        let cases = [
            ("all-max", SubstMatrix::new("all-max", &DNA, vec![11; 25])),
            ("all-neg", SubstMatrix::new("all-neg", &DNA, vec![-127; 25])),
            ("dna", SubstMatrix::dna(2, -3)),
            ("blosum62", BLOSUM62.clone()),
        ];
        let gaps = [
            GapModel::affine(-10, -2),
            GapModel::affine(0, -1), // θ-boundary: zero-open affine
            GapModel::linear(-1),    // minimal extension
        ];
        for (name, matrix) in &cases {
            for gap in gaps {
                let cfg = AlignConfig::local(gap, matrix);
                let t2 = cfg.table2();
                let kernel_margin = (matrix.max_score().abs())
                    .max(t2.gap_up.abs())
                    .max(t2.gap_left.abs()) as i64
                    + 1;
                let b = cfg.score_bounds(64, 64);
                assert!(
                    b.headroom >= kernel_margin,
                    "{name}/{gap:?}: headroom {} < kernel margin {kernel_margin}",
                    b.headroom
                );
            }
        }
    }

    #[test]
    fn all_negative_matrix_does_not_fit_i8() {
        // Regression for the historic `fits`/prover divergence: with
        // entries of −127 the i8 detection threshold is negative, so
        // rescue fires on every local input — `fits(8)` must say no.
        use aalign_bio::{alphabet::DNA, SubstMatrix};
        let m = SubstMatrix::new("all-neg", &DNA, vec![-127; 25]);
        let cfg = AlignConfig::local(GapModel::linear(-1), &m);
        let b = cfg.score_bounds(10, 10);
        assert!(!b.fits(8));
        assert!(b.fits(16));
        assert_eq!(b.min_lane_bits(), Some(16));
    }

    #[test]
    fn theta_boundary_affine_fits_like_linear() {
        // affine(0, β) and linear(β) derive identical Table II
        // constants, so their bounds and width verdicts must agree.
        let a = AlignConfig::local(GapModel::affine(0, -2), &BLOSUM62);
        let l = AlignConfig::local(GapModel::linear(-2), &BLOSUM62);
        let (ba, bl) = (a.score_bounds(100, 100), l.score_bounds(100, 100));
        assert_eq!(ba, bl);
        assert_eq!(a.table2().gap_up, l.table2().gap_up);
    }

    #[test]
    fn labels() {
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        assert_eq!(cfg.label(), "sw-aff");
        let cfg = AlignConfig::global(GapModel::linear(-2), &BLOSUM62);
        assert_eq!(cfg.label(), "nw-lin");
    }
}
