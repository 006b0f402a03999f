//! Bounded-exhaustive differential verification of the vector kernels
//! (the **conformance harness**; `conformance` cargo feature).
//!
//! The rest of the crate trusts the striped/banded/inter/traceback
//! kernels on property tests over random pairs. This module removes
//! the randomness: it enumerates **every** query/subject pair up to a
//! length bound over a tiny alphabet — in the spirit of loom's
//! bounded-exhaustive schedule exploration — and checks every kernel
//! variant **bit-exactly** against [`paradigm_dp`], the executable
//! Eq. (3–6) ground truth. Because the pair space is enumerated
//! completely, a kernel that diverges from the paradigm on *any*
//! input within the bound is caught deterministically, not
//! probabilistically.
//!
//! Three design rules keep the harness honest:
//!
//! 1. **Determinism.** Enumeration order is a pure function of the
//!    bounds (length-then-lexicographic); variant and config grids
//!    are fixed vectors. Two runs of [`run_harness`] with equal
//!    options produce identical reports (property-tested).
//! 2. **Report, don't panic.** Divergences come back as
//!    [`Mismatch`] records so the analyzer CLI can print them (and CI
//!    can upload them) instead of dying mid-enumeration.
//! 3. **Self-test with teeth.** [`Mutation`] perturbs exactly one
//!    max/gap term of the configuration handed to the kernels (the
//!    reference keeps the pristine one). A harness that cannot
//!    *catch* every such mutation is vacuous; the
//!    mutation-self-test in `tests/static_verification.rs` proves
//!    ours can.
//!
//! The harness also checks the **lazy-F sweep bound** the analyzer's
//! `lazy-f-bound` obligation derives symbolically: a striped-iterate
//! column's correction loop runs at most `LANES` whole-column sweeps,
//! so a run's total `lazy_sweeps` is bounded by
//! `iterate_columns × LANES`. Violations are reported like score
//! mismatches.

use aalign_bio::{Sequence, StripedProfile, SubstMatrix};
use aalign_obs::NullSink;
use aalign_vec::{EmuEngine, ScoreElem};

use crate::banded::banded_align_certified;
use crate::config::{AlignConfig, AlignKind, GapModel};
use crate::inter::{inter_align_batch, InterWorkspace, LaneProfile};
use crate::paradigm::paradigm_dp;
use crate::striped::{align_columns, Columns, HybridPolicy, Workspace};
use crate::traceback::traceback_align;

/// Enumeration bounds: all sequences over the first `alphabet_size`
/// letters of the matrix alphabet, of length `0..=max_len` (subjects)
/// and `1..=max_len` (queries — the kernels require a non-empty
/// query).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumBounds {
    /// Letters used (≤ the alphabet size of the matrix; 2 keeps the
    /// pair count small while still distinguishing match/mismatch).
    pub alphabet_size: u8,
    /// Maximum sequence length `k`.
    pub max_len: usize,
}

impl EnumBounds {
    /// The CI-sized default: 2 letters × length ≤ 3 → 14 queries ×
    /// 15 subjects = 210 pairs per configuration.
    pub fn ci() -> Self {
        Self {
            alphabet_size: 2,
            max_len: 3,
        }
    }

    /// Number of index vectors of length `0..=max_len` (resp.
    /// `1..=max_len` for queries).
    pub fn sequence_count(&self, include_empty: bool) -> usize {
        let a = self.alphabet_size as usize;
        let mut total = usize::from(include_empty);
        let mut pow = 1usize;
        for _ in 1..=self.max_len {
            pow *= a;
            total += pow;
        }
        total
    }
}

/// All index vectors over `alphabet_size` letters with length
/// `min_len..=max_len`, in **deterministic** order: by length
/// ascending, then lexicographically. This order is part of the
/// harness contract (the determinism proptests pin it), so reports
/// and baselines are reproducible across hosts.
pub fn enumerate_indices(alphabet_size: u8, min_len: usize, max_len: usize) -> Vec<Vec<u8>> {
    assert!(alphabet_size >= 1, "need at least one letter");
    let a = alphabet_size as usize;
    let mut out = Vec::new();
    for len in min_len..=max_len {
        // Decode 0..a^len as `len` base-`a` digits, most significant
        // first — counting up is lexicographic by construction.
        let count = a.pow(len as u32);
        for i in 0..count {
            let mut digits = vec![0u8; len];
            let mut x = i;
            for pos in (0..len).rev() {
                digits[pos] = (x % a) as u8;
                x /= a;
            }
            out.push(digits);
        }
    }
    out
}

/// The hybrid's policy in the grid: aggressive switching (threshold
/// 1, probe stride 2) so it exercises both strategies even on
/// length-3 subjects.
const HYBRID: Columns = Columns::Hybrid(HybridPolicy {
    threshold: 1,
    probe_stride: 2,
});

/// One kernel shape under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// A striped kernel at a concrete element width × lane count
    /// (run on [`EmuEngine`], the semantics oracle every hardware
    /// backend is property-tested against).
    Striped {
        /// Which strategy the driver runs.
        strat: Columns,
        /// Element bits: 8, 16 or 32.
        bits: u8,
        /// Lane count (2 forces multi-segment stripes even at tiny
        /// query lengths, which is where the lazy loop earns its keep).
        lanes: u8,
    },
    /// Inter-sequence kernel (one lane per subject) at a width.
    Inter {
        /// Element bits.
        bits: u8,
    },
    /// Certified banded alignment (provably exact band width).
    Banded,
    /// Scalar traceback: the reconstructed path's score.
    Traceback,
}

impl Variant {
    /// Stable display name, e.g. `striped-iterate/i16x4`.
    pub fn name(&self) -> String {
        match self {
            Variant::Striped { strat, bits, lanes } => {
                let strat = match strat {
                    Columns::Iterate => "striped-iterate",
                    Columns::Scan => "striped-scan",
                    Columns::Hybrid(_) => "striped-hybrid",
                };
                format!("{strat}/i{bits}x{lanes}")
            }
            Variant::Inter { bits } => format!("inter/i{bits}x{INTER_LANES}"),
            Variant::Banded => "banded-certified".to_string(),
            Variant::Traceback => "traceback".to_string(),
        }
    }
}

const INTER_LANES: usize = 4;

/// The fixed variant grid: every striped strategy × the width/lane
/// shapes {i8×2, i16×2, i16×4, i32×4}, the inter kernel at i8, i16
/// and i32, certified banded, and traceback. Order is deterministic and
/// pinned by `conformance_baseline.txt`.
pub fn all_variants() -> Vec<Variant> {
    let mut v = Vec::new();
    for strat in [Columns::Iterate, Columns::Scan, HYBRID] {
        for (bits, lanes) in [(8u8, 2u8), (16, 2), (16, 4), (32, 4)] {
            v.push(Variant::Striped { strat, bits, lanes });
        }
    }
    for bits in [8u8, 16, 32] {
        v.push(Variant::Inter { bits });
    }
    v.push(Variant::Banded);
    v.push(Variant::Traceback);
    v
}

/// A single-term perturbation of the configuration handed to the
/// kernels under test (the scalar reference keeps the pristine
/// configuration). Every variant is constructed to keep the mutated
/// configuration *valid* — the point is a wrong score, not a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// β ← β − 1 (the extension term of every `GAP_*_EXT` constant).
    GapExt,
    /// θ ← θ − 1 (linear configurations become affine(−1, β): the
    /// harness must notice the extra open term).
    GapOpen,
    /// γ(0,0) ← γ(0,0) + 1 (one diagonal max operand).
    MatchScore,
    /// γ(0,1) ← γ(0,1) − 1 (one off-diagonal max operand).
    MismatchScore,
}

impl Mutation {
    /// All mutations, in seed order.
    pub const ALL: [Mutation; 4] = [
        Mutation::GapExt,
        Mutation::GapOpen,
        Mutation::MatchScore,
        Mutation::MismatchScore,
    ];

    /// Pick a mutation from a seed (splitmix64 over the seed, so
    /// nearby seeds still select different variants).
    pub fn from_seed(seed: u64) -> Mutation {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self::ALL[(z % Self::ALL.len() as u64) as usize]
    }

    /// Stable display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::GapExt => "gap-ext-minus-1",
            Mutation::GapOpen => "gap-open-minus-1",
            Mutation::MatchScore => "match-score-plus-1",
            Mutation::MismatchScore => "mismatch-score-minus-1",
        }
    }

    /// Apply the perturbation, producing the configuration the
    /// kernels (and only the kernels) will run.
    pub fn apply(&self, cfg: &AlignConfig) -> AlignConfig {
        match self {
            Mutation::GapExt => {
                let gap = match cfg.gap {
                    GapModel::Linear { ext } => GapModel::linear(ext - 1),
                    GapModel::Affine { open, ext } => GapModel::affine(open, ext - 1),
                };
                AlignConfig::new(cfg.kind, gap, &cfg.matrix)
            }
            Mutation::GapOpen => {
                let gap = match cfg.gap {
                    GapModel::Linear { ext } => GapModel::affine(-1, ext),
                    GapModel::Affine { open, ext } => GapModel::affine(open - 1, ext),
                };
                AlignConfig::new(cfg.kind, gap, &cfg.matrix)
            }
            Mutation::MatchScore => perturb_matrix(cfg, 0, 0, 1),
            Mutation::MismatchScore => perturb_matrix(cfg, 0, 1, -1),
        }
    }
}

fn perturb_matrix(cfg: &AlignConfig, a: u8, b: u8, delta: i32) -> AlignConfig {
    let n = cfg.matrix.size();
    assert!(
        (a as usize) < n && (b as usize) < n,
        "mutation outside matrix"
    );
    let mut scores = Vec::with_capacity(n * n);
    for row in 0..n as u8 {
        scores.extend_from_slice(cfg.matrix.row(row));
    }
    scores[a as usize * n + b as usize] += delta;
    let mutated = SubstMatrix::new(
        format!("{}-mut", cfg.matrix.name()),
        cfg.matrix.alphabet(),
        scores,
    );
    AlignConfig::new(cfg.kind, cfg.gap, &mutated)
}

/// One bit-exactness failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Kernel variant that diverged.
    pub variant: String,
    /// Configuration label (`sw-aff`, …).
    pub config: String,
    /// Query indices.
    pub query: Vec<u8>,
    /// Subject indices.
    pub subject: Vec<u8>,
    /// Kernel score.
    pub got: i32,
    /// `paradigm_dp` score.
    pub want: i32,
}

impl core::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} {} q={:?} s={:?}: got {}, want {}",
            self.config, self.variant, self.query, self.subject, self.got, self.want
        )
    }
}

/// Per-variant counters for one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantStat {
    /// Variant display name.
    pub variant: String,
    /// Score comparisons performed.
    pub checks: u64,
    /// Narrow runs excluded because the kernel reported saturation
    /// (the rescue-ladder premise: such scores are *retried wider*,
    /// never trusted — a wider variant in the grid re-checks the same
    /// pair).
    pub skipped_saturated: u64,
}

/// Differential result for one configuration over the full pair
/// enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigReport {
    /// Configuration label (`sw-aff`, …).
    pub config: String,
    /// Query × subject pairs enumerated.
    pub pairs: usize,
    /// Per-variant counters (same order as [`all_variants`]).
    pub stats: Vec<VariantStat>,
    /// Score divergences (capped at [`MISMATCH_CAP`] records;
    /// `mismatch_count` has the true total).
    pub mismatches: Vec<Mismatch>,
    /// Total divergences found (may exceed `mismatches.len()`).
    pub mismatch_count: u64,
    /// Structural violations (lazy-sweep bound, i32 saturation):
    /// failures of *derived invariants* rather than score equality.
    pub violations: Vec<String>,
}

/// Keep at most this many [`Mismatch`] records per configuration.
pub const MISMATCH_CAP: usize = 8;

/// Full harness outcome across the configuration grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceReport {
    /// One report per configuration, grid order.
    pub configs: Vec<ConfigReport>,
    /// The mutation applied to the kernel side, if any.
    pub mutation: Option<String>,
}

impl ConformanceReport {
    /// True when every kernel matched `paradigm_dp` bit-exactly and
    /// no derived invariant was violated.
    pub fn is_bit_exact(&self) -> bool {
        self.configs
            .iter()
            .all(|c| c.mismatch_count == 0 && c.violations.is_empty())
    }

    /// Total score comparisons across the whole run.
    pub fn total_checks(&self) -> u64 {
        self.configs
            .iter()
            .flat_map(|c| c.stats.iter())
            .map(|s| s.checks)
            .sum()
    }

    /// Total divergences across the whole run.
    pub fn total_mismatches(&self) -> u64 {
        self.configs.iter().map(|c| c.mismatch_count).sum()
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "conformance harness: {} configs × {} pairs, {} checks, {} mismatches{}",
            self.configs.len(),
            self.configs.first().map_or(0, |c| c.pairs),
            self.total_checks(),
            self.total_mismatches(),
            self.mutation
                .as_deref()
                .map(|m| format!(" (mutation: {m})"))
                .unwrap_or_default(),
        )
    }
}

/// Harness options: enumeration bounds × the configuration grid.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Enumeration bounds.
    pub bounds: EnumBounds,
    /// Alignment kinds to grid over.
    pub kinds: Vec<AlignKind>,
    /// Gap systems to grid over.
    pub gaps: Vec<GapModel>,
    /// Substitution scores for the tiny-alphabet matrix
    /// (`SubstMatrix::dna(match, mismatch)`).
    pub match_score: i32,
    /// Mismatch score.
    pub mismatch_score: i32,
    /// Optional kernel-side perturbation (mutation self-test).
    pub mutation: Option<Mutation>,
}

impl HarnessOptions {
    /// The CI grid: {sw, nw, sg} × {lin(−2), aff(−3, −1)} over
    /// DNA(+2/−3), bounds [`EnumBounds::ci`].
    pub fn ci() -> Self {
        Self {
            bounds: EnumBounds::ci(),
            kinds: vec![AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal],
            gaps: vec![GapModel::linear(-2), GapModel::affine(-3, -1)],
            match_score: 2,
            mismatch_score: -3,
            mutation: None,
        }
    }
}

/// Run the harness over the full configuration grid.
pub fn run_harness(opts: &HarnessOptions) -> ConformanceReport {
    let matrix = SubstMatrix::dna(opts.match_score, opts.mismatch_score);
    let mut configs = Vec::new();
    for &kind in &opts.kinds {
        for &gap in &opts.gaps {
            let cfg = AlignConfig::new(kind, gap, &matrix);
            configs.push(run_config(&cfg, &opts.bounds, opts.mutation));
        }
    }
    ConformanceReport {
        configs,
        mutation: opts.mutation.map(|m| m.name().to_string()),
    }
}

/// Run every variant for **one** configuration over the enumeration.
/// This is the entry point the analyzer uses for codegen-extracted
/// configurations ([`spec_to_config`] output): "verify, then
/// generate".
///
/// [`spec_to_config`]: https://docs.rs/aalign-codegen
pub fn run_config(
    cfg: &AlignConfig,
    bounds: &EnumBounds,
    mutation: Option<Mutation>,
) -> ConfigReport {
    let alphabet = cfg.matrix.alphabet();
    assert!(
        (bounds.alphabet_size as usize) <= alphabet.len(),
        "enumeration alphabet larger than the matrix alphabet"
    );
    let kernel_cfg = mutation.map_or_else(|| cfg.clone(), |m| m.apply(cfg));

    let queries: Vec<Sequence> = enumerate_indices(bounds.alphabet_size, 1, bounds.max_len)
        .into_iter()
        .enumerate()
        .map(|(i, idx)| Sequence::from_indices(format!("q{i}"), alphabet, idx))
        .collect();
    let subjects: Vec<Sequence> = enumerate_indices(bounds.alphabet_size, 0, bounds.max_len)
        .into_iter()
        .enumerate()
        .map(|(i, idx)| Sequence::from_indices(format!("s{i}"), alphabet, idx))
        .collect();

    // Reference scores, once per pair (query-major).
    let want: Vec<Vec<i32>> = queries
        .iter()
        .map(|q| {
            subjects
                .iter()
                .map(|s| paradigm_dp(cfg, q, s).score)
                .collect()
        })
        .collect();

    let mut report = ConfigReport {
        config: cfg.label(),
        pairs: queries.len() * subjects.len(),
        stats: Vec::new(),
        mismatches: Vec::new(),
        mismatch_count: 0,
        violations: Vec::new(),
    };

    for variant in all_variants() {
        let mut stat = VariantStat {
            variant: variant.name(),
            checks: 0,
            skipped_saturated: 0,
        };
        match variant {
            Variant::Striped { strat, bits, lanes } => {
                run_striped_variant(
                    &kernel_cfg,
                    &queries,
                    &subjects,
                    &want,
                    strat,
                    bits,
                    lanes,
                    &mut stat,
                    &mut report,
                );
            }
            Variant::Inter { bits } => {
                run_inter_variant(
                    &kernel_cfg,
                    &queries,
                    &subjects,
                    &want,
                    bits,
                    &mut stat,
                    &mut report,
                );
            }
            Variant::Banded => {
                for (qi, q) in queries.iter().enumerate() {
                    for (si, s) in subjects.iter().enumerate() {
                        let got = banded_align_certified(&kernel_cfg, q, s, 1).score;
                        stat.checks += 1;
                        record(&mut report, &variant.name(), q, s, got, want[qi][si]);
                    }
                }
            }
            Variant::Traceback => {
                for (qi, q) in queries.iter().enumerate() {
                    for (si, s) in subjects.iter().enumerate() {
                        let got = traceback_align(&kernel_cfg, q, s).score;
                        stat.checks += 1;
                        record(&mut report, &variant.name(), q, s, got, want[qi][si]);
                    }
                }
            }
        }
        report.stats.push(stat);
    }
    report
}

fn record(
    report: &mut ConfigReport,
    variant: &str,
    q: &Sequence,
    s: &Sequence,
    got: i32,
    want: i32,
) {
    if got != want {
        report.mismatch_count += 1;
        if report.mismatches.len() < MISMATCH_CAP {
            report.mismatches.push(Mismatch {
                variant: variant.to_string(),
                config: report.config.clone(),
                query: q.indices().to_vec(),
                subject: s.indices().to_vec(),
                got,
                want,
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_striped_variant(
    kernel_cfg: &AlignConfig,
    queries: &[Sequence],
    subjects: &[Sequence],
    want: &[Vec<i32>],
    strat: Columns,
    bits: u8,
    lanes: u8,
    stat: &mut VariantStat,
    report: &mut ConfigReport,
) {
    match (bits, lanes) {
        (8, 2) => striped_elem::<i8, 2>(kernel_cfg, queries, subjects, want, strat, stat, report),
        (16, 2) => striped_elem::<i16, 2>(kernel_cfg, queries, subjects, want, strat, stat, report),
        (16, 4) => striped_elem::<i16, 4>(kernel_cfg, queries, subjects, want, strat, stat, report),
        (32, 4) => striped_elem::<i32, 4>(kernel_cfg, queries, subjects, want, strat, stat, report),
        other => unreachable!("unsupported striped shape {other:?}"),
    }
}

fn striped_elem<T: ScoreElem, const LANES: usize>(
    kernel_cfg: &AlignConfig,
    queries: &[Sequence],
    subjects: &[Sequence],
    want: &[Vec<i32>],
    strat: Columns,
    stat: &mut VariantStat,
    report: &mut ConfigReport,
) {
    let t2 = kernel_cfg.table2();
    let variant = Variant::Striped {
        strat,
        bits: T::BITS as u8,
        lanes: LANES as u8,
    }
    .name();
    let eng = EmuEngine::<T, LANES>::new();
    let mut ws = Workspace::new();
    for (qi, q) in queries.iter().enumerate() {
        let prof = StripedProfile::<T>::build(q, &kernel_cfg.matrix, LANES);
        for (si, s) in subjects.iter().enumerate() {
            let res =
                align_columns(eng, &prof, s.indices(), t2, strat, &mut ws, &mut NullSink).result;
            // Lazy-F sweep bound (the analyzer's derived ≤ P): each
            // iterate column corrects in at most LANES sweeps.
            let sweep_cap = res.iterate_columns as u64 * LANES as u64;
            if res.lazy_sweeps > sweep_cap {
                report.violations.push(format!(
                    "{variant} q={:?} s={:?}: {} lazy sweeps exceed the ≤ P bound ({} iterate \
                     columns × {} lanes = {sweep_cap})",
                    q.indices(),
                    s.indices(),
                    res.lazy_sweeps,
                    res.iterate_columns,
                    LANES,
                ));
            }
            if res.saturated {
                if T::BITS == 32 {
                    report.violations.push(format!(
                        "{variant} q={:?} s={:?}: i32 lanes reported saturation at \
                         conformance bounds",
                        q.indices(),
                        s.indices(),
                    ));
                }
                // Rescue-ladder premise: a saturated narrow score is
                // retried wider, never trusted — the wider shapes in
                // the grid re-check this pair.
                stat.skipped_saturated += 1;
                continue;
            }
            stat.checks += 1;
            record(report, &variant, q, s, res.score, want[qi][si]);
        }
    }
}

fn run_inter_variant(
    kernel_cfg: &AlignConfig,
    queries: &[Sequence],
    subjects: &[Sequence],
    want: &[Vec<i32>],
    bits: u8,
    stat: &mut VariantStat,
    report: &mut ConfigReport,
) {
    match bits {
        8 => inter_elem::<i8>(kernel_cfg, queries, subjects, want, stat, report),
        16 => inter_elem::<i16>(kernel_cfg, queries, subjects, want, stat, report),
        32 => inter_elem::<i32>(kernel_cfg, queries, subjects, want, stat, report),
        other => unreachable!("unsupported inter width i{other}"),
    }
}

fn inter_elem<T: ScoreElem>(
    kernel_cfg: &AlignConfig,
    queries: &[Sequence],
    subjects: &[Sequence],
    want: &[Vec<i32>],
    stat: &mut VariantStat,
    report: &mut ConfigReport,
) {
    let t2 = kernel_cfg.table2();
    let variant = Variant::Inter {
        bits: T::BITS as u8,
    }
    .name();
    let eng = EmuEngine::<T, INTER_LANES>::new();
    let mut ws = InterWorkspace::new();
    // Every subject in one refilled batch: each lane runs subject after
    // subject, so a score also checks the hand-offs before it.
    let refs: Vec<&Sequence> = subjects.iter().collect();
    for (qi, q) in queries.iter().enumerate() {
        let prof = LaneProfile::build(q, &kernel_cfg.matrix);
        let batch = inter_align_batch(eng, t2, &prof, &refs, &mut ws);
        for (si, &got) in batch.scores.iter().enumerate() {
            if batch.saturated[si] {
                stat.skipped_saturated += 1;
                continue;
            }
            stat.checks += 1;
            record(report, &variant, q, &subjects[si], got, want[qi][si]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_complete_and_ordered() {
        let seqs = enumerate_indices(2, 0, 3);
        assert_eq!(seqs.len(), 1 + 2 + 4 + 8);
        // Deterministic: by length, then lexicographic.
        for w in seqs.windows(2) {
            let key = |v: &Vec<u8>| (v.len(), v.clone());
            assert!(key(&w[0]) < key(&w[1]), "{w:?} out of order");
        }
        // Completeness at length 2 over 2 letters.
        let len2: Vec<Vec<u8>> = seqs.iter().filter(|v| v.len() == 2).cloned().collect();
        assert_eq!(len2, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn sequence_count_matches_enumeration() {
        let b = EnumBounds {
            alphabet_size: 3,
            max_len: 2,
        };
        assert_eq!(b.sequence_count(true), enumerate_indices(3, 0, 2).len());
        assert_eq!(b.sequence_count(false), enumerate_indices(3, 1, 2).len());
    }

    #[test]
    fn ci_harness_is_bit_exact() {
        let report = run_harness(&HarnessOptions::ci());
        assert!(
            report.is_bit_exact(),
            "mismatches: {:?}\nviolations: {:?}",
            report
                .configs
                .iter()
                .flat_map(|c| c.mismatches.iter())
                .collect::<Vec<_>>(),
            report
                .configs
                .iter()
                .flat_map(|c| c.violations.iter())
                .collect::<Vec<_>>(),
        );
        assert_eq!(report.configs.len(), 6, "3 kinds × 2 gap systems");
        assert!(report.total_checks() > 0);
    }

    #[test]
    fn every_mutation_is_caught() {
        for m in Mutation::ALL {
            let mut opts = HarnessOptions::ci();
            opts.mutation = Some(m);
            let report = run_harness(&opts);
            assert!(
                report.total_mismatches() > 0,
                "mutation {} slipped through the harness",
                m.name()
            );
        }
    }

    #[test]
    fn harness_is_deterministic() {
        let a = run_harness(&HarnessOptions::ci());
        let b = run_harness(&HarnessOptions::ci());
        assert_eq!(a, b);
    }

    #[test]
    fn mutation_seed_selection_is_total() {
        for seed in 0..32 {
            let _ = Mutation::from_seed(seed); // no panic, any seed maps
        }
    }
}
