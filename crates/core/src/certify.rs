//! Saturation-certificate prover: interval abstract interpretation
//! over the generalized recurrences (Eq. 2–6), per anti-diagonal
//! wavefront, proving that every intermediate DP cell — *including*
//! the arithmetic the kernels add around the mathematical values —
//! stays strictly inside a lane width's saturating range.
//!
//! # Relationship to [`ScoreBounds`](crate::config::ScoreBounds)
//!
//! [`ScoreBounds`](crate::config::ScoreBounds) is the closed-form
//! interval analysis the width policy has always consulted: one
//! algebraic bound per table, derived from path arguments. This module
//! is the *cell-level* refinement: it iterates the abstract wavefront
//! `d = i + j` from `0` to `m + n`, propagating value intervals for
//! `T`, `U`/`L`, the diagonal substitution term, and the boundary gap
//! ramps through the exact recurrence structure, and checks every
//! abstract cell against the **kernel's own** saturation thresholds
//! (the sticky per-column guard and the finish-time checks in
//! `striped/columns.rs`), not just the lane's numeric range.
//!
//! The two analyses are kept mutually consistent by construction:
//! every abstract interval is clamped inside the closed-form bounds
//! (which are themselves sound), so the prover is never *more*
//! permissive than `ScoreBounds`, and `ScoreBounds::fits(bits)` is
//! never more permissive than the prover (`fits == true` implies a
//! granted certificate; see `fits_implies_granted` in the tests).
//! A granted certificate is therefore a strictly stronger statement:
//! it pins the kernel-added headroom terms (saturation-detection
//! margin, `NEG_INF` sentinel proximity, lazy-F/bias slack) to the
//! same thresholds `near_saturation` uses at run time, which is what
//! "rescue cannot fire" actually requires.
//!
//! # What a certificate buys
//!
//! [`WidthCertificate::granted`] means: for *any* query up to
//! `max_query` and *any* subject up to `max_subject` over this exact
//! (matrix, gap model, alignment kind), no `bits`-wide kernel run can
//! trip saturation detection, so the PR 5 rescue ladder is provably
//! dead weight and [`SearchMetrics::rescued`] must stay 0 — the
//! differential gate in `crates/par/tests/certify_rescue.rs` checks
//! exactly that. The runtime consumes certificates through
//! [`CertificateStore`]: `Aligner::narrow_ok` prefers a covering
//! granted certificate over recomputing `ScoreBounds::fits` per call,
//! and the `Auto` width ladder only starts at i8 when a certificate
//! says the narrow lane is rescue-free.
//!
//! [`SearchMetrics::rescued`]: ../../aalign_par/struct.SearchMetrics.html

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::config::{AlignConfig, AlignKind, GapModel};

/// Saturating cap for a `bits`-wide signed lane — `MAX_SCORE` in
/// `aalign_vec::elem` (i32 kernels clamp at `i32::MAX / 4`, the
/// `NEG_INF` sentinel convention).
pub fn lane_cap(bits: u32) -> i64 {
    match bits {
        8 => i8::MAX as i64,
        16 => i16::MAX as i64,
        _ => (i32::MAX / 4) as i64,
    }
}

/// The `NEG_INF` sentinel for a `bits`-wide lane (`aalign_vec::elem`:
/// `i8::MIN`, `i16::MIN`, `i32::MIN / 4`). Always `-cap - 1`.
pub fn lane_neg_inf(bits: u32) -> i64 {
    match bits {
        8 => i8::MIN as i64,
        16 => i16::MIN as i64,
        _ => (i32::MIN / 4) as i64,
    }
}

/// The detection margin the striped kernels reserve around the lane
/// range — mirrors the `headroom` computed in `striped/columns.rs`
/// (`max_matrix_score().abs().max(|GAP_UP|).max(|GAP_LEFT|) + 1`):
/// one worst-case single-step add plus one, so `near_saturation`
/// fires *before* a saturating add can silently clamp a real value.
pub fn kernel_headroom(cfg: &AlignConfig) -> i64 {
    let t2 = cfg.table2();
    (cfg.matrix.max_score().abs())
        .max(t2.gap_up.abs())
        .max(t2.gap_left.abs()) as i64
        + 1
}

/// The recurrence term an abstract extreme came from — what a denial
/// names as the violating term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertTerm {
    /// `T[i-1][j-1] + γ(q, s)` — the substitution diagonal.
    Diag,
    /// `T + (θ + β)` — opening a gap (Eq. 3–4's first operand).
    GapOpen,
    /// `U/L + β` — extending a gap (Eq. 3–4's second operand).
    GapExtend,
    /// The boundary gap ramp `INIT_T` / the initial column.
    BoundaryRamp,
    /// Eq. 2's `0` operand (local alignments clamp here).
    LocalZero,
}

impl CertTerm {
    /// Stable name used in diagnostics and baselines.
    pub fn name(self) -> &'static str {
        match self {
            CertTerm::Diag => "diag-substitution",
            CertTerm::GapOpen => "gap-open",
            CertTerm::GapExtend => "gap-extend",
            CertTerm::BoundaryRamp => "boundary-ramp",
            CertTerm::LocalZero => "local-zero",
        }
    }
}

/// Which side of the lane range an abstract cell crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossedBound {
    /// Above `cap − headroom`: `near_saturation` would fire.
    Ceiling,
    /// Below `NEG_INF + headroom`: the sentinel-proximity check
    /// (global/semi-global finish) would fire, or a real value could
    /// silently clamp into the sentinel.
    Floor,
}

/// A concrete input the prover predicts will saturate — the
/// non-vacuity side of a denial. Uniform sequences over the matrix's
/// arg-max entry: the pure-diagonal path alone scores
/// `γ_max · len`, a lower bound on the alignment score for every
/// alignment kind, so when that already reaches the detection
/// threshold the kernel *must* report saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Witness {
    /// Canonical letter for the query (repeat `len` times).
    pub query_letter: u8,
    /// Canonical letter for the subject (repeat `len` times).
    pub subject_letter: u8,
    /// Length of both uniform sequences (`≤ min(max_query, max_subject)`).
    pub len: usize,
    /// Provable lower bound on the resulting alignment score
    /// (`γ_max · len`); at or above the detection threshold.
    pub min_score: i64,
}

/// Why a certificate was denied: the first abstract wavefront cell
/// that can leave the safe range, which term put it there, and the
/// tightest uniform length bound that would have fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Denial {
    /// The violating recurrence term.
    pub term: CertTerm,
    /// Which table the cell belongs to (`"T"` or `"U/L"`).
    pub table: &'static str,
    /// Ceiling or floor crossing.
    pub bound: CrossedBound,
    /// Anti-diagonal index `d = i + j` of the first crossing.
    pub wavefront: usize,
    /// The abstract extreme that crossed.
    pub value: i64,
    /// The limit it had to stay within (inclusive).
    pub limit: i64,
    /// Largest uniform length `L` for which `(L, L)` would certify at
    /// this width, or `None` when even length 1 overflows.
    pub max_safe_len: Option<usize>,
    /// Concrete saturating input when the prover can exhibit one;
    /// `None` marks the denial as conservative (the abstract
    /// over-approximation crossed, but no constructive witness).
    pub witness: Option<Witness>,
}

/// Abstract cell bounds the wavefront iteration accumulated — the
/// evidence attached to a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellBounds {
    /// Hull of every abstract `T` cell (boundary included).
    pub t_lo: i64,
    /// Upper side of the `T` hull.
    pub t_hi: i64,
    /// Hull of every abstract `U`/`L` cell (the gap tables share
    /// bounds: Table II uses the same constants in both directions).
    pub ul_lo: i64,
    /// Upper side of the `U`/`L` hull.
    pub ul_hi: i64,
    /// The kernel detection margin the check used
    /// ([`kernel_headroom`]).
    pub headroom: i64,
}

/// A machine-checkable width certificate: the prover's verdict for
/// one (config, length bounds, lane width) tuple, self-describing
/// enough to be validated against the aligner it is installed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthCertificate {
    /// Fingerprint of the certified configuration
    /// ([`config_fingerprint`]): alignment kind, gap model, matrix
    /// name + every entry. A store refuses certificates whose
    /// fingerprint does not match the aligner's config.
    pub fingerprint: u64,
    /// Alignment kind the proof ran for.
    pub kind: AlignKind,
    /// Gap model the proof ran for.
    pub gap: GapModel,
    /// Matrix name (diagnostics only; the fingerprint is binding).
    pub matrix: String,
    /// Queries up to this length are covered.
    pub max_query: usize,
    /// Subjects up to this length are covered.
    pub max_subject: usize,
    /// Lane width the verdict is about (8, 16 or 32 bits).
    pub lane_bits: u32,
    /// `true`: every abstract cell stays strictly inside the
    /// saturating range — rescue provably cannot fire.
    pub granted: bool,
    /// The abstract hulls the verdict rests on.
    pub bounds: CellBounds,
    /// Populated iff `granted` is false.
    pub denial: Option<Denial>,
}

impl WidthCertificate {
    /// Does this certificate cover an `m`-long query against an
    /// `n`-long subject at `bits` wide lanes?
    pub fn covers(&self, bits: u32, m: usize, n: usize) -> bool {
        self.lane_bits == bits && m <= self.max_query && n <= self.max_subject
    }

    /// One-line summary, e.g.
    /// `i8 GRANTED dna/sw-aff q≤48 s≤1000`.
    pub fn summary(&self) -> String {
        format!(
            "i{} {} {}/{}-{} q≤{} s≤{}",
            self.lane_bits,
            if self.granted { "GRANTED" } else { "DENIED" },
            self.matrix,
            self.kind.short(),
            self.gap.short(),
            self.max_query,
            self.max_subject,
        )
    }
}

/// Order-independent fingerprint of everything a certificate's
/// soundness depends on: kind, gap model, matrix identity and every
/// score entry. Sequence *lengths* are deliberately excluded — they
/// are the certificate's own parameters.
pub fn config_fingerprint(cfg: &AlignConfig) -> u64 {
    let mut h = DefaultHasher::new();
    match cfg.kind {
        AlignKind::Local => 0u8,
        AlignKind::Global => 1,
        AlignKind::SemiGlobal => 2,
    }
    .hash(&mut h);
    match cfg.gap {
        GapModel::Linear { ext } => (0i32, 0i32, ext).hash(&mut h),
        GapModel::Affine { open, ext } => (1i32, open, ext).hash(&mut h),
    }
    cfg.matrix.name().hash(&mut h);
    let size = cfg.matrix.size() as u8;
    size.hash(&mut h);
    for a in 0..size {
        cfg.matrix.row(a).hash(&mut h);
    }
    h.finish()
}

/// Interval with provenance: which term produced each extreme.
#[derive(Debug, Clone, Copy)]
struct Iv {
    lo: i64,
    hi: i64,
    lo_term: CertTerm,
    hi_term: CertTerm,
}

impl Iv {
    fn point(v: i64, term: CertTerm) -> Self {
        Iv {
            lo: v,
            hi: v,
            lo_term: term,
            hi_term: term,
        }
    }

    fn shift(self, by: i64, term: CertTerm) -> Self {
        Iv {
            lo: self.lo + by,
            hi: self.hi + by,
            lo_term: term,
            hi_term: term,
        }
    }

    fn widen(self, lo_by: i64, hi_by: i64, term: CertTerm) -> Self {
        Iv {
            lo: self.lo + lo_by,
            hi: self.hi + hi_by,
            lo_term: term,
            hi_term: term,
        }
    }

    fn hull(a: Option<Iv>, b: Option<Iv>) -> Option<Iv> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(Iv {
                lo: if a.lo <= b.lo { a.lo } else { b.lo },
                hi: if a.hi >= b.hi { a.hi } else { b.hi },
                lo_term: if a.lo <= b.lo { a.lo_term } else { b.lo_term },
                hi_term: if a.hi >= b.hi { a.hi_term } else { b.hi_term },
            }),
        }
    }
}

/// Run the abstract wavefront iteration and produce the verdict for
/// one lane width. `O(max_query + max_subject)` time, `O(1)` space.
pub fn certify(
    cfg: &AlignConfig,
    max_query: usize,
    max_subject: usize,
    bits: u32,
) -> WidthCertificate {
    let mut cert = certify_raw(cfg, max_query, max_subject, bits);
    if let Some(denial) = &mut cert.denial {
        denial.max_safe_len = max_safe_uniform_len(cfg, bits);
        denial.witness = ceiling_witness(cfg, max_query, max_subject, bits, denial.bound);
    }
    cert
}

/// The iteration itself, without the denial refinements (`certify`
/// adds the tightest-length search and the witness; the binary search
/// calls this form to avoid recursing).
fn certify_raw(
    cfg: &AlignConfig,
    max_query: usize,
    max_subject: usize,
    bits: u32,
) -> WidthCertificate {
    let (m, n) = (max_query, max_subject);
    let t2 = cfg.table2();
    let gamma_max = cfg.matrix.max_score() as i64;
    let gamma_min = cfg.matrix.min_score() as i64;
    let gamma_pos = gamma_max.max(1);
    let cap = lane_cap(bits);
    let neg_inf = lane_neg_inf(bits);
    let kh = kernel_headroom(cfg);
    // The kernel's detection thresholds: `near_saturation` fires at
    // `score ≥ cap − kh`; the sentinel-proximity check fires at
    // `score ≤ NEG_INF + kh`. Strictly inside means:
    let ceil_limit = cap - kh - 1;
    let floor_limit = neg_inf + kh + 1;
    let local = cfg.kind == AlignKind::Local;
    let check_floor = !local;

    // Closed-form clamps (ScoreBounds::analyze): every abstract hull
    // is intersected with these sound algebraic bounds, which (a)
    // keeps the drifting gap-extension branch from unboundedly
    // widening U/L's lower side, and (b) guarantees the prover is
    // never more permissive than `ScoreBounds::fits`.
    let cf = cfg.score_bounds(m, n);

    let gap_open = t2.gap_up as i64; // θ + β, both directions (Table II)
    let gap_ext = t2.gap_up_ext as i64; // β

    let mut t_prev2: Option<Iv> = None; // T hull at d−2 (boundary included)
    let mut t_prev1: Option<Iv> = None; // T hull at d−1 (boundary included)
    let mut ul_prev: Option<Iv> = None; // U/L hull at d−1
    let mut acc_t: Option<Iv> = None; // running hull over every T cell
    let mut acc_ul: Option<Iv> = None; // running hull over every U/L cell
    let mut denial: Option<Denial> = None;

    for d in 0..=(m + n) {
        // Boundary cells on this diagonal: T_{d,0} (subject ramp) and
        // T_{0,d} (query ramp; stored as init_col(d−1)).
        let mut boundary: Option<Iv> = None;
        if d <= n {
            let term = if t2.init_t(d) == 0 {
                CertTerm::LocalZero
            } else {
                CertTerm::BoundaryRamp
            };
            boundary = Iv::hull(boundary, Some(Iv::point(t2.init_t(d) as i64, term)));
        }
        if d >= 1 && d <= m {
            let v = t2.init_col(d - 1) as i64;
            let term = if v == 0 {
                CertTerm::LocalZero
            } else {
                CertTerm::BoundaryRamp
            };
            boundary = Iv::hull(boundary, Some(Iv::point(v, term)));
        }

        // Interior cells exist for 2 ≤ d ≤ m + n (i ≥ 1 and j ≥ 1).
        let has_interior = d >= 2;
        let (t_int, ul_int) = if has_interior {
            // Eq. 3–4: U = max(T′ + θ + β, U′ + β); L symmetric with
            // the same Table II constants, so one hull covers both.
            let open_branch = t_prev1.map(|iv| iv.shift(gap_open, CertTerm::GapOpen));
            let ext_branch = ul_prev.map(|iv| iv.shift(gap_ext, CertTerm::GapExtend));
            let mut ul = Iv::hull(open_branch, ext_branch);
            if let Some(iv) = &mut ul {
                // Clamp by the closed-form U/L lower bound: a gap
                // table value is itself a legal path score, at most
                // one opening below the worst T (config.rs).
                if iv.lo < cf.ul_min {
                    iv.lo = cf.ul_min;
                }
            }

            // Eq. 5: D = T″ + γ.
            let diag = t_prev2.map(|iv| iv.widen(gamma_min, gamma_max, CertTerm::Diag));

            // Eq. 2: T = max([0], D, U, L).
            let mut t = Iv::hull(diag, ul);
            if let Some(iv) = &mut t {
                if local {
                    if iv.lo < 0 {
                        iv.lo = 0;
                        iv.lo_term = CertTerm::LocalZero;
                    }
                    if iv.hi < 0 {
                        iv.hi = 0;
                        iv.hi_term = CertTerm::LocalZero;
                    }
                }
                // Clamp by the per-diagonal path bound: a cell on
                // wavefront d has at most min(⌊d/2⌋, m, n) diagonal
                // steps, each gaining at most γ⁺; gaps only lose.
                let path_hi = gamma_pos * (d as i64 / 2).min(m as i64).min(n as i64);
                if iv.hi > path_hi {
                    iv.hi = path_hi;
                }
                // And by the closed-form floor.
                if iv.lo < cf.t_min {
                    iv.lo = cf.t_min;
                }
            }
            (t, ul)
        } else {
            (None, None)
        };

        let t_all = Iv::hull(t_int, boundary);

        // Check this wavefront against the kernel thresholds; record
        // the *first* crossing only.
        if denial.is_none() {
            denial = check_wavefront(d, t_all, ul_int, ceil_limit, floor_limit, check_floor);
        }

        acc_t = Iv::hull(acc_t, t_all);
        acc_ul = Iv::hull(acc_ul, ul_int);
        t_prev2 = t_prev1;
        t_prev1 = t_all;
        ul_prev = ul_int;
    }

    let zero = Iv::point(0, CertTerm::LocalZero);
    let t = acc_t.unwrap_or(zero);
    let ul = acc_ul.unwrap_or(zero);
    WidthCertificate {
        fingerprint: config_fingerprint(cfg),
        kind: cfg.kind,
        gap: cfg.gap,
        matrix: cfg.matrix.name().to_string(),
        max_query,
        max_subject,
        lane_bits: bits,
        granted: denial.is_none(),
        bounds: CellBounds {
            t_lo: t.lo,
            t_hi: t.hi,
            ul_lo: ul.lo,
            ul_hi: ul.hi,
            headroom: kh,
        },
        denial,
    }
}

/// Check one wavefront's T and U/L hulls against the thresholds.
fn check_wavefront(
    d: usize,
    t: Option<Iv>,
    ul: Option<Iv>,
    ceil_limit: i64,
    floor_limit: i64,
    check_floor: bool,
) -> Option<Denial> {
    if let Some(iv) = t {
        if iv.hi > ceil_limit {
            return Some(Denial {
                term: iv.hi_term,
                table: "T",
                bound: CrossedBound::Ceiling,
                wavefront: d,
                value: iv.hi,
                limit: ceil_limit,
                max_safe_len: None,
                witness: None,
            });
        }
        if check_floor && iv.lo < floor_limit {
            return Some(Denial {
                term: iv.lo_term,
                table: "T",
                bound: CrossedBound::Floor,
                wavefront: d,
                value: iv.lo,
                limit: floor_limit,
                max_safe_len: None,
                witness: None,
            });
        }
    }
    if let Some(iv) = ul {
        if iv.hi > ceil_limit {
            return Some(Denial {
                term: iv.hi_term,
                table: "U/L",
                bound: CrossedBound::Ceiling,
                wavefront: d,
                value: iv.hi,
                limit: ceil_limit,
                max_safe_len: None,
                witness: None,
            });
        }
        if check_floor && iv.lo < floor_limit {
            return Some(Denial {
                term: iv.lo_term,
                table: "U/L",
                bound: CrossedBound::Floor,
                wavefront: d,
                value: iv.lo,
                limit: floor_limit,
                max_safe_len: None,
                witness: None,
            });
        }
    }
    None
}

/// Largest uniform length `L` such that `(L, L)` certifies at `bits`
/// — monotone in `L` (longer sequences only widen every hull), so a
/// doubling probe plus binary search. `None` when even `L = 1` fails.
pub fn max_safe_uniform_len(cfg: &AlignConfig, bits: u32) -> Option<usize> {
    let ok = |len: usize| certify_raw(cfg, len, len, bits).granted;
    if !ok(1) {
        return None;
    }
    let mut lo = 1usize; // known good
    let mut hi = 2usize;
    // Cap the probe: beyond ~2^22 residues even i32 rejects every
    // realistic config, and the iteration is O(len).
    while hi <= (1 << 22) && ok(hi) {
        lo = hi;
        hi *= 2;
    }
    if hi > (1 << 22) {
        return Some(lo);
    }
    // Invariant: ok(lo), !ok(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Construct the uniform arg-max witness for a ceiling denial, when
/// the pure-diagonal path alone provably reaches the detection
/// threshold within the certified bounds. Floor denials (and ceiling
/// denials the diagonal path cannot realize) stay conservative.
fn ceiling_witness(
    cfg: &AlignConfig,
    max_query: usize,
    max_subject: usize,
    bits: u32,
    bound: CrossedBound,
) -> Option<Witness> {
    if bound != CrossedBound::Ceiling {
        return None;
    }
    let gamma_max = cfg.matrix.max_score() as i64;
    if gamma_max <= 0 {
        return None;
    }
    // Arg-max matrix entry (a, b).
    let size = cfg.matrix.size() as u8;
    let mut best = (0u8, 0u8);
    for a in 0..size {
        for b in 0..size {
            if cfg.matrix.score(a, b) > cfg.matrix.score(best.0, best.1) {
                best = (a, b);
            }
        }
    }
    let len = max_query.min(max_subject);
    let min_score = gamma_max * len as i64;
    let threshold = lane_cap(bits) - kernel_headroom(cfg);
    if min_score < threshold {
        return None;
    }
    let alpha = cfg.matrix.alphabet();
    Some(Witness {
        query_letter: alpha.itoc(best.0),
        subject_letter: alpha.itoc(best.1),
        len,
        min_score,
    })
}

/// A validated set of certificates for one configuration, consumed by
/// [`Aligner`](crate::Aligner) width selection and reported by
/// `aalign serve`'s health endpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CertificateStore {
    certs: Vec<WidthCertificate>,
}

impl CertificateStore {
    /// Run the prover for every lane width over the given bounds.
    pub fn compute(cfg: &AlignConfig, max_query: usize, max_subject: usize) -> Self {
        Self {
            certs: aalign_vec::WIDTHS
                .into_iter()
                .map(|bits| certify(cfg, max_query, max_subject, bits))
                .collect(),
        }
    }

    /// Build a store from externally produced certificates.
    pub fn from_certificates(certs: Vec<WidthCertificate>) -> Self {
        Self { certs }
    }

    /// All certificates, granted or denied.
    pub fn certificates(&self) -> &[WidthCertificate] {
        &self.certs
    }

    /// True when every certificate carries this fingerprint — the
    /// install-time validity check.
    pub fn matches(&self, fingerprint: u64) -> bool {
        self.certs.iter().all(|c| c.fingerprint == fingerprint)
    }

    /// Is there a granted certificate covering `(bits, m, n)`?
    pub fn grants(&self, bits: u32, m: usize, n: usize) -> bool {
        self.certs.iter().any(|c| c.granted && c.covers(bits, m, n))
    }

    /// Is there a granted `bits` certificate accepting `m`-long
    /// queries against *some* subjects (up to its own subject bound)?
    /// Used at profile-build time, before subject lengths are known;
    /// each call is still gated per subject through [`grants`].
    ///
    /// [`grants`]: Self::grants
    pub fn grants_for_query(&self, bits: u32, m: usize) -> bool {
        self.certs
            .iter()
            .any(|c| c.granted && c.lane_bits == bits && m <= c.max_query)
    }

    /// Narrowest granted width covering `(m, n)`, or 0 when none.
    pub fn narrowest_granted(&self, m: usize, n: usize) -> u32 {
        aalign_vec::WIDTHS
            .into_iter()
            .find(|&bits| self.grants(bits, m, n))
            .unwrap_or(0)
    }

    /// Widths with a granted certificate (at their own full bounds),
    /// ascending — what the serve health endpoint reports.
    pub fn granted_widths(&self) -> Vec<u32> {
        let mut widths: Vec<u32> = self
            .certs
            .iter()
            .filter(|c| c.granted)
            .map(|c| c.lane_bits)
            .collect();
        widths.sort_unstable();
        widths.dedup();
        widths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GapModel;
    use aalign_bio::matrices::BLOSUM62;
    use aalign_bio::SubstMatrix;

    fn dna_local() -> AlignConfig {
        AlignConfig::local(GapModel::affine(-5, -2), &SubstMatrix::dna(2, -3))
    }

    #[test]
    fn dna_short_reads_certify_i8() {
        let cert = certify(&dna_local(), 48, 1000, 8);
        assert!(cert.granted, "{:?}", cert.denial);
        // Local T is bounded by the shorter sequence: 2 · 48.
        assert!(cert.bounds.t_hi <= 96, "{:?}", cert.bounds);
        assert!(cert.bounds.t_lo >= 0);
    }

    #[test]
    fn blosum62_realistic_lengths_deny_i8_grant_i16() {
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let c8 = certify(&cfg, 400, 400, 8);
        assert!(!c8.granted);
        let denial = c8.denial.unwrap();
        assert_eq!(denial.bound, CrossedBound::Ceiling);
        assert_eq!(denial.term, CertTerm::Diag);
        // The tightest bound must itself certify, and one more must not.
        let safe = denial.max_safe_len.unwrap();
        assert!(certify(&cfg, safe, safe, 8).granted);
        assert!(!certify(&cfg, safe + 1, safe + 1, 8).granted);
        // The witness really is saturating by the prover's own math.
        let w = denial.witness.expect("ceiling denial should be witnessed");
        assert!(w.min_score >= lane_cap(8) - kernel_headroom(&cfg));
        let c16 = certify(&cfg, 400, 400, 16);
        assert!(c16.granted, "{:?}", c16.denial);
    }

    #[test]
    fn global_floor_denial_names_the_gap_open_off_the_ramp() {
        // A global alignment digs below the i8 floor along the
        // boundary: the first cell to cross is the gap table opened
        // off the ramp (one θ+β below it), so the violating term the
        // denial names is gap-open, at a wavefront deep in the ramp.
        let cfg = AlignConfig::global(GapModel::affine(-10, -2), &BLOSUM62);
        let cert = certify(&cfg, 600, 600, 8);
        assert!(!cert.granted);
        let denial = cert.denial.unwrap();
        assert_eq!(denial.bound, CrossedBound::Floor);
        assert_eq!(denial.term, CertTerm::GapOpen);
        assert!(denial.wavefront > 2, "crossing happens down the ramp");
        assert!(denial.witness.is_none(), "floor denials are conservative");
    }

    #[test]
    fn granted_iff_within_max_safe_len() {
        let cfg = dna_local();
        let safe = max_safe_uniform_len(&cfg, 8).unwrap();
        // γ⁺ = 2, headroom = max(3, 7) + 1 = 8: T must stay ≤ 118,
        // so min(m, n) ≤ 59.
        assert_eq!(safe, 59);
        assert!(certify(&cfg, safe, safe, 8).granted);
        assert!(!certify(&cfg, safe + 1, safe + 1, 8).granted);
    }

    /// The reconciliation theorem (satellite 1): `ScoreBounds::fits`
    /// is never more permissive than the prover. Checked over a grid
    /// of kinds × gaps × matrices × lengths, including the boundary
    /// matrices the issue names.
    #[test]
    fn fits_implies_granted() {
        let all_max = SubstMatrix::new("all-max", &aalign_bio::alphabet::DNA, vec![9; 25]);
        let all_neg = SubstMatrix::new("all-neg", &aalign_bio::alphabet::DNA, vec![-9; 25]);
        let matrices = [SubstMatrix::dna(2, -3), BLOSUM62.clone(), all_max, all_neg];
        let gaps = [
            GapModel::affine(-10, -2),
            GapModel::affine(0, -1), // θ-boundary: legal zero-open affine
            GapModel::linear(-1),    // minimal extension
            GapModel::linear(-11),
        ];
        for matrix in &matrices {
            for gap in gaps {
                for kind in [AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal] {
                    let cfg = AlignConfig::new(kind, gap, matrix);
                    for (m, n) in [(4, 4), (48, 48), (48, 1000), (400, 400), (3000, 3000)] {
                        let bounds = cfg.score_bounds(m, n);
                        for bits in aalign_vec::WIDTHS {
                            if bounds.fits(bits) {
                                let cert = certify(&cfg, m, n, bits);
                                assert!(
                                    cert.granted,
                                    "fits(i{bits}) but denied: {} {}x{} {:?}",
                                    cfg.label(),
                                    m,
                                    n,
                                    cert.denial
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// All-negative matrices were the historic divergence: the kernel
    /// reserves `|max_matrix_score|`-sized detection headroom even
    /// when the best score is negative (so closed-form value bounds
    /// are tiny), and `ScoreBounds::headroom` must cover it — with
    /// entries of −127 the i8 detection threshold `cap − kh` is −1,
    /// which local's `v_max ≥ 0` *always* trips, so rescue fires on
    /// every input despite the values fitting comfortably.
    #[test]
    fn all_negative_matrix_headroom_is_covered() {
        let all_neg = SubstMatrix::new("all-neg", &aalign_bio::alphabet::DNA, vec![-127; 25]);
        let cfg = AlignConfig::local(GapModel::linear(-1), &all_neg);
        assert_eq!(kernel_headroom(&cfg), 128);
        // The config.rs reconciliation: headroom covers the kernel's
        // detection margin, so `fits` agrees with the prover's denial.
        assert!(cfg.score_bounds(10, 10).headroom >= kernel_headroom(&cfg));
        let c8 = certify(&cfg, 10, 10, 8);
        assert!(!c8.granted);
        let denial = c8.denial.unwrap();
        assert_eq!(denial.bound, CrossedBound::Ceiling);
        assert_eq!(denial.max_safe_len, None, "even length 1 trips detection");
        assert!(denial.witness.is_none(), "no positive diagonal path");
        assert!(!cfg.score_bounds(10, 10).fits(8));
        // i16 has real room: detection threshold far above any value.
        assert!(certify(&cfg, 10, 10, 16).granted);
        assert!(cfg.score_bounds(10, 10).fits(16));
    }

    /// Mildly negative matrices are the other side of the same coin:
    /// values are tiny, detection never fires, and the prover grants
    /// i8 even though `fits` (conservative closed forms) may not —
    /// containment is one-directional by design.
    #[test]
    fn moderately_negative_matrix_grants_narrow() {
        let all_neg = SubstMatrix::new("all-neg", &aalign_bio::alphabet::DNA, vec![-100; 25]);
        let cfg = AlignConfig::local(GapModel::linear(-1), &all_neg);
        assert_eq!(kernel_headroom(&cfg), 101);
        // Detection threshold 127 − 101 = 26 > 0 ≥ every local cell.
        assert!(certify(&cfg, 10, 10, 8).granted);
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_input() {
        let base = dna_local();
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&base.clone()));
        let other_kind = AlignConfig::global(base.gap, &base.matrix);
        assert_ne!(fp, config_fingerprint(&other_kind));
        let other_gap = AlignConfig::local(GapModel::affine(-5, -3), &base.matrix);
        assert_ne!(fp, config_fingerprint(&other_gap));
        let other_matrix = AlignConfig::local(base.gap, &SubstMatrix::dna(3, -3));
        assert_ne!(fp, config_fingerprint(&other_matrix));
    }

    #[test]
    fn store_selects_narrowest_granted_and_respects_bounds() {
        let cfg = dna_local();
        let store = CertificateStore::compute(&cfg, 48, 1000);
        assert!(store.matches(config_fingerprint(&cfg)));
        assert_eq!(store.narrowest_granted(48, 1000), 8);
        assert_eq!(store.narrowest_granted(48, 500), 8);
        // Outside the certified bounds nothing is granted.
        assert_eq!(store.narrowest_granted(49, 1000), 0);
        assert!(!store.grants(8, 48, 1001));
        assert_eq!(store.granted_widths(), vec![8, 16, 32]);
    }

    #[test]
    fn lane_constants_mirror_vec_elem() {
        use aalign_vec::elem::ScoreElem;
        assert_eq!(lane_cap(8), <i8 as ScoreElem>::MAX_SCORE as i64);
        assert_eq!(lane_cap(16), <i16 as ScoreElem>::MAX_SCORE as i64);
        assert_eq!(lane_cap(32), <i32 as ScoreElem>::MAX_SCORE as i64);
        assert_eq!(lane_neg_inf(8), <i8 as ScoreElem>::NEG_INF as i64);
        assert_eq!(lane_neg_inf(16), <i16 as ScoreElem>::NEG_INF as i64);
        assert_eq!(lane_neg_inf(32), <i32 as ScoreElem>::NEG_INF as i64);
    }
}
