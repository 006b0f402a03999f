//! Saturation-certificate prover front end (pass 6).
//!
//! A spec-driven front end over the interval abstract interpretation
//! in [`mod@aalign_core::certify`]: bind a [`KernelSpec`]'s symbolic gap
//! constants, attach a matrix and maximum sequence lengths, and — per
//! lane width — either *prove* that every intermediate DP cell
//! (including the kernel's saturation-detection headroom) stays
//! strictly inside the saturating range, or report the first abstract
//! wavefront cell that can overflow, with a caret diagnostic pointing
//! at the violating recurrence term in the kernel source and the
//! tightest length bound that would certify.
//!
//! The verdicts are the same [`WidthCertificate`]s the runtime
//! [`Aligner`](aalign_core::Aligner) consumes for width selection, so
//! what this pass certifies is exactly what the kernels run. Three
//! guards keep the prover honest:
//!
//! * the certificate inventory over the shipped configurations is
//!   pinned in `certify_baseline.txt`, an exact [`Inventory`] like
//!   every pinned pass;
//! * a seeded mutation self-test ([`CertMutation`]) perturbs a
//!   certified configuration (matrix entry at the lane cap, scaled
//!   entries, blown-up lengths, extreme gap extension) and *requires*
//!   the prover to deny the mutant at the previously granted width;
//! * the differential gate in `aalign-par` runs searches at certified
//!   widths and asserts the rescue ladder never fires.

use std::fmt::Write as _;

use aalign_bio::SubstMatrix;
use aalign_codegen::ast::Span;
use aalign_codegen::emit::GapBindings;
use aalign_codegen::interpret::BindError;
use aalign_codegen::{analyze, parse_program, spec_to_config, KernelSpec};
use aalign_core::certify::{certify, lane_cap, CertTerm, WidthCertificate};
use aalign_core::{AlignConfig, GapModel};

use crate::inventory::Inventory;

/// The result of the certify pass for one kernel configuration: one
/// certificate per lane width, plus everything needed to render
/// source-anchored diagnostics.
#[derive(Debug, Clone)]
pub struct CertifyReport {
    /// Kernel label (`sw-aff`, `nw-lin`, …).
    pub label: String,
    /// Matrix name the proof ran with.
    pub matrix: String,
    /// Assumed maximum query length.
    pub max_query: usize,
    /// Assumed maximum subject length.
    pub max_subject: usize,
    /// One certificate per lane width, ascending (i8, i16, i32).
    pub certificates: Vec<WidthCertificate>,
    /// The bound configuration — fingerprint-compatible with the
    /// runtime aligner's certificate store.
    pub config: AlignConfig,
}

impl CertifyReport {
    /// Narrowest granted lane width, or `None` when every width is
    /// denied (the configuration cannot run rescue-free at all).
    pub fn narrowest_granted(&self) -> Option<u32> {
        self.certificates
            .iter()
            .find(|c| c.granted)
            .map(|c| c.lane_bits)
    }

    /// True when at least one width is proven rescue-free.
    pub fn is_certifiable(&self) -> bool {
        self.narrowest_granted().is_some()
    }

    /// Render the report against the kernel source: per-width
    /// verdicts, and for each denial a caret diagnostic at the
    /// violating recurrence term plus the tightest certifying length.
    pub fn render(&self, src: &str) -> String {
        let mut out = format!(
            "width certification: {} vs {} (query ≤ {}, subject ≤ {})\n",
            self.label, self.matrix, self.max_query, self.max_subject
        );
        for cert in &self.certificates {
            let b = &cert.bounds;
            if cert.granted {
                let _ = writeln!(
                    out,
                    "  i{:<2} GRANTED  T ∈ [{}, {}], U/L ∈ [{}, {}], margin {} below cap {}",
                    cert.lane_bits,
                    b.t_lo,
                    b.t_hi,
                    b.ul_lo,
                    b.ul_hi,
                    lane_cap(cert.lane_bits) - b.headroom - b.t_hi.max(b.ul_hi),
                    lane_cap(cert.lane_bits),
                );
                continue;
            }
            let d = cert.denial.as_ref().expect("denied without a denial");
            let _ = writeln!(
                out,
                "  i{:<2} DENIED   {} cell can reach {} past limit {} at wavefront d={} \
                 ({} term)",
                cert.lane_bits,
                d.table,
                d.value,
                d.limit,
                d.wavefront,
                d.term.name(),
            );
            match d.max_safe_len {
                Some(len) => {
                    let _ = writeln!(
                        out,
                        "       tightest certifying bound: uniform length ≤ {len}"
                    );
                }
                None => {
                    let _ = writeln!(out, "       no length bound certifies this width");
                }
            }
            if let Some(w) = &d.witness {
                let _ = writeln!(
                    out,
                    "       witness: {}×'{}' vs {}×'{}' scores ≥ {}",
                    w.len, w.query_letter as char, w.len, w.subject_letter as char, w.min_score
                );
            }
            if let Some(excerpt) = term_anchor(src, d.term).and_then(|span| span.excerpt(src)) {
                let _ = writeln!(out, "{excerpt} {}", d.term.name());
            }
        }
        match self.narrowest_granted() {
            Some(bits) => {
                let _ = write!(out, "  => narrowest certified width: i{bits}");
            }
            None => {
                let _ = write!(out, "  => NO width is provably rescue-free");
            }
        }
        out
    }
}

/// Locate the source anchor for a violating recurrence term: the
/// byte span of the expression the abstract interpreter blames.
fn term_anchor(src: &str, term: CertTerm) -> Option<Span> {
    let find = |needle: &str| -> Option<Span> {
        src.find(needle).map(|at| Span::new(at, at + needle.len()))
    };
    match term {
        CertTerm::Diag => find("T[i-1][j-1]"),
        // The boundary ramp is the global-init gap expression when the
        // kernel has one; otherwise blame the gap-open site the ramp
        // is built from.
        CertTerm::BoundaryRamp => find("GAP_OPEN + (i - 1) * GAP_EXT").or_else(|| find("GAP_OPEN")),
        CertTerm::GapOpen => find("GAP_OPEN"),
        CertTerm::GapExtend => find("GAP_EXT"),
        // The `0` operand of the local max.
        CertTerm::LocalZero => find("max(0").map(|s| Span::new(s.start + 4, s.start + 5)),
    }
}

/// Run the certify pass for one bound kernel: prove (or refute) every
/// lane width for the given matrix and length bounds.
pub fn analyze_certify(
    spec: &KernelSpec,
    bind: GapBindings,
    matrix: &SubstMatrix,
    max_query: usize,
    max_subject: usize,
) -> Result<CertifyReport, BindError> {
    let config = spec_to_config(spec, bind, matrix)?;
    let certificates = aalign_vec::WIDTHS
        .into_iter()
        .map(|bits| certify(&config, max_query, max_subject, bits))
        .collect();
    Ok(CertifyReport {
        label: spec.label(),
        matrix: matrix.name().to_string(),
        max_query,
        max_subject,
        certificates,
        config,
    })
}

// ---------------------------------------------------------------------------
// The shipped inventory and the combined pass.
// ---------------------------------------------------------------------------

/// One configuration the project ships and certifies by default.
#[derive(Debug, Clone)]
pub struct ShippedConfig {
    /// Builtin kernel name (`sw-affine`, `nw-linear`, …).
    pub kernel: &'static str,
    /// Kernel DSL source.
    pub source: &'static str,
    /// `blosum62` or `dna`.
    pub matrix: &'static str,
    /// Symbolic gap bindings (`GAP_OPEN` is θ+β, paper convention).
    pub bind: GapBindings,
    /// Length bounds the certificates cover.
    pub max_query: usize,
    pub max_subject: usize,
}

/// The default certification targets: the same configurations the
/// benches, the serve daemon and the search tests run.
pub fn shipped_configs() -> Vec<ShippedConfig> {
    vec![
        // Short-read DNA search: the headline i8 narrow path.
        ShippedConfig {
            kernel: "sw-affine",
            source: aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE,
            matrix: "dna",
            bind: GapBindings {
                gap_open: -7,
                gap_ext: -2,
            },
            max_query: 48,
            max_subject: 1000,
        },
        // Realistic protein search: i8 saturates, i16 certifies.
        ShippedConfig {
            kernel: "sw-affine",
            source: aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE,
            matrix: "blosum62",
            bind: GapBindings {
                gap_open: -12,
                gap_ext: -2,
            },
            max_query: 400,
            max_subject: 400,
        },
        // Global protein alignment at moderate lengths.
        ShippedConfig {
            kernel: "nw-affine",
            source: aalign_codegen::NEEDLEMAN_WUNSCH_AFFINE,
            matrix: "blosum62",
            bind: GapBindings {
                gap_open: -12,
                gap_ext: -2,
            },
            max_query: 256,
            max_subject: 256,
        },
        // Linear-gap DNA, short lengths.
        ShippedConfig {
            kernel: "sw-linear",
            source: aalign_codegen::SMITH_WATERMAN_LINEAR,
            matrix: "dna",
            bind: GapBindings {
                gap_open: -3,
                gap_ext: -3,
            },
            max_query: 56,
            max_subject: 56,
        },
        // Linear-gap global DNA at lengths past the i8 range.
        ShippedConfig {
            kernel: "nw-linear",
            source: aalign_codegen::NEEDLEMAN_WUNSCH_LINEAR,
            matrix: "dna",
            bind: GapBindings {
                gap_open: -2,
                gap_ext: -2,
            },
            max_query: 100,
            max_subject: 100,
        },
    ]
}

/// Resolve a shipped config's matrix by name.
pub fn shipped_matrix(name: &str) -> Option<SubstMatrix> {
    match name {
        "blosum62" => Some(aalign_bio::matrices::BLOSUM62.clone()),
        "dna" => Some(SubstMatrix::dna(2, -3)),
        _ => None,
    }
}

/// Outcome of the full certify pass over the shipped inventory.
#[derive(Debug, Clone)]
pub struct CertifyPass {
    /// One report per shipped configuration, in inventory order.
    pub reports: Vec<CertifyReport>,
}

impl CertifyPass {
    /// True when every shipped configuration has at least one granted
    /// width — the project's "everything we ship can run
    /// rescue-free somewhere" invariant.
    pub fn is_certified(&self) -> bool {
        self.reports.iter().all(CertifyReport::is_certifiable)
    }

    /// The inventory this pass pins in `certify_baseline.txt`: one
    /// entry per (config, width) verdict —
    /// `<label> <matrix> q<max> s<max> i<bits> <verdict> 1`.
    pub fn inventory(&self) -> Inventory {
        let mut inventory = Inventory::default();
        for r in &self.reports {
            for c in &r.certificates {
                let verdict = if c.granted { "granted" } else { "denied" };
                inventory.add(
                    format!(
                        "{} {} q{} s{} i{} {verdict}",
                        r.label, r.matrix, r.max_query, r.max_subject, c.lane_bits
                    ),
                    1,
                );
            }
        }
        inventory
    }
}

/// The pinned certificate inventory over [`shipped_configs`].
/// Regenerate with `aalign-analyzer certify --print-baseline`.
pub const CERTIFY_BASELINE: &str = include_str!("../certify_baseline.txt");

/// Why the certify pass could not even reach verdicts for a config.
#[derive(Debug)]
pub enum CertifyError {
    /// The kernel source did not parse / classify.
    Kernel(String),
    /// The gap bindings were rejected.
    Bind(String, BindError),
    /// Unknown matrix name.
    Matrix(String),
}

impl core::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CertifyError::Kernel(m) => write!(f, "kernel error: {m}"),
            CertifyError::Bind(name, e) => write!(f, "{name}: cannot bind gap constants: {e}"),
            CertifyError::Matrix(m) => write!(f, "unknown matrix `{m}`"),
        }
    }
}

impl std::error::Error for CertifyError {}

/// Run the full pass over the shipped inventory.
pub fn run_certify_pass() -> Result<CertifyPass, CertifyError> {
    let mut reports = Vec::new();
    for ship in shipped_configs() {
        let prog = parse_program(ship.source)
            .map_err(|e| CertifyError::Kernel(format!("{}: {e}", ship.kernel)))?;
        let spec = analyze(&prog).map_err(|e| {
            CertifyError::Kernel(format!("{}:\n{}", ship.kernel, e.render(ship.source)))
        })?;
        let matrix =
            shipped_matrix(ship.matrix).ok_or_else(|| CertifyError::Matrix(ship.matrix.into()))?;
        let report = analyze_certify(&spec, ship.bind, &matrix, ship.max_query, ship.max_subject)
            .map_err(|e| CertifyError::Bind(ship.kernel.to_string(), e))?;
        reports.push(report);
    }
    Ok(CertifyPass { reports })
}

// ---------------------------------------------------------------------------
// Mutation self-test: the prover must have teeth.
// ---------------------------------------------------------------------------

/// A seeded perturbation of a certified configuration that must flip
/// the verdict at the previously granted width. Each mutant makes the
/// true score range (or the kernel's detection margin) exceed the
/// lane, so a prover that still grants it is unsound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertMutation {
    /// Raise the matrix's arg-max entry to the lane cap: one match
    /// already saturates.
    MaxEntryToCap,
    /// Multiply both length bounds by 4096: the diagonal ramp blows
    /// through any lane.
    LengthBlowup,
    /// Scale every matrix entry ×1024: score growth outruns the cap
    /// even for the roomy i16 configs (nw-lin at q100 needs the
    /// per-cell gain above ~325 before the i16 ceiling is crossed).
    ScaleEntries,
    /// Replace the gap extension with the full lane magnitude: the
    /// kernel's detection headroom alone exceeds the range.
    ExtremeExtension,
}

impl CertMutation {
    /// Deterministic seed → mutation mapping (`seed % 4`), mirroring
    /// [`aalign_core::conformance::Mutation::from_seed`].
    pub fn from_seed(seed: u64) -> Self {
        match seed % 4 {
            0 => CertMutation::MaxEntryToCap,
            1 => CertMutation::LengthBlowup,
            2 => CertMutation::ScaleEntries,
            _ => CertMutation::ExtremeExtension,
        }
    }

    /// Stable name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            CertMutation::MaxEntryToCap => "max-entry-to-cap",
            CertMutation::LengthBlowup => "length-blowup",
            CertMutation::ScaleEntries => "scale-entries",
            CertMutation::ExtremeExtension => "extreme-extension",
        }
    }

    /// Apply the mutation to a configuration certified at `bits`,
    /// returning the mutant (config, max_query, max_subject).
    pub fn apply(
        &self,
        cfg: &AlignConfig,
        bits: u32,
        max_query: usize,
        max_subject: usize,
    ) -> (AlignConfig, usize, usize) {
        let cap = i32::try_from(lane_cap(bits)).unwrap_or(i32::MAX);
        match self {
            CertMutation::MaxEntryToCap | CertMutation::ScaleEntries => {
                let old_max = cfg.matrix.max_score();
                let size = cfg.matrix.size() as u8;
                let mut scores = Vec::with_capacity(cfg.matrix.size() * cfg.matrix.size());
                for a in 0..size {
                    for &s in cfg.matrix.row(a) {
                        scores.push(match self {
                            CertMutation::MaxEntryToCap if s == old_max => cap,
                            CertMutation::MaxEntryToCap => s,
                            _ => s.saturating_mul(1024),
                        });
                    }
                }
                let matrix = SubstMatrix::new(
                    format!("{}-mutant", cfg.matrix.name()),
                    cfg.matrix.alphabet(),
                    scores,
                );
                (
                    AlignConfig::new(cfg.kind, cfg.gap, &matrix),
                    max_query,
                    max_subject,
                )
            }
            CertMutation::LengthBlowup => (
                cfg.clone(),
                max_query.saturating_mul(4096),
                max_subject.saturating_mul(4096),
            ),
            CertMutation::ExtremeExtension => {
                let gap = match cfg.gap {
                    GapModel::Linear { .. } => GapModel::linear(-cap),
                    GapModel::Affine { open, .. } => GapModel::affine(open, -cap),
                };
                (
                    AlignConfig::new(cfg.kind, gap, &cfg.matrix),
                    max_query,
                    max_subject,
                )
            }
        }
    }
}

/// Outcome of one mutation self-test run.
#[derive(Debug, Clone)]
pub struct MutationVerdict {
    /// The configuration the mutant was derived from.
    pub label: String,
    pub matrix: String,
    /// The width the original was granted at (the mutant must be
    /// denied there).
    pub lane_bits: u32,
    /// True when the prover denied the mutant — the required outcome.
    pub rejected: bool,
}

/// Run the mutation self-test: mutate every certifiable shipped
/// configuration at its narrowest granted width and check the prover
/// denies each mutant. Reports one verdict per mutated config;
/// soundness requires `rejected` on every one.
pub fn run_mutation_self_test(
    mutation: CertMutation,
) -> Result<Vec<MutationVerdict>, CertifyError> {
    let pass = run_certify_pass()?;
    let mut verdicts = Vec::new();
    for report in &pass.reports {
        let Some(bits) = report.narrowest_granted() else {
            continue;
        };
        let (cfg, mq, ms) =
            mutation.apply(&report.config, bits, report.max_query, report.max_subject);
        let mutant = certify(&cfg, mq, ms, bits);
        verdicts.push(MutationVerdict {
            label: report.label.clone(),
            matrix: report.matrix.clone(),
            lane_bits: bits,
            rejected: !mutant.granted,
        });
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass() -> CertifyPass {
        run_certify_pass().unwrap()
    }

    #[test]
    fn shipped_inventory_certifies_and_matches_baseline() {
        let p = pass();
        assert!(p.is_certified(), "a shipped config lost all widths");
        let inventory = p.inventory();
        let drift = inventory.drift(CERTIFY_BASELINE);
        assert!(
            drift.is_empty(),
            "certificate inventory drift (regenerate with `aalign-analyzer certify \
             --print-baseline`):\n{}\n\ncurrent baseline text:\n{inventory}",
            drift.join("\n"),
        );
    }

    #[test]
    fn dna_short_reads_certify_i8_and_blosum_certifies_i16() {
        let p = pass();
        let dna = &p.reports[0];
        assert_eq!(
            (dna.label.as_str(), dna.matrix.as_str()),
            ("sw-aff", "dna(2,-3)")
        );
        assert_eq!(dna.narrowest_granted(), Some(8));
        let blosum = &p.reports[1];
        assert_eq!(blosum.matrix, "BLOSUM62");
        assert_eq!(blosum.narrowest_granted(), Some(16));
        assert!(!blosum.certificates[0].granted, "i8 must be denied");
    }

    #[test]
    fn denial_renders_caret_at_the_violating_term() {
        let p = pass();
        let blosum = &p.reports[1];
        let rendered = blosum.render(aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE);
        assert!(rendered.contains("DENIED"), "{rendered}");
        assert!(rendered.contains("-->"), "location line: {rendered}");
        assert!(rendered.contains('^'), "caret underline: {rendered}");
        assert!(rendered.contains("tightest certifying bound"), "{rendered}");
        assert!(rendered.contains("witness:"), "{rendered}");
        assert!(
            rendered.contains("narrowest certified width: i16"),
            "{rendered}"
        );
    }

    #[test]
    fn every_mutation_is_rejected_on_every_shipped_config() {
        for seed in 0..4u64 {
            let mutation = CertMutation::from_seed(seed);
            let verdicts = run_mutation_self_test(mutation).unwrap();
            assert!(!verdicts.is_empty());
            for v in verdicts {
                assert!(
                    v.rejected,
                    "prover granted a `{}` mutant of {} vs {} at i{} — unsound",
                    mutation.name(),
                    v.label,
                    v.matrix,
                    v.lane_bits
                );
            }
        }
    }

    #[test]
    fn term_anchors_resolve_in_the_builtin_sources() {
        for src in [
            aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE,
            aalign_codegen::NEEDLEMAN_WUNSCH_AFFINE,
        ] {
            for term in [CertTerm::Diag, CertTerm::GapOpen, CertTerm::GapExtend] {
                assert!(term_anchor(src, term).is_some(), "{term:?} in {src}");
            }
        }
        assert!(term_anchor(
            aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE,
            CertTerm::LocalZero
        )
        .is_some());
    }
}
