//! Score range / overflow analysis (pass 1).
//!
//! A spec-driven front end over the
//! [`aalign_core::ScoreBounds`] interval arithmetic in
//! `aalign-core`: bind a [`KernelSpec`]'s symbolic gap constants,
//! attach a matrix and maximum sequence lengths, and report — before
//! anything runs — the conservative T/U/L value intervals, the
//! minimal lane width that provably cannot overflow, and the
//! bias/saturation constants the biased-unsigned kernels would use.
//! Because the runtime width policy consults the *same* analysis,
//! the report is a statement about what the kernels will actually do,
//! not a parallel reimplementation that can drift.

use aalign_bio::SubstMatrix;
use aalign_codegen::emit::GapBindings;
use aalign_codegen::interpret::BindError;
use aalign_codegen::{spec_to_config, KernelSpec};
use aalign_core::{AlignConfig, ScoreBounds};

/// The result of the range pass for one kernel configuration.
#[derive(Debug, Clone)]
pub struct RangeReport {
    /// Kernel label (`sw-aff`, `nw-lin`, …).
    pub label: String,
    /// Matrix name the analysis ran with.
    pub matrix: String,
    /// Assumed maximum query length.
    pub max_query: usize,
    /// Assumed maximum subject length.
    pub max_subject: usize,
    /// The interval-arithmetic bounds.
    pub bounds: ScoreBounds,
    /// Minimal safe lane width in bits, or `None` when even i32 wraps
    /// (the configuration must be rejected).
    pub lane_bits: Option<u32>,
    /// Lane widths the analysis rules out (would overflow).
    pub rejected_bits: Vec<u32>,
    /// The bound configuration, for cross-validation against the
    /// runtime kernels.
    pub config: AlignConfig,
}

impl RangeReport {
    /// True when no kernel lane can represent the score range.
    pub fn overflows_i32(&self) -> bool {
        self.lane_bits.is_none()
    }
}

impl core::fmt::Display for RangeReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = &self.bounds;
        writeln!(
            f,
            "range analysis: {} vs {} (query ≤ {}, subject ≤ {})",
            self.label, self.matrix, self.max_query, self.max_subject
        )?;
        writeln!(f, "  T ∈ [{}, {}]", b.t_min, b.t_max)?;
        writeln!(f, "  U, L ∈ [{}, {}]", b.ul_min, b.ul_max)?;
        writeln!(f, "  headroom {}  bias {}", b.headroom, b.bias())?;
        for bits in aalign_vec::WIDTHS {
            let verdict = if b.fits(bits) { "ok" } else { "OVERFLOW" };
            writeln!(
                f,
                "  i{bits:<2} {verdict:8} (saturation ceiling {})",
                b.saturation_ceiling(bits)
            )?;
        }
        match self.lane_bits {
            Some(bits) => write!(f, "  => minimal safe lane width: i{bits}"),
            None => write!(f, "  => REJECT: even i32 lanes can wrap for these lengths"),
        }
    }
}

/// Run the range pass: bind the spec's constants, derive the bounds,
/// select the lane width.
pub fn analyze_range(
    spec: &KernelSpec,
    bind: GapBindings,
    matrix: &SubstMatrix,
    max_query: usize,
    max_subject: usize,
) -> Result<RangeReport, BindError> {
    let config = spec_to_config(spec, bind, matrix)?;
    let bounds = config.score_bounds(max_query, max_subject);
    let rejected_bits = aalign_vec::WIDTHS
        .into_iter()
        .filter(|&b| !bounds.fits(b))
        .collect();
    Ok(RangeReport {
        label: spec.label(),
        matrix: matrix.name().to_string(),
        max_query,
        max_subject,
        bounds,
        lane_bits: bounds.min_lane_bits(),
        rejected_bits,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalign_bio::matrices::BLOSUM62;
    use aalign_codegen::{analyze, parse_program};

    fn alg1_spec() -> KernelSpec {
        analyze(&parse_program(aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE).unwrap()).unwrap()
    }

    /// The acceptance case: BLOSUM62 with open 3 / ext 1 overflows i8
    /// at realistic protein lengths, and i16 is selected.
    #[test]
    fn blosum62_small_gaps_select_i16() {
        let report = analyze_range(
            &alg1_spec(),
            GapBindings {
                gap_open: -3,
                gap_ext: -1,
            },
            &BLOSUM62,
            256,
            256,
        )
        .unwrap();
        assert!(report.rejected_bits.contains(&8), "i8 must be flagged");
        assert_eq!(report.lane_bits, Some(16));
        let text = report.to_string();
        assert!(text.contains("i8  OVERFLOW"), "{text}");
        assert!(text.contains("minimal safe lane width: i16"), "{text}");
    }

    #[test]
    fn tiny_local_alignments_fit_i8() {
        let report = analyze_range(
            &alg1_spec(),
            GapBindings {
                gap_open: -12,
                gap_ext: -2,
            },
            &BLOSUM62,
            4,
            4,
        )
        .unwrap();
        assert_eq!(report.lane_bits, Some(8));
    }

    #[test]
    fn absurd_lengths_reject_even_i32() {
        // ~10^8-residue global alignment: the worst path exceeds the
        // i32 kernels' MAX/4 clamp.
        let spec =
            analyze(&parse_program(aalign_codegen::NEEDLEMAN_WUNSCH_AFFINE).unwrap()).unwrap();
        let report = analyze_range(
            &spec,
            GapBindings {
                gap_open: -12,
                gap_ext: -2,
            },
            &BLOSUM62,
            100_000_000,
            100_000_000,
        )
        .unwrap();
        assert!(report.overflows_i32());
        assert!(report.to_string().contains("REJECT"));
    }

    #[test]
    fn global_needs_wider_lanes_than_local() {
        // Same lengths, same gaps: the global worst path digs far below
        // zero while local clamps at 0, so global's magnitude dominates.
        let nw = analyze(&parse_program(aalign_codegen::NEEDLEMAN_WUNSCH_AFFINE).unwrap()).unwrap();
        let bind = GapBindings {
            gap_open: -12,
            gap_ext: -2,
        };
        let local = analyze_range(&alg1_spec(), bind, &BLOSUM62, 800, 800).unwrap();
        let global = analyze_range(&nw, bind, &BLOSUM62, 800, 800).unwrap();
        assert!(global.bounds.t_min < local.bounds.t_min);
        assert!(global.bounds.magnitude() > local.bounds.magnitude());
    }

    #[test]
    fn bad_bindings_propagate() {
        let err = analyze_range(
            &alg1_spec(),
            GapBindings {
                gap_open: -12,
                gap_ext: 1,
            },
            &BLOSUM62,
            100,
            100,
        )
        .unwrap_err();
        assert_eq!(err, BindError::NonNegativeExtension(1));
    }

    /// Cross-validation: actually run the bound configuration through
    /// the vector kernels and check the observed score sits inside the
    /// predicted interval.
    #[test]
    fn observed_scores_stay_inside_predicted_bounds() {
        use aalign_bio::synth::{named_query, seeded_rng, Level, PairSpec};
        use aalign_core::Aligner;

        let report = analyze_range(
            &alg1_spec(),
            GapBindings {
                gap_open: -12,
                gap_ext: -2,
            },
            &BLOSUM62,
            120,
            120,
        )
        .unwrap();
        let aligner = Aligner::new(report.config.clone());
        let mut rng = seeded_rng(7);
        let q = named_query(&mut rng, 100);
        for pair in [
            PairSpec::new(Level::Hi, Level::Hi),
            PairSpec::new(Level::Lo, Level::Lo),
        ] {
            let s = pair.generate(&mut rng, &q).subject;
            let score = aligner.align(&q, &s).unwrap().score as i64;
            assert!(
                (report.bounds.t_min..=report.bounds.t_max).contains(&score),
                "score {score} outside [{}, {}]",
                report.bounds.t_min,
                report.bounds.t_max
            );
        }
    }
}
