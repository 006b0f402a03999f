//! Property tests for the range pass (satellite of the analyzer PR).
//!
//! 1. The interval-arithmetic bounds are *sound*: no execution of the
//!    bound configuration — random builtin kernel, random gap
//!    penalties, random matrix, random sequences — ever produces a
//!    score outside the predicted `[t_min, t_max]`.
//! 2. Lane-width selection round-trips through `aalign_vec::elem`: if
//!    the analysis picks `i{B}` then every predicted bound (and its
//!    biased image) is exactly representable in that element type, and
//!    the saturation ceiling stays below the element's `MAX_SCORE`.

use aalign_analyzer::analyze_range;
use aalign_bio::alphabet::{DNA, PROTEIN};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::{Sequence, SubstMatrix};
use aalign_codegen::emit::GapBindings;
use aalign_codegen::{analyze, parse_program, KernelSpec};
use aalign_core::paradigm::paradigm_dp;
use aalign_core::ScoreBounds;
use aalign_vec::ScoreElem;
use proptest::prelude::*;

fn builtin_specs() -> Vec<KernelSpec> {
    [
        aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE,
        aalign_codegen::NEEDLEMAN_WUNSCH_AFFINE,
        aalign_codegen::SMITH_WATERMAN_LINEAR,
        aalign_codegen::NEEDLEMAN_WUNSCH_LINEAR,
    ]
    .iter()
    .map(|src| analyze(&parse_program(src).unwrap()).unwrap())
    .collect()
}

fn matrix_for(choice: usize) -> SubstMatrix {
    match choice {
        0 => BLOSUM62.clone(),
        1 => SubstMatrix::dna(2, -3),
        _ => SubstMatrix::dna(1, -1),
    }
}

/// Check that `v` survives an exact round-trip through element `E`.
/// (A selected lane width guarantees the bounds fit in i32, so the
/// narrowing conversion cannot lose information before the test.)
fn roundtrips_exactly<E: ScoreElem>(v: i64) -> bool {
    let Ok(v32) = i32::try_from(v) else {
        return false;
    };
    i64::from(E::from_i32_sat(v32).to_i32()) == v
}

/// The signed values the kernels would ever materialize for these
/// bounds: the T and U/L interval endpoints. (Biased images live in
/// *unsigned* lanes and are checked separately against `2^bits`.)
fn representative_values(b: &ScoreBounds) -> [i64; 4] {
    [b.t_min, b.t_max, b.ul_min, b.ul_max]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Property 1: executing the exact configuration the range pass
    /// analyzed never escapes the predicted interval.
    #[test]
    fn dp_scores_never_violate_predicted_bounds(
        kernel in 0usize..4,
        matrix_choice in 0usize..3,
        ext in -6i32..=-1,
        open_delta in 0i32..=12,
        protein_q in proptest::collection::vec(0u8..20, 1..24),
        protein_s in proptest::collection::vec(0u8..20, 1..24),
        dna_q in proptest::collection::vec(0u8..4, 1..24),
        dna_s in proptest::collection::vec(0u8..4, 1..24),
    ) {
        let spec = builtin_specs().swap_remove(kernel);
        let matrix = matrix_for(matrix_choice);
        // theta = open - ext must be <= 0, so open <= ext (both < 0).
        let bind = GapBindings { gap_open: ext - open_delta, gap_ext: ext };
        let (q, s) = if matrix_choice == 0 {
            (
                Sequence::from_indices("q", &PROTEIN, protein_q),
                Sequence::from_indices("s", &PROTEIN, protein_s),
            )
        } else {
            (
                Sequence::from_indices("q", &DNA, dna_q),
                Sequence::from_indices("s", &DNA, dna_s),
            )
        };

        let report = analyze_range(&spec, bind, &matrix, q.len(), s.len()).unwrap();
        let got = paradigm_dp(&report.config, &q, &s);
        prop_assert!(
            (report.bounds.t_min..=report.bounds.t_max).contains(&i64::from(got.score)),
            "{} score {} escapes predicted [{}, {}] (open {}, ext {}, {}x{})",
            report.label, got.score,
            report.bounds.t_min, report.bounds.t_max,
            bind.gap_open, bind.gap_ext, q.len(), s.len(),
        );
    }

    /// Property 2: the selected lane width is honest about the element
    /// type it names — every bound survives `from_i32_sat`/`to_i32`
    /// unchanged and the saturation ceiling respects `MAX_SCORE`.
    #[test]
    fn lane_width_selection_roundtrips_through_elem(
        kernel in 0usize..4,
        matrix_choice in 0usize..3,
        ext in -6i32..=-1,
        open_delta in 0i32..=12,
        max_query in 1usize..3000,
        max_subject in 1usize..3000,
    ) {
        let spec = builtin_specs().swap_remove(kernel);
        let matrix = matrix_for(matrix_choice);
        let bind = GapBindings { gap_open: ext - open_delta, gap_ext: ext };
        let report = analyze_range(&spec, bind, &matrix, max_query, max_subject).unwrap();
        let b = &report.bounds;

        if let Some(bits) = report.lane_bits {
            let (all_exact, max_score, elem_bits) = match bits {
                8 => (
                    representative_values(b).iter().all(|&v| roundtrips_exactly::<i8>(v)),
                    <i8 as ScoreElem>::MAX_SCORE.to_i32(),
                    <i8 as ScoreElem>::BITS,
                ),
                16 => (
                    representative_values(b).iter().all(|&v| roundtrips_exactly::<i16>(v)),
                    <i16 as ScoreElem>::MAX_SCORE.to_i32(),
                    <i16 as ScoreElem>::BITS,
                ),
                32 => (
                    representative_values(b).iter().all(|&v| roundtrips_exactly::<i32>(v)),
                    <i32 as ScoreElem>::MAX_SCORE.to_i32(),
                    <i32 as ScoreElem>::BITS,
                ),
                other => panic!("analysis selected unknown width i{other}"),
            };
            prop_assert_eq!(bits, elem_bits);
            prop_assert!(
                all_exact,
                "i{} cannot exactly represent bounds {:?}", bits, b,
            );
            prop_assert!(
                b.saturation_ceiling(bits) <= i64::from(max_score),
                "saturation ceiling {} above i{}::MAX_SCORE {}",
                b.saturation_ceiling(bits), bits, max_score,
            );
            // The biased-unsigned representation must fit too: the
            // largest biased value stays inside the lane's 2^bits.
            prop_assert!(
                b.t_max.max(b.ul_max) + b.bias() + b.headroom < (1i64 << bits),
                "biased ceiling {} escapes u{} for bounds {:?}",
                b.t_max.max(b.ul_max) + b.bias() + b.headroom, bits, b,
            );
            // Selection is minimal *and* monotone: every narrower
            // width was rejected, every wider one also fits.
            for narrower in aalign_vec::WIDTHS.into_iter().filter(|&w| w < bits) {
                prop_assert!(report.rejected_bits.contains(&narrower));
            }
            for wider in aalign_vec::WIDTHS.into_iter().filter(|&w| w > bits) {
                prop_assert!(b.fits(wider));
            }
        } else {
            // Rejected outright: even i32 must genuinely fail.
            prop_assert!(!b.fits(32));
            prop_assert_eq!(report.rejected_bits.clone(), vec![8, 16, 32]);
        }
    }
}
