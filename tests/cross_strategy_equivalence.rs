//! The central integration property: every execution path — scalar
//! references, optimized sequential, striped-iterate, striped-scan,
//! hybrid, on every ISA and element width — produces the same score.

use aalign::bio::matrices::BLOSUM62;
use aalign::bio::Sequence;
use aalign::core::paradigm::{paradigm_dp, paradigm_literal};
use aalign::vec::detect::Isa;
use aalign::{AlignConfig, AlignKind, Aligner, GapModel, Strategy as AlignStrategy, WidthPolicy};
use proptest::prelude::*;

/// Random protein residue indices (the 20 standard amino acids).
fn protein_seq(max_len: usize) -> impl Strategy<Value = Sequence> {
    proptest::collection::vec(0u8..20, 1..=max_len)
        .prop_map(|idx| Sequence::from_indices("prop", &aalign::bio::alphabet::PROTEIN, idx))
}

fn gap_model() -> impl Strategy<Value = GapModel> {
    prop_oneof![
        (-15i32..=0, -6i32..-1).prop_map(|(open, ext)| GapModel::affine(open, ext)),
        (-6i32..-1).prop_map(GapModel::linear),
    ]
}

fn align_kind() -> impl Strategy<Value = AlignKind> {
    prop_oneof![
        Just(AlignKind::Local),
        Just(AlignKind::Global),
        Just(AlignKind::SemiGlobal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_strategies_and_isas_agree(
        q in protein_seq(80),
        s in protein_seq(80),
        gap in gap_model(),
        kind in align_kind(),
    ) {
        let cfg = AlignConfig::new(kind, gap, &BLOSUM62);
        let want = paradigm_dp(&cfg, &q, &s).score;

        // Sequential baseline.
        let seq = Aligner::new(cfg.clone())
            .with_strategy(AlignStrategy::Sequential)
            .align(&q, &s)
            .unwrap();
        prop_assert_eq!(seq.score, want);

        for strat in [AlignStrategy::StripedIterate, AlignStrategy::StripedScan, AlignStrategy::Hybrid] {
            for isa in [Isa::Emulated, Isa::Sse41, Isa::Avx2, Isa::Avx512] {
                for width in [WidthPolicy::Fixed8, WidthPolicy::Fixed16, WidthPolicy::Fixed32] {
                    let out = Aligner::new(cfg.clone())
                        .with_strategy(strat)
                        .with_isa(isa)
                        .with_width(width)
                        .align(&q, &s)
                        .unwrap();
                    prop_assert!(
                        !out.saturated || width != WidthPolicy::Fixed32,
                        "strategy {:?} isa {:?} backend {}", strat, isa, out.backend
                    );
                    // A narrow lane may saturate, and says so: local
                    // runs by a per-column guard on the running maximum;
                    // global and semi-global ones, which look only at
                    // their final cell, by being flagged wholesale when
                    // forced narrow outside the bound `Auto` requires
                    // (a clamp on the way could otherwise go unreported:
                    // Fixed8, semi-global, linear −6,
                    // GEDICVHQHGDRRKEHCPFKCDYLLATIYL vs TLFLGRH gave
                    // −114 for −119). So an unflagged score is the score.
                    if kind != AlignKind::Local
                        && !cfg.score_bounds(q.len(), s.len()).fits(out.elem_bits)
                    {
                        prop_assert!(
                            out.saturated,
                            "strategy {:?} isa {:?} backend {}", strat, isa, out.backend
                        );
                    }
                    if !out.saturated {
                        prop_assert_eq!(
                            out.score, want,
                            "strategy {:?} isa {:?} backend {}", strat, isa, out.backend
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn literal_paradigm_agrees_with_dp(
        q in protein_seq(24),
        s in protein_seq(24),
        gap in gap_model(),
        kind in align_kind(),
    ) {
        let cfg = AlignConfig::new(kind, gap, &BLOSUM62);
        prop_assert_eq!(
            paradigm_literal(&cfg, &q, &s).score,
            paradigm_dp(&cfg, &q, &s).score
        );
    }

    /// Larger-bound literal ≡ dp, focused on the affine + global
    /// corner: the general test above stays at length 24 because the
    /// Eq.(2) literal scan is cubic, but affine global alignments are
    /// where long gap chains and the U/L fold actually diverge if the
    /// rewrite is wrong, so push those to length 64.
    #[test]
    fn literal_agrees_with_dp_affine_global_at_larger_lengths(
        q in proptest::collection::vec(0u8..20, 32..=64)
            .prop_map(|idx| Sequence::from_indices("prop", &aalign::bio::alphabet::PROTEIN, idx)),
        s in proptest::collection::vec(0u8..20, 32..=64)
            .prop_map(|idx| Sequence::from_indices("prop", &aalign::bio::alphabet::PROTEIN, idx)),
        (open, ext) in (-15i32..=0, -6i32..-1),
        kind in prop_oneof![Just(AlignKind::Global), Just(AlignKind::SemiGlobal)],
    ) {
        let cfg = AlignConfig::new(kind, GapModel::affine(open, ext), &BLOSUM62);
        prop_assert_eq!(
            paradigm_literal(&cfg, &q, &s).score,
            paradigm_dp(&cfg, &q, &s).score
        );
    }

    #[test]
    fn auto_width_always_matches_fixed32(
        q in protein_seq(60),
        s in protein_seq(60),
        gap in gap_model(),
        kind in align_kind(),
    ) {
        let cfg = AlignConfig::new(kind, gap, &BLOSUM62);
        let auto = Aligner::new(cfg.clone())
            .align(&q, &s)
            .unwrap();
        let fixed = Aligner::new(cfg)
            .with_width(WidthPolicy::Fixed32)
            .align(&q, &s)
            .unwrap();
        prop_assert!(!auto.saturated);
        prop_assert_eq!(auto.score, fixed.score, "auto used {}", auto.backend);
    }

    #[test]
    fn linear_equals_affine_with_zero_theta(
        q in protein_seq(50),
        s in protein_seq(50),
        ext in -6i32..-1,
        kind in align_kind(),
    ) {
        let lin = AlignConfig::new(kind, GapModel::linear(ext), &BLOSUM62);
        let aff = AlignConfig::new(kind, GapModel::affine(0, ext), &BLOSUM62);
        let a = Aligner::new(lin).align(&q, &s).unwrap().score;
        let b = Aligner::new(aff).align(&q, &s).unwrap().score;
        prop_assert_eq!(a, b);
    }
}
