//! The static width analysis vs the kernels' runtime truth.
//!
//! [`ScoreBounds::fits`] is the promise the whole width machinery
//! leans on: when it clears a lane width, the engine runs that width
//! *without* a wider fallback prepared — `WidthPolicy::Auto` narrows
//! on its say-so, and the overflow-rescue ladder only watches widths
//! it did **not** clear. A single optimistic answer would mean a
//! silently clamped score. These properties pin the contract from
//! both sides:
//!
//! 1. **Cleared ⇒ clean** — whenever `fits(bits)` is true for a
//!    query/subject length pair, aligning at that fixed width neither
//!    reports lane saturation nor diverges from the 32-bit reference
//!    score, across alignment kinds, gap models, and compositions
//!    (including adversarial max-score runs).
//! 2. **Saturating ⇒ rejected** — inputs that provably saturate a
//!    width at runtime are inputs the analysis had already refused to
//!    clear.
//! 3. **Shape** — `fits` is monotone in both lane width and sequence
//!    length, so "the next wider width" (the rescue ladder's move) is
//!    always at least as safe.

use proptest::prelude::*;

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::Sequence;
use aalign_core::{AlignConfig, AlignOutput, Aligner, GapModel, WidthPolicy};

fn config(kind: u8, open: i32, ext: i32) -> AlignConfig {
    let gap = GapModel::affine(open, ext);
    match kind % 3 {
        0 => AlignConfig::local(gap, &BLOSUM62),
        1 => AlignConfig::global(gap, &BLOSUM62),
        _ => AlignConfig::semi_global(gap, &BLOSUM62),
    }
}

fn align_at(cfg: AlignConfig, policy: WidthPolicy, q: &Sequence, s: &Sequence) -> AlignOutput {
    Aligner::new(cfg).with_width(policy).align(q, s).unwrap()
}

proptest! {
    /// Property 1: a width the analysis clears is bit-exact at
    /// runtime. The `pad` arm splices in runs of W (the BLOSUM62
    /// max-scorer, 11 per residue) so local scores actually press
    /// against the 8-bit ceiling instead of idling far below it.
    #[test]
    fn cleared_widths_never_saturate_and_match_the_reference(
        kind in 0u8..3,
        open in -15i32..=0,
        ext in -6i32..=-1,
        qs in "[ACDEFGHIKLMNPQRSTVWY]{1,90}",
        ss in "[ACDEFGHIKLMNPQRSTVWY]{1,90}",
        pad in 0usize..100,
    ) {
        let mut qtext = qs.into_bytes();
        qtext.extend(std::iter::repeat_n(b'W', pad));
        let mut stext = ss.into_bytes();
        stext.extend(std::iter::repeat_n(b'W', pad));
        let q = Sequence::protein("q", &qtext).unwrap();
        let s = Sequence::protein("s", &stext).unwrap();
        let bounds = config(kind, open, ext).score_bounds(q.len(), s.len());
        let reference = align_at(config(kind, open, ext), WidthPolicy::Fixed32, &q, &s);
        prop_assert!(!reference.saturated, "32-bit must hold these lengths");
        for (bits, policy) in [(8, WidthPolicy::Fixed8), (16, WidthPolicy::Fixed16)] {
            if bounds.fits(bits) {
                let out = align_at(config(kind, open, ext), policy, &q, &s);
                prop_assert!(
                    !out.saturated,
                    "fits({bits}) promised no saturation for {}x{} (kind {kind})",
                    q.len(), s.len()
                );
                prop_assert_eq!(
                    out.score, reference.score,
                    "fits({bits}) promised the exact score for {}x{} (kind {kind})",
                    q.len(), s.len()
                );
            }
        }
    }

    /// Property 3: monotone in width (a narrower clearance implies
    /// every wider one) and antitone in length (clearing a pair
    /// clears every shorter pair) — the rescue ladder's "go wider"
    /// step and the engine's per-subject re-check both assume this.
    #[test]
    fn fits_is_monotone_in_width_and_antitone_in_length(
        kind in 0u8..3,
        open in -15i32..=0,
        ext in -6i32..=-1,
        m in 1usize..4000,
        n in 1usize..4000,
    ) {
        let cfg = config(kind, open, ext);
        let b = cfg.score_bounds(m, n);
        prop_assert!(!b.fits(8) || b.fits(16), "8-bit cleared but 16 refused");
        prop_assert!(!b.fits(16) || b.fits(32), "16-bit cleared but 32 refused");
        let wider = cfg.score_bounds(m * 2, n * 2);
        for bits in aalign_vec::WIDTHS {
            prop_assert!(
                !wider.fits(bits) || b.fits(bits),
                "doubling the lengths cannot make {bits}-bit lanes safer"
            );
        }
    }
}

/// Property 2, pinned on known-saturating inputs: runs of W long
/// enough to overflow a lane width at runtime are exactly the inputs
/// `fits` refuses to clear. (The 16-bit case mirrors the kernel test
/// `fixed16_reports_saturation_without_fallback`.)
#[test]
fn runtime_saturation_only_happens_where_the_analysis_said_no() {
    let cfg = || AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    // 40 W's: T reaches ~440, past the 8-bit ceiling of 127.
    let short = Sequence::protein("w40", &[b'W'; 40]).unwrap();
    let out8 = align_at(cfg(), WidthPolicy::Fixed8, &short, &short);
    assert!(out8.saturated, "a 440-ish local score must saturate i8");
    assert!(!cfg().score_bounds(40, 40).fits(8), "fits(8) must refuse");
    // 4000 W's: T reaches ~44000, past the 16-bit ceiling of 32767.
    let long = Sequence::protein("w4000", &vec![b'W'; 4000]).unwrap();
    let out16 = align_at(cfg(), WidthPolicy::Fixed16, &long, &long);
    assert!(out16.saturated, "a 44000-ish local score must saturate i16");
    let bounds = cfg().score_bounds(4000, 4000);
    assert!(!bounds.fits(16), "fits(16) must refuse");
    // ... while the next rung of the rescue ladder is cleared and
    // indeed recovers the exact score.
    assert!(bounds.fits(32));
    let out32 = align_at(cfg(), WidthPolicy::Fixed32, &long, &long);
    assert!(!out32.saturated);
    assert_eq!(out32.score, 4000 * 11);
}
