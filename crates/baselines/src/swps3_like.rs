//! SWPS3-like comparator: 8-bit-first striped Smith-Waterman.
//!
//! SWPS3 (Szalkowski et al. 2008) runs Farrar's striped-iterate
//! kernel on **char (8-bit) buffers** and only re-runs a subject at
//! 16-bit when saturation is detected. The paper (Sec. VI-C) credits
//! this for SWPS3 winning on long queries (lower cache pressure) and
//! losing elsewhere. This reimplementation keeps exactly that
//! structure: an i8 → i16 → i32 escalation of striped-iterate kernels
//! up one query's width ladder (built once per query, one striped
//! profile per rung), running on the 256-bit CPU engines through the
//! same dispatched fast path and the same rescue call as the main
//! search engine (so the Fig. 11 comparison measures the *algorithmic*
//! difference, not call overhead).

use aalign_bio::{Sequence, SubstMatrix};
use aalign_core::{
    AlignConfig, AlignError, AlignScratch, Aligner, GapModel, PreparedQuery, Strategy, WidthPolicy,
};
use aalign_obs::NullSink;
use aalign_vec::detect::Isa;

/// A prepared SWPS3-like searcher for one query.
#[derive(Debug)]
pub struct Swps3Like {
    /// Striped-iterate, pinned to i8 on the AVX2 row.
    aligner: Aligner,
    /// The query's width ladder: the i8 rung and the two above it.
    prepared: PreparedQuery,
}

/// Outcome of one SWPS3-like alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swps3Result {
    /// Smith-Waterman score.
    pub score: i32,
    /// Element width that produced the accepted score (8/16/32).
    pub bits_used: u32,
}

impl Swps3Like {
    /// Prepare for a query with the standard SW setup (local
    /// alignment, affine or linear gaps).
    ///
    /// # Panics
    /// Panics if the query is empty.
    pub fn new(query: &Sequence, gap: GapModel, matrix: &SubstMatrix) -> Self {
        let aligner = Aligner::new(AlignConfig::local(gap, matrix))
            .with_strategy(Strategy::StripedIterate)
            .with_isa(Isa::Avx2)
            .with_width(WidthPolicy::Fixed8);
        let prepared = aligner.prepare(query).expect("non-empty validated query");
        Self { aligner, prepared }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AlignConfig {
        self.aligner.config()
    }

    /// Align one subject: run at 8-bit, escalate on saturation.
    pub fn align(&self, subject: &Sequence, scratch: &mut Swps3Scratch) -> Swps3Result {
        self.try_align(subject, scratch)
            .expect("subject validated against the same alphabet")
    }

    /// Fallible variant of [`Self::align`].
    pub fn try_align(
        &self,
        subject: &Sequence,
        scratch: &mut Swps3Scratch,
    ) -> Result<Swps3Result, AlignError> {
        let (aligner, pq) = (&self.aligner, &self.prepared);
        let mut out = aligner.align_prepared(pq, subject, scratch)?;
        while out.saturated {
            match aligner.align_wider(pq, subject, out.elem_bits, scratch, &mut NullSink)? {
                Some(wider) => out = wider,
                None => break,
            }
        }
        Ok(Swps3Result {
            score: out.score,
            bits_used: out.elem_bits,
        })
    }
}

/// Reusable per-thread scratch buffers: the aligner's own.
pub type Swps3Scratch = AlignScratch;

#[cfg(test)]
mod tests {
    use super::*;
    use aalign_bio::matrices::BLOSUM62;
    use aalign_bio::synth::{named_query, seeded_rng, Level, PairSpec};
    use aalign_core::paradigm::paradigm_dp;

    #[test]
    fn scores_match_reference_across_similarities() {
        let mut rng = seeded_rng(2);
        let q = named_query(&mut rng, 100);
        let tool = Swps3Like::new(&q, GapModel::affine(-10, -2), &BLOSUM62);
        let mut scratch = Swps3Scratch::new();
        for spec in [
            PairSpec::new(Level::Hi, Level::Hi),
            PairSpec::new(Level::Md, Level::Md),
            PairSpec::new(Level::Lo, Level::Lo),
        ] {
            let s = spec.generate(&mut rng, &q).subject;
            let want = paradigm_dp(tool.config(), &q, &s).score;
            let got = tool.align(&s, &mut scratch);
            assert_eq!(got.score, want, "{}", spec.label());
        }
    }

    #[test]
    fn dissimilar_subjects_stay_in_8_bit() {
        let mut rng = seeded_rng(3);
        let q = named_query(&mut rng, 120);
        let s = named_query(&mut rng, 110); // unrelated → low score
        let tool = Swps3Like::new(&q, GapModel::affine(-10, -2), &BLOSUM62);
        let got = tool.align(&s, &mut Swps3Scratch::new());
        assert_eq!(got.bits_used, 8, "score {} fits i8", got.score);
    }

    #[test]
    fn similar_long_subjects_escalate() {
        let mut rng = seeded_rng(4);
        let q = named_query(&mut rng, 200);
        let tool = Swps3Like::new(&q, GapModel::affine(-10, -2), &BLOSUM62);
        // Identical sequence: score ≈ 5.2 per residue × 200 ≫ 127.
        let got = tool.align(&q, &mut Swps3Scratch::new());
        assert!(got.bits_used >= 16, "bits {}", got.bits_used);
        let want = paradigm_dp(tool.config(), &q, &q).score;
        assert_eq!(got.score, want);
    }

    #[test]
    fn escalation_reaches_32_bit_for_huge_scores() {
        // 8000 tryptophans self-aligned: 88_000 > i16::MAX.
        let text: Vec<u8> = std::iter::repeat_n(b'W', 8000).collect();
        let q = Sequence::protein("w8000", &text).unwrap();
        let tool = Swps3Like::new(&q, GapModel::affine(-10, -2), &BLOSUM62);
        let got = tool.align(&q, &mut Swps3Scratch::new());
        assert_eq!(got.bits_used, 32);
        assert_eq!(got.score, 8000 * 11);
    }

    #[test]
    fn linear_gap_system_supported() {
        let mut rng = seeded_rng(5);
        let q = named_query(&mut rng, 80);
        let s = named_query(&mut rng, 90);
        let tool = Swps3Like::new(&q, GapModel::linear(-4), &BLOSUM62);
        let want = paradigm_dp(tool.config(), &q, &s).score;
        assert_eq!(tool.align(&s, &mut Swps3Scratch::new()).score, want);
    }
}
