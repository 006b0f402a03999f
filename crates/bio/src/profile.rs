//! The striped query profile (`prof` in paper Alg. 2 ln. 17 /
//! Alg. 3 ln. 10).
//!
//! For each subject residue `a`, the kernels need the vector of
//! substitution scores `matrix[a][Q[q]]` for every query position `q`,
//! laid out in striped order so `add_array(prof + ctoi(S_i)·m̂ + j·v)`
//! is a contiguous load. Building the profile costs `O(|Σ|·m)` once
//! per query; the multi-threaded driver builds it once and shares it
//! across threads (paper Sec. V-E).
//!
//! Padding slots hold [`ScoreElem::NEG_INF`] so padded positions can
//! never contribute a winning score.

use aalign_vec::{AlignedBuf, ScoreElem, StripedLayout};

use crate::matrices::SubstMatrix;
use crate::seq::Sequence;

/// A striped query profile at score element type `T`.
#[derive(Debug)]
pub struct StripedProfile<T> {
    layout: StripedLayout,
    alphabet_size: usize,
    /// `alphabet_size` stripes of `layout.padded_len()` scores each,
    /// the first on a cache line, so every segment is register-aligned.
    data: AlignedBuf<T>,
    max_matrix_score: i32,
    min_matrix_score: i32,
}

impl<T: ScoreElem> StripedProfile<T> {
    /// Build the profile of `query` against `matrix` for engines with
    /// `lanes` lanes.
    ///
    /// # Panics
    /// Panics if the query is empty, or its alphabet differs from the
    /// matrix's, or any matrix score is unrepresentable in `T`.
    pub fn build(query: &Sequence, matrix: &SubstMatrix, lanes: usize) -> Self {
        assert!(!query.is_empty(), "query must be non-empty");
        assert!(
            core::ptr::eq(query.alphabet(), matrix.alphabet()),
            "query alphabet {:?} differs from matrix alphabet {:?}",
            query.alphabet().name(),
            matrix.alphabet().name()
        );
        let layout = StripedLayout::new(query.len(), lanes);
        let n = matrix.size();
        let padded = layout.padded_len();
        let mut data = AlignedBuf::new();
        data.resize(n * padded, T::NEG_INF);
        for a in 0..n as u8 {
            let row = matrix.row(a);
            let stripe = &mut data[a as usize * padded..(a as usize + 1) * padded];
            for (q, &res) in query.indices().iter().enumerate() {
                stripe[layout.slot_of(q)] = T::from_i32(row[res as usize]);
            }
        }
        Self {
            layout,
            alphabet_size: n,
            data,
            max_matrix_score: matrix.max_score(),
            min_matrix_score: matrix.min_score(),
        }
    }

    /// The striped geometry this profile was built for.
    #[inline]
    pub fn layout(&self) -> StripedLayout {
        self.layout
    }

    /// Query length in residues.
    #[inline]
    pub fn query_len(&self) -> usize {
        self.layout.len
    }

    /// Alphabet size (number of stripes).
    #[inline]
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// The whole striped stripe for subject residue `a`.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    #[inline]
    pub fn stripe(&self, a: u8) -> &[T] {
        let padded = self.layout.padded_len();
        &self.data[a as usize * padded..(a as usize + 1) * padded]
    }

    /// Largest matrix score (overflow-headroom math).
    #[inline]
    pub fn max_matrix_score(&self) -> i32 {
        self.max_matrix_score
    }

    /// Smallest matrix score.
    #[inline]
    pub fn min_matrix_score(&self) -> i32 {
        self.min_matrix_score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::PROTEIN;
    use crate::matrices::BLOSUM62;

    #[test]
    fn profile_entries_match_matrix_lookups() {
        let q = Sequence::protein("q", b"HEAGAWGHEE").unwrap();
        let p = StripedProfile::<i32>::build(&q, &BLOSUM62, 8);
        let layout = p.layout();
        for a in 0..24u8 {
            let stripe = p.stripe(a);
            for (qi, &res) in q.indices().iter().enumerate() {
                assert_eq!(
                    stripe[layout.slot_of(qi)],
                    BLOSUM62.score(a, res),
                    "a={a} q={qi}"
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn padding_slots_are_neg_inf() {
        let q = Sequence::protein("q", b"HEAGA").unwrap(); // m=5, lanes=4 → pad 3
        let p = StripedProfile::<i16>::build(&q, &BLOSUM62, 4);
        let layout = p.layout();
        assert_eq!(layout.padding(), 3);
        let mut pad_count = 0;
        for a in 0..24u8 {
            let stripe = p.stripe(a);
            for slot in 0..layout.padded_len() {
                if layout.query_pos_of(slot) >= 5 {
                    assert_eq!(stripe[slot], i16::NEG_INF);
                    pad_count += 1;
                }
            }
        }
        assert_eq!(pad_count, 3 * 24);
    }

    #[test]
    fn i8_profile_represents_blosum62() {
        // BLOSUM62 scores fit i8 comfortably.
        let q = Sequence::protein("q", b"WWWW").unwrap();
        let p = StripedProfile::<i8>::build(&q, &BLOSUM62, 4);
        let w = PROTEIN.ctoi(b'W').unwrap();
        assert_eq!(p.stripe(w)[0], 11);
        assert_eq!(p.max_matrix_score(), 11);
        assert_eq!(p.min_matrix_score(), -4);
    }

    #[test]
    #[should_panic(expected = "alphabet")]
    fn mismatched_alphabet_rejected() {
        let q = Sequence::dna("q", b"ACGT").unwrap();
        let _ = StripedProfile::<i32>::build(&q, &BLOSUM62, 8);
    }

    #[test]
    fn different_lane_counts_same_scores() {
        let q = Sequence::protein("q", b"MKVLAARNDWHEAGAWGHEE").unwrap();
        let p8 = StripedProfile::<i32>::build(&q, &BLOSUM62, 8);
        let p16 = StripedProfile::<i32>::build(&q, &BLOSUM62, 16);
        for a in 0..24u8 {
            for qi in 0..q.len() {
                assert_eq!(
                    p8.stripe(a)[p8.layout().slot_of(qi)],
                    p16.stripe(a)[p16.layout().slot_of(qi)]
                );
            }
        }
    }
}
