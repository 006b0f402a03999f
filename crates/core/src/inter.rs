//! Inter-sequence vectorization (extension; paper Sec. VI-C): one
//! lane per subject.
//!
//! SWAPHI — the paper's MIC comparator — offers two vectorization
//! modes: *intra-sequence* (one alignment per vector, the striped
//! kernels of this crate) and *inter-sequence* (one **lane per
//! subject**, aligning a query against `LANES` subjects at once). The
//! paper benchmarks only the intra mode. Lanes are independent
//! alignments, so there are **no wavefront dependencies to repair** —
//! no lazy loop, no scan, no hybrid — and a query too short to fill a
//! stripe still fills every lane. The costs are structural too: each
//! cell needs the substitution score of *its own lane's* subject
//! residue, the batch's residues have to be transposed so that one
//! vector holds one column of every subject, and a lane whose subject
//! has ended idles until the longest one is done.
//!
//! **A strategy of the one sweep.** With the scores gathered by
//! `m × LANES` scalar stores per column this kernel lost to the
//! striped hybrid at every subject length and was only a test oracle.
//! It is now written on [`SimdEngine::lookup32`] — the query is
//! prepared once as `m` rows of 32 scores ([`LaneProfile`]), a column
//! of the batch is one vector of residue indices, and a cell's score
//! is one in-register table lookup (`vpermw`, or two to four `pshufb`)
//! — and `SearchEngine::search` runs it on engines whose lookup is
//! native ([`Aligner::align_batch_prepared`] holds the rule;
//! EXPERIMENTS.md, "Short queries: lanes per subject" and "Byte lanes
//! first", the numbers). A local search scores every batch at 8 bits
//! first, at any query length — few subjects reach a byte's ceiling,
//! the SSW / SWIPE observation — and re-runs the lanes that flag
//! saturation together at 16 bits; wider batches are for queries of
//! at most `LANE_QUERY_CAP` residues. It has no entry point, option or
//! flag of its own. It stays a second, structurally independent
//! implementation as well:
//! the conformance harness and `tests/random_matrix_equivalence.rs`
//! compare it with the scalar reference score for score, and the
//! engine's sweep tests compare it with the striped kernels.
//!
//! Works for all three [`AlignKind`]s and both gap systems, on any
//! [`SimdEngine`] (an engine without a native lookup runs the portable
//! gather: correct, and slower than the striped kernels); results are
//! bit-identical to the scalar reference per lane (property-tested).
//! Saturation is reported per lane from the *final* score alone, which
//! is sound for local alignments at any width (the running maximum
//! sticks at the ceiling) — what lets a local batch try i8 with no
//! bound at all — and for global / semi-global ones only inside
//! [`ScoreBounds::fits`](crate::config::ScoreBounds::fits) — callers
//! run those narrow nowhere else.
//!
//! [`Aligner::align_batch_prepared`]: crate::Aligner::align_batch_prepared

use aalign_bio::{Alphabet, Sequence, SubstMatrix};
use aalign_vec::{
    resolve, with_engine, AlignedBuf, EngineFn, IsaSupport, ScoreElem, SimdEngine, LOOKUP_ENTRIES,
};

use crate::config::{AlignKind, TableII};

/// Columns transposed at a time: the scratch is `LANES × 128` indices
/// (8 KiB on every 32-lane i16 engine), whatever the subjects' lengths.
const TILE_COLUMNS: usize = 128;

/// A query prepared for the lane kernel at one element width: row `j`
/// is the [`LOOKUP_ENTRIES`] scores of query residue `q[j]` against
/// each subject residue index, the slots past the alphabet holding
/// `NEG_INF` — a lane whose subject has ended reads the first of them
/// (the *pad* index) and so can never win.
#[derive(Debug)]
pub struct LaneProfile<T> {
    rows: AlignedBuf<T>,
    len: usize,
    alphabet: &'static Alphabet,
    max_score: i32,
}

impl<T: ScoreElem> LaneProfile<T> {
    /// Build the rows of `query` under `matrix`.
    ///
    /// # Panics
    /// Panics if the query is empty, its alphabet is not the matrix's,
    /// or the alphabet leaves no spare slot in a 32-entry row.
    pub fn build(query: &Sequence, matrix: &SubstMatrix) -> Self {
        let alphabet = matrix.alphabet();
        assert!(!query.is_empty(), "query must be non-empty");
        assert!(
            core::ptr::eq(query.alphabet(), alphabet),
            "alphabet mismatch"
        );
        assert!(
            alphabet.len() < LOOKUP_ENTRIES,
            "a {}-letter alphabet leaves no pad slot in a {LOOKUP_ENTRIES}-entry row",
            alphabet.len()
        );
        let mut rows = AlignedBuf::new();
        rows.resize(query.len() * LOOKUP_ENTRIES, T::NEG_INF);
        for (row, &q) in rows.chunks_exact_mut(LOOKUP_ENTRIES).zip(query.indices()) {
            for (residue, slot) in row.iter_mut().take(alphabet.len()).enumerate() {
                *slot = T::from_i32_sat(matrix.score(residue as u8, q));
            }
        }
        Self {
            rows,
            len: query.len(),
            alphabet,
            max_score: matrix.max_score(),
        }
    }
}

/// Reusable buffers for [`inter_align_batch`].
#[derive(Debug, Default)]
pub struct InterWorkspace<T> {
    /// `H | E`, one vector per query row plus the boundary row, in one
    /// line-aligned block.
    cols: AlignedBuf<T>,
    /// One tile of the batch's residue indices, transposed: `LANES`
    /// per column.
    tile: AlignedBuf<T>,
}

impl<T: ScoreElem> InterWorkspace<T> {
    /// Fresh workspace.
    pub fn new() -> Self {
        Self {
            cols: AlignedBuf::new(),
            tile: AlignedBuf::new(),
        }
    }

    /// Elements currently reserved — the hook behind
    /// [`AlignScratch::reserved_bytes`](crate::AlignScratch::reserved_bytes).
    pub fn reserved_elems(&self) -> usize {
        self.cols.capacity() + self.tile.capacity()
    }
}

/// One batch's outcome: widened scores plus per-lane saturation
/// flags (narrow element types only; i32 never saturates on
/// realistic inputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterBatchResult {
    /// One score per subject, in input order, widened to i32.
    pub scores: Vec<i32>,
    /// True where the lane's score is too close to the element
    /// type's limits to be trusted (rerun that subject wider).
    pub saturated: Vec<bool>,
}

/// Any number of subjects through [`inter_align_batch`], one vector of
/// `E::LANES` after another: the computation [`with_engine`]
/// instantiates per engine, for every caller that has a table row
/// rather than an engine in hand.
#[derive(Debug)]
pub struct InterBatches<'a, T> {
    /// The paradigm constants.
    pub t2: TableII,
    /// The prepared query.
    pub prof: &'a LaneProfile<T>,
    /// The subjects, best longest first.
    pub subjects: &'a [&'a Sequence],
    /// Scratch, reused across vectors and calls.
    pub ws: &'a mut InterWorkspace<T>,
}

impl<T: ScoreElem> EngineFn<T> for InterBatches<'_, T> {
    type Out = InterBatchResult;

    #[inline(always)]
    fn call<E: SimdEngine<Elem = T>>(self, eng: E) -> InterBatchResult {
        let mut all = InterBatchResult {
            scores: Vec::with_capacity(self.subjects.len()),
            saturated: Vec::with_capacity(self.subjects.len()),
        };
        for vector in self.subjects.chunks(E::LANES) {
            let out = inter_align_batch(eng, self.t2, self.prof, vector, self.ws);
            all.scores.extend(out.scores);
            all.saturated.extend(out.saturated);
        }
        all
    }
}

/// Align the query of `prof` against up to `E::LANES` subjects
/// simultaneously, one lane per subject, at any element width.
/// Subjects may come in any order; sorted by length they waste the
/// fewest lane-columns (every lane runs to the longest subject's end).
///
/// Forced inline: the body has to be compiled inside the
/// target-feature entry [`with_engine`] calls it from.
///
/// # Panics
/// Panics if `subjects.len() > E::LANES` or a subject uses a different
/// alphabet than the profile.
#[inline(always)]
pub fn inter_align_batch<E: SimdEngine>(
    eng: E,
    t2: TableII,
    prof: &LaneProfile<E::Elem>,
    subjects: &[&Sequence],
    ws: &mut InterWorkspace<E::Elem>,
) -> InterBatchResult {
    if t2.local {
        batch::<E, true>(eng, t2, prof, subjects, ws)
    } else {
        batch::<E, false>(eng, t2, prof, subjects, ws)
    }
}

#[inline(always)]
fn batch<E: SimdEngine, const LOCAL: bool>(
    eng: E,
    t2: TableII,
    prof: &LaneProfile<E::Elem>,
    subjects: &[&Sequence],
    ws: &mut InterWorkspace<E::Elem>,
) -> InterBatchResult {
    type T<E> = <E as SimdEngine>::Elem;
    let lanes = E::LANES;
    assert!(
        subjects.len() <= lanes,
        "batch of {} exceeds {lanes} lanes",
        subjects.len()
    );
    for s in subjects {
        assert!(
            core::ptr::eq(s.alphabet(), prof.alphabet),
            "alphabet mismatch"
        );
    }
    let m = prof.len;
    let n_max = subjects.iter().map(|s| s.len()).max().unwrap_or(0);
    let splat = |x: i32| eng.splat(T::<E>::from_i32_sat(x));
    let neg_inf = eng.splat(T::<E>::NEG_INF);

    // Column 0 boundary.
    ws.cols.resize(2 * (m + 1) * lanes, T::<E>::ZERO);
    let (h, e) = ws.cols.split_at_mut((m + 1) * lanes);
    eng.store(h, splat(t2.init_t(0)));
    for (j, h_j) in h[lanes..].chunks_exact_mut(lanes).enumerate() {
        eng.store(h_j, splat(t2.init_col(j)));
    }
    for e_j in e.chunks_exact_mut(lanes) {
        eng.store(e_j, neg_inf);
    }

    let v_gl = splat(t2.gap_left);
    let v_gle = splat(t2.gap_left_ext);
    let v_gu = splat(t2.gap_up);
    let v_gue = splat(t2.gap_up_ext);
    let v_zero = eng.splat(T::<E>::ZERO);

    // The boundary column's last row: final for zero-length subjects
    // (global) and the i = 0 term of the semi-global maximum.
    let v_boundary = eng.load(&h[m * lanes..]);
    let mut v_local_max = neg_inf;
    let mut v_semi = v_boundary;
    // Global scores sit in each lane's own end column; `next_end` is
    // the nearest one still ahead, so a column costs one compare.
    // Sized for the widest supported engine (i8×64).
    let mut lane_buf = [T::<E>::ZERO; 64];
    eng.store(&mut lane_buf, v_boundary);
    let mut finals = lane_buf[..subjects.len()].to_vec();
    let end_after = |done: usize| {
        subjects
            .iter()
            .map(|s| s.len())
            .filter(|&n| n > done)
            .min()
            .unwrap_or(usize::MAX)
    };
    let mut next_end = end_after(0);

    let pad = T::<E>::from_i32(prof.alphabet.len() as i32);
    // Whole tiles, however short the batch: the scratch has one size.
    ws.tile.resize(TILE_COLUMNS * lanes, pad);
    for tile_start in (0..n_max).step_by(TILE_COLUMNS) {
        // Transpose this tile of the batch: column c of the scratch
        // holds residue `tile_start + c` of every subject, lanes past
        // a subject's end (and unused lanes) the pad index.
        let width = TILE_COLUMNS.min(n_max - tile_start);
        let tile = &mut ws.tile[..width * lanes];
        tile.fill(pad);
        for (l, s) in subjects.iter().enumerate() {
            let residues = s.indices().get(tile_start..).unwrap_or(&[]);
            for (column, &r) in tile.chunks_exact_mut(lanes).zip(residues) {
                column[l] = T::<E>::from_i32(i32::from(r));
            }
        }

        for (c, column) in tile.chunks_exact(lanes).enumerate() {
            let i = tile_start + c;
            let idx = eng.load(column);
            let (h_0, h_rows) = h.split_at_mut(lanes);
            let mut h_diag = eng.load(h_0);
            let mut h_up = splat(t2.init_t(i + 1));
            eng.store(h_0, h_up);
            let mut v_f = neg_inf;
            let rows = h_rows
                .chunks_exact_mut(lanes)
                .zip(e[lanes..].chunks_exact_mut(lanes))
                .zip(prof.rows.chunks_exact(LOOKUP_ENTRIES));
            for ((h_j, e_j), scores) in rows {
                let h_left = eng.load(h_j);
                let v_e = eng.max(eng.add(eng.load(e_j), v_gle), eng.add(h_left, v_gl));
                eng.store(e_j, v_e);
                v_f = eng.max(eng.add(v_f, v_gue), eng.add(h_up, v_gu));
                let mut v = eng.max(eng.add(h_diag, eng.lookup32(scores, idx)), v_e);
                if LOCAL {
                    v = eng.max(v, v_zero);
                }
                v = eng.max(v, v_f);
                if LOCAL {
                    v_local_max = eng.max(v_local_max, v);
                }
                h_diag = h_left;
                eng.store(h_j, v);
                h_up = v;
            }

            // `h_up` is now this column's last row. A lane past its
            // subject's end only decays from its own earlier columns
            // (pad scores are NEG_INF, gaps cost), so the semi-global
            // running maximum needs no mask.
            match t2.kind {
                AlignKind::Local => {}
                AlignKind::SemiGlobal => v_semi = eng.max(v_semi, h_up),
                AlignKind::Global => {
                    if i + 1 == next_end {
                        eng.store(&mut lane_buf, h_up);
                        for (l, s) in subjects.iter().enumerate() {
                            if s.len() == i + 1 {
                                finals[l] = lane_buf[l];
                            }
                        }
                        next_end = end_after(i + 1);
                    }
                }
            }
        }
    }

    match t2.kind {
        AlignKind::Local => {
            eng.store(&mut lane_buf, v_local_max);
            for (fin, &best) in finals.iter_mut().zip(&lane_buf) {
                *fin = best.max2(T::<E>::ZERO);
            }
        }
        AlignKind::SemiGlobal => {
            eng.store(&mut lane_buf, v_semi);
            finals.copy_from_slice(&lane_buf[..subjects.len()]);
        }
        AlignKind::Global => {}
    }
    // The striped kernels' headroom, so a lane is flagged here exactly
    // when its striped run would be.
    let headroom = prof
        .max_score
        .abs()
        .max(t2.gap_up.abs())
        .max(t2.gap_left.abs())
        + 1;
    let saturated = finals
        .iter()
        .map(|&v| {
            aalign_vec::elem::near_saturation(v, headroom)
                || (!LOCAL && v.to_i32() <= T::<E>::NEG_INF.to_i32() + headroom)
        })
        .collect();
    InterBatchResult {
        scores: finals.iter().map(|v| v.to_i32()).collect(),
        saturated,
    }
}

/// Convenience: align a query against any number of subjects with the
/// widest available i32 engine, batching internally. Subjects should
/// be pre-sorted by length (longest first) so batches stay dense.
///
/// ```
/// use aalign_core::{inter_align_all, AlignConfig, GapModel};
/// use aalign_bio::{matrices::BLOSUM62, Sequence};
/// let q = Sequence::protein("q", b"HEAGAWGHEE").unwrap();
/// let a = Sequence::protein("a", b"HEAGAWGHEE").unwrap();
/// let b = Sequence::protein("b", b"PAWHEAE").unwrap();
/// let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
/// let scores = inter_align_all(cfg.table2(), &BLOSUM62, &q, &[&a, &b]);
/// assert_eq!(scores[0], 62); // exact self-match
/// assert_eq!(scores[1], 17);
/// ```
pub fn inter_align_all(
    t2: TableII,
    matrix: &SubstMatrix,
    query: &Sequence,
    subjects: &[&Sequence],
) -> Vec<i32> {
    let backend = resolve(IsaSupport::detect(), None, 32);
    with_engine(
        backend,
        InterBatches {
            t2,
            prof: &LaneProfile::<i32>::build(query, matrix),
            subjects,
            ws: &mut InterWorkspace::new(),
        },
    )
    .scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlignConfig, GapModel};
    use crate::paradigm::paradigm_dp;
    use aalign_bio::matrices::BLOSUM62;
    use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
    use aalign_vec::EmuEngine;

    fn all_configs() -> Vec<AlignConfig> {
        let mut out = Vec::new();
        for kind in [AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal] {
            for gap in [GapModel::affine(-10, -2), GapModel::linear(-3)] {
                out.push(AlignConfig::new(kind, gap, &BLOSUM62));
            }
        }
        out
    }

    #[test]
    fn batch_matches_scalar_reference_per_lane() {
        let mut rng = seeded_rng(500);
        let q = named_query(&mut rng, 45);
        // Mixed-length batch, including an empty subject.
        let mut subjects: Vec<Sequence> =
            (0..7).map(|i| named_query(&mut rng, 10 + i * 9)).collect();
        subjects.push(Sequence::from_indices("empty", q.alphabet(), Vec::new()));
        let refs: Vec<&Sequence> = subjects.iter().collect();

        for cfg in all_configs() {
            let t2 = cfg.table2();
            let eng = EmuEngine::<i32, 8>::new();
            let mut ws = InterWorkspace::new();
            let prof = LaneProfile::build(&q, &BLOSUM62);
            let got = inter_align_batch(eng, t2, &prof, &refs, &mut ws);
            for (l, s) in subjects.iter().enumerate() {
                let want = paradigm_dp(&cfg, &q, s).score;
                assert_eq!(got.scores[l], want, "{} lane {l} ({})", cfg.label(), s.id());
                assert!(!got.saturated[l]);
            }
        }
    }

    #[test]
    fn partial_batches_and_chunking() {
        let mut rng = seeded_rng(501);
        let q = named_query(&mut rng, 30);
        let db = swissprot_like_db(502, 21); // not a multiple of any lane count
        let subjects: Vec<&Sequence> = db.sequences().iter().collect();
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let got = inter_align_all(cfg.table2(), &BLOSUM62, &q, &subjects);
        assert_eq!(got.len(), 21);
        for (l, s) in subjects.iter().enumerate() {
            assert_eq!(got[l], paradigm_dp(&cfg, &q, s).score, "{}", s.id());
        }
    }

    #[test]
    fn hardware_engines_match_emulated() {
        let mut rng = seeded_rng(503);
        let q = named_query(&mut rng, 40);
        let subjects: Vec<Sequence> = (0..16).map(|i| named_query(&mut rng, 20 + i * 3)).collect();
        let refs: Vec<&Sequence> = subjects.iter().collect();
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let t2 = cfg.table2();

        let want: Vec<i32> = subjects
            .iter()
            .map(|s| paradigm_dp(&cfg, &q, s).score)
            .collect();
        let got = inter_align_all(t2, &BLOSUM62, &q, &refs);
        assert_eq!(got, want);
    }

    #[test]
    fn i16_batches_match_i32_and_flag_saturation() {
        let mut rng = seeded_rng(505);
        let q = named_query(&mut rng, 50);
        let subjects: Vec<Sequence> = (0..8).map(|i| named_query(&mut rng, 20 + i * 7)).collect();
        let refs: Vec<&Sequence> = subjects.iter().collect();
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let t2 = cfg.table2();

        let mut ws16 = InterWorkspace::new();
        let got16 = inter_align_batch(
            EmuEngine::<i16, 8>::new(),
            t2,
            &LaneProfile::build(&q, &BLOSUM62),
            &refs,
            &mut ws16,
        );
        for (l, s) in subjects.iter().enumerate() {
            assert!(!got16.saturated[l]);
            assert_eq!(
                got16.scores[l],
                paradigm_dp(&cfg, &q, s).score,
                "{}",
                s.id()
            );
        }

        // A long identical pair must saturate i16 and be flagged.
        let big = Sequence::from_indices(
            "big",
            q.alphabet(),
            std::iter::repeat_n(17u8, 3100).collect(), // 3100 × W: 34100 > i16::MAX
        );
        let refs = vec![&big];
        let got = inter_align_batch(
            EmuEngine::<i16, 8>::new(),
            cfg.table2(),
            &LaneProfile::build(&big, &BLOSUM62),
            &refs,
            &mut InterWorkspace::new(),
        );
        assert!(got.saturated[0], "34100 > i16::MAX must be flagged");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_batch_rejected() {
        let mut rng = seeded_rng(504);
        let q = named_query(&mut rng, 10);
        let subjects: Vec<Sequence> = (0..5).map(|_| named_query(&mut rng, 8)).collect();
        let refs: Vec<&Sequence> = subjects.iter().collect();
        let cfg = AlignConfig::local(GapModel::linear(-2), &BLOSUM62);
        let eng = EmuEngine::<i32, 4>::new();
        let mut ws = InterWorkspace::new();
        let prof = LaneProfile::build(&q, &BLOSUM62);
        let _ = inter_align_batch(eng, cfg.table2(), &prof, &refs, &mut ws);
    }
}
