//! Inter-sequence vectorization (extension; paper Sec. VI-C).
//!
//! SWAPHI — the paper's MIC comparator — offers two vectorization
//! modes: *intra-sequence* (one alignment per vector, the striped
//! kernels of this crate) and *inter-sequence* (one **lane per
//! subject**, aligning a query against `LANES` subjects at once).
//! The paper benchmarks only the intra mode; this module implements
//! the inter mode as well. Its structural appeal: lanes are
//! independent alignments, so there are **no wavefront dependencies
//! to repair** — no lazy loop, no scan, no hybrid. Its structural
//! cost: a per-cell *gather* (each lane needs the matrix score of its
//! own subject character) plus idle lanes once short subjects finish.
//!
//! **A test oracle, with no product entry point.** Measured with
//! 32-bit lanes and the portable scalar gather used here, the gather
//! dominates and the intra-sequence hybrid was ~2× faster at every
//! subject length on the development host, so the inter-sequence
//! database sweep that once sat beside `SearchEngine::search` was
//! removed rather than kept behind a switch. What stays is the
//! kernel's value as a second, structurally independent
//! implementation: the conformance harness, the engine's oracle test
//! and `tests/random_matrix_equivalence.rs` compare the striped
//! kernels against it score for score. Production inter-sequence
//! tools (SWIPE, SWAPHI's inter mode) win by pairing byte-wide lanes
//! with SIMD-shuffled score profiles; if such a byte-lane kernel is
//! built and earns its place on the benchmark, it re-enters through
//! `SearchEngine::search`, chosen from the query length the code can
//! observe — never through a user-set flag.
//!
//! Works for all three [`AlignKind`]s and both gap systems, on any
//! [`SimdEngine`]; results are bit-identical to the scalar reference
//! per lane (property-tested).

use aalign_bio::{Sequence, SubstMatrix};
use aalign_vec::{resolve, with_engine, EngineFn, IsaSupport, ScoreElem, SimdEngine};

use crate::config::{AlignKind, TableII};

/// Reusable buffers for [`inter_align_batch`].
#[derive(Debug, Default)]
pub struct InterWorkspace<V, T = i32> {
    h: Vec<V>,
    e: Vec<V>,
    /// Per-column lane gather of substitution scores, query-major.
    scores: Vec<T>,
}

impl<V, T> InterWorkspace<V, T> {
    /// Fresh workspace.
    pub fn new() -> Self {
        Self {
            h: Vec::new(),
            e: Vec::new(),
            scores: Vec::new(),
        }
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

/// Align `query` against up to `E::LANES` subjects simultaneously,
/// one lane per subject, at any element width.
///
/// # Panics
/// Panics if `subjects.len() > E::LANES`, the query is empty, or any
/// sequence uses a different alphabet than `matrix`.
pub fn inter_align_batch<E: SimdEngine>(
    eng: E,
    t2: TableII,
    matrix: &SubstMatrix,
    query: &Sequence,
    subjects: &[&Sequence],
    ws: &mut InterWorkspace<E::Vec, E::Elem>,
) -> InterBatchResult {
    type T<E> = <E as SimdEngine>::Elem;
    let lanes = E::LANES;
    assert!(!query.is_empty(), "query must be non-empty");
    assert!(
        subjects.len() <= lanes,
        "batch of {} exceeds {lanes} lanes",
        subjects.len()
    );
    for s in subjects {
        assert!(
            core::ptr::eq(s.alphabet(), matrix.alphabet())
                && core::ptr::eq(query.alphabet(), matrix.alphabet()),
            "alphabet mismatch"
        );
    }
    let m = query.len();
    let q = query.indices();
    let n_max = subjects.iter().map(|s| s.len()).max().unwrap_or(0);
    let neg_inf = eng.splat(T::<E>::NEG_INF);

    // Column 0 boundary.
    ws.h.clear();
    ws.h.push(eng.splat(T::<E>::from_i32_sat(t2.init_t(0))));
    ws.h.extend((0..m).map(|j| eng.splat(T::<E>::from_i32_sat(t2.init_col(j)))));
    ws.e.clear();
    ws.e.resize(m + 1, neg_inf);
    ws.scores.resize(m * lanes, T::<E>::ZERO);

    let v_gl = eng.splat(T::<E>::from_i32_sat(t2.gap_left));
    let v_gle = eng.splat(T::<E>::from_i32_sat(t2.gap_left_ext));
    let v_gu = eng.splat(T::<E>::from_i32_sat(t2.gap_up));
    let v_gue = eng.splat(T::<E>::from_i32_sat(t2.gap_up_ext));
    let v_zero = eng.splat(T::<E>::ZERO);

    let mut v_local_max = neg_inf;
    // Per-lane bookkeeping for global/semi-global result extraction.
    let mut finals = vec![T::<E>::NEG_INF; subjects.len()];
    let mut lane_buf = vec![T::<E>::ZERO; lanes];
    if matches!(t2.kind, AlignKind::Global | AlignKind::SemiGlobal) {
        // Seed every lane with the boundary column's last-row value:
        // final for zero-length subjects, the i=0 contribution for
        // semi-global, overwritten at each lane's end column for
        // global.
        eng.store(&mut lane_buf, ws.h[m]);
        finals.copy_from_slice(&lane_buf[..subjects.len()]);
    }

    for i in 0..n_max {
        // Gather this column's substitution scores: lane l needs
        // matrix[s_l[i]][q[j]]. Finished lanes keep a NEG_INF row so
        // their garbage can never win (and cannot wrap: the E-path
        // bounds the per-column decrease).
        for (l, s) in subjects.iter().enumerate() {
            let idx = s.indices();
            if i < idx.len() {
                let row = matrix.row(idx[i]);
                for (j, &qr) in q.iter().enumerate() {
                    ws.scores[j * lanes + l] = T::<E>::from_i32_sat(row[qr as usize]);
                }
            } else {
                for j in 0..m {
                    ws.scores[j * lanes + l] = T::<E>::NEG_INF;
                }
            }
        }
        // Unused high lanes: keep them frozen at NEG_INF too.
        for l in subjects.len()..lanes {
            for j in 0..m {
                ws.scores[j * lanes + l] = T::<E>::NEG_INF;
            }
        }

        let mut h_diag = ws.h[0];
        let h0 = eng.splat(T::<E>::from_i32_sat(t2.init_t(i + 1)));
        ws.h[0] = h0;
        let mut v_f = neg_inf;
        for j in 1..=m {
            let e = eng.max(eng.add(ws.e[j], v_gle), eng.add(ws.h[j], v_gl));
            ws.e[j] = e;
            v_f = eng.max(eng.add(v_f, v_gue), eng.add(ws.h[j - 1], v_gu));
            let d = eng.add(h_diag, eng.load(&ws.scores[(j - 1) * lanes..]));
            let mut v = eng.max(d, eng.max(e, v_f));
            if t2.local {
                v = eng.max(v, v_zero);
            }
            h_diag = ws.h[j];
            ws.h[j] = v;
            if t2.local {
                v_local_max = eng.max(v_local_max, v);
            }
        }

        // Result extraction at each lane's own end column.
        match t2.kind {
            AlignKind::Local => {}
            AlignKind::Global => {
                eng.store(&mut lane_buf, ws.h[m]);
                for (l, s) in subjects.iter().enumerate() {
                    if s.len() == i + 1 {
                        finals[l] = lane_buf[l];
                    }
                }
            }
            AlignKind::SemiGlobal => {
                eng.store(&mut lane_buf, ws.h[m]);
                for (l, s) in subjects.iter().enumerate() {
                    if i < s.len() {
                        finals[l] = finals[l].max2(lane_buf[l]);
                    }
                }
            }
        }
    }

    let headroom = matrix.max_score().abs().max(t2.gap_up.abs()) + 1;
    let elems: Vec<T<E>> = match t2.kind {
        AlignKind::Local => {
            eng.store(&mut lane_buf, v_local_max);
            subjects
                .iter()
                .enumerate()
                .map(|(l, _)| lane_buf[l].max2(T::<E>::ZERO))
                .collect()
        }
        AlignKind::Global | AlignKind::SemiGlobal => finals,
    };
    let saturated = elems
        .iter()
        .map(|&v| {
            aalign_vec::elem::near_saturation(v, headroom)
                || (t2.kind != AlignKind::Local
                    && v.to_i32() <= T::<E>::NEG_INF.to_i32() + headroom)
        })
        .collect();
    InterBatchResult {
        scores: elems.iter().map(|v| v.to_i32()).collect(),
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
        InterAll {
            t2,
            matrix,
            query,
            subjects,
        },
    )
}

/// [`inter_align_all`]'s body, batching by the engine's lane count.
struct InterAll<'a> {
    t2: TableII,
    matrix: &'a SubstMatrix,
    query: &'a Sequence,
    subjects: &'a [&'a Sequence],
}

impl EngineFn<i32> for InterAll<'_> {
    type Out = Vec<i32>;

    #[inline(always)]
    fn call<E: SimdEngine<Elem = i32>>(self, eng: E) -> Vec<i32> {
        let mut ws = InterWorkspace::new();
        let mut out = Vec::with_capacity(self.subjects.len());
        for chunk in self.subjects.chunks(E::LANES) {
            let batch = inter_align_batch(eng, self.t2, self.matrix, self.query, chunk, &mut ws);
            out.extend(batch.scores);
        }
        out
    }
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
            let got = inter_align_batch(eng, t2, &BLOSUM62, &q, &refs, &mut ws);
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
            &BLOSUM62,
            &q,
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
            &BLOSUM62,
            &big,
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
        let _ = inter_align_batch(eng, cfg.table2(), &BLOSUM62, &q, &refs, &mut ws);
    }
}
