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
//! residue, and the batch's residues have to be transposed so that one
//! vector holds one column of every lane.
//!
//! **Lane refill** (SWIPE). A batch is any number of subjects, not one
//! vector of them: when a lane's subject ends, the lane hands its score
//! over and starts the next subject not yet begun, in the very next
//! column. One schedule (`schedule`) places the subjects — the
//! lane that frees first, ties to the lower lane — and serves the
//! transposition, the per-column hand-off flag and the lane-column
//! count the fill rule weighs. On a hand-off column the ending lanes
//! are reset to the column-0 state with two adds and a max against a
//! lane mask, no new engine primitive; every other column runs the row
//! loop as it always did. Longest first, the lanes idle only at the
//! batch's very end: a 125-subject shard pads ≈ 1.08 lane-columns per
//! residue where one vector at a time padded 1.70 (EXPERIMENTS.md,
//! "Lane refill").
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Any number of subjects through [`inter_align_batch`]: the
/// computation [`with_engine`] instantiates per engine, for every
/// caller that has a table row rather than an engine in hand.
#[derive(Debug)]
pub struct InterBatches<'a, T> {
    /// The paradigm constants.
    pub t2: TableII,
    /// The prepared query.
    pub prof: &'a LaneProfile<T>,
    /// The subjects, best longest first.
    pub subjects: &'a [&'a Sequence],
    /// Scratch, reused across calls.
    pub ws: &'a mut InterWorkspace<T>,
}

impl<T: ScoreElem> EngineFn<T> for InterBatches<'_, T> {
    type Out = InterBatchResult;

    #[inline(always)]
    fn call<E: SimdEngine<Elem = T>>(self, eng: E) -> InterBatchResult {
        inter_align_batch(eng, self.t2, self.prof, self.subjects, self.ws)
    }
}

/// Lanes of the widest supported engine (i8×64): the size of the
/// kernel's per-lane scratch arrays.
const MAX_LANES: usize = 64;

/// The refill schedule of `subjects` on `lanes` lanes. Each non-empty
/// subject, in input order, goes to the lane that frees first — ties
/// to the lower lane index — and starts in the column where that
/// lane's previous subject ended; the first `lanes` subjects start in
/// column 0. `place(subject, lane, start)` sees every placement. The
/// return is the batch's column count: `lanes ×` it are the
/// lane-columns the kernel computes. Empty subjects take no lane.
fn schedule(
    subjects: &[&Sequence],
    lanes: usize,
    mut place: impl FnMut(usize, usize, usize),
) -> usize {
    // (free at, lane), the least first.
    let mut free: BinaryHeap<Reverse<(usize, usize)>> =
        (0..lanes).map(|lane| Reverse((0, lane))).collect();
    for (k, s) in subjects.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
        let mut first = free.peek_mut().expect("at least one lane");
        let Reverse((start, lane)) = *first;
        place(k, lane, start);
        *first = Reverse((start + s.len(), lane));
    }
    free.into_iter()
        .map(|Reverse((at, _))| at)
        .max()
        .unwrap_or(0)
}

/// Lane-columns [`inter_align_batch`] computes for `subjects` on an
/// engine of `lanes` lanes: lanes × the columns of their refill
/// schedule. What the lanes are paid for, and what
/// [`LANE_MIN_FILL_PERCENT`](crate::LANE_MIN_FILL_PERCENT) weighs the
/// subjects' residues against.
pub(crate) fn lane_columns(subjects: &[&Sequence], lanes: usize) -> usize {
    lanes * schedule(subjects, lanes, |_, _, _| {})
}

/// The gap and boundary constants one column's rows read.
#[derive(Clone, Copy)]
struct Rows<V> {
    gl: V,
    gle: V,
    gu: V,
    gue: V,
    zero: V,
    neg_inf: V,
    /// Row 0's column-0 value, and the step from one row's to the next.
    start: V,
    start_step: V,
}

/// The lanes a hand-off column resets: `stop` is `NEG_INF` in them and
/// 0 in the others, `keep` the other way round.
#[derive(Clone, Copy)]
struct Handoff<V> {
    stop: V,
    keep: V,
}

impl<V: Copy> Handoff<V> {
    /// `x` in the lanes that go on, `start` in the lanes that reset:
    /// `max(x + stop + stop, start + keep)`. Exact at i8 and i16
    /// (saturating adds: a resetting lane bottoms out at `MIN`, a kept
    /// one compares with `MIN`) and at i32 (`NEG_INF = MIN / 4`: the
    /// two adds stay in range), for every value inside the bounds that
    /// gate narrow lanes.
    #[inline(always)]
    fn reset<E: SimdEngine<Vec = V>>(self, eng: E, x: V, start: V) -> V {
        self.reset_to(eng, x, eng.add(start, self.keep))
    }

    /// [`reset`](Self::reset) with `start + keep` already added.
    #[inline(always)]
    fn reset_to<E: SimdEngine<Vec = V>>(self, eng: E, x: V, start_kept: V) -> V {
        eng.max(eng.add(eng.add(x, self.stop), self.stop), start_kept)
    }
}

/// One column of every lane: rows `1..=m` of `h` / `e` updated in
/// place from the top value `h_up` and the previous column's top
/// `h_diag`; returns the last row. With `RESET`, the lanes of `hand`
/// first take the column-0 state — `H` the boundary column, `E`
/// `NEG_INF` (a local `E` just some negative value, as good there) —
/// so their new subject starts here.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn column<E: SimdEngine, const LOCAL: bool, const RESET: bool>(
    eng: E,
    g: &Rows<E::Vec>,
    hand: Handoff<E::Vec>,
    idx: E::Vec,
    mut h_diag: E::Vec,
    mut h_up: E::Vec,
    h_rows: &mut [E::Elem],
    e_rows: &mut [E::Elem],
    scores: &[E::Elem],
    local_max: &mut E::Vec,
) -> E::Vec {
    let lanes = E::LANES;
    let mut v_f = g.neg_inf;
    // The resetting lanes' column-0 values, `keep` added: `H` row by
    // row, `E` throughout.
    let mut h_start = eng.add(g.start, hand.keep);
    let e_start = eng.add(g.neg_inf, hand.keep);
    let rows = h_rows
        .chunks_exact_mut(lanes)
        .zip(e_rows.chunks_exact_mut(lanes))
        .zip(scores.chunks_exact(LOOKUP_ENTRIES));
    for ((h_j, e_j), scores) in rows {
        let mut h_left = eng.load(h_j);
        let mut e_left = eng.load(e_j);
        if RESET && LOCAL {
            // A local `H` is never negative and its boundary is 0, so
            // one `stop` and a max with 0 reset it. A local `E` only
            // counts where it beats 0: one `stop` makes it negative,
            // and from there it stays negative or meets the exact
            // value, so no `H` it feeds can tell.
            h_left = eng.max(eng.add(h_left, hand.stop), g.zero);
            e_left = eng.add(e_left, hand.stop);
        } else if RESET {
            h_left = hand.reset_to(eng, h_left, h_start);
            h_start = eng.add(h_start, g.start_step);
            e_left = hand.reset_to(eng, e_left, e_start);
        }
        let v_e = eng.max(eng.add(e_left, g.gle), eng.add(h_left, g.gl));
        eng.store(e_j, v_e);
        v_f = eng.max(eng.add(v_f, g.gue), eng.add(h_up, g.gu));
        let mut v = eng.max(eng.add(h_diag, eng.lookup32(scores, idx)), v_e);
        if LOCAL {
            v = eng.max(v, g.zero);
        }
        v = eng.max(v, v_f);
        if LOCAL {
            *local_max = eng.max(*local_max, v);
        }
        h_diag = h_left;
        eng.store(h_j, v);
        h_up = v;
    }
    h_up
}

/// Align the query of `prof` against any number of subjects, one lane
/// per subject at a time, at any element width. Lanes start on the
/// first `E::LANES` subjects; when a lane's subject ends, the lane takes
/// the next one not yet started (the refill schedule), so no
/// lane idles while subjects are left. Longest first, the lanes also
/// end together.
///
/// Forced inline: the body has to be compiled inside the
/// target-feature entry [`with_engine`] calls it from.
///
/// # Panics
/// Panics if a subject uses a different alphabet than the profile.
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
    for s in subjects {
        assert!(
            core::ptr::eq(s.alphabet(), prof.alphabet),
            "alphabet mismatch"
        );
    }
    // Every placement as (start, end, lane, subject), in start order
    // (the schedule's), and as its hand-off, in end order.
    let mut placed = Vec::with_capacity(subjects.len());
    let columns = schedule(subjects, lanes, |k, lane, start| {
        placed.push((start, start + subjects[k].len(), lane, k));
    });
    let mut handoffs: Vec<(usize, usize, usize)> = placed
        .iter()
        .map(|&(_, end, lane, k)| (end, lane, k))
        .collect();
    handoffs.sort_unstable();
    let end_at = |next: usize| handoffs.get(next).map_or(usize::MAX, |h| h.0);

    let m = prof.len;
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

    let g = Rows {
        gl: splat(t2.gap_left),
        gle: splat(t2.gap_left_ext),
        gu: splat(t2.gap_up),
        gue: splat(t2.gap_up_ext),
        zero: eng.splat(T::<E>::ZERO),
        neg_inf,
        start: splat(t2.init_col(0)),
        start_step: splat(t2.init_col(1) - t2.init_col(0)),
    };
    // Each lane's top boundary for the coming column, `INIT_T` of the
    // lane's own column index: one step a column, reset with the lane.
    let v_top_start = splat(t2.init_t(1));
    let v_top_step = splat(t2.init_t(2) - t2.init_t(1));
    let mut v_top = v_top_start;

    // The boundary column's last row: the score of an empty subject and
    // the i = 0 term of the semi-global maximum.
    let v_boundary = eng.load(&h[m * lanes..]);
    let mut v_local_max = neg_inf;
    let mut v_semi = v_boundary;
    let (h_0, h_rows) = h.split_at_mut(lanes);
    let e_rows = &mut e[lanes..];
    let last_row = (m - 1) * lanes;
    let mut finals = vec![T::<E>::from_i32_sat(t2.init_col(m - 1)); subjects.len()];
    let mut lane_buf = [T::<E>::ZERO; MAX_LANES];
    // Each lane's result so far: its running maximum (local), its
    // last-row maximum (semi-global), its last row (global).
    let result = |last_row: &[T<E>], v_local_max, v_semi| match t2.kind {
        AlignKind::Local => v_local_max,
        AlignKind::SemiGlobal => v_semi,
        AlignKind::Global => eng.load(last_row),
    };
    // The next hand-off, and its column.
    let (mut next, mut next_end) = (0, end_at(0));
    // The placements the current tile reads, and how many of `placed`
    // have started.
    let mut live: Vec<(usize, usize, usize, usize)> = Vec::with_capacity(2 * lanes);
    let mut started = 0;
    // Each lane's mask entries, `stop` / `keep` outside a hand-off.
    let mut stop = [T::<E>::ZERO; MAX_LANES];
    let mut keep = [T::<E>::NEG_INF; MAX_LANES];

    let pad = T::<E>::from_i32(prof.alphabet.len() as i32);
    // Whole tiles, however short the batch: the scratch has one size.
    ws.tile.resize(TILE_COLUMNS * lanes, pad);
    for tile_start in (0..columns).step_by(TILE_COLUMNS) {
        // Transpose this tile of the schedule: column c of the scratch
        // holds, in each lane, the residue that lane reads in column
        // `tile_start + c`; lanes past their last subject (and unused
        // lanes) the pad index.
        let width = TILE_COLUMNS.min(columns - tile_start);
        let tile = &mut ws.tile[..width * lanes];
        tile.fill(pad);
        let tile_end = tile_start + width;
        live.retain(|&(_, end, ..)| end > tile_start);
        while let Some(&p) = placed.get(started).filter(|p| p.0 < tile_end) {
            live.push(p);
            started += 1;
        }
        for &(start, end, lane, k) in &live {
            let (from, to) = (start.max(tile_start), end.min(tile_end));
            let residues = &subjects[k].indices()[from - start..to - start];
            let cells = tile[(from - tile_start) * lanes..].chunks_exact_mut(lanes);
            for (column, &r) in cells.zip(residues) {
                column[lane] = T::<E>::from_i32(i32::from(r));
            }
        }

        for (c, column_idx) in tile.chunks_exact(lanes).enumerate() {
            let i = tile_start + c;
            let idx = eng.load(column_idx);
            // The previous column's top boundary.
            let mut h_diag = eng.load(h_0);
            let handoff = i == next_end;
            let mut hand = Handoff {
                stop: neg_inf,
                keep: neg_inf,
            };
            if handoff {
                // The lanes whose subject ended with the last column
                // hand their result over and start afresh.
                eng.store(
                    &mut lane_buf,
                    result(&h_rows[last_row..], v_local_max, v_semi),
                );
                let first = next;
                while next_end == i {
                    let (_, lane, k) = handoffs[next];
                    finals[k] = lane_buf[lane];
                    (stop[lane], keep[lane]) = (T::<E>::NEG_INF, T::<E>::ZERO);
                    next += 1;
                    next_end = end_at(next);
                }
                hand = Handoff {
                    stop: eng.load(&stop),
                    keep: eng.load(&keep),
                };
                for &(_, lane, _) in &handoffs[first..next] {
                    (stop[lane], keep[lane]) = (T::<E>::ZERO, T::<E>::NEG_INF);
                }
                h_diag = hand.reset(eng, h_diag, splat(t2.init_t(0)));
                v_top = hand.reset(eng, v_top, v_top_start);
                v_local_max = hand.reset(eng, v_local_max, neg_inf);
                v_semi = hand.reset(eng, v_semi, v_boundary);
            }
            let h_up = v_top;
            eng.store(h_0, h_up);
            v_top = eng.add(v_top, v_top_step);
            let scores = &prof.rows[..];
            let last = if handoff {
                column::<E, LOCAL, true>(
                    eng,
                    &g,
                    hand,
                    idx,
                    h_diag,
                    h_up,
                    h_rows,
                    e_rows,
                    scores,
                    &mut v_local_max,
                )
            } else {
                column::<E, LOCAL, false>(
                    eng,
                    &g,
                    hand,
                    idx,
                    h_diag,
                    h_up,
                    h_rows,
                    e_rows,
                    scores,
                    &mut v_local_max,
                )
            };
            // Every lane's maximum is read where its subject ends, so
            // the columns a lane runs past its last subject need no mask.
            if t2.kind == AlignKind::SemiGlobal {
                v_semi = eng.max(v_semi, last);
            }
        }
    }
    // The subjects that ran to the last column.
    eng.store(
        &mut lane_buf,
        result(&h_rows[last_row..], v_local_max, v_semi),
    );
    for &(_, lane, k) in &handoffs[next..] {
        finals[k] = lane_buf[lane];
    }
    if LOCAL {
        for fin in &mut finals {
            *fin = fin.max2(T::<E>::ZERO);
        }
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
/// widest available i32 engine, in one refilled batch. Longest first,
/// its lanes end together.
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

    /// More subjects than lanes, longest first as a sweep hands them
    /// over: a 50×-median subject, mixed lengths, duplicates, and empty
    /// subjects at the tail.
    fn refill_subjects(rng: &mut rand::rngs::StdRng, alphabet: &'static Alphabet) -> Vec<Sequence> {
        const MEDIAN: usize = 12;
        let mut subjects = vec![named_query(rng, 50 * MEDIAN)];
        subjects.extend((0..37).map(|i| named_query(rng, 1 + (i * 7) % (2 * MEDIAN))));
        subjects.push(subjects[5].clone());
        subjects.push(Sequence::from_indices("empty", alphabet, Vec::new()));
        subjects.push(Sequence::from_indices("empty2", alphabet, Vec::new()));
        subjects.sort_by_key(|s| std::cmp::Reverse(s.len()));
        subjects
    }

    /// Every subject the batch did not flag equals the scalar reference,
    /// and at a width whose bounds hold for a subject it is not flagged.
    fn check_refilled(
        cfg: &AlignConfig,
        q: &Sequence,
        subjects: &[Sequence],
        bits: u32,
        got: &InterBatchResult,
        ctx: &str,
    ) {
        assert_eq!(got.scores.len(), subjects.len(), "{ctx}");
        for (k, s) in subjects.iter().enumerate() {
            let exact =
                cfg.kind == AlignKind::Local || cfg.score_bounds(q.len(), s.len()).fits(bits);
            let want = paradigm_dp(cfg, q, s).score;
            if exact && !got.saturated[k] {
                assert_eq!(
                    got.scores[k],
                    want,
                    "{ctx}: subject {k} ({}, len {})",
                    s.id(),
                    s.len()
                );
            }
            if bits == 32 || (bits == 16 && exact) {
                assert!(!got.saturated[k], "{ctx}: subject {k} flagged");
            }
        }
    }

    fn emulated_refill<T: ScoreElem, const L: usize>(
        cfg: &AlignConfig,
        q: &Sequence,
        refs: &[&Sequence],
        subjects: &[Sequence],
    ) {
        let got = inter_align_batch(
            EmuEngine::<T, L>::new(),
            cfg.table2(),
            &LaneProfile::build(q, &BLOSUM62),
            refs,
            &mut InterWorkspace::new(),
        );
        check_refilled(
            cfg,
            q,
            subjects,
            T::BITS,
            &got,
            &format!("{} emu i{}x{L}", cfg.label(), T::BITS),
        );
    }

    /// The host's table row for `T`, as a sweep resolves it.
    fn hardware_refill<T: aalign_vec::DispatchElem>(
        cfg: &AlignConfig,
        q: &Sequence,
        refs: &[&Sequence],
        subjects: &[Sequence],
    ) {
        let backend = resolve(IsaSupport::detect(), None, T::BITS);
        let batch = InterBatches {
            t2: cfg.table2(),
            prof: &LaneProfile::<T>::build(q, &BLOSUM62),
            subjects: refs,
            ws: &mut InterWorkspace::new(),
        };
        let got = with_engine(backend, batch);
        check_refilled(
            cfg,
            q,
            subjects,
            T::BITS,
            &got,
            &format!("{} {backend:?}", cfg.label()),
        );
    }

    #[test]
    fn refilled_lanes_match_the_scalar_reference() {
        let mut rng = seeded_rng(506);
        let q = named_query(&mut rng, 21);
        let subjects = refill_subjects(&mut rng, q.alphabet());
        let refs: Vec<&Sequence> = subjects.iter().collect();
        for cfg in all_configs() {
            emulated_refill::<i32, 4>(&cfg, &q, &refs, &subjects);
            emulated_refill::<i32, 8>(&cfg, &q, &refs, &subjects);
            emulated_refill::<i16, 16>(&cfg, &q, &refs, &subjects);
            emulated_refill::<i8, 16>(&cfg, &q, &refs, &subjects);
            hardware_refill::<i8>(&cfg, &q, &refs, &subjects);
            hardware_refill::<i16>(&cfg, &q, &refs, &subjects);
            hardware_refill::<i32>(&cfg, &q, &refs, &subjects);
        }
    }

    #[test]
    fn the_schedule_refills_the_lane_that_frees_first() {
        let alphabet = BLOSUM62.alphabet();
        let subjects: Vec<Sequence> = [5, 3, 0, 3, 2, 1]
            .iter()
            .map(|&n| Sequence::from_indices("s", alphabet, vec![0; n]))
            .collect();
        let refs: Vec<&Sequence> = subjects.iter().collect();
        let mut placed = Vec::new();
        let columns = schedule(&refs, 2, |k, lane, start| placed.push((k, lane, start)));
        // Lane 1 frees first (column 3) and takes the next subject,
        // lane 0 (free at 5) the one after; lane 1 frees again at 6
        // for the last. The empty subject takes no lane.
        assert_eq!(
            placed,
            [(0, 0, 0), (1, 1, 0), (3, 1, 3), (4, 0, 5), (5, 1, 6)]
        );
        assert_eq!(columns, 7);
        assert_eq!(lane_columns(&refs, 2), 14);
        // A tie goes to the lower lane.
        let even: Vec<&Sequence> = vec![refs[1], refs[1], refs[5]];
        let mut lanes = Vec::new();
        schedule(&even, 2, |_, lane, start| lanes.push((lane, start)));
        assert_eq!(lanes, [(0, 0), (1, 0), (0, 3)]);
    }

    #[test]
    fn a_short_subject_after_a_saturating_one_in_its_lane_is_exact() {
        let mut rng = seeded_rng(507);
        let alphabet = BLOSUM62.alphabet();
        let w = |n| Sequence::from_indices("w", alphabet, vec![17u8; n]); // all W
        let q = w(30);
        // Lane 0 saturates i8 on 40 W (30 × 11 > 127) and frees first;
        // the short subject then starts in it.
        let mut subjects = vec![w(40)];
        subjects.extend((0..3).map(|_| named_query(&mut rng, 50)));
        subjects.push(named_query(&mut rng, 10));
        let refs: Vec<&Sequence> = subjects.iter().collect();
        let mut lanes = Vec::new();
        schedule(&refs, 4, |k, lane, _| lanes.push((k, lane)));
        let (heavy, short) = (0, 4);
        assert_eq!(
            lanes[heavy].1, lanes[short].1,
            "the short subject follows in the W lane"
        );
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let got = inter_align_batch(
            EmuEngine::<i8, 4>::new(),
            cfg.table2(),
            &LaneProfile::build(&q, &BLOSUM62),
            &refs,
            &mut InterWorkspace::new(),
        );
        assert!(got.saturated[heavy], "40 W against 30 W saturates i8");
        assert!(!got.saturated[short], "the lane starts afresh");
        assert_eq!(got.scores[short], paradigm_dp(&cfg, &q, refs[short]).score);
    }
}
