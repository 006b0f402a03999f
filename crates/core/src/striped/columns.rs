//! The shared column engine.
//!
//! [`ColumnEngine`] owns the per-column state of a striped alignment
//! (the `arr_T1`/`arr_T2`/`arr_L`/`arr_scan` buffers of Alg. 2/3, the
//! running maximum, and the boundary trackers) and advances it one
//! subject character at a time with either vectorization strategy.
//! The one driver ([`super::driver::column_loop`]) walks a subject
//! over it, choosing the strategy per column.
//!
//! Type parameters `LOCAL` and `AFFINE` compile the four paradigm
//! configurations separately — the moral equivalent of the paper's
//! code generator dropping or keeping the asterisked statements.

use aalign_bio::StripedProfile;
use aalign_vec::scan::cross_lane_carry;
use aalign_vec::{AlignedBuf, Ramp, SaturationGuard, ScoreElem, SimdEngine, StripedLayout};

use crate::config::TableII;

/// Reusable buffer set; keep one per thread and feed it to successive
/// alignments to avoid reallocating in database-search loops.
#[derive(Debug, Default)]
pub struct Workspace<T> {
    /// `arr_T1 | arr_T2 | arr_L | arr_scan` in one line-aligned block:
    /// where the columns sit against line and page boundaries, and
    /// against each other, is the same in every run (DESIGN §5b).
    cols: AlignedBuf<T>,
}

impl<T: ScoreElem> Workspace<T> {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self {
            cols: AlignedBuf::new(),
        }
    }

    /// Total elements currently reserved for the four column buffers
    /// — the scratch-reuse observability hook behind
    /// [`AlignScratch::reserved_bytes`](crate::AlignScratch::reserved_bytes).
    pub fn reserved_elems(&self) -> usize {
        self.cols.capacity()
    }

    /// The buffers `[arr_t1, arr_t2, arr_e, arr_scan]`, `padded` slots
    /// each. Contents are left stale: [`ColumnEngine::new`] writes the
    /// whole column-0 boundary into `arr_t1`/`arr_e`, and
    /// `arr_t2`/`arr_scan` are scratch that every column fills before
    /// it reads.
    fn columns(&mut self, padded: usize) -> [&mut [T]; 4] {
        self.cols.resize(4 * padded, T::ZERO);
        let (t1, rest) = self.cols.split_at_mut(padded);
        let (t2, rest) = rest.split_at_mut(padded);
        let (e, scan) = rest.split_at_mut(padded);
        [t1, t2, e, scan]
    }
}

/// Result of a full striped alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResult {
    /// Alignment score, widened to i32.
    pub score: i32,
    /// True if the score is too close to the element type's
    /// saturation limits to be trusted (retry at a wider type).
    pub saturated: bool,
    /// Total lazy-loop segment re-computations (iterate columns only).
    pub lazy_iters: u64,
    /// Total lazy-loop sweeps over the column (iterate columns only).
    pub lazy_sweeps: u64,
    /// Columns processed with the iterate strategy.
    pub iterate_columns: usize,
    /// Columns processed with the scan strategy.
    pub scan_columns: usize,
}

/// Per-column state for one alignment.
pub struct ColumnEngine<'a, E: SimdEngine, const LOCAL: bool, const AFFINE: bool> {
    eng: E,
    prof: &'a StripedProfile<E::Elem>,
    /// The workspace's columns (`arr_e` is the paper's `arr_L`);
    /// `arr_t1` and `arr_t2` trade places after every column.
    arr_t1: &'a mut [E::Elem],
    arr_t2: &'a mut [E::Elem],
    arr_e: &'a mut [E::Elem],
    arr_scan: &'a mut [E::Elem],
    layout: StripedLayout,
    t2: TableII,

    // Splatted Table II constants.
    v_gap_left: E::Vec,
    v_gap_left_ext: E::Vec,
    v_gap_up: E::Vec,
    v_gap_up_ext: E::Vec,
    /// θ = GAP_UP − GAP_UP_EXT, the lazy-loop influence margin.
    v_theta: E::Vec,
    v_zero: E::Vec,
    v_neg_inf: E::Vec,
    /// k·β, the per-lane chunk weight of the striped layout.
    chunk_ext: E::Elem,
    /// `set_vector` ramp `l·k·β`, built once: a column's lower-bound
    /// vector is `chunk_ramp.at(init)`.
    chunk_ramp: Ramp<E>,

    // Running state.
    v_max: E::Vec,
    /// Semi-global: running lane-wise max of the segment holding the
    /// last query position, across all columns (only the lane of
    /// `m-1` is read at the end).
    v_semi: E::Vec,
    semi: bool,
    /// Buffer offset of the segment containing query position `m-1`.
    last_seg_off: usize,
    /// Lane of query position `m-1` within that segment.
    last_lane: usize,
    /// Subject characters consumed so far.
    col: usize,
    /// Ceiling register for the per-column sticky saturation check
    /// (local alignments track their running max, so lane overflow is
    /// observable as it happens rather than only at finish).
    guard: SaturationGuard<E>,
    /// Headroom used by both the sticky guard and the finish-time
    /// scalar check (largest single further add, plus one).
    headroom: i32,
    /// Sticky: set the first column any lane crosses the ceiling.
    saturated: bool,
    /// Lazy-loop statistics.
    lazy_iters: u64,
    lazy_sweeps: u64,
    iterate_columns: usize,
    scan_columns: usize,
}

impl<E: SimdEngine, const LOCAL: bool, const AFFINE: bool> core::fmt::Debug
    for ColumnEngine<'_, E, LOCAL, AFFINE>
{
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ColumnEngine")
            .field("col", &self.col)
            .field("semi", &self.semi)
            .field("lazy_iters", &self.lazy_iters)
            .field("lazy_sweeps", &self.lazy_sweeps)
            .field("iterate_columns", &self.iterate_columns)
            .field("scan_columns", &self.scan_columns)
            .finish_non_exhaustive()
    }
}

impl<'a, E: SimdEngine, const LOCAL: bool, const AFFINE: bool> ColumnEngine<'a, E, LOCAL, AFFINE> {
    /// Set up the engine: splat constants and write the column-0
    /// boundary into the buffers.
    #[inline(always)]
    pub fn new(
        eng: E,
        prof: &'a StripedProfile<E::Elem>,
        t2: TableII,
        ws: &'a mut Workspace<E::Elem>,
    ) -> Self {
        debug_assert_eq!(t2.local, LOCAL, "kind/constant mismatch");
        debug_assert_eq!(t2.affine, AFFINE, "gap/constant mismatch");
        let layout = prof.layout();
        assert_eq!(layout.lanes, E::LANES, "profile built for another width");
        let [arr_t1, arr_t2, arr_e, arr_scan] = ws.columns(layout.padded_len());

        let splat_i32 = |x: i32| eng.splat(E::Elem::from_i32_sat(x));
        let chunk_ext = E::Elem::from_i32_sat(t2.gap_up_ext.saturating_mul(layout.segments as i32));
        let chunk_ramp = Ramp::new(eng, chunk_ext);
        let v_zero = eng.splat(E::Elem::ZERO);
        let v_neg_inf = eng.splat(E::Elem::NEG_INF);

        // Column-0 boundary: T_{0,q} ramp (zero for local), no gaps
        // yet. Segment j holds q = l·k + j in lane l, so its ramp is
        // the chunk ramp started at T_{0,j}.
        for j in 0..layout.segments {
            let off = j * E::LANES;
            let v_t0 = if LOCAL {
                v_zero
            } else {
                chunk_ramp.at(eng, E::Elem::from_i32_sat(t2.init_col(j)))
            };
            eng.store(&mut arr_t1[off..], v_t0);
            eng.store(&mut arr_e[off..], v_neg_inf);
        }

        let last_slot = layout.slot_of(layout.len - 1);
        let last_seg_off = (last_slot / E::LANES) * E::LANES;
        let last_lane = last_slot % E::LANES;
        let semi = t2.kind == crate::config::AlignKind::SemiGlobal;
        let headroom = prof
            .max_matrix_score()
            .abs()
            .max(t2.gap_up.abs())
            .max(t2.gap_left.abs())
            + 1;
        let v_semi = if semi {
            // The boundary column participates (subject may be
            // consumed entirely by the free prefix).
            eng.load(&arr_t1[last_seg_off..])
        } else {
            eng.splat(E::Elem::NEG_INF)
        };
        Self {
            eng,
            prof,
            arr_t1,
            arr_t2,
            arr_e,
            arr_scan,
            layout,
            t2,
            v_gap_left: splat_i32(t2.gap_left),
            v_gap_left_ext: splat_i32(t2.gap_left_ext),
            v_gap_up: splat_i32(t2.gap_up),
            v_gap_up_ext: splat_i32(t2.gap_up_ext),
            v_theta: splat_i32(t2.gap_up - t2.gap_up_ext),
            v_zero,
            v_neg_inf,
            chunk_ext,
            chunk_ramp,
            v_max: eng.splat(E::Elem::NEG_INF),
            v_semi,
            semi,
            last_seg_off,
            last_lane,
            col: 0,
            guard: SaturationGuard::new(eng, headroom),
            headroom,
            saturated: false,
            lazy_iters: 0,
            lazy_sweeps: 0,
            iterate_columns: 0,
            scan_columns: 0,
        }
    }

    #[inline(always)]
    fn init_t_elem(&self, i: usize) -> E::Elem {
        E::Elem::from_i32_sat(self.t2.init_t(i))
    }

    /// Shared first pass: compute `D` and `E` (`L` in the paper) for
    /// every segment and store the partial `T`, carrying the up-gap
    /// recurrence `F ← max(F + β, T + GAP_UP)` segment to segment and
    /// returning its final carry. When `WITH_F_BOUND` (iterate) `F`
    /// starts from the lower-bound ramp and is folded into `T`; the
    /// carry feeds the lazy loop. When not (scan) `F` starts from −∞,
    /// sees only the tentative `T`, and each segment's incoming value
    /// is parked in `arr_scan` — step 1 of `wgt_max_scan` riding the
    /// same pass.
    #[inline(always)]
    fn first_pass<const WITH_F_BOUND: bool>(&mut self, s_char: u8) -> E::Vec {
        let eng = self.eng;
        let lanes = E::LANES;
        let k = self.layout.segments;
        let prof = self.prof.stripe(s_char);

        // Diagonal carry: previous column's last segment, lanes moved
        // up one, boundary value T_{col,0} entering lane 0.
        let mut v_dia = eng.shift_insert_low(
            eng.load(&self.arr_t1[(k - 1) * lanes..]),
            self.init_t_elem(self.col),
        );

        // F lower bound at each lane's first position: F(q=0) exactly,
        // plus a pure-extension ramp for higher lanes.
        let init_t_cur = self.init_t_elem(self.col + 1);
        let mut v_f = if WITH_F_BOUND {
            let f0 = init_t_cur.sat_add(E::Elem::from_i32_sat(self.t2.gap_up));
            self.chunk_ramp.at(eng, f0)
        } else {
            self.v_neg_inf
        };

        // One register-wide chunk of every buffer per segment. Zipped,
        // the loop has one counter and no bounds check; indexing the
        // five slices by `j·lanes` costs five of each, and LLVM then
        // keeps the loop-carried `v_f` on the stack.
        let segments = self
            .arr_t1
            .chunks_exact(lanes)
            .zip(prof.chunks_exact(lanes))
            .zip(self.arr_t2.chunks_exact_mut(lanes))
            .zip(self.arr_e.chunks_exact_mut(lanes))
            .zip(self.arr_scan.chunks_exact_mut(lanes));
        for ((((t1, p), t2), e_seg), scan) in segments {
            let t_prev = eng.load(t1);
            v_dia = eng.add(v_dia, eng.load(p));

            // E (arr_L): horizontal gap from the previous column.
            let v_e = if AFFINE {
                let e_prev = eng.load(e_seg);
                let e = eng.max(
                    eng.add(e_prev, self.v_gap_left_ext),
                    eng.add(t_prev, self.v_gap_left),
                );
                eng.store(e_seg, e);
                e
            } else {
                // Linear: E = T_prev + β' (T ≥ E makes the E chain
                // redundant — the paper's dropped asterisked lines).
                eng.add(t_prev, self.v_gap_left)
            };

            let mut v_t = eng.max(v_dia, v_e);
            if WITH_F_BOUND {
                v_t = eng.max(v_t, v_f);
            } else {
                eng.store(scan, v_f);
            }
            if LOCAL {
                v_t = eng.max(v_t, self.v_zero);
            }
            eng.store(t2, v_t);
            if LOCAL && WITH_F_BOUND {
                // (A scan column's second pass sees every final T.)
                self.v_max = eng.max(self.v_max, v_t);
            }

            // F carry to the next query position (next segment).
            v_f = eng.max(eng.add(v_f, self.v_gap_up_ext), eng.add(v_t, self.v_gap_up));
            v_dia = t_prev;
        }
        v_f
    }

    /// Advance one column with the **striped-iterate** strategy
    /// (Alg. 2). Returns the number of lazy sweeps this column needed
    /// — the hybrid's re-computation counter.
    #[inline(always)]
    pub fn iterate_column(&mut self, s_char: u8) -> u32 {
        let eng = self.eng;
        let lanes = E::LANES;
        let k = self.layout.segments;

        let mut v_f = self.first_pass::<true>(s_char);

        // Lazy correction loop: propagate the end-of-lane F carries
        // across the lane boundary until they stop influencing
        // (`influence_test`, Alg. 2 ln. 33).
        let mut iters = 0u64;
        v_f = eng.shift_insert_low(v_f, E::Elem::NEG_INF);
        let mut j = 0usize;
        loop {
            let off = j * lanes;
            let v_t = eng.load(&self.arr_t2[off..]);
            // Influence iff vF > T + θ (covers both "improves T" and
            // "improves the next F beyond the open path").
            if !eng.any_gt(v_f, eng.add(v_t, self.v_theta)) {
                break;
            }
            let v_t = eng.max(v_t, v_f);
            eng.store(&mut self.arr_t2[off..], v_t);
            if LOCAL {
                self.v_max = eng.max(self.v_max, v_t);
            }
            v_f = eng.add(v_f, self.v_gap_up_ext);
            iters += 1;
            j += 1;
            if j == k {
                j = 0;
                v_f = eng.shift_insert_low(v_f, E::Elem::NEG_INF);
            }
        }
        // The hybrid's re-computation counter: whole-column sweeps
        // this column's correction amounted to.
        let sweeps = iters.div_ceil(k as u64) as u32;
        self.lazy_iters += iters;
        self.lazy_sweeps += u64::from(sweeps);
        self.iterate_columns += 1;
        self.finish_column();
        sweeps
    }

    /// Advance one column with the **striped-scan** strategy (Alg. 3)
    /// in two passes over the segments: the tentative pass, which also
    /// runs the scan's within-lane step; then, after the one
    /// cross-lane step, a pass folding the scan's carry-in, the
    /// correction and the running maximum together.
    #[inline(always)]
    pub fn scan_column(&mut self, s_char: u8) {
        let eng = self.eng;
        let lanes = E::LANES;

        let carries = self.first_pass::<false>(s_char);

        // The boundary cell T_{i,0} enters lane l with l·k extensions
        // behind it (Alg. 3 ln. 18, the l' = −1 term of the scan).
        let u0 = self
            .init_t_elem(self.col + 1)
            .sat_add(E::Elem::from_i32_sat(self.t2.gap_up));
        let boundary = self.chunk_ramp.at(eng, u0);
        let mut carry_in = cross_lane_carry(eng, carries, self.chunk_ext, boundary);

        // Correction pass (Alg. 3 ln. 19–24): the exact up-gap value U
        // of segment j is its within-lane scan or the lane's carry-in
        // j extensions on.
        let segments = self
            .arr_scan
            .chunks_exact(lanes)
            .zip(self.arr_t2.chunks_exact_mut(lanes));
        for (scan, t2) in segments {
            let v_u = eng.max(eng.load(scan), carry_in);
            let v_t = eng.max(eng.load(t2), v_u);
            eng.store(t2, v_t);
            if LOCAL {
                self.v_max = eng.max(self.v_max, v_t);
            }
            carry_in = eng.add(carry_in, self.v_gap_up_ext);
        }
        self.scan_columns += 1;
        self.finish_column();
    }

    #[inline(always)]
    fn finish_column(&mut self) {
        core::mem::swap(&mut self.arr_t1, &mut self.arr_t2);
        self.col += 1;
        if self.semi {
            let last = self.eng.load(&self.arr_t1[self.last_seg_off..]);
            self.v_semi = self.eng.max(self.v_semi, last);
        }
        // Sticky saturation: local alignments carry their running max
        // in a register, so one `influence_test` compare per column
        // detects lane overflow as it happens. The verdict agrees with
        // the finish-time scalar check (same ceiling), it just arrives
        // early enough for the driver to abandon a doomed narrow run.
        // Global/semi scores can also saturate downward (NEG_INF
        // side); those are caught at finish as before.
        if LOCAL && !self.saturated {
            self.saturated = self.guard.check(self.eng, self.v_max);
        }
    }

    /// Sticky per-column saturation verdict (local alignments only;
    /// global/semi detect at [`finish`](Self::finish)). Once true, the
    /// run's scores are untrusted and the caller may stop feeding
    /// columns — the result will report `saturated` either way.
    #[inline(always)]
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Finish the alignment and extract the score.
    #[inline(always)]
    pub fn finish(self) -> KernelResult {
        let headroom = self.headroom;
        let (score_elem, saturated) = if LOCAL {
            let best = self.eng.reduce_max(self.v_max).max2(E::Elem::ZERO);
            let sat = self.saturated || aalign_vec::elem::near_saturation(best, headroom);
            (best, sat)
        } else if self.semi {
            // Semi-global: the lane of query position m-1 in the
            // running cross-column max.
            let mut buf = [E::Elem::ZERO; 64];
            self.eng.store(&mut buf[..E::LANES], self.v_semi);
            let fin = buf[self.last_lane];
            let sat = aalign_vec::elem::near_saturation(fin, headroom)
                || fin.to_i32() <= E::Elem::NEG_INF.to_i32() + headroom;
            (fin, sat)
        } else {
            // Global: the score sits at query position m-1 of the last
            // column (arr_t1 after the final swap).
            let slot = self.layout.slot_of(self.layout.len - 1);
            let fin = self.arr_t1[slot];
            // Saturation on either end invalidates a global score.
            let sat = aalign_vec::elem::near_saturation(fin, headroom)
                || fin.to_i32() <= E::Elem::NEG_INF.to_i32() + headroom;
            (fin, sat)
        };
        KernelResult {
            score: score_elem.to_i32(),
            saturated,
            lazy_iters: self.lazy_iters,
            lazy_sweeps: self.lazy_sweeps,
            iterate_columns: self.iterate_columns,
            scan_columns: self.scan_columns,
        }
    }
}
