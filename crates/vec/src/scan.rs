//! `wgt_max_scan` — the weighted max-scan at the heart of striped-scan.
//!
//! For a column of tentative scores `t[0..m]` the scan computes, for
//! every query position `q`,
//!
//! ```text
//! out[q] = max_{ l ∈ {-1, 0, …, q-1} } ( t[l] + open + (q-1-l)·ext )
//! ```
//!
//! with the virtual boundary cell `t[-1] = init` (the paper's
//! `INIT_T`). `open` is the paper's `GAP_UP` (θ+β) and `ext` is
//! `GAP_UP_EXT` (β). `out[q]` is exactly the up-gap table `U_{i,q}`
//! of Eq. (4), which is why one scan plus one max suffices to repair
//! the dependency the tentative pass ignored (the classic argument:
//! a gap routed through a corrected cell is never better, because
//! θ ≤ 0).
//!
//! Three implementations are provided:
//!
//! * [`wgt_max_scan_naive`] — the O(m²) definition, tests only;
//! * [`wgt_max_scan_scalar`] — the O(m) sequential recurrence;
//! * [`wgt_max_scan_striped`] — the vectorized 3-step orchestration of
//!   paper Fig. 8, operating directly on striped buffers.

use crate::elem::ScoreElem;
use crate::engine::{Ramp, SimdEngine};
use crate::layout::StripedLayout;

/// Scan parameters: boundary value and the two gap weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanParams<T> {
    /// Boundary score `t[-1]` (paper `INIT_T`, i.e. `T_{i,0}`).
    pub init: T,
    /// Weight of the first gapped position (paper `GAP_UP` = θ+β).
    pub open: T,
    /// Weight of each further position (paper `GAP_UP_EXT` = β).
    pub ext: T,
}

/// O(m²) literal definition. Test oracle; do not use in kernels.
#[allow(clippy::needless_range_loop)] // DP recurrences read clearest with indices
pub fn wgt_max_scan_naive<T: ScoreElem>(input: &[T], p: ScanParams<T>, out: &mut [T]) {
    assert_eq!(input.len(), out.len());
    for q in 0..input.len() {
        // l = -1 term: init + open + q·ext
        let mut best = p.init.sat_add(p.open);
        for _ in 0..q {
            best = best.sat_add(p.ext);
        }
        for l in 0..q {
            let mut cand = input[l].sat_add(p.open);
            for _ in 0..(q - 1 - l) {
                cand = cand.sat_add(p.ext);
            }
            best = best.max2(cand);
        }
        out[q] = best;
    }
}

/// O(m) sequential recurrence:
/// `out[0] = init + open`, `out[q] = max(out[q-1] + ext, t[q-1] + open)`.
///
/// ```
/// use aalign_vec::scan::{wgt_max_scan_scalar, ScanParams};
/// let t = [5, 0, 9];
/// let mut out = [0; 3];
/// wgt_max_scan_scalar(&t, ScanParams { init: 0, open: -3, ext: -1 }, &mut out);
/// // out[2] = max(out[1] + ext, t[1] + open) with out[1] = t[0] + open = 2
/// assert_eq!(out, [-3, 2, 1]);
/// ```
pub fn wgt_max_scan_scalar<T: ScoreElem>(input: &[T], p: ScanParams<T>, out: &mut [T]) {
    assert_eq!(input.len(), out.len());
    if input.is_empty() {
        return;
    }
    let mut run = p.init.sat_add(p.open);
    out[0] = run;
    for q in 1..input.len() {
        run = run.sat_add(p.ext).max2(input[q - 1].sat_add(p.open));
        out[q] = run;
    }
}

/// Vectorized weighted max-scan over a **striped** buffer
/// (paper Fig. 8). `input` and `out` are striped buffers of
/// `layout.padded_len()` slots; `out` may not alias `input`.
///
/// The three steps:
/// 1. *inter-vector scan*: one pass over the `k` segments propagates
///    the recurrence within each lane chunk, leaving the per-chunk
///    exclusive scan in `out` and the per-chunk carries in a register;
/// 2. *intra-vector scan*: [`cross_lane_carry`] turns the carries into
///    per-lane incoming values, the boundary `init` entering through
///    a `set_vector` ramp;
/// 3. *inter-vector broadcast*: a second pass over the segments folds
///    the carries into `out` with weight `ext` per segment.
///
/// The striped kernels fuse steps 1 and 3 into their own column passes
/// and share only step 2; this is the module on its own.
#[inline(always)]
pub fn wgt_max_scan_striped<E: SimdEngine>(
    eng: E,
    layout: StripedLayout,
    input: &[E::Elem],
    out: &mut [E::Elem],
    p: ScanParams<E::Elem>,
) {
    let k = layout.segments;
    let lanes = E::LANES;
    assert_eq!(layout.lanes, lanes, "layout built for a different engine");
    assert_eq!(input.len(), layout.padded_len());
    assert_eq!(out.len(), layout.padded_len());

    let v_open = eng.splat(p.open);
    let v_ext = eng.splat(p.ext);
    // The boundary ramp  init + open + (l·k)·ext  (the l' = -1 term of
    // the definition) does not depend on the input: build it first, so
    // nothing of the scan is live across it.
    let chunk_w = mul_small(p.ext, k);
    let boundary = Ramp::new(eng, chunk_w).at(eng, p.init.sat_add(p.open));

    // Step 1: within-lane exclusive scan, segment by segment.
    //   u[0] = -inf;  u[j] = max(u[j-1] + ext, t[j-1] + open)
    // and the carry A = value the chunk would pass to position k.
    let mut run = eng.splat(E::Elem::NEG_INF);
    for j in 0..k {
        eng.store(&mut out[j * lanes..], run);
        let t = eng.load(&input[j * lanes..]);
        run = eng.max(eng.add(run, v_ext), eng.add(t, v_open));
    }

    // Step 2: the carries cross lanes.
    let mut carry_in = cross_lane_carry(eng, run, chunk_w, boundary);

    // Step 3: fold carries back in: position offset j inside a chunk
    // adds j·ext on top of the chunk's incoming value.
    for j in 0..k {
        let u = eng.load(&out[j * lanes..]);
        let merged = eng.max(u, carry_in);
        eng.store(&mut out[j * lanes..], merged);
        carry_in = eng.add(carry_in, v_ext);
    }
}

/// Step 2 of Fig. 8, the only cross-lane work of a scan column: a
/// Kogge–Stone weighted max-scan of the per-chunk `carries` (distance
/// weight `chunk_w` = `k·ext` per lane, log₂ LANES `rshift_x_fill`s),
/// made exclusive by one more shift and joined with the `boundary`
/// term. Lane `l` of the result is the value entering lane `l`'s chunk
/// at its first query position.
#[inline(always)]
pub fn cross_lane_carry<E: SimdEngine>(
    eng: E,
    carries: E::Vec,
    chunk_w: E::Elem,
    boundary: E::Vec,
) -> E::Vec {
    let inclusive = eng.weighted_scan_max(carries, chunk_w);
    let exclusive = eng.shift_insert_low(inclusive, E::Elem::NEG_INF);
    eng.max(exclusive, boundary)
}

/// Saturating small-integer multiply used for chunk weights.
#[inline(always)]
fn mul_small<T: ScoreElem>(x: T, n: usize) -> T {
    let wide = x.to_i32().saturating_mul(n as i32);
    T::from_i32_sat(wide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::EmuEngine;

    fn params(init: i32, open: i32, ext: i32) -> ScanParams<i32> {
        ScanParams { init, open, ext }
    }

    #[test]
    fn scalar_matches_naive_small() {
        let input = vec![5, -2, 9, 0, 3, 3, -7, 12];
        let p = params(0, -11, -1);
        let mut a = vec![0; input.len()];
        let mut b = vec![0; input.len()];
        wgt_max_scan_naive(&input, p, &mut a);
        wgt_max_scan_scalar(&input, p, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn scalar_first_element_is_boundary_open() {
        let input = vec![100, 100, 100];
        let p = params(7, -3, -1);
        let mut out = vec![0; 3];
        wgt_max_scan_scalar(&input, p, &mut out);
        assert_eq!(out[0], 7 - 3);
        assert_eq!(out[1], 100 - 3);
    }

    #[test]
    fn striped_matches_scalar_exhaustive_shapes() {
        // Many (m, lanes) shapes including ones with padding.
        for m in 1..=40 {
            run_case::<4>(m);
            run_case::<8>(m);
            run_case::<16>(m);
        }
    }

    fn run_case<const LANES: usize>(m: usize) {
        let eng = EmuEngine::<i32, LANES>::new();
        let layout = StripedLayout::new(m, LANES);
        let p = params(-4, -12, -2);
        // Deterministic pseudo-random input.
        let linear: Vec<i32> = (0..m)
            .map(|i| ((i as i32).wrapping_mul(2_654_435_761u32 as i32) >> 24) % 50 - 10)
            .collect();
        let mut expect = vec![0; m];
        wgt_max_scan_scalar(&linear, p, &mut expect);

        let mut striped_in = Vec::new();
        layout.stripe(&linear, i32::NEG_INF, &mut striped_in);
        let mut striped_out = vec![0; layout.padded_len()];
        wgt_max_scan_striped(eng, layout, &striped_in, &mut striped_out, p);

        for q in 0..m {
            assert_eq!(
                striped_out[layout.slot_of(q)],
                expect[q],
                "m={m} lanes={LANES} q={q}"
            );
        }
    }

    #[test]
    fn striped_handles_positive_init() {
        let eng = EmuEngine::<i32, 8>::new();
        let m = 19;
        let layout = StripedLayout::new(m, 8);
        let p = params(40, -10, -1);
        let linear: Vec<i32> = (0..m as i32).collect();
        let mut expect = vec![0; m];
        wgt_max_scan_scalar(&linear, p, &mut expect);
        let mut sin = Vec::new();
        layout.stripe(&linear, i32::NEG_INF, &mut sin);
        let mut sout = vec![0; layout.padded_len()];
        wgt_max_scan_striped(eng, layout, &sin, &mut sout, p);
        for q in 0..m {
            assert_eq!(sout[layout.slot_of(q)], expect[q], "q={q}");
        }
    }

    #[test]
    fn naive_empty_input_is_noop() {
        let p = params(0, -1, -1);
        let mut out: Vec<i32> = vec![];
        wgt_max_scan_naive::<i32>(&[], p, &mut out);
        wgt_max_scan_scalar::<i32>(&[], p, &mut out);
    }

    #[test]
    fn i16_saturating_scan_does_not_wrap() {
        let input = vec![i16::MIN; 12];
        let p = ScanParams {
            init: i16::MIN,
            open: -100,
            ext: -100,
        };
        let mut out = vec![0i16; 12];
        wgt_max_scan_scalar(&input, p, &mut out);
        assert!(out.iter().all(|&x| x == i16::MIN));
    }
}
