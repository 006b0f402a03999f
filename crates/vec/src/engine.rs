//! The [`SimdEngine`] trait — AAlign's vector-module interface.
//!
//! Table I of the paper defines two groups of modules:
//!
//! | paper module       | trait method                          |
//! |--------------------|---------------------------------------|
//! | `load_vector`      | [`SimdEngine::load`]                  |
//! | `store_vector`     | [`SimdEngine::store`]                 |
//! | `add_vector`/`add_array` | [`SimdEngine::add`] (+ a `load`)|
//! | `max_vector`       | [`SimdEngine::max`]                   |
//! | `set_vector`       | [`SimdEngine::lower_bound`]           |
//! | `rshift_x_fill`    | [`SimdEngine::shift_insert_low`]      |
//! | `influence_test`   | [`SimdEngine::any_gt`]                |
//! | `wgt_max_scan`     | [`crate::scan::wgt_max_scan_striped`] |
//!
//! One module goes beyond the table: [`SimdEngine::lookup32`], the
//! in-register score lookup the lane-per-subject kernel is written
//! on (SSW's and SWIPE's shuffled substitution scores).
//!
//! Engines are zero-sized `Copy` tokens. Constructing a token for an
//! optional ISA (AVX2, AVX-512, SSE4.1) requires a runtime feature
//! check, so methods can be safe even though they call `unsafe`
//! intrinsics internally.

use crate::elem::ScoreElem;

/// A SIMD backend operating on vectors of [`ScoreElem`] lanes.
///
/// # Semantics contract
///
/// Every backend must be observationally identical to
/// [`crate::emu::EmuEngine`] with the same element type and lane
/// count; this is enforced by property tests. In particular:
///
/// * [`add`](Self::add) saturates for i8/i16 lanes and wraps for i32.
/// * [`shift_insert_low`](Self::shift_insert_low) moves every lane up
///   one index (lane `i` receives old lane `i-1`) and writes `fill`
///   into lane 0. In the striped layout this realigns a vector so
///   each lane's value meets the *next* query position of the lane
///   below — the paper's `rshift_x_fill` with `n = 1`.
/// * [`any_gt`](Self::any_gt) is the paper's `influence_test`: true
///   iff `a[i] > b[i]` for at least one lane.
pub trait SimdEngine: Copy + Send + Sync + 'static {
    /// Lane element type.
    type Elem: ScoreElem;
    /// Opaque vector register type.
    type Vec: Copy;

    /// Number of lanes in [`Self::Vec`].
    const LANES: usize;

    /// Whether [`lookup32`](Self::lookup32) is a handful of shuffle
    /// instructions on this engine (`true`) or the portable per-lane
    /// gather (`false`). A kernel that does one lookup per cell is only
    /// worth choosing on an engine that answers `true`.
    const NATIVE_LOOKUP: bool = false;

    /// Broadcast a scalar to every lane.
    fn splat(self, x: Self::Elem) -> Self::Vec;

    /// Load `LANES` elements from the start of `src`.
    ///
    /// # Panics
    /// Panics (in debug builds at minimum) if `src.len() < LANES`.
    fn load(self, src: &[Self::Elem]) -> Self::Vec;

    /// Store `LANES` elements to the start of `dst`.
    fn store(self, dst: &mut [Self::Elem], v: Self::Vec);

    /// Lane-wise add; saturating for narrow elements (see trait docs).
    fn add(self, a: Self::Vec, b: Self::Vec) -> Self::Vec;

    /// Lane-wise maximum.
    fn max(self, a: Self::Vec, b: Self::Vec) -> Self::Vec;

    /// `influence_test`: does any lane of `a` exceed the same lane of `b`?
    fn any_gt(self, a: Self::Vec, b: Self::Vec) -> bool;

    /// `rshift_x_fill(v, 1, fill)`: lane 0 ← `fill`, lane i ← lane i−1.
    fn shift_insert_low(self, v: Self::Vec, fill: Self::Elem) -> Self::Vec;

    /// Extract the value in the highest lane.
    fn extract_high(self, v: Self::Vec) -> Self::Elem;

    /// Table lookup by lane: `out[l] = table[idx[l]]` over the first
    /// [`LOOKUP_ENTRIES`] elements of `table`. Every lane of `idx` must
    /// hold a value in `0..LOOKUP_ENTRIES`; any other value selects an
    /// unspecified entry of the table (never memory outside it).
    ///
    /// The default is the scalar gather — `LANES` loads and stores —
    /// which every engine with [`NATIVE_LOOKUP`](Self::NATIVE_LOOKUP)
    /// replaces by shuffles.
    ///
    /// # Panics
    /// Panics if `table.len() < LOOKUP_ENTRIES`.
    #[inline(always)]
    fn lookup32(self, table: &[Self::Elem], idx: Self::Vec) -> Self::Vec {
        // Sized for the widest supported engine (i8×64).
        assert!(Self::LANES <= 64);
        let table = &table[..LOOKUP_ENTRIES];
        let mut lanes = [Self::Elem::ZERO; 64];
        self.store(&mut lanes, idx);
        for lane in lanes.iter_mut().take(Self::LANES) {
            *lane = table[lane.to_i32() as usize % LOOKUP_ENTRIES];
        }
        self.load(&lanes)
    }

    /// Horizontal maximum across lanes. The default is allocation-free
    /// (log₂ LANES shift/max rounds, answer lands in the high lane).
    #[inline(always)]
    fn reduce_max(self, v: Self::Vec) -> Self::Elem {
        let mut m = v;
        let mut d = 1usize;
        while d < Self::LANES {
            let shifted = self.shift_insert_low_n(m, d, Self::Elem::NEG_INF);
            m = self.max(m, shifted);
            d *= 2;
        }
        self.extract_high(m)
    }

    /// Shift lanes up by `n` indices, filling the vacated low lanes:
    /// `rshift_x_fill(v, n, fill)` — lane `i` receives old lane `i-n`,
    /// lanes below `n` receive `fill`, and `n ≥ LANES` yields
    /// `splat(fill)`. Hardware backends do a power-of-two `n` in one
    /// cross-lane permute plus a fill blend, which is what makes
    /// [`weighted_scan_max`](Self::weighted_scan_max),
    /// [`reduce_max`](Self::reduce_max) and [`ramp`](Self::ramp)
    /// log₂ LANES steps.
    fn shift_insert_low_n(self, v: Self::Vec, n: usize, fill: Self::Elem) -> Self::Vec;

    /// Lane `l` holds `l · step` — saturating for narrow lanes,
    /// wrapping for i32, exactly as `l` iterated
    /// [`ScoreElem::sat_add`]s from zero would. Built by doubling:
    /// after the round at distance `d`, lane `l` holds
    /// `min(l, 2d) · step`.
    #[inline(always)]
    fn ramp(self, step: Self::Elem) -> Self::Vec {
        let zero = Self::Elem::ZERO;
        let mut r = self.shift_insert_low(self.splat(step), zero);
        let mut d = 1usize;
        while d < Self::LANES {
            r = self.add(r, self.shift_insert_low_n(r, d, zero));
            d *= 2;
        }
        r
    }

    /// The paper's `set_vector(m, i, g)` (Fig. 6): build the striped
    /// lower-bound vector whose lane `l` holds `init + l * step`
    /// (saturating). `step` is typically `k * gap_ext`, the weight of
    /// one whole lane-chunk of the striped layout. Callers that need
    /// it once per column keep the [`Ramp`] instead.
    #[inline(always)]
    fn lower_bound(self, init: Self::Elem, step: Self::Elem) -> Self::Vec {
        Ramp::new(self, step).at(self, init)
    }

    /// Inclusive per-vector weighted max-scan across lanes
    /// (Kogge–Stone): returns `s` with
    /// `s[l] = max_{l' ≤ l} ( v[l'] + (l - l') * w )`.
    ///
    /// This is step 2 of the paper's `wgt_max_scan` orchestration
    /// (Fig. 8), where the distance weight per lane is `k * β`.
    #[inline(always)]
    fn weighted_scan_max(self, v: Self::Vec, w: Self::Elem) -> Self::Vec {
        let mut s = v;
        let mut d = 1usize;
        let mut v_wd = self.splat(w);
        while d < Self::LANES {
            let shifted = self.shift_insert_low_n(s, d, Self::Elem::NEG_INF);
            s = self.max(s, self.add(shifted, v_wd));
            d *= 2;
            // The next round's distance weight is twice this one's.
            v_wd = self.add(v_wd, v_wd);
        }
        s
    }
}

/// Entries in a [`SimdEngine::lookup32`] table: enough for every
/// residue alphabet the workspace has (24 protein letters, 5
/// nucleotides) plus a spare slot, and what one `vpermw` indexes.
pub const LOOKUP_ENTRIES: usize = 32;

/// `set_vector` with its loop-invariant half hoisted: the `l · step`
/// ramp is built once (per alignment), after which every
/// [`at`](Self::at) is one `add(splat(init), ramp)`.
#[derive(Clone, Copy)]
pub struct Ramp<E: SimdEngine> {
    ramp: E::Vec,
    step: E::Elem,
    /// Whether `(LANES-1) · step` is representable, i.e. no ramp lane
    /// saturated.
    exact: bool,
}

impl<E: SimdEngine> core::fmt::Debug for Ramp<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ramp")
            .field("step", &self.step)
            .field("exact", &self.exact)
            .finish_non_exhaustive()
    }
}

impl<E: SimdEngine> Ramp<E> {
    /// Build the ramp for `step`.
    #[inline(always)]
    pub fn new(eng: E, step: E::Elem) -> Self {
        let far = step.to_i32().wrapping_mul(E::LANES as i32 - 1);
        Self {
            ramp: eng.ramp(step),
            step,
            exact: E::Elem::from_i32_sat(far).to_i32() == far,
        }
    }

    /// Lane `l` = `init` followed by `l` [`ScoreElem::sat_add`]s of
    /// `step`, i.e. `clamp(init + l · step)` on narrow lanes.
    ///
    /// One saturating add of the ramp gives exactly that unless a ramp
    /// lane saturated *and* `init` pulls the other way (then the
    /// clamped lane has forgotten how far past the limit it was); that
    /// case — never met with gap penalties, where both are ≤ 0 —
    /// replays the definition.
    #[inline(always)]
    pub fn at(&self, eng: E, init: E::Elem) -> E::Vec {
        let zero = E::Elem::ZERO;
        let opposed = (init > zero && self.step < zero) || (init < zero && self.step > zero);
        if self.exact || !opposed {
            eng.add(eng.splat(init), self.ramp)
        } else {
            iterated_lower_bound(eng, init, self.step)
        }
    }
}

/// The definition of `set_vector`, one scalar add per lane.
#[cold]
#[inline(never)]
fn iterated_lower_bound<E: SimdEngine>(eng: E, init: E::Elem, step: E::Elem) -> E::Vec {
    // Sized for the widest supported engine (i8×64); only the first
    // LANES slots are read.
    assert!(E::LANES <= 64);
    let mut buf = [E::Elem::ZERO; 64];
    let mut acc = init;
    for slot in buf.iter_mut().take(E::LANES) {
        *slot = acc;
        acc = acc.sat_add(step);
    }
    eng.load(&buf)
}

/// Convenience: load-add in one call (the paper's `add_array`).
#[inline(always)]
pub fn add_array<E: SimdEngine>(eng: E, src: &[E::Elem], v: E::Vec) -> E::Vec {
    let a = eng.load(src);
    eng.add(a, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::EmuEngine;

    type E8 = EmuEngine<i32, 8>;

    #[test]
    fn lower_bound_matches_fig6() {
        // Fig. 6: lane l = init + l * (k*g).
        let eng = E8::new();
        let v = eng.lower_bound(5, -3);
        let mut out = [0i32; 8];
        eng.store(&mut out, v);
        assert_eq!(out, [5, 2, -1, -4, -7, -10, -13, -16]);
    }

    #[test]
    fn shift_insert_low_n_zero_is_identity() {
        let eng = E8::new();
        let v = eng.lower_bound(0, 1);
        let s = eng.shift_insert_low_n(v, 0, -99);
        let (mut a, mut b) = ([0i32; 8], [0i32; 8]);
        eng.store(&mut a, v);
        eng.store(&mut b, s);
        assert_eq!(a, b);
    }

    #[test]
    fn shift_insert_low_n_saturates_at_lanes() {
        let eng = E8::new();
        let v = eng.lower_bound(1, 1);
        let s = eng.shift_insert_low_n(v, 100, -7);
        let mut out = [0i32; 8];
        eng.store(&mut out, s);
        assert_eq!(out, [-7; 8]);
    }

    #[test]
    fn weighted_scan_max_matches_scalar_model() {
        let eng = E8::new();
        let input = [3, -1, 10, 2, 2, 2, 40, -5];
        let w = -4;
        let v = eng.load(&input);
        let s = eng.weighted_scan_max(v, w);
        let mut got = [0i32; 8];
        eng.store(&mut got, s);
        for (l, &got_l) in got.iter().enumerate() {
            let want = (0..=l)
                .map(|lp| input[lp] + ((l - lp) as i32) * w)
                .max()
                .unwrap();
            assert_eq!(got_l, want, "lane {l}");
        }
    }

    #[test]
    fn portable_lookup_is_the_scalar_gather() {
        let eng = E8::new();
        let table: Vec<i32> = (0..32).map(|i| 1000 - 7 * i).collect();
        let idx = [0, 31, 5, 5, 16, 15, 1, 30];
        let mut out = [0i32; 8];
        eng.store(&mut out, eng.lookup32(&table, eng.load(&idx)));
        assert_eq!(out, idx.map(|i| table[i as usize]));
        const { assert!(!E8::NATIVE_LOOKUP) };
    }

    #[test]
    fn add_array_loads_then_adds() {
        let eng = E8::new();
        let src = [1, 2, 3, 4, 5, 6, 7, 8];
        let v = eng.splat(10);
        let r = add_array(eng, &src, v);
        let mut out = [0i32; 8];
        eng.store(&mut out, r);
        assert_eq!(out, [11, 12, 13, 14, 15, 16, 17, 18]);
    }
}
