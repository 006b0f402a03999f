//! Portable reference engine.
//!
//! [`EmuEngine<T, LANES>`] implements [`SimdEngine`] with plain arrays
//! and scalar loops. It serves three purposes:
//!
//! 1. **Semantics oracle** — every hardware backend is property-tested
//!    against it.
//! 2. **Portability fallback** — the full AAlign kernel stack runs on
//!    any architecture (the compiler will usually auto-vectorize the
//!    fixed-size loops reasonably well).
//! 3. **Width emulation** — a 16-lane i32 instance emulates the
//!    paper's 512-bit IMCI shape on machines without AVX-512.

use crate::elem::ScoreElem;
use crate::engine::SimdEngine;

/// Portable engine over `[T; LANES]` vectors.
///
/// `LANES` must be a power of two (all real vector ISAs are).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmuEngine<T, const LANES: usize> {
    _marker: core::marker::PhantomData<T>,
}

impl<T: ScoreElem, const LANES: usize> EmuEngine<T, LANES> {
    /// Create the engine. Always available; panics at construction if
    /// `LANES` is not a power of two.
    pub fn new() -> Self {
        assert!(LANES.is_power_of_two(), "LANES must be a power of two");
        Self {
            _marker: core::marker::PhantomData,
        }
    }
}

impl<T: ScoreElem, const LANES: usize> SimdEngine for EmuEngine<T, LANES> {
    type Elem = T;
    type Vec = [T; LANES];

    const LANES: usize = LANES;

    #[inline(always)]
    fn splat(self, x: T) -> [T; LANES] {
        [x; LANES]
    }

    #[inline(always)]
    fn load(self, src: &[T]) -> [T; LANES] {
        let mut v = [T::ZERO; LANES];
        v.copy_from_slice(&src[..LANES]);
        v
    }

    #[inline(always)]
    fn store(self, dst: &mut [T], v: [T; LANES]) {
        dst[..LANES].copy_from_slice(&v);
    }

    #[inline(always)]
    fn add(self, a: [T; LANES], b: [T; LANES]) -> [T; LANES] {
        let mut r = [T::ZERO; LANES];
        for i in 0..LANES {
            r[i] = a[i].sat_add(b[i]);
        }
        r
    }

    #[inline(always)]
    fn max(self, a: [T; LANES], b: [T; LANES]) -> [T; LANES] {
        let mut r = [T::ZERO; LANES];
        for i in 0..LANES {
            r[i] = a[i].max2(b[i]);
        }
        r
    }

    #[inline(always)]
    fn any_gt(self, a: [T; LANES], b: [T; LANES]) -> bool {
        for i in 0..LANES {
            if a[i] > b[i] {
                return true;
            }
        }
        false
    }

    #[inline(always)]
    fn shift_insert_low(self, v: [T; LANES], fill: T) -> [T; LANES] {
        let mut r = [fill; LANES];
        r[1..LANES].copy_from_slice(&v[..LANES - 1]);
        r
    }

    #[inline(always)]
    fn extract_high(self, v: [T; LANES]) -> T {
        v[LANES - 1]
    }

    #[inline(always)]
    fn shift_insert_low_n(self, v: [T; LANES], n: usize, fill: T) -> [T; LANES] {
        let n = n.min(LANES);
        let mut r = [fill; LANES];
        r[n..].copy_from_slice(&v[..LANES - n]);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type E4 = EmuEngine<i16, 4>;

    #[test]
    fn load_store_round_trip() {
        let eng = E4::new();
        let src = [1i16, -2, 3, -4];
        let mut dst = [0i16; 4];
        eng.store(&mut dst, eng.load(&src));
        assert_eq!(src, dst);
    }

    #[test]
    fn add_saturates_per_lane() {
        let eng = E4::new();
        let a = eng.load(&[i16::MAX, 5, i16::MIN, 0]);
        let b = eng.load(&[10, -3, -10, 0]);
        let mut out = [0i16; 4];
        eng.store(&mut out, eng.add(a, b));
        assert_eq!(out, [i16::MAX, 2, i16::MIN, 0]);
    }

    #[test]
    fn shift_insert_low_moves_lanes_up() {
        let eng = E4::new();
        let v = eng.load(&[10, 20, 30, 40]);
        let mut out = [0i16; 4];
        eng.store(&mut out, eng.shift_insert_low(v, -1));
        assert_eq!(out, [-1, 10, 20, 30]);
    }

    #[test]
    fn shift_insert_low_n_matches_iterated_single_shift() {
        let eng = E4::new();
        let v = eng.load(&[1, 2, 3, 4]);
        for n in 0..=5 {
            let mut a = v;
            for _ in 0..n.min(4) {
                a = eng.shift_insert_low(a, -9);
            }
            let b = eng.shift_insert_low_n(v, n, -9);
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn any_gt_is_lanewise_influence_test() {
        let eng = E4::new();
        let a = eng.load(&[1, 2, 3, 4]);
        let b = eng.load(&[1, 2, 3, 4]);
        assert!(!eng.any_gt(a, b), "equal vectors do not influence");
        let c = eng.load(&[1, 2, 4, 4]);
        assert!(eng.any_gt(c, b));
        assert!(!eng.any_gt(b, c));
    }

    #[test]
    fn reduce_max_and_extract_high() {
        let eng = E4::new();
        let v = eng.load(&[-5, 42, 7, -1]);
        assert_eq!(eng.reduce_max(v), 42);
        assert_eq!(eng.extract_high(v), -1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_lanes_rejected() {
        let _ = EmuEngine::<i32, 3>::new();
    }
}
