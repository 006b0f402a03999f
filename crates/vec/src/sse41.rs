//! 128-bit SSE4.1 backends (`i32x4`, `i16x8`).
//!
//! These are the narrowest hardware engines — the shape Farrar's
//! original striped Smith-Waterman ran on. They are mainly useful as
//! an additional point in the backend-ablation benchmarks; AVX2 /
//! AVX-512 are the paper's platforms.
//!
//! # Safety
//! Every constructor checks `is_x86_feature_detected!("sse4.1")`, so a
//! value of these types proves the ISA is present; the intrinsics
//! called by the (safe) trait methods are therefore always available.

#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::engine::SimdEngine;

/// SSE4.1 engine with 4 × i32 lanes.
#[derive(Debug, Clone, Copy)]
pub struct Sse41I32 {
    _priv: (),
}

/// SSE4.1 engine with 8 × i16 lanes.
#[derive(Debug, Clone, Copy)]
pub struct Sse41I16 {
    _priv: (),
}

impl Sse41I32 {
    /// Returns the engine if the CPU supports SSE4.1.
    pub fn new() -> Option<Self> {
        std::arch::is_x86_feature_detected!("sse4.1").then_some(Self { _priv: () })
    }
}

impl Sse41I16 {
    /// Returns the engine if the CPU supports SSE4.1.
    pub fn new() -> Option<Self> {
        std::arch::is_x86_feature_detected!("sse4.1").then_some(Self { _priv: () })
    }
}

/// `rshift_x_fill` at byte granularity: bytes move up by `bytes`
/// positions and the vacated low bytes take those of `fill`;
/// `bytes ≥ 16` returns `fill`. One `pslldq` per set bit of `bytes`
/// (it shifts zeros in, so the fill is merged with an `or`); a
/// constant `bytes` folds every branch away.
///
/// # Safety
/// The caller must guarantee SSE4.1 is available (every caller is an
/// engine method, and the engine's constructor verified it).
#[inline(always)]
unsafe fn shift_bytes_up(v: __m128i, bytes: usize, fill: __m128i) -> __m128i {
    if bytes >= 16 {
        return fill;
    }
    // SAFETY: SSE4.1 availability is the function's own precondition; register-only intrinsics.
    unsafe {
        let mut r = v;
        if bytes & 1 != 0 {
            r = _mm_slli_si128::<1>(r);
        }
        if bytes & 2 != 0 {
            r = _mm_slli_si128::<2>(r);
        }
        if bytes & 4 != 0 {
            r = _mm_slli_si128::<4>(r);
        }
        if bytes & 8 != 0 {
            r = _mm_slli_si128::<8>(r);
        }
        let iota = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let vacated = _mm_cmpgt_epi8(_mm_set1_epi8(bytes as i8), iota);
        _mm_or_si128(r, _mm_and_si128(fill, vacated))
    }
}

impl SimdEngine for Sse41I32 {
    type Elem = i32;
    type Vec = __m128i;

    const LANES: usize = 4;

    #[inline(always)]
    fn splat(self, x: i32) -> __m128i {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { _mm_set1_epi32(x) }
    }

    #[inline(always)]
    fn load(self, src: &[i32]) -> __m128i {
        assert!(src.len() >= 4);
        // SAFETY: SSE4.1 was verified by the constructor; the assert guarantees enough elements for the unaligned load.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [i32], v: __m128i) {
        assert!(dst.len() >= 4);
        // SAFETY: SSE4.1 was verified by the constructor; the assert guarantees enough elements for the unaligned store.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
    }

    #[inline(always)]
    fn add(self, a: __m128i, b: __m128i) -> __m128i {
        // i32 lanes use wrapping adds (no 32-bit saturating add exists).
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { _mm_add_epi32(a, b) }
    }

    #[inline(always)]
    fn max(self, a: __m128i, b: __m128i) -> __m128i {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { _mm_max_epi32(a, b) }
    }

    #[inline(always)]
    fn any_gt(self, a: __m128i, b: __m128i) -> bool {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { _mm_movemask_epi8(_mm_cmpgt_epi32(a, b)) != 0 }
    }

    #[inline(always)]
    fn shift_insert_low(self, v: __m128i, fill: i32) -> __m128i {
        self.shift_insert_low_n(v, 1, fill)
    }

    #[inline(always)]
    fn shift_insert_low_n(self, v: __m128i, n: usize, fill: i32) -> __m128i {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { shift_bytes_up(v, n.min(4) * 4, _mm_set1_epi32(fill)) }
    }

    #[inline(always)]
    fn extract_high(self, v: __m128i) -> i32 {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { _mm_extract_epi32::<3>(v) }
    }

    #[inline(always)]
    fn reduce_max(self, v: __m128i) -> i32 {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe {
            let m = _mm_max_epi32(v, _mm_shuffle_epi32::<0b01_00_11_10>(v));
            let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b00_01_10_11>(m));
            _mm_extract_epi32::<0>(m)
        }
    }
}

impl SimdEngine for Sse41I16 {
    type Elem = i16;
    type Vec = __m128i;

    const LANES: usize = 8;

    #[inline(always)]
    fn splat(self, x: i16) -> __m128i {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { _mm_set1_epi16(x) }
    }

    #[inline(always)]
    fn load(self, src: &[i16]) -> __m128i {
        assert!(src.len() >= 8);
        // SAFETY: SSE4.1 was verified by the constructor; the assert guarantees enough elements for the unaligned load.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [i16], v: __m128i) {
        assert!(dst.len() >= 8);
        // SAFETY: SSE4.1 was verified by the constructor; the assert guarantees enough elements for the unaligned store.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
    }

    #[inline(always)]
    fn add(self, a: __m128i, b: __m128i) -> __m128i {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { _mm_adds_epi16(a, b) }
    }

    #[inline(always)]
    fn max(self, a: __m128i, b: __m128i) -> __m128i {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { _mm_max_epi16(a, b) }
    }

    #[inline(always)]
    fn any_gt(self, a: __m128i, b: __m128i) -> bool {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { _mm_movemask_epi8(_mm_cmpgt_epi16(a, b)) != 0 }
    }

    #[inline(always)]
    fn shift_insert_low(self, v: __m128i, fill: i16) -> __m128i {
        self.shift_insert_low_n(v, 1, fill)
    }

    #[inline(always)]
    fn shift_insert_low_n(self, v: __m128i, n: usize, fill: i16) -> __m128i {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { shift_bytes_up(v, n.min(8) * 2, _mm_set1_epi16(fill)) }
    }

    #[inline(always)]
    fn extract_high(self, v: __m128i) -> i16 {
        // SAFETY: SSE4.1 was verified by the constructor; register-only intrinsics.
        unsafe { _mm_extract_epi16::<7>(v) as i16 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::EmuEngine;

    /// Compare every engine op against the emulated oracle on a grid
    /// of values that includes the saturation boundaries.
    fn cross_check_i32(eng: Sse41I32) {
        let emu = EmuEngine::<i32, 4>::new();
        let samples: &[[i32; 4]] = &[
            [0, 1, -1, i32::MAX / 4],
            [i32::MIN / 4, 7, -7, 100],
            [5, 5, 5, 5],
            [-3, 12, 0, -1000],
        ];
        for &a in samples {
            for &b in samples {
                let (va, vb) = (eng.load(&a), eng.load(&b));
                let (ea, eb) = (emu.load(&a), emu.load(&b));
                let mut got = [0i32; 4];
                let mut want = [0i32; 4];

                eng.store(&mut got, eng.add(va, vb));
                emu.store(&mut want, emu.add(ea, eb));
                assert_eq!(got, want, "add {a:?} {b:?}");

                eng.store(&mut got, eng.max(va, vb));
                emu.store(&mut want, emu.max(ea, eb));
                assert_eq!(got, want, "max");

                assert_eq!(eng.any_gt(va, vb), emu.any_gt(ea, eb), "any_gt");

                eng.store(&mut got, eng.shift_insert_low(va, -42));
                emu.store(&mut want, emu.shift_insert_low(ea, -42));
                assert_eq!(got, want, "shift");

                assert_eq!(eng.extract_high(va), emu.extract_high(ea));
                assert_eq!(eng.reduce_max(va), emu.reduce_max(ea));
            }
        }
    }

    #[test]
    fn i32_matches_emulated_oracle() {
        let Some(eng) = Sse41I32::new() else {
            eprintln!("skipping: no sse4.1");
            return;
        };
        cross_check_i32(eng);
    }

    #[test]
    fn i16_saturation_and_shift() {
        let Some(eng) = Sse41I16::new() else {
            eprintln!("skipping: no sse4.1");
            return;
        };
        let emu = EmuEngine::<i16, 8>::new();
        let a = [i16::MAX, -5, 0, 1, 2, 3, i16::MIN, 9];
        let b = [100, -100, 0, 0, 0, 0, -100, 1];
        let (va, vb) = (eng.load(&a), eng.load(&b));
        let (ea, eb) = (emu.load(&a), emu.load(&b));
        let mut got = [0i16; 8];
        let mut want = [0i16; 8];
        eng.store(&mut got, eng.add(va, vb));
        emu.store(&mut want, emu.add(ea, eb));
        assert_eq!(got, want);
        eng.store(&mut got, eng.shift_insert_low(va, -7));
        emu.store(&mut want, emu.shift_insert_low(ea, -7));
        assert_eq!(got, want);
        assert_eq!(eng.any_gt(va, vb), emu.any_gt(ea, eb));
        assert_eq!(eng.extract_high(va), 9);
        assert_eq!(eng.reduce_max(va), i16::MAX);
    }
}
