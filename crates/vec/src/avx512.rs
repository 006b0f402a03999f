//! 512-bit AVX-512 backend (`i32x16`) — the stand-in for the paper's
//! IMCI many-core platform.
//!
//! IMCI (Knights Corner) and AVX-512 share the register width
//! (512 bits), the lane shape the paper uses on MIC (16 × i32 — IMCI
//! has no 8/16-bit integer lanes, so the paper restricts MIC kernels
//! to i32), and mask-register comparisons: `influence_test` here is a
//! single `cmpgt` into a 16-bit mask, exactly the IMCI behaviour the
//! paper contrasts with AVX2's movemask workaround.
//!
//! The cross-lane element shift is a single `valignd`
//! (`_mm512_alignr_epi32`), much cheaper than the AVX2 permute+alignr
//! composite — one of the structural reasons 512-bit engines favour
//! the scan strategy less (fewer correction savings per shift).
//!
//! # Safety
//! The constructor checks `is_x86_feature_detected!("avx512f")`.

#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::engine::SimdEngine;

/// AVX-512 engine with 16 × i32 lanes.
#[derive(Debug, Clone, Copy)]
pub struct Avx512I32 {
    _priv: (),
}

impl Avx512I32 {
    /// Returns the engine if the CPU supports AVX-512F.
    pub fn new() -> Option<Self> {
        std::arch::is_x86_feature_detected!("avx512f").then_some(Self { _priv: () })
    }
}

impl SimdEngine for Avx512I32 {
    type Elem = i32;
    type Vec = __m512i;

    const LANES: usize = 16;
    const NATIVE_LOOKUP: bool = true;

    #[inline(always)]
    fn splat(self, x: i32) -> __m512i {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe { _mm512_set1_epi32(x) }
    }

    #[inline(always)]
    fn load(self, src: &[i32]) -> __m512i {
        assert!(src.len() >= 16);
        // SAFETY: AVX-512 was verified by the constructor; the assert guarantees enough elements for the unaligned load.
        unsafe { _mm512_loadu_epi32(src.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [i32], v: __m512i) {
        assert!(dst.len() >= 16);
        // SAFETY: AVX-512 was verified by the constructor; the assert guarantees enough elements for the unaligned store.
        unsafe { _mm512_storeu_epi32(dst.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn add(self, a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe { _mm512_add_epi32(a, b) }
    }

    #[inline(always)]
    fn max(self, a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe { _mm512_max_epi32(a, b) }
    }

    #[inline(always)]
    fn any_gt(self, a: __m512i, b: __m512i) -> bool {
        // Compare straight into a 16-bit mask register (IMCI-style).
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe { _mm512_cmpgt_epi32_mask(a, b) != 0 }
    }

    #[inline(always)]
    fn shift_insert_low(self, v: __m512i, fill: i32) -> __m512i {
        // valignd: result[i] = concat(v, fillvec)[i + 15]
        //   lane 0 ← fillvec[15] = fill; lane i ← v[i-1].
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe { _mm512_alignr_epi32::<15>(v, _mm512_set1_epi32(fill)) }
    }

    #[inline(always)]
    fn shift_insert_low_n(self, v: __m512i, n: usize, fill: i32) -> __m512i {
        let n = n.min(16);
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe {
            // One vpermd for any distance: lane i ← lane i−n where the
            // mask is set, `fill` below it.
            let iota = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
            let idx = _mm512_sub_epi32(iota, _mm512_set1_epi32(n as i32));
            let keep = (0xFFFF_u32 << n) as __mmask16;
            _mm512_mask_permutexvar_epi32(_mm512_set1_epi32(fill), keep, idx, v)
        }
    }

    #[inline(always)]
    fn extract_high(self, v: __m512i) -> i32 {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe {
            let hi256 = _mm512_extracti64x4_epi64::<1>(v);
            _mm256_extract_epi32::<7>(hi256)
        }
    }

    #[inline(always)]
    fn reduce_max(self, v: __m512i) -> i32 {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe { _mm512_reduce_max_epi32(v) }
    }

    #[inline(always)]
    fn lookup32(self, table: &[i32], idx: __m512i) -> __m512i {
        assert!(table.len() >= 32);
        // One two-source `vpermi2d`: index bit 4 picks the register,
        // bits 0–3 the lane.
        // SAFETY: AVX-512 was verified by the constructor; the assert guarantees 32 elements for the two unaligned 16-element loads.
        unsafe {
            let low = _mm512_loadu_epi32(table.as_ptr());
            let high = _mm512_loadu_epi32(table.as_ptr().add(16));
            _mm512_permutex2var_epi32(low, idx, high)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::EmuEngine;

    #[test]
    fn matches_emulated_oracle() {
        let Some(eng) = Avx512I32::new() else {
            eprintln!("skipping: no avx512f");
            return;
        };
        let emu = EmuEngine::<i32, 16>::new();
        for seed in 0i32..24 {
            let a: Vec<i32> = (0..16).map(|i| (seed * 37 + i * 13) % 91 - 45).collect();
            let b: Vec<i32> = (0..16).map(|i| (seed * 53 + i * 7) % 77 - 38).collect();
            let (va, vb) = (eng.load(&a), eng.load(&b));
            let (ea, eb) = (emu.load(&a), emu.load(&b));
            let mut got = [0i32; 16];
            let mut want = [0i32; 16];

            eng.store(&mut got, eng.add(va, vb));
            emu.store(&mut want, emu.add(ea, eb));
            assert_eq!(got, want, "add");

            eng.store(&mut got, eng.max(va, vb));
            emu.store(&mut want, emu.max(ea, eb));
            assert_eq!(got, want, "max");

            assert_eq!(eng.any_gt(va, vb), emu.any_gt(ea, eb), "any_gt");
            assert_eq!(eng.reduce_max(va), emu.reduce_max(ea), "reduce_max");
            assert_eq!(eng.extract_high(va), emu.extract_high(ea), "extract");

            eng.store(&mut got, eng.shift_insert_low(va, -1234));
            emu.store(&mut want, emu.shift_insert_low(ea, -1234));
            assert_eq!(got, want, "valignd shift");

            for d in [0usize, 1, 2, 4, 8, 15, 16, 40] {
                eng.store(&mut got, eng.shift_insert_low_n(va, d, 5));
                emu.store(&mut want, emu.shift_insert_low_n(ea, d, 5));
                assert_eq!(got, want, "shift_n d={d}");
            }

            let mut g = [0i32; 16];
            let mut w = [0i32; 16];
            eng.store(&mut g, eng.weighted_scan_max(va, -3));
            emu.store(&mut w, emu.weighted_scan_max(ea, -3));
            assert_eq!(g, w, "weighted scan");
        }
    }

    #[test]
    fn influence_test_mask_semantics() {
        let Some(eng) = Avx512I32::new() else {
            return;
        };
        let a = eng.splat(5);
        let b = eng.splat(5);
        assert!(!eng.any_gt(a, b));
        let c = eng.shift_insert_low(a, 6); // one lane becomes 6
        assert!(eng.any_gt(c, b));
    }
}

/// AVX-512BW engine with 32 × i16 lanes.
///
/// IMCI had no sub-32-bit integer lanes (the paper's reason for
/// restricting MIC to i32); AVX-512BW added them, so modern 512-bit
/// hosts can run the narrow kernels at twice the lane count. The
/// one-lane shift is Fig. 7's composite at 512 bits (`valignq` +
/// `vpalignr`); every other distance is one masked `vpermw`.
#[derive(Debug, Clone, Copy)]
pub struct Avx512I16 {
    _priv: (),
}

impl Avx512I16 {
    /// Returns the engine if the CPU supports AVX-512BW.
    pub fn new() -> Option<Self> {
        (std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw"))
        .then_some(Self { _priv: () })
    }
}

impl SimdEngine for Avx512I16 {
    type Elem = i16;
    type Vec = __m512i;

    const LANES: usize = 32;
    const NATIVE_LOOKUP: bool = true;

    #[inline(always)]
    fn splat(self, x: i16) -> __m512i {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe { _mm512_set1_epi16(x) }
    }

    #[inline(always)]
    fn load(self, src: &[i16]) -> __m512i {
        assert!(src.len() >= 32);
        // SAFETY: AVX-512 was verified by the constructor; the assert guarantees enough elements for the unaligned load.
        unsafe { _mm512_loadu_epi16(src.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [i16], v: __m512i) {
        assert!(dst.len() >= 32);
        // SAFETY: AVX-512 was verified by the constructor; the assert guarantees enough elements for the unaligned store.
        unsafe { _mm512_storeu_epi16(dst.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn add(self, a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe { _mm512_adds_epi16(a, b) }
    }

    #[inline(always)]
    fn max(self, a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe { _mm512_max_epi16(a, b) }
    }

    #[inline(always)]
    fn any_gt(self, a: __m512i, b: __m512i) -> bool {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe { _mm512_cmpgt_epi16_mask(a, b) != 0 }
    }

    #[inline(always)]
    fn shift_insert_low(self, v: __m512i, fill: i16) -> __m512i {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe {
            // Fig. 7 at 512 bits: `valignq` moves whole 128-bit lanes up
            // one (fill entering at the bottom), then a per-lane
            // `alignr` pulls each lane's new low word out of the lane
            // below. Four cycles, and the fill needs no blend.
            let lane_below = _mm512_alignr_epi64::<6>(v, _mm512_set1_epi16(fill));
            _mm512_alignr_epi8::<14>(v, lane_below)
        }
    }

    #[inline(always)]
    fn shift_insert_low_n(self, v: __m512i, n: usize, fill: i16) -> __m512i {
        if n == 1 {
            // LLVM lowers the masked permute below, at distance one with
            // a splat fill, to `vpermw` + `vpinsrw` + `vinserti32x4`.
            return self.shift_insert_low(v, fill);
        }
        let n = n.min(32);
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe {
            // One masked vpermw for any distance: lane i ← lane i−n
            // where the mask is set, `fill` below it.
            let iota = _mm512_set_epi16(
                31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11,
                10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0,
            );
            let idx = _mm512_sub_epi16(iota, _mm512_set1_epi16(n as i16));
            let keep = (u64::from(u32::MAX) << n) as __mmask32;
            _mm512_mask_permutexvar_epi16(_mm512_set1_epi16(fill), keep, idx, v)
        }
    }

    #[inline(always)]
    fn extract_high(self, v: __m512i) -> i16 {
        // SAFETY: AVX-512 was verified by the constructor; register-only intrinsics.
        unsafe {
            let hi256 = _mm512_extracti64x4_epi64::<1>(v);
            _mm256_extract_epi16::<15>(hi256) as i16
        }
    }

    #[inline(always)]
    fn lookup32(self, table: &[i16], idx: __m512i) -> __m512i {
        assert!(table.len() >= 32);
        // The table is one register; one `vpermw` reads it by lane.
        // SAFETY: AVX-512 was verified by the constructor; the assert guarantees enough elements for the unaligned load.
        unsafe { _mm512_permutexvar_epi16(idx, _mm512_loadu_epi16(table.as_ptr())) }
    }
}

#[cfg(test)]
mod bw_tests {
    use super::*;
    use crate::emu::EmuEngine;

    #[test]
    fn i16x32_matches_emulated_oracle() {
        let Some(eng) = Avx512I16::new() else {
            eprintln!("skipping: no avx512bw");
            return;
        };
        let emu = EmuEngine::<i16, 32>::new();
        for seed in 0i32..24 {
            let a: Vec<i16> = (0..32)
                .map(|i| ((seed * 37 + i * 13) % 30_000 - 15_000) as i16)
                .collect();
            let b: Vec<i16> = (0..32)
                .map(|i| ((seed * 53 + i * 7) % 30_000 - 15_000) as i16)
                .collect();
            let (va, vb) = (eng.load(&a), eng.load(&b));
            let (ea, eb) = (emu.load(&a), emu.load(&b));
            let mut got = [0i16; 32];
            let mut want = [0i16; 32];

            eng.store(&mut got, eng.add(va, vb));
            emu.store(&mut want, emu.add(ea, eb));
            assert_eq!(got, want, "saturating add");

            eng.store(&mut got, eng.max(va, vb));
            emu.store(&mut want, emu.max(ea, eb));
            assert_eq!(got, want, "max");

            assert_eq!(eng.any_gt(va, vb), emu.any_gt(ea, eb));
            assert_eq!(eng.reduce_max(va), emu.reduce_max(ea));
            assert_eq!(eng.extract_high(va), emu.extract_high(ea));

            eng.store(&mut got, eng.shift_insert_low(va, i16::MIN));
            emu.store(&mut want, emu.shift_insert_low(ea, i16::MIN));
            assert_eq!(got, want, "vpermw shift");

            let mut g = [0i16; 32];
            let mut w = [0i16; 32];
            eng.store(&mut g, eng.weighted_scan_max(va, -3));
            emu.store(&mut w, emu.weighted_scan_max(ea, -3));
            assert_eq!(g, w, "weighted scan");
        }
    }

    #[test]
    fn i16x32_saturation_boundaries() {
        let Some(eng) = Avx512I16::new() else {
            return;
        };
        let a = [i16::MAX; 32];
        let b = [100i16; 32];
        let mut out = [0i16; 32];
        eng.store(&mut out, eng.add(eng.load(&a), eng.load(&b)));
        assert_eq!(out, [i16::MAX; 32]);
        let a = [i16::MIN; 32];
        let b = [-100i16; 32];
        eng.store(&mut out, eng.add(eng.load(&a), eng.load(&b)));
        assert_eq!(out, [i16::MIN; 32]);
    }
}
