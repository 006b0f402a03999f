//! 256-bit AVX2 backends (`i32x8`, `i16x16`, `i8x32`) — the paper's
//! multi-core CPU platform.
//!
//! AVX2 registers are two 128-bit lanes, so the element-wise
//! `rshift_x_fill` module cannot be a single byte-shift: exactly as the
//! paper's Fig. 7 describes, it is composed from a cross-lane
//! `permute2x128`, a per-lane `alignr`, and a merge of the fill value
//! (`shift_bytes_up`, shared by the three lane widths and by every
//! shift distance). The `influence_test` uses `cmpgt` + `movemask` (AVX2 has no
//! compare-into-mask-register; the paper notes the same workaround).
//!
//! # Safety
//! Constructors check `is_x86_feature_detected!("avx2")`; an engine
//! value is a proof the ISA is present.

#![allow(unsafe_code)]

use core::arch::x86_64::*;

#[cfg(test)]
use crate::elem::ScoreElem;
use crate::engine::SimdEngine;

/// AVX2 engine with 8 × i32 lanes.
#[derive(Debug, Clone, Copy)]
pub struct Avx2I32 {
    _priv: (),
}

/// AVX2 engine with 16 × i16 lanes.
#[derive(Debug, Clone, Copy)]
pub struct Avx2I16 {
    _priv: (),
}

/// AVX2 engine with 32 × i8 lanes (used by the SWPS3-like baseline).
#[derive(Debug, Clone, Copy)]
pub struct Avx2I8 {
    _priv: (),
}

macro_rules! avx2_ctor {
    ($t:ty) => {
        impl $t {
            /// Returns the engine if the CPU supports AVX2.
            pub fn new() -> Option<Self> {
                std::arch::is_x86_feature_detected!("avx2").then_some(Self { _priv: () })
            }
        }
    };
}
avx2_ctor!(Avx2I32);
avx2_ctor!(Avx2I16);
avx2_ctor!(Avx2I8);

/// `[0…0, v.low]` — the cross-lane half of the element shift
/// (paper Fig. 7's `permutevar` step).
///
/// # Safety
/// The caller must guarantee AVX2 is available (every caller is an
/// engine method, and the engine's constructor verified it).
#[inline(always)]
unsafe fn swap_low_to_high(v: __m256i) -> __m256i {
    // SAFETY: AVX2 availability is the function's own precondition.
    unsafe { _mm256_permute2x128_si256::<0x08>(v, v) }
}

/// `rshift_x_fill` at byte granularity: bytes move up by `bytes`
/// positions across the whole register and the vacated low bytes take
/// those of `fill`; `bytes ≥ 32` returns `fill`.
///
/// Each set bit of `bytes` is one Fig. 7 composite — `permute2x128`
/// (the cross-lane half) feeding a per-lane `alignr` — so a
/// power-of-two distance, the only kind the log-step scans ask for,
/// costs one composite plus the fill merge, and a constant `bytes`
/// folds every branch away. The composite shifts zeros in, which is
/// why the fill can be merged with an `or`.
///
/// # Safety
/// The caller must guarantee AVX2 is available (every caller is an
/// engine method, and the engine's constructor verified it).
#[inline(always)]
unsafe fn shift_bytes_up(v: __m256i, bytes: usize, fill: __m256i) -> __m256i {
    if bytes >= 32 {
        return fill;
    }
    // SAFETY: AVX2 availability is the function's own precondition; register-only intrinsics.
    unsafe {
        let mut r = v;
        if bytes & 1 != 0 {
            r = _mm256_alignr_epi8::<15>(r, swap_low_to_high(r));
        }
        if bytes & 2 != 0 {
            r = _mm256_alignr_epi8::<14>(r, swap_low_to_high(r));
        }
        if bytes & 4 != 0 {
            r = _mm256_alignr_epi8::<12>(r, swap_low_to_high(r));
        }
        if bytes & 8 != 0 {
            r = _mm256_alignr_epi8::<8>(r, swap_low_to_high(r));
        }
        if bytes & 16 != 0 {
            r = swap_low_to_high(r);
        }
        let iota = _mm256_setr_epi8(
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 25, 26, 27, 28, 29, 30, 31,
        );
        let vacated = _mm256_cmpgt_epi8(_mm256_set1_epi8(bytes as i8), iota);
        _mm256_or_si256(r, _mm256_and_si256(fill, vacated))
    }
}

/// The part of a 32-entry i16 table lookup that quarter `c` — entries
/// `8c..8c + 8`, 16 bytes — answers: `pshufb` reads a 16-byte table per
/// 128-bit half, so the quarter is broadcast to both, and writes zero
/// where the index byte's top bit is set. `bytes` holds each lane's
/// two byte offsets into the whole table (0..=63); relative to this
/// quarter they are `bytes − 16c`, and the saturating `+ 0x70` leaves
/// the top bit clear exactly for 0..=15 (below wraps to ≥ 0xC0, above
/// reaches ≥ 0x80), so lanes of other quarters come out zero and the
/// four results can be or-ed.
///
/// # Safety
/// The caller must guarantee AVX2 is available (every caller is an
/// engine method, and the engine's constructor verified it).
#[inline(always)]
unsafe fn lookup_quarter(entries: &[i16; 8], bytes: __m256i, c: i8) -> __m256i {
    // SAFETY: AVX2 availability is the function's own precondition; the array type guarantees 16 readable bytes for the unaligned load.
    unsafe {
        let table = _mm256_broadcastsi128_si256(_mm_loadu_si128(entries.as_ptr().cast()));
        let offset = _mm256_sub_epi8(bytes, _mm256_set1_epi8(16 * c));
        _mm256_shuffle_epi8(table, _mm256_adds_epu8(offset, _mm256_set1_epi8(0x70)))
    }
}

impl SimdEngine for Avx2I32 {
    type Elem = i32;
    type Vec = __m256i;

    const LANES: usize = 8;

    #[inline(always)]
    fn splat(self, x: i32) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_set1_epi32(x) }
    }

    #[inline(always)]
    fn load(self, src: &[i32]) -> __m256i {
        assert!(src.len() >= 8);
        // SAFETY: AVX2 was verified by the constructor; the assert guarantees enough elements for the unaligned load.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [i32], v: __m256i) {
        assert!(dst.len() >= 8);
        // SAFETY: AVX2 was verified by the constructor; the assert guarantees enough elements for the unaligned store.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    #[inline(always)]
    fn add(self, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_add_epi32(a, b) }
    }

    #[inline(always)]
    fn max(self, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_max_epi32(a, b) }
    }

    #[inline(always)]
    fn any_gt(self, a: __m256i, b: __m256i) -> bool {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_movemask_epi8(_mm256_cmpgt_epi32(a, b)) != 0 }
    }

    #[inline(always)]
    fn shift_insert_low(self, v: __m256i, fill: i32) -> __m256i {
        self.shift_insert_low_n(v, 1, fill)
    }

    #[inline(always)]
    fn shift_insert_low_n(self, v: __m256i, n: usize, fill: i32) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { shift_bytes_up(v, n.min(8) * 4, _mm256_set1_epi32(fill)) }
    }

    #[inline(always)]
    fn extract_high(self, v: __m256i) -> i32 {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_extract_epi32::<7>(v) }
    }
}

impl SimdEngine for Avx2I16 {
    type Elem = i16;
    type Vec = __m256i;

    const LANES: usize = 16;
    const NATIVE_LOOKUP: bool = true;

    #[inline(always)]
    fn splat(self, x: i16) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_set1_epi16(x) }
    }

    #[inline(always)]
    fn load(self, src: &[i16]) -> __m256i {
        assert!(src.len() >= 16);
        // SAFETY: AVX2 was verified by the constructor; the assert guarantees enough elements for the unaligned load.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [i16], v: __m256i) {
        assert!(dst.len() >= 16);
        // SAFETY: AVX2 was verified by the constructor; the assert guarantees enough elements for the unaligned store.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    #[inline(always)]
    fn add(self, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_adds_epi16(a, b) }
    }

    #[inline(always)]
    fn max(self, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_max_epi16(a, b) }
    }

    #[inline(always)]
    fn any_gt(self, a: __m256i, b: __m256i) -> bool {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_movemask_epi8(_mm256_cmpgt_epi16(a, b)) != 0 }
    }

    #[inline(always)]
    fn shift_insert_low(self, v: __m256i, fill: i16) -> __m256i {
        self.shift_insert_low_n(v, 1, fill)
    }

    #[inline(always)]
    fn shift_insert_low_n(self, v: __m256i, n: usize, fill: i16) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { shift_bytes_up(v, n.min(16) * 2, _mm256_set1_epi16(fill)) }
    }

    #[inline(always)]
    fn extract_high(self, v: __m256i) -> i16 {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_extract_epi16::<15>(v) as i16 }
    }

    #[inline(always)]
    fn lookup32(self, table: &[i16], idx: __m256i) -> __m256i {
        assert!(table.len() >= 32);
        // Entry `i` is bytes `2i` and `2i + 1` of the table: both byte
        // offsets per lane, then one shuffle per 16-byte quarter.
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics, and `lookup_quarter` asks for AVX2 alone.
        unsafe {
            let bytes = _mm256_add_epi16(
                _mm256_mullo_epi16(idx, _mm256_set1_epi16(0x0202)),
                _mm256_set1_epi16(0x0100),
            );
            let entries = |c: usize| -> &[i16; 8] {
                table[8 * c..8 * c + 8].try_into().expect("eight entries")
            };
            _mm256_or_si256(
                _mm256_or_si256(
                    lookup_quarter(entries(0), bytes, 0),
                    lookup_quarter(entries(1), bytes, 1),
                ),
                _mm256_or_si256(
                    lookup_quarter(entries(2), bytes, 2),
                    lookup_quarter(entries(3), bytes, 3),
                ),
            )
        }
    }
}

impl SimdEngine for Avx2I8 {
    type Elem = i8;
    type Vec = __m256i;

    const LANES: usize = 32;
    const NATIVE_LOOKUP: bool = true;

    #[inline(always)]
    fn splat(self, x: i8) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_set1_epi8(x) }
    }

    #[inline(always)]
    fn load(self, src: &[i8]) -> __m256i {
        assert!(src.len() >= 32);
        // SAFETY: AVX2 was verified by the constructor; the assert guarantees enough elements for the unaligned load.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [i8], v: __m256i) {
        assert!(dst.len() >= 32);
        // SAFETY: AVX2 was verified by the constructor; the assert guarantees enough elements for the unaligned store.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    #[inline(always)]
    fn add(self, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_adds_epi8(a, b) }
    }

    #[inline(always)]
    fn max(self, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_max_epi8(a, b) }
    }

    #[inline(always)]
    fn any_gt(self, a: __m256i, b: __m256i) -> bool {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_movemask_epi8(_mm256_cmpgt_epi8(a, b)) != 0 }
    }

    #[inline(always)]
    fn shift_insert_low(self, v: __m256i, fill: i8) -> __m256i {
        self.shift_insert_low_n(v, 1, fill)
    }

    #[inline(always)]
    fn shift_insert_low_n(self, v: __m256i, n: usize, fill: i8) -> __m256i {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { shift_bytes_up(v, n.min(32), _mm256_set1_epi8(fill)) }
    }

    #[inline(always)]
    fn extract_high(self, v: __m256i) -> i8 {
        // SAFETY: AVX2 was verified by the constructor; register-only intrinsics.
        unsafe { _mm256_extract_epi8::<31>(v) as i8 }
    }

    #[inline(always)]
    fn lookup32(self, table: &[i8], idx: __m256i) -> __m256i {
        assert!(table.len() >= 32);
        // Entries 0–15 and 16–31 are each broadcast to both 128-bit
        // halves and read by one `pshufb`, which writes zero where the
        // index byte's top bit is set: for indices 0..=31, `idx + 0x70`
        // sets it exactly when `idx ≥ 16` and `idx − 16` exactly when
        // `idx < 16`, so each shuffle answers for its own half and the
        // two are or-ed.
        // SAFETY: AVX2 was verified by the constructor; the assert guarantees 32 elements for the two unaligned 16-element loads.
        unsafe {
            let low = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().cast()));
            let high = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().add(16).cast()));
            let from_low = _mm256_shuffle_epi8(low, _mm256_add_epi8(idx, _mm256_set1_epi8(0x70)));
            let from_high = _mm256_shuffle_epi8(high, _mm256_sub_epi8(idx, _mm256_set1_epi8(16)));
            _mm256_or_si256(from_low, from_high)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::EmuEngine;

    fn pattern<T: ScoreElem>(seed: i32, n: usize) -> Vec<T> {
        (0..n as i32)
            .map(|i| T::from_i32_sat((seed.wrapping_mul(31).wrapping_add(i * 17)) % 120 - 40))
            .collect()
    }

    #[test]
    fn i32_matches_emulated_oracle() {
        let Some(eng) = Avx2I32::new() else {
            eprintln!("skipping: no avx2");
            return;
        };
        let emu = EmuEngine::<i32, 8>::new();
        for seed in 0..20 {
            let a: Vec<i32> = pattern(seed, 8);
            let b: Vec<i32> = pattern(seed + 100, 8);
            let (va, vb) = (eng.load(&a), eng.load(&b));
            let (ea, eb) = (emu.load(&a), emu.load(&b));
            let mut got = [0i32; 8];
            let mut want = [0i32; 8];

            eng.store(&mut got, eng.add(va, vb));
            emu.store(&mut want, emu.add(ea, eb));
            assert_eq!(got, want, "add seed={seed}");

            eng.store(&mut got, eng.max(va, vb));
            emu.store(&mut want, emu.max(ea, eb));
            assert_eq!(got, want, "max");

            assert_eq!(eng.any_gt(va, vb), emu.any_gt(ea, eb), "any_gt");
            assert_eq!(eng.reduce_max(va), emu.reduce_max(ea), "reduce");
            assert_eq!(eng.extract_high(va), emu.extract_high(ea));

            eng.store(&mut got, eng.shift_insert_low(va, -99));
            emu.store(&mut want, emu.shift_insert_low(ea, -99));
            assert_eq!(got, want, "shift crosses the 128-bit boundary");

            for d in 0..=8 {
                eng.store(&mut got, eng.shift_insert_low_n(va, d, 3));
                emu.store(&mut want, emu.shift_insert_low_n(ea, d, 3));
                assert_eq!(got, want, "shift_n d={d}");
            }
        }
    }

    #[test]
    fn i16_matches_emulated_oracle() {
        let Some(eng) = Avx2I16::new() else {
            eprintln!("skipping: no avx2");
            return;
        };
        let emu = EmuEngine::<i16, 16>::new();
        for seed in 0..20 {
            let a: Vec<i16> = pattern(seed, 16);
            let b: Vec<i16> = pattern(seed + 7, 16);
            let (va, vb) = (eng.load(&a), eng.load(&b));
            let (ea, eb) = (emu.load(&a), emu.load(&b));
            let mut got = [0i16; 16];
            let mut want = [0i16; 16];

            eng.store(&mut got, eng.add(va, vb));
            emu.store(&mut want, emu.add(ea, eb));
            assert_eq!(got, want, "adds saturate identically");

            eng.store(&mut got, eng.shift_insert_low(va, i16::MIN));
            emu.store(&mut want, emu.shift_insert_low(ea, i16::MIN));
            assert_eq!(got, want, "16-bit shift uses alignr+insert (Fig 7)");

            assert_eq!(eng.any_gt(va, vb), emu.any_gt(ea, eb));
            assert_eq!(eng.reduce_max(va), emu.reduce_max(ea));
        }
    }

    #[test]
    fn i16_saturating_add_boundaries() {
        let Some(eng) = Avx2I16::new() else {
            return;
        };
        let a = [i16::MAX; 16];
        let b = [1i16; 16];
        let mut out = [0i16; 16];
        eng.store(&mut out, eng.add(eng.load(&a), eng.load(&b)));
        assert_eq!(out, [i16::MAX; 16]);
    }

    #[test]
    fn i8_matches_emulated_oracle() {
        let Some(eng) = Avx2I8::new() else {
            eprintln!("skipping: no avx2");
            return;
        };
        let emu = EmuEngine::<i8, 32>::new();
        for seed in 0..20 {
            let a: Vec<i8> = pattern(seed, 32);
            let b: Vec<i8> = pattern(seed + 3, 32);
            let (va, vb) = (eng.load(&a), eng.load(&b));
            let (ea, eb) = (emu.load(&a), emu.load(&b));
            let mut got = [0i8; 32];
            let mut want = [0i8; 32];

            eng.store(&mut got, eng.add(va, vb));
            emu.store(&mut want, emu.add(ea, eb));
            assert_eq!(got, want);

            eng.store(&mut got, eng.shift_insert_low(va, -128));
            emu.store(&mut want, emu.shift_insert_low(ea, -128));
            assert_eq!(got, want);

            assert_eq!(eng.any_gt(va, vb), emu.any_gt(ea, eb));
            assert_eq!(eng.reduce_max(va), emu.reduce_max(ea));
            assert_eq!(eng.extract_high(va), emu.extract_high(ea));
        }
    }

    #[test]
    fn lower_bound_ramp_on_hardware() {
        let Some(eng) = Avx2I32::new() else {
            return;
        };
        let v = eng.lower_bound(10, -5);
        let mut out = [0i32; 8];
        eng.store(&mut out, v);
        assert_eq!(out, [10, 5, 0, -5, -10, -15, -20, -25]);
    }
}
