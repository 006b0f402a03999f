//! The engine table: which engines exist, which one runs for a
//! requested (ISA, element width) on a given host, and the one door
//! through which a generic computation reaches it.
//!
//! The paper writes its kernels once against the vector modules and
//! re-links them per platform (Sec. V-C); this module is that link
//! step. [`resolve`] picks a [`Backend`] — a row of the table below —
//! and [`with_engine`] runs an [`EngineFn`] on that row's engine:
//! it constructs the engine token, enters a `#[target_feature]`
//! context for the row's feature set, and calls the computation there,
//! so everything `#[inline(always)]` beneath [`EngineFn::call`]
//! compiles with the engine's instructions available. Called from a
//! plain function instead, the same generic code keeps every intrinsic
//! behind a call and runs 20–40× slower — which is why this is the
//! only place an engine type is named outside its own file and tests.
//!
//! Adding an engine is one row of `engine_table!` below; nothing that
//! calls [`with_engine`] changes.

#![allow(unsafe_code)]

use crate::detect::{Isa, IsaSupport};
use crate::elem::ScoreElem;
use crate::emu::EmuEngine;
use crate::engine::SimdEngine;

/// A row of the engine table: the engine that runs `bits`-wide lanes
/// on `isa`, or — for [`Isa::Emulated`] — the portable engine with
/// `lanes` lanes. Only [`resolve`] makes one, so every value names an
/// engine [`with_engine`] has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    isa: Isa,
    bits: u32,
    lanes: usize,
}

impl Backend {
    /// The ISA the engine is built on.
    pub fn isa(self) -> Isa {
        self.isa
    }

    /// Element width in bits (8, 16 or 32).
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Lanes per vector.
    pub fn lanes(self) -> usize {
        self.lanes
    }

    /// The engine's name, e.g. `"avx2/i16x16"` — the one spelling
    /// every report, trace header and test uses.
    pub fn name(self) -> String {
        format!("{}/i{}x{}", self.isa.name(), self.bits, self.lanes)
    }
}

/// A computation generic over the engine it runs on, for lanes of
/// type `T`: what [`with_engine`] instantiates once per table row.
///
/// Implementations must mark [`call`](Self::call) — and everything
/// beneath it that touches vectors — `#[inline(always)]`: the body has
/// to be compiled *inside* the `#[target_feature]` entry, and a
/// missing forced inline is a 20–40× slowdown no test notices.
pub trait EngineFn<T: ScoreElem> {
    /// What the computation returns.
    type Out;

    /// Run on `eng`.
    fn call<E: SimdEngine<Elem = T>>(self, eng: E) -> Self::Out;
}

/// The feature sets hardware engines are compiled under, each a module
/// with the same two items: `present` (does a host have it) and, on
/// x86-64, `enter` (run an [`EngineFn`] with it switched on).
macro_rules! feature_set {
    ($name:ident: $($feature:literal),+ => |$sup:ident| $present:expr) => {
        mod $name {
            use super::*;

            pub(super) fn present($sup: IsaSupport) -> bool {
                $present
            }

            #[cfg(target_arch = "x86_64")]
            $(#[target_feature(enable = $feature)])+
            /// # Safety
            /// The caller holds an engine token whose constructor
            /// detected these features.
            pub(super) unsafe fn enter<T, E, F>(eng: E, f: F) -> F::Out
            where
                T: ScoreElem,
                E: SimdEngine<Elem = T>,
                F: EngineFn<T>,
            {
                f.call(eng)
            }
        }
    };
}

feature_set!(sse41: "sse4.1" => |sup| sup.sse41);
feature_set!(avx2: "avx2" => |sup| sup.avx2);
feature_set!(avx512f: "avx512f" => |sup| sup.avx512f);
feature_set!(avx512bw: "avx512f", "avx512bw" => |sup| sup.avx512f && sup.avx512bw);

/// What [`resolve`] needs to know of a hardware row.
struct HardwareRow {
    isa: Isa,
    bits: u32,
    present: fn(IsaSupport) -> bool,
}

/// An element type the table has engines for; [`with_engine`] is its
/// one method under a friendlier name.
pub trait DispatchElem: ScoreElem {
    #[doc(hidden)]
    fn with_engine<F: EngineFn<Self>>(backend: Backend, f: F) -> F::Out;
}

/// Per element type: the lane counts the portable engine stands in
/// with — one per register width, so a pinned ISA keeps its geometry
/// on hosts that lack it — and the hardware engines (`Isa: engine
/// type, feature set`).
macro_rules! engine_table {
    ($(
        $elem:ty {
            emu: $( $lanes:literal ),+;
            $( $isa:ident: $engine:ty, $features:ident; )*
        }
    )+) => {
        const HARDWARE: &[HardwareRow] = &[
            $($( HardwareRow {
                isa: Isa::$isa,
                bits: <$elem as ScoreElem>::BITS,
                present: $features::present,
            }, )*)+
        ];

        $(
            impl DispatchElem for $elem {
                #[inline]
                fn with_engine<F: EngineFn<Self>>(backend: Backend, f: F) -> F::Out {
                    assert_eq!(backend.bits, <$elem as ScoreElem>::BITS, "{}", backend.name());
                    #[cfg(target_arch = "x86_64")]
                    match backend.isa {
                        $(
                            Isa::$isa => {
                                if let Some(eng) = <$engine>::new() {
                                    // SAFETY: `eng` was constructed on the line above,
                                    // and its constructor detects what `enter` enables.
                                    return unsafe { $features::enter(eng, f) };
                                }
                            }
                        )*
                        _ => {}
                    }
                    match backend.lanes {
                        $( $lanes => f.call(EmuEngine::<$elem, $lanes>::new()), )+
                        _ => unreachable!("no engine row for {}", backend.name()),
                    }
                }
            }
        )+
    };
}

engine_table! {
    i32 {
        emu: 4, 8, 16;
        Avx512: crate::avx512::Avx512I32, avx512f;
        Avx2: crate::avx2::Avx2I32, avx2;
        Sse41: crate::sse41::Sse41I32, sse41;
    }
    i16 {
        emu: 8, 16, 32;
        Avx512: crate::avx512::Avx512I16, avx512bw;
        Avx2: crate::avx2::Avx2I16, avx2;
        Sse41: crate::sse41::Sse41I16, sse41;
    }
    i8 {
        emu: 16, 32, 64;
        Avx2: crate::avx2::Avx2I8, avx2;
    }
}

/// The element widths the table has engines for, narrowest first.
pub const WIDTHS: [u32; 3] = [8, 16, 32];

/// The engine that runs `bits`-wide lanes on a host with `sup`, given
/// an optional ISA pin. Pure: the same inputs name the same row on any
/// machine.
///
/// A pinned ISA gets its hardware engine when the table has one for
/// the width and the host has its features; otherwise the portable
/// engine *with the pinned register shape* (so "MIC" experiments keep
/// 512-bit geometry on hosts without AVX-512). [`Isa::Emulated`] pins
/// the 512-bit shape. Unpinned, the widest hardware engine present
/// wins, and a host with none emulates 256 bits.
///
/// # Panics
/// Panics if `bits` is not 8, 16 or 32.
pub fn resolve(sup: IsaSupport, pin: Option<Isa>, bits: u32) -> Backend {
    assert!(
        WIDTHS.contains(&bits),
        "unsupported element width: {bits} bits"
    );
    let hardware = |isa: Isa| {
        HARDWARE
            .iter()
            .any(|row| row.isa == isa && row.bits == bits && (row.present)(sup))
            .then(|| Backend {
                isa,
                bits,
                lanes: (isa.bits() / bits) as usize,
            })
    };
    let emulated = |shape_bits: u32| Backend {
        isa: Isa::Emulated,
        bits,
        lanes: (shape_bits / bits) as usize,
    };
    match pin {
        Some(Isa::Emulated) => emulated(512),
        Some(isa) => hardware(isa).unwrap_or_else(|| emulated(isa.bits())),
        None => [Isa::Avx512, Isa::Avx2, Isa::Sse41]
            .into_iter()
            .find_map(hardware)
            .unwrap_or_else(|| emulated(256)),
    }
}

/// Run `f` on `backend`'s engine, inside the `#[target_feature]`
/// context of the engine's feature set.
///
/// Safe for any `backend`: a hardware row is entered only through the
/// engine token its constructor hands out after detecting the
/// features; when that fails (the row was resolved for another host)
/// the portable engine of the same shape runs instead.
///
/// # Panics
/// Panics if `backend` is not a row for `T`-wide lanes.
#[inline]
pub fn with_engine<T: DispatchElem, F: EngineFn<T>>(backend: Backend, f: F) -> F::Out {
    T::with_engine(backend, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINS: [Option<Isa>; 5] = [
        None,
        Some(Isa::Emulated),
        Some(Isa::Sse41),
        Some(Isa::Avx2),
        Some(Isa::Avx512),
    ];

    fn support(sse41: bool, avx2: bool, avx512f: bool, avx512bw: bool) -> IsaSupport {
        IsaSupport {
            sse41,
            avx2,
            avx512f,
            avx512bw,
        }
    }

    /// All 16 flag combinations, real hosts or not: `resolve` is pure,
    /// so rows no CI machine has are still checked.
    #[test]
    fn resolve_returns_hardware_only_with_its_features_and_keeps_the_shape() {
        for mask in 0..16u8 {
            let sup = support(mask & 1 != 0, mask & 2 != 0, mask & 4 != 0, mask & 8 != 0);
            for pin in PINS {
                for bits in WIDTHS {
                    let b = resolve(sup, pin, bits);
                    let ctx = format!("{sup:?} {pin:?} i{bits} -> {}", b.name());
                    assert_eq!(b.bits(), bits, "{ctx}");
                    let shape = b.lanes() as u32 * bits;
                    if b.isa() == Isa::Emulated {
                        let want = match pin {
                            None => 256,
                            Some(Isa::Emulated) => 512,
                            Some(isa) => isa.bits(),
                        };
                        assert_eq!(shape, want, "{ctx}");
                    } else {
                        let has = match (b.isa(), bits) {
                            (Isa::Sse41, 16 | 32) => sup.sse41,
                            (Isa::Avx2, _) => sup.avx2,
                            (Isa::Avx512, 32) => sup.avx512f,
                            (Isa::Avx512, 16) => sup.avx512f && sup.avx512bw,
                            _ => false,
                        };
                        assert!(has, "{ctx}: no such engine on this host");
                        assert_eq!(shape, b.isa().bits(), "{ctx}");
                        assert!(pin.is_none() || pin == Some(b.isa()), "{ctx}");
                    }
                }
            }
        }
    }

    /// The names every report pins, for the five shapes real hosts
    /// have; columns are i8, i16, i32, rows follow `PINS`.
    #[test]
    fn resolve_names_are_pinned_for_real_host_shapes() {
        const EMU128: [&str; 3] = ["emu/i8x16", "emu/i16x8", "emu/i32x4"];
        const EMU256: [&str; 3] = ["emu/i8x32", "emu/i16x16", "emu/i32x8"];
        const EMU512: [&str; 3] = ["emu/i8x64", "emu/i16x32", "emu/i32x16"];
        const SSE41: [&str; 3] = ["emu/i8x16", "sse4.1/i16x8", "sse4.1/i32x4"];
        const AVX2: [&str; 3] = ["avx2/i8x32", "avx2/i16x16", "avx2/i32x8"];
        let hosts = [
            (IsaSupport::NONE, [EMU256, EMU512, EMU128, EMU256, EMU512]),
            (
                support(true, false, false, false),
                [
                    ["emu/i8x32", "sse4.1/i16x8", "sse4.1/i32x4"],
                    EMU512,
                    SSE41,
                    EMU256,
                    EMU512,
                ],
            ),
            (
                support(true, true, false, false),
                [AVX2, EMU512, SSE41, AVX2, EMU512],
            ),
            (
                support(true, true, true, false),
                [
                    ["avx2/i8x32", "avx2/i16x16", "avx512/i32x16"],
                    EMU512,
                    SSE41,
                    AVX2,
                    ["emu/i8x64", "emu/i16x32", "avx512/i32x16"],
                ],
            ),
            (
                support(true, true, true, true),
                [
                    ["avx2/i8x32", "avx512/i16x32", "avx512/i32x16"],
                    EMU512,
                    SSE41,
                    AVX2,
                    ["emu/i8x64", "avx512/i16x32", "avx512/i32x16"],
                ],
            ),
        ];
        for (sup, table) in hosts {
            for (pin, want) in PINS.into_iter().zip(table) {
                let got = [8, 16, 32].map(|bits| resolve(sup, pin, bits).name());
                assert_eq!(got, want, "{sup:?} {pin:?}");
            }
        }
    }

    /// Lane count and one cross-lane result, enough to tell which
    /// engine the door opened.
    struct Probe;

    impl<T: ScoreElem> EngineFn<T> for Probe {
        type Out = (usize, i32);

        #[inline(always)]
        fn call<E: SimdEngine<Elem = T>>(self, eng: E) -> (usize, i32) {
            let v = eng.shift_insert_low(eng.splat(T::from_i32(-7)), T::from_i32(5));
            let top = eng.shift_insert_low_n(v, E::LANES - 1, T::from_i32(-9));
            (
                E::LANES,
                eng.reduce_max(v).to_i32() * 100 + eng.extract_high(top).to_i32(),
            )
        }
    }

    /// Every row this host can run — its own and the no-SIMD host's —
    /// opens the engine the row names and computes what the portable
    /// engine of that shape computes.
    fn rows_open_their_engine<T: DispatchElem>() {
        for sup in [IsaSupport::detect(), IsaSupport::NONE] {
            for pin in PINS {
                let backend = resolve(sup, pin, T::BITS);
                let emulated = Backend {
                    isa: Isa::Emulated,
                    ..backend
                };
                let got = with_engine::<T, _>(backend, Probe);
                assert_eq!(got, (backend.lanes(), 505), "{}", backend.name());
                assert_eq!(got, with_engine::<T, _>(emulated, Probe));
            }
        }
    }

    #[test]
    fn i32_rows_open_their_engine() {
        rows_open_their_engine::<i32>();
    }

    #[test]
    fn i16_rows_open_their_engine() {
        rows_open_their_engine::<i16>();
    }

    #[test]
    fn i8_rows_open_their_engine() {
        rows_open_their_engine::<i8>();
    }

    #[test]
    #[should_panic(expected = "avx2/i16x16")]
    fn a_row_of_another_width_is_refused() {
        let backend = resolve(support(true, true, false, false), None, 16);
        with_engine::<i32, _>(backend, Probe);
    }
}
