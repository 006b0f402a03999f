//! Property tests: every hardware engine is observationally identical
//! to the emulated oracle, and the striped weighted max-scan equals
//! its scalar recurrence on arbitrary inputs and geometries.

use aalign_vec::detect::Isa;
use aalign_vec::scan::{wgt_max_scan_naive, wgt_max_scan_scalar, wgt_max_scan_striped, ScanParams};
use aalign_vec::{
    resolve, with_engine, Backend, EmuEngine, EngineFn, IsaSupport, ScoreElem, SimdEngine,
    StripedLayout,
};
use proptest::prelude::*;

/// Every engine this host can run `bits`-wide lanes on: the rows
/// `resolve` gives it under each pin, and those of a host with no SIMD
/// at all (the portable shapes).
fn host_rows(bits: u32) -> Vec<Backend> {
    let pins = [
        None,
        Some(Isa::Emulated),
        Some(Isa::Sse41),
        Some(Isa::Avx2),
        Some(Isa::Avx512),
    ];
    let mut rows = Vec::new();
    for sup in [IsaSupport::detect(), IsaSupport::NONE] {
        for pin in pins {
            let row = resolve(sup, pin, bits);
            if !rows.contains(&row) {
                rows.push(row);
            }
        }
    }
    rows
}

/// Compare one binary op across engines for all lanes.
macro_rules! cross_check {
    ($eng:expr, $emu:expr, $a:expr, $b:expr, $lanes:expr) => {{
        let (eng, emu) = ($eng, $emu);
        let (va, vb) = (eng.load(&$a), eng.load(&$b));
        let (ea, eb) = (emu.load(&$a), emu.load(&$b));
        let mut got = vec![0; $lanes];
        let mut want = vec![0; $lanes];

        eng.store(&mut got, eng.add(va, vb));
        emu.store(&mut want, emu.add(ea, eb));
        prop_assert_eq!(&got, &want, "add");

        eng.store(&mut got, eng.max(va, vb));
        emu.store(&mut want, emu.max(ea, eb));
        prop_assert_eq!(&got, &want, "max");

        prop_assert_eq!(eng.any_gt(va, vb), emu.any_gt(ea, eb), "any_gt");
        prop_assert_eq!(eng.reduce_max(va), emu.reduce_max(ea), "reduce_max");
        prop_assert_eq!(eng.extract_high(va), emu.extract_high(ea), "extract_high");

        eng.store(&mut got, eng.shift_insert_low(va, $b[0]));
        emu.store(&mut want, emu.shift_insert_low(ea, $b[0]));
        prop_assert_eq!(&got, &want, "shift_insert_low");

        eng.store(&mut got, eng.weighted_scan_max(va, $b[0] % 8 - 7));
        emu.store(&mut want, emu.weighted_scan_max(ea, $b[0] % 8 - 7));
        prop_assert_eq!(&got, &want, "weighted_scan_max");

        // Every distance, not just the powers of two the scans use,
        // with an arbitrary fill.
        for d in 0..=$lanes + 1 {
            eng.store(&mut got, eng.shift_insert_low_n(va, d, $b[1]));
            emu.store(&mut want, emu.shift_insert_low_n(ea, d, $b[1]));
            prop_assert_eq!(&got, &want, "shift_insert_low_n d={}", d);
        }

        // `set_vector` against its definition: `l` iterated sat_adds,
        // including (init, step) pairs whose ramp saturates.
        let (init, step) = ($a[0], $b[2]);
        eng.store(&mut got, eng.lower_bound(init, step));
        prop_assert_eq!(
            &got,
            &iterated_lower_bound(init, step, $lanes),
            "lower_bound"
        );
        eng.store(&mut got, eng.ramp(step));
        prop_assert_eq!(
            &got,
            &iterated_lower_bound(ScoreElem::ZERO, step, $lanes),
            "ramp"
        );
    }};
}

/// The definition `lower_bound` must reproduce bit for bit.
fn iterated_lower_bound<T: ScoreElem>(init: T, step: T, lanes: usize) -> Vec<T> {
    let mut acc = init;
    (0..lanes)
        .map(|_| {
            let lane = acc;
            acc = acc.sat_add(step);
            lane
        })
        .collect()
}

/// All 256×256 (init, step) pairs on byte lanes: the domain where the
/// ramp saturates for most steps and both fallback conditions fire.
#[test]
fn lower_bound_i8_is_exhaustively_the_iterated_definition() {
    struct Check(Backend);
    impl EngineFn<i8> for Check {
        type Out = ();

        #[inline(always)]
        fn call<E: SimdEngine<Elem = i8>>(self, eng: E) {
            let mut got = vec![0i8; E::LANES];
            for init in i8::MIN..=i8::MAX {
                for step in i8::MIN..=i8::MAX {
                    eng.store(&mut got, eng.lower_bound(init, step));
                    assert_eq!(
                        got,
                        iterated_lower_bound(init, step, E::LANES),
                        "{} init={init} step={step}",
                        self.0.name()
                    );
                }
            }
        }
    }
    for row in host_rows(8) {
        with_engine(row, Check(row));
    }
}

/// `lookup32` of the first `E::LANES` indices, through the door.
struct Lookup<'a, T> {
    table: &'a [T],
    idx: &'a [T],
}

impl<T: ScoreElem> EngineFn<T> for Lookup<'_, T> {
    type Out = (Vec<T>, bool);

    #[inline(always)]
    fn call<E: SimdEngine<Elem = T>>(self, eng: E) -> (Vec<T>, bool) {
        let mut out = vec![T::ZERO; E::LANES];
        eng.store(&mut out, eng.lookup32(self.table, eng.load(self.idx)));
        (out, E::NATIVE_LOOKUP)
    }
}

/// Every row this host runs `T`-wide lanes on reads a table exactly as
/// the definition (`out[l] = table[idx[l]]`) and the portable engine of
/// its shape do; returns how many of the rows did it with shuffles.
fn lookup_matches_on_every_row<T: aalign_vec::DispatchElem>(
    table: &[T],
    idx: &[u8],
) -> Result<usize, TestCaseError> {
    let idx: Vec<T> = idx.iter().map(|&i| T::from_i32(i32::from(i))).collect();
    let mut native = 0;
    for row in host_rows(T::BITS) {
        let want: Vec<T> = idx[..row.lanes()]
            .iter()
            .map(|i| table[i.to_i32() as usize])
            .collect();
        let (got, shuffled) = with_engine(row, Lookup { table, idx: &idx });
        prop_assert_eq!(&got, &want, "{}", row.name());
        // A hardware row against the portable engine of its shape
        // (what its pin resolves to on a host without the ISA).
        if row.isa() != Isa::Emulated {
            let portable = resolve(IsaSupport::NONE, Some(row.isa()), T::BITS);
            prop_assert_eq!(portable.lanes(), row.lanes());
            let (emulated, _) = with_engine(portable, Lookup { table, idx: &idx });
            prop_assert_eq!(
                &got,
                &emulated,
                "{} against {}",
                row.name(),
                portable.name()
            );
        }
        native += usize::from(shuffled);
    }
    Ok(native)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lane kernel's primitive, all three widths, every row —
    /// hardware shuffles and the portable gather alike.
    #[test]
    fn lookup32_matches_oracle_on_every_row(
        table8 in proptest::collection::vec(any::<i8>(), 32),
        table16 in proptest::collection::vec(any::<i16>(), 32),
        table32 in proptest::collection::vec(any::<i32>(), 32),
        idx in proptest::collection::vec(0u8..32, 64),
    ) {
        let sup = IsaSupport::detect();
        let native8 = lookup_matches_on_every_row(&table8, &idx)?;
        let native16 = lookup_matches_on_every_row(&table16, &idx)?;
        let native32 = lookup_matches_on_every_row(&table32, &idx)?;
        // The rows that claim shuffles: avx2/i8x32; avx2/i16x16 and
        // avx512/i16x32; avx512/i32x16.
        prop_assert_eq!(native8, usize::from(sup.avx2));
        prop_assert_eq!(
            native16,
            usize::from(sup.avx2) + usize::from(sup.avx512f && sup.avx512bw)
        );
        prop_assert_eq!(native32, usize::from(sup.avx512f));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_i32_matches_oracle(
        a in proptest::collection::vec(-100_000i32..100_000, 8),
        b in proptest::collection::vec(-100_000i32..100_000, 8),
    ) {
        if let Some(eng) = aalign_vec::avx2::Avx2I32::new() {
            cross_check!(eng, EmuEngine::<i32, 8>::new(), a, b, 8);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_i16_matches_oracle(
        a in proptest::collection::vec(any::<i16>(), 16),
        b in proptest::collection::vec(any::<i16>(), 16),
    ) {
        if let Some(eng) = aalign_vec::avx2::Avx2I16::new() {
            cross_check!(eng, EmuEngine::<i16, 16>::new(), a, b, 16);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_i8_matches_oracle(
        a in proptest::collection::vec(any::<i8>(), 32),
        b in proptest::collection::vec(any::<i8>(), 32),
    ) {
        if let Some(eng) = aalign_vec::avx2::Avx2I8::new() {
            cross_check!(eng, EmuEngine::<i8, 32>::new(), a, b, 32);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_i32_matches_oracle(
        a in proptest::collection::vec(-100_000i32..100_000, 16),
        b in proptest::collection::vec(-100_000i32..100_000, 16),
    ) {
        if let Some(eng) = aalign_vec::avx512::Avx512I32::new() {
            cross_check!(eng, EmuEngine::<i32, 16>::new(), a, b, 16);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512bw_i16_matches_oracle(
        a in proptest::collection::vec(any::<i16>(), 32),
        b in proptest::collection::vec(any::<i16>(), 32),
    ) {
        if let Some(eng) = aalign_vec::avx512::Avx512I16::new() {
            cross_check!(eng, EmuEngine::<i16, 32>::new(), a, b, 32);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse41_i32_matches_oracle(
        a in proptest::collection::vec(-100_000i32..100_000, 4),
        b in proptest::collection::vec(-100_000i32..100_000, 4),
    ) {
        if let Some(eng) = aalign_vec::sse41::Sse41I32::new() {
            cross_check!(eng, EmuEngine::<i32, 4>::new(), a, b, 4);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse41_i16_matches_oracle(
        a in proptest::collection::vec(any::<i16>(), 8),
        b in proptest::collection::vec(any::<i16>(), 8),
    ) {
        if let Some(eng) = aalign_vec::sse41::Sse41I16::new() {
            cross_check!(eng, EmuEngine::<i16, 8>::new(), a, b, 8);
        }
    }

    /// Scalar recurrence equals the O(m²) definition.
    #[test]
    fn scan_scalar_equals_naive(
        input in proptest::collection::vec(-1000i32..1000, 0..48),
        init in -1000i32..1000,
        open in -40i32..0,
        ext in -10i32..0,
    ) {
        let p = ScanParams { init, open, ext };
        let mut a = vec![0; input.len()];
        let mut b = vec![0; input.len()];
        wgt_max_scan_naive(&input, p, &mut a);
        wgt_max_scan_scalar(&input, p, &mut b);
        prop_assert_eq!(a, b);
    }

    /// Striped scan equals the scalar recurrence on every engine and
    /// geometry (including padding).
    #[test]
    fn scan_striped_equals_scalar(
        input in proptest::collection::vec(-100_000i32..100_000, 1..200),
        init in -1000i32..1000,
        open in -40i32..0,
        ext in -10i32..-1,
    ) {
        let p = ScanParams { init, open, ext };
        let m = input.len();
        let mut expect = vec![0; m];
        wgt_max_scan_scalar(&input, p, &mut expect);

        macro_rules! check_engine {
            ($eng:expr, $lanes:expr) => {{
                let eng = $eng;
                let layout = StripedLayout::new(m, $lanes);
                let mut sin = Vec::new();
                layout.stripe(&input, <i32 as aalign_vec::ScoreElem>::NEG_INF, &mut sin);
                let mut sout = vec![0; layout.padded_len()];
                wgt_max_scan_striped(eng, layout, &sin, &mut sout, p);
                for q in 0..m {
                    prop_assert_eq!(sout[layout.slot_of(q)], expect[q], "q={} m={}", q, m);
                }
            }};
        }
        check_engine!(EmuEngine::<i32, 4>::new(), 4);
        check_engine!(EmuEngine::<i32, 16>::new(), 16);
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(eng) = aalign_vec::avx2::Avx2I32::new() {
                check_engine!(eng, 8);
            }
            if let Some(eng) = aalign_vec::avx512::Avx512I32::new() {
                check_engine!(eng, 16);
            }
        }
    }

    /// The narrow engines at the geometry `prot_short` and `dna_i8`
    /// run: one to three segments, full-range lane values (the scan
    /// only ever adds penalties ≤ 0, so floor saturation is exact).
    #[test]
    fn scan_striped_equals_scalar_narrow(
        raw in proptest::collection::vec(any::<i16>(), 1..=96),
        init in any::<i16>(),
        open in -40i16..=0,
        ext in -10i16..=-1,
    ) {
        struct Check<'a> {
            row: Backend,
            raw: &'a [i16],
            params: (i16, i16, i16),
        }
        impl<T: ScoreElem> EngineFn<T> for Check<'_> {
            type Out = Result<(), TestCaseError>;

            #[inline(always)]
            fn call<E: SimdEngine<Elem = T>>(self, eng: E) -> Self::Out {
                let narrow = |x: i16| {
                    let x = i32::from(x);
                    T::from_i32_sat(if T::BITS == 8 { x >> 8 } else { x })
                };
                let input: Vec<T> = self.raw.iter().take(3 * E::LANES).map(|&x| narrow(x)).collect();
                let m = input.len();
                let (init, open, ext) = self.params;
                let p = ScanParams {
                    init: narrow(init),
                    open: T::from_i32_sat(open.into()),
                    ext: T::from_i32_sat(ext.into()),
                };
                let mut expect = vec![T::ZERO; m];
                wgt_max_scan_scalar(&input, p, &mut expect);

                let layout = StripedLayout::new(m, E::LANES);
                let mut sin = Vec::new();
                layout.stripe(&input, T::NEG_INF, &mut sin);
                let mut sout = vec![T::ZERO; layout.padded_len()];
                wgt_max_scan_striped(eng, layout, &sin, &mut sout, p);
                for q in 0..m {
                    prop_assert_eq!(
                        sout[layout.slot_of(q)], expect[q],
                        "{} q={} m={}", self.row.name(), q, m
                    );
                }
                Ok(())
            }
        }
        let params = (init, open, ext);
        for row in host_rows(16) {
            with_engine::<i16, _>(row, Check { row, raw: &raw, params })?;
        }
        for row in host_rows(8) {
            with_engine::<i8, _>(row, Check { row, raw: &raw, params })?;
        }
    }

    /// Striped layout round-trips arbitrary data for arbitrary shapes.
    #[test]
    fn layout_round_trip(
        data in proptest::collection::vec(any::<i32>(), 1..300),
        lanes_pow in 2u32..7,
    ) {
        let lanes = 1usize << lanes_pow;
        let layout = StripedLayout::new(data.len(), lanes);
        let mut striped = Vec::new();
        layout.stripe(&data, 0, &mut striped);
        prop_assert_eq!(layout.unstripe(&striped), data);
    }
}
