//! Ablation: the `wgt_max_scan` module itself.
//!
//! DESIGN.md calls out the scan decomposition (Fig. 8's 3-step
//! striped orchestration) as a design choice; this bench compares it
//! against the O(m) sequential recurrence across column lengths and
//! engines, isolating the module the striped-scan strategy stands on.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aalign_vec::scan::{wgt_max_scan_scalar, wgt_max_scan_striped, ScanParams};
use aalign_vec::{EmuEngine, SimdEngine, StripedLayout};

fn input(m: usize) -> Vec<i32> {
    (0..m)
        .map(|i| ((i as i32).wrapping_mul(2_654_435_761u32 as i32) >> 20) % 100 - 30)
        .collect()
}

fn engine_lanes<E: SimdEngine>(_: &E) -> usize {
    E::LANES
}

fn bench_scan(c: &mut Criterion) {
    let params = ScanParams {
        init: 0,
        open: -12,
        ext: -2,
    };
    let mut group = c.benchmark_group("ablation/wgt_max_scan");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for m in [256usize, 1024, 4096, 16384] {
        let linear = input(m);
        let mut out = vec![0i32; m];
        group.bench_with_input(BenchmarkId::new("scalar", m), &m, |b, _| {
            b.iter(|| wgt_max_scan_scalar(&linear, params, &mut out));
        });

        // Striped versions per engine.
        macro_rules! striped_case {
            ($name:literal, $eng:expr) => {{
                let eng = $eng;
                let layout = StripedLayout::new(m, engine_lanes(&eng));
                let mut striped_in = Vec::new();
                layout.stripe(&linear, i32::MIN / 4, &mut striped_in);
                let mut striped_out = vec![0i32; layout.padded_len()];
                group.bench_with_input(BenchmarkId::new($name, m), &m, |b, _| {
                    b.iter(|| {
                        wgt_max_scan_striped(eng, layout, &striped_in, &mut striped_out, params)
                    })
                });
            }};
        }
        striped_case!("striped-emu16", EmuEngine::<i32, 16>::new());
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(eng) = aalign_vec::avx2::Avx2I32::new() {
                striped_case!("striped-avx2", eng);
            }
            if let Some(eng) = aalign_vec::avx512::Avx512I32::new() {
                striped_case!("striped-avx512", eng);
            }
        }
    }
    group.finish();
}

/// One `wgt_max_scan_striped` call per engine, compiled with the
/// engine's target features on so its intrinsics inline — as in
/// `aalign_core::kernel`, and unlike a call from the plain closures
/// above.
#[cfg(target_arch = "x86_64")]
mod native {
    use aalign_vec::avx2::{Avx2I16, Avx2I8};
    use aalign_vec::avx512::Avx512I16;
    use aalign_vec::scan::{wgt_max_scan_striped, ScanParams};
    use aalign_vec::StripedLayout;

    macro_rules! wrapper {
        ($name:ident, $engine:ty, $elem:ty, $($feature:literal),+) => {
            /// # Safety
            /// The CPU must support the enabled features; holding the
            /// engine token proves it did when the token was built.
            $(#[target_feature(enable = $feature)])+
            pub unsafe fn $name(
                eng: $engine,
                layout: StripedLayout,
                input: &[$elem],
                out: &mut [$elem],
                p: ScanParams<$elem>,
            ) {
                wgt_max_scan_striped(eng, layout, input, out, p);
            }
        };
    }
    wrapper!(avx512_i16, Avx512I16, i16, "avx512f", "avx512bw");
    wrapper!(avx2_i16, Avx2I16, i16, "avx2");
    wrapper!(avx2_i8, Avx2I8, i8, "avx2");
}

/// The short-query geometry (`prot_short`'s Q60, `dna_i8`'s 48-nt
/// reads): one to four segments on the narrow engines, where a scan
/// call is all cross-lane work and its fixed cost is the whole cost.
fn bench_scan_short(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/wgt_max_scan_short");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for m in [48usize, 60] {
        let linear = input(m);
        let params = ScanParams {
            init: 0i16,
            open: -12,
            ext: -2,
        };
        let linear16: Vec<i16> = linear.iter().map(|&x| x as i16).collect();
        let mut out = vec![0i16; m];
        group.bench_with_input(BenchmarkId::new("scalar-i16", m), &m, |b, _| {
            b.iter(|| wgt_max_scan_scalar(&linear16, params, &mut out));
        });

        #[cfg(target_arch = "x86_64")]
        {
            macro_rules! native_case {
                ($name:literal, $ctor:expr, $call:path, $elem:ty) => {{
                    if let Some(eng) = $ctor {
                        let layout = StripedLayout::new(m, engine_lanes(&eng));
                        let narrow: Vec<$elem> = linear
                            .iter()
                            .map(|&x| x.clamp(-100, 100) as $elem)
                            .collect();
                        let p = ScanParams {
                            init: 0,
                            open: -12,
                            ext: -2,
                        };
                        let mut striped_in = Vec::new();
                        layout.stripe(&narrow, <$elem>::MIN, &mut striped_in);
                        let mut striped_out = vec![0; layout.padded_len()];
                        group.bench_with_input(BenchmarkId::new($name, m), &m, |b, _| {
                            // SAFETY: the engine token exists only if its
                            // constructor detected the wrapper's features.
                            b.iter(|| unsafe {
                                $call(eng, layout, &striped_in, &mut striped_out, p);
                            });
                        });
                    }
                }};
            }
            native_case!(
                "striped-avx512bw-i16x32",
                aalign_vec::avx512::Avx512I16::new(),
                native::avx512_i16,
                i16
            );
            native_case!(
                "striped-avx2-i16x16",
                aalign_vec::avx2::Avx2I16::new(),
                native::avx2_i16,
                i16
            );
            native_case!(
                "striped-avx2-i8x32",
                aalign_vec::avx2::Avx2I8::new(),
                native::avx2_i8,
                i8
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scan, bench_scan_short);
criterion_main!(benches);
