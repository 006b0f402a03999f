//! Ablation: the `wgt_max_scan` module itself.
//!
//! DESIGN.md calls out the scan decomposition (Fig. 8's 3-step
//! striped orchestration) as a design choice; this bench compares it
//! against the O(m) sequential recurrence across column lengths and
//! engines, isolating the module the striped-scan strategy stands on.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};

use aalign_vec::detect::Isa;
use aalign_vec::scan::{wgt_max_scan_scalar, wgt_max_scan_striped, ScanParams};
use aalign_vec::{
    resolve, with_engine, DispatchElem, EngineFn, IsaSupport, ScoreElem, SimdEngine, StripedLayout,
};

fn input(m: usize) -> Vec<i32> {
    (0..m)
        .map(|i| ((i as i32).wrapping_mul(2_654_435_761u32 as i32) >> 20) % 100 - 30)
        .collect()
}

/// One `wgt_max_scan_striped` call, run through `with_engine` so it is
/// compiled with the engine's target features on and its intrinsics
/// inline — as in `aalign_core::kernel`.
struct ScanOnce<'a, T: ScoreElem> {
    layout: StripedLayout,
    input: &'a [T],
    out: &'a mut [T],
    params: ScanParams<T>,
}

impl<T: ScoreElem> EngineFn<T> for ScanOnce<'_, T> {
    type Out = ();

    #[inline(always)]
    fn call<E: SimdEngine<Elem = T>>(self, eng: E) {
        wgt_max_scan_striped(eng, self.layout, self.input, self.out, self.params);
    }
}

/// Bench the striped scan of `linear` on the engine each pin resolves
/// to on this host; rows are named after the engine that really ran.
fn striped_cases<T: DispatchElem>(
    group: &mut BenchmarkGroup<'_>,
    pins: &[Isa],
    linear: &[T],
    params: ScanParams<T>,
) {
    let m = linear.len();
    for &pin in pins {
        let backend = resolve(IsaSupport::detect(), Some(pin), T::BITS);
        let layout = StripedLayout::new(m, backend.lanes());
        let mut striped_in = Vec::new();
        layout.stripe(linear, T::NEG_INF, &mut striped_in);
        let mut striped_out = vec![T::ZERO; layout.padded_len()];
        let id = BenchmarkId::new(format!("striped-{}", backend.name()), m);
        group.bench_with_input(id, &m, |b, _| {
            b.iter(|| {
                with_engine(
                    backend,
                    ScanOnce {
                        layout,
                        input: &striped_in,
                        out: &mut striped_out,
                        params,
                    },
                );
            });
        });
    }
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
        let pins = [Isa::Emulated, Isa::Avx2, Isa::Avx512];
        striped_cases(&mut group, &pins, &linear, params);
    }
    group.finish();
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

        let narrow16: Vec<i16> = linear.iter().map(|&x| x.clamp(-100, 100) as i16).collect();
        striped_cases(&mut group, &[Isa::Avx512, Isa::Avx2], &narrow16, params);
        let narrow8: Vec<i8> = linear.iter().map(|&x| x.clamp(-100, 100) as i8).collect();
        let params8 = ScanParams {
            init: 0i8,
            open: -12,
            ext: -2,
        };
        striped_cases(&mut group, &[Isa::Avx2], &narrow8, params8);
    }
    group.finish();
}

criterion_group!(benches, bench_scan, bench_scan_short);
criterion_main!(benches);
