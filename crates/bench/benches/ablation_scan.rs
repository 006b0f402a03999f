//! Ablation: the `wgt_max_scan` module itself.
//!
//! DESIGN.md calls out the scan decomposition (Fig. 8's 3-step
//! striped orchestration) as a design choice; this bench compares it
//! against the O(m) sequential recurrence across column lengths and
//! engines, isolating the module the striped-scan strategy stands on.
//!
//! A scan call takes 10–100 ns, so each sample times a fixed loop of
//! calls; a row is the minimum over samples, in ns per call.
//!
//! Usage: `cargo bench -p aalign-bench --bench ablation_scan`

use std::hint::black_box;

use aalign_bench::harness::{ns_per_call, print_banner, Table};
use aalign_vec::detect::Isa;
use aalign_vec::scan::{wgt_max_scan_scalar, wgt_max_scan_striped, ScanParams};
use aalign_vec::{
    resolve, with_engine, DispatchElem, EngineFn, IsaSupport, ScoreElem, SimdEngine, StripedLayout,
};

const WARMUP: usize = 3;
const REPS: usize = 20;

/// Calls per sample: about four million scanned elements, a
/// millisecond or so at every column length.
fn calls(m: usize) -> usize {
    (1 << 22) / m
}

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

fn row(table: &mut Table, name: String, m: usize, ns: f64) {
    table.row(vec![
        name,
        m.to_string(),
        format!("{ns:.1}"),
        format!("{:.3}", ns / m as f64),
    ]);
}

fn scalar_row<T: ScoreElem>(table: &mut Table, name: &str, linear: &[T], params: ScanParams<T>) {
    let m = linear.len();
    let mut out = vec![T::ZERO; m];
    let ns = ns_per_call(
        || wgt_max_scan_scalar(black_box(linear), params, black_box(&mut out[..])),
        calls(m),
        WARMUP,
        REPS,
    );
    row(table, name.to_string(), m, ns);
}

/// Time the striped scan of `linear` on the engine each pin resolves
/// to on this host; rows are named after the engine that really ran.
fn striped_rows<T: DispatchElem>(
    table: &mut Table,
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
        let ns = ns_per_call(
            || {
                with_engine(
                    backend,
                    ScanOnce {
                        layout,
                        input: black_box(&striped_in),
                        out: black_box(&mut striped_out),
                        params,
                    },
                );
            },
            calls(m),
            WARMUP,
            REPS,
        );
        row(table, format!("striped-{}", backend.name()), m, ns);
    }
}

fn main() {
    print_banner("ablation_scan — wgt_max_scan, striped vs scalar (min-of-k, ns per call)");

    println!("## wgt_max_scan (i32)\n");
    let mut table = Table::new(vec!["row", "m", "ns/call", "ns/elem"]);
    let params = ScanParams {
        init: 0,
        open: -12,
        ext: -2,
    };
    for m in [256usize, 1024, 4096, 16384] {
        let linear = input(m);
        scalar_row(&mut table, "scalar", &linear, params);
        let pins = [Isa::Emulated, Isa::Avx2, Isa::Avx512];
        striped_rows(&mut table, &pins, &linear, params);
    }
    println!("{}", table.render());

    // The short-query geometry (`prot_short`'s Q60, `dna_i8`'s 48-nt
    // reads): one to four segments on the narrow engines, where a scan
    // call is all cross-lane work and its fixed cost is the whole cost.
    println!("## wgt_max_scan_short (i16, i8)\n");
    let mut table = Table::new(vec!["row", "m", "ns/call", "ns/elem"]);
    for m in [48usize, 60] {
        let linear = input(m);
        let params = ScanParams {
            init: 0i16,
            open: -12,
            ext: -2,
        };
        let linear16: Vec<i16> = linear.iter().map(|&x| x as i16).collect();
        scalar_row(&mut table, "scalar-i16", &linear16, params);

        let narrow16: Vec<i16> = linear.iter().map(|&x| x.clamp(-100, 100) as i16).collect();
        striped_rows(&mut table, &[Isa::Avx512, Isa::Avx2], &narrow16, params);
        let narrow8: Vec<i8> = linear.iter().map(|&x| x.clamp(-100, 100) as i8).collect();
        let params8 = ScanParams {
            init: 0i8,
            open: -12,
            ext: -2,
        };
        striped_rows(&mut table, &[Isa::Avx2], &narrow8, params8);
    }
    println!("{}", table.render());
}
