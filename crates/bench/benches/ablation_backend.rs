//! Ablation: backend ISA × element width on a fixed workload.
//!
//! Runs the same SW-affine striped-iterate alignment across every
//! engine the host offers (emulated, SSE4.1, AVX2, AVX-512) and the
//! practical element widths, quantifying what each ISA/width step is
//! worth — the portability claim of the vector-module design.
//!
//! All cases go through the `Aligner`, hence through
//! `aalign_vec::with_engine`, so hardware engines run inside their
//! `#[target_feature]` entry (the fast path a real caller gets). Rows
//! are named by the backend that ran: a pin falls back to emulation on
//! a host lacking the ISA.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, Level, PairSpec};
use aalign_core::{AlignConfig, AlignScratch, Aligner, GapModel, Strategy, WidthPolicy};
use aalign_vec::detect::Isa;

fn bench_backends(c: &mut Criterion) {
    let mut rng = seeded_rng(77);
    let query = named_query(&mut rng, 500);
    let subject = PairSpec::new(Level::Md, Level::Md)
        .generate(&mut rng, &query)
        .subject;
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);

    let mut group = c.benchmark_group("ablation/backend");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    let cases = [
        (Isa::Emulated, WidthPolicy::Fixed32),
        (Isa::Emulated, WidthPolicy::Fixed16),
        (Isa::Sse41, WidthPolicy::Fixed32),
        (Isa::Sse41, WidthPolicy::Fixed16),
        (Isa::Avx2, WidthPolicy::Fixed32),
        (Isa::Avx2, WidthPolicy::Fixed16),
        (Isa::Avx2, WidthPolicy::Fixed8),
        (Isa::Avx512, WidthPolicy::Fixed32),
        (Isa::Avx512, WidthPolicy::Fixed16),
    ];
    for (isa, width) in cases {
        let al = Aligner::new(cfg.clone())
            .with_strategy(Strategy::StripedIterate)
            .with_isa(isa)
            .with_width(width);
        let pq = al.prepare(&query).unwrap();
        let mut scratch = AlignScratch::new();
        let actual = al
            .align_prepared(&pq, &subject, &mut scratch)
            .unwrap()
            .backend;
        group.bench_function(format!("pin {} -> {actual}", isa.name()), |b| {
            b.iter(|| {
                al.align_prepared(&pq, &subject, &mut scratch)
                    .unwrap()
                    .score
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
