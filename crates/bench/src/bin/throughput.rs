//! Quick GCUPS throughput report across backends and strategies.
//!
//! Not a paper figure — a development tool for eyeballing the
//! dispatcher's fast paths on the current host.
//!
//! Usage: `cargo run --release -p aalign-bench --bin throughput`

use aalign_bench::harness::{gcups, print_banner, time_min, Table};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng};
use aalign_bio::{Sequence, SubstMatrix};
use aalign_core::{AlignConfig, AlignScratch, Aligner, GapModel, Strategy, WidthPolicy};
use aalign_vec::detect::Isa;
use rand::RngExt;

fn main() {
    print_banner("throughput — SW-affine GCUPS per backend/strategy");
    let mut rng = seeded_rng(1);
    let q = named_query(&mut rng, 1000);
    let s = named_query(&mut rng, 1000);
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);

    let mut table = Table::new(vec!["backend", "strategy", "GCUPS"]);

    // Sequential reference.
    let seq = Aligner::new(cfg.clone()).with_strategy(Strategy::Sequential);
    let t = time_min(
        || {
            let _ = seq.align(&q, &s).unwrap();
        },
        1,
        3,
    );
    let g = gcups(1000, 1000, t);
    table.row(vec![
        "scalar".to_string(),
        "seq".to_string(),
        format!("{g:.2}"),
    ]);

    for (isa, width) in [
        (Isa::Emulated, WidthPolicy::Fixed32),
        (Isa::Sse41, WidthPolicy::Fixed32),
        (Isa::Avx2, WidthPolicy::Fixed32),
        (Isa::Avx2, WidthPolicy::Fixed16),
        (Isa::Avx512, WidthPolicy::Fixed32),
        (Isa::Avx512, WidthPolicy::Fixed16),
    ] {
        for strat in [Strategy::StripedIterate, Strategy::StripedScan] {
            let al = Aligner::new(cfg.clone())
                .with_strategy(strat)
                .with_isa(isa)
                .with_width(width);
            let pq = al.prepare(&q).unwrap();
            let mut scratch = AlignScratch::new();
            let out = al.align_prepared(&pq, &s, &mut scratch).unwrap();
            let t = time_min(
                || {
                    let _ = al.align_prepared(&pq, &s, &mut scratch).unwrap();
                },
                1,
                3,
            );
            let g = gcups(1000, 1000, t);
            table.row(vec![
                out.backend.clone(),
                strat.short().to_string(),
                format!("{g:.2}"),
            ]);
        }
    }
    println!("{}", table.render());

    // Certified narrow path: dna(2,-3)/affine(-5,-2) at query 48 vs
    // subject 1000 carries an i8 width certificate (`aalign-analyzer
    // certify`), so the 8-bit kernels run with the rescue ladder
    // provably dead. Fixed8 rows pin the kernels themselves; the Auto
    // row shows the certificate steering the width ladder to i8.
    print_banner("throughput — certified-i8 SW-affine DNA (48 x 1000)");
    let dna = SubstMatrix::dna(2, -3);
    let dcfg = AlignConfig::local(GapModel::affine(-5, -2), &dna);
    let dna_seq = |rng: &mut rand::StdRng, id: &str, len: usize| {
        let text: Vec<u8> = (0..len)
            .map(|_| b"ACGT"[rng.random_range(0..4usize)])
            .collect();
        Sequence::dna(id, &text).unwrap()
    };
    let dq = dna_seq(&mut rng, "dq", 48);
    let ds = dna_seq(&mut rng, "ds", 1000);
    let mut dna_table = Table::new(vec!["backend", "width", "GCUPS"]);
    for (isa, width, label) in [
        (Isa::Avx2, WidthPolicy::Fixed16, "i16"),
        (Isa::Avx2, WidthPolicy::Fixed8, "i8"),
        (Isa::Avx2, WidthPolicy::Auto, "auto(i8 cert)"),
        (Isa::Avx512, WidthPolicy::Fixed16, "i16"),
        (Isa::Avx512, WidthPolicy::Fixed8, "i8"),
        (Isa::Avx512, WidthPolicy::Auto, "auto(i8 cert)"),
    ] {
        let al = Aligner::new(dcfg.clone())
            .with_certified_bounds(48, 1000)
            .with_strategy(Strategy::StripedIterate)
            .with_isa(isa)
            .with_width(width);
        let pq = al.prepare(&dq).unwrap();
        let mut scratch = AlignScratch::new();
        let out = al.align_prepared(&pq, &ds, &mut scratch).unwrap();
        assert!(!out.saturated, "certified width saturated in the bench");
        let t = time_min(
            || {
                let _ = al.align_prepared(&pq, &ds, &mut scratch).unwrap();
            },
            8,
            3,
        );
        let g = gcups(48, 1000, t);
        dna_table.row(vec![
            out.backend.clone(),
            label.to_string(),
            format!("{g:.2}"),
        ]);
    }
    println!("{}", dna_table.render());
}
