//! Ablation: backend ISA × element width × striped strategy on fixed
//! workloads.
//!
//! Runs the same SW-affine alignment across every engine the host
//! offers (emulated, SSE4.1, AVX2, AVX-512) and the practical element
//! widths, under both striped strategies, quantifying what each
//! ISA/width step is worth — the portability claim of the
//! vector-module design. The scalar `Sequential` row is the baseline.
//! A second table runs the certified-i8 DNA path (a 48-nt read against
//! 64 distinct 1000-nt subjects per sample), where the width
//! certificate keeps the byte kernels rescue-free.
//!
//! All cases go through the `Aligner`, hence through
//! `aalign_vec::with_engine`, so hardware engines run inside their
//! `#[target_feature]` entry (the fast path a real caller gets). Rows
//! are named by the backend that ran: a pin falls back to emulation on
//! a host lacking the ISA. Each GCUPS figure is the minimum-time run
//! of one pair (protein) or of the read against every subject (DNA).
//! A kernel chain that lost its `#[inline(always)]` shows here as a
//! 20–40× drop.
//!
//! Usage: `cargo bench -p aalign-bench --bench ablation_backend`

use aalign_bench::harness::{gcups, print_banner, time_min, Table};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng};
use aalign_bio::{Sequence, SubstMatrix};
use aalign_core::{
    AlignConfig, AlignOutput, AlignScratch, Aligner, GapModel, Strategy, WidthPolicy,
};
use aalign_vec::detect::Isa;
use rand::RngExt;

/// The query against each of `subjects` through `al`: the first
/// run's outputs (which backend ran, whether it saturated) and the
/// GCUPS, over all cells, of the fastest of `reps` runs of the set.
fn time_pairs(
    al: &Aligner,
    q: &Sequence,
    subjects: &[Sequence],
    warmup: usize,
    reps: usize,
) -> (Vec<AlignOutput>, f64) {
    let pq = al.prepare(q).unwrap();
    let mut scratch = AlignScratch::new();
    let outs = subjects
        .iter()
        .map(|s| al.align_prepared(&pq, s, &mut scratch).unwrap())
        .collect();
    let t = time_min(
        || {
            for s in subjects {
                let _ = al.align_prepared(&pq, s, &mut scratch).unwrap();
            }
        },
        warmup,
        reps,
    );
    let residues = subjects.iter().map(Sequence::len).sum();
    (outs, gcups(q.len(), residues, t))
}

fn main() {
    print_banner("ablation_backend — SW-affine GCUPS per ISA pin × width × strategy (1000 x 1000)");
    let mut rng = seeded_rng(1);
    let q = named_query(&mut rng, 1000);
    let s = named_query(&mut rng, 1000);
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let (warmup, reps) = (2, 7);

    let mut table = Table::new(vec!["case", "strategy", "GCUPS"]);
    let seq = Aligner::new(cfg.clone()).with_strategy(Strategy::Sequential);
    let t = time_min(
        || {
            let _ = seq.align(&q, &s).unwrap();
        },
        warmup,
        reps,
    );
    table.row(vec![
        "scalar".to_string(),
        Strategy::Sequential.short().to_string(),
        format!("{:.2}", gcups(q.len(), s.len(), t)),
    ]);

    for (isa, width) in [
        (Isa::Emulated, WidthPolicy::Fixed32),
        (Isa::Emulated, WidthPolicy::Fixed16),
        (Isa::Sse41, WidthPolicy::Fixed32),
        (Isa::Sse41, WidthPolicy::Fixed16),
        (Isa::Avx2, WidthPolicy::Fixed32),
        (Isa::Avx2, WidthPolicy::Fixed16),
        (Isa::Avx2, WidthPolicy::Fixed8),
        (Isa::Avx512, WidthPolicy::Fixed32),
        (Isa::Avx512, WidthPolicy::Fixed16),
    ] {
        for strat in [Strategy::StripedIterate, Strategy::StripedScan] {
            let al = Aligner::new(cfg.clone())
                .with_strategy(strat)
                .with_isa(isa)
                .with_width(width);
            let (outs, g) = time_pairs(&al, &q, std::slice::from_ref(&s), warmup, reps);
            table.row(vec![
                format!("pin {} -> {}", isa.name(), outs[0].backend),
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
    // row shows the certificate steering the width ladder to i8. One
    // 48 x 1000 pair takes ~16 us, too short to time alone, so a sample
    // is the read against DNA_SUBJECTS distinct subjects (~1 ms).
    const DNA_SUBJECTS: usize = 64;
    print_banner(&format!(
        "ablation_backend — certified-i8 SW-affine DNA (48 x {DNA_SUBJECTS} x 1000)"
    ));
    let dna = SubstMatrix::dna(2, -3);
    let dcfg = AlignConfig::local(GapModel::affine(-5, -2), &dna);
    let dna_seq = |rng: &mut rand::StdRng, id: &str, len: usize| {
        let text: Vec<u8> = (0..len)
            .map(|_| b"ACGT"[rng.random_range(0..4usize)])
            .collect();
        Sequence::dna(id, &text).unwrap()
    };
    let dq = dna_seq(&mut rng, "dq", 48);
    let subjects: Vec<Sequence> = (0..DNA_SUBJECTS)
        .map(|i| dna_seq(&mut rng, &format!("ds{i}"), 1000))
        .collect();
    let mut dna_table = Table::new(vec!["case", "width", "GCUPS"]);
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
        let (outs, g) = time_pairs(&al, &dq, &subjects, 8, 100);
        assert!(
            outs.iter().all(|out| !out.saturated),
            "certified width saturated in the bench"
        );
        dna_table.row(vec![
            format!("pin {} -> {}", isa.name(), outs[0].backend),
            label.to_string(),
            format!("{g:.2}"),
        ]);
    }
    println!("{}", dna_table.render());
}
