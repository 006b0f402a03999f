//! Fig. 5 — the hybrid method's switching trace.
//!
//! The paper's example subject has a highly similar middle region:
//! pure iterate drowns in re-computations there, pure scan wastes the
//! cheap head and tail, and the hybrid switches to scan inside the
//! similar region and probes back out of it. This harness builds
//! exactly that subject (random head, near-identical middle, random
//! tail), prints the per-column lazy-sweep counts and where the
//! hybrid switched, and times all three strategies.
//!
//! Usage: `cargo run --release -p aalign-bench --bin fig5`

use aalign_bench::harness::{print_banner, time_min, Platform, Table};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, random_protein, seeded_rng};
use aalign_bio::Sequence;
use aalign_core::striped::{align_columns, Columns};
use aalign_core::{AlignConfig, Aligner, GapModel, HybridPolicy, Strategy, WidthPolicy};
use aalign_obs::{CollectorSink, StrategyKind, TraceEvent};

fn main() {
    print_banner("Fig. 5 — hybrid switching trace (SW-affine)");

    let mut rng = seeded_rng(5);
    let query = named_query(&mut rng, 600);

    // Subject: dissimilar head (600), near-identical middle (600 from
    // the query itself), dissimilar tail (600).
    let head = random_protein(&mut rng, "head", 600);
    let tail = random_protein(&mut rng, "tail", 600);
    let mut subject_idx = Vec::new();
    subject_idx.extend_from_slice(head.indices());
    subject_idx.extend_from_slice(query.indices());
    subject_idx.extend_from_slice(tail.indices());
    let subject = Sequence::from_indices("head+query+tail", query.alphabet(), subject_idx);

    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let policy = HybridPolicy {
        threshold: 2,
        probe_stride: 64,
    };

    // Trace via the core striped driver: one column event per subject
    // character.
    let prof = aalign_bio::StripedProfile::<i32>::build(&query, &cfg.matrix, 16);
    let mut ws = aalign_core::Workspace::new();
    let mut sink = CollectorSink::new();
    let rep = align_columns(
        aalign_vec::EmuEngine::<i32, 16>::new(),
        &prof,
        subject.indices(),
        cfg.table2(),
        Columns::Hybrid(policy),
        &mut ws,
        &mut sink,
    );

    // Aggregate the trace into 100-column bins (like the figure's x axis).
    println!("per-100-column summary (I = iterate cols, S = scan cols, sweeps = lazy sweeps):");
    let mut table = Table::new(vec!["columns", "iterate", "scan", "lazy sweeps"]);
    for (bin, chunk) in sink.events.chunks(100).enumerate() {
        let mut it = 0usize;
        let mut sc = 0usize;
        let mut sweeps = 0u64;
        for ev in chunk {
            if let TraceEvent::Hybrid(col) = ev {
                match col.strategy {
                    StrategyKind::Iterate => {
                        it += 1;
                        sweeps += u64::from(col.lazy_sweeps);
                    }
                    StrategyKind::Scan => sc += 1,
                }
            }
        }
        table.row(vec![
            format!("{}..{}", bin * 100, bin * 100 + chunk.len()),
            it.to_string(),
            sc.to_string(),
            sweeps.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "switches to scan: {}, probes that stayed in iterate: {}",
        rep.switches_to_scan, rep.probes_stayed
    );
    println!();

    // Wall-clock comparison of the three strategies on this subject.
    let mut table = Table::new(vec!["strategy", "ms"]);
    for strat in [
        Strategy::StripedIterate,
        Strategy::StripedScan,
        Strategy::Hybrid,
    ] {
        let al = Aligner::new(cfg.clone())
            .with_strategy(strat)
            .with_isa(Platform::Mic.isa())
            .with_width(WidthPolicy::Fixed32)
            .with_hybrid_policy(policy);
        let pq = al.prepare(&query).unwrap();
        let mut scratch = aalign_core::AlignScratch::new();
        let t = time_min(
            || {
                let _ = al.align_prepared(&pq, &subject, &mut scratch).unwrap();
            },
            1,
            5,
        );
        table.row(vec![
            strat.short().to_string(),
            format!("{:.3}", t.as_secs_f64() * 1e3),
        ]);
    }
    println!("{}", table.render());
    println!("expected shape: hybrid ≤ min(iterate, scan) + probe overhead.");
}
