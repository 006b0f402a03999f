//! Fig. 11 — multi-threaded AAlign SW-affine vs. the SWPS3-like and
//! SWAPHI-like comparators on a swiss-prot-like database.
//!
//! Panel (a): CPU — AAlign (hybrid, i16 auto) vs. SWPS3-like
//! (i8-first with overflow fallback). Paper shape: AAlign wins up to
//! ≈2.5× on short/medium queries; SWPS3's 8-bit buffers win on the
//! longest (Q4000) query.
//! Panel (b): MIC — AAlign (hybrid, i32, 512-bit) vs. SWAPHI-like
//! (plain iterate, i32). Paper shape: AAlign ≈1.6× from the hybrid.
//!
//! Usage: `cargo run --release -p aalign-bench --bin fig11 [--quick]`

use std::time::Duration;

use aalign_baselines::swps3_like::{Swps3Like, Swps3Scratch};
use aalign_baselines::SwaphiLike;
use aalign_bench::harness::{print_banner, time_min, Platform, Table};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_bio::SeqDatabase;
use aalign_core::{AlignConfig, AlignScratch, Aligner, GapModel, Strategy, WidthPolicy};
use aalign_par::{SearchEngine, SearchOptions};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    print_banner("Fig. 11 — multithreaded SW-affine vs SWPS3-like / SWAPHI-like");

    let db_size = if quick { 300 } else { 2000 };
    let base_db = swissprot_like_db(11, db_size);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("threads: {threads}");
    println!();

    let mut rng = seeded_rng(1111);
    let qlens: &[usize] = if quick {
        &[110, 1000]
    } else {
        &[110, 282, 500, 1000, 2000, 4000]
    };
    // Real queries have homologs in swiss-prot (that is the point of
    // searching it); plant ~4 % homologs of each query into its
    // database so the hybrid's switching matters, as it does in the
    // paper's runs (see DESIGN.md substitutions).
    let homolog_specs = [
        aalign_bio::synth::PairSpec::new(
            aalign_bio::synth::Level::Hi,
            aalign_bio::synth::Level::Hi,
        ),
        aalign_bio::synth::PairSpec::new(
            aalign_bio::synth::Level::Hi,
            aalign_bio::synth::Level::Md,
        ),
        aalign_bio::synth::PairSpec::new(
            aalign_bio::synth::Level::Md,
            aalign_bio::synth::Level::Hi,
        ),
        aalign_bio::synth::PairSpec::new(
            aalign_bio::synth::Level::Md,
            aalign_bio::synth::Level::Md,
        ),
    ];
    let queries: Vec<_> = qlens
        .iter()
        .map(|&l| {
            let q = named_query(&mut rng, l);
            let mut seqs = base_db.sequences().to_vec();
            let per_spec = db_size / 100; // 4 specs → ~4 %
            for spec in &homolog_specs {
                for _ in 0..per_spec {
                    seqs.push(spec.generate(&mut rng, &q).subject);
                }
            }
            (q, SeqDatabase::new(seqs))
        })
        .collect();
    let stats = queries[0].1.stats();
    println!(
        "database: {} seqs, mean len {:.0} (swiss-prot-like, ~4% planted homologs per query)",
        stats.count, stats.mean_len
    );
    let gap = GapModel::affine(-10, -2);
    let (warmup, reps) = (0, if quick { 1 } else { 2 });

    // ---------------- Panel (a): CPU ----------------
    println!(
        "## (a) CPU: AAlign hybrid (i16 auto) vs SWPS3-like (i8→i16) {}",
        if Platform::Cpu.native() {
            ""
        } else {
            "(emulated)"
        }
    );
    let mut ta = Table::new(vec![
        "query",
        "aalign s",
        "swps3 s",
        "speedup",
        "aalign GCUPS",
    ]);
    for (q, db) in &queries {
        let aalign = Aligner::new(AlignConfig::local(gap, &BLOSUM62))
            .with_strategy(Strategy::Hybrid)
            .with_isa(Platform::Cpu.isa())
            .with_width(WidthPolicy::Auto);
        let t_aalign = time_min(
            || {
                let _ = SearchEngine::new(threads)
                    .search(&aalign, q, db, &SearchOptions::new().top_n(10))
                    .unwrap();
            },
            warmup,
            reps,
        );
        let t_swps3 = time_swps3(q, gap, db, threads, warmup, reps);
        let g = q.len() as f64 * stats.total_residues as f64 / t_aalign.as_secs_f64() / 1e9;
        ta.row(vec![
            q.id().to_string(),
            format!("{:.3}", t_aalign.as_secs_f64()),
            format!("{:.3}", t_swps3.as_secs_f64()),
            format!("{:.2}x", t_swps3.as_secs_f64() / t_aalign.as_secs_f64()),
            format!("{g:.2}"),
        ]);
    }
    println!("{}", ta.render());

    // ---------------- Panel (b): MIC ----------------
    println!(
        "## (b) MIC (512-bit): AAlign hybrid (i32) vs SWAPHI-like (i32 iterate) {}",
        if Platform::Mic.native() {
            ""
        } else {
            "(emulated)"
        }
    );
    let mut tb = Table::new(vec![
        "query",
        "aalign s",
        "swaphi s",
        "speedup",
        "aalign GCUPS",
    ]);
    for (q, db) in &queries {
        let aalign = Aligner::new(AlignConfig::local(gap, &BLOSUM62))
            .with_strategy(Strategy::Hybrid)
            .with_isa(Platform::Mic.isa())
            .with_width(WidthPolicy::Fixed32);
        let t_aalign = time_min(
            || {
                let _ = SearchEngine::new(threads)
                    .search(&aalign, q, db, &SearchOptions::new().top_n(10))
                    .unwrap();
            },
            warmup,
            reps,
        );
        let t_swaphi = time_swaphi(q, gap, db, threads, warmup, reps);
        let g = q.len() as f64 * stats.total_residues as f64 / t_aalign.as_secs_f64() / 1e9;
        tb.row(vec![
            q.id().to_string(),
            format!("{:.3}", t_aalign.as_secs_f64()),
            format!("{:.3}", t_swaphi.as_secs_f64()),
            format!("{:.2}x", t_swaphi.as_secs_f64() / t_aalign.as_secs_f64()),
            format!("{g:.2}"),
        ]);
    }
    println!("{}", tb.render());
}

/// Multithreaded SWPS3-like database sweep with the same dynamic
/// binding as aalign-par.
fn time_swps3(
    q: &aalign_bio::Sequence,
    gap: GapModel,
    db: &SeqDatabase,
    threads: usize,
    warmup: usize,
    reps: usize,
) -> Duration {
    let tool = Swps3Like::new(q, gap, &BLOSUM62);
    let order = db.sorted_by_length_desc();
    time_min(
        || {
            let next = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut scratch = Swps3Scratch::new();
                        loop {
                            let slot = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if slot >= order.len() {
                                break;
                            }
                            let _ = tool.align(db.get(order[slot]), &mut scratch);
                        }
                    });
                }
            });
        },
        warmup,
        reps,
    )
}

/// Multithreaded SWAPHI-like database sweep.
fn time_swaphi(
    q: &aalign_bio::Sequence,
    gap: GapModel,
    db: &SeqDatabase,
    threads: usize,
    warmup: usize,
    reps: usize,
) -> Duration {
    let tool = SwaphiLike::new(q, gap, &BLOSUM62);
    let order = db.sorted_by_length_desc();
    time_min(
        || {
            let next = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut ws = AlignScratch::new();
                        loop {
                            let slot = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if slot >= order.len() {
                                break;
                            }
                            let _ = tool.align(db.get(order[slot]), &mut ws);
                        }
                    });
                }
            });
        },
        warmup,
        reps,
    )
}
