//! Thread-scaling sweep for the database-search driver (paper
//! Sec. V-E's multithreading claim).
//!
//! The paper ran 24 CPU cores / 60 MIC cores; this harness sweeps
//! 1..=available threads and prints throughput per count, plus the
//! dynamic-binding load balance (per-thread subject counts would be
//! equalized by length sorting; we report wall time only). The sweep
//! doubles the count from 1 while it fits the host, so a 2-CPU host
//! prints two rows; `results/scaling.txt` holds the checked-in run
//! EXPERIMENTS.md cites.
//!
//! Usage: `cargo run --release -p aalign-bench --bin scaling [--quick]`

use aalign_bench::harness::{print_banner, time_min, Table};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_core::{AlignConfig, Aligner, GapModel, Strategy};
use aalign_par::{SearchEngine, SearchOptions};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    print_banner("Thread scaling — database search driver (Sec. V-E)");

    let db = swissprot_like_db(42, if quick { 300 } else { 1500 });
    let stats = db.stats();
    let mut rng = seeded_rng(43);
    let query = named_query(&mut rng, 300);
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let aligner = Aligner::new(cfg).with_strategy(Strategy::Hybrid);
    let max_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "database: {} seqs / {} residues; query {}; host threads: {max_threads}",
        stats.count,
        stats.total_residues,
        query.id()
    );

    let mut table = Table::new(vec!["threads", "sweep s", "GCUPS", "speedup"]);
    let mut t1 = None;
    let mut threads = 1usize;
    while threads <= max_threads {
        let opts = SearchOptions::new().top_n(5);
        // The pool is built inside the timed closure: each sample pays
        // its spawn and teardown, as a one-off search does.
        let t_sweep = time_min(
            || {
                let _ = SearchEngine::new(threads)
                    .search(&aligner, &query, &db, &opts)
                    .unwrap();
            },
            1,
            if quick { 1 } else { 3 },
        );
        let base = *t1.get_or_insert(t_sweep);
        table.row(vec![
            threads.to_string(),
            format!("{:.3}", t_sweep.as_secs_f64()),
            format!(
                "{:.2}",
                query.len() as f64 * stats.total_residues as f64 / t_sweep.as_secs_f64() / 1e9
            ),
            format!("{:.2}x", base.as_secs_f64() / t_sweep.as_secs_f64()),
        ]);
        threads *= 2;
    }
    println!("{}", table.render());
    println!(
        "expected shape on multi-core hosts: near-linear speedup until memory bandwidth saturates."
    );
}
