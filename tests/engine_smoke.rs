//! Release-mode smoke test for the persistent [`SearchEngine`]: one
//! pool, several queries, metrics populated, threads spawned exactly
//! once. Run by CI as `cargo test --release --test engine_smoke`.

use aalign::bio::matrices::BLOSUM62;
use aalign::bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign::par::{SearchEngine, SearchOptions};
use aalign::{AlignConfig, Aligner, GapModel, Strategy};

#[test]
fn engine_serves_back_to_back_queries_from_one_pool() {
    let db = swissprot_like_db(2024, 60);
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62))
        .with_strategy(Strategy::Hybrid);
    let engine = SearchEngine::new(2);
    let mut rng = seeded_rng(2025);

    for query_no in 1..=3u64 {
        let query = named_query(&mut rng, 100 + 40 * query_no as usize);
        let opts = SearchOptions::new().top_n(5);
        let report = engine.search(&aligner, &query, &db, &opts).unwrap();

        // Hits match a fresh engine's bit for bit.
        let fresh = SearchEngine::new(2)
            .search(&aligner, &query, &db, &opts)
            .unwrap();
        assert_eq!(report.hits, fresh.hits);
        assert_eq!(report.hits.len(), 5);

        // Metrics are populated...
        let m = &report.metrics;
        assert!(m.total >= m.sweep);
        assert!(m.gcups > 0.0);
        assert_eq!(
            m.cells,
            query.len() as u64 * report.total_residues as u64,
            "cells = query_len × db residues"
        );
        assert_eq!(m.workers(), 2);
        // ...and streaming top-k kept the buffers bounded.
        assert!(
            m.peak_hits_buffered <= 2 * 5,
            "peak {}",
            m.peak_hits_buffered
        );

        // The pool was reused, not respawned: every worker has served
        // exactly `query_no` queries over its lifetime.
        for w in &m.per_worker {
            assert!(w.worker_id < 2);
            assert_eq!(w.queries_on_worker, query_no);
            assert!(w.scratch_bytes > 0, "warm scratch is retained");
        }
    }
    assert_eq!(engine.queries_served(), 3);
}
