//! Engine-level trace integrity.
//!
//! The kernel-level guarantees (see `aalign-core`'s `trace_events`
//! tests) must survive the trip through the multithreaded engine:
//!
//! 1. **Equivalence** — a traced sweep returns exactly the hits of an
//!    untraced one, and accounts for the same columns.
//! 2. **Framing** — the event stream is one well-formed query
//!    envelope: `QueryBegin` first, `QueryEnd` last, the three engine
//!    stages spanned in order.
//! 3. **Reconciliation** — despite per-worker buffering and dynamic
//!    binding, every subject's events arrive contiguously and the
//!    reconstructed timelines exactly explain the reported
//!    `RunStats`.

#![cfg(feature = "trace")]

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::{AlignConfig, Aligner, GapModel, Strategy, WidthPolicy};
use aalign_obs::{TraceEvent, TraceReport};
use aalign_par::{PipelineOptions, SearchEngine, SearchOptions};

fn cfg() -> AlignConfig {
    AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62)
}

fn aligner() -> Aligner {
    Aligner::new(cfg()).with_strategy(Strategy::Hybrid)
}

#[test]
fn traced_sweep_is_result_identical_to_untraced() {
    let mut rng = seeded_rng(3100);
    let q = named_query(&mut rng, 90);
    let db = swissprot_like_db(3101, 60);
    let a = aligner();
    let engine = SearchEngine::new(4);
    let plain = engine.search(&a, &q, &db, &SearchOptions::new()).unwrap();
    let traced = engine
        .search(&a, &q, &db, &SearchOptions::new().trace(true))
        .unwrap();
    assert_eq!(traced.hits, plain.hits);
    // A traced sweep scores every subject with the striped kernels
    // (column events describe those); the untraced one may have run
    // vectors of subjects lane per subject. Either way every residue
    // is a column of exactly one kernel.
    let (t, p) = (&traced.metrics.kernel_stats, &plain.metrics.kernel_stats);
    assert_eq!(t.inter_columns, 0);
    assert_eq!(
        t.iterate_columns + t.scan_columns,
        p.iterate_columns + p.scan_columns + p.inter_columns
    );
    assert_eq!(traced.metrics.width_retries, plain.metrics.width_retries);
    assert!(
        plain.trace_events.is_empty(),
        "untraced sweeps collect nothing"
    );
    assert!(!traced.trace_events.is_empty());
}

#[test]
fn trace_stream_is_a_wellformed_query_envelope() {
    let mut rng = seeded_rng(3200);
    let q = named_query(&mut rng, 70);
    let db = swissprot_like_db(3201, 25);
    let engine = SearchEngine::new(3);
    let report = engine
        .search(&aligner(), &q, &db, &SearchOptions::new().trace(true))
        .unwrap();
    let events = &report.trace_events;
    assert!(
        matches!(&events[0], TraceEvent::QueryBegin { query, subjects }
            if query == q.id() && *subjects == db.len() as u64),
        "{:?}",
        events[0]
    );
    assert!(
        matches!(events.last().unwrap(), TraceEvent::QueryEnd { hits, .. }
            if *hits == report.hits.len() as u64),
        "{:?}",
        events.last()
    );
    // Stage spans appear in begin/end pairs, in stage order.
    let spans: Vec<(&str, bool)> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::SpanBegin { span, .. } => Some((span.as_str(), true)),
            TraceEvent::SpanEnd { span, .. } => Some((span.as_str(), false)),
            _ => None,
        })
        .collect();
    assert_eq!(
        spans,
        [
            ("prepare", true),
            ("prepare", false),
            ("sweep", true),
            ("sweep", false),
            ("merge", true),
            ("merge", false),
        ]
    );
    // Worker batches land strictly inside the sweep span.
    let sweep_begin = events
        .iter()
        .position(|ev| matches!(ev, TraceEvent::SpanBegin { span, .. } if span == "sweep"))
        .unwrap();
    let sweep_end = events
        .iter()
        .position(|ev| matches!(ev, TraceEvent::SpanEnd { span, .. } if span == "sweep"))
        .unwrap();
    for (i, ev) in events.iter().enumerate() {
        if matches!(
            ev,
            TraceEvent::AlignBegin { .. } | TraceEvent::Hybrid(_) | TraceEvent::AlignEnd { .. }
        ) {
            assert!(
                sweep_begin < i && i < sweep_end,
                "event {i} outside sweep span"
            );
        }
    }
}

#[test]
fn timelines_reconcile_across_workers() {
    let mut rng = seeded_rng(3300);
    let q = named_query(&mut rng, 110);
    let db = swissprot_like_db(3301, 80);
    let report = SearchEngine::new(4)
        .search(&aligner(), &q, &db, &SearchOptions::new().trace(true))
        .unwrap();
    let tr = TraceReport::from_events(&report.trace_events).unwrap();
    assert_eq!(tr.timelines.len(), db.len());
    assert!(tr.reconciled(), "unreconciled: {:?}", tr.unreconciled());
    // The per-subject column totals partition the database.
    let cols: u64 = tr
        .timelines
        .iter()
        .map(|t| t.iterate_columns + t.scan_columns)
        .sum();
    assert_eq!(cols, report.total_residues as u64);
    // And agree with the aggregated kernel counters.
    let iterate: u64 = tr.timelines.iter().map(|t| t.iterate_columns).sum();
    assert_eq!(iterate, report.metrics.kernel_stats.iterate_columns as u64);
    let sweeps: u64 = tr.timelines.iter().map(|t| t.lazy_sweeps).sum();
    assert_eq!(sweeps, report.metrics.kernel_stats.lazy_sweeps);
}

#[test]
fn empty_database_still_frames_the_query() {
    let mut rng = seeded_rng(3500);
    let q = named_query(&mut rng, 40);
    let engine = SearchEngine::new(2);
    let report = engine
        .search(
            &aligner(),
            &q,
            &SeqDatabase::default(),
            &SearchOptions::new().trace(true),
        )
        .unwrap();
    assert_eq!(report.metrics.gcups, 0.0, "guarded: no cells, no GCUPS");
    let tr = TraceReport::from_events(&report.trace_events).unwrap();
    assert!(tr.timelines.is_empty());
    assert_eq!(tr.hits, 0);
}

#[test]
fn pipeline_forwards_the_sweep_trace() {
    let mut rng = seeded_rng(3600);
    let q = named_query(&mut rng, 80);
    let db = swissprot_like_db(3601, 20);
    let engine = SearchEngine::new(2);
    let traced = PipelineOptions::new()
        .max_evalue(1e9)
        .search(SearchOptions::new().trace(true));
    let report = engine.pipeline(&cfg(), &q, &db, &traced).unwrap();
    assert!(!report.trace_events.is_empty());
    let tr = TraceReport::from_events(&report.trace_events).unwrap();
    assert_eq!(tr.timelines.len(), db.len());
    assert!(tr.reconciled());
    // Untraced pipelines stay silent.
    let silent = engine
        .pipeline(&cfg(), &q, &db, &PipelineOptions::new())
        .unwrap();
    assert!(silent.trace_events.is_empty());
}

#[test]
fn traced_round_trips_through_jsonl() {
    let mut rng = seeded_rng(3700);
    let q = named_query(&mut rng, 60);
    let db = swissprot_like_db(3701, 15);
    let engine = SearchEngine::new(2);
    let report = engine
        .search(&aligner(), &q, &db, &SearchOptions::new().trace(true))
        .unwrap();
    let mut buf = Vec::new();
    let mut w = aalign_obs::TraceWriter::new(&mut buf);
    w.write_all(&report.trace_events).unwrap();
    let _ = w.finish().unwrap();
    let parsed = aalign_obs::read_events(std::io::BufReader::new(buf.as_slice()))
        .map_err(|(line, e)| format!("line {line}: {e}"))
        .unwrap();
    assert_eq!(parsed, report.trace_events, "JSONL round trip is lossless");
}

/// A duplicate-heavy database with a mix of subject lengths makes the
/// traced and untraced top-k paths tie-break; both must agree.
#[test]
fn traced_topk_matches_untraced_topk() {
    let mut rng = seeded_rng(3800);
    let q = named_query(&mut rng, 64);
    let base = swissprot_like_db(3801, 10).sequences().to_vec();
    let mut seqs = base.clone();
    for (i, s) in base.iter().enumerate() {
        seqs.push(Sequence::from_indices(
            format!("dup_{i}"),
            s.alphabet(),
            s.indices().to_vec(),
        ));
    }
    let db = SeqDatabase::new(seqs);
    let engine = SearchEngine::new(3);
    let a = aligner();
    for top_n in [1usize, 6, 20] {
        let plain = engine
            .search(&a, &q, &db, &SearchOptions::new().top_n(top_n))
            .unwrap();
        let traced = engine
            .search(&a, &q, &db, &SearchOptions::new().top_n(top_n).trace(true))
            .unwrap();
        assert_eq!(plain.hits, traced.hits, "top_n={top_n}");
    }
}

/// When a lane-saturated subject is rescued at a wider width, the
/// traced sweep must (a) stay bit-identical to the untraced one, (b)
/// emit a `Rescue` marker inside the subject's envelope with the
/// discarded narrow run's columns dropped, and (c) still reconcile —
/// the timelines explain exactly the kept attempt's `RunStats`.
#[test]
fn rescued_sweep_traces_identically_and_reconciles() {
    // An all-W self-alignment saturates 8-bit lanes (W·W = 11 in
    // BLOSUM62), forcing an 8→16 rescue for that one subject.
    let w = Sequence::protein("w100", &[b'W'; 100]).unwrap();
    let mut seqs = swissprot_like_db(3901, 12).sequences().to_vec();
    seqs.push(w.clone());
    let db = SeqDatabase::new(seqs);
    let narrow = aligner().with_width(WidthPolicy::Fixed8);
    let engine = SearchEngine::new(2);
    let plain = engine
        .search(&narrow, &w, &db, &SearchOptions::new())
        .unwrap();
    let traced = engine
        .search(&narrow, &w, &db, &SearchOptions::new().trace(true))
        .unwrap();
    assert!(plain.metrics.rescued >= 1 && traced.metrics.rescued >= 1);
    assert_eq!(traced.hits, plain.hits, "rescue must not break equivalence");
    assert_eq!(traced.metrics.kernel_stats, plain.metrics.kernel_stats);
    assert_eq!(traced.metrics.rescued, plain.metrics.rescued);
    let w_subject = (db.len() - 1) as u64;
    let rescue = traced
        .trace_events
        .iter()
        .find_map(|ev| match ev {
            TraceEvent::Rescue {
                subject,
                from_bits,
                to_bits,
            } if *subject == w_subject => Some((*from_bits, *to_bits)),
            _ => None,
        })
        .expect("the saturating subject must carry a Rescue marker");
    assert_eq!(rescue, (8, 16), "one step up the ladder suffices");
    // The discarded narrow attempt's per-column events must not leak:
    // the stream still reconciles against the kept run's stats.
    let tr = TraceReport::from_events(&traced.trace_events).unwrap();
    assert!(tr.reconciled(), "{tr:?}");
    // And the rescue survives the JSONL round trip like any event.
    let mut buf = Vec::new();
    let mut w = aalign_obs::TraceWriter::new(&mut buf);
    w.write_all(&traced.trace_events).unwrap();
    let _ = w.finish().unwrap();
    let back = aalign_obs::read_events(std::io::BufReader::new(buf.as_slice()))
        .map_err(|(line, e)| format!("line {line}: {e}"))
        .unwrap();
    assert_eq!(back, traced.trace_events);
}
