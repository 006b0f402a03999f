//! Wire-format contract tests: lossless round-trips plus pinned
//! schema bytes.
//!
//! The pinned strings below ARE the v1 wire schema shared by the CLI
//! (`--metrics-format json`, partial-result reporting) and the
//! `aalign-serve` front ends. If an assertion here fails, the format
//! changed: either restore the old shape or bump
//! `aalign_obs::wire::SCHEMA_VERSION` and update every consumer.

use std::time::Duration;

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_core::{AlignConfig, AlignError, Aligner, GapModel};
use aalign_obs::wire::JsonValue;
use aalign_par::wire::{
    error_to_wire, hit_to_wire, metrics_from_wire, metrics_to_wire, report_from_wire,
    report_to_wire, SearchRequest,
};
use aalign_par::{SearchEngine, SearchOptions};

#[test]
fn real_search_report_round_trips_losslessly() {
    let mut rng = seeded_rng(41);
    let query = named_query(&mut rng, 60);
    let db = swissprot_like_db(42, 30);
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let report = SearchEngine::new(2)
        .search(&aligner, &query, &db, &SearchOptions::new().top_n(10))
        .unwrap();

    let rendered = report_to_wire(&report).render();
    let back = report_from_wire(&JsonValue::parse(&rendered).unwrap()).unwrap();

    assert_eq!(back.hits, report.hits);
    assert_eq!(back.threads_used, report.threads_used);
    assert_eq!(back.subjects, report.subjects);
    assert_eq!(back.total_residues, report.total_residues);
    assert_eq!(back.partial, report.partial);
    assert_eq!(back.errors, report.errors);
    // Metrics: every counter and histogram bit-exact; durations are
    // lossless at microsecond resolution, which is what the wire
    // carries.
    let (m, b) = (&report.metrics, &back.metrics);
    assert_eq!(b.cells, m.cells);
    assert_eq!(b.gcups, m.gcups, "f64 must survive render/parse exactly");
    assert_eq!(b.kernel_stats, m.kernel_stats);
    assert_eq!(b.coalesced, m.coalesced);
    assert_eq!(b.latency, m.latency, "histogram buckets bit-exact");
    assert_eq!(b.worker_load, m.worker_load);
    assert_eq!(b.rescue_widths, m.rescue_widths);
    assert_eq!(b.certified_width, m.certified_width);
    assert_eq!(b.lane_width, m.lane_width);
    assert_eq!(b.queue_wait, m.queue_wait);
    assert_eq!(b.request_e2e, m.request_e2e);
    assert_eq!(b.per_worker.len(), m.per_worker.len());
    for (bw, mw) in b.per_worker.iter().zip(&m.per_worker) {
        assert_eq!(bw.worker_id, mw.worker_id);
        assert_eq!(bw.subjects, mw.subjects);
        assert_eq!(bw.residues, mw.residues);
        assert_eq!(bw.scratch_bytes, mw.scratch_bytes);
        assert_eq!(bw.queries_on_worker, mw.queries_on_worker);
        assert_eq!(bw.busy.as_micros(), mw.busy.as_micros());
    }
    assert_eq!(b.prepare.as_micros(), m.prepare.as_micros());
    assert_eq!(b.total.as_micros(), m.total.as_micros());
}

#[test]
fn metrics_to_json_is_exactly_the_wire_document() {
    let mut rng = seeded_rng(43);
    let query = named_query(&mut rng, 40);
    let db = swissprot_like_db(44, 10);
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let report = SearchEngine::new(1)
        .search(&aligner, &query, &db, &SearchOptions::new())
        .unwrap();
    assert_eq!(
        report.metrics.to_json(),
        metrics_to_wire(&report.metrics).render(),
        "CLI --metrics-format json and the serve wire format must be one path"
    );
    // And it decodes back.
    let parsed = JsonValue::parse(&report.metrics.to_json()).unwrap();
    metrics_from_wire(&parsed).unwrap();
}

/// The exact v1 key skeleton of a metrics document. Pinning the full
/// rendered bytes of a deterministic metrics value freezes key
/// names, key order, and scalar encodings all at once.
#[test]
fn metrics_schema_v1_is_pinned() {
    let m = aalign_par::SearchMetrics::default();
    let expected = concat!(
        "{\"schema_version\":1,",
        "\"prepare_us\":0,\"sweep_us\":0,\"merge_us\":0,\"total_us\":0,",
        "\"cells\":0,\"gcups\":0,",
        "\"kernel\":{\"lazy_iters\":0,\"lazy_sweeps\":0,\"iterate_columns\":0,",
        "\"scan_columns\":0,\"switches_to_scan\":0,\"probes_stayed\":0,",
        "\"inter_columns\":0,\"inter_lane_columns\":0,\"inter_saturated\":0},",
        "\"width_retries\":0,\"rescued\":0,",
        "\"rescue_width_bits\":{\"count\":0,\"sum\":0,\"max\":0,\"mean\":0,",
        "\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"buckets\":[]},",
        "\"certified_width\":0,\"lane_width\":0,",
        "\"coalesced\":0,\"workers_respawned\":0,",
        "\"shards\":{\"ok\":0,\"failed\":0,\"retried\":0,\"timed_out\":0},",
        "\"peak_hits_buffered\":0,",
        "\"queue_wait_ns\":{\"count\":0,\"sum\":0,\"max\":0,\"mean\":0,",
        "\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"buckets\":[]},",
        "\"request_e2e_ns\":{\"count\":0,\"sum\":0,\"max\":0,\"mean\":0,",
        "\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"buckets\":[]},",
        "\"latency_ns\":{\"count\":0,\"sum\":0,\"max\":0,\"mean\":0,",
        "\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"buckets\":[]},",
        "\"worker_load_residues\":{\"count\":0,\"sum\":0,\"max\":0,\"mean\":0,",
        "\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"buckets\":[]},",
        "\"workers\":[]}",
    );
    assert_eq!(metrics_to_wire(&m).render(), expected);
}

#[test]
fn pre_stage_histogram_documents_still_decode() {
    // The stage-wait histograms (queue_wait_ns / request_e2e_ns) were
    // added within schema v1: a document written before they existed
    // must still decode, with the new fields coming back empty.
    let mut doc = metrics_to_wire(&aalign_par::SearchMetrics::default()).render();
    for key in ["queue_wait_ns", "request_e2e_ns"] {
        let needle = format!(
            "\"{key}\":{{\"count\":0,\"sum\":0,\"max\":0,\"mean\":0,\
             \"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"buckets\":[]}},"
        );
        assert!(doc.contains(&needle), "{key} not found in {doc}");
        doc = doc.replace(&needle, "");
    }
    let back = metrics_from_wire(&JsonValue::parse(&doc).unwrap()).unwrap();
    assert!(back.queue_wait.is_empty());
    assert!(back.request_e2e.is_empty());
}

#[test]
fn pre_certified_width_documents_still_decode() {
    // `certified_width` was added within schema v1; absent decodes
    // as 0 (no certificate), same additive-field convention as the
    // stage-wait histograms.
    let mut doc = metrics_to_wire(&aalign_par::SearchMetrics::default()).render();
    doc = doc.replace("\"certified_width\":0,", "");
    let back = metrics_from_wire(&JsonValue::parse(&doc).unwrap()).unwrap();
    assert_eq!(back.certified_width, 0);
}

#[test]
fn pre_lane_width_documents_still_decode() {
    // `lane_width` and the kernel's `inter_saturated` were added within
    // schema v1; absent, both decode as 0 (no lane batch ran).
    let mut doc = metrics_to_wire(&aalign_par::SearchMetrics::default()).render();
    for key in ["\"lane_width\":0,", ",\"inter_saturated\":0"] {
        assert!(doc.contains(key), "{key} not found in {doc}");
        doc = doc.replace(key, "");
    }
    let back = metrics_from_wire(&JsonValue::parse(&doc).unwrap()).unwrap();
    assert_eq!(back.lane_width, 0);
    assert_eq!(back.kernel_stats.inter_saturated, 0);
}

#[test]
fn pre_shard_outcome_documents_still_decode() {
    // The `shards` outcome object was added within schema v1 when the
    // shard supervisor landed; a pre-supervisor document (no `shards`
    // key) decodes with the all-zero default.
    let mut doc = metrics_to_wire(&aalign_par::SearchMetrics::default()).render();
    doc = doc.replace(
        "\"shards\":{\"ok\":0,\"failed\":0,\"retried\":0,\"timed_out\":0},",
        "",
    );
    assert!(!doc.contains("\"shards\""), "{doc}");
    let back = metrics_from_wire(&JsonValue::parse(&doc).unwrap()).unwrap();
    assert!(back.shards.is_unsharded());
}

#[test]
fn shard_outcome_and_shard_lost_round_trip() {
    let mut m = aalign_par::SearchMetrics::default();
    m.shards.ok = 3;
    m.shards.failed = 1;
    m.shards.retried = 2;
    m.shards.timed_out = 1;
    let back =
        metrics_from_wire(&JsonValue::parse(&metrics_to_wire(&m).render()).unwrap()).unwrap();
    assert_eq!(back.shards, m.shards);

    let e = AlignError::ShardLost {
        shard: 2,
        start: 500,
        end: 750,
    };
    assert_eq!(
        error_to_wire(&e).render(),
        "{\"code\":\"shard_lost\",\
         \"message\":\"shard 2 lost; database range [500, 750) is uncovered\",\
         \"shard\":2,\"start\":500,\"end\":750}"
    );
}

#[test]
fn report_schema_v1_is_pinned() {
    let report = aalign_par::SearchReport {
        hits: vec![aalign_par::Hit {
            db_index: 3,
            len: 120,
            score: -7,
        }],
        threads_used: 2,
        subjects: 5,
        total_residues: 600,
        metrics: aalign_par::SearchMetrics::default(),
        trace_events: Vec::new(),
        partial: true,
        errors: vec![AlignError::DeadlineExceeded],
    };
    let rendered = report_to_wire(&report).render();
    let prefix = concat!(
        "{\"schema_version\":1,\"partial\":true,\"threads_used\":2,",
        "\"subjects\":5,\"total_residues\":600,",
        "\"hits\":[{\"db_index\":3,\"len\":120,\"score\":-7}],",
        "\"errors\":[{\"code\":\"deadline_exceeded\",",
    );
    assert!(
        rendered.starts_with(prefix),
        "report schema drifted:\n{rendered}"
    );
    assert!(rendered.contains("\"metrics\":{\"schema_version\":1,"));
}

/// The request document every client writes (HTTP bodies, JSON-RPC
/// `search` params, the shard supervisor's child requests): key
/// names, key order, and which defaults are left out.
#[test]
fn request_schema_v1_is_pinned() {
    assert_eq!(
        SearchRequest::new("MKVLA").to_wire().render(),
        "{\"query\":\"MKVLA\"}"
    );
    let mut req = SearchRequest::new("MKVLA");
    req.query_id = "q1".into();
    req.id = Some("req-7".into());
    req.tenant = Some("teamA".into());
    req.top_n = 10;
    req.deadline_ms = Some(500);
    req.no_batch = true;
    let rendered = req.to_wire().render();
    assert_eq!(
        rendered,
        "{\"query\":\"MKVLA\",\"query_id\":\"q1\",\"id\":\"req-7\",\"tenant\":\"teamA\",\
         \"top_n\":10,\"deadline_ms\":500,\"no_batch\":true}"
    );
    let back = SearchRequest::from_wire(&JsonValue::parse(&rendered).unwrap()).unwrap();
    assert_eq!(back.to_wire().render(), rendered);
}

#[test]
fn error_objects_are_pinned() {
    assert_eq!(
        error_to_wire(&AlignError::WorkerLost {
            worker_id: 4,
            payload: "kill".into(),
        })
        .render(),
        "{\"code\":\"worker_lost\",\"message\":\"search worker 4 died mid-query: kill\",\
         \"worker_id\":4,\"payload\":\"kill\"}"
    );
    let cancelled = error_to_wire(&AlignError::Cancelled).render();
    assert!(cancelled.starts_with("{\"code\":\"cancelled\",\"message\":"));
}

#[test]
fn hit_wire_shape_is_pinned() {
    let h = aalign_par::Hit {
        db_index: 9,
        len: 33,
        score: 101,
    };
    assert_eq!(
        hit_to_wire(&h).render(),
        "{\"db_index\":9,\"len\":33,\"score\":101}"
    );
}

#[test]
fn future_schema_versions_are_rejected() {
    let mut doc = metrics_to_wire(&aalign_par::SearchMetrics::default()).render();
    doc = doc.replace("\"schema_version\":1", "\"schema_version\":2");
    let err = metrics_from_wire(&JsonValue::parse(&doc).unwrap()).unwrap_err();
    assert!(err.to_string().contains("schema_version"), "{err}");
}

#[test]
fn partial_deadline_report_renders_like_server_partial() {
    // The CLI's --timeout path and a server-side deadline produce the
    // same typed wire object: partial=true plus a deadline_exceeded
    // error entry.
    let mut rng = seeded_rng(45);
    let query = named_query(&mut rng, 50);
    let db = swissprot_like_db(46, 40);
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let report = SearchEngine::new(1)
        .search(
            &aligner,
            &query,
            &db,
            &SearchOptions::new().deadline(Duration::ZERO),
        )
        .unwrap();
    assert!(report.partial);
    let wire = report_to_wire(&report);
    assert_eq!(wire.get("partial").and_then(JsonValue::as_bool), Some(true));
    let errors = wire.get("errors").unwrap().as_array().unwrap();
    assert!(errors
        .iter()
        .any(|e| e.get("code").and_then(|c| c.as_str()) == Some("deadline_exceeded")));
}
