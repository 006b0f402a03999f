//! Request-scoped tracing end to end: stage events in the flight
//! recorder, trace-id propagation, per-stage histograms on the
//! service surfaces — and the guarantee that tracing never changes
//! a result.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_bio::SeqDatabase;
use aalign_core::{AlignConfig, Aligner, GapModel};
use aalign_obs::jsonl::read_events;
use aalign_obs::wire::{histogram_from_wire, JsonValue};
use aalign_obs::{StageKind, TraceEvent};
use aalign_serve::http::serve_http;
use aalign_serve::rpc::respond_line;
use aalign_serve::{Dispatcher, DispatcherConfig, Local, SearchRequest};

use common::{wait_inflight, Held};

fn aligner() -> Aligner {
    Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62))
}

fn db(count: usize) -> SeqDatabase {
    swissprot_like_db(7, count)
}

fn dispatcher(threads: usize, count: usize, cfg: DispatcherConfig) -> Arc<Dispatcher> {
    Arc::new(Dispatcher::new(aligner(), db(count), threads, cfg))
}

fn query_text(seed: u64, len: usize) -> String {
    let mut rng = seeded_rng(seed);
    String::from_utf8(named_query(&mut rng, len).text()).unwrap()
}

#[test]
fn tracing_never_changes_the_result() {
    // The same query through the traced path and the self-assigning
    // path must produce bit-identical hit lists — tracing is
    // observation, not behavior.
    let d = dispatcher(2, 60, DispatcherConfig::default());
    let mut req = SearchRequest::new(query_text(11, 70));
    req.top_n = 8;

    let plain = d.search(&req).unwrap();
    let traced = d.search_traced(&req, 4242).unwrap();
    assert_eq!(traced.report.hits, plain.report.hits);
    assert_eq!(traced.request_id, 4242, "caller-assigned id is echoed");
    assert_ne!(plain.request_id, 0, "self-assigned ids are never 0");

    // And the id rides the wire when nonzero.
    let wire = traced.to_wire();
    assert_eq!(
        wire.get("request_id").and_then(JsonValue::as_u64),
        Some(4242)
    );
}

#[test]
fn every_stage_event_carries_its_request_id() {
    let d = dispatcher(2, 40, DispatcherConfig::default());
    let mut rids = Vec::new();
    for seed in 0..3u64 {
        let req = SearchRequest::new(query_text(20 + seed, 50));
        rids.push(d.search(&req).unwrap().request_id);
    }

    let events = d.flight().snapshot();
    assert!(!events.is_empty(), "searches must leave stage events");
    for ev in &events {
        assert_ne!(ev.request, 0, "stage event without a request id: {ev:?}");
    }
    // Each request leaves at least its queue and sweep stages.
    for rid in rids {
        for stage in [StageKind::Queue, StageKind::Sweep] {
            assert!(
                events.iter().any(|e| e.request == rid && e.stage == stage),
                "request {rid} has no {stage:?} stage event"
            );
        }
    }
}

#[test]
fn coalesced_followers_reference_the_leaders_sweep() {
    let (d, held) = Held::dispatcher(
        Local::new(aligner(), db(200), 1),
        DispatcherConfig::default().max_inflight(8),
    );
    let q = query_text(1, 150);

    let leader = {
        let d = Arc::clone(&d);
        let q = q.clone();
        thread::spawn(move || d.search(&SearchRequest::new(q)).unwrap())
    };
    wait_inflight(&d, 1);
    let followers: Vec<_> = (0..3)
        .map(|_| {
            let d = Arc::clone(&d);
            let q = q.clone();
            thread::spawn(move || d.search(&SearchRequest::new(q)).unwrap())
        })
        .collect();
    // Every follower admitted and attached before the sweep may end.
    wait_inflight(&d, 4);
    thread::sleep(Duration::from_millis(50));
    held.open();
    let lead = leader.join().unwrap();
    let follows: Vec<_> = followers.into_iter().map(|h| h.join().unwrap()).collect();

    let events = d.flight().snapshot();
    let batched: Vec<_> = follows.iter().filter(|r| r.batched).collect();
    assert!(!batched.is_empty(), "at least one request must coalesce");
    for r in &batched {
        let wait = events
            .iter()
            .find(|e| e.request == r.request_id && e.stage == StageKind::BatchWait)
            .unwrap_or_else(|| panic!("follower {} left no batch_wait event", r.request_id));
        assert_eq!(
            wait.ref_request, lead.request_id,
            "follower must reference the leader's request id"
        );
    }
    // The leader itself ran the sweep under its own id.
    assert!(events
        .iter()
        .any(|e| e.request == lead.request_id && e.stage == StageKind::Sweep));
    // The leader's report carries its queue wait and end-to-end time.
    assert_eq!(lead.report.metrics.queue_wait.count(), 1);
    assert_eq!(lead.report.metrics.request_e2e.count(), 1);
}

#[test]
fn flight_dump_parses_as_trace_jsonl() {
    let d = dispatcher(1, 30, DispatcherConfig::default());
    d.search(&SearchRequest::new(query_text(5, 40))).unwrap();

    let dump = d.flight().dump_jsonl();
    assert!(!dump.is_empty());
    let events = read_events(dump.as_bytes()).expect("dump must be valid trace JSONL");
    for ev in events {
        match ev {
            TraceEvent::Stage { request, .. } => assert_ne!(request, 0),
            other => panic!("flight dump contains a non-stage event: {other:?}"),
        }
    }
}

#[test]
fn health_stages_decode_as_lossless_histograms() {
    let d = dispatcher(2, 40, DispatcherConfig::default());
    let n = 4;
    for seed in 0..n {
        d.search(&SearchRequest::new(query_text(30 + seed, 50)))
            .unwrap();
    }

    let health = d.health();
    let stages = health.get("stages").expect("health carries stage hists");
    for key in [
        "parse_ns",
        "queue_wait_ns",
        "batch_wait_ns",
        "sweep_ns",
        "merge_ns",
        "respond_ns",
        "e2e_ns",
    ] {
        let h = histogram_from_wire(stages.get(key).unwrap())
            .unwrap_or_else(|e| panic!("stage {key} does not decode: {e}"));
        match key {
            // Sequential dispatcher-level searches have no front end
            // (no parse/respond) and never coalesce.
            "parse_ns" | "batch_wait_ns" | "respond_ns" => assert!(h.is_empty()),
            _ => assert_eq!(h.count(), n, "{key} must record every request"),
        }
    }
}

#[test]
fn prometheus_has_gauges_and_stage_summaries() {
    let (d, held) = Held::dispatcher(
        Local::new(aligner(), db(40), 2),
        DispatcherConfig::default().tenant_quota(4),
    );
    // A tenant mid-flight shows up in the per-tenant gauge.
    let slow = {
        let d = Arc::clone(&d);
        let mut req = SearchRequest::new(query_text(9, 150));
        req.tenant = Some("teamB".to_string());
        thread::spawn(move || d.search(&req).unwrap())
    };
    wait_inflight(&d, 1);
    assert!(d
        .prometheus()
        .contains("aalign_serve_tenant_inflight{tenant=\"teamB\"} 1"));
    held.open();
    slow.join().unwrap();

    let text = d.prometheus();
    assert!(text.contains("# TYPE aalign_serve_inflight gauge"));
    assert!(text.contains("aalign_serve_inflight 0"));
    assert!(text.contains("# TYPE aalign_serve_queued gauge"));
    assert!(text.contains("# TYPE aalign_serve_tenant_inflight gauge"));
    assert!(text.contains("# TYPE aalign_serve_stage_sweep_seconds summary"));
    assert!(text.contains("aalign_serve_stage_sweep_seconds_count 1"));
    assert!(text.contains("aalign_serve_stage_e2e_seconds{quantile=\"0.999\"}"));
    assert!(text.contains("aalign_serve_flight_events_recorded"));
}

#[test]
fn http_debug_flight_serves_the_ring_as_ndjson() {
    let d = dispatcher(2, 40, DispatcherConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let d = Arc::clone(&d);
        let stop = Arc::clone(&stop);
        thread::spawn(move || serve_http(listener, d, stop))
    };

    let http = |method: &str, path: &str, body: &str| -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status = response
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|c| c.parse().ok())
            .unwrap();
        let payload = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, payload)
    };

    let req = format!("{{\"query\":\"{}\",\"top_n\":3}}", query_text(3, 60));
    let (status, body) = http("POST", "/v1/search", &req);
    assert_eq!(status, 200, "{body}");
    let response = JsonValue::parse(&body).unwrap();
    let rid = response
        .get("request_id")
        .and_then(JsonValue::as_u64)
        .expect("HTTP responses carry the trace id");

    let (status, dump) = http("GET", "/debug/flight", "");
    assert_eq!(status, 200);
    let events = read_events(dump.as_bytes()).expect("flight dump is trace JSONL");
    assert!(!events.is_empty());
    // The HTTP front end contributes parse and respond stages under
    // the same id the dispatcher used for queue and sweep.
    for stage in ["parse", "queue", "sweep", "merge"] {
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::Stage { request, stage: s, .. }
                if *request == rid && s.as_str() == stage
            )),
            "no {stage} event for request {rid} in:\n{dump}"
        );
    }

    stop.store(true, Ordering::Release);
    server.join().unwrap().unwrap();
}

#[test]
fn rpc_search_is_traced_too() {
    let d = dispatcher(2, 40, DispatcherConfig::default());
    let q = query_text(4, 60);
    let input =
        format!(r#"{{"jsonrpc":"2.0","id":1,"method":"search","params":{{"query":"{q}"}}}}"#);
    let response = JsonValue::parse(&respond_line(&input, &d).unwrap()).unwrap();
    let rid = response
        .get("result")
        .and_then(|r| r.get("request_id"))
        .and_then(JsonValue::as_u64)
        .expect("RPC responses carry the trace id");

    let events = d.flight().snapshot();
    for stage in [StageKind::Parse, StageKind::Queue, StageKind::Sweep] {
        assert!(
            events.iter().any(|e| e.request == rid && e.stage == stage),
            "no {stage:?} event for RPC request {rid}"
        );
    }
}
