//! Chaos harness: a daemon with a scripted fault plan must convert
//! every injected failure into a well-formed `partial: true` wire
//! response — never a hang, never an opaque error.
//!
//! Every blocking step runs under a watchdog (`recv_timeout`), so a
//! regression that hangs fails the suite instead of wedging it.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_core::{AlignConfig, AlignError, Aligner, GapModel};
use aalign_obs::wire::JsonValue;
use aalign_par::FaultPlan;
use aalign_serve::{Dispatcher, DispatcherConfig, Local, SearchRequest};

const WATCHDOG: Duration = Duration::from_secs(60);

fn chaos_dispatcher(plan: FaultPlan) -> Arc<Dispatcher> {
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let local = Local::new(aligner, swissprot_like_db(7, 60), 2).fault_plan(Arc::new(plan));
    Arc::new(Dispatcher::with_backend(
        Arc::new(local),
        DispatcherConfig::default(),
    ))
}

fn query_text(seed: u64) -> String {
    let mut rng = seeded_rng(seed);
    String::from_utf8(named_query(&mut rng, 60).text()).unwrap()
}

/// Run `f` on its own thread and insist it finishes inside the
/// watchdog — the "never hangs" half of the chaos contract.
fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(WATCHDOG)
        .expect("chaos request hung past the watchdog")
}

#[test]
fn killed_worker_surfaces_as_partial_response_then_daemon_recovers() {
    let d = chaos_dispatcher(FaultPlan::new().kill_worker(0));

    let resp = {
        let d = Arc::clone(&d);
        bounded(move || d.search(&SearchRequest::new(query_text(1))).unwrap())
    };
    assert!(resp.report.partial, "a killed worker means partial results");
    assert!(
        resp.report
            .errors
            .iter()
            .any(|e| matches!(e, AlignError::WorkerLost { .. })),
        "{:?}",
        resp.report.errors
    );
    // The wire document is complete and self-describing.
    let wire = resp.to_wire();
    assert_eq!(wire.get("partial").and_then(JsonValue::as_bool), Some(true));
    let errors = wire.get("errors").unwrap().as_array().unwrap();
    assert!(errors
        .iter()
        .any(|e| e.get("code").and_then(|c| c.as_str()) == Some("worker_lost")));

    // The kill is one-shot and the engine respawns the worker: the
    // next request on the same daemon completes clean.
    let resp = {
        let d = Arc::clone(&d);
        bounded(move || d.search(&SearchRequest::new(query_text(2))).unwrap())
    };
    assert!(!resp.report.partial, "{:?}", resp.report.errors);
    assert!(d.engine().workers_respawned() >= 1);
}

#[test]
fn scripted_panic_surfaces_as_partial_not_500() {
    let d = chaos_dispatcher(FaultPlan::new().panic_on_slot(0));
    let resp = {
        let d = Arc::clone(&d);
        bounded(move || d.search(&SearchRequest::new(query_text(3))).unwrap())
    };
    assert!(resp.report.partial);
    assert!(resp
        .report
        .errors
        .iter()
        .any(|e| matches!(e, AlignError::WorkerPanicked { .. })));
}

#[test]
fn faults_and_deadlines_compose_into_one_partial_report() {
    let d = chaos_dispatcher(FaultPlan::new().kill_worker(0));
    let mut req = SearchRequest::new(query_text(4));
    req.deadline_ms = Some(0);
    let resp = {
        let d = Arc::clone(&d);
        bounded(move || d.search(&req).unwrap())
    };
    assert!(resp.report.partial);
    let wire = resp.to_wire().render();
    assert!(wire.contains("\"partial\":true"), "{wire}");
}

#[test]
fn http_front_end_returns_200_partial_under_faults() {
    let d = chaos_dispatcher(FaultPlan::new().kill_worker(0));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        let d = Arc::clone(&d);
        std::thread::spawn(move || aalign_serve::http::serve_http(listener, d, stop))
    };

    let body = bounded(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(WATCHDOG)).unwrap();
        let req = format!("{{\"query\":\"{}\"}}", query_text(5));
        write!(
            stream,
            "POST /v1/search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{req}",
            req.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    });
    assert!(
        body.starts_with("HTTP/1.1 200 OK"),
        "faults degrade, they do not 500: {body}"
    );
    let payload = body.split_once("\r\n\r\n").unwrap().1;
    let report = JsonValue::parse(payload).unwrap();
    assert_eq!(
        report.get("partial").and_then(JsonValue::as_bool),
        Some(true)
    );

    stop.store(true, Ordering::Release);
    server.join().unwrap().unwrap();
}

#[test]
fn rpc_front_end_returns_partial_result_under_faults() {
    let d = chaos_dispatcher(FaultPlan::new().kill_worker(0));
    let line = format!(
        r#"{{"jsonrpc":"2.0","id":1,"method":"search","params":{{"query":"{}"}}}}"#,
        query_text(6)
    );
    let out = bounded(move || aalign_serve::rpc::respond_line(&line, &d).unwrap());
    let resp = JsonValue::parse(&out).unwrap();
    let report = resp
        .get("result")
        .expect("partial is a result, not an error");
    assert_eq!(
        report.get("partial").and_then(JsonValue::as_bool),
        Some(true)
    );
}
