//! Front-end conformance: the HTTP and stdio JSON-RPC transports
//! speak the same versioned wire schema over one dispatcher.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_core::{AlignConfig, Aligner, GapModel};
use aalign_obs::wire::JsonValue;
use aalign_serve::http::serve_http;
use aalign_serve::rpc::respond_line;
use aalign_serve::{Dispatcher, DispatcherConfig};

fn dispatcher() -> Arc<Dispatcher> {
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    Arc::new(Dispatcher::new(
        aligner,
        swissprot_like_db(7, 40),
        2,
        DispatcherConfig::default(),
    ))
}

fn query_text() -> String {
    let mut rng = seeded_rng(1);
    String::from_utf8(named_query(&mut rng, 60).text()).unwrap()
}

struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl HttpServer {
    fn start(d: Arc<Dispatcher>) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_http(listener, d, stop))
        };
        Self { addr, stop, handle }
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        self.handle.join().unwrap().unwrap();
    }
}

/// Raw HTTP/1.1 round trip; returns (status code, parsed JSON body).
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {response}"));
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

/// Drive a scripted JSON-RPC session one line at a time, as the stdio
/// daemon does; returns one parsed response per request line.
fn rpc(d: &Dispatcher, lines: &[String]) -> Vec<JsonValue> {
    lines
        .iter()
        .filter_map(|line| respond_line(line, d))
        .map(|l| JsonValue::parse(&l).expect("every response is JSON"))
        .collect()
}

#[test]
fn http_health_search_and_metrics_round_trip() {
    let d = dispatcher();
    let server = HttpServer::start(Arc::clone(&d));

    let (status, body) = http(server.addr, "GET", "/v1/health", None);
    assert_eq!(status, 200);
    let health = JsonValue::parse(&body).unwrap();
    assert_eq!(
        health.get("schema_version").and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(health.get("subjects").and_then(JsonValue::as_u64), Some(40));

    let req = format!(
        "{{\"query\":\"{}\",\"top_n\":5,\"id\":\"http-1\"}}",
        query_text()
    );
    let (status, body) = http(server.addr, "POST", "/v1/search", Some(&req));
    assert_eq!(status, 200, "{body}");
    let report = JsonValue::parse(&body).unwrap();
    assert_eq!(
        report.get("schema_version").and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(report.get("id").and_then(|v| v.as_str()), Some("http-1"));
    assert_eq!(
        report.get("batched").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert_eq!(
        report.get("partial").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert_eq!(
        report.get("hits").and_then(|h| h.as_array()).unwrap().len(),
        5
    );
    // The embedded report decodes through the shared wire layer —
    // the HTTP body *is* the canonical schema.
    aalign_par::wire::report_from_wire(&report).unwrap();

    let (status, metrics) = http(server.addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(metrics.contains("# TYPE aalign_serve_requests_total counter"));

    server.shutdown();
}

#[test]
fn http_error_paths_are_typed_never_opaque() {
    let d = dispatcher();
    let server = HttpServer::start(Arc::clone(&d));

    // Unknown route.
    let (status, body) = http(server.addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let err = JsonValue::parse(&body).unwrap();
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str()),
        Some("not_found")
    );

    // Unparseable body.
    let (status, body) = http(server.addr, "POST", "/v1/search", Some("{not json"));
    assert_eq!(status, 400);
    let err = JsonValue::parse(&body).unwrap();
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str()),
        Some("bad_request")
    );

    // Engine-level whole-query failure: typed 422, not a 500.
    let (status, body) = http(server.addr, "POST", "/v1/search", Some("{\"query\":\"\"}"));
    assert_eq!(status, 422);
    let err = JsonValue::parse(&body).unwrap();
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str()),
        Some("empty_query")
    );

    // Cancelling an unknown id.
    let (status, _) = http(
        server.addr,
        "POST",
        "/v1/cancel",
        Some("{\"id\":\"ghost\"}"),
    );
    assert_eq!(status, 404);

    server.shutdown();
}

#[test]
fn endless_header_stream_gets_a_431_not_memory_growth() {
    let d = dispatcher();
    let server = HttpServer::start(Arc::clone(&d));

    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(stream, "GET /v1/health HTTP/1.1\r\nX-Pad: ").unwrap();
    // A never-terminated header line one byte past the 8 KiB cap
    // (counting the "X-Pad: " prefix): the daemon must answer as soon
    // as the cap is hit, without waiting for the line to end. Sending
    // exactly to the cap keeps the close clean — no unread bytes, no
    // RST racing the response.
    stream
        .write_all(&vec![b'a'; (8 << 10) + 1 - "X-Pad: ".len()])
        .unwrap();

    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");
    server.shutdown();
}

#[test]
fn accept_wakes_on_connect() {
    // A closed-loop client's next connect lands just after the accept
    // loop found the backlog empty. The loop waits on the descriptor,
    // so the round trip costs the work in it; a loop that sleeps a
    // fixed period instead makes these 25 take 25 periods (500 ms).
    let server = HttpServer::start(dispatcher());
    let started = Instant::now();
    for _ in 0..25 {
        let (status, _) = http(server.addr, "GET", "/v1/health", None);
        assert_eq!(status, 200);
    }
    let took = started.elapsed();
    server.shutdown();
    assert!(
        took < Duration::from_millis(250),
        "25 sequential round trips took {took:?}"
    );
}

#[test]
fn stop_flag_alone_ends_serve_http() {
    // No connection is ever made: storing the flag and joining is the
    // whole shut-down protocol a caller owes the accept loop.
    let server = HttpServer::start(dispatcher());
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
}

#[test]
fn backlog_is_drained_without_waiting() {
    // 32 connects land in the backlog together; each is accepted as
    // soon as the one before it is handed to its thread.
    const CLIENTS: usize = 32;
    let server = HttpServer::start(dispatcher());
    let addr = server.addr;
    let lined_up = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let lined_up = Arc::clone(&lined_up);
            std::thread::spawn(move || {
                lined_up.wait();
                http(addr, "GET", "/v1/health", None).0
            })
        })
        .collect();
    lined_up.wait();
    let started = Instant::now();
    let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let took = started.elapsed();
    server.shutdown();
    assert_eq!(statuses, [200; CLIENTS]);
    assert!(
        took < Duration::from_millis(250),
        "{CLIENTS} simultaneous round trips took {took:?}"
    );
}

#[test]
fn http_shutdown_drains_and_refuses_new_requests() {
    let d = dispatcher();
    let server = HttpServer::start(Arc::clone(&d));

    let (status, body) = http(server.addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"draining\":true"), "{body}");

    let req = format!("{{\"query\":\"{}\"}}", query_text());
    let (status, body) = http(server.addr, "POST", "/v1/search", Some(&req));
    assert_eq!(status, 503);
    let err = JsonValue::parse(&body).unwrap();
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str()),
        Some("draining")
    );
    assert!(d.wait_idle(Duration::from_secs(5)));
    server.shutdown();
}

/// One operation asked of both doors: the HTTP request, the JSON-RPC
/// method and params, and what each door must answer.
struct Row {
    http: (&'static str, &'static str, Option<String>),
    method: &'static str,
    params: Option<String>,
    status: u16,
    /// The JSON-RPC error code, or `None` for a `result`.
    rpc_error: Option<i64>,
}

/// `doc` with the values that measure time or load — never equal
/// across two dispatchers — replaced by `null`.
fn unmeasured(doc: &JsonValue) -> JsonValue {
    const MEASURED: [&str; 5] = ["metrics", "stages", "uptime_ms", "at_us", "dur_us"];
    match doc {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .iter()
                .map(|(k, v)| {
                    let v = if MEASURED.contains(&k.as_str()) {
                        JsonValue::Null
                    } else {
                        unmeasured(v)
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(unmeasured).collect()),
        other => other.clone(),
    }
}

/// A text body without its measured values: Prometheus latency
/// quantiles and sums lose their value, flight-recorder lines their
/// timestamps and durations (and are sorted: stages of one request
/// may be recorded by different threads).
fn unmeasured_text(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text
        .lines()
        .map(|line| match JsonValue::parse(line) {
            Ok(doc) => unmeasured(&doc).render(),
            Err(_) if line.contains("_seconds{") || line.contains("_seconds_sum") => {
                line.rsplit_once(' ').unwrap().0.to_string()
            }
            Err(_) => line.to_string(),
        })
        .collect();
    lines.sort();
    lines
}

/// The cross-door check, one row per operation: two dispatchers in
/// the same state, one behind each door, get the same request; the
/// HTTP body must equal the JSON-RPC `result` (or, for a refusal, its
/// `error.data`), measured values aside.
#[test]
fn rpc_session_mirrors_http_semantics() {
    let q = query_text();
    let post = |path, body: &str| ("POST", path, Some(body.to_string()));
    let rows = [
        Row {
            http: post("/v1/search", &format!(r#"{{"query":"{q}","top_n":5}}"#)),
            method: "search",
            params: Some(format!(r#"{{"query":"{q}","top_n":5}}"#)),
            status: 200,
            rpc_error: None,
        },
        Row {
            http: post("/v1/search", r#"{"query":""}"#),
            method: "search",
            params: Some(r#"{"query":""}"#.to_string()),
            status: 422,
            rpc_error: Some(-32004),
        },
        Row {
            http: post("/v1/cancel", r#"{"id":"ghost"}"#),
            method: "cancel",
            params: Some(r#"{"id":"ghost"}"#.to_string()),
            status: 404,
            rpc_error: Some(-32005),
        },
        Row {
            http: post("/v1/cancel", "{}"),
            method: "cancel",
            params: Some("{}".to_string()),
            status: 400,
            rpc_error: Some(-32602),
        },
        Row {
            http: ("GET", "/v1/health", None),
            method: "health",
            params: None,
            status: 200,
            rpc_error: None,
        },
        Row {
            http: ("GET", "/metrics", None),
            method: "metrics",
            params: None,
            status: 200,
            rpc_error: None,
        },
        Row {
            http: ("GET", "/debug/flight", None),
            method: "flight",
            params: None,
            status: 200,
            rpc_error: None,
        },
        Row {
            http: ("GET", "/nope", None),
            method: "nope",
            params: None,
            status: 404,
            rpc_error: Some(-32601),
        },
        Row {
            http: post("/v1/shutdown", ""),
            method: "shutdown",
            params: None,
            status: 200,
            rpc_error: None,
        },
        // After shutdown: the draining refusal.
        Row {
            http: post("/v1/search", &format!(r#"{{"query":"{q}"}}"#)),
            method: "search",
            params: Some(format!(r#"{{"query":"{q}"}}"#)),
            status: 503,
            rpc_error: Some(-32002),
        },
    ];

    let (behind_http, behind_rpc) = (dispatcher(), dispatcher());
    let server = HttpServer::start(Arc::clone(&behind_http));
    for (n, row) in rows.iter().enumerate() {
        let (verb, path, body) = &row.http;
        let (status, http_body) = http(server.addr, verb, path, body.as_deref());
        let params = row
            .params
            .as_ref()
            .map_or(String::new(), |p| format!(r#","params":{p}"#));
        let line = format!(
            r#"{{"jsonrpc":"2.0","id":{n},"method":"{}"{params}}}"#,
            row.method
        );
        let response = &rpc(&behind_rpc, &[line])[0];
        let what = format!("{verb} {path} / {}", row.method);
        assert_eq!(status, row.status, "{what}: {http_body}");
        assert_eq!(
            response.get("id").and_then(JsonValue::as_u64),
            Some(n as u64),
            "{what}"
        );

        let error = response.get("error");
        assert_eq!(
            error
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_i64),
            row.rpc_error,
            "{what}: {}",
            response.render()
        );
        // The JSON-RPC door's own refusal (no such method) has no
        // typed envelope to compare.
        if row.rpc_error == Some(-32601) {
            assert!(error.and_then(|e| e.get("data")).is_none(), "{what}");
            continue;
        }
        let answer = match error {
            Some(e) => e
                .get("data")
                .unwrap_or_else(|| panic!("{what}: no error.data")),
            None => response.get("result").unwrap(),
        };
        match answer.get("body").and_then(JsonValue::as_str) {
            Some(text) => {
                assert_eq!(unmeasured_text(&http_body), unmeasured_text(text), "{what}");
                assert!(answer.get("format").and_then(|f| f.as_str()).is_some());
            }
            None => {
                let http_doc = JsonValue::parse(&http_body).unwrap();
                assert_eq!(unmeasured(&http_doc), unmeasured(answer), "{what}");
            }
        }
        // The HTTP connection thread records a search's `respond`
        // stage after the client has its body; wait for it, so both
        // dispatchers enter the next row in the same state.
        let started = Instant::now();
        while behind_http.flight().recorded() != behind_rpc.flight().recorded() {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{what}: stages differ"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    server.shutdown();

    // The report itself decodes through the shared wire layer, and the
    // malformed lines only the JSON-RPC door can receive are typed.
    let responses = rpc(
        &dispatcher(),
        &[
            format!(r#"{{"jsonrpc":"2.0","id":1,"method":"search","params":{{"query":"{q}"}}}}"#),
            "{garbage".to_string(),
            r#"{"jsonrpc":"2.0","id":2}"#.to_string(),
        ],
    );
    aalign_par::wire::report_from_wire(responses[0].get("result").unwrap()).unwrap();
    let code = |i: usize| {
        responses[i]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(JsonValue::as_i64)
    };
    assert_eq!(code(1), Some(-32700), "parse error");
    assert_eq!(code(2), Some(-32600), "invalid request");
}

#[test]
fn both_front_ends_return_byte_identical_reports() {
    // Same dispatcher state, same query ⇒ the HTTP response body and
    // the JSON-RPC `result` must match field for field (ids differ
    // by design, so neither request sets one).
    let q = query_text();
    let d = dispatcher();
    let server = HttpServer::start(Arc::clone(&d));
    let req = format!("{{\"query\":\"{q}\",\"top_n\":3}}");
    let (status, http_body) = http(server.addr, "POST", "/v1/search", Some(&req));
    assert_eq!(status, 200);
    server.shutdown();

    let d = dispatcher();
    let responses = rpc(
        &d,
        &[format!(
            r#"{{"jsonrpc":"2.0","id":1,"method":"search","params":{{"query":"{q}","top_n":3}}}}"#
        )],
    );
    let rpc_report = responses[0].get("result").unwrap();

    let http_report = JsonValue::parse(&http_body).unwrap();
    let strip_timings = |v: &JsonValue| {
        let a = aalign_par::wire::report_from_wire(v).unwrap();
        (a.hits, a.subjects, a.total_residues, a.partial)
    };
    assert_eq!(strip_timings(&http_report), strip_timings(rpc_report));
}
