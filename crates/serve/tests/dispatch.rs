//! Dispatcher semantics end to end: batching, admission control,
//! quotas, cancellation, deadlines, and graceful drain — everything
//! the front ends rely on, tested without a socket in sight.
//!
//! The gates sit above [`SearchBackend`], so the cases that exercise
//! them (coalescing, leader-cancel isolation, queue expiry, drain)
//! run twice: over the real [`Local`] engine and over a [`Stub`] with
//! no engine at all. A case that needs a sweep in flight holds it open
//! ([`common::Held`]) until its assertions are made, so none of them
//! depends on how fast the kernel is.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::{AlignConfig, AlignError, Aligner, GapModel};
use aalign_obs::wire::JsonValue;
use aalign_par::{CancelToken, Hit, SearchMetrics, SearchReport};
use aalign_serve::{
    BackendStatus, Dispatcher, DispatcherConfig, Local, SearchBackend, SearchRequest, ServeError,
};

use common::{wait_inflight, Held};

fn aligner() -> Aligner {
    Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62))
}

fn db(count: usize) -> SeqDatabase {
    swissprot_like_db(7, count)
}

fn query_text(seed: u64, len: usize) -> String {
    let mut rng = seeded_rng(seed);
    String::from_utf8(named_query(&mut rng, len).text()).unwrap()
}

fn dispatcher(threads: usize, count: usize, cfg: DispatcherConfig) -> Arc<Dispatcher> {
    Arc::new(Dispatcher::new(aligner(), db(count), threads, cfg))
}

/// The engine-backed backend the held cases run over.
fn engine() -> Local {
    Local::new(aligner(), db(200), 1)
}

/// A backend with no engine behind it: a sweep is one hit computed
/// from the query alone, or the cancellation the engine would return.
struct Stub;

impl SearchBackend for Stub {
    fn search(
        &self,
        query: &Sequence,
        _top_n: usize,
        _deadline: Option<Duration>,
        cancel: &CancelToken,
    ) -> Result<SearchReport, AlignError> {
        if cancel.is_cancelled() {
            return Err(AlignError::Cancelled);
        }
        let score = query.indices().iter().map(|&i| i32::from(i)).sum();
        Ok(SearchReport {
            hits: vec![Hit {
                db_index: 0,
                len: query.len(),
                score,
            }],
            threads_used: 1,
            subjects: 1,
            total_residues: 0,
            metrics: SearchMetrics::default(),
            trace_events: Vec::new(),
            partial: false,
            errors: Vec::new(),
        })
    }

    fn threads(&self) -> usize {
        1
    }

    fn subjects(&self) -> usize {
        1
    }

    fn respawns(&self) -> u64 {
        0
    }

    fn status(&self) -> BackendStatus {
        BackendStatus {
            queries_served: 0,
            certified: JsonValue::Null,
            shards: JsonValue::Null,
            gauges: Vec::new(),
        }
    }
}

/// Let requests admitted a moment ago attach to the flight they found
/// before the test opens it.
fn let_followers_attach() {
    thread::sleep(Duration::from_millis(50));
}

#[test]
fn identical_concurrent_requests_coalesce_onto_one_sweep() {
    coalescing_case(engine);
    coalescing_case(|| Stub);
}

fn coalescing_case<B: SearchBackend + 'static>(backend: impl Fn() -> B) {
    let (d, held) = Held::dispatcher(backend(), DispatcherConfig::default().max_inflight(8));
    let q = query_text(1, 150);

    // Leader starts a sweep, held open…
    let leader = {
        let d = Arc::clone(&d);
        let q = q.clone();
        thread::spawn(move || d.search(&SearchRequest::new(q)).unwrap())
    };
    wait_inflight(&d, 1);

    // …and three identical requests arrive while it runs.
    let followers: Vec<_> = (0..3)
        .map(|_| {
            let d = Arc::clone(&d);
            let q = q.clone();
            thread::spawn(move || d.search(&SearchRequest::new(q)).unwrap())
        })
        .collect();
    wait_inflight(&d, 4);
    let_followers_attach();
    held.open();
    let lead = leader.join().unwrap();
    let follows: Vec<_> = followers.into_iter().map(|h| h.join().unwrap()).collect();

    assert!(!lead.batched, "the leader ran its own sweep");
    let batched = follows.iter().filter(|r| r.batched).count();
    assert!(
        batched >= 1,
        "at least one request must coalesce onto the in-flight sweep"
    );
    // The batching is *observable in the metrics*: the shared report
    // carries the follower count, and the service counter agrees.
    for r in follows.iter().filter(|r| r.batched) {
        assert!(
            Arc::ptr_eq(&r.report, &lead.report),
            "followers share the leader's report, not a copy"
        );
        assert_eq!(r.report.metrics.coalesced as usize, batched);
    }
    let counters = d.health();
    let coalesced_total = counters
        .get("counters")
        .and_then(|c| c.get("coalesced_total"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert_eq!(coalesced_total as usize, batched);
    assert!(d
        .prometheus()
        .contains(&format!("aalign_serve_coalesced_total {batched}")));

    // Identical query *after* the sweep finished: fresh sweep, not
    // stale cache — batching is strictly in-flight coalescing.
    let later = d.search(&SearchRequest::new(q)).unwrap();
    assert!(!later.batched);
    assert_eq!(later.report.hits, lead.report.hits);
}

#[test]
fn no_batch_requests_never_coalesce() {
    let d = dispatcher(2, 200, DispatcherConfig::default().max_inflight(4));
    let q = query_text(2, 80);
    let mut req = SearchRequest::new(q);
    req.no_batch = true;
    let a = {
        let d = Arc::clone(&d);
        let req = req.clone();
        thread::spawn(move || d.search(&req).unwrap())
    };
    let b = d.search(&req).unwrap();
    let a = a.join().unwrap();
    assert!(!a.batched && !b.batched);
    assert_eq!(a.report.hits, b.report.hits, "same inputs, same hits");
}

#[test]
fn full_queue_is_refused_immediately_as_overloaded() {
    let (d, held) = Held::dispatcher(
        engine(),
        DispatcherConfig::default().max_inflight(1).max_queued(0),
    );
    let blocker = {
        let d = Arc::clone(&d);
        let q = query_text(3, 150);
        thread::spawn(move || d.search(&SearchRequest::new(q)).unwrap())
    };
    wait_inflight(&d, 1);

    // Different query (no coalescing possible), zero queue slots:
    // the refusal must be immediate and typed.
    let t = Instant::now();
    let err = d
        .search(&SearchRequest::new(query_text(4, 80)))
        .unwrap_err();
    assert!(matches!(err, ServeError::Overloaded { .. }), "{err}");
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "overload must not queue-wait"
    );
    let wire = err.to_wire().render();
    assert!(wire.contains("\"schema_version\":1"), "{wire}");
    assert!(wire.contains("\"code\":\"overloaded\""), "{wire}");
    held.open();
    blocker.join().unwrap();
}

#[test]
fn deadline_expiring_in_queue_yields_a_partial_report_not_an_error() {
    queue_expiry_case(engine());
    queue_expiry_case(Stub);
}

fn queue_expiry_case<B: SearchBackend + 'static>(backend: B) {
    let (d, held) = Held::dispatcher(
        backend,
        DispatcherConfig::default().max_inflight(1).max_queued(4),
    );
    let blocker = {
        let d = Arc::clone(&d);
        let q = query_text(5, 150);
        thread::spawn(move || d.search(&SearchRequest::new(q)).unwrap())
    };
    wait_inflight(&d, 1);

    let mut req = SearchRequest::new(query_text(6, 80));
    req.deadline_ms = Some(60);
    let resp = d.search(&req).unwrap();
    assert!(resp.report.partial);
    assert!(resp
        .report
        .errors
        .iter()
        .any(|e| matches!(e, AlignError::DeadlineExceeded)));
    held.open();
    blocker.join().unwrap();
}

#[test]
fn tenant_quota_fences_noisy_neighbors() {
    let (d, held) = Held::dispatcher(
        engine(),
        DispatcherConfig::default().max_inflight(4).tenant_quota(1),
    );
    let blocker = {
        let d = Arc::clone(&d);
        let mut req = SearchRequest::new(query_text(7, 150));
        req.tenant = Some("noisy".to_string());
        thread::spawn(move || d.search(&req).unwrap())
    };
    wait_inflight(&d, 1);

    let mut req = SearchRequest::new(query_text(8, 60));
    req.tenant = Some("noisy".to_string());
    let err = d.search(&req).unwrap_err();
    assert_eq!(
        err,
        ServeError::QuotaExhausted {
            tenant: "noisy".to_string(),
            quota: 1
        }
    );

    // A different tenant is unaffected: admitted beside the noisy one.
    let quiet = {
        let d = Arc::clone(&d);
        let mut req = SearchRequest::new(query_text(8, 60));
        req.tenant = Some("quiet".to_string());
        thread::spawn(move || d.search(&req))
    };
    wait_inflight(&d, 2);
    held.open();
    assert!(quiet.join().unwrap().is_ok());
    blocker.join().unwrap();

    // The noisy tenant's slot is released once its request finishes.
    let mut req = SearchRequest::new(query_text(8, 60));
    req.tenant = Some("noisy".to_string());
    assert!(d.search(&req).is_ok());
}

#[test]
fn cancellation_by_request_id_stops_an_inflight_search() {
    // Never opened: the cancel alone lets the held sweep go.
    let (d, _held) = Held::dispatcher(engine(), DispatcherConfig::default());
    let handle = {
        let d = Arc::clone(&d);
        let mut req = SearchRequest::new(query_text(9, 150));
        req.id = Some("victim".to_string());
        thread::spawn(move || d.search(&req))
    };
    wait_inflight(&d, 1);
    d.cancel("victim").unwrap();
    let err = handle.join().unwrap().unwrap_err();
    assert_eq!(err, ServeError::Engine(AlignError::Cancelled));

    // The id is deregistered once the request resolves…
    assert!(matches!(d.cancel("victim"), Err(ServeError::NotFound(_))));
    // …and unknown ids were never registered at all.
    assert!(matches!(d.cancel("ghost"), Err(ServeError::NotFound(_))));
}

#[test]
fn cancelling_the_leader_does_not_cancel_coalesced_followers() {
    leader_cancel_case(engine());
    leader_cancel_case(Stub);
}

fn leader_cancel_case<B: SearchBackend + 'static>(backend: B) {
    let (d, held) = Held::dispatcher(backend, DispatcherConfig::default().max_inflight(8));
    let q = query_text(15, 150);
    let leader = {
        let d = Arc::clone(&d);
        let mut req = SearchRequest::new(q.clone());
        req.id = Some("leader".to_string());
        thread::spawn(move || d.search(&req))
    };
    wait_inflight(&d, 1);
    let follower = {
        let d = Arc::clone(&d);
        let q = q.clone();
        thread::spawn(move || d.search(&SearchRequest::new(q)))
    };
    wait_inflight(&d, 2);
    // The second request attaches to the leader's flight before the
    // leader is cancelled out from under it.
    let_followers_attach();
    d.cancel("leader").unwrap();

    // The cancelled caller gets the cancellation…
    let err = leader.join().unwrap().unwrap_err();
    assert_eq!(err, ServeError::Engine(AlignError::Cancelled));
    // …but the coalesced request re-runs the sweep and completes.
    held.open();
    let resp = follower.join().unwrap().unwrap();
    assert!(!resp.report.partial, "follower must not inherit the cancel");
    assert!(!resp.report.hits.is_empty());

    // Exactly one request was cancelled, per the counters.
    let cancelled = d
        .health()
        .get("counters")
        .and_then(|c| c.get("cancelled"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert_eq!(cancelled, 1);
}

#[test]
fn duplicate_inflight_request_ids_are_rejected() {
    let (d, held) = Held::dispatcher(engine(), DispatcherConfig::default().max_inflight(4));
    let first = {
        let d = Arc::clone(&d);
        let mut req = SearchRequest::new(query_text(10, 150));
        req.id = Some("dup".to_string());
        thread::spawn(move || d.search(&req).unwrap())
    };
    wait_inflight(&d, 1);
    let mut req = SearchRequest::new(query_text(11, 60));
    req.id = Some("dup".to_string());
    let err = d.search(&req).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
    held.open();
    first.join().unwrap();

    // After the first resolves, the id is reusable.
    let mut req = SearchRequest::new(query_text(11, 60));
    req.id = Some("dup".to_string());
    assert!(d.search(&req).is_ok());
}

#[test]
fn invalid_queries_are_bad_requests_not_engine_errors() {
    let d = dispatcher(1, 20, DispatcherConfig::default());
    let err = d
        .search(&SearchRequest::new("NOT A PROTEIN 123"))
        .unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
    // Empty queries reach the engine and come back typed.
    let err = d.search(&SearchRequest::new("")).unwrap_err();
    assert_eq!(err, ServeError::Engine(AlignError::EmptyQuery));
}

#[test]
fn graceful_drain_completes_inflight_bit_exact_and_refuses_new() {
    drain_case(engine);
    drain_case(|| Stub);
}

fn drain_case<B: SearchBackend + 'static>(backend: impl Fn() -> B) {
    let (d, held) = Held::dispatcher(backend(), DispatcherConfig::default());
    let q = query_text(12, 150);
    // Reference result from an identical dispatcher, undisturbed.
    let reference = Dispatcher::with_backend(Arc::new(backend()), DispatcherConfig::default())
        .search(&SearchRequest::new(q.clone()))
        .unwrap();

    let inflight = {
        let d = Arc::clone(&d);
        let q = q.clone();
        thread::spawn(move || d.search(&SearchRequest::new(q)).unwrap())
    };
    wait_inflight(&d, 1);
    d.begin_drain();

    // New work is refused with the typed `draining` response.
    let err = d
        .search(&SearchRequest::new(query_text(13, 60)))
        .unwrap_err();
    assert_eq!(err, ServeError::Draining);
    let wire = err.to_wire().render();
    assert!(wire.contains("\"code\":\"draining\""), "{wire}");
    assert_eq!(
        d.health().get("status").and_then(|s| s.as_str()),
        Some("draining")
    );

    // The in-flight request runs to completion — same hits, bit for
    // bit, as the undisturbed run.
    held.open();
    let resp = inflight.join().unwrap();
    assert!(!resp.report.partial, "drain must not truncate the sweep");
    assert_eq!(resp.report.hits, reference.report.hits);
    assert!(d.wait_idle(Duration::from_secs(10)));
}

#[test]
fn wait_idle_times_out_while_work_is_still_running() {
    let (d, held) = Held::dispatcher(engine(), DispatcherConfig::default());
    let inflight = {
        let d = Arc::clone(&d);
        let q = query_text(14, 150);
        thread::spawn(move || d.search(&SearchRequest::new(q)).unwrap())
    };
    wait_inflight(&d, 1);
    assert!(!d.wait_idle(Duration::from_millis(50)));
    held.open();
    inflight.join().unwrap();
    assert!(d.wait_idle(Duration::from_secs(5)));
}

#[test]
fn zero_deadline_requests_complete_with_partial_reports_under_load() {
    // A herd of expired-deadline requests: every one must complete
    // with a well-formed partial report — no hangs, no refusals.
    let d = dispatcher(2, 200, DispatcherConfig::default().max_inflight(2));
    let done = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel();
    for i in 0..6u64 {
        let d = Arc::clone(&d);
        let done = Arc::clone(&done);
        let tx = tx.clone();
        thread::spawn(move || {
            let mut req = SearchRequest::new(query_text(20 + i, 80));
            req.deadline_ms = Some(0);
            req.no_batch = i % 2 == 0;
            let resp = d.search(&req).unwrap();
            assert!(resp.report.partial);
            assert!(resp
                .report
                .errors
                .iter()
                .any(|e| matches!(e, AlignError::DeadlineExceeded)));
            // The wire document is well-formed and marked partial.
            let wire = resp.to_wire().render();
            assert!(wire.contains("\"partial\":true"), "{wire}");
            done.fetch_add(1, Ordering::Relaxed);
            tx.send(()).unwrap();
        });
    }
    drop(tx);
    let watchdog = Instant::now() + Duration::from_secs(60);
    for _ in 0..6 {
        let left = watchdog.saturating_duration_since(Instant::now());
        rx.recv_timeout(left)
            .expect("an expired-deadline request hung");
    }
    assert_eq!(done.load(Ordering::Relaxed), 6);
}

#[test]
fn startup_certificates_surface_in_health_and_reports() {
    // The dispatcher proves width certificates against the database's
    // length bounds at construction; health advertises them and every
    // sweep stamps the certified width into its metrics.
    let d = dispatcher(1, 20, DispatcherConfig::default());
    let health = d.health();
    let cert = health.get("certified").expect("health carries certified");
    let widths = cert
        .get("granted_widths")
        .and_then(JsonValue::as_array)
        .expect("granted_widths is an array");
    // BLOSUM62 with affine(-10,-2) over realistic protein lengths:
    // i8 saturates, i16 is provably rescue-free.
    let widths: Vec<u64> = widths.iter().filter_map(JsonValue::as_u64).collect();
    assert!(widths.contains(&16), "i16 must be certified: {widths:?}");
    assert!(!widths.contains(&8), "i8 must be denied here: {widths:?}");
    let max_subject = cert.get("max_subject").and_then(JsonValue::as_u64).unwrap();
    assert_eq!(max_subject as usize, db(20).stats().max_len);

    let resp = d.search(&SearchRequest::new(query_text(33, 120))).unwrap();
    assert_eq!(resp.report.metrics.certified_width, 16);
    assert_eq!(resp.report.metrics.rescued, 0);
}
