//! Shard-supervisor integration: N-shard answers must be
//! bit-identical to the single-process engine, shard loss must
//! degrade to an exactly-accounted partial answer, and chaos (child
//! SIGKILLs mid-query) must never hang the supervisor.
//!
//! These tests spawn real `aalign serve --stdio` child processes via
//! `CARGO_BIN_EXE_aalign`, so they exercise the whole stack: wire
//! protocol, readiness pings, retry/backoff, merge, drain.
//!
//! The cross-door cases put the same dispatcher over the local engine
//! and over a supervisor, behind both front ends, and hold every door
//! to the library's answer.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use aalign::bio::matrices::BLOSUM62;
use aalign::bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign::bio::{SeqDatabase, Sequence};
use aalign::core::AlignError;
use aalign::obs::wire::JsonValue;
use aalign::par::{EngineHandle, Hit, SearchOptions};
use aalign::serve::{
    http, rpc, Dispatcher, DispatcherConfig, SearchBackend, SearchRequest, ServeError,
};
use aalign::shard::{ShardOptions, ShardQuery, Supervisor, WorkerCommand};
use aalign::{AlignConfig, Aligner, GapModel, Strategy};

/// Children run this binary's default serve aligner (local affine
/// −10/−2 over BLOSUM62, hybrid strategy); the reference sweep must
/// use exactly the same configuration for bit-exact comparison.
fn reference_aligner() -> Aligner {
    Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62))
        .with_strategy(Strategy::Hybrid)
}

fn worker_cmd() -> WorkerCommand {
    WorkerCommand::serve_stdio(
        env!("CARGO_BIN_EXE_aalign"),
        &["--threads".to_string(), "1".to_string()],
    )
}

fn reference_hits(db: &SeqDatabase, query_text: &str, top_n: usize) -> Vec<Hit> {
    let query = Sequence::protein("query", query_text.as_bytes()).unwrap();
    let report = EngineHandle::new(1)
        .search(
            &reference_aligner(),
            &query,
            db,
            &SearchOptions::new().top_n(top_n),
        )
        .unwrap();
    report.hits
}

/// Run `f` on its own thread and fail loudly if it wedges — the
/// "never hangs" half of every chaos pin.
fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(_) => panic!("watchdog: sharded search hung past {secs}s"),
    }
}

#[test]
fn n_shard_answers_are_bit_identical_to_the_single_process_engine() {
    let db = swissprot_like_db(31, 50);
    let mut rng = seeded_rng(77);
    let queries: Vec<String> = (0..2)
        .map(|i| String::from_utf8(named_query(&mut rng, 40 + i * 25).text()).unwrap())
        .collect();

    for shards in [1usize, 2, 4] {
        let sup = Supervisor::launch(&db, worker_cmd(), ShardOptions::new(shards))
            .unwrap_or_else(|e| panic!("launch {shards} shards: {e}"));
        assert_eq!(sup.shards(), shards);
        // `top_n = 0` (every hit) pins the full ranking including
        // every tie; `top_n = 7` pins the truncated-merge contract.
        for (q, top_n) in queries.iter().zip([0usize, 7]) {
            let report = sup
                .search(&ShardQuery::new(q.clone()).top_n(top_n))
                .unwrap_or_else(|e| panic!("{shards}-shard search: {e}"));
            assert!(!report.partial, "healthy shards must answer completely");
            assert_eq!(report.subjects, db.len());
            assert_eq!(report.metrics.shards.ok, shards as u64);
            assert_eq!(report.metrics.shards.failed, 0);
            // Bit-exact: same scores, same (rebased) indices, same
            // tie order as one engine sweeping the whole database.
            assert_eq!(
                report.hits,
                reference_hits(&db, q, top_n),
                "{shards} shards, top_n {top_n}"
            );
        }
        assert!(sup.shutdown(), "healthy children must drain cleanly");
    }
}

#[test]
fn shard_ranges_partition_the_database_contiguously() {
    let db = swissprot_like_db(5, 23);
    let sup = Supervisor::launch(&db, worker_cmd(), ShardOptions::new(4)).unwrap();
    let ranges = sup.ranges();
    assert_eq!(ranges.len(), 4);
    assert_eq!(ranges[0].0, 0);
    assert_eq!(ranges.last().unwrap().1, db.len());
    for pair in ranges.windows(2) {
        assert_eq!(pair[0].1, pair[1].0, "contiguous: {ranges:?}");
    }
    assert!(sup.shutdown());
}

/// The hits of a response document, in order.
fn wire_hits(report: &JsonValue) -> Vec<Hit> {
    let hits = report.get("hits").and_then(JsonValue::as_array).unwrap();
    hits.iter()
        .map(|h| aalign::par::wire::hit_from_wire(h).unwrap())
        .collect()
}

/// One `search` through the stdio JSON-RPC door; the `result` object.
fn search_over_stdio<B: SearchBackend>(d: &Dispatcher<B>, req: &SearchRequest) -> JsonValue {
    let line = format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"search\",\"params\":{}}}",
        req.to_wire().render()
    );
    let reply = rpc::respond_line(&line, d).expect("a request line gets a reply");
    let reply = JsonValue::parse(&reply).unwrap();
    reply
        .get("result")
        .cloned()
        .unwrap_or_else(|| panic!("stdio search failed: {}", reply.render()))
}

/// One `POST /v1/search` through the HTTP door; the response body.
fn search_over_http<B: SearchBackend + 'static>(
    d: &Arc<Dispatcher<B>>,
    req: &SearchRequest,
) -> JsonValue {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let (d, stop) = (Arc::clone(d), Arc::clone(&stop));
        thread::spawn(move || http::serve_http(listener, d, stop))
    };
    let body = req.to_wire().render();
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /v1/search HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    stop.store(true, Ordering::Release);
    server.join().unwrap().unwrap();
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    let (_, payload) = response.split_once("\r\n\r\n").unwrap();
    JsonValue::parse(payload).unwrap()
}

/// Both front ends of one dispatcher answer `req` with exactly
/// `expected`; returns the two response documents.
fn assert_both_doors<B: SearchBackend + 'static>(
    d: &Arc<Dispatcher<B>>,
    req: &SearchRequest,
    expected: &[Hit],
    door: &str,
) -> [JsonValue; 2] {
    let docs = [search_over_http(d, req), search_over_stdio(d, req)];
    for (doc, front) in docs.iter().zip(["http", "stdio"]) {
        assert_eq!(
            doc.get("partial").and_then(JsonValue::as_bool),
            Some(false),
            "{door} over {front}"
        );
        assert_eq!(wire_hits(doc), expected, "{door} over {front}");
    }
    docs
}

/// ROADMAP aim 3: one query, every front door, bit-identical hits
/// (score, `db_index`, tie order) — the library sweep is the
/// reference; the dispatcher over the local engine and over N shards
/// must match it through HTTP and through stdio.
#[test]
fn one_query_gives_bit_identical_hits_through_every_front_door() {
    with_watchdog(240, || {
        let db = swissprot_like_db(23, 60);
        let mut rng = seeded_rng(5);
        let q = String::from_utf8(named_query(&mut rng, 55).text()).unwrap();
        let mut req = SearchRequest::new(q.as_str());
        req.top_n = 5;
        let expected = reference_hits(&db, &q, 5);
        assert_eq!(expected.len(), 5);

        let local = Arc::new(Dispatcher::new(
            reference_aligner(),
            db.clone(),
            1,
            DispatcherConfig::default(),
        ));
        assert_both_doors(&local, &req, &expected, "local");

        for shards in [1u64, 2] {
            let sup =
                Supervisor::launch(&db, worker_cmd(), ShardOptions::new(shards as usize)).unwrap();
            let sharded = Arc::new(Dispatcher::with_backend(
                Arc::clone(&sup),
                DispatcherConfig::default(),
            ));
            let door = format!("{shards} shard(s)");
            for doc in assert_both_doors(&sharded, &req, &expected, &door) {
                let ok = doc
                    .get("metrics")
                    .and_then(|m| m.get("shards"))
                    .and_then(|s| s.get("ok"))
                    .and_then(JsonValue::as_u64);
                assert_eq!(ok, Some(shards), "{door}");
            }
            // Health describes the backend that swept, not an idle pool.
            let health = sharded.health();
            assert_eq!(
                health.get("queries_served").and_then(JsonValue::as_u64),
                Some(2)
            );
            assert_eq!(
                health.get("threads").and_then(JsonValue::as_u64),
                Some(shards)
            );
            let count = health.get("shards").and_then(|s| s.get("count"));
            assert_eq!(count.and_then(JsonValue::as_u64), Some(shards));
            assert!(sup.shutdown(), "healthy children must drain cleanly");
        }
    });
}

/// Poll (bounded) until `ready` holds.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ready() {
        assert!(Instant::now() < deadline, "never saw: {what}");
        thread::sleep(Duration::from_millis(2));
    }
}

/// A sharded request takes the dispatcher's one path, so it coalesces
/// and cancels exactly like a local one — and a cancel is not a
/// fault: no child dies, the next query is whole.
#[test]
fn sharded_dispatcher_coalesces_and_cancels_like_a_local_one() {
    with_watchdog(240, || {
        // Big enough that a fan-out outlives the orchestration below
        // (hundreds of milliseconds), whichever profile built the
        // children.
        let db = swissprot_like_db(19, if cfg!(debug_assertions) { 600 } else { 12_000 });
        let mut rng = seeded_rng(3);
        let q = String::from_utf8(named_query(&mut rng, 200).text()).unwrap();
        let sup = Supervisor::launch(&db, worker_cmd(), ShardOptions::new(2)).unwrap();
        let d = Arc::new(Dispatcher::with_backend(
            Arc::clone(&sup),
            DispatcherConfig::default(),
        ));
        let search = |req: SearchRequest| {
            let d = Arc::clone(&d);
            thread::spawn(move || d.search(&req))
        };

        // Two identical requests: the second arrives once the first is
        // inside the supervisor and rides on its fan-out.
        let leader = search(SearchRequest::new(q.as_str()));
        wait_until("the leader's fan-out", || sup.queries_served() == 1);
        let follower = search(SearchRequest::new(q.as_str()));
        let (leader, follower) = (
            leader.join().unwrap().unwrap(),
            follower.join().unwrap().unwrap(),
        );
        assert!(!leader.batched && follower.batched);
        assert_eq!(leader.report.metrics.coalesced, 1);
        assert!(Arc::ptr_eq(&leader.report, &follower.report));
        assert_eq!(sup.queries_served(), 1, "one fan-out served both");

        // Cancel by request id while the children are computing.
        let mut victim = SearchRequest::new(q.as_str());
        victim.id = Some("victim".to_string());
        let victim = search(victim);
        wait_until("the victim's fan-out", || sup.queries_served() == 2);
        d.cancel("victim").unwrap();
        assert_eq!(
            victim.join().unwrap().unwrap_err(),
            ServeError::Engine(AlignError::Cancelled)
        );

        // The abandoned children were left alone: the next query is
        // complete and bit-exact, and nobody was respawned.
        let mut later = SearchRequest::new(q.as_str());
        later.top_n = 7;
        let later = d.search(&later).unwrap();
        assert!(!later.report.partial, "{:?}", later.report.errors);
        assert_eq!(later.report.metrics.shards.ok, 2);
        assert_eq!(later.report.hits, reference_hits(&db, &q, 7));
        assert_eq!(sup.respawns(), 0, "a cancel is not a fault");
        assert_eq!(sup.shards_live(), 2);
        assert!(sup.shutdown());
    });
}

mod chaos {
    use super::*;
    use aalign::shard::ShardFaultPlan;

    /// A shard whose child is SIGKILLed on every dispatch (retry
    /// included) is lost for the query: the merged report must be
    /// `partial: true`, the uncovered range must be *exactly* the
    /// dead shard's, and the survivors' hits must be bit-exact.
    #[test]
    fn dead_shard_reports_exactly_its_uncovered_range() {
        with_watchdog(120, || {
            let db = swissprot_like_db(9, 40);
            let mut rng = seeded_rng(11);
            let q = String::from_utf8(named_query(&mut rng, 50).text()).unwrap();
            let victim = 1usize;
            let opts = ShardOptions::new(4)
                .fault(ShardFaultPlan {
                    shard: victim,
                    remaining: None,
                })
                .backoff(Duration::from_millis(5), Duration::from_millis(50), 7);
            let sup = Supervisor::launch(&db, worker_cmd(), opts).unwrap();
            let (lost_start, lost_end) = sup.ranges()[victim];

            let report = sup.search(&ShardQuery::new(q.clone())).unwrap();
            assert!(report.partial);
            assert_eq!(report.metrics.shards.failed, 1);
            assert_eq!(report.metrics.shards.ok, 3);
            assert_eq!(report.metrics.shards.retried, 1, "one idempotent retry");
            assert!(
                report.errors.contains(&AlignError::ShardLost {
                    shard: victim,
                    start: lost_start,
                    end: lost_end,
                }),
                "{:?}",
                report.errors
            );
            // Survivors bit-exact: the merged hits are precisely the
            // reference ranking with the dead shard's range removed.
            let expected: Vec<Hit> = reference_hits(&db, &q, 0)
                .into_iter()
                .filter(|h| h.db_index < lost_start || h.db_index >= lost_end)
                .collect();
            assert_eq!(report.hits, expected);
            sup.shutdown();
        });
    }

    /// Sweep kills across different shards and kill budgets: every
    /// query completes (no hang), survivors stay bit-exact, and a
    /// single kill is always rescued by the idempotent retry.
    #[test]
    fn chaos_sweep_never_hangs_and_single_kills_are_rescued() {
        with_watchdog(240, || {
            let db = swissprot_like_db(13, 30);
            let mut rng = seeded_rng(29);
            let q = String::from_utf8(named_query(&mut rng, 45).text()).unwrap();
            let expected = reference_hits(&db, &q, 0);

            for victim in 0..3usize {
                let opts = ShardOptions::new(3)
                    .fault(ShardFaultPlan::kill_first(victim, 1))
                    .backoff(Duration::from_millis(5), Duration::from_millis(50), 3);
                let sup = Supervisor::launch(&db, worker_cmd(), opts).unwrap();
                let report = sup.search(&ShardQuery::new(q.clone())).unwrap();
                assert!(
                    !report.partial,
                    "a single kill of shard {victim} must be rescued by the retry: {:?}",
                    report.errors
                );
                assert_eq!(report.metrics.shards.retried, 1);
                assert_eq!(report.metrics.shards.ok, 3);
                assert_eq!(report.hits, expected, "victim {victim}");
                assert_eq!(sup.respawns(), 1, "one respawn served the retry");
                sup.shutdown();
            }
        });
    }

    /// Repeated deaths trip the circuit breaker: the shard is marked
    /// dead, later queries skip it immediately (degraded, not
    /// hanging), and the survivors keep answering.
    #[test]
    fn breaker_trips_after_repeated_deaths_and_search_continues() {
        with_watchdog(240, || {
            let db = swissprot_like_db(17, 24);
            let mut rng = seeded_rng(41);
            let q = String::from_utf8(named_query(&mut rng, 40).text()).unwrap();
            let opts = ShardOptions::new(2)
                .fault(ShardFaultPlan {
                    shard: 0,
                    remaining: None,
                })
                .backoff(Duration::from_millis(5), Duration::from_millis(50), 1)
                .breaker(2, Duration::from_secs(60))
                .heartbeat(None); // deaths counted on the query path only
            let sup = Supervisor::launch(&db, worker_cmd(), opts).unwrap();

            // First query: dispatch kill + retry kill = 2 deaths →
            // breaker trips during collection.
            let first = sup.search(&ShardQuery::new(q.clone())).unwrap();
            assert!(first.partial);
            assert_eq!(sup.shards_dead(), 1, "breaker must have tripped");

            // Later queries skip the dead shard without waiting on it.
            let later = sup.search(&ShardQuery::new(q.clone())).unwrap();
            assert!(later.partial);
            assert_eq!(later.metrics.shards.failed, 1);
            assert_eq!(
                later.metrics.shards.retried, 0,
                "dead shards are not retried"
            );
            let (s, e) = sup.ranges()[0];
            assert!(later.errors.contains(&AlignError::ShardLost {
                shard: 0,
                start: s,
                end: e
            }));
            // The survivor's half is still bit-exact.
            let expected: Vec<Hit> = reference_hits(&db, &q, 0)
                .into_iter()
                .filter(|h| h.db_index >= e)
                .collect();
            assert_eq!(later.hits, expected);
            sup.shutdown();
        });
    }

    /// Status never waits behind a search: `health` and the shard
    /// gauges read the supervisor's own record, not the slot locks a
    /// fan-out holds until it merges. Each child stalls its first
    /// subject for 2 s, so the search is still in flight when they
    /// are read.
    #[test]
    fn status_answers_while_a_search_is_in_flight() {
        with_watchdog(120, || {
            let db = swissprot_like_db(7, 40);
            let mut rng = seeded_rng(5);
            let q = String::from_utf8(named_query(&mut rng, 40).text()).unwrap();
            let args = ["--threads", "1", "--fault-plan", "stall@0:2000ms"].map(String::from);
            let cmd = WorkerCommand::serve_stdio(env!("CARGO_BIN_EXE_aalign"), &args);
            let sup = Supervisor::launch(&db, cmd, ShardOptions::new(2)).unwrap();
            let search = {
                let sup = Arc::clone(&sup);
                thread::spawn(move || sup.search(&ShardQuery::new(q)))
            };
            thread::sleep(Duration::from_millis(200));

            let d = Dispatcher::with_backend(Arc::clone(&sup), DispatcherConfig::default());
            let asked = Instant::now();
            let health = d.health();
            let took = asked.elapsed();
            assert!(took < Duration::from_millis(500), "health() took {took:?}");
            let live = health.get("shards").and_then(|s| s.get("live"));
            assert_eq!(
                live.and_then(JsonValue::as_u64),
                Some(2),
                "{}",
                health.render()
            );

            let asked = Instant::now();
            assert_eq!(sup.shards_live(), 2);
            let took = asked.elapsed();
            assert!(
                took < Duration::from_millis(500),
                "shards_live() took {took:?}"
            );

            let report = search.join().unwrap().unwrap();
            assert!(!report.partial, "{:?}", report.errors);
            assert!(sup.shutdown());
        });
    }

    /// A shard whose budget is spent before its request is written
    /// missed the deadline: it is `failed` and `timed_out`, as the
    /// `ShardOutcome` docs say, and no child dies for it.
    #[test]
    fn a_spent_budget_times_out_every_shard() {
        with_watchdog(120, || {
            let db = swissprot_like_db(7, 40);
            let mut rng = seeded_rng(5);
            let q = String::from_utf8(named_query(&mut rng, 40).text()).unwrap();
            let sup = Supervisor::launch(&db, worker_cmd(), ShardOptions::new(2)).unwrap();
            let report = sup
                .search(&ShardQuery::new(q).deadline(Duration::ZERO))
                .unwrap();
            assert!(report.partial);
            let shards = report.metrics.shards;
            assert_eq!((shards.ok, shards.failed, shards.timed_out), (0, 2, 2));
            assert_eq!(shards.retried, 0);
            assert_eq!(sup.shards_live(), 2, "a spent budget kills no child");
            assert!(sup.shutdown());
        });
    }
}
