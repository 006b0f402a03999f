//! The shared request dispatcher: one per daemon, used by every
//! front end.
//!
//! Responsibilities, in request order:
//!
//! 1. **Drain gate** — once [`Dispatcher::begin_drain`] is called,
//!    new requests get a typed [`ServeError::Draining`]; in-flight
//!    requests run to completion.
//! 2. **Tenant quotas** — at most `tenant_quota` requests in flight
//!    per tenant label (0 = unlimited).
//! 3. **Cancellation registry** — requests carrying an `id` can be
//!    cancelled mid-flight via [`Dispatcher::cancel`].
//! 4. **Admission control** — a fixed in-flight budget backed by a
//!    bounded wait queue. A full queue (or a request whose deadline
//!    expires while queued) gets an immediate
//!    [`ServeError::Overloaded`]; nobody waits unboundedly.
//! 5. **Cross-request batching** — concurrent requests with the same
//!    query fingerprint (residues + `top_n`) coalesce onto one
//!    backend sweep. The leader runs; followers wait on the leader's
//!    flight and share its `Arc<SearchReport>`. The coalesced count
//!    is stamped into the leader's `SearchMetrics::coalesced`.
//!    Cancellation stays per-request: a follower whose leader was
//!    cancelled re-runs the query itself instead of inheriting the
//!    leader's cancellation.
//!
//! 6. **Request-scoped tracing** — every request gets a dense
//!    `request_id`; each lifecycle stage (parse → queue →
//!    batch-wait → sweep → merge → respond) is recorded into an
//!    always-on [`FlightRecorder`] ring and aggregated into
//!    per-stage histograms surfaced on `/metrics` and in `health()`.
//!    A coalesced follower's `batch_wait` event references the
//!    leader's request id, so a flight dump reconstructs who rode on
//!    whose sweep.
//!
//! What sweeps is a [`SearchBackend`] — the local engine pool or a
//! shard supervisor; every gate above applies to both alike.
//!
//! Lock order, where it matters: `flights` before any
//! `Flight::state`; the admission mutex is never held across either;
//! the stage-histogram mutex is leaf-level (nothing is acquired
//! under it).

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::{AlignError, Aligner};
use aalign_obs::wire::{histogram_to_wire, obj, versioned, JsonValue};
use aalign_obs::{prom_header, FlightEvent, FlightRecorder, Histogram, StageKind};
use aalign_par::{CancelToken, EngineHandle, SearchReport};

use crate::backend::{Local, SearchBackend};
use crate::wire::{SearchRequest, SearchResponse, ServeError};

/// How often blocked waiters (admission queue, batch followers)
/// re-check cancellation and deadline expiry.
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// How long a request without a deadline may sit in the admission
/// queue before it is refused as overloaded.
const ADMISSION_WAIT: Duration = Duration::from_secs(2);

/// Tuning knobs for a [`Dispatcher`]. Start from
/// [`DispatcherConfig::default`] and override with the builder
/// methods.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DispatcherConfig {
    /// Requests allowed to run concurrently (engine sweeps and batch
    /// followers both count). Minimum 1.
    pub max_inflight: usize,
    /// Requests allowed to wait for an in-flight slot before the
    /// dispatcher answers `overloaded` immediately.
    pub max_queued: usize,
    /// Per-tenant in-flight cap; 0 disables quotas.
    pub tenant_quota: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms`.
    pub default_deadline: Option<Duration>,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        Self {
            max_inflight: 4,
            max_queued: 16,
            tenant_quota: 0,
            default_deadline: None,
        }
    }
}

impl DispatcherConfig {
    /// Set the concurrent in-flight budget (clamped to at least 1).
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }

    /// Set the admission queue bound.
    pub fn max_queued(mut self, n: usize) -> Self {
        self.max_queued = n;
        self
    }

    /// Set the per-tenant in-flight quota (0 = unlimited).
    pub fn tenant_quota(mut self, n: usize) -> Self {
        self.tenant_quota = n;
        self
    }

    /// Set the deadline for requests that do not specify one.
    pub fn default_deadline(mut self, d: Duration) -> Self {
        self.default_deadline = Some(d);
        self
    }
}

/// One service counter: an index into [`COUNTERS`] and into the
/// dispatcher's counter array.
#[derive(Debug, Clone, Copy)]
enum Counter {
    Requests,
    Ok,
    Partial,
    Overloaded,
    Draining,
    Quota,
    Cancelled,
    Coalesced,
    BadRequests,
}

/// Every service counter once, in [`Counter`] order: its key in the
/// health document's `counters` block, its `/metrics` name after
/// `aalign_serve_`, and its help text.
#[rustfmt::skip]
const COUNTERS: [(&str, &str, &str); 9] = [
    ("requests_total", "requests_total", "Requests received across all front ends."),
    ("ok", "requests_ok", "Requests answered with a complete report."),
    ("partial", "requests_partial", "Requests answered with a partial report (deadline or fault)."),
    ("overloaded", "refused_overloaded", "Requests refused by admission control."),
    ("draining_refused", "refused_draining", "Requests refused because the daemon was draining."),
    ("quota_refused", "refused_quota", "Requests refused by per-tenant quotas."),
    ("cancelled", "cancelled_total", "Requests cancelled by the caller."),
    ("coalesced_total", "coalesced_total", "Requests coalesced onto another request's sweep."),
    ("bad_requests", "bad_requests_total", "Malformed requests."),
];

/// Service-level counters, all monotonic, indexed by [`Counter`].
///
/// Every counter is read and written with `Relaxed` loads/stores:
/// they are statistics, never used to synchronize memory.
#[derive(Debug, Default)]
struct Counters([AtomicU64; COUNTERS.len()]);

impl Counters {
    fn add(&self, counter: Counter, n: u64) {
        // ORDER: Relaxed — independent statistic; no other data
        // depends on this counter's value.
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn read(&self) -> impl Iterator<Item = u64> + '_ {
        // ORDER: Relaxed — monotonic statistics read for reporting.
        self.0.iter().map(|c| c.load(Ordering::Relaxed))
    }
}

/// Admission bookkeeping: how many requests hold an in-flight slot
/// and how many are parked waiting for one.
#[derive(Debug, Default)]
struct AdmitState {
    inflight: usize,
    queued: usize,
}

/// The per-request latency stages in lifecycle order, end-to-end last
/// (it has no [`StageKind`]; shard-supervisor lifecycle events ride
/// the flight ring but are not latency stages). Each name is health's
/// `stages.<name>_ns` and the `aalign_serve_stage_<name>_seconds`
/// summary.
const STAGES: [(Option<StageKind>, &str); 7] = [
    (Some(StageKind::Parse), "parse"),
    (Some(StageKind::Queue), "queue_wait"),
    (Some(StageKind::BatchWait), "batch_wait"),
    (Some(StageKind::Sweep), "sweep"),
    (Some(StageKind::Merge), "merge"),
    (Some(StageKind::Respond), "respond"),
    (None, "e2e"),
];

/// Saturating nanosecond reading for histogram recording.
fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-request trace context threaded through the sweep path: the
/// request id, how long admission took (stamped into the leader's
/// report), and when the request arrived (for `request_e2e`).
#[derive(Debug, Clone, Copy)]
struct TraceCtx {
    rid: u64,
    queue_wait: Duration,
    e2e_start: Instant,
}

/// One in-progress engine sweep that followers can attach to.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
    /// Request id of the leader running this sweep; followers stamp
    /// it as `ref_request` on their `batch_wait` stage events.
    leader: u64,
}

enum FlightState {
    /// The leader is sweeping; `followers` requests are waiting on
    /// the result.
    Running { followers: u64 },
    /// The sweep finished; the shared result every waiter clones.
    Done(Result<Arc<SearchReport>, AlignError>),
}

/// What a follower saw when its leader's flight resolved.
enum FollowOutcome {
    /// The leader finished; this is its shared report.
    Report(Arc<SearchReport>),
    /// The leader's *caller* cancelled it. That decision belongs to
    /// the leader's request alone, so the follower retries instead of
    /// inheriting the cancellation.
    LeaderCancelled,
}

/// Why admission did not hand out a permit.
enum AdmitRefusal {
    /// Typed refusal to send back verbatim.
    Refused(ServeError),
    /// The request's own deadline expired while queued — answered
    /// with a partial report, not an error.
    Expired,
}

/// RAII in-flight slot: dropping it releases the slot and wakes both
/// queued waiters and the drain waiter.
struct Permit<'a, B> {
    d: &'a Dispatcher<B>,
}

impl<B> Drop for Permit<'_, B> {
    fn drop(&mut self) {
        let mut st = self.d.admit.lock().expect("admission lock poisoned");
        st.inflight -= 1;
        self.d.admit_cv.notify_all();
        if st.inflight == 0 && st.queued == 0 {
            self.d.idle_cv.notify_all();
        }
    }
}

/// RAII tenant-quota slot.
struct TenantGuard<'a, B> {
    d: &'a Dispatcher<B>,
    tenant: String,
}

impl<B> Drop for TenantGuard<'_, B> {
    fn drop(&mut self) {
        let mut tenants = self.d.tenants.lock().expect("tenant lock poisoned");
        if let Some(n) = tenants.get_mut(&self.tenant) {
            *n -= 1;
            if *n == 0 {
                tenants.remove(&self.tenant);
            }
        }
    }
}

/// RAII cancellation-registry entry.
struct CancelGuard<'a, B> {
    d: &'a Dispatcher<B>,
    id: String,
}

impl<B> Drop for CancelGuard<'_, B> {
    fn drop(&mut self) {
        self.d
            .cancels
            .lock()
            .expect("cancel registry poisoned")
            .remove(&self.id);
    }
}

/// The shared dispatcher. Construct once, wrap in an [`Arc`], and
/// hand a clone to every front end / connection thread.
pub struct Dispatcher<B = Local> {
    backend: Arc<B>,
    cfg: DispatcherConfig,
    admit: Mutex<AdmitState>,
    admit_cv: Condvar,
    idle_cv: Condvar,
    draining: AtomicBool,
    tenants: Mutex<HashMap<String, usize>>,
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
    cancels: Mutex<HashMap<String, CancelToken>>,
    counters: Counters,
    started: Instant,
    request_seq: AtomicU64,
    flight_rec: FlightRecorder,
    /// Nanosecond aggregates, one per [`STAGES`] row. Leaf-level lock:
    /// recorded after a stage completes, never held across anything.
    stage_hists: Mutex<[Histogram; STAGES.len()]>,
}

impl<B: SearchBackend> std::fmt::Debug for Dispatcher<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("threads", &self.backend.threads())
            .field("subjects", &self.backend.subjects())
            .field("cfg", &self.cfg)
            .field("draining", &self.is_draining())
            .finish_non_exhaustive()
    }
}

impl Dispatcher {
    /// Build a dispatcher over its own [`Local`] engine pool of
    /// `threads` workers (0 = available parallelism), with no fault
    /// plan; a chaos run builds its `Local` with
    /// [`Local::fault_plan`] and hands it to
    /// [`with_backend`](Dispatcher::with_backend).
    pub fn new(aligner: Aligner, db: SeqDatabase, threads: usize, cfg: DispatcherConfig) -> Self {
        Self::with_backend(Arc::new(Local::new(aligner, db, threads)), cfg)
    }

    /// The engine this dispatcher sweeps with.
    pub fn engine(&self) -> &EngineHandle {
        &self.backend.engine
    }

    /// The database being served.
    pub fn db(&self) -> &SeqDatabase {
        &self.backend.db
    }
}

impl<B: SearchBackend> Dispatcher<B> {
    /// Build a dispatcher over any backend — a shard supervisor, or a
    /// test's fake.
    pub fn with_backend(backend: Arc<B>, cfg: DispatcherConfig) -> Self {
        Self {
            backend,
            cfg,
            admit: Mutex::new(AdmitState::default()),
            admit_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            tenants: Mutex::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
            cancels: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            started: Instant::now(),
            request_seq: AtomicU64::new(0),
            flight_rec: FlightRecorder::new(),
            stage_hists: Mutex::default(),
        }
    }

    /// Allocate the next request id: dense, unique, never 0. Front
    /// ends call this once per request so parse-stage timing can be
    /// attributed before the request document even decodes.
    pub fn next_request_id(&self) -> u64 {
        // ORDER: Relaxed — the id only needs to be unique and
        // monotone; nothing synchronizes through it.
        self.request_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The always-on flight recorder (last N stage events), for
    /// `GET /debug/flight` and post-mortem dumps.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight_rec
    }

    /// Record one completed lifecycle stage for `request`: into the
    /// flight-recorder ring and the service-level stage histogram.
    /// `ref_request` is the leader's id for `batch_wait` stages, 0
    /// otherwise.
    pub fn record_stage(&self, request: u64, stage: StageKind, dur: Duration, ref_request: u64) {
        self.flight_rec.record(FlightEvent {
            at_us: u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
            request,
            stage,
            dur_us: u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
            ref_request,
        });
        self.observe(Some(stage), dur);
    }

    /// Aggregate one duration into its [`STAGES`] histogram (`None`:
    /// end-to-end); a stage with no row is not aggregated.
    fn observe(&self, stage: Option<StageKind>, dur: Duration) {
        if let Some(row) = STAGES.iter().position(|&(kind, _)| kind == stage) {
            self.stage_hists.lock().expect("stage histograms poisoned")[row].record(dur_ns(dur));
        }
    }

    /// Dump the flight recorder to stderr, labelled with why. Called
    /// on dirty drain and when a request provoked a worker respawn.
    pub fn dump_flight(&self, why: &str) {
        self.flight_rec.dump_to_stderr("aalign-serve", why);
    }

    /// Run one search request end to end: drain gate, quota,
    /// cancellation registration, admission, then either a fresh
    /// backend sweep or attachment to an identical in-flight one.
    ///
    /// Failure modes that still produced work — deadline expiry,
    /// fault-injected worker kills — come back as `Ok` responses
    /// with `report.partial == true`; only whole-request refusals
    /// and whole-query failures are `Err`.
    pub fn search(&self, req: &SearchRequest) -> Result<SearchResponse, ServeError> {
        self.search_traced(req, self.next_request_id())
    }

    /// [`search`](Self::search) under a caller-assigned request id —
    /// the front ends allocate the id before parsing so the parse
    /// stage is attributable, then hand it in here. Tracing changes
    /// nothing about the result: same hits, same report, plus stage
    /// events in the flight recorder.
    pub fn search_traced(
        &self,
        req: &SearchRequest,
        request_id: u64,
    ) -> Result<SearchResponse, ServeError> {
        self.counters.add(Counter::Requests, 1);
        let e2e_start = Instant::now();
        let respawned_before = self.backend.respawns();
        let outcome = self.search_inner(req, request_id);
        self.observe(None, e2e_start.elapsed());
        if self.backend.respawns() > respawned_before {
            self.dump_flight(&format!("worker respawned during request {request_id}"));
        }
        let counter = match &outcome {
            Ok(resp) if resp.report.partial => Counter::Partial,
            Ok(_) => Counter::Ok,
            Err(ServeError::Overloaded { .. }) => Counter::Overloaded,
            Err(ServeError::Draining) => Counter::Draining,
            Err(ServeError::QuotaExhausted { .. }) => Counter::Quota,
            Err(ServeError::Engine(AlignError::Cancelled)) => Counter::Cancelled,
            Err(ServeError::BadRequest(_)) => Counter::BadRequests,
            Err(_) => return outcome,
        };
        self.counters.add(counter, 1);
        outcome
    }

    fn search_inner(&self, req: &SearchRequest, rid: u64) -> Result<SearchResponse, ServeError> {
        if self.is_draining() {
            return Err(ServeError::Draining);
        }
        let query = Sequence::protein(req.query_id.clone(), req.query.as_bytes())
            .map_err(|e| ServeError::BadRequest(format!("invalid query: {e}")))?;

        let _tenant_guard = self.claim_tenant_slot(req.tenant.as_deref())?;
        let cancel = CancelToken::new();
        let _cancel_guard = self.register_cancel(req.id.as_deref(), &cancel)?;

        let start = Instant::now();
        let budget = req.deadline().or(self.cfg.default_deadline);
        let permit = match self.admit(budget, start, &cancel) {
            Ok(permit) => permit,
            Err(AdmitRefusal::Refused(e)) => return Err(e),
            // The request's own deadline ran out while it was still
            // queued: same typed answer as an engine-side expiry — a
            // well-formed partial report, never an opaque refusal.
            Err(AdmitRefusal::Expired) => {
                return Ok(SearchResponse {
                    id: req.id.clone(),
                    request_id: rid,
                    batched: false,
                    report: Arc::new(self.expired_partial()),
                })
            }
        };
        // Queue wait: everything between arrival and holding a slot.
        let queue_wait = start.elapsed();
        self.record_stage(rid, StageKind::Queue, queue_wait, 0);
        let trace = TraceCtx {
            rid,
            queue_wait,
            e2e_start: start,
        };

        let result = if req.no_batch {
            // Whatever the queue consumed comes out of the backend's
            // budget, so the end-to-end deadline holds.
            let remaining = budget.map(|b| b.saturating_sub(start.elapsed()));
            self.run_leader(&query, req.top_n, remaining, &cancel, None, trace)
                .map(|report| SearchResponse {
                    id: req.id.clone(),
                    request_id: rid,
                    batched: false,
                    report,
                })
        } else {
            self.run_or_attach(&query, req, start, budget, &cancel, trace)
        };
        drop(permit);
        result
    }

    /// Cancel the in-flight request registered under `id`.
    pub fn cancel(&self, id: &str) -> Result<(), ServeError> {
        let cancels = self.cancels.lock().expect("cancel registry poisoned");
        match cancels.get(id) {
            Some(token) => {
                token.cancel();
                Ok(())
            }
            None => Err(ServeError::NotFound(format!(
                "no in-flight request with id {id:?}"
            ))),
        }
    }

    /// Stop admitting new requests; in-flight ones run to
    /// completion. Idempotent.
    pub fn begin_drain(&self) {
        // ORDER: Release — pairs with the Acquire in `is_draining` so
        // a front end that observes the flag also observes any state
        // written before the drain decision.
        self.draining.store(true, Ordering::Release);
        self.admit_cv.notify_all();
        self.idle_cv.notify_all();
    }

    /// True once [`begin_drain`](Self::begin_drain) has been called.
    pub fn is_draining(&self) -> bool {
        // ORDER: Acquire — pairs with the Release store in
        // `begin_drain`.
        self.draining.load(Ordering::Acquire)
    }

    /// Block until no request is in flight or queued, or `timeout`
    /// elapses. Returns true when fully idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.admit.lock().expect("admission lock poisoned");
        while st.inflight > 0 || st.queued > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .idle_cv
                .wait_timeout(st, (deadline - now).min(WAIT_SLICE))
                .expect("admission lock poisoned");
            st = next;
        }
        true
    }

    /// Record a request the front end rejected before dispatch
    /// (unparseable body, bad route) so `/metrics` still sees it.
    pub fn note_bad_request(&self) {
        self.counters.add(Counter::Requests, 1);
        self.counters.add(Counter::BadRequests, 1);
    }

    /// Versioned health document for `GET /v1/health` and the
    /// `health` RPC method.
    pub fn health(&self) -> JsonValue {
        let (inflight, queued) = {
            let st = self.admit.lock().expect("admission lock poisoned");
            (st.inflight, st.queued)
        };
        let backend = self.backend.status();
        versioned(vec![
            (
                "status",
                if self.is_draining() { "draining" } else { "ok" }.into(),
            ),
            ("inflight", inflight.into()),
            ("queued", queued.into()),
            ("threads", self.backend.threads().into()),
            ("subjects", self.backend.subjects().into()),
            // Saturation certificates proven at startup: which lane
            // widths are statically rescue-free for queries/subjects
            // within the database's length bounds.
            ("certified", backend.certified),
            ("queries_served", backend.queries_served.into()),
            ("workers_respawned", self.backend.respawns().into()),
            // Shard-supervisor liveness, when this daemon dispatches
            // to child processes (`null` for single-process daemons).
            ("shards", backend.shards),
            (
                "uptime_ms",
                (self.started.elapsed().as_millis() as u64).into(),
            ),
            (
                "counters",
                obj(COUNTERS
                    .iter()
                    .zip(self.counters.read())
                    .map(|(&(key, _, _), n)| (key, n.into()))
                    .collect()),
            ),
            // Lossless per-stage aggregates (nanoseconds): the same
            // histogram wire shape the metrics documents use, so a
            // client (e.g. `aalign loadgen`) can decode them with
            // `histogram_from_wire` and read exact quantiles.
            ("stages", {
                let hists = self.stage_hists.lock().expect("stage histograms poisoned");
                JsonValue::Object(
                    STAGES
                        .iter()
                        .zip(hists.iter())
                        .map(|(&(_, name), h)| (format!("{name}_ns"), histogram_to_wire(h)))
                        .collect(),
                )
            }),
        ])
    }

    /// Prometheus exposition text for `GET /metrics`.
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        fn sample(out: &mut String, kind: &str, (name, help, v): (&str, &str, u64)) {
            let name = format!("aalign_serve_{name}");
            prom_header(out, &name, kind, help);
            let _ = writeln!(out, "{name} {v}");
        }
        let backend = self.backend.status();
        let mut out = String::new();
        let counters = COUNTERS
            .iter()
            .zip(self.counters.read())
            .map(|(&(_, name, help), n)| (name, help, n));
        for row in counters.chain([
            (
                "engine_queries_served",
                "Sweeps completed by the backend.",
                backend.queries_served,
            ),
            (
                "engine_workers_respawned",
                "Workers respawned after a panic or kill.",
                self.backend.respawns(),
            ),
            (
                "flight_events_recorded",
                "Stage events written to the flight recorder.",
                self.flight_rec.recorded(),
            ),
        ]) {
            sample(&mut out, "counter", row);
        }

        // Point-in-time gauges.
        let (inflight, queued) = {
            let st = self.admit.lock().expect("admission lock poisoned");
            (st.inflight as u64, st.queued as u64)
        };
        for row in [
            (
                "inflight",
                "Requests currently holding an in-flight slot.",
                inflight,
            ),
            (
                "queued",
                "Requests currently parked in the admission queue.",
                queued,
            ),
        ] {
            sample(&mut out, "gauge", row);
        }
        {
            let tenants = self.tenants.lock().expect("tenant lock poisoned");
            let mut rows: Vec<(&String, &usize)> = tenants.iter().collect();
            rows.sort();
            prom_header(
                &mut out,
                "aalign_serve_tenant_inflight",
                "gauge",
                "Requests in flight per tenant label.",
            );
            for (tenant, n) in rows {
                let label = tenant.replace('\\', "\\\\").replace('"', "\\\"");
                let _ = writeln!(
                    out,
                    "aalign_serve_tenant_inflight{{tenant=\"{label}\"}} {n}"
                );
            }
        }
        // The backend's own gauges (shard liveness, on sharded daemons).
        for row in backend.gauges {
            sample(&mut out, "gauge", row);
        }

        // Per-stage latency summaries (seconds, from the nanosecond
        // log2 histograms — quantiles are bucket upper bounds).
        let hists = self.stage_hists.lock().expect("stage histograms poisoned");
        for (&(_, stage), hist) in STAGES.iter().zip(hists.iter()) {
            let name = format!("aalign_serve_stage_{stage}_seconds");
            let help = format!("Stage latency for the {stage} request stage.");
            prom_header(&mut out, &name, "summary", &help);
            for (label, v) in [
                ("0.5", hist.p50()),
                ("0.99", hist.p99()),
                ("0.999", hist.p999()),
            ] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", v as f64 * 1e-9);
            }
            let _ = writeln!(out, "{name}_sum {}", hist.sum() as f64 * 1e-9);
            let _ = writeln!(out, "{name}_count {}", hist.count());
        }
        out
    }

    // ----- internals -------------------------------------------------

    fn claim_tenant_slot<'d>(
        &'d self,
        tenant: Option<&str>,
    ) -> Result<Option<TenantGuard<'d, B>>, ServeError> {
        let (Some(tenant), quota @ 1..) = (tenant, self.cfg.tenant_quota) else {
            return Ok(None);
        };
        let mut tenants = self.tenants.lock().expect("tenant lock poisoned");
        let n = tenants.entry(tenant.to_string()).or_insert(0);
        if *n >= quota {
            return Err(ServeError::QuotaExhausted {
                tenant: tenant.to_string(),
                quota,
            });
        }
        *n += 1;
        Ok(Some(TenantGuard {
            d: self,
            tenant: tenant.to_string(),
        }))
    }

    fn register_cancel<'d>(
        &'d self,
        id: Option<&str>,
        token: &CancelToken,
    ) -> Result<Option<CancelGuard<'d, B>>, ServeError> {
        let Some(id) = id else { return Ok(None) };
        let mut cancels = self.cancels.lock().expect("cancel registry poisoned");
        match cancels.entry(id.to_string()) {
            Entry::Occupied(_) => Err(ServeError::BadRequest(format!(
                "request id {id:?} is already in flight"
            ))),
            Entry::Vacant(slot) => {
                slot.insert(token.clone());
                Ok(Some(CancelGuard {
                    d: self,
                    id: id.to_string(),
                }))
            }
        }
    }

    /// Take an in-flight slot, waiting in the bounded queue if the
    /// budget allows. Never blocks past the request's deadline (or
    /// [`ADMISSION_WAIT`] for deadline-less requests).
    fn admit(
        &self,
        budget: Option<Duration>,
        start: Instant,
        cancel: &CancelToken,
    ) -> Result<Permit<'_, B>, AdmitRefusal> {
        let wait_budget = budget.unwrap_or(ADMISSION_WAIT);
        let mut st = self.admit.lock().expect("admission lock poisoned");
        let mut queued_self = false;
        loop {
            if cancel.is_cancelled() {
                if queued_self {
                    st.queued -= 1;
                }
                return Err(AdmitRefusal::Refused(ServeError::Engine(
                    AlignError::Cancelled,
                )));
            }
            if self.is_draining() {
                if queued_self {
                    st.queued -= 1;
                }
                return Err(AdmitRefusal::Refused(ServeError::Draining));
            }
            if st.inflight < self.cfg.max_inflight {
                st.inflight += 1;
                if queued_self {
                    st.queued -= 1;
                }
                return Ok(Permit { d: self });
            }
            if !queued_self {
                if st.queued >= self.cfg.max_queued {
                    return Err(AdmitRefusal::Refused(ServeError::Overloaded {
                        inflight: st.inflight,
                        queued: st.queued,
                    }));
                }
                st.queued += 1;
                queued_self = true;
            }
            if start.elapsed() >= wait_budget {
                st.queued -= 1;
                // A real deadline expiring is a partial result; the
                // dispatcher-level patience budget running out is
                // backpressure.
                return Err(match budget {
                    Some(_) => AdmitRefusal::Expired,
                    None => AdmitRefusal::Refused(ServeError::Overloaded {
                        inflight: st.inflight,
                        queued: st.queued,
                    }),
                });
            }
            let (next, _) = self
                .admit_cv
                .wait_timeout(st, WAIT_SLICE)
                .expect("admission lock poisoned");
            st = next;
        }
    }

    /// Fingerprint for cross-request batching: identical residues +
    /// identical `top_n` means identical hit lists, so the results
    /// are interchangeable. The query *id* is deliberately excluded
    /// — it is a label, not an input to the sweep.
    fn fingerprint(query: &Sequence, top_n: usize) -> u64 {
        let mut h = DefaultHasher::new();
        query.indices().hash(&mut h);
        top_n.hash(&mut h);
        h.finish()
    }

    /// Singleflight: become the leader for this fingerprint or attach
    /// as a follower to an identical sweep already running. Loops
    /// because a follower whose leader was cancelled must not inherit
    /// that cancellation — it retries as (or re-attaches behind) a
    /// fresh leader, still bounded by its own deadline.
    fn run_or_attach(
        &self,
        query: &Sequence,
        req: &SearchRequest,
        start: Instant,
        budget: Option<Duration>,
        cancel: &CancelToken,
        trace: TraceCtx,
    ) -> Result<SearchResponse, ServeError> {
        let key = Self::fingerprint(query, req.top_n);
        loop {
            let existing = {
                let mut flights = self.flights.lock().expect("flight map poisoned");
                match flights.entry(key) {
                    Entry::Occupied(slot) => {
                        let flight = Arc::clone(slot.get());
                        // Register as a follower while still holding
                        // the map lock (lock order: flights →
                        // flight.state), so the leader cannot finish
                        // without counting us.
                        let mut state = flight.state.lock().expect("flight poisoned");
                        if let FlightState::Running { followers } = &mut *state {
                            *followers += 1;
                        }
                        drop(state);
                        Some(flight)
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(Arc::new(Flight {
                            state: Mutex::new(FlightState::Running { followers: 0 }),
                            cv: Condvar::new(),
                            leader: trace.rid,
                        }));
                        None
                    }
                }
            };

            match existing {
                None => {
                    // Whatever queueing and following consumed comes
                    // out of the backend's budget, so the end-to-end
                    // deadline holds.
                    let remaining = budget.map(|b| b.saturating_sub(start.elapsed()));
                    let outcome =
                        self.run_leader(query, req.top_n, remaining, cancel, Some(key), trace);
                    return Ok(SearchResponse {
                        id: req.id.clone(),
                        request_id: trace.rid,
                        batched: false,
                        report: outcome?,
                    });
                }
                Some(flight) => {
                    let waited = Instant::now();
                    match self.follow(&flight, start, budget, cancel)? {
                        FollowOutcome::Report(report) => {
                            // The follower's whole wait rode on the
                            // leader's sweep: one batch_wait stage
                            // event referencing the leader.
                            self.record_stage(
                                trace.rid,
                                StageKind::BatchWait,
                                waited.elapsed(),
                                flight.leader,
                            );
                            return Ok(SearchResponse {
                                id: req.id.clone(),
                                request_id: trace.rid,
                                batched: true,
                                report,
                            });
                        }
                        FollowOutcome::LeaderCancelled => continue,
                    }
                }
            }
        }
    }

    /// Run the backend sweep and publish the result to any followers.
    /// `key` is the flight-map entry to resolve; `None` for unbatched
    /// requests, which never touch the map.
    fn run_leader(
        &self,
        query: &Sequence,
        top_n: usize,
        remaining: Option<Duration>,
        cancel: &CancelToken,
        key: Option<u64>,
        trace: TraceCtx,
    ) -> Result<Arc<SearchReport>, ServeError> {
        let sweep_started = Instant::now();
        let mut result = self.backend.search(query, top_n, remaining, cancel);
        self.record_stage(trace.rid, StageKind::Sweep, sweep_started.elapsed(), 0);
        if let Ok(report) = &mut result {
            self.record_stage(trace.rid, StageKind::Merge, report.metrics.merge, 0);
            // Stage waits ride on the report while the leader still
            // owns it exclusively — followers only ever see the
            // sealed Arc.
            report.metrics.queue_wait.record(dur_ns(trace.queue_wait));
            report
                .metrics
                .request_e2e
                .record(dur_ns(trace.e2e_start.elapsed()));
        }

        let Some(key) = key else {
            return result.map(Arc::new).map_err(ServeError::Engine);
        };
        let mut flights = self.flights.lock().expect("flight map poisoned");
        let flight = flights.remove(&key).expect("leader's flight vanished");
        drop(flights);
        let mut state = flight.state.lock().expect("flight poisoned");
        let followers = match &*state {
            FlightState::Running { followers } => *followers,
            FlightState::Done(_) => unreachable!("only the leader resolves a flight"),
        };
        if let Ok(report) = &mut result {
            report.metrics.coalesced = followers;
        }
        // One Arc for everyone: the leader's response and every
        // follower's share the same allocation.
        let shared = result.map(Arc::new);
        *state = FlightState::Done(shared.clone());
        drop(state);
        flight.cv.notify_all();
        self.counters.add(Counter::Coalesced, followers);
        shared.map_err(ServeError::Engine)
    }

    /// Wait for the leader's result, honoring this follower's own
    /// cancellation and deadline. A follower whose budget expires
    /// before the leader finishes gets a well-formed empty *partial*
    /// report — never a hang. A leader cancelled by *its* caller
    /// yields [`FollowOutcome::LeaderCancelled`] so the follower can
    /// retry rather than fail someone else's cancellation.
    fn follow(
        &self,
        flight: &Flight,
        start: Instant,
        budget: Option<Duration>,
        cancel: &CancelToken,
    ) -> Result<FollowOutcome, ServeError> {
        let mut state = flight.state.lock().expect("flight poisoned");
        loop {
            match &*state {
                FlightState::Done(Ok(report)) => {
                    return Ok(FollowOutcome::Report(Arc::clone(report)))
                }
                FlightState::Done(Err(AlignError::Cancelled)) => {
                    return Ok(FollowOutcome::LeaderCancelled)
                }
                // Any other leader failure is a property of the query
                // itself (same inputs, same outcome), so sharing it
                // with followers is correct.
                FlightState::Done(Err(e)) => return Err(ServeError::Engine(e.clone())),
                FlightState::Running { .. } => {
                    if cancel.is_cancelled() {
                        self.unfollow(&mut state);
                        return Err(ServeError::Engine(AlignError::Cancelled));
                    }
                    if let Some(b) = budget {
                        if start.elapsed() >= b {
                            self.unfollow(&mut state);
                            return Ok(FollowOutcome::Report(Arc::new(self.expired_partial())));
                        }
                    }
                }
            }
            let (next, _) = flight
                .cv
                .wait_timeout(state, WAIT_SLICE)
                .expect("flight poisoned");
            state = next;
        }
    }

    fn unfollow(&self, state: &mut FlightState) {
        if let FlightState::Running { followers } = state {
            *followers = followers.saturating_sub(1);
        }
    }

    /// The typed answer for "your deadline expired before any result
    /// existed": same shape as a backend-side deadline expiry.
    fn expired_partial(&self) -> SearchReport {
        SearchReport {
            hits: Vec::new(),
            threads_used: self.backend.threads(),
            subjects: self.backend.subjects(),
            total_residues: 0,
            metrics: aalign_par::SearchMetrics::default(),
            trace_events: Vec::new(),
            partial: true,
            errors: vec![AlignError::DeadlineExceeded],
        }
    }
}
