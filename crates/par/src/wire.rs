//! Versioned wire conversions for the search types: one stable JSON
//! shape for [`SearchRequest`], [`Hit`], [`SearchMetrics`],
//! [`SearchReport`], and [`AlignError`], shared verbatim by the CLI's
//! `--metrics-format json`, partial-result reporting on stderr, the
//! `aalign-serve` HTTP / JSON-RPC front ends, and the shard
//! supervisor's child requests.
//!
//! Conventions (see [`aalign_obs::wire`]):
//!
//! * Top-level documents ([`metrics_to_wire`], [`report_to_wire`])
//!   carry `"schema_version": 1` as their first key and are rejected
//!   on re-read when the version differs.
//! * Errors are `{"code", "message", …detail}` objects with stable
//!   snake_case codes ([`error_to_wire`]); the `message` text carries
//!   no stability promise.
//! * Durations are serialized as integer microseconds (`*_us` keys),
//!   so round-trips are lossless at microsecond resolution.
//! * Histograms serialize their occupied log2 buckets and rebuild
//!   bit-identically ([`aalign_obs::wire::histogram_to_wire`]).
//! * [`SearchReport::trace_events`] is *not* part of the wire format
//!   — traces have their own JSONL format ([`aalign_obs::jsonl`]) —
//!   so a decoded report always has an empty trace.
//!
//! The exact rendered bytes are pinned by
//! `crates/par/tests/wire_roundtrip.rs`; changing any key is a
//! schema change and requires a [`SCHEMA_VERSION`] bump.

use std::time::Duration;

use aalign_core::{AlignError, RunStats};
pub use aalign_obs::wire::SCHEMA_VERSION;
use aalign_obs::wire::{
    array_field, bool_field, check_version, f64_field, field, histogram_from_wire,
    histogram_to_wire, obj, str_field, u64_field, versioned, JsonValue, WireError,
};

use crate::metrics::{SearchMetrics, ShardOutcome, WorkerMetrics};
use crate::search::{Hit, SearchReport};

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One search request, front-end agnostic: what the HTTP and JSON-RPC
/// front ends decode, and what every client of them (the shard
/// supervisor, `aalign loadgen`) encodes.
///
/// JSON shape (only `query` is required):
///
/// ```json
/// {"query": "MKVLA…", "query_id": "q1", "top_n": 10,
///  "deadline_ms": 500, "tenant": "teamA", "id": "req-7",
///  "no_batch": false}
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SearchRequest {
    /// Caller-chosen request id; registers the request for
    /// cancellation (`cancel` with the same id) and is echoed on the
    /// response. Must be unique among in-flight requests.
    pub id: Option<String>,
    /// Tenant label for per-tenant in-flight quotas.
    pub tenant: Option<String>,
    /// Query sequence id (defaults to `"query"`; label only — it
    /// does not affect batching).
    pub query_id: String,
    /// Query residues (protein, one-letter code).
    pub query: String,
    /// Keep only the best `top_n` hits (0 = every hit).
    pub top_n: usize,
    /// Per-request wall-clock budget in milliseconds. Bounds both
    /// time queued under admission control and the engine sweep; on
    /// expiry the response is `partial: true`, never an error.
    pub deadline_ms: Option<u64>,
    /// Opt this request out of cross-request batching.
    pub no_batch: bool,
}

impl Default for SearchRequest {
    fn default() -> Self {
        Self {
            id: None,
            tenant: None,
            query_id: "query".to_string(),
            query: String::new(),
            top_n: 0,
            deadline_ms: None,
            no_batch: false,
        }
    }
}

impl SearchRequest {
    /// Request for `query` residues with defaults everywhere else.
    pub fn new(query: impl Into<String>) -> Self {
        Self {
            query: query.into(),
            ..Self::default()
        }
    }

    /// Requested deadline as a [`Duration`].
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline_ms.map(Duration::from_millis)
    }

    /// Decode from a request document (strict: unknown fields are
    /// ignored, wrong types are errors).
    pub fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        if v.as_object().is_none() {
            return Err(WireError::new("request must be a JSON object"));
        }
        let query = v
            .get("query")
            .and_then(|q| q.as_str())
            .ok_or_else(|| WireError::new("missing string field \"query\""))?
            .to_string();
        let opt_str = |key: &str| -> Result<Option<String>, WireError> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(s) => s
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| WireError::new(format!("field {key:?} must be a string"))),
            }
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, WireError> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(n) => n.as_u64().map(Some).ok_or_else(|| {
                    WireError::new(format!("field {key:?} must be a non-negative integer"))
                }),
            }
        };
        let opt_bool = |key: &str| -> Result<bool, WireError> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(false),
                Some(b) => b
                    .as_bool()
                    .ok_or_else(|| WireError::new(format!("field {key:?} must be a boolean"))),
            }
        };
        Ok(Self {
            id: opt_str("id")?,
            tenant: opt_str("tenant")?,
            query_id: opt_str("query_id")?.unwrap_or_else(|| "query".to_string()),
            query,
            top_n: opt_u64("top_n")?.unwrap_or(0) as usize,
            deadline_ms: opt_u64("deadline_ms")?,
            no_batch: opt_bool("no_batch")?,
        })
    }

    /// Encode as a request document, the inverse of
    /// [`from_wire`](Self::from_wire). Fields at their default are
    /// left out.
    pub fn to_wire(&self) -> JsonValue {
        let mut fields: Vec<(&str, JsonValue)> = vec![("query", self.query.as_str().into())];
        if self.query_id != "query" {
            fields.push(("query_id", self.query_id.as_str().into()));
        }
        if let Some(id) = &self.id {
            fields.push(("id", id.as_str().into()));
        }
        if let Some(t) = &self.tenant {
            fields.push(("tenant", t.as_str().into()));
        }
        if self.top_n > 0 {
            fields.push(("top_n", self.top_n.into()));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", ms.into()));
        }
        if self.no_batch {
            fields.push(("no_batch", true.into()));
        }
        obj(fields)
    }
}

/// `{"db_index":…,"len":…,"score":…}` — one database hit.
pub fn hit_to_wire(h: &Hit) -> JsonValue {
    obj(vec![
        ("db_index", h.db_index.into()),
        ("len", h.len.into()),
        ("score", (h.score as i64).into()),
    ])
}

/// Decode one hit object.
pub fn hit_from_wire(v: &JsonValue) -> Result<Hit, WireError> {
    Ok(Hit {
        db_index: u64_field(v, "db_index")? as usize,
        len: u64_field(v, "len")? as usize,
        score: i32::try_from(aalign_obs::wire::i64_field(v, "score")?)
            .map_err(|_| WireError::new("hit score out of i32 range"))?,
    })
}

/// Stable machine-readable code for an [`AlignError`] variant.
pub fn error_code(e: &AlignError) -> &'static str {
    match e {
        AlignError::EmptyQuery => "empty_query",
        AlignError::AlphabetMismatch { .. } => "alphabet_mismatch",
        AlignError::Cancelled => "cancelled",
        AlignError::DeadlineExceeded => "deadline_exceeded",
        AlignError::WorkerPanicked { .. } => "worker_panicked",
        AlignError::WorkerLost { .. } => "worker_lost",
        AlignError::ShardLost { .. } => "shard_lost",
        // `AlignError` is #[non_exhaustive]; future variants fall
        // back to a generic code until they are given one here.
        _ => "align_error",
    }
}

/// `{"code":…,"message":…,…detail}` — typed error object. Variant
/// payloads ride as extra fields (`id`, `db_index`, `worker_id`,
/// `payload`) so consumers never parse the human message.
pub fn error_to_wire(e: &AlignError) -> JsonValue {
    let mut fields: Vec<(&str, JsonValue)> = vec![
        ("code", error_code(e).into()),
        ("message", e.to_string().into()),
    ];
    match e {
        AlignError::AlphabetMismatch { id } => {
            fields.push(("id", id.as_str().into()));
        }
        AlignError::WorkerPanicked { db_index, payload } => {
            fields.push(("db_index", (*db_index).into()));
            fields.push(("payload", payload.as_str().into()));
        }
        AlignError::WorkerLost { worker_id, payload } => {
            fields.push(("worker_id", (*worker_id).into()));
            fields.push(("payload", payload.as_str().into()));
        }
        AlignError::ShardLost { shard, start, end } => {
            fields.push(("shard", (*shard).into()));
            fields.push(("start", (*start).into()));
            fields.push(("end", (*end).into()));
        }
        _ => {}
    }
    obj(fields)
}

/// Decode an error object back to the typed variant (codes this
/// build does not know decode to an error).
pub fn error_from_wire(v: &JsonValue) -> Result<AlignError, WireError> {
    match str_field(v, "code")? {
        "empty_query" => Ok(AlignError::EmptyQuery),
        "alphabet_mismatch" => Ok(AlignError::AlphabetMismatch {
            id: str_field(v, "id")?.to_string(),
        }),
        "cancelled" => Ok(AlignError::Cancelled),
        "deadline_exceeded" => Ok(AlignError::DeadlineExceeded),
        "worker_panicked" => Ok(AlignError::WorkerPanicked {
            db_index: u64_field(v, "db_index")? as usize,
            payload: str_field(v, "payload")?.to_string(),
        }),
        "worker_lost" => Ok(AlignError::WorkerLost {
            worker_id: u64_field(v, "worker_id")? as usize,
            payload: str_field(v, "payload")?.to_string(),
        }),
        "shard_lost" => Ok(AlignError::ShardLost {
            shard: u64_field(v, "shard")? as usize,
            start: u64_field(v, "start")? as usize,
            end: u64_field(v, "end")? as usize,
        }),
        other => Err(WireError::new(format!("unknown error code {other:?}"))),
    }
}

/// Errors array for a report / response (`[{"code":…},…]`).
pub fn errors_to_wire(errors: &[AlignError]) -> JsonValue {
    JsonValue::Array(errors.iter().map(error_to_wire).collect())
}

/// Kernel counters as the `"kernel"` object of a metrics document
/// (the bench envelopes embed the same object per row).
pub fn kernel_to_wire(k: &RunStats) -> JsonValue {
    obj(vec![
        ("lazy_iters", k.lazy_iters.into()),
        ("lazy_sweeps", k.lazy_sweeps.into()),
        ("iterate_columns", k.iterate_columns.into()),
        ("scan_columns", k.scan_columns.into()),
        ("switches_to_scan", k.switches_to_scan.into()),
        ("probes_stayed", k.probes_stayed.into()),
        ("inter_columns", k.inter_columns.into()),
        ("inter_lane_columns", k.inter_lane_columns.into()),
        ("inter_saturated", k.inter_saturated.into()),
    ])
}

fn kernel_from_wire(v: &JsonValue) -> Result<RunStats, WireError> {
    Ok(RunStats {
        lazy_iters: u64_field(v, "lazy_iters")?,
        lazy_sweeps: u64_field(v, "lazy_sweeps")?,
        iterate_columns: u64_field(v, "iterate_columns")? as usize,
        scan_columns: u64_field(v, "scan_columns")? as usize,
        switches_to_scan: u64_field(v, "switches_to_scan")? as usize,
        probes_stayed: u64_field(v, "probes_stayed")? as usize,
        inter_columns: u64_field(v, "inter_columns")? as usize,
        inter_lane_columns: u64_field(v, "inter_lane_columns")? as usize,
        inter_saturated: optional_u64(v, "inter_saturated")? as usize,
    })
}

fn worker_to_wire(w: &WorkerMetrics) -> JsonValue {
    obj(vec![
        ("id", w.worker_id.into()),
        ("subjects", w.subjects.into()),
        ("residues", w.residues.into()),
        ("busy_us", duration_us(w.busy).into()),
        ("scratch_bytes", w.scratch_bytes.into()),
        ("queries_on_worker", w.queries_on_worker.into()),
    ])
}

fn worker_from_wire(v: &JsonValue) -> Result<WorkerMetrics, WireError> {
    Ok(WorkerMetrics {
        worker_id: u64_field(v, "id")? as usize,
        subjects: u64_field(v, "subjects")? as usize,
        residues: u64_field(v, "residues")? as usize,
        busy: Duration::from_micros(u64_field(v, "busy_us")?),
        scratch_bytes: u64_field(v, "scratch_bytes")? as usize,
        queries_on_worker: u64_field(v, "queries_on_worker")?,
    })
}

/// Versioned metrics document — the single source of truth behind
/// [`SearchMetrics::to_json`] and the server's per-response metrics.
pub fn metrics_to_wire(m: &SearchMetrics) -> JsonValue {
    versioned(vec![
        ("prepare_us", duration_us(m.prepare).into()),
        ("sweep_us", duration_us(m.sweep).into()),
        ("merge_us", duration_us(m.merge).into()),
        ("total_us", duration_us(m.total).into()),
        ("cells", m.cells.into()),
        ("gcups", m.gcups.into()),
        ("kernel", kernel_to_wire(&m.kernel_stats)),
        ("width_retries", m.width_retries.into()),
        ("rescued", m.rescued.into()),
        ("rescue_width_bits", histogram_to_wire(&m.rescue_widths)),
        ("certified_width", m.certified_width.into()),
        ("lane_width", m.lane_width.into()),
        ("coalesced", m.coalesced.into()),
        ("workers_respawned", m.workers_respawned.into()),
        (
            "shards",
            obj(vec![
                ("ok", m.shards.ok.into()),
                ("failed", m.shards.failed.into()),
                ("retried", m.shards.retried.into()),
                ("timed_out", m.shards.timed_out.into()),
            ]),
        ),
        ("peak_hits_buffered", m.peak_hits_buffered.into()),
        ("queue_wait_ns", histogram_to_wire(&m.queue_wait)),
        ("request_e2e_ns", histogram_to_wire(&m.request_e2e)),
        ("latency_ns", histogram_to_wire(&m.latency)),
        ("worker_load_residues", histogram_to_wire(&m.worker_load)),
        (
            "workers",
            JsonValue::Array(m.per_worker.iter().map(worker_to_wire).collect()),
        ),
    ])
}

/// Optional histogram field: absent decodes as empty, so documents
/// written before the field existed still parse within the same
/// schema version.
fn optional_histogram(v: &JsonValue, key: &str) -> Result<aalign_obs::Histogram, WireError> {
    match v.get(key) {
        Some(h) => histogram_from_wire(h),
        None => Ok(aalign_obs::Histogram::default()),
    }
}

/// Optional counter field: absent decodes as 0 (same additive-field
/// convention as [`optional_histogram`]).
fn optional_u64(v: &JsonValue, key: &str) -> Result<u64, WireError> {
    match v.get(key) {
        Some(_) => u64_field(v, key),
        None => Ok(0),
    }
}

/// Optional shard-outcome object: absent decodes as the all-zero
/// default, so pre-supervisor documents still parse within the same
/// schema version.
fn optional_shards(v: &JsonValue) -> Result<ShardOutcome, WireError> {
    match v.get("shards") {
        Some(s) => Ok(ShardOutcome {
            ok: u64_field(s, "ok")?,
            failed: u64_field(s, "failed")?,
            retried: u64_field(s, "retried")?,
            timed_out: u64_field(s, "timed_out")?,
        }),
        None => Ok(ShardOutcome::default()),
    }
}

/// Decode a metrics document (version-checked; lossless at
/// microsecond duration resolution).
pub fn metrics_from_wire(v: &JsonValue) -> Result<SearchMetrics, WireError> {
    check_version(v)?;
    Ok(SearchMetrics {
        prepare: Duration::from_micros(u64_field(v, "prepare_us")?),
        sweep: Duration::from_micros(u64_field(v, "sweep_us")?),
        merge: Duration::from_micros(u64_field(v, "merge_us")?),
        total: Duration::from_micros(u64_field(v, "total_us")?),
        cells: u64_field(v, "cells")?,
        gcups: f64_field(v, "gcups")?,
        kernel_stats: kernel_from_wire(field(v, "kernel")?)?,
        width_retries: u64_field(v, "width_retries")?,
        rescued: u64_field(v, "rescued")?,
        rescue_widths: histogram_from_wire(field(v, "rescue_width_bits")?)?,
        certified_width: optional_u64(v, "certified_width")? as u32,
        lane_width: optional_u64(v, "lane_width")? as u32,
        coalesced: u64_field(v, "coalesced")?,
        workers_respawned: u64_field(v, "workers_respawned")?,
        shards: optional_shards(v)?,
        peak_hits_buffered: u64_field(v, "peak_hits_buffered")? as usize,
        queue_wait: optional_histogram(v, "queue_wait_ns")?,
        request_e2e: optional_histogram(v, "request_e2e_ns")?,
        latency: histogram_from_wire(field(v, "latency_ns")?)?,
        worker_load: histogram_from_wire(field(v, "worker_load_residues")?)?,
        per_worker: array_field(v, "workers")?
            .iter()
            .map(worker_from_wire)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

/// Versioned report document: hits, counters, partial flag, typed
/// errors, and the full metrics block. Trace events are excluded by
/// design (they have their own JSONL format).
pub fn report_to_wire(r: &SearchReport) -> JsonValue {
    versioned(vec![
        ("partial", r.partial.into()),
        ("threads_used", r.threads_used.into()),
        ("subjects", r.subjects.into()),
        ("total_residues", r.total_residues.into()),
        (
            "hits",
            JsonValue::Array(r.hits.iter().map(hit_to_wire).collect()),
        ),
        ("errors", errors_to_wire(&r.errors)),
        ("metrics", metrics_to_wire(&r.metrics)),
    ])
}

/// Decode a report document (version-checked; `trace_events` comes
/// back empty).
pub fn report_from_wire(v: &JsonValue) -> Result<SearchReport, WireError> {
    check_version(v)?;
    Ok(SearchReport {
        partial: bool_field(v, "partial")?,
        threads_used: u64_field(v, "threads_used")? as usize,
        subjects: u64_field(v, "subjects")? as usize,
        total_residues: u64_field(v, "total_residues")? as usize,
        hits: array_field(v, "hits")?
            .iter()
            .map(hit_from_wire)
            .collect::<Result<Vec<_>, _>>()?,
        errors: array_field(v, "errors")?
            .iter()
            .map(error_from_wire)
            .collect::<Result<Vec<_>, _>>()?,
        metrics: metrics_from_wire(field(v, "metrics")?)?,
        trace_events: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut req = SearchRequest::new("MKVLA");
        req.id = Some("r1".into());
        req.tenant = Some("teamA".into());
        req.top_n = 5;
        req.deadline_ms = Some(250);
        req.no_batch = true;
        let doc = req.to_wire().render();
        let back = SearchRequest::from_wire(&JsonValue::parse(&doc).unwrap()).unwrap();
        assert_eq!(back.query, "MKVLA");
        assert_eq!(back.id.as_deref(), Some("r1"));
        assert_eq!(back.tenant.as_deref(), Some("teamA"));
        assert_eq!(back.top_n, 5);
        assert_eq!(back.deadline_ms, Some(250));
        assert!(back.no_batch);
    }

    #[test]
    fn request_requires_a_query_string() {
        for doc in [
            "{}",
            "{\"query\":7}",
            "[1]",
            "{\"query\":\"A\",\"top_n\":\"x\"}",
        ] {
            let v = JsonValue::parse(doc).unwrap();
            assert!(SearchRequest::from_wire(&v).is_err(), "{doc}");
        }
    }

    #[test]
    fn error_codes_are_stable_and_round_trip() {
        let samples = vec![
            AlignError::EmptyQuery,
            AlignError::AlphabetMismatch { id: "Q1".into() },
            AlignError::Cancelled,
            AlignError::DeadlineExceeded,
            AlignError::WorkerPanicked {
                db_index: 7,
                payload: "boom".into(),
            },
            AlignError::WorkerLost {
                worker_id: 2,
                payload: "killed".into(),
            },
            AlignError::ShardLost {
                shard: 1,
                start: 250,
                end: 500,
            },
        ];
        let codes: Vec<&str> = samples.iter().map(error_code).collect();
        assert_eq!(
            codes,
            vec![
                "empty_query",
                "alphabet_mismatch",
                "cancelled",
                "deadline_exceeded",
                "worker_panicked",
                "worker_lost",
                "shard_lost",
            ]
        );
        for e in samples {
            let wire = error_to_wire(&e);
            let back = error_from_wire(&JsonValue::parse(&wire.render()).unwrap()).unwrap();
            assert_eq!(back, e, "{}", wire.render());
        }
    }

    #[test]
    fn hit_round_trips_including_negative_scores() {
        for score in [i32::MIN, -3, 0, 7, i32::MAX] {
            let h = Hit {
                db_index: 42,
                len: 900,
                score,
            };
            let back =
                hit_from_wire(&JsonValue::parse(&hit_to_wire(&h).render()).unwrap()).unwrap();
            assert_eq!(back, h);
        }
    }

    #[test]
    fn unknown_error_code_is_rejected() {
        let v = JsonValue::parse(r#"{"code":"quantum_flux","message":"?"}"#).unwrap();
        assert!(error_from_wire(&v).is_err());
    }
}
