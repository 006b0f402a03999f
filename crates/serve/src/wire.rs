//! Response wire types for the service: the schema the HTTP and
//! JSON-RPC front ends share.
//!
//! Requests decode through [`SearchRequest::from_wire`] (defined next
//! to the report schema in [`aalign_par::wire`], so the shard
//! supervisor and `aalign loadgen` encode the same type); every
//! response — success or failure — is a versioned document
//! (`"schema_version": 1`). Success responses embed the standard
//! [`report_to_wire`] shape, so a server response body and the CLI's
//! partial-result objects are byte-compatible; failures are
//! [`ServeError`] envelopes with stable `code` strings.

use std::fmt;
use std::sync::Arc;

use aalign_core::AlignError;
use aalign_obs::wire::{obj, JsonValue, WireError};
pub use aalign_par::wire::SearchRequest;
use aalign_par::wire::{error_code, error_to_wire, report_to_wire};
use aalign_par::SearchReport;

/// A completed search: the shared report plus response metadata.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// Echo of the request id, when one was given.
    pub id: Option<String>,
    /// Server-assigned trace id: the same id every stage event for
    /// this request carries in the flight recorder, so a response
    /// can be correlated with `GET /debug/flight` output.
    pub request_id: u64,
    /// True when this request coalesced onto another request's query
    /// profile instead of running its own sweep (the leader's
    /// response has `batched: false` but a nonzero
    /// `metrics.coalesced`).
    pub batched: bool,
    /// The search report — shared (`Arc`) across every coalesced
    /// response.
    pub report: Arc<SearchReport>,
}

impl SearchResponse {
    /// Versioned response document: the standard report shape
    /// ([`report_to_wire`]) with `id`, `request_id` (when nonzero),
    /// and `batched` spliced in after `schema_version`.
    pub fn to_wire(&self) -> JsonValue {
        let report = report_to_wire(&self.report);
        let JsonValue::Object(mut fields) = report else {
            unreachable!("report_to_wire returns an object");
        };
        let mut extra: Vec<(String, JsonValue)> = Vec::new();
        if let Some(id) = &self.id {
            extra.push(("id".to_string(), id.as_str().into()));
        }
        if self.request_id != 0 {
            extra.push(("request_id".to_string(), self.request_id.into()));
        }
        extra.push(("batched".to_string(), self.batched.into()));
        // schema_version stays first.
        fields.splice(1..1, extra);
        JsonValue::Object(fields)
    }
}

/// Why the service refused or failed a request. Every variant has a
/// stable wire `code` and an HTTP status; none of them is ever a bare
/// 500.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request document was malformed.
    BadRequest(String),
    /// Admission control refused the request: the in-flight budget
    /// and the bounded queue are both full, or a deadline-less
    /// request out-waited the dispatcher's admission budget. (A
    /// request whose *own* deadline expires while queued gets a
    /// `partial: true` report instead.)
    Overloaded {
        /// Requests currently running.
        inflight: usize,
        /// Requests currently queued for admission.
        queued: usize,
    },
    /// The daemon is draining: in-flight requests are completing, new
    /// ones are refused.
    Draining,
    /// The tenant's in-flight quota is already fully used.
    QuotaExhausted {
        /// The tenant that hit its quota.
        tenant: String,
        /// The configured per-tenant in-flight limit.
        quota: usize,
    },
    /// Unknown route / method / cancellation target.
    NotFound(String),
    /// The engine failed the query as a whole (empty query, alphabet
    /// mismatch, cancellation). Partial failures — deadline expiry,
    /// worker kills — are *not* errors: they come back as successful
    /// `partial: true` responses.
    Engine(AlignError),
}

impl ServeError {
    /// Stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Draining => "draining",
            ServeError::QuotaExhausted { .. } => "quota_exhausted",
            ServeError::NotFound(_) => "not_found",
            ServeError::Engine(e) => error_code(e),
        }
    }

    /// HTTP status line for this error.
    pub fn http_status(&self) -> (u16, &'static str) {
        match self {
            ServeError::BadRequest(_) => (400, "Bad Request"),
            ServeError::Overloaded { .. } => (429, "Too Many Requests"),
            ServeError::Draining => (503, "Service Unavailable"),
            ServeError::QuotaExhausted { .. } => (429, "Too Many Requests"),
            ServeError::NotFound(_) => (404, "Not Found"),
            ServeError::Engine(_) => (422, "Unprocessable Entity"),
        }
    }

    /// Versioned error envelope:
    /// `{"schema_version":1,"error":{"code":…,"message":…,…detail}}`.
    pub fn to_wire(&self) -> JsonValue {
        let inner = match self {
            ServeError::Engine(e) => error_to_wire(e),
            ServeError::Overloaded { inflight, queued } => obj(vec![
                ("code", self.code().into()),
                ("message", self.to_string().into()),
                ("inflight", (*inflight).into()),
                ("queued", (*queued).into()),
            ]),
            ServeError::QuotaExhausted { tenant, quota } => obj(vec![
                ("code", self.code().into()),
                ("message", self.to_string().into()),
                ("tenant", tenant.as_str().into()),
                ("quota", (*quota).into()),
            ]),
            _ => obj(vec![
                ("code", self.code().into()),
                ("message", self.to_string().into()),
            ]),
        };
        aalign_obs::wire::versioned(vec![("error", inner)])
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Overloaded { inflight, queued } => write!(
                f,
                "overloaded: {inflight} in flight, {queued} queued; retry later or raise the deadline"
            ),
            ServeError::Draining => write!(f, "daemon is draining; new requests are refused"),
            ServeError::QuotaExhausted { tenant, quota } => {
                write!(f, "tenant {tenant:?} already has {quota} request(s) in flight")
            }
            ServeError::NotFound(what) => write!(f, "not found: {what}"),
            ServeError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A request document that does not decode is the client's mistake.
impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::BadRequest(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalign_obs::wire::str_field;

    #[test]
    fn error_envelopes_carry_stable_codes_and_statuses() {
        let cases: Vec<(ServeError, &str, u16)> = vec![
            (ServeError::BadRequest("x".into()), "bad_request", 400),
            (
                ServeError::Overloaded {
                    inflight: 4,
                    queued: 8,
                },
                "overloaded",
                429,
            ),
            (ServeError::Draining, "draining", 503),
            (
                ServeError::QuotaExhausted {
                    tenant: "t".into(),
                    quota: 2,
                },
                "quota_exhausted",
                429,
            ),
            (ServeError::NotFound("/nope".into()), "not_found", 404),
            (
                ServeError::Engine(AlignError::EmptyQuery),
                "empty_query",
                422,
            ),
        ];
        for (err, code, status) in cases {
            assert_eq!(err.code(), code);
            assert_eq!(err.http_status().0, status);
            let wire = err.to_wire();
            aalign_obs::wire::check_version(&wire).unwrap();
            assert_eq!(str_field(wire.get("error").unwrap(), "code").unwrap(), code);
        }
    }
}
