//! Line-delimited JSON-RPC 2.0 front end, normally bound to
//! stdin/stdout (`aalign serve --stdio`), over the one request table
//! (`operate`) that the HTTP front end routes to as well.
//!
//! One request object per line in, one response object per line out,
//! in request order. Methods: `search` (params = the [`SearchRequest`]
//! object), `cancel` (`{"id": …}`), `shutdown` (begins drain; after the
//! reply the stdio daemon flushes stdout and exits on its own, so a
//! supervisor never has to close the pipe first), `health`, and
//! `metrics` and `flight`, whose text HTTP serves bare and JSON-RPC as
//! `{"format": …, "body": …}`. Any other `result` is HTTP's body.
//!
//! Service refusals map onto implementation-defined error codes:
//! `overloaded` −32001, `draining` −32002, `quota_exhausted` −32003,
//! engine failures −32004, unknown cancel id −32005, bad params −32602.
//! The full typed envelope rides in `error.data`.
//!
//! [`SearchRequest`]: crate::wire::SearchRequest

use std::time::Instant;

use aalign_obs::wire::{obj, versioned, JsonValue};
use aalign_obs::StageKind;

use crate::backend::SearchBackend;
use crate::dispatch::Dispatcher;
use crate::wire::{SearchRequest, ServeError};

const PARSE_ERROR: i64 = -32700;
const INVALID_REQUEST: i64 = -32600;
const METHOD_NOT_FOUND: i64 = -32601;
const INVALID_PARAMS: i64 = -32602;

/// JSON-RPC error code for a [`ServeError`].
fn rpc_code(e: &ServeError) -> i64 {
    match e {
        ServeError::BadRequest(_) => INVALID_PARAMS,
        ServeError::Overloaded { .. } => -32001,
        ServeError::Draining => -32002,
        ServeError::QuotaExhausted { .. } => -32003,
        ServeError::Engine(_) => -32004,
        ServeError::NotFound(_) => -32005,
    }
}

/// What an operation answers with.
pub(crate) enum Reply {
    /// A JSON document: the HTTP body, the JSON-RPC `result`.
    Json(JsonValue),
    /// Text that HTTP serves bare as content type `mime` and JSON-RPC
    /// wraps as `{"format": format, "body": body}`.
    Text {
        mime: &'static str,
        format: &'static str,
        body: String,
    },
}

/// Run operation `op` for either front end; `None` if there is no
/// operation of that name. `params` is the request's JSON document, or
/// why the front end could not read one. `emit` turns the reply or
/// refusal into the front end's output; a search times its decode as
/// the `parse` stage and `emit` as the `respond` stage.
pub(crate) fn operate<B: SearchBackend, T>(
    d: &Dispatcher<B>,
    op: &str,
    params: Result<JsonValue, ServeError>,
    emit: impl FnOnce(Result<Reply, ServeError>) -> T,
) -> Option<T> {
    // Params that do not decode are a bad request, counted here.
    let bad = |e| {
        d.note_bad_request();
        e
    };
    let reply = match op {
        "search" => {
            let rid = d.next_request_id();
            let parse_started = Instant::now();
            let req = params.and_then(|p| Ok(SearchRequest::from_wire(&p)?));
            let resp = match req.map_err(bad).and_then(|req| {
                d.record_stage(rid, StageKind::Parse, parse_started.elapsed(), 0);
                d.search_traced(&req, rid)
            }) {
                Ok(resp) => resp,
                Err(e) => return Some(emit(Err(e))),
            };
            let respond_started = Instant::now();
            let out = emit(Ok(Reply::Json(resp.to_wire())));
            d.record_stage(rid, StageKind::Respond, respond_started.elapsed(), 0);
            return Some(out);
        }
        "cancel" => {
            let missing = || ServeError::BadRequest("missing string field \"id\"".to_string());
            let id = params.and_then(|p| {
                let id = p.get("id").and_then(JsonValue::as_str);
                id.map(str::to_string).ok_or_else(missing)
            });
            id.map_err(bad).and_then(|id| {
                d.cancel(&id)?;
                Ok(Reply::Json(versioned(vec![("cancelled", id.into())])))
            })
        }
        "shutdown" => {
            d.begin_drain();
            Ok(Reply::Json(versioned(vec![("draining", true.into())])))
        }
        "health" => Ok(Reply::Json(d.health())),
        "metrics" => Ok(Reply::Text {
            mime: "text/plain; version=0.0.4",
            format: "prometheus",
            body: d.prometheus(),
        }),
        "flight" => Ok(Reply::Text {
            mime: "application/x-ndjson",
            format: "jsonl",
            body: d.flight().dump_jsonl(),
        }),
        _ => return None,
    };
    Some(emit(reply))
}

/// Handle one line of a JSON-RPC session: `None` for blank lines,
/// otherwise the rendered response object to write back. The daemon
/// loop uses this directly so reading (worker thread) and handling
/// (signal-polling main loop) can live on different threads.
pub fn respond_line<B: SearchBackend>(line: &str, d: &Dispatcher<B>) -> Option<String> {
    if line.trim().is_empty() {
        return None;
    }
    let doc = match JsonValue::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            d.note_bad_request();
            let unparsed = error(PARSE_ERROR, &e.to_string(), None);
            return Some(envelope(JsonValue::Null, Err(unparsed)));
        }
    };
    let id = doc.get("id").cloned().unwrap_or(JsonValue::Null);
    let Some(method) = doc.get("method").and_then(JsonValue::as_str) else {
        d.note_bad_request();
        let missing = error(INVALID_REQUEST, "missing string field \"method\"", None);
        return Some(envelope(id, Err(missing)));
    };
    let params = doc.get("params").cloned().unwrap_or(JsonValue::Null);
    // `respond` times the result's serialisation; the daemon writes it.
    let outcome = operate(d, method, Ok(params), |reply| match reply {
        Ok(Reply::Json(result)) => Ok(result),
        Ok(Reply::Text { format, body, .. }) => Ok(obj(vec![
            ("format", format.into()),
            ("body", body.as_str().into()),
        ])),
        Err(e) => Err(error(rpc_code(&e), &e.to_string(), Some(e.to_wire()))),
    });
    let outcome = outcome.unwrap_or_else(|| {
        Err(error(
            METHOD_NOT_FOUND,
            &format!("unknown method {method:?}"),
            None,
        ))
    });
    Some(envelope(id, outcome))
}

/// The rendered response object: a `result`, or an `error` object.
fn envelope(id: JsonValue, outcome: Result<JsonValue, JsonValue>) -> String {
    let body = match outcome {
        Ok(result) => ("result", result),
        Err(error) => ("error", error),
    };
    obj(vec![("jsonrpc", "2.0".into()), ("id", id), body]).render()
}

/// A JSON-RPC error object; a refusal's typed envelope rides in `data`.
fn error(code: i64, message: &str, data: Option<JsonValue>) -> JsonValue {
    let mut err = vec![("code", code.into()), ("message", message.into())];
    err.extend(data.map(|data| ("data", data)));
    obj(err)
}
