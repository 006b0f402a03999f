//! Line-delimited JSON-RPC 2.0 front end, normally bound to
//! stdin/stdout (`aalign serve --stdio`).
//!
//! One request object per line in, one response object per line out,
//! in request order. Methods: `search` (params = the same
//! [`SearchRequest`] object the HTTP front end takes), `health`,
//! `metrics`, `cancel` (`{"id": …}`), and `shutdown` (begins drain;
//! after the reply the stdio daemon flushes stdout and exits on its
//! own — a supervisor always reads the complete final line and never
//! has to close the pipe first).
//!
//! Service refusals map onto implementation-defined error codes:
//! `overloaded` −32001, `draining` −32002, `quota_exhausted` −32003,
//! engine failures −32004, unknown cancel id −32005. The full typed
//! envelope rides in `error.data`.
//!
//! [`SearchRequest`]: crate::wire::SearchRequest

use std::io::{self, BufRead, Write};
use std::time::Instant;

use aalign_obs::wire::{obj, JsonValue};
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

/// Serve JSON-RPC over any line-oriented transport until EOF.
/// Requests are handled sequentially on the calling thread.
pub fn serve_stdio<R: BufRead, W: Write, B: SearchBackend>(
    input: R,
    mut out: W,
    d: &Dispatcher<B>,
) -> io::Result<()> {
    for line in input.lines() {
        if let Some(response) = respond_line(&line?, d) {
            out.write_all(response.as_bytes())?;
            out.write_all(b"\n")?;
            out.flush()?;
        }
    }
    Ok(())
}

/// Handle one line of a JSON-RPC session: `None` for blank lines,
/// otherwise the rendered response object to write back. The daemon
/// loop uses this directly so reading (worker thread) and handling
/// (signal-polling main loop) can live on different threads.
pub fn respond_line<B: SearchBackend>(line: &str, d: &Dispatcher<B>) -> Option<String> {
    if line.trim().is_empty() {
        return None;
    }
    Some(handle_line(line, d).render())
}

fn handle_line<B: SearchBackend>(line: &str, d: &Dispatcher<B>) -> JsonValue {
    let doc = match JsonValue::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            d.note_bad_request();
            return error_response(JsonValue::Null, PARSE_ERROR, &e.to_string(), None);
        }
    };
    let id = doc.get("id").cloned().unwrap_or(JsonValue::Null);
    let Some(method) = doc.get("method").and_then(|m| m.as_str()) else {
        d.note_bad_request();
        return error_response(id, INVALID_REQUEST, "missing string field \"method\"", None);
    };
    let params = doc.get("params").cloned().unwrap_or(JsonValue::Null);

    match method {
        "search" => {
            let rid = d.next_request_id();
            let parse_started = Instant::now();
            match SearchRequest::from_wire(&params).map_err(ServeError::from) {
                Ok(req) => {
                    d.record_stage(rid, StageKind::Parse, parse_started.elapsed(), 0);
                    match d.search_traced(&req, rid) {
                        Ok(resp) => {
                            // The respond stage here is response
                            // serialization; the line write happens
                            // on the daemon loop.
                            let respond_started = Instant::now();
                            let wire = resp.to_wire();
                            d.record_stage(rid, StageKind::Respond, respond_started.elapsed(), 0);
                            result_response(id, wire)
                        }
                        Err(e) => serve_error_response(id, &e),
                    }
                }
                Err(e) => {
                    d.note_bad_request();
                    serve_error_response(id, &e)
                }
            }
        }
        "health" => result_response(id, d.health()),
        "metrics" => result_response(
            id,
            obj(vec![
                ("format", "prometheus".into()),
                ("body", d.prometheus().as_str().into()),
            ]),
        ),
        "cancel" => match params.get("id").and_then(|v| v.as_str()) {
            Some(target) => match d.cancel(target) {
                Ok(()) => result_response(id, obj(vec![("cancelled", target.into())])),
                Err(e) => serve_error_response(id, &e),
            },
            None => {
                d.note_bad_request();
                error_response(id, INVALID_PARAMS, "missing string field \"id\"", None)
            }
        },
        "shutdown" => {
            d.begin_drain();
            result_response(id, obj(vec![("draining", true.into())]))
        }
        other => error_response(
            id,
            METHOD_NOT_FOUND,
            &format!("unknown method {other:?}"),
            None,
        ),
    }
}

fn result_response(id: JsonValue, result: JsonValue) -> JsonValue {
    obj(vec![
        ("jsonrpc", "2.0".into()),
        ("id", id),
        ("result", result),
    ])
}

fn serve_error_response(id: JsonValue, e: &ServeError) -> JsonValue {
    error_response(id, rpc_code(e), &e.to_string(), Some(e.to_wire()))
}

fn error_response(id: JsonValue, code: i64, message: &str, data: Option<JsonValue>) -> JsonValue {
    let mut err = vec![("code", code.into()), ("message", message.into())];
    if let Some(data) = data {
        err.push(("data", data));
    }
    obj(vec![
        ("jsonrpc", "2.0".into()),
        ("id", id),
        ("error", obj(err)),
    ])
}
