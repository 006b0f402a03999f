//! Minimal HTTP/1.1 front end over `std::net` — no framework, no
//! async runtime.
//!
//! One thread per connection, `Connection: close` on every response.
//! Routes:
//!
//! | route               | body                         | reply                         |
//! |---------------------|------------------------------|-------------------------------|
//! | `GET /v1/health`    | —                            | versioned health JSON         |
//! | `GET /metrics`      | —                            | Prometheus text               |
//! | `GET /debug/flight` | —                            | flight-recorder dump (JSONL)  |
//! | `POST /v1/search`   | [`SearchRequest`] JSON       | versioned report / error      |
//! | `POST /v1/cancel`   | `{"id": "…"}`                | `{"cancelled": "…"}` / 404    |
//! | `POST /v1/shutdown` | —                            | `{"draining": true}`          |
//!
//! Every search is traced: the connection thread allocates the
//! request id before parsing, so `parse` and `respond` stage timings
//! land in the flight recorder alongside the dispatcher's own
//! queue/sweep stages.
//!
//! [`SearchRequest`]: crate::wire::SearchRequest

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aalign_obs::wire::{versioned, JsonValue};
use aalign_obs::StageKind;

use crate::backend::SearchBackend;
use crate::dispatch::Dispatcher;
use crate::wire::{SearchRequest, ServeError};

/// Largest accepted request body; larger bodies get `413`.
const MAX_BODY: usize = 1 << 20;

/// Longest accepted request line or single header line; longer lines
/// get `431`. Bounds how much a hostile client can make the daemon
/// buffer before `Content-Length` is even known.
const MAX_HEADER_LINE: usize = 8 << 10;

/// Cap on the total header section (all lines together), so an
/// endless stream of tiny headers is refused too.
const MAX_HEADER_BYTES: usize = 32 << 10;

/// Per-connection socket timeout: a stalled client cannot pin a
/// connection thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Accept connections until `stop` is set, dispatching each on its
/// own thread. Returns once the accept loop has exited and every
/// connection thread has been joined — i.e. after drain.
pub fn serve_http<B: SearchBackend + 'static>(
    listener: TcpListener,
    dispatcher: Arc<Dispatcher<B>>,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    // ORDER: Acquire — pairs with the Release store in the daemon's
    // shutdown path so the loop sees state written before the stop.
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let d = Arc::clone(&dispatcher);
                conns.push(std::thread::spawn(move || {
                    // A broken connection is the client's problem,
                    // never the daemon's.
                    let _ = handle_connection(stream, &d);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
    Ok(())
}

fn handle_connection<B: SearchBackend>(stream: TcpStream, d: &Dispatcher<B>) -> io::Result<()> {
    // The listener is non-blocking; this stream must not be.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;

    let (method, path, body) = match read_request(&mut reader) {
        Ok(parts) => parts,
        Err(RequestError::TooLarge) => {
            d.note_bad_request();
            return write_error(
                &mut out,
                413,
                "Payload Too Large",
                &ServeError::BadRequest(format!("request body exceeds {MAX_BODY} bytes")),
            );
        }
        Err(RequestError::HeadersTooLarge) => {
            d.note_bad_request();
            return write_error(
                &mut out,
                431,
                "Request Header Fields Too Large",
                &ServeError::BadRequest(format!(
                    "request line or headers exceed {MAX_HEADER_BYTES} bytes"
                )),
            );
        }
        Err(RequestError::Malformed(msg)) => {
            d.note_bad_request();
            return write_error(&mut out, 400, "Bad Request", &ServeError::BadRequest(msg));
        }
        Err(RequestError::Io(e)) => return Err(e),
    };

    match (method.as_str(), path.as_str()) {
        ("GET", "/v1/health") => write_json(&mut out, 200, "OK", &d.health().render()),
        ("GET", "/metrics") => write_body(
            &mut out,
            200,
            "OK",
            "text/plain; version=0.0.4",
            d.prometheus().as_bytes(),
        ),
        ("GET", "/debug/flight") => write_body(
            &mut out,
            200,
            "OK",
            "application/x-ndjson",
            d.flight().dump_jsonl().as_bytes(),
        ),
        ("POST", "/v1/search") => {
            let rid = d.next_request_id();
            let parse_started = Instant::now();
            match parse_search(&body) {
                Ok(req) => {
                    d.record_stage(rid, StageKind::Parse, parse_started.elapsed(), 0);
                    match d.search_traced(&req, rid) {
                        Ok(resp) => {
                            let respond_started = Instant::now();
                            let outcome = write_json(&mut out, 200, "OK", &resp.to_wire().render());
                            d.record_stage(rid, StageKind::Respond, respond_started.elapsed(), 0);
                            outcome
                        }
                        Err(e) => {
                            let (code, reason) = e.http_status();
                            write_error(&mut out, code, reason, &e)
                        }
                    }
                }
                Err(e) => {
                    d.note_bad_request();
                    let (code, reason) = e.http_status();
                    write_error(&mut out, code, reason, &e)
                }
            }
        }
        ("POST", "/v1/cancel") => match parse_cancel(&body) {
            Ok(id) => match d.cancel(&id) {
                Ok(()) => write_json(
                    &mut out,
                    200,
                    "OK",
                    &versioned(vec![("cancelled", id.as_str().into())]).render(),
                ),
                Err(e) => {
                    let (code, reason) = e.http_status();
                    write_error(&mut out, code, reason, &e)
                }
            },
            Err(e) => {
                d.note_bad_request();
                let (code, reason) = e.http_status();
                write_error(&mut out, code, reason, &e)
            }
        },
        ("POST", "/v1/shutdown") => {
            d.begin_drain();
            write_json(
                &mut out,
                200,
                "OK",
                &versioned(vec![("draining", true.into())]).render(),
            )
        }
        _ => {
            let e = ServeError::NotFound(format!("{method} {path}"));
            let (code, reason) = e.http_status();
            write_error(&mut out, code, reason, &e)
        }
    }
}

fn parse_search(body: &[u8]) -> Result<SearchRequest, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("request body is not UTF-8".to_string()))?;
    let doc = JsonValue::parse(text).map_err(|e| ServeError::BadRequest(e.to_string()))?;
    Ok(SearchRequest::from_wire(&doc)?)
}

fn parse_cancel(body: &[u8]) -> Result<String, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("request body is not UTF-8".to_string()))?;
    let doc = JsonValue::parse(text).map_err(|e| ServeError::BadRequest(e.to_string()))?;
    doc.get("id")
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| ServeError::BadRequest("missing string field \"id\"".to_string()))
}

#[derive(Debug)]
enum RequestError {
    TooLarge,
    HeadersTooLarge,
    Malformed(String),
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// Read one newline-terminated line of at most `max` bytes. Returns
/// `None` at EOF. The `take` bound means at most `max + 1` bytes are
/// ever buffered, however long the client keeps streaming — an
/// unbounded line is a typed `431`, not memory growth.
fn read_line_bounded(
    reader: &mut impl BufRead,
    max: usize,
) -> Result<Option<String>, RequestError> {
    let mut buf = Vec::new();
    reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() > max {
        return Err(RequestError::HeadersTooLarge);
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| RequestError::Malformed("header line is not UTF-8".to_string()))
}

/// Parse `METHOD PATH HTTP/1.x`, the headers we care about
/// (`Content-Length`), and exactly that many body bytes. Request
/// line, individual header lines, and the header section as a whole
/// are all length-capped before the body cap even applies.
fn read_request(reader: &mut impl BufRead) -> Result<(String, String, Vec<u8>), RequestError> {
    let line = read_line_bounded(reader, MAX_HEADER_LINE)?
        .ok_or_else(|| RequestError::Malformed("empty request".to_string()))?;
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m.to_string(), p.to_string()),
        _ => {
            return Err(RequestError::Malformed(format!(
                "unparseable request line {:?}",
                line.trim_end()
            )))
        }
    };
    let mut content_length = 0usize;
    let mut header_bytes = 0usize;
    loop {
        let header = read_line_bounded(reader, MAX_HEADER_LINE)?
            .ok_or_else(|| RequestError::Malformed("connection closed mid-headers".to_string()))?;
        header_bytes += header.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(RequestError::HeadersTooLarge);
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Malformed("bad Content-Length".to_string()))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((method, path, body))
}

fn write_json(out: &mut impl Write, code: u16, reason: &str, body: &str) -> io::Result<()> {
    write_body(out, code, reason, "application/json", body.as_bytes())
}

fn write_error(out: &mut impl Write, code: u16, reason: &str, err: &ServeError) -> io::Result<()> {
    write_json(out, code, reason, &err.to_wire().render())
}

fn write_body(
    out: &mut impl Write,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<(String, String, Vec<u8>), RequestError> {
        read_request(&mut BufReader::new(Cursor::new(raw.to_vec())))
    }

    #[test]
    fn normal_requests_parse() {
        let (method, path, body) =
            parse(b"POST /v1/search HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi").unwrap();
        assert_eq!(method, "POST");
        assert_eq!(path, "/v1/search");
        assert_eq!(body, b"hi");
    }

    #[test]
    fn oversized_header_lines_are_refused_not_buffered() {
        // One header line past the cap: typed refusal, and never more
        // than MAX_HEADER_LINE + 1 bytes buffered.
        let mut raw = b"GET /v1/health HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(raw.len() + MAX_HEADER_LINE + 10, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&raw), Err(RequestError::HeadersTooLarge)));

        // An oversized request line is refused the same way.
        let mut raw = b"GET /".to_vec();
        raw.resize(raw.len() + MAX_HEADER_LINE + 10, b'x');
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(parse(&raw), Err(RequestError::HeadersTooLarge)));
    }

    #[test]
    fn unbounded_header_count_is_refused() {
        // Many small headers whose sum passes the section cap.
        let mut raw = b"GET /v1/health HTTP/1.1\r\n".to_vec();
        for i in 0..u64::MAX {
            raw.extend_from_slice(format!("X-{i}: y\r\n").as_bytes());
            if raw.len() > MAX_HEADER_BYTES + 1024 {
                break;
            }
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&raw), Err(RequestError::HeadersTooLarge)));
    }
}
