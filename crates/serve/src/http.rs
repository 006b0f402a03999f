//! Minimal HTTP/1.1 front end over `std::net` — no framework, no
//! async runtime.
//!
//! One thread per connection, `Connection: close` on every response;
//! the accept loop parks on the listener's descriptor (`poll(2)`), so
//! a connection is picked up when it arrives, not a poll period later.
//! Routes:
//!
//! | route               | body                         | reply                         |
//! |---------------------|------------------------------|-------------------------------|
//! | `GET /v1/health`    | —                            | versioned health JSON         |
//! | `GET /metrics`      | —                            | Prometheus text               |
//! | `GET /debug/flight` | —                            | flight-recorder dump (JSONL)  |
//! | `POST /v1/search`   | [`SearchRequest`] JSON       | versioned report / error      |
//! | `POST /v1/cancel`   | `{"id": "…"}`                | versioned `cancelled` / 404   |
//! | `POST /v1/shutdown` | —                            | versioned `draining: true`    |
//!
//! Each route is an operation of the request table the JSON-RPC front
//! end ([`crate::rpc`]) serves too; it traces a search's `parse` and
//! `respond` stages beside the dispatcher's queue and sweep stages.
//!
//! [`SearchRequest`]: crate::wire::SearchRequest

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aalign_obs::wire::JsonValue;

use crate::backend::SearchBackend;
use crate::dispatch::Dispatcher;
use crate::rpc::{self, Reply};
use crate::wire::ServeError;

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

/// Longest the accept loop waits for a connection before it looks at
/// `stop` again: a caller that only stores the flag gets its return
/// within this period.
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
            // The backlog is empty. A connect wakes the wait at once;
            // whatever else ends it, the next `accept` reports.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                wait_readable(&listener, ACCEPT_POLL);
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

/// Park until `listener` has a connection to accept or `timeout` has
/// passed. The listener stays non-blocking — a connection reset between
/// readiness and `accept` must not park the loop inside `accept` — so
/// the result of `poll(2)` is not looked at: ready, timed out, `EINTR`
/// or an error condition, the caller's next `accept` finds out which.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    use std::ffi::{c_int, c_short};
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    const POLLIN: c_short = 0x001;

    // `nfds_t`: `unsigned int` on macOS and the BSDs, `unsigned long`
    // on Linux and the other unixes.
    #[cfg(any(
        target_vendor = "apple",
        target_os = "freebsd",
        target_os = "dragonfly",
        target_os = "netbsd",
        target_os = "openbsd"
    ))]
    type Nfds = std::ffi::c_uint;
    #[cfg(not(any(
        target_vendor = "apple",
        target_os = "freebsd",
        target_os = "dragonfly",
        target_os = "netbsd",
        target_os = "openbsd"
    )))]
    type Nfds = std::ffi::c_ulong;

    extern "C" {
        // The C library's `poll(2)`, declaration-only like the
        // daemon's `signal(2)`.
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: c_int) -> c_int;
    }

    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `poll` is the libc function with its documented
    // signature; `fds` points at one live `PollFd` that outlives the
    // call and `nfds` is 1, so the kernel reads and writes that struct
    // only; the descriptor is borrowed from a listener that outlives
    // the call. The return value is discarded on purpose (see above).
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

/// No `poll(2)` to declare off unix: look again after `timeout`.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

fn handle_connection<B: SearchBackend>(stream: TcpStream, d: &Dispatcher<B>) -> io::Result<()> {
    // The listener is non-blocking; this stream must not be.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    exchange(&mut reader, &mut out, d)
}

/// One request and its response. The response is rendered whole by
/// the request table and written only once the table has returned, so
/// a search's `respond` stage (its serialisation) is on record before
/// the client can read a byte of it; head and body leave in one
/// `write` — formatted straight onto the socket the head alone is nine
/// small segments, on a connection without `TCP_NODELAY`.
fn exchange<B: SearchBackend>(
    reader: &mut impl BufRead,
    out: &mut impl Write,
    d: &Dispatcher<B>,
) -> io::Result<()> {
    let response = match read_request(reader) {
        Ok((method, path, body)) => {
            let op = match (method.as_str(), path.as_str()) {
                ("POST", "/v1/search") => "search",
                ("POST", "/v1/cancel") => "cancel",
                ("POST", "/v1/shutdown") => "shutdown",
                ("GET", "/v1/health") => "health",
                ("GET", "/metrics") => "metrics",
                ("GET", "/debug/flight") => "flight",
                // No operation has this name, so the table answers `None`.
                _ => "",
            };
            rpc::operate(d, op, body_json(&body), |reply| match reply {
                Ok(Reply::Json(doc)) => json_response(200, "OK", &doc.render()),
                Ok(Reply::Text { mime, body, .. }) => response(200, "OK", mime, body.as_bytes()),
                Err(e) => error_response(&e),
            })
            .unwrap_or_else(|| error_response(&ServeError::NotFound(format!("{method} {path}"))))
        }
        // Framing refusals: the status names what was too long or broken.
        Err(refused) => {
            let (code, reason, msg) = match refused {
                RequestError::TooLarge => (
                    413,
                    "Payload Too Large",
                    format!("request body exceeds {MAX_BODY} bytes"),
                ),
                RequestError::HeadersTooLarge => (
                    431,
                    "Request Header Fields Too Large",
                    format!("request line or headers exceed {MAX_HEADER_BYTES} bytes"),
                ),
                RequestError::Malformed(msg) => (400, "Bad Request", msg),
                RequestError::Io(e) => return Err(e),
            };
            d.note_bad_request();
            let refusal = ServeError::BadRequest(msg).to_wire().render();
            json_response(code, reason, &refusal)
        }
    };
    out.write_all(&response)?;
    out.flush()
}

/// The request body as the operation's params: a JSON document, or
/// the typed `400` an operation that reads its params answers with.
fn body_json(body: &[u8]) -> Result<JsonValue, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("request body is not UTF-8".to_string()))?;
    JsonValue::parse(text).map_err(|e| ServeError::BadRequest(e.to_string()))
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
/// (request line included) are all length-capped before the body cap
/// even applies. The body's framing is never guessed: two
/// `Content-Length` values that disagree, or any `Transfer-Encoding`
/// (chunked bodies are not read), are a typed `400`.
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
    let mut content_length: Option<usize> = None;
    let mut header_bytes = line.len();
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
                let length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Malformed("bad Content-Length".to_string()))?;
                if content_length.is_some_and(|first| first != length) {
                    return Err(RequestError::Malformed(
                        "conflicting Content-Length headers".to_string(),
                    ));
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(RequestError::Malformed(
                    "Transfer-Encoding is not supported; send Content-Length".to_string(),
                ));
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(RequestError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((method, path, body))
}

fn json_response(code: u16, reason: &str, body: &str) -> Vec<u8> {
    response(code, reason, "application/json", body.as_bytes())
}

/// A refusal, under the HTTP status its kind maps to.
fn error_response(err: &ServeError) -> Vec<u8> {
    let (code, reason) = err.http_status();
    json_response(code, reason, &err.to_wire().render())
}

/// The response's bytes, head and body.
fn response(code: u16, reason: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut response = Vec::with_capacity(128 + body.len());
    write!(
        response,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
    response.extend_from_slice(body);
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    use aalign_bio::matrices::BLOSUM62;
    use aalign_bio::synth::swissprot_like_db;
    use aalign_core::{AlignConfig, Aligner, GapModel};
    use aalign_obs::StageKind;

    use crate::DispatcherConfig;

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

    fn malformed(raw: &[u8]) -> String {
        match parse(raw) {
            Err(RequestError::Malformed(msg)) => msg,
            other => panic!("expected a typed 400, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_content_lengths_are_refused_equal_ones_accepted() {
        let msg = malformed(
            b"POST /v1/search HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 5\r\n\r\nhi{..}",
        );
        assert_eq!(msg, "conflicting Content-Length headers");

        let (_, _, body) =
            parse(b"POST /v1/search HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi")
                .unwrap();
        assert_eq!(body, b"hi");
    }

    #[test]
    fn transfer_encoding_is_refused_by_name() {
        // A chunked body must not be read as a 0-byte one.
        let msg = malformed(
            b"POST /v1/search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n",
        );
        assert!(msg.contains("Transfer-Encoding"), "{msg}");
        // Refused even beside a Content-Length: which one frames the
        // body is exactly the guess the reader does not make.
        let msg = malformed(
            b"POST /v1/search HTTP/1.1\r\nContent-Length: 2\r\ntransfer-encoding: identity\r\n\r\nhi",
        );
        assert!(msg.contains("Transfer-Encoding"), "{msg}");
    }

    /// The client's side of one [`exchange`]: the bytes, the `write`
    /// calls that delivered them, and whether the dispatcher had
    /// recorded a `respond` stage when the first of them arrived.
    struct Client<'a> {
        d: &'a Dispatcher,
        bytes: Vec<u8>,
        writes: usize,
        responded_before_first_byte: Option<bool>,
    }

    impl Write for Client<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.bytes.is_empty() {
                let events = self.d.flight().snapshot();
                let responded = events.iter().any(|e| e.stage == StageKind::Respond);
                self.responded_before_first_byte = Some(responded);
            }
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn dispatcher() -> Dispatcher {
        let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
        Dispatcher::new(
            aligner,
            swissprot_like_db(7, 8),
            1,
            DispatcherConfig::default(),
        )
    }

    /// `request` through [`exchange`] as one client sees it.
    fn exchange_with<'a>(d: &'a Dispatcher, request: &str) -> Client<'a> {
        let mut client = Client {
            d,
            bytes: Vec::new(),
            writes: 0,
            responded_before_first_byte: None,
        };
        exchange(&mut Cursor::new(request.as_bytes()), &mut client, d).unwrap();
        client
    }

    #[test]
    fn a_response_is_these_bytes_in_one_write() {
        let d = dispatcher();
        let client = exchange_with(
            &d,
            "POST /v1/shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        );
        let body = r#"{"schema_version":1,"draining":true}"#;
        assert_eq!(
            String::from_utf8(client.bytes).unwrap(),
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
        );
        assert_eq!(client.writes, 1);
    }

    /// A client that stops reading at `Content-Length` and asks for
    /// `/debug/flight` or `/metrics` next must find its search's
    /// `respond` stage there: no byte of the response may leave before
    /// that stage is recorded.
    #[test]
    fn a_search_is_recorded_as_responded_before_its_first_byte_leaves() {
        let d = dispatcher();
        let body = r#"{"query":"MKVLAARNDWHEAGAWGHEE","top_n":2}"#;
        let request = format!(
            "POST /v1/search HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let client = exchange_with(&d, &request);
        assert!(client.bytes.starts_with(b"HTTP/1.1 200 OK"));
        assert_eq!(
            client.responded_before_first_byte,
            Some(true),
            "a search response's first byte was written before its `respond` stage was recorded"
        );
    }

    /// `head`, then `tail` over and over (an empty `tail` is EOF): a
    /// client that never stops sending. `pos` counts what the reader
    /// under test has consumed.
    struct Stream {
        head: Vec<u8>,
        tail: Vec<u8>,
        pos: usize,
    }

    impl BufRead for Stream {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            Ok(match self.pos.checked_sub(self.head.len()) {
                None => &self.head[self.pos..],
                Some(_) if self.tail.is_empty() => &[],
                Some(past) => &self.tail[past % self.tail.len()..],
            })
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    impl Read for Stream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut available = self.fill_buf()?;
            let n = available.read(buf)?;
            self.consume(n);
            Ok(n)
        }
    }

    /// Valid requests to mutate: what `tests/frontends.rs`, `aalign
    /// loadgen` and the benchmark's client put on the wire.
    const SEEDS: [&str; 5] = [
        "GET /v1/health HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n",
        "POST /v1/search HTTP/1.1\r\nHost: test\r\nContent-Length: 52\r\n\r\n\
         {\"query\":\"MKVLAARNDWHEAGAWGHEE\",\"top_n\":5,\"id\":\"r1\"}",
        "POST /v1/search HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: 33\r\n\r\n{\"query\":\"MKVLAARNDW\",\"top_n\":10}",
        "POST /v1/cancel HTTP/1.1\r\nHost: test\r\nContent-Length: 14\r\n\r\n{\"id\":\"ghost\"}",
        "POST /v1/shutdown HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n",
    ];

    /// Spliced into a seed, at the start of a line or anywhere.
    const FRAGMENTS: [&str; 12] = [
        "Content-Length: 7\r\n",
        "content-length:1048576\r\n",
        "Content-Length: 1048577\r\n",
        "Content-Length: 18446744073709551616\r\n",
        "Content-Length: -1\r\n",
        "Transfer-Encoding: chunked\r\n",
        "\r\n",
        "\n",
        "\r",
        ":",
        " ",
        "\u{e9}",
    ];

    /// What a client keeps sending after the mutated request.
    const TAILS: [&str; 4] = ["", "a", "X-Pad: y\r\n", "\r\n"];

    /// No panic, a typed outcome, and a bounded read whatever the
    /// request claims about its own length.
    fn check(head: Vec<u8>, tail: &str) {
        let shown = String::from_utf8_lossy(&head).into_owned();
        let mut stream = Stream {
            head,
            // Whole repeats, so long reads are not one pattern a call.
            tail: tail
                .repeat(4096usize.div_ceil(tail.len().max(1)))
                .into_bytes(),
            pos: 0,
        };
        let outcome = read_request(&mut stream);
        assert!(
            stream.pos <= MAX_HEADER_BYTES + MAX_BODY,
            "{shown:?} + {tail:?}…: consumed {} bytes",
            stream.pos
        );
        match outcome {
            Ok((method, path, body)) => {
                assert!(!method.is_empty() && !path.is_empty(), "{shown:?}");
                assert!(
                    body.len() <= MAX_BODY,
                    "{shown:?}: {} body bytes",
                    body.len()
                );
            }
            Err(
                RequestError::TooLarge | RequestError::HeadersTooLarge | RequestError::Malformed(_),
            ) => {}
            // An in-memory stream fails one way only: it ends early.
            Err(RequestError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{shown:?}");
            }
        }
    }

    #[test]
    fn seeds_parse_unmutated() {
        for seed in SEEDS {
            let (_, _, body) = parse(seed.as_bytes()).unwrap_or_else(|e| panic!("{seed}: {e:?}"));
            let (_, sent) = seed.split_once("\r\n\r\n").unwrap();
            assert_eq!(body, sent.as_bytes());
        }
    }

    #[test]
    fn arbitrary_and_mutated_requests_never_panic_or_overread() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x0a11_9e55);
        for _ in 0..2048 {
            let tail = TAILS[rng.random_range(0..TAILS.len())];

            let len = rng.random_range(0..96usize);
            let bytes = (0..len).map(|_| rng.random_range(0..=255u8)).collect();
            check(bytes, tail);

            let mut doc = SEEDS[rng.random_range(0..SEEDS.len())].as_bytes().to_vec();
            let at = rng.random_range(0..doc.len());
            let line_start = doc[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |nl| nl + 1);
            let fragment = FRAGMENTS[rng.random_range(0..FRAGMENTS.len())];
            match rng.random_range(0..6u8) {
                0 => doc[at] ^= rng.random_range(1..=255u8),
                1 => doc.truncate(at),
                2 => drop(doc.splice(at..at, fragment.bytes())),
                3 => drop(doc.splice(line_start..line_start, fragment.bytes())),
                // A line dropped: the request line, a header, or the
                // blank line that ends them.
                4 => drop(doc.drain(line_start..at)),
                // `Content-Length` re-declared as any number at all.
                _ => {
                    let claim = match rng.random_range(0..3u8) {
                        0 => rng.random_range(0..64u64),
                        1 => rng.random_range(MAX_BODY as u64 - 2..MAX_BODY as u64 + 3),
                        _ => rng.random_range(0..=u64::MAX),
                    };
                    let text = String::from_utf8(doc).unwrap();
                    let (before, declared) = text.split_once("Content-Length: ").unwrap();
                    let (_, after) = declared.split_once("\r\n").unwrap();
                    doc = format!("{before}Content-Length: {claim}\r\n{after}").into_bytes();
                }
            }
            check(doc, tail);
        }
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
