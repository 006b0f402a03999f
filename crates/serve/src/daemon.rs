//! Daemon lifecycle: bind a front end, run until SIGTERM/SIGINT (or
//! a shutdown request), then drain gracefully.
//!
//! Graceful drain means: stop admitting ([`Dispatcher::begin_drain`]
//! — new requests get a typed `draining` refusal), let every
//! in-flight request finish, stop the accept loop, and only then
//! exit. [`run_daemon`] returns `0` for a clean drain and `1` when
//! the drain timeout expired with work still in flight.
//!
//! [`Dispatcher::begin_drain`]: crate::Dispatcher::begin_drain

use std::io::{self, BufRead, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use crate::backend::SearchBackend;
use crate::dispatch::Dispatcher;
use crate::http::serve_http;
use crate::rpc::respond_line;

/// Which transport the daemon speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    /// HTTP/JSON on a TCP listener.
    Http,
    /// Line-delimited JSON-RPC on stdin/stdout.
    Stdio,
}

/// Daemon settings (transport, bind address, drain budget).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DaemonOptions {
    /// Transport to serve.
    pub front_end: FrontEnd,
    /// Bind address for [`FrontEnd::Http`]; port 0 picks a free port
    /// (the chosen address is announced on stdout).
    pub addr: String,
    /// How long to wait for in-flight requests during drain before
    /// giving up and exiting dirty.
    pub drain_timeout: Duration,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            front_end: FrontEnd::Http,
            addr: "127.0.0.1:7691".to_string(),
            drain_timeout: Duration::from_secs(30),
        }
    }
}

impl DaemonOptions {
    /// Select the transport.
    pub fn front_end(mut self, fe: FrontEnd) -> Self {
        self.front_end = fe;
        self
    }

    /// Set the HTTP bind address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Set the drain budget.
    pub fn drain_timeout(mut self, d: Duration) -> Self {
        self.drain_timeout = d;
        self
    }
}

/// Minimal signal latch: SIGTERM/SIGINT set a flag the daemon loop
/// polls. No allocation or locking happens in the handler.
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // The C library's `signal(2)`; std links libc on every
        // supported platform. Used instead of sigaction to stay
        // declaration-only.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        // ORDER: Release — pairs with the Acquire in `terminated` so
        // the poller sees the store; the only async-signal-safe
        // action taken.
        TERM.store(true, Ordering::Release);
    }

    /// Install the SIGTERM/SIGINT latch. Idempotent.
    pub fn install() {
        // SAFETY: `signal` is the libc function with its documented
        // signature; `on_term` is an `extern "C" fn(i32)` whose body
        // is a single atomic store, which is async-signal-safe. The
        // returned previous handler is intentionally discarded.
        let handler = on_term as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    /// True once SIGTERM or SIGINT has been received.
    pub fn terminated() -> bool {
        // ORDER: Acquire — pairs with the Release store in `on_term`.
        TERM.load(Ordering::Acquire)
    }

    /// Reset the latch (tests only; a real daemon exits instead).
    pub fn reset() {
        // ORDER: Release — same discipline as the handler's store.
        TERM.store(false, Ordering::Release);
    }
}

/// Run the daemon until a termination signal or shutdown request,
/// then drain. Returns the process exit code: `0` after a clean
/// drain, `1` if in-flight requests outlived `drain_timeout`.
pub fn run_daemon<B: SearchBackend + 'static>(
    dispatcher: Arc<Dispatcher<B>>,
    opts: &DaemonOptions,
) -> io::Result<i32> {
    signal::install();
    match opts.front_end {
        FrontEnd::Http => run_http(dispatcher, opts),
        FrontEnd::Stdio => run_stdio(dispatcher, opts),
    }
}

fn run_http<B: SearchBackend + 'static>(
    dispatcher: Arc<Dispatcher<B>>,
    opts: &DaemonOptions,
) -> io::Result<i32> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    // Announced on stdout so scripts (and the CI smoke test) can
    // scrape the port when binding to :0.
    println!("aalign-serve listening on http://{addr}");
    io::stdout().flush()?;

    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let d = Arc::clone(&dispatcher);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_http(listener, d, stop))
    };

    while !signal::terminated() && !dispatcher.is_draining() {
        std::thread::sleep(Duration::from_millis(30));
    }

    dispatcher.begin_drain();
    let clean = dispatcher.wait_idle(opts.drain_timeout);
    // ORDER: Release — pairs with the Acquire poll in the accept
    // loop; set after drain so requests racing the signal still get
    // typed `draining` refusals rather than connection resets.
    stop.store(true, Ordering::Release);
    accept
        .join()
        .map_err(|_| io::Error::other("http accept thread panicked"))??;
    report_drain(clean, &dispatcher);
    Ok(i32::from(!clean))
}

fn run_stdio<B: SearchBackend>(
    dispatcher: Arc<Dispatcher<B>>,
    opts: &DaemonOptions,
) -> io::Result<i32> {
    // stdout is the RPC channel, so the banner goes to stderr.
    eprintln!("aalign-serve speaking JSON-RPC on stdio");

    // Reading and handling live on different threads: a blocked
    // stdin read must not stall drain. The latch handler is
    // installed with signal(2), which on glibc carries SA_RESTART —
    // a read parked in BufRead would be transparently restarted and
    // a single-threaded loop would never observe SIGTERM until EOF.
    // So a worker only reads and the main loop handles requests
    // while polling the latch between lines.
    let (tx, rx) = mpsc::channel::<io::Result<String>>();
    let reader = std::thread::Builder::new()
        .name("aalign-stdio-reader".to_string())
        .spawn(move || {
            let stdin = io::stdin();
            for line in stdin.lock().lines() {
                let stop = line.is_err();
                if tx.send(line).is_err() || stop {
                    break;
                }
            }
            // Dropping `tx` tells the main loop stdin hit EOF.
        })?;

    let stdout = io::stdout();
    let mut out = stdout.lock();
    let io_outcome: io::Result<()> = loop {
        if signal::terminated() {
            break Ok(());
        }
        match rx.recv_timeout(Duration::from_millis(30)) {
            Ok(Ok(line)) => {
                // Requests run synchronously here, so by the time the
                // loop exits every response has been written; drain
                // below finds the dispatcher already idle.
                if let Some(response) = respond_line(&line, &dispatcher) {
                    let wrote = out
                        .write_all(response.as_bytes())
                        .and_then(|()| out.write_all(b"\n"))
                        .and_then(|()| out.flush());
                    if let Err(e) = wrote {
                        break Err(e);
                    }
                }
                if dispatcher.is_draining() {
                    // A `shutdown` request was just answered. Exit
                    // without waiting for EOF — a shard supervisor
                    // keeps the pipe open and waits for the child to
                    // exit — but only after answering every line the
                    // reader already queued and flushing stdout, so
                    // the parent never reads a truncated final JSON
                    // line.
                    break flush_queued(&rx, &mut out, &dispatcher);
                }
            }
            Ok(Err(e)) => break Err(e),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break Ok(()),
        }
    };

    dispatcher.begin_drain();
    let clean = dispatcher.wait_idle(opts.drain_timeout);
    // After a signal the reader may still be parked in a stdin read;
    // it holds nothing worth joining for, and process exit reclaims
    // it. Join only once it finished on its own (EOF).
    if reader.is_finished() {
        let _ = reader.join();
    }
    report_drain(clean, &dispatcher);
    io_outcome?;
    Ok(i32::from(!clean))
}

/// Answer every line the stdio reader has already queued (late lines
/// get typed `draining` refusals once drain has begun), then flush
/// stdout to completion so the final reply is never truncated by
/// process exit.
fn flush_queued<B: SearchBackend>(
    rx: &mpsc::Receiver<io::Result<String>>,
    out: &mut impl Write,
    dispatcher: &Dispatcher<B>,
) -> io::Result<()> {
    while let Ok(Ok(line)) = rx.try_recv() {
        if let Some(response) = respond_line(&line, dispatcher) {
            out.write_all(response.as_bytes())?;
            out.write_all(b"\n")?;
        }
    }
    out.flush()
}

fn report_drain<B: SearchBackend>(clean: bool, dispatcher: &Dispatcher<B>) {
    if clean {
        eprintln!("aalign-serve: drained cleanly");
    } else {
        eprintln!("aalign-serve: drain timeout expired with requests still in flight");
        // Post-mortem: the last stage events show what the stuck
        // requests were doing.
        dispatcher.dump_flight("dirty drain");
    }
}
