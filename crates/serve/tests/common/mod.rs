//! A backend held open, so that a test can have a sweep in flight for
//! as long as it needs one, however fast the kernel is.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use aalign_bio::Sequence;
use aalign_core::AlignError;
use aalign_obs::wire::JsonValue;
use aalign_par::{CancelToken, SearchReport};
use aalign_serve::{BackendStatus, Dispatcher, DispatcherConfig, SearchBackend};

/// Wraps a backend: every sweep parks until the test calls
/// [`open`](Held::open) — or the request is cancelled — and then runs
/// the wrapped backend as usual.
pub struct Held<B> {
    inner: B,
    open: Mutex<bool>,
    opened: Condvar,
}

impl<B: SearchBackend + 'static> Held<B> {
    /// A dispatcher over `inner`, held, and the handle that opens it.
    pub fn dispatcher(inner: B, cfg: DispatcherConfig) -> (Arc<Dispatcher<Self>>, Arc<Self>) {
        let held = Arc::new(Self {
            inner,
            open: Mutex::new(false),
            opened: Condvar::new(),
        });
        let d = Arc::new(Dispatcher::with_backend(Arc::clone(&held), cfg));
        (d, held)
    }

    /// Let every parked sweep, and every later one, run.
    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl<B: SearchBackend> SearchBackend for Held<B> {
    fn search(
        &self,
        query: &Sequence,
        top_n: usize,
        deadline: Option<Duration>,
        cancel: &CancelToken,
    ) -> Result<SearchReport, AlignError> {
        let mut open = self.open.lock().unwrap();
        // A cancel trips no condition variable: look at it every ms.
        while !*open && !cancel.is_cancelled() {
            open = self
                .opened
                .wait_timeout(open, Duration::from_millis(1))
                .unwrap()
                .0;
        }
        drop(open);
        self.inner.search(query, top_n, deadline, cancel)
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn subjects(&self) -> usize {
        self.inner.subjects()
    }

    fn respawns(&self) -> u64 {
        self.inner.respawns()
    }

    fn status(&self) -> BackendStatus {
        self.inner.status()
    }
}

/// Poll until the dispatcher reports at least `n` in-flight requests
/// (bounded; panics rather than hanging the suite).
pub fn wait_inflight<B: SearchBackend>(d: &Dispatcher<B>, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let inflight = d
            .health()
            .get("inflight")
            .and_then(JsonValue::as_u64)
            .unwrap();
        if inflight >= n {
            return;
        }
        assert!(Instant::now() < deadline, "never reached {n} in flight");
        thread::sleep(Duration::from_millis(5));
    }
}
