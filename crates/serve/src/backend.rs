//! What the dispatcher sweeps with: one narrow trait, two impls.
//!
//! Every request takes one path — front end → dispatcher gates →
//! [`SearchBackend::search`] → report. [`Local`] sweeps this process's
//! engine pool; [`Supervisor`] fans out to its child processes. The
//! dispatcher names neither, so admission, coalescing, cancellation
//! and the health numbers are the same code for both.

use std::sync::Arc;
use std::time::Duration;

use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::{AlignError, Aligner};
use aalign_obs::wire::{obj, JsonValue};
use aalign_par::{CancelToken, EngineHandle, FaultPlan, SearchOptions, SearchReport};
use aalign_shard::{ShardQuery, Supervisor};

/// A point-in-time description of a backend for `health()` and
/// `/metrics`.
#[derive(Debug, Clone)]
pub struct BackendStatus {
    /// Queries the backend has swept over its lifetime.
    pub queries_served: u64,
    /// The health document's `certified` block: which lane widths are
    /// statically rescue-free, or `null` when this process proved no
    /// certificate (a shard parent — each child proves its own).
    pub certified: JsonValue,
    /// The health document's `shards` block: child-process liveness,
    /// or `null` for an in-process backend.
    pub shards: JsonValue,
    /// Gauges only this kind of backend has, as `/metrics` rows of
    /// (name after `aalign_serve_`, help text, value).
    pub gauges: Vec<(&'static str, &'static str, u64)>,
}

/// The one seam between the dispatcher and whatever sweeps.
pub trait SearchBackend: Send + Sync {
    /// Sweep the database for `query`, keeping the best `top_n` hits
    /// (0 = every hit). A `deadline` that expires mid-sweep yields a
    /// `partial: true` report, not an error; a tripped `cancel` yields
    /// [`AlignError::Cancelled`].
    fn search(
        &self,
        query: &Sequence,
        top_n: usize,
        deadline: Option<Duration>,
        cancel: &CancelToken,
    ) -> Result<SearchReport, AlignError>;

    /// Sweeps the backend can run side by side: engine workers, or
    /// child processes.
    fn threads(&self) -> usize;

    /// Subjects in the database being served.
    fn subjects(&self) -> usize;

    /// Workers (threads or child processes) respawned after a panic
    /// or kill. Read before and after every request, so it must be
    /// cheap.
    fn respawns(&self) -> u64;

    /// The status block `health()` and `/metrics` report.
    fn status(&self) -> BackendStatus;
}

/// The in-process backend: an engine pool, an aligner and the whole
/// database.
#[derive(Debug)]
pub struct Local {
    pub(crate) engine: EngineHandle,
    pub(crate) aligner: Aligner,
    pub(crate) db: SeqDatabase,
    /// Chaos harness: applied to every sweep.
    fault_plan: Option<Arc<FaultPlan>>,
}

impl Local {
    /// An engine pool of `threads` workers (0 = available
    /// parallelism) over `db`.
    ///
    /// Certificates are loaded at startup: if the aligner does not
    /// already carry a [certificate store](aalign_core::CertificateStore),
    /// one is proven here against the database's length bounds, so
    /// every admitted request runs with statically certified width
    /// selection and `health()` can report which lane widths are
    /// proven rescue-free.
    pub fn new(aligner: Aligner, db: SeqDatabase, threads: usize) -> Self {
        let aligner = if aligner.certificates().is_none() && !db.is_empty() {
            // Queries arrive per request with unknown length; the
            // subject bound caps them too (longer queries simply fall
            // outside the certificate and use dynamic ScoreBounds).
            let max_len = db.stats().max_len;
            aligner.with_certified_bounds(max_len, max_len)
        } else {
            aligner
        };
        Self {
            engine: EngineHandle::new(threads),
            aligner,
            db,
            fault_plan: None,
        }
    }

    /// Apply a deterministic fault plan (worker kills, panics, stalls)
    /// to every sweep: the chaos harness of a live daemon under test.
    #[must_use]
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

impl SearchBackend for Local {
    fn search(
        &self,
        query: &Sequence,
        top_n: usize,
        deadline: Option<Duration>,
        cancel: &CancelToken,
    ) -> Result<SearchReport, AlignError> {
        let mut opts = SearchOptions::new().top_n(top_n).cancel(cancel.clone());
        if let Some(d) = deadline {
            opts = opts.deadline(d);
        }
        if let Some(plan) = &self.fault_plan {
            opts = opts.fault_plan(Arc::clone(plan));
        }
        self.engine.search(&self.aligner, query, &self.db, &opts)
    }

    fn threads(&self) -> usize {
        self.engine.threads()
    }

    fn subjects(&self) -> usize {
        self.db.len()
    }

    fn respawns(&self) -> u64 {
        self.engine.workers_respawned()
    }

    fn status(&self) -> BackendStatus {
        let certified = match self.aligner.certificates() {
            Some(store) => {
                let bound = store.certificates().first();
                obj(vec![
                    (
                        "granted_widths",
                        JsonValue::Array(
                            store
                                .granted_widths()
                                .into_iter()
                                .map(JsonValue::from)
                                .collect(),
                        ),
                    ),
                    ("max_query", bound.map_or(0, |c| c.max_query).into()),
                    ("max_subject", bound.map_or(0, |c| c.max_subject).into()),
                ])
            }
            None => JsonValue::Null,
        };
        BackendStatus {
            queries_served: self.engine.queries_served(),
            certified,
            shards: JsonValue::Null,
            gauges: Vec::new(),
        }
    }
}

/// The sharded backend. Degradation is the supervisor's job (lost
/// shards come back as `partial: true` with `ShardLost` errors); this
/// only adapts the request shape.
impl SearchBackend for Supervisor {
    fn search(
        &self,
        query: &Sequence,
        top_n: usize,
        deadline: Option<Duration>,
        cancel: &CancelToken,
    ) -> Result<SearchReport, AlignError> {
        let letters = String::from_utf8(query.text()).expect("alphabet letters are ASCII");
        let mut q = ShardQuery::new(letters)
            .query_id(query.id())
            .top_n(top_n)
            .cancel(cancel.clone());
        if let Some(d) = deadline {
            q = q.deadline(d);
        }
        Supervisor::search(self, &q)
    }

    fn threads(&self) -> usize {
        self.shards()
    }

    fn subjects(&self) -> usize {
        Supervisor::subjects(self)
    }

    fn respawns(&self) -> u64 {
        Supervisor::respawns(self)
    }

    fn status(&self) -> BackendStatus {
        // (health `shards` key, gauge name after `aalign_serve_`, help, value)
        #[rustfmt::skip]
        let rows = [
            ("count", "shards_total", "Database shards this daemon dispatches to.", self.shards() as u64),
            ("live", "shards_live", "Shards with a live child process right now.", self.shards_live() as u64),
            ("dead", "shards_dead", "Shards whose circuit breaker has tripped.", self.shards_dead() as u64),
            ("respawns", "shard_respawns", "Shard children respawned after a death.", Supervisor::respawns(self)),
        ];
        BackendStatus {
            queries_served: self.queries_served(),
            certified: JsonValue::Null,
            shards: obj(rows.iter().map(|&(key, _, _, v)| (key, v.into())).collect()),
            gauges: rows
                .iter()
                .map(|&(_, name, help, v)| (name, help, v))
                .collect(),
        }
    }
}
