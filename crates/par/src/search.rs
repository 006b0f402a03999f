//! The dynamic-binding database search's options and report; the
//! sweep itself is [`SearchEngine::search`](crate::SearchEngine::search).

use aalign_core::AlignError;
use aalign_obs::TraceEvent;

use crate::metrics::{CancelToken, ProgressFn, SearchMetrics, SearchProgress};

/// One database hit.
///
/// Stores only plain numbers — no per-hit `String` is allocated in
/// the sweep's hot loop. Resolve the subject id lazily through the
/// database: [`SeqDatabase::id`]`(hit.db_index)`.
///
/// [`SeqDatabase::id`]: aalign_bio::SeqDatabase::id
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Index of the subject in the database.
    pub db_index: usize,
    /// Subject length.
    pub len: usize,
    /// Alignment score.
    pub score: i32,
}

/// Search tuning, built fluently:
///
/// ```
/// use aalign_par::SearchOptions;
/// let opts = SearchOptions::new().top_n(10);
/// assert_eq!(opts.top_n, 10);
/// ```
///
/// What a query asks for, not how the engine runs it: the pool size
/// is the engine's ([`SearchEngine::new`](crate::SearchEngine::new)),
/// and each claim is one subject, or up to four vectors of subjects
/// where the sweep scores them lane per subject.
///
/// `#[non_exhaustive]`: construct through [`SearchOptions::new`] so
/// the engine can grow fields (cancellation, progress, and deadlines
/// were added this way) without breaking callers.
#[derive(Clone)]
#[non_exhaustive]
pub struct SearchOptions {
    /// Keep only the best `top_n` hits (0 = keep every hit). When
    /// set, workers stream hits through bounded heaps: peak hit
    /// storage is `O(threads × top_n)` instead of `O(db)`.
    pub top_n: usize,
    /// Cooperative cancellation token, polled at claim boundaries.
    pub cancel: Option<CancelToken>,
    /// Progress callback, invoked (on worker threads) as claims
    /// complete.
    pub progress: Option<ProgressFn>,
    /// Collect a structured trace of the query: engine span framing,
    /// one `AlignBegin`/`AlignEnd` envelope per subject, and (with
    /// the `trace` feature on) the kernel's per-column hybrid
    /// decisions. Events surface on
    /// [`SearchReport::trace_events`]; off by default — untraced
    /// sweeps route the kernels through their no-op-sink
    /// monomorphization.
    pub trace: bool,
    /// Automatically re-align a subject whose fixed-width kernel run
    /// saturated its lanes at the next wider element width (on by
    /// default). Each rescue is counted in
    /// [`SearchMetrics::rescued`] and, when tracing, surfaces as a
    /// `rescue` event inside the subject's align envelope. Costs one
    /// branch per subject on the non-saturating path.
    ///
    /// [`SearchMetrics::rescued`]: crate::SearchMetrics::rescued
    pub rescue: bool,
    /// Wall-clock budget for the query, measured from entry into the
    /// search call. When it expires mid-sweep the engine stops
    /// binding new subjects and returns a [`SearchReport`] with
    /// [`partial`](SearchReport::partial) set: the hits are a correct
    /// ranking of the subjects that *did* complete, never a wrong
    /// score. `None` (the default) never times out.
    pub deadline: Option<std::time::Duration>,
    /// Scripted faults for this query (see
    /// [`FaultPlan`](crate::FaultPlan)). `None` (the default) costs
    /// one branch per slot and claim, nothing in the kernels.
    pub fault_plan: Option<std::sync::Arc<crate::fault::FaultPlan>>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            top_n: 0,
            cancel: None,
            progress: None,
            trace: false,
            rescue: true,
            deadline: None,
            fault_plan: None,
        }
    }
}

impl SearchOptions {
    /// Default options: every hit, saturation rescue on, no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep only the best `top_n` hits (0 = keep every hit).
    pub fn top_n(mut self, top_n: usize) -> Self {
        self.top_n = top_n;
        self
    }

    /// Attach a cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach a progress callback (runs on worker threads).
    pub fn on_progress(
        mut self,
        callback: impl Fn(&SearchProgress) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(std::sync::Arc::new(callback));
        self
    }

    /// Collect a structured trace of the query (see
    /// [`SearchReport::trace_events`]).
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enable or disable automatic saturation rescue (on by default).
    pub fn rescue(mut self, on: bool) -> Self {
        self.rescue = on;
        self
    }

    /// Give the query a wall-clock budget; on expiry the report comes
    /// back [`partial`](SearchReport::partial) instead of erroring.
    pub fn deadline(mut self, budget: std::time::Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Attach a scripted fault plan.
    pub fn fault_plan(mut self, plan: std::sync::Arc<crate::fault::FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

impl std::fmt::Debug for SearchOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchOptions")
            .field("top_n", &self.top_n)
            .field("cancel", &self.cancel.is_some())
            .field("progress", &self.progress.is_some())
            .field("trace", &self.trace)
            .field("rescue", &self.rescue)
            .field("deadline", &self.deadline)
            .field("fault_plan", &self.fault_plan.is_some())
            .finish()
    }
}

/// Search result: ranked hits plus counters and per-query metrics.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Hits sorted by descending score (ties: ascending db index).
    pub hits: Vec<Hit>,
    /// Threads actually used.
    pub threads_used: usize,
    /// Total subjects aligned.
    pub subjects: usize,
    /// Total residues aligned (cell count / query length).
    pub total_residues: usize,
    /// Per-query observability: stage times, GCUPS, kernel counters,
    /// per-worker load.
    pub metrics: SearchMetrics,
    /// The structured trace, in stream order, when
    /// [`SearchOptions::trace`] was set (empty otherwise). Feed it to
    /// `aalign_obs::TraceWriter` to persist as JSONL, or to
    /// `aalign_obs::TraceReport::from_events` to reconstruct the
    /// hybrid decision timeline.
    pub trace_events: Vec<TraceEvent>,
    /// True when the sweep did not cover the whole database — a
    /// deadline expired, a worker panicked on a subject, or a worker
    /// thread died. The hits are still a correct ranking of every
    /// subject that completed; [`errors`](SearchReport::errors) says
    /// what was lost.
    pub partial: bool,
    /// Structured per-subject/per-worker failures the sweep survived
    /// (e.g. [`AlignError::WorkerPanicked`],
    /// [`AlignError::WorkerLost`], [`AlignError::DeadlineExceeded`]).
    /// Empty on a clean, complete sweep.
    ///
    /// [`AlignError::WorkerPanicked`]: aalign_core::AlignError::WorkerPanicked
    /// [`AlignError::WorkerLost`]: aalign_core::AlignError::WorkerLost
    /// [`AlignError::DeadlineExceeded`]: aalign_core::AlignError::DeadlineExceeded
    pub errors: Vec<AlignError>,
}

impl SearchReport {
    /// Fold `part`, one pool worker's or one shard's report, into this
    /// one: the engine and the shard supervisor both merge through here.
    /// Counts, counters and histograms add; `lane_width` keeps the
    /// narrowest non-zero width, `certified_width` the minimum (0, no
    /// certificate, wins); the `prepare` and `sweep` walls the maximum.
    /// Hits, errors and `per_worker` append, unranked: a hit's and a
    /// [`AlignError::WorkerPanicked`]'s `db_index` move up by `db_offset`,
    /// a worker's and a [`AlignError::WorkerLost`]'s id by `worker_offset`.
    /// The caller ranks, truncates and stamps its own fields after.
    ///
    /// [`AlignError::WorkerPanicked`]: aalign_core::AlignError::WorkerPanicked
    /// [`AlignError::WorkerLost`]: aalign_core::AlignError::WorkerLost
    pub fn absorb(&mut self, part: SearchReport, db_offset: usize, worker_offset: usize) {
        self.hits.extend(part.hits.into_iter().map(|hit| Hit {
            db_index: hit.db_index + db_offset,
            ..hit
        }));
        self.threads_used += part.threads_used;
        self.subjects += part.subjects;
        self.total_residues += part.total_residues;
        self.metrics.absorb(part.metrics, worker_offset);
        self.trace_events.extend(part.trace_events);
        self.partial |= part.partial;
        self.errors.extend(part.errors.into_iter().map(|e| match e {
            AlignError::WorkerPanicked { db_index, payload } => AlignError::WorkerPanicked {
                db_index: db_index + db_offset,
                payload,
            },
            AlignError::WorkerLost { worker_id, payload } => AlignError::WorkerLost {
                worker_id: worker_id + worker_offset,
                payload,
            },
            other => other,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchEngine;
    use aalign_bio::matrices::BLOSUM62;
    use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db, Level, PairSpec};
    use aalign_bio::{SeqDatabase, Sequence};
    use aalign_core::{AlignConfig, Aligner, GapModel, Strategy};

    fn aligner() -> Aligner {
        Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62))
            .with_strategy(Strategy::Hybrid)
    }

    /// One sweep on a fresh pool of `pool` workers.
    fn search(
        pool: usize,
        a: &Aligner,
        q: &Sequence,
        db: &SeqDatabase,
        opts: &SearchOptions,
    ) -> Result<SearchReport, AlignError> {
        SearchEngine::new(pool).search(a, q, db, opts)
    }

    #[test]
    fn multithreaded_equals_single_threaded() {
        let mut rng = seeded_rng(50);
        let q = named_query(&mut rng, 80);
        let db = swissprot_like_db(51, 60);
        let a = aligner();
        let one = search(1, &a, &q, &db, &SearchOptions::new()).unwrap();
        let four = search(4, &a, &q, &db, &SearchOptions::new()).unwrap();
        assert_eq!(one.hits, four.hits, "thread count must not change results");
        assert_eq!(one.subjects, 60);
        assert_eq!(four.threads_used, 4);
    }

    #[test]
    fn planted_similar_subject_ranks_first() {
        let mut rng = seeded_rng(60);
        let q = named_query(&mut rng, 120);
        let mut seqs = swissprot_like_db(61, 40).sequences().to_vec();
        let planted = PairSpec::new(Level::Hi, Level::Hi)
            .generate(&mut rng, &q)
            .subject;
        let planted_id = planted.id().to_string();
        seqs.push(planted);
        let db = SeqDatabase::new(seqs);
        let report = search(2, &aligner(), &q, &db, &SearchOptions::new().top_n(5)).unwrap();
        assert_eq!(report.hits.len(), 5);
        assert_eq!(
            db.id(report.hits[0].db_index),
            planted_id,
            "planted hit must win"
        );
        assert!(report.hits[0].score > report.hits[1].score);
    }

    #[test]
    fn top_n_zero_keeps_everything() {
        let mut rng = seeded_rng(70);
        let q = named_query(&mut rng, 50);
        let db = swissprot_like_db(71, 25);
        let report = search(0, &aligner(), &q, &db, &SearchOptions::new()).unwrap();
        assert_eq!(report.hits.len(), 25);
        // Sorted by score descending.
        for w in report.hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn scores_match_direct_alignment() {
        let mut rng = seeded_rng(80);
        let q = named_query(&mut rng, 64);
        let db = swissprot_like_db(81, 10);
        let a = aligner();
        let report = search(3, &a, &q, &db, &SearchOptions::new()).unwrap();
        for hit in &report.hits {
            let direct = a.align(&q, db.get(hit.db_index)).unwrap();
            assert_eq!(hit.score, direct.score, "{}", db.id(hit.db_index));
        }
    }

    #[test]
    fn empty_query_propagates_error() {
        let q = Sequence::protein("e", b"").unwrap();
        let db = swissprot_like_db(91, 5);
        let err = search(0, &aligner(), &q, &db, &SearchOptions::new()).unwrap_err();
        assert_eq!(err, AlignError::EmptyQuery);
    }

    #[test]
    fn alphabet_mismatch_is_rejected() {
        let q = Sequence::dna("d", b"ACGT").unwrap();
        let db = swissprot_like_db(603, 4);
        let err = search(0, &aligner(), &q, &db, &SearchOptions::new()).unwrap_err();
        assert!(matches!(err, AlignError::AlphabetMismatch { .. }));
    }

    #[test]
    fn empty_database_gives_empty_report() {
        let mut rng = seeded_rng(100);
        let q = named_query(&mut rng, 30);
        let db = SeqDatabase::default();
        let report = search(0, &aligner(), &q, &db, &SearchOptions::new()).unwrap();
        assert!(report.hits.is_empty());
        assert_eq!(report.subjects, 0);
    }

    #[test]
    fn options_builder_round_trips() {
        let token = CancelToken::new();
        let opts = SearchOptions::new()
            .top_n(20)
            .cancel(token)
            .on_progress(|_| {})
            .trace(true)
            .rescue(false)
            .deadline(std::time::Duration::from_millis(250))
            .fault_plan(std::sync::Arc::new(crate::FaultPlan::new()));
        assert_eq!(opts.top_n, 20);
        assert!(opts.cancel.is_some());
        assert!(opts.progress.is_some());
        assert!(opts.trace);
        assert!(!opts.rescue);
        assert_eq!(opts.deadline, Some(std::time::Duration::from_millis(250)));
        let dbg = format!("{opts:?}");
        assert!(dbg.contains("top_n: 20"), "{dbg}");
        assert!(dbg.contains("rescue: false"), "{dbg}");
        assert!(dbg.contains("fault_plan: true"), "{dbg}");
        assert!(format!("{:?}", SearchOptions::new()).contains("fault_plan: false"));
        // Rescue is on unless explicitly turned off.
        assert!(SearchOptions::new().rescue);
        assert_eq!(SearchOptions::new().deadline, None);
    }
}
