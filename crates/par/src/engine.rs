//! The persistent search engine: a long-lived worker pool behind the
//! paper's Sec. V-E database sweep.
//!
//! A [`SearchEngine`] spawns its workers **once**; each worker
//! permanently owns an [`AlignScratch`], so after the first query the
//! hot loop of every subsequent query touches no allocator and no
//! thread-creation syscall. Queries are fed to the pool through the
//! same dynamic binding the paper uses: an atomic work index over the
//! length-sorted database, claimed one subject at a time — or, where
//! the sweep scores subjects lane per subject, up to four vectors of
//! them at a time (fewer where that would leave a worker idle).
//!
//! The sweep has two ways to score what a worker claims: subject by
//! subject through the striped kernels (`score_subject`), or — on an
//! engine with a native score lookup — the whole claim as one batch,
//! one lane per subject and a lane refilled as its subject ends
//! ([`Aligner::align_batch_prepared`], which holds the rule and
//! declines everything else). A declined claim gives its longest
//! subject to the per-subject path and is offered again. Which path
//! ran is stamped on [`RunStats`]: `iterate + scan + inter` columns add
//! up to the database's residues.
//!
//! Three engine-grade facilities ride on top:
//!
//! * **Streaming top-k** — when [`SearchOptions::top_n`] is set, each
//!   worker keeps a bounded min-heap of its best `top_n` hits instead
//!   of collecting every hit, so peak hit storage is
//!   `O(workers × top_n)` rather than `O(db)`; the per-worker heaps
//!   are merged and ranked at the end. Results are bit-identical to
//!   collect-then-sort (the heap order is the final rank order).
//! * **Cancellation + progress** — a [`CancelToken`] is polled at
//!   every claim boundary (the query returns
//!   [`AlignError::Cancelled`]), and an optional progress callback
//!   receives completion snapshots as claims finish.
//! * **Metrics** — every query produces [`SearchMetrics`]: stage wall
//!   times, GCUPS, aggregated kernel [`RunStats`], width retries, and
//!   per-worker load (see [`crate::metrics`]).
//!
//! And the fault model (see `DESIGN.md` §11) rides through every
//! sweep:
//!
//! * **Panic isolation** — a panic while scoring one subject is
//!   caught at the slot boundary; the sweep continues and the report
//!   carries [`AlignError::WorkerPanicked`] alongside every other
//!   subject's valid result.
//! * **Pool self-healing** — a worker thread that dies outright is
//!   detected, joined, and respawned before the next query
//!   dispatches; its lost sweep surfaces as
//!   [`AlignError::WorkerLost`] and the supervisor's drain protocol
//!   (modeled in `tests/loom_worker_death.rs`) never hangs on the
//!   missing completion signal.
//! * **Deadlines** — [`SearchOptions::deadline`] bounds the query's
//!   wall clock; on expiry the report comes back `partial` with a
//!   verified ranking of the subjects that completed.
//! * **Overflow rescue** — a fixed-width kernel run that saturates
//!   its lanes is transparently re-aligned on the next wider rung of
//!   the query's width ladder ([`SearchOptions::rescue`]).
//!
//! [`RunStats`]: aalign_core::RunStats

use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::{AlignError, AlignScratch, Aligner, PreparedQuery};
use aalign_obs::{CollectorSink, NullSink, TraceEvent, TraceSink};

use crate::fault::FaultPlan;
use crate::metrics::{CancelToken, ProgressFn, SearchMetrics, SearchProgress, WorkerMetrics};
use crate::protocol::{ProgressCounters, SharedBatch, WorkIndex};
use crate::search::{Hit, SearchOptions, SearchReport};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;

/// Most lane vectors in one claim on the work index (EXPERIMENTS.md,
/// "Lane refill"): a refilled batch of four vectors covers a
/// 125-subject shard in one claim, and pads ≈ 1.08 lane-columns per
/// residue on gamma-length subjects where one vector pads 1.35.
const CLAIM_VECTORS: usize = 4;

/// Microseconds elapsed since `t0`, saturating into `u64`.
fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Microseconds in `d`, saturating into `u64`.
fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// State owned by one pool thread for its whole lifetime.
struct WorkerState {
    /// Stable pool-local id (0-based).
    id: usize,
    /// Queries served by this thread so far.
    queries: u64,
    /// Alignment buffers, retained across queries.
    scratch: AlignScratch,
}

/// A unit of work shipped to a pool thread.
type Job = Box<dyn FnOnce(&mut WorkerState) + Send + 'static>;

/// Erase a job's borrow lifetime so it can cross the pool's
/// `'static` channel.
///
/// SAFETY: every erased job is dispatched by [`SearchEngine::run_on_pool`],
/// which blocks until the job has signalled completion over its done
/// channel before returning. The borrows captured by the job are all
/// owned by `run_on_pool`'s caller frame, which therefore strictly
/// outlives every access the job performs; after the completion
/// signal the job body has returned and performs no further access.
fn erase_job<'env>(job: Box<dyn FnOnce(&mut WorkerState) + Send + 'env>) -> Job {
    unsafe { std::mem::transmute::<Box<dyn FnOnce(&mut WorkerState) + Send + 'env>, Job>(job) }
}

/// Render a panic payload for the structured error variants.
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker's result slot in a [`SearchEngine::run_on_pool`] call.
enum JobSlot<O> {
    /// Not yet written — after the drain, the worker died before its
    /// job ran (or mid-job without reaching the catch).
    Pending,
    /// The job completed.
    Done(O),
    /// The job panicked past the sweep's own slot-level isolation
    /// (carrying the stringified payload); the worker thread itself
    /// survived.
    Panicked(String),
}

/// Sticky wall-clock deadline shared by one query's workers.
///
/// The first worker to observe expiry trips the internal token, so
/// every later poll (on any worker) is a cheap atomic load instead of
/// a clock read, and expiry is monotone — it can never un-expire.
struct DeadlineGuard {
    at: Instant,
    tripped: CancelToken,
}

impl DeadlineGuard {
    /// `None` when `budget` overflows the clock (treated as "no
    /// deadline" — such a budget can never elapse anyway).
    fn new(from: Instant, budget: Duration) -> Option<Self> {
        from.checked_add(budget).map(|at| Self {
            at,
            tripped: CancelToken::new(),
        })
    }

    /// Polled at claim boundaries, like cancellation.
    fn expired(&self) -> bool {
        if self.tripped.is_cancelled() {
            return true;
        }
        if Instant::now() >= self.at {
            self.tripped.cancel();
            return true;
        }
        false
    }
}

struct Worker {
    sender: mpsc::Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

fn spawn_worker(id: usize) -> Worker {
    let (sender, receiver) = mpsc::channel::<Job>();
    let handle = std::thread::Builder::new()
        .name(format!("aalign-search-{id}"))
        .spawn(move || {
            let mut state = WorkerState {
                id,
                queries: 0,
                scratch: AlignScratch::new(),
            };
            while let Ok(job) = receiver.recv() {
                job(&mut state);
            }
        })
        .expect("failed to spawn search worker thread");
    Worker {
        sender,
        handle: Some(handle),
    }
}

/// A persistent, reusable database-search engine.
///
/// Construction spawns the worker pool; every
/// [`search`](SearchEngine::search) /
/// [`pipeline`](SearchEngine::pipeline) call reuses it. Dropping the
/// engine shuts the workers down.
///
/// ```
/// use aalign_core::{AlignConfig, Aligner, GapModel};
/// use aalign_bio::matrices::BLOSUM62;
/// use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
/// use aalign_par::{SearchEngine, SearchOptions};
///
/// let mut rng = seeded_rng(1);
/// let db = swissprot_like_db(2, 30);
/// let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
/// let engine = SearchEngine::new(2);
/// let opts = SearchOptions::new().top_n(5);
///
/// // Back-to-back queries share the same two threads and scratch.
/// for seed in 0..3u64 {
///     let query = named_query(&mut rng, 60 + seed as usize);
///     let report = engine.search(&aligner, &query, &db, &opts).unwrap();
///     assert_eq!(report.hits.len(), 5);
///     assert!(report.metrics.gcups > 0.0);
/// }
/// assert_eq!(engine.queries_served(), 3);
/// ```
pub struct SearchEngine {
    /// The pool, behind a mutex so [`heal_and_senders`] can swap dead
    /// workers out before a query dispatches.
    ///
    /// [`heal_and_senders`]: SearchEngine::heal_and_senders
    pool: Mutex<Vec<Worker>>,
    /// Pool size, fixed at construction.
    threads: usize,
    queries_served: AtomicU64,
    /// Workers respawned after dying mid-job (pool self-healing).
    workers_respawned: AtomicU64,
}

impl std::fmt::Debug for SearchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchEngine")
            .field("threads", &self.threads)
            .field("queries_served", &self.queries_served)
            .field("workers_respawned", &self.workers_respawned)
            .finish()
    }
}

/// Everything one query's sweep shares across workers.
struct SweepShared<'a> {
    aligner: &'a Aligner,
    /// The query profile, built once per query and shared read-only.
    prepared: &'a PreparedQuery,
    db: &'a SeqDatabase,
    /// Database indices, longest subject first: work slot `k` scores
    /// subject `order[k]`.
    order: &'a [usize],
    /// Next work slot — the paper's dynamic binding ([`WorkIndex`],
    /// loom-checked in `tests/loom_work_index.rs`).
    index: &'a WorkIndex,
    /// Subjects/residues completed across all workers
    /// ([`ProgressCounters`], loom-checked in
    /// `tests/loom_progress.rs`).
    completed: &'a ProgressCounters,
    /// Subjects per lane vector, or 0 when every subject is scored on
    /// its own: the sweep is traced (column events describe the
    /// striped kernels), the aligner would decline every batch, or the
    /// database is smaller than one vector.
    lanes: usize,
    /// Work slots per claim on the work index: one subject where lanes
    /// do not run, up to [`CLAIM_VECTORS`] vectors where they do.
    claim: usize,
    top_n: usize,
    cancel: Option<&'a CancelToken>,
    progress: Option<&'a ProgressFn>,
    /// Destination for trace events when the query runs traced.
    /// Workers move whole per-subject batches in at claim boundaries,
    /// keeping every subject's events contiguous in the final stream
    /// ([`SharedBatch`], loom-checked in `tests/loom_publication.rs`
    /// and `tests/loom_cancel.rs`).
    trace: Option<&'a SharedBatch<TraceEvent>>,
    /// Wall-clock deadline, polled at claim boundaries alongside
    /// cancellation.
    deadline: Option<&'a DeadlineGuard>,
    /// Re-align saturated runs up the query's width ladder
    /// ([`SearchOptions::rescue`]).
    rescue: bool,
    /// Scripted slot-level faults (stalls, panics, forced
    /// saturation), when a plan is attached.
    fault: Option<&'a FaultPlan>,
}

/// One worker's result of one sweep: the report of the subjects it
/// scored, folded by [`SearchReport::absorb`], and the error that
/// stopped it early (cancellation, deadline, or a concrete alignment
/// failure), if one did.
type WorkerOut = (SearchReport, Option<AlignError>);

/// The trace plumbing [`WorkerSweep::score_subject`] writes through.
#[derive(Default)]
struct Tallies {
    /// Pool-local id of the worker running this sweep, stamped by
    /// [`run_sweep_worker`] so trace events can be tagged with it.
    worker_id: usize,
    /// Per-worker trace buffer: each scored subject appends a complete
    /// `AlignBegin` … `AlignEnd` batches; the sweep loop drains it
    /// into the shared collector once per claim.
    sink: CollectorSink,
}

/// Max-heap wrapper whose maximum is the *worst* kept hit under the
/// final rank order (score desc, then db index asc), so `peek`/`pop`
/// evict correctly for a bounded top-k.
#[derive(PartialEq, Eq)]
struct WorstFirst(Hit);

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .score
            .cmp(&self.0.score)
            .then(self.0.db_index.cmp(&other.0.db_index))
    }
}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// True when `a` ranks strictly ahead of `b` in the final order.
fn ranks_ahead(a: &Hit, b: &Hit) -> bool {
    a.score > b.score || (a.score == b.score && a.db_index < b.db_index)
}

/// Sort hits into the final rank order (score desc, db index asc).
///
/// This is *the* rank order: every engine path and the shard
/// supervisor's cross-process merge (`aalign-shard`) use it, which is
/// what makes an N-shard merge bit-identical to a single-process
/// sweep — equal scores always tie-break on the (rebased) database
/// index.
pub fn rank_hits(hits: &mut [Hit]) {
    hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
}

/// Per-worker hit collector: unbounded when every hit is requested,
/// a bounded min-heap otherwise.
enum Collector {
    All(Vec<Hit>),
    Top {
        heap: BinaryHeap<WorstFirst>,
        cap: usize,
    },
}

impl Collector {
    fn new(top_n: usize) -> Self {
        if top_n == 0 {
            Collector::All(Vec::new())
        } else {
            Collector::Top {
                heap: BinaryHeap::with_capacity(top_n + 1),
                cap: top_n,
            }
        }
    }

    fn offer(&mut self, hit: Hit) {
        match self {
            Collector::All(v) => v.push(hit),
            Collector::Top { heap, cap } => {
                if heap.len() < *cap {
                    heap.push(WorstFirst(hit));
                } else if ranks_ahead(&hit, &heap.peek().expect("cap > 0").0) {
                    heap.pop();
                    heap.push(WorstFirst(hit));
                }
            }
        }
    }

    /// Current (== peak: the buffer never shrinks) number of hits held.
    fn len(&self) -> usize {
        match self {
            Collector::All(v) => v.len(),
            Collector::Top { heap, .. } => heap.len(),
        }
    }

    fn into_hits(self) -> Vec<Hit> {
        match self {
            Collector::All(v) => v,
            Collector::Top { heap, .. } => heap.into_iter().map(|w| w.0).collect(),
        }
    }
}

/// What one worker accumulates over a sweep.
struct WorkerSweep<'a> {
    collector: Collector,
    tallies: Tallies,
    /// The worker's counters and per-subject latency samples.
    metrics: SearchMetrics,
    /// Per-subject failures the sweep survived
    /// ([`AlignError::WorkerPanicked`]); the sweep kept going.
    soft: Vec<AlignError>,
    /// Completed within the current claim.
    claim_subjects: usize,
    claim_residues: usize,
    /// The batch being offered to the lane kernel (kept for its
    /// allocation).
    batch: Vec<&'a Sequence>,
}

impl<'a> WorkerSweep<'a> {
    /// Score the subject in work slot `slot` into the collector and
    /// return its residue count.
    fn score_subject(
        &mut self,
        shared: &SweepShared<'a>,
        scratch: &mut AlignScratch,
        slot: usize,
    ) -> Result<usize, AlignError> {
        let (aligner, prepared) = (shared.aligner, shared.prepared);
        let tracing = shared.trace.is_some();
        let db_index = shared.order[slot];
        let subject = shared.db.get(db_index);
        let t_align = Instant::now();
        // `col_mark` tracks where the current kernel run's column
        // events start, so a rescue can drop the discarded run's
        // columns while keeping the subject's envelope open.
        let mut col_mark = self.tallies.sink.events.len();
        if tracing {
            // One contiguous batch per subject: envelope plus the
            // kernel's per-column events, buffered worker-locally.
            self.tallies.sink.events.push(TraceEvent::AlignBegin {
                subject: db_index as u64,
                len: subject.len() as u64,
                worker: self.tallies.worker_id as u64,
            });
            col_mark = self.tallies.sink.events.len();
        }
        let mut out = if tracing {
            aligner.align_prepared_sink(prepared, subject, scratch, &mut self.tallies.sink)?
        } else {
            aligner.align_prepared(prepared, subject, scratch)?
        };
        if shared.fault.is_some_and(|plan| plan.should_saturate(slot)) {
            out.saturated = true;
        }
        // Overflow rescue: a saturated run's lanes clamped (sticky
        // influence test in the kernel), so climb the query's width
        // ladder from the rung that saturated until a run holds the
        // score exactly. The kept run replaces the saturated one
        // wholesale — stats, trace columns and score all describe it,
        // behind one `Rescue` marker per step.
        let saturated = out.saturated;
        while out.saturated && shared.rescue {
            let (from_bits, mark) = (out.elem_bits, self.tallies.sink.events.len());
            let sink: &mut dyn TraceSink = if tracing {
                &mut self.tallies.sink
            } else {
                &mut NullSink
            };
            let Some(wider) = aligner.align_wider(prepared, subject, from_bits, scratch, sink)?
            else {
                break;
            };
            self.metrics.rescue_widths.record(u64::from(from_bits));
            if tracing {
                let step = TraceEvent::Rescue {
                    subject: db_index as u64,
                    from_bits: u64::from(from_bits),
                    to_bits: u64::from(wider.elem_bits),
                };
                self.tallies.sink.events.splice(col_mark..mark, [step]);
                col_mark += 1;
            }
            out = wider;
        }
        if saturated && !out.saturated {
            self.metrics.rescued += 1;
        }
        if tracing {
            self.tallies.sink.events.push(TraceEvent::AlignEnd {
                subject: db_index as u64,
                score: i64::from(out.score),
                iterate_columns: out.stats.iterate_columns as u64,
                scan_columns: out.stats.scan_columns as u64,
                dur_us: elapsed_us(t_align),
            });
        }
        self.metrics.kernel_stats.merge(&out.stats);
        self.metrics.width_retries += u64::from(out.width_retries);
        self.collector.offer(Hit {
            db_index,
            len: subject.len(),
            score: out.score,
        });
        Ok(subject.len())
    }

    /// Score one work slot through `score_subject`, a panic caught at
    /// the slot boundary. `hooks`: run the fault plan's stall and
    /// panic for the slot first (not again when a batch already did).
    fn slot(
        &mut self,
        shared: &SweepShared<'a>,
        scratch: &mut AlignScratch,
        slot: usize,
        hooks: bool,
    ) -> Result<(), AlignError> {
        let t_slot = Instant::now();
        let batch_mark = self.tallies.sink.events.len();
        // AssertUnwindSafe: the catch's recovery below discards
        // everything the panicked slot may have half-written —
        // fresh scratch, trace batch truncated to the last
        // complete envelope; the collector and counters only ever
        // receive finished-subject values.
        let scored = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = shared.fault.filter(|_| hooks) {
                plan.before_slot(slot);
            }
            self.score_subject(shared, scratch, slot)
        }));
        match scored {
            Ok(Ok(residues)) => {
                self.metrics
                    .latency
                    .record(u64::try_from(t_slot.elapsed().as_nanos()).unwrap_or(u64::MAX));
                self.claim_subjects += 1;
                self.claim_residues += residues;
                Ok(())
            }
            Ok(Err(e)) => Err(e),
            Err(payload) => {
                // Panic isolation: quarantine the scratch, drop
                // the subject's partial trace batch, record the
                // failure, keep sweeping. The subject is *not*
                // counted as completed.
                *scratch = AlignScratch::new();
                self.tallies.sink.events.truncate(batch_mark);
                self.soft.push(AlignError::WorkerPanicked {
                    db_index: shared.order[slot],
                    payload: payload_string(payload),
                });
                Ok(())
            }
        }
    }

    /// Score `slots`: as one refilled batch when lanes run and the
    /// aligner takes it, slot by slot otherwise. A batch the aligner
    /// declines peels its longest subject off to the per-subject path
    /// and is offered again, so one outlier costs one subject, not its
    /// claim.
    fn score(
        &mut self,
        shared: &SweepShared<'a>,
        scratch: &mut AlignScratch,
        mut slots: std::ops::Range<usize>,
    ) -> Result<(), AlignError> {
        while shared.lanes > 0 && !slots.is_empty() {
            match self.batch(shared, scratch, slots.clone())? {
                Offer::Taken => return Ok(()),
                Offer::Declined => {
                    self.slot(shared, scratch, slots.start, true)?;
                    slots.start += 1;
                }
                Offer::Panicked => break,
            }
        }
        for slot in slots {
            self.slot(shared, scratch, slot, true)?;
        }
        Ok(())
    }

    /// Offer `slots` — a run of the claim, longest subject first — to
    /// the lane kernel. Unless [`Offer::Taken`], nothing was recorded
    /// and every slot is still to be scored.
    ///
    /// A lane still flagged saturated when the batch's walk ends is
    /// scored again through `score_subject`, so what a saturating
    /// subject reports — `rescued`, the ladder's widths, a rescue-off
    /// score — is what it always reported.
    fn batch(
        &mut self,
        shared: &SweepShared<'a>,
        scratch: &mut AlignScratch,
        slots: std::ops::Range<usize>,
    ) -> Result<Offer, AlignError> {
        let t_batch = Instant::now();
        self.batch.clear();
        self.batch
            .extend(slots.clone().map(|slot| shared.db.get(shared.order[slot])));
        let subjects = &self.batch;
        // AssertUnwindSafe: a panicked batch leaves nothing behind but
        // its scratch, replaced below; hits and counters are written
        // after the catch, from a finished batch only.
        let scored = catch_unwind(AssertUnwindSafe(|| {
            let out = shared
                .aligner
                .align_batch_prepared(shared.prepared, subjects, scratch);
            // The plan's slot faults, honoured by the batch that took
            // the slots — a declined one leaves them to the
            // per-subject pass.
            if let (Some(plan), Ok(Some(_))) = (shared.fault, &out) {
                slots.clone().for_each(|slot| plan.before_slot(slot));
            }
            out
        }));
        let out = match scored {
            Ok(Ok(Some(out))) => out,
            Ok(Ok(None)) => return Ok(Offer::Declined),
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                *scratch = AlignScratch::new();
                return Ok(Offer::Panicked);
            }
        };

        // A lane to score again per subject: it saturated, or the
        // plan says it did.
        let redo = |lane: usize, slot: usize| {
            out.saturated[lane] || shared.fault.is_some_and(|plan| plan.should_saturate(slot))
        };
        let mut stats = out.stats;
        let mut kept = 0usize;
        for (lane, slot) in slots.clone().enumerate() {
            let len = self.batch[lane].len();
            if redo(lane, slot) {
                // Its residues will be striped columns after all.
                stats.inter_columns -= len;
                continue;
            }
            self.collector.offer(Hit {
                db_index: shared.order[slot],
                len,
                score: out.scores[lane],
            });
            self.claim_residues += len;
            kept += 1;
        }
        self.claim_subjects += kept;
        self.metrics.absorb(
            SearchMetrics {
                kernel_stats: stats,
                lane_width: out.bits,
                ..SearchMetrics::default()
            },
            0,
        );
        // One latency sample per subject: an equal share of the batch.
        let share = t_batch.elapsed().as_nanos() / slots.len().max(1) as u128;
        for _ in 0..kept {
            self.metrics
                .latency
                .record(u64::try_from(share).unwrap_or(u64::MAX));
        }
        if kept < slots.len() {
            for (lane, slot) in slots.enumerate() {
                if redo(lane, slot) {
                    self.slot(shared, scratch, slot, false)?;
                }
            }
        }
        Ok(Offer::Taken)
    }
}

/// How the lane kernel answered [`WorkerSweep::batch`].
enum Offer {
    /// Scored: every slot is recorded.
    Taken,
    /// The aligner declined the batch.
    Declined,
    /// The batch panicked: the per-subject pass names the subject that
    /// does, by its database index.
    Panicked,
}

/// The dispatch loop every worker runs for one query: pull claims off
/// the atomic index, score each — a vector of subjects where the lane
/// kernel takes them, one subject otherwise — publish progress, honor
/// cancellation.
fn run_sweep_worker<'a>(shared: &SweepShared<'a>, state: &mut WorkerState) -> WorkerOut {
    let t0 = Instant::now();
    state.queries += 1;
    let mut sweep = WorkerSweep {
        collector: Collector::new(shared.top_n),
        tallies: Tallies {
            worker_id: state.id,
            ..Tallies::default()
        },
        metrics: SearchMetrics::default(),
        soft: Vec::new(),
        claim_subjects: 0,
        claim_residues: 0,
        batch: Vec::with_capacity(shared.claim),
    };
    let mut subjects = 0usize;
    let mut residues = 0usize;
    let mut err = None;

    loop {
        if let Some(c) = shared.cancel {
            if c.is_cancelled() {
                err = Some(AlignError::Cancelled);
                break;
            }
        }
        if let Some(d) = shared.deadline {
            if d.expired() {
                err = Some(AlignError::DeadlineExceeded);
                break;
            }
        }
        let Some((start, end)) = shared.index.claim(shared.claim, shared.order.len()) else {
            break;
        };
        sweep.claim_subjects = 0;
        sweep.claim_residues = 0;
        if let Err(e) = sweep.score(shared, &mut state.scratch, start..end) {
            err = Some(e);
            break;
        }
        // Publish this claim's completed trace batches in one lock
        // acquisition (a failed claim never publishes its partial
        // batch — the query errors out and the trace is discarded).
        if let Some(trace) = shared.trace {
            trace.publish(&mut sweep.tallies.sink.events);
        }
        subjects += sweep.claim_subjects;
        residues += sweep.claim_residues;
        let (done, residues_done) = shared
            .completed
            .publish(sweep.claim_subjects, sweep.claim_residues);
        if let Some(progress) = shared.progress {
            progress(&SearchProgress {
                subjects_done: done,
                subjects_total: shared.order.len(),
                residues_done,
            });
        }
    }

    let mut metrics = sweep.metrics;
    metrics.cells = shared.prepared.query_len() as u64 * residues as u64;
    metrics.peak_hits_buffered = sweep.collector.len();
    metrics.worker_load.record(residues as u64);
    metrics.per_worker.push(WorkerMetrics {
        worker_id: state.id,
        queries_on_worker: state.queries,
        subjects,
        residues,
        busy: t0.elapsed(),
        scratch_bytes: state.scratch.reserved_bytes(),
    });
    let report = SearchReport {
        hits: sweep.collector.into_hits(),
        threads_used: 1,
        subjects,
        total_residues: residues,
        metrics,
        trace_events: Vec::new(),
        partial: !sweep.soft.is_empty(),
        errors: sweep.soft,
    };
    (report, err)
}

impl SearchEngine {
    /// Spawn the worker pool. `threads == 0` uses the host's
    /// available parallelism. This is the only point at which the
    /// engine creates threads — queries reuse them.
    pub fn new(threads: usize) -> Self {
        let n = match threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            n => n,
        };
        Self {
            pool: Mutex::new((0..n).map(spawn_worker).collect()),
            threads: n,
            queries_served: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
        }
    }

    /// Number of pooled worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queries this engine has served since construction.
    pub fn queries_served(&self) -> u64 {
        // ORDER: Relaxed — a monitoring counter read; the count is
        // not used to justify reading any other memory.
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Worker threads respawned after dying mid-job, over the
    /// engine's lifetime. Zero on a healthy engine.
    pub fn workers_respawned(&self) -> u64 {
        // ORDER: Relaxed — monitoring counter; respawn correctness is
        // carried by the pool mutex, not this atomic.
        self.workers_respawned.load(Ordering::Relaxed)
    }

    /// Quarantine-and-respawn any worker whose thread has died, then
    /// hand back senders for the first `active` (healthy) workers.
    ///
    /// Runs under the pool mutex before every dispatch, so a worker
    /// killed during query N is replaced — with the same stable id —
    /// before query N+1 binds work to it.
    fn heal_and_senders(&self, active: usize) -> Vec<mpsc::Sender<Job>> {
        let mut pool = self.pool.lock().expect("pool mutex");
        for (id, worker) in pool.iter_mut().enumerate() {
            let dead = worker.handle.as_ref().is_none_or(JoinHandle::is_finished);
            if dead {
                if let Some(handle) = worker.handle.take() {
                    let _ = handle.join();
                }
                *worker = spawn_worker(id);
                // ORDER: Relaxed — monitoring counter; respawn
                // correctness is carried by the pool mutex.
                self.workers_respawned.fetch_add(1, Ordering::Relaxed);
            }
        }
        pool.iter().take(active).map(|w| w.sender.clone()).collect()
    }

    /// Run `work` on the first `active` pool workers and collect
    /// their results in worker order, blocking until every dispatched
    /// job has completed, panicked past its catch, or provably died
    /// with its worker.
    ///
    /// Per-worker outcomes: `Ok(out)` on success, or
    /// [`AlignError::WorkerLost`] when the job panicked at the job
    /// boundary or its worker thread died before resolving the slot.
    fn run_on_pool<'env, O: Send + 'env>(
        &self,
        active: usize,
        fault: Option<&FaultPlan>,
        work: impl Fn(&mut WorkerState) -> O + Sync + 'env,
    ) -> Vec<Result<O, AlignError>> {
        debug_assert!(active >= 1 && active <= self.threads);
        let senders = self.heal_and_senders(active);
        let work = &work;
        let results: Mutex<Vec<JobSlot<O>>> =
            Mutex::new((0..active).map(|_| JobSlot::Pending).collect());
        let results = &results;
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let mut dispatched = 0usize;
        for (slot, sender) in senders.iter().enumerate() {
            let done_tx = done_tx.clone();
            let job: Box<dyn FnOnce(&mut WorkerState) + Send + '_> = Box::new(move |state| {
                // Scripted worker kill: fires *outside* the
                // job-boundary catch, so the unwind escapes through
                // the worker's receive loop and the thread genuinely
                // dies — exercising the disconnect drain and the
                // pool's respawn path.
                if let Some(plan) = fault {
                    plan.maybe_kill(slot);
                }
                // AssertUnwindSafe: on panic the slot records
                // `Panicked` and the worker's scratch — the only
                // state a half-finished sweep could corrupt — is
                // quarantined below; nothing partially-written is
                // read again.
                let out = catch_unwind(AssertUnwindSafe(|| work(state)));
                let mut slots = results.lock().expect("results mutex");
                match out {
                    Ok(out) => slots[slot] = JobSlot::Done(out),
                    Err(payload) => {
                        state.scratch = AlignScratch::new();
                        slots[slot] = JobSlot::Panicked(payload_string(payload));
                    }
                }
                drop(slots);
                let _ = done_tx.send(());
            });
            // A failed send means the worker died between healing and
            // dispatch: the job box — and the done_tx clone inside it
            // — is dropped unrun, so it must not get a drain slot.
            if sender.send(erase_job(job)).is_ok() {
                dispatched += 1;
            }
        }
        drop(done_tx);
        // Drain protocol (modeled in `tests/loom_worker_death.rs`):
        // expect one signal per *dispatched* job, and treat channel
        // disconnection as "every outstanding sender is gone". A
        // worker that dies mid-job unwinds through its recv loop,
        // dropping its job's `done_tx` clone; once every clone is
        // dropped — each job either signalled or was destroyed — recv
        // returns Err and the loop exits. This can never hang, and it
        // upholds the lifetime-erasure SAFETY contract above: no job
        // can still touch the caller's borrows after the drain.
        let mut remaining = dispatched;
        while remaining > 0 {
            match done_rx.recv() {
                Ok(()) => remaining -= 1,
                Err(_) => break,
            }
        }
        let mut slots = results.lock().expect("results mutex");
        slots
            .iter_mut()
            .enumerate()
            .map(
                |(worker_id, slot)| match std::mem::replace(slot, JobSlot::Pending) {
                    JobSlot::Done(out) => Ok(out),
                    JobSlot::Panicked(payload) => {
                        Err(AlignError::WorkerLost { worker_id, payload })
                    }
                    JobSlot::Pending => Err(AlignError::WorkerLost {
                        worker_id,
                        payload: "worker thread died before finishing its job".to_string(),
                    }),
                },
            )
            .collect()
    }

    /// Align `query` against every subject of `db` using the pooled
    /// workers and the striped kernels. This is the workspace's one
    /// database sweep; [`pipeline`](Self::pipeline) is the only other
    /// entry point, and it calls this one.
    ///
    /// The sweep engages `min(pool size, subjects)` workers (one for an
    /// empty database, so errors surface); build the engine with the
    /// pool size you want — [`SearchEngine::new`] — and reuse it.
    pub fn search(
        &self,
        aligner: &Aligner,
        query: &Sequence,
        db: &SeqDatabase,
        opts: &SearchOptions,
    ) -> Result<SearchReport, AlignError> {
        let t_total = Instant::now();
        let trace = opts.trace.then(SharedBatch::<TraceEvent>::new);
        if let Some(tc) = &trace {
            tc.push(TraceEvent::QueryBegin {
                query: query.id().to_string(),
                subjects: db.len() as u64,
            });
            tc.push(TraceEvent::SpanBegin {
                span: "prepare".to_string(),
                at_us: 0,
            });
        }
        let prepared = aligner.prepare(query)?;
        let prepare = t_total.elapsed();
        if let Some(tc) = &trace {
            tc.push(TraceEvent::SpanEnd {
                span: "prepare".to_string(),
                at_us: elapsed_us(t_total),
                dur_us: dur_us(prepare),
            });
        }

        let order = db.length_order();
        // Lanes per subject where the aligner takes batches, the
        // sweep is not traced, and the database fills a vector.
        let lanes = match prepared.batch_lanes() {
            lanes if opts.trace || order.len() < lanes => 0,
            lanes => lanes,
        };
        // One worker per subject at most; an empty database still
        // engages one so errors surface.
        let active = self.threads.min(order.len().max(1));
        // A claim is whole vectors where lanes run: up to
        // `CLAIM_VECTORS`, fewer where that would leave a worker idle.
        let claim = match lanes {
            0 => 1,
            lanes => lanes * CLAIM_VECTORS.min(order.len().div_ceil(lanes).div_ceil(active)),
        };
        let deadline = opts
            .deadline
            .and_then(|budget| DeadlineGuard::new(t_total, budget));
        let shared_ctx = (WorkIndex::new(), ProgressCounters::new());
        let shared = SweepShared {
            aligner,
            prepared: &prepared,
            db,
            order,
            index: &shared_ctx.0,
            completed: &shared_ctx.1,
            lanes,
            claim,
            top_n: opts.top_n,
            cancel: opts.cancel.as_ref(),
            progress: opts.progress.as_ref(),
            trace: trace.as_ref(),
            deadline: deadline.as_ref(),
            rescue: opts.rescue,
            fault: opts.fault_plan.as_deref(),
        };

        if let Some(tc) = &trace {
            tc.push(TraceEvent::SpanBegin {
                span: "sweep".to_string(),
                at_us: elapsed_us(t_total),
            });
        }
        let t_sweep = Instant::now();
        let outs = self.run_on_pool(active, opts.fault_plan.as_deref(), |state| {
            run_sweep_worker(&shared, state)
        });
        let sweep = t_sweep.elapsed();
        if let Some(tc) = &trace {
            tc.push(TraceEvent::SpanEnd {
                span: "sweep".to_string(),
                at_us: elapsed_us(t_total),
                dur_us: dur_us(sweep),
            });
        }

        // Widest-claim stamp: the narrowest width a certificate on
        // the aligner proves rescue-free for this query against the
        // *longest* database subject (every shorter subject is then
        // covered too). 0 when no certificate applies.
        let max_subject = order.first().map_or(0, |&i| db.get(i).len());
        let certified_width = aligner.certified_width(query.len(), max_subject);
        self.finish(
            outs,
            opts.top_n,
            StageTimes {
                started: t_total,
                prepare,
                sweep,
            },
            certified_width,
            trace,
        )
    }

    /// Fold the per-worker reports into one ranked report with metrics.
    ///
    /// Error precedence: a concrete alignment failure fails the whole
    /// query (as does cancellation); everything survivable — lost
    /// workers, per-subject panics, an expired deadline — lands in
    /// [`SearchReport::errors`] with `partial` set, alongside the
    /// valid results of every subject that completed.
    fn finish(
        &self,
        outs: Vec<Result<WorkerOut, AlignError>>,
        top_n: usize,
        times: StageTimes,
        certified_width: u32,
        trace: Option<SharedBatch<TraceEvent>>,
    ) -> Result<SearchReport, AlignError> {
        let mut report = SearchReport {
            hits: Vec::new(),
            threads_used: 0,
            subjects: 0,
            total_residues: 0,
            metrics: SearchMetrics::default(),
            trace_events: Vec::new(),
            partial: false,
            errors: Vec::new(),
        };
        let active = outs.len();
        let mut parts = Vec::with_capacity(active);
        for out in outs {
            match out {
                Ok(out) => parts.push(out),
                // WorkerLost: that worker's sweep output is gone, but
                // the query survives on the other workers' results.
                Err(lost) => report.errors.push(lost),
            }
        }
        // A concrete failure (bad subject alphabet, …) outranks the
        // cancellations it may have triggered in sibling workers.
        let mut cancelled = false;
        let mut deadline_hit = false;
        for (_, stop) in &parts {
            match stop {
                Some(AlignError::Cancelled) => cancelled = true,
                Some(AlignError::DeadlineExceeded) => deadline_hit = true,
                Some(other) => return Err(other.clone()),
                None => {}
            }
        }
        if cancelled {
            return Err(AlignError::Cancelled);
        }
        if deadline_hit {
            report.errors.push(AlignError::DeadlineExceeded);
        }

        let t_merge = Instant::now();
        if let Some(tc) = &trace {
            tc.push(TraceEvent::SpanBegin {
                span: "merge".to_string(),
                at_us: elapsed_us(times.started),
            });
        }
        // Workers carry their pool ids and score database indices.
        for (part, _) in parts {
            report.absorb(part, 0, 0);
        }
        rank_hits(&mut report.hits);
        if top_n > 0 {
            report.hits.truncate(top_n);
        }
        let merge = t_merge.elapsed();

        // ORDER: Relaxed — counting only; query results travel
        // through run_on_pool's completion channel, not this counter.
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        if let Some(tc) = trace {
            tc.push(TraceEvent::SpanEnd {
                span: "merge".to_string(),
                at_us: elapsed_us(times.started),
                dur_us: dur_us(merge),
            });
            tc.push(TraceEvent::QueryEnd {
                at_us: elapsed_us(times.started),
                hits: report.hits.len() as u64,
            });
            report.trace_events = tc.drain();
        }
        // What only the engine knows. Batching, admission and sharding
        // happen above it: a serving dispatcher or the shard supervisor
        // stamps those fields post-hoc.
        report.threads_used = active;
        report.partial = !report.errors.is_empty();
        let m = &mut report.metrics;
        m.prepare = times.prepare;
        m.sweep = times.sweep;
        m.merge = merge;
        m.gcups = SearchMetrics::derive_gcups(m.cells, times.sweep);
        m.certified_width = certified_width;
        m.workers_respawned = self.workers_respawned();
        m.total = times.started.elapsed();
        Ok(report)
    }
}

/// Stage timestamps threaded from a sweep into [`SearchEngine::finish`].
struct StageTimes {
    started: Instant,
    prepare: Duration,
    sweep: Duration,
}

impl Drop for SearchEngine {
    fn drop(&mut self) {
        let workers = std::mem::take(&mut *self.pool.lock().expect("pool mutex"));
        for worker in workers {
            let Worker { sender, handle } = worker;
            // Disconnecting the channel ends the worker's recv loop.
            drop(sender);
            if let Some(handle) = handle {
                // A worker killed mid-job joins with its panic
                // payload; shutdown ignores it either way.
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalign_bio::matrices::BLOSUM62;
    use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
    use aalign_core::{AlignConfig, AlignKind, GapModel, Strategy};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn aligner(kind: AlignKind) -> Aligner {
        Aligner::new(AlignConfig::new(kind, GapModel::affine(-10, -2), &BLOSUM62))
            .with_strategy(Strategy::Hybrid)
    }

    /// Reference: score every subject directly, sort, truncate — the
    /// pre-engine collect-then-sort semantics.
    fn reference_hits(a: &Aligner, q: &Sequence, db: &SeqDatabase, top_n: usize) -> Vec<Hit> {
        let mut hits: Vec<Hit> = (0..db.len())
            .map(|i| Hit {
                db_index: i,
                len: db.get(i).len(),
                score: a.align(q, db.get(i)).unwrap().score,
            })
            .collect();
        rank_hits(&mut hits);
        if top_n > 0 {
            hits.truncate(top_n);
        }
        hits
    }

    #[test]
    fn engine_matches_oneshot_reference_across_kinds_threads_topn() {
        let mut rng = seeded_rng(9100);
        let q = named_query(&mut rng, 70);
        let db = swissprot_like_db(9101, 40);
        for kind in [AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal] {
            let a = aligner(kind);
            for threads in [1usize, 4] {
                let engine = SearchEngine::new(threads);
                for top_n in [0usize, 5] {
                    let want = reference_hits(&a, &q, &db, top_n);
                    let got = engine
                        .search(&a, &q, &db, &SearchOptions::new().top_n(top_n))
                        .unwrap();
                    assert_eq!(got.hits, want, "{kind:?} threads={threads} top_n={top_n}");
                }
            }
        }
    }

    #[test]
    fn pool_reused_across_queries_spawns_threads_exactly_once() {
        let mut rng = seeded_rng(9200);
        let db = swissprot_like_db(9201, 30);
        let a = aligner(AlignKind::Local);
        let engine = SearchEngine::new(3);
        assert_eq!(engine.threads(), 3);
        let opts = SearchOptions::new().top_n(3);
        for query_no in 1..=3u64 {
            let q = named_query(&mut rng, 50 + query_no as usize * 10);
            let report = engine.search(&a, &q, &db, &opts).unwrap();
            assert_eq!(report.metrics.workers(), 3);
            for w in &report.metrics.per_worker {
                assert!(w.worker_id < 3, "no new threads may appear: {w:?}");
                assert_eq!(
                    w.queries_on_worker, query_no,
                    "every query must be served by the same pooled thread"
                );
            }
        }
        assert_eq!(engine.queries_served(), 3);
    }

    #[test]
    fn streaming_topk_bounds_hit_storage() {
        let mut rng = seeded_rng(9300);
        let q = named_query(&mut rng, 60);
        let db = swissprot_like_db(9301, 200);
        let a = aligner(AlignKind::Local);
        let engine = SearchEngine::new(4);
        let top_n = 5;
        let report = engine
            .search(&a, &q, &db, &SearchOptions::new().top_n(top_n))
            .unwrap();
        assert_eq!(report.hits.len(), top_n);
        assert!(
            report.metrics.peak_hits_buffered <= engine.threads() * top_n,
            "peak {} exceeds workers×top_n = {}",
            report.metrics.peak_hits_buffered,
            engine.threads() * top_n
        );
        // And the unbounded path really is O(db).
        let full = engine.search(&a, &q, &db, &SearchOptions::new()).unwrap();
        assert_eq!(full.metrics.peak_hits_buffered, db.len());
    }

    #[test]
    fn topk_merge_equals_full_sort_truncate_on_ties() {
        // Duplicate subjects give exactly tied scores; the streaming
        // heaps must resolve them identically to sort-then-truncate
        // (ascending db index among ties).
        let mut rng = seeded_rng(9400);
        let q = named_query(&mut rng, 50);
        let base = swissprot_like_db(9401, 12).sequences().to_vec();
        let mut seqs = base.clone();
        for (i, s) in base.iter().enumerate() {
            seqs.push(Sequence::from_indices(
                format!("dup_{i}"),
                s.alphabet(),
                s.indices().to_vec(),
            ));
        }
        let db = SeqDatabase::new(seqs);
        let a = aligner(AlignKind::Local);
        let engine = SearchEngine::new(3);
        for top_n in [1usize, 4, 13, 24] {
            let want = reference_hits(&a, &q, &db, top_n);
            let got = engine
                .search(&a, &q, &db, &SearchOptions::new().top_n(top_n))
                .unwrap();
            assert_eq!(got.hits, want, "top_n={top_n}");
        }
    }

    #[test]
    fn cancellation_stops_the_sweep_early() {
        let mut rng = seeded_rng(9500);
        let q = named_query(&mut rng, 80);
        // Several claims even where one is four lane vectors.
        let db = swissprot_like_db(9501, 600);
        let a = aligner(AlignKind::Local);
        let engine = SearchEngine::new(1);
        let token = CancelToken::new();
        let seen = Arc::new(AtomicUsize::new(0));
        let opts = {
            let token = token.clone();
            let seen = Arc::clone(&seen);
            SearchOptions::new()
                .cancel(token.clone())
                .on_progress(move |p| {
                    seen.store(p.subjects_done, Ordering::Relaxed);
                    if p.subjects_done >= 3 {
                        token.cancel();
                    }
                })
        };
        let err = engine.search(&a, &q, &db, &opts).unwrap_err();
        assert_eq!(err, AlignError::Cancelled);
        let scored = seen.load(Ordering::Relaxed);
        assert!(
            scored >= 3 && scored < db.len(),
            "sweep must stop early: scored {scored} of {}",
            db.len()
        );
    }

    #[test]
    fn pre_cancelled_token_fails_fast() {
        let mut rng = seeded_rng(9600);
        let q = named_query(&mut rng, 40);
        let db = swissprot_like_db(9601, 10);
        let engine = SearchEngine::new(2);
        let token = CancelToken::new();
        token.cancel();
        let err = engine
            .search(
                &aligner(AlignKind::Local),
                &q,
                &db,
                &SearchOptions::new().cancel(token),
            )
            .unwrap_err();
        assert_eq!(err, AlignError::Cancelled);
    }

    #[test]
    fn metrics_account_for_the_whole_sweep() {
        let mut rng = seeded_rng(9700);
        let q = named_query(&mut rng, 90);
        let db = swissprot_like_db(9701, 50);
        let a = aligner(AlignKind::Local);
        let engine = SearchEngine::new(2);
        let report = engine.search(&a, &q, &db, &SearchOptions::new()).unwrap();
        let m = &report.metrics;
        let db_residues: usize = db.sequences().iter().map(Sequence::len).sum();
        assert_eq!(report.total_residues, db_residues);
        assert_eq!(m.cells, q.len() as u64 * db_residues as u64);
        assert!(m.gcups > 0.0);
        assert_eq!(
            m.per_worker.iter().map(|w| w.subjects).sum::<usize>(),
            db.len()
        );
        assert_eq!(
            m.per_worker.iter().map(|w| w.residues).sum::<usize>(),
            db_residues
        );
        // Every subject's columns show up in the kernel mix, whichever
        // of the two ways the sweep scored it.
        let k = &m.kernel_stats;
        assert_eq!(
            k.iterate_columns + k.scan_columns + k.inter_columns,
            db_residues
        );
        assert!(k.inter_lane_columns >= k.inter_columns);
        assert!(m.total >= m.sweep);
        // A worker that claimed nothing holds nothing: two whole-vector
        // claims cover this database, and one worker may take both.
        let busy: Vec<_> = m.per_worker.iter().filter(|w| w.subjects > 0).collect();
        assert!(!busy.is_empty());
        for w in busy {
            assert!(w.scratch_bytes > 0, "warm worker must hold scratch");
        }
        // One latency sample per subject (a batch's time shared
        // out among its subjects), one load sample per worker.
        assert_eq!(m.latency.count(), db.len() as u64);
        assert_eq!(m.worker_load.count(), m.workers() as u64);
        assert_eq!(
            m.worker_load.sum(),
            db_residues as u64,
            "worker-load samples partition the database residues"
        );
        // Derived GCUPS agrees with the guarded helper.
        assert_eq!(m.gcups, SearchMetrics::derive_gcups(m.cells, m.sweep));
    }

    #[test]
    fn scratch_stops_growing_after_warmup() {
        // Zero-allocation reuse: the scratch footprint after query 2
        // equals the footprint after query 3 (same database) — the
        // striped columns and, where vectors of subjects ran lane per
        // subject, that kernel's columns and transposition tile.
        let mut rng = seeded_rng(9800);
        // One subject long enough that its vector is mostly padding
        // and goes through the striped kernels.
        let mut seqs = swissprot_like_db(9801, 125).sequences().to_vec();
        seqs.push(named_query(&mut rng, 6000));
        let db = SeqDatabase::new(seqs);
        let a = aligner(AlignKind::Local);
        // One worker, so it is the same thread that meets every batch
        // in every query.
        let engine = SearchEngine::new(1);
        let q = named_query(&mut rng, 100);
        let footprint = |r: &SearchReport| -> Vec<usize> {
            r.metrics
                .per_worker
                .iter()
                .map(|w| w.scratch_bytes)
                .collect()
        };
        engine.search(&a, &q, &db, &SearchOptions::new()).unwrap();
        let second = engine.search(&a, &q, &db, &SearchOptions::new()).unwrap();
        let k = &second.metrics.kernel_stats;
        assert!(k.iterate_columns + k.scan_columns > 0, "{k:?}");
        assert_eq!(
            k.inter_columns > 0,
            a.prepare(&q).unwrap().batch_lanes() > 0,
            "{k:?}"
        );
        let warm = footprint(&second);
        let again = footprint(&engine.search(&a, &q, &db, &SearchOptions::new()).unwrap());
        assert_eq!(warm, again, "buffers must be retained, not reallocated");
    }

    #[test]
    fn engine_matches_the_inter_sequence_oracle() {
        // The sweep scores this database both ways — most vectors lane
        // per subject, the ragged ones through the striped kernels —
        // and the lane kernel is what is under test here: the oracle
        // is the paradigm's dynamic program, which shares code with
        // neither.
        let mut rng = seeded_rng(9900);
        let q = named_query(&mut rng, 60);
        let db = swissprot_like_db(9901, 145);
        let engine = SearchEngine::new(2);
        for kind in [AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal] {
            let a = aligner(kind);
            let mut want: Vec<Hit> = (0..db.len())
                .map(|i| Hit {
                    db_index: i,
                    len: db.get(i).len(),
                    score: aalign_core::paradigm::paradigm_dp(a.config(), &q, db.get(i)).score,
                })
                .collect();
            rank_hits(&mut want);
            for top_n in [0usize, 7] {
                let got = engine
                    .search(&a, &q, &db, &SearchOptions::new().top_n(top_n))
                    .unwrap();
                let keep = if top_n == 0 { want.len() } else { top_n };
                assert_eq!(got.hits, want[..keep], "{kind:?} top_n={top_n}");
                let lanes = a.prepare(&q).unwrap().batch_lanes();
                assert_eq!(
                    got.metrics.kernel_stats.inter_columns > 0,
                    lanes > 0,
                    "{kind:?}: lanes run exactly where the engine has them"
                );
            }
        }
    }
}
