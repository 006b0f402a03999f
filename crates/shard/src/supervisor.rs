//! The shard supervisor: partition, fan out, detect death, retry,
//! degrade, merge.
//!
//! ## Supervision tree
//!
//! One [`Supervisor`] owns N `ShardSlot`s; each slot owns at most
//! one live [`Worker`] child plus its health history (death
//! timestamps inside the breaker window, backoff state, respawn
//! schedule). Every query locks the slots in index order, dispatches
//! to all live shards (deadline decremented by elapsed supervisor
//! time), then collects in index order while the children compute
//! concurrently. Every request to a child goes through one `send`
//! and every reply through one `recv`, which count a failed write, a
//! closed pipe or a read error as the child's death. Status
//! ([`shards_live`](Supervisor::shards_live) and friends) reads a
//! record kept beside the counters, never a slot lock, so it does not
//! wait behind a query.
//!
//! ## Retry / degradation state machine, per shard per query
//!
//! ```text
//!          dispatch ──► answered ──────────────────────► ok
//!             │
//!             ├─ budget spent before the write ─► failed (timed_out)
//!             │
//!             ├─ child died (write/EOF/reap) ─► dispatch again:
//!             │        │                 respawn (backoff), resend
//!             │        │ breaker tripped once, same request id
//!             │        ▼ or no budget     (retried once written)
//!             │      failed ◄────────── died/timed out again
//!             │
//!             └─ no reply by deadline+grace ─► kill child,
//!                                              failed (timed_out)
//! ```
//!
//! A failed shard degrades the answer instead of failing it: the
//! merged report is `partial: true`, carries an
//! [`AlignError::ShardLost`] naming the exact uncovered `[start,
//! end)` range, and accounts the outcome in
//! [`SearchMetrics::shards`]. A shard that dies `BREAKER_DEATHS`
//! (3) times inside `BREAKER_WINDOW` (60 s) is circuit-broken
//! (marked dead, flight ring dumped) and the search continues on the
//! survivors.
//!
//! ## Policy
//!
//! The supervision policy is constants, not options: respawn backoff
//! from `BACKOFF_BASE` (50 ms) doubling to `BACKOFF_CAP` (2 s),
//! jittered by a stream seeded with the shard index; the breaker
//! above; and a liveness monitor that runs every `HEARTBEAT` (1 s)
//! for the supervisor's lifetime. [`ShardOptions`] carries only the
//! shard count and a chaos plan.
//!
//! ## Bit-exactness
//!
//! Children run the same engine with the same aligner configuration;
//! each shard's hits come back shard-local and are rebased by the
//! shard's range start, then ranked with [`aalign_par::rank_hits`] —
//! the engine's own (score desc, db_index asc) order — and truncated
//! to `top_n`. Merging per-shard top-k lists this way is exactly the
//! single-process top-k.
//!
//! [`SearchMetrics::shards`]: aalign_par::SearchMetrics
//! [`AlignError::ShardLost`]: aalign_core::AlignError

use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use aalign_bio::db::SeqDatabase;
use aalign_bio::fasta::write_fasta;
use aalign_bio::Sequence;
use aalign_core::retry::Backoff;
use aalign_core::AlignError;
use aalign_obs::wire::{obj, JsonValue};
use aalign_obs::{FlightEvent, FlightRecorder, StageKind};
use aalign_par::wire::{report_from_wire, SearchRequest};
use aalign_par::{rank_hits, CancelToken, SearchMetrics, SearchReport};

use crate::fault::ShardFaultPlan;
use crate::worker::{RecvError, Worker, WorkerCommand};

/// How often a wait for a child's reply re-checks the query's
/// [`CancelToken`]. The wait itself is a blocking receive the reply
/// wakes, so this bounds cancel latency only.
const CANCEL_SLICE: Duration = Duration::from_millis(25);

/// Query budget when the [`ShardQuery`] carries no deadline.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Extra wait past a query's deadline for a child's own
/// `partial: true` reply to cross the pipe before the child is
/// declared wedged and killed.
const REQUEST_GRACE: Duration = Duration::from_secs(2);

/// Budget for a spawned child to pass its readiness `health` ping
/// (the child loads its shard FASTA first).
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// Graceful-drain budget per child (shutdown RPC + SIGTERM, then
/// SIGKILL when it expires).
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// First respawn backoff delay; each death doubles it up to
/// [`BACKOFF_CAP`], jittered by a stream seeded with the shard index.
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Respawn backoff delay cap.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Deaths inside `BREAKER_WINDOW` that trip a shard's circuit
/// breaker.
const BREAKER_DEATHS: usize = 3;

/// Sliding window for [`BREAKER_DEATHS`].
const BREAKER_WINDOW: Duration = Duration::from_secs(60);

/// Liveness monitor period (`try_wait` reap + idle `health` ping +
/// background respawn), and the ping's reply budget.
const HEARTBEAT: Duration = Duration::from_secs(1);

/// What a [`Supervisor`] is launched with: the shard count and an
/// optional chaos plan. The supervision policy (backoff, breaker,
/// heartbeat) is fixed; the [module docs](self) state it.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ShardOptions {
    /// Number of contiguous shards (clamped to the database size).
    pub shards: usize,
    /// Deterministic chaos plan (kills a chosen shard's child right
    /// after dispatch).
    pub fault: Option<ShardFaultPlan>,
}

impl ShardOptions {
    /// `shards` shards, no chaos plan.
    pub fn new(shards: usize) -> Self {
        ShardOptions {
            shards: shards.max(1),
            fault: None,
        }
    }

    /// Install a deterministic chaos plan.
    #[must_use]
    pub fn fault(mut self, plan: ShardFaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// One query, supervisor-level.
#[derive(Debug, Clone)]
pub struct ShardQuery {
    /// The request every shard is sent (`no_batch`: a child never
    /// coalesces a shard's request away); each send stamps the
    /// idempotent id `q<qid>` and the remaining `deadline_ms`.
    request: SearchRequest,
    /// Wall-clock budget; `None` means 30 s.
    deadline: Option<Duration>,
    /// Trips to abandon the query mid-fan-out: the search returns
    /// [`AlignError::Cancelled`] and leaves the children alone.
    cancel: CancelToken,
}

impl ShardQuery {
    /// Query over `query`'s residues (protein, one-letter code) with
    /// defaults: label `query`, every hit, the 30 s default deadline.
    pub fn new(query: impl Into<String>) -> Self {
        let mut request = SearchRequest::new(query);
        request.no_batch = true;
        ShardQuery {
            request,
            deadline: None,
            cancel: CancelToken::new(),
        }
    }

    /// Set the hit budget (0 = every hit).
    #[must_use]
    pub fn top_n(mut self, n: usize) -> Self {
        self.request.top_n = n;
        self
    }

    /// Set the wall-clock budget.
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the query label (rides to the children as `query_id`).
    #[must_use]
    pub fn query_id(mut self, id: impl Into<String>) -> Self {
        self.request.query_id = id.into();
        self
    }

    /// Share the caller's cancellation token.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The `search` params one send writes: the same [`SearchRequest`]
    /// document the HTTP front end takes, under the idempotent request
    /// id `q<qid>` and with the supervisor's remaining budget as the
    /// deadline.
    fn to_wire(&self, qid: u64, remaining: Duration) -> JsonValue {
        let mut req = self.request.clone();
        req.id = Some(format!("q{qid}"));
        req.deadline_ms = Some(u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX));
        req.to_wire()
    }
}

/// One query's fan-out: what every send carries and when its budget
/// runs out.
struct Fanout<'q> {
    q: &'q ShardQuery,
    qid: u64,
    deadline_at: Instant,
}

/// Mutable per-shard state, behind the slot's mutex.
#[derive(Debug)]
struct SlotState {
    worker: Option<Worker>,
    /// Circuit-broken: no further spawns or dispatches.
    dead: bool,
    /// Death timestamps inside the breaker window.
    deaths: VecDeque<Instant>,
    /// Earliest instant the next (re)spawn may run (backoff).
    next_respawn_at: Option<Instant>,
    backoff: Backoff,
    /// Children spawned into this slot over its lifetime.
    spawned: u64,
}

/// One contiguous database shard.
#[derive(Debug)]
struct ShardSlot {
    index: usize,
    /// Global database range `[start, end)` this shard covers.
    start: usize,
    end: usize,
    db_path: PathBuf,
    state: Mutex<SlotState>,
}

/// Counters, and what status reads of the shards: written wherever a
/// slot gains or loses its child, so status never takes a slot lock
/// (a query holds those from dispatch to merge).
#[derive(Debug, Default)]
struct SupervisorStats {
    queries: u64,
    respawns: u64,
    /// Per shard: the pid of its child once that child passed
    /// readiness, `None` while it has none.
    pids: Vec<Option<u32>>,
    /// Shards whose circuit breaker tripped (a slot trips once).
    tripped: usize,
}

/// The shard supervisor. See the [module docs](self) for the
/// supervision tree and state machine.
#[derive(Debug)]
pub struct Supervisor {
    cmd: WorkerCommand,
    /// Temp directory holding the per-shard FASTA files.
    dir: PathBuf,
    slots: Vec<ShardSlot>,
    /// Shard spawn / exit / retry / breaker events. The ring reaches
    /// stderr through [`dump_flight`](Self::dump_flight), on a breaker
    /// trip or a dirty drain; nothing serves it yet (ROADMAP item 6(b)).
    recorder: FlightRecorder,
    started: Instant,
    stats: Mutex<SupervisorStats>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
    monitor_stop: Arc<(Mutex<bool>, Condvar)>,
    shut: Mutex<bool>,
    total_subjects: usize,
    /// The chaos plan's kill budget, when [`ShardOptions::fault`] set
    /// one.
    fault: Option<Mutex<ShardFaultPlan>>,
}

/// Contiguous balanced partition of `len` subjects into `n` ranges
/// (`n` clamped to `len.max(1)`): range `i` is
/// `[i·len/n, (i+1)·len/n)`.
pub fn partition(len: usize, n: usize) -> Vec<(usize, usize)> {
    let n = n.clamp(1, len.max(1));
    (0..n).map(|i| (i * len / n, (i + 1) * len / n)).collect()
}

impl Supervisor {
    /// Partition `db`, write one FASTA per shard into a fresh temp
    /// directory, spawn one child per shard, and confirm each with a
    /// readiness `health` round trip. Fails fast if any child cannot
    /// start within 30 s. Starts the liveness monitor.
    ///
    /// A query's time budget rides on the query
    /// ([`ShardQuery::deadline`], 30 s when unset).
    pub fn launch(
        db: &SeqDatabase,
        cmd: WorkerCommand,
        opts: ShardOptions,
    ) -> io::Result<Arc<Supervisor>> {
        let ranges = partition(db.len(), opts.shards);
        let dir = fresh_shard_dir()?;
        let mut slots = Vec::with_capacity(ranges.len());
        for (i, &(start, end)) in ranges.iter().enumerate() {
            let db_path = dir.join(format!("shard{i}.fa"));
            let file = std::fs::File::create(&db_path)?;
            write_fasta(io::BufWriter::new(file), &db.sequences()[start..end], 60)?;
            slots.push(ShardSlot {
                index: i,
                start,
                end,
                db_path,
                state: Mutex::new(SlotState {
                    worker: None,
                    dead: false,
                    deaths: VecDeque::new(),
                    next_respawn_at: None,
                    backoff: Backoff::seeded(BACKOFF_BASE, BACKOFF_CAP, i as u64),
                    spawned: 0,
                }),
            });
        }
        let sup = Arc::new(Supervisor {
            cmd,
            dir,
            slots,
            recorder: FlightRecorder::new(),
            started: Instant::now(),
            stats: Mutex::new(SupervisorStats {
                pids: vec![None; ranges.len()],
                ..SupervisorStats::default()
            }),
            monitor: Mutex::new(None),
            monitor_stop: Arc::new((Mutex::new(false), Condvar::new())),
            shut: Mutex::new(false),
            total_subjects: db.len(),
            fault: opts.fault.map(Mutex::new),
        });
        for slot in &sup.slots {
            let mut st = slot.state.lock().expect("slot state poisoned");
            if !sup.spawn_into(slot, &mut st, Instant::now() + SPAWN_TIMEOUT) {
                drop(st);
                let _ = std::fs::remove_dir_all(&sup.dir);
                return Err(io::Error::other(format!(
                    "shard {} child failed readiness",
                    slot.index
                )));
            }
        }
        let weak = Arc::downgrade(&sup);
        let stop = Arc::clone(&sup.monitor_stop);
        let handle = std::thread::Builder::new()
            .name("aalign-shard-monitor".to_string())
            .spawn(move || monitor_loop(&weak, &stop))?;
        *sup.monitor.lock().expect("monitor handle poisoned") = Some(handle);
        Ok(sup)
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Global `[start, end)` database range per shard.
    pub fn ranges(&self) -> Vec<(usize, usize)> {
        self.slots.iter().map(|s| (s.start, s.end)).collect()
    }

    /// Subjects across all shards.
    pub fn subjects(&self) -> usize {
        self.total_subjects
    }

    /// Shards with a live child right now. Never waits behind a
    /// query.
    pub fn shards_live(&self) -> usize {
        let stats = self.stats.lock().expect("stats poisoned");
        stats.pids.iter().flatten().count()
    }

    /// Circuit-broken shards. Never waits behind a query.
    pub fn shards_dead(&self) -> usize {
        self.stats.lock().expect("stats poisoned").tripped
    }

    /// Children respawned over the supervisor's lifetime (excludes
    /// the initial N spawns).
    pub fn respawns(&self) -> u64 {
        self.stats.lock().expect("stats poisoned").respawns
    }

    /// Queries served.
    pub fn queries_served(&self) -> u64 {
        self.stats.lock().expect("stats poisoned").queries
    }

    /// Current child pid for a shard (tests / external chaos). Never
    /// waits behind a query.
    pub fn shard_pid(&self, shard: usize) -> Option<u32> {
        let stats = self.stats.lock().expect("stats poisoned");
        stats.pids.get(shard).copied().flatten()
    }

    /// Dump the flight ring to stderr, labelled with why — same
    /// format as the serve dispatcher's dump. Called automatically on
    /// circuit-breaker trips and dirty drains.
    pub fn dump_flight(&self, why: &str) {
        self.recorder.dump_to_stderr("aalign-shard", why);
    }

    fn event(&self, request: u64, stage: StageKind, dur: Duration, shard: usize) {
        self.recorder.record(FlightEvent {
            at_us: u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
            request,
            stage,
            dur_us: u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
            ref_request: shard as u64,
        });
    }

    /// Fan one query out to every live shard and merge. Degrades
    /// rather than fails: shard loss yields `partial: true` plus
    /// [`AlignError::ShardLost`] entries; only whole-query problems
    /// (empty/invalid query, a tripped [`ShardQuery::cancel`]) are
    /// `Err`.
    ///
    /// A cancel is not a fault: no child is killed and nothing counts
    /// against a breaker. The children finish the abandoned request
    /// under its own deadline, and their late replies are discarded by
    /// rpc id, as a retried call's are.
    pub fn search(&self, q: &ShardQuery) -> Result<SearchReport, AlignError> {
        let (query, query_id) = (&q.request.query, &q.request.query_id);
        if query.is_empty() {
            return Err(AlignError::EmptyQuery);
        }
        // Validate locally so a deterministic bad query never counts
        // against shard health (every child would refuse it anyway).
        Sequence::protein(query_id.as_str(), query.as_bytes()).map_err(|_| {
            AlignError::AlphabetMismatch {
                id: query_id.clone(),
            }
        })?;
        let qid = {
            let mut stats = self.stats.lock().expect("stats poisoned");
            stats.queries += 1;
            stats.queries
        };
        let started = Instant::now();
        let fan = Fanout {
            q,
            qid,
            deadline_at: started + q.deadline.unwrap_or(DEFAULT_DEADLINE),
        };

        // Lock every slot in index order for the whole query: one
        // child serves one request at a time, so responses need no
        // cross-query routing.
        let mut guards: Vec<_> = self
            .slots
            .iter()
            .map(|s| s.state.lock().expect("slot state poisoned"))
            .collect();
        let mut shards: Vec<PerShard> = self
            .slots
            .iter()
            .map(|slot| PerShard {
                index: slot.index,
                start: slot.start,
                end: slot.end,
                answer: None,
                timed_out: false,
                retried: false,
            })
            .collect();

        // Phase 1: dispatch to every live shard; children compute
        // concurrently while we collect in order below.
        let sent: Vec<Option<u64>> = self
            .slots
            .iter()
            .zip(guards.iter_mut())
            .zip(shards.iter_mut())
            .map(|((slot, st), shard)| self.dispatch(slot, st, &fan, shard, false))
            .collect();

        // Phase 2: collect, retrying each lost shard once.
        let all = self.slots.iter().zip(guards.iter_mut());
        for (((slot, st), shard), rpc_id) in all.zip(shards.iter_mut()).zip(sent) {
            self.collect(slot, st, &fan, rpc_id, shard)?;
        }
        drop(guards);

        Ok(merge_reports(
            shards,
            q.request.top_n,
            started,
            Instant::now(),
        ))
    }

    /// Write the query to one shard, (re)spawning its child first when
    /// it has none; `resend` marks the one retry after a death, which
    /// [`PerShard::retried`] counts once written. Returns the RPC id to
    /// wait on, or `None` when nothing was written: the shard is dead,
    /// could not respawn inside the budget, or its budget was spent
    /// first (`timed_out`). A child that dies taking the first send is
    /// resent to at once.
    fn dispatch(
        &self,
        slot: &ShardSlot,
        st: &mut SlotState,
        fan: &Fanout<'_>,
        shard: &mut PerShard,
        resend: bool,
    ) -> Option<u64> {
        if !self.ensure_worker(slot, st, fan.deadline_at) {
            return None;
        }
        let remaining = fan.deadline_at.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            shard.timed_out = true;
            return None;
        }
        if resend {
            self.event(fan.qid, StageKind::ShardRetry, remaining, slot.index);
        }
        let params = fan.q.to_wire(fan.qid, remaining);
        let Some(rpc_id) = self.send(slot, st, fan.qid, "search", params) else {
            // The child died taking the first send: resend at once.
            return if resend {
                None
            } else {
                self.dispatch(slot, st, fan, shard, true)
            };
        };
        shard.retried |= resend;
        self.maybe_inject_kill(slot, st);
        Some(rpc_id)
    }

    /// Collect one shard's answer to `rpc_id` (`None`: nothing was
    /// sent), resending once on a respawned child after a death. `Err`
    /// only when the query's cancel token tripped.
    fn collect(
        &self,
        slot: &ShardSlot,
        st: &mut SlotState,
        fan: &Fanout<'_>,
        mut rpc_id: Option<u64>,
        shard: &mut PerShard,
    ) -> Result<(), AlignError> {
        let hard_deadline = fan.deadline_at + REQUEST_GRACE;
        while let Some(id) = rpc_id {
            if fan.q.cancel.is_cancelled() {
                return Err(AlignError::Cancelled);
            }
            let slice_end = hard_deadline.min(Instant::now() + CANCEL_SLICE);
            match self.recv(slot, st, fan.qid, id, slice_end) {
                // Only the slice ran out: look at the token, wait on.
                Err(RecvError::TimedOut) if slice_end < hard_deadline => {}
                Ok(doc) => {
                    // A JSON-RPC error (or undecodable result) is a
                    // deterministic refusal — no point retrying the
                    // same request on a fresh child.
                    shard.answer = doc.get("result").and_then(|r| report_from_wire(r).ok());
                    return Ok(());
                }
                Err(RecvError::TimedOut) => {
                    // No reply even after the grace period: the child
                    // is wedged (its own deadline handling would have
                    // produced a partial reply by now). Kill it; no
                    // budget remains for a retry.
                    self.record_death(slot, st, fan.qid);
                    shard.timed_out = true;
                    return Ok(());
                }
                // The child died (`recv` counted it): resend once,
                // idempotent by request id.
                Err(_) if !shard.retried => rpc_id = self.dispatch(slot, st, fan, shard, true),
                Err(_) => return Ok(()),
            }
        }
        Ok(())
    }

    /// Write one JSON-RPC request to the slot's child. `None` when
    /// nothing was written: the slot has no child, or the write failed
    /// — the child's death, counted here.
    fn send(
        &self,
        slot: &ShardSlot,
        st: &mut SlotState,
        qid: u64,
        method: &str,
        params: JsonValue,
    ) -> Option<u64> {
        let written = st.worker.as_mut()?.send(method, params);
        if written.is_err() {
            self.record_death(slot, st, qid);
        }
        written.ok()
    }

    /// Wait until `until` for the child's reply to `rpc_id`. A closed
    /// pipe or a read error is the child's death, counted here; a
    /// timeout is the caller's to judge.
    fn recv(
        &self,
        slot: &ShardSlot,
        st: &mut SlotState,
        qid: u64,
        rpc_id: u64,
        until: Instant,
    ) -> Result<JsonValue, RecvError> {
        let reply = st
            .worker
            .as_mut()
            .map_or(Err(RecvError::Closed), |w| w.recv_matching(rpc_id, until));
        if reply.as_ref().is_err_and(RecvError::is_fatal) {
            self.record_death(slot, st, qid);
        }
        reply
    }

    /// One `health` round trip: true when the child answered by
    /// `until`.
    fn ping(&self, slot: &ShardSlot, st: &mut SlotState, until: Instant) -> bool {
        self.send(slot, st, 0, "health", obj(vec![]))
            .is_some_and(|rpc_id| self.recv(slot, st, 0, rpc_id, until).is_ok())
    }

    /// Make sure the slot has a live child: respects the breaker,
    /// waits out the backoff window (bounded by the query budget),
    /// then spawns and readiness-checks.
    fn ensure_worker(&self, slot: &ShardSlot, st: &mut SlotState, deadline_at: Instant) -> bool {
        if st.dead {
            return false;
        }
        if st.worker.is_some() {
            return true;
        }
        if let Some(at) = st.next_respawn_at {
            if at > deadline_at {
                return false; // cannot afford the backoff wait
            }
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
        }
        self.spawn_into(slot, st, deadline_at)
    }

    /// Spawn a child into the slot and confirm readiness with a
    /// `health` round trip (bounded by both the spawn budget and
    /// `deadline_cap`). A failed spawn or readiness ping is a death,
    /// counted here.
    fn spawn_into(&self, slot: &ShardSlot, st: &mut SlotState, deadline_cap: Instant) -> bool {
        let begun = Instant::now();
        let Ok(w) = Worker::spawn(&self.cmd, &slot.db_path) else {
            self.record_death(slot, st, 0);
            return false;
        };
        st.worker = Some(w);
        if !self.ping(slot, st, (begun + SPAWN_TIMEOUT).min(deadline_cap)) {
            // `send`/`recv` counted a closed pipe; a child too slow to
            // answer is counted here.
            if st.worker.is_some() {
                self.record_death(slot, st, 0);
            }
            return false;
        }
        st.spawned += 1;
        {
            let mut stats = self.stats.lock().expect("stats poisoned");
            stats.respawns += u64::from(st.spawned > 1);
            stats.pids[slot.index] = st.worker.as_ref().map(Worker::pid);
        }
        st.next_respawn_at = None;
        self.event(0, StageKind::ShardSpawn, begun.elapsed(), slot.index);
        true
    }

    /// Account one child death: reap it, schedule the backoff-delayed
    /// respawn, and trip the breaker when the window fills. Trips
    /// auto-dump the flight ring.
    fn record_death(&self, slot: &ShardSlot, st: &mut SlotState, qid: u64) {
        if let Some(mut w) = st.worker.take() {
            w.kill_and_reap();
        }
        let now = Instant::now();
        st.deaths.push_back(now);
        while let Some(&front) = st.deaths.front() {
            if now.duration_since(front) > BREAKER_WINDOW {
                st.deaths.pop_front();
            } else {
                break;
            }
        }
        let delay = st.backoff.next().unwrap_or_default();
        st.next_respawn_at = Some(now + delay);
        self.event(qid, StageKind::ShardExit, delay, slot.index);
        let trips = !st.dead && st.deaths.len() >= BREAKER_DEATHS;
        {
            let mut stats = self.stats.lock().expect("stats poisoned");
            stats.pids[slot.index] = None;
            stats.tripped += usize::from(trips);
        }
        if trips {
            st.dead = true;
            self.event(qid, StageKind::ShardBreaker, Duration::ZERO, slot.index);
            self.dump_flight(&format!(
                "circuit breaker tripped: shard {} died {} time(s) within {:?}",
                slot.index,
                st.deaths.len(),
                BREAKER_WINDOW
            ));
        }
    }

    /// SIGKILL `slot`'s child right after a dispatch when the chaos
    /// plan says so.
    fn maybe_inject_kill(&self, slot: &ShardSlot, st: &mut SlotState) {
        let Some(plan) = &self.fault else { return };
        if plan
            .lock()
            .expect("fault plan poisoned")
            .should_kill(slot.index)
        {
            if let Some(w) = st.worker.as_mut() {
                w.sigkill();
            }
        }
    }

    /// One liveness pass: reap dead children, respawn when the
    /// backoff window has passed, and `health`-ping idle children (a
    /// busy child simply doesn't answer in time, which is not fatal —
    /// only a closed pipe is, and `send`/`recv` count that).
    fn monitor_tick(&self) {
        for slot in &self.slots {
            // A held lock means a query is using this shard; skip.
            let Ok(mut st) = slot.state.try_lock() else {
                continue;
            };
            if st.dead {
                continue;
            }
            let Some(w) = st.worker.as_mut() else {
                if st.next_respawn_at.is_none_or(|at| Instant::now() >= at) {
                    self.spawn_into(slot, &mut st, Instant::now() + SPAWN_TIMEOUT);
                }
                continue;
            };
            if !w.is_alive() {
                self.record_death(slot, &mut st, 0);
            } else if self.ping(slot, &mut st, Instant::now() + HEARTBEAT) && st.deaths.is_empty() {
                st.backoff.reset();
            }
        }
    }

    /// Graceful drain: stop the monitor, send each child a `shutdown`
    /// RPC plus SIGTERM, reap with a 5 s grace per child, SIGKILL
    /// stragglers, remove the shard FASTA directory. Returns
    /// true when every child exited inside the grace period; a dirty
    /// drain auto-dumps the flight ring. Idempotent.
    pub fn shutdown(&self) -> bool {
        {
            let mut shut = self.shut.lock().expect("shutdown flag poisoned");
            if *shut {
                return true;
            }
            *shut = true;
        }
        {
            let (lock, cv) = &*self.monitor_stop;
            *lock.lock().expect("monitor stop poisoned") = true;
            cv.notify_all();
        }
        if let Some(h) = self.monitor.lock().expect("monitor handle poisoned").take() {
            let _ = h.join();
        }
        let mut clean = true;
        for slot in &self.slots {
            let mut st = slot.state.lock().expect("slot state poisoned");
            let Some(mut w) = st.worker.take() else {
                continue;
            };
            self.stats.lock().expect("stats poisoned").pids[slot.index] = None;
            // Best effort, and no death counted: the stdio daemon
            // replies, flushes, and exits on shutdown; SIGTERM covers a
            // child wedged mid-request or already gone.
            let _ = w.send("shutdown", obj(vec![]));
            w.sigterm();
            if !w.wait_with_grace(DRAIN_GRACE) {
                w.kill_and_reap();
                clean = false;
            }
        }
        if !clean {
            self.dump_flight("dirty drain: child outlived the grace period");
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        clean
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn monitor_loop(sup: &Weak<Supervisor>, stop: &Arc<(Mutex<bool>, Condvar)>) {
    loop {
        {
            let (lock, cv) = &**stop;
            let guard = lock.lock().expect("monitor stop poisoned");
            let (guard, _) = cv
                .wait_timeout_while(guard, HEARTBEAT, |stopped| !*stopped)
                .expect("monitor stop poisoned");
            if *guard {
                return;
            }
        }
        let Some(sup) = sup.upgrade() else {
            return;
        };
        sup.monitor_tick();
    }
}

/// One shard's outcome for one query, pre-merge.
#[derive(Debug)]
pub(crate) struct PerShard {
    pub index: usize,
    pub start: usize,
    pub end: usize,
    /// `Some` = answered (possibly `partial` on its own terms).
    pub answer: Option<SearchReport>,
    pub timed_out: bool,
    pub retried: bool,
}

/// Merge per-shard reports into one: absorb each answer
/// ([`SearchReport::absorb`], `db_index` rebased by the shard's range
/// start, worker ids by the workers of the shards before it), rank with
/// the engine's own order, truncate to `top_n`, and stamp the
/// [`ShardOutcome`] — every failed shard contributes `partial: true`
/// plus a [`ShardLost`] error naming its uncovered range.
///
/// [`ShardOutcome`]: aalign_par::ShardOutcome
/// [`ShardLost`]: aalign_core::AlignError::ShardLost
pub(crate) fn merge_reports(
    per_shard: Vec<PerShard>,
    top_n: usize,
    started: Instant,
    merge_started: Instant,
) -> SearchReport {
    let mut merged = SearchReport {
        hits: Vec::new(),
        threads_used: 0,
        subjects: 0,
        total_residues: 0,
        metrics: SearchMetrics::default(),
        trace_events: Vec::new(),
        partial: false,
        errors: Vec::new(),
    };
    // The minimum over shards: certified only if every shard is.
    merged.metrics.certified_width = u32::MAX;
    for shard in per_shard {
        merged.metrics.shards.retried += u64::from(shard.retried);
        match shard.answer {
            Some(report) => {
                merged.metrics.shards.ok += 1;
                merged.absorb(report, shard.start, merged.threads_used);
            }
            None => {
                merged.metrics.shards.failed += 1;
                merged.metrics.shards.timed_out += u64::from(shard.timed_out);
                merged.partial = true;
                merged.errors.push(AlignError::ShardLost {
                    shard: shard.index,
                    start: shard.start,
                    end: shard.end,
                });
                merged.metrics.certified_width = 0;
            }
        }
    }

    rank_hits(&mut merged.hits);
    if top_n > 0 {
        merged.hits.truncate(top_n);
    }
    let m = &mut merged.metrics;
    if m.certified_width == u32::MAX {
        m.certified_width = 0;
    }
    m.merge = merge_started.elapsed();
    m.total = started.elapsed();
    m.gcups = SearchMetrics::derive_gcups(m.cells, m.sweep);
    m.peak_hits_buffered = m.peak_hits_buffered.max(merged.hits.len());
    merged
}

/// A unique per-launch temp directory for the shard FASTA files.
fn fresh_shard_dir() -> io::Result<PathBuf> {
    static SEQ: Mutex<u64> = Mutex::new(0);
    let seq = {
        let mut s = SEQ.lock().expect("shard dir counter poisoned");
        *s += 1;
        *s
    };
    let dir = std::env::temp_dir().join(format!("aalign-shard-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalign_par::Hit;

    #[test]
    fn partition_is_contiguous_balanced_and_clamped() {
        for (len, n) in [(10, 3), (7, 4), (100, 1), (5, 8), (1, 1), (0, 4)] {
            let ranges = partition(len, n);
            assert!(!ranges.is_empty());
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous: {ranges:?}");
            }
            let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
            assert!(ranges.len() <= len.max(1), "clamped: {ranges:?}");
        }
    }

    fn empty_report() -> SearchReport {
        SearchReport {
            hits: Vec::new(),
            threads_used: 0,
            subjects: 0,
            total_residues: 0,
            metrics: SearchMetrics::default(),
            trace_events: Vec::new(),
            partial: false,
            errors: Vec::new(),
        }
    }

    fn shard_with_hits(index: usize, start: usize, end: usize, hits: Vec<Hit>) -> PerShard {
        let mut report = empty_report();
        report.hits = hits;
        report.subjects = end - start;
        report.threads_used = 1;
        PerShard {
            index,
            start,
            end,
            answer: Some(report),
            timed_out: false,
            retried: false,
        }
    }

    #[test]
    fn merge_rebases_ranks_and_breaks_ties_on_global_index() {
        let now = Instant::now();
        // Shard-local indices; scores chosen so a cross-shard tie
        // must break on the *rebased* global index.
        let a = shard_with_hits(
            0,
            0,
            3,
            vec![
                Hit {
                    db_index: 2,
                    len: 10,
                    score: 50,
                },
                Hit {
                    db_index: 0,
                    len: 10,
                    score: 80,
                },
            ],
        );
        let b = shard_with_hits(
            1,
            3,
            6,
            vec![
                Hit {
                    db_index: 0,
                    len: 10,
                    score: 80,
                },
                Hit {
                    db_index: 1,
                    len: 10,
                    score: 20,
                },
            ],
        );
        let merged = merge_reports(vec![a, b], 3, now, now);
        assert!(!merged.partial);
        assert_eq!(merged.metrics.shards.ok, 2);
        let got: Vec<(usize, i32)> = merged.hits.iter().map(|h| (h.db_index, h.score)).collect();
        // 80@0 beats 80@3 (tie → lower global index), then 50@2.
        assert_eq!(got, vec![(0, 80), (3, 80), (2, 50)]);
    }

    #[test]
    fn merge_degrades_failed_shards_with_exact_uncovered_range() {
        let now = Instant::now();
        let ok = shard_with_hits(
            0,
            0,
            5,
            vec![Hit {
                db_index: 1,
                len: 9,
                score: 33,
            }],
        );
        let lost = PerShard {
            index: 1,
            start: 5,
            end: 9,
            answer: None,
            timed_out: true,
            retried: true,
        };
        let merged = merge_reports(vec![ok, lost], 0, now, now);
        assert!(merged.partial);
        assert_eq!(merged.metrics.shards.ok, 1);
        assert_eq!(merged.metrics.shards.failed, 1);
        assert_eq!(merged.metrics.shards.timed_out, 1);
        assert_eq!(merged.metrics.shards.retried, 1);
        assert_eq!(
            merged.errors,
            vec![AlignError::ShardLost {
                shard: 1,
                start: 5,
                end: 9,
            }]
        );
        // Survivor hits intact and rebased.
        assert_eq!(
            merged.hits,
            vec![Hit {
                db_index: 1,
                len: 9,
                score: 33
            }]
        );
        // A failed shard voids the merged certificate.
        assert_eq!(merged.metrics.certified_width, 0);
    }

    #[test]
    fn merge_rebases_worker_panic_indices() {
        let now = Instant::now();
        let mut report = empty_report();
        report.errors = vec![AlignError::WorkerPanicked {
            db_index: 2,
            payload: "boom".into(),
        }];
        let shard = PerShard {
            index: 1,
            start: 10,
            end: 20,
            answer: Some(report),
            timed_out: false,
            retried: false,
        };
        let merged = merge_reports(vec![shard], 0, now, now);
        assert_eq!(
            merged.errors,
            vec![AlignError::WorkerPanicked {
                db_index: 12,
                payload: "boom".into(),
            }]
        );
    }

    #[test]
    fn merge_rebases_lost_worker_ids_like_per_worker_ids() {
        let now = Instant::now();
        let shard = |index: usize, ids: &[usize], errors: Vec<AlignError>| {
            let mut report = empty_report();
            report.threads_used = 2;
            report.errors = errors;
            for &id in ids {
                let mut w = aalign_par::WorkerMetrics::default();
                w.worker_id = id;
                report.metrics.per_worker.push(w);
            }
            PerShard {
                index,
                start: index * 10,
                end: index * 10 + 10,
                answer: Some(report),
                timed_out: false,
                retried: false,
            }
        };
        let lost = |worker_id| AlignError::WorkerLost {
            worker_id,
            payload: "gone".into(),
        };
        let merged = merge_reports(
            vec![shard(0, &[0, 1], Vec::new()), shard(1, &[0], vec![lost(1)])],
            0,
            now,
            now,
        );
        let ids: Vec<usize> = merged
            .metrics
            .per_worker
            .iter()
            .map(|w| w.worker_id)
            .collect();
        // Shard 1's worker 1 is the merged report's worker 3, never
        // shard 0's live worker 1.
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(merged.errors, vec![lost(3)]);
    }

    #[test]
    fn merging_two_engine_halves_equals_one_engine_sweep() {
        use aalign_bio::matrices::BLOSUM62;
        use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
        use aalign_core::{AlignConfig, Aligner, GapModel};
        use aalign_par::{SearchEngine, SearchOptions};

        let q = named_query(&mut seeded_rng(2900), 60);
        let db = swissprot_like_db(2901, 150);
        let (n, k) = (db.len(), 70);
        let halves = [
            SeqDatabase::new(db.sequences()[..k].to_vec()),
            SeqDatabase::new(db.sequences()[k..].to_vec()),
        ];
        let a = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
        let engine = SearchEngine::new(2);
        for top_n in [0usize, 7] {
            let opts = SearchOptions::new().top_n(top_n);
            let whole = engine.search(&a, &q, &db, &opts).unwrap();
            let shards = [(0, k), (k, n)]
                .into_iter()
                .zip(&halves)
                .enumerate()
                .map(|(index, ((start, end), half))| PerShard {
                    index,
                    start,
                    end,
                    answer: Some(engine.search(&a, &q, half, &opts).unwrap()),
                    timed_out: false,
                    retried: false,
                })
                .collect();
            let now = Instant::now();
            let merged = merge_reports(shards, top_n, now, now);
            assert!(!merged.partial, "top_n={top_n}");
            assert_eq!(merged.hits, whole.hits, "top_n={top_n}");
            assert_eq!(merged.subjects, whole.subjects);
            assert_eq!(merged.total_residues, whole.total_residues);
            let m = &merged.metrics;
            assert_eq!(m.cells, whole.metrics.cells);
            let kernel = &m.kernel_stats;
            assert_eq!(
                kernel.iterate_columns + kernel.scan_columns + kernel.inter_columns,
                merged.total_residues
            );
            assert_eq!(m.latency.count(), merged.subjects as u64);
            assert_eq!(m.worker_load.sum(), merged.total_residues as u64);
            let ids: Vec<usize> = m.per_worker.iter().map(|w| w.worker_id).collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "worker ids unique and ascending: {ids:?}"
            );
        }
    }

    #[test]
    fn search_params_carry_the_idempotent_request_id() {
        let q = ShardQuery::new("MKVLA").top_n(5).query_id("q-test");
        let params = q.to_wire(42, Duration::from_millis(750));
        let doc = params.render();
        for needle in [
            "\"query\":\"MKVLA\"",
            "\"query_id\":\"q-test\"",
            "\"id\":\"q42\"",
            "\"top_n\":5",
            "\"deadline_ms\":750",
            "\"no_batch\":true",
        ] {
            assert!(doc.contains(needle), "{needle} missing from {doc}");
        }
    }
}
