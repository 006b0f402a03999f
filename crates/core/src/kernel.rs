//! Strategy/backend/width dispatch and the public [`Aligner`] API.
//!
//! This is AAlign's "re-link against the platform's vector modules"
//! step done at runtime: [`Aligner::prepare`] builds the query's width
//! ladder, one rung per element width on the engine
//! [`aalign_vec::dispatch`]'s table resolves for it (AVX-512 → AVX2 →
//! SSE4.1 → emulated), and a strategy (sequential / striped-iterate /
//! striped-scan / hybrid) runs one striped attempt per rung through
//! [`with_engine`]. Every width decision walks up that ladder, wider on
//! saturation (the SWPS3 escape hatch): the `Auto` plan per subject,
//! the byte lanes first of [`Aligner::align_batch_prepared`] (the
//! lane-per-subject kernel of [`crate::inter`], run where the rule
//! written on that method says it wins) and the overflow rescue
//! ([`Aligner::align_wider`]).

use aalign_bio::{Sequence, StripedProfile, SubstMatrix};
use aalign_obs::{CollectorSink, NullSink, TraceSink};
use aalign_vec::detect::{Isa, IsaSupport};
use aalign_vec::{
    resolve, with_engine, Backend, DispatchElem, EngineFn, ScoreElem, SimdEngine, WIDTHS,
};

use std::sync::Arc;

use crate::certify::{config_fingerprint, CertificateStore};
use crate::config::{AlignConfig, AlignKind, TableII};
use crate::inter::{lane_columns, InterBatches, InterWorkspace, LaneProfile};
use crate::scalar::scalar_column_align;
use crate::striped::{
    hybrid_align_sink, iterate_align_sink, scan_align_sink, HybridPolicy, HybridReport, Workspace,
};

/// Vectorization strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Optimized sequential kernel (the Fig. 9 baseline).
    Sequential,
    /// Paper Alg. 2.
    StripedIterate,
    /// Paper Alg. 3.
    StripedScan,
    /// Paper Sec. V-B runtime switcher (the default, as in the paper).
    #[default]
    Hybrid,
}

impl Strategy {
    /// Short name used in reports.
    pub fn short(self) -> &'static str {
        match self {
            Strategy::Sequential => "seq",
            Strategy::StripedIterate => "iterate",
            Strategy::StripedScan => "scan",
            Strategy::Hybrid => "hybrid",
        }
    }
}

/// Score element width selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WidthPolicy {
    /// Widen per subject — the standard production configuration: i8
    /// where an installed certificate proves it, i16 where the score
    /// bound allows, i32 after a saturated run. A local search's lane
    /// batches start at i8 regardless ([`Aligner::align_batch_prepared`]).
    #[default]
    Auto,
    /// Force 8-bit lanes (no fallback; output may report saturation,
    /// which [`Aligner::align_wider`] can rescue).
    Fixed8,
    /// Force 16-bit lanes.
    Fixed16,
    /// Force 32-bit lanes (the paper's Fig. 9/10 configuration).
    Fixed32,
}

/// Errors surfaced by [`Aligner`] and the search drivers.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard
/// arm, which lets the engine grow failure modes (cancellation was
/// the first addition) without breaking callers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AlignError {
    /// The query has no residues (profiles require ≥ 1).
    EmptyQuery,
    /// Query or subject alphabet differs from the matrix's.
    AlphabetMismatch {
        /// Offending sequence id.
        id: String,
    },
    /// The operation was aborted via a cancellation token before it
    /// completed; partial results are discarded.
    Cancelled,
    /// The search's deadline elapsed before the sweep finished; the
    /// report carries the verified results of the completed subjects
    /// and is marked partial.
    DeadlineExceeded,
    /// A job panicked while scoring one subject. The panic was caught
    /// at the slot boundary: the sweep continued, every other
    /// subject's result stays valid, and this error rides on the
    /// report rather than failing the query.
    WorkerPanicked {
        /// Database index of the subject whose scoring panicked.
        db_index: usize,
        /// Stringified panic payload.
        payload: String,
    },
    /// A pool worker thread died mid-query (its sweep output is
    /// lost). The engine quarantines and respawns the worker before
    /// the next query; the surviving workers' results stay valid.
    WorkerLost {
        /// Pool-local id of the dead worker.
        worker_id: usize,
        /// Stringified panic payload, when one was recovered.
        payload: String,
    },
    /// A shard-supervisor child process could not produce a result
    /// for this query (crashed and exhausted its retry, timed out,
    /// or was circuit-broken). The merged report stays valid for the
    /// surviving shards; this error names the exact database range
    /// `[start, end)` the answer does not cover.
    ShardLost {
        /// Supervisor-local shard index.
        shard: usize,
        /// First database index of the uncovered range (inclusive).
        start: usize,
        /// Past-the-end database index of the uncovered range.
        end: usize,
    },
}

impl core::fmt::Display for AlignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::EmptyQuery => write!(f, "query sequence is empty"),
            Self::AlphabetMismatch { id } => {
                write!(
                    f,
                    "sequence {id:?} uses a different alphabet than the matrix"
                )
            }
            Self::Cancelled => write!(f, "operation cancelled by caller"),
            Self::DeadlineExceeded => write!(f, "search deadline exceeded; report is partial"),
            Self::WorkerPanicked { db_index, payload } => {
                write!(f, "worker panicked scoring subject {db_index}: {payload}")
            }
            Self::WorkerLost { worker_id, payload } => {
                write!(f, "search worker {worker_id} died mid-query: {payload}")
            }
            Self::ShardLost { shard, start, end } => {
                write!(
                    f,
                    "shard {shard} lost; database range [{start}, {end}) is uncovered"
                )
            }
        }
    }
}

impl std::error::Error for AlignError {}

/// Per-run statistics (zeroed where not applicable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Lazy-loop segment re-computations (iterate columns).
    pub lazy_iters: u64,
    /// Lazy-loop whole-column sweeps.
    pub lazy_sweeps: u64,
    /// Columns processed by iterate.
    pub iterate_columns: usize,
    /// Columns processed by scan.
    pub scan_columns: usize,
    /// Hybrid: iterate→scan switches.
    pub switches_to_scan: usize,
    /// Hybrid: probes that stayed in iterate.
    pub probes_stayed: usize,
    /// Subject residues scored lane-per-subject
    /// ([`Aligner::align_batch_prepared`]) instead of by a striped
    /// kernel: with `iterate_columns` and `scan_columns` it accounts
    /// for every residue of a sweep.
    pub inter_columns: usize,
    /// Lane-columns those batches computed — longest subject × lanes,
    /// per vector. `inter_columns / inter_lane_columns` is the fill;
    /// the rest is padding on subjects that had already ended.
    pub inter_lane_columns: usize,
    /// Lanes flagged saturated at their batch's first width — whether
    /// they then walked on to a wider batch or went to the
    /// per-subject path.
    pub inter_saturated: usize,
}

impl RunStats {
    /// Field-wise accumulation — aggregate the per-alignment counters
    /// of a whole database sweep into one summary (the search
    /// engine's metrics layer does this per worker, then across
    /// workers).
    ///
    /// Saturating, never wrapping: the counters are diagnostics, and
    /// a pinned ceiling is both honest ("at least this many") and
    /// what keeps merge associative and commutative, so per-worker
    /// stats can be folded in any order (property-tested in
    /// `tests/stats_properties.rs`).
    pub fn merge(&mut self, other: &RunStats) {
        self.lazy_iters = self.lazy_iters.saturating_add(other.lazy_iters);
        self.lazy_sweeps = self.lazy_sweeps.saturating_add(other.lazy_sweeps);
        self.iterate_columns = self.iterate_columns.saturating_add(other.iterate_columns);
        self.scan_columns = self.scan_columns.saturating_add(other.scan_columns);
        self.switches_to_scan = self.switches_to_scan.saturating_add(other.switches_to_scan);
        self.probes_stayed = self.probes_stayed.saturating_add(other.probes_stayed);
        self.inter_columns = self.inter_columns.saturating_add(other.inter_columns);
        self.inter_lane_columns = self
            .inter_lane_columns
            .saturating_add(other.inter_lane_columns);
        self.inter_saturated = self.inter_saturated.saturating_add(other.inter_saturated);
    }
}

/// Result of an alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignOutput {
    /// The alignment score.
    pub score: i32,
    /// Strategy that produced it.
    pub strategy: Strategy,
    /// Backend description, e.g. `"avx2/i16x16"`.
    pub backend: String,
    /// Element width the final (non-saturated) run used.
    pub elem_bits: u32,
    /// Number of width retries taken (0 = first width sufficed).
    pub width_retries: u32,
    /// True if even the widest attempt saturated (score unreliable).
    pub saturated: bool,
    /// Kernel statistics.
    pub stats: RunStats,
}

/// One striped run of one subject at one element width: the
/// computation [`with_engine`] instantiates per engine. Everything
/// from [`call`](EngineFn::call) down to the engine methods is
/// `#[inline(always)]`, so each (engine × `LOCAL` × `AFFINE` ×
/// strategy) is one fully inlined function compiled with the engine's
/// target features — the artifact the paper's code generator emits.
///
/// The sink is a type parameter: a disabled sink runs the
/// [`NullSink`] instantiation (bit-for-bit the pre-observability
/// kernel — no per-column calls, no branches), which is what the
/// `obs_overhead` bench holds to <1% overhead.
struct Attempt<'a, T: ScoreElem, S: TraceSink> {
    prof: &'a StripedProfile<T>,
    subject: &'a [u8],
    t2: TableII,
    strategy: Strategy,
    policy: HybridPolicy,
    ws: &'a mut Workspace<T>,
    sink: &'a mut S,
}

impl<T: ScoreElem, S: TraceSink> EngineFn<T> for Attempt<'_, T, S> {
    type Out = HybridReport;

    /// Turn the `LOCAL`/`AFFINE` runtime flags into const parameters.
    #[inline(always)]
    fn call<E: SimdEngine<Elem = T>>(self, eng: E) -> HybridReport {
        match (self.t2.local, self.t2.affine) {
            (true, true) => self.run::<E, true, true>(eng),
            (true, false) => self.run::<E, true, false>(eng),
            (false, true) => self.run::<E, false, true>(eng),
            (false, false) => self.run::<E, false, false>(eng),
        }
    }
}

impl<T: ScoreElem, S: TraceSink> Attempt<'_, T, S> {
    #[inline(always)]
    fn run<E: SimdEngine<Elem = T>, const L: bool, const A: bool>(self, eng: E) -> HybridReport {
        let Attempt {
            prof,
            subject,
            t2,
            strategy,
            policy,
            ws,
            sink,
        } = self;
        let only = |result| HybridReport {
            result,
            switches_to_scan: 0,
            probes_stayed: 0,
        };
        match strategy {
            Strategy::StripedIterate => only(iterate_align_sink::<E, L, A, S>(
                eng, prof, subject, t2, ws, sink,
            )),
            Strategy::StripedScan => only(scan_align_sink::<E, L, A, S>(
                eng, prof, subject, t2, ws, sink,
            )),
            Strategy::Hybrid => {
                hybrid_align_sink::<E, L, A, S>(eng, prof, subject, t2, policy, ws, sink)
            }
            Strategy::Sequential => unreachable!("sequential handled before dispatch"),
        }
    }
}

/// Scratch buffers reusable across alignments (one per thread).
#[derive(Debug, Default)]
pub struct AlignScratch {
    w8: Work<i8>,
    w16: Work<i16>,
    w32: Work<i32>,
}

/// One element type's buffers: the striped kernels' columns, and the
/// lane-per-subject kernel's columns and transposition tile.
#[derive(Debug, Default)]
struct Work<T> {
    striped: Workspace<T>,
    lanes: InterWorkspace<T>,
}

impl<T: ScoreElem> Work<T> {
    fn reserved_bytes(&self) -> usize {
        (self.striped.reserved_elems() + self.lanes.reserved_elems()) * core::mem::size_of::<T>()
    }
}

impl AlignScratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently reserved across all width-specific workspaces.
    ///
    /// A reuse hook for pooled callers: after a warm-up alignment the
    /// value stops growing (buffers are retained, not reallocated),
    /// so a persistent worker can report — and a test can assert —
    /// that back-to-back queries pay zero allocation setup.
    pub fn reserved_bytes(&self) -> usize {
        self.w8.reserved_bytes() + self.w16.reserved_bytes() + self.w32.reserved_bytes()
    }
}

/// One rung of a [`PreparedQuery`]'s width ladder: an engine of the
/// table and the query's tables for it.
#[derive(Debug)]
struct Rung {
    backend: Backend,
    /// Subjects per lane batch on this rung, 0 without lane rows.
    batch_lanes: usize,
    tables: Typed,
}

/// A rung's tables at its element type.
#[derive(Debug)]
enum Typed {
    I8(Tables<i8>),
    I16(Tables<i16>),
    I32(Tables<i32>),
}

/// The profile striped for the engine's lane count, where the
/// per-subject path or a rescue runs, and the lane kernel's rows, where
/// a batch can.
#[derive(Debug)]
struct Tables<T> {
    prof: Option<StripedProfile<T>>,
    lanes: Option<LaneProfile<T>>,
}

/// A computation on one rung at its element type, with the scratch's
/// buffers of that type: what [`Rung::run`] calls.
trait OnRung {
    type Out;

    fn on<T: DispatchElem>(self, backend: Backend, t: &Tables<T>, work: &mut Work<T>) -> Self::Out;
}

impl Rung {
    /// The query's rung on `backend`, a row for `T`: the striped profile
    /// if `striped`, the lane rows if `lanes` and the engine's lookup is
    /// native (the portable gather loses to the striped kernels).
    fn build<T: DispatchElem>(
        backend: Backend,
        query: &Sequence,
        matrix: &SubstMatrix,
        striped: bool,
        lanes: bool,
        typed: fn(Tables<T>) -> Typed,
    ) -> Self {
        let lanes = (lanes && with_engine::<T, _>(backend, NativeLookup))
            .then(|| LaneProfile::build(query, matrix));
        Self {
            backend,
            batch_lanes: lanes.as_ref().map_or(0, |_| backend.lanes()),
            tables: typed(Tables {
                prof: striped.then(|| StripedProfile::build(query, matrix, backend.lanes())),
                lanes,
            }),
        }
    }

    /// Run `f` on this rung — the one place a rung's element type, and
    /// with it the scratch's workspaces, is chosen.
    fn run<F: OnRung>(&self, scratch: &mut AlignScratch, f: F) -> F::Out {
        match &self.tables {
            Typed::I8(t) => f.on(self.backend, t, &mut scratch.w8),
            Typed::I16(t) => f.on(self.backend, t, &mut scratch.w16),
            Typed::I32(t) => f.on(self.backend, t, &mut scratch.w32),
        }
    }
}

/// One subject on a rung's striped profile, or `None` where the rung
/// has none or `Auto` rules the width out. With `buf` the run's column
/// events replace whatever an earlier run left there.
struct OneSubject<'a> {
    aligner: &'a Aligner,
    query_len: usize,
    subject: &'a Sequence,
    /// Under a pinned width's rules: a pinned policy, or a rescue.
    pinned: bool,
    buf: Option<&'a mut CollectorSink>,
}

impl OnRung for OneSubject<'_> {
    type Out = Option<HybridReport>;

    fn on<T: DispatchElem>(self, backend: Backend, t: &Tables<T>, work: &mut Work<T>) -> Self::Out {
        let (aligner, subject, ws) = (self.aligner, self.subject, &mut work.striped);
        let prof = t.prof.as_ref()?;
        let outside = !aligner.narrow_ok(T::BITS, self.query_len, subject.len(), self.pinned);
        if outside && !self.pinned {
            return None;
        }
        let mut outcome = match self.buf {
            Some(buf) => {
                buf.events.clear();
                aligner.run_on(backend, prof, subject, ws, buf)
            }
            None => aligner.run_on(backend, prof, subject, ws, &mut NullSink),
        };
        // A global or semi-global run checks its final cell alone, and a
        // clamp on the way can leave a wrong score looking sound.
        outcome.result.saturated |= outside;
        Some(outcome)
    }
}

/// How one rung answers a batch.
enum BatchAt {
    /// Not this rung (a byte pass the fill rule declines, or a width
    /// `Auto` rules out for the batch's longest subject): ask the next.
    Wider,
    /// This is the width the per-subject path would run, and lanes
    /// lose or cannot run at it.
    Declined,
    Scored(BatchOutput),
    /// Scored on the lane-only byte rung: its flagged lanes walk on.
    Bytes(BatchOutput),
}

/// A batch of subjects on one rung of the lane walk.
struct Batch<'a> {
    aligner: &'a Aligner,
    query_len: usize,
    subjects: &'a [&'a Sequence],
}

impl OnRung for Batch<'_> {
    type Out = BatchAt;

    fn on<T: DispatchElem>(self, backend: Backend, t: &Tables<T>, work: &mut Work<T>) -> BatchAt {
        let (aligner, subjects) = (self.aligner, self.subjects);
        let mut scored = || aligner.lanes(backend, t.lanes.as_ref()?, subjects, &mut work.lanes);
        if t.prof.is_none() {
            return scored().map_or(BatchAt::Wider, BatchAt::Bytes);
        }
        let longest = subjects.iter().map(|s| s.len()).max().unwrap_or(0);
        let pinned = aligner.width != WidthPolicy::Auto;
        if aligner.narrow_ok(T::BITS, self.query_len, longest, pinned) {
            scored().map_or(BatchAt::Declined, BatchAt::Scored)
        } else if pinned {
            BatchAt::Declined
        } else {
            BatchAt::Wider
        }
    }
}

/// Does the engine of a table row look scores up with shuffles?
struct NativeLookup;

impl<T: ScoreElem> EngineFn<T> for NativeLookup {
    type Out = bool;

    #[inline(always)]
    fn call<E: SimdEngine<Elem = T>>(self, _eng: E) -> bool {
        E::NATIVE_LOOKUP
    }
}

/// Longest query whose batches [`Aligner::align_batch_prepared`] runs
/// at 16 or 32 bits; byte lanes have no cap. At i16 the lanes' advantage
/// over the striped kernels shrinks as stripes fill: measured on
/// avx512/i16x32 (`calibrate --lanes`; EXPERIMENTS.md, "Short queries:
/// lanes per subject") it is ×4.0 at 30 residues, ×2.1 at 60, ×1.8 at
/// 250, ×1.3 at 500 — and ×1.07 at 1000, inside that host's run-to-run
/// drift. An i8 vector costs about half an i16 one: avx2/i8x32 beats
/// the striped hybrid ×2.3 at 1 000 residues and ×1.9–2.0 at 2 000 and
/// 4 000 (EXPERIMENTS.md, "Byte lanes first").
pub const LANE_QUERY_CAP: usize = 500;

/// Least share of a batch's lane-columns that must be subject residues
/// (Σ len / (lanes × the columns of the refill schedule), in percent)
/// for the lanes to be used: a lane with no subject left is paid for to
/// the batch's end, and one subject longer than all the others together
/// share out sets that end alone. Measured before refill, same tables,
/// one 32-lane vector against the per-subject kernels:
/// at i8 (avx2/i8x32) lanes break even near 10 % and win ×2.1 at 29 %;
/// at i16 (avx512/i16x32) they break even at 31–36 % and are ×0.95 at
/// 29 %. One constant serves both widths, so it sits where byte lanes
/// already win ×2 and an i16 batch loses at most a few percent.
pub const LANE_MIN_FILL_PERCENT: usize = 30;

/// What [`Aligner::align_batch_prepared`] returns when it takes a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutput {
    /// One score per subject, in input order.
    pub scores: Vec<i32>,
    /// True where the lane saturated at every width the batch walked:
    /// that subject's score is not to be used,
    /// [`Aligner::align_prepared`] has to score it (and report the
    /// saturation the way it always has).
    pub saturated: Vec<bool>,
    /// Element width of the batch's first pass, in bits.
    pub bits: u32,
    /// `inter_columns`, `inter_lane_columns` (every pass) and
    /// `inter_saturated` (the first pass) of the batch.
    pub stats: RunStats,
}

/// A query prepared for repeated alignment: its width ladder, built
/// once and shareable across threads (paper Sec. V-E).
#[derive(Debug)]
pub struct PreparedQuery {
    query_id: String,
    query_len: usize,
    /// The rungs, narrowest first; every width decision is a position
    /// on this list. Where a local `Auto` plan starts wider, a lane-only
    /// i8 rung comes first: the byte lanes a batch tries first. Then the
    /// policy's striped rungs, with lane rows where the batch walk can
    /// reach them; above a pinned width they are rescue-only (no lane
    /// rows), run by [`Aligner::align_wider`] alone.
    rungs: Vec<Rung>,
    /// The query itself: [`Strategy::Sequential`]'s prepared form (it
    /// builds no profile and no rung), `None` for every other strategy.
    scalar: Option<Sequence>,
}

impl PreparedQuery {
    /// Query id.
    pub fn query_id(&self) -> &str {
        &self.query_id
    }

    /// Query length in residues.
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// Most subjects [`Aligner::align_batch_prepared`] scores side by
    /// side for this query — the widest vector of any rung its walk can
    /// reach, what a sweep rounds its claims to — or 0 when it
    /// declines every batch (a pinned strategy, no engine with a native
    /// lookup at a reachable width, or a query above
    /// [`LANE_QUERY_CAP`] with no byte lanes to run).
    pub fn batch_lanes(&self) -> usize {
        self.rungs.iter().map(|r| r.batch_lanes).max().unwrap_or(0)
    }
}

/// The high-level pairwise aligner.
///
/// ```
/// use aalign_core::{AlignConfig, Aligner, GapModel, Strategy};
/// use aalign_bio::{matrices::BLOSUM62, Sequence};
///
/// let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
/// let aligner = Aligner::new(cfg).with_strategy(Strategy::StripedScan);
/// let q = Sequence::protein("q", b"HEAGAWGHEE").unwrap();
/// let s = Sequence::protein("s", b"PAWHEAE").unwrap();
/// let out = aligner.align(&q, &s).unwrap();
/// assert!(out.score > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Aligner {
    cfg: AlignConfig,
    strategy: Strategy,
    width: WidthPolicy,
    isa: Option<Isa>,
    hybrid: Option<HybridPolicy>,
    certs: Option<Arc<CertificateStore>>,
}

impl Aligner {
    /// Aligner with default strategy (hybrid) and width policy (auto).
    pub fn new(cfg: AlignConfig) -> Self {
        Self {
            cfg,
            strategy: Strategy::default(),
            width: WidthPolicy::default(),
            isa: None,
            hybrid: None,
            certs: None,
        }
    }

    /// Select the vectorization strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Select the element-width policy.
    pub fn with_width(mut self, width: WidthPolicy) -> Self {
        self.width = width;
        self
    }

    /// Pin an ISA (e.g. [`Isa::Avx2`] for "CPU", [`Isa::Avx512`] for
    /// the paper's "MIC" shape). Unavailable ISAs fall back to the
    /// emulated engine with the same register geometry.
    pub fn with_isa(mut self, isa: Isa) -> Self {
        self.isa = Some(isa);
        self
    }

    /// Override the hybrid switching policy.
    pub fn with_hybrid_policy(mut self, policy: HybridPolicy) -> Self {
        self.hybrid = Some(policy);
        self
    }

    /// Install externally produced width certificates
    /// ([`mod@crate::certify`]). Width selection then prefers a covering
    /// granted certificate over the per-call closed-form
    /// recomputation, and the `Auto` ladder starts at i8 when the
    /// narrow lane is proven rescue-free.
    ///
    /// # Panics
    /// Panics when the store's fingerprint does not match this
    /// aligner's configuration — a mismatched certificate is an
    /// install-time programming error, never a runtime condition.
    pub fn with_certificates(mut self, store: CertificateStore) -> Self {
        assert!(
            store.matches(config_fingerprint(&self.cfg)),
            "certificate fingerprint does not match the aligner's configuration"
        );
        self.certs = Some(Arc::new(store));
        self
    }

    /// Run the certificate prover over this aligner's own
    /// configuration for the given length bounds and install the
    /// result — the one-stop form of [`with_certificates`]
    /// (fingerprints match by construction).
    ///
    /// [`with_certificates`]: Self::with_certificates
    pub fn with_certified_bounds(self, max_query: usize, max_subject: usize) -> Self {
        let store = CertificateStore::compute(&self.cfg, max_query, max_subject);
        self.with_certificates(store)
    }

    /// The installed certificate store, when any.
    pub fn certificates(&self) -> Option<&CertificateStore> {
        self.certs.as_deref()
    }

    /// Narrowest lane width proven rescue-free for an `m`-long query
    /// against an `n`-long subject, or 0 when no installed
    /// certificate covers the pair. This is what the search engine
    /// stamps into `SearchMetrics::certified_width`.
    pub fn certified_width(&self, m: usize, n: usize) -> u32 {
        self.certs
            .as_deref()
            .map_or(0, |store| store.narrowest_granted(m, n))
    }

    /// The configuration this aligner runs.
    pub fn config(&self) -> &AlignConfig {
        &self.cfg
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    fn check_seq(&self, s: &Sequence) -> Result<(), AlignError> {
        self.cfg.check_seq(s)
    }

    /// Can a `bits`-wide element provably hold every intermediate
    /// value of aligning an `m`-long query to an `n`-long subject?
    /// A `pinned` (or rescuing) local run always can: its kernel watches
    /// the running maximum. Else `Auto` passes a failing width over, and
    /// a pinned global or semi-global run there is reported saturated.
    ///
    /// A covering granted certificate ([`with_certificates`]) answers
    /// first: the prover's cell-level verdict is checked once, ahead
    /// of time, and is never less precise than the closed forms.
    /// Otherwise this delegates to the
    /// [`ScoreBounds`](crate::config::ScoreBounds) interval analysis —
    /// the same pass `aalign-analyzer range` reports offline. Local
    /// scores are bounded by `min(m,n)·max_match` regardless of total
    /// lengths; global magnitudes grow with `m + n` (boundary gap
    /// ramps and all-mismatch paths). 32-bit lanes pass
    /// unconditionally here: they are the widest the kernels have, and
    /// their own ceiling is only exceeded by inputs `align()` could
    /// never buffer.
    ///
    /// [`with_certificates`]: Self::with_certificates
    fn narrow_ok(&self, bits: u32, m: usize, n: usize, pinned: bool) -> bool {
        if bits >= 32 || (pinned && self.cfg.kind == AlignKind::Local) {
            return true;
        }
        if let Some(store) = self.certs.as_deref() {
            if store.grants(bits, m, n) {
                return true;
            }
        }
        self.cfg.score_bounds(m, n).fits(bits)
    }

    /// The striped rungs of the query's ladder, narrowest first: for
    /// `Auto` the widths it may run (the narrow ones are additionally
    /// checked per subject), for a pinned width that width and every
    /// wider one, the rescue's.
    fn width_plan(&self, query_len: usize) -> Vec<u32> {
        let on_ladder = |bits: u32| match self.width {
            WidthPolicy::Fixed8 => true,
            WidthPolicy::Fixed16 => bits >= 16,
            WidthPolicy::Fixed32 => bits == 32,
            // i8 enters the ladder only with proof: a granted
            // certificate accepting this query length (subjects are
            // re-gated per call against the same store).
            WidthPolicy::Auto if bits == 8 => self
                .certs
                .as_deref()
                .is_some_and(|store| store.grants_for_query(8, query_len)),
            // Local scores are bounded by the *shorter* sequence, so
            // i16 stays useful for long queries against typical
            // database subjects — always build it and let the
            // per-subject check choose. Global magnitudes grow with
            // m+n; prune i16 when the query alone rules it out.
            WidthPolicy::Auto if bits == 16 => {
                self.cfg.kind == AlignKind::Local || self.narrow_ok(16, query_len, query_len, false)
            }
            WidthPolicy::Auto => true,
        };
        WIDTHS.into_iter().filter(|&bits| on_ladder(bits)).collect()
    }

    /// Build the query's width ladder for repeated alignment against
    /// many subjects. Share the result across threads; it is immutable.
    pub fn prepare(&self, query: &Sequence) -> Result<PreparedQuery, AlignError> {
        if query.is_empty() {
            return Err(AlignError::EmptyQuery);
        }
        self.check_seq(query)?;
        let mut pq = PreparedQuery {
            query_id: query.id().to_string(),
            query_len: query.len(),
            rungs: Vec::new(),
            scalar: None,
        };
        if self.strategy == Strategy::Sequential {
            pq.scalar = Some(query.clone());
            return Ok(pq);
        }
        let sup = IsaSupport::detect();
        let matrix = &self.cfg.matrix;
        let rung = |bits, striped, lanes| {
            let backend = resolve(sup, self.isa, bits);
            match bits {
                8 => Rung::build(backend, query, matrix, striped, lanes, Typed::I8),
                16 => Rung::build(backend, query, matrix, striped, lanes, Typed::I16),
                _ => Rung::build(backend, query, matrix, striped, lanes, Typed::I32),
            }
        };
        // The half of the lane-per-subject rule that is known here (see
        // `align_batch_prepared`): rows are built only on rungs its
        // walk can reach.
        let lanes = self.strategy == Strategy::Hybrid
            && matrix.alphabet().len() < aalign_vec::LOOKUP_ENTRIES;
        let auto = self.width == WidthPolicy::Auto;
        let local_auto = auto && self.cfg.kind == AlignKind::Local;
        let plan = self.width_plan(query.len());
        // Byte lanes first: a lane-only i8 rung below a local `Auto`
        // plan that starts wider.
        if lanes && local_auto && plan[0] != 8 {
            let bytes = rung(8, false, true);
            pq.rungs.extend((bytes.batch_lanes > 0).then_some(bytes));
        }
        for &bits in &plan {
            // A pinned width's lanes run at that width only.
            let walked = auto || bits == plan[0];
            let lanes_at =
                (bits == 8 || query.len() <= LANE_QUERY_CAP) && !(local_auto && bits == 32);
            pq.rungs.push(rung(bits, true, lanes && walked && lanes_at));
        }
        Ok(pq)
    }

    /// Score a batch of subjects — any number of them, longest first —
    /// one lane per subject at a time, a lane refilled when its subject
    /// ends ([`crate::inter`]), or decline
    /// (`Ok(None)`), in which case nothing was computed and
    /// [`align_prepared`](Self::align_prepared) is the way to score
    /// them. Scores are the ones `align_prepared` returns, bit for bit.
    ///
    /// The batch is taken when all of this holds, and each term is
    /// something the code observes, never a setting:
    ///
    /// * the strategy is the default [`Strategy::Hybrid`] — a pinned
    ///   strategy names a striped kernel and gets it;
    /// * the alphabet leaves a pad slot in a 32-entry row;
    /// * the width the batch runs at has an engine whose
    ///   [`lookup32`](SimdEngine::lookup32) is native, and — above 8
    ///   bits — the query is at most [`LANE_QUERY_CAP`] residues:
    ///   beyond the cap 16-bit stripes are full and as fast;
    /// * at least [`LANE_MIN_FILL_PERCENT`] of the lane-columns the
    ///   batch would compute, on its refill schedule, are subject
    ///   residues.
    ///
    /// The width is the one the per-subject path would run for the
    /// batch's *longest* subject — the first of the plan whose bound
    /// holds, a forced narrow width only for local alignments or inside
    /// the bound, since the lane kernel vouches for a global score by
    /// its final cell alone — except that a local `Auto` run whose plan
    /// does not start at 8 bits goes **first at i8**, bound or no bound:
    /// a local lane's saturation flag is sound at any width, and few
    /// subjects reach a byte's ceiling (SSW and SWIPE score that way).
    /// Lanes flagged there walk on together as one batch from the rung
    /// above (i16 first); what that batch declines or flags comes back
    /// flagged in [`BatchOutput::saturated`], for the per-subject path
    /// to score from its first width as it always has.
    ///
    /// It emits no column events: a traced sweep records each subject
    /// it keeps as an envelope whose `inter_columns` are its residues.
    pub fn align_batch_prepared(
        &self,
        pq: &PreparedQuery,
        subjects: &[&Sequence],
        scratch: &mut AlignScratch,
    ) -> Result<Option<BatchOutput>, AlignError> {
        for s in subjects {
            self.check_seq(s)?;
        }
        Ok(self.walk(pq, 0, subjects, scratch))
    }

    /// The batch's walk up the ladder from rung `from`: the first rung
    /// that does not pass the batch on scores it or declines it. The
    /// lanes a byte pass flags walk on together from the rung above it,
    /// and what that scores replaces them.
    fn walk(
        &self,
        pq: &PreparedQuery,
        from: usize,
        subjects: &[&Sequence],
        scratch: &mut AlignScratch,
    ) -> Option<BatchOutput> {
        for (at, rung) in pq.rungs.iter().enumerate().skip(from) {
            let batch = Batch {
                aligner: self,
                query_len: pq.query_len,
                subjects,
            };
            let mut out = match rung.run(scratch, batch) {
                BatchAt::Wider => continue,
                BatchAt::Declined => return None,
                BatchAt::Scored(out) => return Some(out),
                BatchAt::Bytes(out) => out,
            };
            let flagged: Vec<usize> = (0..subjects.len()).filter(|&l| out.saturated[l]).collect();
            let again: Vec<&Sequence> = flagged.iter().map(|&l| subjects[l]).collect();
            let wider = if again.is_empty() {
                None
            } else {
                self.walk(pq, at + 1, &again, scratch)
            };
            if let Some(wider) = wider {
                for (k, &l) in flagged.iter().enumerate() {
                    out.scores[l] = wider.scores[k];
                    out.saturated[l] = wider.saturated[k];
                }
                out.stats.inter_lane_columns += wider.stats.inter_lane_columns;
            }
            return Some(out);
        }
        None
    }

    /// The lane kernel on `backend` for `subjects`, or `None` when they
    /// fill less than [`LANE_MIN_FILL_PERCENT`] of its lane-columns.
    fn lanes<T: DispatchElem>(
        &self,
        backend: Backend,
        rows: &LaneProfile<T>,
        subjects: &[&Sequence],
        ws: &mut InterWorkspace<T>,
    ) -> Option<BatchOutput> {
        let residues: usize = subjects.iter().map(|s| s.len()).sum();
        let lane_columns = lane_columns(subjects, backend.lanes());
        if residues == 0 || residues * 100 < LANE_MIN_FILL_PERCENT * lane_columns {
            return None;
        }
        let out = with_engine(
            backend,
            InterBatches {
                t2: self.cfg.table2(),
                prof: rows,
                subjects,
                ws,
            },
        );
        let flagged = out.saturated.iter().filter(|&&s| s).count();
        Some(BatchOutput {
            scores: out.scores,
            saturated: out.saturated,
            bits: T::BITS,
            stats: RunStats {
                inter_columns: residues,
                inter_lane_columns: lane_columns,
                inter_saturated: flagged,
                ..RunStats::default()
            },
        })
    }

    /// Align a prepared query against one subject, reusing `scratch`.
    pub fn align_prepared(
        &self,
        pq: &PreparedQuery,
        subject: &Sequence,
        scratch: &mut AlignScratch,
    ) -> Result<AlignOutput, AlignError> {
        self.align_prepared_sink(pq, subject, scratch, &mut NullSink)
    }

    /// [`align_prepared`](Self::align_prepared) with a trace sink
    /// receiving the per-column [`aalign_obs::HybridEvent`]s.
    ///
    /// Only the **final, kept** width attempt's events are forwarded:
    /// when a narrow run saturates and the aligner retries wider, the
    /// saturated attempt's events are discarded, so the emitted column
    /// stream reconciles exactly with the returned [`RunStats`]
    /// (`iterate_columns` / `scan_columns` describe the kept run).
    ///
    /// A disabled sink (`sink.enabled() == false`, e.g. a
    /// [`NullSink`]) routes to the null-monomorphized kernels after a
    /// single check — that path is what `align_prepared` itself uses
    /// and what the `obs_overhead` bench holds to <1% overhead.
    pub fn align_prepared_sink(
        &self,
        pq: &PreparedQuery,
        subject: &Sequence,
        scratch: &mut AlignScratch,
        sink: &mut dyn TraceSink,
    ) -> Result<AlignOutput, AlignError> {
        self.check_seq(subject)?;
        if let Some(query) = &pq.scalar {
            return Ok(AlignOutput {
                score: scalar_column_align(&self.cfg, query, subject).score,
                strategy: Strategy::Sequential,
                backend: "scalar".to_string(),
                elem_bits: 32,
                width_retries: 0,
                saturated: false,
                stats: RunStats::default(),
            });
        }
        let pinned = self.width != WidthPolicy::Auto;
        let out = self.climb(pq, pq.rungs.iter(), pinned, subject, scratch, sink);
        Ok(out.expect("every ladder has a striped rung"))
    }

    /// One step of an overflow rescue: score `subject` on the first rung
    /// of `pq`'s ladder wider than `bits` (`None` when there is none),
    /// under a pinned width's rules whatever the policy — a local run
    /// needs no bound, a global one outside its bound comes back flagged
    /// saturated, for the caller to step again from the output's
    /// `elem_bits`. Column events go to `sink` as in
    /// [`align_prepared_sink`](Self::align_prepared_sink).
    pub fn align_wider(
        &self,
        pq: &PreparedQuery,
        subject: &Sequence,
        bits: u32,
        scratch: &mut AlignScratch,
        sink: &mut dyn TraceSink,
    ) -> Result<Option<AlignOutput>, AlignError> {
        self.check_seq(subject)?;
        let wider = pq.rungs.iter().filter(|rung| rung.backend.bits() > bits);
        Ok(self.climb(pq, wider, true, subject, scratch, sink))
    }

    /// Run `subject` up `rungs` until a run holds its score — or, when
    /// `pinned`, once; `None` when no rung ran. Only the kept run's
    /// column events reach `sink` (each run clears the buffer).
    fn climb<'r>(
        &self,
        pq: &PreparedQuery,
        rungs: impl Iterator<Item = &'r Rung>,
        pinned: bool,
        subject: &Sequence,
        scratch: &mut AlignScratch,
        sink: &mut dyn TraceSink,
    ) -> Option<AlignOutput> {
        let tracing = sink.enabled();
        let mut buf = CollectorSink::new();
        let mut runs = 0u32;
        let mut last = None;
        for rung in rungs {
            let run = OneSubject {
                aligner: self,
                query_len: pq.query_len,
                subject,
                pinned,
                buf: tracing.then_some(&mut buf),
            };
            let Some(outcome) = rung.run(scratch, run) else {
                continue;
            };
            runs += 1;
            let saturated = outcome.result.saturated;
            last = Some((outcome, rung.backend));
            if !saturated || pinned {
                break;
            }
        }
        if tracing {
            for ev in buf.take() {
                sink.record(ev);
            }
        }
        let (outcome, backend) = last?;
        Some(AlignOutput {
            score: outcome.result.score,
            strategy: self.strategy,
            backend: backend.name(),
            elem_bits: backend.bits(),
            width_retries: runs - 1,
            saturated: outcome.result.saturated,
            stats: RunStats {
                lazy_iters: outcome.result.lazy_iters,
                lazy_sweeps: outcome.result.lazy_sweeps,
                iterate_columns: outcome.result.iterate_columns,
                scan_columns: outcome.result.scan_columns,
                switches_to_scan: outcome.switches_to_scan,
                probes_stayed: outcome.probes_stayed,
                ..RunStats::default()
            },
        })
    }

    /// One [`Attempt`] on `backend`, its column events going to `sink`.
    fn run_on<T: DispatchElem, S: TraceSink>(
        &self,
        backend: Backend,
        prof: &StripedProfile<T>,
        subject: &Sequence,
        ws: &mut Workspace<T>,
        sink: &mut S,
    ) -> HybridReport {
        let attempt = Attempt {
            prof,
            subject: subject.indices(),
            t2: self.cfg.table2(),
            strategy: self.strategy,
            policy: self
                .hybrid
                .unwrap_or_else(|| HybridPolicy::for_lanes(backend.lanes())),
            ws,
            sink,
        };
        with_engine(backend, attempt)
    }

    /// Align one query against many subjects, preparing the query
    /// once and reusing scratch buffers — the right call shape for
    /// anything beyond a handful of subjects (see also
    /// [`aalign-par`'s `SearchEngine::search`](https://docs.rs/aalign-par)
    /// for the multithreaded version).
    pub fn align_many(
        &self,
        query: &Sequence,
        subjects: &[Sequence],
    ) -> Result<Vec<AlignOutput>, AlignError> {
        let pq = self.prepare(query)?;
        let mut scratch = AlignScratch::new();
        subjects
            .iter()
            .map(|s| self.align_prepared(&pq, s, &mut scratch))
            .collect()
    }

    /// One-shot alignment (prepares the query internally).
    pub fn align(&self, query: &Sequence, subject: &Sequence) -> Result<AlignOutput, AlignError> {
        if query.is_empty() {
            return Err(AlignError::EmptyQuery);
        }
        self.check_seq(query)?;
        self.check_seq(subject)?;
        let pq = self.prepare(query)?;
        let mut scratch = AlignScratch::new();
        self.align_prepared(&pq, subject, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlignKind, GapModel};
    use crate::paradigm::paradigm_dp;
    use aalign_bio::matrices::BLOSUM62;
    use aalign_bio::synth::{named_query, nine_similarity_specs, seeded_rng};

    fn cfgs() -> Vec<AlignConfig> {
        let mut v = Vec::new();
        for kind in [AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal] {
            for gap in [GapModel::affine(-10, -2), GapModel::linear(-3)] {
                v.push(AlignConfig::new(kind, gap, &BLOSUM62));
            }
        }
        v
    }

    #[test]
    fn all_strategies_match_reference_through_public_api() {
        let mut rng = seeded_rng(5150);
        let q = named_query(&mut rng, 130);
        for spec in nine_similarity_specs().into_iter().take(5) {
            let s = spec.generate(&mut rng, &q).subject;
            for cfg in cfgs() {
                let want = paradigm_dp(&cfg, &q, &s).score;
                for strat in [
                    Strategy::Sequential,
                    Strategy::StripedIterate,
                    Strategy::StripedScan,
                    Strategy::Hybrid,
                ] {
                    let out = Aligner::new(cfg.clone())
                        .with_strategy(strat)
                        .align(&q, &s)
                        .unwrap();
                    assert_eq!(out.score, want, "{} {:?}", cfg.label(), strat);
                    assert!(!out.saturated);
                }
            }
        }
    }

    #[test]
    fn isa_pinning_produces_identical_scores() {
        let mut rng = seeded_rng(808);
        let q = named_query(&mut rng, 100);
        let s = named_query(&mut rng, 90);
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let want = paradigm_dp(&cfg, &q, &s).score;
        for isa in [Isa::Emulated, Isa::Sse41, Isa::Avx2, Isa::Avx512] {
            let out = Aligner::new(cfg.clone())
                .with_isa(isa)
                .with_width(WidthPolicy::Fixed32)
                .align(&q, &s)
                .unwrap();
            assert_eq!(out.score, want, "isa {isa:?} ({})", out.backend);
        }
    }

    #[test]
    fn auto_width_falls_back_on_saturation() {
        // Long identical sequences: score ~ 11 * 4000 = 44000 > i16.
        let text: Vec<u8> = std::iter::repeat_n(b"WAGHE".to_vec(), 800)
            .flatten()
            .collect();
        let q = Sequence::protein("big", &text).unwrap();
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let out = Aligner::new(cfg.clone())
            .with_width(WidthPolicy::Auto)
            .align(&q, &q)
            .unwrap();
        assert!(!out.saturated);
        assert_eq!(out.elem_bits, 32, "must have escalated ({})", out.backend);
        let want = crate::scalar::scalar_column_align(&cfg, &q, &q).score;
        assert_eq!(out.score, want);
    }

    #[test]
    fn auto_width_uses_i16_when_safe() {
        let mut rng = seeded_rng(2);
        let q = named_query(&mut rng, 80);
        let s = named_query(&mut rng, 60);
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let out = Aligner::new(cfg).align(&q, &s).unwrap();
        assert_eq!(out.elem_bits, 16, "short queries stay narrow");
        assert_eq!(out.width_retries, 0);
    }

    #[test]
    fn fixed16_reports_saturation_without_fallback() {
        let text: Vec<u8> = std::iter::repeat_n(b'W', 4000).collect();
        let q = Sequence::protein("big", &text).unwrap();
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let out = Aligner::new(cfg)
            .with_width(WidthPolicy::Fixed16)
            .align(&q, &q)
            .unwrap();
        assert!(out.saturated);
        assert_eq!(out.elem_bits, 16);
    }

    #[test]
    fn forced_narrow_non_local_runs_outside_the_bound_are_flagged() {
        // A global or semi-global kernel checks its final cell only,
        // and here a cell clamps at the i8 floor on the way: the run
        // used to return −114, unflagged.
        let q = Sequence::protein("q", b"GEDICVHQHGDRRKEHCPFKCDYLLATIYL").unwrap();
        let s = Sequence::protein("s", b"TLFLGRH").unwrap();
        let cfg = AlignConfig::new(AlignKind::SemiGlobal, GapModel::linear(-6), &BLOSUM62);
        assert_eq!(paradigm_dp(&cfg, &q, &s).score, -119);
        assert!(!cfg.score_bounds(q.len(), s.len()).fits(8));
        for strat in [
            Strategy::StripedIterate,
            Strategy::StripedScan,
            Strategy::Hybrid,
        ] {
            let narrow = Aligner::new(cfg.clone())
                .with_strategy(strat)
                .with_width(WidthPolicy::Fixed8)
                .align(&q, &s)
                .unwrap();
            assert!(narrow.saturated, "{strat:?}: {}", narrow.score);
            // 16 bits hold it, and say so.
            let wide = Aligner::new(cfg.clone())
                .with_strategy(strat)
                .with_width(WidthPolicy::Fixed16)
                .align(&q, &s)
                .unwrap();
            assert!(!wide.saturated);
            assert_eq!(wide.score, -119);
        }
        // Inside the bound a forced narrow width is trusted as before.
        let tiny = Sequence::protein("t", b"TLF").unwrap();
        assert!(cfg.score_bounds(tiny.len(), tiny.len()).fits(8));
        let out = Aligner::new(cfg.clone())
            .with_width(WidthPolicy::Fixed8)
            .align(&tiny, &tiny)
            .unwrap();
        assert!(!out.saturated);
        assert_eq!(out.score, paradigm_dp(&cfg, &tiny, &tiny).score);
    }

    #[test]
    fn empty_query_is_an_error() {
        let q = Sequence::protein("e", b"").unwrap();
        let s = Sequence::protein("s", b"WW").unwrap();
        let cfg = AlignConfig::local(GapModel::linear(-2), &BLOSUM62);
        assert_eq!(
            Aligner::new(cfg).align(&q, &s).unwrap_err(),
            AlignError::EmptyQuery
        );
    }

    #[test]
    fn alphabet_mismatch_is_an_error() {
        let q = Sequence::dna("d", b"ACGT").unwrap();
        let s = Sequence::protein("p", b"WW").unwrap();
        let cfg = AlignConfig::local(GapModel::linear(-2), &BLOSUM62);
        let err = Aligner::new(cfg).align(&q, &s).unwrap_err();
        assert!(matches!(err, AlignError::AlphabetMismatch { .. }));
    }

    #[test]
    fn prepared_query_reuse_matches_one_shot() {
        let mut rng = seeded_rng(99);
        let q = named_query(&mut rng, 120);
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let aligner = Aligner::new(cfg).with_strategy(Strategy::Hybrid);
        let pq = aligner.prepare(&q).unwrap();
        let mut scratch = AlignScratch::new();
        for i in 0..8 {
            let s = named_query(&mut rng, 40 + i * 13);
            let a = aligner.align_prepared(&pq, &s, &mut scratch).unwrap();
            let b = aligner.align(&q, &s).unwrap();
            assert_eq!(a.score, b.score);
        }
        assert_eq!(pq.query_id(), q.id());
        assert_eq!(pq.query_len(), 120);
    }

    #[test]
    fn hybrid_stats_report_strategy_mix() {
        let mut rng = seeded_rng(71);
        let q = named_query(&mut rng, 200);
        // Very similar subject forces switches to scan.
        let s = aalign_bio::synth::PairSpec::new(
            aalign_bio::synth::Level::Hi,
            aalign_bio::synth::Level::Hi,
        )
        .generate(&mut rng, &q)
        .subject;
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let out = Aligner::new(cfg)
            .with_strategy(Strategy::Hybrid)
            .with_width(WidthPolicy::Fixed32)
            .with_hybrid_policy(HybridPolicy {
                threshold: 1,
                probe_stride: 16,
            })
            .align(&q, &s)
            .unwrap();
        assert!(out.stats.switches_to_scan > 0, "{:?}", out.stats);
        assert!(out.stats.scan_columns > 0);
        assert_eq!(out.stats.scan_columns + out.stats.iterate_columns, s.len());
    }

    #[test]
    fn align_many_matches_one_shot() {
        let mut rng = seeded_rng(4);
        let q = named_query(&mut rng, 70);
        let subjects: Vec<_> = (0..6).map(|i| named_query(&mut rng, 30 + i * 15)).collect();
        for strat in [Strategy::Sequential, Strategy::Hybrid] {
            let al = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62))
                .with_strategy(strat);
            let many = al.align_many(&q, &subjects).unwrap();
            let pq = al.prepare(&q).unwrap();
            let mut scratch = AlignScratch::new();
            for (s, out) in subjects.iter().zip(&many) {
                assert_eq!(*out, al.align(&q, s).unwrap());
                assert_eq!(*out, al.align_prepared(&pq, s, &mut scratch).unwrap());
                assert_eq!(out.score, scalar_column_align(al.config(), &q, s).score);
            }
            if strat == Strategy::Sequential {
                assert_eq!(
                    (many[0].backend.as_str(), many[0].elem_bits),
                    ("scalar", 32)
                );
            }
        }
    }

    /// `count` copies of `q`, every tenth residue replaced (at a
    /// different phase per copy): each scores far above a byte's
    /// ceiling against `q`, and far below 16 bits'.
    fn homologs(rng: &mut impl rand::Rng, q: &Sequence, count: usize) -> Vec<Sequence> {
        (0..count)
            .map(|i| {
                let mut idx = q.indices().to_vec();
                for j in (i % 10..idx.len()).step_by(10) {
                    idx[j] = aalign_bio::synth::random_residue(rng);
                }
                Sequence::from_indices(format!("h{i}"), q.alphabet(), idx)
            })
            .collect()
    }

    #[test]
    fn byte_lanes_walk_on_exactly_and_reserve_no_i32_lane_buffer() {
        let mut rng = seeded_rng(7100);
        let q = named_query(&mut rng, 60);
        let batch = homologs(&mut rng, &q, 32);
        let batch: Vec<&Sequence> = batch.iter().collect();
        let db = aalign_bio::synth::swissprot_like_db(7101, 96);
        let sorted: Vec<&Sequence> = db.length_order().iter().map(|&i| db.get(i)).collect();
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        for pin in [
            None,
            Some(Isa::Avx2),
            Some(Isa::Avx512),
            Some(Isa::Emulated),
        ] {
            let mut aligner = Aligner::new(cfg.clone());
            if let Some(isa) = pin {
                aligner = aligner.with_isa(isa);
            }
            let pq = aligner.prepare(&q).unwrap();
            // The ladder tops out at an i32 rung without lane rows, and
            // starts — where the engine has native lookups — with a
            // lane-only i8 rung.
            let (bottom, top) = (&pq.rungs[0].tables, &pq.rungs.last().unwrap().tables);
            assert!(matches!(top, Typed::I32(t) if t.lanes.is_none()), "{pin:?}");
            let byte_rung = matches!(bottom, Typed::I8(t) if t.prof.is_none() && t.lanes.is_some());
            let mut scratch = AlignScratch::new();
            let Some(out) = aligner
                .align_batch_prepared(&pq, &batch, &mut scratch)
                .unwrap()
            else {
                assert_eq!(pq.batch_lanes(), 0, "{pin:?} declined a full vector");
                continue;
            };
            // Every lane comes back exact and unflagged: i16 holds them.
            for (l, s) in batch.iter().enumerate() {
                assert!(!out.saturated[l], "{pin:?} lane {l}");
                assert_eq!(out.scores[l], paradigm_dp(&cfg, &q, s).score, "{pin:?}");
            }
            assert_eq!(out.stats.inter_columns, 32 * 60);
            if byte_rung {
                assert_eq!(out.bits, 8, "{pin:?}");
                assert_eq!(out.stats.inter_saturated, 32, "{pin:?}: all flagged at i8");
                // Two passes of the same subjects: lane-columns doubled.
                assert!(out.stats.inter_lane_columns >= 2 * out.stats.inter_columns);
            } else {
                assert_eq!((out.bits, out.stats.inter_saturated), (16, 0), "{pin:?}");
            }

            // The rest of a sweep on the same scratch: vectors the lanes
            // take, what they decline or flag per subject.
            for vector in sorted.chunks(pq.batch_lanes()) {
                let out = aligner
                    .align_batch_prepared(&pq, vector, &mut scratch)
                    .unwrap();
                for (l, s) in vector.iter().enumerate() {
                    if out.as_ref().is_none_or(|out| out.saturated[l]) {
                        aligner.align_prepared(&pq, s, &mut scratch).unwrap();
                    }
                }
            }
            let warm = scratch.reserved_bytes();
            scratch.w32.lanes = InterWorkspace::new();
            assert_eq!(
                scratch.reserved_bytes(),
                warm,
                "{pin:?}: a local Auto sweep reserved an i32 lane buffer"
            );
        }
    }

    #[test]
    fn dna_alignment_works_end_to_end() {
        let m = aalign_bio::SubstMatrix::dna(2, -3);
        let q = Sequence::dna("q", b"ACGTACGTAC").unwrap();
        let s = Sequence::dna("s", b"TTACGTACGTACTT").unwrap();
        let cfg = AlignConfig::local(GapModel::affine(-5, -2), &m);
        let out = Aligner::new(cfg.clone()).align(&q, &s).unwrap();
        assert_eq!(out.score, 20); // perfect 10-residue match
        assert_eq!(out.score, paradigm_dp(&cfg, &q, &s).score);
    }
}

#[cfg(test)]
mod avx512bw_dispatch_tests {
    use super::*;
    use crate::config::GapModel;
    use crate::paradigm::paradigm_dp;
    use aalign_bio::matrices::BLOSUM62;
    use aalign_bio::synth::{named_query, seeded_rng};
    use aalign_bio::SubstMatrix;

    #[test]
    fn i16_on_512bit_platform_uses_bw_engine_when_present() {
        let mut rng = seeded_rng(600);
        let q = named_query(&mut rng, 90);
        let s = named_query(&mut rng, 80);
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let out = Aligner::new(cfg.clone())
            .with_isa(Isa::Avx512)
            .with_width(WidthPolicy::Fixed16)
            .align(&q, &s)
            .unwrap();
        assert_eq!(out.score, paradigm_dp(&cfg, &q, &s).score);
        assert_eq!(out.elem_bits, 16);
        let sup = IsaSupport::detect();
        if sup.avx512f && sup.avx512bw {
            assert_eq!(out.backend, "avx512/i16x32", "native BW engine expected");
        } else {
            assert!(out.backend.starts_with("emu/"), "{}", out.backend);
        }
        // 32 lanes either way: the 512-bit geometry is preserved.
        assert!(out.backend.ends_with("x32"), "{}", out.backend);
    }

    #[test]
    fn extreme_hybrid_policies_stay_exact() {
        let mut rng = seeded_rng(601);
        let q = named_query(&mut rng, 70);
        let s = named_query(&mut rng, 90);
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let want = paradigm_dp(&cfg, &q, &s).score;
        for policy in [
            HybridPolicy {
                threshold: 0,
                probe_stride: 1,
            },
            HybridPolicy {
                threshold: 0,
                probe_stride: 10_000,
            },
            HybridPolicy {
                threshold: u32::MAX,
                probe_stride: 1,
            },
        ] {
            let out = Aligner::new(cfg.clone())
                .with_hybrid_policy(policy)
                .with_width(WidthPolicy::Fixed32)
                .align(&q, &s)
                .unwrap();
            assert_eq!(out.score, want, "{policy:?}");
        }
    }

    fn dna_seq(id: &str, len: usize, phase: usize) -> Sequence {
        let text: Vec<u8> = (0..len).map(|i| b"ACGT"[(i * 7 + phase) % 4]).collect();
        Sequence::dna(id, &text).unwrap()
    }

    #[test]
    fn certified_auto_ladder_starts_at_i8_and_stays_exact() {
        // A granted i8 certificate puts 8 at the head of the Auto
        // ladder; within the certified bounds the narrow run must
        // neither saturate nor retry, and the score is exact.
        let cfg = AlignConfig::local(GapModel::affine(-5, -2), &SubstMatrix::dna(2, -3));
        let aligner = Aligner::new(cfg.clone()).with_certified_bounds(48, 1000);
        assert_eq!(aligner.certified_width(48, 1000), 8);
        let q = dna_seq("q", 48, 0);
        let s = dna_seq("s", 1000, 1);
        let out = aligner.align(&q, &s).unwrap();
        assert_eq!(out.elem_bits, 8, "{}", out.backend);
        assert!(!out.saturated);
        assert_eq!(out.width_retries, 0);
        assert_eq!(out.score, paradigm_dp(&cfg, &q, &s).score);
        // The same aligner without certificates never schedules i8.
        let plain = Aligner::new(cfg.clone()).align(&q, &s).unwrap();
        assert_eq!(plain.elem_bits, 16);
        assert_eq!(plain.score, out.score);
    }

    #[test]
    fn certified_width_respects_bounds() {
        let cfg = AlignConfig::local(GapModel::affine(-5, -2), &SubstMatrix::dna(2, -3));
        let aligner = Aligner::new(cfg.clone()).with_certified_bounds(48, 1000);
        assert_eq!(aligner.certified_width(48, 500), 8);
        // Outside the certified bounds: no covering certificate.
        assert_eq!(aligner.certified_width(49, 1000), 0);
        assert_eq!(Aligner::new(cfg).certified_width(48, 1000), 0);
    }

    #[test]
    #[should_panic(expected = "fingerprint")]
    fn mismatched_certificates_are_rejected_at_install() {
        use crate::certify::CertificateStore;
        let dna = AlignConfig::local(GapModel::affine(-5, -2), &SubstMatrix::dna(2, -3));
        let store = CertificateStore::compute(&dna, 48, 1000);
        let protein = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let _ = Aligner::new(protein).with_certificates(store);
    }

    #[test]
    fn global_auto_escalates_for_long_dissimilar_pairs() {
        // Global score of dissimilar 3000-residue pairs sinks far
        // below i16::MIN; Auto must detect and use i32.
        let mut rng = seeded_rng(602);
        let q = named_query(&mut rng, 3000);
        let s = named_query(&mut rng, 2500);
        let cfg = AlignConfig::global(GapModel::affine(-10, -2), &BLOSUM62);
        let out = Aligner::new(cfg.clone()).align(&q, &s).unwrap();
        assert!(!out.saturated);
        assert_eq!(out.elem_bits, 32);
        let seq = crate::scalar::scalar_column_align(&cfg, &q, &s);
        assert_eq!(out.score, seq.score);
    }
}
