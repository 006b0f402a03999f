//! Observability for the search engine: cancellation tokens,
//! progress reporting, and per-query metrics.
//!
//! Everything here is engine-produced, caller-consumed: the sweep
//! stamps stage wall times, aggregates the kernels' [`RunStats`]
//! across workers, and records per-worker load so dynamic-binding
//! balance (paper Sec. V-E) is visible per query instead of only in
//! offline benchmarks.

use std::sync::Arc;
use std::time::Duration;

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Arc as SyncArc;

use aalign_core::RunStats;
use aalign_obs::{prom_header, Histogram};

/// Cooperative cancellation handle for an in-flight search.
///
/// Clone it, hand one clone to [`SearchOptions::cancel`] and keep the
/// other; calling [`cancel`](CancelToken::cancel) from any thread
/// makes every worker stop at its next work-item boundary, and the
/// query returns [`AlignError::Cancelled`].
///
/// [`SearchOptions::cancel`]: crate::SearchOptions::cancel
/// [`AlignError::Cancelled`]: aalign_core::AlignError::Cancelled
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: SyncArc<AtomicBool>,
}

impl CancelToken {
    /// Fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token; idempotent.
    pub fn cancel(&self) {
        // ORDER: Release — the canceller's writes before cancel()
        // (e.g. recording *why* it cancelled) must be visible to any
        // worker whose Acquire load observes the flag, so the
        // cancellation handoff carries a happens-before edge (the loom
        // cancel suite checks the protocol shape exhaustively).
        self.flag.store(true, Ordering::Release);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called.
    ///
    /// A `true` return additionally orders the canceller's preceding
    /// writes before everything after this call.
    pub fn is_cancelled(&self) -> bool {
        // ORDER: Acquire — pairs with the Release store in cancel();
        // a worker that observes the flag also observes the
        // canceller's preceding writes before it abandons the sweep.
        self.flag.load(Ordering::Acquire)
    }
}

/// Snapshot delivered to a progress callback after each completed
/// claim. Callbacks run on worker threads, so they must be
/// `Send + Sync` and should be cheap.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct SearchProgress {
    /// Subjects fully scored so far (across all workers).
    pub subjects_done: usize,
    /// Total subjects in this query's sweep.
    pub subjects_total: usize,
    /// Residues of the completed subjects.
    pub residues_done: usize,
}

impl SearchProgress {
    /// Completed fraction in `[0, 1]` (1 for an empty sweep).
    pub fn fraction(&self) -> f64 {
        if self.subjects_total == 0 {
            1.0
        } else {
            self.subjects_done as f64 / self.subjects_total as f64
        }
    }
}

/// Shared progress callback (see [`SearchProgress`]).
pub type ProgressFn = Arc<dyn Fn(&SearchProgress) + Send + Sync>;

/// Per-worker accounting for one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct WorkerMetrics {
    /// Stable pool-local worker id (0-based). Ids never exceed the
    /// pool size: a reused engine serves every query with the same
    /// threads.
    pub worker_id: usize,
    /// Queries this worker thread has served over its lifetime —
    /// equal across workers and increasing per query exactly when the
    /// pool is being reused rather than respawned.
    pub queries_on_worker: u64,
    /// Subjects this worker scored in this query.
    pub subjects: usize,
    /// Residues this worker scored in this query.
    pub residues: usize,
    /// Wall time this worker spent inside the sweep.
    pub busy: Duration,
    /// Bytes of alignment scratch the worker holds after the query
    /// (stops growing once warm — the zero-allocation-reuse signal).
    pub scratch_bytes: usize,
}

/// Per-shard outcome accounting for one query routed through a shard
/// supervisor (`aalign-shard`). All-zero (the [`Default`]) for
/// single-process searches; a supervisor stamps it on the merged
/// report so degraded answers are distinguishable from complete ones
/// without diffing hit lists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ShardOutcome {
    /// Shards that answered this query (possibly after a retry).
    pub ok: u64,
    /// Shards that produced no answer — crashed and exhausted the
    /// retry, or already circuit-broken. Each failed shard also
    /// contributes an `AlignError::ShardLost` naming its uncovered
    /// range.
    pub failed: u64,
    /// Shards whose request was re-sent once on a respawned child
    /// (written to it, not merely attempted). A retried shard still
    /// counts under `ok` or `failed`.
    pub retried: u64,
    /// Shards (a subset of `failed`) that missed the query deadline
    /// rather than dying: the budget was spent before the request (or
    /// its resend) was written, or no reply came by the deadline plus
    /// the supervisor's grace.
    pub timed_out: u64,
}

impl ShardOutcome {
    /// Shards this query was fanned out to.
    pub fn total(&self) -> u64 {
        self.ok + self.failed
    }

    /// True when no supervisor touched this report (the default).
    pub fn is_unsharded(&self) -> bool {
        *self == ShardOutcome::default()
    }
}

/// Per-query metrics attached to every [`SearchReport`] /
/// [`PipelineReport`].
///
/// [`SearchReport`]: crate::SearchReport
/// [`PipelineReport`]: crate::PipelineReport
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SearchMetrics {
    /// Profile construction ([`Aligner::prepare`]) wall time.
    ///
    /// [`Aligner::prepare`]: aalign_core::Aligner::prepare
    pub prepare: Duration,
    /// Multithreaded sweep wall time.
    pub sweep: Duration,
    /// Result merge + rank wall time.
    pub merge: Duration,
    /// End-to-end wall time of the query.
    pub total: Duration,
    /// Dynamic-programming cells computed (`query_len × residues`).
    pub cells: u64,
    /// Billions of cell updates per second over the sweep stage.
    pub gcups: f64,
    /// Kernel counters aggregated across every alignment of the sweep
    /// (lazy iters/sweeps, iterate/scan column mix, hybrid switches).
    pub kernel_stats: RunStats,
    /// Rungs of the width ladder climbed during the sweep, each step
    /// one escalation (8→16 on a certified plan, 16→32, …).
    pub width_retries: u64,
    /// Subjects whose fixed-width kernel run saturated and were
    /// re-aligned at a wider element width (every sweep rescues; no
    /// option keeps a clamped score).
    pub rescued: u64,
    /// Histogram of the element widths (in bits) that saturated and
    /// triggered a rescue — one sample per rescue attempt, keyed by
    /// the width that overflowed, so `8` dominating means the 8-bit
    /// lane budget is too tight for this database.
    pub rescue_widths: Histogram,
    /// Narrowest lane width (in bits) a saturation certificate proved
    /// rescue-free for this query against every subject in the
    /// database, or `0` when the engine's aligner has no covering
    /// certificate installed (see `aalign_core::certify`). Non-zero
    /// means the rescue ladder is provably idle at that width —
    /// `rescued` must be 0 whenever the sweep ran at it.
    pub certified_width: u32,
    /// Element width (in bits) the sweep's lane-per-subject batches
    /// ran their first pass at — the narrowest, should batches differ —
    /// or `0` when no batch ran. `8` on a protein sweep means byte
    /// lanes first; `kernel_stats.inter_saturated` counts the lanes
    /// that pass flagged.
    pub lane_width: u32,
    /// Other requests that coalesced onto this query's prepared
    /// profile instead of running their own sweep. Always `0` for
    /// direct engine calls; a serving dispatcher
    /// (`aalign-serve`) stamps the follower count here before fanning
    /// the shared report out, so batching is observable per response.
    pub coalesced: u64,
    /// Worker threads the engine has respawned over its lifetime
    /// after a death mid-job (pool self-healing). Zero on a healthy
    /// engine.
    pub workers_respawned: u64,
    /// Shard-supervisor outcome accounting for this query. All-zero
    /// for single-process searches; stamped by `aalign-shard` on
    /// merged reports (`shards_ok/failed/retried/timed_out` on the
    /// wire).
    pub shards: ShardOutcome,
    /// Peak number of hits buffered across all workers — bounded by
    /// `workers × top_n` when `top_n > 0` (streaming top-k), `O(db)`
    /// only when every hit was requested.
    pub peak_hits_buffered: usize,
    /// Log2 histogram (nanoseconds) of time this request spent in a
    /// serving dispatcher's bounded admission queue before the sweep
    /// started. Always empty for direct engine calls; `aalign-serve`
    /// stamps the leader's wait here before fanning the report out.
    pub queue_wait: Histogram,
    /// Log2 histogram (nanoseconds) of dispatcher-side end-to-end
    /// request latency (admission through report publication).
    /// Always empty for direct engine calls; stamped by a serving
    /// dispatcher.
    pub request_e2e: Histogram,
    /// Log2 histogram of per-subject sweep latency in nanoseconds,
    /// merged across workers: one sample per subject scored on its
    /// own, and for a lane-per-subject batch one equal share of the
    /// batch's time per subject it kept.
    pub latency: Histogram,
    /// Log2 histogram of per-worker residue load: one sample per
    /// participating worker. A tight spread is the dynamic-binding
    /// balance signal (paper Sec. V-E) made visible per query.
    pub worker_load: Histogram,
    /// One entry per participating worker, ordered by `worker_id`.
    pub per_worker: Vec<WorkerMetrics>,
}

impl SearchMetrics {
    /// Number of workers that participated in the sweep.
    pub fn workers(&self) -> usize {
        self.per_worker.len()
    }

    /// The metric half of [`SearchReport::absorb`], and the only merge
    /// rule either fold uses. `merge`, `total`, `gcups` and `shards`
    /// describe the fold itself: the folding layer stamps them after.
    ///
    /// [`SearchReport::absorb`]: crate::SearchReport::absorb
    pub(crate) fn absorb(&mut self, part: SearchMetrics, worker_offset: usize) {
        // Destructured whole, so a new field cannot skip a merge rule.
        let SearchMetrics {
            prepare,
            sweep,
            merge: _,
            total: _,
            cells,
            gcups: _,
            kernel_stats,
            width_retries,
            rescued,
            rescue_widths,
            certified_width,
            lane_width,
            coalesced,
            workers_respawned,
            shards: _,
            peak_hits_buffered,
            queue_wait,
            request_e2e,
            latency,
            worker_load,
            per_worker,
        } = part;
        self.prepare = self.prepare.max(prepare);
        self.sweep = self.sweep.max(sweep);
        self.cells += cells;
        self.kernel_stats.merge(&kernel_stats);
        self.width_retries += width_retries;
        self.rescued += rescued;
        self.rescue_widths.merge(&rescue_widths);
        self.certified_width = self.certified_width.min(certified_width);
        self.lane_width = match (self.lane_width, lane_width) {
            (0, w) | (w, 0) => w,
            (a, b) => a.min(b),
        };
        self.coalesced += coalesced;
        self.workers_respawned += workers_respawned;
        self.peak_hits_buffered += peak_hits_buffered;
        self.queue_wait.merge(&queue_wait);
        self.request_e2e.merge(&request_e2e);
        self.latency.merge(&latency);
        self.worker_load.merge(&worker_load);
        self.per_worker
            .extend(per_worker.into_iter().map(|w| WorkerMetrics {
                worker_id: w.worker_id + worker_offset,
                ..w
            }));
    }

    /// Billions of DP cell updates per second, guarded: an empty
    /// database (`cells == 0`) or a zero/degenerate elapsed time
    /// yields `0.0` — never NaN or infinity.
    pub fn derive_gcups(cells: u64, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if cells == 0 || secs <= 0.0 || !secs.is_finite() {
            return 0.0;
        }
        cells as f64 / secs / 1e9
    }

    /// Render a compact multi-line summary (the CLI's `--stats`
    /// block).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let _ = writeln!(
            s,
            "stats: prepare {:.2}ms  sweep {:.2}ms  merge {:.2}ms  total {:.2}ms  {:.2} GCUPS",
            ms(self.prepare),
            ms(self.sweep),
            ms(self.merge),
            ms(self.total),
            self.gcups,
        );
        let k = &self.kernel_stats;
        let _ = writeln!(
            s,
            "kernel: {} iterate / {} scan / {} inter columns ({} lane-columns, {} lanes \
             saturated), {} switches, {} probes stayed, {} lazy iters, {} lazy sweeps, \
             {} width retries, {} rescued, peak {} hits buffered",
            k.iterate_columns,
            k.scan_columns,
            k.inter_columns,
            k.inter_lane_columns,
            k.inter_saturated,
            k.switches_to_scan,
            k.probes_stayed,
            k.lazy_iters,
            k.lazy_sweeps,
            self.width_retries,
            self.rescued,
            self.peak_hits_buffered,
        );
        if self.certified_width > 0 {
            let _ = writeln!(
                s,
                "certified: i{} proven rescue-free for this query/database",
                self.certified_width
            );
        }
        if self.lane_width > 0 {
            let _ = writeln!(s, "lanes: batches ran first at i{}", self.lane_width);
        }
        if self.workers_respawned > 0 {
            let _ = writeln!(s, "pool: {} workers respawned", self.workers_respawned);
        }
        if self.coalesced > 0 {
            let _ = writeln!(
                s,
                "batching: {} request(s) coalesced onto this query profile",
                self.coalesced
            );
        }
        if !self.shards.is_unsharded() {
            let _ = writeln!(
                s,
                "shards: {} ok, {} failed ({} timed out), {} retried",
                self.shards.ok, self.shards.failed, self.shards.timed_out, self.shards.retried,
            );
        }
        if !self.latency.is_empty() {
            let us = |ns: u64| ns as f64 / 1e3;
            let _ = writeln!(
                s,
                "latency: p50 {:.1}µs  p90 {:.1}µs  p99 {:.1}µs  max {:.1}µs  ({} work items)",
                us(self.latency.quantile(0.50)),
                us(self.latency.quantile(0.90)),
                us(self.latency.quantile(0.99)),
                us(self.latency.max_value()),
                self.latency.count(),
            );
        }
        for w in &self.per_worker {
            let _ = writeln!(
                s,
                "worker {:>3}: {:>7} subjects  {:>10} residues  busy {:>8.2}ms  \
                 scratch {:>8} B  (query #{} on this thread)",
                w.worker_id,
                w.subjects,
                w.residues,
                ms(w.busy),
                w.scratch_bytes,
                w.queries_on_worker,
            );
        }
        s
    }

    /// Render as a single versioned JSON object (durations in
    /// microseconds, histograms with lossless bucket detail).
    /// Machine-readable counterpart of
    /// [`summary`](SearchMetrics::summary); the CLI's
    /// `--metrics-format json`. This is exactly
    /// [`wire::metrics_to_wire`](crate::wire::metrics_to_wire)
    /// rendered — the same document the `aalign-serve` front ends
    /// return — and it decodes back via
    /// [`wire::metrics_from_wire`](crate::wire::metrics_from_wire).
    pub fn to_json(&self) -> String {
        crate::wire::metrics_to_wire(self).render()
    }

    /// Render in the Prometheus text exposition format (gauges for
    /// the scalar counters, cumulative `_bucket` series for the
    /// histograms). The CLI's `--metrics-format prom`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let mut gauge = |name: &str, help: &str, value: f64| {
            prom_header(&mut s, name, "gauge", help);
            let _ = writeln!(s, "{name} {value}");
        };
        gauge(
            "aalign_prepare_seconds",
            "Query profile construction wall time.",
            self.prepare.as_secs_f64(),
        );
        gauge(
            "aalign_sweep_seconds",
            "Multithreaded sweep wall time.",
            self.sweep.as_secs_f64(),
        );
        gauge(
            "aalign_merge_seconds",
            "Result merge and rank wall time.",
            self.merge.as_secs_f64(),
        );
        gauge(
            "aalign_total_seconds",
            "End-to-end query wall time.",
            self.total.as_secs_f64(),
        );
        gauge(
            "aalign_cells_total",
            "Dynamic-programming cells computed.",
            self.cells as f64,
        );
        gauge(
            "aalign_gcups",
            "Billions of cell updates per second over the sweep.",
            self.gcups,
        );
        let k = &self.kernel_stats;
        gauge(
            "aalign_kernel_iterate_columns_total",
            "Columns processed by striped-iterate.",
            k.iterate_columns as f64,
        );
        gauge(
            "aalign_kernel_scan_columns_total",
            "Columns processed by striped-scan.",
            k.scan_columns as f64,
        );
        gauge(
            "aalign_kernel_inter_columns_total",
            "Subject residues scored one lane per subject.",
            k.inter_columns as f64,
        );
        gauge(
            "aalign_kernel_inter_lane_columns_total",
            "Lane-columns the lane-per-subject batches computed (residues over this is their fill).",
            k.inter_lane_columns as f64,
        );
        gauge(
            "aalign_kernel_inter_saturated_total",
            "Lanes flagged saturated at their batch's first width.",
            k.inter_saturated as f64,
        );
        gauge(
            "aalign_kernel_switches_to_scan_total",
            "Hybrid iterate-to-scan switches.",
            k.switches_to_scan as f64,
        );
        gauge(
            "aalign_kernel_probes_stayed_total",
            "Hybrid probes that stayed in iterate.",
            k.probes_stayed as f64,
        );
        gauge(
            "aalign_kernel_lazy_iters_total",
            "Lazy-loop segment re-computations in iterate columns.",
            k.lazy_iters as f64,
        );
        gauge(
            "aalign_kernel_lazy_sweeps_total",
            "Lazy-loop whole-column sweeps.",
            k.lazy_sweeps as f64,
        );
        gauge(
            "aalign_width_retries_total",
            "Width-ladder rungs climbed (8-to-16, 16-to-32).",
            self.width_retries as f64,
        );
        gauge(
            "aalign_rescued_total",
            "Subjects re-aligned at a wider width after lane saturation.",
            self.rescued as f64,
        );
        gauge(
            "aalign_certified_width_bits",
            "Narrowest lane width proven rescue-free (0 = no certificate).",
            self.certified_width as f64,
        );
        gauge(
            "aalign_lane_width_bits",
            "Width the lane-per-subject batches ran first at (0 = no batch ran).",
            self.lane_width as f64,
        );
        gauge(
            "aalign_coalesced_total",
            "Requests coalesced onto this query's prepared profile.",
            self.coalesced as f64,
        );
        gauge(
            "aalign_workers_respawned_total",
            "Worker threads respawned after dying mid-job.",
            self.workers_respawned as f64,
        );
        gauge(
            "aalign_peak_hits_buffered",
            "Peak hits buffered across workers.",
            self.peak_hits_buffered as f64,
        );
        gauge(
            "aalign_shards_ok",
            "Shards that answered this query (0 = unsharded).",
            self.shards.ok as f64,
        );
        gauge(
            "aalign_shards_failed",
            "Shards that produced no answer for this query.",
            self.shards.failed as f64,
        );
        gauge(
            "aalign_shards_retried",
            "Shards retried once on a respawned child.",
            self.shards.retried as f64,
        );
        gauge(
            "aalign_shards_timed_out",
            "Failed shards that missed the query deadline.",
            self.shards.timed_out as f64,
        );
        s.push_str(
            &self
                .queue_wait
                .prom_lines("aalign_queue_wait_seconds", 1e-9),
        );
        s.push_str(
            &self
                .request_e2e
                .prom_lines("aalign_request_e2e_seconds", 1e-9),
        );
        s.push_str(&self.latency.prom_lines("aalign_work_item_seconds", 1e-9));
        s.push_str(
            &self
                .rescue_widths
                .prom_lines("aalign_rescue_width_bits", 1.0),
        );
        s.push_str(
            &self
                .worker_load
                .prom_lines("aalign_worker_load_residues", 1.0),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_round_trip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled(), "clones share one flag");
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn progress_fraction_handles_empty_sweep() {
        let p = SearchProgress {
            subjects_done: 0,
            subjects_total: 0,
            residues_done: 0,
        };
        assert_eq!(p.fraction(), 1.0);
        let p = SearchProgress {
            subjects_done: 25,
            subjects_total: 100,
            residues_done: 9000,
        };
        assert!((p.fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shard_outcome_summary_line_is_conditional() {
        let quiet = SearchMetrics::default().summary();
        assert!(!quiet.contains("shards:"), "{quiet}");
        assert!(!quiet.contains("lanes:"), "{quiet}");
        let m = populated();
        let s = m.summary();
        assert!(s.contains("(3200 lane-columns, 3 lanes saturated)"), "{s}");
        assert!(s.contains("lanes: batches ran first at i8"), "{s}");
        assert!(
            s.contains("shards: 3 ok, 1 failed (0 timed out), 1 retried"),
            "{s}"
        );
        assert_eq!(m.shards.total(), 4);
        assert!(!m.shards.is_unsharded());
        assert!(SearchMetrics::default().shards.is_unsharded());
    }

    #[test]
    fn summary_mentions_every_stage() {
        let m = SearchMetrics {
            per_worker: vec![WorkerMetrics::default()],
            ..SearchMetrics::default()
        };
        let s = m.summary();
        for needle in ["prepare", "sweep", "merge", "GCUPS", "worker"] {
            assert!(s.contains(needle), "{needle} missing from {s}");
        }
    }

    #[test]
    fn derive_gcups_is_guarded_against_degenerate_inputs() {
        // Empty database: zero cells regardless of elapsed time.
        assert_eq!(SearchMetrics::derive_gcups(0, Duration::from_secs(1)), 0.0);
        // Sub-resolution sweep: zero elapsed must not divide.
        assert_eq!(SearchMetrics::derive_gcups(1_000_000, Duration::ZERO), 0.0);
        assert_eq!(SearchMetrics::derive_gcups(0, Duration::ZERO), 0.0);
        // The honest case: 2e9 cells over 2 seconds is 1 GCUPS.
        let g = SearchMetrics::derive_gcups(2_000_000_000, Duration::from_secs(2));
        assert!((g - 1.0).abs() < 1e-12, "{g}");
        assert!(g.is_finite());
    }

    fn populated() -> SearchMetrics {
        let mut m = SearchMetrics {
            prepare: Duration::from_micros(120),
            sweep: Duration::from_millis(3),
            merge: Duration::from_micros(45),
            total: Duration::from_millis(4),
            cells: 1_000_000,
            certified_width: 8,
            lane_width: 8,
            kernel_stats: RunStats {
                inter_columns: 3000,
                inter_lane_columns: 3200,
                inter_saturated: 3,
                ..RunStats::default()
            },
            shards: ShardOutcome {
                ok: 3,
                failed: 1,
                retried: 1,
                timed_out: 0,
            },
            per_worker: vec![
                WorkerMetrics {
                    worker_id: 0,
                    queries_on_worker: 1,
                    subjects: 7,
                    residues: 2100,
                    busy: Duration::from_millis(2),
                    scratch_bytes: 4096,
                },
                WorkerMetrics {
                    worker_id: 1,
                    queries_on_worker: 1,
                    subjects: 5,
                    residues: 1500,
                    busy: Duration::from_millis(2),
                    scratch_bytes: 4096,
                },
            ],
            ..SearchMetrics::default()
        };
        m.gcups = SearchMetrics::derive_gcups(m.cells, m.sweep);
        for ns in [900, 1_800, 3_600, 250_000] {
            m.latency.record(ns);
        }
        m.worker_load.record(2100);
        m.worker_load.record(1500);
        m
    }

    #[test]
    fn absorb_holds_every_merge_rule() {
        let widths = |lane_width, certified_width| SearchMetrics {
            lane_width,
            certified_width,
            ..SearchMetrics::default()
        };
        // 0 is the identity for lane_width; otherwise the narrowest wins.
        // A part without a certificate forces certified_width to 0.
        let mut m = widths(0, 16);
        for (part, lane, certified) in [(16, 16, 16), (0, 16, 16), (8, 8, 16), (16, 8, 16)] {
            m.absorb(widths(part, 16), 0);
            assert_eq!((m.lane_width, m.certified_width), (lane, certified));
        }
        m.absorb(widths(16, 8), 0);
        assert_eq!(m.certified_width, 8);
        m.absorb(widths(16, 0), 0);
        assert_eq!(m.certified_width, 0);
        m.absorb(widths(16, 16), 0);
        assert_eq!(m.certified_width, 0, "0 stays 0");

        let a = populated();
        let mut b = populated();
        b.prepare = Duration::from_millis(1);
        b.sweep = Duration::from_millis(2);
        b.lane_width = 16;
        b.certified_width = 16;
        b.width_retries = 4;
        b.rescued = 2;
        b.rescue_widths.record(8);
        b.coalesced = 3;
        b.kernel_stats.iterate_columns = 500;
        b.latency.record(7_000);
        b.per_worker.truncate(1);
        // Each part carries its own worker offset, whatever the order;
        // the fold is seeded to keep the parts' certificates.
        let fold = |parts: [(&SearchMetrics, usize); 2]| {
            let mut m = widths(0, u32::MAX);
            for (part, worker_offset) in parts {
                m.absorb(part.clone(), worker_offset);
            }
            m
        };
        let mut ab = fold([(&a, 0), (&b, 2)]);
        // Walls take the maximum; counters and histograms add.
        assert_eq!(ab.prepare, b.prepare);
        assert_eq!(ab.sweep, a.sweep);
        assert_eq!(ab.cells, 2 * a.cells);
        assert_eq!(ab.width_retries, 4);
        assert_eq!(ab.rescued, 2);
        assert_eq!(ab.coalesced, 3);
        assert_eq!(ab.kernel_stats.inter_columns, 6000);
        assert_eq!(ab.kernel_stats.iterate_columns, 500);
        assert_eq!(ab.latency.count(), 9);
        assert_eq!(ab.latency.sum(), a.latency.sum() + b.latency.sum());
        assert_eq!(ab.rescue_widths.count(), 1);
        assert_eq!(ab.worker_load.sum(), 2 * 3600);
        assert_eq!((ab.lane_width, ab.certified_width), (8, 8));
        // per_worker appends, each part's ids moved up by its offset.
        let ids = |m: &SearchMetrics| -> Vec<usize> {
            m.per_worker.iter().map(|w| w.worker_id).collect()
        };
        assert_eq!(ids(&ab), [0, 1, 2]);
        // Absorbing [b, a] instead changes only the order of per_worker.
        let mut ba = fold([(&b, 2), (&a, 0)]);
        assert_eq!(ids(&ba), [2, 0, 1]);
        ab.per_worker.sort_by_key(|w| w.worker_id);
        ba.per_worker.sort_by_key(|w| w.worker_id);
        assert_eq!(format!("{ab:?}"), format!("{ba:?}"));
    }

    #[test]
    fn json_export_is_wellformed_and_finite() {
        let j = populated().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        for key in [
            "\"schema_version\"",
            "\"coalesced\"",
            "\"prepare_us\"",
            "\"sweep_us\"",
            "\"merge_us\"",
            "\"total_us\"",
            "\"cells\"",
            "\"gcups\"",
            "\"kernel\"",
            "\"rescued\"",
            "\"rescue_width_bits\"",
            "\"certified_width\"",
            "\"lane_width\"",
            "\"inter_saturated\"",
            "\"workers_respawned\"",
            "\"shards\"",
            "\"timed_out\"",
            "\"queue_wait_ns\"",
            "\"request_e2e_ns\"",
            "\"latency_ns\"",
            "\"worker_load_residues\"",
            "\"workers\"",
        ] {
            assert!(j.contains(key), "{key} missing from {j}");
        }
        assert!(!j.contains("NaN") && !j.contains("inf"), "{j}");
        // Two worker objects, comma-separated.
        assert_eq!(j.matches("\"id\":").count(), 2);
    }

    #[test]
    fn prometheus_export_has_gauges_and_histograms() {
        let p = populated().to_prometheus();
        for series in [
            "aalign_sweep_seconds",
            "aalign_gcups",
            "aalign_rescued_total",
            "aalign_certified_width_bits 8",
            "aalign_lane_width_bits 8",
            "aalign_kernel_inter_saturated_total 3",
            "aalign_coalesced_total",
            "aalign_workers_respawned_total",
            "aalign_shards_ok 3",
            "aalign_shards_failed 1",
            "aalign_shards_retried 1",
            "aalign_shards_timed_out 0",
            "aalign_kernel_iterate_columns_total",
            "aalign_work_item_seconds_bucket",
            "aalign_work_item_seconds_count 4",
            "aalign_worker_load_residues_count 2",
            "aalign_queue_wait_seconds_count",
            "aalign_request_e2e_seconds_count",
            "le=\"+Inf\"",
        ] {
            assert!(p.contains(series), "{series} missing from:\n{p}");
        }
        // Every exposed family is typed.
        assert!(p.contains("# TYPE aalign_work_item_seconds histogram"));
    }

    /// The text renderings name every kernel counter the wire document
    /// carries: one Prometheus gauge per `kernel_to_wire` key, and its
    /// value on the `--stats` block's `kernel:` line.
    #[test]
    fn renderings_cover_every_wire_kernel_counter() {
        let mut m = populated();
        m.kernel_stats = RunStats {
            lazy_iters: 7001,
            lazy_sweeps: 7002,
            iterate_columns: 7003,
            scan_columns: 7004,
            switches_to_scan: 7005,
            probes_stayed: 7006,
            inter_columns: 7007,
            inter_lane_columns: 7008,
            inter_saturated: 7009,
        };
        m.rescue_widths.record(16);
        let (prom, summary) = (m.to_prometheus(), m.summary());
        let wire = crate::wire::kernel_to_wire(&m.kernel_stats);
        let keys = wire.as_object().expect("kernel block is an object");
        assert_eq!(keys.len(), 9, "{}", wire.render());
        for (key, value) in keys {
            let value = value.as_u64().expect("kernel counters are integers");
            let gauge = format!("aalign_kernel_{key}_total {value}\n");
            assert!(prom.contains(&gauge), "{gauge} missing from:\n{prom}");
            assert!(
                summary
                    .split(|c: char| !c.is_ascii_digit())
                    .any(|word| word == value.to_string()),
                "{key} = {value} missing from:\n{summary}"
            );
        }
        assert!(prom.contains("# TYPE aalign_rescue_width_bits histogram"));
        assert!(prom.contains("aalign_rescue_width_bits_count 1"), "{prom}");
    }
}
