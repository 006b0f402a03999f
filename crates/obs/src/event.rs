//! The typed trace-event taxonomy.
//!
//! Events are deliberately flat and allocation-light: the per-column
//! [`HybridEvent`] is `Copy` and carries no strings, so emitting one
//! into a buffering sink costs a bounds check and a 24-byte move.
//! Only the per-query framing events (`QueryBegin`, span events)
//! carry owned strings, and those fire a handful of times per query.

/// Which striped strategy processed a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Striped-iterate (Alg. 2): lower-bound pass + lazy correction.
    Iterate,
    /// Striped-scan (Alg. 3): tentative pass + weighted max-scan.
    Scan,
}

impl StrategyKind {
    /// Stable wire name (used by the JSONL format).
    pub fn as_str(self) -> &'static str {
        match self {
            StrategyKind::Iterate => "iterate",
            StrategyKind::Scan => "scan",
        }
    }

    /// Inverse of [`as_str`](StrategyKind::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "iterate" => Some(StrategyKind::Iterate),
            "scan" => Some(StrategyKind::Scan),
            _ => None,
        }
    }
}

/// Outcome of a hybrid probe column (Sec. V-B: after a scan burst,
/// one iterate column runs and its lazy counter decides the mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeOutcome {
    /// This column was not a probe.
    NotProbe,
    /// Probe succeeded: the kernel stayed in iterate mode.
    Stayed,
    /// Probe failed: the kernel returned to scan mode.
    Returned,
}

impl ProbeOutcome {
    /// Stable wire name (used by the JSONL format).
    pub fn as_str(self) -> &'static str {
        match self {
            ProbeOutcome::NotProbe => "none",
            ProbeOutcome::Stayed => "stayed",
            ProbeOutcome::Returned => "returned",
        }
    }

    /// Inverse of [`as_str`](ProbeOutcome::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(ProbeOutcome::NotProbe),
            "stayed" => Some(ProbeOutcome::Stayed),
            "returned" => Some(ProbeOutcome::Returned),
            _ => None,
        }
    }
}

/// A request-lifecycle stage inside the serve stack. One request
/// produces one [`TraceEvent::Stage`] per stage it passes through:
/// `parse → queue → (batch_wait | sweep → merge) → respond`.
/// Coalesced followers skip `sweep`/`merge` and instead record
/// `batch_wait` referencing the leader that ran the sweep for them.
///
/// The `Shard*` kinds are shard-*supervisor* lifecycle events
/// (`aalign-shard`), not per-request stages: `request` carries the
/// query sequence number when one was in flight (0 for background
/// lifecycle like heartbeat-driven respawns) and `ref_request`
/// carries the shard index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Front-end wire parsing (HTTP body / JSON-RPC line → request).
    Parse,
    /// Time spent in the bounded admission queue.
    Queue,
    /// A coalesced follower waiting on its leader's sweep.
    BatchWait,
    /// The engine sweep (prepare + align + rank).
    Sweep,
    /// Merging per-worker results into the final report.
    Merge,
    /// Rendering and writing the response back to the client.
    Respond,
    /// A shard child process was (re)spawned and passed readiness.
    ShardSpawn,
    /// A shard child's death was detected (crash, EOF, failed ping).
    ShardExit,
    /// A query's shard request was retried on a respawned child.
    ShardRetry,
    /// A shard's circuit breaker tripped: the shard is marked dead
    /// and its range reported uncovered until the supervisor drains.
    ShardBreaker,
}

impl StageKind {
    /// Every stage, in lifecycle order (used by exporters).
    pub const ALL: [StageKind; 10] = [
        StageKind::Parse,
        StageKind::Queue,
        StageKind::BatchWait,
        StageKind::Sweep,
        StageKind::Merge,
        StageKind::Respond,
        StageKind::ShardSpawn,
        StageKind::ShardExit,
        StageKind::ShardRetry,
        StageKind::ShardBreaker,
    ];

    /// Stable wire name (used by the JSONL format).
    pub fn as_str(self) -> &'static str {
        match self {
            StageKind::Parse => "parse",
            StageKind::Queue => "queue",
            StageKind::BatchWait => "batch_wait",
            StageKind::Sweep => "sweep",
            StageKind::Merge => "merge",
            StageKind::Respond => "respond",
            StageKind::ShardSpawn => "shard_spawn",
            StageKind::ShardExit => "shard_exit",
            StageKind::ShardRetry => "shard_retry",
            StageKind::ShardBreaker => "shard_breaker",
        }
    }

    /// Inverse of [`as_str`](StageKind::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "parse" => Some(StageKind::Parse),
            "queue" => Some(StageKind::Queue),
            "batch_wait" => Some(StageKind::BatchWait),
            "sweep" => Some(StageKind::Sweep),
            "merge" => Some(StageKind::Merge),
            "respond" => Some(StageKind::Respond),
            "shard_spawn" => Some(StageKind::ShardSpawn),
            "shard_exit" => Some(StageKind::ShardExit),
            "shard_retry" => Some(StageKind::ShardRetry),
            "shard_breaker" => Some(StageKind::ShardBreaker),
            _ => None,
        }
    }

    /// Dense code for compact in-memory encodings (flight recorder
    /// slots). Inverse is [`from_code`](Self::from_code).
    pub fn code(self) -> u8 {
        match self {
            StageKind::Parse => 0,
            StageKind::Queue => 1,
            StageKind::BatchWait => 2,
            StageKind::Sweep => 3,
            StageKind::Merge => 4,
            StageKind::Respond => 5,
            StageKind::ShardSpawn => 6,
            StageKind::ShardExit => 7,
            StageKind::ShardRetry => 8,
            StageKind::ShardBreaker => 9,
        }
    }

    /// True for the shard-supervisor lifecycle kinds, which are not
    /// per-request latency stages (exporters that aggregate stage
    /// duration histograms skip them).
    pub fn is_shard_lifecycle(self) -> bool {
        matches!(
            self,
            StageKind::ShardSpawn
                | StageKind::ShardExit
                | StageKind::ShardRetry
                | StageKind::ShardBreaker
        )
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<Self> {
        StageKind::ALL.get(code as usize).copied()
    }
}

/// One per-column decision of the hybrid kernel — the event the whole
/// subsystem exists to surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridEvent {
    /// Subject column index (0-based).
    pub column: u64,
    /// Strategy that processed the column.
    pub strategy: StrategyKind,
    /// Lazy-loop whole-column sweeps the correction needed (iterate
    /// columns only; always 0 for scan columns).
    pub lazy_sweeps: u32,
    /// True when this column's counter exceeded the policy threshold
    /// and triggered an iterate→scan switch.
    pub switched: bool,
    /// Probe outcome, when this column was a post-burst probe.
    pub probe: ProbeOutcome,
}

/// A structured trace event. One query produces one `QueryBegin` …
/// `QueryEnd` envelope; inside it, engine stages emit span events and
/// every aligned subject emits an `AlignBegin` … `AlignEnd` pair
/// enclosing its per-column [`HybridEvent`]s — none for a subject the
/// lane kernel scored.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A query entered the engine.
    QueryBegin {
        /// Query sequence id.
        query: String,
        /// Database subjects the sweep will score.
        subjects: u64,
    },
    /// An engine stage started.
    SpanBegin {
        /// Stage name (`prepare` / `sweep` / `merge` / `stats` / …).
        span: String,
        /// Microseconds since `QueryBegin`.
        at_us: u64,
    },
    /// An engine stage finished.
    SpanEnd {
        /// Stage name, matching the `SpanBegin`.
        span: String,
        /// Microseconds since `QueryBegin` at which the stage ended.
        at_us: u64,
        /// Stage duration in microseconds.
        dur_us: u64,
    },
    /// A worker began aligning one database subject.
    AlignBegin {
        /// Database index of the subject.
        subject: u64,
        /// Subject length in residues.
        len: u64,
        /// Pool-local worker id.
        worker: u64,
    },
    /// One hybrid column decision (between `AlignBegin`/`AlignEnd`).
    Hybrid(HybridEvent),
    /// A narrow-width kernel run saturated and the engine re-aligned
    /// the subject at a wider element width (between
    /// `AlignBegin`/`AlignEnd`; the discarded narrow run's column
    /// events are dropped, so the envelope's columns describe only
    /// the kept run).
    Rescue {
        /// Database index of the subject being rescued.
        subject: u64,
        /// Element width (bits) of the saturated run.
        from_bits: u64,
        /// Element width (bits) of the retry.
        to_bits: u64,
    },
    /// A worker finished aligning one database subject.
    AlignEnd {
        /// Database index of the subject.
        subject: u64,
        /// Alignment score.
        score: i64,
        /// Columns the final (kept) kernel run processed with iterate.
        iterate_columns: u64,
        /// Columns the final (kept) kernel run processed with scan.
        scan_columns: u64,
        /// Columns the lane kernel scored: the subject's length when a
        /// lane batch kept it (no column events precede it then), 0
        /// when the striped kernels scored it.
        inter_columns: u64,
        /// Wall time of the alignment in microseconds (for a lane
        /// subject, an equal share of its batch's).
        dur_us: u64,
    },
    /// The query finished.
    QueryEnd {
        /// Microseconds since `QueryBegin`.
        at_us: u64,
        /// Ranked hits returned.
        hits: u64,
    },
    /// A request-lifecycle stage completed inside the serve stack.
    /// Unlike the engine events above, stage events carry the
    /// originating `request` id so a JSONL stream interleaving many
    /// concurrent requests stays attributable.
    Stage {
        /// Request id assigned at the front end (never 0).
        request: u64,
        /// Which stage completed.
        stage: StageKind,
        /// Microseconds since the recorder's epoch at completion.
        at_us: u64,
        /// Stage duration in microseconds.
        dur_us: u64,
        /// For `batch_wait`: the request id of the leader whose sweep
        /// this request coalesced onto. 0 everywhere else.
        ref_request: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for s in [StrategyKind::Iterate, StrategyKind::Scan] {
            assert_eq!(StrategyKind::parse(s.as_str()), Some(s));
        }
        for p in [
            ProbeOutcome::NotProbe,
            ProbeOutcome::Stayed,
            ProbeOutcome::Returned,
        ] {
            assert_eq!(ProbeOutcome::parse(p.as_str()), Some(p));
        }
        assert_eq!(StrategyKind::parse("neither"), None);
        assert_eq!(ProbeOutcome::parse("maybe"), None);
        for s in StageKind::ALL {
            assert_eq!(StageKind::parse(s.as_str()), Some(s));
            assert_eq!(StageKind::from_code(s.code()), Some(s));
        }
        assert_eq!(StageKind::parse("warp"), None);
        assert_eq!(StageKind::from_code(StageKind::ALL.len() as u8), None);
    }

    #[test]
    fn shard_lifecycle_kinds_are_flagged() {
        let lifecycle: Vec<StageKind> = StageKind::ALL
            .into_iter()
            .filter(|s| s.is_shard_lifecycle())
            .collect();
        assert_eq!(
            lifecycle,
            vec![
                StageKind::ShardSpawn,
                StageKind::ShardExit,
                StageKind::ShardRetry,
                StageKind::ShardBreaker,
            ]
        );
        assert!(!StageKind::Sweep.is_shard_lifecycle());
    }

    #[test]
    fn hybrid_event_is_small_and_copy() {
        // The kernel emits one of these per subject column; keep it a
        // register-friendly value type.
        assert!(core::mem::size_of::<HybridEvent>() <= 24);
        let ev = HybridEvent {
            column: 7,
            strategy: StrategyKind::Iterate,
            lazy_sweeps: 2,
            switched: false,
            probe: ProbeOutcome::NotProbe,
        };
        let copy = ev; // Copy, not move
        assert_eq!(ev, copy);
    }
}
