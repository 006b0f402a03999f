//! The hybrid vectorization strategy (paper Sec. V-B).
//!
//! Start in striped-iterate; per column, count how many lazy-loop
//! sweeps the correction needed. When the counter exceeds a threshold
//! the aligned region is "too similar" for iterate to pay off, so
//! switch to striped-scan for the next `stride` subject characters,
//! then *probe*: run one iterate column and let its counter decide
//! whether to stay in iterate or go back to scan.
//!
//! The switch is conservative (iterate → scan only on evidence) and
//! the return is aggressive (periodic probes) for the reason the
//! paper gives: most database subjects are dissimilar to the query,
//! where iterate converges much faster.

use aalign_bio::StripedProfile;
use aalign_obs::{HybridEvent, NullSink, ProbeOutcome, StrategyKind, TraceSink};
use aalign_vec::SimdEngine;

use crate::config::TableII;
use crate::striped::columns::{ColumnEngine, KernelResult, Workspace};

/// Tuning of the hybrid switcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridPolicy {
    /// Switch to scan when a column's lazy sweeps exceed this.
    /// The paper calibrates 3 for 256-bit CPU and 2 for 512-bit MIC.
    pub threshold: u32,
    /// Scan columns to run before probing iterate again.
    pub probe_stride: usize,
}

impl HybridPolicy {
    /// The paper's calibrated defaults by vector width: threshold 2
    /// for 512-bit shapes (≥ 16 lanes), 3 otherwise; stride 128.
    pub fn for_lanes(lanes: usize) -> Self {
        Self {
            threshold: if lanes >= 16 { 2 } else { 3 },
            probe_stride: 128,
        }
    }
}

/// Hybrid run report: the kernel result plus the switch counts.
#[derive(Debug, Clone)]
pub struct HybridReport {
    /// The alignment result (identical scores to pure iterate/scan).
    pub result: KernelResult,
    /// Number of iterate→scan switches taken.
    pub switches_to_scan: usize,
    /// Number of probes that returned to iterate.
    pub probes_stayed: usize,
}

/// Align with the hybrid strategy under `policy`. For the per-column
/// decisions, run [`hybrid_align_sink`] with a collecting sink.
///
/// ```
/// use aalign_core::striped::{hybrid_align, HybridPolicy, Workspace};
/// use aalign_core::{AlignConfig, GapModel};
/// use aalign_bio::{matrices::BLOSUM62, Sequence, StripedProfile};
/// use aalign_vec::EmuEngine;
///
/// let q = Sequence::protein("q", b"HEAGAWGHEE").unwrap();
/// let s = Sequence::protein("s", b"PAWHEAE").unwrap();
/// let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
/// let prof = StripedProfile::<i32>::build(&q, &cfg.matrix, 8);
/// let mut ws = Workspace::new();
/// let rep = hybrid_align::<_, true, true>(
///     EmuEngine::<i32, 8>::new(),
///     &prof,
///     s.indices(),
///     cfg.table2(),
///     HybridPolicy { threshold: 2, probe_stride: 64 },
///     &mut ws,
/// );
/// assert_eq!(rep.result.score, 17);
/// assert_eq!(rep.result.iterate_columns + rep.result.scan_columns, s.len());
/// ```
#[inline(always)]
pub fn hybrid_align<E: SimdEngine, const LOCAL: bool, const AFFINE: bool>(
    eng: E,
    prof: &StripedProfile<E::Elem>,
    subject: &[u8],
    t2: TableII,
    policy: HybridPolicy,
    ws: &mut Workspace<E::Elem>,
) -> HybridReport {
    hybrid_align_sink::<E, LOCAL, AFFINE, _>(eng, prof, subject, t2, policy, ws, &mut NullSink)
}

/// [`hybrid_align`] with a per-column trace sink: every column emits
/// one [`HybridEvent`] recording the strategy that processed it, its
/// lazy-sweep count, whether it triggered an iterate→scan switch, and
/// — for post-burst probe columns — whether the probe stayed in
/// iterate or sent the kernel back to scan.
///
/// Monomorphized against [`NullSink`] (which is what [`hybrid_align`]
/// does) the emission sites compile away and this is exactly the
/// untraced kernel; the `obs_overhead` bench in `crates/bench` guards
/// that equivalence at <1% measured overhead.
#[inline(always)]
pub fn hybrid_align_sink<E: SimdEngine, const LOCAL: bool, const AFFINE: bool, S: TraceSink>(
    eng: E,
    prof: &StripedProfile<E::Elem>,
    subject: &[u8],
    t2: TableII,
    policy: HybridPolicy,
    ws: &mut Workspace<E::Elem>,
    sink: &mut S,
) -> HybridReport {
    let mut cols = ColumnEngine::<E, LOCAL, AFFINE>::new(eng, prof, t2, ws);
    let mut switches_to_scan = 0usize;
    let mut probes_stayed = 0usize;

    let mut i = 0usize;
    let n = subject.len();
    // `true` while in iterate mode; scan mode runs in stride bursts.
    let mut iterating = true;
    // Saturated runs stop early (see `ColumnEngine::saturated`): the
    // scores are untrusted whatever the remaining columns hold.
    while i < n && !cols.saturated() {
        if iterating {
            let sweeps = cols.iterate_column(subject[i]);
            let switched = sweeps > policy.threshold;
            sink.on_hybrid(HybridEvent {
                column: i as u64,
                strategy: StrategyKind::Iterate,
                lazy_sweeps: sweeps,
                switched,
                probe: ProbeOutcome::NotProbe,
            });
            i += 1;
            if switched {
                iterating = false;
                switches_to_scan += 1;
            }
        } else {
            // A burst of scan columns…
            let burst_end = (i + policy.probe_stride).min(n);
            while i < burst_end && !cols.saturated() {
                cols.scan_column(subject[i]);
                sink.on_hybrid(HybridEvent {
                    column: i as u64,
                    strategy: StrategyKind::Scan,
                    lazy_sweeps: 0,
                    switched: false,
                    probe: ProbeOutcome::NotProbe,
                });
                i += 1;
            }
            // …then a probe column decides the next mode.
            if i < n && !cols.saturated() {
                let sweeps = cols.iterate_column(subject[i]);
                let stayed = sweeps <= policy.threshold;
                sink.on_hybrid(HybridEvent {
                    column: i as u64,
                    strategy: StrategyKind::Iterate,
                    lazy_sweeps: sweeps,
                    switched: !stayed,
                    probe: if stayed {
                        ProbeOutcome::Stayed
                    } else {
                        ProbeOutcome::Returned
                    },
                });
                i += 1;
                if stayed {
                    iterating = true;
                    probes_stayed += 1;
                } else {
                    switches_to_scan += 1;
                }
            }
        }
    }

    HybridReport {
        result: cols.finish(),
        switches_to_scan,
        probes_stayed,
    }
}
