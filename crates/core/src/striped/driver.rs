//! The one striped driver: a column loop whose mode is a [`Columns`].
//!
//! The loop is the paper's hybrid (Sec. V-B). Start in striped-iterate;
//! per column, count how many lazy-loop sweeps the correction needed.
//! When the counter exceeds a threshold the aligned region is "too
//! similar" for iterate to pay off, so switch to striped-scan for the
//! next `stride` subject characters, then *probe*: run one iterate
//! column and let its counter decide whether to stay in iterate or go
//! back to scan.
//!
//! The switch is conservative (iterate → scan only on evidence) and
//! the return is aggressive (periodic probes) for the reason the
//! paper gives: most database subjects are dissimilar to the query,
//! where iterate converges much faster.
//!
//! The two pure strategies are modes of the same loop: striped-iterate
//! (Alg. 2) is the hybrid that never switches, and striped-scan
//! (Alg. 3) is one scan burst as long as the subject.

use aalign_bio::StripedProfile;
use aalign_obs::{HybridEvent, ProbeOutcome, StrategyKind, TraceSink};
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

/// Which strategy the driver runs each column with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Columns {
    /// Every column striped-iterate (Alg. 2).
    Iterate,
    /// Every column striped-scan (Alg. 3).
    Scan,
    /// The runtime switcher (Sec. V-B) under a policy.
    Hybrid(HybridPolicy),
}

impl Columns {
    /// The loop's `(start iterating, threshold, probe stride)`: a
    /// threshold no sweep count exceeds never leaves the start mode's
    /// first burst, and a `usize::MAX` stride makes a scan burst run
    /// to the end of the subject.
    #[inline(always)]
    fn plan(self) -> (bool, u32, usize) {
        match self {
            Columns::Iterate => (true, u32::MAX, usize::MAX),
            Columns::Scan => (false, u32::MAX, usize::MAX),
            Columns::Hybrid(p) => (true, p.threshold, p.probe_stride),
        }
    }
}

/// Driver report: the kernel result plus the switch counts (both 0
/// outside [`Columns::Hybrid`]).
#[derive(Debug, Clone)]
pub struct HybridReport {
    /// The alignment result (scores are the same in every mode).
    pub result: KernelResult,
    /// Number of iterate→scan switches taken.
    pub switches_to_scan: usize,
    /// Number of probes that returned to iterate.
    pub probes_stayed: usize,
}

/// Align `subject` (as alphabet indices) against a striped profile,
/// each column run as `columns` says. Every column emits one
/// [`HybridEvent`] to `sink`; a [`NullSink`](aalign_obs::NullSink)
/// compiles the emission away.
///
/// This is the one place the runtime `local`/`affine` flags of `t2`
/// become the const parameters of [`column_loop`].
///
/// ```
/// use aalign_core::striped::{align_columns, Columns, HybridPolicy, Workspace};
/// use aalign_core::{AlignConfig, GapModel};
/// use aalign_bio::{matrices::BLOSUM62, Sequence, StripedProfile};
/// use aalign_obs::NullSink;
/// use aalign_vec::EmuEngine;
///
/// let q = Sequence::protein("q", b"HEAGAWGHEE").unwrap();
/// let s = Sequence::protein("s", b"PAWHEAE").unwrap();
/// let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
/// let prof = StripedProfile::<i32>::build(&q, &cfg.matrix, 8);
/// let mut ws = Workspace::new();
/// let rep = align_columns(
///     EmuEngine::<i32, 8>::new(),
///     &prof,
///     s.indices(),
///     cfg.table2(),
///     Columns::Hybrid(HybridPolicy { threshold: 2, probe_stride: 64 }),
///     &mut ws,
///     &mut NullSink,
/// );
/// assert_eq!(rep.result.score, 17);
/// assert_eq!(rep.result.iterate_columns + rep.result.scan_columns, s.len());
/// ```
#[inline(always)]
pub fn align_columns<E: SimdEngine, S: TraceSink>(
    eng: E,
    prof: &StripedProfile<E::Elem>,
    subject: &[u8],
    t2: TableII,
    columns: Columns,
    ws: &mut Workspace<E::Elem>,
    sink: &mut S,
) -> HybridReport {
    match (t2.local, t2.affine) {
        (true, true) => column_loop::<E, true, true, S>(eng, prof, subject, t2, columns, ws, sink),
        (true, false) => {
            column_loop::<E, true, false, S>(eng, prof, subject, t2, columns, ws, sink)
        }
        (false, true) => {
            column_loop::<E, false, true, S>(eng, prof, subject, t2, columns, ws, sink)
        }
        (false, false) => {
            column_loop::<E, false, false, S>(eng, prof, subject, t2, columns, ws, sink)
        }
    }
}

/// [`align_columns`] with the configuration's `LOCAL`/`AFFINE` already
/// const: the loop itself, which a generated kernel module calls with
/// the flags it extracted. Every column emits one [`HybridEvent`]
/// recording the strategy that processed it, its lazy-sweep count,
/// whether it triggered an iterate→scan switch, and — for post-burst
/// probe columns — whether the probe stayed in iterate or sent the
/// kernel back to scan.
#[inline(always)]
pub fn column_loop<E: SimdEngine, const LOCAL: bool, const AFFINE: bool, S: TraceSink>(
    eng: E,
    prof: &StripedProfile<E::Elem>,
    subject: &[u8],
    t2: TableII,
    columns: Columns,
    ws: &mut Workspace<E::Elem>,
    sink: &mut S,
) -> HybridReport {
    let (mut iterating, threshold, stride) = columns.plan();
    let mut cols = ColumnEngine::<E, LOCAL, AFFINE>::new(eng, prof, t2, ws);
    let mut switches_to_scan = 0usize;
    let mut probes_stayed = 0usize;

    let mut i = 0usize;
    let n = subject.len();
    // Saturated runs stop early (see `ColumnEngine::saturated`): the
    // scores are untrusted whatever the remaining columns hold, so the
    // width retry (or the engine's overflow rescue) pays a prefix.
    while i < n && !cols.saturated() {
        if iterating {
            let sweeps = cols.iterate_column(subject[i]);
            let switched = sweeps > threshold;
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
            let burst_end = i.saturating_add(stride).min(n);
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
                let stayed = sweeps <= threshold;
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
