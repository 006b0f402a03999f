//! Striped-scan alignment (paper Alg. 3): the whole subject via
//! [`ColumnEngine::scan_column`].

use aalign_bio::StripedProfile;
use aalign_obs::{HybridEvent, NullSink, ProbeOutcome, StrategyKind, TraceSink};
use aalign_vec::SimdEngine;

use crate::config::TableII;
use crate::striped::columns::{ColumnEngine, KernelResult, Workspace};

/// Align `subject` (as alphabet indices) against a striped profile
/// using the striped-scan strategy.
#[inline(always)]
pub fn scan_align<E: SimdEngine, const LOCAL: bool, const AFFINE: bool>(
    eng: E,
    prof: &StripedProfile<E::Elem>,
    subject: &[u8],
    t2: TableII,
    ws: &mut Workspace<E::Elem>,
) -> KernelResult {
    scan_align_sink::<E, LOCAL, AFFINE, _>(eng, prof, subject, t2, ws, &mut NullSink)
}

/// [`scan_align`] with a per-column trace sink: each column emits one
/// `scan` [`HybridEvent`] (scan columns have no lazy loop, so the
/// sweep count is always 0). Monomorphized against [`NullSink`] this
/// is exactly `scan_align`.
#[inline(always)]
pub fn scan_align_sink<E: SimdEngine, const LOCAL: bool, const AFFINE: bool, S: TraceSink>(
    eng: E,
    prof: &StripedProfile<E::Elem>,
    subject: &[u8],
    t2: TableII,
    ws: &mut Workspace<E::Elem>,
    sink: &mut S,
) -> KernelResult {
    let mut cols = ColumnEngine::<E, LOCAL, AFFINE>::new(eng, prof, t2, ws);
    for (i, &s) in subject.iter().enumerate() {
        cols.scan_column(s);
        sink.on_hybrid(HybridEvent {
            column: i as u64,
            strategy: StrategyKind::Scan,
            lazy_sweeps: 0,
            switched: false,
            probe: ProbeOutcome::NotProbe,
        });
        // Saturated: abandon the doomed narrow run early (see
        // `ColumnEngine::saturated`).
        if cols.saturated() {
            break;
        }
    }
    cols.finish()
}
