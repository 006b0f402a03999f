//! Striped-iterate alignment (paper Alg. 2): the whole subject via
//! [`ColumnEngine::iterate_column`].

use aalign_bio::StripedProfile;
use aalign_obs::{HybridEvent, NullSink, ProbeOutcome, StrategyKind, TraceSink};
use aalign_vec::SimdEngine;

use crate::config::TableII;
use crate::striped::columns::{ColumnEngine, KernelResult, Workspace};

/// Align `subject` (as alphabet indices) against a striped profile
/// using the striped-iterate strategy.
#[inline(always)]
pub fn iterate_align<E: SimdEngine, const LOCAL: bool, const AFFINE: bool>(
    eng: E,
    prof: &StripedProfile<E::Elem>,
    subject: &[u8],
    t2: TableII,
    ws: &mut Workspace<E::Elem>,
) -> KernelResult {
    iterate_align_sink::<E, LOCAL, AFFINE, _>(eng, prof, subject, t2, ws, &mut NullSink)
}

/// [`iterate_align`] with a per-column trace sink: each column emits
/// one `iterate` [`HybridEvent`] carrying its lazy-sweep count.
/// Monomorphized against [`NullSink`] this is exactly `iterate_align`.
#[inline(always)]
pub fn iterate_align_sink<E: SimdEngine, const LOCAL: bool, const AFFINE: bool, S: TraceSink>(
    eng: E,
    prof: &StripedProfile<E::Elem>,
    subject: &[u8],
    t2: TableII,
    ws: &mut Workspace<E::Elem>,
    sink: &mut S,
) -> KernelResult {
    let mut cols = ColumnEngine::<E, LOCAL, AFFINE>::new(eng, prof, t2, ws);
    for (i, &s) in subject.iter().enumerate() {
        let sweeps = cols.iterate_column(s);
        sink.on_hybrid(HybridEvent {
            column: i as u64,
            strategy: StrategyKind::Iterate,
            lazy_sweeps: sweeps,
            switched: false,
            probe: ProbeOutcome::NotProbe,
        });
        // A saturated run's scores are untrusted whatever the
        // remaining columns hold; stop early so the width-retry (or
        // the engine's overflow rescue) pays a prefix, not a sweep.
        if cols.saturated() {
            break;
        }
    }
    cols.finish()
}
