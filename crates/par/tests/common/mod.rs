//! Tracing observes a sweep and never changes it: the check the sweep
//! suites share.

use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::Aligner;
use aalign_obs::TraceReport;
use aalign_par::{SearchEngine, SearchOptions, SearchReport};

/// Run `opts` untraced and traced and return both reports, after
/// checking that the traced one equals the untraced one in its hits and
/// in every counter the sweep keeps — `RunStats`, `lane_width`,
/// `rescued`, `width_retries`, `rescue_widths` — and that its trace
/// reconciles, one timeline per subject scored.
pub fn traced_and_untraced(
    engine: &SearchEngine,
    aligner: &Aligner,
    (q, db): (&Sequence, &SeqDatabase),
    opts: &SearchOptions,
    ctx: &str,
) -> (SearchReport, SearchReport) {
    let plain = engine.search(aligner, q, db, opts).unwrap();
    let traced = engine
        .search(aligner, q, db, &opts.clone().trace(true))
        .unwrap();
    let (m, t) = (&plain.metrics, &traced.metrics);
    assert_eq!(traced.hits, plain.hits, "{ctx}");
    assert_eq!(t.kernel_stats, m.kernel_stats, "{ctx}");
    assert_eq!(t.lane_width, m.lane_width, "{ctx}");
    assert_eq!(t.rescued, m.rescued, "{ctx}");
    assert_eq!(t.width_retries, m.width_retries, "{ctx}");
    assert_eq!(t.rescue_widths, m.rescue_widths, "{ctx}");
    assert!(
        plain.trace_events.is_empty(),
        "{ctx}: untraced, nothing kept"
    );
    let report = TraceReport::from_events(&traced.trace_events).unwrap();
    assert!(report.reconciled(), "{ctx}: {:?}", report.unreconciled());
    assert_eq!(report.timelines.len(), traced.subjects, "{ctx}");
    (plain, traced)
}
