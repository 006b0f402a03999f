//! Trace integrity at the kernel boundary.
//!
//! Two guarantees, both load-bearing for the observability layer:
//!
//! 1. **Equivalence** — running with a live trace sink changes
//!    nothing observable: scores, backends, and `RunStats` are
//!    bit-identical to the untraced path.
//! 2. **Reconciliation** — the per-column `HybridEvent` stream
//!    *exactly* explains the `RunStats` the kernel reports: column
//!    counts per strategy, switch counts, probe outcomes, and the
//!    lazy-sweep total all match, and columns arrive in order.

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, nine_similarity_specs, seeded_rng};
use aalign_core::striped::HybridPolicy;
use aalign_core::{AlignConfig, AlignScratch, Aligner, GapModel, RunStats, Strategy, WidthPolicy};
use aalign_obs::{CollectorSink, ProbeOutcome, StrategyKind, TraceEvent};

/// Totals recomputed from a column-event stream.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counted {
    iterate_columns: usize,
    scan_columns: usize,
    switches_to_scan: usize,
    probes_stayed: usize,
    lazy_sweeps: u64,
}

fn count(events: &[TraceEvent]) -> Counted {
    let mut c = Counted::default();
    for (i, ev) in events.iter().enumerate() {
        let h = match ev {
            TraceEvent::Hybrid(h) => h,
            other => panic!("kernel emitted a non-column event: {other:?}"),
        };
        assert_eq!(h.column, i as u64, "columns must arrive in order");
        match h.strategy {
            StrategyKind::Iterate => c.iterate_columns += 1,
            StrategyKind::Scan => {
                c.scan_columns += 1;
                assert_eq!(h.lazy_sweeps, 0, "scan columns have no lazy loop");
            }
        }
        if h.switched {
            c.switches_to_scan += 1;
        }
        if h.probe == ProbeOutcome::Stayed {
            c.probes_stayed += 1;
        }
        c.lazy_sweeps += u64::from(h.lazy_sweeps);
    }
    c
}

fn reconciles(counted: &Counted, stats: &RunStats, subject_len: usize) {
    assert_eq!(counted.iterate_columns, stats.iterate_columns);
    assert_eq!(counted.scan_columns, stats.scan_columns);
    assert_eq!(counted.switches_to_scan, stats.switches_to_scan);
    assert_eq!(counted.probes_stayed, stats.probes_stayed);
    assert_eq!(counted.lazy_sweeps, stats.lazy_sweeps);
    assert_eq!(
        counted.iterate_columns + counted.scan_columns,
        subject_len,
        "every subject column is accounted for exactly once"
    );
}

#[test]
fn traced_runs_are_bit_identical_and_reconcile() {
    let mut rng = seeded_rng(4242);
    let q = named_query(&mut rng, 150);
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    // Aggressive switching so hybrid traces exercise all arms.
    let policy = HybridPolicy {
        threshold: 1,
        probe_stride: 16,
    };
    for strat in [
        Strategy::Hybrid,
        Strategy::StripedIterate,
        Strategy::StripedScan,
    ] {
        let aligner = Aligner::new(cfg.clone())
            .with_strategy(strat)
            .with_hybrid_policy(policy);
        let pq = aligner.prepare(&q).unwrap();
        let mut scratch = AlignScratch::new();
        for spec in nine_similarity_specs() {
            let s = spec.generate(&mut rng, &q).subject;
            let plain = aligner.align_prepared(&pq, &s, &mut scratch).unwrap();
            let mut sink = CollectorSink::new();
            let traced = aligner
                .align_prepared_sink(&pq, &s, &mut scratch, &mut sink)
                .unwrap();

            assert_eq!(traced.score, plain.score, "{strat:?}");
            assert_eq!(traced.stats, plain.stats, "{strat:?}");
            assert_eq!(traced.backend, plain.backend, "{strat:?}");
            assert_eq!(traced.elem_bits, plain.elem_bits, "{strat:?}");

            let counted = count(&sink.events);
            reconciles(&counted, &traced.stats, s.len());
        }
    }
}

#[test]
fn hybrid_trace_contains_switches_and_probes() {
    let mut rng = seeded_rng(77);
    let q = named_query(&mut rng, 200);
    // A highly similar subject forces the lazy loop to run long,
    // guaranteeing iterate→scan switches and probe columns.
    let s = aalign_bio::synth::PairSpec::new(
        aalign_bio::synth::Level::Hi,
        aalign_bio::synth::Level::Hi,
    )
    .generate(&mut rng, &q)
    .subject;
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let aligner = Aligner::new(cfg)
        .with_strategy(Strategy::Hybrid)
        .with_width(WidthPolicy::Fixed32)
        .with_hybrid_policy(HybridPolicy {
            threshold: 1,
            probe_stride: 16,
        });
    let pq = aligner.prepare(&q).unwrap();
    let mut scratch = AlignScratch::new();
    let mut sink = CollectorSink::new();
    let out = aligner
        .align_prepared_sink(&pq, &s, &mut scratch, &mut sink)
        .unwrap();
    assert!(out.stats.switches_to_scan > 0, "{:?}", out.stats);
    assert!(out.stats.scan_columns > 0);
    let counted = count(&sink.events);
    reconciles(&counted, &out.stats, s.len());
    // At least one probe column must be marked as such.
    let probes = sink
        .events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::Hybrid(h) if h.probe != ProbeOutcome::NotProbe))
        .count();
    assert!(probes > 0, "scan bursts must end in probe columns");
}

#[test]
fn global_and_semiglobal_traces_reconcile_too() {
    let mut rng = seeded_rng(909);
    let q = named_query(&mut rng, 90);
    let s = named_query(&mut rng, 120);
    for cfg in [
        AlignConfig::global(GapModel::affine(-10, -2), &BLOSUM62),
        AlignConfig::semi_global(GapModel::linear(-3), &BLOSUM62),
    ] {
        let aligner = Aligner::new(cfg).with_strategy(Strategy::Hybrid);
        let pq = aligner.prepare(&q).unwrap();
        let mut scratch = AlignScratch::new();
        let mut sink = CollectorSink::new();
        let out = aligner
            .align_prepared_sink(&pq, &s, &mut scratch, &mut sink)
            .unwrap();
        reconciles(&count(&sink.events), &out.stats, s.len());
    }
}
