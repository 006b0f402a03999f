//! The deterministic fault-injection harness: drives every recovery
//! path of the engine's fault model (DESIGN.md §11) from ordinary
//! `cargo test` runs.
//!
//! Deadline and rescue tests need no plan; the scripted faults
//! (panics, kills, forced saturation, stalls) attach a `FaultPlan`,
//! which every build compiles in.

use std::time::Duration;

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::paradigm::paradigm_dp;
use aalign_core::{AlignConfig, AlignError, Aligner, GapModel, Strategy, WidthPolicy};
use aalign_obs::{Histogram, TraceEvent};
use aalign_par::{SearchEngine, SearchOptions, SearchReport};

mod common;
use common::traced_and_untraced;

fn cfg() -> AlignConfig {
    AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62)
}

fn aligner() -> Aligner {
    Aligner::new(cfg()).with_strategy(Strategy::Hybrid)
}

/// Reference ranking: score every subject directly.
fn reference_scores(a: &Aligner, q: &Sequence, db: &SeqDatabase) -> Vec<i32> {
    (0..db.len())
        .map(|i| a.align(q, db.get(i)).unwrap().score)
        .collect()
}

#[test]
fn zero_deadline_returns_partial_with_no_incorrect_hits() {
    let mut rng = seeded_rng(7000);
    let q = named_query(&mut rng, 80);
    let db = swissprot_like_db(7001, 60);
    let a = aligner();
    let engine = SearchEngine::new(2);
    let report = engine
        .search(&a, &q, &db, &SearchOptions::new().deadline(Duration::ZERO))
        .unwrap();
    assert!(report.partial, "an expired deadline must mark the report");
    assert!(
        report
            .errors
            .iter()
            .any(|e| matches!(e, AlignError::DeadlineExceeded)),
        "{:?}",
        report.errors
    );
    assert!(report.subjects < db.len(), "the sweep must have stopped");
    // Whatever did complete is correct — a deadline never fabricates
    // or corrupts a score.
    let want = reference_scores(&a, &q, &db);
    for hit in &report.hits {
        assert_eq!(hit.score, want[hit.db_index], "subject {}", hit.db_index);
    }
}

#[test]
fn no_deadline_leaves_results_unchanged() {
    let mut rng = seeded_rng(7100);
    let q = named_query(&mut rng, 70);
    let db = swissprot_like_db(7101, 40);
    let a = aligner();
    let engine = SearchEngine::new(3);
    let plain = engine.search(&a, &q, &db, &SearchOptions::new()).unwrap();
    let generous = engine
        .search(
            &a,
            &q,
            &db,
            &SearchOptions::new().deadline(Duration::from_secs(3600)),
        )
        .unwrap();
    assert!(!plain.partial && plain.errors.is_empty());
    assert!(!generous.partial && generous.errors.is_empty());
    assert_eq!(plain.hits, generous.hits, "an unmet deadline is free");
    assert_eq!(plain.subjects, db.len());
}

const FIXED: [WidthPolicy; 3] = [
    WidthPolicy::Fixed8,
    WidthPolicy::Fixed16,
    WidthPolicy::Fixed32,
];

/// Subjects rescued, and each rescue step as `(from_bits, to_bits)`.
type Rescues = (u64, &'static [(u64, u64)]);

/// A histogram holding exactly these samples.
fn samples(bits: impl IntoIterator<Item = u64>) -> Histogram {
    let mut h = Histogram::new();
    bits.into_iter().for_each(|b| h.record(b));
    h
}

/// Search untraced, traced (which must count the same), and pinned to
/// the per-subject path (the lane rule declines a pinned strategy), and
/// check every rescue step exactly: `rescued` subjects, one
/// `rescue_widths` sample per step (the width it widened from), and one
/// `TraceEvent::Rescue { from_bits, to_bits }` per step, in stream
/// order — so a ladder that skips or repeats a rung fails. Returns the
/// untraced report.
fn assert_rescues(
    engine: &SearchEngine,
    a: &Aligner,
    (q, db): (&Sequence, &SeqDatabase),
    (rescued, steps): Rescues,
) -> SearchReport {
    let (report, traced) =
        traced_and_untraced(engine, a, (q, db), &SearchOptions::new(), &format!("{a:?}"));
    let per_subject = a.clone().with_strategy(Strategy::StripedIterate);
    let striped = engine
        .search(&per_subject, q, db, &SearchOptions::new())
        .unwrap();
    let from = samples(steps.iter().map(|&(from, _)| from));
    for r in [&report, &striped] {
        assert_eq!(r.metrics.rescued, rescued, "{a:?}");
        assert_eq!(r.metrics.rescue_widths, from, "{a:?}");
        assert!(!r.partial, "a rescue is recovery, not failure");
    }
    assert_eq!(striped.hits, report.hits);
    let traced_steps: Vec<(u64, u64)> = traced
        .trace_events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Rescue {
                from_bits, to_bits, ..
            } => Some((*from_bits, *to_bits)),
            _ => None,
        })
        .collect();
    assert_eq!(traced_steps, steps, "{a:?}");
    report
}

#[test]
fn saturating_fixed8_pair_is_rescued_bit_exactly() {
    // W·W scores 11 in BLOSUM62, so an all-W self-alignment blows
    // through the 8-bit lane ceiling (127) within a dozen residues.
    let w = Sequence::protein("w100", &[b'W'; 100]).unwrap();
    let mut seqs = swissprot_like_db(7201, 10).sequences().to_vec();
    seqs.push(w.clone());
    let db = SeqDatabase::new(seqs);
    let engine = SearchEngine::new(2);
    // The rescued score is the exact wide-width score.
    let exact = aligner()
        .with_width(WidthPolicy::Fixed32)
        .align(&w, &w)
        .unwrap()
        .score;
    assert_eq!(exact, 100 * 11);
    let w_index = db.len() - 1;
    // Per starting width: only i8 saturates, and one step to i16 holds.
    let want: [Rescues; 3] = [(1, &[(8, 16)]), (0, &[]), (0, &[])];
    for (width, want) in FIXED.into_iter().zip(want) {
        let report = assert_rescues(&engine, &aligner().with_width(width), (&w, &db), want);
        let hit = report.hits.iter().find(|h| h.db_index == w_index).unwrap();
        assert_eq!(hit.score, exact, "rescue must recover the exact score");
    }
}

/// A forced narrow width on a semi-global run outside the width's
/// bound used to come back clamped and unflagged (−114 for −119); it
/// is reported saturated now, so the ladder recovers the exact score.
/// Repeated 200 times the query sinks below 16 bits' floor too, so from
/// i8 the ladder climbs both rungs.
#[test]
fn forced_narrow_semi_global_subject_is_rescued_to_the_exact_score() {
    let motif = b"GEDICVHQHGDRRKEHCPFKCDYLLATIYL";
    let q = Sequence::protein("q", motif).unwrap();
    let long = Sequence::protein("q200", &motif.repeat(200)).unwrap();
    let db = SeqDatabase::new(vec![Sequence::protein("s", b"TLFLGRH").unwrap()]);
    let cfg = AlignConfig::new(
        aalign_core::AlignKind::SemiGlobal,
        GapModel::linear(-6),
        &BLOSUM62,
    );
    let engine = SearchEngine::new(1);
    let want: [(&Sequence, [Rescues; 3]); 2] = [
        (&q, [(1, &[(8, 16)]), (0, &[]), (0, &[])]),
        (
            &long,
            [(1, &[(8, 16), (16, 32)]), (1, &[(16, 32)]), (0, &[])],
        ),
    ];
    for (q, per_width) in want {
        let exact = paradigm_dp(&cfg, q, db.get(0)).score;
        for (width, want) in FIXED.into_iter().zip(per_width) {
            let narrow = Aligner::new(cfg.clone()).with_width(width);
            let report = assert_rescues(&engine, &narrow, (q, &db), want);
            assert_eq!(report.hits[0].score, exact, "Q{} {width:?}", q.len());
        }
    }
    assert_eq!(paradigm_dp(&cfg, &q, db.get(0)).score, -119);
}

mod scripted {
    use super::*;
    use aalign_par::FaultPlan;
    use std::sync::Arc;

    /// Silence the default panic hook's backtrace spam for tests that
    /// inject panics on worker threads.
    fn quiet_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("");
                if !msg.starts_with("fault-inject:") {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn injected_panic_is_isolated_and_every_other_result_stays_valid() {
        quiet_panics();
        let mut rng = seeded_rng(7300);
        let q = named_query(&mut rng, 70);
        let db = swissprot_like_db(7301, 40);
        let a = aligner();
        let engine = SearchEngine::new(2);
        let plan = Arc::new(FaultPlan::new().panic_on_slot(3));
        let report = engine
            .search(&a, &q, &db, &SearchOptions::new().fault_plan(plan))
            .unwrap();
        assert!(report.partial);
        assert_eq!(report.subjects, db.len() - 1, "exactly one subject lost");
        let lost = report
            .errors
            .iter()
            .find_map(|e| match e {
                AlignError::WorkerPanicked { db_index, payload } => {
                    assert!(payload.contains("fault-inject"), "{payload}");
                    Some(*db_index)
                }
                _ => None,
            })
            .expect("a WorkerPanicked error must surface");
        // Every subject except the panicked one is present and exact.
        let want = reference_scores(&a, &q, &db);
        assert_eq!(report.hits.len(), db.len() - 1);
        for hit in &report.hits {
            assert_ne!(hit.db_index, lost);
            assert_eq!(hit.score, want[hit.db_index]);
        }
    }

    #[test]
    fn killed_worker_loses_only_its_sweep_and_the_pool_self_heals() {
        quiet_panics();
        let mut rng = seeded_rng(7400);
        let q = named_query(&mut rng, 60);
        let db = swissprot_like_db(7401, 50);
        let a = aligner();
        let engine = SearchEngine::new(2);
        let plan = Arc::new(FaultPlan::new().kill_worker(1));
        // The query with the scripted kill survives: no hang, no
        // abort, a structured WorkerLost error on the report.
        let report = engine
            .search(&a, &q, &db, &SearchOptions::new().fault_plan(plan))
            .unwrap();
        assert!(report.partial);
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, AlignError::WorkerLost { worker_id: 1, .. })),
            "{:?}",
            report.errors
        );
        // The survivor's hits are all exact.
        let want = reference_scores(&a, &q, &db);
        for hit in &report.hits {
            assert_eq!(hit.score, want[hit.db_index]);
        }
        // The next query runs on a healed pool at full strength.
        let healed = engine.search(&a, &q, &db, &SearchOptions::new()).unwrap();
        assert!(!healed.partial && healed.errors.is_empty());
        assert_eq!(healed.hits.len(), db.len());
        assert_eq!(engine.workers_respawned(), 1);
        assert_eq!(healed.metrics.workers_respawned, 1);
        for hit in &healed.hits {
            assert_eq!(hit.score, want[hit.db_index]);
        }
    }

    #[test]
    fn forced_saturation_drives_the_rescue_ladder() {
        let mut rng = seeded_rng(7500);
        let q = named_query(&mut rng, 60);
        let db = swissprot_like_db(7501, 20);
        let a = aligner();
        let engine = SearchEngine::new(2);
        let plain = engine.search(&a, &q, &db, &SearchOptions::new()).unwrap();
        let plan = Arc::new(FaultPlan::new().saturate_slot(2).saturate_slot(5));
        let report = engine
            .search(&a, &q, &db, &SearchOptions::new().fault_plan(plan))
            .unwrap();
        // Forced saturation on a healthy subject: the rescue re-aligns
        // wider and lands on the identical score.
        assert_eq!(report.hits, plain.hits, "rescue must not change results");
        assert_eq!(report.metrics.rescued, 2);
        // Both ran at i16, the first width `Auto` plans, and one step
        // to i32 each took them back.
        assert_eq!(report.metrics.rescue_widths, samples([16, 16]));
        assert!(!report.partial);
    }

    #[test]
    fn stalled_slot_with_short_deadline_yields_partial_not_hang() {
        let mut rng = seeded_rng(7600);
        let q = named_query(&mut rng, 50);
        let db = swissprot_like_db(7601, 30);
        let a = aligner();
        let engine = SearchEngine::new(1);
        let plan = Arc::new(FaultPlan::new().stall_slot(0, Duration::from_millis(40)));
        let report = engine
            .search(
                &a,
                &q,
                &db,
                &SearchOptions::new()
                    .fault_plan(plan)
                    .deadline(Duration::from_millis(5)),
            )
            .unwrap();
        assert!(report.partial, "the stall must trip the deadline");
        assert!(report.subjects < db.len());
        let want = reference_scores(&a, &q, &db);
        for hit in &report.hits {
            assert_eq!(hit.score, want[hit.db_index]);
        }
    }

    /// A database large and even enough that every vector of subjects
    /// is taken lane per subject (where the engine has lanes at all):
    /// the plan's slot faults are then honoured by the batch.
    fn even_db(seed: u64, count: usize) -> SeqDatabase {
        let mut rng = seeded_rng(seed);
        SeqDatabase::new(
            (0..count)
                .map(|i| named_query(&mut rng, 80 + (i * 7) % 40))
                .collect(),
        )
    }

    #[test]
    fn a_batch_honours_the_plans_slot_faults() {
        quiet_panics();
        let mut rng = seeded_rng(7900);
        let q = named_query(&mut rng, 60);
        let db = even_db(7901, 200);
        let a = aligner();
        let engine = SearchEngine::new(2);
        let order = db.length_order();
        let want = reference_scores(&a, &q, &db);
        let plain = engine.search(&a, &q, &db, &SearchOptions::new()).unwrap();
        let lanes = a.prepare(&q).unwrap().batch_lanes();
        assert_eq!(plain.metrics.kernel_stats.inter_columns > 0, lanes > 0);

        // A panic in slot 70: exactly that subject is lost, by its
        // database index, and every other subject of its batch — of
        // the database — is scored.
        let plan = Arc::new(FaultPlan::new().panic_on_slot(70));
        let report = engine
            .search(&a, &q, &db, &SearchOptions::new().fault_plan(plan))
            .unwrap();
        assert!(report.partial);
        let lost: Vec<usize> = report
            .errors
            .iter()
            .filter_map(|e| match e {
                AlignError::WorkerPanicked { db_index, .. } => Some(*db_index),
                _ => None,
            })
            .collect();
        assert_eq!(lost, [order[70]]);
        assert_eq!(report.subjects, db.len() - 1);
        assert_eq!(report.hits.len(), db.len() - 1);
        for hit in &report.hits {
            assert_ne!(hit.db_index, order[70]);
            assert_eq!(hit.score, want[hit.db_index]);
        }

        // Two forced saturations inside batches: both lanes go to the
        // ladder, scores unchanged.
        let plan = Arc::new(FaultPlan::new().saturate_slot(40).saturate_slot(133));
        let report = engine
            .search(&a, &q, &db, &SearchOptions::new().fault_plan(plan))
            .unwrap();
        assert_eq!(report.hits, plain.hits);
        assert_eq!(report.metrics.rescued, 2);
        assert!(!report.partial);

        // A stall in a batch still trips the deadline into an honest
        // partial report.
        let plan = Arc::new(FaultPlan::new().stall_slot(5, Duration::from_millis(60)));
        let report = SearchEngine::new(1)
            .search(
                &a,
                &q,
                &db,
                &SearchOptions::new()
                    .fault_plan(plan)
                    .deadline(Duration::from_millis(10)),
            )
            .unwrap();
        assert!(report.partial, "the stall must trip the deadline");
        assert!(report.subjects < db.len());
        for hit in &report.hits {
            assert_eq!(hit.score, want[hit.db_index]);
        }
    }

    #[test]
    fn seeded_plans_replay_identically() {
        quiet_panics();
        let mut rng = seeded_rng(7700);
        let q = named_query(&mut rng, 60);
        let db = swissprot_like_db(7701, 30);
        let a = aligner();
        let run = || {
            let engine = SearchEngine::new(2);
            let plan = Arc::new(FaultPlan::seeded(99, db.len()));
            let report = engine
                .search(&a, &q, &db, &SearchOptions::new().fault_plan(plan))
                .unwrap();
            let mut panicked: Vec<usize> = report
                .errors
                .iter()
                .filter_map(|e| match e {
                    AlignError::WorkerPanicked { db_index, .. } => Some(*db_index),
                    _ => None,
                })
                .collect();
            panicked.sort_unstable();
            (report.hits.clone(), panicked, report.metrics.rescued)
        };
        let (hits_a, panicked_a, rescued_a) = run();
        let (hits_b, panicked_b, rescued_b) = run();
        assert_eq!(hits_a, hits_b, "same seed, same surviving results");
        assert_eq!(panicked_a, panicked_b, "same seed, same faults");
        assert_eq!(rescued_a, rescued_b);
        assert_eq!(panicked_a.len(), 1, "the seeded plan panics one slot");
    }

    #[test]
    fn parsed_cli_plan_matches_builder_plan() {
        quiet_panics();
        let mut rng = seeded_rng(7800);
        let q = named_query(&mut rng, 50);
        let db = swissprot_like_db(7801, 20);
        let a = aligner();
        let engine = SearchEngine::new(2);
        let parsed = Arc::new(FaultPlan::parse("panic@1").unwrap());
        let report = engine
            .search(&a, &q, &db, &SearchOptions::new().fault_plan(parsed))
            .unwrap();
        assert!(report.partial);
        assert_eq!(report.hits.len(), db.len() - 1);
    }
}
