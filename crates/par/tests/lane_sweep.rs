//! The sweep's two ways to score a claim — a vector of subjects lane
//! per subject, or subject by subject through the striped kernels —
//! give one answer.
//!
//! The lane rule declines a pinned strategy, so the same query as is
//! and pinned to `Strategy::StripedIterate` *is* the two paths side by
//! side; `Strategy::Sequential` per subject is the reference both must
//! equal, and goes through the sweep itself too. `inter_columns` says
//! which path ran. A traced sweep runs the path the untraced one runs
//! and must equal it in everything the sweep counts.

use rand::RngExt;

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, random_protein, seeded_rng, swissprot_like_db};
use aalign_bio::{SeqDatabase, Sequence, SubstMatrix};
use aalign_core::{AlignConfig, AlignKind, Aligner, GapModel, Strategy, WidthPolicy};
use aalign_par::{rank_hits, Hit, SearchEngine, SearchOptions, SearchReport};
use aalign_vec::detect::Isa;

mod common;
use common::traced_and_untraced;

/// Subjects per vector on the widest engines (i8x32, i16x32).
const LANES: usize = 32;
const MEDIAN_LEN: usize = 40;

fn random_dna<R: RngExt>(rng: &mut R, id: &str, len: usize) -> Sequence {
    let text: Vec<u8> = (0..len)
        .map(|_| b"ACGT"[rng.random_range(0..4usize)])
        .collect();
    Sequence::dna(id, &text).unwrap()
}

/// `count` subjects around [`MEDIAN_LEN`], with what makes batches
/// awkward once there is room for it: exact duplicates (tied scores),
/// an empty subject, and one subject 50× the median — sorted first, it
/// leaves its vector nearly empty, a batch the fill rule must decline.
fn awkward_db(seed: u64, count: usize, dna: bool) -> SeqDatabase {
    let mut rng = seeded_rng(seed);
    let fresh = |rng: &mut _, i: usize, len: usize| {
        if dna {
            random_dna(rng, &format!("s{i}"), len)
        } else {
            random_protein(rng, format!("s{i}"), len)
        }
    };
    let mut seqs: Vec<Sequence> = Vec::with_capacity(count);
    for i in 0..count {
        let seq = match i {
            3 if count > 8 => fresh(&mut rng, i, 50 * MEDIAN_LEN),
            5 if count > 8 => Sequence::from_indices("empty", seqs[0].alphabet(), Vec::new()),
            _ if i % 7 == 6 => {
                let twin = &seqs[i - 4];
                Sequence::from_indices(format!("twin{i}"), twin.alphabet(), twin.indices().to_vec())
            }
            _ => {
                let len = rng.random_range(MEDIAN_LEN / 2..=MEDIAN_LEN * 3 / 2);
                fresh(&mut rng, i, len)
            }
        };
        seqs.push(seq);
    }
    SeqDatabase::new(seqs)
}

/// Every subject through the sequential kernel, ranked.
fn reference(aligner: &Aligner, q: &Sequence, db: &SeqDatabase) -> Vec<Hit> {
    let sequential = aligner.clone().with_strategy(Strategy::Sequential);
    let mut hits: Vec<Hit> = (0..db.len())
        .map(|i| Hit {
            db_index: i,
            len: db.get(i).len(),
            score: sequential.align(q, db.get(i)).unwrap().score,
        })
        .collect();
    rank_hits(&mut hits);
    hits
}

fn columns(report: &SearchReport) -> (usize, usize) {
    let k = &report.metrics.kernel_stats;
    (k.iterate_columns + k.scan_columns, k.inter_columns)
}

/// The same sweep pinned to the per-subject path.
fn per_subject(
    engine: &SearchEngine,
    aligner: &Aligner,
    q: &Sequence,
    db: &SeqDatabase,
    opts: &SearchOptions,
) -> SearchReport {
    let striped = aligner.clone().with_strategy(Strategy::StripedIterate);
    engine.search(&striped, q, db, opts).unwrap()
}

#[test]
fn lanes_and_per_subject_sweeps_agree_with_the_sequential_kernel() {
    let engine = SearchEngine::new(2);
    let mut rng = seeded_rng(4100);
    let protein_q = named_query(&mut rng, 33);
    let dna_q = random_dna(&mut rng, "read", 30);
    let dna = SubstMatrix::dna(2, -3);
    let sizes = [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3, 300];
    let mut took_lanes = 0usize;

    for kind in [AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal] {
        for (gap, dna_gap) in [
            (GapModel::affine(-10, -2), GapModel::affine(-5, -2)),
            (GapModel::linear(-3), GapModel::linear(-2)),
        ] {
            let protein = Aligner::new(AlignConfig::new(kind, gap, &BLOSUM62));
            // Certified for the reads and the ordinary subjects; the
            // 50× one is outside the bounds and widens its batch.
            let certified = Aligner::new(AlignConfig::new(kind, dna_gap, &dna))
                .with_certified_bounds(dna_q.len(), 2 * MEDIAN_LEN);
            let modes = [
                ("auto", protein.clone(), &protein_q, false),
                ("certified-i8", certified, &dna_q, true),
                (
                    "fixed32",
                    protein.with_width(WidthPolicy::Fixed32),
                    &protein_q,
                    false,
                ),
            ];
            for (mode, base, q, is_dna) in modes {
                for (n, &size) in sizes.iter().enumerate() {
                    let db = awkward_db(4200 + n as u64, size, is_dna);
                    let residues: usize = db.sequences().iter().map(Sequence::len).sum();
                    let want = reference(&base, q, &db);
                    // The oracle through the same sweep: every subject
                    // scored, by neither vector kernel.
                    let sequential = base.clone().with_strategy(Strategy::Sequential);
                    let swept = engine
                        .search(&sequential, q, &db, &SearchOptions::new())
                        .unwrap();
                    let ctx = format!("{kind:?} {gap:?} {mode} db={size} sequential");
                    assert!(!swept.partial, "{ctx}");
                    assert_eq!(swept.hits, want, "{ctx}");
                    assert_eq!(columns(&swept), (0, 0), "{ctx}");
                    for pin in [None, Some(Isa::Sse41), Some(Isa::Avx2), Some(Isa::Emulated)] {
                        let aligner =
                            pin.map_or_else(|| base.clone(), |isa| base.clone().with_isa(isa));
                        let lanes = aligner.prepare(q).unwrap().batch_lanes();
                        // Both collectors where lanes run; the pinned
                        // rows once, through the bounded heap.
                        let top_ns: &[usize] = if pin.is_none() { &[0, 7] } else { &[7] };
                        for &top_n in top_ns {
                            let ctx = format!(
                                "{kind:?} {gap:?} {mode} db={size} pin={pin:?} top_n={top_n}"
                            );
                            let opts = SearchOptions::new().top_n(top_n);
                            let (plain, _) =
                                traced_and_untraced(&engine, &aligner, (q, &db), &opts, &ctx);
                            let pinned = per_subject(&engine, &aligner, q, &db, &opts);
                            assert_eq!(plain.hits, pinned.hits, "{ctx}");
                            let keep = if top_n == 0 { want.len() } else { top_n };
                            assert_eq!(plain.hits, want[..keep.min(want.len())], "{ctx}");

                            // Which path ran, and that it accounts
                            // for every residue either way.
                            let (striped, inter) = columns(&plain);
                            assert_eq!(striped + inter, residues, "{ctx}");
                            assert_eq!(columns(&pinned), (residues, 0), "{ctx}");
                            if lanes == 0 || size < lanes {
                                assert_eq!(inter, 0, "{ctx}: no batch can have run");
                            }
                            if matches!(pin, Some(Isa::Sse41 | Isa::Emulated)) {
                                assert_eq!(lanes, 0, "{ctx}: no native lookup on this row");
                            }
                            if lanes > 0 && size == 300 {
                                assert!(inter > 0, "{ctx}: 300 subjects fill vectors");
                                // The claim holding the 50× subject is
                                // mostly padding: declined, it peels
                                // that subject off to the striped path
                                // and the rest go in lanes.
                                assert_eq!(striped, 50 * MEDIAN_LEN, "{ctx}");
                                took_lanes += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    if aalign_vec::IsaSupport::detect().avx2 {
        assert!(took_lanes > 0, "an AVX2 host runs lanes somewhere");
    }
}

/// A saturating lane is handed to the per-subject path, so everything
/// a saturating subject reports is what it always reported.
#[test]
fn saturating_lanes_report_what_the_per_subject_path_reports() {
    // A hot database: an all-W subject every 20th against an all-W
    // query blows through 8-bit lanes.
    let mut seqs = swissprot_like_db(4300, 200).sequences().to_vec();
    for (i, s) in seqs.iter_mut().enumerate().step_by(20) {
        *s = Sequence::protein(format!("hot_{i}"), &[b'W'; 120]).unwrap();
    }
    let db = SeqDatabase::new(seqs);
    let wq = Sequence::protein("wq", &[b'W'; 120]).unwrap();
    let narrow = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62))
        .with_width(WidthPolicy::Fixed8);
    let lanes = narrow.prepare(&wq).unwrap().batch_lanes();
    let engine = SearchEngine::new(2);
    let opts = SearchOptions::new();
    let (plain, _) = traced_and_untraced(&engine, &narrow, (&wq, &db), &opts, "hot");
    let pinned = per_subject(&engine, &narrow, &wq, &db, &opts);
    assert_eq!(plain.hits, pinned.hits);
    assert_eq!(plain.metrics.rescued, pinned.metrics.rescued);
    assert_eq!(plain.metrics.width_retries, pinned.metrics.width_retries);
    assert_eq!(plain.metrics.rescue_widths, pinned.metrics.rescue_widths);
    assert!(plain.metrics.rescued > 0, "the hot subjects saturate");
    // The hot subjects went back to the striped path (which drops a
    // doomed narrow run early, so not all their columns show).
    let (striped, inter) = columns(&plain);
    assert_eq!(inter > 0, lanes > 0);
    assert!(striped > 0);
}

/// Claims are four whole vectors when lanes run (fewer where that
/// would leave a worker idle), and cancellation, the deadline and
/// progress are looked at between claims, as ever.
#[test]
fn progress_and_cancellation_are_seen_at_claim_boundaries() {
    use std::sync::{Arc, Mutex};
    let mut rng = seeded_rng(4400);
    let q = named_query(&mut rng, 50);
    let db = swissprot_like_db(4401, 5 * LANES + 7);
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let lanes = aligner.prepare(&q).unwrap().batch_lanes();
    let engine = SearchEngine::new(1);

    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let opts =
        SearchOptions::new().on_progress(move |p| sink.lock().unwrap().push(p.subjects_done));
    let report = engine.search(&aligner, &q, &db, &opts).unwrap();
    assert_eq!(report.subjects, db.len());
    let claim = match lanes {
        0 => 1,
        lanes => lanes * db.len().div_ceil(lanes).min(4),
    };
    let seen = seen.lock().unwrap().clone();
    let want: Vec<usize> = (1..=db.len().div_ceil(claim))
        .map(|k| (k * claim).min(db.len()))
        .collect();
    assert_eq!(seen, want, "one snapshot per claim of {claim}");

    // A token cancelled from the first snapshot stops the sweep at the
    // next claim: one claim was scored, no more.
    let token = aalign_par::CancelToken::new();
    let done = Arc::new(Mutex::new(0usize));
    let (trip, count) = (token.clone(), Arc::clone(&done));
    let opts = SearchOptions::new().cancel(token).on_progress(move |p| {
        *count.lock().unwrap() = p.subjects_done;
        trip.cancel();
    });
    let err = engine.search(&aligner, &q, &db, &opts).unwrap_err();
    assert_eq!(err, aalign_core::AlignError::Cancelled);
    assert_eq!(*done.lock().unwrap(), claim);
}

/// Lane-columns a sweep paid per residue it scored in lanes.
fn padding(report: &SearchReport) -> f64 {
    let k = &report.metrics.kernel_stats;
    k.inter_lane_columns as f64 / k.inter_columns as f64
}

/// Lane refill: a lane whose subject ends takes the next one, so a
/// gamma-length database pads at most 10 % — in one process, and over
/// each half as two shards sweep it, where a half's claim pads more
/// only where its longest subject alone sets the schedule (a lane runs
/// it while the others share the rest).
#[test]
fn refilled_lanes_pad_little_whole_and_in_halves() {
    let engine = SearchEngine::new(1);
    let mut rng = seeded_rng(4700);
    let q = named_query(&mut rng, 60);
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let lanes = aligner.prepare(&q).unwrap().batch_lanes();
    if lanes == 0 {
        return; // no native lookup on this host: nothing runs in lanes
    }
    for seed in [4701, 4702, 4703] {
        let db = swissprot_like_db(seed, 250);
        let report = engine
            .search(&aligner, &q, &db, &SearchOptions::new())
            .unwrap();
        assert!(
            padding(&report) <= 1.10,
            "seed {seed}: {:.3}",
            padding(&report)
        );
        let (first, second) = db.sequences().split_at(125);
        for half in [first, second] {
            let half = SeqDatabase::new(half.to_vec());
            let report = engine
                .search(&aligner, &q, &half, &SearchOptions::new())
                .unwrap();
            let k = &report.metrics.kernel_stats;
            let longest = half.sequences().iter().map(Sequence::len).max().unwrap();
            let bound = (1.10 * k.inter_columns as f64).max((lanes * longest) as f64);
            let ctx = format!("seed {seed} half: {:.3}", padding(&report));
            assert!(k.inter_lane_columns as f64 <= bound, "{ctx}");
        }
    }
}

/// A claim is a contiguous run of slots however many vectors it
/// holds: a panic scripted in the middle of one is the one subject
/// the report loses, by its database index.
#[test]
fn a_panic_inside_a_refilled_claim_loses_one_subject() {
    let engine = SearchEngine::new(1);
    let mut rng = seeded_rng(4800);
    let q = named_query(&mut rng, 60);
    let db = swissprot_like_db(4801, 250);
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let clean = engine
        .search(&aligner, &q, &db, &SearchOptions::new())
        .unwrap();
    let slot = 70; // inside the first claim of four vectors
    let plan = aalign_par::FaultPlan::new().panic_on_slot(slot);
    let opts = SearchOptions::new().fault_plan(std::sync::Arc::new(plan));
    let faulted = engine.search(&aligner, &q, &db, &opts).unwrap();
    let victim = db.length_order()[slot];
    assert!(faulted.partial);
    assert_eq!(faulted.errors.len(), 1, "{:?}", faulted.errors);
    assert!(matches!(
        faulted.errors[0],
        aalign_core::AlignError::WorkerPanicked { db_index, .. } if db_index == victim
    ));
    let want: Vec<Hit> = clean
        .hits
        .iter()
        .filter(|h| h.db_index != victim)
        .copied()
        .collect();
    assert_eq!(faulted.hits, want);
}

/// `count` subjects of 50–70 residues, `homologs` of them (spread
/// evenly) copies of `q` with every tenth residue replaced — far above
/// a byte's ceiling against `q`, far below 16 bits'. Every vector of
/// the sorted database is full enough for the fill rule, so every lane
/// runs its batch's first pass.
fn planted_db(seed: u64, q: &Sequence, count: usize, homologs: usize) -> SeqDatabase {
    let mut rng = seeded_rng(seed);
    let seqs = (0..count)
        .map(|i| {
            if (i + 1) * homologs / count != i * homologs / count {
                let mut idx = q.indices().to_vec();
                for j in (i % 10..idx.len()).step_by(10) {
                    idx[j] = aalign_bio::synth::random_residue(&mut rng);
                }
                Sequence::from_indices(format!("h{i}"), q.alphabet(), idx)
            } else {
                let len = rng.random_range(50..=70);
                random_protein(&mut rng, format!("s{i}"), len)
            }
        })
        .collect();
    SeqDatabase::new(seqs)
}

/// Byte lanes first: a local `Auto` sweep scores every vector at i8,
/// walks the flagged lanes on to i16 together, and hands what that
/// declines or flags to the per-subject path — and reports what the
/// sweep pinned to the per-subject path reports, whatever share
/// saturates.
#[test]
fn byte_lanes_first_report_what_the_per_subject_path_reports() {
    let engine = SearchEngine::new(2);
    let mut rng = seeded_rng(4500);
    let q = named_query(&mut rng, 60);
    let count = 4 * LANES;
    let base = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let mut byte_lanes_ran = false;
    for homologs in [0, 1, count / 4, count] {
        let db = planted_db(4501 + homologs as u64, &q, count, homologs);
        let residues: usize = db.sequences().iter().map(Sequence::len).sum();
        let want = reference(&base, &q, &db);
        for pin in [
            None,
            Some(Isa::Avx2),
            Some(Isa::Avx512),
            Some(Isa::Emulated),
        ] {
            let aligner = pin.map_or_else(|| base.clone(), |isa| base.clone().with_isa(isa));
            let ctx = format!("homologs={homologs} pin={pin:?}");
            let opts = SearchOptions::new();
            let (plain, _) = traced_and_untraced(&engine, &aligner, (&q, &db), &opts, &ctx);
            let pinned = per_subject(&engine, &aligner, &q, &db, &opts);
            assert_eq!(plain.hits, want, "{ctx}");
            assert_eq!(pinned.hits, want, "{ctx}");
            let (m, p) = (&plain.metrics, &pinned.metrics);
            assert_eq!(m.rescued, p.rescued, "{ctx}");
            assert_eq!(m.width_retries, p.width_retries, "{ctx}");
            assert_eq!(m.rescue_widths, p.rescue_widths, "{ctx}");
            let (striped, inter) = columns(&plain);
            assert_eq!(striped + inter, residues, "{ctx}");

            // The lanes the first pass flagged: those whose striped
            // run at the same width saturates.
            let k = &m.kernel_stats;
            let flagged = match m.lane_width {
                0 => 0,
                bits => {
                    let width = if bits == 8 {
                        WidthPolicy::Fixed8
                    } else {
                        WidthPolicy::Fixed16
                    };
                    let striped = aligner.clone().with_width(width);
                    let flags = db
                        .sequences()
                        .iter()
                        .filter(|s| striped.align(&q, s).unwrap().saturated);
                    flags.count()
                }
            };
            assert_eq!(k.inter_saturated, flagged, "{ctx}");
            assert_eq!(m.lane_width > 0, inter > 0, "{ctx}");
            if m.lane_width == 8 {
                byte_lanes_ran = true;
                assert_eq!(flagged, homologs, "{ctx}");
                // Walk-on: a quarter or all of them flagged fill
                // vectors at i16; one alone goes per subject.
                let per_subject = if homologs == 1 { 60 } else { 0 };
                assert!(striped <= per_subject, "{ctx}: {striped} striped columns");
            }
        }
    }
    if aalign_vec::IsaSupport::detect().avx2 {
        assert!(byte_lanes_ran, "an AVX2 host runs byte lanes");
    }
}

/// The query cap binds lanes wider than 8 bits only: local sweeps run
/// byte lanes at any query length, global and semi-global ones (no
/// certificate, so no byte lanes) stop at the cap.
#[test]
fn the_query_cap_binds_lanes_wider_than_a_byte() {
    let engine = SearchEngine::new(2);
    let mut rng = seeded_rng(4600);
    let db = SeqDatabase::new(
        (0..2 * LANES)
            .map(|i| {
                let len = rng.random_range(80..=240);
                random_protein(&mut rng, format!("s{i}"), len)
            })
            .collect(),
    );
    let native = aalign_vec::IsaSupport::detect().avx2;
    for m in [480, 520, 1200] {
        let q = named_query(&mut rng, m);
        for kind in [AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal] {
            let aligner =
                Aligner::new(AlignConfig::new(kind, GapModel::affine(-10, -2), &BLOSUM62));
            let ctx = format!("Q{m} {kind:?}");
            let report = engine
                .search(&aligner, &q, &db, &SearchOptions::new())
                .unwrap();
            assert_eq!(report.hits, reference(&aligner, &q, &db), "{ctx}");
            let inter = report.metrics.kernel_stats.inter_columns;
            if kind == AlignKind::Local {
                assert_eq!(inter > 0, native, "{ctx}");
                assert_eq!(
                    report.metrics.lane_width,
                    if native { 8 } else { 0 },
                    "{ctx}"
                );
            } else if m > aalign_core::LANE_QUERY_CAP {
                assert_eq!(inter, 0, "{ctx}: no lanes above the cap");
                assert_eq!(aligner.prepare(&q).unwrap().batch_lanes(), 0, "{ctx}");
            } else {
                assert_eq!(inter > 0, native, "{ctx}");
            }
        }
    }
}
