//! Sec. V-B calibration — where is the iterate/scan crossover?
//!
//! The paper measures that scan starts winning when iterate's
//! re-computation count per column exceeds ≈1.5 (MIC) / ≈2.5 (CPU),
//! and sets the hybrid thresholds to 2 and 3. This harness sweeps
//! subjects of increasing similarity, reporting iterate's lazy
//! sweeps per column next to the iterate/scan time ratio, then
//! sweeps the hybrid threshold and probe stride to show the
//! calibrated defaults are near-optimal.
//!
//! Its last section measures the sweep's other choice — a vector of
//! subjects lane per subject, or subject by subject through the
//! striped hybrid — over query length, batch fill, database size and
//! the share of subjects that saturate the first lane width: the
//! tables behind `LANE_QUERY_CAP` and `LANE_MIN_FILL_PERCENT`
//! (`--lanes` prints that section alone).
//!
//! Usage: `cargo run --release -p aalign-bench --bin calibrate [--quick] [--lanes]`

use aalign_bench::harness::{print_banner, time_min, Platform, Table};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, random_residue, seeded_rng, swissprot_like_db, PairSpec};
use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::{
    AlignConfig, AlignScratch, Aligner, GapModel, HybridPolicy, InterBatches, InterWorkspace,
    LaneProfile, RunStats, Strategy, WidthPolicy, LANE_MIN_FILL_PERCENT, LANE_QUERY_CAP,
};
use aalign_par::{SearchEngine, SearchOptions};
use aalign_vec::{resolve, with_engine, Backend, DispatchElem, IsaSupport};
use std::time::Duration;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if std::env::args().any(|a| a == "--lanes") {
        print_banner("lanes per subject against the striped hybrid");
        lanes_or_stripes(quick);
        return;
    }
    print_banner("Sec. V-B calibration — iterate/scan crossover & hybrid tuning");

    let mut rng = seeded_rng(55);
    let qlen = if quick { 400 } else { 1200 };
    let query = named_query(&mut rng, qlen);
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);

    // Subjects of increasing identity within full coverage.
    let identities = [0.05f64, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95];
    let subjects: Vec<(String, Sequence)> = identities
        .iter()
        .map(|&p| {
            // Reuse the pair generator machinery at a fixed identity by
            // mutating the query directly.
            let mut idx = Vec::with_capacity(query.len());
            use rand::RngExt;
            for &r in query.indices() {
                if rng.random_bool(p) {
                    idx.push(r);
                } else {
                    idx.push(aalign_bio::synth::random_residue(&mut rng));
                }
            }
            (
                format!("id{:.0}%", p * 100.0),
                Sequence::from_indices("subj", query.alphabet(), idx),
            )
        })
        .collect();

    for platform in Platform::ALL {
        println!(
            "## crossover on {} {}",
            platform.label(),
            if platform.native() { "" } else { "(emulated)" }
        );
        let make = |s: Strategy| {
            Aligner::new(cfg.clone())
                .with_strategy(s)
                .with_isa(platform.isa())
                .with_width(WidthPolicy::Fixed32)
        };
        let it = make(Strategy::StripedIterate);
        let sc = make(Strategy::StripedScan);
        let pq_it = it.prepare(&query).unwrap();
        let pq_sc = sc.prepare(&query).unwrap();
        let mut scratch = aalign_core::AlignScratch::new();
        let reps = if quick { 2 } else { 4 };

        let mut table = Table::new(vec![
            "identity",
            "sweeps/col",
            "iterate ms",
            "scan ms",
            "scan/iterate",
            "winner",
        ]);
        for (label, s) in &subjects {
            let out = it.align_prepared(&pq_it, s, &mut scratch).unwrap();
            let sweeps = out.stats.lazy_sweeps as f64 / out.stats.iterate_columns.max(1) as f64;
            let t_it = time_min(
                || {
                    let _ = it.align_prepared(&pq_it, s, &mut scratch).unwrap();
                },
                1,
                reps,
            );
            let t_sc = time_min(
                || {
                    let _ = sc.align_prepared(&pq_sc, s, &mut scratch).unwrap();
                },
                1,
                reps,
            );
            table.row(vec![
                label.clone(),
                format!("{sweeps:.2}"),
                format!("{:.3}", t_it.as_secs_f64() * 1e3),
                format!("{:.3}", t_sc.as_secs_f64() * 1e3),
                format!("{:.2}", t_sc.as_secs_f64() / t_it.as_secs_f64()),
                if t_it <= t_sc { "iterate" } else { "scan" }.to_string(),
            ]);
        }
        println!("{}", table.render());
    }

    // Hybrid threshold/stride ablation on a mixed subject.
    println!("## hybrid policy ablation (mixed head/middle/tail subject, 512-bit)");
    let mixed = {
        let mut idx = Vec::new();
        idx.extend_from_slice(named_query(&mut rng, qlen).indices());
        idx.extend_from_slice(
            PairSpec::new(aalign_bio::synth::Level::Hi, aalign_bio::synth::Level::Hi)
                .generate(&mut rng, &query)
                .subject
                .indices(),
        );
        idx.extend_from_slice(named_query(&mut rng, qlen).indices());
        Sequence::from_indices("mixed", query.alphabet(), idx)
    };
    let mut table = Table::new(vec!["threshold", "stride", "ms"]);
    for threshold in [0u32, 1, 2, 3, 5, 8] {
        for stride in [16usize, 64, 128, 512] {
            let al = Aligner::new(cfg.clone())
                .with_strategy(Strategy::Hybrid)
                .with_isa(Platform::Mic.isa())
                .with_width(WidthPolicy::Fixed32)
                .with_hybrid_policy(HybridPolicy {
                    threshold,
                    probe_stride: stride,
                });
            let pq = al.prepare(&query).unwrap();
            let mut scratch = aalign_core::AlignScratch::new();
            let t = time_min(
                || {
                    let _ = al.align_prepared(&pq, &mixed, &mut scratch).unwrap();
                },
                1,
                if quick { 2 } else { 3 },
            );
            table.row(vec![
                threshold.to_string(),
                stride.to_string(),
                format!("{:.3}", t.as_secs_f64() * 1e3),
            ]);
        }
    }
    println!("{}", table.render());
    lanes_or_stripes(quick);
}

/// One query against `subjects` (longest first), three ways; seconds.
struct ThreeWays {
    /// `align_prepared` per subject (the striped hybrid).
    striped: f64,
    /// The lane kernel at the rule's first width on every subject,
    /// rows built inside the timing.
    lanes: f64,
    /// A one-worker `SearchEngine::search`: the sweep's own claims,
    /// lanes where the rule takes them, `align_prepared` for the rest.
    rule: f64,
    /// Share of the residues the rule scored lane per subject.
    rule_lane_share: f64,
    /// Lanes the rule's first passes flagged saturated.
    rule_flagged: usize,
}

fn three_ways(
    aligner: &Aligner,
    first: Backend,
    query: &Sequence,
    subjects: &[&Sequence],
    reps: usize,
) -> ThreeWays {
    let mut scratch = AlignScratch::new();
    let residues: usize = subjects.iter().map(|s| s.len()).sum();

    let striped = time_min(
        || {
            let pq = aligner.prepare(query).unwrap();
            for s in subjects {
                std::hint::black_box(aligner.align_prepared(&pq, s, &mut scratch).unwrap().score);
            }
        },
        1,
        reps,
    );
    // Every vector, whatever the product's rule would say: the side of
    // the comparison the rule cannot show where it declines.
    let lanes = match first.bits() {
        8 => forced_lanes::<i8>(aligner, first, query, subjects, reps),
        16 => forced_lanes::<i16>(aligner, first, query, subjects, reps),
        _ => forced_lanes::<i32>(aligner, first, query, subjects, reps),
    };
    let db = SeqDatabase::new(subjects.iter().map(|&s| s.clone()).collect());
    let engine = SearchEngine::new(1);
    let opts = SearchOptions::new().top_n(10);
    let mut stats = RunStats::default();
    let rule = time_min(
        || {
            stats = engine
                .search(aligner, query, &db, &opts)
                .unwrap()
                .metrics
                .kernel_stats;
        },
        1,
        reps,
    );
    ThreeWays {
        striped: striped.as_secs_f64(),
        lanes: lanes.as_secs_f64(),
        rule: rule.as_secs_f64(),
        rule_lane_share: stats.inter_columns as f64 / residues.max(1) as f64,
        rule_flagged: stats.inter_saturated,
    }
}

/// The lane kernel of `backend` on all of `subjects`, one refilled
/// batch.
fn forced_lanes<T: DispatchElem>(
    aligner: &Aligner,
    backend: Backend,
    query: &Sequence,
    subjects: &[&Sequence],
    reps: usize,
) -> Duration {
    let cfg = aligner.config();
    let mut ws = InterWorkspace::<T>::new();
    time_min(
        || {
            let prof = LaneProfile::<T>::build(query, &cfg.matrix);
            std::hint::black_box(with_engine(
                backend,
                InterBatches {
                    t2: cfg.table2(),
                    prof: &prof,
                    subjects,
                    ws: &mut ws,
                },
            ));
        },
        1,
        reps,
    )
}

/// The sweep as it was before byte lanes: each vector at i16 on
/// `backend` where the fill rule takes it, `align_prepared` for what
/// it declines or flags.
fn i16_lanes_first(
    aligner: &Aligner,
    backend: Backend,
    query: &Sequence,
    subjects: &[&Sequence],
    reps: usize,
) -> Duration {
    let cfg = aligner.config();
    let mut scratch = AlignScratch::new();
    let mut ws = InterWorkspace::<i16>::new();
    let lanes = backend.lanes();
    time_min(
        || {
            let pq = aligner.prepare(query).unwrap();
            let prof = LaneProfile::<i16>::build(query, &cfg.matrix);
            for vector in subjects.chunks(lanes) {
                let residues: usize = vector.iter().map(|s| s.len()).sum();
                let longest = vector.iter().map(|s| s.len()).max().unwrap_or(0);
                let flagged = if residues * 100 >= LANE_MIN_FILL_PERCENT * lanes * longest {
                    let batch = InterBatches {
                        t2: cfg.table2(),
                        prof: &prof,
                        subjects: vector,
                        ws: &mut ws,
                    };
                    with_engine(backend, batch).saturated
                } else {
                    vec![true; vector.len()]
                };
                for (s, _) in vector.iter().zip(flagged).filter(|(_, f)| *f) {
                    std::hint::black_box(aligner.align_prepared(&pq, s, &mut scratch).unwrap());
                }
            }
        },
        1,
        reps,
    )
}

/// The width the rule runs a batch at first, as a full vector of
/// `subjects` reports it.
fn first_width(aligner: &Aligner, query: &Sequence, subjects: &[&Sequence]) -> Option<u32> {
    let pq = aligner.prepare(query).unwrap();
    let vector = subjects.get(..pq.batch_lanes())?;
    let out = aligner
        .align_batch_prepared(&pq, vector, &mut AlignScratch::new())
        .unwrap()?;
    Some(out.bits)
}

/// `subjects` with a copy of `query` (every tenth residue replaced)
/// planted in the middle of `percent` % of them, evenly spread over
/// the database's order.
fn planted(
    rng: &mut impl rand::Rng,
    query: &Sequence,
    subjects: &[Sequence],
    percent: usize,
) -> Vec<Sequence> {
    subjects
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if (i + 1) * percent / 100 == i * percent / 100 {
                return s.clone();
            }
            let mut idx = s.indices().to_vec();
            while idx.len() < query.len() {
                idx.push(random_residue(rng));
            }
            let at = (idx.len() - query.len()) / 2;
            for (j, &r) in query.indices().iter().enumerate() {
                idx[at + j] = if j % 10 == 0 { random_residue(rng) } else { r };
            }
            Sequence::from_indices(s.id(), s.alphabet(), idx)
        })
        .collect()
}

/// The sweep's choice between lanes per subject and the striped
/// hybrid (local, BLOSUM62 −10/−2, `Auto` width), on the row the rule
/// tries first: over query length on a Swiss-Prot-like database, over
/// the fill of one vector, over database size, and over the share of
/// subjects whose first-pass lane saturates.
fn lanes_or_stripes(quick: bool) {
    let sup = IsaSupport::detect();
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let reps = if quick { 3 } else { 9 };
    let mut rng = seeded_rng(77);

    let db = swissprot_like_db(78, if quick { 256 } else { 1024 });
    let sorted: Vec<&Sequence> = db.length_order().iter().map(|&i| db.get(i)).collect();
    let q60 = named_query(&mut rng, 60);
    // A host with no native lookup declines every batch; its rows
    // still show what the lanes would have done at i16.
    let first = resolve(
        sup,
        None,
        first_width(&aligner, &q60, &sorted).unwrap_or(16),
    );
    println!(
        "## lanes per subject or stripes, first at {} (cap {LANE_QUERY_CAP} above 8 bits, least fill {LANE_MIN_FILL_PERCENT} %)",
        first.name()
    );
    let row = |label: String, w: &ThreeWays| {
        vec![
            label,
            format!("{:.3}", w.striped * 1e3),
            format!("{:.3}", w.lanes * 1e3),
            format!("{:.2}", w.striped / w.lanes),
            format!("{:.3}", w.rule * 1e3),
            format!("{:.2}", w.striped / w.rule),
            format!("{:.0} %", w.rule_lane_share * 100.0),
        ]
    };
    let lanes_ms = format!("{} ms", first.name());
    let header = |first: &str| {
        vec![
            first.to_string(),
            "striped ms".to_string(),
            lanes_ms.clone(),
            "striped/lanes".to_string(),
            "rule ms".to_string(),
            "striped/rule".to_string(),
            "rule in lanes".to_string(),
        ]
    };

    println!(
        "### query length ({} subjects, Swiss-Prot-like lengths)",
        sorted.len()
    );
    let mut table = Table::new(header("query"));
    for m in [30usize, 60, 120, 250, 375, 500, 625, 750, 1000, 2000, 4000] {
        let q = named_query(&mut rng, m);
        let reps = if m > 1000 { reps.min(3) } else { reps };
        table.row(row(
            m.to_string(),
            &three_ways(&aligner, first, &q, &sorted, reps),
        ));
    }
    println!("{}", table.render());

    // One vector whose longest subject has 400 residues and whose
    // other lanes share what is left of the fill evenly.
    let lanes = first.lanes();
    println!("### fill of one {lanes}-lane vector (query 60, longest subject 400)");
    let mut table = Table::new(header("fill"));
    for percent in [10usize, 15, 20, 25, 30, 35, 40, 45, 50, 60, 80, 100] {
        let rest = ((400 * lanes * percent / 100).saturating_sub(400) / (lanes - 1)).min(400);
        let subjects: Vec<Sequence> = (0..lanes)
            .map(|l| named_query(&mut rng, if l == 0 { 400 } else { rest }))
            .collect();
        let refs: Vec<&Sequence> = subjects.iter().collect();
        let fill = refs.iter().map(|s| s.len()).sum::<usize>() * 100 / (400 * lanes);
        table.row(row(
            format!("{fill} %"),
            &three_ways(&aligner, first, &q60, &refs, reps * 4),
        ));
    }
    println!("{}", table.render());

    println!("### database size (query 60, Swiss-Prot-like lengths)");
    let mut table = Table::new(header("subjects"));
    for count in [8usize, 20, 40, 125, 250, 2000] {
        if quick && count > 250 {
            continue;
        }
        let db = swissprot_like_db(79, count);
        let sorted: Vec<&Sequence> = db.length_order().iter().map(|&i| db.get(i)).collect();
        table.row(row(
            count.to_string(),
            &three_ways(&aligner, first, &q60, &sorted, reps * 2),
        ));
    }
    println!("{}", table.render());

    // Planted homologs saturate the byte lanes they meet: the rule
    // walks them on to i16 together, or scores them per subject.
    let i16_row = resolve(sup, None, 16);
    println!(
        "### saturated share (query 60, {} subjects, homologs of the query planted)",
        sorted.len()
    );
    let mut table = Table::new(vec![
        "homologs",
        "striped ms",
        "i16 lanes first ms",
        "rule ms",
        "rule / i16 first",
        "flagged at first width",
    ]);
    let seqs = db.sequences().to_vec();
    for percent in [0usize, 4, 25, 50, 100] {
        let db = aalign_bio::SeqDatabase::new(planted(&mut rng, &q60, &seqs, percent));
        let sorted: Vec<&Sequence> = db.length_order().iter().map(|&i| db.get(i)).collect();
        let w = three_ways(&aligner, first, &q60, &sorted, reps);
        let parent = i16_lanes_first(&aligner, i16_row, &q60, &sorted, reps).as_secs_f64();
        table.row(vec![
            format!("{percent} %"),
            format!("{:.3}", w.striped * 1e3),
            format!("{:.3}", parent * 1e3),
            format!("{:.3}", w.rule * 1e3),
            format!("{:.2}", w.rule / parent),
            w.rule_flagged.to_string(),
        ]);
    }
    println!("{}", table.render());
}
