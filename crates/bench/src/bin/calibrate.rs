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
//! striped hybrid — over query length, batch fill and database size:
//! the table behind `LANE_QUERY_CAP` and `LANE_MIN_FILL_PERCENT`
//! (`--lanes` prints that section alone).
//!
//! Usage: `cargo run --release -p aalign-bench --bin calibrate [--quick] [--lanes]`

use aalign_bench::harness::{print_banner, time_min, Platform, Table};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db, PairSpec};
use aalign_bio::Sequence;
use aalign_core::{
    AlignConfig, AlignScratch, Aligner, GapModel, HybridPolicy, InterBatches, InterWorkspace,
    LaneProfile, Strategy, WidthPolicy, LANE_MIN_FILL_PERCENT, LANE_QUERY_CAP,
};
use aalign_vec::{resolve, with_engine, IsaSupport};

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
    /// The lane kernel on every vector, profile build included.
    lanes: f64,
    /// `align_batch_prepared` per vector, `align_prepared` for what
    /// it declines: what a sweep does.
    rule: f64,
    /// Share of the residues the rule scored lane per subject.
    rule_lane_share: f64,
}

fn three_ways(
    aligner: &Aligner,
    query: &Sequence,
    subjects: &[&Sequence],
    reps: usize,
) -> ThreeWays {
    let cfg = aligner.config();
    let backend = resolve(IsaSupport::detect(), None, 16);
    let mut scratch = AlignScratch::new();
    let mut ws = InterWorkspace::new();
    let residues: usize = subjects.iter().map(|s| s.len()).sum();

    let pq = aligner.prepare(query).unwrap();
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
    let lanes = time_min(
        || {
            let prof = LaneProfile::<i16>::build(query, &cfg.matrix);
            // Every vector, whatever the product's rule would say: the
            // side of the comparison the rule cannot show where it
            // declines.
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
    );
    let vector = pq.batch_lanes().max(1);
    let mut in_lanes = 0usize;
    let rule = time_min(
        || {
            let pq = aligner.prepare(query).unwrap();
            in_lanes = 0;
            for batch in subjects.chunks(vector) {
                // As the sweep: no batches from a database smaller
                // than one vector.
                let taken = (pq.batch_lanes() > 0 && subjects.len() >= vector)
                    .then(|| {
                        aligner
                            .align_batch_prepared(&pq, batch, &mut scratch)
                            .unwrap()
                    })
                    .flatten();
                match taken {
                    Some(out) => {
                        in_lanes += out.stats.inter_columns;
                        std::hint::black_box(out.scores);
                    }
                    None => {
                        for s in batch {
                            std::hint::black_box(
                                aligner.align_prepared(&pq, s, &mut scratch).unwrap().score,
                            );
                        }
                    }
                }
            }
        },
        1,
        reps,
    );
    ThreeWays {
        striped: striped.as_secs_f64(),
        lanes: lanes.as_secs_f64(),
        rule: rule.as_secs_f64(),
        rule_lane_share: in_lanes as f64 / residues.max(1) as f64,
    }
}

/// The sweep's choice between lanes per subject and the striped
/// hybrid, on this host's widest i16 engine (local, BLOSUM62 −10/−2,
/// `Auto` width): over query length on a Swiss-Prot-like database,
/// over the fill of one vector, and over database size.
fn lanes_or_stripes(quick: bool) {
    let backend = resolve(IsaSupport::detect(), None, 16);
    println!(
        "## lanes per subject or stripes, on {} (cap {LANE_QUERY_CAP}, least fill {LANE_MIN_FILL_PERCENT} %)",
        backend.name()
    );
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    // Above the cap the product declines; the forced column still
    // shows what lanes would have done there.
    let reps = if quick { 3 } else { 9 };
    let mut rng = seeded_rng(77);

    let db = swissprot_like_db(78, if quick { 256 } else { 1024 });
    let sorted: Vec<&Sequence> = db.length_order().iter().map(|&i| db.get(i)).collect();
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
    let header = |first: &str| {
        vec![
            first.to_string(),
            "striped ms".to_string(),
            "lanes ms".to_string(),
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
    for m in [30usize, 60, 120, 250, 375, 500, 625, 750, 1000] {
        let q = named_query(&mut rng, m);
        table.row(row(m.to_string(), &three_ways(&aligner, &q, &sorted, reps)));
    }
    println!("{}", table.render());

    // One vector whose longest subject has 400 residues and whose
    // other lanes share what is left of the fill evenly.
    let q60 = named_query(&mut rng, 60);
    let lanes = backend.lanes();
    println!("### fill of one {lanes}-lane vector (query 60, longest subject 400)");
    let mut table = Table::new(header("fill"));
    for percent in [10usize, 20, 30, 35, 40, 45, 50, 60, 80, 100] {
        let rest = ((400 * lanes * percent / 100).saturating_sub(400) / (lanes - 1)).min(400);
        let subjects: Vec<Sequence> = (0..lanes)
            .map(|l| named_query(&mut rng, if l == 0 { 400 } else { rest }))
            .collect();
        let refs: Vec<&Sequence> = subjects.iter().collect();
        let fill = refs.iter().map(|s| s.len()).sum::<usize>() * 100 / (400 * lanes);
        table.row(row(
            format!("{fill} %"),
            &three_ways(&aligner, &q60, &refs, reps * 4),
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
            &three_ways(&aligner, &q60, &sorted, reps * 2),
        ));
    }
    println!("{}", table.render());
}
