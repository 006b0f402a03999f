//! Guard bench: overflow rescue must be free when nothing saturates.
//!
//! The engine's rescue path adds exactly one thing to a sweep that
//! never saturates: one `out.saturated` branch per subject (it climbs
//! the rungs `prepare` already built). This bench *enforces* that
//! budget: it times an engine search over a non-saturating database
//! with rescue enabled (the default) against the same search with
//! `rescue(false)` and fails if the enabled path costs more than 1%.
//! It also reports — informationally, unguarded — what a sweep that
//! actually rescues pays, since that path is allowed to spend time
//! recovering exact scores.
//!
//! Usage: `cargo bench -p aalign-bench --bench rescue_overhead`

use std::time::{Duration, Instant};

use aalign_bench::harness::{gcups, print_banner, time_min, Table};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::{AlignConfig, Aligner, GapModel, Strategy, WidthPolicy};
use aalign_par::{SearchEngine, SearchOptions};

fn main() {
    print_banner("rescue_overhead — saturation check on the non-saturating hot path");
    let mut rng = seeded_rng(7);
    let q = named_query(&mut rng, 400);
    let db = swissprot_like_db(8, 600);
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let a = Aligner::new(cfg).with_strategy(Strategy::Hybrid);
    // Single worker + min-of-k: scheduling noise would otherwise
    // swamp a 1% budget.
    let engine = SearchEngine::new(1);
    let (warmup, reps) = (3, 11);
    let cells: usize = q.len() * db.sequences().iter().map(Sequence::len).sum::<usize>();

    let mut table = Table::new(vec!["path", "GCUPS", "overhead", "rescued"]);

    let run = |opts: &SearchOptions| engine.search(&a, &q, &db, opts).unwrap();
    let off = SearchOptions::new().rescue(false);
    let on = SearchOptions::new();

    let base_report = run(&off);
    assert_eq!(base_report.metrics.rescued, 0);
    let with_report = run(&on);
    assert_eq!(
        with_report.metrics.rescued, 0,
        "the guard database must not saturate, or the comparison is meaningless"
    );
    assert_eq!(with_report.hits, base_report.hits, "rescue-off must agree");

    // Interleave the two configurations rep by rep: clock-frequency
    // drift between two back-to-back min-of-k blocks is larger than
    // the budget being enforced, pairing the samples cancels it.
    let mut t_off = Duration::MAX;
    let mut t_on = Duration::MAX;
    for _ in 0..warmup {
        run(&off);
        run(&on);
    }
    for _ in 0..reps {
        let s = Instant::now();
        drop(run(&off));
        t_off = t_off.min(s.elapsed());
        let s = Instant::now();
        drop(run(&on));
        t_on = t_on.min(s.elapsed());
    }
    let overhead = t_on.as_secs_f64() / t_off.as_secs_f64() - 1.0;

    for (label, t, oh, rescued) in [
        ("rescue-off", t_off, 0.0, 0u64),
        ("rescue-on", t_on, overhead, 0),
    ] {
        table.row(vec![
            label.to_string(),
            format!("{:.2}", gcups(1, cells, t)),
            format!("{:+.2}%", oh * 100.0),
            rescued.to_string(),
        ]);
    }

    // Informational: a database where every 20th subject saturates
    // 8-bit lanes under a Fixed8 policy — the rescue re-aligns those
    // subjects at 16 bits and is allowed to pay for it.
    let mut seqs = db.sequences().to_vec();
    for (i, s) in seqs.iter_mut().enumerate().step_by(20) {
        *s = Sequence::protein(format!("hot_{i}"), &[b'W'; 120]).unwrap();
    }
    let hot_db = SeqDatabase::new(seqs);
    let wq = Sequence::protein("wq", &[b'W'; 120]).unwrap();
    let narrow = a.clone().with_width(WidthPolicy::Fixed8);
    let hot = engine.search(&narrow, &wq, &hot_db, &on).unwrap();
    let t_hot = time_min(
        || drop(engine.search(&narrow, &wq, &hot_db, &on).unwrap()),
        warmup,
        reps,
    );
    let hot_gcups = gcups(
        1,
        wq.len() * hot_db.sequences().iter().map(Sequence::len).sum::<usize>(),
        t_hot,
    );
    table.row(vec![
        "rescuing".to_string(),
        format!("{hot_gcups:.2}"),
        "n/a".to_string(),
        hot.metrics.rescued.to_string(),
    ]);
    assert!(hot.metrics.rescued > 0, "the hot database must rescue");

    println!("{}", table.render());
    println!(
        "non-saturating rescue-check overhead: {:+.2}% (budget 1%)",
        overhead * 100.0
    );
    assert!(
        overhead < 0.01,
        "the rescue check must cost <1% on a non-saturating sweep, measured {:+.2}%",
        overhead * 100.0
    );
    println!("OK");
}
