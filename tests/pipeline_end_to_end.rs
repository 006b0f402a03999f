//! End-to-end scenarios spanning all crates: FASTA in → database
//! search → traceback out; sequential paradigm text → analysis →
//! kernels → database search; the SWPS3/SWAPHI comparators against
//! the main aligner.

use aalign::baselines::swps3_like::{Swps3Like, Swps3Scratch};
use aalign::baselines::{naive_align, SwaphiLike};
use aalign::bio::alphabet::PROTEIN;
use aalign::bio::fasta::{parse_fasta, write_fasta};
use aalign::bio::matrices::BLOSUM62;
use aalign::bio::synth::{named_query, seeded_rng, swissprot_like_db, Level, PairSpec};
use aalign::bio::SeqDatabase;
use aalign::codegen::emit::GapBindings;
use aalign::codegen::{analyze, parse_program, spec_to_config, ALG1_SMITH_WATERMAN_AFFINE};
use aalign::core::traceback::traceback_align;
use aalign::par::{SearchEngine, SearchOptions};
use aalign::AlignScratch;
use aalign::{AlignConfig, Aligner, GapModel, Strategy};

#[test]
fn fasta_roundtrip_search_and_traceback() {
    // Build a small database, serialize to FASTA, parse it back, and
    // search it — everything scores consistently.
    let mut rng = seeded_rng(1000);
    let query = named_query(&mut rng, 120);
    let mut seqs = swissprot_like_db(1001, 40).sequences().to_vec();
    let planted = PairSpec::new(Level::Hi, Level::Hi)
        .generate(&mut rng, &query)
        .subject;
    seqs.push(planted.clone());

    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &seqs, 70).unwrap();
    let parsed = parse_fasta(std::str::from_utf8(&fasta).unwrap(), &PROTEIN).unwrap();
    assert_eq!(parsed.len(), seqs.len());
    let db = SeqDatabase::new(parsed);

    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let report = SearchEngine::new(2)
        .search(&aligner, &query, &db, &SearchOptions::new().top_n(3))
        .unwrap();
    assert_eq!(db.id(report.hits[0].db_index), planted.id());

    // Traceback of the winner reproduces the search score.
    let aln = traceback_align(aligner.config(), &query, db.get(report.hits[0].db_index));
    assert_eq!(aln.score, report.hits[0].score);
    assert!(
        aln.identity > 0.5,
        "planted hi_hi pair should align tightly"
    );
}

#[test]
fn codegen_pipeline_drives_database_search() {
    // Sequential text → spec → config → multithreaded search must
    // equal a hand-built configuration end to end.
    let spec = analyze(&parse_program(ALG1_SMITH_WATERMAN_AFFINE).unwrap()).unwrap();
    let cfg_text = spec_to_config(
        &spec,
        GapBindings {
            gap_open: -12,
            gap_ext: -2,
        },
        &BLOSUM62,
    )
    .unwrap();
    let cfg_hand = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);

    let mut rng = seeded_rng(77);
    let query = named_query(&mut rng, 90);
    let db = swissprot_like_db(78, 30);
    let (engine, opts) = (SearchEngine::new(2), SearchOptions::new().top_n(0));
    let a = engine
        .search(&Aligner::new(cfg_text), &query, &db, &opts)
        .unwrap();
    let b = engine
        .search(&Aligner::new(cfg_hand), &query, &db, &opts)
        .unwrap();
    assert_eq!(a.hits, b.hits);
}

#[test]
fn comparators_agree_with_main_aligner_and_naive() {
    let mut rng = seeded_rng(31337);
    let query = named_query(&mut rng, 140);
    let gap = GapModel::affine(-10, -2);
    let cfg = AlignConfig::local(gap, &BLOSUM62);
    let aligner = Aligner::new(cfg.clone()).with_strategy(Strategy::Hybrid);
    let swps3 = Swps3Like::new(&query, gap, &BLOSUM62);
    let swaphi = SwaphiLike::new(&query, gap, &BLOSUM62);
    let mut s3scratch = Swps3Scratch::new();
    let mut ws = AlignScratch::new();

    for spec in aalign::bio::synth::nine_similarity_specs() {
        let subject = spec.generate(&mut rng, &query).subject;
        let reference = naive_align(&cfg, &query, &subject);
        assert_eq!(
            aligner.align(&query, &subject).unwrap().score,
            reference,
            "aalign {}",
            spec.label()
        );
        assert_eq!(
            swps3.align(&subject, &mut s3scratch).score,
            reference,
            "swps3-like {}",
            spec.label()
        );
        assert_eq!(
            swaphi.align(&subject, &mut ws).score,
            reference,
            "swaphi-like {}",
            spec.label()
        );
    }
}

#[test]
fn hybrid_switches_on_planted_similarity_and_scores_identically() {
    let mut rng = seeded_rng(9001);
    let query = named_query(&mut rng, 300);
    let similar = PairSpec::new(Level::Hi, Level::Hi)
        .generate(&mut rng, &query)
        .subject;
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);

    let hybrid = Aligner::new(cfg.clone())
        .with_strategy(Strategy::Hybrid)
        .with_width(aalign::WidthPolicy::Fixed32)
        .align(&query, &similar)
        .unwrap();
    let iterate = Aligner::new(cfg)
        .with_strategy(Strategy::StripedIterate)
        .with_width(aalign::WidthPolicy::Fixed32)
        .align(&query, &similar)
        .unwrap();

    assert_eq!(hybrid.score, iterate.score);
    assert!(
        hybrid.stats.scan_columns > 0,
        "similar pair must trigger scan mode: {:?}",
        hybrid.stats
    );
    assert!(hybrid.stats.switches_to_scan >= 1);
}
