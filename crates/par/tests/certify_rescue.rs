//! Differential gate between the saturation-certificate prover
//! (`aalign_core::certify`) and the PR 5 rescue machinery: a granted
//! certificate claims the rescue ladder is dead weight, so searches
//! executed at a certified width must report `rescued == 0` — and a
//! denied certificate must not be vacuous, so its witness input must
//! actually saturate the denied width.

use rand::RngExt;

use aalign_bio::synth::{named_query, random_protein, seeded_rng, swissprot_like_db};
use aalign_bio::{matrices::BLOSUM62, SeqDatabase, Sequence, SubstMatrix};
use aalign_core::certify::{certify, kernel_headroom, lane_cap, CertificateStore};
use aalign_core::{AlignConfig, Aligner, GapModel, WidthPolicy};
use aalign_par::{SearchEngine, SearchOptions};

fn random_dna<R: RngExt>(rng: &mut R, id: &str, len: usize) -> Sequence {
    let text: Vec<u8> = (0..len)
        .map(|_| b"ACGT"[rng.random_range(0..4usize)])
        .collect();
    Sequence::dna(id, &text).unwrap()
}

fn dna_db<R: RngExt>(rng: &mut R, count: usize, max_len: usize) -> SeqDatabase {
    let seqs = (0..count)
        .map(|i| {
            let len = rng.random_range(1..=max_len);
            random_dna(rng, &format!("s{i}"), len)
        })
        .collect();
    SeqDatabase::new(seqs)
}

/// Shipped config #1: short DNA reads, certified i8 — the headline
/// narrow path. Rescue stays on (the default) and must never fire.
#[test]
fn certified_i8_dna_search_never_rescues() {
    let cfg = AlignConfig::local(GapModel::affine(-5, -2), &SubstMatrix::dna(2, -3));
    let aligner = Aligner::new(cfg.clone()).with_certified_bounds(48, 1000);
    let plain = Aligner::new(cfg);
    let mut rng = seeded_rng(900);
    let (engine, opts) = (SearchEngine::new(2), SearchOptions::new());
    for round in 0..4 {
        let query = random_dna(&mut rng, &format!("q{round}"), 48);
        let db = dna_db(&mut rng, 24, 1000);
        let report = engine.search(&aligner, &query, &db, &opts).unwrap();
        assert_eq!(report.metrics.rescued, 0, "round {round}");
        assert!(report.metrics.rescue_widths.is_empty());
        assert_eq!(report.metrics.certified_width, 8, "round {round}");
        // Differential: the certified i8 sweep ranks identically to
        // the uncertified (i16-first) sweep.
        let want = engine.search(&plain, &query, &db, &opts).unwrap();
        assert_eq!(report.hits, want.hits, "round {round}");
        assert_eq!(want.metrics.certified_width, 0, "no store installed");
    }
}

/// Shipped config #2: BLOSUM62 local search certified at i16 for
/// realistic protein lengths; i8 is denied there with a witness.
#[test]
fn certified_i16_protein_search_never_rescues() {
    let db = swissprot_like_db(901, 40);
    let max_len = db.stats().max_len;
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let mut rng = seeded_rng(902);
    let query = named_query(&mut rng, 200);
    let store = CertificateStore::compute(&cfg, query.len(), max_len);
    assert!(!store.grants(8, query.len(), max_len), "i8 must be denied");
    assert!(
        store.grants(16, query.len(), max_len),
        "i16 must be granted"
    );
    let aligner = Aligner::new(cfg).with_certificates(store);
    let report = SearchEngine::new(2)
        .search(&aligner, &query, &db, &SearchOptions::new())
        .unwrap();
    assert_eq!(report.metrics.rescued, 0);
    assert_eq!(report.metrics.certified_width, 16);
}

/// Soundness + non-vacuity over seeded random (matrix, gaps, bound)
/// tuples: every granted certificate is exercised by a search that
/// must not rescue; every witnessed denial is exercised by running
/// its witness pair at the denied width, which must saturate. The
/// seed set must produce at least one of each, or the test is not
/// testing anything.
#[test]
fn random_tuples_grant_implies_no_rescue_and_denials_are_witnessed() {
    let mut granted_checked = 0u32;
    let mut witnesses_checked = 0u32;
    for seed in 0..8u64 {
        let mut rng = seeded_rng(1000 + seed);
        let matrix = SubstMatrix::dna(rng.random_range(1..=8i32), -rng.random_range(1..=6i32));
        let gap = GapModel::affine(-rng.random_range(0..=10i32), -rng.random_range(1..=4i32));
        let cfg = AlignConfig::local(gap, &matrix);
        let max_query = rng.random_range(16..=96);
        let max_subject = rng.random_range(64..=512);
        let store = CertificateStore::compute(&cfg, max_query, max_subject);

        for cert in store.certificates() {
            if cert.lane_bits == 32 {
                continue;
            }
            if cert.granted {
                // Random search inside the certified bounds.
                let aligner = Aligner::new(cfg.clone())
                    .with_certificates(store.clone())
                    .with_width(match cert.lane_bits {
                        8 => WidthPolicy::Fixed8,
                        _ => WidthPolicy::Fixed16,
                    });
                let query = random_dna(&mut rng, "q", max_query);
                let db = dna_db(&mut rng, 8, max_subject);
                let report = SearchEngine::new(1)
                    .search(&aligner, &query, &db, &SearchOptions::new())
                    .unwrap();
                assert_eq!(
                    report.metrics.rescued, 0,
                    "seed {seed}: granted i{} rescued {:?}",
                    cert.lane_bits, cert
                );
                granted_checked += 1;
            } else if let Some(w) = cert.denial.as_ref().and_then(|d| d.witness) {
                // The witness must really saturate the denied width.
                let q = Sequence::dna("wq", &vec![w.query_letter; w.len]).unwrap();
                let s = Sequence::dna("ws", &vec![w.subject_letter; w.len]).unwrap();
                let fixed = Aligner::new(cfg.clone()).with_width(match cert.lane_bits {
                    8 => WidthPolicy::Fixed8,
                    _ => WidthPolicy::Fixed16,
                });
                let out = fixed.align(&q, &s).unwrap();
                assert!(
                    out.saturated,
                    "seed {seed}: witness for denied i{} did not saturate \
                     (score {}, predicted ≥ {})",
                    cert.lane_bits, out.score, w.min_score
                );
                witnesses_checked += 1;
            }
        }
    }
    assert!(granted_checked > 0, "seed set produced no granted certs");
    assert!(
        witnesses_checked > 0,
        "seed set produced no witnessed denials"
    );
}

/// The denial's reported "tightest length bound that would fix it"
/// really is tight: a search at that uniform bound does not rescue,
/// and the prover denies one residue past it.
#[test]
fn reported_max_safe_len_is_usable() {
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let denied = certify(&cfg, 400, 400, 8);
    assert!(!denied.granted);
    let safe = denied.denial.as_ref().unwrap().max_safe_len.unwrap();
    assert!(certify(&cfg, safe, safe, 8).granted);
    assert!(!certify(&cfg, safe + 1, safe + 1, 8).granted);

    // Searches inside the safe bound at Fixed8 do not rescue. The
    // bound is tiny for BLOSUM62 at i8, so build short proteins
    // rather than filtering a realistic database.
    let mut rng = seeded_rng(903);
    let query = random_protein(&mut rng, "q", safe);
    let db = SeqDatabase::new(
        (0..12)
            .map(|i| {
                let len = rng.random_range(1..=safe);
                random_protein(&mut rng, format!("p{i}"), len)
            })
            .collect(),
    );
    let aligner = Aligner::new(cfg.clone())
        .with_certified_bounds(safe, safe)
        .with_width(WidthPolicy::Fixed8);
    let report = SearchEngine::new(1)
        .search(&aligner, &query, &db, &SearchOptions::new())
        .unwrap();
    assert_eq!(report.metrics.rescued, 0);
    assert_eq!(report.metrics.certified_width, 8);

    // And the witness score lower bound is honest arithmetic: it must
    // sit at or above the i8 detection threshold (cap − headroom).
    let w = denied.denial.unwrap().witness.unwrap();
    assert!(
        w.min_score >= lane_cap(8) - kernel_headroom(&cfg),
        "witness score bound below the detection threshold"
    );
}
