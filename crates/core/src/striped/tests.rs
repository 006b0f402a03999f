//! Equivalence tests: every striped kernel on every engine must
//! reproduce the scalar paradigm DP bit-for-bit (scores), on every
//! paradigm configuration, across query/subject shapes with and
//! without padding, and across similarity classes (similar pairs
//! exercise the lazy loop hard; dissimilar ones exercise early exit).

use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, nine_similarity_specs, seeded_rng};
use aalign_bio::{Sequence, StripedProfile};
use aalign_vec::{EmuEngine, SimdEngine};

use crate::config::{AlignConfig, AlignKind, GapModel};
use crate::paradigm::paradigm_dp;
use crate::striped::{hybrid_align, iterate_align, scan_align, HybridPolicy, Workspace};

fn all_configs() -> Vec<AlignConfig> {
    let mut out = Vec::new();
    for kind in [AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal] {
        for gap in [
            GapModel::affine(-10, -2),
            GapModel::affine(-4, -4), // open == ext edge case (θ = 0 margin)
            GapModel::linear(-3),
        ] {
            out.push(AlignConfig::new(kind, gap, &BLOSUM62));
        }
    }
    out
}

/// Run iterate, scan and hybrid on engine `E` and compare all three
/// against the scalar DP.
fn check_engine<E: SimdEngine<Elem = i32>>(eng: E, q: &Sequence, s: &Sequence, label: &str) {
    for cfg in all_configs() {
        let want = paradigm_dp(&cfg, q, s).score;
        let t2 = cfg.table2();
        let prof = StripedProfile::<i32>::build(q, &cfg.matrix, E::LANES);
        let mut ws = Workspace::new();

        macro_rules! check4 {
            ($call:ident) => {
                match (t2.local, t2.affine) {
                    (true, true) => $call!(true, true),
                    (true, false) => $call!(true, false),
                    (false, true) => $call!(false, true),
                    (false, false) => $call!(false, false),
                }
            };
        }

        macro_rules! run_iterate {
            ($l:literal, $a:literal) => {
                iterate_align::<E, $l, $a>(eng, &prof, s.indices(), t2, &mut ws).score
            };
        }
        macro_rules! run_scan {
            ($l:literal, $a:literal) => {
                scan_align::<E, $l, $a>(eng, &prof, s.indices(), t2, &mut ws).score
            };
        }
        macro_rules! run_hybrid {
            ($l:literal, $a:literal) => {
                hybrid_align::<E, $l, $a>(
                    eng,
                    &prof,
                    s.indices(),
                    t2,
                    HybridPolicy {
                        threshold: 1,
                        probe_stride: 3,
                    },
                    &mut ws,
                )
                .result
                .score
            };
        }

        let got_it = check4!(run_iterate);
        assert_eq!(
            got_it,
            want,
            "[{label}] iterate {} q={} s={}",
            cfg.label(),
            q.id(),
            s.id()
        );
        let got_sc = check4!(run_scan);
        assert_eq!(
            got_sc,
            want,
            "[{label}] scan {} q={} s={}",
            cfg.label(),
            q.id(),
            s.id()
        );
        let got_hy = check4!(run_hybrid);
        assert_eq!(
            got_hy,
            want,
            "[{label}] hybrid {} q={} s={}",
            cfg.label(),
            q.id(),
            s.id()
        );
    }
}

fn classic_pairs() -> Vec<(Sequence, Sequence)> {
    vec![
        (
            Sequence::protein("q", b"HEAGAWGHEE").unwrap(),
            Sequence::protein("s", b"PAWHEAE").unwrap(),
        ),
        (
            Sequence::protein("ident", b"MKVLAARNDW").unwrap(),
            Sequence::protein("ident2", b"MKVLAARNDW").unwrap(),
        ),
        (
            // Query shorter than one vector.
            Sequence::protein("tiny", b"WW").unwrap(),
            Sequence::protein("tinys", b"AWWA").unwrap(),
        ),
        (
            // Subject of length 1.
            Sequence::protein("q1", b"HEAGAWGHEE").unwrap(),
            Sequence::protein("s1", b"W").unwrap(),
        ),
        (
            // Empty subject: boundary-only result.
            Sequence::protein("qe", b"HEAGAWGHEE").unwrap(),
            Sequence::protein("se", b"").unwrap(),
        ),
    ]
}

#[test]
fn emu4_matches_dp_on_classic_pairs() {
    for (q, s) in classic_pairs() {
        check_engine(EmuEngine::<i32, 4>::new(), &q, &s, "emu4");
    }
}

#[test]
fn emu16_matches_dp_on_classic_pairs() {
    for (q, s) in classic_pairs() {
        check_engine(EmuEngine::<i32, 16>::new(), &q, &s, "emu16");
    }
}

#[test]
fn emu8_matches_dp_on_random_similarity_classes() {
    let mut rng = seeded_rng(1234);
    let q = named_query(&mut rng, 120);
    for spec in nine_similarity_specs() {
        let s = spec.generate(&mut rng, &q).subject;
        check_engine(EmuEngine::<i32, 8>::new(), &q, &s, "emu8");
    }
}

#[test]
fn padding_shapes_are_exact() {
    // Query lengths straddling segment boundaries for 4- and 8-lane
    // engines (m = k·v ± 1 exercises maximal/minimal padding).
    let mut rng = seeded_rng(77);
    for m in [3usize, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
        let q = named_query(&mut rng, m);
        let s = named_query(&mut rng, 23);
        check_engine(EmuEngine::<i32, 4>::new(), &q, &s, "pad4");
        check_engine(EmuEngine::<i32, 8>::new(), &q, &s, "pad8");
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_matches_dp() {
    let Some(eng) = aalign_vec::avx2::Avx2I32::new() else {
        eprintln!("skipping: no avx2");
        return;
    };
    let mut rng = seeded_rng(4242);
    let q = named_query(&mut rng, 150);
    for spec in nine_similarity_specs() {
        let s = spec.generate(&mut rng, &q).subject;
        check_engine(eng, &q, &s, "avx2");
    }
    for (q, s) in classic_pairs() {
        check_engine(eng, &q, &s, "avx2-classic");
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx512_matches_dp() {
    let Some(eng) = aalign_vec::avx512::Avx512I32::new() else {
        eprintln!("skipping: no avx512f");
        return;
    };
    let mut rng = seeded_rng(555);
    let q = named_query(&mut rng, 150);
    for spec in nine_similarity_specs() {
        let s = spec.generate(&mut rng, &q).subject;
        check_engine(eng, &q, &s, "avx512");
    }
    for (q, s) in classic_pairs() {
        check_engine(eng, &q, &s, "avx512-classic");
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn sse41_matches_dp() {
    let Some(eng) = aalign_vec::sse41::Sse41I32::new() else {
        eprintln!("skipping: no sse4.1");
        return;
    };
    let mut rng = seeded_rng(808);
    let q = named_query(&mut rng, 90);
    for spec in nine_similarity_specs().into_iter().take(4) {
        let s = spec.generate(&mut rng, &q).subject;
        check_engine(eng, &q, &s, "sse41");
    }
}

#[test]
fn i16_kernels_match_dp_when_in_range() {
    // Short sequences keep scores well inside i16.
    let mut rng = seeded_rng(31);
    let q = named_query(&mut rng, 64);
    let s = named_query(&mut rng, 50);
    for cfg in all_configs() {
        let want = paradigm_dp(&cfg, &q, &s).score;
        let t2 = cfg.table2();
        let prof = StripedProfile::<i16>::build(&q, &cfg.matrix, 16);
        let mut ws = Workspace::<i16>::new();
        let eng = EmuEngine::<i16, 16>::new();
        let got = match (t2.local, t2.affine) {
            (true, true) => iterate_align::<_, true, true>(eng, &prof, s.indices(), t2, &mut ws),
            (true, false) => iterate_align::<_, true, false>(eng, &prof, s.indices(), t2, &mut ws),
            (false, true) => iterate_align::<_, false, true>(eng, &prof, s.indices(), t2, &mut ws),
            (false, false) => {
                iterate_align::<_, false, false>(eng, &prof, s.indices(), t2, &mut ws)
            }
        };
        assert_eq!(got.score, want, "{}", cfg.label());
        assert!(!got.saturated);
    }
}

#[test]
fn i8_local_saturation_is_flagged() {
    // A long identical pair overflows i8 for local alignment.
    let text: Vec<u8> = std::iter::repeat_n(b'W', 100).collect();
    let q = Sequence::protein("q", &text).unwrap();
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let t2 = cfg.table2();
    let prof = StripedProfile::<i8>::build(&q, &cfg.matrix, 32);
    let mut ws = Workspace::<i8>::new();
    let eng = EmuEngine::<i8, 32>::new();
    let got = iterate_align::<_, true, true>(eng, &prof, q.indices(), t2, &mut ws);
    assert!(got.saturated, "score {} must be flagged", got.score);
}

#[test]
fn iterate_and_scan_agree_on_stats_columns() {
    let mut rng = seeded_rng(9);
    let q = named_query(&mut rng, 40);
    let s = named_query(&mut rng, 35);
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let t2 = cfg.table2();
    let prof = StripedProfile::<i32>::build(&q, &cfg.matrix, 8);
    let mut ws = Workspace::new();
    let eng = EmuEngine::<i32, 8>::new();
    let it = iterate_align::<_, true, true>(eng, &prof, s.indices(), t2, &mut ws);
    assert_eq!(it.iterate_columns, 35);
    assert_eq!(it.scan_columns, 0);
    let sc = scan_align::<_, true, true>(eng, &prof, s.indices(), t2, &mut ws);
    assert_eq!(sc.scan_columns, 35);
    assert_eq!(sc.iterate_columns, 0);
    assert_eq!(sc.lazy_iters, 0);
}

#[test]
fn hybrid_trace_covers_every_column() {
    let mut rng = seeded_rng(13);
    let q = named_query(&mut rng, 60);
    let s = named_query(&mut rng, 95);
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let t2 = cfg.table2();
    let prof = StripedProfile::<i32>::build(&q, &cfg.matrix, 8);
    let mut ws = Workspace::new();
    let eng = EmuEngine::<i32, 8>::new();
    let mut sink = aalign_obs::CollectorSink::new();
    let rep = crate::striped::hybrid_align_sink::<_, true, true, _>(
        eng,
        &prof,
        s.indices(),
        t2,
        HybridPolicy {
            threshold: 0,
            probe_stride: 10,
        },
        &mut ws,
        &mut sink,
    );
    assert_eq!(sink.events.len(), 95, "one event per subject character");
    assert_eq!(rep.result.iterate_columns + rep.result.scan_columns, 95);
}

#[test]
fn similar_pairs_need_more_lazy_sweeps_than_dissimilar() {
    // The paper's Sec. V-B observation, the basis of the hybrid.
    let mut rng = seeded_rng(2020);
    let q = named_query(&mut rng, 300);
    let similar = aalign_bio::synth::PairSpec::new(
        aalign_bio::synth::Level::Hi,
        aalign_bio::synth::Level::Hi,
    )
    .generate(&mut rng, &q)
    .subject;
    let dissimilar = named_query(&mut rng, 300);

    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let t2 = cfg.table2();
    let prof = StripedProfile::<i32>::build(&q, &cfg.matrix, 8);
    let mut ws = Workspace::new();
    let eng = EmuEngine::<i32, 8>::new();
    let sim = iterate_align::<_, true, true>(eng, &prof, similar.indices(), t2, &mut ws);
    let dis = iterate_align::<_, true, true>(eng, &prof, dissimilar.indices(), t2, &mut ws);
    assert!(
        sim.lazy_iters > dis.lazy_iters * 2,
        "similar {} vs dissimilar {}",
        sim.lazy_iters,
        dis.lazy_iters
    );
}

/// The hybrid's correctness rests on iterate and scan columns being
/// freely interleavable on shared buffers. Fuzz exactly that: a
/// random strategy choice per column must still be bit-identical to
/// the scalar DP, for every configuration.
#[test]
fn random_column_interleaving_is_exact() {
    use crate::striped::columns::ColumnEngine;
    use rand::RngExt;

    let mut rng = seeded_rng(31415);
    for trial in 0..12 {
        let q = named_query(&mut rng, 20 + trial * 7);
        let s = named_query(&mut rng, 30 + trial * 11);
        for cfg in all_configs() {
            let want = paradigm_dp(&cfg, &q, &s).score;
            let t2 = cfg.table2();
            let prof = StripedProfile::<i32>::build(&q, &cfg.matrix, 8);
            let mut ws = Workspace::new();
            let eng = EmuEngine::<i32, 8>::new();

            macro_rules! run_interleaved {
                ($l:literal, $a:literal) => {{
                    let mut cols = ColumnEngine::<_, $l, $a>::new(eng, &prof, t2, &mut ws);
                    for &c in s.indices() {
                        if rng.random_bool(0.5) {
                            cols.iterate_column(c);
                        } else {
                            cols.scan_column(c);
                        }
                    }
                    cols.finish().score
                }};
            }
            let got = match (t2.local, t2.affine) {
                (true, true) => run_interleaved!(true, true),
                (true, false) => run_interleaved!(true, false),
                (false, true) => run_interleaved!(false, true),
                (false, false) => run_interleaved!(false, false),
            };
            assert_eq!(got, want, "trial {trial} {}", cfg.label());
        }
    }
}

/// Width-equivalence on hardware engines: the i16 kernels must agree
/// with i32 whenever the score bound admits i16.
#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_i16_matches_i32_in_range() {
    let (Some(e16), Some(e32)) = (
        aalign_vec::avx2::Avx2I16::new(),
        aalign_vec::avx2::Avx2I32::new(),
    ) else {
        eprintln!("skipping: no avx2");
        return;
    };
    let mut rng = seeded_rng(2718);
    let q = named_query(&mut rng, 75);
    for spec in nine_similarity_specs() {
        let s = spec.generate(&mut rng, &q).subject;
        for cfg in all_configs() {
            let t2 = cfg.table2();
            let p16 = StripedProfile::<i16>::build(&q, &cfg.matrix, 16);
            let p32 = StripedProfile::<i32>::build(&q, &cfg.matrix, 8);
            let mut w16 = Workspace::<i16>::new();
            let mut w32 = Workspace::<i32>::new();

            macro_rules! both {
                ($l:literal, $a:literal) => {{
                    let r16 = iterate_align::<_, $l, $a>(e16, &p16, s.indices(), t2, &mut w16);
                    let r32 = iterate_align::<_, $l, $a>(e32, &p32, s.indices(), t2, &mut w32);
                    (r16, r32)
                }};
            }
            let (r16, r32) = match (t2.local, t2.affine) {
                (true, true) => both!(true, true),
                (true, false) => both!(true, false),
                (false, true) => both!(false, true),
                (false, false) => both!(false, false),
            };
            assert!(!r16.saturated, "75-residue scores fit i16");
            assert_eq!(r16.score, r32.score, "{} {}", cfg.label(), spec.label());
        }
    }
}
