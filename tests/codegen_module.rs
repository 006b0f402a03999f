//! The module `aalign codegen` emits for the builtin Alg. 1 kernel
//! (Smith-Waterman, affine, `GAP_OPEN` −12 / `GAP_EXT` −2) is checked
//! in under `golden/` and compiled here against the live API, so a
//! template that drifts from the striped driver fails to build rather
//! than failing for the first user who runs its output.

#[path = "golden/sw_aff_kernel.rs"]
mod emitted;

use aalign::bio::matrices::BLOSUM62;
use aalign::bio::synth::{named_query, nine_similarity_specs, seeded_rng};
use aalign::bio::StripedProfile;
use aalign::codegen::emit::GapBindings;
use aalign::core::{Aligner, Strategy, Workspace};
use aalign::vec::{EmuEngine, SimdEngine};

const GOLDEN: &str = include_str!("golden/sw_aff_kernel.rs");

#[test]
fn emitter_reproduces_the_checked_in_module() {
    let ast = aalign::codegen::parse_program(aalign::codegen::ALG1_SMITH_WATERMAN_AFFINE).unwrap();
    let spec = aalign::codegen::analyze(&ast).unwrap();
    let out = aalign::codegen::emit_rust_kernel(
        &spec,
        GapBindings {
            gap_open: -12,
            gap_ext: -2,
        },
    );
    assert!(
        out == GOLDEN,
        "the emitter no longer writes tests/golden/sw_aff_kernel.rs; regenerate it with \
         `aalign codegen --input <Alg. 1 source> --open -12 --ext -2 --out ...` and review \
         the diff:\n{out}"
    );
}

/// The three emitted entry points on one engine score every pair as
/// `Aligner` does under the emitted configuration.
fn entry_points_score_like_the_aligner<E: SimdEngine>(eng: E) {
    assert_eq!(
        (
            emitted::LOCAL,
            emitted::AFFINE,
            emitted::GAP_THETA,
            emitted::GAP_BETA
        ),
        (true, true, -10, -2)
    );
    let cfg = emitted::config(&BLOSUM62);
    let mut rng = seeded_rng(61);
    let q = named_query(&mut rng, 90);
    let prof = StripedProfile::<E::Elem>::build(&q, &BLOSUM62, E::LANES);
    let mut ws = Workspace::new();
    for spec in nine_similarity_specs() {
        let s = spec.generate(&mut rng, &q).subject;
        let label = spec.label();
        for strategy in [
            Strategy::StripedIterate,
            Strategy::StripedScan,
            Strategy::Hybrid,
        ] {
            let want = Aligner::new(cfg.clone())
                .with_strategy(strategy)
                .align(&q, &s)
                .unwrap();
            let got = match strategy {
                Strategy::StripedIterate => {
                    emitted::sw_aff_iterate(eng, &prof, &s, &BLOSUM62, &mut ws)
                }
                Strategy::StripedScan => emitted::sw_aff_scan(eng, &prof, &s, &BLOSUM62, &mut ws),
                _ => emitted::sw_aff_hybrid(eng, &prof, &s, &BLOSUM62, &mut ws),
            };
            assert!(!got.saturated, "{label} {strategy:?}");
            assert_eq!(got.score, want.score, "{label} {strategy:?}");
            assert_eq!(got.iterate_columns + got.scan_columns, s.len());
        }
    }
}

#[test]
fn emitted_entry_points_score_like_the_aligner_at_i32() {
    entry_points_score_like_the_aligner(EmuEngine::<i32, 8>::new());
}

#[test]
fn emitted_entry_points_score_like_the_aligner_at_i16() {
    entry_points_score_like_the_aligner(EmuEngine::<i16, 16>::new());
}
