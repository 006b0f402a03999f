//! Guard bench: the serve stack's always-on flight recorder must cost
//! a served request nothing worth measuring, or "always on" would be
//! a lie.
//!
//! A request makes six `FlightRecorder::record` calls: parse, queue,
//! sweep, merge, respond, and batch_wait when coalesced. This bench
//! times `record` over many calls (ns per record), times the request's
//! sweep — a one-worker `SearchEngine::search` of a 60-residue query
//! over a 250-subject Swiss-Prot-like database, the shape of the
//! benchmark's `serve_http` workload — and fails unless the six
//! records cost under 1 % of that sweep.
//!
//! The kernels need no guard of their own: `Aligner::align_prepared`
//! *is* the `NullSink` instantiation of `align_prepared_sink`, so
//! there is no second path to compare it with.
//!
//! Usage: `cargo bench -p aalign-bench --bench obs_overhead`

use std::hint::black_box;

use aalign_bench::harness::{ns_per_call, print_banner, time_min};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
use aalign_core::{AlignConfig, Aligner, GapModel};
use aalign_obs::{FlightEvent, FlightRecorder, StageKind};
use aalign_par::{SearchEngine, SearchOptions};

/// Flight-recorder events one served request records.
const RECORDS_PER_REQUEST: f64 = 6.0;

fn main() {
    print_banner("obs_overhead — flight recorder vs a served request's sweep");

    let rec = FlightRecorder::new();
    let mut n = 0u64;
    let ns_record = ns_per_call(
        || {
            n += 1;
            rec.record(black_box(FlightEvent {
                at_us: n,
                request: n,
                stage: StageKind::Sweep,
                dur_us: n,
                ref_request: 0,
            }));
        },
        100_000,
        3,
        20,
    );

    let db = swissprot_like_db(42, 250);
    let query = named_query(&mut seeded_rng(42), 60);
    let aligner = Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62));
    let engine = SearchEngine::new(1);
    let opts = SearchOptions::new();
    let t_search = time_min(
        || {
            black_box(engine.search(&aligner, &query, &db, &opts).unwrap());
        },
        3,
        15,
    );

    let share = RECORDS_PER_REQUEST * ns_record / (t_search.as_secs_f64() * 1e9);
    println!(
        "record(): {ns_record:.1} ns ({} events recorded)",
        rec.recorded()
    );
    println!(
        "one-worker sweep, Q{} x {} subjects: {:.3} ms",
        query.len(),
        db.len(),
        t_search.as_secs_f64() * 1e3
    );
    println!(
        "{RECORDS_PER_REQUEST} records per request: {:.4} % of the sweep (budget 1 %)",
        share * 100.0
    );
    assert!(
        share < 0.01,
        "always-on flight recording must cost <1% per request, measured {:.4}%",
        share * 100.0
    );
    println!("OK");
}
