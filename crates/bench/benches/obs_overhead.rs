//! Guard bench: tracing must be free when no sink is listening.
//!
//! The kernel's once-per-alignment dispatch (`Aligner::attempt` in
//! `aalign-core`) routes disabled sinks to the `NullSink`
//! monomorphization, which is bit-for-bit the pre-observability
//! kernel — no per-column virtual calls, no branches. This bench
//! *enforces* that claim: it times the raw no-op-sink kernel path
//! against the public `align_prepared` entry (the path every
//! non-tracing caller takes) and fails if the public path costs more
//! than 1%. It also reports — informationally, unguarded — what an
//! enabled collector costs, since that path is allowed to pay for
//! what it records.
//!
//! The same budget covers the serve stack's always-on flight
//! recorder: one ring `record()` per alignment-sized unit of work
//! must also stay under 1%, or "always on" would be a lie.
//!
//! Usage: `cargo bench -p aalign-bench --bench obs_overhead`

use aalign_bench::harness::{gcups, time_min};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::synth::{named_query, seeded_rng};
use aalign_core::{AlignConfig, AlignScratch, Aligner, GapModel, Strategy};
use aalign_obs::{CollectorSink, FlightEvent, FlightRecorder, NullSink, StageKind};

fn main() {
    // `cargo bench` invokes every harness=false bench with --bench;
    // nothing to parse, but accept and ignore the flag.
    let _ = std::env::args();

    let mut rng = seeded_rng(42);
    let q = named_query(&mut rng, 800);
    let s = named_query(&mut rng, 800);
    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let (warmup, reps) = (3, 9);

    println!("# obs_overhead — no-op sink vs the raw kernel path\n");
    let mut worst: f64 = 0.0;
    for strat in [
        Strategy::StripedIterate,
        Strategy::StripedScan,
        Strategy::Hybrid,
    ] {
        let al = Aligner::new(cfg.clone()).with_strategy(strat);
        let pq = al.prepare(&q).unwrap();
        let mut scratch = AlignScratch::new();

        // Baseline: the explicit no-op monomorphization, i.e. the
        // kernel exactly as it ran before tracing existed.
        let base = al
            .align_prepared_sink(&pq, &s, &mut scratch, &mut NullSink)
            .unwrap();
        let t_base = time_min(
            || {
                let _ = al
                    .align_prepared_sink(&pq, &s, &mut scratch, &mut NullSink)
                    .unwrap();
            },
            warmup,
            reps,
        );

        // Candidate: the public entry non-tracing callers use.
        let plain = al.align_prepared(&pq, &s, &mut scratch).unwrap();
        assert_eq!(plain.score, base.score, "paths must agree on results");
        assert_eq!(plain.stats, base.stats);
        let t_plain = time_min(
            || {
                let _ = al.align_prepared(&pq, &s, &mut scratch).unwrap();
            },
            warmup,
            reps,
        );

        // Informational: what an enabled sink costs.
        let mut sink = CollectorSink::default();
        let t_traced = time_min(
            || {
                sink.events.clear();
                let _ = al
                    .align_prepared_sink(&pq, &s, &mut scratch, &mut sink)
                    .unwrap();
            },
            warmup,
            reps,
        );

        let overhead = t_plain.as_secs_f64() / t_base.as_secs_f64() - 1.0;
        let traced = t_traced.as_secs_f64() / t_base.as_secs_f64() - 1.0;
        worst = worst.max(overhead);
        println!(
            "{:<8} base {:>6.2} GCUPS | disabled-sink overhead {:>+6.2}% | enabled collector {:>+7.2}%",
            strat.short(),
            gcups(q.len(), s.len(), t_base),
            overhead * 100.0,
            traced * 100.0,
        );
    }

    println!(
        "\nworst disabled-sink overhead: {:+.2}% (budget 1%)",
        worst * 100.0
    );
    assert!(
        worst < 0.01,
        "disabled tracing must cost <1% over the raw kernel path, measured {:+.2}%",
        worst * 100.0
    );

    // Flight recorder: the serve dispatcher records a handful of
    // stage events per request into an always-on lock-free ring.
    // Guard the per-event cost the same way: one record() per
    // alignment must not move the needle.
    let al = Aligner::new(cfg).with_strategy(Strategy::Hybrid);
    let pq = al.prepare(&q).unwrap();
    let mut scratch = AlignScratch::new();
    let t_base = time_min(
        || {
            let _ = al.align_prepared(&pq, &s, &mut scratch).unwrap();
        },
        warmup,
        reps,
    );
    let rec = FlightRecorder::new();
    let mut n = 0u64;
    let t_flight = time_min(
        || {
            let out = al.align_prepared(&pq, &s, &mut scratch).unwrap();
            n += 1;
            rec.record(FlightEvent {
                at_us: n,
                request: n,
                stage: StageKind::Sweep,
                dur_us: u64::from(out.score.unsigned_abs()),
                ref_request: 0,
            });
        },
        warmup,
        reps,
    );
    let flight_overhead = t_flight.as_secs_f64() / t_base.as_secs_f64() - 1.0;
    println!(
        "\nflight-recorder record() per alignment: {:+.2}% (budget 1%, {} events recorded)",
        flight_overhead * 100.0,
        rec.recorded(),
    );
    assert!(
        flight_overhead < 0.01,
        "always-on flight recording must cost <1% per request, measured {:+.2}%",
        flight_overhead * 100.0
    );
    println!("OK");
}
