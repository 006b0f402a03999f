//! Hybrid switching trace — the paper's Fig. 5 scenario.
//!
//! Builds a subject with a dissimilar head, a near-identical middle
//! (a copy of the query) and a dissimilar tail, then plots — as an
//! ASCII strip — which strategy the hybrid used for every subject
//! column and how many lazy sweeps the iterate columns cost.
//!
//! Run: `cargo run --release --example hybrid_trace`

use aalign::bio::matrices::BLOSUM62;
use aalign::bio::synth::{named_query, random_protein, seeded_rng};
use aalign::bio::{Sequence, StripedProfile};
use aalign::core::striped::hybrid_align_sink;
use aalign::core::{HybridPolicy, Workspace};
use aalign::obs::{CollectorSink, StrategyKind, TraceEvent};
use aalign::vec::EmuEngine;
use aalign::{AlignConfig, GapModel};

fn main() {
    let mut rng = seeded_rng(5);
    let query = named_query(&mut rng, 400);

    // head (400 random) + middle (the query itself) + tail (400 random)
    let head = random_protein(&mut rng, "head", 400);
    let tail = random_protein(&mut rng, "tail", 400);
    let mut idx = Vec::new();
    idx.extend_from_slice(head.indices());
    idx.extend_from_slice(query.indices());
    idx.extend_from_slice(tail.indices());
    let subject = Sequence::from_indices("head+copy+tail", query.alphabet(), idx);

    let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
    let policy = HybridPolicy {
        threshold: 2,
        probe_stride: 64,
    };
    let prof = StripedProfile::<i32>::build(&query, &cfg.matrix, 16);
    let mut ws = Workspace::new();
    // The sink records one event per column.
    let mut sink = CollectorSink::new();
    let rep = hybrid_align_sink::<_, true, true, _>(
        EmuEngine::<i32, 16>::new(),
        &prof,
        subject.indices(),
        cfg.table2(),
        policy,
        &mut ws,
        &mut sink,
    );

    println!(
        "subject: {} columns (similar region at 400..800), threshold={}, stride={}",
        subject.len(),
        policy.threshold,
        policy.probe_stride
    );
    println!("score: {}\n", rep.result.score);

    // One character per column: '.' cheap iterate, digit = iterate
    // with that many lazy sweeps, 's' = scan column.
    println!("per-column strategy strip (80 columns/row):");
    let strip: String = sink
        .events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Hybrid(col) => Some(match (col.strategy, col.lazy_sweeps) {
                (StrategyKind::Iterate, 0) => '.',
                (StrategyKind::Iterate, n) => char::from_digit(n.min(9), 10).unwrap_or('9'),
                (StrategyKind::Scan, _) => 's',
            }),
            _ => None,
        })
        .collect();
    for (i, chunk) in strip.as_bytes().chunks(80).enumerate() {
        println!("{:>5} {}", i * 80, String::from_utf8_lossy(chunk));
    }

    println!(
        "\nswitches to scan: {}   probes that stayed in iterate: {}",
        rep.switches_to_scan, rep.probes_stayed
    );
    println!(
        "iterate columns: {}   scan columns: {}   total lazy sweeps: {}",
        rep.result.iterate_columns, rep.result.scan_columns, rep.result.lazy_sweeps
    );
    println!(
        "\nExpected shape (paper Fig. 5): '.' in the head, a burst of digits\n\
         triggering 's' runs across the similar middle, probes ('.'/digits)\n\
         every {} columns, and '.' again through the tail.",
        policy.probe_stride
    );
}
