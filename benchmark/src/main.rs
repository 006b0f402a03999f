//! `aalign-benchmark`: run one workload and print every metric as
//! `workload metric value unit`, then one JSON result line.
//!
//! Normally started by `run.sh`, which builds this binary and the
//! `aalign` binary the shard children run, and loops over workloads
//! (one process each, so `rss_peak_mb` is that workload's own).

use std::path::PathBuf;
use std::process::ExitCode;

use aalign_benchmark::host;
use aalign_benchmark::measure::{self, Args, Outcome, RUN_SECONDS};
use aalign_benchmark::workloads::{by_name, Workload, WORKLOADS};

const USAGE: &str = "usage: aalign-benchmark --aalign PATH --workload NAME [--seed N] \
                     [--seconds S] [--trace 0|1 | --traced] [--out DIR]";

fn parse_cli() -> Result<(&'static Workload, Args), String> {
    let mut workload = None;
    let mut aalign_bin = None;
    let mut args = Args {
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        aalign_bin: PathBuf::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--traced" {
            args.trace = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {names:?}")
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value),
            "--aalign" => aalign_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    args.aalign_bin = aalign_bin.ok_or(format!("--aalign is required\n{USAGE}"))?;
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    Ok((workload, args))
}

fn print_outcome(workload: &str, outcome: &Outcome) {
    for (key, value) in &outcome.notes {
        println!("{workload} # {key}: {value}");
    }
    for m in &outcome.metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn run() -> Result<bool, String> {
    let (workload, args) = parse_cli()?;
    if !args.aalign_bin.is_file() {
        return Err(format!("{}: no such binary", args.aalign_bin.display()));
    }
    // The shard supervisor writes its per-shard FASTA under the temp
    // dir; keep that inside the benchmark's own output directory. Set
    // before any thread exists.
    let tmp = args.out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let (allowed_before, cpu) =
        host::pin_to_one_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    eprintln!("pinned to CPU {cpu} (was allowed {allowed_before:?})");

    let outcome = measure::run(workload, &args, &allowed_before);
    let _ = std::fs::remove_dir_all(&tmp);
    let outcome = outcome?;
    print_outcome(workload.name, &outcome);
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is printed; the exit code says ops failed.
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("aalign-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
