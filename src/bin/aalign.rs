//! `aalign` — command-line front end.
//!
//! Subcommands:
//!
//! * `pair`         — align two FASTA sequences (scores + optional traceback)
//! * `search`       — align a query against a FASTA database, in process or
//!   (`--shards N`) over N supervised child processes
//! * `serve`        — run the alignment daemon (HTTP/JSON or stdio JSON-RPC)
//! * `loadgen`      — drive a running daemon and report latency quantiles
//! * `trace-report` — render the hybrid decision timeline from a trace
//! * `gen-db`       — generate a synthetic swiss-prot-like database
//! * `codegen`      — analyze a sequential paradigm kernel and emit Rust
//! * `info`         — report detected vector ISAs and chosen backends
//!
//! Examples:
//! ```text
//! aalign pair --query q.fa --subject s.fa --open -10 --ext -2 --traceback
//! aalign search --query q.fa --db swissprot.fa --top 10 --threads 8
//! aalign search --query q.fa --db db.fa --stats --trace-out trace.jsonl
//! aalign search --query q.fa --db db.fa --shards 4 --top 5
//! aalign trace-report --trace trace.jsonl --subjects 5
//! aalign gen-db --count 10000 --seed 7 --out db.fa
//! aalign codegen --input kernel.seq --open -12 --ext -2
//! ```

use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;

use aalign::bio::alphabet::PROTEIN;
use aalign::bio::fasta::{read_fasta, write_fasta};
use aalign::bio::matrices::BLOSUM62;
use aalign::bio::stats;
use aalign::bio::synth::swissprot_like_db;
use aalign::bio::Sequence;
use aalign::codegen::emit::GapBindings;
use aalign::core::traceback::traceback_align;
use aalign::par::{EngineHandle, SearchOptions};
use aalign::vec::IsaSupport;
use aalign::{AlignConfig, AlignKind, Aligner, GapModel, Strategy, WidthPolicy};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "pair" => cmd_pair(rest),
        "search" => cmd_search(rest),
        "serve" => cmd_serve(rest),
        "loadgen" => cmd_loadgen(rest),
        "trace-report" => cmd_trace_report(rest),
        "gen-db" => cmd_gen_db(rest),
        "codegen" => cmd_codegen(rest),
        "info" => cmd_info(),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  aalign pair    --query <fa> --subject <fa> [--global|--semi-global] [--linear]
                 [--open N] [--ext N] [--strategy seq|iterate|scan|hybrid]
                 [--width auto|8|16|32] [--traceback]
  aalign search  --query <fa> --db <fa> [--top N] [--threads N]
                 [--global|--semi-global] [--linear] [--open N] [--ext N]
                 [--strategy ...] [--width ...] [--stats]
                 [--trace-out <jsonl>] [--metrics-format json|prom]
                 [--timeout MS] [--fault-plan <spec>] [--shards N]
                 [--shard-fault kill@SHARD[:N]]
  aalign serve   --db <fa> [--addr HOST:PORT] [--stdio] [--threads N]
                 [--global|--semi-global] [--linear] [--open N] [--ext N]
                 [--strategy ...] [--width ...]
                 [--max-inflight N] [--max-queued N] [--tenant-quota N]
                 [--default-timeout MS] [--drain-timeout MS]
                 [--fault-plan <spec>] [--shards N]
                 [--shard-fault kill@SHARD[:N]]
  aalign loadgen --addr HOST:PORT [--concurrency N] [--duration-ms N]
                 [--seed N] [--top N] [--queries N]
  aalign trace-report --trace <jsonl> [--subjects N]
  aalign gen-db  --count N [--seed N] --out <fa>
  aalign codegen --input <file> [--open N] [--ext N] [--out <rs>]
  aalign info

pair, search and serve read every FASTA file as protein and score it
with BLOSUM62, so a DNA file is searched as protein. search and serve
run in this process unless --shards N (N > 0) spreads the database
over N child processes, each with --threads workers.";

/// Tiny flag parser: `--name value` and boolean `--name`.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    /// Wrap the arguments of subcommand `cmd`, rejecting any `--flag`
    /// its [`USAGE`] entry does not name: a typo or a removed switch
    /// must fail, not silently run with defaults. Reading the set off
    /// the usage text keeps help and parser from drifting apart.
    fn new(cmd: &str, args: &'a [String]) -> Result<Self, String> {
        let entry = USAGE
            .split("\n  aalign ")
            .find(|entry| entry.split_whitespace().next() == Some(cmd))
            .expect("every subcommand has a usage entry");
        let known: Vec<&str> = entry
            .split(|c: char| c != '-' && !c.is_ascii_alphanumeric())
            .filter(|word| word.starts_with("--"))
            .collect();
        if let Some(flag) = args
            .iter()
            .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
        {
            return Err(format!("unknown flag {flag:?} for {cmd}"));
        }
        Ok(Self { args })
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn get_i32(&self, name: &str, default: i32) -> Result<i32, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name} expects an integer")),
        }
    }

    fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name} expects an integer")),
        }
    }
}

fn load_first_seq(path: &str) -> Result<Sequence, String> {
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let seqs = read_fasta(BufReader::new(f), &PROTEIN).map_err(|e| format!("{path}: {e}"))?;
    seqs.into_iter()
        .next()
        .ok_or_else(|| format!("{path}: no sequences"))
}

/// The protein database `--db` names.
fn load_db(flags: &Flags<'_>) -> Result<aalign::bio::SeqDatabase, String> {
    let path = flags.get("--db").ok_or("--db required")?;
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    aalign::bio::SeqDatabase::from_fasta(BufReader::new(f), &PROTEIN)
        .map_err(|e| format!("{path}: {e}"))
}

fn build_aligner(flags: &Flags<'_>) -> Result<Aligner, String> {
    let open = flags.get_i32("--open", -10)?;
    let ext = flags.get_i32("--ext", -2)?;
    let gap = if flags.has("--linear") {
        GapModel::linear(ext)
    } else {
        GapModel::affine(open, ext)
    };
    let cfg = if flags.has("--global") {
        AlignConfig::global(gap, &BLOSUM62)
    } else if flags.has("--semi-global") {
        AlignConfig::semi_global(gap, &BLOSUM62)
    } else {
        AlignConfig::local(gap, &BLOSUM62)
    };
    let strategy = match flags.get("--strategy").unwrap_or("hybrid") {
        "seq" => Strategy::Sequential,
        "iterate" => Strategy::StripedIterate,
        "scan" => Strategy::StripedScan,
        "hybrid" => Strategy::Hybrid,
        other => return Err(format!("unknown strategy {other:?}")),
    };
    let width = match flags.get("--width").unwrap_or("auto") {
        "auto" => WidthPolicy::Auto,
        "8" => WidthPolicy::Fixed8,
        "16" => WidthPolicy::Fixed16,
        "32" => WidthPolicy::Fixed32,
        other => return Err(format!("unknown width {other:?}")),
    };
    Ok(Aligner::new(cfg).with_strategy(strategy).with_width(width))
}

fn cmd_pair(args: &[String]) -> Result<(), String> {
    let flags = Flags::new("pair", args)?;
    let query = load_first_seq(flags.get("--query").ok_or("--query required")?)?;
    let subject = load_first_seq(flags.get("--subject").ok_or("--subject required")?)?;
    let aligner = build_aligner(&flags)?;
    let out = aligner.align(&query, &subject).map_err(|e| e.to_string())?;
    println!(
        "score {}  ({} on {}, i{}, {} scan / {} iterate columns)",
        out.score,
        out.strategy.short(),
        out.backend,
        out.elem_bits,
        out.stats.scan_columns,
        out.stats.iterate_columns
    );
    if out.saturated {
        println!(
            "lane-saturated: i{} lanes cannot vouch for this score; rerun with a wider --width",
            out.elem_bits
        );
    }
    if flags.has("--traceback") {
        println!(
            "{}",
            traceback_align(aligner.config(), &query, &subject).pretty()
        );
    }
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let flags = Flags::new("search", args)?;
    let shards = shard_count("search", &flags)?;
    let format = flags.get("--metrics-format");
    if let Some(other) = format.filter(|f| !["json", "prom"].contains(f)) {
        return Err(format!(
            "unknown metrics format {other:?} (expected json or prom; --stats prints text)"
        ));
    }
    let query = load_first_seq(flags.get("--query").ok_or("--query required")?)?;
    let db = load_db(&flags)?;
    let aligner = build_aligner(&flags)?;
    let top_n = flags.get_usize("--top", 10)?;
    let deadline = match flags.get("--timeout") {
        None => None,
        Some(ms) => Some(std::time::Duration::from_millis(
            ms.parse().map_err(|_| "--timeout expects milliseconds")?,
        )),
    };
    let trace_out = flags.get("--trace-out");
    let (report, sup) = if shards > 0 {
        let text = String::from_utf8(query.text()).map_err(|e| format!("query: {e}"))?;
        let mut q = aalign::shard::ShardQuery::new(text)
            .query_id(query.id())
            .top_n(top_n);
        if let Some(d) = deadline {
            q = q.deadline(d);
        }
        let sup = launch_supervisor(&flags, &db, shards)?;
        (sup.search(&q).map_err(|e| e.to_string())?, Some(sup))
    } else {
        let mut opts = SearchOptions::new().top_n(top_n).trace(trace_out.is_some());
        if let Some(d) = deadline {
            opts = opts.deadline(d);
        }
        if let Some(plan) = fault_plan(&flags)? {
            opts = opts.fault_plan(plan);
        }
        // The CLI shares the server's construction path: an
        // `EngineHandle` of `--threads` workers, of which the sweep
        // engages at most one per subject.
        let threads = flags.get_usize("--threads", 0)?;
        let report = EngineHandle::new(threads)
            .search(&aligner, &query, &db, &opts)
            .map_err(|e| e.to_string())?;
        (report, None)
    };
    if let Some(path) = trace_out {
        let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut writer = aalign::obs::TraceWriter::new(std::io::BufWriter::new(f));
        writer
            .write_all(&report.trace_events)
            .map_err(|e| format!("{path}: {e}"))?;
        let events = writer.written();
        writer.finish().map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {events} trace events to {path}");
    }
    let ran_on = match &sup {
        Some(sup) => format!("across {} shards", sup.shards()),
        None => format!("on {} threads", report.threads_used),
    };
    println!(
        "searched {} subjects ({} residues) {ran_on} in {:.2}s ({:.2} GCUPS)",
        report.subjects,
        report.total_residues,
        report.metrics.total.as_secs_f64(),
        report.metrics.gcups
    );
    if report.metrics.rescued > 0 {
        println!(
            "rescued {} lane-saturated subject(s) at a wider width",
            report.metrics.rescued
        );
    }
    if let Some(sup) = &sup {
        let so = report.metrics.shards;
        println!(
            "shards: {} ok, {} failed ({} timed out), {} retried; {} respawn(s) total",
            so.ok,
            so.failed,
            so.timed_out,
            so.retried,
            sup.respawns()
        );
    }
    warn_partial(&report);
    if flags.has("--stats") {
        print!("{}", report.metrics.summary());
    }
    match format {
        Some("json") => println!("{}", report.metrics.to_json()),
        Some(_) => print!("{}", report.metrics.to_prometheus()),
        None => {}
    }
    // Bit scores / E-values need a (λ, K) pair fitted for the scheme,
    // and the one shipped is local BLOSUM62 with gap open 11 / extend 1;
    // any other configuration prints `-` in both columns.
    let cfg = aligner.config();
    let fitted = cfg.kind == AlignKind::Local
        && cfg.gap == GapModel::affine(-11, -1)
        && cfg.matrix.name() == BLOSUM62.name();
    for (rank, hit) in report.hits.iter().enumerate() {
        let (bits, ev) = if fitted {
            let bits = stats::bit_score(hit.score, stats::BLOSUM62_GAPPED_11_1);
            let ev = stats::evalue(bits, query.len(), report.total_residues);
            (format!("{bits:>7.1}"), format!("{ev:.2e}"))
        } else {
            (format!("{:>7}", "-"), "-".to_string())
        };
        println!(
            "{:>3}. {:<24} len {:>6}  score {:>6}  bits {bits}  E {ev}",
            rank + 1,
            db.id(hit.db_index),
            hit.len,
            hit.score,
        );
    }
    if sup.is_some_and(|sup| !sup.shutdown()) {
        eprintln!("warning: dirty drain — a shard child outlived the grace period");
    }
    Ok(())
}

/// Shared partial-result reporting: a human-readable warning plus
/// the same versioned wire object a `serve` front end returns for a
/// deadline-expired or fault-interrupted request, so scripts can
/// parse one shape regardless of where the search ran.
fn warn_partial(report: &aalign::par::SearchReport) {
    if !report.partial {
        return;
    }
    eprintln!(
        "warning: partial results — {} error(s) during the sweep:",
        report.errors.len()
    );
    for e in &report.errors {
        eprintln!("  - {e}");
    }
    eprintln!("{}", aalign::par::wire::report_to_wire(report).render());
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::new("serve", args)?;
    // `--shards N` turns this daemon into a shard supervisor: the
    // same front ends and dispatcher, but every sweep fans out to N
    // child processes instead of a local engine pool.
    let shards = shard_count("serve", &flags)?;
    let db = load_db(&flags)?;
    let aligner = build_aligner(&flags)?;

    let mut cfg = aalign::serve::DispatcherConfig::default()
        .max_inflight(flags.get_usize("--max-inflight", 4)?)
        .max_queued(flags.get_usize("--max-queued", 16)?)
        .tenant_quota(flags.get_usize("--tenant-quota", 0)?);
    if let Some(ms) = flags.get("--default-timeout") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| "--default-timeout expects milliseconds")?;
        cfg = cfg.default_deadline(std::time::Duration::from_millis(ms));
    }

    let drain_ms: u64 = match flags.get("--drain-timeout") {
        None => 30_000,
        Some(v) => v
            .parse()
            .map_err(|_| "--drain-timeout expects milliseconds")?,
    };
    let opts = aalign::serve::DaemonOptions::default()
        .front_end(if flags.has("--stdio") {
            aalign::serve::FrontEnd::Stdio
        } else {
            aalign::serve::FrontEnd::Http
        })
        .addr(flags.get("--addr").unwrap_or("127.0.0.1:7691"))
        .drain_timeout(std::time::Duration::from_millis(drain_ms));

    let threads = flags.get_usize("--threads", 0)?;
    let exit = if shards > 0 {
        let sup = launch_supervisor(&flags, &db, shards)?;
        drop(db); // the children hold the slices
        let dispatcher = aalign::serve::Dispatcher::with_backend(sup, cfg);
        aalign::serve::run_daemon(std::sync::Arc::new(dispatcher), &opts)
    } else {
        let mut local = aalign::serve::Local::new(aligner, db, threads);
        if let Some(plan) = fault_plan(&flags)? {
            local = local.fault_plan(plan);
        }
        let dispatcher = aalign::serve::Dispatcher::with_backend(std::sync::Arc::new(local), cfg);
        aalign::serve::run_daemon(std::sync::Arc::new(dispatcher), &opts)
    };
    match exit.map_err(|e| e.to_string())? {
        0 => Ok(()),
        _ => Err("drain timeout expired with requests still in flight".to_string()),
    }
}

/// `--shards N` of `search` and `serve`: 0, the default, sweeps in
/// this process; N > 0 spreads the database over N child processes.
/// A fault plan's slots are one engine's, so each placement takes its
/// own plan flag, and a trace records one engine's sweep.
fn shard_count(cmd: &str, flags: &Flags<'_>) -> Result<usize, String> {
    let shards = flags.get_usize("--shards", 0)?;
    if shards > 0 && flags.has("--fault-plan") {
        return Err(format!(
            "{cmd} --shards: --fault-plan scripts one engine's slots; use --shard-fault"
        ));
    }
    if shards == 0 && flags.has("--shard-fault") {
        return Err(format!(
            "{cmd}: --shard-fault needs --shards N; use --fault-plan"
        ));
    }
    if shards > 0 && flags.has("--trace-out") {
        return Err(format!(
            "{cmd} --shards: --trace-out records an in-process sweep; drop --shards"
        ));
    }
    Ok(shards)
}

/// The engine fault plan `--fault-plan` scripts, if any.
fn fault_plan(flags: &Flags<'_>) -> Result<Option<std::sync::Arc<aalign::par::FaultPlan>>, String> {
    flags
        .get("--fault-plan")
        .map(|spec| {
            aalign::par::FaultPlan::parse(spec)
                .map(std::sync::Arc::new)
                .map_err(|e| format!("--fault-plan: {e}"))
        })
        .transpose()
}

/// Flags a shard child must inherit so every child scores exactly
/// like the reference single-process engine: the aligner
/// configuration and the per-child thread budget.
fn child_serve_args(flags: &Flags<'_>) -> Vec<String> {
    let mut extra = Vec::new();
    for flag in ["--open", "--ext", "--strategy", "--width", "--threads"] {
        if let Some(v) = flags.get(flag) {
            extra.push(flag.to_string());
            extra.push(v.to_string());
        }
    }
    for flag in ["--linear", "--global", "--semi-global"] {
        if flags.has(flag) {
            extra.push(flag.to_string());
        }
    }
    extra
}

/// Build and launch a [`Supervisor`](aalign::shard::Supervisor) over
/// `db` with `shards` children spawned from this same executable.
fn launch_supervisor(
    flags: &Flags<'_>,
    db: &aalign::bio::SeqDatabase,
    shards: usize,
) -> Result<std::sync::Arc<aalign::shard::Supervisor>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cmd = aalign::shard::WorkerCommand::serve_stdio(exe, &child_serve_args(flags));
    let mut sopts = aalign::shard::ShardOptions::new(shards);
    if let Some(spec) = flags.get("--shard-fault") {
        let plan = spec.parse().map_err(|e| format!("--shard-fault: {e}"))?;
        sopts = sopts.fault(plan);
    }
    aalign::shard::Supervisor::launch(db, cmd, sopts).map_err(|e| e.to_string())
}

/// Drive a running daemon with a deterministic seeded query mix and
/// print one JSON document on stdout: client-side end-to-end
/// quantiles plus the server's lossless stage histograms scraped
/// from `/v1/health`. An operator's tool; nothing compares its
/// output with a stored baseline.
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use aalign::obs::wire::{histogram_from_wire, obj, versioned, JsonValue};
    use aalign::obs::Histogram;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let flags = Flags::new("loadgen", args)?;
    let addr = flags.get("--addr").ok_or("--addr required")?.to_string();
    let concurrency = flags.get_usize("--concurrency", 4)?.max(1);
    let duration_ms = flags.get_usize("--duration-ms", 2000)? as u64;
    let seed = flags.get_usize("--seed", 42)? as u64;
    let top_n = flags.get_usize("--top", 5)?;
    let n_queries = flags.get_usize("--queries", 6)?.max(1);

    // A deliberately small deterministic pool: concurrent workers
    // collide on identical queries, so the run exercises the
    // dispatcher's coalescing path as well as fresh sweeps.
    let mut rng = aalign::bio::synth::seeded_rng(seed);
    let pool: Vec<String> = (0..n_queries)
        .map(|i| {
            let len = 40 + (i % 4) * 15;
            String::from_utf8(aalign::bio::synth::named_query(&mut rng, len).text()).unwrap()
        })
        .collect();

    /// One request over its own connection (`Connection: close` is
    /// the daemon's policy); returns (status, body).
    fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        use std::io::{Read as _, Write as _};
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .map_err(|e| e.to_string())?;
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .map_err(|e| e.to_string())?;
        let status: u16 = response
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|c| c.parse().ok())
            .ok_or("response missing an HTTP/1.1 status line")?;
        let payload = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        Ok((status, payload))
    }

    #[derive(Default)]
    struct WorkerStats {
        hist: Histogram, // client-observed end-to-end, microseconds
        sent: u64,
        ok: u64,
        partial: u64,
        batched: u64,
        overloaded: u64,
        errors: u64,
    }

    let started = Instant::now();
    let deadline = started + Duration::from_millis(duration_ms);
    let mut handles = Vec::new();
    for w in 0..concurrency {
        let addr = addr.clone();
        let pool = pool.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = WorkerStats::default();
            let mut i = w;
            while Instant::now() < deadline {
                let q = &pool[i % pool.len()];
                i += 1;
                let mut req = aalign::serve::SearchRequest::new(q.as_str());
                req.top_n = top_n;
                let body = req.to_wire().render();
                let t0 = Instant::now();
                let outcome = http(&addr, "POST", "/v1/search", &body);
                let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                s.sent += 1;
                match outcome {
                    Ok((200, body)) => match JsonValue::parse(&body) {
                        Ok(doc) => {
                            s.hist.record(us);
                            if doc.get("partial").and_then(JsonValue::as_bool) == Some(true) {
                                s.partial += 1;
                            } else {
                                s.ok += 1;
                            }
                            if doc.get("batched").and_then(JsonValue::as_bool) == Some(true) {
                                s.batched += 1;
                            }
                        }
                        Err(_) => s.errors += 1,
                    },
                    Ok((429, _)) => s.overloaded += 1,
                    Ok((_, _)) | Err(_) => s.errors += 1,
                }
            }
            s
        }));
    }
    let mut total = WorkerStats::default();
    for h in handles {
        let s = h.join().map_err(|_| "loadgen worker panicked")?;
        total.hist.merge(&s.hist);
        total.sent += s.sent;
        total.ok += s.ok;
        total.partial += s.partial;
        total.batched += s.batched;
        total.overloaded += s.overloaded;
        total.errors += s.errors;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let completed = total.ok + total.partial;
    if completed == 0 {
        return Err(format!(
            "no requests completed against {addr} ({} sent, {} overloaded, {} errors)",
            total.sent, total.overloaded, total.errors
        ));
    }
    let throughput = completed as f64 / elapsed;

    // The server's own per-stage aggregates, losslessly decoded from
    // the health document's histogram wire shape.
    let (status, health_body) = http(&addr, "GET", "/v1/health", "")?;
    if status != 200 {
        return Err(format!("GET /v1/health returned {status}"));
    }
    let health = JsonValue::parse(&health_body).map_err(|e| format!("health: {e}"))?;
    let stages = health
        .get("stages")
        .ok_or("health document has no \"stages\" — daemon too old for loadgen?")?;
    let server_hist = |key: &str| -> Result<Histogram, String> {
        histogram_from_wire(
            stages
                .get(key)
                .ok_or_else(|| format!("health stages missing {key:?}"))?,
        )
        .map_err(|e| format!("stage {key}: {e}"))
    };

    // One row per latency source. `scale` converts the histogram's
    // native unit to microseconds (client records µs, server ns).
    let row = |source: &str, h: &Histogram, scale: u64, rps: Option<f64>| -> JsonValue {
        let mut fields: Vec<(&str, JsonValue)> = vec![
            ("source", source.into()),
            ("count", h.count().into()),
            ("p50_us", (h.p50() / scale).into()),
            ("p99_us", (h.p99() / scale).into()),
            ("p999_us", (h.p999() / scale).into()),
            ("max_us", (h.max_value() / scale).into()),
        ];
        if let Some(rps) = rps {
            fields.push(("throughput_rps", rps.into()));
        }
        obj(fields)
    };
    let rows = JsonValue::Array(vec![
        row("client_e2e", &total.hist, 1, Some(throughput)),
        row(
            "server_queue_wait",
            &server_hist("queue_wait_ns")?,
            1000,
            None,
        ),
        row(
            "server_batch_wait",
            &server_hist("batch_wait_ns")?,
            1000,
            None,
        ),
        row("server_sweep", &server_hist("sweep_ns")?, 1000, None),
        row("server_e2e", &server_hist("e2e_ns")?, 1000, None),
    ]);

    let doc = versioned(vec![
        ("bench", "serve_latency".into()),
        (
            "env",
            obj(vec![
                ("concurrency", concurrency.into()),
                ("duration_ms", duration_ms.into()),
                ("seed", seed.into()),
                ("top_n", top_n.into()),
                ("query_pool", pool.len().into()),
                (
                    "server_threads",
                    health.get("threads").cloned().unwrap_or(JsonValue::Null),
                ),
                (
                    "server_subjects",
                    health.get("subjects").cloned().unwrap_or(JsonValue::Null),
                ),
            ]),
        ),
        (
            "counters",
            obj(vec![
                ("sent", total.sent.into()),
                ("ok", total.ok.into()),
                ("partial", total.partial.into()),
                ("batched", total.batched.into()),
                ("overloaded", total.overloaded.into()),
                ("errors", total.errors.into()),
            ]),
        ),
        ("rows", rows),
    ]);
    eprintln!(
        "loadgen: {} sent, {} ok, {} partial, {} batched, {} overloaded, {} errors \
         in {elapsed:.2}s ({throughput:.1} req/s; client p50 {}µs p99 {}µs)",
        total.sent,
        total.ok,
        total.partial,
        total.batched,
        total.overloaded,
        total.errors,
        total.hist.p50(),
        total.hist.p99(),
    );
    println!("{}", doc.render());
    Ok(())
}

/// Parse a JSONL trace (as written by `search --trace-out`) and
/// render the hybrid decision timeline: per-subject strategy
/// segments, switch/probe counts, and reconciliation against the
/// counters each `AlignEnd` reported.
fn cmd_trace_report(args: &[String]) -> Result<(), String> {
    let flags = Flags::new("trace-report", args)?;
    let path = flags.get("--trace").ok_or("--trace required")?;
    let subjects = flags.get_usize("--subjects", 10)?;
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let events = aalign::obs::read_events(BufReader::new(f))
        .map_err(|(line, e)| format!("{path}:{line}: {e}"))?;
    let report = aalign::obs::TraceReport::from_events(&events)
        .map_err(|e| format!("{path}: malformed trace: {e}"))?;
    print!("{}", report.render(subjects));
    let bad = report.unreconciled();
    if !bad.is_empty() {
        return Err(format!(
            "{} subject(s) do not reconcile with their reported kernel counters: {bad:?}",
            bad.len()
        ));
    }
    Ok(())
}

fn cmd_gen_db(args: &[String]) -> Result<(), String> {
    let flags = Flags::new("gen-db", args)?;
    let count = flags.get_usize("--count", 1000)?;
    let seed = flags.get_usize("--seed", 42)? as u64;
    let out_path = flags.get("--out").ok_or("--out required")?;
    let db = swissprot_like_db(seed, count);
    let f = File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    write_fasta(std::io::BufWriter::new(f), db.sequences(), 60).map_err(|e| e.to_string())?;
    let stats = db.stats();
    println!(
        "wrote {} sequences ({} residues, mean {:.0}) to {}",
        stats.count, stats.total_residues, stats.mean_len, out_path
    );
    Ok(())
}

fn cmd_codegen(args: &[String]) -> Result<(), String> {
    let flags = Flags::new("codegen", args)?;
    let input = flags.get("--input").ok_or("--input required")?;
    let src = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let ast = aalign::codegen::parse_program(&src).map_err(|e| e.to_string())?;
    let spec = aalign::codegen::analyze(&ast).map_err(|e| e.to_string())?;
    eprintln!(
        "analyzed: {} (matrix {}, open {:?}, ext {})",
        spec.label(),
        spec.matrix_name,
        spec.gap_open_name,
        spec.gap_ext_name
    );
    let bindings = GapBindings {
        gap_open: flags.get_i32("--open", -12)?,
        gap_ext: flags.get_i32("--ext", -2)?,
    };
    let rust = aalign::codegen::emit_rust_kernel(&spec, bindings);
    match flags.get("--out") {
        Some(path) => {
            let mut f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
            f.write_all(rust.as_bytes()).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => print!("{rust}"),
    }
    Ok(())
}

fn cmd_info() -> Result<(), String> {
    let sup = IsaSupport::detect();
    println!("vector ISA support:");
    println!("  sse4.1   : {}", sup.sse41);
    println!("  avx2     : {}", sup.avx2);
    println!("  avx512f  : {}", sup.avx512f);
    println!("  avx512bw : {}", sup.avx512bw);
    println!();
    for bits in aalign_vec::WIDTHS {
        // The row the aligner itself resolves (no ISA pin), so this is
        // what `pair --width {bits}` reports running on.
        println!(
            "  best backend for i{bits}: {}",
            aalign::vec::resolve(sup, None, bits).name()
        );
    }
    println!("\nplatform mapping (paper): CPU = avx2 (256-bit), MIC = avx512/i32x16 (512-bit)");
    Ok(())
}
