//! One run of one workload: oracle, five set-ups, the timed window,
//! and — in a traced run — every layer beneath the front door.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use aalign_bio::fasta::parse_fasta;
use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::{AlignScratch, RunStats, Strategy};
use aalign_par::wire::report_to_wire;
use aalign_par::{Hit, SearchEngine, SearchOptions, SearchReport};
use aalign_serve::{rpc, ServeError};

use crate::host::{self, StealWatch};
use crate::inputs::{self, Inputs};
use crate::probes::{self, At};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats::{
    highest_supported_percentile, median, paired_diff_median, percentile, undisturbed, Timed,
};
use crate::workloads::{
    base_aligner, bring_up, decode_http, decode_rpc, http_body, launch_shards, parse_db, Door,
    Layer, OpInput, Stack, Workload, TOP_N,
};

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("gcups", "Gcells/s"),
    ("search_p50_ms", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A layer that is
/// not beneath a workload's front door reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vec.wgt_max_scan_ns_per_elem", "ns"),
    ("vec.rshift_x_fill_ns_per_call", "ns"),
    ("bio.fasta_parse_mb_s", "MB/s"),
    ("bio.sort_us", "us"),
    ("bio.db_residues", "count"),
    ("core.prepare_us", "us"),
    ("core.kernel_ms", "ms"),
    ("core.kernel_gcups", "Gcells/s"),
    ("core.cells", "count"),
    ("core.iterate_columns", "count"),
    ("core.scan_columns", "count"),
    ("core.switches_to_scan", "count"),
    ("core.lazy_sweeps", "count"),
    ("core.lazy_iters", "count"),
    ("core.width_bits", "bits"),
    ("core.certified_width_bits", "bits"),
    ("core.width_retries", "count"),
    ("core.rescued", "count"),
    ("par.search_ms", "ms"),
    ("par.added_us", "us"),
    ("par.gcups_kept", "ratio"),
    ("par.prepare_us", "us"),
    ("par.sweep_us", "us"),
    ("par.merge_us", "us"),
    ("par.worker_busy_share", "ratio"),
    ("par.peak_hits_buffered", "count"),
    ("obs.json_parse_us", "us"),
    ("obs.json_render_us", "us"),
    ("obs.hist_record_ns", "ns"),
    ("serve.dispatch_added_us", "us"),
    ("serve.rpc_added_us", "us"),
    ("serve.http_added_us", "us"),
    ("serve.request_bytes", "count"),
    ("serve.response_bytes", "count"),
    ("serve.coalesced", "count"),
    ("serve.overloaded", "count"),
    ("shard.search_ms", "ms"),
    ("shard.added_us", "us"),
    ("shard.launch_ms", "ms"),
    ("shard.launch_big_ms", "ms"),
    ("shard.shutdown_ms", "ms"),
    ("shard.respawn_ms", "ms"),
    ("shard.retried", "count"),
    ("shard.failed", "count"),
    ("shard.timed_out", "count"),
    ("client.ops", "count"),
    ("client.p90_ms", "ms"),
    ("client.tail_ms", "ms"),
    ("client.tail_percentile", "%"),
    ("client.max_ms", "ms"),
    ("client.threads", "count"),
    ("client.child_procs", "count"),
    ("trace.ops", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.op_self_us", "us"),
];

/// `run_seconds` of `BENCHMARK.json`: the window when `--seconds` is
/// not given.
pub const RUN_SECONDS: u64 = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Subjects per pool query, beyond the top hits, whose score the
/// oracle recomputes with the sequential kernel.
const ORACLE_SAMPLE: usize = 20;

#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where span files and the shard supervisor's temp FASTA go.
    pub out_dir: PathBuf,
    /// The `aalign` binary `shard2` runs as children.
    pub aalign_bin: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Facts printed beside the metrics: inputs checksum, host, census.
    pub notes: Vec<(&'static str, String)>,
}

/// Compares every answer with the expected hits of its pool query.
struct Checker {
    expected: Vec<Vec<Hit>>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Checker {
    /// An op counts as failed when it errored, was refused, came back
    /// partial, or its hits differ in score, index or order.
    fn check(&mut self, query: usize, answer: &Result<SearchReport, String>) {
        self.attempted += 1;
        let why = match answer {
            Ok(report) if report.partial => "partial report".to_string(),
            Ok(report) if report.hits != self.expected[query] => format!(
                "hits differ: got {:?}, expected {:?}",
                report.hits.first(),
                self.expected[query].first()
            ),
            Ok(_) => return,
            Err(e) => e.clone(),
        };
        self.failed += 1;
        self.first_failure
            .get_or_insert(format!("query {query}: {why}"));
    }
}

/// Expected top hits per pool query: the full ranking of one
/// single-thread sweep, with the top hits and a seeded sample of other
/// subjects re-scored by the sequential kernel.
fn oracle(w: &Workload, inputs: &Inputs, ops: &[OpInput], seed: u64) -> Result<Checker, String> {
    let db = parse_db(inputs)?;
    let mut aligner = base_aligner(inputs.alpha);
    if let Some((max_query, max_subject)) = w.certified {
        aligner = aligner.with_certified_bounds(max_query, max_subject);
    }
    let sequential = base_aligner(inputs.alpha).with_strategy(Strategy::Sequential);
    let engine = SearchEngine::new(1);
    let mut rng = Rng::stream(seed, "oracle");
    let mut expected = Vec::with_capacity(ops.len());
    for q in ops {
        let full = engine
            .search(&aligner, &q.seq, &db, &SearchOptions::new())
            .map_err(|e| format!("oracle sweep: {e}"))?;
        if full.partial || full.hits.len() != db.len() {
            return Err("oracle sweep did not cover the database".to_string());
        }
        let ranked = full
            .hits
            .windows(2)
            .all(|p| (p[1].score, p[0].db_index) < (p[0].score, p[1].db_index));
        if !ranked {
            return Err("oracle ranking is not score-descending, index-ascending".to_string());
        }
        let mut score_of = vec![0; db.len()];
        for hit in &full.hits {
            score_of[hit.db_index] = hit.score;
        }
        let top = full.hits[..TOP_N].iter().map(|h| h.db_index);
        let sample = (0..ORACLE_SAMPLE).map(|_| rng.below(db.len()));
        for subject in top.chain(sample).collect::<Vec<_>>() {
            let exact = sequential
                .align(&q.seq, db.get(subject))
                .map_err(|e| format!("sequential kernel: {e}"))?
                .score;
            if exact != score_of[subject] {
                return Err(format!(
                    "{} × subject {subject}: sweep scored {}, sequential kernel {exact}",
                    q.seq.id(),
                    score_of[subject]
                ));
            }
        }
        expected.push(full.hits[..TOP_N].to_vec());
    }
    Ok(Checker {
        expected,
        attempted: 0,
        failed: 0,
        first_failure: None,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Run whole pool cycles through the front door until `seconds` have
/// passed. Returns each op's latency in ms, with the time the
/// hypervisor's steal counter for `cpu` advanced while the op ran.
fn front_door_window(
    stack: &Stack,
    w: &Workload,
    ops: &[OpInput],
    seconds: f64,
    cpu: usize,
    checker: &mut Checker,
) -> Vec<Timed> {
    let mut samples = Vec::with_capacity(1 << 14);
    let window = Instant::now();
    let mut steal = StealWatch::start(cpu);
    loop {
        for (i, q) in ops.iter().enumerate() {
            let (waited, answer) = stack.front_door(w, q);
            samples.push(Timed {
                value: ms(waited),
                stolen: steal.lap_ms(),
            });
            checker.check(i, &answer);
        }
        if window.elapsed().as_secs_f64() >= seconds {
            return samples;
        }
    }
}

/// Counts and durations the program itself returned during the traced
/// ops, summed or collected per op.
#[derive(Default)]
struct Tally {
    ops: u64,
    stats: RunStats,
    /// Subjects whose kept run used 8-, 16-, 32-bit lanes.
    width_subjects: [u64; 3],
    width_retries: u64,
    rescued: u64,
    certified_width: u32,
    prepare_us: Vec<f64>,
    sweep_us: Vec<f64>,
    merge_us: Vec<f64>,
    busy_share: Vec<f64>,
    peak_hits: Vec<f64>,
    coalesced: u64,
    overloaded: u64,
    request_bytes: usize,
    response_bytes: usize,
    shard_retried: u64,
    shard_failed: u64,
    shard_timed_out: u64,
    /// Padded query length the vec probes ran at.
    vec_padded: usize,
}

impl Tally {
    /// Lane width most subjects' kept run used.
    fn width_bits(&self) -> u32 {
        let most = (0..3)
            .max_by_key(|&i| self.width_subjects[i])
            .expect("three widths");
        8 << most
    }
}

struct TraceCtx<'a> {
    w: &'a Workload,
    stack: &'a Stack,
    inputs: &'a Inputs,
    rec: Recorder,
    tally: Tally,
    scratch: AlignScratch,
}

impl TraceCtx<'_> {
    /// One traced op: every layer of the workload on the same query,
    /// starting one layer further along each op so slow drift falls on
    /// all layers alike, then the micro probes.
    fn op(&mut self, op: u32, query: usize, q: &OpInput, checker: &mut Checker) {
        let root = self.rec.open(0, op, "op");
        let at = At { parent: root, op };
        let layers = self.w.layers;
        let mut par_report = None;
        for k in 0..layers.len() {
            match layers[(k + op as usize) % layers.len()] {
                Layer::Core => self.core(at, q),
                Layer::Par => {
                    let answer = self
                        .rec
                        .run(root, op, "par.search", || self.stack.call_engine(q).1);
                    checker.check(query, &answer);
                    if let Ok(report) = answer {
                        self.read_search_metrics(&report);
                        par_report = Some(report);
                    }
                }
                Layer::Dispatch => {
                    let d = self.stack.dispatcher.as_ref().expect("a serve stack");
                    let answer = self
                        .rec
                        .run(root, op, "serve.dispatch", || d.search(&q.request));
                    if matches!(answer, Err(ServeError::Overloaded { .. })) {
                        self.tally.overloaded += 1;
                    }
                    let answer = answer
                        .map(|resp| std::sync::Arc::unwrap_or_clone(resp.report))
                        .map_err(|e| e.to_string());
                    if let Ok(report) = &answer {
                        self.tally.coalesced += report.metrics.coalesced;
                    }
                    checker.check(query, &answer);
                }
                Layer::Rpc => {
                    let d = self.stack.dispatcher.as_ref().expect("a serve stack");
                    let line = self
                        .rec
                        .run(root, op, "serve.rpc", || rpc::respond_line(&q.rpc_line, d))
                        .unwrap_or_default();
                    if self.w.door == Door::Shard {
                        self.tally.request_bytes = q.rpc_line.len();
                        self.tally.response_bytes = line.len();
                    }
                    checker.check(query, &decode_rpc(&line));
                }
                Layer::Http => {
                    let raw = self
                        .rec
                        .run(root, op, "serve.http", || self.stack.call_http(q).1);
                    if let Ok(body) = raw.as_deref().map_err(String::clone).and_then(http_body) {
                        self.tally.request_bytes = q.http_body.len();
                        self.tally.response_bytes = body.len();
                    }
                    checker.check(query, &raw.and_then(|raw| decode_http(&raw)));
                }
                Layer::Shard => {
                    let answer = self
                        .rec
                        .run(root, op, "shard.search", || self.stack.call_shards(q).1);
                    if let Ok(report) = &answer {
                        self.tally.shard_retried += report.metrics.shards.retried;
                        self.tally.shard_failed += report.metrics.shards.failed;
                        self.tally.shard_timed_out += report.metrics.shards.timed_out;
                    }
                    checker.check(query, &answer);
                }
            }
        }

        let bits = self.tally.width_bits();
        self.tally.vec_padded = probes::vec_primitives(bits, q.seq.len(), &mut self.rec, at);
        let alphabet = self.stack.db().get(0).alphabet();
        let parsed = self.rec.run(root, op, "bio.fasta_parse", || {
            parse_fasta(&self.inputs.db_fasta, alphabet)
        });
        drop(parsed);
        if let Some(report) = par_report {
            let response = report_to_wire(&report);
            probes::obs_codec(&q.http_body, &response, &mut self.rec, at);
        }
        self.rec.close(root);
        self.tally.ops += 1;
    }

    /// The `core` layer on its own: one `prepare`, then a bare
    /// `align_prepared` loop over the database, longest first, one
    /// scratch — what the engine's sweep does minus the engine.
    fn core(&mut self, at: At, q: &OpInput) {
        let stack = self.stack;
        let (db, aligner) = (stack.db(), &stack.aligner);
        let order = self
            .rec
            .run(at.parent, at.op, "bio.sort", || db.sorted_by_length_desc());
        let prepared = self
            .rec
            .run(at.parent, at.op, "core.prepare", || aligner.prepare(&q.seq))
            .expect("the oracle already prepared this query");
        let span = self.rec.open(at.parent, at.op, "core.kernel");
        let mut best = i32::MIN;
        for &subject in &order {
            let out = aligner
                .align_prepared(&prepared, db.get(subject), &mut self.scratch)
                .expect("the oracle already aligned this pair");
            best = best.max(out.score);
            self.tally.stats.merge(&out.stats);
            self.tally.width_retries += u64::from(out.width_retries);
            self.tally.width_subjects[out.elem_bits.trailing_zeros() as usize - 3] += 1;
        }
        self.rec.close(span);
        std::hint::black_box(best);
    }

    fn read_search_metrics(&mut self, report: &SearchReport) {
        let m = &report.metrics;
        self.tally.prepare_us.push(us(m.prepare));
        self.tally.sweep_us.push(us(m.sweep));
        self.tally.merge_us.push(us(m.merge));
        let busy: Duration = m.per_worker.iter().map(|w| w.busy).sum();
        let offered = m.sweep.as_secs_f64() * m.per_worker.len().max(1) as f64;
        self.tally.busy_share.push(busy.as_secs_f64() / offered);
        self.tally.peak_hits.push(m.peak_hits_buffered as f64);
        self.tally.rescued += m.rescued;
        self.tally.certified_width = m.certified_width;
    }
}

/// SIGKILL shard 0's child and time until a search is complete and
/// correct again.
fn respawn_ms(stack: &Stack, q: &OpInput, expected: &[Hit]) -> Result<f64, String> {
    let sup = stack.sup.as_ref().expect("a shard stack");
    let pid = sup.shard_pid(0).ok_or("shard 0 has no live child")?;
    host::kill9(pid);
    let killed = Instant::now();
    while killed.elapsed() < Duration::from_secs(20) {
        if let (_, Ok(report)) = stack.call_shards(q) {
            if !report.partial && report.hits == expected {
                return Ok(ms(killed.elapsed()));
            }
        }
    }
    Err("no complete answer within 20 s of killing a shard child".to_string())
}

/// One launch and drain of the shard supervisor over the 2 000-subject
/// protein database.
fn launch_big_ms(seed: u64, aalign_bin: &Path) -> Result<f64, String> {
    let fasta = inputs::db_prot_fasta(seed);
    let db = parse_fasta(&fasta, &aalign_bio::alphabet::PROTEIN)
        .map(SeqDatabase::new)
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let sup = launch_shards(&db, aalign_bin)?;
    let took = ms(started.elapsed());
    sup.shutdown();
    Ok(took)
}

fn tabulate(
    table: &'static [(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<Metric>, String> {
    table
        .iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(&value) if value.is_finite() => Ok(Metric { name, value, unit }),
            Some(_) => Err(format!("metric {name} has no samples")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

/// Run `w` once. `Err` is a failure of the benchmark or its host, not
/// of an op: ops that fail are counted in the outcome.
pub fn run(w: &Workload, args: &Args, pinned: &[usize]) -> Result<Outcome, String> {
    let allowed = host::affinity().map_err(|e| format!("sched_getaffinity: {e}"))?;
    let &[cpu] = allowed.as_slice() else {
        return Err(format!(
            "refusing to time: this process may run on CPUs {allowed:?}; \
             wall-clock numbers with a second CPU do not repeat on a shared host"
        ));
    };
    let inputs = inputs::for_workload(w.name, args.seed).expect("a listed workload");
    let ops: Vec<OpInput> = inputs
        .pool
        .iter()
        .map(|q| OpInput::new(inputs.alpha, q))
        .collect::<Result<_, _>>()?;
    let mut checker = oracle(w, &inputs, &ops, args.seed)?;

    // Set-up, several times over: the program's public calls up to the
    // first answer of every pool query. Generation and the oracle
    // above are the benchmark's own cost and stay outside.
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut launches = Vec::with_capacity(SETUP_ROUNDS);
    let mut shutdowns = Vec::with_capacity(SETUP_ROUNDS);
    let mut kept = None;
    for round in 0..SETUP_ROUNDS {
        let mut steal = StealWatch::start(cpu);
        let started = Instant::now();
        let stack = bring_up(w, &inputs, &args.aalign_bin)?;
        let cold: Vec<_> = ops.iter().map(|q| stack.front_door(w, q).1).collect();
        setups.push(Timed {
            value: started.elapsed().as_secs_f64(),
            stolen: steal.lap_ms() / 1e3,
        });
        for (i, answer) in cold.iter().enumerate() {
            checker.check(i, answer);
        }
        launches.push(ms(stack.launch));
        if round + 1 < SETUP_ROUNDS {
            shutdowns.push(ms(stack.shut_down()?));
        } else {
            kept = Some(stack);
        }
    }
    let mut stack = kept.expect("the last set-up is kept");
    if args.trace {
        stack.complete_for_trace(w);
    }

    let threads = host::threads();
    let child_procs = host::children();
    let cells_per_op = (ops[0].seq.len() * inputs.db_residues) as f64;

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = vec![
        ("inputs_fnv64", format!("{:#018x}", inputs.fnv64)),
        ("seed", args.seed.to_string()),
        ("host_nproc", host::nproc().to_string()),
        ("affinity_before_pin", format!("{pinned:?}")),
        ("affinity_timed", format!("{allowed:?}")),
        ("isa", format!("{:?}", aalign_vec::IsaSupport::detect())),
        ("backend", first_backend(&stack, &ops[0])?),
        ("threads", threads.to_string()),
        ("child_procs", child_procs.to_string()),
    ];

    let table = if args.trace {
        let mut ctx = TraceCtx {
            w,
            stack: &stack,
            inputs: &inputs,
            rec: Recorder::with_capacity(1 << 16),
            tally: Tally::default(),
            scratch: AlignScratch::new(),
        };
        let window = Instant::now();
        let mut op = 0;
        // Each traced op follows a plain front-door op on the same
        // query: the client's view, and — pair by pair, so drift
        // cancels — the reference for `trace.overhead_share`.
        let mut reference = Vec::with_capacity(1 << 12);
        while window.elapsed().as_secs_f64() < args.seconds {
            for (i, q) in ops.iter().enumerate() {
                op += 1;
                let (waited, answer) = stack.front_door(w, q);
                reference.push(ms(waited));
                checker.check(i, &answer);
                ctx.op(op, i, q, &mut checker);
            }
        }
        let TraceCtx { rec, tally, .. } = ctx;

        if w.door == Door::Shard {
            values.insert(
                "shard.respawn_ms",
                respawn_ms(&stack, &ops[0], &checker.expected[0])?,
            );
        }
        shutdowns.push(ms(stack.shut_down()?));
        if w.door == Door::Shard {
            values.insert(
                "shard.launch_big_ms",
                launch_big_ms(args.seed, &args.aalign_bin)?,
            );
        }

        std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
        let path = args.out_dir.join(format!("{}.trace.jsonl", w.name));
        std::fs::File::create(&path)
            .and_then(|file| rec.write_jsonl(std::io::BufWriter::new(file)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push((
            "spans",
            format!("{} in {}", rec.spans().len(), path.display()),
        ));

        per_layer_values(
            &mut values,
            w,
            &inputs,
            &rec,
            &tally,
            &reference,
            cells_per_op,
        );
        values.insert("shard.launch_ms", median(&launches));
        values.insert("shard.shutdown_ms", median(&shutdowns));
        values.insert("client.threads", threads as f64);
        values.insert("client.child_procs", child_procs as f64);
        PER_LAYER
    } else {
        let samples = front_door_window(&stack, w, &ops, args.seconds, cpu, &mut checker);
        // Children are read while they still exist; VmHWM is a peak,
        // so reading after the window loses nothing.
        let rss: f64 = host::peak_rss_mib(None)
            + stack
                .child_pids()
                .into_iter()
                .map(|pid| host::peak_rss_mib(Some(pid)))
                .sum::<f64>();
        stack.shut_down()?;
        end_to_end_values(&mut values, &mut notes, &samples, ops.len(), cells_per_op);
        values.insert("setup_s", median(&undisturbed(&setups).0));
        values.insert("rss_peak_mb", rss);
        END_TO_END
    };

    if let Some(why) = &checker.first_failure {
        notes.push(("first_failure", why.clone()));
    }
    notes.push((
        "failed_share",
        (checker.failed as f64 / checker.attempted as f64).to_string(),
    ));
    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: tabulate(table, &values)?,
        notes,
    })
}

/// `gcups` and `search_p50_ms` from the window's ops, `pool` of them
/// per pass over the query pool.
fn end_to_end_values(
    values: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<(&'static str, String)>,
    samples: &[Timed],
    pool: usize,
    cells_per_op: f64,
) {
    let (latencies, disturbed) = undisturbed(samples);
    let tail = highest_supported_percentile(latencies.len());
    notes.extend([
        ("ops", samples.len().to_string()),
        ("ops_stolen_from", disturbed.to_string()),
        ("samples", latencies.len().to_string()),
        (
            "search_tail_ms",
            format!("p{tail} = {}", percentile(&latencies, tail)),
        ),
    ]);
    // Time per pass over the pool, then the median over passes: one
    // slow stretch moves a mean over the window, not this.
    let passes: Vec<Timed> = samples
        .chunks(pool)
        .map(|pass| Timed {
            value: pass.iter().map(|op| op.value).sum(),
            stolen: pass.iter().map(|op| op.stolen).sum(),
        })
        .collect();
    let pass_ms = median(&undisturbed(&passes).0);
    values.insert("gcups", cells_per_op * pool as f64 / pass_ms / 1e6);
    values.insert("search_p50_ms", median(&latencies));
}

/// The backend string the aligner reports for the first pool query
/// against the longest subject.
fn first_backend(stack: &Stack, q: &OpInput) -> Result<String, String> {
    // A shard stack's database may already sit inside its in-process
    // dispatcher; either way `db()` finds it.
    let db = stack.db();
    let longest: &Sequence = db.get(db.sorted_by_length_desc()[0]);
    stack
        .aligner
        .align(&q.seq, longest)
        .map(|out| out.backend)
        .map_err(|e| e.to_string())
}

/// Turn spans and tallies into the per-layer table. A layer the
/// workload does not reach keeps the 0 it starts with.
fn per_layer_values(
    values: &mut BTreeMap<&'static str, f64>,
    w: &Workload,
    inputs: &Inputs,
    rec: &Recorder,
    tally: &Tally,
    reference_ms: &[f64],
    cells_per_op: f64,
) {
    for &(name, _) in PER_LAYER {
        values.entry(name).or_insert(0.0);
    }
    let mut set = |name: &'static str, value: f64| {
        values.insert(name, value);
    };
    let spans = |name: &str| rec.durations_us(name);
    let has = |layer: Layer| w.layers.contains(&layer);
    let per_op = |total: u64| total as f64 / tally.ops as f64;

    let scan_us = median(&spans("vec.wgt_max_scan"));
    set(
        "vec.wgt_max_scan_ns_per_elem",
        scan_us * 1e3 / (probes::SCAN_CALLS * tally.vec_padded) as f64,
    );
    set(
        "vec.rshift_x_fill_ns_per_call",
        median(&spans("vec.rshift_x_fill")) * 1e3 / probes::SHIFT_CALLS as f64,
    );
    set(
        "bio.fasta_parse_mb_s",
        inputs.db_fasta.len() as f64 / median(&spans("bio.fasta_parse")),
    );
    set("bio.sort_us", median(&spans("bio.sort")));
    set("bio.db_residues", inputs.db_residues as f64);

    let kernel_us = spans("core.kernel");
    let kernel_gcups = cells_per_op / median(&kernel_us) / 1e3;
    set("core.prepare_us", median(&spans("core.prepare")));
    set("core.kernel_ms", median(&kernel_us) / 1e3);
    set("core.kernel_gcups", kernel_gcups);
    set("core.cells", cells_per_op);
    set(
        "core.iterate_columns",
        per_op(tally.stats.iterate_columns as u64),
    );
    set("core.scan_columns", per_op(tally.stats.scan_columns as u64));
    set(
        "core.switches_to_scan",
        per_op(tally.stats.switches_to_scan as u64),
    );
    set("core.lazy_sweeps", per_op(tally.stats.lazy_sweeps));
    set("core.lazy_iters", per_op(tally.stats.lazy_iters));
    set("core.width_bits", f64::from(tally.width_bits()));
    set(
        "core.certified_width_bits",
        f64::from(tally.certified_width),
    );
    set("core.width_retries", per_op(tally.width_retries));
    set("core.rescued", per_op(tally.rescued));

    let search_us = spans("par.search");
    set("par.search_ms", median(&search_us) / 1e3);
    set("par.added_us", paired_diff_median(&search_us, &kernel_us));
    set(
        "par.gcups_kept",
        cells_per_op / median(&search_us) / 1e3 / kernel_gcups,
    );
    set("par.prepare_us", median(&tally.prepare_us));
    set("par.sweep_us", median(&tally.sweep_us));
    set("par.merge_us", median(&tally.merge_us));
    set("par.worker_busy_share", median(&tally.busy_share));
    set("par.peak_hits_buffered", median(&tally.peak_hits));

    set("obs.json_parse_us", median(&spans("obs.json_parse")));
    set("obs.json_render_us", median(&spans("obs.json_render")));
    set(
        "obs.hist_record_ns",
        median(&spans("obs.hist_record")) * 1e3 / probes::HIST_CALLS as f64,
    );

    if has(Layer::Dispatch) {
        let dispatch_us = spans("serve.dispatch");
        set(
            "serve.dispatch_added_us",
            paired_diff_median(&dispatch_us, &search_us),
        );
        set(
            "serve.rpc_added_us",
            paired_diff_median(&spans("serve.rpc"), &dispatch_us),
        );
        if has(Layer::Http) {
            set(
                "serve.http_added_us",
                paired_diff_median(&spans("serve.http"), &dispatch_us),
            );
        }
        set("serve.request_bytes", tally.request_bytes as f64);
        set("serve.response_bytes", tally.response_bytes as f64);
        set("serve.coalesced", tally.coalesced as f64);
        set("serve.overloaded", tally.overloaded as f64);
    }
    if has(Layer::Shard) {
        let shard_us = spans("shard.search");
        set("shard.search_ms", median(&shard_us) / 1e3);
        set("shard.added_us", paired_diff_median(&shard_us, &search_us));
        set("shard.retried", tally.shard_retried as f64);
        set("shard.failed", tally.shard_failed as f64);
        set("shard.timed_out", tally.shard_timed_out as f64);
    }

    let tail = highest_supported_percentile(reference_ms.len());
    set("client.ops", reference_ms.len() as f64);
    set("client.p90_ms", percentile(reference_ms, 90.0));
    set("client.tail_ms", percentile(reference_ms, tail));
    set("client.tail_percentile", tail);
    set("client.max_ms", percentile(reference_ms, 100.0));

    let front_span = match w.door {
        Door::Library => "par.search",
        Door::Http => "serve.http",
        Door::Shard => "shard.search",
    };
    let traced_ms: Vec<f64> = spans(front_span).iter().map(|us| us / 1e3).collect();
    set("trace.ops", tally.ops as f64);
    set(
        "trace.overhead_share",
        paired_diff_median(&traced_ms, reference_ms) / median(reference_ms),
    );
    set("trace.op_self_us", median(&rec.self_us("op")));
}
