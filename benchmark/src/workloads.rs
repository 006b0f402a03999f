//! The five workloads, the program stack each one brings up, and the
//! calls through each front door and each layer beneath it.
//!
//! Load shape, all workloads: one closed-loop client (a library
//! caller, a pipe and a request/response socket all wait for the
//! reply), every engine with one thread, product defaults otherwise
//! (`Auto` ISA and width, hybrid strategy, affine gaps).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aalign_bio::alphabet::{DNA, PROTEIN};
use aalign_bio::fasta::parse_fasta;
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::{SeqDatabase, Sequence, SubstMatrix};
use aalign_core::{AlignConfig, Aligner, GapModel};
use aalign_obs::wire::JsonValue;
use aalign_par::wire::report_from_wire;
use aalign_par::{SearchEngine, SearchOptions, SearchReport};
use aalign_serve::{http, Dispatcher, DispatcherConfig, SearchRequest};
use aalign_shard::{ShardOptions, ShardQuery, Supervisor, WorkerCommand};

use crate::inputs::{Alpha, Inputs, Query};

/// Hits kept per op, through every door.
pub const TOP_N: usize = 10;
/// Shard children of `shard2`.
pub const SHARDS: usize = 2;

/// Where a workload's client enters the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// `SearchEngine::search`.
    Library,
    /// `http::serve_http` on `127.0.0.1:0`, one connection per request.
    Http,
    /// `Supervisor::search` over `aalign serve --stdio` children.
    Shard,
}

/// A layer the traced run calls on its own, outermost last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Aligner::prepare` + a bare `align_prepared` loop over the DB.
    Core,
    /// `SearchEngine::search`.
    Par,
    /// `Dispatcher::search`.
    Dispatch,
    /// `rpc::respond_line`.
    Rpc,
    /// One HTTP round trip.
    Http,
    /// `Supervisor::search`.
    Shard,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub door: Door,
    /// `(max_query, max_subject)` handed to `with_certified_bounds`
    /// by the caller; the serve layers certify on their own.
    pub certified: Option<(usize, usize)>,
    /// Layers of the traced run, the front door last.
    pub layers: &'static [Layer],
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "prot_long",
        door: Door::Library,
        certified: None,
        layers: &[Layer::Core, Layer::Par],
    },
    Workload {
        name: "prot_short",
        door: Door::Library,
        certified: None,
        layers: &[Layer::Core, Layer::Par],
    },
    Workload {
        name: "dna_i8",
        door: Door::Library,
        certified: Some((48, 1000)),
        layers: &[Layer::Core, Layer::Par],
    },
    Workload {
        name: "serve_http",
        door: Door::Http,
        certified: None,
        layers: &[
            Layer::Core,
            Layer::Par,
            Layer::Dispatch,
            Layer::Rpc,
            Layer::Http,
        ],
    },
    Workload {
        name: "shard2",
        door: Door::Shard,
        certified: None,
        layers: &[
            Layer::Core,
            Layer::Par,
            Layer::Dispatch,
            Layer::Rpc,
            Layer::Shard,
        ],
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// BLOSUM62 −10/−2 for protein, +2/−3 −5/−2 for DNA, local alignment.
pub fn base_aligner(alpha: Alpha) -> Aligner {
    match alpha {
        Alpha::Protein => Aligner::new(AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62)),
        Alpha::Dna => Aligner::new(AlignConfig::local(
            GapModel::affine(-5, -2),
            &SubstMatrix::dna(2, -3),
        )),
    }
}

pub fn parse_db(inputs: &Inputs) -> Result<SeqDatabase, String> {
    let alphabet = match inputs.alpha {
        Alpha::Protein => &PROTEIN,
        Alpha::Dna => &DNA,
    };
    parse_fasta(&inputs.db_fasta, alphabet)
        .map(SeqDatabase::new)
        .map_err(|e| format!("generated FASTA refused: {e}"))
}

/// One pool query in the form each door takes, built before timing.
#[derive(Debug)]
pub struct OpInput {
    pub seq: Sequence,
    pub request: SearchRequest,
    pub http_body: String,
    pub rpc_line: String,
    pub shard_query: ShardQuery,
}

impl OpInput {
    pub fn new(alpha: Alpha, q: &Query) -> Result<Self, String> {
        let seq = match alpha {
            Alpha::Protein => Sequence::protein(q.id.as_str(), q.letters.as_bytes()),
            Alpha::Dna => Sequence::dna(q.id.as_str(), q.letters.as_bytes()),
        }
        .map_err(|e| format!("generated query refused: {e}"))?;
        let mut request = SearchRequest::new(q.letters.as_str());
        request.top_n = TOP_N;
        // Letters only, so the body needs no escaping — and the client
        // does not lean on the codec it is measuring.
        let http_body = format!("{{\"query\":\"{}\",\"top_n\":{TOP_N}}}", q.letters);
        let rpc_line = format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"search\",\"params\":{http_body}}}"
        );
        Ok(Self {
            seq,
            request,
            http_body,
            rpc_line,
            shard_query: ShardQuery::new(q.letters.as_str()).top_n(TOP_N),
        })
    }
}

/// The in-process HTTP front end of `serve_http`.
#[derive(Debug)]
pub struct HttpFront {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<()>>,
}

/// Everything a workload has running once it is set up.
#[derive(Debug)]
pub struct Stack {
    pub aligner: Aligner,
    pub opts: SearchOptions,
    db: Option<SeqDatabase>,
    engine: Option<SearchEngine>,
    pub dispatcher: Option<Arc<Dispatcher>>,
    pub http: Option<HttpFront>,
    pub sup: Option<Arc<Supervisor>>,
    /// Time inside `Supervisor::launch` (zero without shards).
    pub launch: Duration,
}

/// The program's public set-up calls for one workload, in the order a
/// user makes them: parse → database → aligner (+ certification) →
/// engine / dispatcher + listener / supervisor with children ready.
pub fn bring_up(w: &Workload, inputs: &Inputs, aalign_bin: &Path) -> Result<Stack, String> {
    let db = parse_db(inputs)?;
    let mut aligner = base_aligner(inputs.alpha);
    if let Some((max_query, max_subject)) = w.certified {
        aligner = aligner.with_certified_bounds(max_query, max_subject);
    }
    let mut stack = Stack {
        aligner,
        opts: SearchOptions::new().top_n(TOP_N),
        db: None,
        engine: None,
        dispatcher: None,
        http: None,
        sup: None,
        launch: Duration::ZERO,
    };
    match w.door {
        Door::Library => {
            stack.db = Some(db);
            stack.engine = Some(SearchEngine::new(1));
        }
        Door::Http => {
            stack.serve_in_process(db);
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let stop = Arc::new(AtomicBool::new(false));
            let dispatcher = Arc::clone(stack.dispatcher.as_ref().expect("just built"));
            let stop_seen = Arc::clone(&stop);
            let thread =
                std::thread::spawn(move || http::serve_http(listener, dispatcher, stop_seen));
            stack.http = Some(HttpFront { addr, stop, thread });
        }
        Door::Shard => {
            let started = Instant::now();
            stack.sup = Some(launch_shards(&db, aalign_bin)?);
            stack.launch = started.elapsed();
            stack.db = Some(db);
        }
    }
    Ok(stack)
}

pub fn launch_shards(db: &SeqDatabase, aalign_bin: &Path) -> Result<Arc<Supervisor>, String> {
    let cmd = WorkerCommand::serve_stdio(aalign_bin, &["--threads".into(), "1".into()]);
    Supervisor::launch(db, cmd, ShardOptions::new(SHARDS))
        .map_err(|e| format!("launch {SHARDS} shards of {}: {e}", aalign_bin.display()))
}

impl Stack {
    /// A `Dispatcher` over `db` with its own one-thread engine,
    /// certified the way `Dispatcher::new` certifies an aligner that
    /// carries no certificates — done here only to keep a copy of the
    /// certified aligner for the layers beneath.
    fn serve_in_process(&mut self, db: SeqDatabase) {
        let max_len = db.stats().max_len;
        self.aligner = self.aligner.clone().with_certified_bounds(max_len, max_len);
        self.dispatcher = Some(Arc::new(Dispatcher::new(
            self.aligner.clone(),
            db,
            1,
            DispatcherConfig::default(),
        )));
    }

    /// Build what the traced run calls beneath the front door and the
    /// workload's own set-up did not need: for `shard2`, the in-process
    /// dispatcher each child runs a copy of.
    pub fn complete_for_trace(&mut self, w: &Workload) {
        if w.layers.contains(&Layer::Dispatch) && self.dispatcher.is_none() {
            let db = self.db.take().expect("a shard stack keeps its database");
            self.serve_in_process(db);
        }
    }

    pub fn db(&self) -> &SeqDatabase {
        match &self.dispatcher {
            Some(d) => d.db(),
            None => self
                .db
                .as_ref()
                .expect("a stack without dispatcher owns its database"),
        }
    }

    pub fn engine(&self) -> &SearchEngine {
        match &self.dispatcher {
            Some(d) => d.engine().engine(),
            None => self
                .engine
                .as_ref()
                .expect("a library stack owns its engine"),
        }
    }

    /// One op through the workload's front door: the time the client
    /// waited, and the report it got (decoded outside that time).
    pub fn front_door(
        &self,
        w: &Workload,
        q: &OpInput,
    ) -> (Duration, Result<SearchReport, String>) {
        match w.door {
            Door::Library => self.call_engine(q),
            Door::Http => {
                let (waited, raw) = self.call_http(q);
                (waited, raw.and_then(|raw| decode_http(&raw)))
            }
            Door::Shard => self.call_shards(q),
        }
    }

    pub fn call_engine(&self, q: &OpInput) -> (Duration, Result<SearchReport, String>) {
        let started = Instant::now();
        let out = self
            .engine()
            .search(&self.aligner, &q.seq, self.db(), &self.opts);
        (started.elapsed(), out.map_err(|e| e.to_string()))
    }

    pub fn call_http(&self, q: &OpInput) -> (Duration, Result<Vec<u8>, String>) {
        let addr = self.http.as_ref().expect("an HTTP stack").addr;
        let started = Instant::now();
        let out = http_post(addr, &q.http_body);
        (started.elapsed(), out.map_err(|e| format!("http: {e}")))
    }

    pub fn call_shards(&self, q: &OpInput) -> (Duration, Result<SearchReport, String>) {
        let sup = self.sup.as_ref().expect("a shard stack");
        let started = Instant::now();
        let out = sup.search(&q.shard_query);
        (started.elapsed(), out.map_err(|e| e.to_string()))
    }

    /// Pids of the live shard children.
    pub fn child_pids(&self) -> Vec<u32> {
        self.sup
            .as_ref()
            .map(|sup| (0..sup.shards()).filter_map(|i| sup.shard_pid(i)).collect())
            .unwrap_or_default()
    }

    /// Stop the listener and drain the children. Returns the time
    /// inside `Supervisor::shutdown` (zero without shards).
    pub fn shut_down(self) -> Result<Duration, String> {
        if let Some(front) = self.http {
            // ORDER: Release — pairs with the Acquire load in the
            // accept loop of `serve_http`.
            front.stop.store(true, Ordering::Release);
            front
                .thread
                .join()
                .map_err(|_| "HTTP accept thread panicked".to_string())?
                .map_err(|e| format!("serve_http: {e}"))?;
        }
        let Some(sup) = self.sup else {
            return Ok(Duration::ZERO);
        };
        let started = Instant::now();
        let clean = sup.shutdown();
        let took = started.elapsed();
        if clean {
            Ok(took)
        } else {
            Err("a shard child outlived the drain grace period".to_string())
        }
    }
}

/// `POST /v1/search` on a fresh connection; the server closes it
/// after the response.
fn http_post(addr: SocketAddr, body: &str) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "POST /v1/search HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::with_capacity(16 << 10);
    stream.read_to_end(&mut raw)?;
    Ok(raw)
}

/// Body of an HTTP response, or why it is not a 200.
pub fn http_body(raw: &[u8]) -> Result<&str, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = head.lines().next().unwrap_or_default();
    if status.split_whitespace().nth(1) != Some("200") {
        return Err(format!("refused: {status}: {body}"));
    }
    Ok(body)
}

pub fn decode_http(raw: &[u8]) -> Result<SearchReport, String> {
    let doc = JsonValue::parse(http_body(raw)?).map_err(|e| e.to_string())?;
    report_from_wire(&doc).map_err(|e| e.to_string())
}

/// The report inside a JSON-RPC response line, or its error.
pub fn decode_rpc(line: &str) -> Result<SearchReport, String> {
    let doc = JsonValue::parse(line).map_err(|e| e.to_string())?;
    match doc.get("result") {
        Some(result) => report_from_wire(result).map_err(|e| e.to_string()),
        None => Err(format!("rpc error: {line}")),
    }
}
