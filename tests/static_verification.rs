//! Tier-1 wiring for the static passes in `aalign-analyzer`: every
//! `cargo test` run verifies the builtin kernels' dataflow legality,
//! the range analysis the runtime width policy relies on, the
//! unsafe-SIMD audit of the backend sources, the atomics-discipline
//! lint over the concurrent crates, and the kernel conformance layer
//! (symbolic proof obligations + the bounded-exhaustive differential
//! harness) — so a change that breaks a static guarantee fails the
//! main suite, not just the analyzer's. Source guards ride along: one
//! JSON codec and one database sweep; one backend seam and one request
//! schema; one engine table; one width ladder; one home per setting;
//! one pinned inventory behind the analyzer's four baselines; one
//! status table and one shard round trip; no per-lane scalar work in a
//! striped column; served requests wait on descriptors, not on the
//! clock.

use aalign_analyzer::audit::{audit_dir, audit_source, default_vec_src_dir, VEC_BASELINE};
use aalign_analyzer::concurrency::{default_concurrency_dirs, scan_dirs, CONCURRENCY_BASELINE};
use aalign_analyzer::conformance::{
    builtin_sources, run_conformance_pass, CONFORMANCE_BASELINE, UNJUSTIFIABLE_FIXTURE,
};
use aalign_analyzer::{analyze_range, prove_kernel, verify_dataflow, ObligationStatus};
use aalign_bio::matrices::BLOSUM62;
use aalign_codegen::emit::GapBindings;
use aalign_codegen::{analyze, parse_program};
use aalign_core::{AlignConfig, Aligner, WidthPolicy};

const BUILTINS: [(&str, &str); 4] = [
    ("sw-affine", aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE),
    ("nw-affine", aalign_codegen::NEEDLEMAN_WUNSCH_AFFINE),
    ("sw-linear", aalign_codegen::SMITH_WATERMAN_LINEAR),
    ("nw-linear", aalign_codegen::NEEDLEMAN_WUNSCH_LINEAR),
];

/// Every builtin kernel must stay legal for striped vectorization.
#[test]
fn builtin_kernels_pass_dataflow_verification() {
    for (name, src) in BUILTINS {
        let prog = parse_program(src).unwrap();
        analyze(&prog).unwrap_or_else(|e| panic!("{name}: {}", e.render(src)));
        let report = verify_dataflow(&prog).unwrap_or_else(|diags| {
            panic!(
                "{name} failed dataflow verification:\n{}",
                diags
                    .iter()
                    .map(|d| d.render(src))
                    .collect::<Vec<_>>()
                    .join("\n")
            )
        });
        assert!(report.reads_prev_row() && report.reads_prev_col(), "{name}");
    }
}

/// A kernel with a reversed dependency must be rejected, and the
/// diagnostic must carry a span pointing at the offending subscript.
#[test]
fn reversed_dependency_is_rejected_with_span() {
    let src = "\
for (i = 0; i < n + 1; i = i + 1) { T[0][i] = 0; }
for (j = 0; j < m + 1; j = j + 1) { T[j][0] = 0; }
for (i = 1; i < n + 1; i = i + 1) {
    for (j = 1; j < m + 1; j = j + 1) {
        D[i][j] = T[i-1][j-1] + BLOSUM62[ctoi(S[i-1])][ctoi(Q[j-1])];
        T[i][j] = max(0, T[i-1][j] + GAP_EXT, T[i][j+1] + GAP_EXT, D[i][j]);
    }
}
";
    let prog = parse_program(src).unwrap();
    let diags = verify_dataflow(&prog).unwrap_err();
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(&src[d.span.start..d.span.end], "T[i][j+1]");
    assert!(d.render(src).contains("^^^^^^^^^"), "{}", d.render(src));
}

/// The analyzer's width selection and the runtime `Aligner`'s width
/// policy must agree: the narrowest lane the analysis certifies is
/// the one the kernels start in.
#[test]
fn range_analysis_matches_runtime_width_policy() {
    let spec =
        analyze(&parse_program(aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE).unwrap()).unwrap();
    for (open, ext, m, n) in [
        (-3i32, -1i32, 256usize, 256usize), // the acceptance case: i16
        (-12, -2, 4, 4),                    // tiny: i8
        (-12, -2, 30_000, 30_000),          // long: i32
    ] {
        let bind = GapBindings {
            gap_open: open,
            gap_ext: ext,
        };
        let report = analyze_range(&spec, bind, &BLOSUM62, m, n).unwrap();
        let bits = report
            .lane_bits
            .unwrap_or_else(|| panic!("open {open} ext {ext} rejected"));
        assert!(
            report.config.score_bounds(m, n).fits(bits),
            "selected width must satisfy its own bound"
        );
        // The kernel-side check is the same analysis: narrow_ok agrees.
        for w in [8u32, 16, 32] {
            let fits = report.config.score_bounds(m, n).fits(w);
            assert_eq!(
                fits,
                !report.rejected_bits.contains(&w),
                "analyzer and report disagree at i{w}"
            );
        }
        assert!(report.rejected_bits.iter().all(|&r| r < bits));
    }
}

/// Score-range soundness, end to end: run the real `Aligner` (auto
/// width policy, whatever backend this host has) on the acceptance
/// configuration and check the observed score obeys the bounds.
#[test]
fn runtime_scores_obey_analyzer_bounds() {
    use aalign_bio::synth::{named_query, seeded_rng, Level, PairSpec};

    let spec =
        analyze(&parse_program(aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE).unwrap()).unwrap();
    let bind = GapBindings {
        gap_open: -3,
        gap_ext: -1,
    };
    let report = analyze_range(&spec, bind, &BLOSUM62, 200, 240).unwrap();
    let cfg: AlignConfig = report.config.clone();
    let aligner = Aligner::new(cfg).with_width(WidthPolicy::Auto);
    let mut rng = seeded_rng(42);
    let q = named_query(&mut rng, 180);
    for pair in [
        PairSpec::new(Level::Hi, Level::Hi),
        PairSpec::new(Level::Md, Level::Lo),
    ] {
        let s = pair.generate(&mut rng, &q).subject;
        let score = i64::from(aligner.align(&q, &s).unwrap().score);
        assert!(
            (report.bounds.t_min..=report.bounds.t_max).contains(&score),
            "observed {score} outside [{}, {}]",
            report.bounds.t_min,
            report.bounds.t_max
        );
    }
}

/// The SIMD backends stay audited: SAFETY comments, target-feature
/// contracts, and the unsafe counts pinned exactly to their baseline.
#[test]
fn vec_backends_stay_audited() {
    let report = audit_dir(&default_vec_src_dir()).unwrap();
    assert!(
        report.is_clean(),
        "audit findings:\n{}",
        report
            .findings
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    let drift = report.inventory().drift(VEC_BASELINE);
    assert!(
        drift.is_empty(),
        "unsafe inventory drift:\n{}",
        drift.join("\n")
    );
}

/// The concurrent crates stay disciplined: every atomic site carries
/// an `// ORDER:` justification obeying the SeqCst/Relaxed rules, and
/// the atomics inventory exactly matches the pinned baseline. The
/// static proofs complement the loom suites (which explore
/// interleavings but not memory orderings).
#[test]
fn concurrent_crates_stay_disciplined() {
    let report = scan_dirs(&default_concurrency_dirs()).unwrap();
    assert!(
        report.is_clean(),
        "concurrency findings:\n{}",
        report
            .findings
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    let problems = report.inventory().drift(CONCURRENCY_BASELINE);
    assert!(
        problems.is_empty(),
        "atomics inventory drift:\n{}",
        problems.join("\n")
    );
}

/// Every shipped recurrence discharges its conformance obligations —
/// the symbolic proof that the Eq.(2)→Eq.(3–6) rewrite is
/// score-preserving — and the differential harness finds every vector
/// kernel bit-exact against `paradigm_dp` at the CI bounds. The full
/// inventory (obligations × kernels + harness variant coverage) is
/// pinned, exactly like the atomics baseline.
#[test]
fn conformance_obligations_discharge_and_harness_is_bit_exact() {
    let sources: Vec<(String, String)> = builtin_sources()
        .into_iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    let pass = run_conformance_pass(&sources).unwrap();
    for proof in &pass.proofs {
        assert!(
            proof.is_discharged(),
            "{} has undischarged obligations:\n{}",
            proof.kernel,
            proof
                .failures()
                .iter()
                .map(|o| format!("{}: {}", o.id, o.detail))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    assert!(
        pass.harness.is_bit_exact(),
        "harness mismatches: {}",
        pass.harness.summary()
    );
    let drift = pass.inventory().drift(CONFORMANCE_BASELINE);
    assert!(
        drift.is_empty(),
        "conformance inventory drift (regenerate with `aalign-analyzer conformance \
         --print-baseline`):\n{}",
        drift.join("\n")
    );
}

/// A recurrence that *classifies* fine but cannot be justified — its
/// column-gap family opens from the previous row — must come back as
/// a failed obligation with a caret diagnostic, not a panic.
#[test]
fn unjustifiable_recurrence_reports_instead_of_panicking() {
    let proof = prove_kernel("fixture", UNJUSTIFIABLE_FIXTURE).unwrap();
    assert!(!proof.is_discharged());
    let col = proof
        .obligations
        .iter()
        .find(|o| o.id == "eq2-col-unroll")
        .unwrap();
    assert_eq!(col.status, ObligationStatus::Failed);
    let rendered = col.render(UNJUSTIFIABLE_FIXTURE);
    assert!(
        rendered.contains("-->") && rendered.contains('^'),
        "{rendered}"
    );
}

/// The mutation self-test has teeth: perturbing any single max/gap
/// term on the kernel side must produce at least one mismatch at the
/// CI bounds — otherwise the harness could not catch a real bug of
/// that shape either.
#[test]
fn seeded_mutations_are_caught_by_the_harness() {
    use aalign_core::conformance::{run_harness, HarnessOptions, Mutation};
    for mutation in Mutation::ALL {
        let opts = HarnessOptions {
            mutation: Some(mutation),
            ..HarnessOptions::ci()
        };
        let report = run_harness(&opts);
        assert!(
            !report.is_bit_exact(),
            "mutation `{}` was NOT caught",
            mutation.name()
        );
    }
}

/// Every file under `dir`, recursively.
fn files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let mut all = Vec::new();
    files(dir, &mut all);
    out.extend(
        all.into_iter()
            .filter(|path| path.extension().is_some_and(|e| e == "rs")),
    );
}

/// What ships: the facade's `src/` and every crate's `src/`.
fn product_sources(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut product = Vec::new();
    rust_sources(&root.join("src"), &mut product);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_sources(&krate.unwrap().path().join("src"), &mut product);
    }
    product
}

/// Every Rust file of the workspace outside the root `tests/`.
fn all_sources(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut all = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_sources(&root.join(dir), &mut all);
    }
    all
}

/// No file of `paths` contains any of `needles`; `why` names the one
/// place the thing lives instead.
fn assert_absent<'a>(
    paths: impl IntoIterator<Item = &'a std::path::PathBuf>,
    needles: &[&str],
    why: &str,
) {
    for path in paths {
        let text = std::fs::read_to_string(path).unwrap();
        for needle in needles {
            assert!(
                !text.contains(needle),
                "{}: `{needle}` — {why}",
                path.display()
            );
        }
    }
}

/// Guard against re-forking what the workspace keeps in one place:
/// `aalign_obs::wire` is the only JSON escaper (a second one is how
/// the `\u`-escape panic came back after it was fixed once), and
/// `SearchEngine::search` is the only database sweep: the
/// lane-per-subject kernel is a strategy *of* it — chosen per vector of
/// subjects by `Aligner::align_batch_prepared`, with no entry point,
/// option or flag of its own — and there is one such kernel
/// (`aalign_core::inter`), the only code outside `aalign-vec` that
/// looks scores up in-register.
#[test]
fn one_json_codec_and_one_sweep() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let codec = root.join("crates/obs/src/wire.rs");
    let product = product_sources(root);
    assert_absent(
        product.iter().filter(|p| **p != codec),
        &["u{:04x}", "fn escape"],
        "JSON is escaped in crates/obs/src/wire.rs only",
    );

    let lane_kernel = root.join("crates/core/src/inter.rs");
    let vec_src = root.join("crates/vec/src");
    assert_absent(
        product
            .iter()
            .filter(|p| **p != lane_kernel && !p.starts_with(&vec_src)),
        &[".lookup32("],
        "a second lane kernel; scores are looked up in crates/core/src/inter.rs only",
    );

    assert_absent(
        &all_sources(root),
        &[
            "search_inter",
            "search_database_inter",
            "transient_inter",
            "inter_threshold",
        ],
        "SearchEngine::search is the only sweep",
    );
}

/// One seam, one request schema: the dispatcher reaches what sweeps
/// through `SearchBackend` alone (a sharded fork in it is how sharded
/// daemons lost coalescing and cancellation), and the request document
/// is written and read in `aalign_par::wire` only — a client spelling
/// the keys by hand is a second encoder.
#[test]
fn one_backend_seam_and_one_request_schema() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dispatch = std::fs::read_to_string(root.join("crates/serve/src/dispatch.rs")).unwrap();
    for needle in ["Supervisor", "ShardQuery", "aalign_shard"] {
        assert!(
            !dispatch.contains(needle),
            "dispatch.rs names `{needle}`; adapt backends in crates/serve/src/backend.rs"
        );
    }

    let product = product_sources(root);
    let request_codecs: Vec<_> = product
        .iter()
        .filter(|path| {
            let text = std::fs::read_to_string(path).unwrap();
            // Unit-test modules close their file; needles there are
            // assertions about the document, not writers of it.
            let shipped = text.split("#[cfg(test)]").next().unwrap();
            shipped.contains("\"deadline_ms\"")
        })
        .collect();
    assert_eq!(
        request_codecs,
        [&root.join("crates/par/src/wire.rs")],
        "the request document is encoded and decoded by SearchRequest only"
    );

    assert_absent(
        &all_sources(root),
        &["run_sharded", "with_shards"],
        "a sharded request takes the dispatcher's one path",
    );
}

/// Both serve doors run one request table: each operation's work —
/// decoding the request, the traced search, a cancel, the start of a
/// drain — is written once, in `rpc::operate`, and HTTP only frames
/// and routes to it. (The daemon's own drain on EOF or a signal lives
/// in daemon.rs, outside the doors.) The test-only stdio loop and the
/// HTTP door's private request parsers stay deleted; the shard
/// worker's `WorkerCommand::serve_stdio` (a child's command line) is
/// another thing, so only the serve crate is searched for that name.
#[test]
fn one_request_table() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let serve = root.join("crates/serve");
    let doors: String = ["http.rs", "rpc.rs"]
        .iter()
        .map(|file| std::fs::read_to_string(serve.join("src").join(file)).unwrap())
        .collect();
    for needle in [
        "SearchRequest::from_wire",
        "search_traced(",
        "d.cancel(",
        "begin_drain()",
    ] {
        assert_eq!(
            doors.matches(needle).count(),
            1,
            "`{needle}` in crates/serve/src/{{http,rpc}}.rs: once, in rpc::operate"
        );
    }

    assert_absent(
        &all_sources(root),
        &["rpc::serve_stdio", "parse_search", "parse_cancel"],
        "both doors hand the request to rpc::operate; tests drive rpc::respond_line",
    );
    let mut serve_sources = Vec::new();
    rust_sources(&serve, &mut serve_sources);
    assert_absent(
        &serve_sources,
        &["serve_stdio"],
        "the stdio daemon is run_daemon over rpc::respond_line",
    );
}

/// A served request costs its work, not a poll period: the accept loop
/// parks on the listener's descriptor, so a connection is picked up
/// when it arrives. With a fixed sleep there instead, every op of a
/// closed-loop client lasted one period (20 ms around a 2 ms sweep) and
/// no kernel speed-up could show at the HTTP door. The one foreign call
/// that does the waiting is declared once and carries its proof; the
/// atomics beside it are pinned by `concurrent_crates_stay_disciplined`
/// (`serve/http.rs load Acquire 1`: `stop` is still the only one).
#[test]
fn served_requests_wait_on_descriptors() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let serve_src = root.join("crates/serve/src");
    let http = std::fs::read_to_string(serve_src.join("http.rs")).unwrap();
    assert!(
        !fn_body(&http, "serve_http").contains("sleep("),
        "serve_http sleeps; wait for the listener with wait_readable"
    );

    let mut sources = Vec::new();
    rust_sources(&serve_src, &mut sources);
    let mut declared = 0;
    for path in &sources {
        let text = std::fs::read_to_string(path).unwrap();
        for (at, _) in text.match_indices("fn poll(") {
            let before = &text[..at];
            assert!(
                before.rfind("extern \"C\" {") > before.rfind('}'),
                "{}: `fn poll(` outside an `extern \"C\"` block",
                path.display()
            );
            declared += 1;
        }
    }
    assert_eq!(
        declared, 1,
        "poll(2) is declared once in crates/serve/src, at its only call site"
    );

    let shipped = http.split("#[cfg(test)]").next().unwrap();
    let (unsafe_count, findings) = audit_source("crates/serve/src/http.rs", shipped);
    assert_eq!(
        unsafe_count, 1,
        "http.rs: the poll(2) call is its only unsafe"
    );
    assert!(findings.is_empty(), "{findings:?}");
}

/// One engine table, one door: `aalign_vec::dispatch` is the only place
/// that knows which engines exist and the only place a kernel enters a
/// `#[target_feature]` context. A private wrapper set elsewhere is how
/// the workspace came to have twelve of them, two backend resolvers
/// that disagreed and three spellings of one engine's name.
#[test]
fn one_engine_table() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let core_lib = std::fs::read_to_string(root.join("crates/core/src/lib.rs")).unwrap();
    assert!(
        core_lib.contains("#![forbid(unsafe_code)]"),
        "aalign-core reaches engines through aalign_vec::with_engine, without unsafe"
    );

    let vec_src = root.join("crates/vec/src");
    for path in product_sources(root) {
        let text = std::fs::read_to_string(&path).unwrap();
        let shown = path.display();
        if path.starts_with(root.join("crates/core/src")) {
            assert!(
                !text.contains("#[target_feature"),
                "{shown}: a #[target_feature] entry outside crates/vec/src escapes the audit lint"
            );
        }
        // `mod tests;` files are `#[cfg(test)]` from their parent.
        let test_module =
            path.ends_with("striped/tests.rs") || path.ends_with("striped/semi_tests.rs");
        if !path.starts_with(&vec_src) && !test_module {
            let shipped = text.split("#[cfg(test)]").next().unwrap();
            for engine in ["Avx2I", "Avx512I", "Sse41I"] {
                assert!(
                    !shipped.contains(engine),
                    "{shown}: names an `{engine}…` engine; resolve a Backend and go through with_engine"
                );
            }
        }
        // The one mistake no test notices: without the forced inline
        // the body is compiled outside the target-feature entry and
        // every intrinsic stays behind a call (20–40× slower).
        for (at, _) in text.match_indices("EngineFn<").filter(|(at, _)| {
            let line = text[..*at].rsplit('\n').next().unwrap();
            line.trim_start().starts_with("impl")
        }) {
            let block = &text[at..];
            let call = block
                .find("fn call<")
                .expect("an EngineFn impl defines call");
            assert!(
                block[..call].trim_end().ends_with("#[inline(always)]"),
                "{shown}: `impl EngineFn` whose `call` is not #[inline(always)]"
            );
        }
    }

    assert_absent(
        &all_sources(root),
        &[
            "run_width_",
            "tf_wrappers",
            "resolve_backend",
            "best_backend",
        ],
        "aalign_vec::dispatch is the only engine table",
    );
}

/// One width ladder: every width decision — the `Auto` plan, byte lanes
/// and their walk-on, a pinned width, the overflow rescue — walks the
/// rungs a `PreparedQuery` owns. The rescue once grew a second ladder by
/// re-pinning a clone of the aligner and preparing the query again.
#[test]
fn one_width_ladder() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_absent(
        &all_sources(root),
        &["RescueLadder", "RescueKit", "bytes_first", "[8u32, 16, 32]"],
        "widths are rungs of PreparedQuery's one ladder",
    );
    for dir in ["crates/par/src", "crates/serve/src", "crates/shard/src"] {
        let mut sources = Vec::new();
        rust_sources(&root.join(dir), &mut sources);
        for path in sources {
            let text = std::fs::read_to_string(&path).unwrap();
            let shipped = text.split("#[cfg(test)]").next().unwrap();
            assert!(
                !shipped.contains("with_width("),
                "{}: re-pins a width; rescue through Aligner::align_wider",
                path.display()
            );
        }
    }
}

/// One striped driver: striped-iterate, striped-scan and the hybrid are
/// modes of one column loop (`aalign_core::striped::driver`), and its
/// entry is the one place the runtime `local`/`affine` flags become
/// const parameters. There were three copies of the loop, and four
/// hand-written `(local, affine)` matches in shipped code.
#[test]
fn one_striped_driver() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for gone in ["iterate.rs", "scan.rs"] {
        let path = root.join("crates/core/src/striped").join(gone);
        assert!(!path.exists(), "{}: a second striped loop", path.display());
    }
    assert_absent(
        &product_sources(root),
        &["iterate_align", "scan_align"],
        "every strategy runs through striped::align_columns",
    );
    let mut crates = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_sources(&krate.unwrap().path().join("src"), &mut crates);
    }
    // A `#[cfg(test)] mod` file (`tests.rs`, `*_tests.rs`) is test code
    // throughout; any other file is shipped up to its first
    // `#[cfg(test)]`.
    let dispatches: Vec<_> = crates
        .iter()
        .filter(|path| !path.to_str().unwrap().ends_with("tests.rs"))
        .flat_map(|path| {
            let text = std::fs::read_to_string(path).unwrap();
            let shipped = text.split("#[cfg(test)]").next().unwrap();
            vec![path.display().to_string(); shipped.matches("(true, true) =>").count()]
        })
        .collect();
    assert_eq!(
        dispatches.len(),
        1,
        "the (local, affine) const dispatch lives in striped::align_columns only: {dispatches:?}"
    );
}

/// One home per setting. A search has two entry points,
/// `SearchEngine::{search, pipeline}`; the pool size is the engine's
/// (`SearchEngine::new` / `EngineHandle::new`), a claim is one subject
/// or one vector of them, and a shard query's budget rides on the
/// `ShardQuery`. Values no caller set are named constants beside their
/// one use: the supervisor's backoff, breaker and heartbeat among them.
/// An engine fault plan lives on the `Local` backend it scripts, and
/// the CLI has one door per job: `search --shards N` is the sharded
/// one-shot search, and `--stats` the one text rendering of the
/// metrics. Each of these had a second home, or none that was used.
#[test]
fn one_home_per_setting() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = all_sources(root);
    rust_sources(&root.join("tests"), &mut sources);
    sources.retain(|p| !p.ends_with("tests/static_verification.rs"));
    assert_absent(
        &sources,
        &["search_database", "fn transient", "::transient("],
        "search through SearchEngine::search on an engine of the size you want",
    );
    assert_absent(
        &sources,
        &[
            "admission_wait",
            "request_grace",
            "spawn_timeout",
            "drain_grace",
        ],
        "a constant beside its one use in aalign-serve / aalign-shard",
    );
    assert_absent(
        [&root.join("crates/par/src/search.rs")],
        &[" threads: ", " shard: ", "fn threads(", "fn shard("],
        "the pool size is the engine's and the claim size is the sweep's",
    );
    let mut shard_crate = Vec::new();
    rust_sources(&root.join("crates/shard/src"), &mut shard_crate);
    assert_absent(
        &shard_crate,
        &["default_deadline"],
        "a shard query's budget is ShardQuery::deadline",
    );
    assert_absent(
        &shard_crate,
        &[
            "fn backoff(",
            "fn breaker(",
            "fn heartbeat(",
            "backoff_seed",
        ],
        "the supervision policy is constants in supervisor.rs",
    );
    assert_absent(
        [&root.join("crates/serve/src/dispatch.rs")],
        &["pub fault_plan:"],
        "an engine fault plan is Local::fault_plan, on the backend it scripts",
    );
    assert_absent(
        [&root.join("src/bin/aalign.rs")],
        &["shard-search", "Some(\"text\")"],
        "a sharded search is `search --shards N`; --stats prints the text block",
    );
}

/// One fold for partial results: a pool worker and a shard each hand
/// back a `SearchReport`, and `SearchReport::absorb` is the one place
/// two of them merge. The engine once folded a private per-worker
/// struct with its own lane-width rule while the supervisor merged
/// shard reports field by field with a copy of that rule, and the two
/// drifted on which worker a lost-worker error names.
#[test]
fn one_fold() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_absent(
        [&root.join("crates/par/src/engine.rs")],
        &["struct SweepOut", "fn narrower"],
        "a worker returns a SearchReport, folded by SearchReport::absorb",
    );
    let mut shard_crate = Vec::new();
    rust_sources(&root.join("crates/shard/src"), &mut shard_crate);
    assert_absent(
        &shard_crate,
        &[
            "kernel_stats.merge",
            "rescue_widths.merge",
            "latency.merge",
            "worker_load.merge",
        ],
        "shard reports merge through SearchReport::absorb",
    );
}

/// One build: a fault plan is a runtime option every build compiles
/// in (`SearchOptions::fault_plan`, `Local::fault_plan`,
/// `ShardOptions::fault`), so the chaos suites run on every `cargo
/// test`. A cargo feature that compiled the hooks away doubled the
/// configurations to cover, and the default one ran none of them.
/// The same holds for tracing: the kernels' column events go through
/// `TraceSink::on_hybrid`, which a `NullSink` compiles to nothing, so
/// no source reads the `trace` feature (its declarations stay only
/// because the benchmark's manifest names them).
#[test]
fn one_build() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = all_sources(root);
    rust_sources(&root.join("tests"), &mut sources);
    sources.retain(|p| !p.ends_with("tests/static_verification.rs"));
    assert_absent(
        &sources,
        &["feature = \"fault-inject\""],
        "a fault plan is a runtime option, not a build",
    );
    assert_absent(
        &sources,
        &["feature = \"trace\""],
        "tracing is a runtime option (`SearchOptions::trace`), not a build",
    );
    for manifest in [
        "Cargo.toml",
        "crates/par/Cargo.toml",
        "crates/serve/Cargo.toml",
        "crates/shard/Cargo.toml",
    ] {
        let text = std::fs::read_to_string(root.join(manifest)).unwrap();
        let features = text
            .split("\n[")
            .find(|table| table.starts_with("features]"))
            .unwrap_or_default();
        assert!(
            !features
                .lines()
                .any(|line| line.trim_start().starts_with("fault-inject")),
            "{manifest}: a `fault-inject` feature is back"
        );
    }
}

/// One measurement system: `benchmark/` (declared by `BENCHMARK.json`)
/// is the only thing that judges a number. The paper's figures are
/// regenerated by the `fig*` bins into `results/*.txt`, the two
/// ablation tables print beside them, and `obs_overhead` asserts
/// in-process that the flight recorder's records stay under 1 % of a
/// served request's sweep. All of them time with
/// `aalign_bench::harness`. The envelope system that ran beside them —
/// `BENCH_*.json` writers, a checked-in latency baseline with
/// `p50 == p99`, the bin that compared against it under an 8× band,
/// and criterion copies of the figure bins — answered "which number
/// counts" a second way, and must not grow back; nor may a second
/// timing harness (the criterion shim) or a second ISA × width table
/// (the `throughput` bin).
#[test]
fn one_measurement_system() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tracked = Vec::new();
    for dir in ["crates", "src", ".github"] {
        files(&root.join(dir), &mut tracked);
    }
    for path in &tracked {
        let shown = path.display().to_string();
        let bytes = std::fs::read(path).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        for gone in ["perf_gate", "BENCH_"] {
            assert!(
                !shown.contains(gone) && !text.contains(gone),
                "{shown}: names `{gone}`; benchmark/ is the only gate"
            );
        }
    }

    let mut results = Vec::new();
    files(&root.join("results"), &mut results);
    for path in results {
        assert!(
            path.extension().is_none_or(|e| e != "json"),
            "{}: results/ holds the figure bins' tables, not baselines",
            path.display()
        );
    }

    let manifest = std::fs::read_to_string(root.join("crates/bench/Cargo.toml")).unwrap();
    let benches: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .map(|entry| {
            let name = entry.split("name = \"").nth(1).expect("a bench has a name");
            &name[..name.find('"').unwrap()]
        })
        .collect();
    assert_eq!(
        benches,
        ["ablation_scan", "ablation_backend", "obs_overhead"],
        "a figure is reproduced by its `fig*` bin alone"
    );

    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        let mut all = Vec::new();
        files(&root.join(dir), &mut all);
        manifests.extend(all.into_iter().filter(|p| p.ends_with("Cargo.toml")));
    }
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert!(
            !text.contains("criterion"),
            "{}: names `criterion`; the benches time with `aalign_bench::harness`",
            manifest.display()
        );
    }
    assert!(
        !root.join("crates/bench/src/bin/throughput.rs").exists(),
        "the ISA × width GCUPS table is `ablation_backend`'s"
    );

    let cli = std::fs::read_to_string(root.join("src/bin/aalign.rs")).unwrap();
    let loadgen = cli
        .split("\n  aalign ")
        .find(|entry| entry.starts_with("loadgen "))
        .expect("loadgen has a usage entry");
    assert!(
        !loadgen.contains("--out"),
        "loadgen prints its document on stdout; nothing stores it"
    );
}

/// One pinned inventory: the analyzer's four baselines (`audit`,
/// `concurrency`, `conformance`, `certify`) are read by one
/// `<key> <count>` parser and checked by one exact drift check, in
/// `crates/analyzer/src/inventory.rs`. Four hand-copied parsers, one of
/// them a one-sided ceiling and all of them skipping a malformed line
/// without a word, is what it replaced.
#[test]
fn one_pinned_inventory() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let analyzer = root.join("crates/analyzer/src");
    let inventory = analyzer.join("inventory.rs");
    let mut sources = Vec::new();
    rust_sources(&analyzer, &mut sources);
    assert!(sources.contains(&inventory), "the inventory module is gone");
    assert_absent(
        sources.iter().filter(|p| **p != inventory),
        &[
            "rsplit_once(' ')",
            "parse::<usize>()",
            "BTreeMap<String, usize>",
            ".contains_key(",
            "fn check_baseline",
        ],
        "baselines are parsed and drift-checked by crates/analyzer/src/inventory.rs only",
    );
}

/// One status table and one shard round trip. Each dispatcher counter
/// is named once, in one `(health key, /metrics name, help)` row that
/// renders both documents; `# HELP` lines come from one writer in
/// `aalign-obs`. The supervisor reads every child reply through one
/// `recv` (the readiness ping, the heartbeat, the search and its retry
/// each had their own), the request it sends is the `ShardQuery`'s own,
/// and status reads a record the supervisor keeps, never a slot lock:
/// a search holds those from dispatch to merge, and `health` waited
/// behind it for seconds.
#[test]
fn one_status_table_and_one_shard_round_trip() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let helps: Vec<_> = product_sources(root)
        .into_iter()
        .filter(|p| std::fs::read_to_string(p).unwrap().contains("# HELP"))
        .collect();
    assert_eq!(
        helps,
        [root.join("crates/obs/src/hist.rs")],
        "`# HELP` is written by aalign_obs::prom_header only"
    );

    let mut serve = Vec::new();
    rust_sources(&root.join("crates/serve/src"), &mut serve);
    let serve: String = serve
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect::<String>()
        .split_whitespace()
        .collect();
    let pairs = [
        ("requests_total", "requests_total"),
        ("ok", "requests_ok"),
        ("partial", "requests_partial"),
        ("overloaded", "refused_overloaded"),
        ("draining_refused", "refused_draining"),
        ("quota_refused", "refused_quota"),
        ("cancelled", "cancelled_total"),
        ("coalesced_total", "coalesced_total"),
        ("bad_requests", "bad_requests_total"),
    ];
    for (key, name) in pairs {
        assert!(
            serve.contains(&format!("(\"{key}\",\"{name}\",")),
            "counter `{name}` has no `(health key, /metrics name, help)` row"
        );
        // `ok`, `overloaded` and `cancelled` also name the health
        // status and two wire error codes.
        let words = if ["ok", "overloaded", "cancelled"].contains(&key) {
            vec![name]
        } else {
            vec![key, name]
        };
        for word in words {
            let in_row = usize::from(key == word) + usize::from(name == word);
            assert_eq!(
                serve.matches(&format!("\"{word}\"")).count(),
                in_row,
                "`{word}` in crates/serve/src outside its counter row"
            );
        }
    }

    let shard = root.join("crates/shard/src");
    let mut shard_sources = Vec::new();
    rust_sources(&shard, &mut shard_sources);
    assert_absent(
        &shard_sources,
        &["fn call(", "fn search_params("],
        "the supervisor sends through `send`, receives through `recv`, and ships the ShardQuery's request",
    );
    let supervisor = std::fs::read_to_string(shard.join("supervisor.rs")).unwrap();
    assert_eq!(
        supervisor.matches("recv_matching(").count(),
        1,
        "every child reply is read through Supervisor::recv"
    );
    for status in ["shards_live", "shards_dead", "shard_pid"] {
        let body = fn_body(&supervisor, status);
        assert!(
            !body.contains("state"),
            "Supervisor::{status} takes a slot lock: it waits behind any search"
        );
    }
}

/// The text of `fn name`'s body in `src` (brace-matched).
fn fn_body<'a>(src: &'a str, name: &str) -> &'a str {
    let at = src
        .find(&format!("fn {name}<"))
        .or_else(|| src.find(&format!("fn {name}(")))
        .unwrap_or_else(|| panic!("fn {name} not found"));
    let open = at + src[at..].find(" {\n").expect("body opens") + 1;
    let mut depth = 0usize;
    for (i, c) in src[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &src[open..=open + i];
                }
            }
            _ => {}
        }
    }
    panic!("fn {name}: unbalanced braces");
}

/// A striped column costs what the paper says it does (Sec. V-A): per
/// column the only loops are over the `k` segments — by index, or over
/// `segments`, a zip of register-wide `chunks_exact(lanes)` of the
/// column buffers — (plus the lazy `loop`), never over the lanes of a
/// vector, and `set_vector` is the ramp hoisted into
/// `ColumnEngine::new` — not a `lower_bound` rebuilt per column, which
/// is what made a 2-segment column cost 92 ns.
#[test]
fn striped_columns_do_no_per_lane_scalar_work() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let columns = std::fs::read_to_string(root.join("crates/core/src/striped/columns.rs")).unwrap();
    let scan = std::fs::read_to_string(root.join("crates/vec/src/scan.rs")).unwrap();
    let per_column = [
        (&columns, "first_pass"),
        (&columns, "iterate_column"),
        (&columns, "scan_column"),
        (&columns, "finish_column"),
        (&scan, "wgt_max_scan_striped"),
    ];
    for (src, name) in per_column {
        let body = fn_body(src, name);
        assert!(
            !body.contains("lower_bound("),
            "{name}: builds set_vector per column; use the hoisted Ramp"
        );
        for line in body.lines().map(str::trim) {
            let is_loop = line.starts_with("for ") || line.starts_with("while ");
            let over_segments = line == "for j in 0..k {" || line.ends_with(" in segments {");
            assert!(
                !is_loop || over_segments,
                "{name}: `{line}` — a column loops over its k segments only"
            );
            assert!(
                !line.contains("chunks")
                    || line.contains("chunks_exact(lanes)")
                    || line.contains("chunks_exact_mut(lanes)"),
                "{name}: `{line}` — `segments` are whole registers of a buffer"
            );
            assert!(
                !line.contains(".iter(")
                    && !line.contains(".iter_mut(")
                    && !line.contains("LANES]"),
                "{name}: `{line}` — per-lane scalar work in a column"
            );
        }
    }
}
