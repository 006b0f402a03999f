//! `aalign-analyzer` — static kernel verification CLI.
//!
//! ```text
//! aalign-analyzer check  [FILE | --builtin NAME | --builtin all]
//! aalign-analyzer range  [FILE | --builtin NAME] --matrix blosum62|dna
//!                        --open N --ext N --max-query N --max-subject N
//! aalign-analyzer audit  [DIR] [--offline] [--print-baseline]
//! aalign-analyzer concurrency  [DIR...] [--print-baseline]
//! aalign-analyzer conformance  [FILE | --builtin NAME]
//!                              [--print-baseline] [--mutate SEED]
//! aalign-analyzer certify  [FILE | --builtin NAME] [--matrix blosum62|dna]
//!                          [--open N] [--ext N]
//!                          [--max-query N] [--max-subject N]
//!                          [--print-baseline] [--mutate SEED]
//! ```
//!
//! Every subcommand accepts `--json` for machine-readable output
//! (stable schema: a single object with `"pass"` and `"ok"` fields
//! plus pass-specific payload).
//!
//! Exit codes: 0 = all checks pass, 1 = a pass rejected something,
//! 2 = usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use aalign_analyzer::audit::{audit_dir, default_vec_src_dir, VEC_BASELINE};
use aalign_analyzer::certify::{
    analyze_certify, run_certify_pass, run_mutation_self_test, CertMutation, CertifyReport,
    CERTIFY_BASELINE,
};
use aalign_analyzer::concurrency::{default_concurrency_dirs, scan_dirs, CONCURRENCY_BASELINE};
use aalign_analyzer::conformance::{run_conformance_pass, ConformancePass, CONFORMANCE_BASELINE};
use aalign_analyzer::range::analyze_range;
use aalign_analyzer::{verify_dataflow, DataflowReport};
use aalign_bio::matrices::BLOSUM62;
use aalign_bio::SubstMatrix;
use aalign_codegen::emit::GapBindings;
use aalign_codegen::{analyze, parse_program, KernelSpec};
use aalign_core::conformance::{run_harness, ConformanceReport, HarnessOptions, Mutation};
use aalign_obs::wire::{obj, JsonValue};

const USAGE: &str = "\
aalign-analyzer — static verification for AAlign kernels

USAGE:
    aalign-analyzer check  [FILE | --builtin NAME | --builtin all]
    aalign-analyzer range  [FILE | --builtin NAME] [--matrix blosum62|dna]
                           [--open N] [--ext N]
                           [--max-query N] [--max-subject N]
    aalign-analyzer audit  [DIR] [--offline] [--print-baseline]
    aalign-analyzer concurrency  [DIR...] [--print-baseline]
    aalign-analyzer conformance  [FILE | --builtin NAME | --builtin all]
                                 [--print-baseline] [--mutate SEED]
    aalign-analyzer certify  [FILE | --builtin NAME] [--matrix blosum62|dna]
                             [--open N] [--ext N]
                             [--max-query N] [--max-subject N]
                             [--print-baseline] [--mutate SEED]

    All subcommands accept --json for machine-readable output.

BUILTINS: sw-affine (alg1), nw-affine, sw-linear, nw-linear

`check` parses a kernel description, classifies it against the
generalized paradigm, and proves its dependency directions legal for
striped vectorization. `range` additionally binds gap penalties and a
matrix and reports score intervals and the minimal safe lane width.
`audit` lints the SIMD backends (SAFETY comments, target_feature
contracts, unsafe-count baseline); it reads only the local tree, so
--offline is accepted for CI clarity but changes nothing.
`concurrency` lints the concurrent crates' atomics discipline (ORDER
justifications, SeqCst/Relaxed rules, exact inventory baseline).
`conformance` proves the Eq.(2) equivalence obligations for each
kernel symbolically, then runs the bounded-exhaustive differential
harness against paradigm_dp; --mutate SEED perturbs one max/gap term
and *requires* the harness to catch it (the self-test has teeth).
`certify` runs the saturation-certificate prover: with no source it
proves the shipped configuration inventory (pinned baseline); with a
source and gap/matrix/length flags it certifies that one config per
lane width, rendering caret diagnostics for denials; --mutate SEED
perturbs every certified config and requires the prover to deny the
mutant at the previously granted width.";

fn builtin(name: &str) -> Option<(&'static str, &'static str)> {
    match name {
        "sw-affine" | "alg1" => Some(("sw-affine", aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE)),
        "nw-affine" => Some(("nw-affine", aalign_codegen::NEEDLEMAN_WUNSCH_AFFINE)),
        "sw-linear" => Some(("sw-linear", aalign_codegen::SMITH_WATERMAN_LINEAR)),
        "nw-linear" => Some(("nw-linear", aalign_codegen::NEEDLEMAN_WUNSCH_LINEAR)),
        _ => None,
    }
}

const ALL_BUILTINS: [&str; 4] = ["sw-affine", "nw-affine", "sw-linear", "nw-linear"];

/// Resolve the common `[FILE | --builtin NAME]` source selector.
/// Returns (display name, source text) pairs, and whether the default
/// set was used (baselines are only checked against defaults).
fn resolve_sources(args: &[String]) -> Result<(Vec<(String, String)>, bool), String> {
    let mut i = 0;
    let mut out = Vec::new();
    while i < args.len() {
        match args[i].as_str() {
            "--builtin" => {
                let name = args.get(i + 1).ok_or("--builtin needs a name (or `all`)")?;
                if name == "all" {
                    for b in ALL_BUILTINS {
                        let (label, src) = builtin(b).unwrap();
                        out.push((label.to_string(), src.to_string()));
                    }
                } else {
                    let (label, src) = builtin(name)
                        .ok_or_else(|| format!("unknown builtin `{name}` (try `all`)"))?;
                    out.push((label.to_string(), src.to_string()));
                }
                i += 2;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            file => {
                let src = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read {file}: {e}"))?;
                out.push((file.to_string(), src));
                i += 1;
            }
        }
    }
    let is_default = out.is_empty();
    if is_default {
        // Default: verify every builtin.
        for b in ALL_BUILTINS {
            let (label, src) = builtin(b).unwrap();
            out.push((label.to_string(), src.to_string()));
        }
    }
    Ok((out, is_default))
}

/// Parse + classify + dataflow-verify one kernel source. `Err` carries
/// the full rendered diagnostic.
fn check_kernel(name: &str, src: &str) -> Result<(KernelSpec, DataflowReport), String> {
    let prog = parse_program(src).map_err(|e| {
        let span = e.span();
        let (line, col) = span.line_col(src);
        format!("{name}: parse error: {e}\n  --> {line}:{col}")
    })?;
    let spec = analyze(&prog)
        .map_err(|e| format!("{name}: paradigm classification failed:\n{}", e.render(src)))?;
    match verify_dataflow(&prog) {
        Ok(report) => Ok((spec, report)),
        Err(diags) => {
            let mut msg = format!("{name}: dataflow verification FAILED:");
            for d in &diags {
                msg.push('\n');
                msg.push_str(&d.render(src));
            }
            Err(msg)
        }
    }
}

/// Text-mode wrapper: prints the outcome, returns pass/fail.
fn check_one(name: &str, src: &str) -> bool {
    match check_kernel(name, src) {
        Ok((spec, report)) => {
            println!(
                "{name}: OK — {} ({} tables, {} dependencies, all within the \
                 anti-diagonal wavefront)",
                spec.label(),
                report.tables.len(),
                report.deps.len()
            );
            true
        }
        Err(msg) => {
            eprintln!("{msg}");
            false
        }
    }
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON array of strings.
fn strings<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> JsonValue {
    JsonValue::Array(items.into_iter().map(|s| s.as_ref().into()).collect())
}

/// The `{"name":…,"ok":false,"error":…}` row of a kernel that failed
/// before its pass could run.
fn failed_kernel(name: &str, error: &str) -> JsonValue {
    obj(vec![
        ("name", name.into()),
        ("ok", false.into()),
        ("error", error.into()),
    ])
}

fn cmd_check(args: &[String], as_json: bool) -> Result<ExitCode, String> {
    let (sources, _) = resolve_sources(args)?;
    let mut ok = true;
    let mut kernels = Vec::new();
    for (name, src) in &sources {
        if as_json {
            kernels.push(match check_kernel(name, src) {
                Ok((spec, report)) => obj(vec![
                    ("name", name.as_str().into()),
                    ("ok", true.into()),
                    ("label", spec.label().into()),
                    ("tables", report.tables.len().into()),
                    ("dependencies", report.deps.len().into()),
                ]),
                Err(msg) => {
                    ok = false;
                    failed_kernel(name, &msg)
                }
            });
        } else {
            ok &= check_one(name, src);
        }
    }
    if as_json {
        println!(
            "{}",
            obj(vec![
                ("pass", "check".into()),
                ("ok", ok.into()),
                ("kernels", kernels.into()),
            ])
        );
    }
    Ok(exit(ok))
}

fn cmd_range(args: &[String], as_json: bool) -> Result<ExitCode, String> {
    let mut matrix_name = "blosum62".to_string();
    let mut open = -12i32;
    let mut ext = -2i32;
    let mut max_query = 1024usize;
    let mut max_subject = 1024usize;
    let mut rest = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let take = |j: usize| -> Result<&String, String> {
            args.get(j)
                .ok_or_else(|| format!("{} needs a value", args[j - 1]))
        };
        match args[i].as_str() {
            "--matrix" => {
                matrix_name = take(i + 1)?.clone();
                i += 2;
            }
            "--open" => {
                open = take(i + 1)?.parse().map_err(|_| "--open: not an integer")?;
                i += 2;
            }
            "--ext" => {
                ext = take(i + 1)?.parse().map_err(|_| "--ext: not an integer")?;
                i += 2;
            }
            "--max-query" => {
                max_query = take(i + 1)?
                    .parse()
                    .map_err(|_| "--max-query: not a length")?;
                i += 2;
            }
            "--max-subject" => {
                max_subject = take(i + 1)?
                    .parse()
                    .map_err(|_| "--max-subject: not a length")?;
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }

    let dna;
    let matrix: &SubstMatrix = match matrix_name.as_str() {
        "blosum62" => &BLOSUM62,
        "dna" => {
            dna = SubstMatrix::dna(2, -3);
            &dna
        }
        other => return Err(format!("unknown matrix `{other}` (blosum62|dna)")),
    };

    let (sources, _) = resolve_sources(&rest)?;
    let mut ok = true;
    let mut kernels = Vec::new();
    for (name, src) in &sources {
        let checked = check_kernel(name, src);
        let (spec, _) = match checked {
            Ok(pair) => pair,
            Err(msg) => {
                ok = false;
                if as_json {
                    kernels.push(failed_kernel(name, &msg));
                } else {
                    eprintln!("{msg}");
                }
                continue;
            }
        };
        let bind = GapBindings {
            gap_open: open,
            gap_ext: ext,
        };
        match analyze_range(&spec, bind, matrix, max_query, max_subject) {
            Ok(report) => {
                let fits = !report.overflows_i32();
                ok &= fits;
                if as_json {
                    kernels.push(obj(vec![
                        ("name", name.as_str().into()),
                        ("ok", fits.into()),
                        ("report", report.to_string().into()),
                    ]));
                } else {
                    println!("{report}");
                }
            }
            Err(e) => {
                ok = false;
                if as_json {
                    kernels.push(failed_kernel(
                        name,
                        &format!("cannot bind gap constants: {e}"),
                    ));
                } else {
                    eprintln!("{name}: cannot bind gap constants: {e}");
                }
            }
        }
    }
    if as_json {
        println!(
            "{}",
            obj(vec![
                ("pass", "range".into()),
                ("ok", ok.into()),
                ("kernels", kernels.into()),
            ])
        );
    }
    Ok(exit(ok))
}

fn cmd_audit(args: &[String], as_json: bool) -> Result<ExitCode, String> {
    let mut dir: Option<PathBuf> = None;
    let mut print_baseline = false;
    for a in args {
        match a.as_str() {
            "--offline" => {} // the audit never touches the network; accepted for CI clarity
            "--print-baseline" => print_baseline = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => dir = Some(PathBuf::from(path)),
        }
    }
    let is_default = dir.is_none();
    let dir = dir.unwrap_or_else(default_vec_src_dir);
    let report = audit_dir(&dir).map_err(|e| format!("cannot audit {}: {e}", dir.display()))?;

    if print_baseline {
        print!("{}", report.baseline_text());
        return Ok(ExitCode::SUCCESS);
    }

    let mut ok = report.is_clean();
    let baseline_problems = if is_default {
        report.check_baseline(VEC_BASELINE)
    } else {
        Vec::new()
    };
    ok &= baseline_problems.is_empty();

    if as_json {
        let files = report.files.iter().map(|f| {
            obj(vec![
                ("file", f.file.as_str().into()),
                ("unsafe", f.unsafe_count.into()),
            ])
        });
        println!(
            "{}",
            obj(vec![
                ("pass", "audit".into()),
                ("ok", ok.into()),
                ("files", JsonValue::Array(files.collect())),
                (
                    "findings",
                    strings(report.findings.iter().map(ToString::to_string)),
                ),
                ("baseline_problems", strings(&baseline_problems)),
            ])
        );
        return Ok(exit(ok));
    }

    for f in &report.files {
        println!("{:14} {:3} unsafe", f.file, f.unsafe_count);
    }
    if !report.is_clean() {
        eprintln!("\n{} finding(s):", report.findings.len());
        for f in &report.findings {
            eprintln!("  {f}");
        }
    }
    if is_default {
        if baseline_problems.is_empty() {
            println!("baseline: OK");
        } else {
            eprintln!("\nbaseline violations:");
            for p in &baseline_problems {
                eprintln!("  {p}");
            }
        }
    }
    Ok(exit(ok))
}

fn cmd_concurrency(args: &[String], as_json: bool) -> Result<ExitCode, String> {
    let mut dirs: Vec<(String, PathBuf)> = Vec::new();
    let mut print_baseline = false;
    for a in args {
        match a.as_str() {
            "--print-baseline" => print_baseline = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => {
                let p = PathBuf::from(path);
                let label = p
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or("dir")
                    .to_string();
                dirs.push((label, p));
            }
        }
    }
    let is_default = dirs.is_empty();
    if is_default {
        dirs = default_concurrency_dirs();
    }
    let report = scan_dirs(&dirs).map_err(|e| format!("cannot scan: {e}"))?;

    if print_baseline {
        print!("{}", report.baseline_text());
        return Ok(ExitCode::SUCCESS);
    }

    let mut ok = report.is_clean();
    let baseline_problems = if is_default {
        report.check_baseline(CONCURRENCY_BASELINE)
    } else {
        Vec::new()
    };
    ok &= baseline_problems.is_empty();

    if as_json {
        println!(
            "{}",
            obj(vec![
                ("pass", "concurrency".into()),
                ("ok", ok.into()),
                ("sites", report.sites.len().into()),
                (
                    "findings",
                    strings(report.findings.iter().map(ToString::to_string)),
                ),
                ("baseline_problems", strings(&baseline_problems)),
            ])
        );
        return Ok(exit(ok));
    }

    println!(
        "{} atomic site(s) across {} dir(s)",
        report.sites.len(),
        dirs.len()
    );
    print!("{}", report.baseline_text());
    if !report.is_clean() {
        eprintln!("\n{} finding(s):", report.findings.len());
        for f in &report.findings {
            eprintln!("  {f}");
        }
    }
    if is_default {
        if baseline_problems.is_empty() {
            println!("baseline: OK");
        } else {
            eprintln!("\nbaseline drift:");
            for p in &baseline_problems {
                eprintln!("  {p}");
            }
        }
    }
    Ok(exit(ok))
}

/// One harness report as a JSON object.
fn harness_json(h: &ConformanceReport) -> JsonValue {
    let configs = h.configs.iter().map(|c| {
        obj(vec![
            ("config", c.config.as_str().into()),
            ("pairs", c.pairs.into()),
            ("mismatches", c.mismatch_count.into()),
            (
                "mismatch_samples",
                strings(c.mismatches.iter().map(ToString::to_string)),
            ),
            ("violations", strings(&c.violations)),
        ])
    });
    let mut fields = vec![
        ("bit_exact", h.is_bit_exact().into()),
        ("checks", h.total_checks().into()),
        ("mismatches", h.total_mismatches().into()),
        ("configs", JsonValue::Array(configs.collect())),
    ];
    if let Some(m) = &h.mutation {
        fields.push(("mutation", m.as_str().into()));
    }
    obj(fields)
}

/// The proof obligations as a JSON array.
fn proofs_json(pass: &ConformancePass) -> JsonValue {
    let kernels = pass.proofs.iter().map(|p| {
        let obligations = p.obligations.iter().map(|o| {
            obj(vec![
                ("id", o.id.into()),
                ("status", o.status.word().into()),
                ("claim", o.claim.as_str().into()),
                ("premises", strings(&o.premises)),
                ("detail", o.detail.as_str().into()),
            ])
        });
        obj(vec![
            ("name", p.kernel.as_str().into()),
            ("label", p.label.as_str().into()),
            ("discharged", p.is_discharged().into()),
            ("obligations", JsonValue::Array(obligations.collect())),
        ])
    });
    JsonValue::Array(kernels.collect())
}

fn cmd_conformance(args: &[String], as_json: bool) -> Result<ExitCode, String> {
    let mut print_baseline = false;
    let mut mutate: Option<u64> = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--print-baseline" => {
                print_baseline = true;
                i += 1;
            }
            "--mutate" => {
                let seed = args.get(i + 1).ok_or("--mutate needs a seed (u64)")?;
                mutate = Some(
                    seed.parse()
                        .map_err(|_| format!("--mutate: `{seed}` is not a u64 seed"))?,
                );
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    let (sources, is_default) = resolve_sources(&rest)?;

    // Mutation self-test: perturb one max/gap term on the kernel side
    // and *require* the harness to catch it.
    if let Some(seed) = mutate {
        let mutation = Mutation::from_seed(seed);
        let opts = HarnessOptions {
            mutation: Some(mutation),
            ..HarnessOptions::ci()
        };
        let report = run_harness(&opts);
        let caught = !report.is_bit_exact();
        if as_json {
            println!(
                "{}",
                obj(vec![
                    ("pass", "conformance".into()),
                    ("ok", caught.into()),
                    ("mode", "mutation-self-test".into()),
                    ("seed", seed.into()),
                    ("mutation", mutation.name().into()),
                    ("caught", caught.into()),
                    ("harness", harness_json(&report)),
                ])
            );
        } else {
            println!("{}", report.summary());
            if caught {
                println!(
                    "mutation `{}` (seed {seed}): CAUGHT — {} mismatch(es); the harness has teeth",
                    mutation.name(),
                    report.total_mismatches()
                );
            } else {
                eprintln!(
                    "mutation `{}` (seed {seed}): NOT caught — the harness is blind to this \
                     perturbation",
                    mutation.name()
                );
            }
        }
        return Ok(exit(caught));
    }

    let pass = match run_conformance_pass(&sources) {
        Ok(p) => p,
        Err((name, e)) => return Err(format!("{name}: {e}")),
    };

    if print_baseline {
        print!("{}", pass.baseline_text());
        return Ok(ExitCode::SUCCESS);
    }

    let mut ok = pass.is_clean();
    let baseline_problems = if is_default {
        pass.check_baseline(CONFORMANCE_BASELINE)
    } else {
        Vec::new()
    };
    ok &= baseline_problems.is_empty();

    if as_json {
        println!(
            "{}",
            obj(vec![
                ("pass", "conformance".into()),
                ("ok", ok.into()),
                ("kernels", proofs_json(&pass)),
                ("harness", harness_json(&pass.harness)),
                ("baseline_problems", strings(&baseline_problems)),
            ])
        );
        return Ok(exit(ok));
    }

    for (proof, (_, src)) in pass.proofs.iter().zip(&sources) {
        println!("{} ({}):", proof.kernel, proof.label);
        for o in &proof.obligations {
            for (k, line) in o.render(src).lines().enumerate() {
                println!("  {}{line}", if k == 0 { "" } else { "  " });
            }
        }
    }
    println!("{}", pass.harness.summary());
    for c in &pass.harness.configs {
        for m in &c.mismatches {
            eprintln!("  mismatch: {m}");
        }
        for v in &c.violations {
            eprintln!("  violation: {v}");
        }
    }
    if is_default {
        if baseline_problems.is_empty() {
            println!("baseline: OK");
        } else {
            eprintln!("\nbaseline drift:");
            for p in &baseline_problems {
                eprintln!("  {p}");
            }
        }
    }
    println!(
        "conformance: {}",
        if ok {
            "all obligations discharged"
        } else {
            "FAILED"
        }
    );
    Ok(exit(ok))
}

/// One certify report as a JSON object.
fn certify_json(r: &CertifyReport, src: Option<&str>) -> JsonValue {
    let certs = r.certificates.iter().map(|c| {
        let mut fields = vec![
            ("lane_bits", c.lane_bits.into()),
            ("granted", c.granted.into()),
            ("fingerprint", c.fingerprint.into()),
            ("summary", c.summary().into()),
            ("t_lo", c.bounds.t_lo.into()),
            ("t_hi", c.bounds.t_hi.into()),
            ("ul_lo", c.bounds.ul_lo.into()),
            ("ul_hi", c.bounds.ul_hi.into()),
            ("headroom", c.bounds.headroom.into()),
        ];
        if let Some(d) = &c.denial {
            let mut den = vec![
                ("term", d.term.name().into()),
                ("table", d.table.into()),
                ("wavefront", d.wavefront.into()),
                ("value", d.value.into()),
                ("limit", d.limit.into()),
            ];
            if let Some(len) = d.max_safe_len {
                den.push(("max_safe_len", len.into()));
            }
            if let Some(w) = &d.witness {
                den.push((
                    "witness",
                    obj(vec![
                        ("query_letter", (w.query_letter as char).to_string().into()),
                        (
                            "subject_letter",
                            (w.subject_letter as char).to_string().into(),
                        ),
                        ("len", w.len.into()),
                        ("min_score", w.min_score.into()),
                    ]),
                ));
            }
            fields.push(("denial", obj(den)));
        }
        obj(fields)
    });
    let mut fields = vec![
        ("label", r.label.as_str().into()),
        ("matrix", r.matrix.as_str().into()),
        ("max_query", r.max_query.into()),
        ("max_subject", r.max_subject.into()),
        ("certifiable", r.is_certifiable().into()),
        ("certificates", JsonValue::Array(certs.collect())),
    ];
    if let Some(bits) = r.narrowest_granted() {
        fields.push(("narrowest_granted", bits.into()));
    }
    if let Some(src) = src {
        fields.push(("report", r.render(src).into()));
    }
    obj(fields)
}

fn cmd_certify(args: &[String], as_json: bool) -> Result<ExitCode, String> {
    let mut matrix_name = "blosum62".to_string();
    let mut open = -12i32;
    let mut ext = -2i32;
    let mut max_query = 1024usize;
    let mut max_subject = 1024usize;
    let mut print_baseline = false;
    let mut mutate: Option<u64> = None;
    let mut rest = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let take = |j: usize| -> Result<&String, String> {
            args.get(j)
                .ok_or_else(|| format!("{} needs a value", args[j - 1]))
        };
        match args[i].as_str() {
            "--matrix" => {
                matrix_name = take(i + 1)?.clone();
                i += 2;
            }
            "--open" => {
                open = take(i + 1)?.parse().map_err(|_| "--open: not an integer")?;
                i += 2;
            }
            "--ext" => {
                ext = take(i + 1)?.parse().map_err(|_| "--ext: not an integer")?;
                i += 2;
            }
            "--max-query" => {
                max_query = take(i + 1)?
                    .parse()
                    .map_err(|_| "--max-query: not a length")?;
                i += 2;
            }
            "--max-subject" => {
                max_subject = take(i + 1)?
                    .parse()
                    .map_err(|_| "--max-subject: not a length")?;
                i += 2;
            }
            "--print-baseline" => {
                print_baseline = true;
                i += 1;
            }
            "--mutate" => {
                let seed = take(i + 1)?;
                mutate = Some(
                    seed.parse()
                        .map_err(|_| format!("--mutate: `{seed}` is not a u64 seed"))?,
                );
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }

    // Mutation self-test: perturb every certified shipped config and
    // *require* the prover to deny the mutant.
    if let Some(seed) = mutate {
        let mutation = CertMutation::from_seed(seed);
        let verdicts = run_mutation_self_test(mutation).map_err(|e| e.to_string())?;
        let ok = !verdicts.is_empty() && verdicts.iter().all(|v| v.rejected);
        if as_json {
            let rows = verdicts.iter().map(|v| {
                obj(vec![
                    ("label", v.label.as_str().into()),
                    ("matrix", v.matrix.as_str().into()),
                    ("lane_bits", v.lane_bits.into()),
                    ("rejected", v.rejected.into()),
                ])
            });
            println!(
                "{}",
                obj(vec![
                    ("pass", "certify".into()),
                    ("ok", ok.into()),
                    ("mode", "mutation-self-test".into()),
                    ("seed", seed.into()),
                    ("mutation", mutation.name().into()),
                    ("verdicts", JsonValue::Array(rows.collect())),
                ])
            );
        } else {
            for v in &verdicts {
                println!(
                    "mutation `{}` on {} vs {} at i{}: {}",
                    mutation.name(),
                    v.label,
                    v.matrix,
                    v.lane_bits,
                    if v.rejected {
                        "REJECTED (prover has teeth)"
                    } else {
                        "granted — the prover is blind to this perturbation"
                    }
                );
            }
        }
        return Ok(exit(ok));
    }

    // Ad-hoc mode: a source selector plus config flags certifies one
    // configuration. Default mode proves the shipped inventory and
    // checks the pinned baseline.
    if !rest.is_empty() {
        let dna;
        let matrix: &SubstMatrix = match matrix_name.as_str() {
            "blosum62" => &BLOSUM62,
            "dna" => {
                dna = SubstMatrix::dna(2, -3);
                &dna
            }
            other => return Err(format!("unknown matrix `{other}` (blosum62|dna)")),
        };
        let (sources, _) = resolve_sources(&rest)?;
        let mut ok = true;
        let mut kernels = Vec::new();
        for (name, src) in &sources {
            let (spec, _) = match check_kernel(name, src) {
                Ok(pair) => pair,
                Err(msg) => {
                    ok = false;
                    if as_json {
                        kernels.push(failed_kernel(name, &msg));
                    } else {
                        eprintln!("{msg}");
                    }
                    continue;
                }
            };
            let bind = GapBindings {
                gap_open: open,
                gap_ext: ext,
            };
            match analyze_certify(&spec, bind, matrix, max_query, max_subject) {
                Ok(report) => {
                    ok &= report.is_certifiable();
                    if as_json {
                        kernels.push(certify_json(&report, Some(src)));
                    } else {
                        println!("{}", report.render(src));
                    }
                }
                Err(e) => {
                    ok = false;
                    if as_json {
                        kernels.push(failed_kernel(
                            name,
                            &format!("cannot bind gap constants: {e}"),
                        ));
                    } else {
                        eprintln!("{name}: cannot bind gap constants: {e}");
                    }
                }
            }
        }
        if as_json {
            println!(
                "{}",
                obj(vec![
                    ("pass", "certify".into()),
                    ("ok", ok.into()),
                    ("kernels", kernels.into()),
                ])
            );
        }
        return Ok(exit(ok));
    }

    let pass = run_certify_pass().map_err(|e| e.to_string())?;

    if print_baseline {
        print!("{}", pass.baseline_text());
        return Ok(ExitCode::SUCCESS);
    }

    let mut ok = pass.is_certified();
    let baseline_problems = pass.check_baseline(CERTIFY_BASELINE);
    ok &= baseline_problems.is_empty();

    if as_json {
        let reports = pass.reports.iter().map(|r| certify_json(r, None));
        println!(
            "{}",
            obj(vec![
                ("pass", "certify".into()),
                ("ok", ok.into()),
                ("configs", JsonValue::Array(reports.collect())),
                ("baseline_problems", strings(&baseline_problems)),
            ])
        );
        return Ok(exit(ok));
    }

    for (report, ship) in pass
        .reports
        .iter()
        .zip(aalign_analyzer::certify::shipped_configs())
    {
        println!("{}\n", report.render(ship.source));
    }
    if baseline_problems.is_empty() {
        println!("baseline: OK");
    } else {
        eprintln!("baseline drift:");
        for p in &baseline_problems {
            eprintln!("  {p}");
        }
    }
    println!(
        "certify: {}",
        if ok {
            "every shipped configuration has a proven rescue-free width"
        } else {
            "FAILED"
        }
    );
    Ok(exit(ok))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let as_json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "check" => cmd_check(rest, as_json),
        "range" => cmd_range(rest, as_json),
        "audit" => cmd_audit(rest, as_json),
        "concurrency" => cmd_concurrency(rest, as_json),
        "conformance" => cmd_conformance(rest, as_json),
        "certify" => cmd_certify(rest, as_json),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
