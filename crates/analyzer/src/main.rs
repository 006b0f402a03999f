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

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use aalign_analyzer::audit::{audit_dir, default_vec_src_dir, VEC_BASELINE};
use aalign_analyzer::certify::{
    analyze_certify, run_certify_pass, run_mutation_self_test, shipped_configs, shipped_matrix,
    CertMutation, CertifyReport, CERTIFY_BASELINE,
};
use aalign_analyzer::concurrency::{default_concurrency_dirs, scan_dirs, CONCURRENCY_BASELINE};
use aalign_analyzer::conformance::{run_conformance_pass, ConformancePass, CONFORMANCE_BASELINE};
use aalign_analyzer::range::analyze_range;
use aalign_analyzer::{verify_dataflow, DataflowReport, Inventory};
use aalign_bio::SubstMatrix;
use aalign_codegen::emit::GapBindings;
use aalign_codegen::interpret::BindError;
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
mutant at the previously granted width. Each certify mode refuses the
flags it would ignore (exit 2).";

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

/// Remove every `flag` from `args`; true if there was one.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Remove every `flag VALUE` pair from `args` and parse the last
/// value; `what` names the kind of value the flag takes.
fn take_value<T: FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    what: &str,
) -> Result<Option<T>, String> {
    let mut value = None;
    while let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 == args.len() {
            return Err(format!("{flag} needs {what}"));
        }
        let raw = args.remove(i + 1);
        args.remove(i);
        value = Some(
            raw.parse()
                .map_err(|_| format!("{flag}: `{raw}` is not {what}"))?,
        );
    }
    Ok(value)
}

/// The directories named in what is left of `args` once a lint's own
/// flags are taken; any other flag is a usage error.
fn dir_args(args: Vec<String>) -> Result<Vec<PathBuf>, String> {
    args.into_iter()
        .map(|a| {
            if a.starts_with("--") {
                Err(format!("unknown flag `{a}`"))
            } else {
                Ok(PathBuf::from(a))
            }
        })
        .collect()
}

/// The configuration `range` and ad-hoc `certify` bind a kernel to.
struct Config {
    matrix: SubstMatrix,
    bind: GapBindings,
    max_query: usize,
    max_subject: usize,
}

impl Config {
    /// The flags [`take`](Self::take) reads.
    const FLAGS: [&'static str; 5] = [
        "--matrix",
        "--open",
        "--ext",
        "--max-query",
        "--max-subject",
    ];

    /// Take `--matrix/--open/--ext/--max-query/--max-subject` out of
    /// `args`; a flag left out keeps its default (BLOSUM62, −12/−2,
    /// 1024 × 1024).
    fn take(args: &mut Vec<String>) -> Result<Self, String> {
        let name: String =
            take_value(args, "--matrix", "a matrix name")?.unwrap_or_else(|| "blosum62".into());
        let matrix = shipped_matrix(&name)
            .ok_or_else(|| format!("unknown matrix `{name}` (blosum62|dna)"))?;
        Ok(Self {
            matrix,
            bind: GapBindings {
                gap_open: take_value(args, "--open", "an integer")?.unwrap_or(-12),
                gap_ext: take_value(args, "--ext", "an integer")?.unwrap_or(-2),
            },
            max_query: take_value(args, "--max-query", "a length")?.unwrap_or(1024),
            max_subject: take_value(args, "--max-subject", "a length")?.unwrap_or(1024),
        })
    }

    /// Run `analysis` (`analyze_range`, `analyze_certify`) on `spec`
    /// under this configuration.
    fn bind<R>(
        &self,
        analysis: fn(&KernelSpec, GapBindings, &SubstMatrix, usize, usize) -> Result<R, BindError>,
        spec: &KernelSpec,
    ) -> Result<R, String> {
        analysis(
            spec,
            self.bind,
            &self.matrix,
            self.max_query,
            self.max_subject,
        )
        .map_err(|e| format!("cannot bind gap constants: {e}"))
    }
}

/// One kernel's outcome: whether it passed, its JSON row, its text.
type Row = (bool, JsonValue, String);

/// Check each source's kernel, hand each one that checks to `row`,
/// and print the `{"pass", "ok", "kernels"}` document or the rows'
/// text. A kernel that fails its check, or that `row` cannot analyze,
/// is reported as failed (on stderr in text mode).
fn report_kernels(
    pass: &str,
    sources: &[(String, String)],
    as_json: bool,
    mut row: impl FnMut(&str, &str, &KernelSpec, &DataflowReport) -> Result<Row, String>,
) -> ExitCode {
    let mut ok = true;
    let mut kernels = Vec::new();
    for (name, src) in sources {
        // A failure's (text line, JSON error): a check failure's
        // message names its kernel already.
        let outcome = match check_kernel(name, src) {
            Ok((spec, dataflow)) => {
                row(name, src, &spec, &dataflow).map_err(|e| (format!("{name}: {e}"), e))
            }
            Err(msg) => Err((msg.clone(), msg)),
        };
        match outcome {
            Ok((passed, json, text)) => {
                ok &= passed;
                if as_json {
                    kernels.push(json);
                } else {
                    println!("{text}");
                }
            }
            Err((text, error)) => {
                ok = false;
                if as_json {
                    kernels.push(failed_kernel(name, &error));
                } else {
                    eprintln!("{text}");
                }
            }
        }
    }
    if as_json {
        println!(
            "{}",
            obj(vec![
                ("pass", pass.into()),
                ("ok", ok.into()),
                ("kernels", kernels.into()),
            ])
        );
    }
    exit(ok)
}

/// What a pinned pass hands the report flow all four share.
struct Pinned<'a> {
    pass: &'static str,
    /// The pass's own verdict, before its baseline is looked at.
    clean: bool,
    inventory: &'a Inventory,
    /// The checked-in baseline, or `None` on a target other than the
    /// pass's default, which nothing pins.
    baseline: Option<&'static str>,
    /// The closing `<pass>: <done>` line's words, for the passes that
    /// print one (`FAILED` when the pass fails).
    done: Option<&'static str>,
}

/// The flow every pinned pass shares. `--print-baseline` prints the
/// inventory and succeeds. Otherwise the pass succeeds when it is
/// clean and its inventory has no drift from its baseline; the JSON
/// document is `pass`, `ok`, the pass's own `fields`, then
/// `baseline_problems`, and the text is the pass's own `text`, then
/// the baseline's verdict, then the `done` line.
fn report_pinned(
    pinned: Pinned<'_>,
    print_baseline: bool,
    as_json: bool,
    fields: impl FnOnce() -> Vec<(&'static str, JsonValue)>,
    text: impl FnOnce(),
) -> ExitCode {
    if print_baseline {
        print!("{}", pinned.inventory);
        return ExitCode::SUCCESS;
    }
    let problems = pinned
        .baseline
        .map_or_else(Vec::new, |baseline| pinned.inventory.drift(baseline));
    let ok = pinned.clean && problems.is_empty();
    if as_json {
        let mut doc = vec![("pass", pinned.pass.into()), ("ok", ok.into())];
        doc.extend(fields());
        doc.push(("baseline_problems", strings(&problems)));
        println!("{}", obj(doc));
        return exit(ok);
    }
    text();
    if pinned.baseline.is_some() {
        if problems.is_empty() {
            println!("baseline: OK");
        } else {
            eprintln!("\nbaseline drift:");
            for p in &problems {
                eprintln!("  {p}");
            }
        }
    }
    if let Some(done) = pinned.done {
        println!("{}: {}", pinned.pass, if ok { done } else { "FAILED" });
    }
    exit(ok)
}

/// A lint's findings: a JSON array of their lines.
fn findings_json<F: Display>(findings: &[F]) -> JsonValue {
    strings(findings.iter().map(ToString::to_string))
}

/// A lint's findings, on stderr.
fn print_findings<F: Display>(findings: &[F]) {
    if !findings.is_empty() {
        eprintln!("\n{} finding(s):", findings.len());
        for f in findings {
            eprintln!("  {f}");
        }
    }
}

fn cmd_check(args: Vec<String>, as_json: bool) -> Result<ExitCode, String> {
    let (sources, _) = resolve_sources(&args)?;
    Ok(report_kernels(
        "check",
        &sources,
        as_json,
        |name, _, spec, dataflow| {
            let json = obj(vec![
                ("name", name.into()),
                ("ok", true.into()),
                ("label", spec.label().into()),
                ("tables", dataflow.tables.len().into()),
                ("dependencies", dataflow.deps.len().into()),
            ]);
            let text = format!(
                "{name}: OK — {} ({} tables, {} dependencies, all within the \
             anti-diagonal wavefront)",
                spec.label(),
                dataflow.tables.len(),
                dataflow.deps.len()
            );
            Ok((true, json, text))
        },
    ))
}

fn cmd_range(mut args: Vec<String>, as_json: bool) -> Result<ExitCode, String> {
    let config = Config::take(&mut args)?;
    let (sources, _) = resolve_sources(&args)?;
    Ok(report_kernels(
        "range",
        &sources,
        as_json,
        |name, _, spec, _| {
            let report = config.bind(analyze_range, spec)?;
            let fits = !report.overflows_i32();
            let text = report.to_string();
            let json = obj(vec![
                ("name", name.into()),
                ("ok", fits.into()),
                ("report", text.as_str().into()),
            ]);
            Ok((fits, json, text))
        },
    ))
}

fn cmd_audit(mut args: Vec<String>, as_json: bool) -> Result<ExitCode, String> {
    let print_baseline = take_flag(&mut args, "--print-baseline");
    // The audit never touches the network; accepted for CI clarity.
    take_flag(&mut args, "--offline");
    let target = dir_args(args)?.pop();
    let baseline = target.is_none().then_some(VEC_BASELINE);
    let dir = target.unwrap_or_else(default_vec_src_dir);
    let report = audit_dir(&dir).map_err(|e| format!("cannot audit {}: {e}", dir.display()))?;
    let pinned = Pinned {
        pass: "audit",
        clean: report.is_clean(),
        inventory: &report.inventory(),
        baseline,
        done: None,
    };
    let fields = || {
        let files = report.files.iter().map(|f| {
            obj(vec![
                ("file", f.file.as_str().into()),
                ("unsafe", f.unsafe_count.into()),
            ])
        });
        vec![
            ("files", JsonValue::Array(files.collect())),
            ("findings", findings_json(&report.findings)),
        ]
    };
    Ok(report_pinned(
        pinned,
        print_baseline,
        as_json,
        fields,
        || {
            for f in &report.files {
                println!("{:14} {:3} unsafe", f.file, f.unsafe_count);
            }
            print_findings(&report.findings);
        },
    ))
}

fn cmd_concurrency(mut args: Vec<String>, as_json: bool) -> Result<ExitCode, String> {
    let print_baseline = take_flag(&mut args, "--print-baseline");
    let mut dirs: Vec<(String, PathBuf)> = dir_args(args)?
        .into_iter()
        .map(|p| {
            let label = p.file_name().and_then(|n| n.to_str()).unwrap_or("dir");
            (label.to_string(), p)
        })
        .collect();
    let baseline = dirs.is_empty().then_some(CONCURRENCY_BASELINE);
    if dirs.is_empty() {
        dirs = default_concurrency_dirs();
    }
    let report = scan_dirs(&dirs).map_err(|e| format!("cannot scan: {e}"))?;
    let inventory = report.inventory();
    let pinned = Pinned {
        pass: "concurrency",
        clean: report.is_clean(),
        inventory: &inventory,
        baseline,
        done: None,
    };
    let fields = || {
        vec![
            ("sites", report.sites.len().into()),
            ("findings", findings_json(&report.findings)),
        ]
    };
    Ok(report_pinned(
        pinned,
        print_baseline,
        as_json,
        fields,
        || {
            println!(
                "{} atomic site(s) across {} dir(s)",
                report.sites.len(),
                dirs.len()
            );
            print!("{inventory}");
            print_findings(&report.findings);
        },
    ))
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

fn cmd_conformance(mut args: Vec<String>, as_json: bool) -> Result<ExitCode, String> {
    let print_baseline = take_flag(&mut args, "--print-baseline");
    let mutate = take_value(&mut args, "--mutate", "a u64 seed")?;
    let (sources, is_default) = resolve_sources(&args)?;

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

    let pass = run_conformance_pass(&sources).map_err(|(name, e)| format!("{name}: {e}"))?;
    let pinned = Pinned {
        pass: "conformance",
        clean: pass.is_clean(),
        inventory: &pass.inventory(),
        baseline: is_default.then_some(CONFORMANCE_BASELINE),
        done: Some("all obligations discharged"),
    };
    let fields = || {
        vec![
            ("kernels", proofs_json(&pass)),
            ("harness", harness_json(&pass.harness)),
        ]
    };
    Ok(report_pinned(
        pinned,
        print_baseline,
        as_json,
        fields,
        || {
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
        },
    ))
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

fn cmd_certify(mut args: Vec<String>, as_json: bool) -> Result<ExitCode, String> {
    let config_flag = Config::FLAGS
        .into_iter()
        .find(|flag| args.iter().any(|a| a == flag));
    let config = Config::take(&mut args)?;
    let print_baseline = take_flag(&mut args, "--print-baseline");
    let mutate = take_value(&mut args, "--mutate", "a u64 seed")?;

    // Each mode refuses the flags it would ignore: a source certifies
    // one config (no baseline, no mutation), `--mutate` perturbs the
    // shipped configs (no config, no baseline), and no source proves
    // the shipped configs (no config).
    let pinned = print_baseline.then_some("--print-baseline");
    let (mode, ignored) = if !args.is_empty() {
        ("a source", pinned.or(mutate.map(|_| "--mutate")))
    } else if mutate.is_some() {
        ("--mutate", config_flag.or(pinned))
    } else {
        ("the shipped inventory", config_flag)
    };
    if let Some(flag) = ignored {
        return Err(format!("certify: {flag} does not apply to {mode}"));
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
    if !args.is_empty() {
        let (sources, _) = resolve_sources(&args)?;
        return Ok(report_kernels(
            "certify",
            &sources,
            as_json,
            |_, src, spec, _| {
                let report = config.bind(analyze_certify, spec)?;
                let json = certify_json(&report, Some(src));
                Ok((report.is_certifiable(), json, report.render(src)))
            },
        ));
    }

    let pass = run_certify_pass().map_err(|e| e.to_string())?;
    let pinned = Pinned {
        pass: "certify",
        clean: pass.is_certified(),
        inventory: &pass.inventory(),
        baseline: Some(CERTIFY_BASELINE),
        done: Some("every shipped configuration has a proven rescue-free width"),
    };
    let fields = || {
        let reports = pass.reports.iter().map(|r| certify_json(r, None));
        vec![("configs", JsonValue::Array(reports.collect()))]
    };
    Ok(report_pinned(
        pinned,
        print_baseline,
        as_json,
        fields,
        || {
            for (report, ship) in pass.reports.iter().zip(shipped_configs()) {
                println!("{}\n", report.render(ship.source));
            }
        },
    ))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let as_json = take_flag(&mut args, "--json");
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "check" => cmd_check(args, as_json),
        "range" => cmd_range(args, as_json),
        "audit" => cmd_audit(args, as_json),
        "concurrency" => cmd_concurrency(args, as_json),
        "conformance" => cmd_conformance(args, as_json),
        "certify" => cmd_certify(args, as_json),
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
