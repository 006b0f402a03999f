//! Atomics-discipline lint (pass 4).
//!
//! A dependency-free, text-level pass over the concurrent crates
//! (`crates/par/src`, `crates/obs/src`, `crates/serve/src`) enforcing
//! the workspace's memory-ordering discipline:
//!
//! 1. **Every atomic operation carries a justification.** A line
//!    performing an atomic `load`/`store`/`swap`/`fetch_*`/
//!    `compare_exchange` must have an `// ORDER:` comment on the same
//!    line or in the comment block directly above it, explaining why
//!    its `Ordering` is sufficient.
//! 2. **`SeqCst` is never the default.** A `SeqCst` site's `ORDER:`
//!    justification must name `SeqCst` explicitly — sequential
//!    consistency has to be argued for, not left over from a
//!    copy-paste.
//! 3. **`Relaxed` must not claim publication.** A `Relaxed` site
//!    whose justification uses publication vocabulary (publish,
//!    publication, handoff, release, acquire, happens-before) is
//!    contradicting itself: data handoff needs a Release/Acquire
//!    edge, so either the ordering or the claim is wrong.
//! 4. **The inventory is pinned.** The full set of atomic sites —
//!    `(file, operation, ordering)` with counts — must exactly match
//!    a checked-in baseline (the [`Inventory`] rule every pinned pass
//!    shares), so any new atomic, removed atomic, or ordering change
//!    shows up in review as a deliberate baseline edit.
//!
//! This static pass is the deliberate complement of the loom suites
//! in `crates/par/tests/loom_*.rs`: the vendored model checker
//! explores interleavings under sequential consistency (orderings are
//! not modeled), so the per-site `ORDER:` proofs are what carry the
//! weak-memory argument. Like the unsafe audit, the pass is lexical —
//! it reads lines and comments, not the full grammar — which is
//! acceptable for this repository's own sources and keeps the
//! analyzer fully offline. `#[cfg(test)]` modules are skipped: test
//! assertions routinely use `Relaxed` probes whose orderings are
//! irrelevant.

use std::path::{Path, PathBuf};

use crate::inventory::Inventory;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurrencyFinding {
    /// File the finding is in (label-relative, e.g. `par/engine.rs`).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl core::fmt::Display for ConcurrencyFinding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

/// One atomic operation site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSite {
    /// File (label-relative, e.g. `par/protocol.rs`).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Operation (`load`, `store`, `fetch_add`, ...). `atomic` when
    /// the operation could not be identified near the ordering.
    pub op: String,
    /// The `Ordering::` variant used.
    pub ordering: String,
}

/// Result of scanning a set of files.
#[derive(Debug, Clone, Default)]
pub struct ConcurrencyReport {
    /// Every atomic site found, in scan order.
    pub sites: Vec<AtomicSite>,
    /// All rule violations.
    pub findings: Vec<ConcurrencyFinding>,
}

impl ConcurrencyReport {
    /// True when no rule was violated.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The atomics inventory (rule 4): sites counted per
    /// `<file> <op> <ordering>`, pinned in `concurrency_baseline.txt`.
    pub fn inventory(&self) -> Inventory {
        let mut inventory = Inventory::default();
        for s in &self.sites {
            inventory.add(format!("{} {} {}", s.file, s.op, s.ordering), 1);
        }
        inventory
    }
}

/// The atomic memory orderings (as written after `Ordering::`).
/// `std::cmp::Ordering` variants (Less/Equal/Greater) never match.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic operations the lint recognizes, longest-match first so
/// `compare_exchange_weak` wins over `compare_exchange`.
const OPS: [&str; 11] = [
    "compare_exchange_weak",
    "compare_exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "swap",
    "store",
    "load",
];

/// Vocabulary that claims publication/handoff semantics. A `Relaxed`
/// justification using it is self-contradictory (rule 3).
const PUBLICATION_WORDS: [&str; 6] = [
    "publish",
    "publication",
    "handoff",
    "release",
    "acquire",
    "happens-before",
];

/// Split a source line into (code, comment) at the first `//`.
fn split_comment(line: &str) -> (&str, &str) {
    match line.find("//") {
        Some(k) => line.split_at(k),
        None => (line, ""),
    }
}

fn is_comment(trimmed: &str) -> bool {
    trimmed.starts_with("//")
}

/// Find the `Ordering::<variant>` uses in a line's code part,
/// returning the variants in order of appearance.
fn ordering_uses(code: &str) -> Vec<&'static str> {
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(k) = code[from..].find("Ordering::") {
        let at = from + k + "Ordering::".len();
        let rest = &code[at..];
        if let Some(&ord) = ORDERINGS.iter().find(|o| {
            rest.starts_with(**o)
                && !rest[o.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        }) {
            found.push(ord);
        }
        from = at;
    }
    found
}

/// Identify the atomic operation a use of `Ordering::` belongs to:
/// the last recognized `.op(` on the same line before the ordering,
/// or (for rustfmt-wrapped calls) on up to 3 lines above. Returns
/// the operation and the line index the call starts on — the anchor
/// for the `ORDER:` justification lookup.
fn op_for_site(lines: &[&str], idx: usize) -> Option<(usize, &'static str)> {
    let last_op_in = |code: &str| -> Option<(usize, &'static str)> {
        let mut best: Option<(usize, &'static str)> = None;
        for op in OPS {
            let needle = format!(".{op}(");
            let mut from = 0;
            while let Some(k) = code[from..].find(&needle) {
                let at = from + k;
                if best.is_none_or(|(b, _)| at > b) {
                    best = Some((at, op));
                }
                from = at + needle.len();
            }
        }
        best
    };
    let (code, _) = split_comment(lines[idx]);
    if let Some((_, op)) = last_op_in(code) {
        return Some((idx, op));
    }
    for back in 1..=3 {
        let Some(k) = idx.checked_sub(back) else {
            break;
        };
        let (code, _) = split_comment(lines[k]);
        if let Some((_, op)) = last_op_in(code) {
            return Some((k, op));
        }
    }
    None
}

/// Collect the `ORDER:` justification covering line `idx`: the same
/// line's comment, or the comment block directly above (the
/// justification is everything from the `ORDER:` marker to the end of
/// the block). Returns `None` when no marker is found.
fn order_justification(lines: &[&str], idx: usize) -> Option<String> {
    let (_, comment) = split_comment(lines[idx]);
    if comment.contains("ORDER:") {
        return Some(comment.trim_start_matches('/').trim().to_string());
    }
    // Walk to the top of the contiguous comment block above.
    let mut top = idx;
    while top > 0 && is_comment(lines[top - 1].trim()) {
        top -= 1;
    }
    if top == idx {
        return None;
    }
    // The justification starts at the *last* ORDER: marker in the
    // block (a block may justify several consecutive sites) and runs
    // to the end of the block.
    let marker = (top..idx).rev().find(|&k| lines[k].contains("ORDER:"))?;
    let mut text = String::new();
    for line in &lines[marker..idx] {
        let t = line.trim().trim_start_matches('/').trim();
        text.push_str(t);
        text.push(' ');
    }
    Some(text.trim().to_string())
}

/// Scan one file's source text. Returns the atomic sites found and
/// any findings. `name` is used in site and finding records.
///
/// Scanning stops at a `#[cfg(test)]` attribute: by this workspace's
/// convention the test module is the final item of a file, and test
/// probes are exempt from the ordering discipline.
pub fn scan_source(name: &str, src: &str) -> (Vec<AtomicSite>, Vec<ConcurrencyFinding>) {
    let lines: Vec<&str> = src.lines().collect();
    let mut sites = Vec::new();
    let mut findings = Vec::new();

    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim();
        if trimmed == "#[cfg(test)]" {
            break;
        }
        if trimmed.starts_with("use ") || is_comment(trimmed) {
            continue;
        }
        let (code, _) = split_comment(line);
        let uses = ordering_uses(code);
        if uses.is_empty() {
            continue;
        }
        let (anchor, op) = op_for_site(&lines, i)
            .map(|(k, op)| (k, op.to_string()))
            .unwrap_or((i, "atomic".to_string()));
        let justification =
            order_justification(&lines, i).or_else(|| order_justification(&lines, anchor));
        for ordering in &uses {
            sites.push(AtomicSite {
                file: name.to_string(),
                line: i + 1,
                op: op.clone(),
                ordering: (*ordering).to_string(),
            });
        }
        let Some(just) = justification else {
            findings.push(ConcurrencyFinding {
                file: name.to_string(),
                line: i + 1,
                message: format!(
                    "atomic `{op}` without an `// ORDER:` justification on or above it"
                ),
            });
            continue;
        };
        let lower = just.to_lowercase();
        for ordering in &uses {
            match *ordering {
                "SeqCst" if !just.contains("SeqCst") => findings.push(ConcurrencyFinding {
                    file: name.to_string(),
                    line: i + 1,
                    message: format!(
                        "`SeqCst` on `{op}` but the ORDER justification never argues for \
                         sequential consistency (it must name SeqCst explicitly)"
                    ),
                }),
                "Relaxed" => {
                    if let Some(word) = PUBLICATION_WORDS.iter().find(|w| lower.contains(**w)) {
                        findings.push(ConcurrencyFinding {
                            file: name.to_string(),
                            line: i + 1,
                            message: format!(
                                "`Relaxed` on `{op}` but the ORDER justification claims \
                                 publication semantics (`{word}`) — data handoff needs a \
                                 Release/Acquire edge"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    (sites, findings)
}

/// Scan every `.rs` file in each `(label, dir)` pair (sorted by name,
/// not recursive). Site files are recorded as `<label>/<file>`.
pub fn scan_dirs(dirs: &[(String, PathBuf)]) -> std::io::Result<ConcurrencyReport> {
    let mut report = ConcurrencyReport::default();
    for (label, dir) in dirs {
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        names.sort();
        for path in names {
            let src = std::fs::read_to_string(&path)?;
            let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
            let name = format!("{label}/{file}");
            let (sites, findings) = scan_source(&name, &src);
            report.sites.extend(sites);
            report.findings.extend(findings);
        }
    }
    Ok(report)
}

/// The directories the lint targets by default — the concurrent
/// crates, located relative to this crate so the lint works from any
/// CWD.
pub fn default_concurrency_dirs() -> Vec<(String, PathBuf)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    vec![
        ("par".to_string(), root.join("../par/src")),
        ("obs".to_string(), root.join("../obs/src")),
        ("serve".to_string(), root.join("../serve/src")),
    ]
}

/// The checked-in atomics inventory for the default targets (rule 4).
pub const CONCURRENCY_BASELINE: &str = include_str!("../concurrency_baseline.txt");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_order_comment_is_flagged() {
        let src = "fn f(a: &AtomicUsize) {\n    a.store(1, Ordering::Relaxed);\n}\n";
        let (sites, findings) = scan_source("x.rs", src);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].op, "store");
        assert_eq!(sites[0].ordering, "Relaxed");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("ORDER"), "{}", findings[0]);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn order_comment_inline_or_above_passes() {
        let above = "fn f(a: &AtomicUsize) {\n    // ORDER: Relaxed — counter only.\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        let inline =
            "fn f(a: &AtomicUsize) {\n    a.load(Ordering::Relaxed); // ORDER: probe only\n}\n";
        for src in [above, inline] {
            let (sites, findings) = scan_source("x.rs", src);
            assert_eq!(sites.len(), 1);
            assert!(findings.is_empty(), "{findings:?}");
        }
    }

    #[test]
    fn wrapped_call_finds_op_on_a_previous_line() {
        let src = "fn f(a: &AtomicUsize) {\n    // ORDER: Relaxed — counter only.\n    a.fetch_add(\n        1,\n        Ordering::Relaxed,\n    );\n}\n";
        let (sites, findings) = scan_source("x.rs", src);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].op, "fetch_add");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unjustified_seqcst_is_flagged() {
        let src = "fn f(a: &AtomicUsize) {\n    // ORDER: just to be safe.\n    a.store(1, Ordering::SeqCst);\n}\n";
        let (_, findings) = scan_source("x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("SeqCst"), "{}", findings[0]);
    }

    #[test]
    fn argued_seqcst_passes() {
        let src = "fn f(a: &AtomicUsize) {\n    // ORDER: SeqCst — this flag totally orders with the\n    // drain flag; weaker orders admit the lost-wakeup cycle.\n    a.store(1, Ordering::SeqCst);\n}\n";
        let (_, findings) = scan_source("x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn relaxed_claiming_publication_is_flagged() {
        let src = "fn f(a: &AtomicBool) {\n    // ORDER: Relaxed — publishes the batch to the drainer.\n    a.store(true, Ordering::Relaxed);\n}\n";
        let (_, findings) = scan_source("x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("publication semantics"),
            "{}",
            findings[0]
        );
    }

    #[test]
    fn release_acquire_pair_with_handoff_claim_passes() {
        let src = "fn f(a: &AtomicBool) {\n    // ORDER: Release — publishes prior writes to the acquirer.\n    a.store(true, Ordering::Release);\n    // ORDER: Acquire — pairs with the Release store above.\n    a.load(Ordering::Acquire);\n}\n";
        let (sites, findings) = scan_source("x.rs", src);
        assert_eq!(sites.len(), 2);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn probe(a: &AtomicUsize) {\n        a.load(Ordering::Relaxed);\n    }\n}\n";
        let (sites, findings) = scan_source("x.rs", src);
        assert!(sites.is_empty());
        assert!(findings.is_empty());
    }

    #[test]
    fn use_lines_and_cmp_ordering_are_not_sites() {
        let src = "use std::sync::atomic::Ordering;\nfn f(x: u32, y: u32) -> std::cmp::Ordering {\n    x.cmp(&y).then(std::cmp::Ordering::Less)\n}\n";
        let (sites, findings) = scan_source("x.rs", src);
        assert!(sites.is_empty(), "{sites:?}");
        assert!(findings.is_empty());
    }

    #[test]
    fn a_block_justifies_only_back_to_its_last_marker() {
        // The block's ORDER marker covers the site; a stray earlier
        // comment line with publication vocabulary above the marker
        // must not poison the justification.
        let src = "fn f(a: &AtomicUsize) {\n    // Workers publish at shard boundaries.\n    // ORDER: Relaxed — counter only.\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        let (_, findings) = scan_source("x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn the_inventory_counts_sites_per_file_op_and_ordering() {
        let site = |file: &str, op: &str| AtomicSite {
            file: file.into(),
            line: 1,
            op: op.into(),
            ordering: "Relaxed".into(),
        };
        let report = ConcurrencyReport {
            sites: vec![
                site("par/a.rs", "load"),
                site("par/a.rs", "load"),
                site("obs/b.rs", "swap"),
            ],
            findings: vec![],
        };
        assert_eq!(
            report.inventory().to_string(),
            "obs/b.rs swap Relaxed 1\npar/a.rs load Relaxed 2\n"
        );
    }

    /// The real concurrent crates must pass the lint and match the
    /// baseline — the repo's own discipline, run on every `cargo
    /// test`.
    #[test]
    fn concurrent_crates_pass_lint_and_baseline() {
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
        let inventory = report.inventory();
        let problems = inventory.drift(CONCURRENCY_BASELINE);
        assert!(
            problems.is_empty(),
            "baseline drift:\n{}\nactual inventory:\n{inventory}",
            problems.join("\n"),
        );
    }
}
