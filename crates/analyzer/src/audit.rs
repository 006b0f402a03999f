//! Unsafe-SIMD audit lint (pass 3).
//!
//! A deliberately dependency-free, text/token-level pass over the
//! hand-written SIMD backends (`crates/vec/src/*.rs`). It enforces
//! three rules this workspace's intrinsics code follows:
//!
//! 1. **Every `unsafe` carries a justification.** An `unsafe` block or
//!    function must have a `// SAFETY:` comment on the same line or in
//!    the comment/attribute block directly above it (a `/// # Safety`
//!    doc section on the item also counts).
//! 2. **Intrinsics imply a feature contract.** A function whose body
//!    calls `_mm*` intrinsics must either be a `#[target_feature]`
//!    wrapper or an `#[inline(always)]` engine method (the crate's
//!    pattern: engine construction proves the ISA, methods inline into
//!    a `#[target_feature]` caller). When `#[target_feature(enable)]`
//!    is present, the intrinsic families used must be covered by the
//!    enabled feature — `_mm512_*` inside an `avx2` wrapper is a bug.
//! 3. **Unsafe is pinned.** Per-file `unsafe` counts are an exact
//!    [`Inventory`] checked in as `audit_baseline.txt`: a count that
//!    grows or shrinks, a new file and a vanished one are all drift,
//!    so every change to the unsafe surface is a deliberate baseline
//!    edit — the rule the other three pinned passes follow.
//!
//! The lexical approach has known limits (it reads line comments, not
//! the full grammar; `unsafe` inside a string literal would be
//! miscounted) — acceptable for auditing this repository's own
//! backends, where those constructs don't occur, and it keeps the
//! analyzer free of syn-style dependencies so it runs fully offline.

use std::path::{Path, PathBuf};

use crate::inventory::Inventory;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// File the finding is in (as given to the audit).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl core::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

/// Per-file audit result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileAudit {
    /// File name (relative, e.g. `avx2.rs`).
    pub file: String,
    /// Number of `unsafe` usages found (code, not comments).
    pub unsafe_count: usize,
}

/// Result of auditing a set of files.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Per-file unsafe counts, in audit order.
    pub files: Vec<FileAudit>,
    /// All rule violations.
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// True when no rule was violated.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The unsafe-count inventory (rule 3): each file's count under
    /// its name, pinned in `audit_baseline.txt`.
    pub fn inventory(&self) -> Inventory {
        let mut inventory = Inventory::default();
        for f in &self.files {
            inventory.add(f.file.as_str(), f.unsafe_count);
        }
        inventory
    }
}

/// Is `line`'s code part (before any `//` comment) using `unsafe`?
/// Lint-name attributes (`unsafe_code`, `unsafe_op_in_unsafe_fn`) are
/// mentions, not usages.
fn unsafe_usages(code: &str) -> usize {
    let mut n = 0;
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(k) = code[from..].find("unsafe") {
        let at = from + k;
        let end = at + "unsafe".len();
        let pre_ok = at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let post_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if pre_ok && post_ok {
            n += 1;
        }
        from = end;
    }
    n
}

/// Split a source line into (code, comment) at the first `//`.
fn split_comment(line: &str) -> (&str, &str) {
    match line.find("//") {
        Some(k) => line.split_at(k),
        None => (line, ""),
    }
}

fn is_comment_or_attr(trimmed: &str) -> bool {
    trimmed.starts_with("//") || trimmed.starts_with("#[") || trimmed.starts_with("#![")
}

/// Does the comment/attribute block directly above `idx` (or the line
/// itself) justify an unsafe usage?
fn has_safety_comment(lines: &[&str], idx: usize) -> bool {
    let (_, comment) = split_comment(lines[idx]);
    if comment.contains("SAFETY") {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let t = lines[k].trim();
        if t.is_empty() || !is_comment_or_attr(t) {
            break;
        }
        if t.contains("SAFETY") || t.contains("# Safety") {
            return true;
        }
    }
    false
}

/// A `fn` definition line? (After stripping visibility/qualifiers.)
fn is_fn_def(trimmed: &str) -> bool {
    let mut s = trimmed;
    for prefix in [
        "pub(crate) ",
        "pub(super) ",
        "pub ",
        "const ",
        "unsafe ",
        "extern \"C\" ",
    ] {
        s = s.strip_prefix(prefix).unwrap_or(s);
    }
    s.starts_with("fn ")
}

/// Intrinsic families appearing in a line of code.
fn intrinsic_families(code: &str) -> Vec<&'static str> {
    let mut fams = Vec::new();
    for (needle, fam) in [("_mm512_", "avx512"), ("_mm256_", "avx2"), ("_mm_", "sse")] {
        if code.contains(needle) && !fams.contains(&fam) {
            fams.push(fam);
        }
    }
    fams
}

/// Which intrinsic families a `target_feature(enable = "...")` covers.
fn feature_covers(feature: &str, family: &str) -> bool {
    match family {
        "sse" => true, // every x86-64 feature level includes SSE
        "avx2" => feature.starts_with("avx"),
        "avx512" => feature.starts_with("avx512"),
        _ => false,
    }
}

/// Audit one file's source text. Returns the unsafe usage count and
/// any findings. `name` is used in finding messages.
pub fn audit_source(name: &str, src: &str) -> (usize, Vec<AuditFinding>) {
    let lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    let mut unsafe_count = 0usize;

    // --- rule 1: unsafe needs SAFETY ---
    for (i, line) in lines.iter().enumerate() {
        let (code, _) = split_comment(line);
        if code.contains("unsafe_code") || code.contains("unsafe_op_in_unsafe_fn") {
            continue; // lint names in attributes, not usages
        }
        let n = unsafe_usages(code);
        if n == 0 {
            continue;
        }
        unsafe_count += n;
        if !has_safety_comment(&lines, i) {
            findings.push(AuditFinding {
                file: name.to_string(),
                line: i + 1,
                message: "unsafe without a `// SAFETY:` comment on or above it".into(),
            });
        }
    }

    // --- rule 2: intrinsics need a feature contract ---
    // Chunk the file at fn definitions; attributes live directly above.
    let fn_starts: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| is_fn_def(l.trim()).then_some(i))
        .collect();
    for (k, &start) in fn_starts.iter().enumerate() {
        let end = fn_starts.get(k + 1).copied().unwrap_or(lines.len());
        // Gather the attribute block above the fn.
        let mut attrs = String::new();
        let mut a = start;
        while a > 0 {
            a -= 1;
            let t = lines[a].trim();
            if t.is_empty() || !is_comment_or_attr(t) {
                break;
            }
            if t.starts_with("#[") {
                attrs.push_str(t);
                attrs.push('\n');
            }
        }
        // Families used in the body.
        let mut fams: Vec<&'static str> = Vec::new();
        for line in &lines[start..end] {
            let (code, _) = split_comment(line);
            for fam in intrinsic_families(code) {
                if !fams.contains(&fam) {
                    fams.push(fam);
                }
            }
        }
        if fams.is_empty() {
            continue;
        }
        let tf_feature = attrs
            .split("target_feature(enable = \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next());
        let inline_always = attrs.contains("inline(always)");
        match tf_feature {
            None if !inline_always => findings.push(AuditFinding {
                file: name.to_string(),
                line: start + 1,
                message: format!(
                    "fn uses {} intrinsics but has neither #[target_feature(enable)] \
                     nor the #[inline(always)] engine-method contract",
                    fams.join("+")
                ),
            }),
            None => {} // inline(always) engine method: inlines into a tf caller
            Some(feature) => {
                for fam in &fams {
                    if !feature_covers(feature, fam) {
                        findings.push(AuditFinding {
                            file: name.to_string(),
                            line: start + 1,
                            message: format!(
                                "#[target_feature(enable = \"{feature}\")] fn calls \
                                 {fam} intrinsics the feature does not guarantee"
                            ),
                        });
                    }
                }
            }
        }
    }

    (unsafe_count, findings)
}

/// Audit every `.rs` file in `dir` (sorted by name, not recursive).
pub fn audit_dir(dir: &Path) -> std::io::Result<AuditReport> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    names.sort();
    let mut report = AuditReport::default();
    for path in names {
        let src = std::fs::read_to_string(&path)?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string();
        let (unsafe_count, findings) = audit_source(&name, &src);
        report.files.push(FileAudit {
            file: name,
            unsafe_count,
        });
        report.findings.extend(findings);
    }
    Ok(report)
}

/// The directory the audit targets by default: `crates/vec/src`,
/// located relative to this crate so the lint works from any CWD.
pub fn default_vec_src_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../vec/src")
}

/// The checked-in baseline for the default target (rule 3).
pub const VEC_BASELINE: &str = include_str!("../audit_baseline.txt");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unjustified_unsafe_is_flagged() {
        let src = "fn f() {\n    unsafe { g() }\n}\n";
        let (count, findings) = audit_source("x.rs", src);
        assert_eq!(count, 1);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("SAFETY"));
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn safety_comment_above_or_inline_passes() {
        let above = "fn f() {\n    // SAFETY: g has no preconditions\n    unsafe { g() }\n}\n";
        let inline = "fn f() {\n    unsafe { g() } // SAFETY: fine\n}\n";
        for src in [above, inline] {
            let (count, findings) = audit_source("x.rs", src);
            assert_eq!(count, 1);
            assert!(findings.is_empty(), "{findings:?}");
        }
    }

    #[test]
    fn doc_safety_section_covers_unsafe_fn() {
        let src =
            "/// Does things.\n///\n/// # Safety\n/// Caller must check avx2.\nunsafe fn f() {}\n";
        let (count, findings) = audit_source("x.rs", src);
        assert_eq!(count, 1);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lint_names_are_not_usages() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\n#![allow(unsafe_code)]\n";
        let (count, findings) = audit_source("x.rs", src);
        assert_eq!(count, 0);
        assert!(findings.is_empty());
    }

    #[test]
    fn commented_unsafe_is_not_counted() {
        let src = "// this fn is not unsafe at all\nfn f() {}\n";
        let (count, _) = audit_source("x.rs", src);
        assert_eq!(count, 0);
    }

    #[test]
    fn bare_intrinsic_fn_is_flagged() {
        let src = "fn f(a: __m256i) -> __m256i {\n    // SAFETY: x\n    unsafe { _mm256_add_epi32(a, a) }\n}\n";
        let (_, findings) = audit_source("x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("neither"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn inline_always_engine_method_passes() {
        let src = "#[inline(always)]\nfn f(a: __m256i) -> __m256i {\n    // SAFETY: engine proves avx2\n    unsafe { _mm256_add_epi32(a, a) }\n}\n";
        let (_, findings) = audit_source("x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn target_feature_mismatch_is_flagged() {
        let src = "#[target_feature(enable = \"avx2\")]\nunsafe fn f(a: __m512i) {\n    // SAFETY: x\n    unsafe { _mm512_add_epi32(a, a); }\n}\n";
        // Give the outer fn its own SAFETY doc so only rule 2 fires.
        let src = format!("/// # Safety\n/// caller checks\n{src}");
        let (_, findings) = audit_source("x.rs", &src);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("avx512"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn avx512_feature_covers_all_families() {
        let src = "/// # Safety\n/// caller checks\n#[target_feature(enable = \"avx512bw\")]\nunsafe fn f(a: __m512i) {\n    // SAFETY: x\n    unsafe { _mm512_add_epi32(a, a); _mm256_add_epi32(b, b); _mm_add_epi32(c, c); }\n}\n";
        let (_, findings) = audit_source("x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn bare_avx512_intrinsic_fn_is_flagged() {
        // The negative path for the widest backend: _mm512_* with
        // neither contract must be caught, same as the avx2 family.
        let src = "fn f(a: __m512i) -> __m512i {\n    // SAFETY: x\n    unsafe { _mm512_add_epi32(a, a) }\n}\n";
        let (_, findings) = audit_source("x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("avx512") && findings[0].message.contains("neither"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn sse_feature_does_not_cover_avx512() {
        let src = "/// # Safety\n/// caller checks\n#[target_feature(enable = \"sse4.1\")]\nunsafe fn f(a: __m512i) {\n    // SAFETY: x\n    unsafe { _mm512_add_epi32(a, a); }\n}\n";
        let (_, findings) = audit_source("x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("avx512"),
            "{}",
            findings[0].message
        );
    }

    /// The real avx512 backend, audited alone: clean, and its unsafe
    /// count matches the baseline entry exactly — the widest backend
    /// is covered even on hosts that can never execute it.
    #[test]
    fn avx512_backend_is_audited_standalone() {
        let path = default_vec_src_dir().join("avx512.rs");
        let src = std::fs::read_to_string(&path).unwrap();
        let (count, findings) = audit_source("avx512.rs", &src);
        assert!(findings.is_empty(), "{findings:?}");
        let mut alone = Inventory::default();
        alone.add("avx512.rs", count);
        let drift = alone.drift(VEC_BASELINE);
        assert!(
            !drift.iter().any(|p| p.contains("avx512.rs")),
            "avx512.rs unsafe count drifted off baseline: {drift:?}"
        );
        assert!(count > 0, "the avx512 backend is intrinsics code");
    }

    fn one_file(file: &str, unsafe_count: usize) -> AuditReport {
        AuditReport {
            files: vec![FileAudit {
                file: file.into(),
                unsafe_count,
            }],
            findings: vec![],
        }
    }

    #[test]
    fn baseline_regression_detected() {
        let report = one_file("avx2.rs", 30);
        let problems = report.inventory().drift("avx2.rs 26\n");
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("count changed 26 → 30"),
            "{problems:?}"
        );
        assert!(report.inventory().drift("avx2.rs 30\n").is_empty());
        // Below baseline is drift too: the pin is exact.
        let problems = report.inventory().drift("avx2.rs 31\n");
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("count changed 31 → 30"),
            "{problems:?}"
        );
    }

    #[test]
    fn unknown_file_with_unsafe_detected() {
        let problems = one_file("newbackend.rs", 3)
            .inventory()
            .drift("avx2.rs 26\n");
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("new entry `newbackend.rs 3`"));
        assert!(problems[1].contains("`avx2.rs 26` vanished"));
    }

    /// The real backends must pass the lint and match the baseline —
    /// this is the repo's own audit, run on every `cargo test`.
    #[test]
    fn vec_backends_pass_audit_and_baseline() {
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
        let problems = report.inventory().drift(VEC_BASELINE);
        assert!(problems.is_empty(), "baseline drift: {problems:?}");
    }
}
