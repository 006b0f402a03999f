//! The Sec. V-D analysis: recover a [`KernelSpec`] from the AST.
//!
//! Following the paper's four steps:
//! 1. local vs global — is the constant `0` an operand of the result
//!    `max`?
//! 2. linear vs affine — are there separate U/L recurrences (θ ≠ 0),
//!    or do gaps come straight off `T` (θ = 0)?
//! 3. boundary initialization — validated against step 1;
//! 4. vector-organization info — table/array/constant names feeding
//!    the Table II expressions.

use crate::ast::{main_nest, BinOp, Expr, ExprKind, Span, Stmt, StmtKind};
use crate::spec::KernelSpec;

/// What went wrong during analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeErrorKind {
    /// No doubly nested loop found.
    NoMainLoopNest,
    /// No diagonal assignment `D = T[i-1][j-1] + matrix[...]` found.
    NoDiagonalRule,
    /// No result assignment `T[i][j] = max(...)` found.
    NoResultRule,
    /// A helper-table recurrence was malformed.
    BadHelperRule(String),
    /// A max operand could not be classified.
    UnclassifiedOperand(String),
    /// U and L use different constants (unsupported by GapModel).
    AsymmetricGaps,
    /// The matrix subscripts don't use `ctoi(Q[...])`/`ctoi(S[...])`.
    BadMatrixAccess,
    /// Local kernels must initialize boundaries to 0.
    BadBoundary(String),
}

impl AnalyzeErrorKind {
    /// Attach a source span.
    pub fn at(self, span: Span) -> AnalyzeError {
        AnalyzeError {
            kind: self,
            span: Some(span),
        }
    }

    /// No meaningful source location (e.g. something is *missing*).
    pub fn bare(self) -> AnalyzeError {
        AnalyzeError {
            kind: self,
            span: None,
        }
    }
}

impl core::fmt::Display for AnalyzeErrorKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NoMainLoopNest => write!(f, "no doubly nested main loop found"),
            Self::NoDiagonalRule => {
                write!(f, "no diagonal rule (T[i-1][j-1] + matrix[...]) found")
            }
            Self::NoResultRule => write!(f, "no result rule (T[i][j] = max(...)) found"),
            Self::BadHelperRule(t) => write!(f, "helper table {t} has a malformed recurrence"),
            Self::UnclassifiedOperand(e) => write!(f, "cannot classify max operand: {e}"),
            Self::AsymmetricGaps => {
                write!(f, "U and L use different gap constants (unsupported)")
            }
            Self::BadMatrixAccess => {
                write!(f, "matrix access must be M[ctoi(S[i-1])][ctoi(Q[j-1])]")
            }
            Self::BadBoundary(why) => write!(f, "bad boundary initialization: {why}"),
        }
    }
}

/// Analysis failure: a structured [`kind`](AnalyzeErrorKind) plus the
/// source [`Span`] it points at (when one exists — "X is missing"
/// errors have nowhere to point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeError {
    /// What went wrong.
    pub kind: AnalyzeErrorKind,
    /// Where, as a byte range into the analyzed source.
    pub span: Option<Span>,
}

impl AnalyzeError {
    /// Render a compiler-style diagnostic against the original source:
    /// message, `line:col` location, the offending line, and a caret
    /// underline. Falls back to the bare message when the error has no
    /// span (or an out-of-range one).
    pub fn render(&self, src: &str) -> String {
        match self.span.and_then(|span| span.excerpt(src)) {
            Some(excerpt) => format!("error: {}\n{excerpt}", self.kind),
            None => format!("error: {}", self.kind),
        }
    }
}

impl core::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.span {
            Some(s) => write!(f, "{} at offset {s}", self.kind),
            None => write!(f, "{}", self.kind),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Analyze a parsed program into a [`KernelSpec`].
///
/// ```
/// use aalign_codegen::{analyze, parse_program, ALG1_SMITH_WATERMAN_AFFINE};
/// let ast = parse_program(ALG1_SMITH_WATERMAN_AFFINE).unwrap();
/// let spec = analyze(&ast).unwrap();
/// assert!(spec.local && spec.affine);
/// assert_eq!(spec.matrix_name, "BLOSUM62");
/// ```
pub fn analyze(prog: &[Stmt]) -> Result<KernelSpec, AnalyzeError> {
    // --- find the main (doubly nested) loop ---
    let nest = main_nest(prog).ok_or_else(|| AnalyzeErrorKind::NoMainLoopNest.bare())?;
    let (outer_var, inner_var, inner_body) = (nest.outer, nest.inner, nest.body);

    // --- the diagonal rule names the matrix, T and the sequences ---
    let diag = find_diag(inner_body, outer_var, inner_var)
        .ok_or_else(|| AnalyzeErrorKind::NoDiagonalRule.at(nest.inner_span))?;

    // --- the result rule: T[i][j] = max(...) ---
    let result_value = inner_body
        .iter()
        .rev()
        .find_map(|st| match &st.kind {
            StmtKind::Assign { table, subs, value } if *table == diag.t_table => {
                let ok = subs.len() == 2
                    && subs[0].index_offset(outer_var) == Some(0)
                    && subs[1].index_offset(inner_var) == Some(0);
                ok.then_some(value)
            }
            _ => None,
        })
        .ok_or_else(|| AnalyzeErrorKind::NoResultRule.at(nest.inner_span))?;
    let max_args = result_value
        .max_args()
        .ok_or_else(|| AnalyzeErrorKind::NoResultRule.at(result_value.span))?;

    // --- classify the max operands ---
    let mut local = false;
    let mut helper_refs: Vec<String> = Vec::new();
    let mut direct_gap_names: Vec<String> = Vec::new();
    for arg in &max_args {
        if arg.is_int(0) {
            local = true;
            continue;
        }
        match &arg.kind {
            // Reference to a helper table or the D table.
            ExprKind::Index { base, .. } if *base == diag.d_table => {}
            ExprKind::Index { base, .. } => helper_refs.push(base.clone()),
            // Direct linear-gap operand: T[i-1][j] + C or T[i][j-1] + C —
            // or the inlined diagonal expression itself.
            ExprKind::Bin { .. } => {
                if diag_from_expr(arg, outer_var, inner_var).is_some() {
                    continue; // the inlined D term
                }
                if let Some((base_expr, cname)) = arg.as_plus_const() {
                    if let ExprKind::Index { base, .. } = &base_expr.kind {
                        if *base == diag.t_table {
                            direct_gap_names.push(cname.to_string());
                            continue;
                        }
                    }
                }
                return Err(
                    AnalyzeErrorKind::UnclassifiedOperand(format!("{:?}", arg.kind)).at(arg.span),
                );
            }
            other => {
                return Err(
                    AnalyzeErrorKind::UnclassifiedOperand(format!("{other:?}")).at(arg.span)
                );
            }
        }
    }

    // --- affine: helper recurrences; linear: direct T-derived gaps ---
    let spec = if !helper_refs.is_empty() {
        let mut u_info = None; // (table, open, ext) — inner-var direction
        let mut l_info = None; // outer-var direction
        for href in &helper_refs {
            let rule = find_helper_rule(inner_body, href, &diag.t_table)
                .ok_or_else(|| AnalyzeErrorKind::BadHelperRule(href.clone()).at(nest.inner_span))?;
            // Direction: which variable is offset by -1 in the
            // self-reference subscripts.
            if rule.inner_dir(inner_var) {
                u_info = Some(rule);
            } else if rule.outer_dir(outer_var) {
                l_info = Some(rule);
            } else {
                return Err(AnalyzeErrorKind::BadHelperRule(href.clone()).at(rule.span));
            }
        }
        let u = u_info
            .ok_or_else(|| AnalyzeErrorKind::BadHelperRule("U".into()).at(nest.inner_span))?;
        let l = l_info
            .ok_or_else(|| AnalyzeErrorKind::BadHelperRule("L".into()).at(nest.inner_span))?;
        if u.open_name != l.open_name || u.ext_name != l.ext_name {
            return Err(AnalyzeErrorKind::AsymmetricGaps.at(u.span.to(l.span)));
        }
        KernelSpec {
            local,
            affine: true,
            t_table: diag.t_table,
            u_table: Some(u.table),
            l_table: Some(l.table),
            matrix_name: diag.matrix_name,
            query_name: diag.query_name,
            subject_name: diag.subject_name,
            gap_open_name: Some(u.open_name),
            gap_ext_name: u.ext_name,
        }
    } else {
        if direct_gap_names.len() != 2 {
            return Err(AnalyzeErrorKind::NoResultRule.at(result_value.span));
        }
        if direct_gap_names[0] != direct_gap_names[1] {
            return Err(AnalyzeErrorKind::AsymmetricGaps.at(result_value.span));
        }
        KernelSpec {
            local,
            affine: false,
            t_table: diag.t_table,
            u_table: None,
            l_table: None,
            matrix_name: diag.matrix_name,
            query_name: diag.query_name,
            subject_name: diag.subject_name,
            gap_open_name: None,
            gap_ext_name: direct_gap_names[0].clone(),
        }
    };

    // --- step 3: boundary validation for local kernels ---
    if spec.local {
        validate_local_boundaries(prog, &spec.t_table)?;
    }
    Ok(spec)
}

struct DiagInfo {
    d_table: String,
    t_table: String,
    matrix_name: String,
    query_name: String,
    subject_name: String,
}

fn find_diag(body: &[Stmt], outer: &str, inner: &str) -> Option<DiagInfo> {
    // A diagonal rule may be a standalone assignment (Alg. 1's D) or
    // inlined as a max() operand of the result rule.
    for st in body {
        let StmtKind::Assign { table, value, .. } = &st.kind else {
            continue;
        };
        if let Some(args) = value.max_args() {
            for arg in args {
                if let Some(info) = diag_from_expr(arg, outer, inner) {
                    // Inlined: the "D table" is the result table itself,
                    // so the operand classifier treats it as covered.
                    return Some(DiagInfo {
                        d_table: table.clone(),
                        ..info
                    });
                }
            }
            continue;
        }
        if let Some(info) = diag_from_expr(value, outer, inner) {
            return Some(DiagInfo {
                d_table: table.clone(),
                ..info
            });
        }
    }
    None
}

/// Match `T[i-1][j-1] + M[ctoi(..)][ctoi(..)]` and extract the names.
fn diag_from_expr(value: &Expr, outer: &str, inner: &str) -> Option<DiagInfo> {
    {
        // Shape: T[i-1][j-1] + M[ctoi(..)][ctoi(..)]
        let ExprKind::Bin {
            op: BinOp::Add,
            lhs,
            rhs,
        } = &value.kind
        else {
            return None;
        };
        let (diag_ref, matrix_ref) = match (&lhs.kind, &rhs.kind) {
            (ExprKind::Index { base: _, subs }, ExprKind::Index { .. }) if subs.len() == 2 => {
                (&**lhs, &**rhs)
            }
            _ => return None,
        };
        let ExprKind::Index { base: t, subs } = &diag_ref.kind else {
            return None;
        };
        if subs.len() != 2
            || subs[0].index_offset(outer) != Some(-1)
            || subs[1].index_offset(inner) != Some(-1)
        {
            return None;
        }
        let ExprKind::Index {
            base: matrix,
            subs: msubs,
        } = &matrix_ref.kind
        else {
            return None;
        };
        if msubs.len() != 2 {
            return None;
        }
        // Each matrix subscript is ctoi(ARRAY[var-1]).
        let arr = |e: &Expr| -> Option<(String, String)> {
            let ExprKind::Call { name, args } = &e.kind else {
                return None;
            };
            if name != "ctoi" || args.len() != 1 {
                return None;
            }
            let ExprKind::Index { base, subs } = &args[0].kind else {
                return None;
            };
            if subs.len() != 1 {
                return None;
            }
            let var = subs[0].as_ident().map(str::to_string).or_else(|| {
                // var - 1 shape
                if subs[0].index_offset(outer) == Some(-1) {
                    Some(outer.to_string())
                } else if subs[0].index_offset(inner) == Some(-1) {
                    Some(inner.to_string())
                } else {
                    None
                }
            })?;
            Some((base.clone(), var))
        };
        let (a0, v0) = arr(&msubs[0])?;
        let (a1, v1) = arr(&msubs[1])?;
        // The array indexed by the inner variable is the query.
        let (query_name, subject_name) = if v0 == inner && v1 == outer {
            (a0, a1)
        } else if v1 == inner && v0 == outer {
            (a1, a0)
        } else {
            return None;
        };
        Some(DiagInfo {
            d_table: String::new(), // caller fills in
            t_table: t.clone(),
            matrix_name: matrix.clone(),
            query_name,
            subject_name,
        })
    }
}

struct HelperRule {
    table: String,
    open_name: String,
    ext_name: String,
    /// Loop variable whose `-1` offset drives the self-recurrence;
    /// tells U (inner/query direction) from L (outer/subject).
    dir_var: Option<String>,
    /// Span of the recurrence statement, for diagnostics.
    span: Span,
}

impl HelperRule {
    fn inner_dir(&self, inner: &str) -> bool {
        self.dir_var.as_deref() == Some(inner)
    }
    fn outer_dir(&self, outer: &str) -> bool {
        self.dir_var.as_deref() == Some(outer)
    }
}

fn find_helper_rule(body: &[Stmt], table: &str, t_table: &str) -> Option<HelperRule> {
    for st in body {
        let StmtKind::Assign {
            table: lhs_table,
            value,
            ..
        } = &st.kind
        else {
            continue;
        };
        if lhs_table != table {
            continue;
        }
        let args = value.max_args()?;
        if args.len() != 2 {
            return None;
        }
        let mut open_name = None;
        let mut ext_name = None;
        let mut dir_var = None;
        for a in args {
            let (base_expr, cname) = a.as_plus_const()?;
            let ExprKind::Index { base, subs } = &base_expr.kind else {
                return None;
            };
            if subs.len() != 2 {
                return None;
            }
            // Which subscript carries the -1 offset?
            let offset_var = subs.iter().find_map(|s| {
                if let ExprKind::Bin { op, lhs, rhs } = &s.kind {
                    if *op == BinOp::Sub && rhs.is_int(1) {
                        return lhs.as_ident().map(str::to_string);
                    }
                }
                None
            })?;
            if base == table {
                ext_name = Some(cname.to_string());
                dir_var = Some(offset_var);
            } else if base == t_table {
                open_name = Some(cname.to_string());
            } else {
                return None;
            }
        }
        return Some(HelperRule {
            table: table.to_string(),
            open_name: open_name?,
            ext_name: ext_name?,
            dir_var,
            span: st.span,
        });
    }
    None
}

fn validate_local_boundaries(prog: &[Stmt], t_table: &str) -> Result<(), AnalyzeError> {
    // Every top-level init loop assignment to T must be the literal 0.
    for st in prog {
        let StmtKind::For { body, .. } = &st.kind else {
            continue;
        };
        // Skip the main nest (contains a For).
        if body.iter().any(|s| matches!(s.kind, StmtKind::For { .. })) {
            continue;
        }
        for inner in body {
            if let StmtKind::Assign { table, value, .. } = &inner.kind {
                if table == t_table && !value.is_int(0) {
                    return Err(AnalyzeErrorKind::BadBoundary(format!(
                        "local kernel initializes {t_table} boundary to {:?}, expected 0",
                        value.kind
                    ))
                    .at(value.span));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn spec_of(src: &str) -> KernelSpec {
        analyze(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn alg1_extracts_sw_affine() {
        let spec = spec_of(crate::ALG1_SMITH_WATERMAN_AFFINE);
        assert!(spec.local, "the 0 operand makes it local");
        assert!(spec.affine, "U/L tables make it affine");
        assert_eq!(spec.t_table, "T");
        assert_eq!(spec.u_table.as_deref(), Some("U"));
        assert_eq!(spec.l_table.as_deref(), Some("L"));
        assert_eq!(spec.matrix_name, "BLOSUM62");
        assert_eq!(spec.query_name, "Q");
        assert_eq!(spec.subject_name, "S");
        assert_eq!(spec.gap_open_name.as_deref(), Some("GAP_OPEN"));
        assert_eq!(spec.gap_ext_name, "GAP_EXT");
    }

    #[test]
    fn nw_affine_is_global() {
        let spec = spec_of(crate::NEEDLEMAN_WUNSCH_AFFINE);
        assert!(!spec.local);
        assert!(spec.affine);
        assert_eq!(spec.label(), "nw-aff");
    }

    #[test]
    fn sw_linear_detected() {
        let spec = spec_of(crate::SMITH_WATERMAN_LINEAR);
        assert!(spec.local);
        assert!(!spec.affine, "no U/L tables → θ = 0 → linear");
        assert_eq!(spec.gap_open_name, None);
        assert_eq!(spec.gap_ext_name, "GAP_EXT");
    }

    #[test]
    fn nw_linear_detected() {
        let spec = spec_of(crate::NEEDLEMAN_WUNSCH_LINEAR);
        assert_eq!(spec.label(), "nw-lin");
    }

    #[test]
    fn missing_diagonal_is_an_error() {
        let src = "for (i = 1; i < n; i = i + 1) { for (j = 1; j < m; j = j + 1) { T[i][j] = max(0, T[i][j-1] + G, T[i-1][j] + G); } }";
        let err = analyze(&parse_program(src).unwrap()).unwrap_err();
        assert_eq!(err.kind, AnalyzeErrorKind::NoDiagonalRule);
        // Points at the inner loop.
        let span = err.span.unwrap();
        assert!(src[span.start..span.end].starts_with("for (j"));
    }

    #[test]
    fn asymmetric_gap_constants_rejected() {
        let src = r#"
for (i = 1; i < n + 1; i = i + 1) {
    for (j = 1; j < m + 1; j = j + 1) {
        L[i][j] = max(L[i-1][j] + EXT_A, T[i-1][j] + OPEN);
        U[i][j] = max(U[i][j-1] + EXT_B, T[i][j-1] + OPEN);
        D[i][j] = T[i-1][j-1] + BLOSUM62[ctoi(S[i-1])][ctoi(Q[j-1])];
        T[i][j] = max(0, L[i][j], U[i][j], D[i][j]);
    }
}
"#;
        let err = analyze(&parse_program(src).unwrap()).unwrap_err();
        assert_eq!(err.kind, AnalyzeErrorKind::AsymmetricGaps);
        // Span covers both offending recurrences.
        let span = err.span.unwrap();
        let text = &src[span.start..span.end];
        assert!(text.contains("EXT_A") && text.contains("EXT_B"));
    }

    #[test]
    fn local_with_nonzero_boundary_rejected() {
        let src = r#"
for (i = 0; i < n + 1; i = i + 1) { T[0][i] = 5; }
for (i = 1; i < n + 1; i = i + 1) {
    for (j = 1; j < m + 1; j = j + 1) {
        D[i][j] = T[i-1][j-1] + BLOSUM62[ctoi(S[i-1])][ctoi(Q[j-1])];
        T[i][j] = max(0, T[i-1][j] + G, T[i][j-1] + G, D[i][j]);
    }
}
"#;
        let err = analyze(&parse_program(src).unwrap()).unwrap_err();
        assert!(matches!(err.kind, AnalyzeErrorKind::BadBoundary(_)));
        // Points at the literal `5`.
        let span = err.span.unwrap();
        assert_eq!(&src[span.start..span.end], "5");
    }

    #[test]
    fn unclassified_operand_renders_caret_diagnostic() {
        let src = "for (i = 1; i < n; i = i + 1) { for (j = 1; j < m; j = j + 1) { D[i][j] = T[i-1][j-1] + M[ctoi(S[i-1])][ctoi(Q[j-1])]; T[i][j] = max(D[i][j], W[i][j] * 2, T[i-1][j] + G, T[i][j-1] + G); } }";
        let err = analyze(&parse_program(src).unwrap()).unwrap_err();
        assert!(matches!(err.kind, AnalyzeErrorKind::UnclassifiedOperand(_)));
        let span = err.span.unwrap();
        assert_eq!(&src[span.start..span.end], "W[i][j] * 2");
        let rendered = err.render(src);
        assert!(rendered.contains("-->"), "has a location line: {rendered}");
        assert!(
            rendered.contains("^^^"),
            "has a caret underline: {rendered}"
        );
    }

    #[test]
    fn swapped_sequence_roles_still_resolve() {
        // Matrix subscripts in the other order: M[ctoi(Q[j-1])][ctoi(S[i-1])].
        let src = r#"
for (i = 1; i < n + 1; i = i + 1) {
    for (j = 1; j < m + 1; j = j + 1) {
        D[i][j] = T[i-1][j-1] + M[ctoi(Q[j-1])][ctoi(S[i-1])];
        T[i][j] = max(T[i-1][j] + G, T[i][j-1] + G, D[i][j]);
    }
}
"#;
        let spec = spec_of(src);
        assert_eq!(spec.query_name, "Q");
        assert_eq!(spec.subject_name, "S");
        assert_eq!(spec.matrix_name, "M");
    }
}

#[cfg(test)]
mod inline_diag_tests {
    use super::*;
    use crate::parser::parse_program;

    /// An SW-linear kernel with the diagonal expression inlined into
    /// the result max — no separate `D` assignment.
    const SW_LINEAR_INLINE: &str = r#"
for (i = 0; i < n + 1; i = i + 1) { T[0][i] = 0; }
for (j = 0; j < m + 1; j = j + 1) { T[j][0] = 0; }
for (i = 1; i < n + 1; i = i + 1) {
    for (j = 1; j < m + 1; j = j + 1) {
        T[i][j] = max(0, T[i-1][j] + GAP_EXT, T[i][j-1] + GAP_EXT,
                      T[i-1][j-1] + BLOSUM62[ctoi(S[i-1])][ctoi(Q[j-1])]);
    }
}
"#;

    #[test]
    fn inlined_diagonal_is_recognized() {
        let spec = analyze(&parse_program(SW_LINEAR_INLINE).unwrap()).unwrap();
        assert!(spec.local);
        assert!(!spec.affine);
        assert_eq!(spec.matrix_name, "BLOSUM62");
        assert_eq!(spec.query_name, "Q");
        assert_eq!(spec.subject_name, "S");
        assert_eq!(spec.gap_ext_name, "GAP_EXT");
    }

    #[test]
    fn inlined_diagonal_matches_separate_d_table() {
        let a = analyze(&parse_program(SW_LINEAR_INLINE).unwrap()).unwrap();
        let b = analyze(&parse_program(crate::SMITH_WATERMAN_LINEAR).unwrap()).unwrap();
        assert_eq!(a.local, b.local);
        assert_eq!(a.affine, b.affine);
        assert_eq!(a.gap_ext_name, b.gap_ext_name);
    }
}
