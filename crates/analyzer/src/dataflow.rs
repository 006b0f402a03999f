//! Paradigm dataflow verification (pass 2).
//!
//! The striped vectorizations (Alg. 2/3) are legal exactly when every
//! table read inside the main loop nest depends only on the three
//! wavefront-adjacent cells — `(i-1, j)`, `(i, j-1)`, `(i-1, j-1)` —
//! or on a cell `(i, j)` of a table already assigned earlier in the
//! same iteration (Alg. 1 computes `L`, `U`, `D` before `T` reads
//! them). Anything else — a forward dependency like `T[i][j+1]`, a
//! long-range one like `T[i-2][j]`, or a subscript the pass cannot
//! resolve to `var + const` — breaks the anti-diagonal ordering the
//! paper's Sec. IV argument rests on, so it is reported, with a span,
//! instead of silently vectorized wrong.

use aalign_codegen::ast::{main_nest, Expr, ExprKind, MainNest, Span, Stmt, StmtKind};

/// One dataflow violation, anchored to the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Offending source range (the subscript or index expression).
    pub span: Span,
    /// What is wrong and why it blocks vectorization.
    pub message: String,
}

impl Diagnostic {
    /// Compiler-style rendering against the original source: message,
    /// location, source line and caret underline.
    pub fn render(&self, src: &str) -> String {
        match self.span.excerpt(src) {
            Some(excerpt) => format!("error: {}\n{excerpt}", self.message),
            None => format!("error: {}", self.message),
        }
    }
}

/// What the pass proved about a conforming kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowReport {
    /// DP tables assigned inside the main nest (e.g. `T`, `U`, `L`, `D`).
    pub tables: Vec<String>,
    /// Every distinct dependency `(table, di, dj)` observed in reads.
    pub deps: Vec<(String, i64, i64)>,
}

impl DataflowReport {
    /// True if some read depends on the previous row (`i-1`).
    pub fn reads_prev_row(&self) -> bool {
        self.deps.iter().any(|&(_, di, _)| di == -1)
    }

    /// True if some read depends on the previous column (`j-1`) — the
    /// direction the striped-scan correction runs along.
    pub fn reads_prev_col(&self) -> bool {
        self.deps.iter().any(|&(_, _, dj)| dj == -1)
    }
}

/// Verify the dependency directions of a parsed kernel.
///
/// Returns the observed dependency set on success, or every violation
/// (not just the first) with spans on failure.
///
/// ```
/// use aalign_codegen::{parse_program, ALG1_SMITH_WATERMAN_AFFINE};
/// let ast = parse_program(ALG1_SMITH_WATERMAN_AFFINE).unwrap();
/// let report = aalign_analyzer::verify_dataflow(&ast).unwrap();
/// assert!(report.reads_prev_row() && report.reads_prev_col());
/// ```
pub fn verify_dataflow(prog: &[Stmt]) -> Result<DataflowReport, Vec<Diagnostic>> {
    let Some(nest) = main_nest(prog) else {
        return Err(vec![Diagnostic {
            span: prog.first().map(|s| s.span).unwrap_or_default(),
            message: "no doubly nested main loop to verify".into(),
        }]);
    };

    // The DP tables are exactly the assignment targets in the nest.
    let tables: Vec<String> = {
        let mut t = Vec::new();
        for st in nest.body {
            if let StmtKind::Assign { table, .. } = &st.kind {
                if !t.contains(table) {
                    t.push(table.clone());
                }
            }
        }
        t
    };

    let mut diags = Vec::new();
    let mut deps: Vec<(String, i64, i64)> = Vec::new();
    // Tables already assigned earlier in the current iteration — a
    // `(0, 0)` read is legal only against these.
    let mut assigned_this_iter: Vec<&str> = Vec::new();

    for st in nest.body {
        let StmtKind::Assign { table, subs, value } = &st.kind else {
            diags.push(Diagnostic {
                span: st.span,
                message: "main-nest body must be straight-line assignments".into(),
            });
            continue;
        };
        // The write itself must be to (i, j): anything else reorders
        // the wavefront.
        if subs.len() == 2 {
            let wi = subs[0].index_offset(nest.outer);
            let wj = subs[1].index_offset(nest.inner);
            if wi != Some(0) || wj != Some(0) {
                diags.push(Diagnostic {
                    span: st.span,
                    message: format!(
                        "write to {table} must target ({}, {}) — found a shifted target",
                        nest.outer, nest.inner
                    ),
                });
            }
        }
        check_expr(
            value,
            &nest,
            &tables,
            &assigned_this_iter,
            &mut deps,
            &mut diags,
        );
        assigned_this_iter.push(table);
    }

    if diags.is_empty() {
        Ok(DataflowReport { tables, deps })
    } else {
        Err(diags)
    }
}

fn check_expr(
    e: &Expr,
    nest: &MainNest<'_>,
    tables: &[String],
    assigned: &[&str],
    deps: &mut Vec<(String, i64, i64)>,
    diags: &mut Vec<Diagnostic>,
) {
    match &e.kind {
        ExprKind::Index { base, subs } if tables.iter().any(|t| t == base) => {
            if subs.len() != 2 {
                diags.push(Diagnostic {
                    span: e.span,
                    message: format!(
                        "table {base} accessed with {} subscripts, expected 2",
                        subs.len()
                    ),
                });
                return;
            }
            let di = subs[0].index_offset(nest.outer);
            let dj = subs[1].index_offset(nest.inner);
            let (Some(di), Some(dj)) = (di, dj) else {
                // Distinguish the common transposition mistake from a
                // genuinely unresolvable subscript.
                let transposed = subs[0].index_offset(nest.inner).is_some()
                    && subs[1].index_offset(nest.outer).is_some();
                diags.push(Diagnostic {
                    span: e.span,
                    message: if transposed {
                        format!(
                            "table {base} indexed as [{inner}][{outer}] — transposed \
                             subscripts make the dependency direction unresolvable",
                            inner = nest.inner,
                            outer = nest.outer
                        )
                    } else {
                        format!(
                            "cannot resolve {base} subscripts to `{} + const` and \
                             `{} + const`; the dependency direction is unprovable",
                            nest.outer, nest.inner
                        )
                    },
                });
                return;
            };
            let legal_neighbor = matches!((di, dj), (-1, 0) | (0, -1) | (-1, -1));
            let legal_same_cell = di == 0 && dj == 0 && assigned.iter().any(|t| t == base);
            if legal_neighbor || legal_same_cell {
                let key = (base.clone(), di, dj);
                if !deps.contains(&key) {
                    deps.push(key);
                }
            } else if di == 0 && dj == 0 {
                diags.push(Diagnostic {
                    span: e.span,
                    message: format!(
                        "{base}[{i}][{j}] is read before it is assigned in this \
                         iteration — same-cell reads are only legal against \
                         tables computed earlier in the loop body",
                        i = nest.outer,
                        j = nest.inner
                    ),
                });
            } else {
                let dir = |d: i64, v: &str| match d {
                    0 => v.to_string(),
                    d if d < 0 => format!("{v}{d}"),
                    d => format!("{v}+{d}"),
                };
                diags.push(Diagnostic {
                    span: e.span,
                    message: format!(
                        "illegal dependency: {base}[{}][{}] reads a cell the \
                         wavefront has not computed yet; vectorization requires \
                         dependencies only on ({o}-1,{n}), ({o},{n}-1), ({o}-1,{n}-1)",
                        dir(di, nest.outer),
                        dir(dj, nest.inner),
                        o = nest.outer,
                        n = nest.inner
                    ),
                });
            }
        }
        // Non-table arrays (sequences, the matrix) and their
        // subscripts are irrelevant to the wavefront.
        ExprKind::Index { .. } | ExprKind::Ident(_) | ExprKind::Int(_) => {}
        ExprKind::Call { args, .. } => {
            for a in args {
                check_expr(a, nest, tables, assigned, deps, diags);
            }
        }
        ExprKind::Bin { lhs, rhs, .. } => {
            check_expr(lhs, nest, tables, assigned, deps, diags);
            check_expr(rhs, nest, tables, assigned, deps, diags);
        }
        ExprKind::Neg(inner) => check_expr(inner, nest, tables, assigned, deps, diags),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalign_codegen::parse_program;

    fn verify(src: &str) -> Result<DataflowReport, Vec<Diagnostic>> {
        verify_dataflow(&parse_program(src).unwrap())
    }

    #[test]
    fn all_builtin_kernels_conform() {
        for src in [
            aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE,
            aalign_codegen::NEEDLEMAN_WUNSCH_AFFINE,
            aalign_codegen::SMITH_WATERMAN_LINEAR,
            aalign_codegen::NEEDLEMAN_WUNSCH_LINEAR,
        ] {
            let report = verify(src).unwrap();
            assert!(report.reads_prev_row());
            assert!(report.reads_prev_col());
            assert!(report.tables.contains(&"T".to_string()));
        }
    }

    #[test]
    fn forward_dependency_rejected_with_span() {
        let src = "for (i = 1; i < n; i = i + 1) { for (j = 1; j < m; j = j + 1) { \
                   T[i][j] = max(0, T[i][j+1] + G, T[i-1][j] + G); } }";
        let diags = verify(src).unwrap_err();
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert_eq!(&src[d.span.start..d.span.end], "T[i][j+1]");
        assert!(d.message.contains("illegal dependency"), "{}", d.message);
        let rendered = d.render(src);
        assert!(
            rendered.contains("^^^^^^^^^"),
            "caret under the read: {rendered}"
        );
    }

    #[test]
    fn long_range_dependency_rejected() {
        let src = "for (i = 1; i < n; i = i + 1) { for (j = 1; j < m; j = j + 1) { \
                   T[i][j] = max(0, T[i-2][j] + G, T[i][j-1] + G); } }";
        let diags = verify(src).unwrap_err();
        assert!(diags[0].message.contains("illegal dependency"));
        assert_eq!(&src[diags[0].span.start..diags[0].span.end], "T[i-2][j]");
    }

    #[test]
    fn transposed_subscripts_rejected() {
        let src = "for (i = 1; i < n; i = i + 1) { for (j = 1; j < m; j = j + 1) { \
                   T[i][j] = max(0, T[j][i] + G, T[i][j-1] + G); } }";
        let diags = verify(src).unwrap_err();
        assert!(
            diags[0].message.contains("transposed"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn same_cell_read_requires_prior_assignment() {
        // T reads U[i][j] but U is assigned *after* T.
        let src = "for (i = 1; i < n; i = i + 1) { for (j = 1; j < m; j = j + 1) { \
                   T[i][j] = max(0, U[i][j], T[i-1][j-1] + G); \
                   U[i][j] = max(U[i][j-1] + E, T[i][j-1] + O); } }";
        let diags = verify(src).unwrap_err();
        assert!(
            diags[0].message.contains("before it is assigned"),
            "{}",
            diags[0].message
        );
        assert_eq!(&src[diags[0].span.start..diags[0].span.end], "U[i][j]");
    }

    #[test]
    fn alg1_order_with_same_cell_reads_is_legal() {
        // The real Alg. 1 shape: L, U, D first, then T reads them at (i, j).
        let report = verify(aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE).unwrap();
        assert!(report.deps.iter().any(|d| d == &("D".to_string(), 0, 0)));
    }

    #[test]
    fn all_violations_reported_not_just_first() {
        let src = "for (i = 1; i < n; i = i + 1) { for (j = 1; j < m; j = j + 1) { \
                   T[i][j] = max(0, T[i][j+1] + G, T[i+1][j] + G); } }";
        let diags = verify(src).unwrap_err();
        assert_eq!(diags.len(), 2);
    }

    #[test]
    fn missing_nest_is_diagnosed() {
        let diags = verify("x = 1;").unwrap_err();
        assert!(diags[0].message.contains("no doubly nested"));
    }
}
