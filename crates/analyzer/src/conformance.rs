//! Kernel conformance prover (pass 5).
//!
//! The paper's central claim (Sec. IV) is an *equivalence*: the
//! Eq. (3–6) dynamic program — and the striped vector kernels rewritten
//! from it — computes exactly the Eq. (2) definition
//!
//! ```text
//! T[i][j] = max(0?, D[i][j],
//!               max_{1≤l≤j} T[i][j−l] + θ + l·β,     (column gaps)
//!               max_{1≤l≤i} T[i−l][j] + θ + l·β)     (row gaps)
//! ```
//!
//! This pass *proves* that claim for a parsed recurrence, per kernel,
//! as a set of machine-checked **proof obligations**:
//!
//! * **Symbolic obligations** are discharged by executing the
//!   recurrence AST over a max-plus term algebra: a symbolic value is
//!   a set of terms `table[i+di][j+dj] + a·GAP_OPEN + b·GAP_EXT +
//!   c·γ`, `max` is set union, and adding a constant distributes over
//!   the max. Unrolling the U/L helper recurrences `K` steps must
//!   reproduce exactly the Eq. (2) gap family
//!   `T + GAP_OPEN + (l−1)·GAP_EXT` (the paper's `GAP_OPEN` already
//!   includes one extension), with a uniform `+GAP_EXT` induction
//!   step — which is precisely the Eq. (2)→Eq. (3–6) rewrite being
//!   score-preserving.
//! * **Conditional obligations** are derived lemmas whose premises
//!   are themselves either proved obligations or checked library
//!   invariants: the striped permutation argument (a bijective
//!   reindexing plus `NEG_INF` padding preserves every max), and the
//!   lazy-F correction bound — the loop converges in at most `P`
//!   (= lane count) sweeps because each sweep's `shift_insert_low`
//!   inserts the `NEG_INF` sentinel at lane 0 and values only move
//!   upward, so after `P` sweeps every lane is sentinel-derived and
//!   the influence test `any_gt(v_f, v_t + θ)` must fail, *provided*
//!   the sentinel sits below every reachable score — which
//!   [`ScoreBounds::fits`] guarantees (`NEG_INF = −cap−1 <
//!   t_min − headroom` and `headroom > |θ|`).
//! * **Harness obligations** are premises that are empirical by
//!   nature (saturating arithmetic is exact below the saturation
//!   ceiling; the rescue ladder's wider retry is bit-exact) and are
//!   discharged by the bounded-exhaustive differential harness
//!   (`aalign-core::conformance`), which this pass runs.
//!
//! A recurrence that *parses and classifies* but cannot be justified —
//! e.g. a helper rule whose unrolled family reads the wrong row — gets
//! a **failed** obligation with a caret diagnostic pointing at the
//! offending statement, not a panic. The full obligation inventory and
//! the harness's variant coverage are pinned in
//! `conformance_baseline.txt`, an exact [`Inventory`] like every
//! pinned pass.
//!
//! [`ScoreBounds::fits`]: aalign_core::ScoreBounds::fits

use std::collections::BTreeMap;
use std::fmt::Write as _;

use aalign_codegen::ast::{BinOp, Expr, ExprKind, Span, Stmt, StmtKind};
use aalign_codegen::emit::GapBindings;
use aalign_codegen::{analyze, parse_program, spec_to_config, KernelSpec};
use aalign_core::conformance::{run_harness, ConformanceReport, HarnessOptions};
use aalign_core::ScoreBounds;

use crate::inventory::Inventory;

/// Unroll depth for the Eq. (2) family check. Four steps pins the
/// base case, two induction steps, and the residual — enough to
/// witness the uniform `+GAP_EXT` step that carries the induction to
/// arbitrary gap length.
pub const UNROLL_DEPTH: usize = 4;

/// An affine kernel that parses, classifies (`sw-aff`) and passes the
/// dataflow wavefront check, but whose column-gap recurrence opens
/// gaps from `T[i-1][j]` — the *previous row* — instead of
/// `T[i][j-1]`. Its unrolled family is `T[i-1][j-l] + …`, which is
/// not the Eq. (2) column family, so the `eq2-col-unroll` obligation
/// must fail (with a caret at the offending rule), demonstrating the
/// prover rejects recurrences mere classification accepts.
pub const UNJUSTIFIABLE_FIXTURE: &str = r#"
for (i = 0; i < n + 1; i = i + 1) { T[0][i] = 0; U[0][i] = 0; L[0][i] = 0; }
for (j = 0; j < m + 1; j = j + 1) { T[j][0] = 0; U[j][0] = 0; L[j][0] = 0; }
for (i = 1; i < n + 1; i = i + 1) {
    for (j = 1; j < m + 1; j = j + 1) {
        L[i][j] = max(L[i-1][j] + GAP_EXT, T[i-1][j] + GAP_OPEN);
        U[i][j] = max(U[i][j-1] + GAP_EXT, T[i-1][j] + GAP_OPEN);
        D[i][j] = T[i-1][j-1] + BLOSUM62[ctoi(S[i-1])][ctoi(Q[j-1])];
        T[i][j] = max(0, L[i][j], U[i][j], D[i][j]);
    }
}
"#;

// ---------------------------------------------------------------------------
// The max-plus symbolic domain.
// ---------------------------------------------------------------------------

/// What a symbolic term is anchored to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Base {
    /// The literal `0` operand (local kernels).
    Zero,
    /// A table cell at a fixed offset from the current `(i, j)`.
    Cell { table: String, di: i64, dj: i64 },
}

/// One max operand: a base plus an affine constant over the kernel's
/// symbolic gap constants and the substitution score γ.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Term {
    base: Base,
    /// Multiples of γ(S, Q) (the matrix score at the cell's diagonal).
    gamma: i64,
    /// Multiples of the source's `GAP_OPEN` constant (θ+β).
    open: i64,
    /// Multiples of the source's `GAP_EXT` constant (β).
    ext: i64,
}

impl Term {
    fn cell(table: &str, di: i64, dj: i64) -> Self {
        Term {
            base: Base::Cell {
                table: table.to_string(),
                di,
                dj,
            },
            gamma: 0,
            open: 0,
            ext: 0,
        }
    }

    fn describe(&self) -> String {
        let mut s = match &self.base {
            Base::Zero => "0".to_string(),
            Base::Cell { table, di, dj } => {
                let sub = |v: &str, k: i64| match k {
                    0 => v.to_string(),
                    k if k < 0 => format!("{v}{k}"),
                    k => format!("{v}+{k}"),
                };
                format!("{}[{}][{}]", table, sub("i", *di), sub("j", *dj))
            }
        };
        for (count, name) in [(self.gamma, "γ"), (self.open, "OPEN"), (self.ext, "EXT")] {
            match count {
                0 => {}
                1 => {
                    let _ = write!(s, " + {name}");
                }
                k => {
                    let _ = write!(s, " + {k}·{name}");
                }
            }
        }
        s
    }
}

/// A symbolic value: `max` over a set of terms. Kept sorted and
/// deduplicated so structural equality is semantic equality (of the
/// max-plus normal form).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SymVal {
    terms: Vec<Term>,
}

impl SymVal {
    fn new(terms: Vec<Term>) -> Self {
        let mut v = SymVal { terms };
        v.normalize();
        v
    }

    fn normalize(&mut self) {
        self.terms.sort();
        self.terms.dedup();
    }

    /// `max` of two symbolic values is term-set union.
    fn union(mut self, other: SymVal) -> SymVal {
        self.terms.extend(other.terms);
        self.normalize();
        self
    }

    /// `v + c` distributes over the max: add `c` to every term.
    fn add_consts(mut self, gamma: i64, open: i64, ext: i64) -> SymVal {
        for t in &mut self.terms {
            t.gamma += gamma;
            t.open += open;
            t.ext += ext;
        }
        self
    }

    /// Shift every cell reference by `(di, dj)` — substituting a
    /// definition of `X[i][j]` in for a reference to `X[i+di][j+dj]`.
    fn shift(mut self, di: i64, dj: i64) -> SymVal {
        for t in &mut self.terms {
            if let Base::Cell {
                di: tdi, dj: tdj, ..
            } = &mut t.base
            {
                *tdi += di;
                *tdj += dj;
            }
        }
        self
    }

    fn describe(&self) -> String {
        let parts: Vec<String> = self.terms.iter().map(Term::describe).collect();
        format!("max({})", parts.join(", "))
    }
}

// ---------------------------------------------------------------------------
// Proof obligations.
// ---------------------------------------------------------------------------

/// How an obligation was (or was not) discharged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObligationStatus {
    /// Discharged symbolically (max-plus execution of the AST).
    Proved,
    /// A derived lemma: holds given the listed premises, each of which
    /// is a proved obligation or a checked library invariant.
    Conditional,
    /// An empirical premise, discharged by the bounded-exhaustive
    /// differential harness.
    Harness,
    /// Could not be justified; carries a caret diagnostic.
    Failed,
}

impl ObligationStatus {
    /// Stable lowercase word used in reports and the baseline.
    pub fn word(&self) -> &'static str {
        match self {
            ObligationStatus::Proved => "proved",
            ObligationStatus::Conditional => "conditional",
            ObligationStatus::Harness => "harness",
            ObligationStatus::Failed => "FAILED",
        }
    }
}

/// One machine-readable proof obligation for one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// Stable identifier (`eq2-col-unroll`, `lazy-f-bound`, …).
    pub id: &'static str,
    /// One-line statement of what is being claimed.
    pub claim: String,
    /// Outcome.
    pub status: ObligationStatus,
    /// Premises a [`ObligationStatus::Conditional`] /
    /// [`ObligationStatus::Harness`] discharge rests on.
    pub premises: Vec<String>,
    /// Evidence: the derived symbolic forms, bounds, or the mismatch.
    pub detail: String,
    /// Source span of the offending statement when `status` is
    /// [`ObligationStatus::Failed`].
    pub span: Option<Span>,
}

impl Obligation {
    /// Compiler-style rendering: the claim, and for failures a
    /// caret-underlined source excerpt (mirrors
    /// [`aalign_codegen::AnalyzeError::render`]).
    pub fn render(&self, src: &str) -> String {
        let head = format!("[{}] {}: {}", self.status.word(), self.id, self.claim);
        if self.status != ObligationStatus::Failed {
            return head;
        }
        let mut out = format!("{head}\nerror: {}", self.detail);
        if let Some(span) = self.span {
            if span.start <= src.len() {
                let (line, col) = span.line_col(src);
                let line_text = src.lines().nth(line - 1).unwrap_or("");
                let width = span
                    .end
                    .saturating_sub(span.start)
                    .clamp(1, line_text.len().saturating_sub(col - 1).max(1));
                let _ = write!(
                    out,
                    "\n  --> {line}:{col}\n   |\n{line:3}| {line_text}\n   | {}{}",
                    " ".repeat(col - 1),
                    "^".repeat(width)
                );
            }
        }
        out
    }
}

/// All obligations for one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProof {
    /// Kernel display name (`sw-affine`, a file path, …).
    pub kernel: String,
    /// Paradigm label (`sw-aff`, …).
    pub label: String,
    /// The obligations, in a fixed order.
    pub obligations: Vec<Obligation>,
}

impl KernelProof {
    /// True when no obligation failed.
    pub fn is_discharged(&self) -> bool {
        self.obligations
            .iter()
            .all(|o| o.status != ObligationStatus::Failed)
    }

    /// The failed obligations.
    pub fn failures(&self) -> Vec<&Obligation> {
        self.obligations
            .iter()
            .filter(|o| o.status == ObligationStatus::Failed)
            .collect()
    }
}

/// Why a kernel could not even reach proof obligations.
#[derive(Debug, Clone)]
pub enum ProveError {
    /// The source did not parse.
    Parse(String),
    /// The paradigm classifier rejected it (rendered diagnostic).
    Classify(String),
    /// The AST lacks a structure the prover needs (should not happen
    /// for anything `analyze` accepted).
    Structure(String),
}

impl core::fmt::Display for ProveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProveError::Parse(m) => write!(f, "parse error: {m}"),
            ProveError::Classify(m) => write!(f, "classification failed:\n{m}"),
            ProveError::Structure(m) => write!(f, "malformed kernel structure: {m}"),
        }
    }
}

impl std::error::Error for ProveError {}

// ---------------------------------------------------------------------------
// AST extraction (the prover's view of the main nest).
// ---------------------------------------------------------------------------

struct RuleCtx {
    outer_var: String,
    inner_var: String,
    spec: KernelSpec,
    /// Assignments in the inner loop body: table → (value, span).
    rules: BTreeMap<String, (Expr, Span)>,
    /// The diagonal table name (`D`, or the result table when inlined).
    d_table: Option<String>,
}

fn extract_rules(prog: &[Stmt], spec: &KernelSpec) -> Result<RuleCtx, ProveError> {
    // Find the doubly nested main loop (same walk as the classifier).
    let mut found = None;
    'outer: for st in prog {
        if let StmtKind::For { var, body, .. } = &st.kind {
            for inner in body {
                if let StmtKind::For {
                    var: ivar,
                    body: ibody,
                    ..
                } = &inner.kind
                {
                    found = Some((var.clone(), ivar.clone(), ibody));
                    break 'outer;
                }
            }
        }
    }
    let (outer_var, inner_var, body) =
        found.ok_or_else(|| ProveError::Structure("no main loop nest".into()))?;

    let mut rules = BTreeMap::new();
    let mut d_table = None;
    for st in body {
        if let StmtKind::Assign { table, value, .. } = &st.kind {
            // The diagonal rule is the assignment whose RHS contains
            // the matrix access; remember which table holds it.
            if contains_matrix_access(value, &spec.matrix_name) && *table != spec.t_table {
                d_table = Some(table.clone());
            }
            rules.insert(table.clone(), (value.clone(), st.span));
        }
    }
    Ok(RuleCtx {
        outer_var,
        inner_var,
        spec: spec.clone(),
        rules,
        d_table,
    })
}

fn contains_matrix_access(e: &Expr, matrix: &str) -> bool {
    match &e.kind {
        ExprKind::Index { base, subs } => {
            base == matrix || subs.iter().any(|s| contains_matrix_access(s, matrix))
        }
        ExprKind::Call { args, .. } => args.iter().any(|a| contains_matrix_access(a, matrix)),
        ExprKind::Bin { lhs, rhs, .. } => {
            contains_matrix_access(lhs, matrix) || contains_matrix_access(rhs, matrix)
        }
        ExprKind::Neg(inner) => contains_matrix_access(inner, matrix),
        _ => false,
    }
}

/// Check an expression is the γ access `M[ctoi(S[i-1])][ctoi(Q[j-1])]`
/// (either subscript order). Returns false for anything else.
fn is_gamma_access(e: &Expr, ctx: &RuleCtx) -> bool {
    let ExprKind::Index { base, subs } = &e.kind else {
        return false;
    };
    if *base != ctx.spec.matrix_name || subs.len() != 2 {
        return false;
    }
    let role = |sub: &Expr| -> Option<&'static str> {
        let ExprKind::Call { name, args } = &sub.kind else {
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
        let q_off = subs[0].index_offset(&ctx.inner_var) == Some(-1)
            || subs[0].as_ident() == Some(ctx.inner_var.as_str());
        let s_off = subs[0].index_offset(&ctx.outer_var) == Some(-1)
            || subs[0].as_ident() == Some(ctx.outer_var.as_str());
        if *base == ctx.spec.query_name && q_off {
            Some("q")
        } else if *base == ctx.spec.subject_name && s_off {
            Some("s")
        } else {
            None
        }
    };
    matches!(
        (role(&subs[0]), role(&subs[1])),
        (Some("q"), Some("s")) | (Some("s"), Some("q"))
    )
}

/// Evaluate an expression to a symbolic max-plus value.
fn eval(e: &Expr, ctx: &RuleCtx) -> Result<SymVal, String> {
    match &e.kind {
        ExprKind::Int(0) => Ok(SymVal::new(vec![Term {
            base: Base::Zero,
            gamma: 0,
            open: 0,
            ext: 0,
        }])),
        ExprKind::Int(v) => Err(format!("unsupported literal {v} (only 0 is a max operand)")),
        ExprKind::Index { base, subs } if subs.len() == 2 => {
            let di = subs[0]
                .index_offset(&ctx.outer_var)
                .ok_or_else(|| format!("subscript of {base} is not outer-var relative"))?;
            let dj = subs[1]
                .index_offset(&ctx.inner_var)
                .ok_or_else(|| format!("subscript of {base} is not inner-var relative"))?;
            Ok(SymVal::new(vec![Term::cell(base, di, dj)]))
        }
        ExprKind::Call { name, .. } if name == "max" => {
            let args = e.max_args().expect("max_args on a max call");
            let mut acc: Option<SymVal> = None;
            for a in args {
                let v = eval(a, ctx)?;
                acc = Some(match acc {
                    Some(prev) => prev.union(v),
                    None => v,
                });
            }
            acc.ok_or_else(|| "empty max".to_string())
        }
        ExprKind::Bin { .. } => {
            // base + NAMED_CONST, or base + γ-access (either order).
            if let Some((base_expr, cname)) = e.as_plus_const() {
                let v = eval(base_expr, ctx)?;
                return if Some(cname) == ctx.spec.gap_open_name.as_deref() {
                    Ok(v.add_consts(0, 1, 0))
                } else if cname == ctx.spec.gap_ext_name {
                    Ok(v.add_consts(0, 0, 1))
                } else {
                    Err(format!("unknown constant `{cname}`"))
                };
            }
            if let ExprKind::Bin {
                op: BinOp::Add,
                lhs,
                rhs,
            } = &e.kind
            {
                if is_gamma_access(rhs, ctx) {
                    return Ok(eval(lhs, ctx)?.add_consts(1, 0, 0));
                }
                if is_gamma_access(lhs, ctx) {
                    return Ok(eval(rhs, ctx)?.add_consts(1, 0, 0));
                }
            }
            Err("unsupported arithmetic shape".to_string())
        }
        other => Err(format!("unsupported expression {other:?}")),
    }
}

/// Substitute self-references `table[i+di][j+dj]` with the (shifted)
/// definition, once. Non-self terms pass through.
fn substitute_self(v: &SymVal, table: &str, def: &SymVal) -> SymVal {
    let mut out = Vec::new();
    for t in &v.terms {
        match &t.base {
            Base::Cell { table: tb, di, dj } if tb == table => {
                let sub = def
                    .clone()
                    .shift(*di, *dj)
                    .add_consts(t.gamma, t.open, t.ext);
                out.extend(sub.terms);
            }
            _ => out.push(t.clone()),
        }
    }
    SymVal::new(out)
}

/// The Eq. (2) gap family for direction `(di, dj)` (one of (−1,0) or
/// (0,−1)) at unroll depth `k`: heads `T + OPEN + (l−1)·EXT` for
/// `l = 1..=k` plus the residual `SELF + k·EXT`.
fn expected_family(t_table: &str, self_table: &str, di: i64, dj: i64, k: usize) -> SymVal {
    let mut terms = Vec::new();
    for l in 1..=k as i64 {
        let mut t = Term::cell(t_table, di * l, dj * l);
        t.open = 1;
        t.ext = l - 1;
        terms.push(t);
    }
    let mut residual = Term::cell(self_table, di * k as i64, dj * k as i64);
    residual.ext = k as i64;
    terms.push(residual);
    SymVal::new(terms)
}

// ---------------------------------------------------------------------------
// The prover.
// ---------------------------------------------------------------------------

/// Default gap bindings used to instantiate the `ScoreBounds`-
/// conditioned premises with concrete numbers (the repository's
/// acceptance bindings; the premises themselves are stated for any
/// binding `spec_to_config` accepts).
pub const PREMISE_BINDINGS: GapBindings = GapBindings {
    gap_open: -12,
    gap_ext: -2,
};

/// Sequence-length bound the numeric premises are instantiated at.
pub const PREMISE_MAX_LEN: usize = 1024;

/// Prove the conformance obligations for one kernel source.
///
/// Returns `Err` only when the source fails to parse or classify; a
/// kernel that classifies but cannot be *justified* comes back `Ok`
/// with failed obligations carrying caret diagnostics — report, don't
/// panic.
pub fn prove_kernel(name: &str, src: &str) -> Result<KernelProof, ProveError> {
    let prog = parse_program(src).map_err(|e| ProveError::Parse(e.to_string()))?;
    let spec = analyze(&prog).map_err(|e| ProveError::Classify(e.render(src)))?;
    let ctx = extract_rules(&prog, &spec)?;

    // O1 diag-term, O2/O3 the Eq.(2) gap families (column = U, row = L),
    // O4 result-max-complete, O5 wavefront.
    let mut obligations = vec![
        prove_diag(&ctx),
        prove_gap_family(
            &ctx,
            "eq2-col-unroll",
            "column gaps",
            (0, -1),
            ctx.spec.u_table.as_deref(),
        ),
        prove_gap_family(
            &ctx,
            "eq2-row-unroll",
            "row gaps",
            (-1, 0),
            ctx.spec.l_table.as_deref(),
        ),
        prove_result_max(&ctx),
        prove_wavefront(&ctx),
    ];

    // --- O6–O8: derived / harness obligations ------------------------------
    let bounds = premise_bounds(&spec);
    obligations.push(striped_permutation_obligation(&obligations));
    obligations.push(lazy_f_bound_obligation(&ctx.spec, bounds.as_ref()));
    obligations.push(rescue_obligation(&ctx.spec, bounds.as_ref()));

    Ok(KernelProof {
        kernel: name.to_string(),
        label: spec.label(),
        obligations,
    })
}

/// Instantiate `ScoreBounds` for the premise bindings, when they bind.
fn premise_bounds(spec: &KernelSpec) -> Option<ScoreBounds> {
    let matrix = &aalign_bio::matrices::BLOSUM62;
    spec_to_config(spec, PREMISE_BINDINGS, matrix)
        .ok()
        .map(|cfg| cfg.score_bounds(PREMISE_MAX_LEN, PREMISE_MAX_LEN))
}

fn prove_diag(ctx: &RuleCtx) -> Obligation {
    let id = "diag-term";
    let claim = "the diagonal operand is exactly T[i-1][j-1] + γ(S[i-1], Q[j-1])".to_string();
    // The diagonal may live in its own table or be inlined in the
    // result rule; find the expression containing the matrix access.
    let (holder, rule) = match ctx.d_table.as_ref().and_then(|d| ctx.rules.get(d)) {
        Some(r) => (ctx.d_table.clone().unwrap(), r),
        None => match ctx.rules.get(&ctx.spec.t_table) {
            Some(r) => (ctx.spec.t_table.clone(), r),
            None => {
                return Obligation {
                    id,
                    claim,
                    status: ObligationStatus::Failed,
                    premises: vec![],
                    detail: "no rule containing a matrix access".into(),
                    span: None,
                };
            }
        },
    };
    // Evaluate and look for the γ term among the operands. When the
    // diagonal is inlined in the result rule, substitute the same-
    // iteration helper definitions first so the γ term surfaces.
    let expected = {
        let mut t = Term::cell(&ctx.spec.t_table, -1, -1);
        t.gamma = 1;
        t
    };
    let evaluated = if holder == ctx.spec.t_table {
        eval_result(&rule.0, ctx)
    } else {
        eval(&rule.0, ctx)
    };
    match evaluated {
        Ok(v) if v.terms.contains(&expected) => Obligation {
            id,
            claim,
            status: ObligationStatus::Proved,
            premises: vec![],
            detail: format!("{holder} ⊇ {}", expected.describe()),
            span: None,
        },
        Ok(v) => Obligation {
            id,
            claim,
            status: ObligationStatus::Failed,
            premises: vec![],
            detail: format!(
                "expected the term {} among the operands of {holder}, got {}",
                expected.describe(),
                v.describe()
            ),
            span: Some(rule.1),
        },
        Err(why) => Obligation {
            id,
            claim,
            status: ObligationStatus::Failed,
            premises: vec![],
            detail: why,
            span: Some(rule.1),
        },
    }
}

fn prove_gap_family(
    ctx: &RuleCtx,
    id: &'static str,
    what: &str,
    dir: (i64, i64),
    helper: Option<&str>,
) -> Obligation {
    let k = UNROLL_DEPTH;
    let t = &ctx.spec.t_table;
    if let Some(h) = helper {
        // Affine: unroll the helper recurrence K steps; the result
        // must be exactly the Eq.(2) family. Equality of the first K
        // heads plus the uniform `+EXT` residual is the induction:
        // every further substitution repeats the same step.
        let claim = format!(
            "unrolling {h} yields the Eq.(2) {what} family T + OPEN + (l−1)·EXT, l = 1..{k}"
        );
        let Some((rule, span)) = ctx.rules.get(h) else {
            return Obligation {
                id,
                claim,
                status: ObligationStatus::Failed,
                premises: vec![],
                detail: format!("no recurrence for helper table {h}"),
                span: None,
            };
        };
        let def = match eval(rule, ctx) {
            Ok(v) => v,
            Err(why) => {
                return Obligation {
                    id,
                    claim,
                    status: ObligationStatus::Failed,
                    premises: vec![],
                    detail: why,
                    span: Some(*span),
                };
            }
        };
        let mut unrolled = def.clone();
        for _ in 1..k {
            unrolled = substitute_self(&unrolled, h, &def);
        }
        let want = expected_family(t, h, dir.0, dir.1, k);
        if unrolled == want {
            Obligation {
                id,
                claim,
                status: ObligationStatus::Proved,
                premises: vec![],
                detail: format!("{h}[i][j] = {}", unrolled.describe()),
                span: None,
            }
        } else {
            Obligation {
                id,
                claim,
                status: ObligationStatus::Failed,
                premises: vec![],
                detail: format!(
                    "unrolled family diverges from Eq.(2):\n  got:  {}\n  want: {}",
                    unrolled.describe(),
                    want.describe()
                ),
                span: Some(*span),
            }
        }
    } else {
        // Linear: the gap family folds through T itself. The result
        // rule must carry the family head T + EXT in this direction;
        // the full family follows by induction through T (substituting
        // the head into itself reproduces T + l·EXT).
        let claim = format!(
            "the result rule carries the linear {what} head T + EXT; the l-length family \
             follows by induction through {t}"
        );
        let Some((rule, span)) = ctx.rules.get(t) else {
            return Obligation {
                id,
                claim,
                status: ObligationStatus::Failed,
                premises: vec![],
                detail: format!("no result rule for {t}"),
                span: None,
            };
        };
        let head = {
            let mut h = Term::cell(t, dir.0, dir.1);
            h.ext = 1;
            h
        };
        match eval_result(rule, ctx) {
            Ok(v) if v.terms.contains(&head) => Obligation {
                id,
                claim,
                status: ObligationStatus::Proved,
                premises: vec![],
                detail: format!(
                    "head {} present; l-step gaps accumulate l·EXT through {t}",
                    head.describe()
                ),
                span: None,
            },
            Ok(v) => Obligation {
                id,
                claim,
                status: ObligationStatus::Failed,
                premises: vec![],
                detail: format!(
                    "expected head {} among the result operands, got {}",
                    head.describe(),
                    v.describe()
                ),
                span: Some(*span),
            },
            Err(why) => Obligation {
                id,
                claim,
                status: ObligationStatus::Failed,
                premises: vec![],
                detail: why,
                span: Some(*span),
            },
        }
    }
}

/// Evaluate the result rule with helper/diag tables substituted once
/// at their defining offsets, so the value is in terms of `T` cells,
/// residual helper cells, γ and the gap constants.
fn eval_result(rule: &Expr, ctx: &RuleCtx) -> Result<SymVal, String> {
    let mut v = eval(rule, ctx)?;
    for tbl in [
        ctx.d_table.as_deref(),
        ctx.spec.u_table.as_deref(),
        ctx.spec.l_table.as_deref(),
    ]
    .into_iter()
    .flatten()
    {
        if let Some((def_expr, _)) = ctx.rules.get(tbl) {
            let def = eval(def_expr, ctx)?;
            v = substitute_self(&v, tbl, &def);
        }
    }
    Ok(v)
}

fn prove_result_max(ctx: &RuleCtx) -> Obligation {
    let id = "result-max-complete";
    let spec = &ctx.spec;
    let t = &spec.t_table;
    let claim = format!(
        "{t}[i][j] = max over exactly the Eq.(2) operand set ({}diag, row head, column head)",
        if spec.local { "0, " } else { "" }
    );
    let Some((rule, span)) = ctx.rules.get(t) else {
        return Obligation {
            id,
            claim,
            status: ObligationStatus::Failed,
            premises: vec![],
            detail: format!("no result rule for {t}"),
            span: None,
        };
    };
    let got = match eval_result(rule, ctx) {
        Ok(v) => v,
        Err(why) => {
            return Obligation {
                id,
                claim,
                status: ObligationStatus::Failed,
                premises: vec![],
                detail: why,
                span: Some(*span),
            };
        }
    };

    let mut want = Vec::new();
    if spec.local {
        want.push(Term {
            base: Base::Zero,
            gamma: 0,
            open: 0,
            ext: 0,
        });
    }
    let mut diag = Term::cell(t, -1, -1);
    diag.gamma = 1;
    want.push(diag);
    if spec.affine {
        // After one substitution, each helper contributes its fresh-
        // open head and its self-extension residual.
        let u = spec.u_table.as_deref().unwrap_or("U");
        let l = spec.l_table.as_deref().unwrap_or("L");
        for (table, di, dj) in [(t.as_str(), 0, -1), (u, 0, -1)] {
            let mut term = Term::cell(table, di, dj);
            if table == t {
                term.open = 1;
            } else {
                term.ext = 1;
            }
            want.push(term);
        }
        for (table, di, dj) in [(t.as_str(), -1, 0), (l, -1, 0)] {
            let mut term = Term::cell(table, di, dj);
            if table == t {
                term.open = 1;
            } else {
                term.ext = 1;
            }
            want.push(term);
        }
    } else {
        for (di, dj) in [(0, -1), (-1, 0)] {
            let mut term = Term::cell(t, di, dj);
            term.ext = 1;
            want.push(term);
        }
    }
    let want = SymVal::new(want);
    if got == want {
        Obligation {
            id,
            claim,
            status: ObligationStatus::Proved,
            premises: vec![],
            detail: format!("{t}[i][j] = {}", got.describe()),
            span: None,
        }
    } else {
        Obligation {
            id,
            claim,
            status: ObligationStatus::Failed,
            premises: vec![],
            detail: format!(
                "operand set differs from Eq.(2):\n  got:  {}\n  want: {}",
                got.describe(),
                want.describe()
            ),
            span: Some(*span),
        }
    }
}

fn prove_wavefront(ctx: &RuleCtx) -> Obligation {
    let id = "wavefront";
    let claim = "every cell dependency lies in {(i-1,j), (i,j-1), (i-1,j-1)}".to_string();
    let mut bad = Vec::new();
    let mut deps = std::collections::BTreeSet::new();
    for (table, (rule, span)) in &ctx.rules {
        // The result rule forwards same-iteration helper/diag cells
        // (offset (0,0), computed earlier in the body); substitute
        // their definitions so only genuine cross-cell reads remain.
        let evaluated = if *table == ctx.spec.t_table {
            eval_result(rule, ctx)
        } else {
            eval(rule, ctx)
        };
        match evaluated {
            Ok(v) => {
                for t in &v.terms {
                    if let Base::Cell { table: tb, di, dj } = &t.base {
                        deps.insert((tb.clone(), *di, *dj));
                        let legal = matches!((di, dj), (-1, 0) | (0, -1) | (-1, -1));
                        if !legal {
                            bad.push((table.clone(), t.describe(), *span));
                        }
                    }
                }
            }
            Err(why) => bad.push((table.clone(), why, *span)),
        }
    }
    if bad.is_empty() {
        Obligation {
            id,
            claim,
            status: ObligationStatus::Proved,
            premises: vec![],
            detail: format!(
                "dependencies: {}",
                deps.iter()
                    .map(|(t, di, dj)| format!("{t}({di},{dj})"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            span: None,
        }
    } else {
        let (table, what, span) = bad.remove(0);
        Obligation {
            id,
            claim,
            status: ObligationStatus::Failed,
            premises: vec![],
            detail: format!("rule for {table} reads outside the wavefront: {what}"),
            span: Some(span),
        }
    }
}

fn striped_permutation_obligation(prior: &[Obligation]) -> Obligation {
    let wavefront_ok = prior
        .iter()
        .any(|o| o.id == "wavefront" && o.status == ObligationStatus::Proved);
    Obligation {
        id: "striped-permutation",
        claim: "the striped layout transform is score-preserving".to_string(),
        status: if wavefront_ok {
            ObligationStatus::Conditional
        } else {
            ObligationStatus::Failed
        },
        premises: vec![
            "wavefront obligation proved (all reads are column-local or previous-column)".into(),
            "StripedLayout::slot_of is a bijection query-position ↔ (segment, lane)".into(),
            "profile padding slots hold NEG_INF, so padded lanes never win a max".into(),
            "shift_insert_low realigns the previous column's last segment with boundary fill"
                .into(),
        ],
        detail: if wavefront_ok {
            "a bijective reindexing of max operands plus never-winning padding terms leaves \
             every max unchanged; column-to-column carries are exactly the (i-1, ·) reads the \
             wavefront proof located"
                .to_string()
        } else {
            "premise missing: the wavefront obligation did not hold".to_string()
        },
        span: None,
    }
}

fn lazy_f_bound_obligation(spec: &KernelSpec, bounds: Option<&ScoreBounds>) -> Obligation {
    let numeric = bounds.map_or_else(
        || "(premise bindings did not bind)".to_string(),
        |b| {
            let caps = aalign_vec::WIDTHS
                .iter()
                .filter(|&&w| b.fits(w))
                .map(|&w| {
                    let cap: i64 = match w {
                        8 => i8::MAX as i64,
                        16 => i16::MAX as i64,
                        _ => (i32::MAX / 4) as i64,
                    };
                    format!("i{w}: NEG_INF = {} < t_min − headroom = {}", -cap - 1, b.t_min - b.headroom)
                })
                .collect::<Vec<_>>()
                .join("; ");
            format!(
                "at GAP_OPEN={}, GAP_EXT={}, BLOSUM62, {len}×{len}: t_min={}, headroom={} > |θ|; {caps}",
                PREMISE_BINDINGS.gap_open,
                PREMISE_BINDINGS.gap_ext,
                b.t_min,
                b.headroom,
                len = PREMISE_MAX_LEN,
            )
        },
    );
    let _ = spec;
    Obligation {
        id: "lazy-f-bound",
        claim: "the lazy-F correction loop converges in at most P (= lane count) sweeps"
            .to_string(),
        status: ObligationStatus::Conditional,
        premises: vec![
            "eq2-col-unroll proved: each correction step adds exactly GAP_EXT (uniform \
             induction step), so carried F values only decrease along a sweep chain"
                .into(),
            "each sweep's shift_insert_low inserts the NEG_INF sentinel at lane 0; after P \
             sweeps every lane of the carry is sentinel-derived"
                .into(),
            "ScoreBounds::fits(bits) ⇒ NEG_INF = −cap−1 < t_min − headroom and headroom > |θ|, \
             so a sentinel-derived F can never pass the influence test any_gt(F, T + θ)"
                .into(),
        ],
        detail: format!(
            "hence sweeps ≤ P per column; the harness checks lazy_sweeps ≤ iterate_columns × \
             LANES on every enumerated pair. {numeric}"
        ),
        span: None,
    }
}

fn rescue_obligation(spec: &KernelSpec, bounds: Option<&ScoreBounds>) -> Obligation {
    let numeric = bounds.map_or_else(
        || "(premise bindings did not bind)".to_string(),
        |b| {
            format!(
                "at the premise bindings the ladder starts at i{}",
                b.min_lane_bits().unwrap_or(32)
            )
        },
    );
    let _ = spec;
    Obligation {
        id: "rescue-bit-exact",
        claim: "the narrow-width rescue ladder is bit-exact: an unsaturated narrow score \
                equals paradigm_dp, and saturated runs retry wider"
            .to_string(),
        status: ObligationStatus::Harness,
        premises: vec![
            "ScoreBounds::fits(w) ⇒ every intermediate stays below the saturation ceiling \
             (cap − headroom), where saturating adds are exact integer arithmetic"
                .into(),
            "a saturated narrow result is never reported: the kernel flags it and the ladder \
             retries at the next width (i32 rejected outright when even fits(32) fails)"
                .into(),
        ],
        detail: format!(
            "discharged by the differential harness: unsaturated kernel scores are compared \
             bit-exactly against paradigm_dp at every width, saturated narrow runs are \
             skipped-and-counted, and i32 saturation is reported as a violation. {numeric}"
        ),
        span: None,
    }
}

// ---------------------------------------------------------------------------
// The combined pass: proofs + differential harness + pinned baseline.
// ---------------------------------------------------------------------------

/// The builtin kernels the conformance pass proves by default.
pub fn builtin_sources() -> Vec<(&'static str, &'static str)> {
    vec![
        ("sw-affine", aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE),
        ("nw-affine", aalign_codegen::NEEDLEMAN_WUNSCH_AFFINE),
        ("sw-linear", aalign_codegen::SMITH_WATERMAN_LINEAR),
        ("nw-linear", aalign_codegen::NEEDLEMAN_WUNSCH_LINEAR),
    ]
}

/// Outcome of the full conformance pass.
#[derive(Debug, Clone)]
pub struct ConformancePass {
    /// Per-kernel proof obligations.
    pub proofs: Vec<KernelProof>,
    /// The differential harness run.
    pub harness: ConformanceReport,
}

impl ConformancePass {
    /// True when every obligation is discharged and the harness found
    /// every kernel bit-exact.
    pub fn is_clean(&self) -> bool {
        self.proofs.iter().all(KernelProof::is_discharged) && self.harness.is_bit_exact()
    }

    /// The inventory this pass pins in `conformance_baseline.txt`:
    /// the obligations (`<kernel> <obligation> <status> 1`) plus the
    /// harness's variant coverage (`harness <variant> <config-count>`).
    pub fn inventory(&self) -> Inventory {
        let mut inventory = Inventory::default();
        for p in &self.proofs {
            for o in &p.obligations {
                inventory.add(format!("{} {} {}", p.kernel, o.id, o.status.word()), 1);
            }
        }
        for c in &self.harness.configs {
            for s in &c.stats {
                inventory.add(format!("harness {}", s.variant), 1);
            }
        }
        inventory
    }
}

/// The pinned conformance inventory (obligations × kernels, harness
/// variant coverage). Regenerate with
/// `aalign-analyzer conformance --print-baseline`.
pub const CONFORMANCE_BASELINE: &str = include_str!("../conformance_baseline.txt");

/// "Verify, then generate": bind a [`KernelSpec`]'s symbolic gap
/// constants and run the resulting configuration through the
/// bounded-exhaustive differential harness. This is the gate for
/// codegen-emitted kernels — the same `spec_to_config` binding the
/// emitter's `config()` uses, checked bit-exactly against
/// `paradigm_dp` over every enumerated pair before any source is
/// trusted.
pub fn verify_spec(
    spec: &KernelSpec,
    bind: GapBindings,
    match_score: i32,
    mismatch_score: i32,
    bounds: &aalign_core::conformance::EnumBounds,
) -> Result<aalign_core::conformance::ConfigReport, aalign_codegen::interpret::BindError> {
    let matrix = aalign_bio::SubstMatrix::dna(match_score, mismatch_score);
    let cfg = spec_to_config(spec, bind, &matrix)?;
    Ok(aalign_core::conformance::run_config(&cfg, bounds, None))
}

/// Run the full pass: prove every source, then run the differential
/// harness at CI bounds.
pub fn run_conformance_pass(
    sources: &[(String, String)],
) -> Result<ConformancePass, (String, ProveError)> {
    let mut proofs = Vec::new();
    for (name, src) in sources {
        let proof = prove_kernel(name, src).map_err(|e| (name.clone(), e))?;
        proofs.push(proof);
    }
    let harness = run_harness(&HarnessOptions::ci());
    Ok(ConformancePass { proofs, harness })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prove_builtin(name: &str) -> KernelProof {
        let (label, src) = builtin_sources()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap();
        prove_kernel(label, src).unwrap()
    }

    #[test]
    fn alg1_obligations_all_discharge() {
        let proof = prove_builtin("sw-affine");
        assert_eq!(proof.label, "sw-aff");
        assert_eq!(proof.obligations.len(), 8);
        assert!(
            proof.is_discharged(),
            "failures: {:?}",
            proof
                .failures()
                .iter()
                .map(|o| &o.detail)
                .collect::<Vec<_>>()
        );
        // The core rewrite obligations are fully symbolic.
        for id in [
            "diag-term",
            "eq2-col-unroll",
            "eq2-row-unroll",
            "result-max-complete",
            "wavefront",
        ] {
            let o = proof.obligations.iter().find(|o| o.id == id).unwrap();
            assert_eq!(o.status, ObligationStatus::Proved, "{id}: {}", o.detail);
        }
    }

    #[test]
    fn all_builtins_discharge() {
        for (name, src) in builtin_sources() {
            let proof = prove_kernel(name, src).unwrap();
            assert!(
                proof.is_discharged(),
                "{name} failures: {:?}",
                proof
                    .failures()
                    .iter()
                    .map(|o| (o.id, &o.detail))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn unroll_produces_eq2_family() {
        let prog = parse_program(aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE).unwrap();
        let spec = analyze(&prog).unwrap();
        let ctx = extract_rules(&prog, &spec).unwrap();
        let (rule, _) = &ctx.rules["U"];
        let def = eval(rule, &ctx).unwrap();
        let mut v = def.clone();
        for _ in 1..3 {
            v = substitute_self(&v, "U", &def);
        }
        assert_eq!(v, expected_family("T", "U", 0, -1, 3));
    }

    #[test]
    fn unjustifiable_fixture_fails_col_unroll_with_caret() {
        let proof = prove_kernel("fixture", UNJUSTIFIABLE_FIXTURE).unwrap();
        assert!(!proof.is_discharged());
        let failed = proof.failures();
        let col = failed.iter().find(|o| o.id == "eq2-col-unroll").unwrap();
        assert_eq!(col.status, ObligationStatus::Failed);
        assert!(col.span.is_some(), "failure must carry a span");
        let rendered = col.render(UNJUSTIFIABLE_FIXTURE);
        assert!(rendered.contains("-->"), "location line: {rendered}");
        assert!(rendered.contains('^'), "caret underline: {rendered}");
        // The span points at the offending U recurrence.
        let span = col.span.unwrap();
        assert!(UNJUSTIFIABLE_FIXTURE[span.start..span.end].starts_with("U[i][j]"));
    }

    #[test]
    fn fixture_diag_and_row_still_prove() {
        // Only the column family is broken; the prover must localize.
        let proof = prove_kernel("fixture", UNJUSTIFIABLE_FIXTURE).unwrap();
        for id in ["diag-term", "eq2-row-unroll"] {
            let o = proof.obligations.iter().find(|o| o.id == id).unwrap();
            assert_eq!(o.status, ObligationStatus::Proved, "{id}");
        }
    }

    #[test]
    fn verify_spec_gates_codegen_kernels() {
        use aalign_core::conformance::EnumBounds;
        for (name, src) in builtin_sources() {
            let prog = parse_program(src).unwrap();
            let spec = analyze(&prog).unwrap();
            let report = verify_spec(
                &spec,
                GapBindings {
                    gap_open: -4,
                    gap_ext: -1,
                },
                2,
                -3,
                &EnumBounds {
                    alphabet_size: 2,
                    max_len: 2,
                },
            )
            .unwrap();
            assert_eq!(report.mismatch_count, 0, "{name}: {:?}", report.mismatches);
            assert!(report.violations.is_empty(), "{name}");
        }
    }

    #[test]
    fn verify_spec_rejects_illegal_bindings() {
        use aalign_core::conformance::EnumBounds;
        let prog = parse_program(aalign_codegen::ALG1_SMITH_WATERMAN_AFFINE).unwrap();
        let spec = analyze(&prog).unwrap();
        let err = verify_spec(
            &spec,
            GapBindings {
                gap_open: -1,
                gap_ext: -5,
            },
            2,
            -3,
            &EnumBounds {
                alphabet_size: 2,
                max_len: 1,
            },
        )
        .unwrap_err();
        assert_eq!(err, aalign_codegen::interpret::BindError::PositiveTheta(4));
    }

    #[test]
    fn pass_is_clean_and_matches_baseline() {
        let sources: Vec<(String, String)> = builtin_sources()
            .into_iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect();
        let pass = run_conformance_pass(&sources).unwrap();
        assert!(pass.is_clean());
        let inventory = pass.inventory();
        let drift = inventory.drift(CONFORMANCE_BASELINE);
        assert!(
            drift.is_empty(),
            "conformance inventory drift (regenerate with `aalign-analyzer conformance \
             --print-baseline`):\n{}\n\ncurrent baseline text:\n{inventory}",
            drift.join("\n"),
        );
    }
}
