//! AST for the sequential-paradigm input language.
//!
//! The language is the minimal C-like subset needed to write Alg. 1
//! style kernels: `for` loops with `i = lo; i < hi; i = i + 1`
//! headers, assignments to subscripted tables, and integer
//! expressions with `max(...)` and `ctoi(...)` calls.
//!
//! Every [`Expr`] and [`Stmt`] carries a byte-offset [`Span`] into the
//! original source, so the analyzer and the dataflow verifier
//! (`aalign-analyzer`) can point diagnostics at the offending text.

/// A half-open byte range `[start, end)` into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// Span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }

    /// Zero-width span at a single offset.
    pub fn point(pos: usize) -> Self {
        Self {
            start: pos,
            end: pos,
        }
    }

    /// The placeholder span for synthesized nodes (tests, builders).
    pub fn dummy() -> Self {
        Self::default()
    }

    /// Smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based `(line, column)` of the span start within `src`.
    /// Columns count bytes, which is exact for the ASCII-only kernel
    /// language and a best effort elsewhere.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let upto = &src.as_bytes()[..self.start.min(src.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let col = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
        (line, col)
    }

    /// The compiler-style excerpt every diagnostic prints under its
    /// message: `  --> line:col`, the source line, and a caret
    /// underline of the span (clipped to that line, at least one
    /// caret). `None` when the span starts past the end of `src`.
    pub fn excerpt(&self, src: &str) -> Option<String> {
        if self.start > src.len() {
            return None;
        }
        let (line, col) = self.line_col(src);
        let line_text = src.lines().nth(line - 1).unwrap_or("");
        let width = self
            .end
            .saturating_sub(self.start)
            .clamp(1, line_text.len().saturating_sub(col - 1).max(1));
        Some(format!(
            "  --> {line}:{col}\n   |\n{line:3}| {line_text}\n   | {}{}",
            " ".repeat(col - 1),
            "^".repeat(width)
        ))
    }
}

impl core::fmt::Display for Span {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// An expression: a [`kind`](ExprKind) plus its source [`Span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Where it came from.
    pub span: Span,
}

/// Expression shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Plain identifier (`GAP_EXT`, `i`, `n`).
    Ident(String),
    /// Subscripted table access: `T[i-1][j]`.
    Index {
        /// Table name.
        base: String,
        /// One entry per `[...]`.
        subs: Vec<Expr>,
    },
    /// Function call: `max(a, b, …)`, `ctoi(c)`.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Binary operation.
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Unary negation.
    Neg(Box<Expr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
}

/// A statement: a [`kind`](StmtKind) plus its source [`Span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// Where it came from.
    pub span: Span,
}

/// Statement shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `target = value;` where target is a subscripted table.
    Assign {
        /// Table name being assigned.
        table: String,
        /// Subscript expressions.
        subs: Vec<Expr>,
        /// Right-hand side.
        value: Expr,
    },
    /// `for (var = lo; var < hi; var = var + 1) body`.
    For {
        var: String,
        lo: Expr,
        hi: Expr,
        body: Vec<Stmt>,
    },
}

/// The main loop nest: the first `for` directly inside a top-level
/// `for` — the doubly nested DP sweep the classifier and every
/// analyzer pass start from.
#[derive(Debug, Clone, Copy)]
pub struct MainNest<'a> {
    /// The outer loop's variable (`i`).
    pub outer: &'a str,
    /// The inner loop's variable (`j`).
    pub inner: &'a str,
    /// The inner loop's body.
    pub body: &'a [Stmt],
    /// Span of the inner `for`, for "nothing matched inside here"
    /// diagnostics.
    pub inner_span: Span,
}

/// Find the program's [`MainNest`], if it has one.
pub fn main_nest(prog: &[Stmt]) -> Option<MainNest<'_>> {
    prog.iter().find_map(|st| {
        let StmtKind::For { var, body, .. } = &st.kind else {
            return None;
        };
        body.iter().find_map(|inner| match &inner.kind {
            StmtKind::For {
                var: ivar,
                body: ibody,
                ..
            } => Some(MainNest {
                outer: var,
                inner: ivar,
                body: ibody,
                inner_span: inner.span,
            }),
            StmtKind::Assign { .. } => None,
        })
    })
}

impl Expr {
    /// Expression with a dummy span (builders, tests).
    pub fn synthetic(kind: ExprKind) -> Self {
        Self {
            kind,
            span: Span::dummy(),
        }
    }

    /// True if this expression is the integer literal `v`.
    pub fn is_int(&self, v: i64) -> bool {
        matches!(self.kind, ExprKind::Int(x) if x == v)
    }

    /// If this is `Ident`, its name.
    pub fn as_ident(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Flatten nested `max(...)` calls into their argument list, or
    /// `None` if this is not a max call.
    pub fn max_args(&self) -> Option<Vec<&Expr>> {
        match &self.kind {
            ExprKind::Call { name, args } if name == "max" => {
                let mut out = Vec::new();
                for a in args {
                    if let Some(inner) = a.max_args() {
                        out.extend(inner);
                    } else {
                        out.push(a);
                    }
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Decompose `base_expr + const_name` (in either order) into
    /// `(base, constant_name)`. Used to spot `T[i-1][j] + GAP_OPEN`.
    pub fn as_plus_const(&self) -> Option<(&Expr, &str)> {
        if let ExprKind::Bin {
            op: BinOp::Add,
            lhs,
            rhs,
        } = &self.kind
        {
            if let Some(name) = rhs.as_ident() {
                if name.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
                    return Some((lhs, name));
                }
            }
            if let Some(name) = lhs.as_ident() {
                if name.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
                    return Some((rhs, name));
                }
            }
        }
        None
    }

    /// For a table subscript like `i`, `i-1`, `j-1`: return the offset
    /// relative to the loop variable, or `None` if it is not of that
    /// shape.
    pub fn index_offset(&self, var: &str) -> Option<i64> {
        match &self.kind {
            ExprKind::Ident(s) if s == var => Some(0),
            ExprKind::Bin { op, lhs, rhs } => {
                let base = lhs.as_ident()?;
                if base != var {
                    return None;
                }
                if let ExprKind::Int(k) = rhs.kind {
                    match op {
                        BinOp::Sub => Some(-k),
                        BinOp::Add => Some(k),
                        BinOp::Mul => None,
                    }
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

impl Stmt {
    /// Statement with a dummy span (builders, tests).
    pub fn synthetic(kind: StmtKind) -> Self {
        Self {
            kind,
            span: Span::dummy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(s: &str) -> Expr {
        Expr::synthetic(ExprKind::Ident(s.to_string()))
    }

    fn int(v: i64) -> Expr {
        Expr::synthetic(ExprKind::Int(v))
    }

    fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::synthetic(ExprKind::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    #[test]
    fn max_args_flattens_nesting() {
        let inner = Expr::synthetic(ExprKind::Call {
            name: "max".into(),
            args: vec![int(1), int(2)],
        });
        let outer = Expr::synthetic(ExprKind::Call {
            name: "max".into(),
            args: vec![int(0), inner],
        });
        let args = outer.max_args().unwrap();
        assert_eq!(args.len(), 3);
        assert!(args[0].is_int(0));
        assert!(args[2].is_int(2));
    }

    #[test]
    fn as_plus_const_both_orders() {
        let t = Expr::synthetic(ExprKind::Index {
            base: "T".into(),
            subs: vec![ident("i"), ident("j")],
        });
        let e1 = bin(BinOp::Add, t.clone(), ident("GAP_OPEN"));
        let (base, name) = e1.as_plus_const().unwrap();
        assert_eq!(name, "GAP_OPEN");
        assert!(matches!(base.kind, ExprKind::Index { .. }));

        let e2 = bin(BinOp::Add, ident("GAP_EXT"), t);
        assert_eq!(e2.as_plus_const().unwrap().1, "GAP_EXT");
    }

    #[test]
    fn lowercase_ident_is_not_a_constant() {
        let e = bin(BinOp::Add, ident("x"), ident("y"));
        assert!(e.as_plus_const().is_none());
    }

    #[test]
    fn index_offset_shapes() {
        let i = ident("i");
        assert_eq!(i.index_offset("i"), Some(0));
        assert_eq!(i.index_offset("j"), None);
        let im1 = bin(BinOp::Sub, ident("i"), int(1));
        assert_eq!(im1.index_offset("i"), Some(-1));
        assert_eq!(int(0).index_offset("i"), None);
    }

    #[test]
    fn span_line_col_is_one_based() {
        let src = "ab\ncd ef\n";
        assert_eq!(Span::point(0).line_col(src), (1, 1));
        assert_eq!(Span::point(3).line_col(src), (2, 1));
        assert_eq!(Span::point(6).line_col(src), (2, 4));
    }

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.to(b), Span::new(3, 12));
        assert_eq!(b.to(a), Span::new(3, 12));
    }
}
