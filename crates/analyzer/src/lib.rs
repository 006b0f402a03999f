//! # aalign-analyzer — static verification for AAlign kernels
//!
//! Three passes that check properties *before* anything runs:
//!
//! * [`range`] — interval arithmetic over the generalized recurrences
//!   (Eq. 2–6): given a [`KernelSpec`](aalign_codegen::KernelSpec),
//!   gap bindings, a substitution matrix and maximum sequence
//!   lengths, derive conservative bounds on every T/U/L cell, select
//!   the minimal safe lane width (i8/i16/i32), reject configurations
//!   where even i32 wraps, and report the bias/saturation constants
//!   the biased-unsigned kernels need. The same
//!   [`ScoreBounds`](aalign_core::ScoreBounds) analysis backs the
//!   runtime `Aligner` width policy, so what the analyzer predicts is
//!   what the kernels do.
//! * [`dataflow`] — a dependency-direction pass over the parsed AST
//!   proving the recurrences only read `(i-1, j)`, `(i, j-1)`,
//!   `(i-1, j-1)` — the legality condition for the paper's striped
//!   vectorizations (Sec. IV). Violations come back as span-carrying
//!   diagnostics pointing at the offending subscript.
//! * [`audit`] — an offline, text-level lint over the hand-written
//!   SIMD backends: every `unsafe` needs a `// SAFETY:` comment,
//!   intrinsic-using functions need a matching `#[target_feature]`
//!   (or the engine-method `#[inline(always)]` pattern), and
//!   per-backend unsafe counts are pinned to a checked-in baseline.
//! * [`concurrency`] — the atomics-discipline lint over the
//!   concurrent crates (`aalign-par`, `aalign-obs`): every atomic
//!   operation needs an `// ORDER:` justification, `SeqCst` must be
//!   argued for explicitly, `Relaxed` must not claim publication
//!   semantics, and the full atomics inventory (file, operation,
//!   ordering) is pinned to a checked-in baseline. The static proofs
//!   complement the loom model-checking suites, which explore
//!   interleavings but not memory orderings.
//!
//! * [`conformance`] — the kernel conformance prover: symbolic
//!   max-plus execution of the recurrence AST proving the
//!   Eq.(2)→Eq.(3–6) rewrite is score-preserving (gap-family
//!   unrolling, result-max completeness, wavefront legality), derived
//!   lemmas for the striped-permutation transform and the lazy-F
//!   correction bound (≤ P sweeps), and the `ScoreBounds`-conditioned
//!   premises under which the rescue ladder is bit-exact — each a
//!   machine-readable [`conformance::Obligation`] with caret
//!   diagnostics on failure. The pass also runs the
//!   bounded-exhaustive differential harness
//!   (`aalign_core::conformance`) and pins the obligation inventory
//!   plus harness coverage in `conformance_baseline.txt`.
//!
//! * [`certify`] — the saturation-certificate prover: interval
//!   abstract interpretation over the recurrence wavefronts proving —
//!   per (matrix, gap model, length bounds, lane width) — that every
//!   intermediate DP cell, *including the kernel's saturation-detection
//!   headroom*, stays strictly inside the saturating range, or a
//!   caret-diagnosed denial naming the violating recurrence term and
//!   the tightest length bound that would certify. The verdicts are
//!   the same [`aalign_core::certify::WidthCertificate`]s the runtime
//!   width selection consumes; the shipped inventory is pinned in
//!   `certify_baseline.txt`, and a seeded mutation self-test keeps
//!   the prover honest.
//!
//! The `aalign-analyzer` binary exposes the passes as `check`,
//! `range`, `audit`, `concurrency`, `conformance` and `certify`
//! subcommands (all support `--json` for machine-readable output);
//! each pass is also exercised as ordinary `#[test]`s so `cargo test`
//! runs the whole suite.

pub mod audit;
pub mod certify;
pub mod concurrency;
pub mod conformance;
pub mod dataflow;
pub mod range;

pub use audit::{audit_dir, audit_source, AuditReport};
pub use certify::{
    analyze_certify, run_certify_pass, run_mutation_self_test, CertMutation, CertifyPass,
    CertifyReport, MutationVerdict,
};
pub use concurrency::{scan_dirs, scan_source, ConcurrencyReport};
pub use conformance::{
    prove_kernel, run_conformance_pass, verify_spec, ConformancePass, KernelProof, Obligation,
    ObligationStatus, ProveError,
};
pub use dataflow::{verify_dataflow, DataflowReport, Diagnostic};
pub use range::{analyze_range, RangeReport};
