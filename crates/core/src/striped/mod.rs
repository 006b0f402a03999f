//! The striped SIMD kernels: AAlign's two vectorization strategies
//! plus the hybrid switcher.
//!
//! All three strategies share one column engine ([`columns`]): a
//! column of the DP table is advanced either by
//! [`columns::ColumnEngine::iterate_column`] (Alg. 2: lower-bound
//! pass + lazy correction loop) or by
//! [`columns::ColumnEngine::scan_column`] (Alg. 3: tentative pass +
//! weighted max-scan + correction pass). Because both operate on the
//! same buffers with the same semantics, any interleaving — which is
//! exactly what the hybrid does — produces bit-identical scores.

pub mod columns;
pub mod hybrid;
pub mod iterate;
pub mod scan;

pub use columns::{ColumnEngine, KernelResult, Workspace};
pub use hybrid::{hybrid_align, hybrid_align_sink, HybridPolicy, HybridReport};
pub use iterate::{iterate_align, iterate_align_sink};
pub use scan::{scan_align, scan_align_sink};

/// Forward one per-column [`aalign_obs::HybridEvent`] to the sink.
///
/// Compiled out entirely when the `trace` cargo feature is off; with
/// it on, the sink's `enabled()` gate (constant `false` for
/// [`aalign_obs::NullSink`]) still deletes the call at monomorphization
/// time, so untraced kernels pay nothing either way.
#[cfg(feature = "trace")]
#[inline(always)]
pub(crate) fn emit_col<S: aalign_obs::TraceSink>(sink: &mut S, ev: aalign_obs::HybridEvent) {
    sink.on_hybrid(ev);
}

/// Trace feature disabled: the emission site vanishes.
#[cfg(not(feature = "trace"))]
#[inline(always)]
pub(crate) fn emit_col<S: aalign_obs::TraceSink>(_sink: &mut S, _ev: aalign_obs::HybridEvent) {}

#[cfg(test)]
mod tests;

#[cfg(test)]
mod semi_tests;
