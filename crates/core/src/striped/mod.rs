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

#[cfg(test)]
mod tests;

#[cfg(test)]
mod semi_tests;
