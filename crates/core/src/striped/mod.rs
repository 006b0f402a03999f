//! The striped SIMD kernels: AAlign's two vectorization strategies
//! plus the hybrid switcher, as one column loop.
//!
//! Every strategy shares one column engine ([`columns`]): a column of
//! the DP table is advanced either by
//! [`columns::ColumnEngine::iterate_column`] (Alg. 2: lower-bound
//! pass + lazy correction loop) or by
//! [`columns::ColumnEngine::scan_column`] (Alg. 3: tentative pass +
//! weighted max-scan + correction pass). Because both operate on the
//! same buffers with the same semantics, any interleaving produces
//! bit-identical scores. One driver ([`driver`]) walks the subject and
//! picks the strategy per column: a [`Columns`] value says whether
//! that is iterate throughout, scan throughout, or the hybrid's
//! threshold switch and probes.

pub mod columns;
pub mod driver;

pub use columns::{ColumnEngine, KernelResult, Workspace};
pub use driver::{align_columns, column_loop, Columns, HybridPolicy, HybridReport};

#[cfg(test)]
mod tests;

#[cfg(test)]
mod semi_tests;
