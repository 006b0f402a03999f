//! # aalign-core — the AAlign alignment kernels
//!
//! A Rust reproduction of the AAlign framework (Hou, Wang, Feng,
//! IPDPS 2016): pairwise sequence alignment under the generalized
//! paradigm (local/global × linear/affine gaps) with two SIMD
//! vectorization strategies over the striped layout —
//! **striped-iterate** (Alg. 2) and **striped-scan** (Alg. 3) — and
//! the runtime **hybrid** switcher (Sec. V-B).
//!
//! Layers, bottom up:
//!
//! * [`config`] — the paradigm's parameters and the Table II
//!   derivation.
//! * [`mod@certify`] — the saturation-certificate prover: per-wavefront
//!   interval abstract interpretation proving a lane width
//!   rescue-free (consumed by [`kernel`] width selection).
//! * [`paradigm`] — executable ground truth: Eq. (2) literally, and
//!   the Eq. (3–6) dynamic program.
//! * [`scalar`] — the optimized sequential baseline (Fig. 9).
//! * [`striped`] — the vector kernels, generic over any
//!   [`aalign_vec::SimdEngine`].
//! * [`inter`] — inter-sequence vectorization (one lane per subject,
//!   scores looked up in-register; the sweep's strategy for short
//!   queries).
//! * [`kernel`] — runtime dispatch (element width × strategy, on the
//!   engine [`aalign_vec::dispatch`] resolves) and the public
//!   [`Aligner`] API.
//! * [`traceback`] — scalar alignment-path reconstruction (an
//!   extension; the paper reports scores only).
//! * [`retry`] — capped exponential backoff with deterministic
//!   jitter, shared by every supervisor/retry loop above this crate.
//!
//! No engine type is named here and nothing is `unsafe`: every
//! target-feature entry lives in `aalign-vec`, behind
//! [`aalign_vec::with_engine`], under the audit lint.

#![forbid(unsafe_code)]

pub mod banded;
pub mod certify;
pub mod config;
#[cfg(feature = "conformance")]
pub mod conformance;
pub mod hirschberg;
pub mod inter;
pub mod kernel;
pub mod paradigm;
pub mod retry;
pub mod scalar;
pub mod striped;
pub mod traceback;

pub use banded::{banded_align, banded_align_auto, banded_align_certified, BandedScore};
pub use certify::{
    certify, config_fingerprint, CertTerm, CertificateStore, CrossedBound, Denial,
    WidthCertificate, Witness,
};
pub use config::{AlignConfig, AlignKind, GapModel, ScoreBounds, TableII};
pub use hirschberg::hirschberg_align;
pub use inter::{
    inter_align_all, inter_align_batch, InterBatchResult, InterBatches, InterWorkspace, LaneProfile,
};
pub use kernel::{
    AlignError, AlignOutput, AlignScratch, Aligner, BatchOutput, PreparedQuery, RunStats, Strategy,
    WidthPolicy, LANE_MIN_FILL_PERCENT, LANE_QUERY_CAP,
};
pub use retry::Backoff;
pub use striped::{HybridPolicy, HybridReport, KernelResult, Workspace};
pub use traceback::{traceback_align, Alignment};
