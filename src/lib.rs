//! # aalign — facade crate
//!
//! Re-exports the public API of the AAlign workspace. See the README
//! for a tour; the typical entry point is [`Aligner`].
//!
//! ```
//! use aalign::{AlignConfig, Aligner, GapModel, Strategy};
//! use aalign::bio::{matrices::BLOSUM62, Sequence};
//!
//! let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
//! let aligner = Aligner::new(cfg).with_strategy(Strategy::Hybrid);
//! let q = Sequence::protein("q", b"HEAGAWGHEE").unwrap();
//! let s = Sequence::protein("s", b"PAWHEAE").unwrap();
//! let out = aligner.align(&q, &s).unwrap();
//! assert!(out.score > 0);
//! ```

pub use aalign_core::{
    AlignConfig, AlignError, AlignKind, AlignOutput, AlignScratch, Aligner, GapModel, HybridPolicy,
    Strategy, WidthPolicy,
};

/// Bioinformatics substrate: sequences, FASTA, matrices, profiles,
/// synthetic data generation.
pub mod bio {
    pub use aalign_bio::*;
}

/// Vector-module layer: SIMD engines and the weighted max-scan.
pub mod vec {
    pub use aalign_vec::*;
}

/// Core kernels and configuration (everything `Aligner` is built from).
pub mod core {
    pub use aalign_core::*;
}

/// The code-translation front end (sequential paradigm → kernel spec →
/// generated Rust).
pub mod codegen {
    pub use aalign_codegen::*;
}

/// Comparator implementations (naive scalar, SWPS3-like, SWAPHI-like).
pub mod baselines {
    pub use aalign_baselines::*;
}

/// Multi-threaded database search.
pub mod par {
    pub use aalign_par::*;
}

/// Observability: trace events/sinks, histograms, the JSONL trace
/// format, and decision-timeline reports.
pub mod obs {
    pub use aalign_obs::*;
}

/// Alignment as a service: the dispatcher (batching, admission
/// control, drain) and the HTTP / stdio JSON-RPC front ends.
pub mod serve {
    pub use aalign_serve::*;
}

/// Fault-tolerant multi-process sharding: the shard supervisor,
/// worker-child plumbing, and deterministic chaos plans.
pub mod shard {
    pub use aalign_shard::*;
}
