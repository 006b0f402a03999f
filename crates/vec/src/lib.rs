//! # aalign-vec — the AAlign vector-module layer
//!
//! This crate implements the "vector modules" of the AAlign paper
//! (Table I): a small set of primitive vector operations that the
//! alignment kernels are written against, with one implementation per
//! instruction set. The paper links its generated kernels against
//! AVX2 (Haswell) or IMCI (Knights Corner) modules; here the same role
//! is played by the [`SimdEngine`] trait and its backends:
//!
//! * [`emu::EmuEngine`] — a portable, const-generic reference engine
//!   that runs everywhere and defines the semantics all other backends
//!   must match (property-tested against each other).
//! * [`sse41`] — 128-bit SSE4.1 engines (`i32x4`, `i16x8`).
//! * [`avx2`] — 256-bit AVX2 engines (`i32x8`, `i16x16`, `i8x32`),
//!   the paper's "multi-core CPU" platform.
//! * [`avx512`] — 512-bit AVX-512 engines: `i32x16` (AVX-512F) stands
//!   in for the paper's IMCI many-core platform — IMCI and AVX-512
//!   share the 512-bit width, the 16×i32 shape, and (for IMCI) the
//!   lack of sub-32-bit integer lanes the paper works around — and
//!   `i16x32` (AVX-512BW) goes beyond IMCI with native narrow lanes.
//!
//! The app-specific modules of Table I are provided on top of the
//! basic ones: `set_vector` ([`SimdEngine::lower_bound`], hoistable as
//! a [`Ramp`]),
//! `rshift_x_fill` ([`SimdEngine::shift_insert_low`]),
//! `influence_test` ([`SimdEngine::any_gt`]) and `wgt_max_scan`
//! ([`scan::wgt_max_scan_striped`]). [`SimdEngine::lookup32`] — a
//! 32-entry table lookup by lane, `vpermw` / `pshufb` where the engine
//! says [`SimdEngine::NATIVE_LOOKUP`] — is what the lane-per-subject
//! kernel reads its substitution scores with.
//!
//! Backends whose instructions may be absent at runtime expose
//! fallible constructors (`Option<Self>`), so every constructed engine
//! value is a proof that its ISA is available; the intrinsic calls
//! inside are sound by construction. Callers do not construct them:
//! [`dispatch`] holds the one table of engines, [`resolve`] picks a row
//! for a host and [`with_engine`] runs a generic computation on it
//! inside the engine's `#[target_feature]` context.
//!
//! Every `unsafe` in this crate carries a `// SAFETY:` comment and
//! interior unsafe operations must be re-asserted even inside `unsafe
//! fn` bodies; both rules are enforced — the first by the
//! `aalign-analyzer audit` lint, the second by the compiler:

#![deny(unsafe_op_in_unsafe_fn)]

pub mod detect;
pub mod dispatch;
pub mod elem;
pub mod emu;
pub mod engine;
pub mod layout;
pub mod saturate;
pub mod scan;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;
#[cfg(target_arch = "x86_64")]
pub mod sse41;

pub use detect::IsaSupport;
pub use dispatch::{resolve, with_engine, Backend, DispatchElem, EngineFn, WIDTHS};
pub use elem::ScoreElem;
pub use emu::EmuEngine;
pub use engine::{Ramp, SimdEngine, LOOKUP_ENTRIES};
pub use layout::{AlignedBuf, StripedLayout};
pub use saturate::SaturationGuard;
