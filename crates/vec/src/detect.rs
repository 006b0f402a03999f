//! Runtime ISA detection.
//!
//! The paper re-links kernels against a platform-specific module set
//! at build time; we do the equivalent at runtime. [`IsaSupport`]
//! reports what the host offers and [`Isa`] names a register family;
//! which engine that makes for a requested element width — and the
//! door to it — is [`crate::dispatch`].

/// Vector ISAs an engine can be built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isa {
    /// Portable array emulation — always available.
    Emulated,
    /// 128-bit SSE4.1.
    Sse41,
    /// 256-bit AVX2 (the paper's Haswell platform).
    Avx2,
    /// 512-bit AVX-512F/BW (standing in for the paper's IMCI).
    Avx512,
}

impl Isa {
    /// Register width in bits.
    pub fn bits(self) -> u32 {
        match self {
            Isa::Emulated => 0,
            Isa::Sse41 => 128,
            Isa::Avx2 => 256,
            Isa::Avx512 => 512,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Emulated => "emu",
            Isa::Sse41 => "sse4.1",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

/// What the running host supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsaSupport {
    pub sse41: bool,
    pub avx2: bool,
    /// AVX-512 Foundation (i32 ops).
    pub avx512f: bool,
    /// AVX-512 Byte/Word (i8/i16 ops) — beyond IMCI, which had no
    /// sub-32-bit lanes; with `avx512f` it gives the 32-lane i16
    /// engine, the default i16 engine on a host that has both.
    pub avx512bw: bool,
}

impl IsaSupport {
    /// A host with no vector ISA: every engine is the portable one.
    pub const NONE: Self = Self {
        sse41: false,
        avx2: false,
        avx512f: false,
        avx512bw: false,
    };

    /// Probe the current CPU.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self {
                sse41: std::arch::is_x86_feature_detected!("sse4.1"),
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                avx512f: std::arch::is_x86_feature_detected!("avx512f"),
                avx512bw: std::arch::is_x86_feature_detected!("avx512bw"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::NONE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_does_not_panic_and_is_consistent() {
        let sup = IsaSupport::detect();
        // AVX2 implies SSE4.1 on any real x86-64.
        if sup.avx2 {
            assert!(sup.sse41);
        }
    }
}
