//! Shared machinery for the paper-figure harness binaries and the
//! benches: the crate's one timing harness.
//!
//! Each `fig*` binary regenerates one table/figure of the paper's
//! evaluation. They share: wall-clock timing with warmup and
//! min-of-k repeats (per call, for calls too short to time alone),
//! GCUPS (billions of DP cell updates per second), the two
//! "platforms" (CPU = AVX2 shape, MIC = 512-bit shape, per the
//! DESIGN.md substitution), and markdown table rendering.

use std::time::{Duration, Instant};

use aalign_bio::matrices::BLOSUM62;
use aalign_core::{AlignConfig, AlignKind, GapModel};
use aalign_vec::detect::{Isa, IsaSupport};

/// Time a closure: `warmup` unmeasured runs, then the minimum of
/// `reps` measured runs (minimum is the right statistic for
/// CPU-bound kernels — noise is strictly additive).
pub fn time_min<F: FnMut()>(mut f: F, warmup: usize, reps: usize) -> Duration {
    for _ in 0..warmup {
        f();
    }
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// Nanoseconds per call of a closure too short to time alone: each
/// sample times `calls` back-to-back calls, and [`time_min`]'s warmup
/// and minimum apply to whole samples.
pub fn ns_per_call<F: FnMut()>(mut f: F, calls: usize, warmup: usize, reps: usize) -> f64 {
    let calls = calls.max(1);
    let d = time_min(
        || {
            for _ in 0..calls {
                f();
            }
        },
        warmup,
        reps,
    );
    d.as_secs_f64() * 1e9 / calls as f64
}

/// Billions of cell updates per second for an `m × n` table.
pub fn gcups(m: usize, n: usize, d: Duration) -> f64 {
    (m as f64 * n as f64) / d.as_secs_f64() / 1e9
}

/// The two evaluation platforms of the paper, as ISA pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// 256-bit AVX2 — the paper's Haswell CPU.
    Cpu,
    /// 512-bit — the paper's Knights Corner MIC (AVX-512 here).
    Mic,
}

impl Platform {
    /// ISA pin for [`aalign_core::Aligner::with_isa`].
    pub fn isa(self) -> Isa {
        match self {
            Platform::Cpu => Isa::Avx2,
            Platform::Mic => Isa::Avx512,
        }
    }

    /// Label used in report rows.
    pub fn label(self) -> &'static str {
        match self {
            Platform::Cpu => "cpu(avx2)",
            Platform::Mic => "mic(512b)",
        }
    }

    /// Whether this platform runs natively on the current host (else
    /// the emulated engine with the same geometry is used).
    pub fn native(self) -> bool {
        let sup = IsaSupport::detect();
        match self {
            Platform::Cpu => sup.avx2,
            Platform::Mic => sup.avx512f,
        }
    }

    /// Both platforms.
    pub const ALL: [Platform; 2] = [Platform::Cpu, Platform::Mic];
}

/// The four paradigm configurations evaluated throughout the paper,
/// with the gap values used in its experiments (BLOSUM62, open −10,
/// extend −2; linear −4).
pub fn four_configs() -> Vec<AlignConfig> {
    let mut out = Vec::new();
    for kind in [AlignKind::Local, AlignKind::Global] {
        for gap in [GapModel::linear(-4), GapModel::affine(-10, -2)] {
            out.push(AlignConfig::new(kind, gap, &BLOSUM62));
        }
    }
    out
}

/// Simple aligned markdown table writer.
#[derive(Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render as a markdown table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (c, h) in self.header.iter().enumerate() {
            width[c] = width[c].max(h.len());
        }
        for r in &self.rows {
            for (c, cell) in r.iter().enumerate() {
                width[c] = width[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, cell) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<w$} |", cell, w = width[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('|');
        for w in &width {
            out.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
        }
        out
    }
}

/// Standard harness banner: what runs natively, what is emulated.
pub fn print_banner(figure: &str) {
    println!("# {figure}");
    println!();
    let sup = IsaSupport::detect();
    println!(
        "host: avx2={} avx512f={} — cpu platform {}, mic platform {}",
        sup.avx2,
        sup.avx512f,
        if Platform::Cpu.native() {
            "native"
        } else {
            "EMULATED"
        },
        if Platform::Mic.native() {
            "native"
        } else {
            "EMULATED"
        },
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcups_math() {
        let g = gcups(1000, 1000, Duration::from_millis(1));
        assert!((g - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let s = t.render();
        assert!(s.starts_with("| a"));
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("| 333 | 4"));
    }

    #[test]
    fn four_configs_cover_the_grid() {
        let cfgs = four_configs();
        assert_eq!(cfgs.len(), 4);
        let labels: Vec<String> = cfgs.iter().map(aalign_core::AlignConfig::label).collect();
        for want in ["sw-lin", "sw-aff", "nw-lin", "nw-aff"] {
            assert!(labels.iter().any(|l| l == want), "{want}");
        }
    }

    #[test]
    fn time_min_runs_the_closure() {
        let mut count = 0;
        let _ = time_min(|| count += 1, 2, 3);
        assert_eq!(count, 5);
    }

    #[test]
    fn ns_per_call_loops_inside_each_sample() {
        let mut count = 0;
        let _ = ns_per_call(|| count += 1, 10, 2, 3);
        assert_eq!(count, 50);
    }
}
