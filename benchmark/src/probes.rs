//! Micro probes of the layers that have no request of their own: the
//! two vector primitives of `vec`, and the codec and histogram of
//! `obs`. Each records one span over a fixed number of calls.

use std::hint::black_box;

use aalign_obs::wire::JsonValue;
use aalign_obs::Histogram;
use aalign_vec::scan::{wgt_max_scan_striped, ScanParams};
use aalign_vec::{EmuEngine, ScoreElem, SimdEngine, StripedLayout};

use crate::spans::Recorder;

/// `wgt_max_scan_striped` calls under one span.
pub const SCAN_CALLS: usize = 256;
/// Chained `shift_insert_low` calls under one span.
pub const SHIFT_CALLS: usize = 4096;
/// `Histogram::record` calls under one span.
pub const HIST_CALLS: usize = 4096;

/// Where a probe's spans hang.
#[derive(Debug, Clone, Copy)]
pub struct At {
    pub parent: u32,
    pub op: u32,
}

#[inline(always)]
fn probe_engine<E: SimdEngine>(eng: E, query_len: usize, rec: &mut Recorder, at: At) -> usize {
    let layout = StripedLayout::new(query_len, E::LANES);
    let padded = layout.padded_len();
    let input: Vec<E::Elem> = (0..padded)
        .map(|i| E::Elem::from_i32_sat((i * 7 % 23) as i32))
        .collect();
    let mut out = vec![E::Elem::ZERO; padded];
    let params = ScanParams {
        init: E::Elem::ZERO,
        open: E::Elem::from_i32_sat(-12),
        ext: E::Elem::from_i32_sat(-2),
    };

    let span = rec.open(at.parent, at.op, "vec.wgt_max_scan");
    for _ in 0..SCAN_CALLS {
        wgt_max_scan_striped(eng, layout, black_box(&input), &mut out, params);
        black_box(&mut out);
    }
    rec.close(span);

    // A dependent chain, as in the kernels' column loop: each shift
    // feeds the next, so this times the primitive's latency.
    let fill = E::Elem::from_i32_sat(-1);
    let span = rec.open(at.parent, at.op, "vec.rshift_x_fill");
    let mut v = eng.load(black_box(&input));
    for _ in 0..SHIFT_CALLS {
        v = eng.shift_insert_low(v, fill);
    }
    eng.store(&mut out, v);
    rec.close(span);
    black_box(&out);
    padded
}

#[cfg(target_arch = "x86_64")]
mod native {
    //! `#[target_feature]` wrappers, as in `aalign_core::kernel`:
    //! compiling the probe loop with the feature on lets the engine's
    //! intrinsics inline.
    use super::*;
    use aalign_vec::avx2::{Avx2I16, Avx2I8};
    use aalign_vec::avx512::Avx512I16;
    use aalign_vec::sse41::Sse41I16;

    macro_rules! wrapper {
        ($name:ident, $engine:ty, $($feature:literal),+) => {
            /// # Safety
            /// The CPU must support the enabled features; holding the
            /// engine token proves it did when the token was built.
            $(#[target_feature(enable = $feature)])+
            pub unsafe fn $name(eng: $engine, len: usize, rec: &mut Recorder, at: At) -> usize {
                probe_engine(eng, len, rec, at)
            }
        };
    }
    wrapper!(avx512_i16, Avx512I16, "avx512f", "avx512bw");
    wrapper!(avx2_i16, Avx2I16, "avx2");
    wrapper!(avx2_i8, Avx2I8, "avx2");
    wrapper!(sse41_i16, Sse41I16, "sse4.1");
}

/// Time `wgt_max_scan` and `rshift_x_fill` on the engine the kernels
/// pick for `bits`-wide lanes on this host (the order of
/// `aalign_core`'s backend resolution), at the padded length of a
/// `query_len` query. Returns that padded length.
pub fn vec_primitives(bits: u32, query_len: usize, rec: &mut Recorder, at: At) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        use aalign_vec::avx2::{Avx2I16, Avx2I8};
        use aalign_vec::avx512::Avx512I16;
        use aalign_vec::sse41::Sse41I16;
        // SAFETY (all four): the engine token exists only if its
        // constructor detected the features the wrapper enables.
        if bits == 8 {
            if let Some(eng) = Avx2I8::new() {
                return unsafe { native::avx2_i8(eng, query_len, rec, at) };
            }
        } else if let Some(eng) = Avx512I16::new() {
            return unsafe { native::avx512_i16(eng, query_len, rec, at) };
        } else if let Some(eng) = Avx2I16::new() {
            return unsafe { native::avx2_i16(eng, query_len, rec, at) };
        } else if let Some(eng) = Sse41I16::new() {
            return unsafe { native::sse41_i16(eng, query_len, rec, at) };
        }
    }
    if bits == 8 {
        probe_engine(EmuEngine::<i8, 32>::new(), query_len, rec, at)
    } else {
        probe_engine(EmuEngine::<i16, 16>::new(), query_len, rec, at)
    }
}

/// Parse one request body and render one response document with the
/// `obs` codec, and record into one `obs` histogram.
pub fn obs_codec(request_body: &str, response: &JsonValue, rec: &mut Recorder, at: At) {
    rec.run(at.parent, at.op, "obs.json_parse", || {
        black_box(JsonValue::parse(black_box(request_body))).is_ok()
    });
    rec.run(at.parent, at.op, "obs.json_render", || {
        black_box(black_box(response).render()).len()
    });
    let mut hist = Histogram::new();
    rec.run(at.parent, at.op, "obs.hist_record", || {
        for i in 0..HIST_CALLS as u64 {
            hist.record(black_box(i * 977));
        }
    });
    black_box(hist.count());
}
