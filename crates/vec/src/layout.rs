//! The striped (Farrar) data layout used by every AAlign kernel.
//!
//! AAlign computes the DP table column by column along the subject,
//! holding one column (length = query length `m`) in buffers. A
//! column is stored *striped* (paper Fig. 4): with `v` vector lanes
//! and `k = ceil(m / v)` segments, segment `j` is one vector whose
//! lane `l` holds query position `q = l·k + j`.
//!
//! Key consequences the kernels rely on:
//!
//! * Moving from segment `j` to `j+1` advances every lane to its next
//!   query position — within-lane dependencies become *between-vector*
//!   dependencies, which is what makes the column vectorizable.
//! * Moving across the lane boundary (segment `k-1` of lane `l` to
//!   segment `0` of lane `l+1`) is done by
//!   [`SimdEngine::shift_insert_low`](crate::SimdEngine::shift_insert_low).
//! * Padding slots (`q ≥ m`) occupy the *suffix* of the column in
//!   query order: within each lane they are a suffix of the lane's
//!   chunk, and whenever a lane's chunk *end* is padding, every lane
//!   above it is entirely padding. Since values only flow toward
//!   higher query positions within a column, padding garbage can
//!   never reach a real position.
//!
//! [`AlignedBuf`] is where such columns (and the query profile's
//! stripes) live in memory: on a cache-line boundary, so that no
//! vector access straddles a line or a page.

/// Geometry of a striped column: query length, lane count, segment
/// count and padded length.
///
/// ```
/// use aalign_vec::StripedLayout;
/// // Paper Fig. 4: 20 elements on 4 lanes → 5 segments; vector j
/// // holds query positions {j, j+5, j+10, j+15}.
/// let l = StripedLayout::new(20, 4);
/// assert_eq!(l.segments, 5);
/// assert_eq!(l.query_pos_of(0), 0);  // segment 0, lane 0
/// assert_eq!(l.query_pos_of(1), 5);  // segment 0, lane 1
/// assert_eq!(l.slot_of(5), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripedLayout {
    /// Real query length `m` (> 0).
    pub len: usize,
    /// Vector lane count `v`.
    pub lanes: usize,
    /// Segments per column: `k = ceil(m / v)`.
    pub segments: usize,
}

impl StripedLayout {
    /// Compute the layout for a query of `len` residues on `lanes`-wide
    /// vectors.
    ///
    /// # Panics
    /// Panics if `len == 0` or `lanes == 0`.
    pub fn new(len: usize, lanes: usize) -> Self {
        assert!(len > 0, "query must be non-empty");
        assert!(lanes > 0, "lane count must be positive");
        let segments = len.div_ceil(lanes);
        Self {
            len,
            lanes,
            segments,
        }
    }

    /// Padded column length `k · v` (number of slots in each buffer).
    #[inline]
    pub fn padded_len(&self) -> usize {
        self.segments * self.lanes
    }

    /// Number of padding slots (`padded_len - len`), always `< k`.
    #[inline]
    pub fn padding(&self) -> usize {
        self.padded_len() - self.len
    }

    /// Buffer slot of query position `q`: segment `q % k`, lane `q / k`
    /// → index `(q % k) · v + q / k`.
    #[inline]
    pub fn slot_of(&self, q: usize) -> usize {
        debug_assert!(q < self.padded_len());
        let seg = q % self.segments;
        let lane = q / self.segments;
        seg * self.lanes + lane
    }

    /// Query position stored in buffer slot `idx` (may be `≥ len` for
    /// padding slots).
    #[inline]
    pub fn query_pos_of(&self, idx: usize) -> usize {
        debug_assert!(idx < self.padded_len());
        let seg = idx / self.lanes;
        let lane = idx % self.lanes;
        lane * self.segments + seg
    }

    /// Scatter a linear column into striped order. Padding slots are
    /// filled with `pad`.
    pub fn stripe<T: Copy>(&self, linear: &[T], pad: T, out: &mut Vec<T>) {
        assert_eq!(linear.len(), self.len, "column length mismatch");
        out.clear();
        out.resize(self.padded_len(), pad);
        for (q, &x) in linear.iter().enumerate() {
            out[self.slot_of(q)] = x;
        }
    }

    /// Gather a striped buffer back into linear order (padding dropped).
    pub fn unstripe<T: Copy + Default>(&self, striped: &[T]) -> Vec<T> {
        assert_eq!(striped.len(), self.padded_len(), "striped length mismatch");
        let mut out = vec![T::default(); self.len];
        for q in 0..self.len {
            out[q] = striped[self.slot_of(q)];
        }
        out
    }
}

/// Bytes in a cache line; also the widest register any engine loads.
pub const CACHE_LINE: usize = 64;

/// A growable buffer whose first element sits on a [`CACHE_LINE`]
/// boundary, so that no register-aligned vector access into it
/// straddles a line or a page. A bare `Vec` promises 16 bytes, and
/// where its 64-byte loads then fall depends on the allocation history
/// of the process: the same binary ran the same sweep 17–40 % slower in
/// the runs whose scratch crossed a page (DESIGN §5b).
///
/// Safe code: a `Vec` one line longer than asked for and a window into
/// it at the pointer's `align_offset`.
///
/// ```
/// use aalign_vec::layout::{AlignedBuf, CACHE_LINE};
/// let mut buf = AlignedBuf::new();
/// buf.resize(96, 0i16);
/// assert_eq!(buf.len(), 96);
/// assert_eq!(buf.as_ptr().align_offset(CACHE_LINE), 0);
/// ```
#[derive(Debug, Default)]
pub struct AlignedBuf<T> {
    raw: Vec<T>,
    /// The window is `raw[start..start + len]`.
    start: usize,
    len: usize,
}

impl<T: Copy> AlignedBuf<T> {
    /// An empty buffer; allocates nothing.
    pub const fn new() -> Self {
        Self {
            raw: Vec::new(),
            start: 0,
            len: 0,
        }
    }

    /// Make the buffer `len` elements long. It allocates only to grow,
    /// and growing does **not** carry the contents along (the window
    /// may start elsewhere in the new allocation): elements never
    /// written read as `fill`, the rest as an earlier use left them.
    pub fn resize(&mut self, len: usize, fill: T) {
        let slack = CACHE_LINE / core::mem::size_of::<T>();
        if self.raw.len() < len + slack {
            self.raw.resize(len + slack, fill);
        }
        // `align_offset` may decline to answer (`usize::MAX`); the
        // window then starts at the allocation: slower, never wrong.
        let start = self.raw.as_ptr().align_offset(CACHE_LINE);
        self.start = if start <= slack { start } else { 0 };
        self.len = len;
    }

    /// Elements the allocation can hold, slack included.
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }
}

impl<T> core::ops::Deref for AlignedBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.raw[self.start..self.start + self.len]
    }
}

impl<T> core::ops::DerefMut for AlignedBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.raw[self.start..self.start + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled<T: Copy>(len: usize, fill: T) -> AlignedBuf<T> {
        let mut buf = AlignedBuf::new();
        buf.resize(len, fill);
        buf
    }

    fn on_a_line<T>(buf: &AlignedBuf<T>) -> bool {
        buf.as_ptr().align_offset(CACHE_LINE) == 0
    }

    #[test]
    fn aligned_buf_starts_on_a_line_at_every_size() {
        // Odd sizes on purpose: small allocations are the ones malloc
        // hands out at 16 mod 64.
        let mut held = Vec::new();
        for len in [0usize, 1, 31, 64, 65, 200, 1024, 5000] {
            let b8 = filled(len, 1i8);
            let b16 = filled(len, 2i16);
            let b32 = filled(len, 3i32);
            assert!(
                on_a_line(&b8) && on_a_line(&b16) && on_a_line(&b32),
                "len {len}"
            );
            assert_eq!((b8.len(), b16.len(), b32.len()), (len, len, len));
            assert!(b16.iter().all(|&x| x == 2));
            held.push((b8, b16, b32));
        }
    }

    #[test]
    fn aligned_buf_grows_without_reallocating_when_it_fits() {
        let mut buf = filled(256, 0i32);
        let (at, cap) = (buf.as_ptr(), buf.capacity());
        buf[255] = 9;
        buf.resize(16, 0);
        assert_eq!(buf.len(), 16);
        buf.resize(256, 0);
        assert_eq!((buf.as_ptr(), buf.capacity()), (at, cap));
        assert_eq!(
            buf[255], 9,
            "shrinking and regrowing in place keeps stale data"
        );
        buf.resize(4096, -1);
        assert!(on_a_line(&buf));
        assert_eq!(buf.len(), 4096);
    }

    #[test]
    fn fig4_example_20_elements_5_vectors() {
        // Paper Fig. 4: 20 elements, 4 lanes → 5 segments; vector j
        // holds positions {j, j+5, j+10, j+15}.
        let l = StripedLayout::new(20, 4);
        assert_eq!(l.segments, 5);
        assert_eq!(l.padded_len(), 20);
        assert_eq!(l.padding(), 0);
        for j in 0..5 {
            for lane in 0..4 {
                assert_eq!(l.query_pos_of(j * 4 + lane), lane * 5 + j);
            }
        }
    }

    #[test]
    fn slot_and_query_pos_are_inverse() {
        for (m, v) in [(1, 4), (7, 4), (20, 4), (33, 8), (100, 16), (5, 8)] {
            let l = StripedLayout::new(m, v);
            for q in 0..l.padded_len() {
                assert_eq!(l.query_pos_of(l.slot_of(q)), q, "m={m} v={v} q={q}");
            }
        }
    }

    #[test]
    fn padding_never_feeds_real_positions() {
        // Padding count is < lanes; within a lane padding is a suffix
        // of the chunk; and if a lane's chunk END is padding, every
        // higher lane is entirely padding (so cross-lane shifts only
        // ever move padding into padding).
        for (m, v) in [(7, 4), (9, 8), (33, 8), (17, 16), (250, 8), (1, 4)] {
            let l = StripedLayout::new(m, v);
            assert!(l.padding() < v, "m={m} v={v}");
            let k = l.segments;
            for lane in 0..v {
                let chunk: Vec<bool> = (0..k).map(|j| lane * k + j >= m).collect();
                // padding is a suffix within the chunk
                let first_pad = chunk.iter().position(|&p| p).unwrap_or(k);
                assert!(
                    chunk[first_pad..].iter().all(|&p| p),
                    "m={m} v={v} lane={lane}: padding not a suffix"
                );
                // chunk end padded => all higher lanes fully padded
                if *chunk.last().unwrap() && first_pad == 0 {
                    // (chunk entirely padding — nothing more to check)
                }
                if *chunk.last().unwrap() {
                    for hl in lane + 1..v {
                        assert!(
                            hl * k >= m,
                            "m={m} v={v}: lane {hl} has real data after padded chunk end"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stripe_unstripe_round_trip() {
        let l = StripedLayout::new(13, 4);
        let col: Vec<i32> = (0..13).collect();
        let mut striped = Vec::new();
        l.stripe(&col, -1, &mut striped);
        assert_eq!(striped.len(), l.padded_len());
        assert_eq!(l.unstripe(&striped), col);
        // Padding slots hold the pad value.
        let pad_slots = striped.iter().filter(|&&x| x == -1).count();
        assert_eq!(pad_slots, l.padding());
    }

    #[test]
    fn single_element_query() {
        let l = StripedLayout::new(1, 8);
        assert_eq!(l.segments, 1);
        assert_eq!(l.slot_of(0), 0);
        assert_eq!(l.padding(), 7);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_length_rejected() {
        let _ = StripedLayout::new(0, 8);
    }
}
