//! The benchmark's own random numbers and checksum.
//!
//! Inputs must not change when a crate under test changes, so nothing
//! here calls into `aalign_bio::synth` or the `rand` shim: a later edit
//! to either would silently change the workload.

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// One independent stream per `(seed, label)`: adding a generator
    /// later does not shift the numbers an existing one draws.
    pub fn stream(seed: u64, label: &str) -> Self {
        let mut state = seed ^ fnv64(label.as_bytes());
        Self {
            s: std::array::from_fn(|_| splitmix64(&mut state)),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xCBF2_9CE4_8422_2325, bytes)
}

/// Continue an FNV-1a checksum over more bytes.
pub fn fnv64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_per_label() {
        let draw = |seed, label| {
            let mut r = Rng::stream(seed, label);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, "db"), draw(42, "db"));
        assert_ne!(draw(42, "db"), draw(43, "db"));
        assert_ne!(draw(42, "db"), draw(42, "pool"));
    }

    #[test]
    fn unit_and_between_stay_in_range() {
        let mut r = Rng::stream(7, "range");
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            let k = r.between(400, 1000);
            assert!((400..=1000).contains(&k));
        }
    }
}
