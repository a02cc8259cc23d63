//! SplitMix64: every input of a run is a pure function of `--seed`.

/// A small deterministic generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream numbered `stream` of run seed `seed`. Distinct streams
    /// (graph, catalog, each client's requests) never share draws.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ 0x5851_F42D_4C95_7F2D);
        r.0 ^= r
            .next_u64()
            .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng(r.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A request seed: below 2^53, so JSON carries it exactly.
    pub fn json_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// `k` distinct elements of `pool` in random order (`k <= pool.len()`).
    pub fn sample<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            idx.swap(i, j);
        }
        idx[..k].iter().map(|&i| pool[i]).collect()
    }
}
