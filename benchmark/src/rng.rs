//! The benchmark's only source of randomness: a SplitMix64 stream keyed
//! by `--seed`, so the same seed always yields the same inputs.

/// SplitMix64 — tiny, dependency-free, and good enough to drive a
/// workload mix.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for sub-generator `stream` (one per load
    /// thread) that does not disturb this one. The stream id goes through
    /// the mixer first: XORed in raw, some seeds would make one stream
    /// another's shifted by a draw.
    pub fn fork(&self, stream: u64) -> Rng {
        Rng(self.0 ^ Rng(stream).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Zipf over ranks `0..n` with exponent `s`, by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf(cdf)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // 2 and 42 share no bit with the increment: the seeds on which an
        // unmixed stream id would put lane 1 one draw behind lane 0
        for seed in [1, 2, 42] {
            let base = Rng::new(seed);
            let mut lanes = [base.fork(0), base.fork(1)];
            let draws: Vec<Vec<u64>> = lanes
                .iter_mut()
                .map(|lane| (0..64).map(|_| lane.next_u64()).collect())
                .collect();
            assert!(
                draws[0].iter().all(|d| !draws[1].contains(d)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(12, 1.1);
        let mut rng = Rng::new(7);
        let mut counts = [0usize; 12];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[3] && counts[3] > counts[11]);
    }
}
