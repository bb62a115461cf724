//! Seeded samplers. The harness owns its generator so that an op
//! sequence depends on the seed alone, never on a library's stream.

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`, so that e.g. pass 7 of a
    /// workload draws the same values however many passes ran before it.
    pub fn for_stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_f64() * n as f64) as usize
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `k` has weight
/// `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over nothing");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let draw = |seed| {
            let mut rng = Rng::for_stream(seed, 3);
            let zipf = Zipf::new(40, 1.1);
            (0..500)
                .map(|_| (rng.below(17), zipf.sample(&mut rng)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn streams_of_one_seed_differ() {
        let a = Rng::for_stream(42, 0).next_u64();
        let b = Rng::for_stream(42, 1).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_covers_its_range() {
        let mut rng = Rng::for_stream(1, 0);
        let mut seen = [0u32; 8];
        for _ in 0..8000 {
            seen[rng.below(8)] += 1;
        }
        assert!(seen.iter().all(|&c| (800..1200).contains(&c)), "{seen:?}");
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = Rng::for_stream(7, 0);
        let mut head = 0;
        for _ in 0..10_000 {
            let k = zipf.sample(&mut rng);
            assert!(k < 100);
            if k < 10 {
                head += 1;
            }
        }
        // The ten most popular of 100 ranks carry ≈ 60% of the mass.
        assert!((5000..7000).contains(&head), "{head}");
    }
}
