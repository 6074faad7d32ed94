//! Deterministic randomness for simulations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random source for scenario noise (sensor jitter, link variance).
///
/// Wrapping [`rand::rngs::StdRng`] behind a small API keeps every consumer on
/// the same deterministic stream and gives us the Gaussian sampler the
/// Cricket sensor model needs.
///
/// # Examples
///
/// ```
/// use mdagent_simnet::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform_u64(0, 100), b.uniform_u64(0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a random source from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream, e.g. one per sensor.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let seed = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(seed)
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Swaps the bounds if needed.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        self.inner.gen_range(lo..=hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if lo >= hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Gaussian sample via Box–Muller.
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Avoid ln(0) by keeping u1 strictly positive.
        let u1 = self.unit_f64().max(f64::MIN_POSITIVE);
        let u2 = self.unit_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.uniform_u64(0, 1000), b.uniform_u64(0, 1000));
        }
    }

    #[test]
    fn forks_are_independent_but_deterministic() {
        let mut root1 = SimRng::seed_from(7);
        let mut root2 = SimRng::seed_from(7);
        let mut f1 = root1.fork(1);
        let mut f2 = root2.fork(1);
        assert_eq!(f1.uniform_u64(0, 1 << 30), f2.uniform_u64(0, 1 << 30));
        let mut g = root1.fork(2);
        // Different salt gives a different stream with overwhelming likelihood.
        let same = (0..8).all(|_| f1.uniform_u64(0, 1 << 30) == g.uniform_u64(0, 1 << 30));
        assert!(!same);
    }

    #[test]
    fn gaussian_is_roughly_centred() {
        let mut rng = SimRng::seed_from(99);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| rng.gaussian(5.0, 2.0)).sum::<f64>() / n as f64;
        assert!(
            (mean - 5.0).abs() < 0.2,
            "sample mean {mean} too far from 5.0"
        );
    }

    #[test]
    fn uniform_bounds_are_inclusive_and_swapped() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            let v = rng.uniform_u64(10, 5);
            assert!((5..=10).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(7.0));
    }
}
