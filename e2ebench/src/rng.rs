//! The benchmark's own seeded generator (SplitMix64). Every input a run
//! feeds the program is drawn from a stream derived from `(seed, label,
//! index)`, so inputs are a pure function of the seed and independent of
//! how many passes a run manages to fit into its time budget.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// The stream for `(seed, label, index)`: `label` names the consumer
    /// (a phase or a setup repetition) and `index` the pass within it.
    pub fn derive(seed: u64, label: &str, index: u64) -> Rng {
        // Hashing the label keeps streams of different consumers apart.
        let h = fnv1a(label.as_bytes());
        Rng(mix(
            seed ^ mix(h ^ mix(index.wrapping_add(0x9e37_79b9_7f4a_7c15)))
        ))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..hi` (`hi > lo`).
    pub fn below(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform in `[lo, hi)`, rounded to `digits` decimals so that the
    /// value prints in SPPL source exactly as the references read it.
    pub fn real(&mut self, lo: f64, hi: f64, digits: i32) -> f64 {
        round(lo + self.f64() * (hi - lo), digits)
    }

    /// Standard normal draw (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.f64().max(1e-300);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Poisson draw by Knuth's method (small means only).
    pub fn poisson(&mut self, mu: f64) -> u64 {
        let limit = (-mu).exp();
        let mut k = 0;
        let mut p = self.f64();
        while p > limit {
            k += 1;
            p *= self.f64();
        }
        k
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `x` rounded to `digits` decimals.
pub fn round(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_their_key() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, "x", 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::derive(7, "x", 1);
        let first = r.next_u64();
        assert_ne!(first, r.next_u64());
        assert_ne!(first, Rng::derive(8, "x", 1).next_u64());
        assert_ne!(first, Rng::derive(7, "y", 1).next_u64());
        assert_ne!(first, Rng::derive(7, "x", 2).next_u64());
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = Rng::derive(1, "range", 0);
        for _ in 0..1000 {
            let u = r.f64();
            assert!((0.0..1.0).contains(&u));
            assert!((3..9).contains(&r.below(3, 9)));
            let x = r.real(-2.0, 2.0, 3);
            assert!((-2.0..=2.0).contains(&x));
            assert_eq!(x, round(x, 3));
        }
    }
}
