//! Deterministic random number generation.
//!
//! The kernel ships its own small generators instead of pulling `rand` into
//! every substrate: experiments need *stream splitting* (one independent
//! stream per session / per server) so that adding a source of randomness
//! does not perturb every other stream — the classic variance-reduction
//! discipline for discrete-event simulation.
//!
//! [`SplitMix64`] is the 64-bit finalizer-based generator from Steele,
//! Lea & Flood (OOPSLA'14); it is tiny, passes BigCrush when used as a
//! stream cipher of its counter, and supports cheap jump-free splitting.

/// SplitMix64: a 64-bit generator with splittable streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
    gamma: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix_gamma(z: u64) -> u64 {
    // Gamma values must be odd; additionally require a reasonable bit mix.
    let z = mix64(z) | 1;
    let n = (z ^ (z >> 1)).count_ones();
    if n < 24 {
        z ^ 0xAAAA_AAAA_AAAA_AAAA
    } else {
        z
    }
}

impl SplitMix64 {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed,
            gamma: GOLDEN_GAMMA,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(self.gamma);
        mix64(self.state)
    }

    /// The raw `(state, gamma)` pair — everything the generator is.
    /// Pairs with [`SplitMix64::from_state_parts`] so checkpoint/restore
    /// (e.g. a broker journal snapshot) resumes the stream mid-flight
    /// without replaying the draws that produced it.
    pub fn state_parts(&self) -> (u64, u64) {
        (self.state, self.gamma)
    }

    /// Rebuild a generator from a saved [`SplitMix64::state_parts`] pair.
    /// The restored stream continues exactly where the saved one stopped.
    pub fn from_state_parts(state: u64, gamma: u64) -> Self {
        SplitMix64 { state, gamma }
    }

    /// Split off a statistically independent child generator.
    ///
    /// The parent advances; the child's `(state, gamma)` pair is derived so
    /// its stream does not overlap the parent's in practice.
    pub fn split(&mut self) -> SplitMix64 {
        let state = self.next_u64();
        self.state = self.state.wrapping_add(self.gamma);
        let gamma = mix_gamma(self.state);
        SplitMix64 { state, gamma }
    }

    /// The child the `n`-th call of [`SplitMix64::split`] would return,
    /// counting from 0, without advancing this generator. Each split
    /// advances the parent by exactly two gamma steps, so this is O(1).
    pub fn split_nth(&self, n: u64) -> SplitMix64 {
        let skipped = n.wrapping_mul(2).wrapping_mul(self.gamma);
        SplitMix64 {
            state: self.state.wrapping_add(skipped),
            gamma: self.gamma,
        }
        .split()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be positive");
        // Lemire's multiply-shift rejection method (unbiased).
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: low < bound. Accept unless in biased region.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// A simulation-facing RNG with the distributions the experiments need.
///
/// Wraps [`SplitMix64`] and adds exponential, Poisson, normal-ish, Zipf and
/// choice helpers. All methods are deterministic functions of the stream.
#[derive(Debug, Clone)]
pub struct StreamRng {
    inner: SplitMix64,
}

impl StreamRng {
    /// Seeded stream.
    pub fn new(seed: u64) -> Self {
        StreamRng {
            inner: SplitMix64::new(seed),
        }
    }

    /// Split an independent child stream (e.g. one per simulated session).
    pub fn split(&mut self) -> StreamRng {
        StreamRng {
            inner: self.inner.split(),
        }
    }

    /// The `n`-th child [`StreamRng::split`] would return, without
    /// advancing this stream — see [`SplitMix64::split_nth`].
    pub fn split_nth(&self, n: u64) -> StreamRng {
        StreamRng {
            inner: self.inner.split_nth(n),
        }
    }

    /// The raw `(state, gamma)` pair of the underlying [`SplitMix64`] —
    /// see [`SplitMix64::state_parts`].
    pub fn state_parts(&self) -> (u64, u64) {
        self.inner.state_parts()
    }

    /// Rebuild a stream from a saved [`StreamRng::state_parts`] pair; the
    /// restored stream continues exactly where the saved one stopped.
    pub fn from_state_parts(state: u64, gamma: u64) -> Self {
        StreamRng {
            inner: SplitMix64::from_state_parts(state, gamma),
        }
    }

    /// Uniform in `[0,1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.next_f64()
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or bounds are non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.inner.next_below(bound)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo > hi");
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// # Panics
    /// Panics if `mean` is not positive and finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "exp: mean must be > 0");
        // Inverse CDF; guard against ln(0).
        let u = 1.0 - self.f64();
        -mean * u.ln()
    }

    /// Poisson-distributed count with the given rate `lambda`.
    ///
    /// Uses Knuth's product method for small lambda and a normal
    /// approximation (rounded, clamped at 0) above 30 — adequate for
    /// workload generation.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda.is_finite() && lambda >= 0.0, "poisson: bad lambda");
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let g = self.gaussian(lambda, lambda.sqrt());
            g.round().max(0.0) as u64
        }
    }

    /// Normally distributed value (Box–Muller, one draw discarded for
    /// statelessness).
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "gaussian: negative std_dev");
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Zipf-distributed index in `[0, n)` with exponent `s` (popularity skew
    /// for document selection). Uses inverse-CDF over precomputable weights;
    /// for the corpus sizes here (≤ tens of thousands) a linear scan is fine.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf: empty support");
        let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut u = self.f64() * h;
        for k in 1..=n {
            u -= 1.0 / (k as f64).powf(s);
            if u <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    /// Uniformly choose an element of a slice.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose: empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Choose an index according to non-negative weights.
    ///
    /// # Panics
    /// Panics if the weights are empty or sum to zero.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "choose_weighted: weights sum to zero");
        let mut u = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A zipf sampler with the cumulative weights precomputed once.
///
/// [`StreamRng::zipf`] re-sums the harmonic series and linear-scans on
/// every draw — O(n) per call, fine for a handful of draws over a small
/// support, quadratic poison for a city-scale arrival schedule (10⁶ draws
/// over a 10⁴-document catalog). This sampler pays O(n) once and O(log n)
/// per draw, and consumes exactly one uniform per draw just like
/// `StreamRng::zipf`, so swapping it in does not shift any later draws in
/// the stream.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Precompute cumulative weights for ranks `[0, n)` with exponent `s`.
    ///
    /// # Panics
    /// Panics on an empty support.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf: empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        ZipfSampler { cdf }
    }

    /// Draw a rank in `[0, n)`, consuming one uniform from `rng`.
    pub fn sample(&self, rng: &mut StreamRng) -> usize {
        let total = *self.cdf.last().expect("non-empty support");
        let u = rng.f64() * total;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_parent_advancement() {
        let mut parent1 = SplitMix64::new(7);
        let child1 = parent1.split();
        let mut parent2 = SplitMix64::new(7);
        let child2 = parent2.split();
        assert_eq!(child1, child2);
        // Child output differs from parent output.
        let mut c = child1;
        let mut p = parent1;
        let overlap = (0..64).filter(|_| c.next_u64() == p.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn split_nth_matches_sequential_splits() {
        for seed in [0, 1, 12, 0x6272_6f6b, u64::MAX] {
            let master = StreamRng::new(seed);
            let mut sequential = master.clone();
            for n in 0..10_000 {
                let child = sequential.split();
                assert_eq!(
                    master.split_nth(n).state_parts(),
                    child.state_parts(),
                    "seed {seed} split {n}"
                );
            }
        }
    }

    #[test]
    fn state_round_trip_resumes_the_stream_mid_flight() {
        let mut r = StreamRng::new(77);
        for _ in 0..100 {
            r.f64();
        }
        let (state, gamma) = r.state_parts();
        let mut restored = StreamRng::from_state_parts(state, gamma);
        for _ in 0..1000 {
            assert_eq!(r.below(1 << 40), restored.below(1 << 40));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut r = SplitMix64::new(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; allow ±6%.
            assert!((9_400..10_600).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn exp_mean_converges() {
        let mut r = StreamRng::new(5);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exp(2.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn poisson_mean_converges() {
        let mut r = StreamRng::new(6);
        for &lambda in &[0.5, 4.0, 50.0] {
            let n = 50_000;
            let sum: u64 = (0..n).map(|_| r.poisson(lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda={lambda} mean={mean}"
            );
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = StreamRng::new(8);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gaussian(10.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05);
        assert!((var - 9.0).abs() < 0.3);
    }

    #[test]
    fn zipf_is_skewed_toward_low_indices() {
        let mut r = StreamRng::new(9);
        let mut counts = [0u32; 20];
        for _ in 0..50_000 {
            counts[r.zipf(20, 1.0)] += 1;
        }
        assert!(counts[0] > counts[10] * 3);
        assert!(counts.iter().sum::<u32>() == 50_000);
    }

    #[test]
    fn zipf_sampler_matches_the_scan_draw_for_draw() {
        // Same seed, same support: the precomputed sampler must walk the
        // identical inverse-CDF (both accumulate the weights in rank
        // order, so the partial sums round identically).
        let mut scan = StreamRng::new(9);
        let mut fast = StreamRng::new(9);
        let sampler = ZipfSampler::new(20, 1.0);
        for _ in 0..50_000 {
            assert_eq!(sampler.sample(&mut fast), scan.zipf(20, 1.0));
        }
    }

    #[test]
    fn choose_weighted_matches_weights() {
        let mut r = StreamRng::new(10);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.choose_weighted(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio={ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = StreamRng::new(12);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn range_helpers() {
        let mut r = StreamRng::new(13);
        for _ in 0..1000 {
            let x = r.range_u64(5, 9);
            assert!((5..=9).contains(&x));
            let y = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&y));
        }
    }
}
