//! Numerical primitives: Gaussian sampling and the normal distribution.
//!
//! The sanctioned dependency set does not include `rand_distr` or a special
//! functions crate, so the few routines the Monte-Carlo engine needs are
//! implemented here: Box–Muller normal sampling, `erf`, the standard normal
//! CDF `Φ`, and its inverse (Acklam's rational approximation, |ε| < 1.15e-9).
//!
//! # Examples
//!
//! ```
//! use vlsi::math::{normal_cdf, normal_inv_cdf};
//!
//! let p = normal_cdf(1.96);
//! assert!((p - 0.975).abs() < 1e-3);
//! assert!((normal_inv_cdf(p) - 1.96).abs() < 1e-6);
//! ```

use rand::Rng;

/// Draws one standard-normal sample using the Box–Muller transform.
///
/// Uses the polar (Marsaglia) variant to avoid trig calls: candidates
/// from `polar_candidate` are drawn until one is accepted, and the
/// sample is `polar_normal` of it.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let (u, s) = polar_candidate(rng);
        if polar_accepts(s) {
            return polar_normal(u, s);
        }
    }
}

/// One candidate of the polar method: a uniform `u` on `[−1, 1)` and
/// `s = u² + v²` for a second such uniform `v`. It needs no `ln`, so a
/// batch kernel can draw and filter candidates ahead of the transform.
#[inline]
pub(crate) fn polar_candidate<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u = uniform_pm1(rng);
    let v = uniform_pm1(rng);
    (u, u * u + v * v)
}

/// `rng.gen_range(-1.0..1.0)`, bit for bit and draw for draw, without
/// the generic sampler's range checks and retry loop. The sampler maps
/// the top 52 bits of one `u64` to `x ∈ [1, 2)` and returns
/// `x · 2 + (−1 − 2)` unless that reaches the range's end, 1. Its largest
/// value is `1 − 2⁻⁵¹`, so it never retries. Sampling one chip draws
/// about 2.8 M of these, where the generic path's overhead shows.
#[inline]
fn uniform_pm1<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let x = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
    x * 2.0 + (-1.0 - 2.0)
}

/// Whether the polar method accepts a candidate with this `s`.
#[inline]
pub(crate) fn polar_accepts(s: f64) -> bool {
    s > 0.0 && s < 1.0
}

/// The polar method's scale `g(s) = √(−2 ln s / s)`, which decreases on
/// `(0, 1)`.
#[inline]
pub(crate) fn polar_scale(s: f64) -> f64 {
    (-2.0 * s.ln() / s).sqrt()
}

/// The standard normal an accepted polar candidate `(u, s)` yields.
#[inline]
pub(crate) fn polar_normal(u: f64, s: f64) -> f64 {
    u * polar_scale(s)
}

/// Draws a normal sample with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    mean + sigma * sample_standard_normal(rng)
}

/// Draws the *minimum* of `n` i.i.d. standard-normal samples directly.
///
/// Uses the order-statistic inverse-CDF identity: if `U ~ Uniform(0,1)` then
/// `Φ⁻¹(1 − U^(1/n))` has the distribution of `min(Z₁..Zₙ)`. This lets
/// worst-cell statistics over thousands of cells be sampled in O(1).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn sample_min_of_normals<R: Rng + ?Sized>(rng: &mut R, n: u64) -> f64 {
    assert!(n > 0, "n must be positive");
    let u: f64 = rng.gen_range(0.0f64..1.0);
    // P(min <= z) = 1 - (1 - Φ(z))^n; invert with survival = u^(1/n).
    let survival = u.powf(1.0 / n as f64);
    normal_inv_cdf(1.0 - survival.clamp(1e-300, 1.0 - 1e-16))
}

/// The error function, via the Abramowitz & Stegun 7.1.26 approximation
/// (|ε| ≤ 1.5e-7), extended to the full real line by odd symmetry.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Batched [`erf`] over a slice: `out[i] = erf(xs[i])`, written as a tight
/// loop over contiguous data so the polynomial part auto-vectorizes.
/// Bit-identical to the scalar function element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn erf_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "erf_slice length mismatch");
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = erf(x);
    }
}

/// Standard normal cumulative distribution function `Φ(z)`.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Batched [`normal_cdf`] over a slice: `out[i] = Φ(zs[i])`, bit-identical
/// to the scalar function element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn normal_cdf_slice(zs: &[f64], out: &mut [f64]) {
    assert_eq!(zs.len(), out.len(), "normal_cdf_slice length mismatch");
    for (o, &z) in out.iter_mut().zip(zs) {
        *o = normal_cdf(z);
    }
}

/// Inverse standard normal CDF (quantile function), Acklam's algorithm.
///
/// # Panics
///
/// Panics if `p` is outside the open interval `(0, 1)`.
pub fn normal_inv_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One step of Halley refinement for near-double precision.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Computed by a stable product loop (exact enough for n ≤ ~10⁶).
///
/// # Panics
///
/// Panics if `k > n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "k must not exceed n");
    let k = k.min(n - k);
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

/// Probability that a Binomial(n, p) variable is ≥ `k`, evaluated in log
/// space for numerical robustness with tiny `p`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn binomial_tail_ge(n: u64, k: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    // Sum the complement when the tail is the bulk.
    let mean = n as f64 * p;
    if (k as f64) < mean {
        // P(X >= k) = 1 - P(X <= k-1)
        let mut below = 0.0f64;
        for i in 0..k {
            below += (ln_choose(n, i)
                + i as f64 * p.ln()
                + (n - i) as f64 * (1.0 - p).ln())
            .exp();
        }
        return (1.0 - below).clamp(0.0, 1.0);
    }
    let mut tail = 0.0f64;
    for i in k..=n {
        let term = (ln_choose(n, i) + i as f64 * p.ln() + (n - i) as f64 * (1.0 - p).ln()).exp();
        tail += term;
        if term < tail * 1e-15 {
            break; // converged
        }
    }
    tail.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Expected value of the minimum of `n` i.i.d. standard normals
    /// (first-order extreme-value approximation): the analytic reference
    /// the sampled minima are checked against.
    fn expected_min_of_normals(n: u64) -> f64 {
        assert!(n > 1, "n must exceed 1");
        let n = n as f64;
        // Blom-style approximation of E[min] = -Φ⁻¹((n - 0.375)/(n + 0.25)).
        -normal_inv_cdf((n - 0.375) / (n + 0.25))
    }

    #[test]
    fn erf_known_values() {
        // The A&S 7.1.26 approximation is accurate to ~1.5e-7.
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
        assert!((erf(-1.0) + 0.8427007929).abs() < 2e-7);
        assert!((erf(2.0) - 0.9953222650).abs() < 2e-7);
        assert!(erf(6.0) > 0.999999);
    }

    #[test]
    fn cdf_symmetry_and_tails() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        for z in [-3.0, -1.5, -0.2, 0.7, 2.5] {
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-7);
        }
        assert!(normal_cdf(-8.0) < 1e-14);
        assert!(normal_cdf(8.0) > 1.0 - 1e-14);
    }

    #[test]
    fn inverse_cdf_round_trip() {
        for p in [1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6] {
            let z = normal_inv_cdf(p);
            assert!((normal_cdf(z) - p).abs() < 1e-7, "p={p} z={z}");
        }
    }

    #[test]
    #[should_panic(expected = "p must be in (0,1)")]
    fn inverse_cdf_rejects_boundary() {
        let _ = normal_inv_cdf(1.0);
    }

    #[test]
    fn uniform_pm1_is_gen_range_bit_for_bit() {
        /// Replays fixed words, to reach the ends of the bit range.
        struct Words(Vec<u64>);
        impl rand::RngCore for Words {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0.pop().expect("enough words")
            }
            fn fill_bytes(&mut self, _: &mut [u8]) {
                unreachable!()
            }
        }
        let edges = vec![0, 1, 1 << 12, (1 << 63) - 1, 1 << 63, u64::MAX - (1 << 12), u64::MAX];
        let (mut a, mut b) = (Words(edges.clone()), Words(edges.clone()));
        for _ in &edges {
            let want: f64 = b.gen_range(-1.0..1.0);
            assert_eq!(uniform_pm1(&mut a).to_bits(), want.to_bits());
        }
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = a.clone();
        for _ in 0..1_000_000 {
            let want: f64 = b.gen_range(-1.0..1.0);
            assert_eq!(uniform_pm1(&mut a).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn normal_samples_have_right_moments() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = sample_normal(&mut rng, 3.0, 2.0);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 3.0).abs() < 0.02, "mean={mean}");
        assert!((var - 4.0).abs() < 0.06, "var={var}");
    }

    #[test]
    fn min_sampling_matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n_cells = 512u64;
        let trials = 20_000;

        let mut direct = 0.0;
        for _ in 0..trials {
            direct += sample_min_of_normals(&mut rng, n_cells);
        }
        direct /= trials as f64;

        let mut brute = 0.0;
        for _ in 0..2_000 {
            let m = (0..n_cells)
                .map(|_| sample_standard_normal(&mut rng))
                .fold(f64::INFINITY, f64::min);
            brute += m;
        }
        brute /= 2_000.0;

        assert!(
            (direct - brute).abs() < 0.08,
            "direct={direct} brute={brute}"
        );
        // And both should sit near the analytic expectation.
        let analytic = -expected_min_of_normals(n_cells);
        assert!((direct + analytic).abs() < 0.08, "direct={direct} analytic={analytic}");
    }

    #[test]
    fn ln_choose_known_values() {
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_choose(10, 0)).abs() < 1e-12);
        assert!((ln_choose(10, 10)).abs() < 1e-12);
        // C(52, 5) = 2,598,960.
        assert!((ln_choose(52, 5) - 2_598_960f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn binomial_tail_matches_brute_force() {
        // Small case checked exactly: X ~ B(10, 0.3), P(X >= 4).
        let mut exact = 0.0;
        for i in 4..=10u64 {
            exact += (ln_choose(10, i) + (i as f64) * 0.3f64.ln() + ((10 - i) as f64) * 0.7f64.ln()).exp();
        }
        let got = binomial_tail_ge(10, 4, 0.3);
        assert!((got - exact).abs() < 1e-12);
        // Edges.
        assert_eq!(binomial_tail_ge(10, 0, 0.3), 1.0);
        assert_eq!(binomial_tail_ge(10, 11, 0.3), 0.0);
        assert_eq!(binomial_tail_ge(10, 3, 0.0), 0.0);
        assert_eq!(binomial_tail_ge(10, 3, 1.0), 1.0);
    }

    #[test]
    fn binomial_tail_handles_tiny_p() {
        // 1024 lines each failing with 1e-6: P(>= 1) ≈ n·p.
        let p = binomial_tail_ge(1024, 1, 1e-6);
        assert!((p - 1024e-6).abs() / 1024e-6 < 0.01, "p={p}");
    }

    #[test]
    fn expected_min_becomes_more_negative_with_n() {
        assert!(expected_min_of_normals(1000) < expected_min_of_normals(100));
        // ≈ −3.2σ for 1000 samples.
        let e = expected_min_of_normals(1000);
        assert!(e < -3.0 && e > -3.5, "e={e}");
    }
}
