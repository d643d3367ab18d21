//! Batched sampling kernels: O(1) categorical draws and O(outcomes) shot
//! synthesis.
//!
//! The NISQ trial loop draws thousands to millions of outcomes from the same
//! distribution (one Born distribution per circuit, one confusion row per
//! ideal state). Two kernels remove the per-shot costs:
//!
//! * [`AliasSampler`] — Walker/Vose alias tables. One `O(2^n)` build per
//!   distribution, then every draw is O(1): one uniform index plus one
//!   biased coin. Replaces the `O(2^n)` linear CDF scan of
//!   `StateVector::sample` / `Distribution::sample` in shot loops.
//! * [`multinomial`] — synthesizes the *entire* histogram of `shots` draws
//!   in `O(outcomes)` time by sequential binomial splitting, with cost
//!   independent of the shot count. This is exact sampling (the synthesized
//!   histogram has precisely the multinomial distribution), not an
//!   approximation — see [`binomial`] for the two-regime sampler
//!   underneath.
//!
//! Both kernels consume the caller's RNG stream, so results are
//! deterministic per seed like every other sampling path in the workspace.

use rand::Rng;

/// A Walker/Vose alias table over `k` outcomes: O(k) to build from weights,
/// O(1) per sample.
///
/// # Examples
///
/// ```
/// use qsim::sampler::AliasSampler;
/// use rand::SeedableRng;
///
/// let sampler = AliasSampler::new(&[0.5, 0.25, 0.25]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut hist = [0u64; 3];
/// for _ in 0..10_000 {
///     hist[sampler.sample(&mut rng)] += 1;
/// }
/// assert!(hist[0] > hist[1] && hist[0] > hist[2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AliasSampler {
    /// Probability of keeping column `i` (vs. jumping to `alias[i]`).
    keep: Vec<f64>,
    alias: Vec<u32>,
}

/// Reusable work stacks for [`AliasSampler::rebuild`]: one pair serves
/// every table a trajectory loop rebuilds, so a rebuild allocates nothing
/// once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct AliasScratch {
    small: Vec<u32>,
    large: Vec<u32>,
}

impl AliasSampler {
    /// Builds the table from non-negative weights (not necessarily
    /// normalized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or longer than `u32::MAX`, contains a
    /// negative or non-finite weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        let mut sampler = AliasSampler {
            keep: Vec::new(),
            alias: Vec::new(),
        };
        sampler.rebuild(weights.iter().copied(), &mut AliasScratch::default());
        sampler
    }

    /// Rebuilds the table in place over `weights`, reusing its own buffers
    /// and `scratch`'s. A trajectory loop feeds it amplitude norms
    /// straight from a state, with no Born vector in between. The table is
    /// the one [`AliasSampler::new`] builds, bit for bit.
    ///
    /// # Panics
    ///
    /// As [`AliasSampler::new`].
    pub fn rebuild(&mut self, weights: impl IntoIterator<Item = f64>, scratch: &mut AliasScratch) {
        // `keep` first holds the weights, then the scaled weights Vose's
        // algorithm works on: each column's entry is final once the column
        // leaves the small stack, so the scaled copy needs no buffer of
        // its own.
        let weights = weights.into_iter();
        let keep = &mut self.keep;
        keep.clear();
        keep.reserve(weights.size_hint().0);
        let mut total = 0.0f64;
        for w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
            total += w;
            keep.push(w);
        }
        let k = keep.len();
        assert!(k >= 1, "alias table over no outcomes");
        assert!(k <= u32::MAX as usize, "too many outcomes");
        assert!(total > 0.0, "weights sum to zero");

        // Vose's algorithm: scale weights to mean 1, split into columns
        // below/above the mean, and pair each light column with a heavy
        // donor.
        let scale = k as f64 / total;
        let alias = &mut self.alias;
        alias.clear();
        alias.resize(k, 0);
        let AliasScratch { small, large } = scratch;
        small.clear();
        large.clear();
        for (i, p) in keep.iter_mut().enumerate() {
            *p *= scale;
            if *p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            // The donor gives away (1 - keep[s]) of its mass.
            keep[l as usize] -= 1.0 - keep[s as usize];
            if keep[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (float slack) keep their own column with certainty.
        for &i in small.iter().chain(large.iter()) {
            keep[i as usize] = 1.0;
            alias[i as usize] = i;
        }
    }

    /// The number of outcomes.
    #[inline]
    pub fn n_outcomes(&self) -> usize {
        self.keep.len()
    }

    /// Draws one outcome index in O(1).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // One u64 funds both the column choice and the coin; splitting it
        // would correlate them, so draw the coin separately.
        let col = rng.gen_range(0..self.keep.len());
        if rng.gen::<f64>() < self.keep[col] {
            col
        } else {
            self.alias[col] as usize
        }
    }
}

/// Samples a Binomial(n, p) variate exactly.
///
/// Two regimes, following Kachitvichyanukul & Schmeiser:
///
/// * small mean (`n·min(p,q) < 10`) — BINV, the sequential CDF inversion,
///   O(mean) per draw;
/// * large mean — BTPE, a rejection sampler over a four-piece envelope
///   (triangle / parallelograms / exponential tails), O(1) expected.
///
/// # Panics
///
/// Panics if `p` is not a probability.
pub fn binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    // Work with p ≤ 1/2 and mirror at the end.
    let flipped = p > 0.5;
    let p = if flipped { 1.0 - p } else { p };
    let np = n as f64 * p;
    let x = if np < 10.0 {
        binomial_inversion(n, p, rng)
    } else {
        binomial_btpe(n, p, rng)
    };
    if flipped {
        n - x
    } else {
        x
    }
}

/// BINV: invert the CDF by walking the probability mass from 0 upward.
/// Requires n·p small enough that `q^n` does not underflow (guaranteed by
/// the caller's `np < 10`, `p ≤ 1/2` regime split).
fn binomial_inversion<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let q = 1.0 - p;
    let s = p / q;
    let a = (n + 1) as f64 * s;
    loop {
        // P(X = 0) = q^n; the recurrence multiplies by (a/x - s) each step.
        let mut r = q.powf(n as f64);
        let mut u: f64 = rng.gen();
        let mut x = 0u64;
        loop {
            if u < r {
                return x;
            }
            if x >= n {
                // Accumulated float error exhausted the mass; resample.
                break;
            }
            u -= r;
            x += 1;
            r *= a / x as f64 - s;
        }
    }
}

/// The Stirling-series tail correction used in BTPE's final acceptance
/// test: `ln(k!) ≈ stirling(k) + …` remainder for the exact binomial pmf.
#[inline]
fn stirling_tail(v: f64) -> f64 {
    let sq = v * v;
    (13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / sq) / sq) / sq) / sq) / v / 166320.0
}

/// BTPE (Binomial Triangle-Parallelogram-Exponential) for n·p ≥ 10, p ≤ ½.
fn binomial_btpe<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let nf = n as f64;
    let r = p;
    let q = 1.0 - p;
    let npq = nf * r * q;
    let f_m = nf * r + r;
    let m = f_m.floor();
    // Envelope geometry (§3 of the paper): a central triangle over
    // [x_l, x_r], parallelogram shoulders, and exponential tails.
    let p1 = (2.195 * npq.sqrt() - 4.6 * q).floor() + 0.5;
    let x_m = m + 0.5;
    let x_l = x_m - p1;
    let x_r = x_m + p1;
    let c = 0.134 + 20.5 / (15.3 + m);
    let a_l = (f_m - x_l) / (f_m - x_l * r);
    let lambda_l = a_l * (1.0 + 0.5 * a_l);
    let a_r = (x_r - f_m) / (x_r * q);
    let lambda_r = a_r * (1.0 + 0.5 * a_r);
    let p2 = p1 * (1.0 + 2.0 * c);
    let p3 = p2 + c / lambda_l;
    let p4 = p3 + c / lambda_r;

    loop {
        let u: f64 = rng.gen::<f64>() * p4;
        let mut v: f64 = rng.gen();
        let y: f64;
        if u <= p1 {
            // Central triangle: accept immediately.
            y = (x_m - p1 * v + u).floor();
            return y.max(0.0) as u64;
        } else if u <= p2 {
            // Parallelogram shoulders.
            let x = x_l + (u - p1) / c;
            v = v * c + 1.0 - (m - x + 0.5).abs() / p1;
            if v > 1.0 || v <= 0.0 {
                continue;
            }
            y = x.floor();
        } else if u <= p3 {
            // Left exponential tail.
            y = (x_l + v.ln() / lambda_l).floor();
            if y < 0.0 {
                continue;
            }
            v *= (u - p2) * lambda_l;
        } else {
            // Right exponential tail.
            y = (x_r - v.ln() / lambda_r).floor();
            if y > nf {
                continue;
            }
            v *= (u - p3) * lambda_r;
        }

        // Acceptance: compare v against the pmf ratio f(y)/f(M).
        let k = (y - m).abs();
        if k <= 20.0 || k >= npq / 2.0 - 1.0 {
            // Small distance: evaluate the ratio by direct recurrence.
            let s = r / q;
            let a = s * (nf + 1.0);
            let mut f = 1.0;
            if m < y {
                let mut i = m;
                while i < y {
                    i += 1.0;
                    f *= a / i - s;
                }
            } else if m > y {
                let mut i = y;
                while i < m {
                    i += 1.0;
                    f /= a / i - s;
                }
            }
            if v <= f {
                return y as u64;
            }
        } else {
            // Squeeze test on log scale.
            let rho = (k / npq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / npq + 0.5);
            let t = -k * k / (2.0 * npq);
            let big_a = v.ln();
            if big_a < t - rho {
                return y as u64;
            }
            if big_a <= t + rho {
                // Full acceptance test with Stirling corrections.
                let x1 = y + 1.0;
                let f1 = m + 1.0;
                let z = nf + 1.0 - m;
                let w = nf - y + 1.0;
                let bound = x_m * (f1 / x1).ln()
                    + (nf - m + 0.5) * (z / w).ln()
                    + (y - m) * (w * r / (x1 * q)).ln()
                    + stirling_tail(f1)
                    + stirling_tail(z)
                    - stirling_tail(x1)
                    - stirling_tail(w);
                if big_a <= bound {
                    return y as u64;
                }
            }
        }
    }
}

/// Synthesizes the histogram of `shots` i.i.d. draws from the categorical
/// distribution `probs` by sequential binomial splitting, in
/// `O(probs.len())` time — independent of `shots`.
///
/// The output vector has `probs.len()` entries summing to exactly `shots`,
/// distributed as Multinomial(shots, probs). `probs` may be unnormalized;
/// it is normalized by its sum.
///
/// # Panics
///
/// Panics if `probs` is empty, contains a negative or non-finite entry, or
/// sums to zero.
///
/// # Examples
///
/// ```
/// use qsim::sampler::multinomial;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let hist = multinomial(&[0.7, 0.2, 0.1], 100_000, &mut rng);
/// assert_eq!(hist.iter().sum::<u64>(), 100_000);
/// assert!(hist[0] > hist[1] && hist[1] > hist[2]);
/// ```
pub fn multinomial<R: Rng + ?Sized>(probs: &[f64], shots: u64, rng: &mut R) -> Vec<u64> {
    assert!(!probs.is_empty(), "multinomial over no outcomes");
    let mut total = 0.0f64;
    for &p in probs {
        assert!(p.is_finite() && p >= 0.0, "invalid probability {p}");
        total += p;
    }
    assert!(total > 0.0, "probabilities sum to zero");

    let mut counts = vec![0u64; probs.len()];
    let mut remaining_shots = shots;
    let mut remaining_mass = total;
    for (i, &p) in probs.iter().enumerate() {
        if remaining_shots == 0 {
            break;
        }
        if p <= 0.0 {
            continue;
        }
        if p >= remaining_mass {
            // Last outcome with mass (up to float slack): takes the rest.
            counts[i] = remaining_shots;
            remaining_shots = 0;
            break;
        }
        // Conditional on the first i outcomes, shots land here w.p. p/rest.
        let drawn = binomial(remaining_shots, (p / remaining_mass).min(1.0), rng);
        counts[i] = drawn;
        remaining_shots -= drawn;
        remaining_mass -= p;
    }
    if remaining_shots > 0 {
        // Float slack starved the tail; give the leftovers to the largest
        // outcome so mass stays exact.
        let argmax = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
            .map(|(i, _)| i)
            .expect("probs is non-empty");
        counts[argmax] += remaining_shots;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED)
    }

    #[test]
    fn alias_matches_weights() {
        let weights = [4.0, 2.0, 1.0, 1.0, 0.0, 8.0];
        let total: f64 = weights.iter().sum();
        let sampler = AliasSampler::new(&weights);
        let mut r = rng();
        let n = 200_000;
        let mut hist = [0u64; 6];
        for _ in 0..n {
            hist[sampler.sample(&mut r)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / total;
            let got = hist[i] as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.005,
                "outcome {i}: {got} vs {expect}"
            );
        }
        assert_eq!(hist[4], 0, "zero-weight outcome sampled");
    }

    #[test]
    fn alias_single_outcome() {
        let sampler = AliasSampler::new(&[3.7]);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut r), 0);
        }
    }

    #[test]
    fn alias_point_mass() {
        let sampler = AliasSampler::new(&[0.0, 0.0, 1.0, 0.0]);
        let mut r = rng();
        for _ in 0..1000 {
            assert_eq!(sampler.sample(&mut r), 2);
        }
    }

    /// Vose's construction with a separate scaled copy, as `new` built
    /// it before tables were rebuilt in place.
    fn reference_table(weights: &[f64]) -> (Vec<f64>, Vec<u32>) {
        let k = weights.len();
        let total: f64 = weights.iter().fold(0.0, |t, &w| t + w);
        let scale = k as f64 / total;
        let mut keep = vec![0.0f64; k];
        let mut alias = vec![0u32; k];
        let (mut small, mut large) = (Vec::new(), Vec::new());
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            keep[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            keep[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        (keep, alias)
    }

    #[test]
    fn rebuilt_tables_equal_the_reference_bit_for_bit() {
        let mut r = rng();
        // One table and one scratch pair reused across every case, as a
        // trajectory loop reuses them.
        let mut reused = AliasSampler::new(&[1.0]);
        let mut scratch = AliasScratch::default();
        for case in 0..300 {
            let k = r.gen_range(1..200usize);
            let mut weights: Vec<f64> = (0..k)
                .map(|_| match r.gen_range(0..5) {
                    0 => 0.0,
                    1 => f64::MIN_POSITIVE * r.gen::<f64>(), // subnormal
                    2 => r.gen::<f64>() * 1e-300,
                    _ => r.gen::<f64>(),
                })
                .collect();
            if case % 7 == 0 {
                // A point mass.
                weights.iter_mut().for_each(|w| *w = 0.0);
            }
            let j = r.gen_range(0..k);
            weights[j] += r.gen::<f64>() + f64::MIN_POSITIVE;
            let (keep, alias) = reference_table(&weights);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let fresh = AliasSampler::new(&weights);
            assert_eq!(bits(&fresh.keep), bits(&keep), "case {case}");
            assert_eq!(fresh.alias, alias, "case {case}");
            reused.rebuild(weights.iter().copied(), &mut scratch);
            assert_eq!(reused, fresh, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn alias_rejects_zero_mass() {
        AliasSampler::new(&[0.0, 0.0]);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng();
        assert_eq!(binomial(0, 0.3, &mut r), 0);
        assert_eq!(binomial(100, 0.0, &mut r), 0);
        assert_eq!(binomial(100, 1.0, &mut r), 100);
        for _ in 0..100 {
            let x = binomial(1, 0.5, &mut r);
            assert!(x <= 1);
        }
    }

    #[test]
    fn binomial_moments_match_both_regimes() {
        // (n, p) pairs hitting BINV (np < 10), BTPE (np ≥ 10), and the
        // p > 1/2 mirror of each.
        let cases = [
            (40u64, 0.05f64),
            (40, 0.95),
            (1000, 0.004),
            (8192, 0.5),
            (8192, 0.9),
            (100_000, 0.37),
        ];
        let mut r = rng();
        let reps = 4000;
        for (n, p) in cases {
            let mut sum = 0.0;
            let mut sum_sq = 0.0;
            for _ in 0..reps {
                let x = binomial(n, p, &mut r) as f64;
                assert!(x <= n as f64);
                sum += x;
                sum_sq += x * x;
            }
            let mean = sum / reps as f64;
            let var = sum_sq / reps as f64 - mean * mean;
            let expect_mean = n as f64 * p;
            let expect_var = n as f64 * p * (1.0 - p);
            // Sample mean of `reps` draws has sd sqrt(var/reps); allow 5 sd.
            let mean_tol = 5.0 * (expect_var / reps as f64).sqrt();
            assert!(
                (mean - expect_mean).abs() < mean_tol.max(0.05),
                "n={n} p={p}: mean {mean} vs {expect_mean}"
            );
            assert!(
                (var / expect_var - 1.0).abs() < 0.15,
                "n={n} p={p}: var {var} vs {expect_var}"
            );
        }
    }

    #[test]
    fn binomial_distribution_matches_exact_pmf() {
        // Goodness-of-fit for a BTPE case small enough to enumerate.
        let (n, p) = (50u64, 0.4f64);
        let mut r = rng();
        let reps = 60_000u64;
        let mut hist = vec![0u64; n as usize + 1];
        for _ in 0..reps {
            hist[binomial(n, p, &mut r) as usize] += 1;
        }
        // Exact pmf by recurrence.
        let mut pmf = vec![0.0f64; n as usize + 1];
        pmf[0] = (1.0 - p).powi(n as i32);
        for k in 1..=n as usize {
            pmf[k] = pmf[k - 1] * (n as f64 - k as f64 + 1.0) / k as f64 * p / (1.0 - p);
        }
        for k in 0..=n as usize {
            let got = hist[k] as f64 / reps as f64;
            let sd = (pmf[k] * (1.0 - pmf[k]) / reps as f64).sqrt();
            assert!(
                (got - pmf[k]).abs() < 6.0 * sd + 1e-4,
                "k={k}: {got} vs {} (sd {sd})",
                pmf[k]
            );
        }
    }

    #[test]
    fn multinomial_preserves_shots_exactly() {
        let mut r = rng();
        for shots in [0u64, 1, 7, 100, 8192, 1_000_000] {
            let hist = multinomial(&[0.5, 0.3, 0.15, 0.05], shots, &mut r);
            assert_eq!(hist.iter().sum::<u64>(), shots);
        }
    }

    #[test]
    fn multinomial_matches_frequencies() {
        let probs = [0.45, 0.25, 0.2, 0.07, 0.03];
        let mut r = rng();
        let shots = 2_000_000u64;
        let hist = multinomial(&probs, shots, &mut r);
        for (i, &p) in probs.iter().enumerate() {
            let got = hist[i] as f64 / shots as f64;
            let sd = (p * (1.0 - p) / shots as f64).sqrt();
            assert!((got - p).abs() < 6.0 * sd, "outcome {i}: {got} vs {p}");
        }
    }

    #[test]
    fn multinomial_zero_and_point_outcomes() {
        let mut r = rng();
        let hist = multinomial(&[0.0, 1.0, 0.0], 500, &mut r);
        assert_eq!(hist, vec![0, 500, 0]);
        // Fewer shots than outcomes is fine.
        let hist = multinomial(&[1.0; 32], 8, &mut r);
        assert_eq!(hist.iter().sum::<u64>(), 8);
    }

    #[test]
    fn multinomial_deterministic_per_seed() {
        let probs = [0.3, 0.3, 0.2, 0.2];
        let a = multinomial(&probs, 10_000, &mut StdRng::seed_from_u64(11));
        let b = multinomial(&probs, 10_000, &mut StdRng::seed_from_u64(11));
        let c = multinomial(&probs, 10_000, &mut StdRng::seed_from_u64(12));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
