//! Exact order statistics over raw sample vectors, and the seeded
//! generators every workload draws its inputs from.

/// One percentile read from a sorted sample: its value and how many
/// samples lie strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending sample:
/// the smallest value with at least `q * n` samples at or below it.
/// `None` on an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
    Some(Quantile { value, beyond })
}

/// Sorts a sample ascending (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of `sample`, or an error naming `what` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the percentile is then not
/// supported by the sample and no number is printed for it).
pub fn supported(sample: &[f64], q: f64, what: &str) -> Result<Quantile, String> {
    let s = sorted(sample.to_vec());
    match quantile(&s, q) {
        Some(p) if p.beyond >= MIN_BEYOND => Ok(p),
        Some(p) => Err(format!(
            "{what}: p{} has {} samples beyond it (n={}), fewer than {MIN_BEYOND}",
            q * 100.0,
            p.beyond,
            s.len()
        )),
        None => Err(format!("{what}: no samples")),
    }
}

/// The median of a non-empty sample (nearest rank, so it is always one of
/// the measured values).
pub fn median(sample: &[f64]) -> f64 {
    quantile(&sorted(sample.to_vec()), 0.5).map_or(0.0, |q| q.value)
}

/// SplitMix64: a tiny, seedable, statistically sound generator. Every
/// input a workload generates comes from one of these, seeded from
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `(seed, stream)`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
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

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// A Zipf(`s`) distribution over `n` items whose popularity order is a
/// seeded permutation: rank `r` (0 = most popular) has probability
/// proportional to `1 / (r + 1)^s`, and `order[r]` is the item at that rank.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            cdf,
            order: rng.permutation(n),
        }
    }

    /// The item at popularity rank `rank`.
    pub fn item_at_rank(&self, rank: usize) -> usize {
        self.order[rank]
    }

    /// Draws one item.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.order[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_sample_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5).unwrap().value, 50.0);
        assert_eq!(quantile(&s, 0.95).unwrap().value, 95.0);
        assert_eq!(quantile(&s, 0.99).unwrap().value, 99.0);
        assert_eq!(quantile(&s, 1.0).unwrap().value, 100.0);
        assert_eq!(quantile(&s, 0.001).unwrap().value, 1.0);
        assert_eq!(quantile(&[7.0], 0.99).unwrap().value, 7.0);
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn beyond_counts_strictly_greater_samples_and_ties_stay_below() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.95).unwrap().beyond, 5);
        assert_eq!(quantile(&s, 0.5).unwrap().beyond, 50);
        let tied = [1.0, 2.0, 2.0, 2.0, 3.0];
        let q = quantile(&tied, 0.5).unwrap();
        assert_eq!((q.value, q.beyond), (2.0, 1));
    }

    #[test]
    fn unsupported_percentiles_are_refused() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(supported(&s, 0.99, "x").is_err(), "1 beyond p99 of 100");
        assert!(supported(&s, 0.90, "x").is_ok(), "10 beyond p90 of 100");
        let big: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let p = supported(&big, 0.99, "x").unwrap();
        assert_eq!((p.value, p.beyond), (989.0, 10));
        assert!(supported(&[], 0.5, "x").is_err());
    }

    #[test]
    fn median_of_unsorted_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(7, 2).next_u64());
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(8, 1).next_u64());
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        let mut p = Rng::new(9).permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_follows_its_rank_law_under_a_seeded_order() {
        let n = 64;
        let z = Zipf::new(n, 1.0, &mut Rng::new(1));
        let same = Zipf::new(n, 1.0, &mut Rng::new(1));
        let other = Zipf::new(n, 1.0, &mut Rng::new(2));
        assert_eq!(z.order, same.order, "same seed, same popularity order");
        assert_ne!(z.order, other.order, "the seed permutes the order");

        let draws = 200_000;
        let mut counts = vec![0u64; n];
        let mut rng = Rng::new(11);
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        for rank in [0, 1, 3, 15] {
            let want = draws as f64 / ((rank + 1) as f64 * harmonic);
            let got = counts[z.item_at_rank(rank)] as f64;
            assert!(
                (got - want).abs() < 0.05 * want,
                "rank {rank}: {got} draws, expected about {want}"
            );
        }
        let head = counts[z.item_at_rank(0)];
        let tail = counts[z.item_at_rank(n - 1)];
        assert!(head > 40 * tail, "head {head} vs tail {tail}");
        assert_eq!(counts.iter().sum::<u64>(), draws);
    }
}
