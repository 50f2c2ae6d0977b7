//! Log-bucketed streaming histogram for latency quantiles.

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantile error
/// at `2^-SUB_BITS` (~3%).
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// A fixed-memory histogram with HDR-style log2 buckets: exact for values
/// below 32, and within ~3% relative error above, regardless of how many
/// samples are recorded. Replaces store-and-sort quantile math.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for StreamingHistogram {
    fn default() -> StreamingHistogram {
        StreamingHistogram::new()
    }
}

/// Bucket index of `v`: identity below `SUB_BUCKETS`, then
/// `(octave, top SUB_BITS mantissa bits)`.
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let offset = (v >> (octave - SUB_BITS)) - SUB_BUCKETS; // 0..SUB_BUCKETS
    (((octave - SUB_BITS + 1) as u64 * SUB_BUCKETS) + offset) as usize
}

/// Smallest value mapping to `bucket` (inverse of [`bucket_of`]).
fn bucket_lower(bucket: usize) -> u64 {
    let b = bucket as u64;
    if b < SUB_BUCKETS {
        return b;
    }
    let octave = (b / SUB_BUCKETS - 1) + SUB_BITS as u64;
    let offset = b % SUB_BUCKETS;
    (SUB_BUCKETS + offset) << (octave - SUB_BITS as u64)
}

/// Largest value mapping to `bucket`.
fn bucket_upper(bucket: usize) -> u64 {
    if (bucket as u64) < SUB_BUCKETS {
        return bucket as u64;
    }
    bucket_lower(bucket + 1) - 1
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> StreamingHistogram {
        StreamingHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.count += 1;
        // Saturating: a replayed log may carry any `u64` as a sample.
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound of the
    /// bucket holding the q-th sample, so within one bucket width (~3%)
    /// of the exact order statistic. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based, matching
        // `sorted[ceil(q * n) - 1]` nearest-rank semantics.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`StreamingHistogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (see [`StreamingHistogram::quantile`]).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (see [`StreamingHistogram::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (b, &c) in other.counts.iter().enumerate() {
            self.counts[b] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as raw `(bucket index, count)` pairs — the exact
    /// internal representation, for codecs that must round-trip the
    /// histogram bit-identically (see [`StreamingHistogram::from_raw`]).
    pub fn raw_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b as u64, c))
    }

    /// Rebuild a histogram from its exact parts: `sum`, `min`, `max`, and
    /// the non-empty raw `(bucket index, count)` pairs, as produced by
    /// [`StreamingHistogram::sum`]/[`StreamingHistogram::min`]/
    /// [`StreamingHistogram::max`]/[`StreamingHistogram::raw_buckets`].
    /// The result compares equal to the original. Empty pairs rebuild the
    /// empty histogram regardless of the scalar arguments. `None` when the
    /// pairs are no histogram's: a bucket index past the one `u64::MAX`
    /// falls in, or counts that overflow.
    pub fn from_raw(
        sum: u64,
        min: u64,
        max: u64,
        pairs: &[(u64, u64)],
    ) -> Option<StreamingHistogram> {
        let mut h = StreamingHistogram::new();
        for &(b, c) in pairs {
            let b = usize::try_from(b)
                .ok()
                .filter(|&b| b <= bucket_of(u64::MAX))?;
            if b >= h.counts.len() {
                h.counts.resize(b + 1, 0);
            }
            h.counts[b] = h.counts[b].checked_add(c)?;
            h.count = h.count.checked_add(c)?;
        }
        if h.count > 0 {
            h.sum = sum;
            h.min = min;
            h.max = max;
        }
        Some(h)
    }

    /// Non-empty buckets as `(lower, upper, count)` triples.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (bucket_lower(b), bucket_upper(b), c))
    }

    /// JSON object with summary stats and the non-empty buckets.
    pub fn to_json(&self) -> String {
        let mut buckets = String::new();
        for (i, (lo, hi, c)) in self.buckets().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            buckets.push_str(&format!("[{lo},{hi},{c}]"));
        }
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.p50(),
            self.p99(),
            buckets
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn buckets_are_a_partition() {
        // Consecutive buckets tile the integers with no gaps or overlaps.
        let mut expected_lower = 0u64;
        for b in 0..500 {
            assert_eq!(bucket_lower(b), expected_lower, "bucket {b}");
            assert!(bucket_upper(b) >= bucket_lower(b));
            expected_lower = bucket_upper(b) + 1;
        }
        // And bucket_of maps boundaries back to their own bucket.
        for b in 0..500 {
            assert_eq!(bucket_of(bucket_lower(b)), b);
            assert_eq!(bucket_of(bucket_upper(b)), b);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = StreamingHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for v in 0..32u64 {
            // Quantile hitting each sample returns it exactly.
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(h.quantile(q), v);
        }
    }

    #[test]
    fn zero_latency_sits_on_the_first_bucket_boundary() {
        // A zero-cycle delivery (value 0) is a legal sample and must land
        // in the very first bucket, not underflow or vanish.
        let mut h = StreamingHistogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 0);
        let buckets: Vec<(u64, u64, u64)> = h.buckets().collect();
        assert_eq!(buckets.len(), 1);
        let (lower, upper, count) = buckets[0];
        assert_eq!((lower, count), (0, 10));
        assert!(upper >= lower);
        // One non-zero sample shifts only the top quantile.
        h.record(1);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 1);
        assert_eq!(h.max(), 1);
        assert!(crate::obs::json::validate(&h.to_json()));
    }

    #[test]
    fn quantiles_match_exact_within_bucket_error() {
        // Streaming quantiles vs exact sorted order statistics across
        // several random distributions: relative error bounded by the
        // sub-bucket width (2^-5), plus exact min/max/mean/count.
        let mut rng = StdRng::seed_from_u64(0x4157);
        for case in 0..20 {
            let n = 1_000 + case * 137;
            let mut h = StreamingHistogram::new();
            let mut exact: Vec<u64> = Vec::with_capacity(n);
            for _ in 0..n {
                // Skewed latency-like distribution over ~4 decades.
                let base = rng.gen_range(1u64..100);
                let scale = 10u64.pow(rng.gen_range(0u32..4));
                let v = base * scale;
                h.record(v);
                exact.push(v);
            }
            exact.sort_unstable();
            assert_eq!(h.count(), n as u64);
            assert_eq!(h.min(), exact[0]);
            assert_eq!(h.max(), *exact.last().unwrap());
            assert_eq!(h.sum(), exact.iter().sum::<u64>());
            for &q in &[0.01, 0.25, 0.50, 0.90, 0.99, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
                let truth = exact[rank];
                let est = h.quantile(q);
                // Upper bound of the bucket holding the true sample.
                assert!(est >= truth, "q={q}: est {est} < truth {truth}");
                let bound = truth + truth / 32 + 1;
                assert!(
                    est <= bound,
                    "q={q}: est {est} > bound {bound} (truth {truth})"
                );
            }
        }
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        let mut all = StreamingHistogram::new();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..500u64 {
            let v = rng.gen_range(0u64..100_000);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn raw_buckets_round_trip_exactly() {
        let mut h = StreamingHistogram::new();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..2_000 {
            h.record(rng.gen_range(0u64..1_000_000));
        }
        let pairs: Vec<(u64, u64)> = h.raw_buckets().collect();
        let back = StreamingHistogram::from_raw(h.sum(), h.min(), h.max(), &pairs).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.p90(), h.p90());
        // Empty round trip: no pairs rebuilds the pristine empty state.
        let empty = StreamingHistogram::from_raw(0, 0, 0, &[]).unwrap();
        assert_eq!(empty, StreamingHistogram::new());
    }

    #[test]
    fn p90_sits_between_p50_and_p99() {
        let mut h = StreamingHistogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        // Nearest-rank p90 of 1..=1000 is 900; bucketed answer is the
        // holding bucket's upper bound, within ~3%.
        assert!(h.p90() >= 900 && h.p90() <= 930, "p90={}", h.p90());
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = StreamingHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.to_json().contains("\"count\":0"));
    }

    #[test]
    fn json_is_valid() {
        let mut h = StreamingHistogram::new();
        for v in [1u64, 5, 700, 700, 12_345] {
            h.record(v);
        }
        let j = h.to_json();
        assert!(crate::obs::json::validate(&j), "{j}");
    }
}
