//! Shared log2-bucket histogram and pure-summation merge helpers.
//!
//! One implementation backs both the trace plane's latency histograms
//! ([`crate::trace::LatencyHistogram`] is an alias of [`Log2Histogram`])
//! and the coverage atlas's novelty-gap counters: every field is an
//! integer and merging is bucket-wise summation, so merges are exact,
//! commutative and associative — the property that makes partitioned
//! summaries byte-identical to serial ones.

use crate::json::{Codec, Json};

/// A log2-bucket histogram of non-negative integer samples. Bucket `k`
/// (k ≥ 1) counts samples in `[2^(k-1), 2^k)`; bucket 0 counts exact
/// zeros. All fields are integers, so merging (bucket-wise summation) is
/// exact and order-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.buckets[bucket_index(sample)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.max = self.max.max(sample);
    }

    /// Accumulates another histogram into this one (exact summation).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The non-empty buckets, as `(bucket index, lower bound, count)` in
    /// ascending order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, count)| **count > 0)
            .map(|(index, count)| (index, bucket_lower_bound(index), *count))
    }
}

/// A histogram travels as `{"count","sum","max","buckets":[[index,count],..]}`
/// with only the non-empty buckets. The decoder accepts exactly that: in-range,
/// strictly ascending, non-zero buckets whose counts sum to `count`.
impl Codec for Log2Histogram {
    fn encode(&self) -> Json {
        let buckets: Vec<(usize, u64)> = self.nonzero_buckets().map(|(i, _, n)| (i, n)).collect();
        let stats = [("count", self.count), ("sum", self.sum), ("max", self.max)];
        let stats = stats.into_iter().map(|(key, n)| (key, n.into()));
        Json::obj(stats.chain([("buckets", buckets.encode())]))
    }

    fn decode(json: &Json) -> Result<Log2Histogram, String> {
        let mut hist = Log2Histogram {
            sum: json.field("sum")?.as_u64()?,
            max: json.field("max")?.as_u64()?,
            ..Log2Histogram::default()
        };
        let mut next = 0;
        for (index, count) in Vec::<(usize, u64)>::decode(json.field("buckets")?)? {
            if index < next || index >= hist.buckets.len() || count == 0 {
                return Err(format!("bucket [{index},{count}] out of order or range"));
            }
            hist.buckets[index] = count;
            let total = hist.count.checked_add(count);
            hist.count = total.ok_or("bucket counts overflow")?;
            next = index + 1;
        }
        if hist.count != json.field("count")?.as_u64()? {
            return Err("bucket counts do not sum to count".to_string());
        }
        Ok(hist)
    }
}

/// Bucket index for a sample: its bit width (0 for an exact zero).
pub fn bucket_index(sample: u64) -> usize {
    if sample == 0 {
        0
    } else {
        (64 - sample.leading_zeros()) as usize
    }
}

/// Lower bound of a bucket: 0 for bucket 0, `2^(k-1)` for bucket k.
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for index in 1..=64usize {
            let low = bucket_lower_bound(index);
            assert_eq!(bucket_index(low), index);
        }
    }

    #[test]
    fn merge_is_exact_summation() {
        let mut a = Log2Histogram::default();
        let mut b = Log2Histogram::default();
        let mut all = Log2Histogram::default();
        for (target, sample) in [(0u8, 0u64), (0, 3), (1, 7), (1, 1024), (0, u64::MAX)] {
            if target == 0 {
                a.record(sample);
            } else {
                b.record(sample);
            }
            all.record(sample);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // Commutative: b.merge(a) gives the same result.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(other, all);
        assert_eq!(all.count(), 5);
        assert_eq!(all.max(), u64::MAX);
    }
}
