//! A lock-free log-bucketed latency histogram.
//!
//! The bucket layout is the classic HDR/log-linear scheme: values below
//! [`SUBBUCKETS`] land in exact unit buckets, and every binary octave above
//! that is split into [`SUBBUCKETS`] equal sub-buckets.  A recorded value is
//! therefore attributed to a bucket whose width is at most `value /
//! SUBBUCKETS`, which bounds the relative quantile error at `1 /
//! SUBBUCKETS` (12.5%) while covering the full `u64` range with
//! [`NUM_BUCKETS`] (496) fixed slots — small enough to keep one histogram
//! per pipeline stage, tier, and algorithm resident with no allocation on
//! the record path.
//!
//! Recording is a single `fetch_add` on the bucket plus `count`/`sum`
//! updates and a `fetch_max`/`fetch_min` for the exact extremes — no locks,
//! so every serving thread can stamp into the same histogram.  Reading is a
//! [`Histogram::snapshot`]: a plain-value copy that supports quantiles,
//! merging with other snapshots, and serialization by whoever owns the
//! wire format.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per binary octave (`2^SUB_BITS`).
const SUB_BITS: u32 = 3;

/// Number of sub-buckets every octave is split into; also the bound on the
/// denominator of the relative quantile error.
pub const SUBBUCKETS: u64 = 1 << SUB_BITS;

/// Total number of buckets covering the whole `u64` range.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUBBUCKETS as usize;

/// Maps a value to its bucket index.  Monotone: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
pub fn bucket_index(value: u64) -> usize {
    if value < SUBBUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let base = ((shift + 1) as usize) << SUB_BITS;
    base + ((value >> shift) - SUBBUCKETS) as usize
}

/// The smallest value attributed to bucket `index`.
pub fn bucket_low(index: usize) -> u64 {
    if index < SUBBUCKETS as usize {
        return index as u64;
    }
    let shift = (index >> SUB_BITS) as u32 - 1;
    let offset = (index & (SUBBUCKETS as usize - 1)) as u64;
    (SUBBUCKETS + offset) << shift
}

/// The largest value attributed to bucket `index`.
pub fn bucket_high(index: usize) -> u64 {
    if index < SUBBUCKETS as usize {
        return index as u64;
    }
    if index + 1 >= NUM_BUCKETS {
        return u64::MAX;
    }
    bucket_low(index + 1) - 1
}

/// A lock-free latency histogram with atomic log-linear buckets.
///
/// All recording methods take `&self` and are safe to call from any number
/// of threads concurrently; `snapshot` can run at any time and observes a
/// (possibly slightly torn, always monotone) view of the counters.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the fixed array through a Vec.
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .expect("NUM_BUCKETS-sized allocation");
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain-value copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect::<Vec<u64>>();
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
    min: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0 < q <= 1`): the upper bound of the first bucket
    /// whose cumulative count reaches `ceil(q * count)`, clamped to the
    /// exactly-tracked extremes.  Overestimates the true quantile by at most
    /// one bucket width (a `1/SUBBUCKETS` relative error).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_high(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self`.  Because the bucket geometry is fixed,
    /// merging snapshots is exact: the merged snapshot equals the snapshot
    /// of a histogram that recorded both streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        // The live histogram's sum wraps on overflow (atomic fetch_add);
        // wrap here too so a merge of partial snapshots reproduces the
        // pooled histogram bit for bit even on pathological value ranges.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Per-bucket counts, for exposition formats that want the full shape.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let probes = [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            100,
            1_000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = 0usize;
        for &v in &probes {
            let index = bucket_index(v);
            assert!(index < NUM_BUCKETS, "index {index} for {v}");
            assert!(index >= last, "bucket_index not monotone at {v}");
            last = index;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_exact_below_subbuckets() {
        for v in 0..SUBBUCKETS {
            let index = bucket_index(v);
            assert_eq!(bucket_low(index), v);
            assert_eq!(bucket_high(index), v);
        }
    }

    #[test]
    fn bucket_bounds_bracket_every_boundary() {
        // Probe both sides of every octave boundary and every sub-bucket
        // boundary in the first few octaves.
        let mut boundaries: Vec<u64> = Vec::new();
        for shift in 0..60u32 {
            for offset in 0..SUBBUCKETS {
                boundaries.push((SUBBUCKETS + offset) << shift);
            }
        }
        for &low in &boundaries {
            let index = bucket_index(low);
            assert_eq!(bucket_low(index), low, "lower bound of bucket at {low}");
            assert_eq!(
                bucket_index(bucket_high(index)),
                index,
                "upper bound stays inside the bucket at {low}"
            );
            if low > 0 {
                assert_eq!(
                    bucket_high(bucket_index(low - 1)),
                    low - 1,
                    "the value below a boundary closes the previous bucket"
                );
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Any value's bucket upper bound is within value/SUBBUCKETS + 1.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let high = bucket_high(bucket_index(v));
            assert!(high >= v);
            assert!(
                high - v <= v / SUBBUCKETS + 1,
                "bucket too wide at {v}: high {high}"
            );
            v = v.wrapping_mul(3).wrapping_add(7);
        }
    }

    #[test]
    fn quantiles_of_a_known_stream() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 100);
        // The p50 of 1..=100 is 50; log-bucket resolution may round up to
        // the bucket upper bound (at most 12.5% above).
        let p50 = s.p50();
        assert!((50..=57).contains(&p50), "p50 {p50}");
        let p99 = s.p99();
        assert!((99..=100).contains(&p99), "p99 {p99}");
        assert_eq!(s.quantile(1.0), 100);
    }

    #[test]
    fn empty_snapshot_reports_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s.p50(), 0);
    }

    #[test]
    fn merge_equals_pooled_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let pooled = Histogram::new();
        for v in [3u64, 9, 81, 6561, 43_046_721] {
            a.record(v);
            pooled.record(v);
        }
        for v in [1u64, 2, 4, 1_000_000, u64::MAX] {
            b.record(v);
            pooled.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, pooled.snapshot());
    }
}
