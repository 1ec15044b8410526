//! RTOPK: the monochromatic reverse top-k baseline for 2-dimensional data.
//!
//! Vlachou et al. ("Monochromatic and bichromatic reverse top-k queries",
//! TKDE 2011) solve the `d = 2` special case of kSPR directly: with the
//! scoring function `a · r_1 + (1 - a) · r_2`, every competitor `r` switches
//! its order relative to the focal record `p` at a single value of `a`.
//! Sorting those switching values and sweeping `a` from 0 to 1 while
//! maintaining the number of records that outrank `p` yields the intervals of
//! `a` in which `p` is in the top-`k`.  The paper uses this method as the
//! RTOPK competitor in Figure 10(a); it does not extend beyond two
//! dimensions.

use crate::dataset::Dataset;
use crate::prep::{prepare, Prepared};
use crate::result::{KsprResult, Region};
use crate::stats::QueryStats;
use kspr_geometry::{Hyperplane, PreferenceSpace, Sign};

/// Runs the RTOPK sweep.
///
/// # Panics
/// Panics if the dataset is not 2-dimensional or `k == 0`.
pub fn run_rtopk(dataset: &Dataset, focal: &[f64], k: usize) -> KsprResult {
    assert_eq!(
        dataset.dim(),
        2,
        "RTOPK only applies to 2-dimensional data (Section 2 of the paper)"
    );
    assert_eq!(focal.len(), 2, "focal record must be 2-dimensional");
    let space = PreferenceSpace::transformed(2);
    let mut stats = QueryStats::new();

    // The same dominance-based preprocessing as the CellTree methods
    // (RTOPK "only considers records that neither dominate nor are dominated
    // by the focal record", Section 7.3).
    let filtered = match prepare(dataset, focal, k, &mut stats) {
        Prepared::Empty { .. } => return KsprResult::empty(space, stats),
        Prepared::WholeSpace { dominators } => {
            let mut r = KsprResult::whole_space(space, dominators + 1, stats);
            r.finalize();
            return r;
        }
        Prepared::Filtered(f) => f,
    };
    let k_eff = filtered.k_effective;

    // Sweep events: at `a`, the score difference of record r versus p is
    //   f(a) = (r2 - p2) + a * ((r1 - p1) - (r2 - p2)).
    // `delta` below is the slope; the switching value is where f crosses 0.
    #[derive(Debug)]
    struct Event {
        at: f64,
        /// +1 when the record starts beating p at `at`, -1 when it stops.
        change: i64,
    }
    let mut events: Vec<Event> = Vec::new();
    // Number of records beating p just after a = 0.
    let mut active: i64 = 0;

    for r in &filtered.records {
        stats.processed_records += 1;
        let d1 = r.values[0] - focal[0];
        let d2 = r.values[1] - focal[1];
        let slope = d1 - d2;
        if slope.abs() < 1e-12 {
            // Constant difference: after preprocessing it can only be ~0
            // (a tie), which is ignored.
            if d2 > 1e-12 {
                active += 1;
            }
            continue;
        }
        let switch = -d2 / slope;
        if d2 > 0.0 {
            // Beats p at a = 0.
            active += 1;
            if switch > 0.0 && switch < 1.0 {
                events.push(Event {
                    at: switch,
                    change: -1,
                });
            }
        } else if switch > 0.0 && switch < 1.0 {
            events.push(Event {
                at: switch,
                change: 1,
            });
        } else if switch <= 0.0 && slope > 0.0 {
            // Beats p over the whole (0, 1) range.
            active += 1;
        }
    }
    events.sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap_or(std::cmp::Ordering::Equal));

    // Sweep a from 0 to 1, collecting maximal intervals with rank <= k.
    let mut regions: Vec<Region> = Vec::new();
    let mut boundaries: Vec<f64> = vec![0.0];
    boundaries.extend(events.iter().map(|e| e.at));
    boundaries.push(1.0);

    let mut counts: Vec<i64> = Vec::with_capacity(boundaries.len() - 1);
    let mut current = active;
    counts.push(current);
    for e in &events {
        current += e.change;
        counts.push(current);
    }

    // Merge consecutive qualifying intervals into maximal regions.
    let mut interval_start: Option<(f64, i64)> = None;
    for i in 0..counts.len() {
        let lo = boundaries[i];
        let hi = boundaries[i + 1];
        let qualifies = (counts[i] as usize) < k_eff;
        match (qualifies, interval_start) {
            (true, None) => interval_start = Some((lo, counts[i])),
            (true, Some((_, best))) => {
                interval_start = Some((interval_start.unwrap().0, best.min(counts[i])));
            }
            (false, Some((start, best))) => {
                regions.push(interval_region(
                    start,
                    lo,
                    1 + best as usize + filtered.dominators,
                ));
                interval_start = None;
            }
            (false, None) => {}
        }
        if i == counts.len() - 1 {
            if let Some((start, best)) = interval_start {
                regions.push(interval_region(
                    start,
                    hi,
                    1 + best as usize + filtered.dominators,
                ));
                interval_start = None;
            }
        }
    }

    stats.result_regions = regions.len();
    let mut result = KsprResult {
        space,
        regions,
        stats,
    };
    result.finalize();
    result
}

/// A 1-dimensional region `start < w_1 < end` of the transformed space.
fn interval_region(start: f64, end: f64, rank: usize) -> Region {
    let mut halves = Vec::new();
    if start > 0.0 {
        halves.push((
            Hyperplane {
                coeffs: vec![1.0],
                rhs: start,
            },
            Sign::Positive,
        ));
    }
    if end < 1.0 {
        halves.push((
            Hyperplane {
                coeffs: vec![1.0],
                rhs: end,
            },
            Sign::Negative,
        ));
    }
    Region::new(rank, halves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::run_lpcta;
    use crate::config::KsprConfig;
    use crate::naive;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, seed: u64) -> (Dataset, Vec<Vec<f64>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let raw: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        (Dataset::new(raw.clone()), raw)
    }

    #[test]
    fn rtopk_matches_the_oracle() {
        let (dataset, raw) = random_dataset(200, 5);
        let focal = vec![0.7, 0.6];
        for k in [1, 5, 10] {
            let result = run_rtopk(&dataset, &focal, k);
            let agreement = naive::classification_agreement(&result, &raw, &focal, k, 500, 3);
            assert!(agreement > 0.995, "k={k}: agreement {agreement}");
        }
    }

    #[test]
    fn rtopk_and_lpcta_cover_the_same_preferences() {
        let (dataset, _raw) = random_dataset(150, 9);
        let focal = vec![0.6, 0.7];
        let config = KsprConfig::default();
        let a = run_rtopk(&dataset, &focal, 5);
        let b = run_lpcta(&dataset, &focal, 5, &config);
        for i in 1..100 {
            let w = vec![i as f64 / 100.0];
            assert_eq!(a.contains(&w), b.contains(&w), "w1 = {}", w[0]);
        }
    }

    #[test]
    fn interval_region_membership() {
        let r = interval_region(0.2, 0.6, 2);
        let space = PreferenceSpace::transformed(2);
        assert!(r.contains(&[0.4], &space));
        assert!(!r.contains(&[0.1], &space));
        assert!(!r.contains(&[0.7], &space));
    }

    #[test]
    #[should_panic(expected = "2-dimensional")]
    fn rejects_higher_dimensional_data() {
        let dataset = Dataset::new(vec![vec![0.1, 0.2, 0.3]]);
        run_rtopk(&dataset, &[0.1, 0.2, 0.3], 1);
    }
}
