//! # kspr-approx — the guaranteed-error approximate query tier
//!
//! The paper's conclusion names "approximate kSPR algorithms, with accuracy
//! guarantees, for the purpose of faster processing" as its future-work
//! direction.  This crate is that tier: instead of the exact region
//! decomposition, a query is answered with a **market-impact estimate**
//! whose two-sided confidence interval meets a caller-specified
//! [`ErrorBudget`] (`epsilon`, `confidence`) — the sample count is derived
//! from the Hoeffding bound, so the guarantee is distribution-free.
//!
//! ## Why sampling wins where the exact engine loses
//!
//! The exact algorithms build (part of) an arrangement of up to
//! `candidates^work_dim` cells; the estimator's cost is
//! `O(samples · candidates)` and **independent of the arrangement
//! complexity**.  Large `k`, high dimensionality and anti-correlated data —
//! exactly the settings that blow the arrangement up — leave the sampling
//! cost untouched.
//!
//! ## The two pillars
//!
//! * [`ApproxEngine`] — a sampler over an **epoch-consistent dataset
//!   snapshot**.  Construction captures the dataset handle (copy-on-write
//!   protected: concurrent inserts/deletes cannot skew an in-flight
//!   estimate) and, when built [`ApproxEngine::from_engine`], restricts the
//!   per-sample probes to the engine's cached dataset-level k-skyband — a
//!   **result-preserving** pruning: a record outside the band has at least
//!   `k` band dominators, and wherever it outscores the focal record they
//!   all do, so the top-`k` membership indicator is pointwise identical on
//!   the band and on the full dataset (the same witness argument behind the
//!   `kspr-serve` shard merge).
//! * **Batched estimation** — [`ApproxEngine::estimate_batch`] shares the
//!   per-sample work across a whole batch of focal records: one sweep
//!   computes every candidate's score and the `k`-th largest score per
//!   sample (`O(samples · candidates)`), after which each focal record's
//!   top-`k` probe is a single dot product and comparison
//!   (`O(samples · batch · d)`), instead of `O(batch · samples ·
//!   candidates)` for independent estimates.  Batched results are
//!   bit-identical to single-query estimates under the same seed.
//!
//! Tier routing lives in the `kspr-serve` dispatcher, which applies
//! [`kspr::QueryTier::resolve`] per request: `Exact` runs the exact engine,
//! `Approximate` always samples, and `Auto` compares [`estimated_cost`]
//! (`band^work_dim`) against its threshold, keeping cheap small-`k` /
//! low-`d` queries exact while sending arrangement-bound ones to the
//! sampler.  The answer of such a dispatch is a [`TieredResult`].
//!
//! ```
//! use kspr::{Algorithm, Dataset, ErrorBudget, KsprConfig, QueryEngine, QueryTier};
//! use kspr_approx::{estimated_cost, ApproxEngine, TieredResult};
//!
//! let dataset = Dataset::new(vec![
//!     vec![0.3, 0.8, 0.8],
//!     vec![0.9, 0.4, 0.4],
//!     vec![0.8, 0.3, 0.4],
//!     vec![0.4, 0.3, 0.6],
//! ]);
//! let engine = QueryEngine::new(&dataset, KsprConfig::default());
//! let budget = ErrorBudget::new(0.05, 0.95);
//! let (focal, k) = ([0.5, 0.5, 0.7], 3);
//!
//! // A threshold of zero routes every non-trivial `Auto` query to sampling.
//! let tier = QueryTier::Auto { budget, cost_threshold: 0.0 };
//! let answer = match tier.resolve(|| estimated_cost(&engine, k)) {
//!     None => TieredResult::Exact(engine.run(Algorithm::LpCta, &focal, k)),
//!     // The sampler runs over a stable snapshot of the engine's dataset.
//!     Some(budget) => TieredResult::Approximate(
//!         ApproxEngine::from_engine(&engine, k).estimate(&focal, &budget, 42),
//!     ),
//! };
//! let estimate = answer.as_approximate().expect("the cost exceeds zero");
//! assert!(estimate.half_width <= budget.epsilon);
//! assert!(estimate.covers(estimate.impact));
//! ```

use kspr::{ApproxImpact, ColumnarBlock, Dataset, ErrorBudget};
use kspr::{KsprResult, QueryEngine, RecordId};
use kspr_geometry::{dot, PreferenceSpace};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

pub use kspr::approximate::{hoeffding_half_width, samples_for_accuracy};

/// Score-comparison tolerance of the top-`k` probe.  Must match
/// `kspr::naive::rank_of` (a record outranks the focal record only when its
/// score exceeds the focal score by more than this), so sampling decisions
/// agree bit-for-bit with the brute-force oracle.
const TIE_EPS: f64 = 1e-12;

/// Answer of a tier-dispatched query: the exact region decomposition, or a
/// budgeted impact estimate.
#[derive(Debug, Clone)]
pub enum TieredResult {
    /// The exact engine ran: full paper semantics.
    Exact(KsprResult),
    /// The sampler ran: an impact estimate with a Hoeffding interval.
    Approximate(ApproxImpact),
}

impl TieredResult {
    /// The estimate, if this query ran approximately.
    pub fn as_approximate(&self) -> Option<&ApproxImpact> {
        match self {
            TieredResult::Exact(_) => None,
            TieredResult::Approximate(estimate) => Some(estimate),
        }
    }

    /// True iff the exact engine answered.
    pub fn is_exact(&self) -> bool {
        matches!(self, TieredResult::Exact(_))
    }
}

/// Arrangement-size estimate for `candidates` record hyperplanes in a
/// `work_dim`-dimensional working space: `candidates^work_dim`, the
/// asymptotic cell count of a hyperplane arrangement.  This is what the
/// `Auto` tier compares against its `cost_threshold`.
pub fn arrangement_cost(candidates: usize, work_dim: usize) -> f64 {
    (candidates.max(1) as f64).powi(work_dim as i32)
}

/// The engine-level `Auto`-tier cost estimate: the arrangement-size bound of
/// the dataset-level k-skyband (served from the engine's shared-prep cache,
/// so repeated routing decisions are O(1)).  Only band members can
/// contribute hyperplanes to any query's arrangement (Lemma 6 / Appendix B),
/// which makes the band size the focal-independent proxy for how expensive
/// the exact engine can get at this `(dataset, k, d)`.
pub fn estimated_cost(engine: &QueryEngine, k: usize) -> f64 {
    let dataset = engine.dataset();
    if dataset.is_empty() {
        return 0.0;
    }
    let band = engine.shared_prep_for(k).skyband().len();
    let work_dim = PreferenceSpace::new(dataset.dim(), engine.config().space).work_dim();
    arrangement_cost(band, work_dim)
}

/// A Monte-Carlo kSPR sampler over an epoch-consistent dataset snapshot.
///
/// Construction copies the candidate attribute values into an owned columnar
/// (structure-of-arrays) block: the sampler holds no reference into the live
/// dataset, so a mutable [`kspr::DatasetStore`] (or [`QueryEngine`]) that
/// applies inserts/deletes while an `ApproxEngine` is alive can never skew
/// an estimate half-way through its sample stream — every estimate reflects
/// exactly the records that were live at construction time.  The per-sample
/// scoring sweep is one [`ColumnarBlock::scores_into`] call — a contiguous
/// dot-product kernel per attribute column, bit-identical to the row-major
/// loop it replaced.
pub struct ApproxEngine {
    /// Candidate attribute values, column-major — all live records, or the
    /// result-preserving k-skyband subset.
    block: ColumnarBlock,
    dim: usize,
    space: PreferenceSpace,
    k: usize,
}

impl ApproxEngine {
    /// A sampler over every live record of `dataset`, in the transformed
    /// preference space.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn from_dataset(dataset: &Dataset, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let candidates: Vec<RecordId> = dataset.live_records().map(|r| r.id).collect();
        Self::over_candidates(
            dataset,
            &candidates,
            PreferenceSpace::transformed(dataset.dim()),
            k,
        )
    }

    /// A sampler over the engine's dataset snapshot, restricted to the
    /// cached dataset-level k-skyband — the result-preserving candidate
    /// pruning (see the module docs) that typically shrinks the per-sample
    /// probe from all `n` records to a few hundred band members.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn from_engine(engine: &QueryEngine, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let dataset = engine.dataset();
        let candidates = if dataset.is_empty() {
            Vec::new()
        } else {
            engine.shared_prep_for(k).skyband().to_vec()
        };
        let space = PreferenceSpace::new(dataset.dim(), engine.config().space);
        Self::over_candidates(dataset, &candidates, space, k)
    }

    fn over_candidates(
        dataset: &Dataset,
        candidates: &[RecordId],
        space: PreferenceSpace,
        k: usize,
    ) -> Self {
        let dim = dataset.dim();
        let block = ColumnarBlock::from_rows(dim, candidates.iter().map(|&id| dataset.values(id)));
        Self {
            block,
            dim,
            space,
            k,
        }
    }

    /// The rank threshold the sampler probes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidate records each sample scores.
    pub fn num_candidates(&self) -> usize {
        self.block.len()
    }

    /// The preference space samples are drawn from.
    pub fn space(&self) -> PreferenceSpace {
        self.space
    }

    /// Estimates the market impact of one focal record to the budget.
    pub fn estimate(&self, focal: &[f64], budget: &ErrorBudget, seed: u64) -> ApproxImpact {
        self.estimate_batch(std::slice::from_ref(&focal.to_vec()), budget, seed)
            .pop()
            .expect("one focal in, one estimate out")
    }

    /// Estimates the market impact of every focal record in `focals` to the
    /// budget, through one shared sampling sweep (see the module docs); the
    /// results are bit-identical to estimating each focal record alone with
    /// the same seed.
    ///
    /// # Panics
    /// Panics if any focal arity does not match the dataset.
    pub fn estimate_batch(
        &self,
        focals: &[Vec<f64>],
        budget: &ErrorBudget,
        seed: u64,
    ) -> Vec<ApproxImpact> {
        let samples = budget.samples();
        // Validates the request shape even for an empty batch.
        let half_width = hoeffding_half_width(budget.confidence, samples);
        if focals.is_empty() {
            return Vec::new();
        }
        self.sample_batch(focals, samples, seed)
            .into_iter()
            .map(|hits| ApproxImpact {
                impact: hits as f64 / samples as f64,
                half_width,
                samples,
            })
            .collect()
    }

    /// Draws `samples` preference vectors from `seed` and probes every focal
    /// record against each, returning the hit count per focal record.  The
    /// sweep shares the per-sample candidate scoring across the batch and
    /// parallelizes over chunks of the sample stream; chunk results merge in
    /// stream order, so the outcome is independent of the worker count.
    ///
    /// # Panics
    /// Panics if `samples == 0` or any focal arity does not match the
    /// dataset.
    fn sample_batch(&self, focals: &[Vec<f64>], samples: usize, seed: u64) -> Vec<u64> {
        assert!(samples > 0, "at least one sample is required");
        for focal in focals {
            assert_eq!(
                focal.len(),
                self.dim,
                "focal record arity must match the dataset"
            );
        }

        let mut rng = SmallRng::seed_from_u64(seed);
        let points = self.space.sample_many(samples, &mut rng);

        let workers = rayon::current_num_threads().max(1);
        let chunk_len = samples.div_ceil(workers).max(1);
        let chunks: Vec<&[Vec<f64>]> = points.chunks(chunk_len).collect();
        let partials: Vec<Vec<u64>> = chunks
            .par_iter()
            .map(|chunk| self.sweep_chunk(chunk, focals))
            .collect();

        let mut counts = vec![0u64; focals.len()];
        for partial in partials {
            for (total, count) in counts.iter_mut().zip(&partial) {
                *total += count;
            }
        }
        counts
    }

    /// Scores one chunk of samples against the candidate set: per sample,
    /// every candidate's score and the `k`-th largest are computed once;
    /// each focal record's probe is then one dot product and comparison.
    /// Returns the hit count per focal record.
    fn sweep_chunk(&self, chunk: &[Vec<f64>], focals: &[Vec<f64>]) -> Vec<u64> {
        let k = self.k;
        let d = self.dim;
        let m = self.num_candidates();
        let mut counts = vec![0u64; focals.len()];
        // Scores are recomputed per sample, so the in-place select below may
        // freely scramble the buffer.
        let mut scores = vec![0.0f64; m];
        for w in chunk {
            let full = self.space.to_full_weight(w);
            let weight = &full[..d];
            // Columnar kernel: accumulates in ascending attribute order,
            // bit-identical to `dot` over a row.
            self.block.scores_into(weight, &mut scores);
            // The k-th largest candidate score: the focal record is in the
            // top-k iff fewer than k candidates score strictly above it,
            // i.e. iff that k-th largest score does not exceed the focal
            // score (fewer than k candidates means everyone is top-k).
            let threshold = if m < k {
                f64::NEG_INFINITY
            } else {
                let idx = m - k;
                *scores
                    .select_nth_unstable_by(idx, |a, b| {
                        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .1
            };
            for (slot, focal) in focals.iter().enumerate() {
                if threshold <= dot(focal, weight) + TIE_EPS {
                    counts[slot] += 1;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspr::{Algorithm, KsprConfig};
    use rand::Rng;

    fn random_raw(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.01..0.99)).collect())
            .collect()
    }

    /// Focal records near the top of `random_raw` data, so their impact is
    /// neither 0 nor 1 and the probes below see both hits and misses.
    fn competitive_focals(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut focals = random_raw(n, d, seed);
        for value in focals.iter_mut().flatten() {
            *value = 0.7 + 0.25 * *value;
        }
        focals
    }

    /// Per-focal hit (1) or miss (0) on the single preference vector that
    /// `seed` draws: a one-sample probe, so equal probes over many seeds
    /// compare individual sampling decisions, not just their totals.
    fn probe(sampler: &ApproxEngine, focals: &[Vec<f64>], seed: u64) -> Vec<u64> {
        sampler.sample_batch(focals, 1, seed)
    }

    const PROBE_SEEDS: std::ops::Range<u64> = 0..200;

    /// Asserts that a probe run saw both outcomes, so the comparison it
    /// backed was not vacuous.
    fn assert_mixed(hits: usize, probes: usize) {
        assert!(
            hits > 0 && hits < probes,
            "the probes must see both hits and misses: {hits} of {probes}"
        );
    }

    #[test]
    fn batched_estimates_are_bit_identical_to_single_estimates() {
        let dataset = Dataset::new(random_raw(250, 4, 1));
        let sampler = ApproxEngine::from_dataset(&dataset, 6);
        let budget = ErrorBudget::new(0.08, 0.9);
        let focals = competitive_focals(5, 4, 2);
        let batch = sampler.estimate_batch(&focals, &budget, 7);
        for (focal, from_batch) in focals.iter().zip(&batch) {
            let alone = sampler.estimate(focal, &budget, 7);
            assert_eq!(
                from_batch.impact, alone.impact,
                "shared sweep must not change hits"
            );
            assert_eq!(from_batch.samples, alone.samples);
        }
        let mut hits = 0;
        for seed in PROBE_SEEDS {
            let batched = probe(&sampler, &focals, seed);
            for (focal, hit) in focals.iter().zip(batched) {
                assert_eq!(
                    probe(&sampler, std::slice::from_ref(focal), seed),
                    [hit],
                    "seed {seed}: same sample, same decision"
                );
                hits += hit as usize;
            }
        }
        assert_mixed(hits, PROBE_SEEDS.count() * focals.len());
    }

    #[test]
    fn skyband_candidates_are_result_preserving() {
        // The witness argument in action: the band-restricted sampler makes
        // the same hit decision as the full live record set on every sample
        // (same seed => same sample stream => bit-identical estimates).
        let raw = random_raw(400, 3, 3);
        let dataset = Dataset::new(raw);
        let k = 5;
        let engine = QueryEngine::new(&dataset, KsprConfig::default());
        let banded = ApproxEngine::from_engine(&engine, k);
        let full = ApproxEngine::from_dataset(&dataset, k);
        assert!(
            banded.num_candidates() < full.num_candidates() / 2,
            "the band must prune most of n={} (got {})",
            full.num_candidates(),
            banded.num_candidates()
        );
        let budget = ErrorBudget::new(0.05, 0.95);
        let focals = competitive_focals(4, 3, 4);
        let a = banded.estimate_batch(&focals, &budget, 11);
        let b = full.estimate_batch(&focals, &budget, 11);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.impact, y.impact, "pruning changed a hit decision");
        }
        let mut hits = 0;
        for seed in PROBE_SEEDS {
            let decisions = probe(&banded, &focals, seed);
            assert_eq!(
                decisions,
                probe(&full, &focals, seed),
                "seed {seed}: pruning changed a hit decision"
            );
            hits += decisions.iter().sum::<u64>() as usize;
        }
        assert_mixed(hits, PROBE_SEEDS.count() * focals.len());
    }

    #[test]
    fn estimates_agree_with_the_brute_force_oracle() {
        // Every hit (and non-hit) decision matches kspr::naive on the same
        // live records — the sweep's threshold trick is just a faster
        // evaluation of the same definition.
        let raw = random_raw(120, 3, 5);
        let dataset = Dataset::new(raw.clone());
        let k = 4;
        let sampler = ApproxEngine::from_dataset(&dataset, k);
        let focal = vec![0.97, 0.85, 0.8];
        let is_top_k = |seed: u64, samples: usize| -> Vec<bool> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let space = sampler.space();
            space
                .sample_many(samples, &mut rng)
                .iter()
                .map(|w| kspr::naive::is_top_k(&raw, &focal, &space.to_full_weight(w), k))
                .collect()
        };

        let estimate = sampler.estimate(&focal, &ErrorBudget::new(0.1, 0.9), 13);
        let oracle_hits = is_top_k(13, estimate.samples)
            .iter()
            .filter(|&&h| h)
            .count();
        assert_eq!(
            estimate.impact,
            oracle_hits as f64 / estimate.samples as f64,
            "sweep and oracle disagree on the same sample stream"
        );

        let mut hits = 0;
        for seed in PROBE_SEEDS {
            let want = is_top_k(seed, 1)[0];
            let got = probe(&sampler, std::slice::from_ref(&focal), seed);
            assert_eq!(got, [u64::from(want)], "seed {seed}");
            hits += usize::from(want);
        }
        assert_mixed(hits, PROBE_SEEDS.count());
    }

    #[test]
    fn unbeatable_record_has_impact_one() {
        let dataset = Dataset::new(vec![vec![0.1, 0.1], vec![0.2, 0.3]]);
        let estimate = ApproxEngine::from_dataset(&dataset, 1).estimate(
            &[0.9, 0.9],
            &ErrorBudget::default(),
            1,
        );
        assert_eq!(estimate.impact, 1.0);
        assert_eq!(estimate.upper(), 1.0, "the interval clamps to [0, 1]");
        assert!(estimate.lower() < 1.0);
        assert!(estimate.covers(1.0));
    }

    #[test]
    fn hopeless_record_has_impact_zero() {
        let dataset = Dataset::new(vec![vec![0.9, 0.9], vec![0.8, 0.95]]);
        let estimate = ApproxEngine::from_dataset(&dataset, 1).estimate(
            &[0.1, 0.1],
            &ErrorBudget::default(),
            2,
        );
        assert_eq!(estimate.impact, 0.0);
        assert_eq!(estimate.lower(), 0.0, "the interval clamps to [0, 1]");
        assert!(estimate.covers(0.0));
    }

    #[test]
    fn tombstoned_records_never_influence_the_estimate() {
        // Record 0 dominates the focal record, so while it is live the focal
        // record can never be top-1 (impact 0); once deleted, the focal
        // record beats everything that is left (impact 1).
        let mut store = kspr::DatasetStore::from_raw(vec![vec![0.9, 0.9], vec![0.2, 0.2]]);
        let focal = vec![0.5, 0.5];
        let budget = ErrorBudget::default();
        let before = ApproxEngine::from_dataset(store.dataset(), 1).estimate(&focal, &budget, 21);
        assert_eq!(before.impact, 0.0);

        assert_eq!(store.delete(0), Some(vec![0.9, 0.9]));
        let sampler = ApproxEngine::from_dataset(store.dataset(), 1);
        assert_eq!(sampler.num_candidates(), 1, "the tombstone is no candidate");
        let after = sampler.estimate(&focal, &budget, 21);
        assert_eq!(
            after.impact, 1.0,
            "a deleted dominator must not suppress the estimate"
        );
    }

    #[test]
    fn snapshot_is_epoch_consistent_under_updates() {
        let raw = random_raw(80, 3, 7);
        let mut engine = QueryEngine::new(&Dataset::new(raw), KsprConfig::default());
        let focal = vec![0.7, 0.7, 0.7];
        let budget = ErrorBudget::new(0.1, 0.9);

        let sampler = ApproxEngine::from_engine(&engine, 3);
        let before = sampler.estimate(&focal, &budget, 17);

        // A burst of dominators lands mid-flight; the held snapshot must not
        // see them, while a fresh sampler must.
        for _ in 0..3 {
            engine.insert(vec![0.99, 0.99, 0.99]);
        }
        let after_on_snapshot = sampler.estimate(&focal, &budget, 17);
        assert_eq!(
            before.impact, after_on_snapshot.impact,
            "an in-flight snapshot must not observe updates"
        );
        let fresh = ApproxEngine::from_engine(&engine, 3).estimate(&focal, &budget, 17);
        assert_eq!(fresh.impact, 0.0, "three dominators end every top-3 hope");
    }

    #[test]
    fn interval_brackets_the_exact_impact() {
        let raw = random_raw(200, 3, 9);
        let engine = QueryEngine::new(&Dataset::new(raw), KsprConfig::default());
        let k = 6;
        let focal = vec![0.8, 0.7, 0.75];
        let exact = engine.run(Algorithm::LpCta, &focal, k);
        // d = 3 => 2 working dimensions: polygon areas are exact.
        let true_impact = exact.total_volume(0, 0) / exact.space.volume();
        let estimate = ApproxEngine::from_engine(&engine, k).estimate(
            &focal,
            &ErrorBudget::new(0.05, 0.99),
            23,
        );
        assert!(
            estimate.covers(true_impact),
            "interval [{}, {}] misses the exact impact {true_impact}",
            estimate.lower(),
            estimate.upper()
        );
    }

    #[test]
    fn empty_dataset_has_impact_one() {
        let mut store = kspr::DatasetStore::from_raw(vec![vec![0.4, 0.5], vec![0.6, 0.3]]);
        store.delete(0);
        store.delete(1);
        let sampler = ApproxEngine::from_dataset(store.dataset(), 1);
        assert_eq!(sampler.num_candidates(), 0);
        let estimate = sampler.estimate(&[0.5, 0.5], &ErrorBudget::new(0.1, 0.9), 29);
        assert_eq!(estimate.impact, 1.0, "no competitor: trivially top-1");
    }

    #[test]
    fn auto_cost_grows_with_k_and_dimension() {
        let low = QueryEngine::new(&Dataset::new(random_raw(300, 3, 33)), KsprConfig::default());
        let high = QueryEngine::new(&Dataset::new(random_raw(300, 5, 33)), KsprConfig::default());
        assert!(estimated_cost(&low, 2) < estimated_cost(&low, 12));
        assert!(estimated_cost(&low, 8) < estimated_cost(&high, 8));
        assert_eq!(arrangement_cost(10, 2), 100.0);
        assert_eq!(arrangement_cost(0, 3), 1.0, "no candidates, unit cost");
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn sampler_rejects_zero_k() {
        let dataset = Dataset::new(vec![vec![0.5, 0.5]]);
        ApproxEngine::from_dataset(&dataset, 0);
    }

    #[test]
    #[should_panic(expected = "arity must match")]
    fn sampler_rejects_arity_mismatch() {
        let dataset = Dataset::new(vec![vec![0.5, 0.5]]);
        ApproxEngine::from_dataset(&dataset, 1).estimate(
            &[0.5, 0.5, 0.5],
            &ErrorBudget::default(),
            1,
        );
    }
}
