//! Approximate kSPR processing (the paper's future-work direction).
//!
//! The conclusion of the paper names "approximate kSPR algorithms, with
//! accuracy guarantees, for the purpose of faster processing" as future work.
//! This module holds the vocabulary of that direction; the sampler itself
//! (`ApproxEngine`) lives in the `kspr-approx` crate:
//!
//! * the **estimate** type ([`ApproxImpact`]): a market-impact point
//!   estimate (the probability that the focal record is in the top-`k` for a
//!   uniformly random preference vector) with its Hoeffding interval,
//! * the **error budget** vocabulary ([`ErrorBudget`]) that turns a caller's
//!   `(epsilon, confidence)` requirement into a sample count via the
//!   Hoeffding bound ([`samples_for_accuracy`], [`hoeffding_half_width`]),
//!   and
//! * the **query tier** knob ([`QueryTier`]) consumed by
//!   [`crate::config::KsprConfig`] and dispatched by `kspr-approx`.
//!
//! A sampled estimate evaluates the query definition directly (a top-`k`
//! probe per sample), so its cost is `O(samples · n)` and independent of the
//! arrangement complexity — it stays cheap exactly where the exact
//! algorithms become expensive (large `k`, high dimensionality,
//! anti-correlated data).

/// Half-width of the two-sided Hoeffding interval at confidence level
/// `confidence` after `samples` draws:
/// `sqrt(ln(2 / (1 - confidence)) / (2 · samples))`.
///
/// # Panics
/// Panics if `samples == 0` or `confidence` is not in `(0, 1)`.
pub fn hoeffding_half_width(confidence: f64, samples: usize) -> f64 {
    assert!(samples > 0, "at least one sample is required");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    ((2.0 / (1.0 - confidence)).ln() / (2.0 * samples as f64)).sqrt()
}

/// A caller-specified accuracy requirement for the approximate tier: the
/// reported impact interval has half-width at most `epsilon` and covers the
/// true impact with probability at least `confidence`.
///
/// The guarantee is distribution-free (Hoeffding's inequality): the sample
/// count [`ErrorBudget::samples`] is chosen so that
/// `2 · exp(-2 · samples · epsilon²) <= 1 - confidence`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBudget {
    /// Maximum half-width of the reported confidence interval, in `(0, 1)`.
    pub epsilon: f64,
    /// Two-sided confidence level of the interval, in `(0, 1)`.
    pub confidence: f64,
}

impl ErrorBudget {
    /// A validated budget.
    ///
    /// # Panics
    /// Panics if `epsilon` or `confidence` is outside `(0, 1)`.
    pub fn new(epsilon: f64, confidence: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1), got {confidence}"
        );
        Self {
            epsilon,
            confidence,
        }
    }

    /// Number of samples the Hoeffding bound requires for this budget.
    pub fn samples(&self) -> usize {
        samples_for_accuracy(self.epsilon, self.confidence)
    }

    /// The interval half-width this budget's confidence level yields after
    /// `samples` draws (at most `epsilon` when `samples >=`
    /// [`ErrorBudget::samples`]).
    pub fn half_width(&self, samples: usize) -> f64 {
        hoeffding_half_width(self.confidence, samples)
    }
}

impl Default for ErrorBudget {
    /// `epsilon = 0.05` at 95% confidence (≈ 738 samples) — tight enough to
    /// rank options by impact, loose enough to beat the exact engine by an
    /// order of magnitude on arrangement-bound queries.
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            confidence: 0.95,
        }
    }
}

/// Which processing tier answers a kSPR query (chosen per request and
/// dispatched by the `kspr-serve` front-end).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum QueryTier {
    /// The exact engine: full region decomposition, paper semantics.  The
    /// default — and with it every pipeline is bit-for-bit the pre-tier
    /// behavior.
    #[default]
    Exact,
    /// The Monte-Carlo tier: an impact estimate within the budget's interval
    /// instead of exact regions.
    Approximate {
        /// Accuracy the estimate must meet.
        budget: ErrorBudget,
    },
    /// Cost-based routing: queries whose estimated arrangement cost is at
    /// most `cost_threshold` run exactly; arrangement-bound ones fall back to
    /// sampling under `budget`.  The cost estimate is
    /// `candidates^work_dim` — the arrangement-size bound for the candidate
    /// hyperplanes in the working space (see `kspr-approx`).
    Auto {
        /// Accuracy of the sampling fallback.
        budget: ErrorBudget,
        /// Largest estimated arrangement cost still routed to the exact
        /// engine.
        cost_threshold: f64,
    },
}

impl QueryTier {
    /// Default routing threshold of [`QueryTier::auto`]: at the repo's
    /// benchmark scales this sends small-`k` / low-`d` queries (candidate
    /// bands of tens of records in 2 working dimensions) to the exact engine
    /// and arrangement-bound ones (hundreds of candidates, 3+ working
    /// dimensions) to sampling.
    pub const DEFAULT_COST_THRESHOLD: f64 = 1.0e6;

    /// The approximate tier under `budget`.
    pub fn approximate(budget: ErrorBudget) -> Self {
        QueryTier::Approximate { budget }
    }

    /// Cost-based routing with the default threshold.
    pub fn auto(budget: ErrorBudget) -> Self {
        QueryTier::Auto {
            budget,
            cost_threshold: Self::DEFAULT_COST_THRESHOLD,
        }
    }

    /// Resolves the tier to the budget the query should sample under —
    /// `None` means "run exactly".  `estimated_cost` is invoked only for
    /// `Auto` (the cost probe may touch engine caches), and routes to
    /// sampling strictly above the threshold.  This is the single routing
    /// rule every dispatch layer (engine, sharded pool, server) applies.
    pub fn resolve(self, estimated_cost: impl FnOnce() -> f64) -> Option<ErrorBudget> {
        match self {
            QueryTier::Exact => None,
            QueryTier::Approximate { budget } => Some(budget),
            QueryTier::Auto {
                budget,
                cost_threshold,
            } => (estimated_cost() > cost_threshold).then_some(budget),
        }
    }
}

/// Result of the Monte-Carlo kSPR approximation.
#[derive(Debug, Clone)]
pub struct ApproxImpact {
    /// Point estimate of the market impact in `[0, 1]`.
    pub impact: f64,
    /// Half-width of the two-sided confidence interval at the requested
    /// confidence level (Hoeffding bound, distribution-free).
    pub half_width: f64,
    /// Number of samples used.
    pub samples: usize,
}

impl ApproxImpact {
    /// Lower end of the confidence interval (clamped to `[0, 1]`).
    pub fn lower(&self) -> f64 {
        (self.impact - self.half_width).max(0.0)
    }

    /// Upper end of the confidence interval (clamped to `[0, 1]`).
    pub fn upper(&self) -> f64 {
        (self.impact + self.half_width).min(1.0)
    }

    /// True iff `impact` lies inside the reported confidence interval.
    pub fn covers(&self, impact: f64) -> bool {
        impact >= self.lower() && impact <= self.upper()
    }
}

/// Number of samples needed so the Hoeffding half-width is at most `epsilon`
/// at the given confidence level.
pub fn samples_for_accuracy(epsilon: f64, confidence: f64) -> usize {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    ((2.0 / (1.0 - confidence)).ln() / (2.0 * epsilon * epsilon)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::run_lpcta;
    use crate::config::KsprConfig;
    use crate::dataset::Dataset;
    use crate::naive;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_raw(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn estimate_brackets_the_exact_impact() {
        // An estimate from direct top-k probes, reported with its Hoeffding
        // interval, covers the impact of the exact LP-CTA regions.
        let raw = random_raw(300, 3, 3);
        let focal = vec![0.97, 0.85, 0.8];
        let k = 8;
        let exact = run_lpcta(
            &Dataset::new(raw.clone()),
            &focal,
            k,
            &KsprConfig::default(),
        );
        let true_impact = exact.impact(50_000, 5);
        assert!(
            true_impact > 0.05 && true_impact < 0.95,
            "a focal record that always or never wins brackets trivially: {true_impact}"
        );
        let samples = 4_000;
        let estimate = ApproxImpact {
            impact: naive::impact_monte_carlo(&raw, &focal, k, &exact.space, samples, 7),
            half_width: hoeffding_half_width(0.99, samples),
            samples,
        };
        assert!(
            true_impact >= estimate.lower() - 0.02 && true_impact <= estimate.upper() + 0.02,
            "exact {true_impact} outside approx interval [{}, {}]",
            estimate.lower(),
            estimate.upper()
        );
    }

    #[test]
    fn every_hit_is_actually_a_top_k_preference() {
        // A sampled preference the exact result counts as a hit is a top-k
        // preference by the query definition, so the hit fraction of the
        // exact regions is the brute-force estimate on the same draws.
        let raw = random_raw(200, 3, 9);
        let focal = vec![0.97, 0.85, 0.8];
        let k = 5;
        let exact = run_lpcta(
            &Dataset::new(raw.clone()),
            &focal,
            k,
            &KsprConfig::default(),
        );
        let space = exact.space;
        let points = naive::sample_weights(&space, 1_000, 11);
        let hits: Vec<&Vec<f64>> = points.iter().filter(|w| exact.contains(w)).collect();
        assert!(
            !hits.is_empty() && hits.len() < points.len(),
            "the draws must see both hits and misses, got {} of {}",
            hits.len(),
            points.len()
        );
        for w in &hits {
            assert!(naive::is_top_k(&raw, &focal, &space.to_full_weight(w), k));
        }
        let oracle = naive::impact_monte_carlo(&raw, &focal, k, &space, points.len(), 11);
        assert_eq!(hits.len() as f64 / points.len() as f64, oracle);
    }

    #[test]
    fn sample_size_calculator_matches_half_width() {
        let (eps, conf) = (0.01, 0.95);
        let n = samples_for_accuracy(eps, conf);
        assert!(hoeffding_half_width(conf, n) <= eps + 1e-9);
        assert!(
            hoeffding_half_width(conf, n - 1) > eps,
            "the calculator returns the smallest sufficient sample count"
        );
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn rejects_invalid_confidence() {
        hoeffding_half_width(1.5, 10);
    }

    #[test]
    fn error_budget_meets_itself() {
        let budget = ErrorBudget::new(0.05, 0.95);
        let n = budget.samples();
        assert_eq!(n, samples_for_accuracy(0.05, 0.95));
        assert!(budget.half_width(n) <= budget.epsilon + 1e-12);
        assert!(
            budget.half_width(n - 50) > budget.epsilon,
            "fewer samples must miss the budget"
        );
        // Tighter budgets need more samples, at the Hoeffding 1/eps^2 rate.
        assert!(ErrorBudget::new(0.01, 0.95).samples() > 20 * n);
        assert!(ErrorBudget::new(0.05, 0.99).samples() > n);
        let default = ErrorBudget::default();
        assert_eq!(default.epsilon, 0.05);
        assert_eq!(default.confidence, 0.95);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1)")]
    fn error_budget_rejects_bad_epsilon() {
        ErrorBudget::new(0.0, 0.95);
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0, 1)")]
    fn error_budget_rejects_bad_confidence() {
        ErrorBudget::new(0.1, 1.0);
    }

    #[test]
    fn tier_resolution_routes_by_cost() {
        let budget = ErrorBudget::new(0.05, 0.95);
        assert_eq!(QueryTier::Exact.resolve(|| unreachable!()), None);
        assert_eq!(
            QueryTier::approximate(budget).resolve(|| unreachable!()),
            Some(budget)
        );
        let auto = QueryTier::Auto {
            budget,
            cost_threshold: 100.0,
        };
        assert_eq!(auto.resolve(|| 100.0), None, "at the threshold: exact");
        assert_eq!(auto.resolve(|| 100.1), Some(budget), "above: sampling");
    }

    #[test]
    fn query_tier_constructors() {
        assert_eq!(QueryTier::default(), QueryTier::Exact);
        let budget = ErrorBudget::new(0.02, 0.9);
        assert_eq!(
            QueryTier::approximate(budget),
            QueryTier::Approximate { budget }
        );
        match QueryTier::auto(budget) {
            QueryTier::Auto {
                budget: b,
                cost_threshold,
            } => {
                assert_eq!(b, budget);
                assert_eq!(cost_threshold, QueryTier::DEFAULT_COST_THRESHOLD);
            }
            other => panic!("expected Auto, got {other:?}"),
        }
    }
}
