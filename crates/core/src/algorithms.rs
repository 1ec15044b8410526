//! The kSPR algorithm catalogue and its classic free-function entry points.
//!
//! Every method runs through the unified [`crate::engine::QueryEngine`]:
//! the CellTree-based ones (CTA, P-CTA, LP-CTA, k-skyband) share its single
//! traversal loop, and the sweep-based baselines (RTOPK, iMaxRank) keep their
//! self-contained drivers in [`crate::rtopk`] and [`crate::maxrank`].

use crate::config::KsprConfig;
use crate::dataset::Dataset;
use crate::engine::QueryEngine;
use crate::result::KsprResult;

/// Every method implemented by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Cell Tree Approach (Section 4).
    Cta,
    /// Progressive CTA (Section 5).
    Pcta,
    /// Look-ahead Progressive CTA (Section 6) — the paper's best method.
    LpCta,
    /// k-skyband + CTA baseline (Appendix B).
    KSkyband,
    /// Monochromatic reverse top-k sweep, only valid for `d = 2` data
    /// (Vlachou et al., used as the RTOPK baseline in Figure 10a).
    Rtopk,
    /// Incremental maximum-rank baseline (Mouratidis et al., Figure 10b).
    IMaxRank,
}

impl Algorithm {
    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Cta => "CTA",
            Algorithm::Pcta => "P-CTA",
            Algorithm::LpCta => "LP-CTA",
            Algorithm::KSkyband => "k-skyband",
            Algorithm::Rtopk => "RTOPK",
            Algorithm::IMaxRank => "iMaxRank",
        }
    }

    /// True for the methods that run the CellTree traversal loop of
    /// [`QueryEngine`]; false for the sweep-based RTOPK and iMaxRank.
    pub fn uses_celltree(&self) -> bool {
        !matches!(self, Algorithm::Rtopk | Algorithm::IMaxRank)
    }
}

/// Runs `algorithm` on `dataset` for focal record `focal` and threshold `k`.
///
/// # Panics
/// Panics if `k == 0`, if the focal arity does not match the dataset, or if
/// [`Algorithm::Rtopk`] is requested on non-2-dimensional data.
pub fn run(
    algorithm: Algorithm,
    dataset: &Dataset,
    focal: &[f64],
    k: usize,
    config: &KsprConfig,
) -> KsprResult {
    QueryEngine::new(dataset, config.clone()).run(algorithm, focal, k)
}

/// Runs `algorithm` for every focal record in parallel, with shared
/// preprocessing — the free-function form of
/// [`QueryEngine::run_batch`](crate::engine::QueryEngine::run_batch).
///
/// Results are returned in input order and are identical to calling [`run`]
/// once per focal record.
pub fn run_batch(
    algorithm: Algorithm,
    dataset: &Dataset,
    focals: &[Vec<f64>],
    k: usize,
    config: &KsprConfig,
) -> Vec<KsprResult> {
    QueryEngine::new(dataset, config.clone()).run_batch(algorithm, focals, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn figure1_dataset() -> (Dataset, Vec<Vec<f64>>, Vec<f64>) {
        let raw = vec![
            vec![3.0, 8.0, 8.0],
            vec![9.0, 4.0, 4.0],
            vec![8.0, 3.0, 4.0],
            vec![4.0, 3.0, 6.0],
        ];
        (Dataset::new(raw.clone()), raw, vec![5.0, 5.0, 7.0])
    }

    #[test]
    fn all_celltree_algorithms_agree_with_the_oracle_on_figure1() {
        let (dataset, raw, focal) = figure1_dataset();
        let config = KsprConfig::default();
        for alg in [
            Algorithm::Cta,
            Algorithm::Pcta,
            Algorithm::LpCta,
            Algorithm::KSkyband,
        ] {
            for k in 1..=4 {
                let result = run(alg, &dataset, &focal, k, &config);
                let agreement = naive::classification_agreement(&result, &raw, &focal, k, 400, 7);
                assert!(agreement > 0.995, "{alg:?} k={k}: agreement {agreement}");
            }
        }
    }

    #[test]
    fn algorithms_agree_in_original_space() {
        let (dataset, raw, focal) = figure1_dataset();
        let config = KsprConfig::original_space();
        for alg in [Algorithm::Pcta, Algorithm::LpCta] {
            let result = run(alg, &dataset, &focal, 3, &config);
            let agreement = naive::classification_agreement(&result, &raw, &focal, 3, 400, 11);
            assert!(agreement > 0.995, "{alg:?}: agreement {agreement}");
        }
    }

    #[test]
    fn empty_result_when_focal_is_dominated_k_times() {
        let raw = vec![vec![0.9, 0.9], vec![0.8, 0.8], vec![0.7, 0.7]];
        let dataset = Dataset::new(raw);
        let focal = vec![0.5, 0.5];
        let result = run(
            Algorithm::LpCta,
            &dataset,
            &focal,
            2,
            &KsprConfig::default(),
        );
        assert!(result.is_empty());
    }

    #[test]
    fn whole_space_when_focal_dominates_everything() {
        let raw = vec![vec![0.1, 0.2], vec![0.2, 0.1]];
        let dataset = Dataset::new(raw);
        let focal = vec![0.5, 0.5];
        let result = run(Algorithm::Pcta, &dataset, &focal, 1, &KsprConfig::default());
        assert_eq!(result.num_regions(), 1);
        assert!((result.impact(0, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pcta_processes_fewer_records_than_cta() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let raw: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let dataset = Dataset::new(raw);
        let focal = vec![0.6, 0.6, 0.6];
        let config = KsprConfig::default();
        let cta = run(Algorithm::Cta, &dataset, &focal, 5, &config);
        let pcta = run(Algorithm::Pcta, &dataset, &focal, 5, &config);
        assert!(pcta.stats.processed_records <= cta.stats.processed_records);
        assert!(pcta.stats.celltree_nodes <= cta.stats.celltree_nodes);
    }

    #[test]
    fn algorithm_labels() {
        assert_eq!(Algorithm::LpCta.label(), "LP-CTA");
        assert_eq!(Algorithm::Rtopk.label(), "RTOPK");
    }
}
