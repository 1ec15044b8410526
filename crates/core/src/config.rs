//! Query configuration: every optimization of the paper can be toggled so the
//! ablation experiments (Figures 16–18, 22) can isolate its effect.

use kspr_geometry::Space;
use kspr_spatial::IoCostModel;

/// Which look-ahead bounds LP-CTA uses when computing the rank bounds of a
/// cell (Section 6 of the paper; ablated in Figure 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundMode {
    /// Per-record score bounds only (Section 6.1, `record_bounds` in Fig. 18).
    Record,
    /// Aggregate R-tree group bounds (Section 6.2, `group_bounds`).
    Group,
    /// Group bounds plus the cheap min/max-vector filter (Section 6.3,
    /// `fast_bounds`) — the full LP-CTA configuration.
    #[default]
    Fast,
}

/// Configuration shared by all kSPR algorithms.
#[derive(Debug, Clone)]
pub struct KsprConfig {
    /// Work in the transformed (`d-1`-dimensional) or original space.
    /// The original space yields the OP-CTA / OLP-CTA variants of Appendix C.
    pub space: Space,
    /// Apply Lemma 2: drop cover-set halfspaces (inconsequential) from every
    /// feasibility test.  Disabling this reproduces the `lp_solve`-only bars
    /// of Figure 17.
    pub use_lemma2: bool,
    /// Cache a witness point per CellTree node and use it to skip feasibility
    /// tests (Section 4.3.2).
    pub use_witness: bool,
    /// Look-ahead bound tier used by LP-CTA.
    pub bound_mode: BoundMode,
    /// Number of dataset shards the serving front-end (`kspr-serve`)
    /// partitions the dataset into.  `1` (the default) serves every query
    /// through a single [`crate::engine::QueryEngine`]; larger values fan
    /// updates out to per-shard engines and answer queries through a merged
    /// candidate engine.  The plain `QueryEngine` ignores this knob.
    pub shards: usize,
    /// Simulated I/O cost model (Appendix A).  `None` disables I/O accounting
    /// in the reported statistics.
    pub io_model: Option<IoCostModel>,
}

impl Default for KsprConfig {
    fn default() -> Self {
        Self {
            space: Space::Transformed,
            use_lemma2: true,
            use_witness: true,
            bound_mode: BoundMode::Fast,
            shards: 1,
            io_model: None,
        }
    }
}

impl KsprConfig {
    /// Configuration for the original-space variants (OP-CTA / OLP-CTA).
    ///
    /// The fast bounds of Section 6.3 do not apply in the original space
    /// (the min-vector of every cone is the origin), so the bound mode is
    /// capped at [`BoundMode::Group`].
    pub fn original_space() -> Self {
        Self {
            space: Space::Original,
            bound_mode: BoundMode::Group,
            ..Self::default()
        }
    }

    /// Convenience: the default configuration with a specific bound mode.
    pub fn with_bound_mode(mode: BoundMode) -> Self {
        Self {
            bound_mode: mode,
            ..Self::default()
        }
    }

    /// Convenience: the default configuration with `shards` dataset shards
    /// (consumed by the `kspr-serve` front-end).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        self.shards = shards;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_matches_paper_defaults() {
        let c = KsprConfig::default();
        assert_eq!(c.space, Space::Transformed);
        assert!(c.use_lemma2);
        assert!(c.use_witness);
        assert_eq!(c.bound_mode, BoundMode::Fast);
        assert_eq!(c.shards, 1, "serving defaults to a single shard");
    }

    #[test]
    fn shards_builder() {
        assert_eq!(KsprConfig::default().with_shards(4).shards, 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        let _ = KsprConfig::default().with_shards(0);
    }

    #[test]
    fn original_space_config_caps_bound_mode() {
        let c = KsprConfig::original_space();
        assert_eq!(c.space, Space::Original);
        assert_eq!(c.bound_mode, BoundMode::Group);
    }

    #[test]
    fn builder_helpers() {
        let c = KsprConfig::with_bound_mode(BoundMode::Record);
        assert_eq!(c.bound_mode, BoundMode::Record);
    }
}
