//! # kspr — k-Shortlist Preference Region identification
//!
//! A from-scratch Rust implementation of the kSPR query of
//! *Tang, Mouratidis and Yiu, "Determining the Impact Regions of Competing
//! Options in Preference Space", SIGMOD 2017*.
//!
//! Given a dataset `D` of `d`-dimensional options, a focal record `p` and an
//! integer `k`, the kSPR query reports **every region of the preference
//! space** (the space of linear-scoring weight vectors) in which `p` ranks
//! among the top-`k` options.  Those regions describe exactly which user
//! profiles find `p` attractive — the paper's motivating applications are
//! market-impact analysis, customer identification and targeted advertising.
//!
//! ## Algorithms
//!
//! | Algorithm | Paper section | Entry point |
//! |---|---|---|
//! | CTA — Cell Tree Approach | §4 | [`algorithms::run_cta`] |
//! | P-CTA — Progressive CTA | §5 | [`algorithms::run_pcta`] |
//! | LP-CTA — Look-ahead Progressive CTA | §6 | [`algorithms::run_lpcta`] |
//! | k-skyband + CTA baseline | Appendix B | [`algorithms::run_skyband`] |
//! | RTOPK (monochromatic reverse top-k, `d = 2`) | §2, Vlachou et al. | [`rtopk::run_rtopk`] |
//! | iMaxRank (incremental maximum-rank) baseline | §2, Mouratidis et al. | [`maxrank::run_imaxrank`] |
//!
//! All of CTA / P-CTA / LP-CTA can run either in the *transformed* preference
//! space (Section 3.2, the default) or in the *original* space (Appendix C)
//! through [`KsprConfig::space`], which yields the paper's OP-CTA / OLP-CTA
//! variants.
//!
//! ## Architecture
//!
//! The CellTree-based methods share a single traversal loop in the
//! [`engine`] module: each algorithm is an [`engine::ExpansionPolicy`]
//! plugged into [`engine::QueryEngine`].  The engine also offers
//! [`engine::QueryEngine::run_batch`], which answers many focal-record
//! queries in parallel with shared, focal-independent preprocessing —
//! the entry point for serving query workloads rather than single lookups.
//!
//! ## Quick start
//!
//! ```
//! use kspr::{Dataset, KsprConfig, algorithms};
//!
//! // Figure 1 of the paper: restaurants rated on value, service, ambiance.
//! let restaurants = vec![
//!     vec![0.3, 0.8, 0.8], // L'Entrecôte
//!     vec![0.9, 0.4, 0.4], // Beirut Grill
//!     vec![0.8, 0.3, 0.4], // El Coyote
//!     vec![0.4, 0.3, 0.6], // La Braceria
//! ];
//! let kyma = vec![0.5, 0.5, 0.7];
//!
//! let dataset = Dataset::new(restaurants);
//! let result = algorithms::run_lpcta(&dataset, &kyma, 3, &KsprConfig::default());
//!
//! // Kyma is in the top-3 for the "balanced" preference (1/3, 1/3, 1/3) ...
//! assert!(result.contains_full_weight(&[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]));
//! // ... and the regions cover a measurable share of all possible preferences.
//! assert!(result.impact(10_000, 42) > 0.0);
//! ```

pub mod algorithms;
pub mod approximate;
pub mod bounds;
pub mod celltree;
pub mod config;
pub mod dataset;
pub mod engine;
pub mod hyperplanes;
pub mod maxrank;
pub mod naive;
pub mod prep;
pub mod result;
pub mod rtopk;
pub mod stats;

pub use algorithms::{run, run_batch, Algorithm};
pub use approximate::{ApproxImpact, ErrorBudget, QueryTier};
pub use config::{BoundMode, KsprConfig};
pub use dataset::{check_record, Dataset, DatasetStore, IngestError};
pub use engine::{
    CtaPolicy, ExpansionPolicy, PreparedQuery, ProgressivePolicy, QueryEngine, SharedPrep,
    SkybandPolicy,
};
pub use result::{KsprResult, Region};
pub use stats::{QueryStats, Timing};

// Re-export the pieces of the substrate crates that appear in this crate's
// public API, so downstream users only need a `kspr` dependency.
pub use kspr_geometry::{PreferenceSpace, Space};
pub use kspr_spatial::{ColumnarBlock, DomClass, Record, RecordId};
