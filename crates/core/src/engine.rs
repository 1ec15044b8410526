//! The unified kSPR query engine.
//!
//! Every CellTree-based kSPR method of the paper — CTA (§4), P-CTA (§5),
//! LP-CTA (§6) and the k-skyband baseline (Appendix B) — runs the *same*
//! traversal loop:
//!
//! 1. preprocess the dataset against the focal record (Section 3.1) — and,
//!    for bound-using policies, restrict the competitors to their
//!    `k_effective`-skyband so the look-ahead bounds read an update-stable
//!    aggregate tree (see `restrict_to_witness_skyband`),
//! 2. insert batches of record hyperplanes into the [`CellTree`],
//! 3. optionally prune / report cells early with look-ahead rank bounds,
//! 4. optionally report cells with the pivot test of Lemma 5 and derive the
//!    next batch from a constrained skyline,
//! 5. collect the surviving promising cells into the result.
//!
//! What distinguishes the methods is only *which records are expanded, in
//! what order, and which of the optional stages run* — exactly the knobs the
//! [`ExpansionPolicy`] trait exposes.  [`QueryEngine`] owns the shared loop;
//! the policies ([`CtaPolicy`], [`SkybandPolicy`], [`ProgressivePolicy`]) are
//! small, stateless strategy objects.  Earlier revisions of this crate kept
//! three copies of the traversal in `algorithms.rs`; they now all route
//! through this module.
//!
//! # Batched execution
//!
//! [`QueryEngine::run_batch`] answers many focal-record queries over the same
//! dataset and `k` in parallel (one worker per core, via `rayon`), sharing
//! the preprocessing work that does not depend on the focal record:
//!
//! * **R-tree reuse** — the dataset index is reference-counted and shared
//!   with every worker; additionally, queries whose Section-3.1 filter
//!   removes no record reuse it outright instead of bulk-loading a
//!   query-local copy (see [`crate::prep::prepare`]).
//! * **Skyband filter** — the dataset-level k-skyband is computed once; the
//!   per-query band of [`SkybandPolicy`] is provably contained in it, so the
//!   per-query computation only scans the precomputed candidates.
//! * **Dominance graph** — the dominator lists of all skyband members are
//!   computed once; per-query traversals translate them through the
//!   preprocessing id mapping instead of re-deriving them pairwise.
//!
//! All three shortcuts are result-preserving: `run_batch` returns exactly
//! what [`QueryEngine::run`] returns for each focal record individually
//! (`tests/batch_consistency.rs` in the umbrella crate asserts this).
//!
//! # Dynamic datasets
//!
//! The engine owns a [`crate::dataset::DatasetStore`] — a mutable,
//! epoch-versioned dataset handle — and a **shared-prep cache**:
//!
//! * [`QueryEngine::insert`] / [`QueryEngine::delete`] maintain the dataset
//!   R-tree *and* every cached [`SharedPrep`] incrementally (an insert can
//!   only evict band members, a delete can only promote outsiders), so a
//!   steady stream of updates never triggers a from-scratch rebuild.
//! * The cache is keyed by `k` with the prefix property of the k-skyband:
//!   the band for `k' <= k` is exactly the members with fewer than `k'`
//!   dominators, so one computed band serves every smaller `k` through
//!   [`SharedPrep::view_for`].
//! * [`QueryEngine::run_batch`] on an unchanged dataset therefore performs
//!   **zero** shared-prep recomputations; the
//!   [`QueryEngine::shared_prep_computes`] counter asserts this in tests.

use crate::algorithms::Algorithm;
use crate::bounds::{rank_bounds, BoundDecision};
use crate::celltree::CellTree;
use crate::config::KsprConfig;
use crate::dataset::{Dataset, DatasetStore};
use crate::hyperplanes::HyperplaneStore;
use crate::maxrank::run_imaxrank;
use crate::prep::{prepare, FilteredQuery, Prepared};
use crate::result::{KsprResult, Region};
use crate::rtopk::run_rtopk;
use crate::stats::QueryStats;
use kspr_geometry::hyperplane::Hyperplane;
use kspr_geometry::{Halfspace, PlaneKind, PreferenceSpace, Sign};
use kspr_spatial::{
    bbs_skyline, dominates, k_skyband, k_skyband_live, k_skyband_restricted, skyline_excluding,
    AggregateRTree, DominanceGraph, Record, RecordId,
};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Expansion policies
// ---------------------------------------------------------------------------

/// A prepared (focal-filtered) query, handed to policies when they decide
/// which records to expand.
pub struct PreparedQuery<'a> {
    /// The filtered competitor set (Section 3.1 preprocessing output).
    pub filtered: &'a FilteredQuery,
    /// Batch-shared preprocessing, when running under
    /// [`QueryEngine::run_batch`].
    pub shared: Option<&'a SharedPrep>,
    /// The original (pre-preprocessing) rank threshold `k`.
    pub k: usize,
}

/// The strategy axis along which CTA, P-CTA, LP-CTA and the k-skyband
/// baseline differ: which records are expanded into the CellTree, in what
/// order, and which optional pruning stages run between batches.
///
/// Implementations must be stateless (`&self` methods only) so a single
/// policy value can serve many concurrent queries in batch mode.
pub trait ExpansionPolicy: Sync {
    /// The algorithm this policy implements.
    fn algorithm(&self) -> Algorithm;

    /// The first batch of (filtered) record ids to expand.
    fn initial_batch(&self, query: &PreparedQuery<'_>) -> Vec<RecordId>;

    /// Use the dominance-graph insertion shortcut of Lemma 4/5?
    fn use_dominance(&self) -> bool {
        false
    }

    /// Run the look-ahead rank-bound stage (Section 6) after each batch?
    fn use_rank_bounds(&self) -> bool {
        false
    }

    /// Run the pivot-based reporting of Lemma 5 between batches and keep
    /// expanding constrained skylines until every cell is decided?
    fn progressive(&self) -> bool {
        false
    }

    /// Can this policy exploit batch-shared preprocessing?  When it cannot
    /// (e.g. plain CTA expands everything in dataset order and never consults
    /// the skyband or the dominance graph), [`QueryEngine::run_batch`] skips
    /// computing [`SharedPrep`] altogether.
    fn uses_shared_prep(&self) -> bool {
        self.use_dominance()
    }
}

/// CTA (Algorithm 1): expand every competitor in dataset order, one batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtaPolicy;

impl ExpansionPolicy for CtaPolicy {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Cta
    }

    fn initial_batch(&self, query: &PreparedQuery<'_>) -> Vec<RecordId> {
        (0..query.filtered.records.len()).collect()
    }
}

/// The k-skyband baseline (Appendix B): CTA restricted to the k-skyband of
/// the competitor set — by Lemma 6 no other record can affect the result.
#[derive(Debug, Clone, Copy, Default)]
pub struct SkybandPolicy;

impl ExpansionPolicy for SkybandPolicy {
    fn algorithm(&self) -> Algorithm {
        Algorithm::KSkyband
    }

    fn uses_shared_prep(&self) -> bool {
        true
    }

    fn initial_batch(&self, query: &PreparedQuery<'_>) -> Vec<RecordId> {
        let filtered = query.filtered;
        match query.shared {
            // Batch mode: only scan candidates inside the precomputed
            // dataset-level band.  Membership argument: a filtered record
            // with fewer than `k_effective` dominators among the filtered
            // competitors has fewer than `k_effective + dominators(focal) =
            // k` dominators in the full dataset (records the focal record
            // dominates cannot dominate it, and ties are excluded), hence it
            // belongs to the dataset-level k-skyband.
            Some(shared) if shared.k() == query.k => {
                k_skyband_restricted(&filtered.records, filtered.k_effective, |id| {
                    shared.in_skyband(filtered.original_ids[id])
                })
            }
            _ => k_skyband(&filtered.records, filtered.k_effective),
        }
    }
}

/// P-CTA (Algorithm 2) and LP-CTA (Algorithm 3): expand skyline batches,
/// report cells through pivots, and — for LP-CTA — prune/report cells with
/// look-ahead rank bounds first.
#[derive(Debug, Clone, Copy)]
pub struct ProgressivePolicy {
    look_ahead: bool,
}

impl ProgressivePolicy {
    /// The P-CTA configuration (no look-ahead bounds).
    pub fn pcta() -> Self {
        Self { look_ahead: false }
    }

    /// The LP-CTA configuration (with look-ahead bounds).
    pub fn lpcta() -> Self {
        Self { look_ahead: true }
    }
}

impl ExpansionPolicy for ProgressivePolicy {
    fn algorithm(&self) -> Algorithm {
        if self.look_ahead {
            Algorithm::LpCta
        } else {
            Algorithm::Pcta
        }
    }

    fn initial_batch(&self, query: &PreparedQuery<'_>) -> Vec<RecordId> {
        // Invariant 1: the first batch is the skyline of the competitor set.
        bbs_skyline(&query.filtered.tree)
    }

    fn use_dominance(&self) -> bool {
        true
    }

    fn use_rank_bounds(&self) -> bool {
        self.look_ahead
    }

    fn progressive(&self) -> bool {
        true
    }
}

/// The policy implementing `algorithm`, for the CellTree-based methods
/// (`None` for the sweep-based baselines RTOPK and iMaxRank, which do not
/// use the CellTree traversal loop).
pub fn policy_for(algorithm: Algorithm) -> Option<Box<dyn ExpansionPolicy>> {
    match algorithm {
        Algorithm::Cta => Some(Box::new(CtaPolicy)),
        Algorithm::Pcta => Some(Box::new(ProgressivePolicy::pcta())),
        Algorithm::LpCta => Some(Box::new(ProgressivePolicy::lpcta())),
        Algorithm::KSkyband => Some(Box::new(SkybandPolicy)),
        Algorithm::Rtopk | Algorithm::IMaxRank => None,
    }
}

// ---------------------------------------------------------------------------
// Batch-shared preprocessing
// ---------------------------------------------------------------------------

/// Focal-independent preprocessing shared by every query of a batch.
///
/// All contents depend only on the dataset and `k`, never on a focal record,
/// so sharing them cannot change any query's result.  Instances live in the
/// engine's per-`k` cache and are **maintained incrementally** across
/// updates ([`SharedPrep::apply_insert`] / [`SharedPrep::apply_delete`])
/// rather than recomputed per batch.
#[derive(Debug, Clone)]
pub struct SharedPrep {
    k: usize,
    /// The dataset-level k-skyband (original ids, decreasing coordinate-sum
    /// order as produced by [`k_skyband`]).
    skyband: Vec<RecordId>,
    skyband_set: HashSet<RecordId>,
    /// Full dominance adjacency among skyband members, keyed by original id.
    ///
    /// Built by inserting members in skyband order (decreasing coordinate
    /// sum).  A dominator always has a strictly larger coordinate sum than
    /// the records it dominates and — for band members — is itself a band
    /// member, so every member's complete dominator list is present.
    dominance: DominanceGraph,
}

impl SharedPrep {
    /// Computes the shared structures for queries with rank threshold `k`.
    pub fn compute(dataset: &Dataset, k: usize) -> Self {
        let skyband = k_skyband_live(dataset.records(), k, |id| dataset.is_live(id));
        let mut dominance = DominanceGraph::new();
        for &id in &skyband {
            dominance.insert(id, &dataset.records()[id].values);
        }
        let skyband_set = skyband.iter().copied().collect();
        Self {
            k,
            skyband,
            skyband_set,
            dominance,
        }
    }

    /// The `k` the structures were computed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The dataset-level k-skyband (original ids).
    pub fn skyband(&self) -> &[RecordId] {
        &self.skyband
    }

    /// True iff the original id belongs to the dataset-level k-skyband.
    pub fn in_skyband(&self, original_id: RecordId) -> bool {
        self.skyband_set.contains(&original_id)
    }

    /// The precomputed dominators (original ids) of a skyband member, or
    /// `None` when the record is not a band member.
    pub fn dominators_of(&self, original_id: RecordId) -> Option<&[RecordId]> {
        if self.dominance.contains(original_id) {
            Some(self.dominance.dominators_of(original_id))
        } else {
            None
        }
    }

    // -----------------------------------------------------------------------
    // Incremental maintenance
    //
    // Correctness rests on two facts about the k-skyband:
    //
    // 1. *Closure*: every dominator of a band member is itself a band member
    //    (if `a` dominates `b` then `D(a) ∪ {a} ⊆ D(b)`, so a non-member
    //    dominator with ≥ k dominators would give `b` more than k).  The
    //    graph's dominator counts are therefore *total* dominator counts.
    // 2. *Witnesses*: a record outside the band has at least k dominators
    //    **inside** the band (take its dominator `z` of maximal coordinate
    //    sum among non-member dominators: `z`'s own ≥ k dominators all have
    //    larger sums and all dominate the record, hence are members).
    //
    // Together they make "fewer than k dominators among the current members"
    // an exact membership test, computable without touching the rest of the
    // dataset.
    // -----------------------------------------------------------------------

    /// Patches the band for a record freshly inserted into the dataset.
    ///
    /// An insert can only *evict*: existing members dominated by the new
    /// record gain one dominator and drop out when they reach `k`.  (Every
    /// record evictable through transitivity is directly dominated by the new
    /// record, so one pass suffices.)  The new record itself joins iff fewer
    /// than `k` members dominate it.
    pub fn apply_insert(&mut self, id: RecordId, values: &[f64]) {
        let doms = self.dominance.dominating_members(values);
        if doms.len() >= self.k {
            // The new record is outside the band; by closure it then cannot
            // dominate any member, so nothing changes.
            debug_assert!(self.dominance.dominated_members(values).is_empty());
            return;
        }
        for m in self.dominance.dominated_members(values) {
            if self.dominance.dominator_count(m) + 1 >= self.k {
                self.remove_member(m);
            } else {
                self.dominance.add_dominator(m, id);
            }
        }
        self.dominance.insert_with_dominators(id, values, doms);
        let sum: f64 = values.iter().sum();
        let pos = self.skyband.partition_point(|&m| self.member_sum(m) > sum);
        self.skyband.insert(pos, id);
        self.skyband_set.insert(id);
    }

    /// Patches the band for a record just deleted from the dataset.
    ///
    /// A delete can only *promote*: records the deleted member dominated lose
    /// one dominator and may fall under `k`.  Deleting a non-member changes
    /// nothing (its dominance never reached into the band).  Candidates are
    /// re-tested against the current members (fact 2 above) in decreasing
    /// coordinate-sum order, so promotions that dominate later candidates are
    /// visible when those candidates are tested.
    pub fn apply_delete(&mut self, id: RecordId, values: &[f64], dataset: &Dataset) {
        if !self.skyband_set.contains(&id) {
            return;
        }
        self.remove_member(id);
        let mut candidates: Vec<(f64, RecordId)> = dataset
            .live_records()
            .filter(|r| !self.skyband_set.contains(&r.id) && dominates(values, &r.values))
            .map(|r| (r.values.iter().sum(), r.id))
            .collect();
        candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        for (sum, rid) in candidates {
            let vals = &dataset.records()[rid].values;
            let doms = self.dominance.dominating_members(vals);
            if doms.len() < self.k {
                self.dominance.insert_with_dominators(rid, vals, doms);
                let pos = self.skyband.partition_point(|&m| self.member_sum(m) > sum);
                self.skyband.insert(pos, rid);
                self.skyband_set.insert(rid);
            }
        }
    }

    /// The band for a smaller rank threshold, derived by the prefix property:
    /// the `k'`-skyband is exactly the members with fewer than `k'`
    /// dominators, with their dominator lists unchanged.
    ///
    /// # Panics
    /// Panics if `k > self.k()` (a larger band cannot be derived).
    pub fn view_for(&self, k: usize) -> SharedPrep {
        assert!(
            k <= self.k,
            "cannot derive a {k}-skyband from a {}-skyband",
            self.k
        );
        let skyband: Vec<RecordId> = self
            .skyband
            .iter()
            .copied()
            .filter(|&m| self.dominance.dominator_count(m) < k)
            .collect();
        let mut dominance = DominanceGraph::new();
        for &m in &skyband {
            let values = self
                .dominance
                .member_values(m)
                .expect("band member has values")
                .to_vec();
            // Dominators of a member with < k dominators have strictly fewer
            // dominators themselves, so the list carries over verbatim.
            let doms = self.dominance.dominators_of(m).to_vec();
            dominance.insert_with_dominators(m, &values, doms);
        }
        let skyband_set = skyband.iter().copied().collect();
        SharedPrep {
            k,
            skyband,
            skyband_set,
            dominance,
        }
    }

    /// Coordinate sum of a member (the band's sort key).
    fn member_sum(&self, id: RecordId) -> f64 {
        self.dominance
            .member_values(id)
            .expect("band member has values")
            .iter()
            .sum()
    }

    /// Drops a member from the band, the set and the dominance graph.
    fn remove_member(&mut self, id: RecordId) {
        self.skyband.retain(|&m| m != id);
        self.skyband_set.remove(&id);
        self.dominance.remove(id);
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The engine's shared-prep cache: one *primary* band (the largest `k`
/// computed so far, patched in place by updates) plus derived smaller-`k`
/// views, all tagged with the dataset epoch they are valid for.
#[derive(Debug, Default)]
struct PrepCache {
    /// Dataset epoch the cached structures reflect.
    epoch: u64,
    /// The band computed for the largest `k` requested so far.
    primary: Option<Arc<SharedPrep>>,
    /// Views derived from `primary` for smaller `k` (and retired primaries).
    views: HashMap<usize, Arc<SharedPrep>>,
}

impl PrepCache {
    fn clear(&mut self) {
        self.primary = None;
        self.views.clear();
    }
}

/// The unified executor for kSPR queries over one (mutable) dataset.
///
/// ```
/// use kspr::{Algorithm, Dataset, KsprConfig, QueryEngine};
///
/// let dataset = Dataset::new(vec![
///     vec![0.3, 0.8, 0.8],
///     vec![0.9, 0.4, 0.4],
///     vec![0.8, 0.3, 0.4],
///     vec![0.4, 0.3, 0.6],
/// ]);
/// let mut engine = QueryEngine::new(&dataset, KsprConfig::default());
///
/// // One query ...
/// let single = engine.run(Algorithm::LpCta, &[0.5, 0.5, 0.7], 3);
///
/// // ... or many at once, in parallel, with shared preprocessing.
/// let focals = vec![vec![0.5, 0.5, 0.7], vec![0.6, 0.6, 0.5]];
/// let batch = engine.run_batch(Algorithm::LpCta, &focals, 3);
/// assert_eq!(batch[0].num_regions(), single.num_regions());
///
/// // The dataset is mutable: updates patch the index and every cached
/// // shared-prep structure incrementally instead of rebuilding them.
/// let id = engine.insert(vec![0.7, 0.7, 0.7]);
/// let after_insert = engine.run_batch(Algorithm::LpCta, &focals, 3);
/// engine.delete(id);
/// let after_delete = engine.run_batch(Algorithm::LpCta, &focals, 3);
/// assert_eq!(after_delete[0].num_regions(), batch[0].num_regions());
/// # let _ = after_insert;
/// ```
pub struct QueryEngine {
    store: DatasetStore,
    config: KsprConfig,
    cache: Mutex<PrepCache>,
    prep_computes: AtomicU64,
}

impl QueryEngine {
    /// Creates an engine over a snapshot-shared handle to `dataset` with the
    /// given configuration.  (The handle is reference-counted; cloning it
    /// copies no records.)
    pub fn new(dataset: &Dataset, config: KsprConfig) -> Self {
        Self::with_store(DatasetStore::new(dataset.clone()), config)
    }

    /// Creates an engine that takes ownership of a mutable dataset store.
    pub fn with_store(store: DatasetStore, config: KsprConfig) -> Self {
        Self {
            store,
            config,
            cache: Mutex::new(PrepCache::default()),
            prep_computes: AtomicU64::new(0),
        }
    }

    /// The dataset this engine queries.
    pub fn dataset(&self) -> &Dataset {
        self.store.dataset()
    }

    /// The mutable dataset store (for epoch inspection).
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// Snapshot-restore hook: forces the dataset epoch to `epoch` and drops
    /// every cached shared-prep entry (their recorded epochs belong to the
    /// reconstruction path, not the restored one).  See
    /// [`DatasetStore::restore_epoch`]; only meaningful on a freshly rebuilt
    /// engine before it serves its first query.
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.store.restore_epoch(epoch);
        let cache = Self::recovering_get_mut(&mut self.cache);
        cache.primary = None;
        cache.views.clear();
        cache.epoch = epoch;
    }

    /// The configuration applied to every query.
    pub fn config(&self) -> &KsprConfig {
        &self.config
    }

    /// How many times the engine computed a [`SharedPrep`] from scratch.
    ///
    /// Steady-state serving on an unchanged dataset keeps this constant:
    /// cache hits, smaller-`k` views and update patches all cost zero
    /// recomputations.
    pub fn shared_prep_computes(&self) -> u64 {
        self.prep_computes.load(Ordering::Relaxed)
    }

    // -----------------------------------------------------------------------
    // Updates
    // -----------------------------------------------------------------------

    /// Inserts a record, patching the R-tree and every cached shared-prep
    /// structure in place, and returns its id.
    ///
    /// # Panics
    /// Panics if `values` does not match the dataset arity.
    pub fn insert(&mut self, values: Vec<f64>) -> RecordId {
        let id = self.store.insert(values.clone());
        let cache = Self::recovering_get_mut(&mut self.cache);
        if let Some(primary) = &mut cache.primary {
            Arc::make_mut(primary).apply_insert(id, &values);
        }
        // Derived views are cheap to re-derive; drop them instead of patching
        // each one.
        cache.views.clear();
        cache.epoch = self.store.epoch();
        id
    }

    /// Deletes record `id` (returns `false` if it does not exist or was
    /// already deleted), patching the R-tree and every cached shared-prep
    /// structure in place.
    pub fn delete(&mut self, id: RecordId) -> bool {
        self.delete_returning(id).is_some()
    }

    /// Like [`QueryEngine::delete`], but returns the removed record's
    /// attribute values.
    ///
    /// This is the delete hook consumed by the standing-query monitor
    /// (`kspr-monitor`): classifying a delete needs the *removed* values
    /// after the engine state has already moved on, and reading them up front
    /// through the caller would race other handles.
    pub fn delete_returning(&mut self, id: RecordId) -> Option<Vec<f64>> {
        let values = self.store.delete(id)?;
        let cache = Self::recovering_get_mut(&mut self.cache);
        if let Some(primary) = &mut cache.primary {
            Arc::make_mut(primary).apply_delete(id, &values, self.store.dataset());
        }
        cache.views.clear();
        cache.epoch = self.store.epoch();
        Some(values)
    }

    /// Number of live records dominating `values`, stopping early once
    /// `limit` dominators are found (see
    /// [`kspr_spatial::AggregateRTree::count_dominating`]).
    ///
    /// This is the engine-level dominance-delta probe of the standing-query
    /// monitor: an update record with at least `k` live dominators cannot
    /// change any `k`-query's result regions (skyband witness property).
    pub fn count_dominating(&self, values: &[f64], limit: usize) -> usize {
        self.store.dataset().tree().count_dominating(values, limit)
    }

    /// Recovers the cache from a poisoned lock.
    ///
    /// The shared-prep cache is a pure accelerator: every entry can be
    /// recomputed from the dataset, so a panic that poisoned the `Mutex`
    /// (e.g. a panicking query inside the locked region, under `rayon` or
    /// otherwise) must not take the engine down with it.  The poisoned
    /// contents are dropped — a panic mid-update could have left a
    /// half-patched band behind — and the poison flag is cleared so later
    /// queries cache normally again.
    fn recovering_get_mut(cache: &mut Mutex<PrepCache>) -> &mut PrepCache {
        if cache.is_poisoned() {
            cache.clear_poison();
            if let Ok(inner) = cache.get_mut() {
                inner.clear();
            }
        }
        cache.get_mut().expect("prep cache poison was just cleared")
    }

    /// Locks the cache, recovering (and discarding) poisoned contents.
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, PrepCache> {
        match self.cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.cache.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                guard
            }
        }
    }

    /// The engine's cached shared preprocessing for rank threshold `k` — the
    /// dataset-level k-skyband and the dominance adjacency of its members.
    ///
    /// This is the shard-aware entry point used by the `kspr-serve` front-end:
    /// each shard exposes its (incrementally patched) band through this method
    /// and the serving layer merges the per-shard bands into a global
    /// candidate set.  Served from the per-`k` cache; computes at most once
    /// per (dataset epoch, `k`).
    pub fn shared_prep_for(&self, k: usize) -> Arc<SharedPrep> {
        assert!(k >= 1, "k must be at least 1");
        self.shared_prep(k)
    }

    /// Fetches (or computes) the shared prep for rank threshold `k`.
    ///
    /// Cache discipline: an exact-`k` hit is free; a larger cached band
    /// serves `k` through an `O(band)` view; only a genuinely larger `k`
    /// recomputes (and the old primary is retired into the view map, staying
    /// servable).
    fn shared_prep(&self, k: usize) -> Arc<SharedPrep> {
        let mut cache = self.lock_cache();
        // Updates patch the cache synchronously, so a stale epoch can only be
        // seen if the store was swapped out from under us; drop everything.
        if cache.epoch != self.store.epoch() {
            cache.clear();
            cache.epoch = self.store.epoch();
        }
        match &cache.primary {
            Some(primary) if primary.k() == k => Arc::clone(primary),
            Some(primary) if primary.k() > k => {
                if let Some(view) = cache.views.get(&k) {
                    return Arc::clone(view);
                }
                let view = Arc::new(primary.view_for(k));
                cache.views.insert(k, Arc::clone(&view));
                view
            }
            _ => {
                self.prep_computes.fetch_add(1, Ordering::Relaxed);
                let prep = Arc::new(SharedPrep::compute(self.store.dataset(), k));
                if let Some(old) = cache.primary.take() {
                    // The retired primary is still the exact band for its k.
                    cache.views.insert(old.k(), old);
                }
                cache.primary = Some(Arc::clone(&prep));
                prep
            }
        }
    }

    /// Runs one kSPR query.
    ///
    /// # Panics
    /// Panics if `k == 0`, if the focal arity does not match the dataset, or
    /// if [`Algorithm::Rtopk`] is requested on non-2-dimensional data.
    pub fn run(&self, algorithm: Algorithm, focal: &[f64], k: usize) -> KsprResult {
        self.run_shared(algorithm, focal, k, None)
    }

    /// Runs the query for every focal record in parallel, sharing the
    /// focal-independent preprocessing (dataset index, k-skyband, dominance
    /// graph) across all of them.
    ///
    /// Results are returned in input order and are identical to calling
    /// [`QueryEngine::run`] once per focal record.
    pub fn run_batch(
        &self,
        algorithm: Algorithm,
        focals: &[Vec<f64>],
        k: usize,
    ) -> Vec<KsprResult> {
        let shared = policy_for(algorithm)
            .filter(|policy| policy.uses_shared_prep())
            .map(|_| self.shared_prep(k));
        focals
            .par_iter()
            .map(|focal| self.run_shared(algorithm, focal, k, shared.as_deref()))
            .collect()
    }

    fn run_shared(
        &self,
        algorithm: Algorithm,
        focal: &[f64],
        k: usize,
        shared: Option<&SharedPrep>,
    ) -> KsprResult {
        let clock = std::time::Instant::now();
        let mut result = match policy_for(algorithm) {
            Some(policy) => self.run_policy(policy.as_ref(), focal, k, shared),
            // The sweep-based baselines have self-contained drivers.
            None => match algorithm {
                Algorithm::Rtopk => run_rtopk(self.store.dataset(), focal, k),
                Algorithm::IMaxRank => run_imaxrank(self.store.dataset(), focal, k),
                _ => unreachable!("policy_for covers all CellTree algorithms"),
            },
        };
        result.stats.phases.wall_ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        result
    }

    /// The shared CellTree traversal loop (steps 2–5 of the module docs).
    fn run_policy(
        &self,
        policy: &dyn ExpansionPolicy,
        focal: &[f64],
        k: usize,
        shared: Option<&SharedPrep>,
    ) -> KsprResult {
        let mut stats = QueryStats::new();
        let space = PreferenceSpace::new(focal.len(), self.config.space);
        let prep_clock = std::time::Instant::now();
        let elapsed_ns =
            |clock: &std::time::Instant| u64::try_from(clock.elapsed().as_nanos()).unwrap_or(0);

        // Step 1: Section 3.1 preprocessing (with dataset-index reuse).
        let filtered = match prepare(self.store.dataset(), focal, k, &mut stats) {
            Prepared::Empty { .. } => {
                stats.phases.prep_ns += elapsed_ns(&prep_clock);
                return KsprResult::empty(space, stats);
            }
            Prepared::WholeSpace { dominators } => {
                stats.phases.prep_ns += elapsed_ns(&prep_clock);
                let mut result = KsprResult::whole_space(space, dominators + 1, stats);
                result.finalize();
                return result;
            }
            Prepared::Filtered(f) => f,
        };
        // Look-ahead bounds read the competitor R-tree's aggregates, so for
        // bound-using policies the competitor set is first restricted to its
        // k_effective-skyband (sound by the same Lemma 6 argument as the
        // skyband baseline: a record with `k_effective` dominators among the
        // competitors never outscores the focal record inside a result cell,
        // so dropping it preserves every reported region and rank).  Beyond
        // shrinking the bound tree, this makes the *decomposition* of a
        // bound-using run invariant under updates of witnessed records — a
        // record with `k` live dominators sits outside the restricted set
        // both before and after its insert or delete, and cannot move any
        // other record across the skyband boundary (its own dominators
        // transitively dominate everything it dominates).  The standing-query
        // monitor's cell-wise LP-CTA patching rests on exactly this
        // invariance.
        let filtered = if policy.use_rank_bounds() {
            restrict_to_witness_skyband(filtered, shared, k)
        } else {
            filtered
        };
        stats.phases.prep_ns += elapsed_ns(&prep_clock);

        let query = PreparedQuery {
            filtered: &filtered,
            shared,
            k,
        };
        let expansion_clock = std::time::Instant::now();
        let mut traversal = Traversal::new(&filtered, focal, &self.config, stats, shared);
        let mut batch = policy.initial_batch(&query);

        'expansion: loop {
            // Step 2: expand the batch into the CellTree.
            traversal.stats.batches += 1;
            for &id in &batch {
                traversal.process_record(id, policy.use_dominance());
                if traversal.tree.is_exhausted() {
                    break 'expansion;
                }
            }

            // Step 3: look-ahead rank bounds (LP-CTA).
            if policy.use_rank_bounds() {
                traversal.apply_rank_bounds();
                if traversal.tree.is_exhausted() {
                    break;
                }
            }

            // Step 4: pivot-based reporting and the next skyline batch.
            if !policy.progressive() {
                break;
            }
            match traversal.pivot_stage() {
                Some(next) => batch = next,
                None => break,
            }
        }

        // Step 5: whatever survived is part of the result.
        if !traversal.tree.is_exhausted() {
            traversal.collect_remaining();
        }
        let mut result = traversal.finish();
        result.stats.phases.expansion_ns += elapsed_ns(&expansion_clock);
        result
    }
}

/// Restricts a filtered competitor set to its `k_effective`-skyband, the
/// stable core that bound-using policies (LP-CTA) traverse and bound against.
///
/// When batch-shared preprocessing for the same `k` is available the scan is
/// restricted to the precomputed dataset-level band (the membership argument
/// of [`SkybandPolicy::initial_batch`]); the output is identical either way,
/// so single runs and batch members produce bit-identical results.  When
/// nothing is pruned the prepared query (and its possibly-shared tree) is
/// passed through untouched.
fn restrict_to_witness_skyband(
    filtered: FilteredQuery,
    shared: Option<&SharedPrep>,
    k: usize,
) -> FilteredQuery {
    let mut keep = match shared {
        Some(s) if s.k() == k => {
            k_skyband_restricted(&filtered.records, filtered.k_effective, |id| {
                s.in_skyband(filtered.original_ids[id])
            })
        }
        _ => k_skyband(&filtered.records, filtered.k_effective),
    };
    if keep.len() == filtered.records.len() {
        return filtered;
    }
    // The band scan emits decreasing coordinate-sum order; re-id ascending so
    // `original_ids` stays sorted (its binary-search invariant).
    keep.sort_unstable();
    let records: Vec<Record> = keep
        .iter()
        .enumerate()
        .map(|(i, &id)| Record::new(i, filtered.records[id].values.clone()))
        .collect();
    let original_ids: Vec<usize> = keep.iter().map(|&id| filtered.original_ids[id]).collect();
    let tree = Arc::new(AggregateRTree::bulk_load(
        records.clone(),
        AggregateRTree::DEFAULT_FANOUT,
    ));
    let io_base = tree.io().reads();
    FilteredQuery {
        records,
        original_ids,
        tree,
        k_effective: filtered.k_effective,
        dominators: filtered.dominators,
        io_base,
    }
}

// ---------------------------------------------------------------------------
// Per-query traversal state
// ---------------------------------------------------------------------------

/// Mutable per-query state of the shared traversal loop: the CellTree, the
/// hyperplane store, the processed-record bookkeeping and the accumulated
/// result regions.
struct Traversal<'a> {
    filtered: &'a FilteredQuery,
    focal: &'a [f64],
    config: &'a KsprConfig,
    shared: Option<&'a SharedPrep>,
    space: PreferenceSpace,
    store: HyperplaneStore,
    tree: CellTree,
    stats: QueryStats,
    regions: Vec<Region>,
    /// plane index per processed (filtered) record id.
    plane_of: HashMap<RecordId, usize>,
    processed: HashSet<RecordId>,
    /// Reused scratch for path-halfspace collection (`region_of`, rank-bound
    /// cell systems).
    path_scratch: Vec<Halfspace>,
    /// Reused scratch for full-halfspace collection (pivot stage).
    full_scratch: Vec<Halfspace>,
}

impl<'a> Traversal<'a> {
    fn new(
        filtered: &'a FilteredQuery,
        focal: &'a [f64],
        config: &'a KsprConfig,
        stats: QueryStats,
        shared: Option<&'a SharedPrep>,
    ) -> Self {
        let dim = focal.len();
        let space = PreferenceSpace::new(dim, config.space);
        let store = HyperplaneStore::new(space, focal.to_vec());
        let tree = CellTree::new(
            space,
            filtered.k_effective,
            config.use_lemma2,
            config.use_witness,
        );
        Self {
            filtered,
            focal,
            config,
            shared,
            space,
            store,
            tree,
            stats,
            regions: Vec::new(),
            plane_of: HashMap::new(),
            processed: HashSet::new(),
            path_scratch: Vec::new(),
            full_scratch: Vec::new(),
        }
    }

    /// Inserts one record's hyperplane into the CellTree (using the dominance
    /// shortcut of Lemma 4/5 when `use_dominance` is set).
    fn process_record(&mut self, id: RecordId, use_dominance: bool) {
        if self.processed.contains(&id) {
            return;
        }
        let values = self.filtered.records[id].values.clone();
        let plane_probe = Hyperplane::separating(&values, self.focal, &self.space);
        self.processed.insert(id);
        self.stats.processed_records += 1;
        match plane_probe.kind() {
            PlaneKind::Coincident => return, // ties are ignored (Section 3.1)
            PlaneKind::AlwaysNegative => return, // can never outrank the focal record
            PlaneKind::AlwaysPositive | PlaneKind::Proper => {}
        }
        let plane = self.store.add(id, &values);
        self.plane_of.insert(id, plane);
        let dominator_planes = if use_dominance {
            self.dominator_planes_of(id, &values)
        } else {
            HashSet::new()
        };
        self.tree
            .insert(&self.store, plane, &dominator_planes, &mut self.stats);
    }

    /// The planes of the already-processed dominators of record `id` — the
    /// "dominance graph" lookup backing the Lemma 4/5 insertion shortcut.
    ///
    /// In batch mode the dominator list of a skyband member comes from the
    /// precomputed [`SharedPrep`] adjacency (translated through the
    /// preprocessing id mapping); otherwise it is derived pairwise against
    /// the processed records, which reproduces the incremental dominance
    /// graph P-CTA maintains (Invariant 1 guarantees dominators are processed
    /// before the records they dominate, so both derivations agree).
    fn dominator_planes_of(&self, id: RecordId, values: &[f64]) -> HashSet<usize> {
        if let Some(shared) = self.shared {
            let original = self.filtered.original_ids[id];
            if let Some(dominators) = shared.dominators_of(original) {
                return dominators
                    .iter()
                    .filter_map(|&orig| self.filtered.filtered_id_of(orig))
                    .filter_map(|fid| self.plane_of.get(&fid))
                    .copied()
                    .collect();
            }
        }
        self.plane_of
            .iter()
            .filter(|(&other, _)| dominates(&self.filtered.records[other].values, values))
            .map(|(_, &plane)| plane)
            .collect()
    }

    /// The look-ahead rank-bound stage of LP-CTA (Section 6): bound the rank
    /// of every not-yet-checked promising cell, pruning or reporting it
    /// outright when the bounds are conclusive.
    fn apply_rank_bounds(&mut self) {
        let k_eff = self.filtered.k_effective;
        for leaf in self.tree.promising_leaves() {
            if self.tree.node(leaf).bounds_checked {
                continue;
            }
            let (sys, grew) = self
                .tree
                .cell_system_with(leaf, &self.store, &mut self.path_scratch);
            self.stats.halfspace_scratch_grows += usize::from(grew);
            let (_, decision) = rank_bounds(
                &sys,
                self.focal,
                &self.filtered.tree,
                &self.filtered.records,
                k_eff,
                self.config.bound_mode,
                &mut self.stats,
            );
            match decision {
                BoundDecision::Prune => {
                    self.tree.eliminate(leaf);
                    self.stats.cells_pruned_by_bounds += 1;
                }
                BoundDecision::Report => {
                    self.report_leaf(leaf);
                    self.stats.cells_reported_by_bounds += 1;
                }
                BoundDecision::Undecided => self.tree.mark_bounds_checked(leaf),
            }
        }
    }

    /// The pivot stage of P-CTA (Lemma 5): report every promising cell whose
    /// pivots dominate all unprocessed records, and compute the next batch —
    /// the unprocessed skyline of the dataset minus the non-pivot union.
    ///
    /// Returns `None` when the traversal is complete (no promising cell left,
    /// or every remaining cell is final).
    fn pivot_stage(&mut self) -> Option<Vec<RecordId>> {
        let promising = self.tree.promising_leaves();
        if promising.is_empty() {
            return None;
        }

        let data_tree = &self.filtered.tree;
        let mut non_pivot_union: HashSet<RecordId> = HashSet::new();
        let mut unreported = Vec::new();
        for leaf in promising {
            let grew = self.tree.full_halfspaces_into(leaf, &mut self.full_scratch);
            self.stats.halfspace_scratch_grows += usize::from(grew);
            let mut pivots: Vec<RecordId> = Vec::new();
            let mut non_pivots: Vec<RecordId> = Vec::new();
            for h in &self.full_scratch {
                let source = self.store.source(h.plane);
                match h.sign {
                    Sign::Negative => pivots.push(source),
                    Sign::Positive => non_pivots.push(source),
                }
            }
            let pivot_values: Vec<&[f64]> = pivots
                .iter()
                .map(|&id| self.filtered.records[id].values.as_slice())
                .collect();
            let processed = &self.processed;
            let witness =
                data_tree.find_not_dominated(&pivot_values, &|rid| processed.contains(&rid));
            match witness {
                None => {
                    // No unprocessed record can affect this cell: report it.
                    self.report_leaf(leaf);
                    self.stats.cells_reported_by_pivots += 1;
                }
                Some(_) => {
                    non_pivot_union.extend(non_pivots);
                    unreported.push(leaf);
                }
            }
        }
        if unreported.is_empty() {
            return None;
        }

        // Next batch: unprocessed records in the skyline of D minus the
        // non-pivot union (Section 5).
        let skyline = skyline_excluding(data_tree, &non_pivot_union);
        let mut next: Vec<RecordId> = skyline
            .into_iter()
            .filter(|id| !self.processed.contains(id))
            .collect();
        if next.is_empty() {
            // Safety net (should not trigger — see the argument in Section 5):
            // process any witnesses that keep the remaining cells unreported.
            for leaf in unreported {
                let grew = self.tree.full_halfspaces_into(leaf, &mut self.full_scratch);
                self.stats.halfspace_scratch_grows += usize::from(grew);
                let pivots: Vec<&[f64]> = self
                    .full_scratch
                    .iter()
                    .filter(|h| h.sign == Sign::Negative)
                    .map(|h| {
                        self.filtered.records[self.store.source(h.plane)]
                            .values
                            .as_slice()
                    })
                    .collect();
                let processed = &self.processed;
                if let Some(w) =
                    data_tree.find_not_dominated(&pivots, &|rid| processed.contains(&rid))
                {
                    next.push(w);
                }
            }
            next.sort_unstable();
            next.dedup();
            if next.is_empty() {
                // Every record is processed; the remaining promising cells
                // are final.
                return None;
            }
        }
        Some(next)
    }

    /// Wraps a live leaf into a result region (rank is reported with respect
    /// to the *full* dataset, i.e. including the dominators removed by
    /// preprocessing).
    fn region_of(&mut self, leaf: usize) -> Region {
        let rank = self.tree.rank(leaf) + self.filtered.dominators;
        let grew = self.tree.path_halfspaces_into(leaf, &mut self.path_scratch);
        self.stats.halfspace_scratch_grows += usize::from(grew);
        Region::new(rank, self.store.materialize(&self.path_scratch))
    }

    /// Reports a leaf: adds it to the result and removes it from play.
    fn report_leaf(&mut self, leaf: usize) {
        let region = self.region_of(leaf);
        self.regions.push(region);
        self.tree.report(leaf);
    }

    /// Collects every remaining promising leaf into the result (used when the
    /// traversal terminates with the arrangement fully built).
    fn collect_remaining(&mut self) {
        for leaf in self.tree.promising_leaves() {
            let region = self.region_of(leaf);
            self.regions.push(region);
            self.tree.report(leaf);
        }
    }

    /// Finishes the query: packaging, finalization, I/O accounting.
    fn finish(mut self) -> KsprResult {
        self.stats.io_reads = self
            .filtered
            .tree
            .io()
            .reads()
            .saturating_sub(self.filtered.io_base);
        if let Some(model) = &self.config.io_model {
            self.stats.io_time_ms = model.io_time_ms(self.stats.io_reads);
        }
        self.stats.result_regions = self.regions.len();
        // Created (not resident) nodes: with the arena free list the slot
        // count can shrink below the amount of work actually performed, and
        // the creation counter is what Figure 11b reports.
        self.stats.celltree_nodes = self.tree.nodes_created();
        let mut result = KsprResult {
            space: self.space,
            regions: self.regions,
            stats: self.stats,
        };
        result.finalize();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn figure1() -> (Dataset, Vec<Vec<f64>>, Vec<f64>) {
        let raw = vec![
            vec![3.0, 8.0, 8.0],
            vec![9.0, 4.0, 4.0],
            vec![8.0, 3.0, 4.0],
            vec![4.0, 3.0, 6.0],
        ];
        (Dataset::new(raw.clone()), raw, vec![5.0, 5.0, 7.0])
    }

    #[test]
    fn policies_expose_their_algorithm() {
        assert_eq!(CtaPolicy.algorithm(), Algorithm::Cta);
        assert_eq!(SkybandPolicy.algorithm(), Algorithm::KSkyband);
        assert_eq!(ProgressivePolicy::pcta().algorithm(), Algorithm::Pcta);
        assert_eq!(ProgressivePolicy::lpcta().algorithm(), Algorithm::LpCta);
        assert!(!CtaPolicy.progressive());
        assert!(!CtaPolicy.use_dominance());
        assert!(ProgressivePolicy::lpcta().use_rank_bounds());
        assert!(!ProgressivePolicy::pcta().use_rank_bounds());
        // Shared preprocessing is only computed for policies that read it.
        assert!(!CtaPolicy.uses_shared_prep());
        assert!(SkybandPolicy.uses_shared_prep());
        assert!(ProgressivePolicy::pcta().uses_shared_prep());
        assert!(ProgressivePolicy::lpcta().uses_shared_prep());
        for alg in [
            Algorithm::Cta,
            Algorithm::Pcta,
            Algorithm::LpCta,
            Algorithm::KSkyband,
        ] {
            assert_eq!(policy_for(alg).unwrap().algorithm(), alg);
        }
        assert!(policy_for(Algorithm::Rtopk).is_none());
        assert!(policy_for(Algorithm::IMaxRank).is_none());
    }

    #[test]
    fn engine_matches_oracle_for_every_policy() {
        let (dataset, raw, focal) = figure1();
        let engine = QueryEngine::new(&dataset, KsprConfig::default());
        for alg in [
            Algorithm::Cta,
            Algorithm::Pcta,
            Algorithm::LpCta,
            Algorithm::KSkyband,
        ] {
            for k in 1..=4 {
                let result = engine.run(alg, &focal, k);
                let agreement = naive::classification_agreement(&result, &raw, &focal, k, 400, 7);
                assert!(agreement > 0.995, "{alg:?} k={k}: agreement {agreement}");
            }
        }
    }

    #[test]
    fn bound_using_policies_are_invariant_under_witnessed_updates() {
        let (dataset, _, focal) = figure1();
        let mut engine = QueryEngine::new(&dataset, KsprConfig::default());
        let k = 1;
        let before = engine.run(Algorithm::LpCta, &focal, k);
        assert!(!before.is_empty() && !before.is_whole_space());
        // (2.5, 7.5, 5.0) is incomparable with the focal record and dominated
        // by record 0 — a witnessed update for k = 1.  The skyband
        // restriction keeps it out of the bound traversal entirely, so the
        // decomposition (not just the covered area) must survive its insert
        // and delete unchanged.
        let update = vec![2.5, 7.5, 5.0];
        assert!(engine.count_dominating(&update, k) >= k);
        assert!(!dominates(&update, &focal) && !dominates(&focal, &update));
        let id = engine.insert(update);
        let after = engine.run(Algorithm::LpCta, &focal, k);
        assert_eq!(before.num_regions(), after.num_regions());
        assert_eq!(before.rank_signature(), after.rank_signature());
        assert_eq!(
            before.stats.processed_records, after.stats.processed_records,
            "a witnessed record must never enter the bound traversal"
        );
        for w in naive::sample_weights(&before.space, 80, 17) {
            assert_eq!(before.contains(&w), after.contains(&w), "at {w:?}");
        }
        assert!(engine.delete(id));
        let restored = engine.run(Algorithm::LpCta, &focal, k);
        assert_eq!(before.num_regions(), restored.num_regions());
        assert_eq!(before.rank_signature(), restored.rank_signature());
    }

    #[test]
    fn run_batch_matches_individual_runs_on_figure1() {
        let (dataset, _, _) = figure1();
        let engine = QueryEngine::new(&dataset, KsprConfig::default());
        let focals = vec![
            vec![5.0, 5.0, 7.0],
            vec![6.0, 6.0, 5.0],
            vec![3.5, 4.0, 7.5],
            vec![9.5, 9.5, 9.5], // dominates everything -> whole space
            vec![1.0, 1.0, 1.0], // dominated by everything -> empty
        ];
        for alg in [
            Algorithm::Cta,
            Algorithm::Pcta,
            Algorithm::LpCta,
            Algorithm::KSkyband,
        ] {
            let batch = engine.run_batch(alg, &focals, 2);
            assert_eq!(batch.len(), focals.len());
            for (focal, from_batch) in focals.iter().zip(&batch) {
                let alone = engine.run(alg, focal, 2);
                assert_eq!(from_batch.num_regions(), alone.num_regions(), "{alg:?}");
                assert_eq!(
                    from_batch.stats.processed_records,
                    alone.stats.processed_records
                );
                assert_eq!(from_batch.stats.celltree_nodes, alone.stats.celltree_nodes);
                for w in naive::sample_weights(&alone.space, 60, 5) {
                    assert_eq!(
                        from_batch.contains(&w),
                        alone.contains(&w),
                        "{alg:?} at {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_prep_dominance_adjacency_is_complete() {
        let (dataset, raw, _) = figure1();
        let shared = SharedPrep::compute(&dataset, 2);
        for &id in shared.skyband() {
            let expected: Vec<usize> = (0..raw.len())
                .filter(|&other| dominates(&raw[other], &raw[id]))
                .collect();
            let mut got = shared.dominators_of(id).unwrap().to_vec();
            got.sort_unstable();
            assert_eq!(got, expected, "record {id}");
        }
        assert_eq!(shared.k(), 2);
    }

    #[test]
    fn steady_state_batches_never_recompute_shared_prep() {
        let (dataset, _, _) = figure1();
        let engine = QueryEngine::new(&dataset, KsprConfig::default());
        let focals = vec![vec![5.0, 5.0, 7.0], vec![6.0, 6.0, 5.0]];

        assert_eq!(engine.shared_prep_computes(), 0);
        engine.run_batch(Algorithm::LpCta, &focals, 3);
        assert_eq!(engine.shared_prep_computes(), 1, "first batch computes");
        engine.run_batch(Algorithm::LpCta, &focals, 3);
        engine.run_batch(Algorithm::Pcta, &focals, 3);
        engine.run_batch(Algorithm::KSkyband, &focals, 3);
        assert_eq!(
            engine.shared_prep_computes(),
            1,
            "unchanged dataset + same k must be pure cache hits"
        );
        // Smaller k is served as a view of the cached band.
        engine.run_batch(Algorithm::LpCta, &focals, 2);
        engine.run_batch(Algorithm::LpCta, &focals, 1);
        assert_eq!(engine.shared_prep_computes(), 1, "k' <= k is derived");
        // A larger k genuinely needs a new band ...
        engine.run_batch(Algorithm::LpCta, &focals, 4);
        assert_eq!(engine.shared_prep_computes(), 2);
        // ... after which the old k is still served without recomputation.
        engine.run_batch(Algorithm::LpCta, &focals, 3);
        engine.run_batch(Algorithm::LpCta, &focals, 4);
        assert_eq!(engine.shared_prep_computes(), 2);
        // CTA does not consult the shared prep at all.
        engine.run_batch(Algorithm::Cta, &focals, 5);
        assert_eq!(engine.shared_prep_computes(), 2);
    }

    #[test]
    fn updates_patch_the_cached_prep_without_recomputation() {
        let (dataset, _, _) = figure1();
        let mut engine = QueryEngine::new(&dataset, KsprConfig::default());
        let focals = vec![vec![5.0, 5.0, 7.0], vec![6.0, 6.0, 5.0]];
        let k = 2;
        engine.run_batch(Algorithm::LpCta, &focals, k);
        assert_eq!(engine.shared_prep_computes(), 1);

        let id = engine.insert(vec![7.0, 7.0, 7.0]);
        let after_insert = engine.run_batch(Algorithm::LpCta, &focals, k);
        engine.delete(id);
        engine.delete(1);
        let after_deletes = engine.run_batch(Algorithm::LpCta, &focals, k);
        assert_eq!(
            engine.shared_prep_computes(),
            1,
            "updates must patch the cached prep, not invalidate it"
        );

        // Every post-update batch matches a from-scratch engine over the same
        // live records.
        for (results, live_raw) in [
            (
                &after_insert,
                vec![
                    vec![3.0, 8.0, 8.0],
                    vec![9.0, 4.0, 4.0],
                    vec![8.0, 3.0, 4.0],
                    vec![4.0, 3.0, 6.0],
                    vec![7.0, 7.0, 7.0],
                ],
            ),
            (
                &after_deletes,
                vec![
                    vec![3.0, 8.0, 8.0],
                    vec![8.0, 3.0, 4.0],
                    vec![4.0, 3.0, 6.0],
                ],
            ),
        ] {
            let fresh = QueryEngine::new(&Dataset::new(live_raw), KsprConfig::default());
            let expected = fresh.run_batch(Algorithm::LpCta, &focals, k);
            for (got, want) in results.iter().zip(&expected) {
                assert_eq!(got.num_regions(), want.num_regions());
                assert_eq!(got.stats.processed_records, want.stats.processed_records);
                for w in naive::sample_weights(&got.space, 60, 17) {
                    assert_eq!(got.contains(&w), want.contains(&w));
                }
            }
        }
    }

    /// Sorted (member, sorted dominators) signature of a band, for equality
    /// checks between incrementally patched and recomputed preps.
    fn band_signature(prep: &SharedPrep) -> Vec<(RecordId, Vec<RecordId>)> {
        let mut sig: Vec<(RecordId, Vec<RecordId>)> = prep
            .skyband()
            .iter()
            .map(|&id| {
                let mut doms = prep.dominators_of(id).unwrap().to_vec();
                doms.sort_unstable();
                (id, doms)
            })
            .collect();
        sig.sort();
        sig
    }

    #[test]
    fn incremental_prep_equals_recomputation_under_random_updates() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..3 {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let d = 3;
            let raw: Vec<Vec<f64>> = (0..80)
                .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let mut store = DatasetStore::from_raw(raw);
            let k = 4;
            let mut prep = SharedPrep::compute(store.dataset(), k);
            for _ in 0..120 {
                if rng.gen_range(0..3) == 0 && store.dataset().len() > 5 {
                    let live: Vec<RecordId> =
                        store.dataset().live_records().map(|r| r.id).collect();
                    let victim = live[rng.gen_range(0..live.len())];
                    let values = store.delete(victim).unwrap();
                    prep.apply_delete(victim, &values, store.dataset());
                } else {
                    let values: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
                    let id = store.insert(values.clone());
                    prep.apply_insert(id, &values);
                }
                let recomputed = SharedPrep::compute(store.dataset(), k);
                assert_eq!(
                    band_signature(&prep),
                    band_signature(&recomputed),
                    "seed {seed}: patched band diverged from recomputation"
                );
                // The smaller-k views derived from the patched band must also
                // match direct computation.
                for smaller in 1..k {
                    assert_eq!(
                        band_signature(&prep.view_for(smaller)),
                        band_signature(&SharedPrep::compute(store.dataset(), smaller)),
                        "seed {seed}: k={smaller} view diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn poisoned_prep_cache_recovers_instead_of_locking_up() {
        let (dataset, _, _) = figure1();
        let mut engine = QueryEngine::new(&dataset, KsprConfig::default());
        let focals = vec![vec![5.0, 5.0, 7.0], vec![6.0, 6.0, 5.0]];
        let before_poison = engine.run_batch(Algorithm::LpCta, &focals, 3);
        assert_eq!(engine.shared_prep_computes(), 1);

        // Poison the cache mutex the way a panicking query would: panic while
        // holding the lock.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.cache.lock().unwrap();
            panic!("query panicked while holding the prep cache");
        }));
        assert!(result.is_err());
        assert!(engine.cache.is_poisoned());

        // Every later query must still be served (the poisoned cache contents
        // are discarded and rebuilt), with identical results ...
        let after_poison = engine.run_batch(Algorithm::LpCta, &focals, 3);
        for (a, b) in before_poison.iter().zip(&after_poison) {
            assert_eq!(a.num_regions(), b.num_regions());
        }
        assert_eq!(
            engine.shared_prep_computes(),
            2,
            "the dropped cache is recomputed once"
        );
        // ... and caching resumes normally (no recompute-per-call lockstep).
        engine.run_batch(Algorithm::LpCta, &focals, 3);
        assert_eq!(engine.shared_prep_computes(), 2);
        assert!(!engine.cache.is_poisoned(), "poison flag must be cleared");

        // The update path recovers too.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.cache.lock().unwrap();
            panic!("poison again");
        }));
        assert!(result.is_err());
        let id = engine.insert(vec![7.0, 7.0, 7.0]);
        assert!(engine.delete(id));
        engine.run_batch(Algorithm::LpCta, &focals, 3);
        for (a, b) in before_poison
            .iter()
            .zip(&engine.run_batch(Algorithm::LpCta, &focals, 3))
        {
            assert_eq!(a.num_regions(), b.num_regions());
        }
    }

    #[test]
    fn delete_returning_hands_back_the_removed_values() {
        let (dataset, _, _) = figure1();
        let mut engine = QueryEngine::new(&dataset, KsprConfig::default());
        assert_eq!(engine.delete_returning(1), Some(vec![9.0, 4.0, 4.0]));
        assert_eq!(engine.delete_returning(1), None, "double delete is a no-op");
        assert_eq!(engine.delete_returning(99), None);
        assert_eq!(engine.dataset().len(), 3);
    }

    #[test]
    fn count_dominating_probes_the_live_dataset() {
        let (dataset, _, _) = figure1();
        let mut engine = QueryEngine::new(&dataset, KsprConfig::default());
        // Records 1 (9,4,4) and 2 (8,3,4) dominate (7.5, 3.0, 4.0).
        assert_eq!(engine.count_dominating(&[7.5, 3.0, 4.0], usize::MAX), 2);
        assert!(engine.count_dominating(&[7.5, 3.0, 4.0], 1) >= 1);
        engine.delete(1);
        assert_eq!(engine.count_dominating(&[7.5, 3.0, 4.0], usize::MAX), 1);
    }

    #[test]
    fn shared_prep_for_serves_from_the_cache() {
        let (dataset, _, _) = figure1();
        let engine = QueryEngine::new(&dataset, KsprConfig::default());
        let a = engine.shared_prep_for(3);
        let b = engine.shared_prep_for(3);
        assert!(Arc::ptr_eq(&a, &b), "same k must be a cache hit");
        assert_eq!(engine.shared_prep_computes(), 1);
        assert_eq!(engine.shared_prep_for(2).k(), 2, "smaller k is a view");
        assert_eq!(engine.shared_prep_computes(), 1);
    }
}
