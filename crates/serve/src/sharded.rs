//! The sharded kSPR engine: one dataset partitioned across a pool of
//! [`QueryEngine`] shards, answered through a result-preserving merge.
//!
//! # Architecture
//!
//! The dataset is partitioned round-robin into `S` shards, and each shard
//! owns a full [`QueryEngine`]: its own record partition, its own
//! incrementally maintained R-tree, and its own per-`k` [`kspr::SharedPrep`]
//! cache.
//! Updates route to the owning shard ([`ShardedEngine::insert`] round-robins
//! over shards, [`ShardedEngine::delete`] follows the global-id map), so the
//! per-update maintenance cost — including the `O(shard)` promotion scan a
//! band-member delete needs — is bounded by the shard size, not the dataset
//! size.
//!
//! # The merge, and why it preserves results
//!
//! A query fans out to every shard's preprocessing pipeline and merges the
//! per-shard outputs into a global **candidate engine**:
//!
//! 1. every shard exposes its dataset-level k-skyband (cached, incrementally
//!    patched across updates) through [`QueryEngine::shared_prep_for`];
//! 2. the per-shard bands are merged — deduplicated by global record id and
//!    re-sorted into global id order — into one small candidate dataset;
//! 3. the query (or query batch) runs on a `QueryEngine` over that candidate
//!    dataset, sharing it across all queries until the next update.
//!
//! The merge is *result-preserving*: the kSPR result over the candidate union
//! is geometrically identical to the result over the full dataset, because a
//! record `y` excluded from its shard's band has at least `k` dominators
//! inside that band (the skyband witness property), all of which are
//! candidates.  Wherever `y` outscores the focal record, so do its `k`
//! dominators, hence the focal record is already out of the top-`k` there; on
//! the flip side, inside any reported region no excluded record can outscore
//! the focal record, so neither the regions, their ranks, nor the
//! empty/whole-space classification can change.  (The same argument bounds
//! the focal record's dominator count: it reaches `k` within the candidate
//! union iff it does in the full dataset.)  The
//! `shard_consistency` property test in the umbrella crate checks this
//! equivalence under random insert/delete/query interleavings.
//!
//! With a single shard the engine skips the merge entirely and passes
//! queries straight to the shard's `QueryEngine`, making the `shards = 1`
//! configuration bit-for-bit identical to the plain engine.

use kspr::{
    Algorithm, ApproxImpact, Dataset, DatasetStore, ErrorBudget, KsprConfig, KsprResult,
    PreferenceSpace, QueryEngine, QueryStats, RecordId,
};
use kspr_approx::{arrangement_cost, ApproxEngine};
use kspr_durable::SlotState;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Upper bound on the number of merged candidate engines cached at once (one
/// per distinct client `k` between updates).  `k` is client-supplied, so
/// without a cap a stream cycling `k` values would retain one full candidate
/// engine (dataset + R-tree + prep cache) per distinct `k`.
const MERGED_CACHE_CAP: usize = 8;

/// One engine shard: the engine itself (lazily created — a shard that has
/// never held a record has none) and the local-to-global id mapping.
struct Shard {
    engine: Option<QueryEngine>,
    /// `globals[local_id]` is the global id of the shard's record slot
    /// `local_id` (slots are dense and never reused, mirroring the store).
    globals: Vec<RecordId>,
}

/// The merged candidate engines, keyed by `k` and invalidated whenever any
/// shard's epoch moves.
#[derive(Default)]
struct MergedCache {
    /// Per-shard epochs the cached engines were built against (`None` for a
    /// shard that does not exist yet).
    epochs: Vec<Option<u64>>,
    engines: HashMap<usize, Arc<QueryEngine>>,
}

/// A pool of [`QueryEngine`] shards over one partitioned dataset, with
/// update routing and a result-preserving query merge (see the module docs).
pub struct ShardedEngine {
    shards: Vec<Shard>,
    /// `locs[global_id]` is the owning `(shard, local_id)` of a record.
    locs: Vec<(usize, usize)>,
    dim: usize,
    config: KsprConfig,
    /// Round-robin cursor for insert routing.
    next_shard: usize,
    merged: Mutex<MergedCache>,
}

impl ShardedEngine {
    /// Partitions `raw` round-robin into [`KsprConfig::shards`] shards
    /// (record `i` goes to shard `i % S`, which keeps shard bands balanced
    /// under any data distribution) and builds one engine per (non-empty)
    /// shard.
    ///
    /// # Panics
    /// Panics if `raw` is empty (use [`ShardedEngine::empty`] to start with
    /// no records), if rows have inconsistent arities, or if any value is
    /// non-finite.
    pub fn new(raw: Vec<Vec<f64>>, config: KsprConfig) -> Self {
        assert!(
            !raw.is_empty(),
            "cannot partition an empty dataset; use ShardedEngine::empty"
        );
        let dim = raw[0].len();
        for (id, row) in raw.iter().enumerate() {
            kspr::dataset::validate_record(row, Some(dim), id);
        }
        let s = config.shards;
        assert!(s >= 1, "at least one shard is required");

        // Global id -> shard assignment.
        let mut groups: Vec<Vec<RecordId>> = vec![Vec::new(); s];
        for i in 0..raw.len() {
            groups[i % s].push(i);
        }

        let mut locs = vec![(usize::MAX, usize::MAX); raw.len()];
        let mut shards = Vec::with_capacity(s);
        for (shard_idx, group) in groups.into_iter().enumerate() {
            for (local, &global) in group.iter().enumerate() {
                locs[global] = (shard_idx, local);
            }
            let engine = if group.is_empty() {
                None
            } else {
                let rows: Vec<Vec<f64>> = group.iter().map(|&g| raw[g].clone()).collect();
                Some(QueryEngine::with_store(
                    DatasetStore::from_raw(rows),
                    config.clone(),
                ))
            };
            shards.push(Shard {
                engine,
                globals: group,
            });
        }
        debug_assert!(locs.iter().all(|&(s, _)| s != usize::MAX));

        Self {
            shards,
            locs,
            dim,
            config,
            next_shard: raw.len() % s,
            merged: Mutex::new(MergedCache::default()),
        }
    }

    /// An engine with no records yet: `dim` fixes the arity every later
    /// insert and query must match.
    pub fn empty(dim: usize, config: KsprConfig) -> Self {
        assert!(dim >= 1, "the dataset arity must be at least 1");
        let s = config.shards;
        assert!(s >= 1, "at least one shard is required");
        Self {
            shards: (0..s)
                .map(|_| Shard {
                    engine: None,
                    globals: Vec::new(),
                })
                .collect(),
            locs: Vec::new(),
            dim,
            config,
            next_shard: 0,
            merged: Mutex::new(MergedCache::default()),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of live records across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.engine.as_ref())
            .map(|e| e.dataset().len())
            .sum()
    }

    /// True iff no live record exists in any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dataset arity.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The configuration shared by every shard.
    pub fn config(&self) -> &KsprConfig {
        &self.config
    }

    /// Live record count per shard (serving telemetry).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.engine.as_ref().map_or(0, |e| e.dataset().len()))
            .collect()
    }

    /// Number of tombstoned record slots across all shards (deleted records
    /// whose slots are retained for global-id stability).
    pub fn tombstone_count(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.engine.as_ref())
            .map(|e| e.dataset().tombstone_count())
            .sum()
    }

    /// Fraction of record slots that still hold tombstoned *storage*, in
    /// `[0, 1)` (0.0 before any record exists).  The serving dispatcher
    /// triggers [`ShardedEngine::compact`] once this exceeds 50%, which
    /// resets the ratio to zero without disturbing any live global id.
    pub fn tombstone_ratio(&self) -> f64 {
        let slots = self.locs.len();
        if slots == 0 {
            0.0
        } else {
            self.tombstone_count() as f64 / slots as f64
        }
    }

    /// Rewrites every shard that holds tombstoned slots down to its live
    /// records, returning how many dead slots were reclaimed.
    ///
    /// Global ids are **stable across compaction**: a live record keeps the
    /// id clients (and standing-query bookkeeping) already hold, a
    /// compacted-away id keeps answering "never existed / already deleted"
    /// forever, and fresh inserts keep extending the never-reused id space.
    /// Only the shard-local storage is rewritten — each affected shard gets
    /// a fresh [`QueryEngine`] over its live records with dense local ids,
    /// and the global→local routing table is remapped in place.  Because no
    /// live record changes, every query answer (and every maintained
    /// standing result) is identical before and after.
    pub fn compact(&mut self) -> usize {
        let removed = self.tombstone_count();
        if removed == 0 {
            return 0;
        }
        for (shard_idx, shard) in self.shards.iter_mut().enumerate() {
            let Some(engine) = &shard.engine else {
                continue;
            };
            if engine.dataset().tombstone_count() == 0 {
                continue;
            }
            let mut globals = Vec::new();
            let mut rows = Vec::new();
            for (local, &global) in shard.globals.iter().enumerate() {
                if engine.dataset().is_live(local) {
                    globals.push(global);
                    rows.push(engine.dataset().values(local).to_vec());
                } else {
                    // The global id stays allocated (ids are never reused)
                    // but no longer routes anywhere.
                    self.locs[global] = (usize::MAX, usize::MAX);
                }
            }
            for (local, &global) in globals.iter().enumerate() {
                self.locs[global] = (shard_idx, local);
            }
            shard.engine = if rows.is_empty() {
                None
            } else {
                Some(QueryEngine::with_store(
                    DatasetStore::from_raw(rows),
                    self.config.clone(),
                ))
            };
            shard.globals = globals;
        }
        // The rebuilt engines restart their epoch counters, so the epoch
        // comparison alone could mistake a fresh engine for a pre-compaction
        // snapshot that still contained the deleted records; drop the merged
        // cache outright.
        let cache = self
            .merged
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        cache.engines.clear();
        cache.epochs.clear();
        removed
    }

    // -----------------------------------------------------------------------
    // Durability: logical state export / restore
    // -----------------------------------------------------------------------

    /// Exports the durable slot table: one [`SlotState`] per global id, in
    /// id order.  Together with [`ShardedEngine::export_epochs`] and
    /// [`ShardedEngine::routing_cursor`] this is the engine's full logical
    /// state — what [`ShardedEngine::from_slots`] rebuilds from.
    pub fn export_slots(&self) -> Vec<SlotState> {
        self.locs
            .iter()
            .map(|&(shard_idx, local)| {
                if shard_idx == usize::MAX {
                    return SlotState::Compacted;
                }
                let engine = self.shards[shard_idx]
                    .engine
                    .as_ref()
                    .expect("a routed slot's shard has an engine");
                let values = engine.dataset().values(local).to_vec();
                if engine.dataset().is_live(local) {
                    SlotState::Live {
                        shard: shard_idx as u32,
                        values,
                    }
                } else {
                    SlotState::Tombstone {
                        shard: shard_idx as u32,
                        values,
                    }
                }
            })
            .collect()
    }

    /// Per-shard dataset epochs (`0` for a shard that holds no engine).
    pub fn export_epochs(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.engine.as_ref().map_or(0, |e| e.store().epoch()))
            .collect()
    }

    /// The round-robin insert cursor (the shard the next insert routes to).
    pub fn routing_cursor(&self) -> usize {
        self.next_shard
    }

    /// Rebuilds an engine from state captured by [`ShardedEngine::export_slots`]
    /// / [`ShardedEngine::export_epochs`] / [`ShardedEngine::routing_cursor`].
    ///
    /// Each shard's store is re-created over its slots in global-id order
    /// (live rows and tombstoned rows alike, the latter re-deleted so
    /// tombstone accounting survives), then its dataset epoch is restored, so
    /// the rebuilt pool routes updates identically and answers queries
    /// bit-identically to the exported one: query results are deterministic
    /// functions of the live record set (the `shard_consistency` invariant),
    /// and the id maps, cursor and epochs are reproduced exactly.
    ///
    /// # Panics
    /// Panics on structurally invalid state (a slot routed to a shard index
    /// `>= num_shards`, non-finite values, arity mismatches).
    pub fn from_slots(
        dim: usize,
        config: KsprConfig,
        num_shards: usize,
        next_shard: usize,
        shard_epochs: &[u64],
        slots: &[SlotState],
    ) -> Self {
        assert!(dim >= 1, "the dataset arity must be at least 1");
        assert!(num_shards >= 1, "at least one shard is required");
        assert!(
            next_shard < num_shards,
            "the routing cursor must name a shard"
        );
        let config = config.with_shards(num_shards);

        struct Build {
            rows: Vec<Vec<f64>>,
            globals: Vec<RecordId>,
            dead: Vec<usize>,
        }
        let mut builds: Vec<Build> = (0..num_shards)
            .map(|_| Build {
                rows: Vec::new(),
                globals: Vec::new(),
                dead: Vec::new(),
            })
            .collect();
        let mut locs = vec![(usize::MAX, usize::MAX); slots.len()];
        for (global, slot) in slots.iter().enumerate() {
            let (shard_idx, values, live) = match slot {
                SlotState::Live { shard, values } => (*shard as usize, values, true),
                SlotState::Tombstone { shard, values } => (*shard as usize, values, false),
                SlotState::Compacted => continue,
            };
            assert!(shard_idx < num_shards, "slot routed to a missing shard");
            let build = &mut builds[shard_idx];
            let local = build.globals.len();
            locs[global] = (shard_idx, local);
            build.globals.push(global);
            build.rows.push(values.clone());
            if !live {
                build.dead.push(local);
            }
        }

        let shards = builds
            .into_iter()
            .enumerate()
            .map(|(shard_idx, build)| {
                let engine = if build.rows.is_empty() {
                    None
                } else {
                    let mut engine =
                        QueryEngine::with_store(DatasetStore::from_raw(build.rows), config.clone());
                    for local in build.dead {
                        engine.delete_returning(local);
                    }
                    engine.restore_epoch(shard_epochs.get(shard_idx).copied().unwrap_or(0));
                    Some(engine)
                };
                Shard {
                    engine,
                    globals: build.globals,
                }
            })
            .collect();

        Self {
            shards,
            locs,
            dim,
            config,
            next_shard,
            merged: Mutex::new(MergedCache::default()),
        }
    }

    /// Number of live records (across all shards) dominating `values`,
    /// early-exiting once `limit` is reached — the sharded analogue of
    /// [`QueryEngine::count_dominating`], used by the standing-query monitor
    /// to witness irrelevant updates away.
    pub fn count_dominating(&self, values: &[f64], limit: usize) -> usize {
        let mut total = 0usize;
        for shard in &self.shards {
            if let Some(engine) = &shard.engine {
                total += engine.count_dominating(values, limit.saturating_sub(total));
                if total >= limit {
                    return total;
                }
            }
        }
        total
    }

    /// Size of the candidate set a `k`-query would run against (`0` when no
    /// live record exists).  Builds (and caches) the merged engine on a cold
    /// cache; note that when an engine built for a *larger* `k` is already
    /// cached, queries for `k` are served from that superset (equally
    /// correct, see the module docs) and this reports the superset's size —
    /// the value reflects what actually runs, not the minimal `k`-union.
    pub fn merged_candidates(&self, k: usize) -> usize {
        self.merged_engine(k).map_or(0, |e| e.dataset().len())
    }

    // -----------------------------------------------------------------------
    // Updates
    // -----------------------------------------------------------------------

    /// Inserts a record into the next shard (round-robin) and returns its
    /// global id.  The owning shard patches its R-tree and shared-prep cache
    /// incrementally; the other shards are untouched.
    ///
    /// # Panics
    /// Panics if `values` does not match the arity or contains a non-finite
    /// value.
    pub fn insert(&mut self, values: Vec<f64>) -> RecordId {
        kspr::dataset::validate_record(&values, Some(self.dim), self.locs.len());
        let shard_idx = self.next_shard;
        self.next_shard = (self.next_shard + 1) % self.shards.len();
        let shard = &mut self.shards[shard_idx];
        let local = match &mut shard.engine {
            Some(engine) => engine.insert(values),
            None => {
                shard.engine = Some(QueryEngine::with_store(
                    DatasetStore::from_raw(vec![values]),
                    self.config.clone(),
                ));
                0
            }
        };
        debug_assert_eq!(local, shard.globals.len(), "shard ids are dense");
        let global = self.locs.len();
        shard.globals.push(global);
        self.locs.push((shard_idx, local));
        global
    }

    /// Deletes the record with the given global id, returning `false` if it
    /// never existed or was already deleted.  Routed to the owning shard.
    pub fn delete(&mut self, id: RecordId) -> bool {
        self.delete_returning(id).is_some()
    }

    /// Like [`ShardedEngine::delete`], but returns the removed record's
    /// attribute values — the delete hook the standing-query monitor needs
    /// (mirrors [`QueryEngine::delete_returning`]).
    pub fn delete_returning(&mut self, id: RecordId) -> Option<Vec<f64>> {
        let &(shard_idx, local) = self.locs.get(id)?;
        if shard_idx == usize::MAX {
            // The slot was tombstoned and its storage compacted away.
            return None;
        }
        self.shards[shard_idx]
            .engine
            .as_mut()
            .and_then(|engine| engine.delete_returning(local))
    }

    // -----------------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------------

    /// Runs one kSPR query across the shard pool.
    ///
    /// # Panics
    /// Panics if `k == 0` or the focal arity does not match the dataset.
    pub fn run(&self, algorithm: Algorithm, focal: &[f64], k: usize) -> KsprResult {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            focal.len() == self.dim,
            "focal record arity must match the dataset"
        );
        if let Some(single) = self.single_shard_engine() {
            return single.run(algorithm, focal, k);
        }
        match self.merged_engine(k) {
            Some(engine) => engine.run(algorithm, focal, k),
            None => self.no_competitor_result(focal),
        }
    }

    /// Runs a batch of queries (shared candidate engine, parallel workers via
    /// [`QueryEngine::run_batch`]); results are in input order and identical
    /// to running [`ShardedEngine::run`] once per focal record.
    pub fn run_batch(
        &self,
        algorithm: Algorithm,
        focals: &[Vec<f64>],
        k: usize,
    ) -> Vec<KsprResult> {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            focals.iter().all(|f| f.len() == self.dim),
            "focal record arity must match the dataset"
        );
        if let Some(single) = self.single_shard_engine() {
            return single.run_batch(algorithm, focals, k);
        }
        match self.merged_engine(k) {
            Some(engine) => engine.run_batch(algorithm, focals, k),
            None => focals
                .iter()
                .map(|f| self.no_competitor_result(f))
                .collect(),
        }
    }

    // -----------------------------------------------------------------------
    // The approximate tier
    // -----------------------------------------------------------------------

    /// Estimates the market impact of every focal record to `budget` — the
    /// approximate tier of the sharded engine.  Every probe runs against the
    /// **merged candidate snapshot** — the union of per-shard k-skybands,
    /// the same result-preserving candidate set the exact merge queries
    /// (top-`k` membership is pointwise identical on it, so the estimator
    /// stays unbiased for the full-dataset impact) — through one sample
    /// stream seeded by `seed`, so a single-shard pool answers exactly as a
    /// plain [`ApproxEngine`] would.  The sampler itself parallelizes over
    /// chunks of the stream.
    ///
    /// The candidate snapshot is epoch-consistent (a reference-counted
    /// dataset handle; updates copy-on-write), so an insert or delete
    /// landing mid-flight can never skew an estimate half-way through its
    /// stream.  With no live competitor every preference is trivially a hit:
    /// the estimate is exactly `1.0`.
    ///
    /// # Panics
    /// Panics if `k == 0` or any focal arity does not match the dataset.
    pub fn run_approx_batch(
        &self,
        focals: &[Vec<f64>],
        k: usize,
        budget: &ErrorBudget,
        seed: u64,
    ) -> Vec<ApproxImpact> {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            focals.iter().all(|f| f.len() == self.dim),
            "focal record arity must match the dataset"
        );
        // Both arms go through `from_engine`: it samples the configured
        // preference space (`KsprConfig::space` — the original-space pools
        // must not draw from the transformed simplex) and restricts probes
        // to the engine's cached k-skyband.  For the merged engine that band
        // is the band *of the union*, a further result-preserving pruning on
        // top of the union itself.
        let sampler = match self.single_shard_engine() {
            Some(engine) => Some(ApproxEngine::from_engine(engine, k)),
            None => self
                .merged_engine(k)
                .map(|engine| ApproxEngine::from_engine(&engine, k)),
        };
        let sampler = match sampler {
            Some(sampler) if sampler.num_candidates() > 0 => sampler,
            _ => {
                // No live competitor anywhere: the focal record is top-1 for
                // every preference, with zero estimation error.
                let samples = budget.samples();
                let half_width = budget.half_width(samples);
                return focals
                    .iter()
                    .map(|_| ApproxImpact {
                        impact: 1.0,
                        half_width,
                        samples,
                    })
                    .collect();
            }
        };
        sampler.estimate_batch(focals, budget, seed)
    }

    /// The `Auto`-tier arrangement-cost estimate at rank threshold `k`: the
    /// cell-count bound `candidates^work_dim` of the merged candidate set
    /// (the single-shard pool asks its engine directly) — `0.0` with no live
    /// record.
    pub fn estimated_cost(&self, k: usize) -> f64 {
        if let Some(single) = self.single_shard_engine() {
            return kspr_approx::estimated_cost(single, k);
        }
        let candidates = self.merged_candidates(k);
        if candidates == 0 {
            return 0.0;
        }
        let work_dim = PreferenceSpace::new(self.dim, self.config.space).work_dim();
        arrangement_cost(candidates, work_dim)
    }

    /// The pass-through engine of the `shards = 1` configuration, if any.
    fn single_shard_engine(&self) -> Option<&QueryEngine> {
        match &self.shards[..] {
            [only] => only.engine.as_ref(),
            _ => None,
        }
    }

    /// The result of a query against zero live records: the focal record is
    /// trivially top-1 everywhere.
    fn no_competitor_result(&self, focal: &[f64]) -> KsprResult {
        let space = PreferenceSpace::new(focal.len(), self.config.space);
        let mut result = KsprResult::whole_space(space, 1, QueryStats::new());
        result.finalize();
        result
    }

    /// Fetches (or builds) the merged candidate engine for rank threshold
    /// `k`: the union of the per-shard k-skybands, deduplicated by global id
    /// and indexed as a fresh dataset.  Returns `None` when no shard holds a
    /// live record.  Cached until any shard's epoch moves.
    fn merged_engine(&self, k: usize) -> Option<Arc<QueryEngine>> {
        let epochs: Vec<Option<u64>> = self
            .shards
            .iter()
            .map(|s| s.engine.as_ref().map(|e| e.store().epoch()))
            .collect();
        // Poison recovery mirrors the engine's prep cache: the merged engines
        // are rebuildable, so a panicking query must not lock serving up.
        let mut cache = self.merged.lock().unwrap_or_else(PoisonError::into_inner);
        if cache.epochs != epochs {
            cache.engines.clear();
            cache.epochs = epochs;
        }
        if let Some(engine) = cache.engines.get(&k) {
            return Some(Arc::clone(engine));
        }
        // An engine built for a larger k serves k as well: its candidate set
        // is a *superset* of the k-union, and the witness argument (module
        // docs) only needs every excluded record to keep >= k dominators
        // among the candidates — which it has, since exclusion from a
        // k'-band (k' > k) already implies >= k' >= k in-band dominators.
        // Pick the tightest such engine to keep the candidate set small.
        if let Some((_, engine)) = cache
            .engines
            .iter()
            .filter(|(&cached_k, _)| cached_k > k)
            .min_by_key(|(&cached_k, _)| cached_k)
        {
            return Some(Arc::clone(engine));
        }

        // Fan out: every shard contributes its (cached, incrementally
        // patched) k-skyband, translated to global ids.
        let mut members: Vec<(RecordId, Vec<f64>)> = self
            .shards
            .par_iter()
            .map(|shard| {
                let Some(engine) = &shard.engine else {
                    return Vec::new();
                };
                if engine.dataset().is_empty() {
                    return Vec::new();
                }
                engine
                    .shared_prep_for(k)
                    .skyband()
                    .iter()
                    .map(|&local| {
                        (
                            shard.globals[local],
                            engine.dataset().values(local).to_vec(),
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        if members.is_empty() {
            return None;
        }
        // Global id order keeps the candidate dataset deterministic no matter
        // how records are spread over shards.
        members.sort_by_key(|&(global, _)| global);
        let raw: Vec<Vec<f64>> = members.into_iter().map(|(_, values)| values).collect();
        let engine = Arc::new(QueryEngine::new(&Dataset::new(raw), self.config.clone()));
        if cache.engines.len() >= MERGED_CACHE_CAP {
            // Evict only the largest cached k — it holds the biggest
            // candidate set — and keep the other hot entries warm (a full
            // clear would force every k to rebuild on its next query).
            if let Some(&evict) = cache.engines.keys().max() {
                cache.engines.remove(&evict);
            }
        }
        cache.engines.insert(k, Arc::clone(&engine));
        Some(engine)
    }
}

/// The sharded engine drives the standing-query monitor exactly like a
/// single [`QueryEngine`]: queries run through the (result-preserving)
/// merged candidate engine, and the dominance-delta probe fans out over the
/// per-shard R-trees.
impl kspr_monitor::MonitorEngine for ShardedEngine {
    fn dim(&self) -> usize {
        ShardedEngine::dim(self)
    }

    fn run_query(&self, algorithm: Algorithm, focal: &[f64], k: usize) -> KsprResult {
        self.run(algorithm, focal, k)
    }

    fn count_dominating(&self, values: &[f64], limit: usize) -> usize {
        ShardedEngine::count_dominating(self, values, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspr::naive;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_raw(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.01..0.99)).collect())
            .collect()
    }

    /// Sharded and single-engine results must agree: same region count and
    /// the same classification of sampled preference vectors.
    fn assert_equivalent(sharded: &KsprResult, single: &KsprResult, ctx: &str) {
        assert_eq!(sharded.num_regions(), single.num_regions(), "{ctx}");
        for w in naive::sample_weights(&single.space, 32, 99) {
            assert_eq!(sharded.contains(&w), single.contains(&w), "{ctx} at {w:?}");
        }
    }

    #[test]
    fn sharded_matches_single_engine() {
        let raw = random_raw(120, 3, 5);
        let k = 3;
        let single = QueryEngine::new(&Dataset::new(raw.clone()), KsprConfig::default());
        let focals = vec![
            raw[7].clone(),
            raw[41].clone(),
            vec![0.95, 0.95, 0.95],
            vec![0.02, 0.02, 0.02],
        ];
        for shards in [2, 3, 4] {
            let sharded =
                ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(shards));
            for alg in [
                Algorithm::Cta,
                Algorithm::Pcta,
                Algorithm::LpCta,
                Algorithm::KSkyband,
            ] {
                let batch = sharded.run_batch(alg, &focals, k);
                for (focal, got) in focals.iter().zip(&batch) {
                    let want = single.run(alg, focal, k);
                    assert_equivalent(got, &want, &format!("S={shards} {alg:?}"));
                }
            }
        }
    }

    #[test]
    fn merged_candidates_is_a_small_union_of_shard_bands() {
        let raw = random_raw(400, 3, 9);
        let sharded = ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(4));
        let k = 4;
        let candidates = sharded.merged_candidates(k);
        assert!(candidates > 0);
        assert!(
            candidates < raw.len() / 2,
            "the candidate union ({candidates}) must prune most of n={}",
            raw.len()
        );
        // The union contains the dataset-level band (the merge's correctness
        // backbone: every global band member is in its shard's band).
        let single = QueryEngine::new(&Dataset::new(raw), KsprConfig::default());
        assert!(candidates >= single.shared_prep_for(k).skyband().len());
        // The Auto-tier cost estimate grows with the candidate union.
        assert!(sharded.estimated_cost(2) <= sharded.estimated_cost(8));
    }

    #[test]
    fn merged_cache_reuses_larger_k_and_stays_bounded() {
        let raw = random_raw(100, 3, 17);
        let sharded = ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(3));
        let single = QueryEngine::new(&Dataset::new(raw), KsprConfig::default());
        let focal = vec![0.7, 0.7, 0.7];
        // Query a large k first; every smaller k is then served from the same
        // candidate engine (a superset of its own union) — results must still
        // match the single engine exactly.
        let _ = sharded.run(Algorithm::LpCta, &focal, 4);
        assert_eq!(sharded.merged.lock().unwrap().engines.len(), 1);
        for k in 1..=4 {
            assert_equivalent(
                &sharded.run(Algorithm::LpCta, &focal, k),
                &single.run(Algorithm::LpCta, &focal, k),
                &format!("k={k} via larger-k candidate engine"),
            );
        }
        assert_eq!(
            sharded.merged.lock().unwrap().engines.len(),
            1,
            "k' <= k must reuse the cached engine, not build new ones"
        );
        // A sweep over many distinct (ascending) k values stays bounded by
        // the cap.  Queries through merged_candidates only exercise the
        // cache, not a full query, which keeps this cheap.
        for k in 5..=(2 * MERGED_CACHE_CAP) {
            let _ = sharded.merged_candidates(k);
        }
        assert!(
            sharded.merged.lock().unwrap().engines.len() <= MERGED_CACHE_CAP,
            "client-supplied k must not grow the merged cache without bound"
        );
    }

    /// Cached k values of the merged candidate cache, sorted.
    fn cached_ks(sharded: &ShardedEngine) -> Vec<usize> {
        let mut ks: Vec<usize> = sharded
            .merged
            .lock()
            .unwrap()
            .engines
            .keys()
            .copied()
            .collect();
        ks.sort_unstable();
        ks
    }

    #[test]
    fn merged_cache_evicts_largest_first() {
        let raw = random_raw(80, 3, 19);
        let sharded = ShardedEngine::new(raw, KsprConfig::default().with_shards(3));
        let full: Vec<usize> = (1..=MERGED_CACHE_CAP).collect();
        for &k in &full {
            let _ = sharded.merged_candidates(k);
        }
        assert_eq!(cached_ks(&sharded), full);
        // A ninth distinct k evicts the largest cached k (the biggest
        // candidate set), never the small hot entries.
        let next = MERGED_CACHE_CAP + 1;
        let _ = sharded.merged_candidates(next);
        let mut want = full[..MERGED_CACHE_CAP - 1].to_vec();
        want.push(next);
        assert_eq!(
            cached_ks(&sharded),
            want,
            "k={MERGED_CACHE_CAP} must be evicted"
        );
        // A k below a cached larger k reuses the superset engine: no build,
        // no eviction.
        let _ = sharded.merged_candidates(MERGED_CACHE_CAP);
        assert_eq!(cached_ks(&sharded), want);
    }

    #[test]
    fn approx_batch_pools_the_full_sample_budget() {
        use kspr::ErrorBudget;
        let raw = random_raw(200, 3, 41);
        let budget = ErrorBudget::new(0.08, 0.9);
        // raw values lie in (0.01, 0.99): the second focal dominates every
        // record, the third is dominated by all of them.
        let focals = vec![raw[7].clone(), vec![0.995; 3], vec![0.005; 3]];
        for shards in [1usize, 2, 4] {
            let sharded =
                ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(shards));
            let estimates = sharded.run_approx_batch(&focals, 4, &budget, 31);
            assert_eq!(estimates.len(), focals.len());
            for est in &estimates {
                assert_eq!(
                    est.samples,
                    budget.samples(),
                    "pooled sample count must meet the budget at {shards} shards"
                );
                assert!(est.half_width <= budget.epsilon + 1e-12);
                assert!((0.0..=1.0).contains(&est.impact));
            }
            // Deterministic per seed.
            let again = sharded.run_approx_batch(&focals, 4, &budget, 31);
            for (a, b) in estimates.iter().zip(&again) {
                assert_eq!(a.impact, b.impact);
            }
            // A dominated focal has impact ~0; an unbeatable one ~1.
            assert_eq!(estimates[1].impact, 1.0, "dominator of everything");
            assert_eq!(estimates[2].impact, 0.0, "dominated by everything");
        }
    }

    #[test]
    fn single_shard_approx_matches_the_plain_sampler_bit_for_bit() {
        use kspr::ErrorBudget;
        use kspr_approx::ApproxEngine;
        let raw = random_raw(150, 3, 43);
        let budget = ErrorBudget::new(0.1, 0.9);
        let focals = vec![raw[3].clone(), raw[60].clone()];
        let sharded = ShardedEngine::new(raw.clone(), KsprConfig::default());
        let single = QueryEngine::new(&Dataset::new(raw), KsprConfig::default());
        let want = ApproxEngine::from_engine(&single, 5).estimate_batch(&focals, &budget, 77);
        let got = sharded.run_approx_batch(&focals, 5, &budget, 77);
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.impact, b.impact, "shards=1 must be a passthrough");
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn sharded_approx_interval_covers_the_exact_impact() {
        use kspr::ErrorBudget;
        let raw = random_raw(250, 3, 47);
        let sharded = ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(3));
        let single = QueryEngine::new(&Dataset::new(raw.clone()), KsprConfig::default());
        let k = 5;
        let focals = vec![raw[11].clone(), raw[101].clone()];
        let estimates = sharded.run_approx_batch(&focals, k, &ErrorBudget::new(0.05, 0.99), 53);
        for (focal, est) in focals.iter().zip(&estimates) {
            let exact = single.run(Algorithm::LpCta, focal, k);
            // d = 3 => 2 working dimensions: polygon areas are exact.
            let truth = exact.total_volume(0, 0) / exact.space.volume();
            assert!(
                est.covers(truth),
                "interval [{}, {}] misses exact impact {truth}",
                est.lower(),
                est.upper()
            );
        }
    }

    #[test]
    fn multi_shard_approx_samples_the_configured_space() {
        use kspr::ErrorBudget;
        // One competitor (0.9, 0.1) against focal (0.6, 0.6): the focal
        // record is top-1 iff w1 < 0.625.  Under the transformed space
        // (w1 uniform on (0, 1)) the impact is 0.625; under the original
        // space (w = w1/(w1+w2) for a uniform unit square) it is
        // P(w1 < (5/3)·w2) = 0.7.  A sampler drawing from the wrong space
        // lands ~0.075 away — outside an epsilon = 0.02 interval.
        let raw = vec![vec![0.9, 0.1], vec![0.2, 0.1], vec![0.1, 0.15]];
        let focal = vec![0.6, 0.6];
        let budget = ErrorBudget::new(0.02, 0.99);
        for shards in [1usize, 2, 3] {
            let transformed =
                ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(shards));
            let est = transformed
                .run_approx_batch(std::slice::from_ref(&focal), 1, &budget, 5)
                .pop()
                .unwrap();
            assert!(
                est.covers(0.625),
                "{shards} shards, transformed: [{}, {}] misses 0.625",
                est.lower(),
                est.upper()
            );
            let original = ShardedEngine::new(
                raw.clone(),
                KsprConfig::original_space().with_shards(shards),
            );
            let est = original
                .run_approx_batch(std::slice::from_ref(&focal), 1, &budget, 5)
                .pop()
                .unwrap();
            assert!(
                est.covers(0.7),
                "{shards} shards, original space: [{}, {}] misses 0.7",
                est.lower(),
                est.upper()
            );
        }
    }

    #[test]
    fn approx_batch_on_an_empty_pool_reports_certain_impact_one() {
        use kspr::ErrorBudget;
        let mut sharded = ShardedEngine::empty(2, KsprConfig::default().with_shards(2));
        let budget = ErrorBudget::new(0.1, 0.9);
        let est = sharded
            .run_approx_batch(&[vec![0.5, 0.5]], 1, &budget, 3)
            .pop()
            .unwrap();
        assert_eq!(est.impact, 1.0);
        // Populate and empty again: still served.
        let id = sharded.insert(vec![0.9, 0.9]);
        let est = sharded
            .run_approx_batch(&[vec![0.5, 0.5]], 1, &budget, 3)
            .pop()
            .unwrap();
        assert_eq!(est.impact, 0.0, "a live dominator ends every top-1 hope");
        assert!(sharded.delete(id));
        let est = sharded
            .run_approx_batch(&[vec![0.5, 0.5]], 1, &budget, 3)
            .pop()
            .unwrap();
        assert_eq!(est.impact, 1.0);
    }

    #[test]
    fn updates_route_to_owning_shards_and_invalidate_the_merge() {
        let raw = random_raw(60, 3, 11);
        let mut sharded = ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(3));
        let mut mirror = raw;
        let focal = vec![0.6, 0.6, 0.6];
        let k = 3;

        let id = sharded.insert(vec![0.97, 0.96, 0.95]);
        assert_eq!(id, mirror.len());
        mirror.push(vec![0.97, 0.96, 0.95]);
        let single = QueryEngine::new(&Dataset::new(mirror.clone()), KsprConfig::default());
        assert_equivalent(
            &sharded.run(Algorithm::LpCta, &focal, k),
            &single.run(Algorithm::LpCta, &focal, k),
            "after insert",
        );

        assert!(sharded.delete(id));
        assert!(!sharded.delete(id), "double delete must fail");
        assert!(!sharded.delete(9_999), "unknown id must fail");
        mirror.pop();
        let single = QueryEngine::new(&Dataset::new(mirror), KsprConfig::default());
        assert_equivalent(
            &sharded.run(Algorithm::LpCta, &focal, k),
            &single.run(Algorithm::LpCta, &focal, k),
            "after delete",
        );
        assert_eq!(sharded.len(), 60);
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), 60);
    }

    #[test]
    fn delete_returning_routes_to_the_owning_shard() {
        let raw = random_raw(30, 3, 21);
        let mut sharded = ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(3));
        assert_eq!(sharded.delete_returning(7), Some(raw[7].clone()));
        assert_eq!(sharded.delete_returning(7), None, "double delete");
        assert_eq!(sharded.delete_returning(999), None, "unknown id");
        let id = sharded.insert(vec![0.5, 0.5, 0.5]);
        assert_eq!(sharded.delete_returning(id), Some(vec![0.5, 0.5, 0.5]));
        assert_eq!(sharded.len(), 29, "30 initial - 2 deletes + 1 insert");
    }

    #[test]
    fn count_dominating_sums_over_shards() {
        let raw = random_raw(150, 3, 23);
        let sharded = ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(4));
        let probe = vec![0.4, 0.4, 0.4];
        let expected = raw
            .iter()
            .filter(|r| kspr_spatial::dominates(r, &probe))
            .count();
        assert_eq!(sharded.count_dominating(&probe, usize::MAX), expected);
        assert!(expected > 2, "probe must be dominated in this workload");
        assert!(sharded.count_dominating(&probe, 2) >= 2);
        assert_eq!(sharded.count_dominating(&probe, 0), 0);
    }

    #[test]
    fn tombstone_stats_aggregate_over_shards() {
        let raw = random_raw(20, 2, 25);
        let mut sharded = ShardedEngine::new(raw, KsprConfig::default().with_shards(3));
        assert_eq!(sharded.tombstone_count(), 0);
        assert_eq!(sharded.tombstone_ratio(), 0.0);
        for id in 0..10 {
            assert!(sharded.delete(id));
        }
        assert_eq!(sharded.tombstone_count(), 10);
        assert!((sharded.tombstone_ratio() - 0.5).abs() < 1e-12);
        // The empty engine reports 0.0 rather than dividing by zero.
        let empty = ShardedEngine::empty(2, KsprConfig::default().with_shards(2));
        assert_eq!(empty.tombstone_ratio(), 0.0);
    }

    #[test]
    fn compaction_drops_tombstones_and_preserves_surviving_ids() {
        let raw = random_raw(60, 3, 33);
        let mut sharded = ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(3));
        assert_eq!(sharded.compact(), 0, "nothing to reclaim yet");
        for id in 0..40 {
            assert!(sharded.delete(id));
        }
        assert!(sharded.tombstone_ratio() > 0.5);
        // Warm the merged cache so compaction must invalidate it rather than
        // serve a pre-compaction snapshot from a colliding epoch.
        let focal = vec![0.6, 0.6, 0.6];
        let before = sharded.run(Algorithm::LpCta, &focal, 3);

        assert_eq!(sharded.compact(), 40);
        assert_eq!(sharded.tombstone_count(), 0);
        assert_eq!(sharded.tombstone_ratio(), 0.0);
        assert_eq!(sharded.len(), 20);

        // No live record changed, so results are untouched.
        let after = sharded.run(Algorithm::LpCta, &focal, 3);
        assert_eq!(before.num_regions(), after.num_regions());
        assert_eq!(before.rank_signature(), after.rank_signature());
        let single = QueryEngine::new(&Dataset::new(raw[40..].to_vec()), KsprConfig::default());
        assert_equivalent(
            &after,
            &single.run(Algorithm::LpCta, &focal, 3),
            "post-compaction",
        );

        // Surviving global ids still route to their records...
        assert_eq!(sharded.delete_returning(47), Some(raw[47].clone()));
        // ...compacted-away ids stay dead...
        assert_eq!(sharded.delete_returning(3), None);
        assert!(!sharded.delete(3));
        // ...and fresh inserts keep extending the never-reused id space.
        assert_eq!(sharded.insert(vec![0.5, 0.5, 0.5]), 60);
        assert_eq!(sharded.len(), 20, "60 - 40 compacted - 1 delete + 1 insert");
    }

    #[test]
    fn single_shard_is_a_passthrough() {
        let raw = random_raw(40, 3, 13);
        let sharded = ShardedEngine::new(raw.clone(), KsprConfig::default());
        assert_eq!(sharded.num_shards(), 1);
        let single = QueryEngine::new(&Dataset::new(raw.clone()), KsprConfig::default());
        let focal = raw[11].clone();
        for alg in [Algorithm::Cta, Algorithm::LpCta] {
            let a = sharded.run(alg, &focal, 3);
            let b = single.run(alg, &focal, 3);
            // Bit-for-bit identical execution, not just equivalent results.
            assert_eq!(a.num_regions(), b.num_regions());
            assert_eq!(a.stats.processed_records, b.stats.processed_records);
            assert_eq!(a.stats.celltree_nodes, b.stats.celltree_nodes);
        }
    }

    #[test]
    fn empty_engine_and_emptied_shards_answer_whole_space() {
        let mut sharded = ShardedEngine::empty(2, KsprConfig::default().with_shards(2));
        assert!(sharded.is_empty());
        let result = sharded.run(Algorithm::LpCta, &[0.5, 0.5], 2);
        assert_eq!(result.num_regions(), 1);
        assert!(result.contains_full_weight(&[0.5, 0.5]));

        // Populate, then delete everything again: still serving.  (With one
        // of the two records beating the focal record on either side of
        // w = 0.5, top-1 is unreachable but top-2 always holds.)
        let a = sharded.insert(vec![0.9, 0.1]);
        let b = sharded.insert(vec![0.1, 0.9]);
        assert_eq!(
            sharded.run(Algorithm::LpCta, &[0.5, 0.5], 1).num_regions(),
            0
        );
        assert!(sharded.run(Algorithm::LpCta, &[0.5, 0.5], 2).num_regions() >= 1);
        assert!(sharded.delete(a));
        assert!(sharded.delete(b));
        assert!(sharded.is_empty());
        let result = sharded.run(Algorithm::LpCta, &[0.5, 0.5], 1);
        assert_eq!(result.num_regions(), 1, "no competitor left: whole space");
    }

    #[test]
    #[should_panic(expected = "non-finite attribute value")]
    fn insert_rejects_non_finite_values() {
        let mut sharded = ShardedEngine::empty(2, KsprConfig::default().with_shards(2));
        sharded.insert(vec![0.5, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn run_rejects_zero_k() {
        let sharded = ShardedEngine::new(vec![vec![0.4, 0.6]], KsprConfig::default());
        sharded.run(Algorithm::LpCta, &[0.5, 0.5], 0);
    }
}
