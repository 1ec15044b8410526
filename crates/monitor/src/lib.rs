//! # kspr-monitor — standing queries over a dynamic kSPR engine
//!
//! A kSPR result is most valuable when it is *watched*: an option's impact
//! regions shift every time a competitor is inserted or deleted.  Re-running
//! the full CellTree pipeline after every update wastes the one thing the
//! dynamic engine already knows — *which* updates can matter.  This crate
//! keeps long-lived query results correct across updates with per-update work
//! that is usually a handful of dominance tests:
//!
//! * [`Monitor`] is a registry of [`StandingQuery`] handles (focal record,
//!   algorithm, `k`, the last [`KsprResult`], and a compact maintenance
//!   state — the focal record's live dominator count).
//! * [`Monitor::apply_insert`] / [`Monitor::apply_delete`] classify every
//!   registered query against the delta record as **unaffected** (the old
//!   result provably equals a fresh run), **patchable** (the new result is
//!   derivable in place: it empties, or a whole-space rank shifts), or
//!   **must-rerun** — and re-run only the last kind.
//! * Queries whose result changed produce [`ResultDelta`] notifications,
//!   which the serving front-end (`kspr-serve`) forwards to subscribers.
//!
//! # Subscription scale: the registry index and batched maintenance
//!
//! Classifying every update against every registered query is an
//! update×registry product — the serving bottleneck once subscriptions reach
//! the tens of thousands.  Two mechanisms make per-update work sublinear in
//! the registry size:
//!
//! * **The spatial registry index.**  Focal points are kept in their own
//!   [`kspr_spatial::AggregateRTree`] alongside a `k`-grouped id map.  For an
//!   update record `v` only two slices of the registry can possibly change
//!   state: the queries whose focal record `v` dominates (found with the
//!   MBR-pruned dominated-focal probe — their dominator bookkeeping shifts),
//!   and the queries whose `k` exceeds `v`'s live dominator count (the
//!   witness cut: one shared [`MonitorEngine::count_dominating`] probe, then
//!   a range scan of the `k`-index).  Every other query is **provably
//!   unaffected without being visited** — its focal record either dominates
//!   or ties `v` (invisible by Section-3.1 preprocessing) or is incomparable
//!   with a `k`-witnessed `v` (the skyband witness argument below) — and is
//!   accounted in bulk ([`MonitorStats::index_pruned`]).  A full-scan mode
//!   ([`Monitor::full_scan`]) is kept for differential testing.
//! * **Batched maintenance.**  [`Monitor::apply_batch`] classifies a whole
//!   drained update stream in **one** pass per affected query: per-update
//!   probes are computed once and shared across all queries, per-query state
//!   walks the batch in order, and at most one engine re-run happens per
//!   query per batch no matter how many updates demanded one
//!   ([`MonitorStats::engine_runs`] vs [`MonitorStats::reruns`]).  One
//!   coalesced [`ResultDelta`] per query summarises the whole batch.
//!
//! Batched probes run against the **post-batch** engine state, which is
//! sound: a query is only retained when every non-invisible update in the
//! batch is witnessed by `k` live dominators at the final state, and those
//! witnesses always include `k` records that were present *throughout* the
//! batch.  (Witnesses that were themselves inserted in the batch are in turn
//! witnessed, so a maximal such witness under the dominance order has all its
//! `k` dominators in the untouched core — and they transitively witness the
//! original update.)
//!
//! # Why the classification is sound
//!
//! Write `p` for the focal record, `v` for the delta record and `R` for the
//! set of preference vectors where `p` ranks in the top-`k`.
//!
//! 1. **Ties and records `p` dominates are invisible.**  The Section-3.1
//!    preprocessing removes them before the traversal, so inserting or
//!    deleting one reproduces the previous run exactly.
//! 2. **Inserts never grow `R`.**  `p`'s rank at a preference `w` is one plus
//!    the number of records outscoring `p` at `w`; an insert can only raise
//!    it.  A standing query with an *empty* result therefore stays empty
//!    under any insert.
//! 3. **Dominators of `p` shift ranks uniformly.**  A record dominating `p`
//!    outscores it everywhere, so it only moves the constant rank offset the
//!    engine tracks: once the live dominator count reaches `k` the result is
//!    empty (patched in place), and a *whole-space* result (one region, no
//!    bounding halfspace — the arrangement never split) keeps its single
//!    region with the rank shifted by one (patched in place).  Everything
//!    else re-runs, because the effective `k` of the traversal changed.
//! 4. **Records with `k` live dominators are witnessed away.**  If `v` has at
//!    least `k` live dominators (checked with the MBR-pruned
//!    [`kspr::QueryEngine::count_dominating`] probe — the *skyband witness
//!    property* guarantees at least `k` of them sit in the dataset
//!    k-skyband), then wherever `v` outscores `p`, so do `k` records that
//!    dominate `v` — `p` is already out of the top-`k` there.  Inserting or
//!    deleting `v` leaves `R` unchanged, and inside every result cell `v`'s
//!    hyperplane is on the non-outranking side, so it cannot split a
//!    reported cell: the region decomposition itself is preserved for every
//!    policy.  LP-CTA's *look-ahead bound* reports read aggregate R-tree
//!    bounds a witnessed record could still perturb — but the engine
//!    restricts bound-using traversals to the witness skyband of the
//!    competitors (`restrict_to_witness_skyband` in `kspr-core`), and a
//!    `k`-witnessed record is provably outside that skyband both before and
//!    after its own update, so even the bound reports are bit-identical.
//!    This is the **cell-wise LP-CTA patch**: a witnessed update touches no
//!    retained cell's cover set, so zero cells re-derive; the bounds are
//!    only invalidated — forcing the full re-run — when the update is
//!    unwitnessed or shifts the effective `k`.
//!
//! `monitor_consistency.rs` in the umbrella crate property-tests the whole
//! classifier: under random insert/delete interleavings every maintained
//! result must match a from-scratch engine run, for all CellTree policies,
//! on both the single engine and the sharded serving engine.
//!
//! ```
//! use kspr::{Algorithm, Dataset, KsprConfig, QueryEngine};
//! use kspr_monitor::MonitoredEngine;
//!
//! let dataset = Dataset::new(vec![
//!     vec![0.3, 0.8, 0.8],
//!     vec![0.9, 0.4, 0.4],
//!     vec![0.8, 0.3, 0.4],
//!     vec![0.4, 0.3, 0.6],
//! ]);
//! let mut monitored = MonitoredEngine::new(QueryEngine::new(&dataset, KsprConfig::default()));
//! let q = monitored
//!     .register(Algorithm::LpCta, vec![0.5, 0.5, 0.7], 2)
//!     .unwrap();
//! let before = monitored.result(q).unwrap().num_regions();
//!
//! // A deeply dominated insert is classified away with two dominance tests.
//! let (id, deltas) = monitored.insert(vec![0.2, 0.2, 0.2]);
//! assert!(deltas.is_empty(), "nothing changed, nobody is notified");
//! assert_eq!(monitored.result(q).unwrap().num_regions(), before);
//!
//! let (_, deltas) = monitored.delete(id);
//! assert!(deltas.is_empty());
//! assert!(monitored.unregister(q));
//! ```

use kspr::engine::policy_for;
use kspr::{check_record, Algorithm, IngestError, KsprResult, QueryEngine, QueryStats};
use kspr_spatial::{dominates, AggregateRTree, Record, RecordId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;

/// Identifier of a registered standing query (dense, never reused).
pub type QueryId = u64;

/// The engine surface the monitor drives.  Implemented for
/// [`kspr::QueryEngine`] here and for the sharded serving engine in
/// `kspr-serve`.
pub trait MonitorEngine {
    /// The dataset arity.
    fn dim(&self) -> usize;

    /// Runs one query against the current dataset state.
    fn run_query(&self, algorithm: Algorithm, focal: &[f64], k: usize) -> KsprResult;

    /// Number of live records dominating `values`, early-exiting once
    /// `limit` is reached (a return `>= limit` means "at least `limit`").
    fn count_dominating(&self, values: &[f64], limit: usize) -> usize;
}

impl MonitorEngine for QueryEngine {
    fn dim(&self) -> usize {
        self.dataset().dim()
    }

    fn run_query(&self, algorithm: Algorithm, focal: &[f64], k: usize) -> KsprResult {
        self.run(algorithm, focal, k)
    }

    fn count_dominating(&self, values: &[f64], limit: usize) -> usize {
        QueryEngine::count_dominating(self, values, limit)
    }
}

/// Why a standing query could not be registered.
#[derive(Debug, Clone, PartialEq)]
pub enum RegisterError {
    /// `k` must be at least 1.
    InvalidK,
    /// The focal record violates the ingest rules (arity / finiteness).
    Focal(IngestError),
    /// Only the CellTree policies (CTA, P-CTA, LP-CTA, k-skyband) expose the
    /// classification hooks; the sweep baselines (RTOPK, iMaxRank) do not.
    UnsupportedAlgorithm,
    /// [`Monitor::register_at`] was handed an id that is already registered
    /// (a corrupt or replayed-twice recovery stream).
    DuplicateId,
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::InvalidK => write!(f, "k must be at least 1"),
            RegisterError::Focal(err) => write!(f, "focal record {err}"),
            RegisterError::UnsupportedAlgorithm => {
                write!(
                    f,
                    "the algorithm does not support standing-query maintenance"
                )
            }
            RegisterError::DuplicateId => {
                write!(f, "the standing-query id is already registered")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// How the monitor maintained a standing query for one update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateClass {
    /// The old result provably equals a fresh run; nothing was touched.
    Unaffected,
    /// The new result was derived in place (result emptied, or a
    /// whole-space rank shifted) without running the engine.
    Patched,
    /// The query was re-run through the engine.
    Rerun,
}

/// Classification counters across all updates and standing queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Standing queries ever registered.
    pub registered: u64,
    /// (update, query) pairs classified as unaffected (including every
    /// index-pruned pair).
    pub unaffected: u64,
    /// (update, query) pairs patched in place.
    pub patched: u64,
    /// (update, query) pairs classified as needing a re-run.
    pub reruns: u64,
    /// (update, query) pairs the classifier actually walked; the complement
    /// of `index_pruned` within `classified()`.
    pub visited: u64,
    /// (update, query) pairs the registry index proved unaffected in bulk,
    /// without visiting the query (also counted in `unaffected`).
    pub index_pruned: u64,
    /// Update batches processed through [`Monitor::apply_batch`].
    pub batches: u64,
    /// Updates processed through [`Monitor::apply_batch`].
    pub batched_updates: u64,
    /// Engine re-runs actually executed.  Within a batch every `reruns` pair
    /// of one query coalesces into a single post-batch run, so
    /// `engine_runs <= reruns`.
    pub engine_runs: u64,
}

impl MonitorStats {
    /// Total (update, query) classification events.
    pub fn classified(&self) -> u64 {
        self.unaffected + self.patched + self.reruns
    }
}

/// A change notification for one standing query after one update.
///
/// Unaffected and patched-without-change maintenance is silent.  A delta is
/// produced whenever the rank signature moved — and for **every** re-run,
/// even one whose region count and rank signature happen to match: a re-run
/// can change region *geometry* without moving either summary, and silence
/// would leave subscribers holding stale regions with no way to notice.
/// Compare `ranks_before`/`ranks_after` (or `regions_added` etc.) to tell a
/// summarized change from a possibly-geometry-only refresh.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultDelta {
    /// The standing query that changed.
    pub query: QueryId,
    /// How the new result was obtained.
    pub class: UpdateClass,
    /// Region count before the update.
    pub regions_before: usize,
    /// Region count after the update.
    pub regions_after: usize,
    /// Sorted region ranks before the update.
    pub ranks_before: Vec<usize>,
    /// Sorted region ranks after the update.
    pub ranks_after: Vec<usize>,
}

impl ResultDelta {
    /// Regions gained by the update (0 when regions were lost).
    pub fn regions_added(&self) -> usize {
        self.regions_after.saturating_sub(self.regions_before)
    }

    /// Regions lost to the update (0 when regions were gained).
    pub fn regions_removed(&self) -> usize {
        self.regions_before.saturating_sub(self.regions_after)
    }

    /// True iff some surviving region's rank shifted (score-order change)
    /// beyond pure adds/removes.
    pub fn ranks_shifted(&self) -> bool {
        self.regions_before == self.regions_after && self.ranks_before != self.ranks_after
    }
}

/// One registered long-lived query: the request, its latest result, and the
/// maintenance state the per-update classifier needs.
#[derive(Debug, Clone)]
pub struct StandingQuery {
    algorithm: Algorithm,
    focal: Vec<f64>,
    k: usize,
    /// Exact number of live records dominating the focal record, maintained
    /// by ±1 bookkeeping on every classified update.
    focal_dominators: usize,
    result: KsprResult,
}

impl StandingQuery {
    /// The algorithm the query runs under.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The focal record.
    pub fn focal(&self) -> &[f64] {
        &self.focal
    }

    /// The rank threshold.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The maintained result (always equal to a fresh run at the current
    /// dataset state, up to per-query statistics).
    pub fn result(&self) -> &KsprResult {
        &self.result
    }

    /// The maintained live dominator count of the focal record.
    pub fn focal_dominators(&self) -> usize {
        self.focal_dominators
    }

    /// Replaces the result with an empty one (the focal record left the
    /// top-`k` everywhere).
    fn set_empty(&mut self) {
        self.result = KsprResult::empty(self.result.space, QueryStats::new());
    }
}

/// Which side of an update is being classified (the payload of a
/// [`Monitor::apply_batch`] stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// The record was just inserted into the engine.
    Insert,
    /// The record was just deleted from the engine.
    Delete,
}

/// Spatial index over the registered focal points: an [`AggregateRTree`] for
/// the dominated-focal probe plus a `k`-grouped id map for the witness cut.
/// Registry slots are append-only tree ids; unregistering tombstones the
/// slot (`AggregateRTree::delete`), mirroring the engine's own tombstone
/// discipline.
#[derive(Debug, Default)]
struct RegistryIndex {
    /// Focal points keyed by registry slot.  Lazy (`None` until the first
    /// registration) because the tree cannot be bulk-loaded empty.
    tree: Option<AggregateRTree>,
    /// Registry slot → standing query id.
    owner: HashMap<RecordId, QueryId>,
    /// Standing query id → registry slot, for unregistration.
    slot: HashMap<QueryId, RecordId>,
    /// Query ids grouped by `k`: `range((Excluded(d), Unbounded))` yields
    /// exactly the queries whose witness requirement exceeds an update's
    /// live dominator count `d`.
    by_k: BTreeMap<usize, BTreeSet<QueryId>>,
}

impl RegistryIndex {
    fn add(&mut self, id: QueryId, focal: &[f64], k: usize) {
        let slot = match &mut self.tree {
            Some(tree) => tree.insert(focal.to_vec()),
            None => {
                self.tree = Some(AggregateRTree::bulk_load(
                    vec![Record::new(0, focal.to_vec())],
                    AggregateRTree::DEFAULT_FANOUT,
                ));
                0
            }
        };
        self.owner.insert(slot, id);
        self.slot.insert(id, slot);
        self.by_k.entry(k).or_default().insert(id);
    }

    fn remove(&mut self, id: QueryId, k: usize) {
        if let Some(slot) = self.slot.remove(&id) {
            self.owner.remove(&slot);
            if let Some(tree) = &mut self.tree {
                tree.delete(slot);
            }
        }
        if let Some(group) = self.by_k.get_mut(&k) {
            group.remove(&id);
            if group.is_empty() {
                self.by_k.remove(&k);
            }
        }
    }
}

/// The standing-query registry.  Generic over the engine only at the method
/// level, so one monitor type serves both the single [`QueryEngine`] and the
/// sharded serving engine.
#[derive(Debug)]
pub struct Monitor {
    /// Registered queries in id order (deterministic notification order).
    queries: BTreeMap<QueryId, StandingQuery>,
    next_id: QueryId,
    stats: MonitorStats,
    /// Wall-clock nanoseconds spent inside maintenance passes.  Kept out of
    /// [`MonitorStats`] so the counters stay deterministic (differential
    /// tests compare them between indexed and full-scan registries).
    maintenance_nanos: u64,
    /// Merged [`QueryStats`] of every engine re-run executed by maintenance
    /// passes — the same per-phase breakdown (prep / expansion / LP /
    /// dominance) served queries report, accumulated here because a re-run
    /// answers no client request of its own.  Kept next to
    /// [`Monitor::maintenance_nanos`] rather than in [`MonitorStats`]: the
    /// phase fields are wall-clock metadata.
    maintenance_engine_stats: QueryStats,
    /// `Some`: the spatial registry index (the default).  `None`: every
    /// update visits every query — kept for differential testing.
    index: Option<RegistryIndex>,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// An empty registry with the spatial index enabled.
    pub fn new() -> Self {
        Self {
            queries: BTreeMap::new(),
            next_id: 0,
            stats: MonitorStats::default(),
            maintenance_nanos: 0,
            maintenance_engine_stats: QueryStats::new(),
            index: Some(RegistryIndex::default()),
        }
    }

    /// An empty registry that classifies by scanning every query on every
    /// update.  Differential-testing reference for the indexed default —
    /// byte-for-byte the same results and notifications, linearly more work.
    pub fn full_scan() -> Self {
        Self {
            index: None,
            ..Self::new()
        }
    }

    /// True iff this registry uses the spatial index.
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// Number of registered standing queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True iff no standing query is registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Classification counters.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Total wall-clock nanoseconds spent in maintenance passes
    /// ([`Monitor::apply_insert`] / [`Monitor::apply_delete`] /
    /// [`Monitor::apply_batch`]).  Telemetry, not a classification counter:
    /// nondeterministic, so deliberately not part of [`MonitorStats`].
    pub fn maintenance_nanos(&self) -> u64 {
        self.maintenance_nanos
    }

    /// Merged engine statistics of every maintenance re-run, per-phase
    /// wall-clock breakdown included.  [`MonitorStats::engine_runs`] counts
    /// the runs; this is what they cost.
    pub fn maintenance_engine_stats(&self) -> &QueryStats {
        &self.maintenance_engine_stats
    }

    /// The standing query with the given id, if registered.
    pub fn query(&self, id: QueryId) -> Option<&StandingQuery> {
        self.queries.get(&id)
    }

    /// The maintained result of a standing query, if registered.
    pub fn result(&self, id: QueryId) -> Option<&KsprResult> {
        self.queries.get(&id).map(|q| q.result())
    }

    /// All registered queries, in id order.
    pub fn queries(&self) -> impl Iterator<Item = (QueryId, &StandingQuery)> {
        self.queries.iter().map(|(&id, q)| (id, q))
    }

    /// The id the next [`Monitor::register`] call will assign.  Ids are
    /// dense and never reused, so persisting this counter alongside the
    /// registered queries is enough to serialize the registry: restoring the
    /// counter and replaying registrations through
    /// [`Monitor::register_at`] reproduces the id assignment exactly.
    pub fn next_id(&self) -> QueryId {
        self.next_id
    }

    /// Recovery hook: advances the id counter to at least `next_id`.
    /// Needed when the highest persisted registration was later
    /// unregistered — replaying the surviving registrations alone would
    /// leave the counter low and a future registration would reuse a dead
    /// id, breaking the never-reused invariant subscribers rely on.
    pub fn restore_next_id(&mut self, next_id: QueryId) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Recovery hook: registers a standing query under an **explicit id**,
    /// re-running it against `engine` to rebuild its result and maintenance
    /// state.  Used by the durability layer to reconstruct a registry from
    /// persisted registrations — the engine must already hold the dataset
    /// state the registration was persisted against, so the re-run
    /// reproduces the maintained result bit-for-bit (query results are
    /// deterministic functions of the live record set).
    ///
    /// The id counter advances past `id`, so later live registrations keep
    /// allocating fresh ids.
    ///
    /// # Errors
    /// Rejects the same invalid requests as [`Monitor::register`], plus ids
    /// that are already registered.
    pub fn register_at<E: MonitorEngine>(
        &mut self,
        engine: &E,
        id: QueryId,
        algorithm: Algorithm,
        focal: Vec<f64>,
        k: usize,
    ) -> Result<(), RegisterError> {
        if self.queries.contains_key(&id) {
            return Err(RegisterError::DuplicateId);
        }
        if k == 0 {
            return Err(RegisterError::InvalidK);
        }
        check_record(&focal, Some(engine.dim())).map_err(RegisterError::Focal)?;
        if policy_for(algorithm).is_none() {
            return Err(RegisterError::UnsupportedAlgorithm);
        }
        let result = engine.run_query(algorithm, &focal, k);
        let focal_dominators = engine.count_dominating(&focal, usize::MAX);
        self.next_id = self.next_id.max(id + 1);
        if let Some(index) = &mut self.index {
            index.add(id, &focal, k);
        }
        self.queries.insert(
            id,
            StandingQuery {
                algorithm,
                focal,
                k,
                focal_dominators,
                result,
            },
        );
        self.stats.registered += 1;
        Ok(())
    }

    /// Registers a standing query: validates the request, runs it once, and
    /// snapshots the maintenance state (exact focal dominator count).
    ///
    /// The engine must not change between this call and the next
    /// `apply_insert` / `apply_delete` without the monitor seeing the update.
    pub fn register<E: MonitorEngine>(
        &mut self,
        engine: &E,
        algorithm: Algorithm,
        focal: Vec<f64>,
        k: usize,
    ) -> Result<QueryId, RegisterError> {
        if k == 0 {
            return Err(RegisterError::InvalidK);
        }
        check_record(&focal, Some(engine.dim())).map_err(RegisterError::Focal)?;
        if policy_for(algorithm).is_none() {
            return Err(RegisterError::UnsupportedAlgorithm);
        }
        let result = engine.run_query(algorithm, &focal, k);
        let focal_dominators = engine.count_dominating(&focal, usize::MAX);
        let id = self.next_id;
        self.next_id += 1;
        if let Some(index) = &mut self.index {
            index.add(id, &focal, k);
        }
        self.queries.insert(
            id,
            StandingQuery {
                algorithm,
                focal,
                k,
                focal_dominators,
                result,
            },
        );
        self.stats.registered += 1;
        Ok(id)
    }

    /// Drops a standing query and its maintenance state; returns `false` if
    /// the id was never registered (or already unregistered).
    pub fn unregister(&mut self, id: QueryId) -> bool {
        match self.queries.remove(&id) {
            Some(q) => {
                if let Some(index) = &mut self.index {
                    index.remove(id, q.k);
                }
                true
            }
            None => false,
        }
    }

    /// Drops every standing query and its maintenance state (the counters
    /// survive).  Serving layers use this to invalidate the registry after a
    /// failure that may have left a maintenance pass half-applied — stale
    /// bookkeeping must never classify future updates.
    pub fn clear(&mut self) {
        self.queries.clear();
        if let Some(index) = &mut self.index {
            *index = RegistryIndex::default();
        }
    }

    /// Maintains every standing query for a record just **inserted** into the
    /// engine.  Call *after* the engine applied the insert, with the inserted
    /// values.  Returns one [`ResultDelta`] per query whose result changed.
    pub fn apply_insert<E: MonitorEngine>(
        &mut self,
        engine: &E,
        values: &[f64],
    ) -> Vec<ResultDelta> {
        self.apply_updates(engine, &[(UpdateKind::Insert, values.to_vec())])
    }

    /// Maintains every standing query for a record just **deleted** from the
    /// engine.  Call *after* the engine applied the delete, with the removed
    /// record's values (see [`kspr::QueryEngine::delete_returning`]).
    pub fn apply_delete<E: MonitorEngine>(
        &mut self,
        engine: &E,
        values: &[f64],
    ) -> Vec<ResultDelta> {
        self.apply_updates(engine, &[(UpdateKind::Delete, values.to_vec())])
    }

    /// Maintains every standing query for a **batch** of updates already
    /// applied to the engine, given in stream order.
    ///
    /// Probes run against the post-batch engine state (sound — see the
    /// module docs), every per-update probe is shared across all queries,
    /// each affected query is walked once over the whole batch, and however
    /// many of its (update, query) pairs demanded a re-run, at most **one**
    /// engine run happens per query — against the final state, which is
    /// exactly the state the result must match.  Each query produces at most
    /// one coalesced [`ResultDelta`] (pre-batch snapshot → post-batch
    /// result).
    pub fn apply_batch<E: MonitorEngine>(
        &mut self,
        engine: &E,
        updates: &[(UpdateKind, Vec<f64>)],
    ) -> Vec<ResultDelta> {
        if updates.is_empty() {
            return Vec::new();
        }
        self.stats.batches += 1;
        self.stats.batched_updates += updates.len() as u64;
        self.apply_updates(engine, updates)
    }

    fn apply_updates<E: MonitorEngine>(
        &mut self,
        engine: &E,
        updates: &[(UpdateKind, Vec<f64>)],
    ) -> Vec<ResultDelta> {
        if updates.is_empty() || self.queries.is_empty() {
            return Vec::new();
        }
        let clock = std::time::Instant::now();
        let deltas = self.apply_updates_timed(engine, updates);
        self.maintenance_nanos = self
            .maintenance_nanos
            .saturating_add(u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX));
        deltas
    }

    fn apply_updates_timed<E: MonitorEngine>(
        &mut self,
        engine: &E,
        updates: &[(UpdateKind, Vec<f64>)],
    ) -> Vec<ResultDelta> {
        // The dominator-count probe depends only on the delta record and the
        // largest registered k, so it is computed at most once per update
        // and shared across every query in the batch.
        let total = self.queries.len() as u64;
        let limit = self.queries.values().map(|q| q.k).max().unwrap_or(0);
        let mut delta_dominators: Vec<Option<usize>> = vec![None; updates.len()];

        // The visit set: query ids the classifier must walk, unioned over
        // the batch — (a) queries whose focal record an update dominates
        // (their dominator bookkeeping shifts) and (b) queries whose k
        // exceeds an update's live dominator count (the witness cut fails,
        // so a re-run may be due).  Every other query is provably unaffected
        // by every update in the batch (module docs) and accounted in bulk.
        let visit: Option<BTreeSet<QueryId>> = self.index.as_ref().map(|index| {
            let mut visit = BTreeSet::new();
            for (i, (_, values)) in updates.iter().enumerate() {
                let d = *delta_dominators[i]
                    .get_or_insert_with(|| engine.count_dominating(values, limit));
                for (_, group) in index.by_k.range((Bound::Excluded(d), Bound::Unbounded)) {
                    visit.extend(group.iter().copied());
                }
                if let Some(tree) = &index.tree {
                    tree.for_each_dominated(values, |slot| {
                        visit.insert(index.owner[&slot]);
                    });
                }
            }
            visit
        });
        let pruned = visit.as_ref().map_or(0, |v| total - v.len() as u64);
        self.stats.visited += (total - pruned) * updates.len() as u64;
        self.stats.index_pruned += pruned * updates.len() as u64;
        self.stats.unaffected += pruned * updates.len() as u64;

        let mut deltas = Vec::new();
        let stats = &mut self.stats;
        let engine_stats = &mut self.maintenance_engine_stats;
        for (&id, q) in self.queries.iter_mut() {
            if let Some(visit) = &visit {
                if !visit.contains(&id) {
                    continue;
                }
            }
            if let Some(delta) = Self::maintain_batch(
                id,
                q,
                engine,
                updates,
                &mut delta_dominators,
                limit,
                stats,
                engine_stats,
            ) {
                deltas.push(delta);
            }
        }
        deltas
    }

    /// Pre-mutation snapshot of a standing result: region count and rank
    /// signature, taken just before the first patch or rerun touches it.
    fn snapshot(q: &StandingQuery) -> (usize, Vec<usize>) {
        (q.result.num_regions(), q.result.rank_signature())
    }

    /// Walks one standing query over the whole batch, maintaining its state
    /// update by update.  The per-pair case analysis is the module-docs
    /// argument, in order; the first pair that demands a re-run marks the
    /// query stale and every later visible pair short-circuits into the same
    /// single post-batch engine run.
    #[allow(clippy::too_many_arguments)]
    fn maintain_batch<E: MonitorEngine>(
        id: QueryId,
        q: &mut StandingQuery,
        engine: &E,
        updates: &[(UpdateKind, Vec<f64>)],
        delta_dominators: &mut [Option<usize>],
        limit: usize,
        stats: &mut MonitorStats,
        engine_stats: &mut QueryStats,
    ) -> Option<ResultDelta> {
        // Pre-batch snapshot, taken lazily before the first mutation so the
        // all-unaffected walk stays allocation-free.
        let mut before: Option<(usize, Vec<usize>)> = None;
        let mut pending_rerun = false;
        for (i, (kind, values)) in updates.iter().enumerate() {
            let dominates_focal = dominates(values, &q.focal);
            // Ties and records the focal record dominates are removed by the
            // Section-3.1 preprocessing; updating one reproduces the old run.
            let invisible = values.as_slice() == q.focal.as_slice() || dominates(&q.focal, values);
            // Dominator bookkeeping happens even for pairs that are about to
            // short-circuit: the count must stay exact across the batch.
            if dominates_focal {
                match kind {
                    UpdateKind::Insert => q.focal_dominators += 1,
                    UpdateKind::Delete => {
                        debug_assert!(q.focal_dominators > 0, "dominator count underflow");
                        q.focal_dominators = q.focal_dominators.saturating_sub(1);
                    }
                }
            }
            if invisible {
                stats.unaffected += 1;
                continue;
            }
            if pending_rerun {
                // The result is already stale; every later visible pair joins
                // the one re-run below.
                stats.reruns += 1;
                continue;
            }
            if *kind == UpdateKind::Insert && q.result.is_empty() {
                // Inserts only push the focal record's rank up: empty stays
                // empty.
                stats.unaffected += 1;
                continue;
            }
            if dominates_focal {
                match Self::patch_dominator(q, *kind, &mut before) {
                    UpdateClass::Unaffected => stats.unaffected += 1,
                    UpdateClass::Patched => stats.patched += 1,
                    UpdateClass::Rerun => {
                        stats.reruns += 1;
                        pending_rerun = true;
                    }
                }
                continue;
            }
            // Incomparable delta record: the skyband witness test.  With at
            // least k live dominators the record cannot change the result
            // area, and the engine's witness-skyband restriction makes the
            // region decomposition — bound reports included — identical too
            // (the cell-wise LP-CTA patch: zero cells to re-derive).
            let d =
                *delta_dominators[i].get_or_insert_with(|| engine.count_dominating(values, limit));
            if d >= q.k {
                stats.unaffected += 1;
                continue;
            }
            stats.reruns += 1;
            pending_rerun = true;
        }
        if pending_rerun {
            if before.is_none() {
                before = Some(Self::snapshot(q));
            }
            q.result = engine.run_query(q.algorithm, &q.focal, q.k);
            stats.engine_runs += 1;
            engine_stats.merge(&q.result.stats);
        }
        // Reruns always notify — an identical rank signature does not prove
        // identical region geometry (see the ResultDelta docs).
        let (regions_before, ranks_before) = before?;
        let ranks_after = q.result.rank_signature();
        if !pending_rerun && ranks_before == ranks_after {
            return None;
        }
        Some(ResultDelta {
            query: id,
            class: if pending_rerun {
                UpdateClass::Rerun
            } else {
                UpdateClass::Patched
            },
            regions_before,
            regions_after: q.result.num_regions(),
            ranks_before,
            ranks_after,
        })
    }

    /// The delta record dominates the focal record: the rank offset shifts
    /// uniformly, so emptiness and whole-space results patch in place;
    /// anything richer changed its effective k and must re-run.
    fn patch_dominator(
        q: &mut StandingQuery,
        kind: UpdateKind,
        before: &mut Option<(usize, Vec<usize>)>,
    ) -> UpdateClass {
        match kind {
            UpdateKind::Insert => {
                if q.focal_dominators >= q.k {
                    // At least k records now outscore the focal record
                    // everywhere; a fresh run short-circuits to Empty.
                    before.get_or_insert_with(|| Self::snapshot(q));
                    q.set_empty();
                    return UpdateClass::Patched;
                }
                if q.result.is_whole_space() {
                    before.get_or_insert_with(|| Self::snapshot(q));
                    let rank = q.result.regions[0].rank + 1;
                    if rank > q.k {
                        q.set_empty();
                    } else {
                        q.result.regions[0].rank = rank;
                    }
                    return UpdateClass::Patched;
                }
                UpdateClass::Rerun
            }
            UpdateKind::Delete => {
                if q.focal_dominators >= q.k {
                    // Still at least k everywhere-dominators: the result was
                    // and remains empty.
                    debug_assert!(q.result.is_empty());
                    return UpdateClass::Unaffected;
                }
                if q.result.is_whole_space() {
                    // A whole-space rank always counts its dominators, so it
                    // is at least 2 when one of them is being removed.
                    debug_assert!(q.result.regions[0].rank >= 2);
                    before.get_or_insert_with(|| Self::snapshot(q));
                    q.result.regions[0].rank = q.result.regions[0].rank.saturating_sub(1).max(1);
                    return UpdateClass::Patched;
                }
                UpdateClass::Rerun
            }
        }
    }
}

/// A [`QueryEngine`] bundled with a [`Monitor`]: updates go through one call
/// that applies them to the engine *and* maintains every standing query.
pub struct MonitoredEngine {
    engine: QueryEngine,
    monitor: Monitor,
}

impl MonitoredEngine {
    /// Wraps an engine with an empty standing-query registry.
    pub fn new(engine: QueryEngine) -> Self {
        Self {
            engine,
            monitor: Monitor::new(),
        }
    }

    /// The underlying engine (for ad-hoc queries).
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// The standing-query registry.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Registers a standing query (see [`Monitor::register`]).
    pub fn register(
        &mut self,
        algorithm: Algorithm,
        focal: Vec<f64>,
        k: usize,
    ) -> Result<QueryId, RegisterError> {
        self.monitor.register(&self.engine, algorithm, focal, k)
    }

    /// Drops a standing query (see [`Monitor::unregister`]).
    pub fn unregister(&mut self, id: QueryId) -> bool {
        self.monitor.unregister(id)
    }

    /// The maintained result of a standing query.
    pub fn result(&self, id: QueryId) -> Option<&KsprResult> {
        self.monitor.result(id)
    }

    /// Inserts a record into the engine and maintains every standing query;
    /// returns the new record id and the change notifications.
    pub fn insert(&mut self, values: Vec<f64>) -> (RecordId, Vec<ResultDelta>) {
        let id = self.engine.insert(values.clone());
        let deltas = self.monitor.apply_insert(&self.engine, &values);
        (id, deltas)
    }

    /// Deletes a record from the engine and maintains every standing query;
    /// returns whether a live record was removed and the change
    /// notifications.
    pub fn delete(&mut self, id: RecordId) -> (bool, Vec<ResultDelta>) {
        match self.engine.delete_returning(id) {
            Some(values) => {
                let deltas = self.monitor.apply_delete(&self.engine, &values);
                (true, deltas)
            }
            None => (false, Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspr::{Dataset, KsprConfig};

    fn engine(raw: Vec<Vec<f64>>) -> QueryEngine {
        QueryEngine::new(&Dataset::new(raw), KsprConfig::default())
    }

    fn figure1() -> QueryEngine {
        engine(vec![
            vec![0.3, 0.8, 0.8],
            vec![0.9, 0.4, 0.4],
            vec![0.8, 0.3, 0.4],
            vec![0.4, 0.3, 0.6],
        ])
    }

    /// The maintained result must match a fresh run at the current state.
    fn assert_fresh(monitored: &MonitoredEngine, id: QueryId, ctx: &str) {
        let q = monitored.monitor().query(id).expect("registered");
        let fresh = monitored.engine().run(q.algorithm(), q.focal(), q.k());
        assert_eq!(
            q.result().num_regions(),
            fresh.num_regions(),
            "{ctx}: region count"
        );
        assert_eq!(
            q.result().rank_signature(),
            fresh.rank_signature(),
            "{ctx}: ranks"
        );
    }

    #[test]
    fn register_validates_the_request() {
        let engine = figure1();
        let mut monitor = Monitor::new();
        assert_eq!(
            monitor.register(&engine, Algorithm::LpCta, vec![0.5, 0.5, 0.7], 0),
            Err(RegisterError::InvalidK)
        );
        assert_eq!(
            monitor.register(&engine, Algorithm::LpCta, vec![0.5, 0.5], 2),
            Err(RegisterError::Focal(IngestError::ArityMismatch {
                expected: 3,
                got: 2
            }))
        );
        // (NaN payloads are not `==`-comparable; match on the variant.)
        assert!(matches!(
            monitor.register(&engine, Algorithm::LpCta, vec![0.5, f64::NAN, 0.7], 2),
            Err(RegisterError::Focal(IngestError::NonFinite { .. }))
        ));
        for alg in [Algorithm::Rtopk, Algorithm::IMaxRank] {
            assert_eq!(
                monitor.register(&engine, alg, vec![0.5, 0.5, 0.7], 2),
                Err(RegisterError::UnsupportedAlgorithm)
            );
        }
        assert!(monitor.is_empty());
        assert_eq!(monitor.stats().registered, 0);

        let id = monitor
            .register(&engine, Algorithm::LpCta, vec![0.5, 0.5, 0.7], 2)
            .expect("valid request");
        assert_eq!(monitor.len(), 1);
        assert_eq!(monitor.query(id).unwrap().k(), 2);
        assert_eq!(monitor.query(id).unwrap().focal_dominators(), 0);
        assert!(monitor.result(id).is_some());
    }

    #[test]
    fn unregister_frees_the_maintenance_state() {
        let engine = figure1();
        let mut monitor = Monitor::new();
        let a = monitor
            .register(&engine, Algorithm::LpCta, vec![0.5, 0.5, 0.7], 2)
            .unwrap();
        let b = monitor
            .register(&engine, Algorithm::KSkyband, vec![0.6, 0.6, 0.5], 3)
            .unwrap();
        assert_ne!(a, b, "ids are unique");
        assert_eq!(monitor.len(), 2);
        assert!(monitor.unregister(a));
        assert!(!monitor.unregister(a), "double unregister fails");
        assert_eq!(monitor.len(), 1);
        assert!(monitor.unregister(b));
        assert!(monitor.is_empty());
        assert!(monitor.result(a).is_none());
        assert_eq!(monitor.stats().registered, 2, "counters survive");
    }

    #[test]
    fn invisible_updates_are_classified_without_probing() {
        let mut monitored = MonitoredEngine::new(figure1());
        let q = monitored
            .register(Algorithm::LpCta, vec![0.5, 0.5, 0.7], 2)
            .unwrap();
        // Dominated by the focal record, and an exact tie: both invisible.
        for values in [vec![0.1, 0.1, 0.1], vec![0.5, 0.5, 0.7]] {
            let (id, deltas) = monitored.insert(values);
            assert!(deltas.is_empty());
            assert_fresh(&monitored, q, "after invisible insert");
            let (removed, deltas) = monitored.delete(id);
            assert!(removed);
            assert!(deltas.is_empty());
            assert_fresh(&monitored, q, "after invisible delete");
        }
        let stats = monitored.monitor().stats();
        assert_eq!(stats.unaffected, 4);
        assert_eq!(stats.patched + stats.reruns, 0);
    }

    #[test]
    fn dominator_inserts_empty_the_result_in_place() {
        let mut monitored = MonitoredEngine::new(figure1());
        let q = monitored
            .register(Algorithm::LpCta, vec![0.5, 0.5, 0.7], 1)
            .unwrap();
        assert!(monitored.result(q).unwrap().num_regions() >= 1);
        // One dominator reaches k = 1: the result empties without a rerun.
        let (id, deltas) = monitored.insert(vec![0.6, 0.6, 0.8]);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].class, UpdateClass::Patched);
        assert_eq!(deltas[0].regions_after, 0);
        assert!(deltas[0].regions_removed() >= 1);
        assert!(monitored.result(q).unwrap().is_empty());
        assert_fresh(&monitored, q, "after dominator insert");
        // While empty, any further insert is unaffected.
        let (other, deltas) = monitored.insert(vec![0.7, 0.2, 0.9]);
        assert!(deltas.is_empty());
        assert_fresh(&monitored, q, "insert while empty");
        monitored.delete(other);
        assert_fresh(&monitored, q, "delete while empty");
        // Deleting the dominator re-runs (k_effective changed back) and
        // restores the original regions.
        let (_, deltas) = monitored.delete(id);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].class, UpdateClass::Rerun);
        assert!(deltas[0].regions_added() >= 1);
        assert_fresh(&monitored, q, "after dominator delete");
        assert_eq!(monitored.monitor().query(q).unwrap().focal_dominators(), 0);
    }

    #[test]
    fn whole_space_results_patch_their_rank() {
        // Every record is dominated by the focal record: whole space, rank 1.
        let mut monitored = MonitoredEngine::new(engine(vec![vec![0.2, 0.2], vec![0.3, 0.1]]));
        let q = monitored
            .register(Algorithm::Pcta, vec![0.8, 0.8], 3)
            .unwrap();
        assert!(monitored.result(q).unwrap().is_whole_space());
        assert_eq!(monitored.result(q).unwrap().rank_signature(), vec![1]);

        // Dominators shift the uniform rank in place, one per update.
        let (a, deltas) = monitored.insert(vec![0.9, 0.9]);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].class, UpdateClass::Patched);
        assert!(deltas[0].ranks_shifted());
        assert_eq!(monitored.result(q).unwrap().rank_signature(), vec![2]);
        assert_fresh(&monitored, q, "after first dominator");

        let (b, deltas) = monitored.insert(vec![0.95, 0.95]);
        assert_eq!(deltas[0].class, UpdateClass::Patched);
        assert_eq!(monitored.result(q).unwrap().rank_signature(), vec![3]);
        assert_fresh(&monitored, q, "after second dominator");

        // A third dominator pushes the rank past k: patched to empty.
        let (c, deltas) = monitored.insert(vec![0.99, 0.99]);
        assert_eq!(deltas[0].class, UpdateClass::Patched);
        assert!(monitored.result(q).unwrap().is_empty());
        assert_fresh(&monitored, q, "rank pushed past k");

        // Deleting them walks the rank back down, patched where whole-space.
        monitored.delete(c);
        assert_fresh(&monitored, q, "after deleting third dominator");
        let (_, deltas) = monitored.delete(b);
        assert_eq!(
            deltas[0].class,
            UpdateClass::Patched,
            "whole-space rank-down"
        );
        assert_eq!(monitored.result(q).unwrap().rank_signature(), vec![2]);
        assert_fresh(&monitored, q, "after deleting second dominator");
        monitored.delete(a);
        assert_eq!(monitored.result(q).unwrap().rank_signature(), vec![1]);
        assert_fresh(&monitored, q, "after deleting first dominator");
    }

    #[test]
    fn witnessed_updates_are_unaffected_for_schedule_invariant_policies() {
        // A focal record with a non-trivial result under P-CTA (no bound
        // reports, so the witness shortcut applies to bounded results too).
        let mut monitored = MonitoredEngine::new(figure1());
        let q = monitored
            .register(Algorithm::Pcta, vec![0.5, 0.5, 0.7], 3)
            .unwrap();
        assert!(monitored.result(q).unwrap().num_regions() >= 1);
        let before = monitored.monitor().stats();
        // (0.35, 0.25, 0.35) is dominated by records 0, 3 and the focal
        // record... the focal-dominated case is invisible; use a record that
        // is incomparable with the focal but deeply dominated by the dataset:
        // (0.25, 0.75, 0.5) is incomparable with (0.5, 0.5, 0.7) and
        // dominated by (0.3, 0.8, 0.8) only — so pick k = 1.
        let mut cheap = MonitoredEngine::new(figure1());
        let q1 = cheap
            .register(Algorithm::Pcta, vec![0.5, 0.5, 0.7], 1)
            .unwrap();
        let (id, deltas) = cheap.insert(vec![0.25, 0.75, 0.5]);
        assert!(deltas.is_empty());
        assert_eq!(cheap.monitor().stats().unaffected, 1);
        assert_eq!(cheap.monitor().stats().reruns, 0);
        assert_fresh(&cheap, q1, "witnessed insert");
        let (_, deltas) = cheap.delete(id);
        assert!(deltas.is_empty());
        assert_eq!(cheap.monitor().stats().unaffected, 2);
        assert_fresh(&cheap, q1, "witnessed delete");

        // The k = 3 P-CTA query has no 3-dominator witness for this record:
        // it must re-run (and agree with a fresh run).
        assert_eq!(
            monitored.monitor().maintenance_engine_stats().batches,
            0,
            "no engine run has been charged to maintenance yet"
        );
        let (_, _) = monitored.insert(vec![0.25, 0.75, 0.5]);
        let after = monitored.monitor().stats();
        assert_eq!(after.reruns, before.reruns + 1);
        assert_fresh(&monitored, q, "unwitnessed insert reran");
        // The re-run's engine cost lands in the maintenance accumulator.
        let cost = monitored.monitor().maintenance_engine_stats();
        assert!(cost.batches >= 1, "the rerun's stats were merged");
        assert!(cost.processed_records > 0);
    }

    #[test]
    fn bound_using_policies_retain_results_under_witnessed_updates() {
        // LP-CTA's look-ahead bounds read a witness-skyband-restricted
        // aggregate tree (kspr-core), so a witnessed incomparable record
        // leaves even the bound reports bit-identical: the region-rich
        // result is retained with zero cells re-derived and no re-run.
        let mut monitored = MonitoredEngine::new(figure1());
        let q = monitored
            .register(Algorithm::LpCta, vec![0.5, 0.5, 0.7], 1)
            .unwrap();
        assert!(!monitored.result(q).unwrap().is_empty());
        assert!(!monitored.result(q).unwrap().is_whole_space());
        let regions = monitored.result(q).unwrap().num_regions();
        // Incomparable, witnessed by its one dominator (k = 1): retained.
        let (id, deltas) = monitored.insert(vec![0.25, 0.75, 0.5]);
        assert!(deltas.is_empty(), "a retained result notifies nobody");
        assert_eq!(monitored.monitor().stats().reruns, 0);
        assert_eq!(monitored.monitor().stats().engine_runs, 0);
        assert_eq!(monitored.result(q).unwrap().num_regions(), regions);
        assert_fresh(&monitored, q, "lp-cta witnessed insert retained");
        let (removed, deltas) = monitored.delete(id);
        assert!(removed);
        assert!(deltas.is_empty());
        assert_eq!(monitored.monitor().stats().reruns, 0);
        assert_fresh(&monitored, q, "lp-cta witnessed delete retained");
    }

    #[test]
    fn indexed_registry_matches_full_scan_and_prunes_visits() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let d = 3;
        let raw: Vec<Vec<f64>> = (0..50)
            .map(|_| (0..d).map(|_| rng.gen_range(0.05..0.95)).collect())
            .collect();
        let mut eng = engine(raw);
        let mut indexed = Monitor::new();
        let mut full = Monitor::full_scan();
        assert!(indexed.is_indexed());
        assert!(!full.is_indexed());
        let algs = [
            Algorithm::Cta,
            Algorithm::Pcta,
            Algorithm::LpCta,
            Algorithm::KSkyband,
        ];
        for i in 0..24usize {
            let focal: Vec<f64> = (0..d).map(|_| rng.gen_range(0.3..0.9)).collect();
            let k = 1 + (i % 4);
            let a = indexed
                .register(&eng, algs[i % 4], focal.clone(), k)
                .unwrap();
            let b = full.register(&eng, algs[i % 4], focal, k).unwrap();
            assert_eq!(a, b, "registries must assign the same ids");
        }
        // Unregister a couple to exercise registry-slot tombstoning.
        assert!(indexed.unregister(3) && full.unregister(3));
        assert!(indexed.unregister(17) && full.unregister(17));

        let mut live: Vec<RecordId> = (0..50).collect();
        for step in 0..30 {
            let (deltas_i, deltas_f) = if step % 3 == 2 && live.len() > 5 {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                let values = eng.delete_returning(victim).expect("victim is live");
                (
                    indexed.apply_delete(&eng, &values),
                    full.apply_delete(&eng, &values),
                )
            } else {
                let values: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
                live.push(eng.insert(values.clone()));
                (
                    indexed.apply_insert(&eng, &values),
                    full.apply_insert(&eng, &values),
                )
            };
            assert_eq!(deltas_i, deltas_f, "step {step}: notifications diverge");
            for (id, qi) in indexed.queries() {
                let qf = full.query(id).expect("registries hold the same ids");
                assert_eq!(
                    qi.result().num_regions(),
                    qf.result().num_regions(),
                    "step {step} query {id}: region count"
                );
                assert_eq!(
                    qi.result().rank_signature(),
                    qf.result().rank_signature(),
                    "step {step} query {id}: ranks"
                );
                assert_eq!(
                    qi.focal_dominators(),
                    qf.focal_dominators(),
                    "step {step} query {id}: dominator bookkeeping"
                );
            }
        }
        let si = indexed.stats();
        let sf = full.stats();
        assert_eq!(si.classified(), sf.classified(), "every pair accounted");
        assert_eq!(
            (si.unaffected, si.patched, si.reruns),
            (sf.unaffected, sf.patched, sf.reruns),
            "identical classification outcomes"
        );
        assert_eq!(sf.index_pruned, 0);
        assert_eq!(sf.visited, sf.classified(), "full scan visits everything");
        assert!(si.index_pruned > 0, "the index must prune visits: {si:?}");
        assert_eq!(si.visited + si.index_pruned, si.classified());
        assert!(si.visited < sf.visited);
    }

    #[test]
    fn apply_batch_coalesces_deltas_and_engine_runs() {
        let mut eng = figure1();
        let mut monitor = Monitor::new();
        let q = monitor
            .register(&eng, Algorithm::Pcta, vec![0.5, 0.5, 0.7], 2)
            .unwrap();
        // Two incomparable inserts, neither with 2 live dominators: each
        // would force a re-run on its own, but the batch coalesces them into
        // one post-batch engine run and one notification.
        let updates = vec![
            (UpdateKind::Insert, vec![0.25, 0.75, 0.5]),
            (UpdateKind::Insert, vec![0.9, 0.1, 0.9]),
        ];
        for (_, values) in &updates {
            eng.insert(values.clone());
        }
        let deltas = monitor.apply_batch(&eng, &updates);
        assert_eq!(deltas.len(), 1, "one coalesced delta per query");
        assert_eq!(deltas[0].query, q);
        assert_eq!(deltas[0].class, UpdateClass::Rerun);
        let stats = monitor.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_updates, 2);
        assert_eq!(stats.classified(), 2, "two pairs for the one query");
        assert_eq!(stats.reruns, 2, "both pairs demanded a re-run");
        assert_eq!(stats.engine_runs, 1, "...but the engine ran only once");
        let fresh = eng.run(Algorithm::Pcta, &[0.5, 0.5, 0.7], 2);
        let kept = monitor.result(q).unwrap();
        assert_eq!(kept.num_regions(), fresh.num_regions());
        assert_eq!(kept.rank_signature(), fresh.rank_signature());

        // The same stream applied one update at a time reaches the same
        // result, paying one engine run per update.
        let mut single = Monitor::new();
        let s = single
            .register(&eng, Algorithm::Pcta, vec![0.5, 0.5, 0.7], 2)
            .unwrap();
        // (Registered against the post-batch engine; replaying the same
        // updates is witnessed-or-rerun either way and must converge.)
        for (_, values) in &updates {
            single.apply_insert(&eng, values);
        }
        assert_eq!(
            single.result(s).unwrap().rank_signature(),
            kept.rank_signature()
        );
    }

    #[test]
    fn monitored_engine_matches_fresh_runs_under_random_updates() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2024);
        let d = 3;
        let raw: Vec<Vec<f64>> = (0..60)
            .map(|_| (0..d).map(|_| rng.gen_range(0.05..0.95)).collect())
            .collect();
        let mut monitored = MonitoredEngine::new(engine(raw));
        let mut ids = Vec::new();
        for (alg, k) in [
            (Algorithm::Cta, 2),
            (Algorithm::Pcta, 3),
            (Algorithm::LpCta, 2),
            (Algorithm::KSkyband, 3),
        ] {
            let focal: Vec<f64> = (0..d).map(|_| rng.gen_range(0.3..0.9)).collect();
            ids.push(monitored.register(alg, focal, k).unwrap());
        }
        let mut live: Vec<RecordId> = (0..60).collect();
        for step in 0..40 {
            if step % 3 == 0 && live.len() > 5 {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                let (removed, _) = monitored.delete(victim);
                assert!(removed);
            } else {
                let values: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
                let (id, _) = monitored.insert(values);
                live.push(id);
            }
            for &q in &ids {
                assert_fresh(&monitored, q, &format!("step {step}"));
            }
        }
        let stats = monitored.monitor().stats();
        assert_eq!(stats.classified(), 40 * 4);
        assert!(
            stats.unaffected > 0,
            "some updates must classify away cheaply: {stats:?}"
        );
    }
}
