//! The indexed dataset a kSPR query runs against, and the mutable,
//! epoch-versioned [`DatasetStore`] that maintains it under updates.

use kspr_spatial::{AggregateRTree, ColumnarBlock, Record, RecordId};
use std::sync::Arc;

/// Why a record fails ingest validation (see [`check_record`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestError {
    /// The row has no attributes.
    Empty,
    /// The row's arity does not match the dataset's.
    ArityMismatch {
        /// The dataset arity.
        expected: usize,
        /// The row's arity.
        got: usize,
    },
    /// The row contains a NaN or infinite value.
    NonFinite {
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Empty => write!(f, "has no attributes (empty rows are not allowed)"),
            IngestError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "has {got} attributes, but the dataset arity is {expected}"
                )
            }
            IngestError::NonFinite { value } => write!(
                f,
                "contains a non-finite attribute value ({value}); all values must be finite"
            ),
        }
    }
}

/// Checks one record's attribute vector against the ingest rules.
///
/// Every value must be finite: NaN values break the total orders the engine
/// relies on (skyband sorting, expansion order, dominance tests all use
/// `partial_cmp`), which silently yields nondeterministic results rather than
/// an error.  `expected_dim` is the dataset arity (`None` for the first row,
/// which defines it).
///
/// This is the single source of truth for ingest validation — the serving
/// layer (`kspr-serve`) uses it too, mapping violations to request errors
/// instead of panics.
pub fn check_record(values: &[f64], expected_dim: Option<usize>) -> Result<(), IngestError> {
    if let Some(expected) = expected_dim {
        if values.len() != expected {
            return Err(IngestError::ArityMismatch {
                expected,
                got: values.len(),
            });
        }
    }
    if values.is_empty() {
        return Err(IngestError::Empty);
    }
    if let Some(&value) = values.iter().find(|v| !v.is_finite()) {
        return Err(IngestError::NonFinite { value });
    }
    Ok(())
}

/// Panicking form of [`check_record`], used at the library ingest boundary.
///
/// # Panics
/// Panics with a descriptive message on a non-finite value, an empty row, or
/// an arity mismatch.
pub fn validate_record(values: &[f64], expected_dim: Option<usize>, id: usize) {
    if let Err(err) = check_record(values, expected_dim) {
        panic!("record {id} {err}");
    }
}

/// A dataset of options, indexed by an aggregate R-tree.
///
/// Attribute values follow the paper's convention: every attribute is
/// "larger is better".  The generators in `kspr-datagen` produce values in
/// `(0, 1)`, but any non-negative range works.
///
/// The index is reference-counted so that the query engine can share it with
/// per-query state (and across the worker threads of
/// [`crate::engine::QueryEngine::run_batch`]) without copying it.
#[derive(Debug, Clone)]
pub struct Dataset {
    tree: Arc<AggregateRTree>,
    /// Column-major mirror of the record slots (row index == record id,
    /// tombstoned slots included).  The dominance-classification kernel of
    /// the Section 3.1 preprocessing and the approximate tier's scoring
    /// sweep read this instead of pointer-chasing `Vec<Record>`.
    columns: Arc<ColumnarBlock>,
}

impl Dataset {
    /// Builds a dataset (and its index) from raw attribute vectors with the
    /// default R-tree fanout ([`AggregateRTree::DEFAULT_FANOUT`]).
    ///
    /// # Panics
    /// Panics if `raw` is empty, the rows have inconsistent arities, or any
    /// value is non-finite (NaN / ±∞).
    pub fn new(raw: Vec<Vec<f64>>) -> Self {
        let dim = raw.first().map(|r| r.len());
        for (id, row) in raw.iter().enumerate() {
            validate_record(row, dim, id);
        }
        let tree = AggregateRTree::bulk_load(Record::from_raw(raw), AggregateRTree::DEFAULT_FANOUT);
        let columns = ColumnarBlock::from_rows(
            tree.dim(),
            tree.records().iter().map(|r| r.values.as_slice()),
        );
        Self {
            tree: Arc::new(tree),
            columns: Arc::new(columns),
        }
    }

    /// The column-major mirror of the record slots.  Row `id` holds the
    /// attribute values of record slot `id` — including tombstoned slots, so
    /// callers must pair it with [`Dataset::is_live`].
    pub fn columns(&self) -> &ColumnarBlock {
        &self.columns
    }

    /// A shared handle to the index (used by the query engine to reuse the
    /// dataset R-tree instead of rebuilding a query-local copy).
    pub fn shared_index(&self) -> Arc<AggregateRTree> {
        Arc::clone(&self.tree)
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True iff the dataset contains no live record (possible once a
    /// [`DatasetStore`] has deleted everything).
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Number of attributes per record.
    pub fn dim(&self) -> usize {
        self.tree.dim()
    }

    /// All record slots, indexed by id.  After deletions through a
    /// [`DatasetStore`] this still contains the tombstoned records — use
    /// [`Dataset::live_records`] / [`Dataset::is_live`] when liveness
    /// matters.
    pub fn records(&self) -> &[Record] {
        self.tree.records()
    }

    /// Iterates over the live records, in id order.
    pub fn live_records(&self) -> impl Iterator<Item = &Record> {
        self.tree.live_records()
    }

    /// True iff record slot `id` exists and has not been deleted.
    pub fn is_live(&self, id: RecordId) -> bool {
        self.tree.is_live(id)
    }

    /// True iff some record has been deleted (ids are then non-contiguous).
    pub fn has_tombstones(&self) -> bool {
        self.tree.has_tombstones()
    }

    /// Number of tombstoned record slots (deleted records kept for id
    /// stability).
    pub fn tombstone_count(&self) -> usize {
        self.tree.tombstone_count()
    }

    /// The underlying aggregate R-tree.
    pub fn tree(&self) -> &AggregateRTree {
        &self.tree
    }

    /// Attribute values of record `id`.
    pub fn values(&self, id: usize) -> &[f64] {
        &self.tree.record(id).values
    }
}

/// A mutable, versioned dataset handle.
///
/// Wraps a [`Dataset`] and maintains its aggregate R-tree **incrementally**
/// under [`DatasetStore::insert`] / [`DatasetStore::delete`] — no bulk
/// reload.  Every successful update bumps the store's **epoch**, the
/// monotone version counter that caches built on top of the dataset (most
/// importantly the [`crate::engine::QueryEngine`] shared-prep cache) compare
/// against to detect staleness.
///
/// Queries that are still holding the shared index (`Arc`) when an update
/// lands keep reading the pre-update snapshot: the store copies-on-write in
/// that case, so updates never race readers.  In the common serve-loop
/// pattern — updates between batches — the handle is unique and maintenance
/// is in-place.
#[derive(Debug, Clone)]
pub struct DatasetStore {
    dataset: Dataset,
    epoch: u64,
}

impl DatasetStore {
    /// Wraps a dataset at epoch 0.
    pub fn new(dataset: Dataset) -> Self {
        Self { dataset, epoch: 0 }
    }

    /// Builds a store (and the index) from raw attribute vectors.
    ///
    /// # Panics
    /// Panics if `raw` is empty or the rows have inconsistent arities.
    pub fn from_raw(raw: Vec<Vec<f64>>) -> Self {
        Self::new(Dataset::new(raw))
    }

    /// The current dataset view.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The version counter: incremented by every successful update.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Snapshot-restore hook: forces the epoch counter to `epoch`.
    ///
    /// Used by the durability layer when a store is rebuilt from a snapshot:
    /// the rebuilt dataset is bit-identical to the snapshotted one, but the
    /// reconstruction path (bulk load + tombstone replay) would leave a
    /// different epoch than the live store had accumulated.  Forcing the
    /// recorded epoch makes the recovered store indistinguishable from one
    /// that never went down.  Never call this on a store that shares caches
    /// with in-flight queries — a *lowered* epoch would make stale caches
    /// look fresh.
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Fraction of record slots that are tombstoned, in `[0, 1)`.
    ///
    /// Deleted slots are retained forever (ids are stable by design), so a
    /// delete-heavy workload steadily accumulates dead slots that still cost
    /// memory and skyband promotion-scan time.  Serving layers watch this
    /// ratio to decide when a compaction (store rewrite + id remap) would pay
    /// off; the `serve` experiment logs a warning above 50%.
    pub fn tombstone_ratio(&self) -> f64 {
        let slots = self.dataset.records().len();
        if slots == 0 {
            0.0
        } else {
            self.dataset.tombstone_count() as f64 / slots as f64
        }
    }

    /// Inserts a record, maintaining the R-tree in place, and returns its id.
    ///
    /// # Panics
    /// Panics if `values` does not match the dataset arity or contains a
    /// non-finite value (NaN / ±∞).
    pub fn insert(&mut self, values: Vec<f64>) -> RecordId {
        validate_record(
            &values,
            Some(self.dataset.dim()),
            self.dataset.records().len(),
        );
        Arc::make_mut(&mut self.dataset.columns).push_row(&values);
        let id = Arc::make_mut(&mut self.dataset.tree).insert(values);
        self.epoch += 1;
        id
    }

    /// Deletes record `id`, returning its attribute values if it was live.
    pub fn delete(&mut self, id: RecordId) -> Option<Vec<f64>> {
        if !self.dataset.is_live(id) {
            return None;
        }
        let values = self.dataset.values(id).to_vec();
        let removed = Arc::make_mut(&mut self.dataset.tree).delete(id);
        debug_assert!(removed, "live record must be deletable");
        self.epoch += 1;
        Some(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let d = Dataset::new(vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.values(1), &[0.3, 0.4]);
        assert_eq!(d.records().len(), 3);
        assert_eq!(d.tree().len(), 3);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_data() {
        Dataset::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-finite attribute value")]
    fn rejects_nan_in_constructor() {
        Dataset::new(vec![vec![0.1, 0.2], vec![0.3, f64::NAN]]);
    }

    #[test]
    #[should_panic(expected = "non-finite attribute value")]
    fn rejects_infinity_in_constructor() {
        Dataset::new(vec![vec![f64::INFINITY, 0.2]]);
    }

    #[test]
    #[should_panic(expected = "attributes, but the dataset arity")]
    fn rejects_mismatched_arity_in_constructor() {
        Dataset::new(vec![vec![0.1, 0.2], vec![0.3, 0.4, 0.5]]);
    }

    #[test]
    #[should_panic(expected = "empty rows are not allowed")]
    fn rejects_empty_row() {
        Dataset::new(vec![vec![]]);
    }

    #[test]
    #[should_panic(expected = "non-finite attribute value")]
    fn store_insert_rejects_nan() {
        let mut store = DatasetStore::from_raw(vec![vec![0.1, 0.2]]);
        store.insert(vec![0.3, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "attributes, but the dataset arity")]
    fn store_insert_rejects_mismatched_arity() {
        let mut store = DatasetStore::from_raw(vec![vec![0.1, 0.2]]);
        store.insert(vec![0.3, 0.4, 0.5]);
    }

    #[test]
    fn failed_insert_does_not_bump_the_epoch() {
        let mut store = DatasetStore::from_raw(vec![vec![0.1, 0.2]]);
        let before = store.epoch();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.insert(vec![f64::NAN, 0.4])
        }));
        assert!(result.is_err());
        assert_eq!(
            store.epoch(),
            before,
            "rejected ingest must not version-bump"
        );
        assert_eq!(store.dataset().len(), 1);
    }

    #[test]
    fn store_updates_bump_the_epoch_and_keep_ids_stable() {
        let mut store = DatasetStore::from_raw(vec![vec![0.1, 0.2], vec![0.3, 0.4]]);
        assert_eq!(store.epoch(), 0);
        let id = store.insert(vec![0.5, 0.6]);
        assert_eq!(id, 2);
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.dataset().len(), 3);

        assert_eq!(store.delete(0), Some(vec![0.1, 0.2]));
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.delete(0), None, "double delete is a no-op");
        assert_eq!(store.epoch(), 2, "failed updates do not bump the epoch");
        assert!(store.dataset().has_tombstones());
        assert!(!store.dataset().is_live(0));
        assert_eq!(store.dataset().len(), 2);
        let live: Vec<usize> = store.dataset().live_records().map(|r| r.id).collect();
        assert_eq!(live, vec![1, 2]);
    }

    #[test]
    fn tombstone_ratio_tracks_deletes() {
        let mut store =
            DatasetStore::from_raw(vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]]);
        assert_eq!(store.tombstone_ratio(), 0.0);
        assert_eq!(store.dataset().tombstone_count(), 0);
        store.delete(0);
        store.delete(2);
        assert_eq!(store.dataset().tombstone_count(), 2);
        assert!((store.tombstone_ratio() - 2.0 / 3.0).abs() < 1e-12);
        // Inserting grows the slot count, diluting the ratio.
        store.insert(vec![0.7, 0.8]);
        assert!((store.tombstone_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn store_copy_on_write_leaves_snapshots_untouched() {
        let mut store = DatasetStore::from_raw(vec![vec![0.1, 0.2], vec![0.3, 0.4]]);
        let snapshot = store.dataset().shared_index();
        store.insert(vec![0.5, 0.6]);
        assert_eq!(snapshot.len(), 2, "pre-update snapshot is immutable");
        assert_eq!(store.dataset().len(), 3);
    }

    #[test]
    fn columnar_mirror_tracks_updates() {
        let mut store = DatasetStore::from_raw(vec![vec![0.1, 0.2], vec![0.3, 0.4]]);
        let snapshot = store.dataset().clone();
        let id = store.insert(vec![0.5, 0.6]);
        let cols = store.dataset().columns();
        assert_eq!(cols.len(), 3, "insert appends a row");
        assert_eq!(cols.value(id, 0), 0.5);
        assert_eq!(cols.value(id, 1), 0.6);
        assert_eq!(
            snapshot.columns().len(),
            2,
            "pre-update snapshot keeps its own columnar block"
        );
        // Every row mirrors the record slot of the same id, tombstones
        // included.
        store.delete(0);
        let d = store.dataset();
        for r in d.records() {
            for c in 0..d.dim() {
                assert_eq!(d.columns().value(r.id, c), r.values[c]);
            }
        }
        assert_eq!(d.columns().len(), d.records().len());
    }
}
