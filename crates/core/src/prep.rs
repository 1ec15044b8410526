//! Dominance-based preprocessing (Section 3.1 of the paper).
//!
//! Records that dominate the focal record `p` score higher than `p` for every
//! weight vector, so the kSPR answer on `D` equals the answer on
//! `D` minus those records with `k` reduced by their number.  Records that
//! `p` dominates (or ties with exactly) can never outrank `p` and are dropped
//! outright.  The remaining records are re-indexed in a query-local aggregate
//! R-tree used by the skyline batching of P-CTA and the group bounds of
//! LP-CTA.

use crate::dataset::Dataset;
use crate::stats::QueryStats;
use kspr_spatial::{AggregateRTree, DomClass, Record};
use std::sync::Arc;

/// Outcome of preprocessing a query.
#[derive(Debug)]
pub enum Prepared {
    /// The focal record can never be in the top-`k`: at least `k` records
    /// dominate it, so the result is empty.
    Empty {
        /// Number of records dominating the focal record.
        dominators: usize,
    },
    /// The focal record is in the top-`k` for *every* weight vector: after
    /// removing dominators and dominated records no competitor remains and
    /// fewer than `k` dominators exist.
    WholeSpace {
        /// Number of records dominating the focal record.
        dominators: usize,
    },
    /// The general case: the filtered competitors and the effective `k`.
    Filtered(FilteredQuery),
}

/// The filtered competitor set for the general case.
#[derive(Debug)]
pub struct FilteredQuery {
    /// Competitors that neither dominate nor are dominated by the focal
    /// record, re-identified with sequential ids.
    pub records: Vec<Record>,
    /// Original dataset ids of the filtered records (`original_ids[i]` is the
    /// dataset id of filtered record `i`).  Always ascending, so the inverse
    /// mapping is a binary search.
    pub original_ids: Vec<usize>,
    /// Aggregate R-tree over the filtered records.  Usually query-local;
    /// when preprocessing removes no record the dataset index is reused
    /// (shared) instead of being rebuilt.
    pub tree: Arc<AggregateRTree>,
    /// Effective `k` after accounting for dominators of the focal record.
    pub k_effective: usize,
    /// Number of records dominating the focal record.
    pub dominators: usize,
    /// Snapshot of the index's simulated-I/O counter taken when the query
    /// started; per-query I/O is reported as the delta against it.  (For a
    /// shared index serving concurrent queries the delta is approximate —
    /// it only affects statistics, never results.)
    pub io_base: u64,
}

impl FilteredQuery {
    /// The filtered dataset id corresponding to an original dataset id, if
    /// the record survived preprocessing.
    pub fn filtered_id_of(&self, original_id: usize) -> Option<usize> {
        self.original_ids.binary_search(&original_id).ok()
    }
}

/// Runs the Section 3.1 preprocessing over `dataset`.
///
/// * Records identical to `focal` are treated as ties and ignored (the paper
///   ignores ties "for ease of presentation").
/// * Deleted (tombstoned) record slots are not competitors.
/// * When preprocessing removes no record, the dataset's prebuilt R-tree is
///   reused instead of being bulk-loaded again.  The reused index is shared
///   — across queries and, in batch mode, across threads — which is safe
///   because all traversals are read-only.
/// * `stats` receives the dominator / dominated counts.
///
/// # Panics
/// Panics if `k == 0` or if `focal` does not match the dataset arity.
pub fn prepare(dataset: &Dataset, focal: &[f64], k: usize, stats: &mut QueryStats) -> Prepared {
    let records = dataset.records();
    assert!(k >= 1, "k must be at least 1");
    assert!(
        records.iter().all(|r| r.dim() == focal.len()),
        "focal record arity must match the dataset"
    );

    let mut dominators = 0usize;
    let mut dominated = 0usize;
    let mut kept: Vec<Record> = Vec::new();
    let mut original_ids: Vec<usize> = Vec::new();

    // One contiguous column sweep classifies every record slot.
    let mut classes: Vec<DomClass> = Vec::new();
    stats.phases.dominance_ns += dataset.columns().classify_into_timed(focal, &mut classes);

    for r in records {
        // Record slots deleted through a `DatasetStore` stay in the slice
        // (ids are stable) but must not act as competitors.
        if !dataset.is_live(r.id) {
            continue;
        }
        let class = classes[r.id];
        match class {
            // Tie with the focal record: ignored.
            DomClass::Tie => {}
            DomClass::Dominates => dominators += 1,
            DomClass::Dominated => dominated += 1,
            DomClass::Incomparable => {
                original_ids.push(r.id);
                kept.push(Record::new(kept.len(), r.values.clone()));
            }
        }
    }

    stats.dominating_records = dominators;
    stats.dominated_records = dominated;

    if dominators >= k {
        return Prepared::Empty { dominators };
    }
    if kept.is_empty() {
        return Prepared::WholeSpace { dominators };
    }
    // Fast path: nothing was filtered out, so the filtered set *is* the
    // dataset (same records, same sequential ids — `bulk_load` asserts every
    // indexed record's id equals its position, so the dataset index can
    // never disagree with the re-id'd `kept` vector here) and the prebuilt
    // index can be shared as-is.  Sharing is result-preserving: an index
    // grown by incremental inserts may differ in *shape* from the STR tree a
    // rebuild would produce, which can shift traversal statistics (node
    // reads, bound tightness) but never the record set or the query result.
    // `kept.len() == records.len()` compares against the raw slot count, so
    // a dataset with tombstones (where surviving ids are no longer
    // sequential) can never take this path.
    let tree = if kept.len() == records.len() {
        dataset.shared_index()
    } else {
        Arc::new(AggregateRTree::bulk_load(
            kept.clone(),
            AggregateRTree::DEFAULT_FANOUT,
        ))
    };
    let io_base = tree.io().reads();
    Prepared::Filtered(FilteredQuery {
        records: kept,
        original_ids,
        tree,
        k_effective: k - dominators,
        dominators,
        io_base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(raw: &[Vec<f64>]) -> Dataset {
        Dataset::new(raw.to_vec())
    }

    #[test]
    fn filters_dominators_and_dominated() {
        let data = dataset(&[
            vec![0.9, 0.9], // dominates focal
            vec![0.1, 0.1], // dominated by focal
            vec![0.9, 0.1], // incomparable
            vec![0.5, 0.5], // tie (identical)
        ]);
        let mut stats = QueryStats::new();
        let prep = prepare(&data, &[0.5, 0.5], 3, &mut stats);
        match prep {
            Prepared::Filtered(f) => {
                assert_eq!(f.records.len(), 1);
                assert_eq!(f.original_ids, vec![2]);
                assert_eq!(f.k_effective, 2);
                assert_eq!(f.dominators, 1);
            }
            other => panic!("expected Filtered, got {other:?}"),
        }
        assert_eq!(stats.dominating_records, 1);
        assert_eq!(stats.dominated_records, 1);
    }

    #[test]
    fn too_many_dominators_yields_empty() {
        let data = dataset(&[vec![0.9, 0.9], vec![0.8, 0.8], vec![0.7, 0.7]]);
        let mut stats = QueryStats::new();
        match prepare(&data, &[0.5, 0.5], 2, &mut stats) {
            Prepared::Empty { dominators } => assert_eq!(dominators, 3),
            other => panic!("expected Empty, got {other:?}"),
        }
    }

    #[test]
    fn no_competitors_yields_whole_space() {
        let data = dataset(&[vec![0.1, 0.1], vec![0.2, 0.2]]);
        let mut stats = QueryStats::new();
        match prepare(&data, &[0.5, 0.5], 1, &mut stats) {
            Prepared::WholeSpace { dominators } => assert_eq!(dominators, 0),
            other => panic!("expected WholeSpace, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn rejects_zero_k() {
        let data = dataset(&[vec![0.1, 0.1]]);
        prepare(&data, &[0.5, 0.5], 0, &mut QueryStats::new());
    }

    #[test]
    fn index_reuse_when_nothing_is_filtered() {
        // Pairwise-incomparable records and an incomparable focal record:
        // preprocessing keeps everything, so the dataset index is shared.
        let dataset = Dataset::new(vec![vec![0.9, 0.1], vec![0.1, 0.9], vec![0.6, 0.35]]);
        let mut stats = QueryStats::new();
        let prep = prepare(&dataset, &[0.5, 0.5], 2, &mut stats);
        match prep {
            Prepared::Filtered(f) => {
                assert!(
                    Arc::ptr_eq(&f.tree, &dataset.shared_index()),
                    "index must be shared"
                );
                assert_eq!(f.records.len(), dataset.len());
                assert_eq!(f.filtered_id_of(2), Some(2));
            }
            other => panic!("expected Filtered, got {other:?}"),
        }
    }

    #[test]
    fn tombstoned_records_are_not_competitors() {
        use crate::dataset::DatasetStore;
        // Record 1 dominates the focal record; once deleted it must stop
        // counting, and the query-local tree must be rebuilt (no fast-path
        // sharing of an index with id gaps).
        let mut store = DatasetStore::from_raw(vec![
            vec![0.9, 0.1],
            vec![0.9, 0.9],
            vec![0.1, 0.9],
            vec![0.6, 0.4],
        ]);
        store.delete(1);
        let mut stats = QueryStats::new();
        let prep = prepare(store.dataset(), &[0.5, 0.5], 2, &mut stats);
        match prep {
            Prepared::Filtered(f) => {
                assert_eq!(f.original_ids, vec![0, 2, 3]);
                assert_eq!(f.k_effective, 2, "the deleted dominator is gone");
                assert!(
                    !Arc::ptr_eq(&f.tree, &store.dataset().shared_index()),
                    "an index with tombstones must not be shared"
                );
                assert!(f.records.iter().enumerate().all(|(i, r)| r.id == i));
            }
            other => panic!("expected Filtered, got {other:?}"),
        }
        assert_eq!(stats.dominating_records, 0);
    }

    #[test]
    fn filtered_id_mapping_round_trips() {
        let data = dataset(&[vec![0.9, 0.1], vec![0.9, 0.9], vec![0.1, 0.9]]);
        let mut stats = QueryStats::new();
        if let Prepared::Filtered(f) = prepare(&data, &[0.5, 0.5], 2, &mut stats) {
            // Record 1 dominates the focal record and is filtered out.
            assert_eq!(f.original_ids, vec![0, 2]);
            assert_eq!(f.filtered_id_of(0), Some(0));
            assert_eq!(f.filtered_id_of(1), None);
            assert_eq!(f.filtered_id_of(2), Some(1));
        } else {
            panic!("expected Filtered");
        }
    }

    #[test]
    fn filtered_ids_are_sequential() {
        let data = dataset(&[vec![0.9, 0.1], vec![0.1, 0.9], vec![0.6, 0.4]]);
        let mut stats = QueryStats::new();
        if let Prepared::Filtered(f) = prepare(&data, &[0.5, 0.5], 2, &mut stats) {
            assert!(f.records.iter().enumerate().all(|(i, r)| r.id == i));
            assert_eq!(f.original_ids.len(), f.records.len());
        } else {
            panic!("expected Filtered");
        }
    }
}
