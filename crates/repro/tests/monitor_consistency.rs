//! Standing-query correctness: under random insert/delete interleavings,
//! every monitored query's maintained result — whether classified away as
//! unaffected, patched in place, or re-run — must be indistinguishable from
//! a fresh engine run at the current dataset state, for every CellTree
//! policy, on both the single engine and the sharded serving engine.
//!
//! "Indistinguishable" follows the equality standard of the other
//! consistency suites (`dynamic_consistency`, `shard_consistency`): equal
//! region counts, equal sorted rank signatures, and identical classification
//! of sampled preference vectors.  This is exactly the surface the monitor's
//! classification argument promises to preserve (see the `kspr-monitor`
//! module docs: the skyband witness property pins the result area, and for
//! schedule-invariant policies the decomposition too).
//!
//! On top of the fresh-run oracle, the suite differentially tests the
//! **spatially indexed registry maintained in dispatcher-sized batches**
//! (`Monitor::new()` + `apply_batch`) against the **full-scan registry
//! classifying after every single update** (`Monitor::full_scan()`): the two
//! must stay bit-identical — results, rank signatures, and dominator
//! bookkeeping — while the index never visits more (update, query) pairs
//! than the full scan walks.

use kspr_repro::kspr::{naive, Algorithm, Dataset, KsprConfig, KsprResult, QueryEngine};
use kspr_repro::monitor::{Monitor, MonitoredEngine, QueryId, UpdateKind};
use kspr_repro::serve::ShardedEngine;
use proptest::prelude::*;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Cta,
    Algorithm::Pcta,
    Algorithm::LpCta,
    Algorithm::KSkyband,
];

/// Strategy: a record with `d` attributes in (0, 1).
fn record_strategy(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..0.99, d)
}

/// One scripted update: `kind % 2 == 0` inserts `record`, otherwise `pick`
/// selects a live record to delete.
fn op_strategy(d: usize) -> impl Strategy<Value = (u8, Vec<f64>, usize)> {
    (0u8..4, record_strategy(d), 0usize..1 << 16)
}

/// The maintained result must match a fresh run: region count, sorted rank
/// signature, and sampled classification.
fn assert_matches_fresh(maintained: &KsprResult, fresh: &KsprResult, ctx: &str) {
    assert_eq!(maintained.num_regions(), fresh.num_regions(), "{ctx}");
    assert_eq!(maintained.rank_signature(), fresh.rank_signature(), "{ctx}");
    for w in naive::sample_weights(&fresh.space, 24, 7) {
        assert_eq!(
            maintained.contains(&w),
            fresh.contains(&w),
            "{ctx} at {w:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn monitored_engine_matches_fresh_runs(
        raw in prop::collection::vec(record_strategy(3), 6..20),
        ops in prop::collection::vec(op_strategy(3), 1..8),
        focal_a in record_strategy(3),
        focal_b in record_strategy(3),
        k in 1usize..4,
    ) {
        let mut monitored = MonitoredEngine::new(QueryEngine::new(
            &Dataset::new(raw.clone()),
            KsprConfig::default(),
        ));
        // One standing query per CellTree policy and focal record.
        let mut queries: Vec<(QueryId, Algorithm, Vec<f64>)> = Vec::new();
        for alg in ALGORITHMS {
            for focal in [&focal_a, &focal_b] {
                let id = monitored
                    .register(alg, focal.clone(), k)
                    .expect("valid standing query");
                queries.push((id, alg, focal.clone()));
            }
        }

        // Mirror of the store: slot -> live values (None = tombstoned).
        let mut mirror: Vec<Option<Vec<f64>>> = raw.into_iter().map(Some).collect();
        for (step, (kind, values, pick)) in ops.into_iter().enumerate() {
            let live_ids: Vec<usize> = mirror
                .iter()
                .enumerate()
                .filter_map(|(id, v)| v.as_ref().map(|_| id))
                .collect();
            if kind % 2 == 0 || live_ids.len() <= 2 {
                let (id, _) = monitored.insert(values.clone());
                prop_assert_eq!(id, mirror.len());
                mirror.push(Some(values));
            } else {
                let id = live_ids[pick % live_ids.len()];
                let (removed, _) = monitored.delete(id);
                prop_assert!(removed);
                mirror[id] = None;
            }

            // Oracle: a fresh engine over the surviving records.
            let live_raw: Vec<Vec<f64>> = mirror.iter().flatten().cloned().collect();
            let fresh = QueryEngine::new(&Dataset::new(live_raw), KsprConfig::default());
            for (id, alg, focal) in &queries {
                let fresh_result = fresh.run(*alg, focal, k);
                assert_matches_fresh(
                    monitored.result(*id).expect("registered"),
                    &fresh_result,
                    &format!("step {step} {alg:?}"),
                );
            }
        }

        // Unregistering everything frees the registry (no leaked state).
        for (id, _, _) in queries {
            prop_assert!(monitored.unregister(id));
        }
        prop_assert!(monitored.monitor().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The indexed + batched registry against the full-scan per-update
    /// registry, on the single engine, for all four CellTree policies —
    /// including LP-CTA's cell-wise patch path (a witnessed update retains
    /// the skyband-restricted result with zero cells re-derived).
    #[test]
    fn indexed_batched_registry_matches_full_scan(
        raw in prop::collection::vec(record_strategy(3), 6..20),
        ops in prop::collection::vec(op_strategy(3), 2..10),
        focal_a in record_strategy(3),
        focal_b in record_strategy(3),
        k in 1usize..4,
        window in 1usize..5,
    ) {
        let mut engine = QueryEngine::new(&Dataset::new(raw.clone()), KsprConfig::default());
        let mut indexed = Monitor::new();
        let mut full = Monitor::full_scan();
        prop_assert!(indexed.is_indexed());
        prop_assert!(!full.is_indexed());
        let mut ids: Vec<QueryId> = Vec::new();
        for alg in ALGORITHMS {
            for focal in [&focal_a, &focal_b] {
                let a = indexed
                    .register(&engine, alg, focal.clone(), k)
                    .expect("valid standing query");
                let b = full
                    .register(&engine, alg, focal.clone(), k)
                    .expect("valid standing query");
                prop_assert_eq!(a, b, "both registries assign the same id sequence");
                ids.push(a);
            }
        }

        let ops_len = ops.len();
        let mut mirror: Vec<Option<Vec<f64>>> = raw.into_iter().map(Some).collect();
        for (chunk_no, chunk) in ops.chunks(window).enumerate() {
            // The engine and the per-update full scan move in lockstep; the
            // indexed registry sees the whole chunk as one batch against the
            // post-chunk state — the serving dispatcher's drain-the-queue
            // shape.
            let mut batch: Vec<(UpdateKind, Vec<f64>)> = Vec::new();
            for (kind, values, pick) in chunk {
                let live_ids: Vec<usize> = mirror
                    .iter()
                    .enumerate()
                    .filter_map(|(id, v)| v.as_ref().map(|_| id))
                    .collect();
                if kind % 2 == 0 || live_ids.len() <= 2 {
                    let id = engine.insert(values.clone());
                    prop_assert_eq!(id, mirror.len());
                    full.apply_insert(&engine, values);
                    batch.push((UpdateKind::Insert, values.clone()));
                    mirror.push(Some(values.clone()));
                } else {
                    let id = live_ids[pick % live_ids.len()];
                    prop_assert!(engine.delete(id));
                    let removed = mirror[id].take().expect("live record");
                    full.apply_delete(&engine, &removed);
                    batch.push((UpdateKind::Delete, removed));
                }
            }
            indexed.apply_batch(&engine, &batch);

            // Bit-identical registries, and both equal to a fresh run.
            let live_raw: Vec<Vec<f64>> = mirror.iter().flatten().cloned().collect();
            let fresh = QueryEngine::new(&Dataset::new(live_raw), KsprConfig::default());
            for &id in &ids {
                let iq = indexed.query(id).expect("registered");
                let fq = full.query(id).expect("registered");
                prop_assert_eq!(iq.result().num_regions(), fq.result().num_regions());
                prop_assert_eq!(iq.result().rank_signature(), fq.result().rank_signature());
                prop_assert_eq!(iq.focal_dominators(), fq.focal_dominators());
                let fresh_result = fresh.run(iq.algorithm(), iq.focal(), k);
                assert_matches_fresh(
                    iq.result(),
                    &fresh_result,
                    &format!("chunk {chunk_no} {:?} window={window}", iq.algorithm()),
                );
            }
        }

        // Both sides account every (update, query) pair exactly once, and
        // the index never visits more pairs than the full scan walks.
        let pairs = (ops_len * ids.len()) as u64;
        prop_assert_eq!(indexed.stats().classified(), pairs);
        prop_assert_eq!(full.stats().classified(), pairs);
        prop_assert_eq!(full.stats().visited, pairs);
        prop_assert!(indexed.stats().visited <= full.stats().visited);
        prop_assert_eq!(
            indexed.stats().visited + indexed.stats().index_pruned,
            pairs
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_standing_queries_match_fresh_runs(
        raw in prop::collection::vec(record_strategy(3), 8..24),
        ops in prop::collection::vec(op_strategy(3), 1..7),
        focal in record_strategy(3),
        k in 1usize..4,
        shards in 2usize..5,
        window in 1usize..4,
    ) {
        let config = KsprConfig::default().with_shards(shards);
        let mut sharded = ShardedEngine::new(raw.clone(), config);
        // Drive the monitors against the sharded engine directly — the same
        // coupling the serve dispatcher uses.  The indexed registry is
        // maintained in dispatcher-sized batches; the full-scan registry
        // classifies after every single update and doubles as the per-step
        // oracle surface.
        let mut monitor = Monitor::new();
        let mut full = Monitor::full_scan();
        let mut queries: Vec<(QueryId, Algorithm)> = Vec::new();
        for alg in ALGORITHMS {
            let id = monitor
                .register(&sharded, alg, focal.clone(), k)
                .expect("valid standing query");
            let fid = full
                .register(&sharded, alg, focal.clone(), k)
                .expect("valid standing query");
            prop_assert_eq!(id, fid, "both registries assign the same id sequence");
            queries.push((id, alg));
        }

        let total_steps = ops.len();
        let mut mirror: Vec<Option<Vec<f64>>> = raw.into_iter().map(Some).collect();
        let mut batch: Vec<(UpdateKind, Vec<f64>)> = Vec::new();
        for (step, (kind, values, pick)) in ops.into_iter().enumerate() {
            let live_ids: Vec<usize> = mirror
                .iter()
                .enumerate()
                .filter_map(|(id, v)| v.as_ref().map(|_| id))
                .collect();
            if kind % 2 == 0 || live_ids.len() <= 2 {
                let id = sharded.insert(values.clone());
                prop_assert_eq!(id, mirror.len());
                full.apply_insert(&sharded, &values);
                batch.push((UpdateKind::Insert, values.clone()));
                mirror.push(Some(values));
            } else {
                let id = live_ids[pick % live_ids.len()];
                let removed = sharded.delete_returning(id);
                prop_assert_eq!(removed.as_ref(), mirror[id].as_ref());
                let removed = removed.expect("live record");
                full.apply_delete(&sharded, &removed);
                batch.push((UpdateKind::Delete, removed));
                mirror[id] = None;
            }

            // Oracle: the sharded engine's own fresh answer at this state
            // (which shard_consistency.rs in turn ties to a single engine).
            for (id, alg) in &queries {
                let fresh_result = sharded.run(*alg, &focal, k);
                assert_matches_fresh(
                    full.result(*id).expect("registered"),
                    &fresh_result,
                    &format!("step {step} {alg:?} shards={shards}"),
                );
            }

            // Flush the dispatcher-style batch, then the two registries must
            // be bit-identical.
            if batch.len() >= window || step + 1 == total_steps {
                monitor.apply_batch(&sharded, &std::mem::take(&mut batch));
                for (id, _) in &queries {
                    let m = monitor.query(*id).expect("registered");
                    let f = full.query(*id).expect("registered");
                    prop_assert_eq!(m.result().num_regions(), f.result().num_regions());
                    prop_assert_eq!(m.result().rank_signature(), f.result().rank_signature());
                    prop_assert_eq!(m.focal_dominators(), f.focal_dominators());
                }
            }
            prop_assert_eq!(sharded.len(), mirror.iter().flatten().count());
        }
        // Every update classified every standing query exactly once, on both
        // sides, and the index never visits more pairs than the full scan.
        prop_assert_eq!(
            monitor.stats().classified() % monitor.len() as u64,
            0
        );
        prop_assert_eq!(monitor.stats().classified(), full.stats().classified());
        prop_assert_eq!(full.stats().visited, full.stats().classified());
        prop_assert!(monitor.stats().visited <= full.stats().visited);
    }
}
