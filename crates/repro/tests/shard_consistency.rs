//! Shard consistency: under random datasets and random interleavings of
//! insert / delete / query, the sharded serving engine must return results
//! identical to a single `QueryEngine` over the same live records — same
//! region counts, and the same classification of sampled preference vectors.
//!
//! This exercises the whole serving stack at once: update routing to the
//! owning shard, the per-shard incremental `SharedPrep` maintenance, the
//! epoch-checked merged-candidate cache, and the result-preserving merge
//! itself (union of per-shard k-skybands; the correctness argument lives in
//! the `kspr_serve::sharded` module docs).

use kspr_repro::kspr::{naive, Algorithm, Dataset, KsprConfig, QueryEngine};
use kspr_repro::serve::ShardedEngine;
use proptest::prelude::*;

/// Strategy: a record with `d` attributes in (0, 1).
fn record_strategy(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..0.99, d)
}

/// One scripted update: `kind % 2 == 0` inserts `record`, otherwise `pick`
/// selects a live record to delete.
fn op_strategy(d: usize) -> impl Strategy<Value = (u8, Vec<f64>, usize)> {
    (0u8..4, record_strategy(d), 0usize..1 << 16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_serving_matches_a_single_engine(
        raw in prop::collection::vec(record_strategy(3), 8..24),
        ops in prop::collection::vec(op_strategy(3), 1..7),
        focal in record_strategy(3),
        k in 1usize..4,
        shards in 2usize..5,
    ) {
        let config = KsprConfig::default().with_shards(shards);
        let mut sharded = ShardedEngine::new(raw.clone(), config);
        // Mirror of the store: slot -> live values (None = tombstoned).  The
        // sharded engine hands out the same dense global ids.
        let mut mirror: Vec<Option<Vec<f64>>> = raw.into_iter().map(Some).collect();
        let focals = vec![focal];

        for (kind, values, pick) in ops {
            let live_ids: Vec<usize> = mirror
                .iter()
                .enumerate()
                .filter_map(|(id, v)| v.as_ref().map(|_| id))
                .collect();
            if kind % 2 == 0 || live_ids.len() <= 2 {
                let id = sharded.insert(values.clone());
                prop_assert_eq!(id, mirror.len(), "global ids are dense and never reused");
                mirror.push(Some(values));
            } else {
                let id = live_ids[pick % live_ids.len()];
                prop_assert!(sharded.delete(id));
                prop_assert!(!sharded.delete(id), "double delete must fail");
                mirror[id] = None;
            }

            // A single engine rebuilt over the surviving records is the
            // oracle: the sharded front-end must be indistinguishable.
            let live_raw: Vec<Vec<f64>> = mirror.iter().flatten().cloned().collect();
            let single = QueryEngine::new(&Dataset::new(live_raw), KsprConfig::default());
            for alg in [Algorithm::LpCta, Algorithm::KSkyband] {
                let got = sharded.run_batch(alg, &focals, k);
                let want = single.run_batch(alg, &focals, k);
                let (a, b) = (&got[0], &want[0]);
                prop_assert_eq!(a.num_regions(), b.num_regions(), "{:?}", alg);
                for w in naive::sample_weights(&a.space, 24, 7) {
                    prop_assert_eq!(a.contains(&w), b.contains(&w), "{:?} at {:?}", alg, w);
                }
            }
        }
        prop_assert_eq!(
            sharded.len(),
            mirror.iter().flatten().count(),
            "live counts must track the interleaving"
        );
    }
}
