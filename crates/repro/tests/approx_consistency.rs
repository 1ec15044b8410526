//! Approximate-tier consistency: the Hoeffding interval reported by the
//! sampling tier must contain the exact engine's true impact at (at least)
//! the configured confidence, on static datasets **and** across random
//! insert/delete interleavings — through both the plain sampler
//! (`kspr-approx`) and the sharded serving fan-out (`kspr-serve`).
//!
//! The true impact is computed from the exact engine's region geometry: the
//! datasets are 3-dimensional, so the working space has 2 dimensions and
//! every finalized region volume is an exact polygon area (no Monte-Carlo
//! reference noise).  Coverage is then counted over repeated estimator
//! seeds: with a two-sided confidence of 90% the interval may legitimately
//! miss in some trials, so the assertion is on the coverage *rate*, not on
//! every draw.  (The vendored proptest draws deterministic inputs per test
//! name, so these rates are stable across runs.)
//!
//! The file also pins the acceptance-criterion regression: a
//! `QueryTier::Exact` request submitted to a single-shard `Server` is
//! answered as a bit-for-bit passthrough of the plain engine.

use kspr_repro::approx::{ApproxEngine, TieredResult};
use kspr_repro::kspr::{
    naive, Algorithm, Dataset, ErrorBudget, KsprConfig, QueryEngine, QueryTier,
};
use kspr_repro::serve::{ServeOptions, Server, ShardedEngine};
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

/// The exact impact of `focal` at rank threshold `k`: total region area of
/// the exact result over the space area (exact in 2 working dimensions).
fn exact_impact(engine: &QueryEngine, focal: &[f64], k: usize) -> f64 {
    let result = engine.run(Algorithm::LpCta, focal, k);
    result.total_volume(0, 0) / result.space.volume()
}

/// Counts how many of `trials` independent estimator seeds produce an
/// interval covering `truth`, and asserts every estimate's half-width meets
/// the budget.
fn coverage<F>(estimate: F, truth: f64, budget: &ErrorBudget, trials: u64) -> usize
where
    F: Fn(u64) -> kspr_repro::kspr::ApproxImpact,
{
    let mut covered = 0;
    for trial in 0..trials {
        let est = estimate(0xC0FF_EE00u64.wrapping_add(trial.wrapping_mul(0x9E37)));
        assert!(est.half_width <= budget.epsilon + 1e-12);
        assert_eq!(est.samples, budget.samples());
        if truth >= est.lower() - 1e-9 && truth <= est.upper() + 1e-9 {
            covered += 1;
        }
    }
    covered
}

const TRIALS: u64 = 12;

/// Minimum covering trials: `ceil(confidence · TRIALS)` — "at least the
/// configured confidence" over the seeded trials.
fn required(budget: &ErrorBudget) -> usize {
    (budget.confidence * TRIALS as f64).ceil() as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn approx_interval_covers_the_exact_impact(
        raw in prop::collection::vec(record_strategy(3), 10..32),
        ops in prop::collection::vec(op_strategy(3), 2..8),
        focal in record_strategy(3),
        k in 1usize..6,
        shards in 2usize..4,
    ) {
        let budget = ErrorBudget::new(0.1, 0.9);
        let need = required(&budget);

        // --- static dataset -------------------------------------------------
        let mut engine = QueryEngine::new(&Dataset::new(raw.clone()), KsprConfig::default());
        let truth = exact_impact(&engine, &focal, k);
        let covered = coverage(
            |seed| ApproxEngine::from_engine(&engine, k).estimate(&focal, &budget, seed),
            truth,
            &budget,
            TRIALS,
        );
        prop_assert!(
            covered >= need,
            "static: {covered}/{TRIALS} trials covered the exact impact {truth} \
             (need >= {need} at {}% confidence)",
            100.0 * budget.confidence
        );

        // --- randomly updated dataset --------------------------------------
        // The same interleaving drives the plain engine and the sharded
        // serving engine; after every update the interval must keep covering
        // the *current* exact impact on both paths.
        let mut sharded =
            ShardedEngine::new(raw.clone(), KsprConfig::default().with_shards(shards));
        let mut mirror: Vec<Option<Vec<f64>>> = raw.into_iter().map(Some).collect();
        for (kind, values, pick) in ops {
            let live_ids: Vec<usize> = mirror
                .iter()
                .enumerate()
                .filter_map(|(id, v)| v.as_ref().map(|_| id))
                .collect();
            if kind % 2 == 0 || live_ids.len() <= 2 {
                engine.insert(values.clone());
                sharded.insert(values.clone());
                mirror.push(Some(values));
            } else {
                let id = live_ids[pick % live_ids.len()];
                prop_assert!(engine.delete(id));
                prop_assert!(sharded.delete(id));
                mirror[id] = None;
            }
        }
        let truth = exact_impact(&engine, &focal, k);
        let covered = coverage(
            |seed| ApproxEngine::from_engine(&engine, k).estimate(&focal, &budget, seed),
            truth,
            &budget,
            TRIALS,
        );
        prop_assert!(
            covered >= need,
            "updated: {covered}/{TRIALS} trials covered the exact impact {truth}"
        );
        let focals = vec![focal.clone()];
        let covered = coverage(
            |seed| {
                sharded
                    .run_approx_batch(&focals, k, &budget, seed)
                    .pop()
                    .expect("one estimate")
            },
            truth,
            &budget,
            TRIALS,
        );
        prop_assert!(
            covered >= need,
            "sharded: {covered}/{TRIALS} trials covered the exact impact {truth} \
             at {shards} shards"
        );
    }

    #[test]
    fn exact_tier_at_one_shard_is_a_bit_for_bit_passthrough(
        raw in prop::collection::vec(record_strategy(3), 8..24),
        focal in record_strategy(3),
        k in 1usize..5,
    ) {
        // The acceptance-criterion regression: a `QueryTier::Exact` request
        // through the serving dispatcher over `shards = 1` must execute
        // exactly what the plain engine executes — identical regions,
        // identical work counters.
        let plain = QueryEngine::new(&Dataset::new(raw.clone()), KsprConfig::default());
        let want = plain.run(Algorithm::LpCta, &focal, k);

        let server = Server::start(
            ShardedEngine::new(raw, KsprConfig::default()),
            ServeOptions::default(),
        );
        let answer = server
            .handle()
            .submit_tiered(Algorithm::LpCta, focal, k, QueryTier::Exact)
            .wait()
            .expect("a well-formed exact request is answered");
        let _ = server.shutdown();
        let got = match answer {
            TieredResult::Exact(result) => result,
            TieredResult::Approximate(_) => panic!("Exact tier must never sample"),
        };
        prop_assert_eq!(got.num_regions(), want.num_regions());
        prop_assert_eq!(got.stats.processed_records, want.stats.processed_records);
        prop_assert_eq!(got.stats.celltree_nodes, want.stats.celltree_nodes);
        prop_assert_eq!(got.rank_signature(), want.rank_signature());
        for w in naive::sample_weights(&want.space, 24, 11) {
            prop_assert_eq!(got.contains(&w), want.contains(&w), "at {:?}", &w);
        }
    }
}
