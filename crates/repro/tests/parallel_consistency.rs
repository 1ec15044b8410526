//! Intra-query parallelism correctness: work-stealing CellTree expansion is
//! specified to be **bit-for-bit identical** to sequential expansion — the
//! worker pool only reorders the read-only classify phase of each insertion,
//! while the apply phase replays the recorded decisions in the sequential
//! DFS order.  These tests drive that claim end to end: engines configured
//! with 1, 2 and 4 intra-query workers receive identical random datasets and
//! random insert/delete interleavings, and after every update every CTA and
//! P-CTA query must agree on region counts, rank signatures, the sampled
//! region geometry and the stats-visible work (everything outside the
//! timing block, whose `parallel_inserts` scheduling counter exists to
//! differ).
//!
//! LP-CTA is the deliberate exception: its look-ahead bound reports depend
//! on the expansion schedule, so the engine always routes it sequentially —
//! asserted below by its scheduling counter staying at zero even on an
//! engine granted 4 workers.

use kspr_repro::kspr::{naive, Algorithm, Dataset, KsprConfig, KsprResult, QueryEngine};
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

/// Bit-identity check: regions, ranks, sampled geometry and all stats (the
/// `phases` timing block, which holds the `parallel_inserts` scheduling
/// counter, always compares equal).
fn assert_bit_identical(got: &KsprResult, want: &KsprResult, ctx: &str) {
    assert_eq!(got.num_regions(), want.num_regions(), "regions: {ctx}");
    assert_eq!(got.rank_signature(), want.rank_signature(), "ranks: {ctx}");
    assert_eq!(got.stats, want.stats, "stats-visible work: {ctx}");
    for w in naive::sample_weights(&got.space, 24, 0xB17) {
        assert_eq!(got.contains(&w), want.contains(&w), "{ctx} at {w:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_expansion_is_bit_identical_under_updates(
        raw in prop::collection::vec(record_strategy(3), 8..24),
        ops in prop::collection::vec(op_strategy(3), 1..6),
        focal in record_strategy(3),
        k in 1usize..5,
    ) {
        // One engine per worker count; index 0 (1 worker) is the oracle.
        let mut engines: Vec<(usize, QueryEngine)> = [1usize, 2, 4]
            .iter()
            .map(|&workers| {
                (
                    workers,
                    QueryEngine::new(
                        &Dataset::new(raw.clone()),
                        KsprConfig::default().with_intra_query_threads(workers),
                    ),
                )
            })
            .collect();
        let mut live: Vec<usize> = (0..raw.len()).collect();
        let mut next_id = raw.len();

        let compare = |engines: &[(usize, QueryEngine)], focal: &[f64], ctx: &str| {
            for alg in [Algorithm::Cta, Algorithm::Pcta] {
                let want = engines[0].1.run(alg, focal, k);
                for (workers, engine) in &engines[1..] {
                    let got = engine.run(alg, focal, k);
                    assert_bit_identical(
                        &got,
                        &want,
                        &format!("{alg:?} k={k} workers={workers} {ctx}"),
                    );
                }
            }
        };

        compare(&engines, &focal, "before updates");
        for (step, (kind, values, pick)) in ops.into_iter().enumerate() {
            if kind % 2 == 0 || live.len() <= 2 {
                for (_, engine) in &mut engines {
                    let id = engine.insert(values.clone());
                    prop_assert_eq!(id, next_id, "id sequences must stay in lockstep");
                }
                live.push(next_id);
                next_id += 1;
            } else {
                let slot = pick % live.len();
                let id = live.swap_remove(slot);
                for (_, engine) in &mut engines {
                    prop_assert!(engine.delete(id));
                }
            }
            compare(&engines, &focal, &format!("after update {step}"));
        }
    }
}

/// LP-CTA's look-ahead bound reports are expansion-order-sensitive, so the
/// engine must route it sequentially no matter how many intra-query workers
/// the config grants — while a parallel-eligible policy on the *same engine*
/// does engage the pool (proving the grant itself was live).
#[test]
fn lp_cta_always_routes_sequentially() {
    let raw =
        kspr_repro::datagen::generate(kspr_repro::datagen::Distribution::Independent, 1_500, 4, 66);
    let k = 10;
    // A competitive focal record (a handful of dominators): its CellTree is
    // large enough to cross the engine's parallel-insertion threshold.
    let focal = raw
        .iter()
        .find(|r| {
            let dominators = raw
                .iter()
                .filter(|o| kspr_repro::spatial::dominates(o, r))
                .count();
            (1..=k / 2).contains(&dominators)
        })
        .expect("the workload contains a competitive record")
        .clone();
    let engine = QueryEngine::new(
        &Dataset::new(raw),
        KsprConfig::default().with_intra_query_threads(4),
    );

    let pcta = engine.run(Algorithm::Pcta, &focal, k);
    assert!(
        pcta.stats.phases.parallel_inserts > 0,
        "P-CTA on the 4-worker engine must engage the parallel insertion path"
    );
    let lpcta = engine.run(Algorithm::LpCta, &focal, k);
    assert_eq!(
        lpcta.stats.phases.parallel_inserts, 0,
        "LP-CTA must never take the parallel insertion path"
    );
}
