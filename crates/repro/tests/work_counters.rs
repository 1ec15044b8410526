//! Pins the deterministic work counters of the four CellTree algorithms.
//!
//! The consistency suites compare algorithms, batch and single runs, and
//! update paths with each other, so a refactor that changes the order of the
//! LP calls or of node allocation in *every* path at once passes them all.
//! This suite records the exact work of small seeded queries — CellTree
//! nodes, feasibility tests, witness hits, LP constraints and pivots, bound
//! LPs, the early-decision cell counts, the region count and the rank
//! signature — so any such change shows up as a counter diff.
//!
//! Every counter here is a pure function of the query (Bland's rule makes
//! the pivot count deterministic), and `run` and `run_batch` must both hit
//! the same constants.  When a change alters the work on purpose, the
//! failure message prints the full table to paste over `EXPECTED`.

use kspr_repro::datagen::{generate, Distribution};
use kspr_repro::kspr::{Algorithm, Dataset, KsprConfig, KsprResult, QueryEngine};
use std::fmt::Write as _;

/// One pinned outcome: dataset, configuration, algorithm, focal index, the
/// counters in [`counters`] order, and the rank signature.
type Row = (
    &'static str,
    &'static str,
    &'static str,
    usize,
    [usize; 10],
    &'static [usize],
);

/// `(label, dimensionality, records)` of the seeded IND datasets.  They are
/// small because the suite runs 128 finalized queries in the debug profile.
const DATASETS: [(&str, usize, usize); 2] = [("IND d3", 3, 80), ("IND d4", 4, 25)];
const SEED: u64 = 11;
const K: usize = 4;
/// Positions, in decreasing coordinate-sum order, of the focal records.
const FOCAL_RANKS: [usize; 2] = [1, 4];

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Cta,
    Algorithm::KSkyband,
    Algorithm::Pcta,
    Algorithm::LpCta,
];

fn configs() -> [(&'static str, KsprConfig); 4] {
    [
        ("default", KsprConfig::default()),
        (
            "no-lemma2",
            KsprConfig {
                use_lemma2: false,
                ..KsprConfig::default()
            },
        ),
        (
            "no-witness",
            KsprConfig {
                use_witness: false,
                ..KsprConfig::default()
            },
        ),
        ("original", KsprConfig::original_space()),
    ]
}

fn focals(raw: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let sums: Vec<f64> = raw.iter().map(|r| r.iter().sum()).collect();
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&a, &b| sums[b].total_cmp(&sums[a]).then(a.cmp(&b)));
    FOCAL_RANKS.iter().map(|&i| raw[order[i]].clone()).collect()
}

fn counters(result: &KsprResult) -> [usize; 10] {
    let s = &result.stats;
    [
        s.celltree_nodes,
        s.feasibility_tests,
        s.witness_hits,
        s.lp_constraints,
        s.lp_pivots,
        s.bound_lp_calls,
        s.cells_pruned_by_bounds,
        s.cells_reported_by_bounds,
        s.cells_reported_by_pivots,
        s.result_regions,
    ]
}

/// Renders one outcome in the `EXPECTED` row syntax.
fn render(
    out: &mut String,
    dataset: &str,
    config: &str,
    alg: Algorithm,
    focal: usize,
    r: &KsprResult,
) {
    let _ = writeln!(
        out,
        "    (\"{dataset}\", \"{config}\", \"{}\", {focal}, {:?}, &{:?}),",
        alg.label(),
        counters(r),
        r.rank_signature()
    );
}

#[test]
fn celltree_work_counters_match_the_recorded_constants() {
    let mut actual = String::new();
    let mut nontrivial = Vec::new();
    for (label, d, n) in DATASETS {
        let raw = generate(Distribution::Independent, n, d, SEED);
        let dataset = Dataset::new(raw.clone());
        let focals = focals(&raw);
        let mut has_nontrivial = false;
        for (config_label, config) in configs() {
            let engine = QueryEngine::new(&dataset, config);
            for alg in ALGORITHMS {
                let batch = engine.run_batch(alg, &focals, K);
                for (i, focal) in focals.iter().enumerate() {
                    let alone = engine.run(alg, focal, K);
                    assert_eq!(
                        (counters(&alone), alone.rank_signature()),
                        (counters(&batch[i]), batch[i].rank_signature()),
                        "{label} {config_label} {alg:?} focal {i}: run_batch differs from run"
                    );
                    has_nontrivial |= !alone.is_empty() && !alone.is_whole_space();
                    render(&mut actual, label, config_label, alg, i, &alone);
                }
            }
        }
        nontrivial.push(has_nontrivial);
    }
    assert!(
        nontrivial.iter().all(|&n| n),
        "every dataset needs a focal whose result is neither empty nor the whole space"
    );

    let mut expected = String::new();
    for &(dataset, config, alg, focal, c, ranks) in EXPECTED {
        let _ = writeln!(
            expected,
            "    (\"{dataset}\", \"{config}\", \"{alg}\", {focal}, {c:?}, &{ranks:?}),"
        );
    }
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            want, got,
            "row {line} differs (counters: nodes, feasibility tests, witness hits, \
             LP constraints, LP pivots, bound LPs, pruned by bounds, reported by bounds, \
             reported by pivots, regions); full table:\n{actual}"
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "row count differs; full table:\n{actual}"
    );
}

#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    ("IND d3", "default", "CTA", 0, [107, 306, 264, 1382, 1257, 0, 0, 0, 0, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "default", "CTA", 1, [53, 341, 321, 1772, 1182, 0, 0, 0, 0, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "default", "k-skyband", 0, [77, 268, 236, 1018, 1188, 0, 0, 0, 0, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "default", "k-skyband", 1, [33, 121, 111, 336, 450, 0, 0, 0, 0, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "default", "P-CTA", 0, [71, 244, 211, 923, 1121, 0, 0, 0, 25, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "default", "P-CTA", 1, [33, 109, 99, 312, 415, 0, 0, 0, 5, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "default", "LP-CTA", 0, [71, 244, 211, 923, 1121, 704, 0, 1, 24, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "default", "LP-CTA", 1, [33, 109, 99, 312, 415, 172, 0, 0, 5, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "no-lemma2", "CTA", 0, [107, 306, 264, 3005, 1604, 0, 0, 0, 0, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "no-lemma2", "CTA", 1, [53, 341, 321, 3143, 1257, 0, 0, 0, 0, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "no-lemma2", "k-skyband", 0, [77, 268, 236, 1961, 1671, 0, 0, 0, 0, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "no-lemma2", "k-skyband", 1, [33, 121, 111, 584, 454, 0, 0, 0, 0, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "no-lemma2", "P-CTA", 0, [71, 244, 211, 1667, 1616, 0, 0, 0, 25, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "no-lemma2", "P-CTA", 1, [33, 109, 99, 460, 425, 0, 0, 0, 5, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "no-lemma2", "LP-CTA", 0, [71, 244, 211, 1667, 1616, 704, 0, 1, 24, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "no-lemma2", "LP-CTA", 1, [33, 109, 99, 460, 425, 172, 0, 0, 5, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "no-witness", "CTA", 0, [107, 551, 0, 2411, 2208, 0, 0, 0, 0, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "no-witness", "CTA", 1, [53, 653, 0, 3323, 2317, 0, 0, 0, 0, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "no-witness", "k-skyband", 0, [77, 497, 0, 1848, 2105, 0, 0, 0, 0, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "no-witness", "k-skyband", 1, [33, 231, 0, 630, 864, 0, 0, 0, 0, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "no-witness", "P-CTA", 0, [71, 450, 0, 1661, 1966, 0, 0, 0, 25, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "no-witness", "P-CTA", 1, [33, 207, 0, 582, 789, 0, 0, 0, 5, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "no-witness", "LP-CTA", 0, [71, 450, 0, 1661, 1966, 704, 0, 1, 24, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "no-witness", "LP-CTA", 1, [33, 207, 0, 582, 789, 172, 0, 0, 5, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "original", "CTA", 0, [107, 307, 263, 1387, 2664, 0, 0, 0, 0, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "original", "CTA", 1, [53, 341, 321, 1772, 2991, 0, 0, 0, 0, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "original", "k-skyband", 0, [77, 268, 236, 1018, 2369, 0, 0, 0, 0, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "original", "k-skyband", 1, [33, 121, 111, 336, 894, 0, 0, 0, 0, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "original", "P-CTA", 0, [71, 244, 211, 922, 2190, 0, 0, 0, 25, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "original", "P-CTA", 1, [33, 109, 99, 312, 821, 0, 0, 0, 5, 5], &[3, 4, 4, 4, 4]),
    ("IND d3", "original", "LP-CTA", 0, [71, 202, 169, 745, 1779, 1196, 0, 25, 0, 25], &[1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d3", "original", "LP-CTA", 1, [33, 97, 87, 288, 738, 220, 0, 5, 0, 5], &[3, 4, 4, 4, 4]),
    ("IND d4", "default", "CTA", 0, [111, 231, 189, 1086, 1317, 0, 0, 0, 0, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "default", "CTA", 1, [111, 386, 348, 2358, 2451, 0, 0, 0, 0, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "default", "k-skyband", 0, [81, 215, 180, 962, 1425, 0, 0, 0, 0, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "default", "k-skyband", 1, [41, 137, 119, 466, 670, 0, 0, 0, 0, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "default", "P-CTA", 0, [83, 221, 182, 1048, 1516, 0, 0, 0, 29, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "default", "P-CTA", 1, [39, 137, 119, 464, 687, 0, 0, 0, 7, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "default", "LP-CTA", 0, [83, 221, 182, 1048, 1516, 1000, 0, 2, 27, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "default", "LP-CTA", 1, [39, 131, 113, 452, 663, 370, 0, 0, 7, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-lemma2", "CTA", 0, [111, 231, 189, 1643, 1404, 0, 0, 0, 0, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-lemma2", "CTA", 1, [111, 386, 348, 3110, 3084, 0, 0, 0, 0, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-lemma2", "k-skyband", 0, [81, 215, 180, 1265, 1446, 0, 0, 0, 0, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-lemma2", "k-skyband", 1, [41, 137, 119, 754, 993, 0, 0, 0, 0, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-lemma2", "P-CTA", 0, [83, 221, 182, 1174, 1516, 0, 0, 0, 29, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-lemma2", "P-CTA", 1, [39, 137, 119, 669, 933, 0, 0, 0, 7, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-lemma2", "LP-CTA", 0, [83, 221, 182, 1174, 1516, 1000, 0, 2, 27, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-lemma2", "LP-CTA", 1, [39, 131, 113, 655, 909, 370, 0, 0, 7, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-witness", "CTA", 0, [111, 410, 0, 1870, 2398, 0, 0, 0, 0, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-witness", "CTA", 1, [111, 717, 0, 4347, 4640, 0, 0, 0, 0, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-witness", "k-skyband", 0, [81, 395, 0, 1742, 2489, 0, 0, 0, 0, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-witness", "k-skyband", 1, [41, 253, 0, 844, 1283, 0, 0, 0, 0, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-witness", "P-CTA", 0, [83, 403, 0, 1880, 2671, 0, 0, 0, 29, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-witness", "P-CTA", 1, [39, 253, 0, 840, 1285, 0, 0, 0, 7, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-witness", "LP-CTA", 0, [83, 403, 0, 1880, 2671, 1000, 0, 2, 27, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "no-witness", "LP-CTA", 1, [39, 241, 0, 816, 1237, 370, 0, 0, 7, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "original", "CTA", 0, [111, 231, 189, 1086, 2861, 0, 0, 0, 0, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "original", "CTA", 1, [111, 390, 344, 2395, 4118, 0, 0, 0, 0, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "original", "k-skyband", 0, [81, 216, 179, 968, 2512, 0, 0, 0, 0, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "original", "k-skyband", 1, [41, 137, 119, 466, 1238, 0, 0, 0, 0, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "original", "P-CTA", 0, [83, 222, 181, 1056, 2635, 0, 0, 0, 29, 29], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "original", "P-CTA", 1, [39, 137, 119, 464, 1231, 0, 0, 0, 7, 7], &[3, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "original", "LP-CTA", 0, [81, 214, 173, 1011, 2555, 832, 0, 28, 0, 28], &[1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
    ("IND d4", "original", "LP-CTA", 1, [37, 98, 84, 327, 882, 272, 0, 6, 0, 6], &[3, 4, 4, 4, 4, 4]),
];
