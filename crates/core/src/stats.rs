//! Per-query statistics.
//!
//! The paper's evaluation reports, next to response time, several side
//! metrics: the number of processed records (hyperplanes inserted into the
//! CellTree, Figure 11a), the number of CellTree nodes (Figure 11b), LP-call
//! counts and constraint counts (Figure 17), and simulated I/O (Figure 19).
//! [`QueryStats`] collects all of them for a single kSPR query.

/// Timing metadata of one query: the engine's wall-clock time and the
/// wall-clock nanoseconds spent in each engine phase (Section-3.1 shared
/// preparation with the columnar dominance kernel broken out, CellTree
/// expansion, and the feasibility LPs inside it).
///
/// The phases **overlap** rather than partition: `dominance_ns` is part of
/// `prep_ns`, and `lp_ns` lies inside `expansion_ns` — they are span
/// windows, not a disjoint sum.
///
/// None of this is work: two runs of the same query never measure the same
/// nanoseconds.  So `Timing`'s `PartialEq` always answers `true`, and every
/// [`QueryStats`] comparison ignores the block while comparing every other
/// field.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Wall-clock time of the engine run, stamped by [`QueryEngine::run`]
    /// and its batch variants.
    ///
    /// [`QueryEngine::run`]: crate::QueryEngine::run
    pub wall_ns: u64,
    /// Section-3.1 shared preparation: dominance classification, skyband
    /// restriction, prep-cache work.
    pub prep_ns: u64,
    /// CellTree expansion: hyperplane insertion through result collection.
    pub expansion_ns: u64,
    /// The CellTree's cell feasibility LPs (§4.2).  The look-ahead bound
    /// LPs of LP-CTA (§6) are not timed here; they count toward
    /// `expansion_ns` only.
    pub lp_ns: u64,
    /// The columnar dominance kernel inside preparation.
    pub dominance_ns: u64,
}

impl Timing {
    /// Accumulates another timing block (field-wise sum).
    pub fn merge(&mut self, other: &Timing) {
        self.wall_ns += other.wall_ns;
        self.prep_ns += other.prep_ns;
        self.expansion_ns += other.expansion_ns;
        self.lp_ns += other.lp_ns;
        self.dominance_ns += other.dominance_ns;
    }

    /// `(name, nanos)` pairs of the four engine phases in a stable order,
    /// for histogram recording and reports.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("prep", self.prep_ns),
            ("expansion", self.expansion_ns),
            ("lp", self.lp_ns),
            ("dominance", self.dominance_ns),
        ]
        .into_iter()
    }
}

/// Timing metadata never participates in equality (see [`Timing`]).
impl PartialEq for Timing {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Counters collected while answering one kSPR query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Records whose hyperplane was inserted into the CellTree.
    pub processed_records: usize,
    /// Records removed by the dominance preprocessing of Section 3.1
    /// (dominators of the focal record).
    pub dominating_records: usize,
    /// Records removed because the focal record dominates them.
    pub dominated_records: usize,
    /// Total number of CellTree nodes created.
    pub celltree_nodes: usize,
    /// Number of LP feasibility tests executed.
    pub feasibility_tests: usize,
    /// Feasibility tests skipped thanks to the cached witness point (§4.3.2).
    pub witness_hits: usize,
    /// Total number of record-induced constraints passed to the LP solver
    /// across all feasibility tests (used for the Figure 17 ablation).
    pub lp_constraints: usize,
    /// Number of LP optimizations run for look-ahead score bounds (§6).
    pub bound_lp_calls: usize,
    /// Cells pruned early because their lower rank bound exceeded `k` (§6.1).
    pub cells_pruned_by_bounds: usize,
    /// Cells reported early because their upper rank bound was at most `k`.
    pub cells_reported_by_bounds: usize,
    /// Cells reported early by the pivot-based test of Lemma 5 (P-CTA).
    pub cells_reported_by_pivots: usize,
    /// Number of record batches processed (P-CTA / LP-CTA).
    pub batches: usize,
    /// Simulated page reads on the data R-tree.
    pub io_reads: u64,
    /// Simulated I/O time in milliseconds (0 unless an I/O model is set).
    pub io_time_ms: f64,
    /// Number of regions in the final result.
    pub result_regions: usize,
    /// Times a reused halfspace scratch buffer (path / full halfspace
    /// collection) had to grow its allocation.  Steady-state traversal keeps
    /// this at the warm-up value — the counter exists so tests can assert the
    /// hot path performs zero allocations.
    pub halfspace_scratch_grows: usize,
    /// Simplex pivots performed across every LP feasibility test of the
    /// query.  Bland's rule makes the count a pure function of each LP
    /// instance, so it is deterministic and schedule-independent.
    pub lp_pivots: usize,
    /// Wall-clock time and per-phase breakdown.  Always compares equal (see
    /// [`Timing`]).
    pub phases: Timing,
}

impl QueryStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average number of constraints per feasibility test.
    pub fn avg_constraints_per_test(&self) -> f64 {
        if self.feasibility_tests == 0 {
            0.0
        } else {
            self.lp_constraints as f64 / self.feasibility_tests as f64
        }
    }

    /// Merges another statistics block into this one (used when a harness
    /// aggregates several queries).
    pub fn merge(&mut self, other: &QueryStats) {
        self.processed_records += other.processed_records;
        self.dominating_records += other.dominating_records;
        self.dominated_records += other.dominated_records;
        self.celltree_nodes += other.celltree_nodes;
        self.feasibility_tests += other.feasibility_tests;
        self.witness_hits += other.witness_hits;
        self.lp_constraints += other.lp_constraints;
        self.bound_lp_calls += other.bound_lp_calls;
        self.cells_pruned_by_bounds += other.cells_pruned_by_bounds;
        self.cells_reported_by_bounds += other.cells_reported_by_bounds;
        self.cells_reported_by_pivots += other.cells_reported_by_pivots;
        self.batches += other.batches;
        self.io_reads += other.io_reads;
        self.io_time_ms += other.io_time_ms;
        self.result_regions += other.result_regions;
        self.halfspace_scratch_grows += other.halfspace_scratch_grows;
        self.lp_pivots += other.lp_pivots;
        self.phases.merge(&other.phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_constraints() {
        let mut s = QueryStats::new();
        assert_eq!(s.avg_constraints_per_test(), 0.0);
        s.feasibility_tests = 4;
        s.lp_constraints = 10;
        assert!((s.avg_constraints_per_test() - 2.5).abs() < 1e-12);
    }

    fn timing(seed: u64) -> Timing {
        Timing {
            wall_ns: seed,
            prep_ns: seed + 1,
            expansion_ns: seed + 2,
            lp_ns: seed + 3,
            dominance_ns: seed + 4,
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = QueryStats {
            processed_records: 3,
            io_reads: 5,
            lp_pivots: 4,
            phases: timing(10),
            ..Default::default()
        };
        let b = QueryStats {
            processed_records: 2,
            io_reads: 7,
            result_regions: 1,
            lp_pivots: 6,
            phases: timing(1000),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.processed_records, 5);
        assert_eq!(a.io_reads, 12);
        assert_eq!(a.result_regions, 1);
        assert_eq!(a.lp_pivots, 10);
        // Every timing field sums, not only the four phases.
        let t = a.phases;
        assert_eq!(t.wall_ns, 1010);
        assert_eq!(t.prep_ns, 1012);
        assert_eq!(t.expansion_ns, 1014);
        assert_eq!(t.lp_ns, 1016);
        assert_eq!(t.dominance_ns, 1018);
    }

    #[test]
    fn phase_timings_never_break_equality() {
        let base = QueryStats {
            processed_records: 1,
            ..Default::default()
        };
        let retimed = [
            Timing {
                wall_ns: 7,
                ..Default::default()
            },
            Timing {
                lp_ns: 11,
                ..Default::default()
            },
            timing(100),
        ];
        for phases in retimed {
            let other = QueryStats {
                phases,
                ..base.clone()
            };
            assert_eq!(other, base, "timing is excluded from comparison");
        }

        let changed = [
            QueryStats {
                lp_pivots: 3,
                ..base.clone()
            },
            QueryStats {
                halfspace_scratch_grows: 1,
                ..base.clone()
            },
            QueryStats {
                io_time_ms: 0.5,
                ..base.clone()
            },
        ];
        for other in changed {
            assert_ne!(other, base, "work counters are compared");
        }

        let names: Vec<&str> = base.phases.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["prep", "expansion", "lp", "dominance"]);
    }
}
