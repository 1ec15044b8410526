//! iMaxRank: the incremental maximum-rank baseline (Figure 10(b)).
//!
//! The maximum-rank query of Mouratidis et al. (PVLDB 2015) partitions the
//! preference space with a Quad-tree, classifies every record-induced
//! halfspace against each Quad-tree leaf, and derives the arrangement cells
//! inside each leaf with *exact halfspace-intersection geometry*.  Run
//! incrementally up to rank `k`, it answers kSPR — but, as the paper shows,
//! three orders of magnitude slower than the CellTree methods because
//! (i) exact geometry is computed for every candidate cell and (ii) the
//! space-partitioning Quad-tree makes each hyperplane intersect many leaves.
//!
//! This module reproduces that baseline: a Quad-tree over the transformed
//! preference space, per-leaf classification of the hyperplanes, and
//! exhaustive per-leaf cell enumeration backed by the exact
//! [`Polytope`] vertex enumeration (the `qhull`
//! substitute).  It is intentionally expensive; the benchmark harness only
//! runs it on small instances, exactly as the paper does.

use crate::dataset::Dataset;
use crate::prep::{prepare, Prepared};
use crate::result::{KsprResult, Region};
use crate::stats::QueryStats;
use kspr_geometry::{Hyperplane, Polytope, PreferenceSpace, Sign};
use kspr_lp::{LinearConstraint, Relation};

/// Maximum number of cutting hyperplanes tolerated in a Quad-tree leaf before
/// it is subdivided further.
const LEAF_CUT_THRESHOLD: usize = 6;
/// Maximum Quad-tree depth.
const MAX_DEPTH: usize = 6;

/// Runs the iMaxRank baseline.
///
/// # Panics
/// Panics if `k == 0` or the focal arity mismatches the dataset.
pub fn run_imaxrank(dataset: &Dataset, focal: &[f64], k: usize) -> KsprResult {
    let space = PreferenceSpace::transformed(focal.len());
    let dim = space.work_dim();
    let mut stats = QueryStats::new();

    let filtered = match prepare(dataset, focal, k, &mut stats) {
        Prepared::Empty { .. } => return KsprResult::empty(space, stats),
        Prepared::WholeSpace { dominators } => {
            let mut r = KsprResult::whole_space(space, dominators + 1, stats);
            r.finalize();
            return r;
        }
        Prepared::Filtered(f) => f,
    };
    let k_eff = filtered.k_effective;

    let planes: Vec<Hyperplane> = filtered
        .records
        .iter()
        .map(|r| Hyperplane::separating(&r.values, focal, &space))
        .collect();
    stats.processed_records = planes.len();

    let mut regions: Vec<Region> = Vec::new();
    let root_box = QuadBox {
        lo: vec![0.0; dim],
        hi: vec![1.0; dim],
    };
    process_box(
        &root_box,
        0,
        &planes,
        &space,
        k_eff,
        filtered.dominators,
        &mut regions,
        &mut stats,
    );

    stats.result_regions = regions.len();
    let mut result = KsprResult {
        space,
        regions,
        stats,
    };
    result.finalize();
    result
}

/// An axis-aligned box of the Quad-tree.
struct QuadBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl QuadBox {
    /// Interval of `coeffs · w` over the box.
    fn linear_range(&self, coeffs: &[f64]) -> (f64, f64) {
        let mut lo = 0.0;
        let mut hi = 0.0;
        for (i, &c) in coeffs.iter().enumerate() {
            if c >= 0.0 {
                lo += c * self.lo[i];
                hi += c * self.hi[i];
            } else {
                lo += c * self.hi[i];
                hi += c * self.lo[i];
            }
        }
        (lo, hi)
    }

    /// True iff the box lies entirely outside the transformed simplex.
    fn outside_simplex(&self) -> bool {
        self.lo.iter().sum::<f64>() >= 1.0
    }

    /// The box constraints as closed linear constraints.
    fn constraints(&self, dim: usize) -> Vec<LinearConstraint> {
        let mut out = Vec::with_capacity(2 * dim);
        for i in 0..dim {
            let mut e = vec![0.0; dim];
            e[i] = 1.0;
            out.push(LinearConstraint::new(
                e.clone(),
                Relation::GreaterEq,
                self.lo[i],
            ));
            out.push(LinearConstraint::new(e, Relation::LessEq, self.hi[i]));
        }
        out
    }

    /// The box bounds as result-region halfspaces (so reported regions do not
    /// bleed outside their Quad-tree leaf).
    fn halfspaces(&self, dim: usize) -> Vec<(Hyperplane, Sign)> {
        let mut out = Vec::new();
        for i in 0..dim {
            let mut e = vec![0.0; dim];
            e[i] = 1.0;
            if self.lo[i] > 0.0 {
                out.push((
                    Hyperplane {
                        coeffs: e.clone(),
                        rhs: self.lo[i],
                    },
                    Sign::Positive,
                ));
            }
            if self.hi[i] < 1.0 {
                out.push((
                    Hyperplane {
                        coeffs: e.clone(),
                        rhs: self.hi[i],
                    },
                    Sign::Negative,
                ));
            }
        }
        out
    }

    /// Splits the box into its `2^dim` children.
    fn children(&self) -> Vec<QuadBox> {
        let dim = self.lo.len();
        let mid: Vec<f64> = self
            .lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (l + h) / 2.0)
            .collect();
        (0..(1usize << dim))
            .map(|mask| {
                let mut lo = self.lo.clone();
                let mut hi = self.hi.clone();
                for i in 0..dim {
                    if mask & (1 << i) != 0 {
                        lo[i] = mid[i];
                    } else {
                        hi[i] = mid[i];
                    }
                }
                QuadBox { lo, hi }
            })
            .collect()
    }
}

/// Classification of one hyperplane against a box.
enum BoxSide {
    /// The box lies entirely in the positive halfspace.
    Positive,
    /// The box lies entirely in the negative halfspace.
    Negative,
    /// The hyperplane cuts through the box.
    Cutting,
}

fn classify(plane: &Hyperplane, bx: &QuadBox) -> BoxSide {
    let (lo, hi) = bx.linear_range(&plane.coeffs);
    if lo > plane.rhs {
        BoxSide::Positive
    } else if hi < plane.rhs {
        BoxSide::Negative
    } else {
        BoxSide::Cutting
    }
}

#[allow(clippy::too_many_arguments)]
fn process_box(
    bx: &QuadBox,
    depth: usize,
    planes: &[Hyperplane],
    space: &PreferenceSpace,
    k: usize,
    dominators: usize,
    regions: &mut Vec<Region>,
    stats: &mut QueryStats,
) {
    if bx.outside_simplex() {
        return;
    }
    let mut cover_pos = 0usize;
    let mut cutting: Vec<usize> = Vec::new();
    for (i, plane) in planes.iter().enumerate() {
        match classify(plane, bx) {
            BoxSide::Positive => cover_pos += 1,
            BoxSide::Negative => {}
            BoxSide::Cutting => cutting.push(i),
        }
    }
    // Rank everywhere in the box is at least cover_pos + 1.
    if cover_pos + 1 > k {
        return;
    }
    if cutting.len() > LEAF_CUT_THRESHOLD && depth < MAX_DEPTH {
        for child in bx.children() {
            process_box(
                child_ref(&child),
                depth + 1,
                planes,
                space,
                k,
                dominators,
                regions,
                stats,
            );
        }
        return;
    }
    // Leaf: enumerate the arrangement cells of the cutting hyperplanes inside
    // the box with exact geometry (the expensive part of the baseline).
    let dim = space.work_dim();
    let mut base = bx.constraints(dim);
    base.push(LinearConstraint::new(vec![1.0; dim], Relation::LessEq, 1.0));
    enumerate_cells(
        bx,
        &base,
        planes,
        &cutting,
        0,
        cover_pos,
        &mut Vec::new(),
        space,
        k,
        dominators,
        regions,
        stats,
    );
}

fn child_ref(b: &QuadBox) -> &QuadBox {
    b
}

#[allow(clippy::too_many_arguments)]
fn enumerate_cells(
    bx: &QuadBox,
    base: &[LinearConstraint],
    planes: &[Hyperplane],
    cutting: &[usize],
    next: usize,
    positives: usize,
    chosen: &mut Vec<(usize, Sign)>,
    space: &PreferenceSpace,
    k: usize,
    dominators: usize,
    regions: &mut Vec<Region>,
    stats: &mut QueryStats,
) {
    if positives + 1 > k {
        return;
    }
    if next == cutting.len() {
        let rank = positives + 1;
        if rank <= k {
            let mut halves = bx.halfspaces(space.work_dim());
            halves.extend(
                chosen
                    .iter()
                    .map(|&(idx, sign)| (planes[idx].clone(), sign)),
            );
            regions.push(Region::new(rank + dominators, halves));
        }
        return;
    }
    let plane_idx = cutting[next];
    for sign in [Sign::Negative, Sign::Positive] {
        let mut constraints = base.to_vec();
        for &(idx, s) in chosen.iter() {
            constraints.push(planes[idx].constraint(s, false));
        }
        constraints.push(planes[plane_idx].constraint(sign, false));
        // Exact-geometry feasibility check: this is what makes the baseline
        // slow, exactly as in the original method.
        stats.feasibility_tests += 1;
        let poly = Polytope::from_constraints(&constraints, space.work_dim());
        let feasible = poly
            .map(|p| p.vertices().len() > space.work_dim())
            .unwrap_or(false);
        if feasible {
            chosen.push((plane_idx, sign));
            enumerate_cells(
                bx,
                base,
                planes,
                cutting,
                next + 1,
                positives + usize::from(sign == Sign::Positive),
                chosen,
                space,
                k,
                dominators,
                regions,
                stats,
            );
            chosen.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run, Algorithm};
    use crate::config::KsprConfig;
    use crate::naive;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> (Dataset, Vec<Vec<f64>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let raw: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        (Dataset::new(raw.clone()), raw)
    }

    #[test]
    fn imaxrank_matches_the_oracle_on_small_instances() {
        let (dataset, raw) = random_dataset(40, 3, 4);
        let focal = vec![0.7, 0.6, 0.65];
        for k in [1, 3] {
            let result = run_imaxrank(&dataset, &focal, k);
            let agreement = naive::classification_agreement(&result, &raw, &focal, k, 300, 5);
            assert!(agreement > 0.99, "k={k}: agreement {agreement}");
        }
    }

    #[test]
    fn imaxrank_and_lpcta_agree_on_membership() {
        let (dataset, _) = random_dataset(30, 3, 11);
        let focal = vec![0.6, 0.6, 0.6];
        let config = KsprConfig::default();
        let a = run_imaxrank(&dataset, &focal, 2);
        let b = run(Algorithm::LpCta, &dataset, &focal, 2, &config);
        let points = naive::sample_weights(&a.space, 200, 17);
        for w in points {
            assert_eq!(a.contains(&w), b.contains(&w), "w = {w:?}");
        }
    }

    #[test]
    fn quadbox_linear_range_and_split() {
        let bx = QuadBox {
            lo: vec![0.0, 0.0],
            hi: vec![1.0, 1.0],
        };
        let (lo, hi) = bx.linear_range(&[1.0, -1.0]);
        assert_eq!(lo, -1.0);
        assert_eq!(hi, 1.0);
        assert_eq!(bx.children().len(), 4);
        assert!(!bx.outside_simplex());
        let far = QuadBox {
            lo: vec![0.6, 0.6],
            hi: vec![1.0, 1.0],
        };
        assert!(far.outside_simplex());
    }
}
