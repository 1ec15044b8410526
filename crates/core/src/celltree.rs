//! The CellTree (Section 4 of the paper).
//!
//! The CellTree incrementally maintains the arrangement of the hyperplanes
//! inserted so far.  It is a binary tree: the root corresponds to the whole
//! (transformed) preference space, and every inserted hyperplane either
//!
//! * covers a node entirely on one side — the corresponding halfspace is
//!   appended to the node's **cover set** (cases I / II of the insertion
//!   algorithm), or
//! * cuts through a leaf — the leaf is **split** into two children whose
//!   edges are labelled with the two halfspaces (case III).
//!
//! Nodes never store their exact geometry.  A node is implicitly the
//! intersection of the halfspaces labelling the edges on its root path, its
//! own cover set, and the cover sets of its ancestors; by Lemma 2 only the
//! *edge labels* can bound the node, so feasibility tests (LP, Section 4.2)
//! use the edge labels only, which is what makes them cheap.
//!
//! The rank of a node is one plus the number of positive halfspaces among its
//! edge labels and (own + ancestor) cover sets (Lemma 1).  Nodes whose rank
//! exceeds `k` are eliminated together with their subtrees.
//!
//! # Memory layout
//!
//! Nodes live in a slab arena with a **free list**: eliminating a node
//! recycles the slots (and cover storage) of its entire subtree, so
//! long-running traversals that eliminate aggressively stay compact instead
//! of growing monotonically.  Cover sets are **flattened** into one shared
//! arena of linked [`Halfspace`] entries instead of one `Vec` per node —
//! most nodes have empty or tiny cover sets, and the shared arena removes
//! the per-node allocation while preserving insertion order (the order
//! matters: it determines LP constraint order and hence the exact witness
//! points the simplex solver returns).
//!
//! # Insertion = classify + apply
//!
//! Inserting a hyperplane is split into two phases:
//!
//! 1. **Classify** (read-only): walk the affected subtrees from an explicit
//!    task stack and decide, for every visited node, which insertion case
//!    applies — running the LP feasibility tests, the witness shortcuts and
//!    the dominance shortcut.  Within a single insertion every node's
//!    decision depends only on the *pre-insertion* tree (cover pushes happen
//!    exactly where the walk terminates, never above a visited descendant),
//!    so the walk never observes its own edits.
//! 2. **Apply** (deterministic): replay the recorded decisions in the fixed
//!    depth-first order of the classic recursive insertion.  Node allocation
//!    order, live-leaf registration order, cover-set order, witness seeds
//!    and elimination bubbling therefore follow the recursive algorithm
//!    exactly, whatever order the classify stack visited the nodes in.

use crate::hyperplanes::HyperplaneStore;
use crate::stats::QueryStats;
use kspr_geometry::{ConstraintSystem, Halfspace, PreferenceSpace, Sign};
use kspr_lp::{interior_point_counted, LinearConstraint};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Sentinel for "no entry" in the cover arena's `u32` links.
const COVER_NONE: u32 = u32::MAX;

/// One node of the CellTree.
#[derive(Debug, Clone)]
pub struct CellNode {
    /// Parent node index (`None` for the root).
    pub parent: Option<usize>,
    /// Halfspace labelling the edge from the parent to this node.
    pub edge: Option<Halfspace>,
    /// Head of this node's cover chain in the tree's shared cover arena.
    cover_head: u32,
    /// Tail of the cover chain (for O(1) order-preserving appends).
    cover_tail: u32,
    /// Number of positive halfspaces in the cover chain (cached).
    pos_cover: usize,
    /// Children `(negative side, positive side)` if the node has been split.
    pub children: Option<(usize, usize)>,
    /// True once the node (and implicitly its subtree) has been pruned.
    pub eliminated: bool,
    /// True once the node has been reported as part of the kSPR result.
    pub reported: bool,
    /// True once LP-CTA has computed look-ahead rank bounds for this leaf.
    pub bounds_checked: bool,
    /// Cached interior witness point (Section 4.3.2).
    pub witness: Option<Vec<f64>>,
    /// Reuse generation of this arena slot; bumped when the slot is
    /// reclaimed, so stale references (e.g. live-leaf entries) can detect
    /// that the slot now holds a different node.
    generation: u32,
}

impl CellNode {
    fn new(parent: Option<usize>, edge: Option<Halfspace>) -> Self {
        Self {
            parent,
            edge,
            cover_head: COVER_NONE,
            cover_tail: COVER_NONE,
            pos_cover: 0,
            children: None,
            eliminated: false,
            reported: false,
            bounds_checked: false,
            witness: None,
            generation: 0,
        }
    }

    /// Number of positive halfspaces contributed by this node itself
    /// (its edge label plus its cover set).
    fn own_positives(&self) -> usize {
        let edge_pos = usize::from(matches!(
            self.edge,
            Some(Halfspace {
                sign: Sign::Positive,
                ..
            })
        ));
        edge_pos + self.pos_cover
    }

    /// True iff the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// One entry of the flattened cover-set storage: a halfspace plus the intra-
/// chain successor link.
#[derive(Debug, Clone)]
struct CoverEntry {
    half: Halfspace,
    next: u32,
}

/// The shared cover-set arena: every node's cover set is a linked chain of
/// entries in one flat vector, with freed chains recycled through an
/// intrusive free list.
#[derive(Debug, Clone)]
struct CoverArena {
    entries: Vec<CoverEntry>,
    free_head: u32,
}

impl Default for CoverArena {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            free_head: COVER_NONE,
        }
    }
}

impl CoverArena {
    /// Appends `half` to the chain `(head, tail)`, preserving insertion
    /// order, and returns the updated `(head, tail)`.
    fn push(&mut self, head: u32, tail: u32, half: Halfspace) -> (u32, u32) {
        let slot = if self.free_head != COVER_NONE {
            let slot = self.free_head;
            self.free_head = self.entries[slot as usize].next;
            self.entries[slot as usize] = CoverEntry {
                half,
                next: COVER_NONE,
            };
            slot
        } else {
            let slot = u32::try_from(self.entries.len()).expect("cover arena fits in u32");
            self.entries.push(CoverEntry {
                half,
                next: COVER_NONE,
            });
            slot
        };
        if tail == COVER_NONE {
            (slot, slot)
        } else {
            self.entries[tail as usize].next = slot;
            (head, slot)
        }
    }

    /// Splices an entire chain onto the free list (O(chain length)).
    fn free_chain(&mut self, head: u32) {
        if head == COVER_NONE {
            return;
        }
        let mut tail = head;
        while self.entries[tail as usize].next != COVER_NONE {
            tail = self.entries[tail as usize].next;
        }
        self.entries[tail as usize].next = self.free_head;
        self.free_head = head;
    }
}

/// The per-node decision recorded by the classification phase, replayed by
/// the apply phase.  One entry per visited node; nodes at which the walk did
/// not stop record [`NodeStep::Recurse`] and their children carry their own
/// entries.
#[derive(Debug, Clone)]
enum NodeStep {
    /// Both children were already closed on entry: close this node too.
    CloseEntry,
    /// The node's rank already exceeds `k`: eliminate it.
    EliminateRank,
    /// A processed dominator confines the node (Lemma 4/5): push the new
    /// plane's negative halfspace onto the cover set.
    CoverDominator,
    /// Case I: the node lies entirely inside h⁺.
    CoverPositive {
        /// The positive cover pushes the rank past `k`.
        eliminate: bool,
    },
    /// Case II: the node lies entirely inside h⁻.  `witness` carries the
    /// interior point found by the (feasible) case-1 test when the node had
    /// none cached.
    CoverNegative { witness: Option<Vec<f64>> },
    /// Case III on a leaf: split it.
    Split {
        witness: Option<Vec<f64>>,
        witness_neg: Option<Vec<f64>>,
        witness_pos: Option<Vec<f64>>,
        eliminate_pos: bool,
    },
    /// Case III on an internal node: descend into both children.
    Recurse { witness: Option<Vec<f64>> },
}

/// A unit of classification work: one node plus the path context the
/// feasibility tests need.  Forking at an internal node pushes the right
/// child onto the task stack and continues into the left child.
struct ClassifyTask {
    idx: usize,
    /// Positive halfspaces contributed by the ancestors of `idx`.
    acc_pos: usize,
    /// Strict constraints of the edge labels on the root path.
    path_strict: Vec<LinearConstraint>,
    /// Strict constraints of the ancestors' cover sets (only maintained when
    /// Lemma 2 is disabled).
    cover_strict: Vec<LinearConstraint>,
}

impl ClassifyTask {
    fn root(idx: usize) -> Self {
        Self {
            idx,
            acc_pos: 0,
            path_strict: Vec::new(),
            cover_strict: Vec::new(),
        }
    }
}

/// Classification output: recorded steps plus the statistics deltas the
/// classified work generated.  Steps are keyed by node index, so the apply
/// phase does not depend on the order they were recorded in.
#[derive(Debug, Default)]
struct ClassifyOut {
    steps: Vec<(usize, NodeStep)>,
    feasibility_tests: usize,
    lp_constraints: usize,
    witness_hits: usize,
    /// Wall time spent inside the LP solver (timing metadata, see
    /// [`crate::Timing`]).
    lp_ns: u64,
    /// Simplex pivots across the feasibility tests (deterministic work —
    /// participates in consistency comparisons).
    lp_pivots: usize,
}

/// Read-only view of everything the classification phase needs: the node
/// and cover arenas of the pre-insertion tree plus the incoming plane.
struct ClassifyCtx<'a> {
    nodes: &'a [CellNode],
    covers: &'a CoverArena,
    boundary: &'a [LinearConstraint],
    space: PreferenceSpace,
    k: usize,
    use_lemma2: bool,
    use_witness: bool,
    store: &'a HyperplaneStore,
    plane: usize,
    dominator_planes: &'a HashSet<usize>,
}

impl ClassifyCtx<'_> {
    /// True iff the node's edge label or cover set contains a negative
    /// halfspace contributed by a dominator of the incoming record.
    fn dominator_confines(&self, idx: usize) -> bool {
        if self.dominator_planes.is_empty() {
            return false;
        }
        let node = &self.nodes[idx];
        let is_dominator_negative =
            |h: &Halfspace| h.sign == Sign::Negative && self.dominator_planes.contains(&h.plane);
        if let Some(edge) = &node.edge {
            if is_dominator_negative(edge) {
                return true;
            }
        }
        let mut cur = node.cover_head;
        while cur != COVER_NONE {
            let entry = &self.covers.entries[cur as usize];
            if is_dominator_negative(&entry.half) {
                return true;
            }
            cur = entry.next;
        }
        false
    }

    /// Runs the LP feasibility test "is `node ∩ (side of plane)` empty?" and
    /// returns a strictly interior witness if it is not.  `lp_buf` is the
    /// tree's reused constraint-assembly scratch.
    ///
    /// Constraints: the space boundary, the edge labels on the node's root
    /// path (always), the cover sets on the path (only when Lemma 2 is
    /// disabled), and the tested halfspace.
    fn feasibility(
        &self,
        sign: Sign,
        task: &ClassifyTask,
        lp_buf: &mut Vec<LinearConstraint>,
        out: &mut ClassifyOut,
    ) -> Option<Vec<f64>> {
        lp_buf.clear();
        lp_buf.extend_from_slice(self.boundary);
        lp_buf.extend_from_slice(&task.path_strict);
        if !self.use_lemma2 {
            lp_buf.extend_from_slice(&task.cover_strict);
        }
        lp_buf.push(self.store.plane(self.plane).constraint(sign, true));
        out.feasibility_tests += 1;
        out.lp_constraints += task.path_strict.len()
            + if self.use_lemma2 {
                0
            } else {
                task.cover_strict.len()
            }
            + 1;
        let started = std::time::Instant::now();
        let (solution, pivots) = interior_point_counted(lp_buf, self.space.work_dim());
        out.lp_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out.lp_pivots += pivots;
        solution.map(|s| s.point)
    }
}

/// Classifies one task: descends the left spine of the affected subtree,
/// pushing right children onto `stack`.  Decisions are read-only with
/// respect to the tree; see the module docs for why that makes the visiting
/// order irrelevant to the outcome.
fn classify_task(
    ctx: &ClassifyCtx<'_>,
    mut task: ClassifyTask,
    out: &mut ClassifyOut,
    lp_buf: &mut Vec<LinearConstraint>,
    stack: &mut Vec<ClassifyTask>,
) {
    loop {
        let idx = task.idx;
        let node = &ctx.nodes[idx];
        if node.eliminated || node.reported {
            return;
        }
        // If both children are already closed, close this node as well
        // (Algorithm 1, line 12).
        if let Some((l, r)) = node.children {
            let closed = |n: &CellNode| n.eliminated || n.reported;
            if closed(&ctx.nodes[l]) && closed(&ctx.nodes[r]) {
                out.steps.push((idx, NodeStep::CloseEntry));
                return;
            }
        }

        let rank_here = task.acc_pos + node.own_positives() + 1;
        if rank_here > ctx.k {
            out.steps.push((idx, NodeStep::EliminateRank));
            return;
        }

        // Dominance shortcut (P-CTA): a processed dominator already confines
        // this node to its negative halfspace, so the new record's negative
        // halfspace covers the node as well.
        if ctx.dominator_confines(idx) {
            out.steps.push((idx, NodeStep::CoverDominator));
            return;
        }

        // Witness-based shortcuts (Section 4.3.2).
        let mut case1_possible = true; // N ∩ h⁻ = ∅ (node inside h⁺)
        let mut case2_possible = true; // N ∩ h⁺ = ∅ (node inside h⁻)
        if ctx.use_witness {
            if let Some(w) = &node.witness {
                match ctx.store.side(ctx.plane, w) {
                    Some(Sign::Negative) => {
                        case1_possible = false;
                        out.witness_hits += 1;
                    }
                    Some(Sign::Positive) => {
                        case2_possible = false;
                        out.witness_hits += 1;
                    }
                    None => {}
                }
            }
        }

        // Witness points discovered by the feasibility tests below; the
        // first one seeds the node's own cache (when empty), the side-
        // specific ones seed the children if the node ends up split.
        let had_witness = node.witness.is_some();
        let mut witness_self: Option<Vec<f64>> = None;
        let mut witness_negative: Option<Vec<f64>> = None;
        let mut witness_positive: Option<Vec<f64>> = None;

        if case1_possible {
            match ctx.feasibility(Sign::Negative, &task, lp_buf, out) {
                None => {
                    // Case I: the node lies entirely inside h⁺.
                    out.steps.push((
                        idx,
                        NodeStep::CoverPositive {
                            eliminate: rank_here + 1 > ctx.k,
                        },
                    ));
                    return;
                }
                Some(w) => {
                    if !had_witness {
                        witness_self = Some(w.clone());
                    }
                    witness_negative = Some(w);
                }
            }
        }
        if case2_possible {
            match ctx.feasibility(Sign::Positive, &task, lp_buf, out) {
                None => {
                    // Case II: the node lies entirely inside h⁻.
                    out.steps.push((
                        idx,
                        NodeStep::CoverNegative {
                            witness: witness_self,
                        },
                    ));
                    return;
                }
                Some(w) => {
                    if !had_witness && witness_self.is_none() {
                        witness_self = Some(w.clone());
                    }
                    witness_positive = Some(w);
                }
            }
        }

        // Case III: the hyperplane cuts through the node.
        if node.is_leaf() {
            out.steps.push((
                idx,
                NodeStep::Split {
                    witness: witness_self,
                    witness_neg: witness_negative,
                    witness_pos: witness_positive,
                    eliminate_pos: rank_here + 1 > ctx.k,
                },
            ));
            return;
        }

        out.steps.push((
            idx,
            NodeStep::Recurse {
                witness: witness_self,
            },
        ));
        let (l, r) = node.children.expect("internal node has children");
        let acc_here = task.acc_pos + node.own_positives();
        if !ctx.use_lemma2 {
            let mut cur = node.cover_head;
            while cur != COVER_NONE {
                let entry = &ctx.covers.entries[cur as usize];
                task.cover_strict
                    .push(ctx.store.constraint(entry.half, true));
                cur = entry.next;
            }
        }
        // Fork the right child as an independent task ...
        let r_edge = ctx.nodes[r].edge.expect("non-root node has an edge");
        let mut r_path = task.path_strict.clone();
        r_path.push(ctx.store.constraint(r_edge, true));
        stack.push(ClassifyTask {
            idx: r,
            acc_pos: acc_here,
            path_strict: r_path,
            cover_strict: task.cover_strict.clone(),
        });
        // ... and continue into the left child in place.
        let l_edge = ctx.nodes[l].edge.expect("non-root node has an edge");
        task.path_strict.push(ctx.store.constraint(l_edge, true));
        task.idx = l;
        task.acc_pos = acc_here;
    }
}

/// The incremental arrangement index of Section 4.
#[derive(Debug, Clone)]
pub struct CellTree {
    nodes: Vec<CellNode>,
    /// Reusable arena slots reclaimed from eliminated subtrees (LIFO).
    free: Vec<usize>,
    /// Flattened cover-set storage shared by all nodes.
    covers: CoverArena,
    /// Total nodes ever created (slot reuse does not decrease this; it is
    /// the work metric the paper's Figure 11b reports).
    created: usize,
    root: usize,
    space: PreferenceSpace,
    boundary: Vec<LinearConstraint>,
    k: usize,
    use_lemma2: bool,
    use_witness: bool,
    /// Live-leaf index: candidate `(slot, generation)` pairs for
    /// [`CellTree::promising_leaves`].
    ///
    /// Every leaf enters exactly once (at creation); entries whose node has
    /// since been split, reported, eliminated, buried under an eliminated
    /// ancestor or whose slot was reclaimed (generation mismatch) are lazily
    /// dropped on the next `promising_leaves` call.  This keeps the
    /// per-round cost proportional to the number of *candidate* leaves
    /// instead of the O(total nodes) arena scan it replaces.  Interior
    /// mutability (`RefCell`) lets the read path self-compact; the index is
    /// never touched by the classification phase.
    live_leaves: RefCell<Vec<(usize, u32)>>,
    /// Reused decision-map scratch for the apply phase.
    steps: HashMap<usize, NodeStep>,
    /// Reused LP-assembly scratch for insertion.
    lp_scratch: Vec<LinearConstraint>,
}

impl CellTree {
    /// Creates a CellTree over `space` for a query with effective rank
    /// threshold `k`.
    pub fn new(space: PreferenceSpace, k: usize, use_lemma2: bool, use_witness: bool) -> Self {
        let boundary = space.boundary_constraints();
        Self {
            nodes: vec![CellNode::new(None, None)],
            free: Vec::new(),
            covers: CoverArena::default(),
            created: 1,
            root: 0,
            space,
            boundary,
            k,
            use_lemma2,
            use_witness,
            live_leaves: RefCell::new(vec![(0, 0)]),
            steps: HashMap::new(),
            lp_scratch: Vec::new(),
        }
    }

    /// The rank threshold the tree prunes against.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The preference space the tree partitions.
    pub fn space(&self) -> &PreferenceSpace {
        &self.space
    }

    /// Index of the root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of arena slots (live nodes plus reclaimed-but-unreused slots).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of nodes created over the tree's lifetime.  With slot
    /// reuse this can exceed [`CellTree::num_nodes`]; it is the work metric
    /// reported as `celltree_nodes` in [`QueryStats`].
    pub fn nodes_created(&self) -> usize {
        self.created
    }

    /// Number of reclaimed arena slots currently awaiting reuse.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Immutable access to a node.
    pub fn node(&self, idx: usize) -> &CellNode {
        &self.nodes[idx]
    }

    /// The cover set of a node, in insertion order.
    pub fn cover_halfspaces(&self, idx: usize) -> Vec<Halfspace> {
        let mut out = Vec::new();
        let mut cur = self.nodes[idx].cover_head;
        while cur != COVER_NONE {
            let entry = &self.covers.entries[cur as usize];
            out.push(entry.half);
            cur = entry.next;
        }
        out
    }

    /// True once the root has been eliminated (the whole preference space is
    /// pruned, so the kSPR result is empty).
    pub fn is_exhausted(&self) -> bool {
        self.nodes[self.root].eliminated
    }

    /// Rank of a node: 1 + positive halfspaces on its root path (edge labels
    /// and cover sets of the node and all ancestors) — Lemma 1.
    pub fn rank(&self, idx: usize) -> usize {
        let mut positives = 0;
        let mut cur = Some(idx);
        while let Some(i) = cur {
            positives += self.nodes[i].own_positives();
            cur = self.nodes[i].parent;
        }
        positives + 1
    }

    /// Marks a leaf as reported (part of the kSPR result); it is ignored by
    /// all subsequent operations.
    pub fn report(&mut self, idx: usize) {
        self.nodes[idx].reported = true;
    }

    /// Eliminates a node (and implicitly its subtree, whose arena slots are
    /// reclaimed for reuse).
    pub fn eliminate(&mut self, idx: usize) {
        self.close_node(idx);
        self.propagate_elimination(idx);
    }

    /// Marks a leaf as having had its look-ahead bounds computed.
    pub fn mark_bounds_checked(&mut self, idx: usize) {
        self.nodes[idx].bounds_checked = true;
    }

    /// Marks a node eliminated and reclaims the arena slots (and cover
    /// chains) of its strict descendants.  Reclaiming only *descendants*
    /// keeps the node itself valid as its parent's closed-child marker.
    fn close_node(&mut self, idx: usize) {
        self.nodes[idx].eliminated = true;
        let Some((l, r)) = self.nodes[idx].children.take() else {
            return;
        };
        let mut stack = vec![l, r];
        while let Some(i) = stack.pop() {
            if let Some((a, b)) = self.nodes[i].children.take() {
                stack.push(a);
                stack.push(b);
            }
            let head = self.nodes[i].cover_head;
            self.covers.free_chain(head);
            let node = &mut self.nodes[i];
            node.parent = None;
            node.edge = None;
            node.cover_head = COVER_NONE;
            node.cover_tail = COVER_NONE;
            node.pos_cover = 0;
            // A reclaimed slot reads as dead in any (stale) scan.
            node.eliminated = true;
            node.reported = false;
            node.bounds_checked = false;
            node.witness = None;
            node.generation = node.generation.wrapping_add(1);
            self.free.push(i);
        }
    }

    /// Allocates a node, reusing a reclaimed slot when one is available.
    fn alloc_node(&mut self, parent: usize, edge: Halfspace, witness: Option<Vec<f64>>) -> usize {
        self.created += 1;
        let mut fresh = CellNode::new(Some(parent), Some(edge));
        fresh.witness = witness;
        match self.free.pop() {
            Some(slot) => {
                fresh.generation = self.nodes[slot].generation;
                self.nodes[slot] = fresh;
                slot
            }
            None => {
                self.nodes.push(fresh);
                self.nodes.len() - 1
            }
        }
    }

    /// Appends `half` to the cover set of `idx`.
    fn push_cover(&mut self, idx: usize, half: Halfspace) {
        let node = &self.nodes[idx];
        let (head, tail) = self.covers.push(node.cover_head, node.cover_tail, half);
        let node = &mut self.nodes[idx];
        node.cover_head = head;
        node.cover_tail = tail;
        if half.sign == Sign::Positive {
            node.pos_cover += 1;
        }
    }

    /// When both children of a parent are eliminated (or reported) the parent
    /// itself can be eliminated, which propagates further up.
    fn propagate_elimination(&mut self, idx: usize) {
        let mut cur = self.nodes[idx].parent;
        while let Some(p) = cur {
            let (l, r) = match self.nodes[p].children {
                Some(c) => c,
                None => break,
            };
            let closed = |n: &CellNode| n.eliminated || n.reported;
            if closed(&self.nodes[l]) && closed(&self.nodes[r]) && !self.nodes[p].eliminated {
                self.close_node(p);
                cur = self.nodes[p].parent;
            } else {
                break;
            }
        }
    }

    /// The halfspaces labelling the edges on the root path of `idx`
    /// (the only halfspaces that can bound the node — Lemma 2), collected
    /// into a reused buffer.  Returns `true` iff the buffer had to grow —
    /// steady-state traversal reuses warm buffers and performs zero
    /// allocations here (asserted by tests through
    /// [`QueryStats::halfspace_scratch_grows`]).
    pub fn path_halfspaces_into(&self, idx: usize, out: &mut Vec<Halfspace>) -> bool {
        let capacity = out.capacity();
        out.clear();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            if let Some(edge) = self.nodes[i].edge {
                out.push(edge);
            }
            cur = self.nodes[i].parent;
        }
        out.reverse();
        out.capacity() != capacity
    }

    /// The full halfspace set of a node — edge labels plus the cover sets of
    /// the node and all its ancestors — collected into a reused buffer.
    /// Every hyperplane inserted while the node was live appears exactly
    /// once in this set.  Returns `true` iff the buffer had to grow.
    pub fn full_halfspaces_into(&self, idx: usize, out: &mut Vec<Halfspace>) -> bool {
        let capacity = out.capacity();
        out.clear();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            if let Some(edge) = self.nodes[i].edge {
                out.push(edge);
            }
            let mut entry = self.nodes[i].cover_head;
            while entry != COVER_NONE {
                let e = &self.covers.entries[entry as usize];
                out.push(e.half);
                entry = e.next;
            }
            cur = self.nodes[i].parent;
        }
        out.capacity() != capacity
    }

    /// Allocating convenience wrapper around
    /// [`CellTree::full_halfspaces_into`].
    pub fn full_halfspaces(&self, idx: usize) -> Vec<Halfspace> {
        let mut out = Vec::new();
        self.full_halfspaces_into(idx, &mut out);
        out
    }

    /// All live, not-yet-reported leaves whose rank does not exceed `k`
    /// ("promising cells" in the paper's terminology).
    ///
    /// Served from the live-leaf index: instead of scanning the whole node
    /// arena, only current candidates are examined, and candidates that died
    /// since the last call (split, reported, eliminated, under an eliminated
    /// ancestor, or recycled into a different node) are permanently dropped
    /// along the way.
    pub fn promising_leaves(&self) -> Vec<usize> {
        let mut candidates = self.live_leaves.borrow_mut();
        candidates.retain(|&(i, generation)| {
            let n = &self.nodes[i];
            n.generation == generation
                && n.is_leaf()
                && !n.eliminated
                && !n.reported
                && !self.ancestor_closed(i)
        });
        // Rank filtering is *not* a drop criterion: it is re-evaluated per
        // call (rank only ever grows, but such leaves are eliminated by the
        // next insertion touching them, so keeping them here is cheap).
        candidates
            .iter()
            .map(|&(i, _)| i)
            .filter(|&i| self.rank(i) <= self.k)
            .collect()
    }

    /// True if any ancestor of `idx` is eliminated (the node is then dead even
    /// if its own flag was never set).
    fn ancestor_closed(&self, idx: usize) -> bool {
        let mut cur = self.nodes[idx].parent;
        while let Some(i) = cur {
            if self.nodes[i].eliminated {
                return true;
            }
            cur = self.nodes[i].parent;
        }
        false
    }

    /// The cached witness point of a node, if any.
    pub fn witness(&self, idx: usize) -> Option<&[f64]> {
        self.nodes[idx].witness.as_deref()
    }

    /// A constraint system describing the cell of node `idx`: the space
    /// boundary plus the bounding (edge-label) halfspaces.
    pub fn cell_system(&self, idx: usize, store: &HyperplaneStore) -> ConstraintSystem {
        let mut buf = Vec::new();
        self.cell_system_with(idx, store, &mut buf).0
    }

    /// Like [`CellTree::cell_system`], but collecting the path halfspaces
    /// into the reused buffer `buf`.  The second component reports whether
    /// the buffer had to grow.
    pub fn cell_system_with(
        &self,
        idx: usize,
        store: &HyperplaneStore,
        buf: &mut Vec<Halfspace>,
    ) -> (ConstraintSystem, bool) {
        let grew = self.path_halfspaces_into(idx, buf);
        let mut sys = ConstraintSystem::new(self.space);
        for h in buf.iter() {
            sys.push_halfspace(store.plane(h.plane), h.sign);
        }
        (sys, grew)
    }

    /// The read-only classification view over the current tree.
    fn classify_ctx<'a>(
        &'a self,
        store: &'a HyperplaneStore,
        plane: usize,
        dominator_planes: &'a HashSet<usize>,
    ) -> ClassifyCtx<'a> {
        ClassifyCtx {
            nodes: &self.nodes,
            covers: &self.covers,
            boundary: &self.boundary,
            space: self.space,
            k: self.k,
            use_lemma2: self.use_lemma2,
            use_witness: self.use_witness,
            store,
            plane,
            dominator_planes,
        }
    }

    /// Inserts hyperplane `plane` (an index into `store`) into the tree.
    ///
    /// `dominator_planes` contains the indices of already-inserted hyperplanes
    /// whose source records dominate the record of `plane`; when any of them
    /// contributes a *negative* halfspace to a node, the new hyperplane's
    /// negative halfspace is guaranteed to cover that node too (the P-CTA
    /// optimization backed by Lemma 4/5).  Pass an empty set to disable the
    /// optimization (plain CTA).
    pub fn insert(
        &mut self,
        store: &HyperplaneStore,
        plane: usize,
        dominator_planes: &HashSet<usize>,
        stats: &mut QueryStats,
    ) {
        let mut lp_buf = std::mem::take(&mut self.lp_scratch);
        let mut out = ClassifyOut::default();
        {
            let ctx = self.classify_ctx(store, plane, dominator_planes);
            let mut stack = vec![ClassifyTask::root(self.root)];
            while let Some(task) = stack.pop() {
                classify_task(&ctx, task, &mut out, &mut lp_buf, &mut stack);
            }
        }
        self.lp_scratch = lp_buf;
        self.finish_insert(plane, out, stats);
    }

    /// Merges classification statistics and replays the recorded decisions
    /// in the canonical depth-first order (the apply phase).
    fn finish_insert(&mut self, plane: usize, mut out: ClassifyOut, stats: &mut QueryStats) {
        stats.feasibility_tests += out.feasibility_tests;
        stats.lp_constraints += out.lp_constraints;
        stats.witness_hits += out.witness_hits;
        stats.phases.lp_ns += out.lp_ns;
        stats.lp_pivots += out.lp_pivots;
        let mut steps = std::mem::take(&mut self.steps);
        steps.clear();
        steps.extend(out.steps.drain(..));
        self.apply_step(self.root, plane, &mut steps);
        debug_assert!(steps.is_empty(), "every recorded decision was applied");
        self.steps = steps;
        stats.celltree_nodes = self.created;
    }

    /// Applies the recorded decision at `idx` (recursing through
    /// [`NodeStep::Recurse`] nodes).  Steps are *removed* as they are
    /// applied, which guarantees a slot recycled later in the same apply
    /// pass can never alias a stale decision.
    fn apply_step(&mut self, idx: usize, plane: usize, steps: &mut HashMap<usize, NodeStep>) {
        let Some(step) = steps.remove(&idx) else {
            // The classification walk returned at this node without
            // recording anything (eliminated / reported on entry).
            return;
        };
        match step {
            NodeStep::CloseEntry | NodeStep::EliminateRank => self.close_node(idx),
            NodeStep::CoverDominator => self.push_cover(idx, Halfspace::negative(plane)),
            NodeStep::CoverPositive { eliminate } => {
                self.push_cover(idx, Halfspace::positive(plane));
                if eliminate {
                    self.close_node(idx);
                }
            }
            NodeStep::CoverNegative { witness } => {
                if let Some(w) = witness {
                    self.nodes[idx].witness = Some(w);
                }
                self.push_cover(idx, Halfspace::negative(plane));
            }
            NodeStep::Split {
                witness,
                witness_neg,
                witness_pos,
                eliminate_pos,
            } => {
                if let Some(w) = witness {
                    self.nodes[idx].witness = Some(w);
                }
                let neg_child = self.alloc_node(idx, Halfspace::negative(plane), witness_neg);
                let pos_child = self.alloc_node(idx, Halfspace::positive(plane), witness_pos);
                self.nodes[idx].children = Some((neg_child, pos_child));
                // Register the new leaves with the live-leaf index (the split
                // parent is lazily dropped on the next `promising_leaves`
                // call).
                let neg_generation = self.nodes[neg_child].generation;
                let pos_generation = self.nodes[pos_child].generation;
                self.live_leaves
                    .borrow_mut()
                    .extend([(neg_child, neg_generation), (pos_child, pos_generation)]);
                // The positive child's rank is one higher; prune it
                // immediately if it already exceeds k.
                if eliminate_pos {
                    self.nodes[pos_child].eliminated = true;
                }
            }
            NodeStep::Recurse { witness } => {
                if let Some(w) = witness {
                    self.nodes[idx].witness = Some(w);
                }
                let (l, r) = self.nodes[idx]
                    .children
                    .expect("recurse step targets an internal node");
                self.apply_step(l, plane, steps);
                self.apply_step(r, plane, steps);
                // Bubble elimination up if both children got closed.
                let closed = |n: &CellNode| n.eliminated || n.reported;
                if closed(&self.nodes[l]) && closed(&self.nodes[r]) {
                    self.close_node(idx);
                }
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use kspr_geometry::PreferenceSpace;

    /// Builds the running example of Figures 1–4 of the paper: restaurants
    /// with (value, service, ambiance), focal record Kyma.
    fn demo() -> (HyperplaneStore, Vec<Vec<f64>>) {
        let space = PreferenceSpace::transformed(3);
        let focal = vec![5.0, 5.0, 7.0];
        let records = vec![
            vec![3.0, 8.0, 8.0], // r1 L'Entrecôte
            vec![9.0, 4.0, 4.0], // r2 Beirut Grill
            vec![8.0, 3.0, 4.0], // r3 El Coyote
            vec![4.0, 3.0, 6.0], // r4 La Braceria
        ];
        (HyperplaneStore::new(space, focal), records)
    }

    fn insert_all(k: usize) -> (CellTree, HyperplaneStore, Vec<Vec<f64>>, QueryStats) {
        let (mut store, records) = demo();
        let mut tree = CellTree::new(*store.space(), k, true, true);
        let mut stats = QueryStats::new();
        let empty = HashSet::new();
        for (i, r) in records.iter().enumerate() {
            let plane = store.add(i, r);
            tree.insert(&store, plane, &empty, &mut stats);
        }
        (tree, store, records, stats)
    }

    /// Oracle: rank of the focal record at working-space point `w`.
    fn rank_at(records: &[Vec<f64>], focal: &[f64], space: &PreferenceSpace, w: &[f64]) -> usize {
        let full = space.to_full_weight(w);
        let score = |r: &[f64]| -> f64 { r.iter().zip(&full).map(|(v, wi)| v * wi).sum() };
        let sp = score(focal);
        1 + records.iter().filter(|r| score(r) > sp).count()
    }

    #[test]
    fn root_starts_live_and_unsplit() {
        let space = PreferenceSpace::transformed(3);
        let tree = CellTree::new(space, 3, true, true);
        assert_eq!(tree.num_nodes(), 1);
        assert!(!tree.is_exhausted());
        assert_eq!(tree.rank(tree.root()), 1);
        assert_eq!(tree.promising_leaves(), vec![0]);
    }

    #[test]
    fn promising_leaves_have_correct_ranks() {
        let k = 3;
        let (tree, store, records, _) = insert_all(k);
        let focal = store.focal().to_vec();
        let space = *store.space();
        for leaf in tree.promising_leaves() {
            let leaf_rank = tree.rank(leaf);
            assert!(leaf_rank <= k);
            // The CellTree rank must equal the oracle rank at the witness (or
            // any interior point) of the leaf.
            let sys = tree.cell_system(leaf, &store);
            let w = sys
                .interior_point()
                .expect("promising leaf is non-empty")
                .point;
            assert_eq!(
                leaf_rank,
                rank_at(&records, &focal, &space, &w),
                "leaf {leaf}"
            );
        }
    }

    #[test]
    fn every_feasible_point_is_classified_consistently() {
        // Sample a grid of points; the union of promising leaves (rank <= k)
        // must contain exactly the points whose oracle rank is <= k.
        let k = 3;
        let (tree, store, records, _) = insert_all(k);
        let focal = store.focal().to_vec();
        let space = *store.space();
        let leaves = tree.promising_leaves();
        for a in 1..20 {
            for b in 1..(20 - a) {
                let w = vec![a as f64 / 20.0, b as f64 / 20.0];
                // Skip points (numerically) on a hyperplane: they belong to no
                // open cell and the oracle's strict comparison is ambiguous.
                let on_plane =
                    (0..store.len()).any(|i| store.plane(i).signed_distance(&w).abs() < 1e-6);
                if on_plane {
                    continue;
                }
                let oracle_in = rank_at(&records, &focal, &space, &w) <= k;
                let in_some_leaf = leaves
                    .iter()
                    .any(|&leaf| tree.cell_system(leaf, &store).contains(&w, 1e-9));
                assert_eq!(oracle_in, in_some_leaf, "w = {w:?}");
            }
        }
    }

    #[test]
    fn rank_one_pruning_eliminates_everything() {
        // With k = 1 and records that each beat the focal somewhere, large
        // parts of the tree get eliminated; the surviving leaves must still
        // be exactly the rank-1 cells.
        let (tree, store, records, _) = {
            let (mut store, records) = demo();
            let mut tree = CellTree::new(*store.space(), 1, true, true);
            let mut stats = QueryStats::new();
            let empty = HashSet::new();
            for (i, r) in records.iter().enumerate() {
                let plane = store.add(i, r);
                tree.insert(&store, plane, &empty, &mut stats);
            }
            (tree, store, records, stats)
        };
        let focal = store.focal().to_vec();
        let space = *store.space();
        for leaf in tree.promising_leaves() {
            let sys = tree.cell_system(leaf, &store);
            let w = sys.interior_point().unwrap().point;
            assert_eq!(rank_at(&records, &focal, &space, &w), 1);
        }
    }

    #[test]
    fn lemma2_and_witness_toggles_do_not_change_the_result() {
        let configs = [(true, true), (true, false), (false, true), (false, false)];
        let mut signatures = Vec::new();
        for (lemma2, witness) in configs {
            let (mut store, records) = demo();
            let mut tree = CellTree::new(*store.space(), 3, lemma2, witness);
            let mut stats = QueryStats::new();
            let empty = HashSet::new();
            for (i, r) in records.iter().enumerate() {
                let plane = store.add(i, r);
                tree.insert(&store, plane, &empty, &mut stats);
            }
            // Signature: sorted ranks of promising leaves plus classification
            // of a probe grid.
            let mut ranks: Vec<usize> = tree
                .promising_leaves()
                .iter()
                .map(|&l| tree.rank(l))
                .collect();
            ranks.sort_unstable();
            let mut grid = Vec::new();
            for a in 1..10 {
                for b in 1..(10 - a) {
                    let w = vec![a as f64 / 10.0, b as f64 / 10.0];
                    grid.push(
                        tree.promising_leaves()
                            .iter()
                            .any(|&l| tree.cell_system(l, &store).contains(&w, 1e-9)),
                    );
                }
            }
            signatures.push((ranks, grid));
        }
        assert!(signatures.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn witness_reuse_skips_feasibility_tests() {
        let (_, _, _, stats_with) = insert_all(3);
        let (mut store, records) = demo();
        let mut tree = CellTree::new(*store.space(), 3, true, false);
        let mut stats_without = QueryStats::new();
        let empty = HashSet::new();
        for (i, r) in records.iter().enumerate() {
            let plane = store.add(i, r);
            tree.insert(&store, plane, &empty, &mut stats_without);
        }
        assert!(stats_with.witness_hits > 0);
        assert_eq!(stats_without.witness_hits, 0);
        assert!(stats_with.feasibility_tests <= stats_without.feasibility_tests);
    }

    #[test]
    fn report_and_eliminate_propagate() {
        let (mut tree, ..) = insert_all(3);
        let leaves = tree.promising_leaves();
        assert!(!leaves.is_empty());
        for &leaf in &leaves {
            tree.report(leaf);
        }
        assert!(tree.promising_leaves().is_empty());
    }

    #[test]
    fn live_leaf_index_matches_full_arena_scan() {
        // Oracle: the O(nodes) scan the index replaced.
        fn scan(tree: &CellTree) -> Vec<usize> {
            (0..tree.num_nodes())
                .filter(|&i| {
                    let n = tree.node(i);
                    n.is_leaf() && !n.eliminated && !n.reported && {
                        let mut cur = n.parent;
                        let mut open = true;
                        while let Some(p) = cur {
                            if tree.node(p).eliminated {
                                open = false;
                                break;
                            }
                            cur = tree.node(p).parent;
                        }
                        open
                    }
                })
                .filter(|&i| tree.rank(i) <= tree.k())
                .collect()
        }

        for k in 1..=4 {
            let (mut store, records) = demo();
            let mut tree = CellTree::new(*store.space(), k, true, true);
            let mut stats = QueryStats::new();
            let empty = HashSet::new();
            for (i, r) in records.iter().enumerate() {
                let plane = store.add(i, r);
                tree.insert(&store, plane, &empty, &mut stats);
                assert_eq!(tree.promising_leaves(), scan(&tree), "k={k} after {i}");
            }
            // Reporting and eliminating keep the index in sync too.
            let leaves = tree.promising_leaves();
            if let Some((&first, rest)) = leaves.split_first() {
                tree.report(first);
                if let Some(&second) = rest.first() {
                    tree.eliminate(second);
                }
                assert_eq!(tree.promising_leaves(), scan(&tree), "k={k} after close");
            }
        }
    }

    #[test]
    fn full_halfspaces_cover_every_inserted_plane() {
        let (tree, ..) = insert_all(3);
        for leaf in tree.promising_leaves() {
            let full = tree.full_halfspaces(leaf);
            let mut planes: Vec<usize> = full.iter().map(|h| h.plane).collect();
            planes.sort_unstable();
            planes.dedup();
            assert_eq!(planes, vec![0, 1, 2, 3], "leaf {leaf} misses a plane");
        }
    }

    #[test]
    fn eliminated_subtree_slots_are_reclaimed_and_reused() {
        let (mut tree, mut store, records, mut stats) = insert_all(3);
        // Eliminate a live internal node below the root: its strict
        // descendants' slots go to the free list.
        let internal = (0..tree.num_nodes())
            .find(|&i| {
                i != tree.root() && !tree.node(i).eliminated && tree.node(i).children.is_some()
            })
            .expect("demo tree has an internal node below the root");
        assert_eq!(tree.free_slots(), 0);
        tree.eliminate(internal);
        let free_before = tree.free_slots();
        assert!(free_before > 0, "eliminating a subtree reclaims slots");
        // The next insertion reuses reclaimed slots instead of growing the
        // arena one-for-one with created nodes.
        let slots_before = tree.num_nodes();
        let created_before = tree.nodes_created();
        let plane = store.add(records.len(), &[7.0, 6.0, 5.0]);
        tree.insert(&store, plane, &HashSet::new(), &mut stats);
        let created_delta = tree.nodes_created() - created_before;
        let slots_delta = tree.num_nodes() - slots_before;
        assert!(created_delta > 0, "the new plane splits at least one leaf");
        assert!(
            slots_delta < created_delta,
            "allocation reused free slots ({slots_delta} new slots for {created_delta} nodes)"
        );
        assert_eq!(stats.celltree_nodes, tree.nodes_created());
    }

    #[test]
    fn halfspace_scratch_buffers_do_not_reallocate_when_warm() {
        let (tree, store, ..) = insert_all(3);
        let leaves = tree.promising_leaves();
        assert!(!leaves.is_empty());

        let mut full = Vec::new();
        for &l in &leaves {
            tree.full_halfspaces_into(l, &mut full);
        }
        let (ptr, cap) = (full.as_ptr(), full.capacity());
        for _ in 0..5 {
            for &l in &leaves {
                assert!(!tree.full_halfspaces_into(l, &mut full), "leaf {l} grew");
            }
        }
        assert_eq!(full.as_ptr(), ptr);
        assert_eq!(full.capacity(), cap);

        let mut path = Vec::new();
        for &l in &leaves {
            tree.path_halfspaces_into(l, &mut path);
        }
        for &l in &leaves {
            assert!(!tree.path_halfspaces_into(l, &mut path), "leaf {l} grew");
        }

        // The warm buffers return exactly what the allocating wrappers do.
        for &l in &leaves {
            tree.full_halfspaces_into(l, &mut full);
            assert_eq!(full, tree.full_halfspaces(l));
            let (sys, grew) = tree.cell_system_with(l, &store, &mut path);
            assert!(!grew);
            let reference = tree.cell_system(l, &store);
            let w = sys.interior_point().expect("leaf is non-empty").point;
            assert!(reference.contains(&w, 1e-9));
        }
    }
}
