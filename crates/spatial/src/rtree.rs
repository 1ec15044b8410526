//! Aggregate R-tree bulk-loaded with Sort-Tile-Recursive (STR), with
//! incremental insert / delete maintenance.
//!
//! Each node stores its MBR and the number of records in its subtree (the
//! "aggregate" part, §6.2 of the paper).  Records live in leaves; internal
//! nodes reference child nodes by index in a flat arena.  Every node access
//! through [`AggregateRTree::node`] is counted as a simulated page read for
//! the disk-based experiments of Appendix A.
//!
//! # Updates
//!
//! Beyond the one-shot STR bulk load, the tree supports single-record
//! [`AggregateRTree::insert`] (Guttman-style choose-subtree descent with a
//! quadratic split on overflow) and [`AggregateRTree::delete`] (leaf removal
//! with exact MBR tightening and empty-branch condensation on the root
//! path).  Record slots are never reused: a deleted record keeps its id but
//! is tombstoned, so ids handed out to callers stay stable across any update
//! sequence.  [`AggregateRTree::records`] therefore returns the *raw* slot
//! slice — iterate [`AggregateRTree::live_records`] or check
//! [`AggregateRTree::is_live`] when the tree may have seen deletions.

use crate::io::IoStats;
use crate::mbr::Mbr;
use crate::record::{Record, RecordId};

/// Children of a node: either child node indices or record ids.
#[derive(Debug, Clone)]
pub enum NodeEntries {
    /// Indices of child nodes in the tree arena.
    Internal(Vec<usize>),
    /// Ids of the records stored in this leaf.
    Leaf(Vec<RecordId>),
}

/// One R-tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Minimum bounding rectangle of everything below this node.
    pub mbr: Mbr,
    /// Number of records in the subtree (`G.num` in the paper).
    pub count: usize,
    /// Children.
    pub entries: NodeEntries,
}

impl Node {
    /// True iff this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self.entries, NodeEntries::Leaf(_))
    }
}

/// An aggregate R-tree over a dynamic set of records.
#[derive(Debug, Clone)]
pub struct AggregateRTree {
    dim: usize,
    fanout: usize,
    /// Record slots; `records[id].id == id` always.  Deleted slots are kept
    /// (ids stay stable) and flagged dead in `live`.
    records: Vec<Record>,
    /// Liveness flag per record slot.
    live: Vec<bool>,
    /// Number of live records.
    live_count: usize,
    nodes: Vec<Node>,
    /// Node slots released by delete-condensation, available for reuse.
    free_nodes: Vec<usize>,
    root: usize,
    io: IoStats,
}

impl AggregateRTree {
    /// Default node fanout used by the experiments.
    pub const DEFAULT_FANOUT: usize = 32;

    /// Bulk-loads a tree over `records` with the given `fanout` using STR.
    ///
    /// # Panics
    /// Panics if `records` is empty, if `fanout < 2`, or if the records do
    /// not all share the same arity.
    pub fn bulk_load(records: Vec<Record>, fanout: usize) -> Self {
        assert!(!records.is_empty(), "cannot index an empty dataset");
        assert!(fanout >= 2, "fanout must be at least 2");
        let dim = records[0].dim();
        assert!(
            records.iter().all(|r| r.dim() == dim),
            "all records must have the same arity"
        );
        assert!(
            records.iter().enumerate().all(|(i, r)| r.id == i),
            "record ids must equal their position in the input slice"
        );

        let mut nodes: Vec<Node> = Vec::new();

        // --- Build the leaf level with STR ---------------------------------
        let ids: Vec<RecordId> = (0..records.len()).collect();
        let leaf_groups = str_partition(&ids, dim, fanout, &|id, axis| records[*id].values[axis]);
        let mut current_level: Vec<usize> = Vec::with_capacity(leaf_groups.len());
        for group in leaf_groups {
            let mbr = Mbr::from_points(group.iter().map(|&id| records[id].values.as_slice()));
            let count = group.len();
            nodes.push(Node {
                mbr,
                count,
                entries: NodeEntries::Leaf(group),
            });
            current_level.push(nodes.len() - 1);
        }

        // --- Build internal levels until a single root remains -------------
        while current_level.len() > 1 {
            let groups = str_partition(&current_level, dim, fanout, &|node_idx, axis| {
                let m = &nodes[*node_idx].mbr;
                (m.min[axis] + m.max[axis]) / 2.0
            });
            let mut next_level = Vec::with_capacity(groups.len());
            for group in groups {
                let mut mbr = nodes[group[0]].mbr.clone();
                let mut count = 0;
                for &child in &group {
                    mbr.expand_mbr(&nodes[child].mbr);
                    count += nodes[child].count;
                }
                nodes.push(Node {
                    mbr,
                    count,
                    entries: NodeEntries::Internal(group),
                });
                next_level.push(nodes.len() - 1);
            }
            current_level = next_level;
        }

        let root = current_level[0];
        let live = vec![true; records.len()];
        let live_count = records.len();
        Self {
            dim,
            fanout,
            records,
            live,
            live_count,
            nodes,
            free_nodes: Vec::new(),
            root,
            io: IoStats::new(),
        }
    }

    /// Bulk-loads with the default fanout.
    pub fn from_records(records: Vec<Record>) -> Self {
        Self::bulk_load(records, Self::DEFAULT_FANOUT)
    }

    /// Number of **live** indexed records.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True iff the tree indexes no live record (possible once every record
    /// has been [`AggregateRTree::delete`]d).
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Number of record slots ever allocated (live + tombstoned).
    pub fn num_slots(&self) -> usize {
        self.records.len()
    }

    /// True iff record slot `id` exists and has not been deleted.
    pub fn is_live(&self, id: RecordId) -> bool {
        self.live.get(id).copied().unwrap_or(false)
    }

    /// True iff some record has been deleted (ids are then non-contiguous).
    pub fn has_tombstones(&self) -> bool {
        self.live_count != self.records.len()
    }

    /// Number of tombstoned record slots (deleted records whose slots are
    /// retained for id stability).  Slots are never reclaimed, so this only
    /// grows; compaction monitoring compares it against
    /// [`AggregateRTree::num_slots`].
    pub fn tombstone_count(&self) -> usize {
        self.records.len() - self.live_count
    }

    /// Iterates over the live records, in id order.
    pub fn live_records(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| self.live[r.id])
    }

    /// Record arity.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Node fanout used at construction time.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Index of the root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Total number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Accesses a node, counting one simulated page read.
    pub fn node(&self, idx: usize) -> &Node {
        self.io.record_read();
        &self.nodes[idx]
    }

    /// Accesses a node without I/O accounting (used by tests and internal
    /// bookkeeping that would not be a page read in a disk-resident setting).
    pub fn node_no_io(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// All record **slots**, indexed by id.  After deletions this slice still
    /// contains the tombstoned records; pair it with
    /// [`AggregateRTree::is_live`] or use
    /// [`AggregateRTree::live_records`] when liveness matters.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// A record by id.
    pub fn record(&self, id: RecordId) -> &Record {
        &self.records[id]
    }

    /// The I/O counter (shared by all traversals over this tree).
    pub fn io(&self) -> &IoStats {
        &self.io
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut idx = self.root;
        loop {
            match &self.nodes[idx].entries {
                NodeEntries::Leaf(_) => return h,
                NodeEntries::Internal(children) => {
                    idx = children[0];
                    h += 1;
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // Incremental maintenance
    // -----------------------------------------------------------------------

    /// Inserts a record and returns its (fresh, never-reused) id.
    ///
    /// Descends from the root choosing the child whose MBR needs the least
    /// enlargement (ties: smaller MBR, then smaller subtree), then splits
    /// overflowing nodes on the way back up with Guttman's quadratic split.
    ///
    /// # Panics
    /// Panics if `values` does not match the tree's arity.
    pub fn insert(&mut self, values: Vec<f64>) -> RecordId {
        assert_eq!(
            values.len(),
            self.dim,
            "inserted record arity must match the tree"
        );
        let id = self.records.len();
        self.records.push(Record::new(id, values));
        self.live.push(true);
        self.live_count += 1;

        if self.live_count == 1 {
            // The tree was (or had become) empty: restart from a fresh root
            // leaf holding just this record.
            let mbr = Mbr::from_point(&self.records[id].values);
            self.nodes[self.root] = Node {
                mbr,
                count: 1,
                entries: NodeEntries::Leaf(vec![id]),
            };
            return id;
        }

        // Choose-subtree descent, remembering the root path.
        let mut path = vec![self.root];
        loop {
            let cur = *path.last().expect("path is never empty");
            let next = match &self.nodes[cur].entries {
                NodeEntries::Leaf(_) => break,
                NodeEntries::Internal(children) => {
                    self.choose_child(children, &self.records[id].values)
                }
            };
            path.push(next);
        }

        let leaf = *path.last().expect("path is never empty");
        if let NodeEntries::Leaf(ids) = &mut self.nodes[leaf].entries {
            ids.push(id);
        }
        let point = self.records[id].values.clone();
        for &n in &path {
            self.nodes[n].count += 1;
            self.nodes[n].mbr.expand_point(&point);
        }
        self.split_overflows(path);
        id
    }

    /// Deletes record `id`, returning `true` if it existed and was live.
    ///
    /// Removes the entry from its leaf, tightens every MBR on the root path
    /// to the exact bounds of the remaining entries, drops emptied branches,
    /// and shrinks the root while it has a single child.  The record slot is
    /// tombstoned: its id is never handed out again.
    pub fn delete(&mut self, id: RecordId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        let point = self.records[id].values.clone();
        let mut path = Vec::new();
        let found = self.find_leaf_of(self.root, id, &point, &mut path);
        debug_assert!(found, "live record {id} must be stored in some leaf");
        if !found {
            return false;
        }
        self.live[id] = false;
        self.live_count -= 1;

        let leaf = *path.last().expect("found implies a non-empty path");
        if let NodeEntries::Leaf(ids) = &mut self.nodes[leaf].entries {
            ids.retain(|&x| x != id);
        }
        // Bottom-up: fix counts, drop emptied children, tighten MBRs.
        for i in (0..path.len()).rev() {
            let n = path[i];
            self.nodes[n].count -= 1;
            if i + 1 < path.len() {
                let child = path[i + 1];
                if self.nodes[child].count == 0 {
                    if let NodeEntries::Internal(ch) = &mut self.nodes[n].entries {
                        ch.retain(|&c| c != child);
                    }
                    self.free_node(child);
                }
            }
            self.recompute_mbr(n);
        }

        if self.live_count == 0 {
            // Collapse to a single empty root leaf.
            let root = self.root;
            self.nodes[root].entries = NodeEntries::Leaf(Vec::new());
            self.nodes[root].count = 0;
            return true;
        }
        // Root condensation: promote a lone child.
        loop {
            let promote = match &self.nodes[self.root].entries {
                NodeEntries::Internal(ch) if ch.len() == 1 => Some(ch[0]),
                _ => None,
            };
            match promote {
                Some(child) => {
                    let old_root = self.root;
                    self.free_node(old_root);
                    self.root = child;
                }
                None => break,
            }
        }
        true
    }

    /// The child of `children` whose MBR needs the least (margin) enlargement
    /// to absorb `point`.
    fn choose_child(&self, children: &[usize], point: &[f64]) -> usize {
        let mut best = children[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, usize::MAX);
        for &c in children {
            let mbr = &self.nodes[c].mbr;
            let mut enlarged = mbr.clone();
            enlarged.expand_point(point);
            let key = (
                margin(&enlarged) - margin(mbr),
                margin(mbr),
                self.nodes[c].count,
            );
            if key < best_key {
                best_key = key;
                best = c;
            }
        }
        best
    }

    /// Finds the leaf storing `id`, pushing the root path onto `path`.
    fn find_leaf_of(&self, idx: usize, id: RecordId, point: &[f64], path: &mut Vec<usize>) -> bool {
        if !self.nodes[idx].mbr.contains(point) {
            return false;
        }
        path.push(idx);
        match &self.nodes[idx].entries {
            NodeEntries::Leaf(ids) => {
                if ids.contains(&id) {
                    return true;
                }
            }
            NodeEntries::Internal(children) => {
                for &c in children {
                    if self.find_leaf_of(c, id, point, path) {
                        return true;
                    }
                }
            }
        }
        path.pop();
        false
    }

    /// Splits every overflowing node on `path`, deepest first, linking the
    /// split-off sibling into the parent (or a new root).
    fn split_overflows(&mut self, mut path: Vec<usize>) {
        while let Some(idx) = path.pop() {
            let over = match &self.nodes[idx].entries {
                NodeEntries::Leaf(ids) => ids.len() > self.fanout,
                NodeEntries::Internal(ch) => ch.len() > self.fanout,
            };
            if !over {
                // Nothing split here, so no ancestor gained an entry either.
                break;
            }
            let sibling = self.split_node(idx);
            match path.last() {
                Some(&parent) => {
                    if let NodeEntries::Internal(ch) = &mut self.nodes[parent].entries {
                        ch.push(sibling);
                    }
                    // The parent's MBR already covers both halves.
                }
                None => {
                    // The root split: grow the tree by one level.
                    let mut mbr = self.nodes[idx].mbr.clone();
                    mbr.expand_mbr(&self.nodes[sibling].mbr);
                    let count = self.nodes[idx].count + self.nodes[sibling].count;
                    let new_root = self.alloc_node(Node {
                        mbr,
                        count,
                        entries: NodeEntries::Internal(vec![idx, sibling]),
                    });
                    self.root = new_root;
                }
            }
        }
    }

    /// Quadratic split of node `idx`: keeps one group in place, returns the
    /// index of a new node holding the other group.
    fn split_node(&mut self, idx: usize) -> usize {
        let is_leaf = self.nodes[idx].is_leaf();
        let handles: Vec<usize> = match &self.nodes[idx].entries {
            NodeEntries::Leaf(ids) => ids.clone(),
            NodeEntries::Internal(ch) => ch.clone(),
        };
        let mbrs: Vec<Mbr> = handles
            .iter()
            .map(|&h| {
                if is_leaf {
                    Mbr::from_point(&self.records[h].values)
                } else {
                    self.nodes[h].mbr.clone()
                }
            })
            .collect();
        let min_fill = (self.fanout / 2).max(1);
        let (group_a, group_b) = quadratic_partition(&mbrs, min_fill);

        let pick = |group: &[usize]| -> Vec<usize> { group.iter().map(|&g| handles[g]).collect() };
        let (handles_a, handles_b) = (pick(&group_a), pick(&group_b));
        let node_b = self.alloc_split_half(handles_b, is_leaf);
        self.replace_entries(idx, handles_a, is_leaf);
        node_b
    }

    /// Allocates the split-off sibling with the given entry handles.
    fn alloc_split_half(&mut self, handles: Vec<usize>, is_leaf: bool) -> usize {
        let (mbr, count) = self.summarize_entries(&handles, is_leaf);
        let entries = if is_leaf {
            NodeEntries::Leaf(handles)
        } else {
            NodeEntries::Internal(handles)
        };
        self.alloc_node(Node {
            mbr,
            count,
            entries,
        })
    }

    /// Resets node `idx` to exactly the given entry handles.
    fn replace_entries(&mut self, idx: usize, handles: Vec<usize>, is_leaf: bool) {
        let (mbr, count) = self.summarize_entries(&handles, is_leaf);
        self.nodes[idx].mbr = mbr;
        self.nodes[idx].count = count;
        self.nodes[idx].entries = if is_leaf {
            NodeEntries::Leaf(handles)
        } else {
            NodeEntries::Internal(handles)
        };
    }

    /// Exact MBR and record count of a non-empty entry-handle set.
    fn summarize_entries(&self, handles: &[usize], is_leaf: bool) -> (Mbr, usize) {
        if is_leaf {
            let mbr = Mbr::from_points(handles.iter().map(|&h| self.records[h].values.as_slice()));
            (mbr, handles.len())
        } else {
            let mut mbr = self.nodes[handles[0]].mbr.clone();
            let mut count = 0;
            for &h in handles {
                mbr.expand_mbr(&self.nodes[h].mbr);
                count += self.nodes[h].count;
            }
            (mbr, count)
        }
    }

    /// Recomputes the exact MBR of a (non-empty) node from its entries.
    fn recompute_mbr(&mut self, idx: usize) {
        let mbr = match &self.nodes[idx].entries {
            NodeEntries::Leaf(ids) if !ids.is_empty() => Some(Mbr::from_points(
                ids.iter().map(|&id| self.records[id].values.as_slice()),
            )),
            NodeEntries::Internal(ch) if !ch.is_empty() => {
                let mut mbr = self.nodes[ch[0]].mbr.clone();
                for &c in &ch[1..] {
                    mbr.expand_mbr(&self.nodes[c].mbr);
                }
                Some(mbr)
            }
            _ => None,
        };
        if let Some(mbr) = mbr {
            self.nodes[idx].mbr = mbr;
        }
    }

    /// Takes a node slot off the free list or grows the arena.
    fn alloc_node(&mut self, node: Node) -> usize {
        match self.free_nodes.pop() {
            Some(idx) => {
                self.nodes[idx] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Releases a node slot.  The slot is scrubbed to an empty leaf so that
    /// full-arena scans (tests, invariant checks) see no stale entries.
    fn free_node(&mut self, idx: usize) {
        self.nodes[idx].entries = NodeEntries::Leaf(Vec::new());
        self.nodes[idx].count = 0;
        self.free_nodes.push(idx);
    }

    /// Number of **live** records that dominate `values`, stopping early once
    /// `limit` dominators are found (pass `usize::MAX` for an exact count).
    ///
    /// A return value `>= limit` means "at least `limit`"; below `limit` it is
    /// exact.  Subtrees are pruned with the MBR corners: a subtree whose
    /// max-corner does not dominate `values` cannot contain a dominator
    /// (every record is coordinate-wise at most the max-corner), while a
    /// subtree whose min-corner dominates `values` consists entirely of
    /// dominators and contributes its aggregate count wholesale.
    ///
    /// This is the dominance-delta probe of the standing-query monitor
    /// (`kspr-monitor`): an updated record with at least `k` live dominators
    /// cannot change any top-`k` membership region (the skyband witness
    /// property).  Probes are bookkeeping, not query work, so they bypass the
    /// simulated-I/O counter.
    ///
    /// # Panics
    /// Panics if `values` does not match the tree's arity.
    pub fn count_dominating(&self, values: &[f64], limit: usize) -> usize {
        assert_eq!(
            values.len(),
            self.dim,
            "probed record arity must match the tree"
        );
        if self.is_empty() || limit == 0 {
            return 0;
        }
        let mut count = 0usize;
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let node = self.node_no_io(idx);
            if node.count == 0 {
                continue;
            }
            // Prune: no record below can dominate `values`.  (An exactly
            // coincident max-corner fails `dominates` too — records equal to
            // `values` are ties, not dominators.)
            if !crate::dominance::dominates(node.mbr.upper_corner(), values) {
                continue;
            }
            if crate::dominance::dominates(node.mbr.lower_corner(), values) {
                // Every record below dominates `values`.
                count += node.count;
            } else {
                match &node.entries {
                    NodeEntries::Leaf(ids) => {
                        count += ids
                            .iter()
                            .filter(|&&id| {
                                crate::dominance::dominates(&self.records[id].values, values)
                            })
                            .count();
                    }
                    NodeEntries::Internal(children) => {
                        stack.extend(children.iter().copied());
                        continue;
                    }
                }
            }
            if count >= limit {
                return count;
            }
        }
        count
    }

    /// Calls `visit` with the id of every live record **strictly dominated
    /// by** `values` (the mirror image of [`AggregateRTree::count_dominating`]).
    ///
    /// A subtree is pruned when `values` does not dominate its MBR's
    /// min-corner: every record below is coordinate-wise at least the
    /// min-corner, so none can be dominated.  A subtree whose max-corner is
    /// dominated by `values` consists entirely of dominated records and is
    /// reported wholesale without touching its leaves' coordinates.
    ///
    /// This is the registry probe of the standing-query monitor
    /// (`kspr-monitor`): the focal points an update record dominates are
    /// exactly the standing queries whose dominator bookkeeping the update
    /// shifts, so they — and only they — must be visited.  Like the
    /// dominance-delta probe, this is bookkeeping, not query work, so it
    /// bypasses the simulated-I/O counter.
    ///
    /// # Panics
    /// Panics if `values` does not match the tree's arity.
    pub fn for_each_dominated(&self, values: &[f64], mut visit: impl FnMut(RecordId)) {
        assert_eq!(
            values.len(),
            self.dim,
            "probed record arity must match the tree"
        );
        if self.is_empty() {
            return;
        }
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let node = self.node_no_io(idx);
            if node.count == 0 {
                continue;
            }
            // Prune: no record below can be dominated by `values`.  (A
            // min-corner exactly coincident with `values` fails `dominates`
            // too — records equal to `values` are ties, not dominated.)
            if !crate::dominance::dominates(values, node.mbr.lower_corner()) {
                continue;
            }
            let wholesale = crate::dominance::dominates(values, node.mbr.upper_corner());
            match &node.entries {
                NodeEntries::Leaf(ids) => {
                    for &id in ids {
                        if wholesale
                            || crate::dominance::dominates(values, &self.records[id].values)
                        {
                            visit(id);
                        }
                    }
                }
                NodeEntries::Internal(children) => stack.extend(children.iter().copied()),
            }
        }
    }

    /// Returns `Some(record id)` for a record that is **not** dominated by any
    /// of `pivots` and is not in `excluded`, or `None` if every such record is
    /// dominated.
    ///
    /// This is the look-ahead used by P-CTA to decide whether a promising
    /// cell can already be reported (Lemma 5): a subtree can be skipped when
    /// its MBR's max-corner is dominated by some pivot, because then every
    /// record underneath is dominated too.
    pub fn find_not_dominated(
        &self,
        pivots: &[&[f64]],
        excluded: &dyn Fn(RecordId) -> bool,
    ) -> Option<RecordId> {
        if self.is_empty() {
            return None;
        }
        self.find_not_dominated_rec(self.root, pivots, excluded)
    }

    fn find_not_dominated_rec(
        &self,
        idx: usize,
        pivots: &[&[f64]],
        excluded: &dyn Fn(RecordId) -> bool,
    ) -> Option<RecordId> {
        let node = self.node(idx);
        if pivots
            .iter()
            .any(|p| crate::dominance::dominates(p, node.mbr.upper_corner()))
        {
            return None;
        }
        match &node.entries {
            NodeEntries::Leaf(ids) => ids.iter().copied().find(|&id| {
                !excluded(id)
                    && !pivots
                        .iter()
                        .any(|p| crate::dominance::dominates(p, &self.records[id].values))
            }),
            NodeEntries::Internal(children) => children
                .iter()
                .find_map(|&c| self.find_not_dominated_rec(c, pivots, excluded)),
        }
    }
}

/// Margin (sum of side lengths) of an MBR — the split heuristic's size
/// measure.  Unlike the volume it stays informative for the degenerate
/// (point / flat) rectangles that dominate leaf-level splits.
fn margin(mbr: &Mbr) -> f64 {
    mbr.min.iter().zip(&mbr.max).map(|(lo, hi)| hi - lo).sum()
}

/// Guttman's quadratic split over entry MBRs: picks the pair of seeds that
/// wastes the most space when grouped together, then greedily assigns every
/// remaining entry to the group whose MBR grows the least (honouring the
/// `min_fill` lower bound on group size).  Returns the two groups as index
/// sets into `mbrs`.
fn quadratic_partition(mbrs: &[Mbr], min_fill: usize) -> (Vec<usize>, Vec<usize>) {
    let n = mbrs.len();
    debug_assert!(n >= 2, "cannot split fewer than two entries");
    // Seed selection.
    let (mut seed_a, mut seed_b) = (0, 1);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let mut union = mbrs[i].clone();
            union.expand_mbr(&mbrs[j]);
            let waste = margin(&union) - margin(&mbrs[i]) - margin(&mbrs[j]);
            if waste > worst {
                worst = waste;
                (seed_a, seed_b) = (i, j);
            }
        }
    }
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut mbr_a = mbrs[seed_a].clone();
    let mut mbr_b = mbrs[seed_b].clone();
    let mut rest: Vec<usize> = (0..n).filter(|&x| x != seed_a && x != seed_b).collect();

    while !rest.is_empty() {
        // Min-fill guarantee: hand everything left to a starving group.
        if group_a.len() + rest.len() <= min_fill {
            group_a.append(&mut rest);
            break;
        }
        if group_b.len() + rest.len() <= min_fill {
            group_b.append(&mut rest);
            break;
        }
        // Pick the entry with the strongest preference for one group.
        let mut pick = 0;
        let mut pick_diff = f64::NEG_INFINITY;
        for (pos, &e) in rest.iter().enumerate() {
            let grow = |g: &Mbr| {
                let mut u = g.clone();
                u.expand_mbr(&mbrs[e]);
                margin(&u) - margin(g)
            };
            let diff = (grow(&mbr_a) - grow(&mbr_b)).abs();
            if diff > pick_diff {
                pick_diff = diff;
                pick = pos;
            }
        }
        let e = rest.swap_remove(pick);
        let mut ua = mbr_a.clone();
        ua.expand_mbr(&mbrs[e]);
        let mut ub = mbr_b.clone();
        ub.expand_mbr(&mbrs[e]);
        let da = margin(&ua) - margin(&mbr_a);
        let db = margin(&ub) - margin(&mbr_b);
        let to_a = match da.partial_cmp(&db) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            // Ties: smaller group first, then group A.
            _ => group_a.len() <= group_b.len(),
        };
        if to_a {
            group_a.push(e);
            mbr_a = ua;
        } else {
            group_b.push(e);
            mbr_b = ub;
        }
    }
    (group_a, group_b)
}

/// Sort-Tile-Recursive partitioning of `items` into groups of at most
/// `fanout`, using `key(item, axis)` as the coordinate accessor.
fn str_partition<T: Clone>(
    items: &[T],
    dim: usize,
    fanout: usize,
    key: &dyn Fn(&T, usize) -> f64,
) -> Vec<Vec<T>> {
    let mut slabs: Vec<Vec<T>> = vec![items.to_vec()];
    // Successively slice along each axis; the number of slices per axis is
    // chosen so that the final tiles hold at most `fanout` items.
    for axis in 0..dim {
        let remaining_axes = dim - axis;
        let mut next: Vec<Vec<T>> = Vec::new();
        for slab in slabs {
            let n = slab.len();
            if n <= fanout {
                next.push(slab);
                continue;
            }
            let total_groups = n.div_ceil(fanout);
            // Number of slices for this axis: the (remaining_axes)-th root of
            // the number of groups still needed.
            let slices = (total_groups as f64)
                .powf(1.0 / remaining_axes as f64)
                .ceil() as usize;
            let slices = slices.max(1);
            let per_slice = n.div_ceil(slices);
            let mut sorted = slab;
            sorted.sort_by(|a, b| {
                key(a, axis)
                    .partial_cmp(&key(b, axis))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for chunk in sorted.chunks(per_slice.max(1)) {
                next.push(chunk.to_vec());
            }
        }
        slabs = next;
    }
    // Final pass: every slab must respect the fanout.
    let mut groups = Vec::new();
    for slab in slabs {
        if slab.len() <= fanout {
            groups.push(slab);
        } else {
            for chunk in slab.chunks(fanout) {
                groups.push(chunk.to_vec());
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_records(n: usize, d: usize, seed: u64) -> Vec<Record> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|id| Record::new(id, (0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect()
    }

    #[test]
    fn bulk_load_counts_and_mbrs_are_consistent() {
        let records = random_records(1_000, 4, 1);
        let tree = AggregateRTree::bulk_load(records.clone(), 16);
        assert_eq!(tree.len(), 1_000);
        assert_eq!(tree.node_no_io(tree.root()).count, 1_000);
        // Every record is inside the root MBR and inside its leaf MBR.
        let root_mbr = &tree.node_no_io(tree.root()).mbr;
        for r in &records {
            assert!(root_mbr.contains(&r.values));
        }
        // Sum of leaf counts equals n, and node counts equal subtree sizes.
        let mut leaf_total = 0;
        for idx in 0..tree.num_nodes() {
            let node = tree.node_no_io(idx);
            match &node.entries {
                NodeEntries::Leaf(ids) => {
                    assert_eq!(node.count, ids.len());
                    leaf_total += ids.len();
                    for &id in ids {
                        assert!(node.mbr.contains(&tree.record(id).values));
                    }
                }
                NodeEntries::Internal(children) => {
                    let child_sum: usize = children.iter().map(|&c| tree.node_no_io(c).count).sum();
                    assert_eq!(node.count, child_sum);
                }
            }
        }
        assert_eq!(leaf_total, 1_000);
    }

    #[test]
    fn fanout_is_respected() {
        let records = random_records(500, 3, 2);
        let tree = AggregateRTree::bulk_load(records, 8);
        for idx in 0..tree.num_nodes() {
            match &tree.node_no_io(idx).entries {
                NodeEntries::Leaf(ids) => assert!(ids.len() <= 8),
                NodeEntries::Internal(children) => assert!(children.len() <= 8 + 1),
            }
        }
        assert!(tree.height() >= 2);
    }

    #[test]
    fn single_record_tree() {
        let tree = AggregateRTree::from_records(vec![Record::new(0, vec![0.5, 0.5])]);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.node_no_io(tree.root()).count, 1);
    }

    #[test]
    fn io_counter_tracks_node_accesses() {
        let records = random_records(100, 2, 3);
        let tree = AggregateRTree::bulk_load(records, 8);
        tree.io().reset();
        let _ = tree.node(tree.root());
        let _ = tree.node(tree.root());
        assert_eq!(tree.io().reads(), 2);
        let _ = tree.node_no_io(tree.root());
        assert_eq!(tree.io().reads(), 2);
    }

    #[test]
    fn find_not_dominated_respects_pivots_and_exclusions() {
        // Three records; pivot dominates two of them.
        let records = vec![
            Record::new(0, vec![0.9, 0.9]),
            Record::new(1, vec![0.2, 0.3]),
            Record::new(2, vec![0.1, 0.1]),
        ];
        let tree = AggregateRTree::bulk_load(records, 4);
        let pivot = vec![0.5, 0.5];
        let pivots: Vec<&[f64]> = vec![&pivot];
        let found = tree.find_not_dominated(&pivots, &|_| false);
        assert_eq!(found, Some(0));
        // Excluding record 0 leaves only dominated records.
        let found = tree.find_not_dominated(&pivots, &|id| id == 0);
        assert_eq!(found, None);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_input() {
        AggregateRTree::from_records(vec![]);
    }

    /// Walks the tree from the root and checks every structural invariant:
    /// counts aggregate, MBRs are exact, fanout is respected, and the set of
    /// stored ids is exactly the live id set.
    fn check_invariants(tree: &AggregateRTree) {
        fn walk(tree: &AggregateRTree, idx: usize, found: &mut Vec<RecordId>) -> usize {
            let node = tree.node_no_io(idx);
            match &node.entries {
                NodeEntries::Leaf(ids) => {
                    assert_eq!(node.count, ids.len(), "leaf count mismatch at {idx}");
                    for &id in ids {
                        assert!(tree.is_live(id), "leaf stores dead record {id}");
                        assert!(
                            node.mbr.contains(&tree.record(id).values),
                            "record {id} outside its leaf MBR"
                        );
                        found.push(id);
                    }
                    ids.len()
                }
                NodeEntries::Internal(children) => {
                    assert!(!children.is_empty(), "internal node {idx} has no children");
                    let mut total = 0;
                    for &c in children {
                        let child = tree.node_no_io(c);
                        assert!(
                            node.mbr.contains(child.mbr.lower_corner())
                                && node.mbr.contains(child.mbr.upper_corner()),
                            "child MBR escapes parent at {idx}"
                        );
                        total += walk(tree, c, found);
                    }
                    assert_eq!(node.count, total, "aggregate count mismatch at {idx}");
                    total
                }
            }
        }
        let mut found = Vec::new();
        let total = walk(tree, tree.root(), &mut found);
        assert_eq!(total, tree.len());
        found.sort_unstable();
        let live: Vec<RecordId> = tree.live_records().map(|r| r.id).collect();
        assert_eq!(found, live);
        // Fanout bound (the root alone may be under-filled).
        for idx in 0..tree.num_nodes() {
            match &tree.node_no_io(idx).entries {
                NodeEntries::Leaf(ids) => assert!(ids.len() <= tree.fanout()),
                NodeEntries::Internal(ch) => assert!(ch.len() <= tree.fanout()),
            }
        }
    }

    #[test]
    fn insert_grows_the_tree_and_preserves_invariants() {
        let records = random_records(40, 3, 7);
        let mut tree = AggregateRTree::bulk_load(records, 4);
        let mut rng = SmallRng::seed_from_u64(70);
        for _ in 0..200 {
            let values: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
            let id = tree.insert(values.clone());
            assert_eq!(&tree.record(id).values, &values);
            assert!(tree.is_live(id));
        }
        assert_eq!(tree.len(), 240);
        assert!(tree.height() >= 3);
        check_invariants(&tree);
    }

    #[test]
    fn delete_tightens_and_condenses() {
        let records = random_records(150, 2, 8);
        let mut tree = AggregateRTree::bulk_load(records, 4);
        let mut rng = SmallRng::seed_from_u64(80);
        let mut live: Vec<RecordId> = (0..150).collect();
        while live.len() > 3 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(tree.delete(victim));
            assert!(!tree.delete(victim), "double delete must fail");
            assert!(!tree.is_live(victim));
        }
        assert_eq!(tree.len(), 3);
        assert!(tree.has_tombstones());
        check_invariants(&tree);
        // Deleting everything leaves a valid empty tree ...
        for id in live {
            assert!(tree.delete(id));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        // ... into which inserts work again.
        let id = tree.insert(vec![0.5, 0.5]);
        assert_eq!(tree.len(), 1);
        assert!(tree.is_live(id));
        check_invariants(&tree);
    }

    #[test]
    fn mixed_updates_match_bulk_loaded_skyline() {
        use crate::skyline::{bbs_skyline, naive_skyline};
        let mut rng = SmallRng::seed_from_u64(90);
        let records = random_records(120, 3, 9);
        let mut tree = AggregateRTree::bulk_load(records, 8);
        for step in 0..300 {
            if step % 3 == 0 && tree.len() > 10 {
                // Delete a random live record.
                let live: Vec<RecordId> = tree.live_records().map(|r| r.id).collect();
                let victim = live[rng.gen_range(0..live.len())];
                assert!(tree.delete(victim));
            } else {
                let values: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
                tree.insert(values);
            }
        }
        check_invariants(&tree);
        // The BBS skyline over the updated tree equals the naive skyline over
        // the live records.
        let live: Vec<Record> = tree.live_records().cloned().collect();
        let mut expected: Vec<RecordId> = naive_skyline(&live);
        let mut got = bbs_skyline(&tree);
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn count_dominating_matches_naive_scan_under_updates() {
        let mut rng = SmallRng::seed_from_u64(95);
        let records = random_records(160, 3, 10);
        let mut tree = AggregateRTree::bulk_load(records, 6);
        for step in 0..200 {
            if step % 4 == 0 && tree.len() > 8 {
                let live: Vec<RecordId> = tree.live_records().map(|r| r.id).collect();
                let victim = live[rng.gen_range(0..live.len())];
                assert!(tree.delete(victim));
            } else {
                let values: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
                tree.insert(values);
            }
            if step % 10 != 0 {
                continue;
            }
            let probe: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
            let expected = tree
                .live_records()
                .filter(|r| crate::dominance::dominates(&r.values, &probe))
                .count();
            assert_eq!(tree.count_dominating(&probe, usize::MAX), expected);
            // Limited probes are exact below the limit and saturate at it.
            for limit in [0usize, 1, 2, expected.max(1)] {
                let got = tree.count_dominating(&probe, limit);
                if expected >= limit {
                    assert!(got >= limit, "limit {limit}: got {got}, want >= {limit}");
                } else {
                    assert_eq!(got, expected, "limit {limit} is not reached");
                }
            }
        }
    }

    #[test]
    fn for_each_dominated_matches_naive_scan_under_updates() {
        let mut rng = SmallRng::seed_from_u64(97);
        let records = random_records(160, 3, 11);
        let mut tree = AggregateRTree::bulk_load(records, 6);
        for step in 0..200 {
            if step % 4 == 0 && tree.len() > 8 {
                let live: Vec<RecordId> = tree.live_records().map(|r| r.id).collect();
                let victim = live[rng.gen_range(0..live.len())];
                assert!(tree.delete(victim));
            } else {
                let values: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
                tree.insert(values);
            }
            if step % 10 != 0 {
                continue;
            }
            // Bias the probe high so the dominated set is regularly nonempty.
            let probe: Vec<f64> = (0..3).map(|_| rng.gen_range(0.3..1.0)).collect();
            let mut expected: Vec<RecordId> = tree
                .live_records()
                .filter(|r| crate::dominance::dominates(&probe, &r.values))
                .map(|r| r.id)
                .collect();
            expected.sort_unstable();
            let mut got = Vec::new();
            tree.for_each_dominated(&probe, |id| got.push(id));
            got.sort_unstable();
            assert_eq!(got, expected, "step {step}");
        }
    }

    #[test]
    fn for_each_dominated_ignores_ties_and_tombstones() {
        let mut tree = AggregateRTree::bulk_load(
            vec![
                Record::new(0, vec![0.5, 0.5]),
                Record::new(1, vec![0.9, 0.9]),
                Record::new(2, vec![0.8, 0.6]),
                Record::new(3, vec![0.1, 0.1]),
            ],
            4,
        );
        let dominated = |tree: &AggregateRTree, probe: &[f64]| {
            let mut ids = Vec::new();
            tree.for_each_dominated(probe, |id| ids.push(id));
            ids.sort_unstable();
            ids
        };
        // An exact tie (record 0) is never dominated.
        assert_eq!(dominated(&tree, &[0.5, 0.5]), vec![3]);
        assert_eq!(dominated(&tree, &[0.9, 0.9]), vec![0, 2, 3]);
        assert!(tree.delete(3));
        assert_eq!(
            dominated(&tree, &[0.5, 0.5]),
            Vec::<RecordId>::new(),
            "tombstoned records are not reported"
        );
        assert_eq!(dominated(&tree, &[0.05, 0.05]), Vec::<RecordId>::new());
    }

    #[test]
    fn count_dominating_ignores_ties_and_tombstones() {
        let mut tree = AggregateRTree::bulk_load(
            vec![
                Record::new(0, vec![0.5, 0.5]),
                Record::new(1, vec![0.9, 0.9]),
                Record::new(2, vec![0.8, 0.6]),
                Record::new(3, vec![0.1, 0.1]),
            ],
            4,
        );
        // An exact tie (record 0) never counts as a dominator.
        assert_eq!(tree.count_dominating(&[0.5, 0.5], usize::MAX), 2);
        assert!(tree.delete(1));
        assert_eq!(
            tree.count_dominating(&[0.5, 0.5], usize::MAX),
            1,
            "tombstoned dominators must not count"
        );
        assert_eq!(tree.tombstone_count(), 1);
        assert_eq!(tree.count_dominating(&[0.95, 0.95], usize::MAX), 0);
    }

    #[test]
    fn tombstone_count_tracks_deletes() {
        let records = random_records(30, 2, 12);
        let mut tree = AggregateRTree::bulk_load(records, 4);
        assert_eq!(tree.tombstone_count(), 0);
        assert!(tree.delete(3));
        assert!(tree.delete(17));
        assert_eq!(tree.tombstone_count(), 2);
        tree.insert(vec![0.5, 0.5]);
        assert_eq!(tree.tombstone_count(), 2, "inserts never resurrect slots");
        assert_eq!(tree.num_slots(), 31);
        assert_eq!(tree.len(), 29);
    }

    #[test]
    fn deleted_ids_are_never_reused() {
        let mut tree = AggregateRTree::bulk_load(
            vec![
                Record::new(0, vec![0.2, 0.2]),
                Record::new(1, vec![0.8, 0.8]),
            ],
            4,
        );
        assert!(tree.delete(0));
        let id = tree.insert(vec![0.4, 0.4]);
        assert_eq!(id, 2, "tombstoned slot 0 must not be recycled");
        assert_eq!(tree.num_slots(), 3);
        assert_eq!(tree.len(), 2);
    }
}
