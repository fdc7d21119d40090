//! Eager recovery and structural consistency checking.
//!
//! FAST+FAIR needs no recovery pass for correctness — that is the point of
//! the paper: readers tolerate every crash state and writers repair nodes
//! lazily. [`FastFairTree::recover`] is the *eager* version of that lazy
//! repair, useful right after a crash to reclaim garbage slots, finish
//! half-done splits and re-attach dangling siblings in one sweep. It has
//! no count to recompute (a node's count is its NULL terminator) and no
//! latch to reset: latches are DRAM state of the handle, and a reopened
//! handle starts with all of them free.
//!
//! [`FastFairTree::check_consistency`] is the test oracle: it walks the
//! whole structure and verifies the B+-tree invariants, in either *strict*
//! mode (a fully repaired tree: no garbage entries, no dangling siblings,
//! no duplicated upper halves) or *tolerant* mode (a post-crash tree:
//! transient artifacts are counted but allowed, as long as readers would
//! still return correct results).

use std::collections::BTreeSet;

use pmem::{PmOffset, NULL_OFFSET};
use pmindex::{IndexError, Key, Value};

use crate::layout::NodeRef;
use crate::lock::WriteGuard;
use crate::tree::FastFairTree;

/// Summary of what [`FastFairTree::recover`] repaired.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Nodes visited.
    pub nodes_visited: usize,
    /// Garbage (duplicate-pointer) entries compacted away.
    pub garbage_removed: usize,
    /// Splits whose truncation store was re-issued.
    pub splits_completed: usize,
    /// Dangling siblings inserted into their parent level.
    pub siblings_attached: usize,
    /// Undo-log rollbacks performed (logging strategy only).
    pub log_rollbacks: usize,
    /// Trivial internal roots collapsed onto their only child.
    pub roots_collapsed: usize,
    /// Empty, unparented leaves whose unlink was completed (§4.2 merge).
    pub merges_completed: usize,
    /// Node blocks returned to the pool's free list (merged-away leaves,
    /// both freshly completed and previously retired by the merge path).
    pub nodes_recycled: usize,
}

/// Structural statistics returned by a successful consistency check.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Total nodes reachable.
    pub nodes: usize,
    /// Live (valid) leaf entries.
    pub entries: usize,
    /// Garbage entries observed (0 in strict mode).
    pub garbage_entries: usize,
    /// Nodes reachable only via sibling pointers (0 in strict mode).
    pub dangling_siblings: usize,
    /// Tree height (root level).
    pub height: u32,
}

/// A violated B+-tree invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyError {
    /// Valid keys within a node are not strictly ascending.
    UnsortedNode {
        /// Offending node offset.
        node: PmOffset,
    },
    /// A child's level is not one less than its parent's.
    BadChildLevel {
        /// Parent node offset.
        parent: PmOffset,
        /// Child node offset.
        child: PmOffset,
    },
    /// A node holds a key outside its bounds — at or above its own high
    /// key, or below its left neighbour's — or the rightmost node of a
    /// level is bounded (beyond the tolerated unfinished split).
    OutOfBounds {
        /// Node where the violation was detected.
        node: PmOffset,
    },
    /// A node contains transient artifacts but strict mode was requested.
    NotStrict {
        /// Garbage entries found.
        garbage: usize,
        /// Dangling siblings found.
        dangling: usize,
    },
    /// A cycle or out-of-bounds link was detected.
    BrokenLink {
        /// Node whose link is broken.
        node: PmOffset,
    },
}

impl std::fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyError::UnsortedNode { node } => write!(f, "unsorted node at {node:#x}"),
            ConsistencyError::BadChildLevel { parent, child } => {
                write!(f, "bad child level: parent {parent:#x}, child {child:#x}")
            }
            ConsistencyError::OutOfBounds { node } => {
                write!(f, "key outside the bounds of node {node:#x}")
            }
            ConsistencyError::NotStrict { garbage, dangling } => write!(
                f,
                "transient artifacts present: {garbage} garbage entries, {dangling} dangling siblings"
            ),
            ConsistencyError::BrokenLink { node } => write!(f, "broken link at {node:#x}"),
        }
    }
}

impl std::error::Error for ConsistencyError {}

impl FastFairTree {
    /// Offsets of every node on the sibling chain of `level`, starting from
    /// the leftmost node reachable from the root.
    pub(crate) fn level_chain(&self, level: u32) -> Vec<PmOffset> {
        let mut node = self.node(self.root());
        if node.level() < level {
            return Vec::new();
        }
        while node.level() > level {
            node = self.node(node.leftmost());
        }
        let mut chain = Vec::new();
        let mut seen = BTreeSet::new();
        let mut off = node.offset();
        while off != NULL_OFFSET && seen.insert(off) {
            chain.push(off);
            off = self.node(off).sibling();
        }
        chain
    }

    /// Every child the nodes on the chain of `level` route to.
    fn routed_children(&self, level: u32) -> BTreeSet<PmOffset> {
        let mut kids = BTreeSet::new();
        for p in self.level_chain(level) {
            let parent = self.node(p);
            kids.insert(parent.leftmost());
            kids.extend(parent.valid_entries().into_iter().map(|(_, c)| c));
        }
        kids
    }

    /// Eagerly repairs every transient artifact a crash may have left:
    /// rolls back the undo log (logging strategy),
    /// completes truncations, compacts garbage entries, re-attaches
    /// dangling siblings and grows the root over a split root.
    ///
    /// Safe to call on a healthy tree (idempotent, reports all zeros).
    /// Must not run concurrently with other operations.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion if re-attaching a sibling needs a new
    /// node.
    pub fn recover(&self) -> Result<RecoveryReport, IndexError> {
        let mut report = RecoveryReport::default();
        if self.pool.load_u64(self.meta + crate::tree::META_LOG_HEAD) != NULL_OFFSET {
            self.undo_log_rollback()?;
            report.log_rollbacks = 1;
        }

        // Grow the root while it has a sibling (a crash can interrupt a
        // root split before the new root is published), once its high key
        // — the sibling's separator — is sure to be lowered.
        loop {
            let root = self.node(self.root());
            if root.sibling() == NULL_OFFSET {
                break;
            }
            let guard = WriteGuard::lock(self.latch(root.offset()));
            if crate::delete::repair_node_locked(self, root) {
                report.splits_completed += 1;
            }
            guard.unlock();
            let (sib, low) = (root.sibling(), root.high_key());
            crate::split::ensure_parent_entry(self, sib, low, root.level() + 1)?;
            report.siblings_attached += 1;
        }

        let height = self.node(self.root()).level();
        for level in (0..=height).rev() {
            let chain = self.level_chain(level);
            // First pass: per-node repair.
            for &off in &chain {
                report.nodes_visited += 1;
                let node = self.node(off);
                let guard = WriteGuard::lock(self.latch(node.offset()));
                let before_garbage = node.records().filter(|r| r.residue).count();
                if crate::delete::repair_node_locked(self, node) {
                    report.splits_completed += 1;
                }
                report.garbage_removed += before_garbage;
                guard.unlock();
            }
            // Second pass: unreferenced chain nodes are either dangling
            // split siblings (re-attach them to the parent) or the residue
            // of an interrupted merge — empty and unparented — whose
            // unlink we complete here (§4.2: "we check if the sibling node
            // can be merged with its left node. If not, we insert the
            // pointer to the sibling node into the parent node").
            if level < height {
                let referenced = self.routed_children(level + 1);
                // The chain's head is its parent's leftmost child; every
                // later node follows the last node that stays in the chain,
                // whose (repaired) high key is its lower bound.
                let mut prev_kept = chain[0];
                for &off in &chain[1..] {
                    if referenced.contains(&off) {
                        prev_kept = off;
                        continue;
                    }
                    let (left, node) = (self.node(prev_kept), self.node(off));
                    if node.is_leaf() && node.first_key().is_none() {
                        // Complete the merge.
                        self.bypass(left, node);
                        report.merges_completed += 1;
                        // Recovery is quiescent by contract: the block can
                        // be recycled immediately.
                        self.retire_node(off);
                        continue;
                    }
                    crate::split::ensure_parent_entry(self, off, left.high_key(), level + 1)?;
                    report.siblings_attached += 1;
                    prev_kept = off;
                }
            }
        }
        report.roots_collapsed = self.shrink_root();
        // Quiescent point: return every retired leaf (from live merges and
        // the pass above) to the pool's free list.
        report.nodes_recycled = self.reclaim_retired();
        Ok(report)
    }

    /// Verifies the B+-tree invariants.
    ///
    /// In `strict` mode any transient artifact (garbage entry, dangling
    /// sibling, duplicated upper half) is an error; in tolerant mode they
    /// are merely counted — that is the state the paper's readers are
    /// guaranteed to tolerate.
    ///
    /// # Errors
    ///
    /// The first violated invariant found.
    pub fn check_consistency(&self, strict: bool) -> Result<ConsistencyReport, ConsistencyError> {
        let mut report = ConsistencyReport::default();
        let root = self.node(self.root());
        report.height = root.level();

        let mut garbage = 0usize;
        let mut dangling = 0usize;

        for level in (0..=report.height).rev() {
            let chain = self.level_chain(level);
            if chain.is_empty() {
                return Err(ConsistencyError::BrokenLink { node: self.root() });
            }
            let mut left: Option<NodeRef<'_>> = None;
            for &off in &chain {
                report.nodes += 1;
                let node = self.node(off);
                if node.level() != level {
                    return Err(ConsistencyError::BrokenLink { node: off });
                }
                let entries = node.valid_entries();
                // Strictly ascending within the node.
                for w in entries.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(ConsistencyError::UnsortedNode { node: off });
                    }
                }
                garbage += node.records().filter(|r| r.residue).count();
                // Bound rule 1: every key below the high key; the rightmost
                // node is unbounded. Tolerated: the residue of a split the
                // crash cut before its truncation — a copy of the records
                // the sibling starts with ("virtual single node").
                let high = node.high_key();
                if node.sibling() == NULL_OFFSET {
                    if high != Key::MAX {
                        return Err(ConsistencyError::OutOfBounds { node: off });
                    }
                } else if let Some(at) = entries.iter().position(|e| e.0 >= high) {
                    if strict || !is_split_residue(self, node, &entries[at..]) {
                        return Err(ConsistencyError::OutOfBounds { node: off });
                    }
                }
                // Bound rule 2: the left neighbour's high key at or below
                // every key and this node's own bound. Tolerated: a split
                // the crash cut before it lowered the left neighbour's
                // high key, still this node's.
                if let Some(low) = left.map(|l| l.high_key()) {
                    let below = entries.first().is_some_and(|e| e.0 < low);
                    if below && (strict || low != high) || low > high {
                        return Err(ConsistencyError::OutOfBounds { node: off });
                    }
                }
                left = Some(node);
                // Child levels.
                if level > 0 {
                    let mut children = vec![node.leftmost()];
                    children.extend(entries.iter().map(|&(_, c)| c));
                    for c in children {
                        if c == NULL_OFFSET {
                            return Err(ConsistencyError::BrokenLink { node: off });
                        }
                        let child = self.node(c);
                        if child.level() != level - 1 {
                            return Err(ConsistencyError::BadChildLevel {
                                parent: off,
                                child: c,
                            });
                        }
                    }
                }
                if level == 0 {
                    report.entries += entries.len();
                }
            }
            // Dangling-sibling count: nodes not referenced from above.
            if level < report.height {
                let referenced = self.routed_children(level + 1);
                dangling += chain.iter().filter(|off| !referenced.contains(off)).count();
            }
        }
        if self.node(self.root()).sibling() != NULL_OFFSET {
            dangling += 1;
        }

        report.garbage_entries = garbage;
        report.dangling_siblings = dangling;
        if strict && (garbage > 0 || dangling > 0) {
            return Err(ConsistencyError::NotStrict { garbage, dangling });
        }
        Ok(report)
    }
}

/// True if `residue`, the records of `node` at or above its high key, is
/// what a split that linked the sibling but did not truncate leaves: each
/// record is a copy of one in the sibling, or (internal nodes) the pushed-up
/// median routing to the sibling's leftmost child.
fn is_split_residue(tree: &FastFairTree, node: NodeRef<'_>, residue: &[(Key, Value)]) -> bool {
    let sib = tree.node(node.sibling());
    let moved = sib.valid_entries();
    let median = (node.high_key(), sib.leftmost());
    residue
        .iter()
        .all(|e| moved.contains(e) || (!node.is_leaf() && *e == median))
}
