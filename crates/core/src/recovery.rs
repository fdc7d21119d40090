//! Eager recovery and structural consistency checking.
//!
//! FAST+FAIR needs no recovery pass for correctness — that is the point of
//! the paper: readers tolerate every crash state and writers repair nodes
//! lazily. [`FastFairTree::recover`] is the *eager* version of that lazy
//! repair, useful right after a crash to reclaim garbage slots, finish
//! half-done splits and re-attach dangling siblings in one sweep; it also
//! resets the volatile lock words and recomputes count hints.
//!
//! [`FastFairTree::check_consistency`] is the test oracle: it walks the
//! whole structure and verifies the B+-tree invariants, in either *strict*
//! mode (a fully repaired tree: no garbage entries, no dangling siblings,
//! no duplicated upper halves) or *tolerant* mode (a post-crash tree:
//! transient artifacts are counted but allowed, as long as readers would
//! still return correct results).

use std::collections::BTreeSet;

use pmem::{PmOffset, NULL_OFFSET};
use pmindex::IndexError;

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
    /// Keys across the leaf chain are not ascending (beyond the tolerated
    /// split-duplication pattern).
    LeafChainDisorder {
        /// Leaf where the violation was detected.
        leaf: PmOffset,
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
            ConsistencyError::LeafChainDisorder { leaf } => {
                write!(f, "leaf chain disorder at {leaf:#x}")
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

    /// Eagerly repairs every transient artifact a crash may have left:
    /// resets lock words, rolls back the undo log (logging strategy),
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
            self.undo_log_rollback();
            report.log_rollbacks = 1;
        }
        // Reset the superblock lock word.
        self.pool
            .store_u64_volatile(self.meta + crate::tree::META_LOCK, 0);

        // Grow the root while it has a sibling (a crash can interrupt a
        // root split before the new root is published).
        loop {
            let root = self.node(self.root());
            if root.sibling() == NULL_OFFSET {
                break;
            }
            // Reset the lock word before locking through the normal path.
            self.pool.store_u64_volatile(root.lock_word_off(), 0);
            let sib = root.sibling();
            crate::split::ensure_parent_entry(self, sib, root.level() + 1)?;
            report.siblings_attached += 1;
        }

        let height = self.node(self.root()).level();
        for level in (0..=height).rev() {
            let chain = self.level_chain(level);
            // First pass: per-node repair.
            for &off in &chain {
                report.nodes_visited += 1;
                let node = self.node(off);
                self.pool.store_u64_volatile(node.lock_word_off(), 0);
                let guard = WriteGuard::lock(&self.pool, node.lock_word_off());
                let before_garbage = count_garbage(node);
                let had_overlap = split_overlap(self, node);
                crate::delete::repair_node_locked(self, node);
                node.set_count_hint(node.count_records());
                report.garbage_removed += before_garbage;
                if had_overlap {
                    report.splits_completed += 1;
                }
                guard.unlock();
            }
            // Second pass: unreferenced chain nodes are either dangling
            // split siblings (re-attach them to the parent) or the residue
            // of an interrupted merge — empty and unparented — whose
            // unlink we complete here (§4.2: "we check if the sibling node
            // can be merged with its left node. If not, we insert the
            // pointer to the sibling node into the parent node").
            if level < height {
                let referenced: BTreeSet<PmOffset> = self
                    .level_chain(level + 1)
                    .into_iter()
                    .flat_map(|p| {
                        let parent = self.node(p);
                        let mut kids = vec![parent.leftmost()];
                        kids.extend(parent.valid_entries().into_iter().map(|(_, c)| c));
                        kids
                    })
                    .collect();
                let mut prev_kept: Option<PmOffset> = None;
                for (i, &off) in chain.iter().enumerate() {
                    if referenced.contains(&off) {
                        prev_kept = Some(off);
                        continue;
                    }
                    let node = self.node(off);
                    if node.first_key().is_none() && i > 0 {
                        // Complete the merge: bypass the empty leaf from
                        // the last node that stays in the chain.
                        if let Some(left_off) = prev_kept {
                            let left = self.node(left_off);
                            if left.sibling() == off {
                                left.set_sibling(node.sibling());
                                self.pool.persist(left.sibling_field_off(), 8);
                                node.mark_deleted();
                                report.merges_completed += 1;
                                // Recovery is quiescent by contract: the
                                // block can be recycled immediately.
                                self.retire_node(off);
                                continue;
                            }
                        }
                    }
                    crate::split::ensure_parent_entry(self, off, level + 1)?;
                    report.siblings_attached += 1;
                    prev_kept = Some(off);
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
            let mut prev_last: Option<u64> = None;
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
                garbage += count_garbage(node);
                // Chain order: each node's first key must exceed the
                // previous node's last key — except for the tolerated
                // "virtual single node" overlap of an in-flight split.
                if let (Some(pl), Some((first, _))) = (prev_last, entries.first()) {
                    // In tolerant mode an overlap is accepted: it is the
                    // suffix-duplicate of the previous node left by an
                    // in-flight split (split state (2)).
                    if *first <= pl && strict {
                        return Err(ConsistencyError::LeafChainDisorder { leaf: off });
                    }
                }
                if let Some((last, _)) = entries.last() {
                    prev_last = Some(*last);
                }
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
                let referenced: BTreeSet<PmOffset> = self
                    .level_chain(level + 1)
                    .into_iter()
                    .flat_map(|p| {
                        let parent = self.node(p);
                        let mut kids = vec![parent.leftmost()];
                        kids.extend(parent.valid_entries().into_iter().map(|(_, c)| c));
                        kids
                    })
                    .collect();
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

/// Counts garbage entries before the terminator: poisoned slots and exact
/// adjacent duplicates (the two residues of an interrupted shift).
fn count_garbage(node: NodeRef<'_>) -> usize {
    let mut n = 0;
    let mut i = 0u16;
    while i <= node.capacity() {
        let p = node.ptr(i);
        if p == NULL_OFFSET {
            break;
        }
        if p == crate::layout::INVALID_PTR || (i > 0 && node.key(i) == node.key(i - 1)) {
            n += 1;
        }
        i += 1;
    }
    n
}

/// True if the node still contains keys that belong to its right sibling
/// (a split interrupted between linking and truncation).
fn split_overlap(tree: &FastFairTree, node: NodeRef<'_>) -> bool {
    let sib = node.sibling();
    if sib == NULL_OFFSET {
        return false;
    }
    match (
        node.valid_entries().last().map(|&(k, _)| k),
        tree.node(sib).first_key(),
    ) {
        (Some(last), Some(sfk)) => last >= sfk,
        _ => false,
    }
}
