//! Batched rekeying (Section III-E of the paper).
//!
//! An area controller aggregates join and leave events until the next
//! multicast data packet arrives (or a freshness timer fires), then
//! performs one combined rekey. Aggregation means shared path segments
//! are refreshed once instead of once per event — the paper's Figure 6
//! example saves updates to `K_1` and `K_3` when `m_5` and `m_6` leave
//! together, and Section III reports 40–60% key-update savings overall.

use crate::error::TreeError;
use crate::plan::{RekeyPlan, UnicastKeys};
use crate::store::KeyStore;
use crate::tree::{NodeIdx, Tree};
use crate::MemberId;
use rand::RngCore;
use std::collections::BTreeSet;

/// Result of a batched rekey.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The combined rekey plan.
    pub plan: RekeyPlan,
    /// Members added in this batch.
    pub joined: Vec<MemberId>,
    /// Members removed in this batch.
    pub left: Vec<MemberId>,
}

impl<S: KeyStore> Tree<S> {
    /// Processes a batch of leave events as one rekey (Figure 6).
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAMember`] / [`TreeError::DuplicateInBatch`] on a
    /// bad member list; the tree is unmodified on error.
    pub fn batch_leave<R: RngCore + ?Sized>(
        &mut self,
        members: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, TreeError> {
        self.batch(&[], members, rng)
    }

    /// Processes a batch of join events as one rekey.
    ///
    /// Every newcomer receives its full key path by unicast; the single
    /// multicast refreshes the union of all affected paths once.
    ///
    /// # Errors
    ///
    /// [`TreeError::AlreadyMember`] / [`TreeError::DuplicateInBatch`] on
    /// a bad member list; the tree is unmodified on error.
    pub fn batch_join<R: RngCore + ?Sized>(
        &mut self,
        members: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, TreeError> {
        self.batch(members, &[], rng)
    }

    /// Processes aggregated joins and leaves as one rekey (the paper's
    /// "union of the join aggregation and leave aggregation procedures").
    ///
    /// Leavers are removed first so joiners can reuse their vacated
    /// leaves; all refreshed keys are distributed leave-style (encrypted
    /// under child keys) because departed members must not read them.
    ///
    /// # Errors
    ///
    /// Returns an error and leaves the tree unmodified when a joiner is
    /// already present, a leaver is absent, or any member appears twice.
    pub fn batch<R: RngCore + ?Sized>(
        &mut self,
        joins: &[MemberId],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, TreeError> {
        // Validate up front so errors cannot leave a half-applied batch.
        let mut seen = BTreeSet::new();
        for &m in joins.iter().chain(leaves) {
            if !seen.insert(m) {
                return Err(TreeError::DuplicateInBatch(m));
            }
        }
        for &m in joins {
            if self.contains(m) {
                return Err(TreeError::AlreadyMember(m));
            }
        }
        for &m in leaves {
            if !self.contains(m) {
                return Err(TreeError::NotAMember(m));
            }
        }

        let mut rekey_starts: Vec<NodeIdx> = Vec::with_capacity(joins.len() + leaves.len());

        // 1. Remove leavers, remembering where each rekey must start.
        for &m in leaves {
            // Validated above; a miss here is a planner bug surfaced as
            // a typed error rather than a panic in protocol code.
            let leaf = self
                .leaf_of(m)
                .map_err(|_| TreeError::Inconsistent("batch leaver vanished after validation"))?;
            if let Some(start) = self.remove_member(m, leaf) {
                rekey_starts.push(start);
            }
        }

        // 2. Place joiners (vacant leaves are preferred, so leave+join
        //    batches reuse slots — the Mykil keep-empty-leaf payoff).
        let mut displaced: BTreeSet<MemberId> = BTreeSet::new();
        let mut new_leaves = Vec::with_capacity(joins.len());
        for &m in joins {
            let (leaf, moved) = self.place_leaf(rng);
            self.occupy(leaf, m, rng);
            new_leaves.push((m, leaf));
            if let Some((dm, _)) = moved {
                displaced.insert(dm);
            }
            if let Some(p) = self.parent_of(leaf) {
                rekey_starts.push(p);
            }
        }

        // 3. One combined leave-style rekey over the union of paths.
        let mut plan = self.rekey_paths_leave_style(&rekey_starts, rng);

        // 4. Unicast full fresh paths to newcomers and displaced members.
        // The plan owns its key copies (it outlives this borrow of the
        // tree); each path is collected once, straight into the entry.
        for (m, _) in &new_leaves {
            let mut keys = Vec::new();
            self.path_keys_into(*m, &mut keys)
                .map_err(|_| TreeError::Inconsistent("just-placed member missing from tree"))?;
            plan.unicasts.push(UnicastKeys { member: *m, keys });
        }
        for m in displaced {
            // A member may be both displaced and a newcomer's neighbor;
            // skip if it already got a full path above.
            if new_leaves.iter().any(|(nm, _)| *nm == m) {
                continue;
            }
            let mut keys = Vec::new();
            self.path_keys_into(m, &mut keys)
                .map_err(|_| TreeError::Inconsistent("displaced member missing from tree"))?;
            plan.unicasts.push(UnicastKeys { member: m, keys });
        }

        Ok(BatchOutcome {
            plan,
            joined: joins.to_vec(),
            left: leaves.to_vec(),
        })
    }

    fn occupy<R: RngCore + ?Sized>(&mut self, leaf: NodeIdx, member: MemberId, rng: &mut R) {
        self.occupy_leaf(leaf, member, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{KeyTree, TreeConfig};
    use mykil_crypto::drbg::Drbg;

    fn tree_with(n: u64, cfg: TreeConfig, r: &mut Drbg) -> KeyTree {
        let mut t = KeyTree::new(cfg, r);
        for m in 0..n {
            t.join(MemberId(m), r).unwrap();
        }
        t
    }

    #[test]
    fn batch_leave_saves_shared_updates() {
        let mut r = Drbg::from_seed(1);
        // Figure 6 scenario: two siblings leave together.
        let mut batched = tree_with(16, TreeConfig::binary(), &mut r);
        let mut sequential = batched.clone();

        // Find two members whose leaves share a parent.
        let m_a = MemberId(4);
        let leaf_a = batched.leaf_of(m_a).unwrap();
        let parent = batched.path_to_root(leaf_a)[1];
        let sibling_leaf = batched
            .children_of(parent)
            .iter()
            .copied()
            .find(|&c| c != leaf_a && batched.occupant_of(c).is_some())
            .expect("full binary tree has occupied sibling");
        let m_b = batched.occupant_of(sibling_leaf).unwrap();

        let out = batched.batch_leave(&[m_a, m_b], &mut r).unwrap();
        let batched_bytes = out.plan.multicast_bytes();

        let p1 = sequential.leave(m_a, &mut r).unwrap();
        let p2 = sequential.leave(m_b, &mut r).unwrap();
        let sequential_bytes = p1.multicast_bytes() + p2.multicast_bytes();

        assert!(
            batched_bytes < sequential_bytes,
            "batched={batched_bytes} sequential={sequential_bytes}"
        );
        batched.check_invariants();
    }

    #[test]
    fn batch_leave_far_apart_members() {
        let mut r = Drbg::from_seed(2);
        let mut t = tree_with(64, TreeConfig::quad(), &mut r);
        let out = t
            .batch_leave(&[MemberId(0), MemberId(63)], &mut r)
            .unwrap();
        assert_eq!(t.member_count(), 62);
        assert_eq!(out.left.len(), 2);
        // Root appears exactly once among changes.
        let roots = out
            .plan
            .changes
            .iter()
            .filter(|c| c.node == t.root())
            .count();
        assert_eq!(roots, 1);
        t.check_invariants();
    }

    #[test]
    fn batch_join_single_multicast() {
        let mut r = Drbg::from_seed(3);
        let mut t = tree_with(10, TreeConfig::quad(), &mut r);
        let newcomers: Vec<MemberId> = (100..110).map(MemberId).collect();
        let out = t.batch_join(&newcomers, &mut r).unwrap();
        assert_eq!(t.member_count(), 20);
        assert!(out.plan.unicasts.len() >= 10);
        // Every newcomer got a full path ending at the root.
        for u in &out.plan.unicasts {
            assert_eq!(u.keys.last().unwrap().0, t.root());
            assert_eq!(u.keys.last().unwrap().1, t.area_key());
        }
        t.check_invariants();
    }

    #[test]
    fn mixed_batch_reuses_vacated_leaves() {
        let mut r = Drbg::from_seed(4);
        let mut t = tree_with(20, TreeConfig::quad(), &mut r);
        let nodes_before = t.node_count();
        let out = t
            .batch(
                &[MemberId(100), MemberId(101)],
                &[MemberId(3), MemberId(7)],
                &mut r,
            )
            .unwrap();
        assert_eq!(t.member_count(), 20);
        assert_eq!(t.node_count(), nodes_before, "joins must reuse vacated leaves");
        assert_eq!(out.joined.len(), 2);
        assert_eq!(out.left.len(), 2);
        t.check_invariants();
    }

    #[test]
    fn batch_validation_is_atomic() {
        let mut r = Drbg::from_seed(5);
        let mut t = tree_with(8, TreeConfig::quad(), &mut r);
        let before = t.member_count();
        // Leaver not present -> error, no change.
        assert!(matches!(
            t.batch(&[MemberId(100)], &[MemberId(999)], &mut r),
            Err(TreeError::NotAMember(MemberId(999)))
        ));
        assert_eq!(t.member_count(), before);
        assert!(!t.contains(MemberId(100)));
        // Duplicate across join and leave -> error.
        assert!(matches!(
            t.batch(&[MemberId(5)], &[MemberId(5)], &mut r),
            Err(TreeError::DuplicateInBatch(MemberId(5)))
        ));
        // Joiner already present -> error.
        assert!(matches!(
            t.batch(&[MemberId(3)], &[], &mut r),
            Err(TreeError::AlreadyMember(MemberId(3)))
        ));
        t.check_invariants();
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut r = Drbg::from_seed(6);
        let mut t = tree_with(4, TreeConfig::quad(), &mut r);
        let key_before = t.area_key();
        let out = t.batch(&[], &[], &mut r).unwrap();
        assert!(out.plan.is_empty());
        assert_eq!(t.area_key(), key_before);
    }

    #[test]
    fn batch_of_one_matches_leave_shape() {
        let mut r1 = Drbg::from_seed(7);
        let mut r2 = Drbg::from_seed(7);
        let mut t1 = tree_with(32, TreeConfig::binary(), &mut r1);
        let mut t2 = tree_with(32, TreeConfig::binary(), &mut r2);
        let single = t1.leave(MemberId(9), &mut r1).unwrap();
        let batched = t2.batch_leave(&[MemberId(9)], &mut r2).unwrap();
        assert_eq!(single.keys_changed(), batched.plan.keys_changed());
        assert_eq!(single.encryption_count(), batched.plan.encryption_count());
    }

    #[test]
    fn large_batch_scales() {
        let mut r = Drbg::from_seed(8);
        let mut t = tree_with(256, TreeConfig::quad(), &mut r);
        let leavers: Vec<MemberId> = (0..64).map(MemberId).collect();
        let out = t.batch_leave(&leavers, &mut r).unwrap();
        assert_eq!(t.member_count(), 192);
        // Aggregated cost must be far below 64 separate leaves
        // (64 * height * arity keys); sanity bound only.
        assert!(out.plan.keys_changed() < 64 * t.height() as usize);
        t.check_invariants();
    }
}
