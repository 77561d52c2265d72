//! The flat-LKH baseline (Wong/Gouda/Lam, SIGCOMM'98): one global
//! auxiliary-key tree over the entire group.
//!
//! Identical tree machinery to a Mykil area ([`mykil_tree::KeyTree`]),
//! but spanning all `n` members — so a leave touches `O(arity·log n)`
//! keys and the key server stores `O(n)` keys (the paper's 4 MB at
//! 100,000 members), and there is no tolerance to partitions.

use crate::traffic::RekeyTraffic;
use crate::KeyManager;
use mykil_tree::{KeyTree, MemberId, TreeConfig, KEY_LEN};
use rand::RngCore;

/// The global-tree key manager.
#[derive(Debug, Clone)]
pub struct FlatLkh {
    tree: KeyTree,
}

impl FlatLkh {
    /// Creates an empty LKH group.
    pub fn new<R: RngCore + ?Sized>(cfg: TreeConfig, rng: &mut R) -> FlatLkh {
        FlatLkh {
            tree: KeyTree::new(cfg, rng),
        }
    }

    /// The underlying tree (inspection).
    pub fn tree(&self) -> &KeyTree {
        &self.tree
    }
}

impl KeyManager for FlatLkh {
    fn join(&mut self, member: MemberId, rng: &mut dyn RngCore) -> RekeyTraffic {
        match self.tree.join(member, rng) {
            Ok(plan) => RekeyTraffic::from(&plan),
            Err(_) => RekeyTraffic::default(),
        }
    }

    fn leave(&mut self, member: MemberId, rng: &mut dyn RngCore) -> RekeyTraffic {
        match self.tree.leave(member, rng) {
            Ok(plan) => RekeyTraffic::from(&plan),
            Err(_) => RekeyTraffic::default(),
        }
    }

    fn batch_leave(&mut self, members: &[MemberId], rng: &mut dyn RngCore) -> RekeyTraffic {
        let present: Vec<MemberId> = members
            .iter()
            .copied()
            .filter(|m| self.tree.contains(*m))
            .collect();
        match self.tree.batch_leave(&present, rng) {
            Ok(out) => RekeyTraffic::from(&out.plan),
            Err(_) => RekeyTraffic::default(),
        }
    }

    fn member_count(&self) -> usize {
        self.tree.member_count()
    }

    fn member_storage_bytes(&self) -> u64 {
        // Path length ≈ height + 1 keys.
        (self.tree.height() as u64 + 1) * KEY_LEN as u64
    }

    fn controller_storage_bytes(&self) -> u64 {
        self.tree.node_count() as u64 * KEY_LEN as u64
    }

    fn name(&self) -> &'static str {
        "lkh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_crypto::drbg::Drbg;

    #[test]
    fn leave_cost_is_logarithmic() {
        let mut rng = Drbg::from_seed(1);
        let mut lkh = FlatLkh::new(TreeConfig::binary(), &mut rng);
        crate::populate(&mut lkh, 4096, &mut rng);
        let t = lkh.leave(MemberId(100), &mut rng);
        // Binary tree of 4096: height ~12, about 2 keys per level.
        let h = 12u64;
        assert!(t.multicast_bytes <= 2 * (h + 2) * 16, "{t:?}");
        assert!(t.multicast_bytes >= (h - 2) * 16, "{t:?}");
        assert_eq!(t.unicast_bytes, 0);
    }

    #[test]
    fn join_unicasts_path_to_newcomer() {
        let mut rng = Drbg::from_seed(2);
        let mut lkh = FlatLkh::new(TreeConfig::binary(), &mut rng);
        crate::populate(&mut lkh, 1024, &mut rng);
        let t = lkh.join(MemberId(5000), &mut rng);
        assert!(t.unicast_bytes >= 10 * 16, "{t:?}");
        assert!(t.multicast_bytes > 0);
    }

    #[test]
    fn controller_storage_scales_with_group() {
        let mut rng = Drbg::from_seed(3);
        let mut small = FlatLkh::new(TreeConfig::binary(), &mut rng);
        let mut large = FlatLkh::new(TreeConfig::binary(), &mut rng);
        crate::populate(&mut small, 100, &mut rng);
        crate::populate(&mut large, 2000, &mut rng);
        assert!(large.controller_storage_bytes() > 10 * small.controller_storage_bytes() / 2);
        // O(n) nodes in a binary tree (between ~1.2n and 3n depending
        // on the split pattern — the paper rounds to 2n).
        let nodes = large.tree().node_count() as u64;
        assert!((2400..=6000).contains(&nodes), "nodes={nodes}");
    }

    #[test]
    fn unknown_member_is_free() {
        let mut rng = Drbg::from_seed(4);
        let mut lkh = FlatLkh::new(TreeConfig::quad(), &mut rng);
        crate::populate(&mut lkh, 8, &mut rng);
        assert_eq!(lkh.leave(MemberId(99), &mut rng), RekeyTraffic::default());
    }
}
