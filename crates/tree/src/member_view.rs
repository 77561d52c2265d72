//! A member's view of the key tree: exactly the keys it can decrypt.
//!
//! [`MemberView`] models what one group member *knows*. It starts from a
//! unicast key path (join protocol step 7) and updates itself from
//! [`RekeyPlan`]s by the same rule a real client uses: a new key is
//! learned if and only if one of its encrypted copies is protected by a
//! key the member already holds.
//!
//! This makes the paper's security properties *executable*: forward
//! secrecy is "a departed member's view never learns the new area key",
//! backward secrecy is "a new member's view holds no pre-join key" —
//! both are asserted in this crate's tests and in the workspace
//! integration suite.

use crate::plan::{RekeyPlan, UnicastKeys};
use crate::tree::NodeIdx;
use crate::MemberId;
use mykil_crypto::keys::SymmetricKey;
use std::collections::{BTreeMap, BTreeSet};

/// The set of tree keys one member currently holds.
#[derive(Debug, Clone)]
pub struct MemberView {
    member: MemberId,
    keys: BTreeMap<NodeIdx, SymmetricKey>,
}

impl MemberView {
    /// Creates an empty view for `member`.
    pub fn new(member: MemberId) -> Self {
        MemberView {
            member,
            keys: BTreeMap::new(),
        }
    }

    /// Builds a view from a unicast key delivery (join step 7 / rejoin
    /// step 6 of the paper).
    pub fn from_unicast(unicast: &UnicastKeys) -> Self {
        let mut v = MemberView::new(unicast.member);
        v.apply_unicast(unicast);
        v
    }

    /// The member this view belongs to.
    pub fn member(&self) -> MemberId {
        self.member
    }

    /// Installs unicast keys (they arrive authenticated and encrypted to
    /// this member, so they are learned unconditionally).
    pub fn apply_unicast(&mut self, unicast: &UnicastKeys) {
        debug_assert_eq!(unicast.member, self.member, "unicast for someone else");
        for (node, key) in &unicast.keys {
            self.keys.insert(*node, key.clone());
        }
    }

    /// Processes a multicast rekey message: learns each changed key for
    /// which the member holds a protecting key. Returns how many keys
    /// were learned.
    ///
    /// Changes are processed deepest-first (the order plans are built
    /// in), so a parent protected by a child's *new* key is learnable in
    /// one pass, exactly like the real wire message.
    pub fn apply_plan(&mut self, plan: &RekeyPlan) -> usize {
        let mut known: BTreeSet<[u8; 16]> = self.keys.values().map(|k| *k.as_bytes()).collect();
        let mut learned = 0;
        for change in &plan.changes {
            let decryptable = change
                .encryptions
                .iter()
                .any(|(_, under)| known.contains(under.as_bytes()));
            if decryptable {
                self.keys.insert(change.node, change.new_key.clone());
                known.insert(*change.new_key.as_bytes());
                learned += 1;
            }
        }
        learned
    }

    /// The key this member holds for `node`, if any.
    pub fn key(&self, node: NodeIdx) -> Option<SymmetricKey> {
        self.keys.get(&node).cloned()
    }

    /// Whether the member holds `key` for any node.
    pub fn holds(&self, key: &SymmetricKey) -> bool {
        self.keys.values().any(|k| k == key)
    }

    /// Number of keys stored (the member-storage metric of Section V-A).
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Storage in bytes for symmetric key material.
    pub fn storage_bytes(&self) -> usize {
        self.keys.len() * crate::KEY_LEN
    }

    /// Drops all keys (member left or was evicted).
    pub fn clear(&mut self) {
        self.keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{KeyTree, TreeConfig};
    use mykil_crypto::drbg::Drbg;

    /// Builds a tree and a live view per member, mirroring the real
    /// distribution flow: each join's plan is applied to every existing
    /// view, and the newcomer's view is built from its unicast.
    fn build(n: u64, cfg: TreeConfig, r: &mut Drbg) -> (KeyTree, BTreeMap<MemberId, MemberView>) {
        let mut tree = KeyTree::new(cfg, r);
        let mut views: BTreeMap<MemberId, MemberView> = BTreeMap::new();
        for m in 0..n {
            let plan = tree.join(MemberId(m), r).unwrap();
            for v in views.values_mut() {
                v.apply_plan(&plan);
            }
            for u in &plan.unicasts {
                views
                    .entry(u.member)
                    .or_insert_with(|| MemberView::new(u.member))
                    .apply_unicast(u);
            }
        }
        (tree, views)
    }

    #[test]
    fn all_members_track_area_key_through_joins() {
        let mut r = Drbg::from_seed(1);
        let (tree, views) = build(25, TreeConfig::quad(), &mut r);
        for (m, v) in &views {
            assert_eq!(
                v.key(tree.root()),
                Some(tree.area_key()),
                "{m} lost the area key"
            );
        }
    }

    #[test]
    fn views_match_tree_paths() {
        let mut r = Drbg::from_seed(2);
        let (tree, views) = build(25, TreeConfig::quad(), &mut r);
        let mut path = Vec::new();
        for (m, v) in &views {
            tree.path_keys_into(*m, &mut path).unwrap();
            for (node, key) in path.drain(..) {
                assert_eq!(v.key(node), Some(key), "{m} stale at {node}");
            }
        }
    }

    #[test]
    fn forward_secrecy_on_leave() {
        let mut r = Drbg::from_seed(3);
        let (mut tree, mut views) = build(16, TreeConfig::binary(), &mut r);
        let departed = MemberId(5);
        let plan = tree.leave(departed, &mut r).unwrap();
        let departed_view = views.remove(&departed).unwrap();

        // The departed member learns nothing from the rekey multicast.
        let mut dv = departed_view.clone();
        assert_eq!(dv.apply_plan(&plan), 0, "forward secrecy violated");
        assert_ne!(dv.key(tree.root()), Some(tree.area_key()));

        // Every remaining member learns the new area key.
        for (m, v) in views.iter_mut() {
            v.apply_plan(&plan);
            assert_eq!(
                v.key(tree.root()),
                Some(tree.area_key()),
                "{m} missed the rekey"
            );
        }
    }

    #[test]
    fn backward_secrecy_on_join() {
        let mut r = Drbg::from_seed(4);
        let (mut tree, _views) = build(16, TreeConfig::binary(), &mut r);
        let old_area_key = tree.area_key();
        let plan = tree.join(MemberId(99), &mut r).unwrap();
        let newcomer = plan
            .unicasts
            .iter()
            .find(|u| u.member == MemberId(99))
            .unwrap();
        let nv = MemberView::from_unicast(newcomer);
        assert!(
            !nv.holds(&old_area_key),
            "backward secrecy violated: newcomer holds old area key"
        );
        assert_eq!(nv.key(tree.root()), Some(tree.area_key()));
    }

    #[test]
    fn batch_leave_preserves_both_secrecy_directions() {
        let mut r = Drbg::from_seed(5);
        let (mut tree, mut views) = build(32, TreeConfig::quad(), &mut r);
        let leavers = [MemberId(2), MemberId(3), MemberId(17)];
        let out = tree.batch_leave(&leavers, &mut r).unwrap();
        for m in leavers {
            let mut v = views.remove(&m).unwrap();
            assert_eq!(v.apply_plan(&out.plan), 0, "{m} learned from batch rekey");
        }
        for (m, v) in views.iter_mut() {
            v.apply_plan(&out.plan);
            assert_eq!(
                v.key(tree.root()),
                Some(tree.area_key()),
                "{m} missed batch rekey"
            );
        }
    }

    #[test]
    fn displaced_member_stays_current_through_split() {
        let mut r = Drbg::from_seed(6);
        // Fill one quad level exactly, then force a split.
        let (mut tree, mut views) = build(4, TreeConfig::quad(), &mut r);
        let plan = tree.join(MemberId(100), &mut r).unwrap();
        for v in views.values_mut() {
            v.apply_plan(&plan);
        }
        for u in &plan.unicasts {
            views
                .entry(u.member)
                .or_insert_with(|| MemberView::new(u.member))
                .apply_unicast(u);
        }
        let mut path = Vec::new();
        for (m, v) in &views {
            tree.path_keys_into(*m, &mut path).unwrap();
            for (node, key) in path.drain(..) {
                assert_eq!(v.key(node), Some(key), "{m} stale at {node} after split");
            }
        }
    }

    #[test]
    fn storage_accounting() {
        let mut r = Drbg::from_seed(7);
        let (tree, views) = build(64, TreeConfig::quad(), &mut r);
        let v = &views[&MemberId(0)];
        assert_eq!(v.storage_bytes(), v.key_count() * 16);
        // Path length = keys stored (leaf..root).
        let mut path = Vec::new();
        tree.path_keys_into(MemberId(0), &mut path).unwrap();
        assert!(v.key_count() >= path.len());
    }

    #[test]
    fn clear_empties_view() {
        let mut v = MemberView::new(MemberId(1));
        v.apply_unicast(&UnicastKeys {
            member: MemberId(1),
            keys: vec![(NodeIdx::from_raw(0), SymmetricKey::from_label("x"))],
        });
        assert_eq!(v.key_count(), 1);
        v.clear();
        assert_eq!(v.key_count(), 0);
        assert_eq!(v.member(), MemberId(1));
    }
}
