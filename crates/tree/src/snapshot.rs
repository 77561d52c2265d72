//! Tree snapshots for area-controller replication.
//!
//! Section IV-C of the paper: a Mykil area controller is replicated with
//! a primary-backup scheme, and the replicated state includes "the
//! complete auxiliary tree". [`Tree::snapshot`] serializes exactly that
//! state; [`Tree::restore`] rebuilds a tree a backup can take over with.
//!
//! Two formats exist, one per backend, distinguished by a 4-byte magic
//! that the [`KeyStore`] writes and checks:
//!
//! - `MKT1` ([`crate::KeyTree`]): structure, per-node key bytes,
//!   versions, occupancy — byte-for-byte the original format.
//! - `MKH1` ([`crate::KhfTree`]): structure, versions, occupancy, then
//!   the 32-byte forest secret and the override table. Derived keys are
//!   never serialized; the backup re-derives them, so the snapshot is
//!   O(updated set) like the resident state. Per-node `version`
//!   counters travel in both formats — a restored replica that reset
//!   them would derive stale `(node, version)` keys and desynchronize
//!   from the members.
//!
//! [`Tree::restore`] is the one decoder for every store: a
//! single-backend store accepts only its own magic, while
//! [`crate::AreaKeys`] accepts either and runs the backend the image
//! names, so replicated state moves between controllers regardless of
//! backend.

use crate::store::KeyStore;
use crate::tree::Tree;
use crate::MemberId;
use std::fmt;

/// Error returned by [`Tree::restore`] on corrupt input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(&'static str);

impl SnapshotError {
    pub(crate) fn new(what: &'static str) -> SnapshotError {
        SnapshotError(what)
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt tree snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        let (&b, rest) = self.0.split_first().ok_or(SnapshotError("truncated"))?;
        self.0 = rest;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        if self.0.len() < 8 {
            return Err(SnapshotError("truncated"));
        }
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        let arr: [u8; 8] = head.try_into().map_err(|_| SnapshotError("truncated"))?;
        Ok(u64::from_be_bytes(arr))
    }
}

impl<S: KeyStore> Tree<S> {
    /// Serializes the complete tree (structure, key state, versions,
    /// occupancy) for transfer to a backup controller.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.node_count() * 40 + 16);
        out.extend_from_slice(self.store().snapshot_magic());
        out.push(self.config().arity() as u8);
        out.extend_from_slice(&(self.node_count() as u64).to_be_bytes());
        for i in 0..self.node_count() {
            let node = crate::tree::NodeIdx::from_raw(i);
            let parent = self.parent_of(node);
            out.extend_from_slice(
                &(parent.map(|p| p.raw() as u64 + 1).unwrap_or(0)).to_be_bytes(),
            );
            self.store().snapshot_node(i, &mut out);
            out.extend_from_slice(&self.version_of(node).to_be_bytes());
            match self.occupant_of(node) {
                Some(m) => {
                    out.push(1);
                    out.extend_from_slice(&m.0.to_be_bytes());
                }
                None => out.push(0),
            }
        }
        self.store().snapshot_tail(&mut out);
        out
    }

    /// Rebuilds a tree from [`Self::snapshot`] output whose format `S`
    /// reads: its own backend's for [`crate::KeyTree`] and
    /// [`crate::KhfTree`], either backend's for [`crate::AreaTree`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncated or malformed input, or on
    /// a magic `S` does not read.
    pub fn restore(bytes: &[u8]) -> Result<Tree<S>, SnapshotError> {
        let (magic, body) = bytes
            .split_at_checked(4)
            .ok_or(SnapshotError("bad magic"))?;
        let mut r = Reader(body);
        let arity = r.u8()? as usize;
        if !(2..=16).contains(&arity) {
            return Err(SnapshotError("bad arity"));
        }
        let count = r.u64()? as usize;
        if count == 0 {
            return Err(SnapshotError("no root"));
        }
        // Bound allocation by what the input can actually hold: every
        // node costs at least 17 bytes (parent u64, version u64, and an
        // occupancy tag), so a claimed count past that is a lie and
        // must not reach `Vec::with_capacity`.
        if count > r.0.len() / 17 {
            return Err(SnapshotError("node count exceeds input"));
        }
        let store = S::restore_shell(magic, count).ok_or(SnapshotError("bad magic"))?;
        let mut tree = Tree::restore_shell(arity, store, count);
        for i in 0..count {
            let parent_raw = r.u64()?;
            let parent = if parent_raw == 0 {
                None
            } else {
                let p = parent_raw as usize - 1;
                if p >= i {
                    return Err(SnapshotError("parent after child"));
                }
                Some(crate::tree::NodeIdx::from_raw(p))
            };
            if (parent.is_none()) != (i == 0) {
                return Err(SnapshotError("root/parent mismatch"));
            }
            tree.store_mut()
                .restore_node(i, parent.map(|p| p.raw()), &mut r.0)
                .map_err(SnapshotError::new)?;
            let version = r.u64()?;
            let occupant = match r.u8()? {
                0 => None,
                1 => Some(MemberId(r.u64()?)),
                _ => return Err(SnapshotError("bad occupancy tag")),
            };
            tree.restore_node(i, parent, version, occupant)
                .map_err(|_| SnapshotError("inconsistent node"))?;
        }
        tree.store_mut()
            .restore_tail(count, &mut r.0)
            .map_err(SnapshotError::new)?;
        if !r.0.is_empty() {
            return Err(SnapshotError("trailing bytes"));
        }
        if tree.has_interior_occupant() {
            return Err(SnapshotError("occupant on interior node"));
        }
        tree.rebuild_indices();
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{KeyTree, KhfTree, TreeConfig};
    use mykil_crypto::drbg::Drbg;

    fn sample_tree(n: u64) -> KeyTree {
        let mut rng = Drbg::from_seed(9);
        let mut t = KeyTree::new(TreeConfig::quad(), &mut rng);
        for m in 0..n {
            t.join(MemberId(m), &mut rng).unwrap();
        }
        for m in [1u64, 4, 9] {
            if m < n {
                t.leave(MemberId(m), &mut rng).unwrap();
            }
        }
        t
    }

    fn sample_khf(n: u64) -> KhfTree {
        let mut rng = Drbg::from_seed(9);
        let mut t = KhfTree::new(TreeConfig::quad(), &mut rng);
        for m in 0..n {
            t.join(MemberId(m), &mut rng).unwrap();
        }
        for m in [1u64, 4, 9] {
            if m < n {
                t.leave(MemberId(m), &mut rng).unwrap();
            }
        }
        t
    }

    fn paths_equal<S: KeyStore>(a: &Tree<S>, b: &Tree<S>) {
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for m in a.members() {
            assert!(b.contains(m));
            a.path_keys_into(m, &mut pa).unwrap();
            b.path_keys_into(m, &mut pb).unwrap();
            assert_eq!(pa, pb, "{m} path differs");
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let tree = sample_tree(30);
        let restored = KeyTree::restore(&tree.snapshot()).unwrap();
        restored.check_invariants();
        assert_eq!(restored.node_count(), tree.node_count());
        assert_eq!(restored.member_count(), tree.member_count());
        assert_eq!(restored.area_key(), tree.area_key());
        paths_equal(&tree, &restored);
    }

    #[test]
    fn khf_round_trip_preserves_everything() {
        let tree = sample_khf(30);
        let restored = KhfTree::restore(&tree.snapshot()).unwrap();
        restored.check_invariants();
        assert_eq!(restored.node_count(), tree.node_count());
        assert_eq!(restored.member_count(), tree.member_count());
        assert_eq!(restored.node_key(tree.root()), tree.node_key(tree.root()));
        assert_eq!(
            restored.store().override_count(),
            tree.store().override_count()
        );
        for i in 0..tree.node_count() {
            let n = crate::tree::NodeIdx::from_raw(i);
            assert_eq!(restored.version_of(n), tree.version_of(n), "{n} version");
        }
        paths_equal(&tree, &restored);
    }

    #[test]
    fn khf_snapshot_is_compact() {
        let tree = sample_khf(200);
        let explicit = sample_tree(200);
        // No per-node key bytes: the KHF image is 16 bytes/node smaller,
        // minus the forest secret and the (small) override table.
        assert!(
            tree.snapshot().len() < explicit.snapshot().len(),
            "khf {} explicit {}",
            tree.snapshot().len(),
            explicit.snapshot().len()
        );
    }

    #[test]
    fn restored_tree_is_operable() {
        let tree = sample_tree(20);
        let mut rng = Drbg::from_seed(10);
        let mut restored = KeyTree::restore(&tree.snapshot()).unwrap();
        // The backup can continue where the primary stopped.
        restored.join(MemberId(1000), &mut rng).unwrap();
        restored.leave(MemberId(0), &mut rng).unwrap();
        restored.check_invariants();
        assert_eq!(restored.member_count(), tree.member_count());
    }

    #[test]
    fn restored_khf_tree_is_operable() {
        let tree = sample_khf(20);
        let mut rng = Drbg::from_seed(10);
        let mut restored = KhfTree::restore(&tree.snapshot()).unwrap();
        restored.join(MemberId(1000), &mut rng).unwrap();
        restored.leave(MemberId(0), &mut rng).unwrap();
        restored.check_invariants();
        assert_eq!(restored.member_count(), tree.member_count());
    }

    #[test]
    fn empty_tree_round_trips() {
        let mut rng = Drbg::from_seed(11);
        let tree = KeyTree::new(TreeConfig::binary(), &mut rng);
        let restored = KeyTree::restore(&tree.snapshot()).unwrap();
        restored.check_invariants();
        assert_eq!(restored.node_count(), 1);
        assert_eq!(restored.area_key(), tree.area_key());
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        let tree = sample_tree(10);
        let snap = tree.snapshot();
        assert!(KeyTree::restore(&[]).is_err());
        assert!(KeyTree::restore(b"XXXX").is_err());
        assert!(KeyTree::restore(&snap[..snap.len() - 1]).is_err());
        let mut extra = snap.clone();
        extra.push(0);
        assert!(KeyTree::restore(&extra).is_err());
        let mut bad_magic = snap.clone();
        bad_magic[0] = b'Z';
        assert!(KeyTree::restore(&bad_magic).is_err());
    }

    #[test]
    fn corrupt_khf_snapshots_rejected() {
        let tree = sample_khf(10);
        let snap = tree.snapshot();
        assert!(KhfTree::restore(&snap[..snap.len() - 1]).is_err());
        let mut extra = snap.clone();
        extra.push(0);
        assert!(KhfTree::restore(&extra).is_err());
        // One backend's image does not restore as the other's.
        assert!(KeyTree::restore(&snap).is_err());
        assert!(KhfTree::restore(&sample_tree(10).snapshot()).is_err());
    }

    #[test]
    fn snapshot_is_deterministic() {
        let tree = sample_tree(15);
        assert_eq!(tree.snapshot(), tree.snapshot());
        let restored = KeyTree::restore(&tree.snapshot()).unwrap();
        assert_eq!(restored.snapshot(), tree.snapshot());
        let khf = sample_khf(15);
        assert_eq!(khf.snapshot(), khf.snapshot());
        let restored = KhfTree::restore(&khf.snapshot()).unwrap();
        assert_eq!(restored.snapshot(), khf.snapshot());
    }
}
