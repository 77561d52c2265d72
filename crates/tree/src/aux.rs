//! The backend-independent auxiliary-tree surface.
//!
//! [`AuxTree`] is the trait the rest of the workspace actually consumes
//! from a key tree: the area key, member paths, join/leave/batch
//! planning, snapshot/restore and the invariant checker. Both concrete
//! backends ([`KeyTree`], [`KhfTree`]) implement it through one blanket
//! impl, so generic code (the equivalence proptests, the perf gate) is
//! written once.
//!
//! [`AreaTree`] is the runtime-selected form an area controller holds:
//! a two-variant enum dispatching to whichever backend
//! [`TreeConfig::backend`] selected, with [`AreaTree::restore`]
//! dispatching on the snapshot magic so replicated state round-trips
//! regardless of backend.

use crate::batch::BatchOutcome;
use crate::error::TreeError;
use crate::plan::RekeyPlan;
use crate::snapshot::SnapshotError;
use crate::store::{ExplicitKeys, KeyStore, KhfKeys};
use crate::tree::{KeyTree, KhfTree, NodeIdx, Tree, TreeBackend, TreeConfig};
use crate::MemberId;
use mykil_crypto::keys::SymmetricKey;
use rand::RngCore;

/// What every auxiliary-tree backend provides (the surface `rekey`,
/// `batch`, `snapshot` and the member-view machinery consume).
///
/// Keys are returned owned: a derivation backend computes them on
/// demand and has nothing to borrow. Explicit trees additionally offer
/// borrowed accessors ([`KeyTree::area_key`], [`KeyTree::key_of`],
/// [`KeyTree::path_key_refs`]) as inherent methods.
pub trait AuxTree {
    /// The tree configuration.
    fn config(&self) -> TreeConfig;
    /// Number of members currently in the tree.
    fn member_count(&self) -> usize;
    /// Total nodes ever allocated.
    fn node_count(&self) -> usize;
    /// Height of the tree (root = 0).
    fn height(&self) -> u32;
    /// The root index (whose key is the area key).
    fn root(&self) -> NodeIdx;
    /// Whether the member is present.
    fn contains(&self, member: MemberId) -> bool;
    /// The leaf associated with a member.
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAMember`] when absent.
    fn leaf_of(&self, member: MemberId) -> Result<NodeIdx, TreeError>;
    /// The current area key, owned.
    fn area_key(&self) -> SymmetricKey;
    /// Current key of a node, owned.
    fn node_key(&self, node: NodeIdx) -> SymmetricKey;
    /// Version counter of a node's key.
    fn version_of(&self, node: NodeIdx) -> u64;
    /// Collects the member's path keys into `out` (leaf first).
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAMember`] when absent.
    fn path_keys_into(
        &self,
        member: MemberId,
        out: &mut Vec<(NodeIdx, SymmetricKey)>,
    ) -> Result<(), TreeError>;
    /// Adds a member (Figure 4 rekey plan).
    ///
    /// # Errors
    ///
    /// [`TreeError::AlreadyMember`] when present.
    fn join<R: RngCore + ?Sized>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyPlan, TreeError>;
    /// Removes a member (Figure 5 rekey plan).
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAMember`] when absent.
    fn leave<R: RngCore + ?Sized>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyPlan, TreeError>;
    /// Aggregated joins and leaves as one rekey (Figure 6).
    ///
    /// # Errors
    ///
    /// See [`Tree::batch`]; the tree is unmodified on validation errors.
    fn batch<R: RngCore + ?Sized>(
        &mut self,
        joins: &[MemberId],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, TreeError>;
    /// Rotates only the area key (the periodic freshness rekey).
    fn rotate_area_key<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> RekeyPlan;
    /// Serializes the tree for replication.
    fn snapshot(&self) -> Vec<u8>;
    /// Bytes of key material resident in controller memory.
    fn resident_key_bytes(&self) -> usize;
    /// Panics with a description when an internal invariant is violated.
    fn check_invariants(&self);
}

impl<S: KeyStore> AuxTree for Tree<S> {
    fn config(&self) -> TreeConfig {
        Tree::config(self)
    }

    fn member_count(&self) -> usize {
        Tree::member_count(self)
    }

    fn node_count(&self) -> usize {
        Tree::node_count(self)
    }

    fn height(&self) -> u32 {
        Tree::height(self)
    }

    fn root(&self) -> NodeIdx {
        Tree::root(self)
    }

    fn contains(&self, member: MemberId) -> bool {
        Tree::contains(self, member)
    }

    fn leaf_of(&self, member: MemberId) -> Result<NodeIdx, TreeError> {
        Tree::leaf_of(self, member)
    }

    fn area_key(&self) -> SymmetricKey {
        self.node_key(NodeIdx::from_raw(0))
    }

    fn node_key(&self, node: NodeIdx) -> SymmetricKey {
        Tree::node_key(self, node)
    }

    fn version_of(&self, node: NodeIdx) -> u64 {
        Tree::version_of(self, node)
    }

    fn path_keys_into(
        &self,
        member: MemberId,
        out: &mut Vec<(NodeIdx, SymmetricKey)>,
    ) -> Result<(), TreeError> {
        Tree::path_keys_into(self, member, out)
    }

    fn join<R: RngCore + ?Sized>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyPlan, TreeError> {
        Tree::join(self, member, rng)
    }

    fn leave<R: RngCore + ?Sized>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyPlan, TreeError> {
        Tree::leave(self, member, rng)
    }

    fn batch<R: RngCore + ?Sized>(
        &mut self,
        joins: &[MemberId],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, TreeError> {
        Tree::batch(self, joins, leaves, rng)
    }

    fn rotate_area_key<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> RekeyPlan {
        Tree::rotate_area_key(self, rng)
    }

    fn snapshot(&self) -> Vec<u8> {
        Tree::snapshot(self)
    }

    fn resident_key_bytes(&self) -> usize {
        Tree::resident_key_bytes(self)
    }

    fn check_invariants(&self) {
        Tree::check_invariants(self)
    }
}

/// An area's tree with the backend chosen at runtime (from
/// [`TreeConfig::backend`]), as held by an area controller.
///
/// Every method delegates to the selected backend; plans, wire
/// encodings and placement decisions are identical across backends —
/// only key values (and the controller's storage bill) differ.
#[derive(Debug, Clone)]
pub enum AreaTree {
    /// Every key stored explicitly (the paper's design).
    Explicit(KeyTree),
    /// Keyed-hash-forest derivation; O(updated set) resident key bytes.
    Khf(KhfTree),
}

macro_rules! delegate {
    ($self:ident, $tree:ident => $body:expr) => {
        match $self {
            AreaTree::Explicit($tree) => $body,
            AreaTree::Khf($tree) => $body,
        }
    };
}

impl AreaTree {
    /// Creates a tree of the backend `cfg.backend()` selects.
    pub fn new<R: RngCore + ?Sized>(cfg: TreeConfig, rng: &mut R) -> AreaTree {
        match cfg.backend() {
            TreeBackend::Explicit => AreaTree::Explicit(KeyTree::new(cfg, rng)),
            TreeBackend::Khf => AreaTree::Khf(KhfTree::new(cfg, rng)),
        }
    }

    /// Which backend this tree runs.
    pub fn backend(&self) -> TreeBackend {
        match self {
            AreaTree::Explicit(_) => TreeBackend::Explicit,
            AreaTree::Khf(_) => TreeBackend::Khf,
        }
    }

    /// Rebuilds a tree from [`AuxTree::snapshot`] output of either
    /// backend, dispatching on the 4-byte magic.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncated or malformed input.
    pub fn restore(bytes: &[u8]) -> Result<AreaTree, SnapshotError> {
        match bytes.get(..4) {
            Some(m) if m == ExplicitKeys::SNAPSHOT_MAGIC => {
                Ok(AreaTree::Explicit(KeyTree::restore(bytes)?))
            }
            Some(m) if m == KhfKeys::SNAPSHOT_MAGIC => Ok(AreaTree::Khf(KhfTree::restore(bytes)?)),
            _ => Err(SnapshotError::new("bad magic")),
        }
    }

    /// See [`AuxTree::config`].
    pub fn config(&self) -> TreeConfig {
        delegate!(self, t => t.config())
    }

    /// See [`AuxTree::member_count`].
    pub fn member_count(&self) -> usize {
        delegate!(self, t => t.member_count())
    }

    /// See [`AuxTree::node_count`].
    pub fn node_count(&self) -> usize {
        delegate!(self, t => t.node_count())
    }

    /// See [`AuxTree::height`].
    pub fn height(&self) -> u32 {
        delegate!(self, t => t.height())
    }

    /// See [`AuxTree::root`].
    pub fn root(&self) -> NodeIdx {
        NodeIdx::from_raw(0)
    }

    /// See [`AuxTree::contains`].
    pub fn contains(&self, member: MemberId) -> bool {
        delegate!(self, t => t.contains(member))
    }

    /// Iterates over current members in deterministic order.
    pub fn members(&self) -> impl Iterator<Item = MemberId> + '_ {
        // The two backends' `members()` are distinct opaque types; a
        // collected Vec keeps the signature allocation-simple here
        // (member enumeration is not on a hot path).
        let v: Vec<MemberId> = delegate!(self, t => t.members().collect());
        v.into_iter()
    }

    /// See [`AuxTree::leaf_of`].
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAMember`] when absent.
    pub fn leaf_of(&self, member: MemberId) -> Result<NodeIdx, TreeError> {
        delegate!(self, t => t.leaf_of(member))
    }

    /// The current area key, owned.
    pub fn area_key(&self) -> SymmetricKey {
        self.node_key(NodeIdx::from_raw(0))
    }

    /// See [`AuxTree::node_key`].
    pub fn node_key(&self, node: NodeIdx) -> SymmetricKey {
        delegate!(self, t => t.node_key(node))
    }

    /// See [`AuxTree::version_of`].
    pub fn version_of(&self, node: NodeIdx) -> u64 {
        delegate!(self, t => t.version_of(node))
    }

    /// See [`AuxTree::path_keys_into`].
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAMember`] when absent.
    pub fn path_keys_into(
        &self,
        member: MemberId,
        out: &mut Vec<(NodeIdx, SymmetricKey)>,
    ) -> Result<(), TreeError> {
        delegate!(self, t => t.path_keys_into(member, out))
    }

    /// See [`AuxTree::join`].
    ///
    /// # Errors
    ///
    /// [`TreeError::AlreadyMember`] when present.
    pub fn join<R: RngCore + ?Sized>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyPlan, TreeError> {
        delegate!(self, t => t.join(member, rng))
    }

    /// See [`AuxTree::leave`].
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAMember`] when absent.
    pub fn leave<R: RngCore + ?Sized>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyPlan, TreeError> {
        delegate!(self, t => t.leave(member, rng))
    }

    /// See [`AuxTree::batch`].
    ///
    /// # Errors
    ///
    /// See [`Tree::batch`]; the tree is unmodified on validation errors.
    pub fn batch<R: RngCore + ?Sized>(
        &mut self,
        joins: &[MemberId],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, TreeError> {
        delegate!(self, t => t.batch(joins, leaves, rng))
    }

    /// Processes a batch of leave events as one rekey.
    ///
    /// # Errors
    ///
    /// See [`Tree::batch_leave`].
    pub fn batch_leave<R: RngCore + ?Sized>(
        &mut self,
        members: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, TreeError> {
        delegate!(self, t => t.batch_leave(members, rng))
    }

    /// Processes a batch of join events as one rekey.
    ///
    /// # Errors
    ///
    /// See [`Tree::batch_join`].
    pub fn batch_join<R: RngCore + ?Sized>(
        &mut self,
        members: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, TreeError> {
        delegate!(self, t => t.batch_join(members, rng))
    }

    /// See [`AuxTree::rotate_area_key`].
    pub fn rotate_area_key<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> RekeyPlan {
        delegate!(self, t => t.rotate_area_key(rng))
    }

    /// See [`AuxTree::snapshot`].
    pub fn snapshot(&self) -> Vec<u8> {
        delegate!(self, t => t.snapshot())
    }

    /// See [`AuxTree::resident_key_bytes`].
    pub fn resident_key_bytes(&self) -> usize {
        delegate!(self, t => t.resident_key_bytes())
    }

    /// See [`AuxTree::check_invariants`].
    pub fn check_invariants(&self) {
        delegate!(self, t => t.check_invariants())
    }

    /// Renders the tree in Graphviz `dot` syntax (structure only; see
    /// [`Tree::to_dot`]).
    pub fn to_dot(&self) -> String {
        delegate!(self, t => t.to_dot())
    }
}

impl AuxTree for AreaTree {
    fn config(&self) -> TreeConfig {
        AreaTree::config(self)
    }

    fn member_count(&self) -> usize {
        AreaTree::member_count(self)
    }

    fn node_count(&self) -> usize {
        AreaTree::node_count(self)
    }

    fn height(&self) -> u32 {
        AreaTree::height(self)
    }

    fn root(&self) -> NodeIdx {
        AreaTree::root(self)
    }

    fn contains(&self, member: MemberId) -> bool {
        AreaTree::contains(self, member)
    }

    fn leaf_of(&self, member: MemberId) -> Result<NodeIdx, TreeError> {
        AreaTree::leaf_of(self, member)
    }

    fn area_key(&self) -> SymmetricKey {
        AreaTree::area_key(self)
    }

    fn node_key(&self, node: NodeIdx) -> SymmetricKey {
        AreaTree::node_key(self, node)
    }

    fn version_of(&self, node: NodeIdx) -> u64 {
        AreaTree::version_of(self, node)
    }

    fn path_keys_into(
        &self,
        member: MemberId,
        out: &mut Vec<(NodeIdx, SymmetricKey)>,
    ) -> Result<(), TreeError> {
        AreaTree::path_keys_into(self, member, out)
    }

    fn join<R: RngCore + ?Sized>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyPlan, TreeError> {
        AreaTree::join(self, member, rng)
    }

    fn leave<R: RngCore + ?Sized>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyPlan, TreeError> {
        AreaTree::leave(self, member, rng)
    }

    fn batch<R: RngCore + ?Sized>(
        &mut self,
        joins: &[MemberId],
        leaves: &[MemberId],
        rng: &mut R,
    ) -> Result<BatchOutcome, TreeError> {
        AreaTree::batch(self, joins, leaves, rng)
    }

    fn rotate_area_key<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> RekeyPlan {
        AreaTree::rotate_area_key(self, rng)
    }

    fn snapshot(&self) -> Vec<u8> {
        AreaTree::snapshot(self)
    }

    fn resident_key_bytes(&self) -> usize {
        AreaTree::resident_key_bytes(self)
    }

    fn check_invariants(&self) {
        AreaTree::check_invariants(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_crypto::drbg::Drbg;

    #[test]
    fn backend_selection_follows_config() {
        let mut rng = Drbg::from_seed(1);
        let explicit = AreaTree::new(TreeConfig::quad(), &mut rng);
        assert_eq!(explicit.backend(), TreeBackend::Explicit);
        let khf = AreaTree::new(TreeConfig::quad().with_backend(TreeBackend::Khf), &mut rng);
        assert_eq!(khf.backend(), TreeBackend::Khf);
    }

    #[test]
    fn restore_dispatches_on_magic() {
        let mut rng = Drbg::from_seed(2);
        for backend in [TreeBackend::Explicit, TreeBackend::Khf] {
            let mut t = AreaTree::new(TreeConfig::quad().with_backend(backend), &mut rng);
            for m in 0..12 {
                t.join(MemberId(m), &mut rng).unwrap();
            }
            t.leave(MemberId(3), &mut rng).unwrap();
            let restored = AreaTree::restore(&t.snapshot()).unwrap();
            assert_eq!(restored.backend(), backend);
            assert_eq!(restored.member_count(), t.member_count());
            assert_eq!(restored.area_key(), t.area_key());
            restored.check_invariants();
        }
        assert!(AreaTree::restore(b"ZZZZrest").is_err());
        assert!(AreaTree::restore(b"").is_err());
    }

    #[test]
    fn generic_code_runs_on_both_backends() {
        fn churn<T: AuxTree>(tree: &mut T, rng: &mut Drbg) -> usize {
            for m in 0..10 {
                tree.join(MemberId(m), rng).unwrap();
            }
            tree.batch(&[MemberId(100)], &[MemberId(2), MemberId(5)], rng)
                .unwrap();
            tree.check_invariants();
            tree.resident_key_bytes()
        }
        let mut rng = Drbg::from_seed(3);
        let mut explicit = KeyTree::new(TreeConfig::quad(), &mut rng);
        let mut khf = KhfTree::new(TreeConfig::quad(), &mut rng);
        let explicit_resident = churn(&mut explicit, &mut rng);
        let khf_resident = churn(&mut khf, &mut rng);
        assert_eq!(explicit.member_count(), khf.member_count());
        assert!(khf_resident < explicit_resident);
    }
}
