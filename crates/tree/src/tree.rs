//! The key tree structure and single-event join/leave rekeying.

use crate::error::TreeError;
use crate::plan::{EncryptUnder, KeyChange, RekeyPlan, UnicastKeys};
use crate::store::{AreaKeys, ExplicitKeys, KeyStore, KhfKeys, RotateStyle};
use crate::MemberId;
use mykil_crypto::keys::SymmetricKey;
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet};

/// Index of a node in the tree arena (stable across all operations; the
/// tree never removes nodes, mirroring Mykil's keep-empty-leaves rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub(crate) usize);

impl NodeIdx {
    /// The arena index (for serializing node references on the wire).
    pub fn raw(self) -> usize {
        self.0
    }

    /// This index as the `u32` node reference used on the wire. Arena
    /// indices are bounded far below `u32::MAX` (a 2^32-node tree does
    /// not fit in memory), so the conversion saturates instead of
    /// panicking in the unreachable case — the codec layer owns the
    /// checked narrowing so wire code never needs a bare `as` cast.
    pub fn wire(self) -> u32 {
        u32::try_from(self.0).unwrap_or(u32::MAX)
    }

    /// Rebuilds an index from [`Self::raw`] output.
    pub fn from_raw(raw: usize) -> NodeIdx {
        NodeIdx(raw)
    }
}

impl std::fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Which [`KeyStore`] backend an area's tree uses (selected through
/// `TreeConfig` and, one level up, `GroupBuilder::tree_backend`;
/// [`AreaKeys`] acts on the selection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TreeBackend {
    /// Every node key stored explicitly (the paper's design).
    #[default]
    Explicit,
    /// Keys derived from a keyed-hash forest; only the forest secret
    /// and leave-rotated overrides are resident.
    Khf,
}

/// Tree shape configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    arity: usize,
    prune_on_leave: bool,
    backend: TreeBackend,
}

impl TreeConfig {
    /// A tree where each interior node has up to `arity` children.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= arity <= 16`.
    pub fn with_arity(arity: usize) -> TreeConfig {
        assert!((2..=16).contains(&arity), "arity must be in 2..=16");
        TreeConfig {
            arity,
            prune_on_leave: false,
            backend: TreeBackend::Explicit,
        }
    }

    /// Binary tree (the shape behind the paper's Figure 5/6 examples and
    /// its 2·17·16-byte LKH message arithmetic).
    pub fn binary() -> TreeConfig {
        TreeConfig::with_arity(2)
    }

    /// 4-ary tree — the paper's stated choice ("each node has up to four
    /// children ... provides the best overall performance").
    pub fn quad() -> TreeConfig {
        TreeConfig::with_arity(4)
    }

    /// Enables classic-LKH leaf pruning on leave — the behavior Mykil
    /// deliberately *avoids* (Section III-D keeps empty leaves so the
    /// next join is cheap). Exists for the ablation benchmark.
    ///
    /// Pruned trees do not support [`Tree::snapshot`]/`restore`
    /// (replication is a Mykil feature; the ablation models plain LKH).
    pub fn prune_on_leave(mut self, on: bool) -> TreeConfig {
        self.prune_on_leave = on;
        self
    }

    /// Whether leaves are pruned on leave.
    pub fn prunes(&self) -> bool {
        self.prune_on_leave
    }

    /// Selects the key-storage backend of an [`AreaTree`]. A
    /// single-backend `Tree<S>` runs whatever `S` is, and its
    /// [`Tree::config`] reports that backend instead.
    pub fn with_backend(mut self, backend: TreeBackend) -> TreeConfig {
        self.backend = backend;
        self
    }

    /// The key-storage backend (as selected, or as run once the config
    /// belongs to a tree).
    pub fn backend(&self) -> TreeBackend {
        self.backend
    }

    /// The configured maximum children per node.
    pub fn arity(&self) -> usize {
        self.arity
    }
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig::quad()
    }
}

#[derive(Debug, Clone)]
struct NodeEntry {
    parent: Option<NodeIdx>,
    children: Vec<NodeIdx>,
    version: u64,
    occupant: Option<MemberId>,
    depth: u32,
}

impl NodeEntry {
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An area's auxiliary-key tree (see the [crate docs](crate)), generic
/// over where key material lives.
///
/// Node 0 is the root and its key is the **area key**. Interior nodes
/// hold auxiliary keys; occupied leaves hold member individual keys.
/// The structure (arena, placement, rekey planning) is shared by every
/// backend; key storage and derivation is delegated to `S`.
#[derive(Debug, Clone)]
pub struct Tree<S: KeyStore> {
    cfg: TreeConfig,
    nodes: Vec<NodeEntry>,
    store: S,
    members: BTreeMap<MemberId, NodeIdx>,
    /// Vacant leaves ordered by (depth, index): shallowest-leftmost first.
    vacant: BTreeSet<(u32, NodeIdx)>,
    /// Interior nodes (or the root) with spare child capacity.
    open_internal: BTreeSet<(u32, NodeIdx)>,
    /// Occupied leaves, ordered for shallowest-leftmost splitting.
    occupied: BTreeSet<(u32, NodeIdx)>,
    /// Per-node visit stamps for aggregated path collection: a node is
    /// on the current batch's rekey frontier iff its stamp equals
    /// [`Self::visit_epoch`]. Reused across calls so the leave hot path
    /// performs no set allocations (see `rekey_paths_leave_style`).
    visit_stamp: Vec<u32>,
    /// Current stamp generation (bumped per aggregated rekey).
    visit_epoch: u32,
}

/// The paper's tree: every key stored explicitly.
pub type KeyTree = Tree<ExplicitKeys>;

/// Keyed-hash-forest tree: keys derived on demand, O(updated set)
/// resident key bytes.
pub type KhfTree = Tree<KhfKeys>;

/// An area's tree as an area controller holds it: the backend is
/// chosen at runtime by [`TreeConfig::backend`] (or by the snapshot
/// magic on restore) inside [`AreaKeys`]. Plans, wire encodings and
/// placement are identical across backends; only key values and the
/// controller's storage bill differ.
pub type AreaTree = Tree<AreaKeys>;

impl<S: KeyStore> Tree<S> {
    /// Creates a tree containing only the root (area-key) node. The
    /// store sees `cfg` (an [`AreaKeys`] store takes its backend from
    /// it); the tree's config then reports the backend the store runs.
    pub fn new<R: RngCore + ?Sized>(cfg: TreeConfig, rng: &mut R) -> Tree<S> {
        let root = NodeEntry {
            parent: None,
            children: Vec::new(),
            version: 0,
            occupant: None,
            depth: 0,
        };
        let mut open_internal = BTreeSet::new();
        open_internal.insert((0, NodeIdx(0)));
        let store = S::new_root(cfg, rng);
        Tree {
            cfg: cfg.with_backend(store.backend()),
            nodes: vec![root],
            store,
            members: BTreeMap::new(),
            vacant: BTreeSet::new(),
            open_internal,
            occupied: BTreeSet::new(),
            visit_stamp: Vec::new(),
            visit_epoch: 0,
        }
    }

    // ---- queries ----

    /// The tree configuration.
    pub fn config(&self) -> TreeConfig {
        self.cfg
    }

    /// Number of members currently in the tree.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Total nodes ever allocated (the controller's key-storage cost,
    /// Section V-A of the paper).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the tree (root = 0).
    pub fn height(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// The root index (whose key is the area key).
    pub fn root(&self) -> NodeIdx {
        NodeIdx(0)
    }

    /// The current area key (the root key).
    pub fn area_key(&self) -> SymmetricKey {
        self.node_key(self.root())
    }

    /// Current key of a node. Keys are returned owned on every backend:
    /// a derivation backend has no stored key to borrow, and a copy is a
    /// 16-byte move with no allocation.
    ///
    /// # Panics
    ///
    /// Panics on an index from a different tree.
    pub fn node_key(&self, node: NodeIdx) -> SymmetricKey {
        self.store.key(node.0, self.nodes[node.0].version)
    }

    /// Version counter of a node's key (bumped on every change).
    pub fn version_of(&self, node: NodeIdx) -> u64 {
        self.nodes[node.0].version
    }

    /// Bytes of key material resident in controller memory. Explicit
    /// storage pays O(node count); the KHF backend pays the forest
    /// secret plus one key per leave-rotated node.
    pub fn resident_key_bytes(&self) -> usize {
        self.store.resident_key_bytes()
    }

    /// Whether the member is present.
    pub fn contains(&self, member: MemberId) -> bool {
        self.members.contains_key(&member)
    }

    /// Iterates over current members in deterministic order.
    pub fn members(&self) -> impl Iterator<Item = MemberId> + '_ {
        self.members.keys().copied()
    }

    /// The leaf associated with a member.
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAMember`] when absent.
    pub fn leaf_of(&self, member: MemberId) -> Result<NodeIdx, TreeError> {
        self.members
            .get(&member)
            .copied()
            .ok_or(TreeError::NotAMember(member))
    }

    /// Collects the `(node, key)` pairs on the member's path into `out`
    /// (cleared first), leaf first, root last.
    ///
    /// This is exactly the key set a Mykil member stores — about 11 keys
    /// for a 5000-member area in the paper's Section V-A arithmetic.
    /// Callers on hot paths reuse `out` across calls.
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAMember`] when absent.
    pub fn path_keys_into(
        &self,
        member: MemberId,
        out: &mut Vec<(NodeIdx, SymmetricKey)>,
    ) -> Result<(), TreeError> {
        let leaf = self.leaf_of(member)?;
        out.clear();
        out.reserve(self.nodes[leaf.0].depth as usize + 1);
        for n in self.ancestors(leaf) {
            out.push((n, self.node_key(n)));
        }
        Ok(())
    }

    /// Nodes from `node` (inclusive) up to the root (inclusive),
    /// without allocating. The precomputed parent links and depths make
    /// this (and the sibling lookups during leave-style rekeys) a pure
    /// pointer chase.
    pub fn ancestors(&self, node: NodeIdx) -> Ancestors<'_, S> {
        Ancestors {
            tree: self,
            cur: Some(node),
        }
    }

    /// Nodes from `node` (inclusive) up to the root (inclusive).
    ///
    /// Allocates; prefer [`Self::ancestors`] on hot paths.
    pub fn path_to_root(&self, node: NodeIdx) -> Vec<NodeIdx> {
        let mut path = Vec::with_capacity(self.nodes[node.0].depth as usize + 1);
        path.extend(self.ancestors(node));
        path
    }

    /// Children of a node (empty for leaves).
    pub fn children_of(&self, node: NodeIdx) -> &[NodeIdx] {
        &self.nodes[node.0].children
    }

    /// Occupant of a leaf, if any.
    pub fn occupant_of(&self, node: NodeIdx) -> Option<MemberId> {
        self.nodes[node.0].occupant
    }

    // ---- mutation helpers ----

    /// Rotates the key at `node`, returning the **previous** key (moved
    /// out of the store, not copied — the caller either records it in a
    /// plan or lets it drop and zeroize). `style` tells a derivation
    /// backend whether the new key may come from the forest
    /// (join-style) or must be fresh randomness (leave-style).
    fn rotate_key<R: RngCore + ?Sized>(
        &mut self,
        node: NodeIdx,
        style: RotateStyle,
        rng: &mut R,
    ) -> SymmetricKey {
        let old_version = self.nodes[node.0].version;
        self.nodes[node.0].version += 1;
        self.store.rotate(node.0, old_version, style, rng)
    }

    fn alloc_leaf<R: RngCore + ?Sized>(&mut self, parent: NodeIdx, rng: &mut R) -> NodeIdx {
        let idx = NodeIdx(self.nodes.len());
        let depth = self.nodes[parent.0].depth + 1;
        self.nodes.push(NodeEntry {
            parent: Some(parent),
            children: Vec::new(),
            version: 0,
            occupant: None,
            depth,
        });
        self.store.on_alloc(idx.0, Some(parent.0), rng);
        self.nodes[parent.0].children.push(idx);
        let pdepth = self.nodes[parent.0].depth;
        if self.nodes[parent.0].children.len() >= self.cfg.arity {
            self.open_internal.remove(&(pdepth, parent));
        }
        idx
    }

    /// Finds or creates the leaf where a new member will live, per the
    /// paper's placement rule. Returns `(leaf, displaced)` where
    /// `displaced` is the member moved down by a leaf split.
    pub(crate) fn place_leaf<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> (NodeIdx, Option<(MemberId, NodeIdx)>) {
        // Preference 1: an existing vacant leaf (Mykil keeps them for
        // exactly this purpose).
        if let Some(&(d, leaf)) = self.vacant.iter().next() {
            self.vacant.remove(&(d, leaf));
            return (leaf, None);
        }
        // Preference 2: an interior node with spare capacity.
        if let Some(&(_, parent)) = self.open_internal.iter().next() {
            let leaf = self.alloc_leaf(parent, rng);
            return (leaf, None);
        }
        // Preference 3: split the shallowest, left-most occupied leaf
        // (Figure 4 of the paper).
        let &(d, victim) = self
            .occupied
            .iter()
            .next()
            // mykil-lint: allow(L001) -- structural invariant: full tree has occupied leaves
            .expect("tree with no capacity must have an occupied leaf");
        self.occupied.remove(&(d, victim));
        // mykil-lint: allow(L001) -- victim drawn from the occupied set
        let displaced = self.nodes[victim.0].occupant.take().expect("occupied leaf");
        // The victim becomes an interior node with `arity` fresh leaves.
        let vdepth = self.nodes[victim.0].depth;
        self.open_internal.insert((vdepth, victim));
        let c0 = self.alloc_leaf(victim, rng);
        let c1 = self.alloc_leaf(victim, rng);
        for _ in 2..self.cfg.arity {
            let c = self.alloc_leaf(victim, rng);
            let cdepth = self.nodes[c.0].depth;
            self.vacant.insert((cdepth, c));
        }
        // Displaced member moves to the first child.
        self.nodes[c0.0].occupant = Some(displaced);
        let c0depth = self.nodes[c0.0].depth;
        self.occupied.insert((c0depth, c0));
        self.members.insert(displaced, c0);
        (c1, Some((displaced, c0)))
    }

    /// Puts `member` on a (vacant) leaf with a fresh individual key.
    pub(crate) fn occupy_leaf<R: RngCore + ?Sized>(
        &mut self,
        leaf: NodeIdx,
        member: MemberId,
        rng: &mut R,
    ) {
        debug_assert!(self.nodes[leaf.0].occupant.is_none());
        self.nodes[leaf.0].occupant = Some(member);
        let depth = self.nodes[leaf.0].depth;
        self.occupied.insert((depth, leaf));
        self.members.insert(member, leaf);
        // Join-style: the vacating occupant (if any) only ever saw the
        // previous key *value*, so a derived successor is safe.
        self.rotate_key(leaf, RotateStyle::Derivable, rng);
    }

    // ---- single-event operations ----

    /// Adds `member`, producing the rekey plan of Section III-C /
    /// Figure 4: fresh keys along the new path distributed under their
    /// previous versions, a full key path unicast to the newcomer, and
    /// (after a split) the displaced member's new leaf key unicast to it.
    ///
    /// # Errors
    ///
    /// [`TreeError::AlreadyMember`] when the member is present.
    pub fn join<R: RngCore + ?Sized>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyPlan, TreeError> {
        if self.contains(member) {
            return Err(TreeError::AlreadyMember(member));
        }
        let (leaf, displaced) = self.place_leaf(rng);
        self.occupy_leaf(leaf, member, rng);

        // Refresh every key from the leaf's parent to the root; each is
        // multicast encrypted under its previous version. The walk uses
        // the parent links directly — no path vector is materialized.
        let depth = self.nodes[leaf.0].depth as usize;
        let mut changes = Vec::with_capacity(depth);
        let mut cur = self.nodes[leaf.0].parent;
        while let Some(node) = cur {
            let old = self.rotate_key(node, RotateStyle::Derivable, rng);
            changes.push(KeyChange {
                node,
                new_key: self.node_key(node),
                encryptions: vec![(EncryptUnder::PreviousSelf, old)],
            });
            cur = self.nodes[node.0].parent;
        }

        let mut newcomer_keys = Vec::with_capacity(depth + 1);
        for n in self.ancestors(leaf) {
            newcomer_keys.push((n, self.node_key(n)));
        }
        let mut unicasts = Vec::with_capacity(2);
        unicasts.push(UnicastKeys {
            member,
            keys: newcomer_keys,
        });
        if let Some((displaced_member, new_leaf)) = displaced {
            // The displaced member can decrypt the path updates with its
            // old keys; it only needs its fresh leaf key.
            unicasts.push(UnicastKeys {
                member: displaced_member,
                keys: vec![(new_leaf, self.node_key(new_leaf))],
            });
        }
        Ok(RekeyPlan { changes, unicasts })
    }

    /// Removes `member`, producing the rekey plan of Figure 5: every key
    /// from the vacated leaf's parent to the root is refreshed and
    /// multicast encrypted under each (surviving) child's key. The leaf
    /// is kept vacant rather than pruned.
    ///
    /// # Errors
    ///
    /// [`TreeError::NotAMember`] when absent.
    pub fn leave<R: RngCore + ?Sized>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<RekeyPlan, TreeError> {
        let leaf = self.leaf_of(member)?;
        let Some(start) = self.remove_member(member, leaf) else {
            return Ok(RekeyPlan::default());
        };
        Ok(self.rekey_paths_leave_style(&[start], rng))
    }

    /// Removes a member's occupancy, returning the node where the leave
    /// rekey must start (the deepest surviving ancestor), or `None` when
    /// the member sat directly under a now-empty root.
    pub(crate) fn remove_member(&mut self, member: MemberId, leaf: NodeIdx) -> Option<NodeIdx> {
        self.members.remove(&member);
        self.nodes[leaf.0].occupant = None;
        let depth = self.nodes[leaf.0].depth;
        self.occupied.remove(&(depth, leaf));
        if self.cfg.prune_on_leave {
            self.prune_leaf(leaf)
        } else {
            // Mykil's rule: keep the vacated leaf for a cheap future
            // join (Section III-D).
            self.vacant.insert((depth, leaf));
            self.nodes[leaf.0].parent
        }
    }

    /// Detaches a vacated leaf from its parent (the classic-LKH ablation
    /// mode; Mykil itself never prunes). The arena slot stays allocated
    /// but unreachable. Returns the deepest surviving ancestor.
    fn prune_leaf(&mut self, leaf: NodeIdx) -> Option<NodeIdx> {
        let parent = self.nodes[leaf.0].parent?;
        // Drop the node from every index before detaching it.
        let ldepth = self.nodes[leaf.0].depth;
        self.vacant.remove(&(ldepth, leaf));
        self.occupied.remove(&(ldepth, leaf));
        self.open_internal.remove(&(ldepth, leaf));
        self.nodes[parent.0].children.retain(|&c| c != leaf);
        self.nodes[leaf.0].parent = None;
        let pdepth = self.nodes[parent.0].depth;
        if self.nodes[parent.0].children.is_empty() {
            // The parent became childless; prune upward unless it is the
            // root (whose key is the area key).
            if parent.0 != 0 {
                self.prune_leaf(parent)
            } else {
                self.open_internal.insert((0, NodeIdx(0)));
                Some(parent)
            }
        } else {
            if self.nodes[parent.0].children.len() < self.cfg.arity {
                self.open_internal.insert((pdepth, parent));
            }
            Some(parent)
        }
    }

    /// Refreshes all keys on the paths from each of `starts` to the root
    /// and builds leave-style (child-key-encrypted) distribution entries.
    /// Shared path segments are refreshed exactly once — this is the
    /// aggregation of Figure 6.
    pub(crate) fn rekey_paths_leave_style<R: RngCore + ?Sized>(
        &mut self,
        starts: &[NodeIdx],
        rng: &mut R,
    ) -> RekeyPlan {
        // Union of paths, deepest first (so child keys are already fresh
        // when the parent's change is encrypted under them). Dedup uses
        // the reusable per-node visit stamps: paths share every node
        // above the first common ancestor, so a stamped node ends the
        // climb — no set allocation, no re-walking shared segments.
        self.visit_epoch = self.visit_epoch.wrapping_add(1);
        if self.visit_epoch == 0 {
            // Stamp generation wrapped: old stamps could alias epoch 0.
            self.visit_stamp.fill(0);
            self.visit_epoch = 1;
        }
        self.visit_stamp.resize(self.nodes.len(), 0);
        let max_depth = starts
            .iter()
            .map(|s| self.nodes[s.0].depth as usize + 1)
            .max()
            .unwrap_or(0);
        let mut changed: Vec<(u32, NodeIdx)> = Vec::with_capacity(max_depth + starts.len());
        for &s in starts {
            let mut cur = Some(s);
            while let Some(node) = cur {
                if self.visit_stamp[node.0] == self.visit_epoch {
                    break;
                }
                self.visit_stamp[node.0] = self.visit_epoch;
                changed.push((self.nodes[node.0].depth, node));
                cur = self.nodes[node.0].parent;
            }
        }
        // Deepest first, index as the (deterministic) tiebreaker —
        // the same order the former (depth, idx) set walk produced.
        changed.sort_unstable_by(|a, b| b.cmp(a));
        let mut changes = Vec::with_capacity(changed.len());
        for &(_, node) in &changed {
            // Leave-style: the departed member must not be able to
            // derive the successor, so the backend draws fresh.
            let _superseded = self.rotate_key(node, RotateStyle::Fresh, rng);
            let children = &self.nodes[node.0].children;
            let mut encryptions = Vec::with_capacity(children.len());
            for &child in children {
                let c = &self.nodes[child.0];
                // A vacant leaf's key is known only to departed members;
                // never encrypt under it.
                if c.is_leaf() && c.occupant.is_none() {
                    continue;
                }
                // The child's key is the fresh one when the child itself
                // changed (deeper nodes were processed first).
                encryptions.push((
                    EncryptUnder::Child(child),
                    self.store.key(child.0, c.version),
                ));
            }
            changes.push(KeyChange {
                node,
                new_key: self.node_key(node),
                encryptions,
            });
        }
        RekeyPlan {
            changes,
            unicasts: Vec::new(),
        }
    }

    /// Rotates only the root (area) key, returning a plan with one
    /// change distributed under the previous area key — the periodic
    /// freshness rekey of the paper's Section III-E.
    pub fn rotate_area_key<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> RekeyPlan {
        let old = self.rotate_key(NodeIdx(0), RotateStyle::Derivable, rng);
        RekeyPlan {
            changes: vec![KeyChange {
                node: NodeIdx(0),
                new_key: self.node_key(NodeIdx(0)),
                encryptions: vec![(EncryptUnder::PreviousSelf, old)],
            }],
            unicasts: Vec::new(),
        }
    }

    /// Parent of a node (`None` for the root).
    pub fn parent_of(&self, node: NodeIdx) -> Option<NodeIdx> {
        self.nodes[node.0].parent
    }

    // ---- snapshot-restore plumbing (see `snapshot.rs`) ----

    /// Creates an empty tree shell for restore around an empty `store`.
    pub(crate) fn restore_shell(arity: usize, store: S, capacity: usize) -> Tree<S> {
        Tree {
            cfg: TreeConfig::with_arity(arity).with_backend(store.backend()),
            nodes: Vec::with_capacity(capacity),
            store,
            members: BTreeMap::new(),
            vacant: BTreeSet::new(),
            open_internal: BTreeSet::new(),
            occupied: BTreeSet::new(),
            visit_stamp: Vec::new(),
            visit_epoch: 0,
        }
    }

    pub(crate) fn store(&self) -> &S {
        &self.store
    }

    pub(crate) fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Appends node `index` during restore; nodes must arrive in index
    /// order with parents before children.
    pub(crate) fn restore_node(
        &mut self,
        index: usize,
        parent: Option<NodeIdx>,
        version: u64,
        occupant: Option<MemberId>,
    ) -> Result<(), TreeError> {
        debug_assert_eq!(index, self.nodes.len());
        let depth = match parent {
            Some(p) => self.nodes[p.0].depth + 1,
            None => 0,
        };
        self.nodes.push(NodeEntry {
            parent,
            children: Vec::new(),
            version,
            occupant,
            depth,
        });
        if let Some(p) = parent {
            self.nodes[p.0].children.push(NodeIdx(index));
            if self.nodes[p.0].children.len() > self.cfg.arity {
                return Err(TreeError::Inconsistent(
                    "node has more children than the arity allows",
                ));
            }
        }
        if let Some(m) = occupant {
            if self.members.insert(m, NodeIdx(index)).is_some() {
                return Err(TreeError::AlreadyMember(m));
            }
        }
        Ok(())
    }

    /// Rebuilds the derived index sets after a restore.
    pub(crate) fn rebuild_indices(&mut self) {
        self.vacant.clear();
        self.open_internal.clear();
        self.occupied.clear();
        for (i, n) in self.nodes.iter().enumerate() {
            let idx = NodeIdx(i);
            if n.is_leaf() {
                if n.occupant.is_some() {
                    self.occupied.insert((n.depth, idx));
                } else if i != 0 {
                    self.vacant.insert((n.depth, idx));
                } else {
                    // Empty root acts as an open interior node.
                    self.open_internal.insert((n.depth, idx));
                }
            } else if n.children.len() < self.cfg.arity {
                self.open_internal.insert((n.depth, idx));
            }
        }
    }

    /// Whether any interior node carries an occupant (a malformed state
    /// a snapshot must never produce; checked during restore).
    pub(crate) fn has_interior_occupant(&self) -> bool {
        self.nodes
            .iter()
            .any(|n| n.occupant.is_some() && !n.is_leaf())
    }

    /// Verifies internal consistency; used by tests and property checks.
    ///
    /// # Panics
    ///
    /// Panics with a description when an invariant is violated.
    pub fn check_invariants(&self) {
        for (i, n) in self.nodes.iter().enumerate() {
            let idx = NodeIdx(i);
            if let Some(p) = n.parent {
                assert!(
                    self.nodes[p.0].children.contains(&idx),
                    "{idx}: parent link not mirrored"
                );
                assert_eq!(n.depth, self.nodes[p.0].depth + 1, "{idx}: bad depth");
            } else if i != 0 {
                // Detached (pruned) nodes exist only in prune mode and
                // must be absent from every index.
                assert!(self.cfg.prune_on_leave, "{idx}: orphan without pruning");
                assert!(n.occupant.is_none(), "{idx}: pruned node occupied");
                assert!(
                    !self.vacant.contains(&(n.depth, idx))
                        && !self.occupied.contains(&(n.depth, idx))
                        && !self.open_internal.contains(&(n.depth, idx)),
                    "{idx}: pruned node still indexed"
                );
                continue;
            }
            assert!(
                n.children.len() <= self.cfg.arity,
                "{idx}: too many children"
            );
            if let Some(m) = n.occupant {
                assert!(n.is_leaf(), "{idx}: occupant on interior node");
                assert_eq!(self.members.get(&m), Some(&idx), "{m} map mismatch");
                assert!(self.occupied.contains(&(n.depth, idx)), "{idx}: not in occupied set");
            }
            if n.is_leaf() && n.occupant.is_none() && i != 0 {
                assert!(self.vacant.contains(&(n.depth, idx)), "{idx}: not in vacant set");
            }
            if !n.is_leaf() && n.children.len() < self.cfg.arity {
                assert!(
                    self.open_internal.contains(&(n.depth, idx)),
                    "{idx}: missing from open_internal"
                );
            }
        }
        for (&m, &leaf) in &self.members {
            assert_eq!(self.nodes[leaf.0].occupant, Some(m), "{m}: leaf mismatch");
        }
    }
}

/// Iterator over a node's path to the root via the stored parent links.
/// See [`Tree::ancestors`].
pub struct Ancestors<'a, S: KeyStore> {
    tree: &'a Tree<S>,
    cur: Option<NodeIdx>,
}

impl<S: KeyStore> Iterator for Ancestors<'_, S> {
    type Item = NodeIdx;

    fn next(&mut self) -> Option<NodeIdx> {
        let node = self.cur?;
        self.cur = self.tree.nodes[node.0].parent;
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_crypto::drbg::Drbg;

    fn rng() -> Drbg {
        Drbg::from_seed(42)
    }

    #[test]
    fn empty_tree() {
        let mut r = rng();
        let tree = KeyTree::new(TreeConfig::quad(), &mut r);
        assert_eq!(tree.member_count(), 0);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.node_key(tree.root()), tree.area_key());
        tree.check_invariants();
    }

    #[test]
    fn first_joins_attach_to_root() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut r);
        for m in 0..4 {
            let plan = tree.join(MemberId(m), &mut r).unwrap();
            // Path rekey: root only (leaf parents are the root).
            assert_eq!(plan.keys_changed(), 1);
            assert_eq!(plan.unicasts.len(), 1);
            tree.check_invariants();
        }
        assert_eq!(tree.member_count(), 4);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.node_count(), 5);
    }

    #[test]
    fn fifth_join_splits_shallowest_leftmost_leaf() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut r);
        for m in 0..4 {
            tree.join(MemberId(m), &mut r).unwrap();
        }
        let plan = tree.join(MemberId(4), &mut r).unwrap();
        tree.check_invariants();
        assert_eq!(tree.member_count(), 5);
        // Split created 4 children under one former leaf.
        assert_eq!(tree.node_count(), 9);
        assert_eq!(tree.height(), 2);
        // Displaced member got a unicast with exactly its new leaf key.
        assert_eq!(plan.unicasts.len(), 2);
        let displaced = &plan.unicasts[1];
        assert_eq!(displaced.keys.len(), 1);
        // Newcomer's path has 3 keys now (leaf, split node, root).
        assert_eq!(plan.unicasts[0].keys.len(), 3);
    }

    #[test]
    fn join_rejects_duplicates() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut r);
        tree.join(MemberId(1), &mut r).unwrap();
        assert!(matches!(
            tree.join(MemberId(1), &mut r),
            Err(TreeError::AlreadyMember(MemberId(1)))
        ));
    }

    #[test]
    fn join_changes_all_path_keys() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::binary(), &mut r);
        for m in 0..8 {
            tree.join(MemberId(m), &mut r).unwrap();
        }
        let area_key_before = tree.area_key();
        let plan = tree.join(MemberId(100), &mut r).unwrap();
        assert_ne!(tree.area_key(), area_key_before, "area key must rotate");
        // Every change is distributed under the previous self key.
        for c in &plan.changes {
            assert_eq!(c.encryptions.len(), 1);
            assert!(matches!(c.encryptions[0].0, EncryptUnder::PreviousSelf));
            assert_ne!(c.encryptions[0].1, c.new_key);
        }
    }

    #[test]
    fn leave_rekeys_path_under_child_keys() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::binary(), &mut r);
        for m in 0..8 {
            tree.join(MemberId(m), &mut r).unwrap();
        }
        let victim = MemberId(3);
        let victim_leaf = tree.leaf_of(victim).unwrap();
        let plan = tree.leave(victim, &mut r).unwrap();
        tree.check_invariants();
        assert!(!tree.contains(victim));
        // No encryption may use the departed member's leaf key.
        for c in &plan.changes {
            for (under, _) in &c.encryptions {
                if let EncryptUnder::Child(child) = under {
                    assert_ne!(*child, victim_leaf, "encrypted under departed leaf");
                }
            }
        }
        // Root change must be present (area key rotates on leave).
        assert!(plan.changes.iter().any(|c| c.node == tree.root()));
    }

    #[test]
    fn leave_keeps_leaf_for_cheap_rejoin() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut r);
        for m in 0..9 {
            tree.join(MemberId(m), &mut r).unwrap();
        }
        let nodes_before = tree.node_count();
        tree.leave(MemberId(5), &mut r).unwrap();
        assert_eq!(tree.node_count(), nodes_before, "leaf must not be pruned");
        // Next join reuses the vacant leaf: no new nodes.
        tree.join(MemberId(50), &mut r).unwrap();
        assert_eq!(tree.node_count(), nodes_before);
        tree.check_invariants();
    }

    #[test]
    fn leave_last_member_is_empty_plan() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut r);
        tree.join(MemberId(1), &mut r).unwrap();
        let plan = tree.leave(MemberId(1), &mut r).unwrap();
        // Path = root only; with no members left the root change has no
        // readable encryption.
        assert!(plan.changes.iter().all(|c| c.encryptions.is_empty()));
        assert_eq!(tree.member_count(), 0);
    }

    #[test]
    fn leave_unknown_member_errors() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut r);
        assert!(matches!(
            tree.leave(MemberId(9), &mut r),
            Err(TreeError::NotAMember(MemberId(9)))
        ));
    }

    #[test]
    fn path_keys_leaf_to_root() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::binary(), &mut r);
        for m in 0..6 {
            tree.join(MemberId(m), &mut r).unwrap();
        }
        let mut path = Vec::new();
        tree.path_keys_into(MemberId(5), &mut path).unwrap();
        assert!(path.len() >= 2);
        assert_eq!(path.last().unwrap().0, tree.root());
        assert_eq!(path.last().unwrap().1, tree.area_key());
        // First entry is the member's own leaf.
        assert_eq!(tree.occupant_of(path[0].0), Some(MemberId(5)));
    }

    #[test]
    fn heights_stay_logarithmic() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut r);
        for m in 0..500 {
            tree.join(MemberId(m), &mut r).unwrap();
        }
        tree.check_invariants();
        // ceil(log4(500)) = 5; splits can add one extra level.
        assert!(tree.height() <= 7, "height={}", tree.height());
        assert_eq!(tree.member_count(), 500);
    }

    #[test]
    fn binary_tree_leave_message_shape() {
        // The paper's arithmetic: a full binary tree of depth h yields
        // about 2 encrypted keys per level on a leave.
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::binary(), &mut r);
        for m in 0..16 {
            tree.join(MemberId(m), &mut r).unwrap();
        }
        let plan = tree.leave(MemberId(7), &mut r).unwrap();
        let h = plan.keys_changed();
        let enc = plan.encryption_count();
        // Each change except the deepest has 2 child encryptions; the
        // deepest has 1 (its vacant sibling is skipped).
        assert_eq!(enc, 2 * h - 1, "h={h} enc={enc}");
    }

    #[test]
    fn churn_preserves_invariants() {
        let mut r = rng();
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut r);
        for round in 0u64..30 {
            for m in 0..10 {
                tree.join(MemberId(round * 100 + m), &mut r).unwrap();
            }
            for m in 0..5 {
                tree.leave(MemberId(round * 100 + m), &mut r).unwrap();
            }
            tree.check_invariants();
        }
        assert_eq!(tree.member_count(), 150);
    }

    #[test]
    fn khf_tree_runs_the_same_protocol() {
        let mut r = rng();
        let mut tree: KhfTree = KhfTree::new(TreeConfig::quad(), &mut r);
        for m in 0..20 {
            let plan = tree.join(MemberId(m), &mut r).unwrap();
            assert!(!plan.unicasts.is_empty());
        }
        let plan = tree.leave(MemberId(7), &mut r).unwrap();
        assert!(plan.changes.iter().any(|c| c.node == tree.root()));
        tree.check_invariants();
        assert_eq!(tree.member_count(), 19);
        // Join-heavy history leaves almost nothing resident: the leave
        // overrode one path, the joins derived everything else.
        assert!(
            tree.resident_key_bytes() < tree.node_count() * crate::KEY_LEN,
            "resident {} not sublinear in {} nodes",
            tree.resident_key_bytes(),
            tree.node_count()
        );
    }

    #[test]
    fn khf_leave_key_is_not_forest_derived() {
        let mut r = rng();
        let mut tree: KhfTree = KhfTree::new(TreeConfig::quad(), &mut r);
        for m in 0..5 {
            tree.join(MemberId(m), &mut r).unwrap();
        }
        let overrides_before = tree.store().override_count();
        let plan = tree.leave(MemberId(2), &mut r).unwrap();
        assert!(
            tree.store().override_count() > overrides_before,
            "leave must add overrides"
        );
        // The plan's new keys match what the tree now reports.
        for c in &plan.changes {
            assert_eq!(c.new_key, tree.node_key(c.node));
        }
    }

    #[test]
    fn generic_code_runs_on_both_backends() {
        fn churn<S: KeyStore>(tree: &mut Tree<S>, rng: &mut Drbg) -> usize {
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

    /// A tree's config names the backend its store runs, whatever the
    /// config asked for, so it survives a snapshot round trip.
    #[test]
    fn config_reports_the_backend_the_store_runs() {
        fn round_trip<S: KeyStore>(cfg: TreeConfig, expect: TreeBackend) {
            let mut r = rng();
            let mut t = Tree::<S>::new(cfg, &mut r);
            for m in 0..6 {
                t.join(MemberId(m), &mut r).unwrap();
            }
            assert_eq!(t.config().backend(), expect);
            assert_eq!(Tree::<S>::restore(&t.snapshot()).unwrap().config(), t.config());
        }
        for asked in [TreeBackend::Explicit, TreeBackend::Khf] {
            let cfg = TreeConfig::quad().with_backend(asked);
            round_trip::<ExplicitKeys>(cfg, TreeBackend::Explicit);
            round_trip::<KhfKeys>(cfg, TreeBackend::Khf);
            round_trip::<AreaKeys>(cfg, asked);
        }
    }

    #[test]
    fn config_validation() {
        assert_eq!(TreeConfig::binary().arity(), 2);
        assert_eq!(TreeConfig::quad().arity(), 4);
        assert_eq!(TreeConfig::with_arity(8).arity(), 8);
        assert_eq!(TreeConfig::default(), TreeConfig::quad());
        assert_eq!(TreeConfig::default().backend(), TreeBackend::Explicit);
        assert_eq!(
            TreeConfig::quad().with_backend(TreeBackend::Khf).backend(),
            TreeBackend::Khf
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_one_rejected() {
        let _ = TreeConfig::with_arity(1);
    }

    #[test]
    fn node_idx_round_trip() {
        let n = NodeIdx::from_raw(12);
        assert_eq!(n.raw(), 12);
        assert_eq!(n.to_string(), "k12");
    }
}

#[cfg(test)]
mod prune_tests {
    use super::*;
    use mykil_crypto::drbg::Drbg;

    fn build(prune: bool, n: u64, r: &mut Drbg) -> KeyTree {
        let cfg = TreeConfig::quad().prune_on_leave(prune);
        let mut t = KeyTree::new(cfg, r);
        for m in 0..n {
            t.join(MemberId(m), r).unwrap();
        }
        t
    }

    #[test]
    fn pruned_leaves_are_detached() {
        let mut r = Drbg::from_seed(1);
        let mut t = build(true, 20, &mut r);
        let leaf = t.leaf_of(MemberId(7)).unwrap();
        t.leave(MemberId(7), &mut r).unwrap();
        t.check_invariants();
        assert!(t.parent_of(leaf).is_none(), "leaf still attached");
        // The pruned leaf can never be reused (split-born vacant leaves
        // elsewhere may be — pruning only affects vacated slots).
        t.join(MemberId(100), &mut r).unwrap();
        t.check_invariants();
        assert_ne!(
            t.leaf_of(MemberId(100)).unwrap(),
            leaf,
            "pruned slot was resurrected"
        );
    }

    #[test]
    fn keep_mode_reuses_where_prune_mode_cannot() {
        let mut r1 = Drbg::from_seed(2);
        let mut r2 = Drbg::from_seed(2);
        let mut keep = build(false, 64, &mut r1);
        let mut prune = build(true, 64, &mut r2);

        // Same churn on both: leave then join, repeatedly.
        let mut keep_unicast = 0usize;
        let mut prune_unicast = 0usize;
        for i in 0..16u64 {
            keep.leave(MemberId(i), &mut r1).unwrap();
            prune.leave(MemberId(i), &mut r2).unwrap();
            keep_unicast += keep.join(MemberId(1000 + i), &mut r1).unwrap().unicast_bytes();
            prune_unicast += prune
                .join(MemberId(1000 + i), &mut r2)
                .unwrap()
                .unicast_bytes();
            keep.check_invariants();
            prune.check_invariants();
        }
        assert_eq!(keep.member_count(), prune.member_count());
        // Mykil's keep-vacant rule yields cheaper (or equal) joins —
        // the Section III-D design bet.
        assert!(
            keep_unicast <= prune_unicast,
            "keep={keep_unicast} prune={prune_unicast}"
        );
    }

    #[test]
    fn prune_cascades_up_empty_subtrees() {
        let mut r = Drbg::from_seed(3);
        let cfg = TreeConfig::binary().prune_on_leave(true);
        let mut t = KeyTree::new(cfg, &mut r);
        for m in 0..4 {
            t.join(MemberId(m), &mut r).unwrap();
        }
        // Remove every member: the tree collapses back to the root.
        for m in 0..4 {
            t.leave(MemberId(m), &mut r).unwrap();
            t.check_invariants();
        }
        assert_eq!(t.member_count(), 0);
        assert!(t.children_of(t.root()).is_empty(), "root not collapsed");
        // And it is still usable.
        t.join(MemberId(50), &mut r).unwrap();
        t.check_invariants();
        assert_eq!(t.member_count(), 1);
    }

    #[test]
    fn forward_secrecy_holds_in_prune_mode() {
        let mut r = Drbg::from_seed(4);
        let mut t = build(true, 16, &mut r);
        let key_before = t.area_key();
        let plan = t.leave(MemberId(5), &mut r).unwrap();
        assert_ne!(t.area_key(), key_before);
        // No encryption under the departed leaf's key.
        for c in &plan.changes {
            for (under, _) in &c.encryptions {
                if let crate::plan::EncryptUnder::Child(child) = under {
                    assert!(t.parent_of(*child).is_some(), "encrypted under pruned node");
                }
            }
        }
    }
}
