//! Pluggable key storage behind the auxiliary tree.
//!
//! The tree structure (arena, parent links, occupancy) is backend
//! independent; what differs is where node *keys* live. [`KeyStore`]
//! abstracts that: [`ExplicitKeys`] stores every key — the paper's
//! design, O(n) resident key material per area — while [`KhfKeys`]
//! derives keys on demand from a keyed-hash forest and stores only the
//! 32-byte forest secret plus explicit overrides for leave-style
//! rotations, making resident key bytes O(updated set).
//!
//! [`AreaKeys`] is the store an area controller's tree runs on: it
//! picks one of the two from [`TreeConfig::backend`] when the tree is
//! built (or from the snapshot magic when it is restored) and forwards
//! every call to it. It is the one place in the crate that dispatches
//! on the backend.
//!
//! # KHF derivation labels
//!
//! Derivation is rooted in an AC-only forest secret `F` (members only
//! ever receive key *values* through rekey plans, never `F` or any
//! node secret, so HMAC preimage resistance keeps unseen keys secret):
//!
//! ```text
//! secret(root)  = F
//! secret(n)     = HMAC-SHA256(secret(parent(n)), "mykil-khf-node" || n as u64 BE)
//! key(n, v)     = HMAC-SHA256(secret(n), "mykil-khf-key" || v as u64 BE)[..16]
//! ```
//!
//! A *derivable* rotation (join-style: old holders may keep reading
//! under the previous key) just bumps the version, so the fresh key
//! costs zero storage. A *fresh* rotation (leave-style: the new key
//! must be independent of everything a departed member could ever have
//! been shown, and of the static forest in case a subtree secret was
//! delegated) draws a random key and records it in the override map.
//! A later derivable rotation on the same node drops the override and
//! returns the node to the forest.

use crate::tree::{TreeBackend, TreeConfig};
use mykil_crypto::hmac::hmac_sha256;
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::SYMMETRIC_KEY_LEN;
use rand::RngCore;
use std::collections::BTreeMap;

/// How a key rotation may be produced by a derivation-based backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotateStyle {
    /// Join-style: every current holder of the old key is allowed to
    /// see the new one, so a version-bumped derived key is acceptable.
    Derivable,
    /// Leave-style: the new key must be independent of the derivation
    /// forest (forward secrecy against secret delegation), so the
    /// backend must draw fresh randomness.
    Fresh,
}

/// Key storage backend for [`Tree`](crate::tree::Tree).
///
/// Node indices are arena indices (`NodeIdx::raw`); versions are the
/// per-node counters bumped by every rotation. The snapshot hooks are
/// internal plumbing for `snapshot.rs` and not meant to be called
/// directly.
pub trait KeyStore: Clone + std::fmt::Debug {
    /// Creates storage holding only the root key (node 0, version 0).
    /// A store that can run either backend builds the one
    /// `cfg.backend()` selects; a single-backend store ignores it.
    fn new_root<R: RngCore + ?Sized>(cfg: TreeConfig, rng: &mut R) -> Self;

    /// The backend this store runs (what the tree's config reports).
    fn backend(&self) -> TreeBackend;

    /// Registers a newly allocated node (version 0). Nodes arrive in
    /// index order; `parent` is `None` only for the root.
    fn on_alloc<R: RngCore + ?Sized>(&mut self, node: usize, parent: Option<usize>, rng: &mut R);

    /// The key of `node` at `version`, owned.
    fn key(&self, node: usize, version: u64) -> SymmetricKey;

    /// Rotates `node` from `old_version` to `old_version + 1`,
    /// returning the **previous** key (the caller records it in a plan
    /// or lets it drop and zeroize).
    fn rotate<R: RngCore + ?Sized>(
        &mut self,
        node: usize,
        old_version: u64,
        style: RotateStyle,
        rng: &mut R,
    ) -> SymmetricKey;

    /// Bytes of key material resident in memory (the controller
    /// storage cost the perf gate tracks per backend).
    fn resident_key_bytes(&self) -> usize;

    // ---- snapshot plumbing (see `snapshot.rs`) ----

    /// Magic prefix of this store's snapshot format.
    #[doc(hidden)]
    fn snapshot_magic(&self) -> &'static [u8; 4];

    /// Empty storage for restoring an image that starts with `magic`,
    /// or `None` when this store cannot read that format. Nodes arrive
    /// via [`Self::restore_node`], backend state via
    /// [`Self::restore_tail`].
    #[doc(hidden)]
    fn restore_shell(magic: &[u8], capacity: usize) -> Option<Self>;

    /// Writes this backend's per-node snapshot field (the 16 key bytes
    /// for explicit storage; nothing for derived storage).
    #[doc(hidden)]
    fn snapshot_node(&self, node: usize, out: &mut Vec<u8>);

    /// Reads back what [`Self::snapshot_node`] wrote, consuming from
    /// the front of `input`.
    #[doc(hidden)]
    fn restore_node(
        &mut self,
        node: usize,
        parent: Option<usize>,
        input: &mut &[u8],
    ) -> Result<(), &'static str>;

    /// Writes this backend's trailing snapshot section.
    #[doc(hidden)]
    fn snapshot_tail(&self, out: &mut Vec<u8>);

    /// Reads back what [`Self::snapshot_tail`] wrote.
    #[doc(hidden)]
    fn restore_tail(&mut self, node_count: usize, input: &mut &[u8]) -> Result<(), &'static str>;
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], &'static str> {
    if input.len() < n {
        return Err("truncated");
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

fn take_u64(input: &mut &[u8]) -> Result<u64, &'static str> {
    let head = take(input, 8)?;
    let arr: [u8; 8] = head.try_into().map_err(|_| "truncated")?;
    Ok(u64::from_be_bytes(arr))
}

/// The paper's backend: one stored [`SymmetricKey`] per node.
#[derive(Debug, Clone)]
pub struct ExplicitKeys {
    keys: Vec<SymmetricKey>,
}

impl ExplicitKeys {
    const MAGIC: &'static [u8; 4] = b"MKT1";
}

impl KeyStore for ExplicitKeys {
    fn new_root<R: RngCore + ?Sized>(_cfg: TreeConfig, rng: &mut R) -> Self {
        ExplicitKeys {
            keys: vec![SymmetricKey::random(rng)],
        }
    }

    fn backend(&self) -> TreeBackend {
        TreeBackend::Explicit
    }

    fn on_alloc<R: RngCore + ?Sized>(&mut self, node: usize, _parent: Option<usize>, rng: &mut R) {
        debug_assert_eq!(node, self.keys.len());
        self.keys.push(SymmetricKey::random(rng));
    }

    fn key(&self, node: usize, _version: u64) -> SymmetricKey {
        self.keys[node].clone()
    }

    fn rotate<R: RngCore + ?Sized>(
        &mut self,
        node: usize,
        _old_version: u64,
        _style: RotateStyle,
        rng: &mut R,
    ) -> SymmetricKey {
        let new = SymmetricKey::random(rng);
        std::mem::replace(&mut self.keys[node], new)
    }

    fn resident_key_bytes(&self) -> usize {
        self.keys.len() * SYMMETRIC_KEY_LEN
    }

    fn snapshot_magic(&self) -> &'static [u8; 4] {
        Self::MAGIC
    }

    fn restore_shell(magic: &[u8], capacity: usize) -> Option<Self> {
        (magic == Self::MAGIC).then(|| ExplicitKeys {
            keys: Vec::with_capacity(capacity),
        })
    }

    fn snapshot_node(&self, node: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(self.keys[node].as_bytes());
    }

    fn restore_node(
        &mut self,
        node: usize,
        _parent: Option<usize>,
        input: &mut &[u8],
    ) -> Result<(), &'static str> {
        debug_assert_eq!(node, self.keys.len());
        let bytes: [u8; SYMMETRIC_KEY_LEN] = take(input, SYMMETRIC_KEY_LEN)?
            .try_into()
            .map_err(|_| "truncated")?;
        self.keys.push(SymmetricKey::from_bytes(bytes));
        Ok(())
    }

    fn snapshot_tail(&self, _out: &mut Vec<u8>) {}

    fn restore_tail(&mut self, _node_count: usize, _input: &mut &[u8]) -> Result<(), &'static str> {
        Ok(())
    }
}

const FOREST_SECRET_LEN: usize = 32;
const NODE_LABEL: &[u8] = b"mykil-khf-node";
const KEY_LABEL: &[u8] = b"mykil-khf-key";

/// Keyed-hash-forest backend: keys are derived, not stored.
///
/// Resident key material is the forest secret plus one key per
/// override — O(updated set) instead of O(n). See the module docs for
/// the derivation labels.
#[derive(Clone)]
pub struct KhfKeys {
    forest: [u8; FOREST_SECRET_LEN],
    /// Parent arena index per node (mirrors the tree structure so
    /// `secret(n)` can chase the derivation path without a tree ref).
    parent: Vec<Option<usize>>,
    /// Leave-style rotated nodes whose key is independent of the forest.
    overrides: BTreeMap<usize, SymmetricKey>,
}

impl KhfKeys {
    const MAGIC: &'static [u8; 4] = b"MKH1";

    /// The AC-only derivation secret of `node` (never a member-visible
    /// value). Recursion depth is the tree height.
    fn secret(&self, node: usize) -> [u8; 32] {
        match self.parent[node] {
            None => self.forest,
            Some(p) => {
                let parent_secret = self.secret(p);
                let mut label = [0u8; NODE_LABEL.len() + 8];
                label[..NODE_LABEL.len()].copy_from_slice(NODE_LABEL);
                label[NODE_LABEL.len()..].copy_from_slice(&(node as u64).to_be_bytes());
                hmac_sha256(&parent_secret, &label)
            }
        }
    }

    fn derived_key(&self, node: usize, version: u64) -> SymmetricKey {
        let secret = self.secret(node);
        let mut label = [0u8; KEY_LABEL.len() + 8];
        label[..KEY_LABEL.len()].copy_from_slice(KEY_LABEL);
        label[KEY_LABEL.len()..].copy_from_slice(&version.to_be_bytes());
        let tag = hmac_sha256(&secret, &label);
        let mut bytes = [0u8; SYMMETRIC_KEY_LEN];
        bytes.copy_from_slice(&tag[..SYMMETRIC_KEY_LEN]);
        SymmetricKey::from_bytes(bytes)
    }

    /// Number of override entries (test/bench visibility into the
    /// "updated set" the storage bound is expressed in).
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }
}

impl Drop for KhfKeys {
    fn drop(&mut self) {
        mykil_crypto::ct::zeroize(&mut self.forest);
    }
}

impl std::fmt::Debug for KhfKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the forest secret; a fingerprint identifies it.
        let fp = mykil_crypto::sha256::Sha256::digest(&self.forest);
        f.debug_struct("KhfKeys")
            .field("forest", &format_args!("#{:02x}{:02x}{:02x}{:02x}", fp[0], fp[1], fp[2], fp[3]))
            .field("nodes", &self.parent.len())
            .field("overrides", &self.overrides.len())
            .finish()
    }
}

impl KeyStore for KhfKeys {
    fn new_root<R: RngCore + ?Sized>(_cfg: TreeConfig, rng: &mut R) -> Self {
        let mut forest = [0u8; FOREST_SECRET_LEN];
        rng.fill_bytes(&mut forest);
        KhfKeys {
            forest,
            parent: vec![None],
            overrides: BTreeMap::new(),
        }
    }

    fn backend(&self) -> TreeBackend {
        TreeBackend::Khf
    }

    fn on_alloc<R: RngCore + ?Sized>(&mut self, node: usize, parent: Option<usize>, _rng: &mut R) {
        debug_assert_eq!(node, self.parent.len());
        self.parent.push(parent);
    }

    fn key(&self, node: usize, version: u64) -> SymmetricKey {
        match self.overrides.get(&node) {
            Some(k) => k.clone(),
            None => self.derived_key(node, version),
        }
    }

    fn rotate<R: RngCore + ?Sized>(
        &mut self,
        node: usize,
        old_version: u64,
        style: RotateStyle,
        rng: &mut R,
    ) -> SymmetricKey {
        let old = self.key(node, old_version);
        match style {
            // The node rejoins the forest: the bumped version derives a
            // fresh-looking key and the override (if any) is dropped.
            RotateStyle::Derivable => {
                self.overrides.remove(&node);
            }
            RotateStyle::Fresh => {
                self.overrides.insert(node, SymmetricKey::random(rng));
            }
        }
        old
    }

    fn resident_key_bytes(&self) -> usize {
        FOREST_SECRET_LEN + self.overrides.len() * SYMMETRIC_KEY_LEN
    }

    fn snapshot_magic(&self) -> &'static [u8; 4] {
        Self::MAGIC
    }

    fn restore_shell(magic: &[u8], capacity: usize) -> Option<Self> {
        (magic == Self::MAGIC).then(|| KhfKeys {
            forest: [0u8; FOREST_SECRET_LEN],
            parent: Vec::with_capacity(capacity),
            overrides: BTreeMap::new(),
        })
    }

    fn snapshot_node(&self, _node: usize, _out: &mut Vec<u8>) {}

    fn restore_node(
        &mut self,
        node: usize,
        parent: Option<usize>,
        _input: &mut &[u8],
    ) -> Result<(), &'static str> {
        debug_assert_eq!(node, self.parent.len());
        self.parent.push(parent);
        Ok(())
    }

    fn snapshot_tail(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.forest);
        out.extend_from_slice(&(self.overrides.len() as u64).to_be_bytes());
        for (&node, key) in &self.overrides {
            out.extend_from_slice(&(node as u64).to_be_bytes());
            out.extend_from_slice(key.as_bytes());
        }
    }

    fn restore_tail(&mut self, node_count: usize, input: &mut &[u8]) -> Result<(), &'static str> {
        let forest = take(input, FOREST_SECRET_LEN)?;
        self.forest.copy_from_slice(forest);
        let count = take_u64(input)?;
        if count > node_count as u64 {
            return Err("more overrides than nodes");
        }
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            let node = take_u64(input)?;
            if node >= node_count as u64 {
                return Err("override for unknown node");
            }
            // Strictly increasing indices keep the encoding canonical.
            if prev.is_some_and(|p| node <= p) {
                return Err("override order");
            }
            prev = Some(node);
            let bytes: [u8; SYMMETRIC_KEY_LEN] = take(input, SYMMETRIC_KEY_LEN)?
                .try_into()
                .map_err(|_| "truncated")?;
            self.overrides
                .insert(node as usize, SymmetricKey::from_bytes(bytes));
        }
        Ok(())
    }
}

/// The store an area controller's tree runs on: either backend, chosen
/// once — from [`TreeConfig::backend`] at construction, from the
/// snapshot magic at restore — with every call forwarded to it.
#[derive(Debug, Clone)]
pub enum AreaKeys {
    /// Every key stored explicitly (the paper's design).
    Explicit(ExplicitKeys),
    /// Keyed-hash-forest derivation; O(updated set) resident key bytes.
    Khf(KhfKeys),
}

impl KeyStore for AreaKeys {
    fn new_root<R: RngCore + ?Sized>(cfg: TreeConfig, rng: &mut R) -> Self {
        match cfg.backend() {
            TreeBackend::Explicit => AreaKeys::Explicit(ExplicitKeys::new_root(cfg, rng)),
            TreeBackend::Khf => AreaKeys::Khf(KhfKeys::new_root(cfg, rng)),
        }
    }

    fn backend(&self) -> TreeBackend {
        match self {
            AreaKeys::Explicit(s) => s.backend(),
            AreaKeys::Khf(s) => s.backend(),
        }
    }

    fn on_alloc<R: RngCore + ?Sized>(&mut self, node: usize, parent: Option<usize>, rng: &mut R) {
        match self {
            AreaKeys::Explicit(s) => s.on_alloc(node, parent, rng),
            AreaKeys::Khf(s) => s.on_alloc(node, parent, rng),
        }
    }

    fn key(&self, node: usize, version: u64) -> SymmetricKey {
        match self {
            AreaKeys::Explicit(s) => s.key(node, version),
            AreaKeys::Khf(s) => s.key(node, version),
        }
    }

    fn rotate<R: RngCore + ?Sized>(
        &mut self,
        node: usize,
        old_version: u64,
        style: RotateStyle,
        rng: &mut R,
    ) -> SymmetricKey {
        match self {
            AreaKeys::Explicit(s) => s.rotate(node, old_version, style, rng),
            AreaKeys::Khf(s) => s.rotate(node, old_version, style, rng),
        }
    }

    fn resident_key_bytes(&self) -> usize {
        match self {
            AreaKeys::Explicit(s) => s.resident_key_bytes(),
            AreaKeys::Khf(s) => s.resident_key_bytes(),
        }
    }

    fn snapshot_magic(&self) -> &'static [u8; 4] {
        match self {
            AreaKeys::Explicit(s) => s.snapshot_magic(),
            AreaKeys::Khf(s) => s.snapshot_magic(),
        }
    }

    fn restore_shell(magic: &[u8], capacity: usize) -> Option<Self> {
        ExplicitKeys::restore_shell(magic, capacity)
            .map(AreaKeys::Explicit)
            .or_else(|| KhfKeys::restore_shell(magic, capacity).map(AreaKeys::Khf))
    }

    fn snapshot_node(&self, node: usize, out: &mut Vec<u8>) {
        match self {
            AreaKeys::Explicit(s) => s.snapshot_node(node, out),
            AreaKeys::Khf(s) => s.snapshot_node(node, out),
        }
    }

    fn restore_node(
        &mut self,
        node: usize,
        parent: Option<usize>,
        input: &mut &[u8],
    ) -> Result<(), &'static str> {
        match self {
            AreaKeys::Explicit(s) => s.restore_node(node, parent, input),
            AreaKeys::Khf(s) => s.restore_node(node, parent, input),
        }
    }

    fn snapshot_tail(&self, out: &mut Vec<u8>) {
        match self {
            AreaKeys::Explicit(s) => s.snapshot_tail(out),
            AreaKeys::Khf(s) => s.snapshot_tail(out),
        }
    }

    fn restore_tail(&mut self, node_count: usize, input: &mut &[u8]) -> Result<(), &'static str> {
        match self {
            AreaKeys::Explicit(s) => s.restore_tail(node_count, input),
            AreaKeys::Khf(s) => s.restore_tail(node_count, input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::AreaTree;
    use crate::MemberId;
    use mykil_crypto::drbg::Drbg;

    fn khf_with(nodes: &[Option<usize>]) -> KhfKeys {
        let mut rng = Drbg::from_seed(77);
        let mut store = KhfKeys::new_root(TreeConfig::quad(), &mut rng);
        for (i, &p) in nodes.iter().enumerate().skip(1) {
            store.on_alloc(i, p, &mut rng);
        }
        store
    }

    #[test]
    fn derivation_is_deterministic_and_separated() {
        let store = khf_with(&[None, Some(0), Some(0), Some(1)]);
        assert_eq!(store.key(3, 0), store.key(3, 0));
        assert_ne!(store.key(3, 0), store.key(3, 1), "version must separate");
        assert_ne!(store.key(1, 0), store.key(2, 0), "node must separate");
        assert_ne!(store.key(0, 0), store.key(1, 0));
    }

    #[test]
    fn derivable_rotation_costs_no_storage() {
        let mut store = khf_with(&[None, Some(0)]);
        let mut rng = Drbg::from_seed(1);
        let base = store.resident_key_bytes();
        let old = store.rotate(1, 0, RotateStyle::Derivable, &mut rng);
        assert_eq!(old, store.derived_key(1, 0));
        assert_ne!(store.key(1, 1), old);
        assert_eq!(store.resident_key_bytes(), base);
    }

    #[test]
    fn fresh_rotation_overrides_then_derivable_reclaims() {
        let mut store = khf_with(&[None, Some(0)]);
        let mut rng = Drbg::from_seed(2);
        let base = store.resident_key_bytes();
        store.rotate(1, 0, RotateStyle::Fresh, &mut rng);
        assert_eq!(store.override_count(), 1);
        assert_eq!(store.resident_key_bytes(), base + SYMMETRIC_KEY_LEN);
        assert_ne!(
            store.key(1, 1),
            store.derived_key(1, 1),
            "override must shadow derivation"
        );
        // A later join-style rotation returns the node to the forest.
        let old = store.rotate(1, 1, RotateStyle::Derivable, &mut rng);
        assert!(old != store.key(1, 2));
        assert_eq!(store.override_count(), 0);
        assert_eq!(store.resident_key_bytes(), base);
        assert_eq!(store.key(1, 2), store.derived_key(1, 2));
    }

    #[test]
    fn debug_hides_forest_secret() {
        let store = khf_with(&[None, Some(0)]);
        let s = format!("{store:?}");
        assert!(s.contains("KhfKeys"));
        for b in store.forest {
            // No raw hex dump of the secret (spot check: the rendered
            // string is short).
            let _ = b;
        }
        assert!(s.len() < 120, "debug output leaks state: {s}");
    }

    #[test]
    fn backend_selection_follows_config() {
        let mut rng = Drbg::from_seed(1);
        let explicit = AreaTree::new(TreeConfig::quad(), &mut rng);
        assert_eq!(explicit.config().backend(), TreeBackend::Explicit);
        let khf = AreaTree::new(TreeConfig::quad().with_backend(TreeBackend::Khf), &mut rng);
        assert_eq!(khf.config().backend(), TreeBackend::Khf);
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
            assert_eq!(restored.config().backend(), backend);
            assert_eq!(restored.member_count(), t.member_count());
            assert_eq!(restored.area_key(), t.area_key());
            restored.check_invariants();
        }
        assert!(AreaTree::restore(b"ZZZZrest").is_err());
        assert!(AreaTree::restore(b"").is_err());
    }

    #[test]
    fn explicit_store_resident_bytes_are_linear() {
        let mut rng = Drbg::from_seed(3);
        let mut store = ExplicitKeys::new_root(TreeConfig::quad(), &mut rng);
        for i in 1..10 {
            store.on_alloc(i, Some(0), &mut rng);
        }
        assert_eq!(store.resident_key_bytes(), 10 * SYMMETRIC_KEY_LEN);
    }
}
