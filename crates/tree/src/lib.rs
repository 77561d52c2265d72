//! The auxiliary-key tree at the heart of Mykil's rekeying.
//!
//! Every Mykil area controller maintains a tree of cryptographic keys
//! (Section III-C of the paper): the root is the *area key*, interior
//! nodes hold *auxiliary keys*, and each member is associated with a
//! distinct leaf holding that member's individual key. A member knows
//! exactly the keys on the path from its leaf to the root.
//!
//! This crate implements the paper's exact semantics:
//!
//! - **Join** (Figure 4): occupy an empty leaf if one exists; otherwise
//!   split the shallowest, left-most occupied leaf into `arity` children,
//!   moving the displaced member to the first child and the newcomer to
//!   the second. Keys along the new member's path are refreshed and
//!   distributed encrypted under their *previous* versions.
//! - **Leave** (Figure 5): refresh every key from the departed leaf's
//!   parent up to the root; each fresh key is distributed encrypted under
//!   each child's key. The vacated leaf is *kept* (not pruned) to make
//!   future joins cheap — an explicit Mykil design decision.
//! - **Batching** (Figure 6, Section III-E): aggregate consecutive
//!   join/leave events so shared path segments are refreshed only once,
//!   saving the 40–60% of key-update traffic the paper reports.
//!
//! The tree produces [`RekeyPlan`]s — a description of which keys changed
//! and what each new key must be encrypted under — which the `mykil`
//! protocol crate turns into actual wire messages, and which the
//! benchmarks use directly for byte accounting.
//!
//! There is one tree type, [`Tree`], generic over the [`KeyStore`] that
//! holds its keys: [`KeyTree`] stores every key (the paper's design),
//! [`KhfTree`] derives them from a keyed-hash forest, and [`AreaTree`],
//! the tree an area controller holds, runs on [`AreaKeys`], which picks
//! one of the two at runtime from [`TreeConfig::backend`].
//!
//! # Example
//!
//! ```
//! use mykil_crypto::drbg::Drbg;
//! use mykil_tree::{KeyTree, MemberId, TreeConfig};
//!
//! let mut rng = Drbg::from_seed(1);
//! let mut tree = KeyTree::new(TreeConfig::quad(), &mut rng);
//! for m in 0..10 {
//!     tree.join(MemberId(m), &mut rng)?;
//! }
//! let plan = tree.leave(MemberId(3), &mut rng)?;
//! assert!(!plan.changes.is_empty());
//! assert_eq!(tree.member_count(), 9);
//! # Ok::<(), mykil_tree::TreeError>(())
//! ```

mod batch;
mod dot;
mod error;
mod member_view;
mod plan;
mod snapshot;
mod store;
mod tree;

pub use batch::BatchOutcome;
pub use error::TreeError;
pub use member_view::MemberView;
pub use plan::{EncryptUnder, KeyChange, RekeyPlan, UnicastKeys};
pub use snapshot::SnapshotError;
pub use store::{AreaKeys, ExplicitKeys, KeyStore, KhfKeys, RotateStyle};
pub use tree::{AreaTree, KeyTree, KhfTree, NodeIdx, Tree, TreeBackend, TreeConfig};

/// Identifier of a group member within one area's key tree.
///
/// The protocol layer maps these to real client identities; the tree
/// only needs them to be unique within an area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId(pub u64);

impl std::fmt::Display for MemberId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Symmetric key length used for size accounting (the paper's 128-bit
/// keys).
pub const KEY_LEN: usize = mykil_crypto::SYMMETRIC_KEY_LEN;
