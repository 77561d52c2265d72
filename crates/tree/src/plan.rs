//! Rekey plans: the output of every tree mutation.
//!
//! A plan records *what changed* and *how each new key must be
//! distributed*: multicast entries encrypted under previous/child keys
//! (readable by exactly the members who should learn the new key) and
//! unicast key lists for members whose position changed. The protocol
//! layer serializes plans into wire messages; the benches use the size
//! accessors directly — this is the quantity plotted in Figures 8–10 of
//! the paper.

use crate::tree::NodeIdx;
use crate::{MemberId, KEY_LEN};
use mykil_crypto::keys::SymmetricKey;

/// Which key protects one multicast copy of a new key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncryptUnder {
    /// Encrypted under the *previous* version of the same node's key
    /// (join-style rekey: `E_{K_old}(K_new)`, readable by all existing
    /// holders).
    PreviousSelf,
    /// Encrypted under a child node's current key (leave-style rekey:
    /// readable by that child's subtree only).
    Child(NodeIdx),
}

/// One changed tree node and the encrypted copies that distribute it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyChange {
    /// The node whose key changed.
    pub node: NodeIdx,
    /// The fresh key value.
    pub new_key: SymmetricKey,
    /// One entry per encrypted copy in the multicast rekey message:
    /// the protecting key and its provenance.
    pub encryptions: Vec<(EncryptUnder, SymmetricKey)>,
}

/// Keys that must be delivered to one member over unicast
/// (a joining member's full path, or a displaced member's new leaf key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnicastKeys {
    /// The recipient.
    pub member: MemberId,
    /// `(node, key)` pairs, leaf first, root last.
    pub keys: Vec<(NodeIdx, SymmetricKey)>,
}

/// The complete result of a join, leave, or batch rekey.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RekeyPlan {
    /// Changed keys, deepest node first, root last.
    pub changes: Vec<KeyChange>,
    /// Per-member unicast deliveries.
    pub unicasts: Vec<UnicastKeys>,
}

impl RekeyPlan {
    /// Total encrypted key copies in the multicast rekey message.
    pub fn encryption_count(&self) -> usize {
        self.changes.iter().map(|c| c.encryptions.len()).sum()
    }

    /// Size in bytes of the multicast rekey message body
    /// (`encryption_count · KEY_LEN`, the quantity plotted in the
    /// paper's Figures 8–10).
    pub fn multicast_bytes(&self) -> usize {
        self.encryption_count() * KEY_LEN
    }

    /// Size in bytes of all unicast payloads (key material only).
    pub fn unicast_bytes(&self) -> usize {
        self.unicasts
            .iter()
            .map(|u| u.keys.len() * KEY_LEN)
            .sum()
    }

    /// Number of distinct keys that changed.
    pub fn keys_changed(&self) -> usize {
        self.changes.len()
    }

    /// True when nothing changed (e.g. the last member left).
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.unicasts.is_empty()
    }

    /// Merges another plan into this one, concatenating changes and
    /// unicasts (used to combine an area-key update with tree updates).
    pub fn extend(&mut self, other: RekeyPlan) {
        self.changes.extend(other.changes);
        self.unicasts.extend(other.unicasts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(label: &str) -> SymmetricKey {
        SymmetricKey::from_label(label)
    }

    fn change(node: usize, n_enc: usize) -> KeyChange {
        KeyChange {
            node: NodeIdx(node),
            new_key: key(&format!("new-{node}")),
            encryptions: (0..n_enc)
                .map(|i| (EncryptUnder::Child(NodeIdx(100 + i)), key(&format!("c{i}"))))
                .collect(),
        }
    }

    #[test]
    fn size_accounting() {
        let plan = RekeyPlan {
            changes: vec![change(1, 2), change(2, 3)],
            unicasts: vec![UnicastKeys {
                member: MemberId(9),
                keys: vec![(NodeIdx(1), key("a")), (NodeIdx(2), key("b"))],
            }],
        };
        assert_eq!(plan.encryption_count(), 5);
        assert_eq!(plan.multicast_bytes(), 5 * KEY_LEN);
        assert_eq!(plan.unicast_bytes(), 2 * KEY_LEN);
        assert_eq!(plan.keys_changed(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_plan() {
        let plan = RekeyPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.multicast_bytes(), 0);
        assert_eq!(plan.unicast_bytes(), 0);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = RekeyPlan {
            changes: vec![change(1, 1)],
            unicasts: vec![],
        };
        let b = RekeyPlan {
            changes: vec![change(2, 2)],
            unicasts: vec![UnicastKeys {
                member: MemberId(3),
                keys: vec![(NodeIdx(5), key("x"))],
            }],
        };
        a.extend(b);
        assert_eq!(a.keys_changed(), 2);
        assert_eq!(a.unicasts.len(), 1);
    }
}
