//! Key-update wire format and the member-side key store.
//!
//! An area controller turns a [`RekeyPlan`] into a list of
//! [`WireKeyEntry`]s — one per encrypted key copy, each a sealed
//! envelope of the new key under the protecting key — and multicasts
//! them in a signed [`Msg::KeyUpdate`](crate::msg::Msg). Members feed
//! the entries to their [`KeyState`], which learns exactly the keys it
//! can decrypt — the executable form of the paper's Figure 5/6
//! semantics.
//!
//! The hot path avoids materializing [`WireKeyEntry`] values at all:
//! [`write_entries_from_plan`] seals each envelope straight into the
//! outgoing frame and [`KeyState::apply_encoded`] opens entries straight
//! out of the received frame. The entry structs remain for tests,
//! diagnostics, and callers that need random access.

use crate::error::ProtocolError;
use crate::wire::{Reader, Writer};
use mykil_crypto::envelope;
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::{CryptoError, SYMMETRIC_KEY_LEN};
use mykil_tree::{EncryptUnder, NodeIdx, RekeyPlan};
use rand::RngCore;
use std::collections::BTreeMap;

/// Which stored key a receiver should try for an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnderTag {
    /// The previous key of the same node (join-style update).
    PrevSelf,
    /// The key of the given child node (leave-style update).
    Child(u32),
}

/// One encrypted key copy inside a key-update multicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireKeyEntry {
    /// The tree node whose key changed.
    pub node: u32,
    /// Hint for which stored key decrypts this entry.
    pub under: UnderTag,
    /// `seal(protecting_key, new_key_bytes)`.
    pub env: Vec<u8>,
}

/// Wire length of one sealed key envelope: a 16-byte key plus the
/// fixed envelope overhead (44 bytes total).
pub const KEY_ENV_LEN: usize = SYMMETRIC_KEY_LEN + envelope::ENVELOPE_OVERHEAD;

fn tag_wire_len(under: &EncryptUnder) -> usize {
    match under {
        EncryptUnder::PreviousSelf => 1,
        EncryptUnder::Child(_) => 1 + 4,
    }
}

/// Exact encoded size of a plan's key-update body — what
/// [`write_entries_from_plan`] will emit. Used to pre-size frames.
pub fn entries_wire_len(plan: &RekeyPlan) -> usize {
    let mut total = 4; // entry count
    for change in &plan.changes {
        for (under, _) in &change.encryptions {
            total += 4 + tag_wire_len(under) + 4 + KEY_ENV_LEN;
        }
    }
    total
}

/// Serializes a plan's key updates directly into `w`, sealing each
/// envelope in place — no intermediate [`WireKeyEntry`] list and no
/// per-envelope allocation.
///
/// Byte-identical to `encode_entries(&entries_from_plan(plan, rng))`
/// (same RNG consumption order), minus that pair's intermediate
/// allocations.
pub fn write_entries_from_plan<R: RngCore + ?Sized>(
    plan: &RekeyPlan,
    rng: &mut R,
    w: &mut Writer,
) {
    w.reserve(entries_wire_len(plan));
    w.u32_from(plan.encryption_count());
    write_plan_entries(plan, rng, w);
}

/// The entry bodies of [`write_entries_from_plan`] without the leading
/// count — for callers assembling one frame from several sources (the
/// flush path mixes aggregated join entries with a leave plan's).
pub fn write_plan_entries<R: RngCore + ?Sized>(plan: &RekeyPlan, rng: &mut R, w: &mut Writer) {
    for change in &plan.changes {
        for (under, key) in &change.encryptions {
            w.u32(change.node.wire());
            match under {
                EncryptUnder::PreviousSelf => {
                    w.u8(0);
                }
                EncryptUnder::Child(c) => {
                    w.u8(1).u32(c.wire());
                }
            }
            w.u32_from(KEY_ENV_LEN);
            w.append_with(|buf| envelope::seal_into(key, change.new_key.as_bytes(), rng, buf));
        }
    }
}

/// Builds wire entries from a rekey plan (sealing each new key under
/// each protecting key). Prefer [`write_entries_from_plan`] on hot
/// paths — it skips the per-entry envelope allocations.
pub fn entries_from_plan<R: RngCore + ?Sized>(plan: &RekeyPlan, rng: &mut R) -> Vec<WireKeyEntry> {
    let mut out = Vec::with_capacity(plan.encryption_count());
    for change in &plan.changes {
        for (under, key) in &change.encryptions {
            let tag = match under {
                EncryptUnder::PreviousSelf => UnderTag::PrevSelf,
                EncryptUnder::Child(c) => UnderTag::Child(c.wire()),
            };
            out.push(WireKeyEntry {
                node: change.node.wire(),
                under: tag,
                env: envelope::seal(key, change.new_key.as_bytes(), rng),
            });
        }
    }
    out
}

/// Serializes entries into a key-update body.
pub fn encode_entries(entries: &[WireKeyEntry]) -> Vec<u8> {
    let total: usize = 4
        + entries
            .iter()
            .map(|e| {
                let tag = match e.under {
                    UnderTag::PrevSelf => 1,
                    UnderTag::Child(_) => 5,
                };
                4 + tag + 4 + e.env.len()
            })
            .sum::<usize>();
    let mut w = Writer::with_capacity(total);
    w.u32_from(entries.len());
    for e in entries {
        w.u32(e.node);
        match e.under {
            UnderTag::PrevSelf => {
                w.u8(0);
            }
            UnderTag::Child(c) => {
                w.u8(1).u32(c);
            }
        }
        w.bytes(&e.env);
    }
    w.into_bytes()
}

/// Parses a key-update body.
///
/// # Errors
///
/// [`ProtocolError::Malformed`] on truncation or bad tags.
pub fn decode_entries(bytes: &[u8]) -> Result<Vec<WireKeyEntry>, ProtocolError> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    if count > 1 << 20 {
        return Err(ProtocolError::Malformed("entry count"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let (node, under, env) = decode_one_entry(&mut r)?;
        out.push(WireKeyEntry {
            node,
            under,
            env: env.to_vec(),
        });
    }
    r.finish()?;
    Ok(out)
}

fn decode_one_entry<'a>(r: &mut Reader<'a>) -> Result<(u32, UnderTag, &'a [u8]), ProtocolError> {
    let node = r.u32()?;
    let under = match r.u8()? {
        0 => UnderTag::PrevSelf,
        1 => UnderTag::Child(r.u32()?),
        _ => return Err(ProtocolError::Malformed("under tag")),
    };
    Ok((node, under, r.bytes()?))
}

/// Serializes a unicast key path (`(node, key)` pairs, leaf first).
pub fn encode_path(path: &[(u32, SymmetricKey)]) -> Vec<u8> {
    let mut w = Writer::with_capacity(4 + path.len() * (4 + SYMMETRIC_KEY_LEN));
    w.u32_from(path.len());
    for (node, key) in path {
        w.u32(*node).raw(key.as_bytes());
    }
    w.into_bytes()
}

/// [`encode_path`] straight from a tree plan's `(NodeIdx, key)` form,
/// skipping the intermediate converted `Vec` the call sites used to
/// build. Byte-identical to converting and calling [`encode_path`].
pub fn encode_tree_path(path: &[(NodeIdx, SymmetricKey)]) -> Vec<u8> {
    let mut w = Writer::with_capacity(4 + path.len() * (4 + SYMMETRIC_KEY_LEN));
    w.u32_from(path.len());
    for (node, key) in path {
        w.u32(node.wire()).raw(key.as_bytes());
    }
    w.into_bytes()
}

/// Parses a unicast key path.
///
/// # Errors
///
/// [`ProtocolError::Malformed`] on truncation.
pub fn decode_path(bytes: &[u8]) -> Result<Vec<(u32, SymmetricKey)>, ProtocolError> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    if count > 1 << 16 {
        return Err(ProtocolError::Malformed("path length"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let node = r.u32()?;
        let key: [u8; 16] = r.array()?;
        out.push((node, SymmetricKey::from_bytes(key)));
    }
    r.finish()?;
    Ok(out)
}

/// The tree node index of the area key (the root is always node 0).
pub const AREA_KEY_NODE: u32 = 0;

/// Result of applying a key-update multicast to a [`KeyState`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Entries successfully decrypted and installed.
    pub learned: usize,
    /// Entries whose protecting key we hold a *stale* copy of —
    /// evidence that an earlier update was missed.
    pub stale: usize,
    /// Entries whose envelope cannot be a key envelope at all (wrong
    /// length for a 16-byte plaintext). Previously these were silently
    /// dropped; a count makes a corrupt or hostile sender visible.
    pub malformed: usize,
}

/// How many superseded area keys are retained for late-arriving data.
///
/// A key update and a data packet multicast back-to-back can be
/// reordered by network jitter; the paper's TCP transport hid this, the
/// simulator does not. Retaining a few previous area keys lets
/// receivers unwrap `K_r` from data sealed just before a rotation.
pub const AREA_KEY_HISTORY: usize = 8;

/// A member's (or downstream AC's) current view of one area's keys.
#[derive(Debug, Clone, Default)]
pub struct KeyState {
    keys: BTreeMap<u32, SymmetricKey>,
    previous_roots: std::collections::VecDeque<SymmetricKey>,
}

impl KeyState {
    /// An empty key store.
    pub fn new() -> KeyState {
        KeyState::default()
    }

    /// Installs a unicast key path (join step 7 / rejoin step 6).
    pub fn install_path(&mut self, path: &[(u32, SymmetricKey)]) {
        for (node, key) in path {
            if *node == AREA_KEY_NODE {
                self.note_root_change(key.clone());
            }
            self.keys.insert(*node, key.clone());
        }
    }

    /// [`Self::install_path`] straight from a tree plan's
    /// `(NodeIdx, key)` form.
    pub fn install_tree_path(&mut self, path: &[(NodeIdx, SymmetricKey)]) {
        for (node, key) in path {
            let node = node.wire();
            if node == AREA_KEY_NODE {
                self.note_root_change(key.clone());
            }
            self.keys.insert(node, key.clone());
        }
    }

    fn note_root_change(&mut self, new: SymmetricKey) {
        if let Some(old) = self.keys.get(&AREA_KEY_NODE) {
            if *old != new {
                self.previous_roots.push_front(old.clone());
                self.previous_roots.truncate(AREA_KEY_HISTORY);
            }
        }
    }

    /// Applies one entry. Classification:
    ///
    /// - protecting key not held → ignored (not our subtree);
    /// - envelope length ≠ [`KEY_ENV_LEN`] → `malformed` (cannot be a
    ///   key envelope under *any* key);
    /// - MAC rejects → `stale` (our copy of the protecting key is out
    ///   of date);
    /// - opens → `learned`.
    fn apply_one(&mut self, node: u32, under: UnderTag, env: &[u8], outcome: &mut ApplyOutcome) {
        let trial = match under {
            UnderTag::PrevSelf => self.keys.get(&node),
            UnderTag::Child(c) => self.keys.get(&c),
        };
        let Some(trial) = trial else { return };
        match envelope::open_fixed::<SYMMETRIC_KEY_LEN>(trial, env) {
            Ok(raw) => {
                let new = SymmetricKey::from_bytes(raw);
                if node == AREA_KEY_NODE {
                    self.note_root_change(new.clone());
                }
                self.keys.insert(node, new);
                outcome.learned += 1;
            }
            Err(CryptoError::EnvelopeError(_)) => outcome.malformed += 1,
            Err(_) => outcome.stale += 1,
        }
    }

    /// Applies a key-update multicast: for each entry, if the protecting
    /// key is held, the envelope opens and the new key is stored.
    pub fn apply_entries(&mut self, entries: &[WireKeyEntry]) -> ApplyOutcome {
        let mut outcome = ApplyOutcome::default();
        for e in entries {
            self.apply_one(e.node, e.under, &e.env, &mut outcome);
        }
        outcome
    }

    /// Applies an encoded key-update body directly, without building a
    /// `Vec<WireKeyEntry>` first — envelopes are opened in place from
    /// the frame. Equivalent to `apply_entries(&decode_entries(bytes)?)`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on truncation or bad tags; the
    /// key store may have absorbed earlier entries of a frame that
    /// fails late (same keys a re-sent valid frame would install).
    pub fn apply_encoded(&mut self, bytes: &[u8]) -> Result<ApplyOutcome, ProtocolError> {
        let mut r = Reader::new(bytes);
        let count = r.u32()? as usize;
        if count > 1 << 20 {
            return Err(ProtocolError::Malformed("entry count"));
        }
        let mut outcome = ApplyOutcome::default();
        for _ in 0..count {
            let (node, under, env) = decode_one_entry(&mut r)?;
            self.apply_one(node, under, env, &mut outcome);
        }
        r.finish()?;
        Ok(outcome)
    }

    /// The current area key, if known.
    pub fn area_key(&self) -> Option<SymmetricKey> {
        self.keys.get(&AREA_KEY_NODE).cloned()
    }

    /// The current area key followed by recently superseded ones
    /// (newest first) — the set a receiver tries when unwrapping data.
    pub fn area_keys_with_history(&self) -> Vec<SymmetricKey> {
        let mut out = Vec::with_capacity(1 + self.previous_roots.len());
        out.extend(self.area_key());
        out.extend(self.previous_roots.iter().cloned());
        out
    }

    /// Number of keys held (the storage metric of Section V-A).
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Removes everything (member left the area).
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// Serializes the key store (used by AC replication). Streams the
    /// [`encode_path`] format directly from the map — no intermediate
    /// cloned path.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(4 + self.keys.len() * (4 + SYMMETRIC_KEY_LEN));
        w.u32_from(self.keys.len());
        for (node, key) in &self.keys {
            w.u32(*node).raw(key.as_bytes());
        }
        w.into_bytes()
    }

    /// Restores a key store serialized by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<KeyState, ProtocolError> {
        let mut st = KeyState::new();
        st.install_path(&decode_path(bytes)?);
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_crypto::drbg::Drbg;
    use mykil_tree::{KeyTree, MemberId, TreeConfig};

    #[test]
    fn entries_round_trip() {
        let mut rng = Drbg::from_seed(1);
        let mut tree = KeyTree::new(TreeConfig::binary(), &mut rng);
        for m in 0..8 {
            tree.join(MemberId(m), &mut rng).unwrap();
        }
        let plan = tree.leave(MemberId(3), &mut rng).unwrap();
        let entries = entries_from_plan(&plan, &mut rng);
        assert_eq!(entries.len(), plan.encryption_count());
        let bytes = encode_entries(&entries);
        assert_eq!(decode_entries(&bytes).unwrap(), entries);
        assert!(decode_entries(&bytes[..bytes.len() - 1]).is_err());
    }

    /// The streaming encoder must produce the exact bytes of the
    /// build-then-encode pair, including RNG consumption order.
    #[test]
    fn streaming_encoder_matches_two_step() {
        let mut rng = Drbg::from_seed(9);
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut rng);
        for m in 0..20 {
            tree.join(MemberId(m), &mut rng).unwrap();
        }
        let plan = tree
            .batch(&[MemberId(100)], &[MemberId(3), MemberId(7)], &mut rng)
            .unwrap()
            .plan;

        let mut rng_a = Drbg::from_seed(77);
        let two_step = encode_entries(&entries_from_plan(&plan, &mut rng_a));

        let mut rng_b = Drbg::from_seed(77);
        let mut w = Writer::new();
        write_entries_from_plan(&plan, &mut rng_b, &mut w);
        let streamed = w.into_bytes();

        assert_eq!(streamed, two_step);
        assert_eq!(streamed.len(), entries_wire_len(&plan));
    }

    #[test]
    fn apply_encoded_matches_apply_entries() {
        let mut rng = Drbg::from_seed(10);
        let mut tree = KeyTree::new(TreeConfig::binary(), &mut rng);
        let mut st_a = KeyState::new();
        for m in 0..8 {
            let plan = tree.join(MemberId(m), &mut rng).unwrap();
            if let Some(u) = plan.unicasts.iter().find(|u| u.member == MemberId(0)) {
                st_a.install_tree_path(&u.keys);
            }
            let entries = entries_from_plan(&plan, &mut rng);
            st_a.apply_entries(&entries);
        }
        let mut st_b = st_a.clone();

        let plan = tree.leave(MemberId(5), &mut rng).unwrap();
        let mut w = Writer::new();
        write_entries_from_plan(&plan, &mut rng, &mut w);
        let bytes = w.into_bytes();

        let out_a = st_a.apply_entries(&decode_entries(&bytes).unwrap());
        let out_b = st_b.apply_encoded(&bytes).unwrap();
        assert_eq!(out_a, out_b);
        assert!(out_b.learned > 0);
        assert_eq!(st_a.area_key(), st_b.area_key());
        assert_eq!(st_a.key_count(), st_b.key_count());

        assert!(st_b.apply_encoded(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn path_round_trip() {
        let path = vec![
            (5u32, SymmetricKey::from_label("a")),
            (2, SymmetricKey::from_label("b")),
            (0, SymmetricKey::from_label("c")),
        ];
        let bytes = encode_path(&path);
        assert_eq!(decode_path(&bytes).unwrap(), path);
        assert!(decode_path(&bytes[..7]).is_err());
    }

    /// Full distribution flow over real envelopes: members track the
    /// area key through joins and leaves; departed members cannot.
    #[test]
    fn keystate_tracks_area_key_through_churn() {
        let mut rng = Drbg::from_seed(2);
        let mut tree = KeyTree::new(TreeConfig::quad(), &mut rng);
        let mut states: BTreeMap<u64, KeyState> = BTreeMap::new();

        for m in 0..12u64 {
            let plan = tree.join(MemberId(m), &mut rng).unwrap();
            let entries = entries_from_plan(&plan, &mut rng);
            for st in states.values_mut() {
                st.apply_entries(&entries);
            }
            for u in &plan.unicasts {
                states
                    .entry(u.member.0)
                    .or_default()
                    .install_tree_path(&u.keys);
            }
        }
        for st in states.values() {
            assert_eq!(st.area_key(), Some(tree.area_key()));
        }

        // One member leaves; the rest keep up, the departed one stalls.
        let plan = tree.leave(MemberId(4), &mut rng).unwrap();
        let entries = entries_from_plan(&plan, &mut rng);
        let mut departed = states.remove(&4).unwrap();
        assert_eq!(departed.apply_entries(&entries).learned, 0);
        assert_ne!(departed.area_key(), Some(tree.area_key()));
        for (m, st) in states.iter_mut() {
            st.apply_entries(&entries);
            assert_eq!(st.area_key(), Some(tree.area_key()), "member {m}");
        }
    }

    #[test]
    fn garbage_envelope_counted_malformed() {
        let mut st = KeyState::new();
        st.install_path(&[(0, SymmetricKey::from_label("root"))]);
        // 50 bytes can never hold a 16-byte key plaintext.
        let outcome = st.apply_entries(&[WireKeyEntry {
            node: 0,
            under: UnderTag::PrevSelf,
            env: vec![0u8; 50],
        }]);
        assert_eq!(outcome.learned, 0);
        assert_eq!(outcome.malformed, 1, "wrong-length envelope must be counted");
        assert_eq!(outcome.stale, 0);
        assert_eq!(st.area_key(), Some(SymmetricKey::from_label("root")));
    }

    /// Regression: a correctly MAC'd envelope whose plaintext is not 16
    /// bytes used to be dropped with no trace; it must now be counted
    /// as malformed. A right-length envelope failing its MAC stays
    /// classed as stale.
    #[test]
    fn wrong_plaintext_length_is_malformed_not_silent() {
        let mut rng = Drbg::from_seed(3);
        let root = SymmetricKey::from_label("root");
        let mut st = KeyState::new();
        st.install_path(&[(0, root.clone())]);

        // Valid envelope under the held key, but 17-byte plaintext.
        let outcome = st.apply_entries(&[WireKeyEntry {
            node: 0,
            under: UnderTag::PrevSelf,
            env: envelope::seal(&root, &[0x42; 17], &mut rng),
        }]);
        assert_eq!(
            outcome,
            ApplyOutcome {
                learned: 0,
                stale: 0,
                malformed: 1
            }
        );

        // Right length, wrong key: stale, not malformed.
        let other = SymmetricKey::from_label("other");
        let outcome = st.apply_entries(&[WireKeyEntry {
            node: 0,
            under: UnderTag::PrevSelf,
            env: envelope::seal(&other, &[0x42; 16], &mut rng),
        }]);
        assert_eq!(
            outcome,
            ApplyOutcome {
                learned: 0,
                stale: 1,
                malformed: 0
            }
        );
        assert_eq!(st.area_key(), Some(root));
    }

    #[test]
    fn clear_and_counters() {
        let mut st = KeyState::new();
        assert_eq!(st.key_count(), 0);
        assert_eq!(st.area_key(), None);
        st.install_path(&[(0, SymmetricKey::from_label("x")), (3, SymmetricKey::from_label("y"))]);
        assert_eq!(st.key_count(), 2);
        st.clear();
        assert_eq!(st.key_count(), 0);
    }

    #[test]
    fn keystate_to_bytes_round_trip() {
        let mut st = KeyState::new();
        st.install_path(&[
            (0, SymmetricKey::from_label("r")),
            (3, SymmetricKey::from_label("s")),
            (9, SymmetricKey::from_label("t")),
        ]);
        let bytes = st.to_bytes();
        let back = KeyState::from_bytes(&bytes).unwrap();
        assert_eq!(back.key_count(), 3);
        assert_eq!(back.area_key(), st.area_key());
        assert_eq!(back.to_bytes(), bytes);
    }
}
