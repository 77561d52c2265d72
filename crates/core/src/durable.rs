//! Durable on-disk formats for crash recovery, and the one fold per
//! controller that reads them back.
//!
//! Mykil's fault-tolerance story in the paper (Section IV) assumes a
//! failed area controller "recovers with its state intact" or is
//! replaced by its backup. This module makes the first half honest: it
//! defines the write-ahead-log records and checkpoint images that an
//! area controller and the registration server commit to simulated
//! stable storage ([`mykil_net::StableStore`]), so that a crash wipes
//! volatile memory but `on_restarted` can rebuild from the durable
//! prefix.
//!
//! The discipline mirrors a classic ARIES-lite split:
//!
//! - **WAL records** ([`AcWalRecord`], [`RsWalRecord`]) are committed
//!   *before* a state change is acknowledged to a peer: member
//!   admissions, leaves, evictions, role transitions, client-id
//!   assignment, directory updates.
//! - **Checkpoints** ([`AcCheckpoint`], [`RsCheckpoint`]) capture full
//!   state at natural compaction points (every rekey flush, every
//!   replica-snapshot application, role changes) and truncate the log.
//!
//! [`AcSnapshot`] is the one replica-snapshot codec, and [`replay_ac`] /
//! [`replay_rs`] are the only readers of a controller's checkpoint and
//! WAL: recovery installs the view they return, and the durability
//! invariant compares the same view with live memory — same role and
//! fencing epoch, same membership, no evicted member resurrected.

use crate::directory::AcDirectory;
use crate::rekey::KeyState;
use crate::wire::{Reader, Writer};
use mykil_crypto::rsa::RsaPublicKey;
use mykil_tree::AreaTree;
use std::collections::{BTreeMap, BTreeSet};

/// Fencing jump applied to a recovered primary's rekey epoch and
/// replication sequence.
///
/// Both counters may lag their durable image: `sync_seq` is bumped
/// *after* the flush checkpoint that covers the same membership change,
/// and a lying-fsync crash can roll the whole image back to an older
/// consistent prefix. Resuming with a stale counter would make members
/// (epoch guard) and the backup (stale-`StateSync` guard) silently
/// discard the recovered primary's traffic. Jumping far past any value
/// the pre-crash incarnation could have used re-fences both channels.
pub const RECOVERY_EPOCH_JUMP: u64 = 1 << 20;

/// Writes an optional field: a `0` flag, or a `1` flag and the value.
fn put_opt<T>(w: &mut Writer, v: Option<T>, put: impl FnOnce(&mut Writer, T)) {
    match v {
        Some(v) => {
            w.u8(1);
            put(w, v);
        }
        None => {
            w.u8(0);
        }
    }
}

/// Reads a field written by [`put_opt`]. Any flag but `0` or `1` is
/// corruption, so every input that decodes re-encodes to its bytes.
fn get_opt<T>(
    r: &mut Reader<'_>,
    get: impl FnOnce(&mut Reader<'_>) -> Option<T>,
) -> Option<Option<T>> {
    match r.u8().ok()? {
        0 => Some(None),
        1 => get(r).map(Some),
        _ => None,
    }
}

/// Reads a `u32` count and that many items. The count sizes no
/// allocation beyond what the input can actually hold.
fn get_list<T>(r: &mut Reader<'_>, get: impl Fn(&mut Reader<'_>) -> Option<T>) -> Option<Vec<T>> {
    let n = r.u32().ok()? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(get(r)?);
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Member records (shared by the WAL and the replica snapshot)
// ---------------------------------------------------------------------

/// One member's durable record. A `Join` WAL record and each entry of a
/// replica snapshot's member list share this layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableMember {
    /// Client id.
    pub client: u64,
    /// The member's node address (raw index).
    pub node: u32,
    /// Encoded member public key; decoding rejects a key that does not
    /// parse as an [`RsaPublicKey`].
    pub pubkey: Vec<u8>,
    /// Device identity from the ticket, if presented.
    pub device: Option<[u8; 6]>,
    /// Membership expiry, microseconds of virtual time.
    pub valid_until_us: u64,
}

impl DurableMember {
    fn write(&self, w: &mut Writer) {
        w.u64(self.client).u32(self.node).bytes(&self.pubkey);
        put_opt(w, self.device.as_ref(), |w, d| {
            w.raw(d);
        });
        w.u64(self.valid_until_us);
    }

    fn read(r: &mut Reader<'_>) -> Option<DurableMember> {
        let client = r.u64().ok()?;
        let node = r.u32().ok()?;
        let pubkey = r.bytes().ok()?.to_vec();
        RsaPublicKey::from_bytes(&pubkey).ok()?;
        Some(DurableMember {
            client,
            node,
            pubkey,
            device: get_opt(r, |r| r.array::<6>().ok())?,
            valid_until_us: r.u64().ok()?,
        })
    }
}

// ---------------------------------------------------------------------
// Area-controller WAL
// ---------------------------------------------------------------------

const AC_WAL_JOIN: u8 = 1;
const AC_WAL_LEAVE: u8 = 2;
const AC_WAL_EVICT: u8 = 3;
const AC_WAL_PROMOTED: u8 = 4;
const AC_WAL_DEMOTED: u8 = 5;

/// One durable membership or role delta, logged by an area controller
/// before the change is acknowledged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcWalRecord {
    /// A member was admitted (join or rejoin step 7).
    Join(DurableMember),
    /// A member left voluntarily.
    Leave {
        /// Client id.
        client: u64,
    },
    /// A member was evicted (failure detector or expiry).
    Evict {
        /// Client id.
        client: u64,
    },
    /// This node promoted itself from backup to primary.
    Promoted {
        /// The fencing epoch claimed by the promotion.
        takeover_epoch: u64,
        /// The primary taken over from (raw node index) — the only peer
        /// whose stale heartbeats warrant a signed `Demote`.
        old_primary: u32,
    },
    /// This node accepted an epoch-fenced demotion to backup.
    Demoted {
        /// The surviving primary (raw node index).
        new_primary: u32,
    },
}

impl AcWalRecord {
    /// Serializes the record for [`mykil_net::StableStore::wal_commit`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            AcWalRecord::Join(m) => {
                w.u8(AC_WAL_JOIN);
                m.write(&mut w);
            }
            AcWalRecord::Leave { client } => {
                w.u8(AC_WAL_LEAVE).u64(*client);
            }
            AcWalRecord::Evict { client } => {
                w.u8(AC_WAL_EVICT).u64(*client);
            }
            AcWalRecord::Promoted {
                takeover_epoch,
                old_primary,
            } => {
                w.u8(AC_WAL_PROMOTED).u64(*takeover_epoch).u32(*old_primary);
            }
            AcWalRecord::Demoted { new_primary } => {
                w.u8(AC_WAL_DEMOTED).u32(*new_primary);
            }
        }
        w.into_bytes()
    }

    /// Parses a record read back by recovery; `None` on any malformed
    /// input, including a `Join` whose public key does not parse
    /// (storage corruption surfaces as an unparseable record, not a
    /// panic).
    pub fn from_bytes(bytes: &[u8]) -> Option<AcWalRecord> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8().ok()? {
            AC_WAL_JOIN => AcWalRecord::Join(DurableMember::read(&mut r)?),
            AC_WAL_LEAVE => AcWalRecord::Leave {
                client: r.u64().ok()?,
            },
            AC_WAL_EVICT => AcWalRecord::Evict {
                client: r.u64().ok()?,
            },
            AC_WAL_PROMOTED => AcWalRecord::Promoted {
                takeover_epoch: r.u64().ok()?,
                old_primary: r.u32().ok()?,
            },
            AC_WAL_DEMOTED => AcWalRecord::Demoted {
                new_primary: r.u32().ok()?,
            },
            _ => return None,
        };
        r.finish().ok()?;
        Some(rec)
    }
}

// ---------------------------------------------------------------------
// Replica snapshot
// ---------------------------------------------------------------------

/// The replicated state of an area controller (Section IV-C): tree,
/// member keys, parent and child controllers, rekey epoch. Primary
/// checkpoints and `StateSync` bodies carry it. Decoding validates all
/// that installing parses (tree, parent keys, member keys), so a
/// snapshot that decodes always installs and re-encodes to its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcSnapshot {
    /// [`AreaTree::snapshot`] bytes.
    pub tree: Vec<u8>,
    /// Member records, ascending by client id.
    pub members: Vec<DurableMember>,
    /// Parent link as raw `(node, area, group)` indices.
    pub parent: Option<(u32, u32, u32)>,
    /// Encoded parent-area key path ([`KeyState::to_bytes`]).
    pub parent_keys: Vec<u8>,
    /// Rekey epoch.
    pub epoch: u64,
    /// Child-controller nodes (raw indices), ascending.
    pub child_acs: Vec<u32>,
    /// Child-controller enrollments `(tree member id, node)`, ascending;
    /// a promoted backup needs them to serve child-AC key refreshes.
    pub child_ac_members: Vec<(u64, u32)>,
}

impl AcSnapshot {
    /// Serializes the snapshot.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.tree).u32_from(self.members.len());
        for m in &self.members {
            m.write(&mut w);
        }
        put_opt(&mut w, self.parent, |w, (node, area, group)| {
            w.u32(node).u32(area).u32(group);
        });
        w.bytes(&self.parent_keys)
            .u64(self.epoch)
            .u32_from(self.child_acs.len());
        for c in &self.child_acs {
            w.u32(*c);
        }
        w.u32_from(self.child_ac_members.len());
        for (member, node) in &self.child_ac_members {
            w.u64(*member).u32(*node);
        }
        w.into_bytes()
    }

    /// Parses and validates a snapshot; `None` on corruption.
    pub fn from_bytes(bytes: &[u8]) -> Option<AcSnapshot> {
        let mut r = Reader::new(bytes);
        let tree = r.bytes().ok()?.to_vec();
        AreaTree::restore(&tree).ok()?;
        let members = get_list(&mut r, DurableMember::read)?;
        let parent = get_opt(&mut r, |r| Some((r.u32().ok()?, r.u32().ok()?, r.u32().ok()?)))?;
        let parent_keys = r.bytes().ok()?.to_vec();
        KeyState::from_bytes(&parent_keys).ok()?;
        let snap = AcSnapshot {
            tree,
            members,
            parent,
            parent_keys,
            epoch: r.u64().ok()?,
            child_acs: get_list(&mut r, |r| r.u32().ok())?,
            child_ac_members: get_list(&mut r, |r| Some((r.u64().ok()?, r.u32().ok()?)))?,
        };
        r.finish().ok()?;
        Some(snap)
    }
}

// ---------------------------------------------------------------------
// Area-controller checkpoint
// ---------------------------------------------------------------------

/// Full-state image an area controller writes at compaction points.
///
/// The membership/tree/hierarchy payload is an encoded [`AcSnapshot`],
/// so the checkpoint of a primary carries the same bytes it ships to
/// its backup; a backup checkpoints the last snapshot it received,
/// raw. Everything else is
/// the replication/fencing state that the snapshot deliberately leaves
/// out — in particular `stale_peer`, without which a recovered promoted
/// backup could no longer fence the old primary it took over from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AcCheckpoint {
    /// Role at checkpoint time.
    pub primary: bool,
    /// The primary this node replicates (raw index; backup role only).
    pub primary_node: u32,
    /// Fencing epoch.
    pub takeover_epoch: u64,
    /// Counterpart's fencing epoch as last seen.
    pub peer_takeover_epoch: u64,
    /// Next-snapshot sequence (primary role).
    pub sync_seq: u64,
    /// Highest snapshot sequence applied (backup role).
    pub applied_sync_seq: u64,
    /// The demoted peer this node still fences, if any (raw index).
    pub stale_peer: Option<u32>,
    /// Backup replica address and encoded public key, if replicated.
    pub backup: Option<(u32, Vec<u8>)>,
    /// Encoded [`AcSnapshot`]: own state for a primary, the last
    /// received primary snapshot for a backup (`None` before first
    /// sync).
    pub snapshot: Option<Vec<u8>>,
}

impl AcCheckpoint {
    /// Serializes the checkpoint for
    /// [`mykil_net::StableStore::checkpoint`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        put_opt(&mut w, (!self.primary).then_some(self.primary_node), |w, n| {
            w.u32(n);
        });
        w.u64(self.takeover_epoch)
            .u64(self.peer_takeover_epoch)
            .u64(self.sync_seq)
            .u64(self.applied_sync_seq);
        put_opt(&mut w, self.stale_peer, |w, n| {
            w.u32(n);
        });
        put_opt(&mut w, self.backup.as_ref(), |w, (node, pubkey)| {
            w.u32(*node).bytes(pubkey);
        });
        put_opt(&mut w, self.snapshot.as_deref(), |w, s| {
            w.bytes(s);
        });
        w.into_bytes()
    }

    /// Parses a checkpoint read back by recovery; `None` on corruption.
    pub fn from_bytes(bytes: &[u8]) -> Option<AcCheckpoint> {
        let mut r = Reader::new(bytes);
        let backup_of = get_opt(&mut r, |r| r.u32().ok())?;
        let cp = AcCheckpoint {
            primary: backup_of.is_none(),
            primary_node: backup_of.unwrap_or(0),
            takeover_epoch: r.u64().ok()?,
            peer_takeover_epoch: r.u64().ok()?,
            sync_seq: r.u64().ok()?,
            applied_sync_seq: r.u64().ok()?,
            stale_peer: get_opt(&mut r, |r| r.u32().ok())?,
            backup: get_opt(&mut r, |r| Some((r.u32().ok()?, r.bytes().ok()?.to_vec())))?,
            snapshot: get_opt(&mut r, |r| Some(r.bytes().ok()?.to_vec()))?,
        };
        r.finish().ok()?;
        Some(cp)
    }
}

// ---------------------------------------------------------------------
// Registration-server WAL and checkpoint
// ---------------------------------------------------------------------

const RS_WAL_CLIENT: u8 = 1;
const RS_WAL_UPSERT: u8 = 2;

/// One durable registration-server delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsWalRecord {
    /// A client id was handed out in join step 4/5. Logged before the
    /// reply so a recovered RS never re-issues the same id.
    ClientAssigned {
        /// The id assigned.
        client: u64,
    },
    /// A takeover notification updated the AC directory.
    DirectoryUpsert {
        /// Area whose entry changed.
        area: u32,
        /// The new controller's node address (raw index).
        node: u32,
        /// The new controller's encoded public key.
        pubkey: Vec<u8>,
    },
}

impl RsWalRecord {
    /// Serializes the record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            RsWalRecord::ClientAssigned { client } => {
                w.u8(RS_WAL_CLIENT).u64(*client);
            }
            RsWalRecord::DirectoryUpsert { area, node, pubkey } => {
                w.u8(RS_WAL_UPSERT).u32(*area).u32(*node).bytes(pubkey);
            }
        }
        w.into_bytes()
    }

    /// Parses a record; `None` on corruption.
    pub fn from_bytes(bytes: &[u8]) -> Option<RsWalRecord> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8().ok()? {
            RS_WAL_CLIENT => RsWalRecord::ClientAssigned {
                client: r.u64().ok()?,
            },
            RS_WAL_UPSERT => RsWalRecord::DirectoryUpsert {
                area: r.u32().ok()?,
                node: r.u32().ok()?,
                pubkey: r.bytes().ok()?.to_vec(),
            },
            _ => return None,
        };
        r.finish().ok()?;
        Some(rec)
    }
}

/// Registration-server checkpoint: id allocators plus the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsCheckpoint {
    /// Next client id to hand out.
    pub next_client: u64,
    /// Next area for round-robin placement.
    pub next_area: u64,
    /// Current AC directory (reflects all applied takeovers).
    pub directory: AcDirectory,
}

impl RsCheckpoint {
    /// Serializes the checkpoint.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.next_client).u64(self.next_area);
        self.directory.write(&mut w);
        w.into_bytes()
    }

    /// Parses a checkpoint; `None` on corruption.
    pub fn from_bytes(bytes: &[u8]) -> Option<RsCheckpoint> {
        let mut r = Reader::new(bytes);
        let cp = RsCheckpoint {
            next_client: r.u64().ok()?,
            next_area: r.u64().ok()?,
            directory: AcDirectory::read(&mut r).ok()?,
        };
        r.finish().ok()?;
        Some(cp)
    }
}

// ---------------------------------------------------------------------
// Replay folds: the one reader of each controller's durable state
// ---------------------------------------------------------------------

/// Why a replay stopped before the end of the durable state (recovery
/// counts each as `ac-recovery-bad-*` / `rs-recovery-bad-*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStop {
    /// The checkpoint does not decode: nothing applies.
    BadCheckpoint,
    /// The checkpoint's replica snapshot does not decode: nothing
    /// applies.
    BadSnapshot,
    /// A WAL record does not decode: the records before it apply.
    BadWalRecord,
}

/// A membership change applied on top of an area controller's base
/// snapshot. Recovery re-runs these against the restored tree in WAL
/// order, so they draw the same randomness replayed records always
/// have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipOp {
    /// The member was (re-)admitted: leave its old leaf, if any, and
    /// join afresh.
    Join(u64),
    /// The member left or was evicted.
    Leave(u64),
}

/// What an area controller's durable state says it should look like
/// after recovery: what recovery installs and the invariant checks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DurableAcView {
    /// Role, fencing fields and backup link, folded through the role
    /// records; its `snapshot` is a backup's raw escrow.
    pub header: AcCheckpoint,
    /// Own state the [`Self::ops`] apply on top of (a primary
    /// checkpoint's snapshot or an adopted escrow), its member list
    /// moved into [`Self::members`]; `None`: the deployment tree.
    pub base: Option<AcSnapshot>,
    /// Membership changes applied since [`Self::base`], in WAL order.
    pub ops: Vec<MembershipOp>,
    /// Member records: the base's, folded through [`Self::ops`].
    pub members: BTreeMap<u64, DurableMember>,
    /// Members evicted in the WAL suffix and not re-admitted since: a
    /// recovered controller must not count any of them as members.
    pub evicted: BTreeSet<u64>,
    /// Whether any durable state (checkpoint or WAL record) applied.
    pub applied: bool,
    /// Why the replay stopped early, if it did.
    pub stop: Option<ReplayStop>,
}

impl DurableAcView {
    /// Makes `snap` this node's own state: its members replace the
    /// folded ones, and later ops apply on top of it.
    fn adopt(&mut self, mut snap: AcSnapshot) {
        self.members = snap.members.drain(..).map(|m| (m.client, m)).collect();
        self.ops.clear();
        self.base = Some(snap);
    }

    /// Durable rekey epoch: the base's, 0 without one.
    pub fn epoch(&self) -> u64 {
        self.base.as_ref().map_or(0, |b| b.epoch)
    }
}

/// Replays an area controller's checkpoint and WAL onto `start`, its
/// deployment header (role and backup link). Rules:
///
/// - a checkpoint, or its embedded snapshot, that does not decode
///   stops the replay before anything applies — the WAL suffix is a
///   delta against that checkpoint;
/// - a WAL record that does not decode stops the replay there;
/// - `Promoted` adopts the escrowed snapshot, if any, as own state;
/// - `Demoted` changes only the role and drops the escrow: own state
///   stays, as it does in memory on the live demotion path, until a
///   later promotion adopts a newer escrow.
pub fn replay_ac(start: AcCheckpoint, checkpoint: Option<&[u8]>, wal: &[Vec<u8>]) -> DurableAcView {
    let mut view = DurableAcView {
        header: start,
        ..DurableAcView::default()
    };
    // The decoded form of the escrow, adopted at a promotion.
    let mut escrow = None;
    if let Some(bytes) = checkpoint {
        let Some(mut cp) = AcCheckpoint::from_bytes(bytes) else {
            view.stop = Some(ReplayStop::BadCheckpoint);
            return view;
        };
        let snapshot = match &cp.snapshot {
            Some(raw) => match AcSnapshot::from_bytes(raw) {
                Some(s) => Some(s),
                None => {
                    view.stop = Some(ReplayStop::BadSnapshot);
                    return view;
                }
            },
            None => None,
        };
        if cp.primary {
            cp.snapshot = None;
            if let Some(s) = snapshot {
                view.adopt(s);
            }
        } else {
            escrow = snapshot;
        }
        view.header = cp;
        view.applied = true;
    }
    for raw in wal {
        let Some(rec) = AcWalRecord::from_bytes(raw) else {
            view.stop = Some(ReplayStop::BadWalRecord);
            break;
        };
        view.applied = true;
        match rec {
            AcWalRecord::Join(m) => {
                view.evicted.remove(&m.client);
                view.ops.push(MembershipOp::Join(m.client));
                view.members.insert(m.client, m);
            }
            AcWalRecord::Leave { client } => {
                view.ops.push(MembershipOp::Leave(client));
                view.members.remove(&client);
            }
            AcWalRecord::Evict { client } => {
                view.ops.push(MembershipOp::Leave(client));
                view.members.remove(&client);
                view.evicted.insert(client);
            }
            AcWalRecord::Promoted {
                takeover_epoch,
                old_primary,
            } => {
                if let Some(s) = escrow.take() {
                    view.adopt(s);
                }
                let h = &mut view.header;
                h.primary = true;
                h.takeover_epoch = takeover_epoch;
                h.stale_peer = Some(old_primary);
                h.backup = None;
                h.snapshot = None;
            }
            AcWalRecord::Demoted { new_primary } => {
                escrow = None;
                let h = &mut view.header;
                h.primary = false;
                h.primary_node = new_primary;
                h.applied_sync_seq = 0;
                h.snapshot = None;
            }
        }
    }
    view
}

/// The registration server's durable view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableRsView {
    /// Id allocators and directory: the checkpoint's (or `start`'s),
    /// folded through the WAL.
    pub state: RsCheckpoint,
    /// Whether any durable state (checkpoint or WAL record) applied.
    pub applied: bool,
    /// Why the replay stopped early, if it did.
    pub stop: Option<ReplayStop>,
}

/// Replays the registration server's durable state onto `start`, its
/// deployment state (fresh allocators, the deployed directory), with
/// the same stop rules as [`replay_ac`].
pub fn replay_rs(start: RsCheckpoint, checkpoint: Option<&[u8]>, wal: &[Vec<u8>]) -> DurableRsView {
    let mut view = DurableRsView {
        state: start,
        applied: false,
        stop: None,
    };
    if let Some(bytes) = checkpoint {
        let Some(cp) = RsCheckpoint::from_bytes(bytes) else {
            view.stop = Some(ReplayStop::BadCheckpoint);
            return view;
        };
        view.state = cp;
        view.applied = true;
    }
    for raw in wal {
        let Some(rec) = RsWalRecord::from_bytes(raw) else {
            view.stop = Some(ReplayStop::BadWalRecord);
            break;
        };
        view.applied = true;
        match rec {
            RsWalRecord::ClientAssigned { client } => {
                view.state.next_client = view.state.next_client.max(client.saturating_add(1));
            }
            RsWalRecord::DirectoryUpsert { area, node, pubkey } => {
                view.state.directory.upsert(crate::directory::AcInfo {
                    area: crate::identity::AreaId(area),
                    node,
                    pubkey,
                });
            }
        }
    }
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use mykil_crypto::bignum::BigUint;
    use mykil_crypto::drbg::Drbg;
    use mykil_tree::{MemberId, TreeConfig};

    /// A well-formed (if useless) public-key encoding: a 256-bit odd
    /// modulus and exponent 3.
    fn pubkey() -> Vec<u8> {
        RsaPublicKey::from_components(BigUint::from_bytes_be(&[0xFF; 32]), BigUint::from(3_u64))
            .map(|k| k.to_bytes())
            .unwrap_or_default()
    }

    fn member(client: u64) -> DurableMember {
        DurableMember {
            client,
            node: client as u32 + 10,
            pubkey: pubkey(),
            device: None,
            valid_until_us: 0,
        }
    }

    fn join(client: u64) -> Vec<u8> {
        AcWalRecord::Join(member(client)).to_bytes()
    }

    /// A snapshot with a real tree holding `clients` and a parent link.
    fn snapshot(clients: &[u64], epoch: u64) -> AcSnapshot {
        let mut rng = Drbg::from_seed(5);
        let mut tree = AreaTree::new(TreeConfig::binary(), &mut rng);
        for &c in clients {
            assert!(tree.join(MemberId(c), &mut rng).is_ok());
        }
        AcSnapshot {
            tree: tree.snapshot(),
            members: clients.iter().map(|&c| member(c)).collect(),
            parent: Some((1, 2, 3)),
            parent_keys: KeyState::new().to_bytes(),
            epoch,
            child_acs: vec![4, 9],
            child_ac_members: vec![(77, 4)],
        }
    }

    /// A deployed primary with no backup.
    fn deployed() -> AcCheckpoint {
        AcCheckpoint {
            primary: true,
            ..AcCheckpoint::default()
        }
    }

    #[test]
    fn ac_wal_records_round_trip() {
        let records = vec![
            AcWalRecord::Join(DurableMember {
                client: 42,
                node: 7,
                pubkey: pubkey(),
                device: Some([9; 6]),
                valid_until_us: 1_000_000,
            }),
            AcWalRecord::Join(member(43)),
            AcWalRecord::Leave { client: 42 },
            AcWalRecord::Evict { client: 43 },
            AcWalRecord::Promoted {
                takeover_epoch: 3,
                old_primary: 1,
            },
            AcWalRecord::Demoted { new_primary: 2 },
        ];
        for rec in records {
            let bytes = rec.to_bytes();
            assert_eq!(AcWalRecord::from_bytes(&bytes), Some(rec));
        }
    }

    #[test]
    fn ac_wal_rejects_garbage() {
        assert_eq!(AcWalRecord::from_bytes(&[]), None);
        assert_eq!(AcWalRecord::from_bytes(&[0xFF, 1, 2]), None);
        // Trailing bytes after a valid record are corruption.
        let mut bytes = AcWalRecord::Leave { client: 1 }.to_bytes();
        bytes.push(0);
        assert_eq!(AcWalRecord::from_bytes(&bytes), None);
    }

    /// A `Join` whose public key does not parse is corruption: recovery
    /// could never install the member, so the record must not decode.
    #[test]
    fn ac_wal_rejects_join_with_unparseable_pubkey() {
        let mut m = member(1);
        m.pubkey = vec![1, 2, 3];
        assert_eq!(AcWalRecord::from_bytes(&AcWalRecord::Join(m).to_bytes()), None);
    }

    #[test]
    fn ac_checkpoint_round_trips_both_roles() {
        let primary = AcCheckpoint {
            primary: true,
            primary_node: 0,
            takeover_epoch: 2,
            peer_takeover_epoch: 1,
            sync_seq: 17,
            applied_sync_seq: 0,
            stale_peer: Some(4),
            backup: Some((5, vec![0xAB, 0xCD])),
            snapshot: Some(vec![1, 2, 3]),
        };
        assert_eq!(
            AcCheckpoint::from_bytes(&primary.to_bytes()),
            Some(primary)
        );
        let backup = AcCheckpoint {
            primary: false,
            primary_node: 3,
            takeover_epoch: 0,
            peer_takeover_epoch: 2,
            sync_seq: 0,
            applied_sync_seq: 9,
            stale_peer: None,
            backup: None,
            snapshot: None,
        };
        assert_eq!(AcCheckpoint::from_bytes(&backup.to_bytes()), Some(backup));
    }

    #[test]
    fn snapshot_round_trips_and_rejects_corruption() {
        let snap = snapshot(&[3, 5], 7);
        let bytes = snap.to_bytes();
        assert_eq!(AcSnapshot::from_bytes(&bytes), Some(snap.clone()));
        // Every strict prefix and any trailing byte is corruption.
        for cut in 0..bytes.len() {
            assert_eq!(AcSnapshot::from_bytes(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(AcSnapshot::from_bytes(&long), None);
        // A tree that does not restore fails the whole snapshot.
        let mut bad_tree = snap;
        bad_tree.tree = vec![0; 8];
        assert_eq!(AcSnapshot::from_bytes(&bad_tree.to_bytes()), None);
    }

    #[test]
    fn rs_formats_round_trip() {
        let records = vec![
            RsWalRecord::ClientAssigned { client: 12 },
            RsWalRecord::DirectoryUpsert {
                area: 1,
                node: 9,
                pubkey: vec![7, 7],
            },
        ];
        for rec in records {
            assert_eq!(RsWalRecord::from_bytes(&rec.to_bytes()), Some(rec));
        }
        let cp = RsCheckpoint {
            next_client: 5,
            next_area: 2,
            directory: AcDirectory::default(),
        };
        assert_eq!(RsCheckpoint::from_bytes(&cp.to_bytes()), Some(cp));
    }

    #[test]
    fn replay_ac_applies_wal_over_checkpoint() {
        // No checkpoint: pure WAL replay onto the deployment state.
        let wal: Vec<Vec<u8>> = vec![
            join(1),
            join(2),
            AcWalRecord::Evict { client: 1 }.to_bytes(),
            AcWalRecord::Leave { client: 2 }.to_bytes(),
        ];
        let view = replay_ac(deployed(), None, &wal);
        assert!(view.members.is_empty());
        assert_eq!(view.evicted, BTreeSet::from([1]));
        assert!(view.base.is_none());
        assert!(view.applied);
        assert_eq!(
            view.ops,
            vec![
                MembershipOp::Join(1),
                MembershipOp::Join(2),
                MembershipOp::Leave(1),
                MembershipOp::Leave(2),
            ]
        );
    }

    #[test]
    fn replay_ac_readmission_clears_eviction() {
        let wal: Vec<Vec<u8>> = vec![AcWalRecord::Evict { client: 1 }.to_bytes(), join(1)];
        let view = replay_ac(deployed(), None, &wal);
        assert_eq!(view.members.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert!(view.evicted.is_empty());
    }

    #[test]
    fn replay_ac_primary_checkpoint_is_the_base_of_the_ops() {
        let cp = AcCheckpoint {
            primary: true,
            primary_node: 0,
            takeover_epoch: 1,
            peer_takeover_epoch: 0,
            sync_seq: 3,
            applied_sync_seq: 0,
            stale_peer: None,
            backup: Some((6, vec![1])),
            snapshot: Some(snapshot(&[3, 5], 7).to_bytes()),
        };
        let view = replay_ac(deployed(), Some(&cp.to_bytes()), &[join(8)]);
        assert_eq!(view.members.keys().copied().collect::<Vec<_>>(), vec![3, 5, 8]);
        assert_eq!(view.epoch(), 7);
        assert_eq!(view.ops, vec![MembershipOp::Join(8)]);
        assert_eq!(view.header.backup, Some((6, vec![1])));
        assert_eq!(view.header.snapshot, None, "own state is the base");
        let base = view.base.expect("primary snapshot is the base");
        assert!(base.members.is_empty(), "base members move into the view");
        assert_eq!(base.child_ac_members, vec![(77, 4)]);
    }

    #[test]
    fn replay_ac_promotion_adopts_escrowed_replica() {
        // A backup checkpoint holds the primary's snapshot in escrow;
        // a Promoted record in the WAL suffix adopts it.
        let escrow = snapshot(&[31], 7).to_bytes();
        let cp = AcCheckpoint {
            primary: false,
            primary_node: 2,
            takeover_epoch: 0,
            peer_takeover_epoch: 1,
            sync_seq: 0,
            applied_sync_seq: 4,
            stale_peer: None,
            backup: None,
            snapshot: Some(escrow.clone()),
        };
        let held = replay_ac(deployed(), Some(&cp.to_bytes()), &[]);
        assert!(!held.header.primary);
        assert_eq!(held.header.snapshot, Some(escrow));
        assert!(held.members.is_empty(), "escrow is not own membership");

        let wal = vec![AcWalRecord::Promoted {
            takeover_epoch: 2,
            old_primary: 2,
        }
        .to_bytes()];
        let view = replay_ac(deployed(), Some(&cp.to_bytes()), &wal);
        assert!(view.header.primary);
        assert_eq!(view.header.takeover_epoch, 2);
        assert_eq!(view.header.stale_peer, Some(2));
        assert_eq!(view.header.snapshot, None);
        assert_eq!(view.members.keys().copied().collect::<Vec<_>>(), vec![31]);
        assert_eq!(view.epoch(), 7);
    }

    /// A demotion changes the role and drops the escrow, nothing else:
    /// the demoted node keeps its own state, as the live path does.
    #[test]
    fn replay_ac_demotion_keeps_own_state() {
        let wal = vec![join(1), AcWalRecord::Demoted { new_primary: 4 }.to_bytes()];
        let view = replay_ac(deployed(), None, &wal);
        assert!(!view.header.primary);
        assert_eq!(view.header.primary_node, 4);
        assert_eq!(view.members.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(view.ops, vec![MembershipOp::Join(1)]);
    }

    #[test]
    fn replay_ac_stops_at_first_bad_record() {
        let wal: Vec<Vec<u8>> = vec![
            join(1),
            vec![0xFF, 0xFF],
            AcWalRecord::Evict { client: 1 }.to_bytes(),
        ];
        let view = replay_ac(deployed(), None, &wal);
        // The eviction after the bad record must not apply.
        assert_eq!(view.members.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert!(view.evicted.is_empty());
        assert_eq!(view.stop, Some(ReplayStop::BadWalRecord));
    }

    /// A checkpoint that does not decode applies nothing — not even the
    /// WAL suffix, which is a delta against it.
    #[test]
    fn replay_ac_bad_checkpoint_applies_nothing() {
        let start = AcCheckpoint {
            primary_node: 3,
            ..AcCheckpoint::default()
        };
        let view = replay_ac(start.clone(), Some(&[9, 9]), &[join(1)]);
        assert_eq!(
            view,
            DurableAcView {
                header: start,
                stop: Some(ReplayStop::BadCheckpoint),
                ..DurableAcView::default()
            }
        );

        let cp = AcCheckpoint {
            primary: true,
            primary_node: 0,
            takeover_epoch: 0,
            peer_takeover_epoch: 0,
            sync_seq: 0,
            applied_sync_seq: 0,
            stale_peer: None,
            backup: None,
            snapshot: Some(vec![1, 2, 3]),
        };
        let view = replay_ac(deployed(), Some(&cp.to_bytes()), &[join(1)]);
        assert_eq!(view.stop, Some(ReplayStop::BadSnapshot));
        assert!(!view.applied);
        assert!(view.members.is_empty());
    }

    #[test]
    fn replay_rs_tracks_allocator_high_water_mark() {
        let cp = RsCheckpoint {
            next_client: 5,
            next_area: 1,
            directory: AcDirectory::default(),
        };
        let wal = vec![
            RsWalRecord::ClientAssigned { client: 5 }.to_bytes(),
            RsWalRecord::ClientAssigned { client: 6 }.to_bytes(),
        ];
        let start = RsCheckpoint {
            next_client: 1,
            next_area: 0,
            directory: AcDirectory::default(),
        };
        let view = replay_rs(start.clone(), Some(&cp.to_bytes()), &wal);
        assert_eq!(view.state.next_client, 7);
        assert_eq!(view.state.next_area, 1);
        assert!(view.applied);
        let bad = replay_rs(start.clone(), Some(&[1]), &wal);
        assert_eq!(bad.stop, Some(ReplayStop::BadCheckpoint));
        assert_eq!(bad.state, start, "nothing applies past a bad checkpoint");
    }
}
