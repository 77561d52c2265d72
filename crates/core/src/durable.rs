//! Durable on-disk formats for crash recovery.
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
//! The same formats are replayed offline by the durability invariant
//! checker ([`replay_ac`], [`replay_rs`]): at every quiescent point the
//! durable view of a live node must agree with its in-memory state —
//! same role and fencing epoch, same membership, no acknowledged change
//! lost, no evicted member resurrected.

use crate::directory::AcDirectory;
use crate::wire::{Reader, Writer};
use std::collections::BTreeSet;

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
    Join {
        /// Client id.
        client: u64,
        /// The member's node address (raw index).
        node: u32,
        /// Encoded member public key.
        pubkey: Vec<u8>,
        /// Device identity from the ticket, if presented.
        device: Option<[u8; 6]>,
        /// Membership expiry, microseconds of virtual time.
        valid_until_us: u64,
    },
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
            AcWalRecord::Join {
                client,
                node,
                pubkey,
                device,
                valid_until_us,
            } => {
                w.u8(AC_WAL_JOIN).u64(*client).u32(*node).bytes(pubkey);
                match device {
                    Some(d) => {
                        w.u8(1).raw(d);
                    }
                    None => {
                        w.u8(0);
                    }
                }
                w.u64(*valid_until_us);
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
    /// input (storage corruption surfaces as an unparseable record, not
    /// a panic).
    pub fn from_bytes(bytes: &[u8]) -> Option<AcWalRecord> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8().ok()? {
            AC_WAL_JOIN => {
                let client = r.u64().ok()?;
                let node = r.u32().ok()?;
                let pubkey = r.bytes().ok()?.to_vec();
                let device = if r.u8().ok()? == 1 {
                    Some(r.array::<6>().ok()?)
                } else {
                    None
                };
                let valid_until_us = r.u64().ok()?;
                AcWalRecord::Join {
                    client,
                    node,
                    pubkey,
                    device,
                    valid_until_us,
                }
            }
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
// Area-controller checkpoint
// ---------------------------------------------------------------------

/// Full-state image an area controller writes at compaction points.
///
/// The membership/tree/hierarchy payload reuses the replication
/// snapshot format (`replica_snapshot`), so the checkpoint of a primary
/// is byte-identical to what it ships to its backup; a backup
/// checkpoints the last snapshot it applied, raw. Everything else is
/// the replication/fencing state that the snapshot deliberately leaves
/// out — in particular `stale_peer`, without which a recovered promoted
/// backup could no longer fence the old primary it took over from.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Replica-format state snapshot: own state for a primary, the last
    /// applied primary snapshot for a backup (`None` before first
    /// sync).
    pub snapshot: Option<Vec<u8>>,
}

impl AcCheckpoint {
    /// Serializes the checkpoint for
    /// [`mykil_net::StableStore::checkpoint`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        if self.primary {
            w.u8(0);
        } else {
            w.u8(1).u32(self.primary_node);
        }
        w.u64(self.takeover_epoch)
            .u64(self.peer_takeover_epoch)
            .u64(self.sync_seq)
            .u64(self.applied_sync_seq);
        match self.stale_peer {
            Some(n) => {
                w.u8(1).u32(n);
            }
            None => {
                w.u8(0);
            }
        }
        match &self.backup {
            Some((node, pubkey)) => {
                w.u8(1).u32(*node).bytes(pubkey);
            }
            None => {
                w.u8(0);
            }
        }
        match &self.snapshot {
            Some(s) => {
                w.u8(1).bytes(s);
            }
            None => {
                w.u8(0);
            }
        }
        w.into_bytes()
    }

    /// Parses a checkpoint read back by recovery; `None` on corruption.
    pub fn from_bytes(bytes: &[u8]) -> Option<AcCheckpoint> {
        let mut r = Reader::new(bytes);
        let (primary, primary_node) = match r.u8().ok()? {
            0 => (true, 0),
            1 => (false, r.u32().ok()?),
            _ => return None,
        };
        let takeover_epoch = r.u64().ok()?;
        let peer_takeover_epoch = r.u64().ok()?;
        let sync_seq = r.u64().ok()?;
        let applied_sync_seq = r.u64().ok()?;
        let stale_peer = match r.u8().ok()? {
            0 => None,
            1 => Some(r.u32().ok()?),
            _ => return None,
        };
        let backup = match r.u8().ok()? {
            0 => None,
            1 => {
                let node = r.u32().ok()?;
                let pubkey = r.bytes().ok()?.to_vec();
                Some((node, pubkey))
            }
            _ => return None,
        };
        let snapshot = match r.u8().ok()? {
            0 => None,
            1 => Some(r.bytes().ok()?.to_vec()),
            _ => return None,
        };
        r.finish().ok()?;
        Some(AcCheckpoint {
            primary,
            primary_node,
            takeover_epoch,
            peer_takeover_epoch,
            sync_seq,
            applied_sync_seq,
            stale_peer,
            backup,
            snapshot,
        })
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
        let next_client = r.u64().ok()?;
        let next_area = r.u64().ok()?;
        let directory = AcDirectory::read(&mut r).ok()?;
        r.finish().ok()?;
        Some(RsCheckpoint {
            next_client,
            next_area,
            directory,
        })
    }
}

// ---------------------------------------------------------------------
// Offline replay (durability invariants)
// ---------------------------------------------------------------------

/// Membership facts extracted from a replica-format snapshot without
/// decoding the key tree: the member-id set and the rekey epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// Client ids of every member in the snapshot.
    pub members: BTreeSet<u64>,
    /// Rekey epoch at snapshot time.
    pub epoch: u64,
}

/// Parses the membership portion of a `replica_snapshot` image. Walks
/// the exact field layout (tree bytes, member list, parent link, parent
/// keys, epoch); returns `None` if the image does not parse that far.
pub fn snapshot_summary(bytes: &[u8]) -> Option<SnapshotSummary> {
    let mut r = Reader::new(bytes);
    r.bytes().ok()?; // tree snapshot, opaque here
    let count = r.u32().ok()? as usize;
    let mut members = BTreeSet::new();
    for _ in 0..count {
        let client = r.u64().ok()?;
        r.u32().ok()?; // node
        r.bytes().ok()?; // pubkey
        if r.u8().ok()? == 1 {
            r.array::<6>().ok()?; // device
        }
        r.u64().ok()?; // valid_until
        members.insert(client);
    }
    if r.u8().ok()? == 1 {
        r.u32().ok()?; // parent node
        r.u32().ok()?; // parent area
        r.u32().ok()?; // parent group
    }
    r.bytes().ok()?; // parent keys
    let epoch = r.u64().ok()?;
    Some(SnapshotSummary { members, epoch })
}

/// What an area controller's durable state says it should look like
/// after recovery: checkpoint applied, WAL suffix replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableAcView {
    /// Whether the durable role is primary.
    pub primary: bool,
    /// Durable fencing epoch.
    pub takeover_epoch: u64,
    /// Durable rekey epoch (primary state only; 0 otherwise).
    pub epoch: u64,
    /// Durable next-snapshot sequence.
    pub sync_seq: u64,
    /// Durable highest-applied snapshot sequence.
    pub applied_sync_seq: u64,
    /// Durable member-id set (primary state only).
    pub members: BTreeSet<u64>,
    /// Members evicted in the WAL suffix and not re-admitted since: a
    /// recovered controller must not count any of them as members.
    pub evicted: BTreeSet<u64>,
    /// Whether a valid checkpoint contributed to this view.
    pub had_checkpoint: bool,
}

/// Replays an area controller's durable state (as returned by
/// [`mykil_net::StableStore::load`]) into the view recovery must
/// produce. `None` only when the checkpoint exists but does not parse;
/// unparseable WAL records end the replay early (mirroring recovery's
/// torn-tail handling).
pub fn replay_ac(checkpoint: Option<&[u8]>, wal: &[Vec<u8>]) -> Option<DurableAcView> {
    let mut view = DurableAcView {
        primary: false,
        takeover_epoch: 0,
        epoch: 0,
        sync_seq: 0,
        applied_sync_seq: 0,
        members: BTreeSet::new(),
        evicted: BTreeSet::new(),
        had_checkpoint: false,
    };
    // A backup's checkpointed snapshot is its primary's state, held in
    // escrow: it becomes this node's own membership only at promotion.
    let mut escrow: Option<SnapshotSummary> = None;
    if let Some(bytes) = checkpoint {
        let cp = AcCheckpoint::from_bytes(bytes)?;
        view.primary = cp.primary;
        view.takeover_epoch = cp.takeover_epoch;
        view.sync_seq = cp.sync_seq;
        view.applied_sync_seq = cp.applied_sync_seq;
        view.had_checkpoint = true;
        if let Some(snap) = &cp.snapshot {
            let summary = snapshot_summary(snap)?;
            if cp.primary {
                view.members = summary.members;
                view.epoch = summary.epoch;
            } else {
                escrow = Some(summary);
            }
        }
    }
    for raw in wal {
        let Some(rec) = AcWalRecord::from_bytes(raw) else {
            break;
        };
        match rec {
            AcWalRecord::Join { client, .. } => {
                view.members.insert(client);
                view.evicted.remove(&client);
            }
            AcWalRecord::Leave { client } => {
                view.members.remove(&client);
            }
            AcWalRecord::Evict { client } => {
                view.members.remove(&client);
                view.evicted.insert(client);
            }
            AcWalRecord::Promoted { takeover_epoch, .. } => {
                view.primary = true;
                view.takeover_epoch = takeover_epoch;
                if let Some(s) = escrow.take() {
                    view.members = s.members;
                    view.epoch = s.epoch;
                }
            }
            AcWalRecord::Demoted { .. } => {
                view.primary = false;
                view.members.clear();
                view.evicted.clear();
                view.epoch = 0;
            }
        }
    }
    Some(view)
}

/// The registration server's durable view: checkpoint plus WAL suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableRsView {
    /// Durable next client id.
    pub next_client: u64,
    /// Durable next round-robin area.
    pub next_area: u64,
    /// Durable AC directory.
    pub directory: AcDirectory,
}

/// Replays the registration server's durable state. `None` when the
/// checkpoint exists but does not parse.
pub fn replay_rs(checkpoint: Option<&[u8]>, wal: &[Vec<u8>]) -> Option<DurableRsView> {
    let mut view = DurableRsView {
        next_client: 1,
        next_area: 0,
        directory: AcDirectory::default(),
    };
    if let Some(bytes) = checkpoint {
        let cp = RsCheckpoint::from_bytes(bytes)?;
        view.next_client = cp.next_client;
        view.next_area = cp.next_area;
        view.directory = cp.directory;
    }
    for raw in wal {
        let Some(rec) = RsWalRecord::from_bytes(raw) else {
            break;
        };
        match rec {
            RsWalRecord::ClientAssigned { client } => {
                view.next_client = view.next_client.max(client + 1);
            }
            RsWalRecord::DirectoryUpsert { area, node, pubkey } => {
                view.directory.upsert(crate::directory::AcInfo {
                    area: crate::identity::AreaId(area),
                    node,
                    pubkey,
                });
            }
        }
    }
    Some(view)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ac_wal_records_round_trip() {
        let records = vec![
            AcWalRecord::Join {
                client: 42,
                node: 7,
                pubkey: vec![1, 2, 3],
                device: Some([9; 6]),
                valid_until_us: 1_000_000,
            },
            AcWalRecord::Join {
                client: 43,
                node: 8,
                pubkey: vec![4],
                device: None,
                valid_until_us: 0,
            },
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
        // No checkpoint: pure WAL replay.
        let wal: Vec<Vec<u8>> = vec![
            AcWalRecord::Join {
                client: 1,
                node: 10,
                pubkey: vec![1],
                device: None,
                valid_until_us: 0,
            }
            .to_bytes(),
            AcWalRecord::Join {
                client: 2,
                node: 11,
                pubkey: vec![2],
                device: None,
                valid_until_us: 0,
            }
            .to_bytes(),
            AcWalRecord::Evict { client: 1 }.to_bytes(),
            AcWalRecord::Leave { client: 2 }.to_bytes(),
        ];
        let view = replay_ac(None, &wal).unwrap();
        assert!(view.members.is_empty());
        assert_eq!(view.evicted, BTreeSet::from([1]));
        assert!(!view.had_checkpoint);
    }

    #[test]
    fn replay_ac_readmission_clears_eviction() {
        let wal: Vec<Vec<u8>> = vec![
            AcWalRecord::Evict { client: 1 }.to_bytes(),
            AcWalRecord::Join {
                client: 1,
                node: 10,
                pubkey: vec![1],
                device: None,
                valid_until_us: 0,
            }
            .to_bytes(),
        ];
        let view = replay_ac(None, &wal).unwrap();
        assert_eq!(view.members, BTreeSet::from([1]));
        assert!(view.evicted.is_empty());
    }

    #[test]
    fn replay_ac_promotion_adopts_escrowed_replica() {
        // A backup checkpoint holds the primary's snapshot in escrow;
        // a Promoted record in the WAL suffix adopts it.
        let snap = {
            // Minimal replica-format image: empty tree bytes, one
            // member, no parent, empty parent keys, epoch 7.
            let mut w = Writer::new();
            w.bytes(&[]);
            w.u32(1);
            w.u64(31).u32(12).bytes(&[1]).u8(0).u64(0);
            w.u8(0);
            w.bytes(&[]);
            w.u64(7);
            w.u32(0);
            w.u32(0);
            w.into_bytes()
        };
        let cp = AcCheckpoint {
            primary: false,
            primary_node: 2,
            takeover_epoch: 0,
            peer_takeover_epoch: 1,
            sync_seq: 0,
            applied_sync_seq: 4,
            stale_peer: None,
            backup: None,
            snapshot: Some(snap),
        };
        let wal = vec![AcWalRecord::Promoted {
            takeover_epoch: 2,
            old_primary: 2,
        }
        .to_bytes()];
        let view = replay_ac(Some(&cp.to_bytes()), &wal).unwrap();
        assert!(view.primary);
        assert_eq!(view.takeover_epoch, 2);
        assert_eq!(view.members, BTreeSet::from([31]));
        assert_eq!(view.epoch, 7);
    }

    #[test]
    fn replay_ac_stops_at_first_bad_record() {
        let wal: Vec<Vec<u8>> = vec![
            AcWalRecord::Join {
                client: 1,
                node: 10,
                pubkey: vec![1],
                device: None,
                valid_until_us: 0,
            }
            .to_bytes(),
            vec![0xFF, 0xFF],
            AcWalRecord::Evict { client: 1 }.to_bytes(),
        ];
        let view = replay_ac(None, &wal).unwrap();
        // The eviction after the bad record must not apply.
        assert_eq!(view.members, BTreeSet::from([1]));
        assert!(view.evicted.is_empty());
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
        let view = replay_rs(Some(&cp.to_bytes()), &wal).unwrap();
        assert_eq!(view.next_client, 7);
        assert_eq!(view.next_area, 1);
    }
}
