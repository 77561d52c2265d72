//! Stable-storage persistence and crash recovery for the area
//! controller.
//!
//! The durable footprint (formats in [`crate::durable`]) is:
//!
//! - a WAL record per acknowledged membership or role change
//!   ([`AcWalRecord`]), committed before the change's effects leave the
//!   node;
//! - a full checkpoint ([`crate::durable::AcCheckpoint`]) at every
//!   compaction point: rekey flushes, snapshot applications, role
//!   transitions, and start-up. The membership payload is an encoded
//!   [`crate::durable::AcSnapshot`], so primary checkpoints and
//!   `StateSync` bodies are the same bytes.
//!
//! A crash wipes everything else ([`AreaController::wipe_volatile`]);
//! recovery ([`AreaController::recover_from_storage`]) installs the view
//! [`crate::durable::replay_ac`] folds from the newest valid checkpoint
//! and the WAL suffix, re-fences the counters that may lag their
//! durable image, and re-issues key paths to every member — replayed
//! tree joins draw fresh randomness, so the replayed tree's path keys
//! differ from the ones members still hold.

use super::{AreaController, MemberRecord, Role};
use crate::durable::{
    replay_ac, AcCheckpoint, AcWalRecord, DurableAcView, MembershipOp, ReplayStop,
    RECOVERY_EPOCH_JUMP,
};
use crate::identity::ClientId;
use crate::msg::Msg;
use mykil_crypto::envelope::HybridCiphertext;
use mykil_net::{Context, NodeId, Recovered, SecretBytes, Time};
use mykil_tree::MemberId;

impl AreaController {
    /// Commits one WAL record (append + fsync) to stable storage.
    pub(crate) fn wal_commit_record(&mut self, ctx: &mut Context<'_>, rec: &AcWalRecord) {
        ctx.storage().wal_commit(rec.to_bytes());
    }

    /// Serializes the full-state checkpoint for the current role.
    pub(crate) fn checkpoint_bytes(&self) -> Vec<u8> {
        let (primary, primary_node, snapshot) = match self.role {
            Role::Primary => (true, 0, Some(self.replica_snapshot().to_bytes())),
            Role::Backup { primary } => (
                false,
                primary.index() as u32,
                self.replica_state.as_ref().map(|s| s.as_slice().to_vec()),
            ),
        };
        AcCheckpoint {
            primary,
            primary_node,
            takeover_epoch: self.takeover_epoch,
            peer_takeover_epoch: self.peer_takeover_epoch,
            sync_seq: self.sync_seq,
            applied_sync_seq: self.applied_sync_seq,
            stale_peer: self.stale_peer.map(|n| n.index() as u32),
            backup: self
                .deploy
                .backup
                .map(|n| (n.index() as u32, self.deploy.backup_pubkey.clone())),
            snapshot,
        }
        .to_bytes()
    }

    /// Writes a checkpoint (compaction point): after this the durable
    /// state equals the in-memory state and the WAL prefix is
    /// truncated.
    pub(crate) fn persist_checkpoint(&mut self, ctx: &mut Context<'_>) {
        let bytes = self.checkpoint_bytes();
        ctx.storage().checkpoint(bytes);
    }

    /// Resets every field that does not survive a power loss. Called by
    /// the simulator at crash time (no [`Context`] exists then).
    ///
    /// What survives is the durable local configuration a real node
    /// would read back from its config files at boot: `cfg`, `cost`,
    /// the keypair, the RS public key, `K_shared` (and the replication
    /// key derived from it), the pristine deployment record, and the
    /// deployment-time tree seed. The `stats` counters also survive —
    /// they are harness-side diagnostics, not protocol state.
    pub(crate) fn wipe_volatile(&mut self) {
        self.deploy = self.deploy_pristine.clone();
        self.role = self.deploy.role;
        self.parent = self.deploy.parent.clone();
        let mut rng = mykil_crypto::drbg::Drbg::from_seed(self.tree_seed);
        self.tree = mykil_tree::AreaTree::new(self.cfg.tree, &mut rng);
        self.members.clear();
        self.pending_admissions.clear();
        self.pending_rejoins.clear();
        self.pending_rejoin_prev_ac.clear();
        self.epoch = 0;
        self.update_needed = false;
        self.buffered_join_updates.clear();
        self.recorded_members.clear();
        self.pending_leaves.clear();
        self.parent_keys.clear();
        self.parent_epoch = 0;
        self.last_heard_parent = Time::ZERO;
        self.child_acs.clear();
        self.child_ac_members.clear();
        self.pending_parent_join = None;
        self.parent_switch_cursor = 0;
        self.prev_area_keys.clear();
        self.seen_data.clear();
        self.seen_order.clear();
        self.last_area_mcast = Time::ZERO;
        self.hb_seq = 0;
        self.last_heartbeat = Time::ZERO;
        self.replica_state = None;
        self.sync_seq = 0;
        self.applied_sync_seq = 0;
        self.pending_sync = None;
        self.last_backup_ack = Time::ZERO;
        self.backup_presumed_dead = false;
        self.takeover_epoch = 0;
        self.peer_takeover_epoch = 0;
        self.stale_peer = None;
        self.pending_demote = None;
    }

    /// What this controller's stable storage replays to, folded onto
    /// its deployment state: the view recovery installs and the
    /// durability invariant compares with live memory.
    pub(crate) fn durable_view(&self, rec: &Recovered) -> DurableAcView {
        let d = &self.deploy_pristine;
        let start = AcCheckpoint {
            primary: d.role == Role::Primary,
            primary_node: match d.role {
                Role::Primary => 0,
                Role::Backup { primary } => primary.index() as u32,
            },
            backup: d.backup.map(|n| (n.index() as u32, d.backup_pubkey.clone())),
            ..AcCheckpoint::default()
        };
        replay_ac(start, rec.checkpoint.as_ref().map(|(_, b)| b.as_slice()), &rec.wal)
    }

    /// Installs [`Self::durable_view`]; returns whether any durable
    /// state applied. The view's ops re-run against the restored tree
    /// in WAL order, drawing fresh randomness.
    ///
    /// A recovered primary re-fences its rekey epoch and replication
    /// sequence by [`RECOVERY_EPOCH_JUMP`]: both can lag their durable
    /// image (the flush checkpoint precedes the `sync_backup` bump, and
    /// a lying fsync can roll storage back), and resuming below a value
    /// already used would make members and the backup drop its traffic.
    pub(crate) fn recover_from_storage(&mut self, ctx: &mut Context<'_>) -> bool {
        let view = self.durable_view(&ctx.storage().load());
        match view.stop {
            Some(ReplayStop::BadCheckpoint) => ctx.stats().bump("ac-recovery-bad-checkpoint", 1),
            Some(ReplayStop::BadSnapshot) => ctx.stats().bump("ac-recovery-bad-snapshot", 1),
            Some(ReplayStop::BadWalRecord) => ctx.stats().bump("ac-recovery-bad-wal-record", 1),
            None => {}
        }
        if !view.applied {
            return false;
        }
        let h = view.header;
        self.role = if h.primary {
            Role::Primary
        } else {
            Role::Backup {
                primary: NodeId::from_index(h.primary_node as usize),
            }
        };
        self.takeover_epoch = h.takeover_epoch;
        self.peer_takeover_epoch = h.peer_takeover_epoch;
        self.sync_seq = h.sync_seq;
        self.applied_sync_seq = h.applied_sync_seq;
        self.stale_peer = h.stale_peer.map(|n| NodeId::from_index(n as usize));
        self.deploy.backup = h.backup.as_ref().map(|(n, _)| NodeId::from_index(*n as usize));
        self.deploy.backup_pubkey = h.backup.map(|(_, pk)| pk).unwrap_or_default();
        self.replica_state = h.snapshot.map(SecretBytes::new);
        let now = ctx.now();
        if let Some(base) = &view.base {
            if self.apply_replica_snapshot(base, now).is_none() {
                ctx.stats().bump("ac-recovery-bad-snapshot", 1);
            }
        }
        for op in &view.ops {
            match *op {
                MembershipOp::Join(client) => {
                    let member = MemberId(client);
                    self.note_area_key();
                    if self.tree.contains(member) {
                        let _ = self.tree.leave(member, ctx.rng());
                    }
                    if self.tree.join(member, ctx.rng()).is_err() {
                        ctx.stats().bump("ac-recovery-join-failed", 1);
                    }
                }
                MembershipOp::Leave(client) => {
                    let member = MemberId(client);
                    if self.tree.contains(member) {
                        self.note_area_key();
                        let _ = self.tree.leave(member, ctx.rng());
                    }
                }
            }
        }
        self.members = view
            .members
            .values()
            .filter_map(|m| Some((ClientId(m.client), MemberRecord::restore(m, now)?)))
            .collect();
        if self.role == Role::Primary {
            self.epoch += RECOVERY_EPOCH_JUMP;
            self.sync_seq += RECOVERY_EPOCH_JUMP;
        }
        true
    }

    /// Post-recovery key resynchronization (primary role).
    ///
    /// WAL-replayed tree joins rotated path keys with fresh randomness,
    /// so members' held paths may be stale; re-issue the current path
    /// to every member and child controller, then checkpoint (which
    /// also compacts the just-replayed WAL) and push a catch-up
    /// snapshot to the backup.
    pub(crate) fn post_recovery_resync(&mut self, ctx: &mut Context<'_>) {
        let clients: Vec<ClientId> = self.members.keys().copied().collect();
        for client in clients {
            self.unicast_current_path(ctx, client);
        }
        let children: Vec<(u64, NodeId)> = self
            .child_ac_members
            .iter()
            .map(|(m, n)| (*m, *n))
            .collect();
        for (member, node) in children {
            let mut path = Vec::new();
            if self.tree.path_keys_into(MemberId(member), &mut path).is_err() {
                continue;
            }
            let Some(pubkey) = self.directory_pubkey(node) else {
                continue;
            };
            ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
            if let Ok(ct) = HybridCiphertext::encrypt(
                &pubkey,
                &crate::rekey::encode_tree_path(&path),
                ctx.rng(),
            ) {
                ctx.send(
                    node,
                    "key-unicast",
                    Msg::KeyUnicast { ct: ct.to_bytes() }.to_bytes(),
                );
            }
        }
        self.persist_checkpoint(ctx);
        self.sync_backup(ctx);
    }
}
