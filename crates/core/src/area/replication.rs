//! Primary-backup replication of an area controller (Section IV-C).
//!
//! The replicated state is exactly what the paper lists: "the complete
//! auxiliary tree, public keys of the area members, area controllers
//! and the registration server, and the identities of the parent area
//! controller and all child area controllers". Multicast data in flight
//! is deliberately *not* replicated — members may miss packets during a
//! takeover, which the paper accepts.

use super::{
    AreaController, MemberRecord, ParentLink, Role, TIMER_BACKUP_WATCH, TIMER_HEARTBEAT,
    TIMER_IDLE_ALIVE, TIMER_PARENT_CHECK, TIMER_REKEY, TIMER_SWEEP,
};
use crate::durable::{AcSnapshot, AcWalRecord, DurableMember};
use crate::identity::{AreaId, ClientId};
use crate::msg::Msg;
use crate::rekey::KeyState;
use crate::wire::{Reader, Writer};
use mykil_crypto::envelope;
use mykil_crypto::rsa::RsaPublicKey;
use mykil_net::{Context, GroupId, NodeId, SecretBytes, Time};
use mykil_tree::AreaTree;
use std::collections::BTreeMap;

impl AreaController {
    /// The replicated state (tree, members, hierarchy, epoch) as a
    /// replica snapshot. Every list comes from an ordered map or set, so
    /// it is ascending.
    pub(crate) fn replica_snapshot(&self) -> AcSnapshot {
        let members = self
            .members
            .iter()
            .map(|(client, rec)| DurableMember {
                client: client.0,
                node: rec.node.index() as u32,
                pubkey: rec.pubkey.to_bytes(),
                device: rec.device.map(|d| d.0),
                valid_until_us: rec.valid_until.as_micros(),
            })
            .collect();
        AcSnapshot {
            tree: self.tree.snapshot(),
            members,
            parent: self.parent.as_ref().map(|p| {
                (
                    p.node.index() as u32,
                    p.area.0,
                    p.group.index() as u32,
                )
            }),
            parent_keys: self.parent_keys.to_bytes(),
            epoch: self.epoch,
            child_acs: self.child_acs.iter().map(|n| n.index() as u32).collect(),
            child_ac_members: self
                .child_ac_members
                .iter()
                .map(|(m, n)| (*m, n.index() as u32))
                .collect(),
        }
    }

    /// Installs a replica snapshot as this node's state (takeover and
    /// recovery). Every member gets a fresh liveness grace period.
    /// `None` (nothing changed) only if the snapshot did not come from
    /// [`AcSnapshot::from_bytes`], which validates what this parses.
    pub(crate) fn apply_replica_snapshot(&mut self, snap: &AcSnapshot, now: Time) -> Option<()> {
        let tree = AreaTree::restore(&snap.tree).ok()?;
        let parent_keys = KeyState::from_bytes(&snap.parent_keys).ok()?;
        let mut members = BTreeMap::new();
        for m in &snap.members {
            members.insert(ClientId(m.client), MemberRecord::restore(m, now)?);
        }
        self.tree = tree;
        self.members = members;
        self.parent = snap.parent.map(|(node, area, group)| ParentLink {
            node: NodeId::from_index(node as usize),
            area: AreaId(area),
            group: GroupId::from_index(group as usize),
        });
        self.parent_keys = parent_keys;
        self.epoch = snap.epoch;
        self.child_acs = snap
            .child_acs
            .iter()
            .map(|&n| NodeId::from_index(n as usize))
            .collect();
        self.child_ac_members = snap
            .child_ac_members
            .iter()
            .map(|&(m, n)| (m, NodeId::from_index(n as usize)))
            .collect();
        Some(())
    }

    /// Pushes current state to the backup (called after every key
    /// update, membership change, or hierarchy change).
    ///
    /// Snapshots ride the reliable channel and carry a monotonic
    /// sequence number, so a retransmitted or reordered stale snapshot
    /// can never regress the backup. A newer snapshot supersedes the
    /// outstanding one (its retransmissions are cancelled); nothing is
    /// sent while the backup is presumed dead.
    pub(crate) fn sync_backup(&mut self, ctx: &mut Context<'_>) {
        let Some(backup) = self.deploy.backup else {
            return;
        };
        if self.role != Role::Primary || self.backup_presumed_dead {
            return;
        }
        self.sync_seq += 1;
        let mut plain = Writer::new();
        plain
            .u64(self.sync_seq)
            .bytes(&self.replica_snapshot().to_bytes());
        ctx.charge_compute(self.cost.symmetric_op);
        let ct = envelope::seal(&self.repl_key, &plain.into_bytes(), ctx.rng());
        if let Some(old) = self.pending_sync.take() {
            ctx.cancel_reliable(old);
        }
        let token = ctx.send_reliable(backup, "state-sync", Msg::StateSync { ct }.to_bytes());
        self.pending_sync = Some(token);
    }

    /// Primary heartbeat tick. Heartbeats keep flowing to a presumed-
    /// dead backup (they are cheap and detect its recovery); only the
    /// expensive `StateSync` snapshots stop.
    pub(crate) fn tick_heartbeat(&mut self, ctx: &mut Context<'_>) {
        if let Some(backup) = self.deploy.backup {
            self.hb_seq += 1;
            ctx.send(
                backup,
                "replication",
                Msg::Heartbeat {
                    seq: self.hb_seq,
                    takeover_epoch: self.takeover_epoch,
                }
                .to_bytes(),
            );
            let threshold = self
                .cfg
                .heartbeat_interval
                .saturating_mul(self.cfg.failover_threshold as u64);
            if !self.backup_presumed_dead && ctx.now().since(self.last_backup_ack) >= threshold {
                self.backup_presumed_dead = true;
                ctx.stats().bump("backup-presumed-dead", 1);
                // The dead backup cannot ack in-flight snapshots; stop
                // their retransmissions instead of letting each run out
                // its retry budget against a black hole.
                ctx.cancel_reliable_to(backup);
                self.pending_sync = None;
            }
        }
        ctx.set_timer(self.cfg.heartbeat_interval, TIMER_HEARTBEAT);
    }

    /// Backup liveness tracking (primary role): `HeartbeatAck` refreshes
    /// the ack clock, and an ack from a presumed-dead backup revives it
    /// with an immediate full snapshot.
    pub(crate) fn handle_heartbeat_ack(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        _seq: u64,
        takeover_epoch: u64,
    ) {
        if self.deploy.backup != Some(from) {
            return;
        }
        self.peer_takeover_epoch = self.peer_takeover_epoch.max(takeover_epoch);
        self.last_backup_ack = ctx.now();
        if self.backup_presumed_dead {
            self.backup_presumed_dead = false;
            ctx.stats().bump("ac-backup-recovered", 1);
            self.sync_backup(ctx);
        }
    }

    /// Message dispatch while in the backup role.
    pub(crate) fn on_backup_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Msg) {
        let Role::Backup { primary } = self.role else {
            return;
        };
        match msg {
            Msg::Heartbeat { seq, takeover_epoch } if from == primary => {
                self.last_heartbeat = ctx.now();
                // Remember the primary's fencing epoch so a later
                // takeover fences strictly above it.
                self.peer_takeover_epoch = self.peer_takeover_epoch.max(takeover_epoch);
                ctx.send(
                    from,
                    "replication",
                    Msg::HeartbeatAck {
                        seq,
                        takeover_epoch: self.takeover_epoch,
                    }
                    .to_bytes(),
                );
            }
            Msg::StateSync { ct } if from == primary => {
                self.last_heartbeat = ctx.now();
                if let Ok(plain) = envelope::open(&self.repl_key, &ct) {
                    // Monotonic-sequence guard: a reordered or stale
                    // snapshot must not overwrite a newer one.
                    let mut r = Reader::new(&plain);
                    let parsed = r
                        .u64()
                        .ok()
                        .and_then(|seq| r.bytes().ok().map(|s| (seq, s.to_vec())));
                    let Some((seq, snapshot)) = parsed else {
                        return;
                    };
                    if seq <= self.applied_sync_seq {
                        ctx.stats().bump("backup-stale-sync-dropped", 1);
                        return;
                    }
                    self.applied_sync_seq = seq;
                    self.replica_state = Some(SecretBytes::new(snapshot));
                    // Durability: an accepted snapshot must survive a
                    // backup crash, or a post-crash takeover promotes an
                    // empty replica.
                    self.persist_checkpoint(ctx);
                }
            }
            // Replication traffic from impostor nodes, and every area/
            // join/rekey message: a standby replica ignores them all
            // (listed explicitly so a new wire message fails to compile
            // until triaged here).
            Msg::Heartbeat { .. }
            | Msg::StateSync { .. }
            | Msg::Join1 { .. }
            | Msg::Join2 { .. }
            | Msg::Join3 { .. }
            | Msg::Join4 { .. }
            | Msg::Join5 { .. }
            | Msg::Join6 { .. }
            | Msg::Join7 { .. }
            | Msg::Rejoin1 { .. }
            | Msg::Rejoin2 { .. }
            | Msg::Rejoin3 { .. }
            | Msg::Rejoin4 { .. }
            | Msg::Rejoin5 { .. }
            | Msg::Rejoin6 { .. }
            | Msg::RejoinDenied { .. }
            | Msg::AreaJoinReq { .. }
            | Msg::AreaJoinAck { .. }
            | Msg::KeyUpdate { .. }
            | Msg::KeyUnicast { .. }
            | Msg::KeyRefreshRequest { .. }
            | Msg::LeaveRequest { .. }
            | Msg::Data { .. }
            | Msg::AcAlive { .. }
            | Msg::MemberAlive { .. }
            | Msg::HeartbeatAck { .. }
            | Msg::Takeover { .. }
            | Msg::Demote { .. } => {}
        }
    }

    /// Backup watchdog: take over after `failover_threshold` missed
    /// heartbeats.
    pub(crate) fn tick_backup_watch(&mut self, ctx: &mut Context<'_>) {
        let Role::Backup { primary } = self.role else {
            return;
        };
        let silence = ctx.now().since(self.last_heartbeat);
        let threshold = self
            .cfg
            .heartbeat_interval
            .saturating_mul(self.cfg.failover_threshold as u64);
        if silence >= threshold {
            self.take_over(ctx, primary);
        } else {
            ctx.set_timer(self.cfg.heartbeat_interval, TIMER_BACKUP_WATCH);
        }
    }

    /// Becomes the area's controller: restore replicated state, announce
    /// to the area, the registration server and the parent, and start
    /// the primary timers.
    fn take_over(&mut self, ctx: &mut Context<'_>, old_primary: NodeId) {
        if let Some(state) = self.replica_state.take() {
            let installed = AcSnapshot::from_bytes(state.as_slice())
                .and_then(|snap| self.apply_replica_snapshot(&snap, ctx.now()));
            if installed.is_none() {
                ctx.stats().bump("ac-takeover-corrupt-state", 1);
            }
        }
        self.role = Role::Primary;
        // Fence strictly above anything the old primary ever announced:
        // after a partition heal, whichever of the two primaries holds
        // the lower epoch demotes itself (split-brain reconciliation).
        self.takeover_epoch = self.takeover_epoch.max(self.peer_takeover_epoch) + 1;
        self.stale_peer = Some(old_primary);
        // This node no longer has a backup of its own.
        self.deploy.backup = None;
        self.deploy.backup_pubkey = Vec::new();
        self.stats.takeovers += 1;
        ctx.stats().bump("ac-takeovers", 1);

        // The promotion must be durable before it is announced: a
        // promoted backup that crashes and forgets it was primary would
        // leave the area with no controller at all. WAL first, then the
        // compacting checkpoint — if the checkpoint write is later lost
        // to a lying disk, the older slot plus this record still
        // replays the promotion.
        self.wal_commit_record(
            ctx,
            &AcWalRecord::Promoted {
                takeover_epoch: self.takeover_epoch,
                old_primary: old_primary.index() as u32,
            },
        );
        self.persist_checkpoint(ctx);

        self.announce_takeover(ctx);

        // Re-enroll with the parent so parent-area keys are fresh.
        if self.parent.is_some() {
            self.last_heard_parent = ctx.now();
            if let Some(p) = self.parent.clone() {
                ctx.join_group(p.group);
                self.request_parent_enrollment(ctx, &p);
            }
        }

        ctx.set_timer(self.cfg.t_idle, TIMER_IDLE_ALIVE);
        ctx.set_timer(self.cfg.t_active, TIMER_SWEEP);
        ctx.set_timer(self.cfg.rekey_interval, TIMER_REKEY);
        ctx.set_timer(self.cfg.t_idle, TIMER_PARENT_CHECK);
    }

    /// Signed takeover announcement: members switch their AC pointer,
    /// the RS updates its directory, child controllers repoint parents.
    /// Also re-sent after a split-brain heal, for the partition that
    /// missed the original.
    fn announce_takeover(&mut self, ctx: &mut Context<'_>) {
        let mut w = Writer::new();
        w.u32(self.deploy.area.0);
        ctx.charge_compute(self.cost.rsa_private(self.cfg.rsa_bits));
        let sig = self.keypair.sign(&w.into_bytes());
        let announce = Msg::Takeover {
            area: self.deploy.area,
            sig,
            pubkey: self.keypair.public().to_bytes(),
        }
        .to_bytes();
        ctx.multicast(self.deploy.group, "takeover", announce.clone());
        // The RS copy must survive loss — a silently lost announcement
        // leaves the directory pointing at the dead primary.
        ctx.send_reliable(self.deploy.rs_node, "takeover", announce);
        self.last_area_mcast = ctx.now();
    }

    /// What a `Demote` signature covers: the area and the winning
    /// takeover epoch.
    fn demote_signed_bytes(area: crate::identity::AreaId, takeover_epoch: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(area.0).u64(takeover_epoch);
        w.into_bytes()
    }

    /// A primary received a primary heartbeat: the sender also believes
    /// it runs this area. If it is the node this one took over from and
    /// its fencing epoch is lower, send it a signed `Demote` (reliably —
    /// the heal may still be flaky).
    pub(crate) fn handle_stale_primary_heartbeat(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        _seq: u64,
        takeover_epoch: u64,
    ) {
        if takeover_epoch >= self.takeover_epoch || self.stale_peer != Some(from) {
            return;
        }
        if self.pending_demote.is_some() {
            return; // one fence in flight is enough
        }
        ctx.stats().bump("ac-demote-sent", 1);
        ctx.charge_compute(self.cost.rsa_private(self.cfg.rsa_bits));
        let sig = self
            .keypair
            .sign(&Self::demote_signed_bytes(self.deploy.area, self.takeover_epoch));
        let token = ctx.send_reliable(
            from,
            "takeover",
            Msg::Demote {
                area: self.deploy.area,
                takeover_epoch: self.takeover_epoch,
                sig,
            }
            .to_bytes(),
        );
        self.pending_demote = Some(token);
    }

    /// A primary received a `Demote`: its old backup took over behind a
    /// partition and holds a higher fencing epoch. Verify the claim
    /// against the deployment's backup key and step down to the backup
    /// role, to be resynchronized through the normal StateSync path.
    pub(crate) fn handle_demote(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        area: crate::identity::AreaId,
        takeover_epoch: u64,
        sig: &[u8],
    ) {
        if area != self.deploy.area
            || takeover_epoch <= self.takeover_epoch
            || self.deploy.backup != Some(from)
        {
            return;
        }
        let Ok(pk) = RsaPublicKey::from_bytes(&self.deploy.backup_pubkey) else {
            return;
        };
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        if !pk.verify(&Self::demote_signed_bytes(area, takeover_epoch), sig) {
            return;
        }
        // Epoch fence lost: step down.
        self.role = Role::Backup { primary: from };
        self.peer_takeover_epoch = takeover_epoch;
        // Replica bookkeeping from the primary stint must not block the
        // new primary's snapshots.
        self.applied_sync_seq = 0;
        self.replica_state = None;
        self.backup_presumed_dead = false;
        self.last_heartbeat = ctx.now();
        // Outstanding primary-role reliables toward the winner (stale
        // state-syncs, mainly) must not race its snapshots.
        ctx.cancel_reliable_to(from);
        self.pending_sync = None;
        if let Some((_, token)) = self.pending_parent_join.take() {
            ctx.cancel_reliable(token);
        }
        self.stats.demotions += 1;
        ctx.stats().bump("ac-demotions", 1);
        // Losing the fence must stick across a crash, or a recovered
        // node would come back up believing it still runs the area.
        self.wal_commit_record(ctx, &AcWalRecord::Demoted { new_primary: from.index() as u32 });
        self.persist_checkpoint(ctx);
        // The primary timers die on their next firing (role-gated); the
        // backup watchdog takes their place.
        ctx.set_timer(self.cfg.heartbeat_interval, TIMER_BACKUP_WATCH);
    }

    /// The stale primary acknowledged the `Demote` (the gates on both
    /// sides mirror each other, so delivery implies acceptance): adopt
    /// it as this node's backup and bring it up to date.
    pub(crate) fn handle_demote_acked(&mut self, ctx: &mut Context<'_>) {
        let Some(peer) = self.stale_peer.take() else {
            return;
        };
        let Some(pk) = self.directory_pubkey(peer) else {
            return;
        };
        self.deploy.backup = Some(peer);
        self.deploy.backup_pubkey = pk.to_bytes();
        self.last_backup_ack = ctx.now();
        self.backup_presumed_dead = false;
        ctx.stats().bump("ac-demote-acked", 1);
        // The backup link is part of the checkpointed image; make the
        // adoption durable.
        self.persist_checkpoint(ctx);
        // Members and child controllers in the stale partition missed
        // the original takeover announcement; repeat it now that both
        // sides can hear it.
        self.announce_takeover(ctx);
        ctx.set_timer(self.cfg.heartbeat_interval, TIMER_HEARTBEAT);
        self.sync_backup(ctx);
    }

    /// Sends a signed area-join request to (re)establish membership in
    /// the parent area.
    pub(crate) fn request_parent_enrollment(&mut self, ctx: &mut Context<'_>, parent: &ParentLink) {
        let Some(parent_pub) = self.directory_pubkey(parent.node) else {
            return;
        };
        let mut w = Writer::new();
        w.u32(self.deploy.area.0).u64(ctx.now().as_micros());
        ctx.charge_compute(self.cost.rsa_public(self.cfg.rsa_bits));
        let Ok(ct) = mykil_crypto::envelope::HybridCiphertext::encrypt(
            &parent_pub,
            &w.into_bytes(),
            ctx.rng(),
        ) else {
            return;
        };
        let ct = ct.to_bytes();
        ctx.charge_compute(self.cost.rsa_private(self.cfg.rsa_bits));
        let sig = self.keypair.sign(&ct);
        if let Some((_, old)) = self.pending_parent_join.take() {
            ctx.cancel_reliable(old);
        }
        let token = ctx.send_reliable(
            parent.node,
            "area-join",
            Msg::AreaJoinReq { ct, sig }.to_bytes(),
        );
        self.pending_parent_join = Some((parent.node, token));
    }
}

#[cfg(test)]
mod tests {
    use super::AreaController;
    use crate::durable::AcSnapshot;
    use crate::group::GroupBuilder;

    /// Regression: `child_ac_members` must survive the snapshot round
    /// trip, or a promoted backup rejects every child-AC key refresh.
    #[test]
    fn replica_snapshot_round_trips_child_ac_enrollments() {
        let mut g = GroupBuilder::new(91).areas(2).replicated(true).build();
        g.settle();
        let (bytes, expect_children, expect_epoch) =
            g.sim.invoke(g.primaries[0], |ac: &mut AreaController, _ctx| {
                (
                    ac.replica_snapshot().to_bytes(),
                    ac.child_ac_members.clone(),
                    ac.epoch,
                )
            });
        assert!(
            !expect_children.is_empty(),
            "area 1 should be enrolled as a child of area 0"
        );
        let now = g.sim.now();
        let backup = g.sim.node_mut::<AreaController>(g.backups[0]);
        let snap = AcSnapshot::from_bytes(&bytes).expect("snapshot parses");
        backup
            .apply_replica_snapshot(&snap, now)
            .expect("snapshot installs");
        assert_eq!(backup.child_ac_members, expect_children);
        assert_eq!(backup.epoch, expect_epoch);
    }

    /// A stale (lower-sequence) snapshot — e.g. a delayed retransmission
    /// arriving after a newer sync — must not regress the backup.
    #[test]
    fn stale_state_sync_cannot_regress_backup() {
        use crate::msg::Msg;
        use crate::wire::Writer;
        use mykil_crypto::envelope;

        let mut g = GroupBuilder::new(92).areas(1).replicated(true).build();
        g.register_member(1);
        g.settle();
        let backup_node = g.backups[0];
        let applied = g.sim.node::<AreaController>(backup_node).applied_sync_seq;
        assert!(applied > 0, "backup never applied a snapshot");
        let state = g
            .sim
            .node::<AreaController>(backup_node)
            .replica_state
            .clone();

        // Replay a sealed snapshot with an old sequence number.
        let primary = g.primaries[0];
        let (repl_key, snapshot) = g.sim.invoke(primary, |ac: &mut AreaController, _ctx| {
            (ac.repl_key.clone(), ac.replica_snapshot())
        });
        let mut plain = Writer::new();
        plain.u64(1).bytes(&[0xde; 4]); // bogus body under a stale seq
        let mut rng = mykil_crypto::drbg::Drbg::from_seed(7);
        let ct = envelope::seal(&repl_key, &plain.into_bytes(), &mut rng);
        g.sim.invoke(backup_node, |ac: &mut AreaController, ctx| {
            ac.on_backup_message(ctx, primary, Msg::StateSync { ct });
        });
        let b = g.sim.node::<AreaController>(backup_node);
        assert_eq!(b.applied_sync_seq, applied, "stale seq must not apply");
        assert_eq!(b.replica_state, state, "stale snapshot overwrote state");
        assert_eq!(g.stats().counter("backup-stale-sync-dropped"), 1);
        drop(snapshot);
    }

    /// Regression: a primary whose backup died must stop burning
    /// bandwidth on `StateSync`, and must resume — with a catch-up
    /// snapshot — the moment the backup acks heartbeats again.
    #[test]
    fn primary_detects_dead_backup_and_resyncs_on_recovery() {
        use mykil_net::Duration;

        let mut g = GroupBuilder::new(95).areas(1).replicated(true).build();
        let a = g.register_member(1);
        g.settle();
        assert!(g.is_member(a));
        let primary = g.primaries[0];
        let backup_node = g.backups[0];

        // Kill the backup; heartbeat acks stop and the in-flight
        // reliable syncs run out their retry budget.
        g.sim.crash(backup_node);
        g.run_for(Duration::from_secs(4));
        assert_eq!(g.stats().counter("backup-presumed-dead"), 1);
        assert!(g.sim.node::<AreaController>(primary).backup_presumed_dead);

        // Membership churn while the backup is down must not produce
        // any sync traffic toward the dead node.
        let syncs_before = g.stats().kind("state-sync").messages_sent;
        let seq_before = g.sim.node::<AreaController>(primary).sync_seq;
        let b = g.register_member(2);
        g.run_for(Duration::from_secs(2));
        assert!(g.is_member(b));
        assert_eq!(
            g.stats().kind("state-sync").messages_sent,
            syncs_before,
            "primary kept syncing a presumed-dead backup"
        );
        assert_eq!(g.sim.node::<AreaController>(primary).sync_seq, seq_before);

        // The backup returns: the next heartbeat ack revives it and an
        // immediate catch-up sync closes the replication gap.
        g.sim.restart(backup_node);
        g.run_for(Duration::from_secs(2));
        assert_eq!(g.stats().counter("ac-backup-recovered"), 1);
        assert!(!g.sim.node::<AreaController>(primary).backup_presumed_dead);
        assert!(
            g.stats().kind("state-sync").messages_sent > syncs_before,
            "no catch-up sync after the backup returned"
        );
        // The catch-up snapshot carries the member admitted during the
        // outage.
        let snap = g
            .sim
            .node::<AreaController>(backup_node)
            .replica_state
            .clone()
            .expect("backup holds no catch-up snapshot");
        let now = g.sim.now();
        let probe = g.sim.node_mut::<AreaController>(backup_node);
        let snap = AcSnapshot::from_bytes(snap.as_slice()).expect("snapshot parses");
        probe
            .apply_replica_snapshot(&snap, now)
            .expect("snapshot installs");
        assert_eq!(probe.members.len(), 2);
    }
}
