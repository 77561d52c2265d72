//! The per-callback handle protocol code uses to interact with the
//! simulated world.

use crate::id::{GroupId, NodeId};
use crate::stats::Stats;
use crate::storage::StableStore;
use crate::time::{Duration, Time};
use mykil_crypto::drbg::Drbg;

/// Handle to a pending timer, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub(crate) u64);

/// Handle to a reliable send (see [`Context::send_reliable`]): identifies
/// the message in the [`Node`](crate::Node) ack/expiry callbacks and can
/// cancel a pending retransmission via [`Context::cancel_reliable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgToken(pub(crate) u64);

/// Deferred effects of a node callback, applied by the simulator after
/// the callback returns.
#[derive(Debug)]
pub(crate) enum Action {
    Send {
        to: NodeId,
        kind: &'static str,
        bytes: Vec<u8>,
        /// Compute time accumulated before this send was issued.
        after: Duration,
    },
    SendReliable {
        to: NodeId,
        kind: &'static str,
        bytes: Vec<u8>,
        msg_id: u64,
        after: Duration,
    },
    CancelReliable {
        msg_id: u64,
    },
    CancelReliableTo {
        peer: NodeId,
    },
    Multicast {
        group: GroupId,
        kind: &'static str,
        bytes: Vec<u8>,
        after: Duration,
    },
    SetTimer {
        delay: Duration,
        tag: u64,
        token: u64,
        after: Duration,
    },
    CancelTimer {
        token: u64,
    },
    JoinGroup {
        group: GroupId,
    },
    LeaveGroup {
        group: GroupId,
    },
}

/// Execution context passed to every [`Node`](crate::Node) callback.
///
/// All effects (sends, timers, group membership) are deferred and
/// applied by the simulator when the callback returns, which keeps the
/// model simple and the run deterministic.
pub struct Context<'a> {
    pub(crate) now: Time,
    pub(crate) self_id: NodeId,
    pub(crate) rng: &'a mut Drbg,
    pub(crate) stats: &'a mut Stats,
    pub(crate) actions: Vec<Action>,
    pub(crate) compute: Duration,
    pub(crate) next_token: &'a mut u64,
    pub(crate) next_msg_id: &'a mut u64,
    pub(crate) storage: &'a mut dyn StableStore,
}

impl<'a> Context<'a> {
    /// Current virtual time (does not include compute charged in this
    /// callback).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The node this callback runs on.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Deterministic per-run RNG.
    pub fn rng(&mut self) -> &mut Drbg {
        self.rng
    }

    /// Custom experiment counters (see [`Stats::bump`]).
    pub fn stats(&mut self) -> &mut Stats {
        self.stats
    }

    /// This node's simulated stable storage (WAL + checkpoints). State
    /// written and synced here survives crashes — modulo any injected
    /// storage fault — and is what
    /// [`Node::on_restarted`](crate::Node::on_restarted) recovers from.
    pub fn storage(&mut self) -> &mut dyn StableStore {
        self.storage
    }

    /// Charges virtual CPU time; every subsequent effect in this
    /// callback is delayed by the accumulated amount.
    ///
    /// Protocol code uses this to model cryptographic cost: e.g. an RSA
    /// decryption on the paper's Pentium III is charged tens of
    /// milliseconds, which is what makes the Section V-D join-latency
    /// experiment meaningful.
    pub fn charge_compute(&mut self, d: Duration) {
        self.compute += d;
    }

    /// Compute charged so far in this callback.
    pub fn compute_charged(&self) -> Duration {
        self.compute
    }

    /// Sends `bytes` to `to`, tagged with an accounting `kind`.
    pub fn send(&mut self, to: NodeId, kind: &'static str, bytes: Vec<u8>) {
        self.actions.push(Action::Send {
            to,
            kind,
            bytes,
            after: self.compute,
        });
    }

    /// Sends `bytes` to `to` with at-least-once delivery: the simulator
    /// retransmits with exponential backoff until the receiver's network
    /// layer acknowledges the message or the retry budget is exhausted
    /// (see [`Simulator::set_reliable_policy`](crate::Simulator::set_reliable_policy)).
    ///
    /// Receivers are shielded from the "at-least-once" part by a
    /// per-peer dedup window, so `on_message` runs at most once per
    /// reliable send. The outcome is surfaced through
    /// [`Node::on_reliable_acked`](crate::Node::on_reliable_acked) and
    /// [`Node::on_reliable_expired`](crate::Node::on_reliable_expired).
    pub fn send_reliable(&mut self, to: NodeId, kind: &'static str, bytes: Vec<u8>) -> MsgToken {
        let msg_id = *self.next_msg_id;
        *self.next_msg_id += 1;
        self.actions.push(Action::SendReliable {
            to,
            kind,
            bytes,
            msg_id,
            after: self.compute,
        });
        MsgToken(msg_id)
    }

    /// Stops retransmitting a reliable send (e.g. because it has been
    /// superseded); a no-op if it was already acknowledged or expired.
    /// Neither the ack nor the expiry callback fires afterwards.
    pub fn cancel_reliable(&mut self, token: MsgToken) {
        self.actions.push(Action::CancelReliable { msg_id: token.0 });
    }

    /// Cancels every pending reliable send from this node to `peer`
    /// (e.g. after observing the peer crash or evicting it): their
    /// retransmit timers stop firing and neither the ack nor the expiry
    /// callback runs. Each cancelled send bumps the
    /// `reliable-cancelled` stat.
    pub fn cancel_reliable_to(&mut self, peer: NodeId) {
        self.actions.push(Action::CancelReliableTo { peer });
    }

    /// Multicasts `bytes` to every current member of `group` except the
    /// sender.
    pub fn multicast(&mut self, group: GroupId, kind: &'static str, bytes: Vec<u8>) {
        self.actions.push(Action::Multicast {
            group,
            kind,
            bytes,
            after: self.compute,
        });
    }

    /// Schedules [`Node::on_timer`](crate::Node::on_timer) with `tag`
    /// after `delay`; returns a token for cancellation.
    pub fn set_timer(&mut self, delay: Duration, tag: u64) -> TimerToken {
        let token = *self.next_token;
        *self.next_token += 1;
        self.actions.push(Action::SetTimer {
            delay,
            tag,
            token,
            after: self.compute,
        });
        TimerToken(token)
    }

    /// Cancels a pending timer; a no-op if it already fired.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.actions.push(Action::CancelTimer { token: token.0 });
    }

    /// Subscribes this node to a multicast group.
    pub fn join_group(&mut self, group: GroupId) {
        self.actions.push(Action::JoinGroup { group });
    }

    /// Unsubscribes this node from a multicast group.
    pub fn leave_group(&mut self, group: GroupId) {
        self.actions.push(Action::LeaveGroup { group });
    }
}
